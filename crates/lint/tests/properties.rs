//! Property-based tests of the analyzer front end: arbitrary byte soup
//! must never panic the tokenizer, the parser, or the rule engine, and
//! masking must be shape-preserving and idempotent. The analyzer runs on
//! every CI push over a growing tree — "never crashes on weird-but-real
//! source" is a load-bearing property, not a nicety.

use likelab_lint::parse;
use likelab_lint::rules;
use likelab_lint::tokenizer;
use likelab_lint::walk::FileKind;
use proptest::prelude::*;

/// The alphabet the soup draws from: printable ASCII seasoned heavily with
/// the characters that drive the tokenizer's state machine (quotes,
/// hashes, slashes, braces, prefixes, newlines). Repeating the drivers
/// weights them up so raw-string/comment/attribute openers appear often.
const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789 _:;,.<>=&|+-\
\"\"\"''''###///***\\\\{{}}(())[]\n\n\n\nrrbbcc!!#";

/// Source-ish strings of up to 400 characters over [`ALPHABET`].
fn source_soup() -> impl Strategy<Value = String> {
    vec(0usize..ALPHABET.len(), 0..400)
        .prop_map(|idxs| idxs.into_iter().map(|i| ALPHABET[i] as char).collect())
}

proptest! {
    /// The full front end — mask, parse, per-file rules — never panics,
    /// whatever bytes arrive.
    #[test]
    fn front_end_never_panics(src in source_soup()) {
        let masked = tokenizer::mask(&src);
        let _ = parse::parse(&masked);
        let _ = rules::scan_source("crates/x/src/lib.rs", FileKind::Library, &src);
    }

    /// Masking preserves the line/column shape of the file exactly: same
    /// line count, same per-line byte length. Every rule relies on this to
    /// report real line numbers.
    #[test]
    fn masking_preserves_shape(src in source_soup()) {
        let masked = tokenizer::mask(&src);
        prop_assert_eq!(masked.raw.len(), masked.code.len());
        prop_assert_eq!(masked.raw.len(), masked.in_test.len());
        for (raw, code) in masked.raw.iter().zip(&masked.code) {
            prop_assert_eq!(raw.len(), code.len(), "line shape must survive masking");
        }
    }

    /// Masking is idempotent: the code view contains no string or comment
    /// interiors, so masking it again changes nothing.
    #[test]
    fn masking_is_idempotent(src in source_soup()) {
        let once = tokenizer::mask(&src);
        let code = once.code.join("\n");
        let twice = tokenizer::mask(&code);
        prop_assert_eq!(&once.code, &twice.code, "mask(mask(s)) == mask(s)");
    }
}
