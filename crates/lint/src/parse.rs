//! A recursive-descent item parser over the masked token stream.
//!
//! The tokenizer ([`crate::tokenizer`]) answers "is this byte code?"; this
//! module answers "which *item* does this line belong to?". It produces a
//! per-file [`FileItems`] tree: every function with its line span, its
//! enclosing module path and `impl`/`trait` self type, its parameter list
//! (names and type text), its return-type text, the spans of the loops in
//! its body, and the file's `use` map. That is exactly the vocabulary the
//! call graph ([`crate::callgraph`]) and the dataflow summaries
//! ([`crate::dataflow`]) need — deliberately far short of a real AST.
//!
//! The parser is a single forward pass over line tokens with an explicit
//! frame stack (module / impl / fn / loop), so it is linear in the source
//! and cannot loop. Unbalanced braces (mid-edit files) degrade gracefully:
//! frames left open at EOF are closed at the last line.

use crate::tokenizer::MaskedFile;
use crate::walk::FileKind;

/// One fully analyzed source file: discovery metadata, the mask, and the
/// item tree. The workspace-wide passes (call graph, dataflow rules)
/// operate on a slice of these.
#[derive(Debug)]
pub struct ParsedFile {
    /// Workspace-relative, `/`-separated path.
    pub rel_path: String,
    /// Owning crate name (`likelab-sim`, …).
    pub crate_name: String,
    /// File classification for rule scoping.
    pub kind: FileKind,
    /// The masked source.
    pub masked: MaskedFile,
    /// The parsed item tree.
    pub items: FileItems,
}

/// One function parameter: the bound name (best effort for patterns) and
/// the raw type text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Param {
    /// The bound identifier (`rng` in `rng: &mut Rng`); for destructuring
    /// patterns, the last identifier before the colon.
    pub name: String,
    /// The type text, whitespace-normalized (`&mut Rng`).
    pub ty: String,
}

/// One `fn` item with its spans and signature facts.
#[derive(Clone, Debug)]
pub struct FnItem {
    /// The function's bare name.
    pub name: String,
    /// The `impl`/`trait` self type it belongs to (`ServeEngine` for
    /// `impl ServeEngine { fn ingest … }`), if any.
    pub self_ty: Option<String>,
    /// Inline module path within the file (e.g. `["imp"]`), excluding
    /// `#[cfg(test)]` modules which are tracked by `is_test`.
    pub module: Vec<String>,
    /// Parameters, in order. `self` receivers are not included; see
    /// [`FnItem::has_self`].
    pub params: Vec<Param>,
    /// Whether the function takes a `self` receiver.
    pub has_self: bool,
    /// Return-type text (empty for `()`).
    pub ret: String,
    /// 0-based line of the `fn` keyword.
    pub sig_line: usize,
    /// 0-based line of the body's `{` (== `sig_line` for one-line sigs).
    pub body_start: usize,
    /// 0-based line of the matching `}`, inclusive.
    pub body_end: usize,
    /// True when the function lives in a `#[cfg(test)]` region.
    pub is_test: bool,
    /// True when the function is annotated `// lint:hot` (same line as the
    /// signature or any immediately preceding comment line).
    pub is_hot: bool,
    /// Body spans of `for`/`while`/`loop` loops, inclusive, innermost last.
    pub loops: Vec<(usize, usize)>,
}

impl FnItem {
    /// `Type::name` when the fn has a self type, else the bare name.
    pub fn qualified_name(&self) -> String {
        match &self.self_ty {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// One resolved `use` binding: the local identifier and the full path it
/// names (`parallel_map` → `likelab_sim::parallel::parallel_map`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UseDecl {
    /// The identifier visible in this file.
    pub ident: String,
    /// The full `::`-separated path.
    pub path: String,
}

/// Everything the later passes need to know about one file.
#[derive(Clone, Debug, Default)]
pub struct FileItems {
    /// Every `fn` item, in source order (nested fns included).
    pub functions: Vec<FnItem>,
    /// The file's `use` bindings, in source order.
    pub uses: Vec<UseDecl>,
}

/// A code token: an identifier/keyword or a single punctuation byte.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Tok<'a> {
    Ident(&'a str),
    P(u8),
}

/// Tokenize one masked line (code bytes only — the mask already removed
/// strings and comments).
fn line_tokens(line: &str) -> Vec<Tok<'_>> {
    let bytes = line.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        if b.is_ascii_alphanumeric() || b == b'_' {
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            out.push(Tok::Ident(&line[start..i]));
        } else if b == b' ' || b == b'\t' {
            i += 1;
        } else {
            out.push(Tok::P(b));
            i += 1;
        }
    }
    out
}

/// What an armed-but-not-yet-opened item is waiting for.
enum Pending {
    /// `mod name` waiting for `{` or `;`.
    Mod(String),
    /// `impl …`/`trait …` header, accumulating until `{`; the payload is
    /// the best-guess self type so far and whether a `for` was seen.
    ImplHeader { ty: String, after_for: bool },
    /// A `fn` signature, accumulating text until its body `{` (or `;`).
    FnSig {
        name: String,
        text: String,
        paren_depth: i32,
        sig_line: usize,
        is_hot: bool,
    },
    /// `for`/`while`/`loop` waiting for its body `{` at paren depth 0.
    Loop,
}

enum Frame {
    Mod { depth: i32 },
    Impl { depth: i32 },
    Fn { depth: i32, idx: usize },
    Loop { depth: i32, start: usize },
    Anon { depth: i32, outside: Outside },
}

/// What any other brace ([`Frame::Anon`]: a block, a struct literal, a
/// closure body) gives back when it closes: the paren depth outside it,
/// and whether a loop header was waiting for its body there. Paren depth
/// counts from zero inside the brace, so a loop in a closure passed as an
/// argument is found like any other.
#[derive(Clone, Copy)]
struct Outside {
    paren: i32,
    in_loop_header: bool,
}

/// Parse one masked file into its item tree.
pub fn parse(file: &MaskedFile) -> FileItems {
    let mut items = FileItems::default();
    let mut frames: Vec<Frame> = Vec::new();
    let mut pending: Option<Pending> = None;
    let mut depth: i32 = 0;
    // Paren/bracket depth, used to keep closure braces inside call
    // arguments from being taken for a pending loop/fn body.
    let mut paren: i32 = 0;
    let mut mod_path: Vec<String> = Vec::new();
    let mut impl_stack: Vec<String> = Vec::new();
    // `use` accumulation across lines until `;`.
    let mut use_text: Option<String> = None;

    for (line_idx, line) in file.code.iter().enumerate() {
        let toks = line_tokens(line);
        let mut k = 0usize;
        while k < toks.len() {
            let t = toks[k];
            // 1. Accumulating states run before keyword recognition.
            if let Some(text) = use_text.as_mut() {
                match t {
                    Tok::P(b';') => {
                        parse_use(use_text.take().unwrap_or_default().trim(), &mut items.uses);
                    }
                    _ => push_tok(text, t),
                }
                k += 1;
                continue;
            }
            match pending.take() {
                Some(Pending::Mod(name)) => match t {
                    Tok::P(b'{') => {
                        mod_path.push(name);
                        frames.push(Frame::Mod { depth });
                        depth += 1;
                        k += 1;
                        continue;
                    }
                    Tok::P(b';') => {
                        k += 1;
                        continue;
                    }
                    _ => {
                        // `mod` used oddly; drop the pending state.
                        pending = None;
                    }
                },
                Some(Pending::ImplHeader {
                    mut ty,
                    mut after_for,
                }) => match t {
                    Tok::P(b'{') => {
                        impl_stack.push(impl_self_ty(&ty));
                        frames.push(Frame::Impl { depth });
                        depth += 1;
                        k += 1;
                        continue;
                    }
                    Tok::P(b';') => {
                        k += 1;
                        continue;
                    }
                    Tok::Ident("for") => {
                        after_for = true;
                        ty.clear();
                        pending = Some(Pending::ImplHeader { ty, after_for });
                        k += 1;
                        continue;
                    }
                    Tok::Ident("where") => {
                        pending = Some(Pending::ImplHeader { ty, after_for });
                        k += 1;
                        continue;
                    }
                    other => {
                        push_tok(&mut ty, other);
                        pending = Some(Pending::ImplHeader { ty, after_for });
                        k += 1;
                        continue;
                    }
                },
                Some(Pending::FnSig {
                    name,
                    mut text,
                    mut paren_depth,
                    sig_line,
                    is_hot,
                }) => {
                    match t {
                        Tok::P(b'(') => {
                            paren_depth += 1;
                            text.push('(');
                        }
                        Tok::P(b')') => {
                            paren_depth -= 1;
                            text.push(')');
                        }
                        Tok::P(b'{') if paren_depth == 0 => {
                            let mut f = finish_fn_sig(&name, &text, sig_line, line_idx);
                            f.module = mod_path.clone();
                            f.self_ty = impl_stack.last().cloned();
                            f.is_test = *file.in_test.get(sig_line).unwrap_or(&false);
                            f.is_hot = is_hot;
                            let idx = items.functions.len();
                            items.functions.push(f);
                            frames.push(Frame::Fn { depth, idx });
                            depth += 1;
                            k += 1;
                            continue;
                        }
                        Tok::P(b';') if paren_depth == 0 => {
                            // Trait method declaration without a body.
                            k += 1;
                            continue;
                        }
                        other => push_tok(&mut text, other),
                    }
                    pending = Some(Pending::FnSig {
                        name,
                        text,
                        paren_depth,
                        sig_line,
                        is_hot,
                    });
                    k += 1;
                    continue;
                }
                Some(Pending::Loop) => match t {
                    Tok::P(b'{') if paren == 0 => {
                        frames.push(Frame::Loop {
                            depth,
                            start: line_idx,
                        });
                        depth += 1;
                        k += 1;
                        continue;
                    }
                    Tok::P(b'(') | Tok::P(b'[') => {
                        paren += 1;
                        pending = Some(Pending::Loop);
                        k += 1;
                        continue;
                    }
                    Tok::P(b')') | Tok::P(b']') => {
                        paren -= 1;
                        pending = Some(Pending::Loop);
                        k += 1;
                        continue;
                    }
                    Tok::P(b'{') => {
                        // A closure body inside the loop header's parens:
                        // parsed as code, loops and all, until it closes
                        // and the header goes on.
                        frames.push(Frame::Anon {
                            depth,
                            outside: Outside {
                                paren,
                                in_loop_header: true,
                            },
                        });
                        depth += 1;
                        paren = 0;
                        k += 1;
                        continue;
                    }
                    Tok::P(b'}') => {
                        depth -= 1;
                        if let Some(outside) = close_frames(
                            &mut frames,
                            depth,
                            line_idx,
                            &mut items,
                            &mut mod_path,
                            &mut impl_stack,
                        ) {
                            paren = outside.paren;
                        }
                        pending = Some(Pending::Loop);
                        k += 1;
                        continue;
                    }
                    Tok::P(b';') if paren == 0 => {
                        // `loop` used as something else / malformed; give up.
                        k += 1;
                        continue;
                    }
                    _ => {
                        pending = Some(Pending::Loop);
                        k += 1;
                        continue;
                    }
                },
                None => {}
            }

            // 2. Keyword recognition and brace bookkeeping.
            match t {
                Tok::Ident("mod") => {
                    if let Some(Tok::Ident(name)) = toks.get(k + 1) {
                        pending = Some(Pending::Mod((*name).to_string()));
                        k += 2;
                        continue;
                    }
                }
                Tok::Ident("impl") | Tok::Ident("trait") => {
                    pending = Some(Pending::ImplHeader {
                        ty: String::new(),
                        after_for: false,
                    });
                }
                Tok::Ident("fn") => {
                    if let Some(Tok::Ident(name)) = toks.get(k + 1) {
                        pending = Some(Pending::FnSig {
                            name: (*name).to_string(),
                            text: String::new(),
                            paren_depth: 0,
                            sig_line: line_idx,
                            is_hot: fn_is_hot(file, line_idx),
                        });
                        k += 2;
                        continue;
                    }
                }
                Tok::Ident("for") => {
                    // `for<'a>` in higher-ranked bounds is not a loop; a loop
                    // `for` is only meaningful inside a fn body.
                    let in_fn = frames.iter().any(|f| matches!(f, Frame::Fn { .. }));
                    let hrtb = matches!(toks.get(k + 1), Some(Tok::P(b'<')));
                    if in_fn && !hrtb && paren == 0 {
                        pending = Some(Pending::Loop);
                    }
                }
                Tok::Ident("while") | Tok::Ident("loop") => {
                    let in_fn = frames.iter().any(|f| matches!(f, Frame::Fn { .. }));
                    if in_fn && paren == 0 {
                        pending = Some(Pending::Loop);
                    }
                }
                Tok::Ident("use") => {
                    // Only at item position (start of a statement): the
                    // previous token on this line must be `;`, `{`, `}` or
                    // nothing. Good enough to skip `.use_xyz()` methods
                    // (those are idents anyway) and `pub use`.
                    use_text = Some(String::new());
                }
                Tok::P(b'(') | Tok::P(b'[') => paren += 1,
                Tok::P(b')') | Tok::P(b']') => paren -= 1,
                Tok::P(b'{') => {
                    frames.push(Frame::Anon {
                        depth,
                        outside: Outside {
                            paren,
                            in_loop_header: false,
                        },
                    });
                    depth += 1;
                    paren = 0;
                }
                Tok::P(b'}') => {
                    depth -= 1;
                    if let Some(outside) = close_frames(
                        &mut frames,
                        depth,
                        line_idx,
                        &mut items,
                        &mut mod_path,
                        &mut impl_stack,
                    ) {
                        paren = outside.paren;
                        if outside.in_loop_header {
                            pending = Some(Pending::Loop);
                        }
                    }
                }
                _ => {}
            }
            k += 1;
        }
    }
    // Close anything left open at EOF at the last line.
    let last = file.code.len().saturating_sub(1);
    close_frames(
        &mut frames,
        i32::MIN / 2,
        last,
        &mut items,
        &mut mod_path,
        &mut impl_stack,
    );
    items
}

/// Close every frame whose opening depth is ≥ the new depth. Returns
/// what the outermost [`Frame::Anon`] it closed kept of its outside.
fn close_frames(
    frames: &mut Vec<Frame>,
    depth: i32,
    line_idx: usize,
    items: &mut FileItems,
    mod_path: &mut Vec<String>,
    impl_stack: &mut Vec<String>,
) -> Option<Outside> {
    let mut outside = None;
    while let Some(top) = frames.last() {
        let open = match top {
            Frame::Mod { depth }
            | Frame::Impl { depth }
            | Frame::Fn { depth, .. }
            | Frame::Loop { depth, .. }
            | Frame::Anon { depth, .. } => *depth,
        };
        if open < depth {
            break;
        }
        match frames.pop() {
            Some(Frame::Mod { .. }) => {
                mod_path.pop();
            }
            Some(Frame::Impl { .. }) => {
                impl_stack.pop();
            }
            Some(Frame::Fn { idx, .. }) => {
                if let Some(f) = items.functions.get_mut(idx) {
                    f.body_end = line_idx;
                }
            }
            Some(Frame::Loop { start, .. }) => {
                // Attach to the innermost enclosing fn.
                if let Some(Frame::Fn { idx, .. }) =
                    frames.iter().rev().find(|f| matches!(f, Frame::Fn { .. }))
                {
                    if let Some(f) = items.functions.get_mut(*idx) {
                        f.loops.push((start, line_idx));
                    }
                }
            }
            Some(Frame::Anon { outside: o, .. }) => outside = Some(o),
            None => {}
        }
    }
    outside
}

/// Append a token to accumulated signature/header text with one space of
/// separation between identifiers.
fn push_tok(text: &mut String, t: Tok) {
    match t {
        Tok::Ident(w) => {
            if text
                .chars()
                .last()
                .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_')
            {
                text.push(' ');
            }
            text.push_str(w);
        }
        Tok::P(b) => text.push(b as char),
    }
}

/// The self type of an accumulated impl/trait header: the last path
/// segment of the subject, generics stripped (`Foo` for `impl<T> Foo<T>`
/// and for `impl Display for Foo<T>` — the caller already cut at `for`).
fn impl_self_ty(header: &str) -> String {
    let mut base = header.trim();
    // Strip a leading generics list `<…>`.
    if base.starts_with('<') {
        let mut angle = 0i32;
        for (i, c) in base.char_indices() {
            match c {
                '<' => angle += 1,
                '>' => {
                    angle -= 1;
                    if angle == 0 {
                        base = base[i + 1..].trim();
                        break;
                    }
                }
                _ => {}
            }
        }
    }
    // Cut at the subject's own generics.
    let base = base.split('<').next().unwrap_or(base).trim();
    // Last path segment, references stripped.
    let base = base.trim_start_matches('&').trim();
    base.rsplit("::").next().unwrap_or(base).trim().to_string()
}

/// Finish a collected fn signature: extract params and return type.
fn finish_fn_sig(name: &str, text: &str, sig_line: usize, body_line: usize) -> FnItem {
    // `text` is everything between the fn name and the body `{`, e.g.
    // `<T:Clone>(rng:&mut Rng,items:&[T])->Vec<u64> where T:Send`.
    let open = text.find('(');
    let mut params = Vec::new();
    let mut has_self = false;
    let mut ret = String::new();
    if let Some(open) = open {
        let close = matching_paren(text, open);
        let inner = &text[open + 1..close];
        for piece in split_top_level(inner) {
            let piece = piece.trim();
            if piece.is_empty() {
                continue;
            }
            let only_idents: Vec<&str> = piece
                .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                .filter(|s| !s.is_empty())
                .collect();
            if only_idents.last() == Some(&"self") || only_idents.first() == Some(&"self") {
                has_self = true;
                continue;
            }
            if let Some((pat, ty)) = split_param(piece) {
                let name = pat
                    .rsplit(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                    .find(|s| !s.is_empty() && *s != "mut")
                    .unwrap_or("_")
                    .to_string();
                params.push(Param {
                    name,
                    ty: ty.trim().to_string(),
                });
            }
        }
        // Return type: after the close paren, minus `->` and `where …`.
        let tail = &text[close + 1..];
        if let Some(arrow) = tail.find("->") {
            let mut r = &tail[arrow + 2..];
            if let Some(w) = find_where(r) {
                r = &r[..w];
            }
            ret = r.trim().to_string();
        }
    }
    FnItem {
        name: name.to_string(),
        self_ty: None,
        module: Vec::new(),
        params,
        has_self,
        ret,
        sig_line,
        body_start: body_line,
        body_end: body_line,
        is_test: false,
        is_hot: false,
        loops: Vec::new(),
    }
}

/// The index of the `)` matching the `(` at `open`.
fn matching_paren(text: &str, open: usize) -> usize {
    let mut depth = 0i32;
    for (i, c) in text.char_indices().skip(open) {
        match c {
            '(' => depth += 1,
            ')' => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
    }
    text.len().saturating_sub(1)
}

/// Split a parameter list on top-level commas (angle/paren/bracket aware;
/// `->` arrows do not count as closing angles).
fn split_top_level(s: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let bytes = s.as_bytes();
    let (mut round, mut square, mut angle) = (0i32, 0i32, 0i32);
    let mut start = 0usize;
    for i in 0..bytes.len() {
        match bytes[i] {
            b'(' => round += 1,
            b')' => round -= 1,
            b'[' => square += 1,
            b']' => square -= 1,
            b'<' => angle += 1,
            b'>' if i == 0 || bytes[i - 1] != b'-' => angle -= 1,
            b',' if round == 0 && square == 0 && angle == 0 => {
                out.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(&s[start..]);
    out
}

/// Split `pattern: Type` at the first top-level single colon.
fn split_param(piece: &str) -> Option<(&str, &str)> {
    let bytes = piece.as_bytes();
    let (mut round, mut square, mut angle) = (0i32, 0i32, 0i32);
    let mut i = 0usize;
    while i < bytes.len() {
        match bytes[i] {
            b'(' => round += 1,
            b')' => round -= 1,
            b'[' => square += 1,
            b']' => square -= 1,
            b'<' => angle += 1,
            b'>' if i == 0 || bytes[i - 1] != b'-' => angle -= 1,
            b':' if round == 0 && square == 0 && angle == 0 => {
                if bytes.get(i + 1) == Some(&b':') {
                    i += 2;
                    continue;
                }
                return Some((&piece[..i], &piece[i + 1..]));
            }
            _ => {}
        }
        i += 1;
    }
    None
}

/// Find a top-level ` where ` keyword in return-type text.
fn find_where(s: &str) -> Option<usize> {
    crate::tokenizer::find_word(s, "where", 0)
}

/// Is the fn at `sig_line` annotated `// lint:hot`? The marker may sit on
/// the signature line itself or on any immediately preceding comment line.
fn fn_is_hot(file: &MaskedFile, sig_line: usize) -> bool {
    if file
        .raw
        .get(sig_line)
        .is_some_and(|l| l.contains("lint:hot"))
    {
        return true;
    }
    let mut i = sig_line;
    while i > 0 {
        i -= 1;
        let raw = file.raw[i].trim();
        // Attributes and comments may sit between the marker and the fn.
        if raw.starts_with("//") || raw.starts_with("#[") {
            if raw.contains("lint:hot") {
                return true;
            }
        } else {
            break;
        }
    }
    false
}

/// Parse an accumulated `use` statement body (after `use`, before `;`)
/// into bindings. Handles `a::b::c`, `a::b as x`, `a::{b, c as d, e::f}`,
/// and ignores globs (`a::*`) — the call-graph resolver treats unresolved
/// names by crate proximity anyway.
fn parse_use(text: &str, out: &mut Vec<UseDecl>) {
    // Strip a leading visibility that the tokenizer folded in (`pub use`
    // arms the accumulator from `use`, so `pub` never lands here; `pub ( crate )`
    // forms do not either).
    expand_use(text.trim(), "", out);
}

fn expand_use(text: &str, prefix: &str, out: &mut Vec<UseDecl>) {
    let text = text.trim();
    if text.is_empty() || text == "*" {
        return;
    }
    if let Some(brace) = text.find('{') {
        // `head::{…}` — recurse into each top-level piece.
        let head = text[..brace].trim_end_matches("::").trim();
        let inner_end = text.rfind('}').unwrap_or(text.len());
        let inner = &text[brace + 1..inner_end];
        let joined = join_path(prefix, head);
        let mut depth = 0i32;
        let mut start = 0usize;
        let bytes = inner.as_bytes();
        for i in 0..bytes.len() {
            match bytes[i] {
                b'{' => depth += 1,
                b'}' => depth -= 1,
                b',' if depth == 0 => {
                    expand_use(&inner[start..i], &joined, out);
                    start = i + 1;
                }
                _ => {}
            }
        }
        expand_use(&inner[start..], &joined, out);
        return;
    }
    // `path as alias` or plain `path`.
    let (path_part, alias) = match crate::tokenizer::find_word(text, "as", 0) {
        Some(pos) => (text[..pos].trim(), Some(text[pos + 2..].trim())),
        None => (text.trim(), None),
    };
    let full = join_path(prefix, path_part);
    let last = full.rsplit("::").next().unwrap_or(&full).to_string();
    let ident = alias.map(str::to_string).unwrap_or(last);
    if ident.is_empty() || ident == "*" {
        return;
    }
    out.push(UseDecl { ident, path: full });
}

fn join_path(prefix: &str, tail: &str) -> String {
    let tail = tail.trim().trim_start_matches("::").trim();
    if prefix.is_empty() {
        tail.to_string()
    } else if tail.is_empty() || tail == "self" {
        prefix.to_string()
    } else {
        format!("{prefix}::{tail}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::mask;

    fn parsed(src: &str) -> FileItems {
        parse(&mask(src))
    }

    #[test]
    fn simple_fn_with_span_and_params() {
        let src = "pub fn f(rng: &mut Rng, items: &[u32]) -> Vec<u64> {\n    body();\n}\n";
        let items = parsed(src);
        assert_eq!(items.functions.len(), 1);
        let f = &items.functions[0];
        assert_eq!(f.name, "f");
        assert_eq!(f.sig_line, 0);
        assert_eq!(f.body_end, 2);
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.params[0].name, "rng");
        assert_eq!(f.params[0].ty, "&mut Rng");
        assert_eq!(f.params[1].name, "items");
        assert_eq!(f.ret, "Vec<u64>");
        assert!(!f.has_self);
    }

    #[test]
    fn impl_methods_get_self_ty() {
        let src = "struct ServeEngine;\nimpl ServeEngine {\n    pub fn ingest(&mut self, x: u64) -> bool {\n        true\n    }\n}\n";
        let items = parsed(src);
        assert_eq!(items.functions.len(), 1);
        let f = &items.functions[0];
        assert_eq!(f.self_ty.as_deref(), Some("ServeEngine"));
        assert_eq!(f.qualified_name(), "ServeEngine::ingest");
        assert!(f.has_self);
        assert_eq!(f.params.len(), 1);
        assert_eq!(f.params[0].name, "x");
    }

    #[test]
    fn trait_impl_for_extracts_subject() {
        let src = "impl<T: Clone> Iterator for PostingIter<'_, T> {\n    fn next(&mut self) -> Option<u32> { None }\n}\n";
        let items = parsed(src);
        assert_eq!(
            items.functions[0].self_ty.as_deref(),
            Some("PostingIter"),
            "{:?}",
            items.functions[0]
        );
    }

    #[test]
    fn multiline_signature() {
        let src = "fn g(\n    a: u32,\n    b: HashMap<u32, Vec<u8>>,\n) -> u64\nwhere\n    u32: Copy,\n{\n    0\n}\n";
        let items = parsed(src);
        let f = &items.functions[0];
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.params[1].name, "b");
        assert_eq!(f.params[1].ty, "HashMap<u32,Vec<u8>>");
        assert_eq!(f.ret, "u64");
        assert_eq!(f.body_start, 6);
        assert_eq!(f.body_end, 8);
    }

    #[test]
    fn loops_are_tracked_per_fn() {
        let src = "fn f(xs: &[u32]) -> u32 {\n    let mut t = 0;\n    for x in xs {\n        while t < *x {\n            t += 1;\n        }\n    }\n    loop {\n        break;\n    }\n    t\n}\n";
        let items = parsed(src);
        let f = &items.functions[0];
        // Inner loops close first.
        assert_eq!(f.loops, vec![(3, 5), (2, 6), (7, 9)], "{:?}", f.loops);
    }

    #[test]
    fn closure_brace_in_loop_header_is_not_the_body() {
        let src =
            "fn f(xs: &[u32]) {\n    for x in xs.iter().map(|v| { v + 1 }) {\n        use_it(x);\n    }\n}\n";
        let items = parsed(src);
        let f = &items.functions[0];
        assert_eq!(f.loops, vec![(1, 3)], "{:?}", f.loops);
    }

    #[test]
    fn loops_in_closures_passed_as_arguments_belong_to_the_fn() {
        // A closure argument; a closure in a loop header, whose own loop
        // closes before the header's loop opens; a closure nested in a
        // closure's call.
        let src = "fn f(xs: &[u32]) {\n    helper(xs, |ys| {\n        for y in ys {\n            use_it(y);\n        }\n    });\n    for job in pool(xs, |_, ys| {\n        while go() {\n            step();\n        }\n    }) {\n        use_it(job);\n    }\n    cell.with(|c| run(c, |d| {\n        loop {\n            break;\n        }\n    }));\n}\n";
        let items = parsed(src);
        let f = &items.functions[0];
        assert_eq!(
            f.loops,
            vec![(2, 4), (7, 9), (10, 12), (14, 16)],
            "{:?}",
            f.loops
        );
        assert_eq!(f.body_end, 18);
    }

    #[test]
    fn modules_and_nesting() {
        let src = "mod outer {\n    pub mod inner {\n        pub fn deep() {}\n    }\n}\nfn shallow() {}\n";
        let items = parsed(src);
        assert_eq!(items.functions.len(), 2);
        assert_eq!(items.functions[0].module, vec!["outer", "inner"]);
        assert!(items.functions[1].module.is_empty());
    }

    #[test]
    fn out_of_line_mod_decl_is_ignored() {
        let src = "mod tests;\nfn f() {}\n";
        let items = parsed(src);
        assert_eq!(items.functions.len(), 1);
        assert!(items.functions[0].module.is_empty());
    }

    #[test]
    fn cfg_test_fns_are_marked() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {}\n}\n";
        let items = parsed(src);
        assert!(!items.functions[0].is_test);
        assert!(items.functions[1].is_test);
    }

    #[test]
    fn hot_annotation_is_detected() {
        let src = "// lint:hot — inner loop of the ledger scatter\nfn scatter() {}\nfn cold() {}\n";
        let items = parsed(src);
        assert!(items.functions[0].is_hot);
        assert!(!items.functions[1].is_hot);
    }

    #[test]
    fn use_map_handles_groups_aliases_and_globs() {
        let src = "use likelab_sim::parallel::{parallel_map, Exec as Ex};\nuse likelab_sim::Rng;\nuse std::collections::*;\nfn f() {}\n";
        let items = parsed(src);
        let find = |id: &str| {
            items
                .uses
                .iter()
                .find(|u| u.ident == id)
                .map(|u| u.path.clone())
        };
        assert_eq!(
            find("parallel_map").as_deref(),
            Some("likelab_sim::parallel::parallel_map")
        );
        assert_eq!(find("Ex").as_deref(), Some("likelab_sim::parallel::Exec"));
        assert_eq!(find("Rng").as_deref(), Some("likelab_sim::Rng"));
        assert!(find("*").is_none());
    }

    #[test]
    fn hrtb_for_is_not_a_loop() {
        let src = "fn f<F: for<'a> Fn(&'a u32)>(g: F) {\n    g(&1);\n}\n";
        let items = parsed(src);
        assert!(items.functions[0].loops.is_empty());
    }

    #[test]
    fn nested_fn_is_its_own_item() {
        let src = "fn outer() {\n    fn inner(x: u32) -> u32 { x }\n    inner(1);\n}\n";
        let items = parsed(src);
        assert_eq!(items.functions.len(), 2);
        assert_eq!(items.functions[0].name, "outer");
        assert_eq!(items.functions[1].name, "inner");
        assert_eq!(items.functions[0].body_end, 3);
        assert_eq!(items.functions[1].body_end, 1);
    }

    #[test]
    fn unbalanced_input_does_not_panic() {
        let items = parsed("fn f() {\n    if x {\n");
        assert_eq!(items.functions.len(), 1);
        let items = parsed("}}}}\nfn g() {}\n");
        assert_eq!(items.functions.len(), 1);
    }
}
