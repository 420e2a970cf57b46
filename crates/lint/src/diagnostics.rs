//! Findings and their human / JSON renderings.
//!
//! The JSON schema follows the obs exporter conventions (hand-rolled
//! writer, stable key order, versioned top-level document) so CI tooling
//! that already consumes `--metrics-out` documents can consume lint
//! reports the same way.

use std::fmt::Write as _;

/// One rule violation at a concrete source location.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Stable rule identifier (e.g. `log-bypass`).
    pub rule: &'static str,
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The offending source line, trimmed.
    pub snippet: String,
    /// One-sentence suggestion for fixing or suppressing the finding.
    pub hint: String,
    /// For interprocedural rules: the call chain that reaches the site,
    /// entry-first (qualified fn names). Empty for per-file rules.
    pub path: Vec<String>,
}

/// A full lint report.
#[derive(Debug, Default)]
pub struct Report {
    /// Every finding; any one fails the build.
    pub findings: Vec<Finding>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// True when no finding remains.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Human-readable rendering: one block per finding, then a summary.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let _ = writeln!(out, "{}:{}: [{}] {}", f.file, f.line, f.rule, f.snippet);
            if f.path.len() > 1 {
                let _ = writeln!(out, "    reachable via {}", f.path.join(" → "));
            }
            let _ = writeln!(out, "    hint: {}", f.hint);
        }
        let _ = writeln!(
            out,
            "{} finding{}, {} file{} scanned",
            self.findings.len(),
            if self.findings.len() == 1 { "" } else { "s" },
            self.files_scanned,
            if self.files_scanned == 1 { "" } else { "s" },
        );
        out
    }

    /// JSON rendering (schema version 2):
    ///
    /// ```json
    /// {
    ///   "version": 2,
    ///   "findings": [{"rule": "...", "file": "...", "line": 3,
    ///                 "snippet": "...", "hint": "...", "path": ["a", "b"]}],
    ///   "files_scanned": 96
    /// }
    /// ```
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n  \"version\": 2,\n  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"snippet\": \"{}\", \"hint\": \"{}\", \"path\": [{}]}}",
                if i == 0 { "" } else { "," },
                json_escape(f.rule),
                json_escape(&f.file),
                f.line,
                json_escape(&f.snippet),
                json_escape(&f.hint),
                f.path
                    .iter()
                    .map(|p| format!("\"{}\"", json_escape(p)))
                    .collect::<Vec<_>>()
                    .join(", "),
            );
        }
        out.push_str(if self.findings.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        let _ = writeln!(out, "  \"files_scanned\": {}", self.files_scanned);
        out.push('}');
        out
    }

    /// SARIF 2.1.0 rendering — the minimal document GitHub's code-scanning
    /// upload and PR annotations accept: one run, the rule catalog in the
    /// driver, one `result` per finding. Call chains are folded into the
    /// message text (SARIF code flows need column-level regions the line
    /// scanner does not have).
    pub fn render_sarif(&self) -> String {
        let mut out = String::from(
            "{\n  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n  \"version\": \"2.1.0\",\n  \"runs\": [\n    {\n      \"tool\": {\n        \"driver\": {\n          \"name\": \"likelab-lint\",\n          \"informationUri\": \"LINTS.md\",\n          \"rules\": [",
        );
        for (i, r) in crate::rules::RULES.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n            {{\"id\": \"{}\", \"shortDescription\": {{\"text\": \"{}\"}}}}",
                if i == 0 { "" } else { "," },
                json_escape(r.id),
                json_escape(r.summary),
            );
        }
        out.push_str("\n          ]\n        }\n      },\n      \"results\": [");
        for (i, f) in self.findings.iter().enumerate() {
            let message = if f.path.len() > 1 {
                format!("{} (reachable via {})", f.hint, f.path.join(" → "))
            } else {
                f.hint.clone()
            };
            let _ = write!(
                out,
                "{}\n        {{\"ruleId\": \"{}\", \"level\": \"error\", \"message\": {{\"text\": \"{}\"}}, \"locations\": [{{\"physicalLocation\": {{\"artifactLocation\": {{\"uri\": \"{}\"}}, \"region\": {{\"startLine\": {}}}}}}}]}}",
                if i == 0 { "" } else { "," },
                json_escape(f.rule),
                json_escape(&message),
                json_escape(&f.file),
                f.line,
            );
        }
        out.push_str(if self.findings.is_empty() {
            "]\n    }\n  ]\n}\n"
        } else {
            "\n      ]\n    }\n  ]\n}\n"
        });
        out
    }
}

/// Escape a string for embedding in a JSON document (same rules as the
/// obs exporter: quotes, backslashes, and control characters).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding() -> Finding {
        Finding {
            rule: "log-bypass",
            file: "crates/x/src/lib.rs".into(),
            line: 7,
            snippet: "ledger.ingest_columns(&batches[\"k\"], exec);".into(),
            hint: "mutate through OsnWorld".into(),
            path: Vec::new(),
        }
    }

    fn pathed_finding() -> Finding {
        Finding {
            rule: "panic-reachable-from-serve",
            file: "crates/y/src/inner.rs".into(),
            line: 3,
            snippet: "let v = xs[i];".into(),
            hint: "use a non-panicking accessor".into(),
            path: vec!["ServeEngine::ingest".into(), "helper".into(), "leaf".into()],
        }
    }

    #[test]
    fn human_names_rule_file_and_line() {
        let r = Report {
            findings: vec![finding()],
            ..Report::default()
        };
        let h = r.render_human();
        assert!(h.contains("crates/x/src/lib.rs:7: [log-bypass]"));
        assert!(h.contains("hint: mutate through OsnWorld"));
        assert!(h.contains("1 finding"));
    }

    #[test]
    fn json_is_parseable_shape() {
        let r = Report {
            findings: vec![finding()],
            files_scanned: 3,
        };
        let j = r.render_json();
        assert!(j.contains("\"version\": 2"));
        assert!(j.contains("\"line\": 7"));
        assert!(j.contains("\\\"k\\\""), "snippet quotes escaped: {j}");
        assert!(j.contains("\"files_scanned\": 3"));
    }

    #[test]
    fn escape_control_chars() {
        assert_eq!(json_escape("a\"b\\c\nd\u{1}"), "a\\\"b\\\\c\\nd\\u0001");
    }

    #[test]
    fn human_renders_call_path() {
        let r = Report {
            findings: vec![pathed_finding()],
            ..Report::default()
        };
        let h = r.render_human();
        assert!(
            h.contains("reachable via ServeEngine::ingest → helper → leaf"),
            "{h}"
        );
    }

    #[test]
    fn json_includes_path_array() {
        let r = Report {
            findings: vec![pathed_finding()],
            ..Report::default()
        };
        let j = r.render_json();
        assert!(
            j.contains("\"path\": [\"ServeEngine::ingest\", \"helper\", \"leaf\"]"),
            "{j}"
        );
        let plain = Report {
            findings: vec![finding()],
            ..Report::default()
        };
        assert!(plain.render_json().contains("\"path\": []"));
    }

    #[test]
    fn sarif_has_schema_rules_and_results() {
        let r = Report {
            findings: vec![finding(), pathed_finding()],
            files_scanned: 2,
        };
        let s = r.render_sarif();
        assert!(s.contains("\"version\": \"2.1.0\""));
        assert!(s.contains("sarif-2.1.0.json"));
        assert!(s.contains("\"name\": \"likelab-lint\""));
        // Every known rule is declared in the driver catalog.
        for rule in crate::rules::RULES {
            assert!(
                s.contains(&format!("\"id\": \"{}\"", rule.id)),
                "{}",
                rule.id
            );
        }
        assert!(s.contains("\"ruleId\": \"log-bypass\""));
        assert!(s.contains("\"uri\": \"crates/y/src/inner.rs\""));
        assert!(s.contains("\"startLine\": 3"));
        assert!(
            s.contains("(reachable via ServeEngine::ingest → helper → leaf)"),
            "{s}"
        );
    }

    #[test]
    fn sarif_empty_report_is_well_formed() {
        let s = Report::default().render_sarif();
        assert!(s.contains("\"results\": []"));
    }
}
