//! `likelab-lint` — the analyzer's command line, and CI's lint gate.
//!
//! ```text
//! likelab-lint [--root DIR] [--format human|json|sarif]
//!              [--report-out FILE] [--list-rules] [--explain RULE]
//! ```
//!
//! Exit 0: clean. Exit 1: findings. Exit 2: usage or IO error.

use likelab_lint::{find_workspace_root, rules, run};
use std::path::PathBuf;
use std::process::ExitCode;

#[derive(Clone, Copy, PartialEq)]
enum Format {
    Human,
    Json,
    Sarif,
}

struct Cli {
    root: Option<PathBuf>,
    format: Format,
    report_out: Option<PathBuf>,
    list_rules: bool,
    explain: Option<String>,
}

fn usage() -> &'static str {
    "likelab-lint — determinism & hygiene analyzer (see LINTS.md)\n\n\
     USAGE:\n\
     \x20 likelab-lint [--root DIR] [--format human|json|sarif]\n\
     \x20              [--report-out FILE] [--list-rules] [--explain RULE]\n\n\
     Exit 0 when clean, 1 on findings, 2 on errors."
}

/// Print the long-form description of one rule; error on unknown ids.
fn explain(id: &str) -> Result<String, String> {
    for r in rules::RULES {
        if r.id == id {
            return Ok(format!("{}\n  {}\n\n{}", r.id, r.summary, r.explain));
        }
    }
    let known: Vec<&str> = rules::RULES.iter().map(|r| r.id).collect();
    Err(format!(
        "unknown rule `{id}`; known rules: {}",
        known.join(", ")
    ))
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        root: None,
        format: Format::Human,
        report_out: None,
        list_rules: false,
        explain: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => {
                let v = it.next().ok_or("--root needs a directory")?;
                cli.root = Some(PathBuf::from(v));
            }
            "--format" => match it.next().map(String::as_str) {
                Some("human") => cli.format = Format::Human,
                Some("json") => cli.format = Format::Json,
                Some("sarif") => cli.format = Format::Sarif,
                _ => return Err("--format needs human|json|sarif".into()),
            },
            "--report-out" => {
                let v = it.next().ok_or("--report-out needs a file path")?;
                cli.report_out = Some(PathBuf::from(v));
            }
            "--list-rules" => cli.list_rules = true,
            "--explain" => {
                let v = it.next().ok_or("--explain needs a rule id")?;
                cli.explain = Some(v.clone());
            }
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if cli.list_rules {
        for r in rules::RULES {
            println!("{:28} {}", r.id, r.summary);
        }
        return ExitCode::SUCCESS;
    }
    if let Some(id) = &cli.explain {
        match explain(id) {
            Ok(text) => {
                println!("{text}");
                return ExitCode::SUCCESS;
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        }
    }
    let root = match cli.root.clone().or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|d| find_workspace_root(&d))
    }) {
        Some(r) => r,
        None => {
            eprintln!("error: could not locate the workspace root (pass --root)");
            return ExitCode::from(2);
        }
    };
    let report = match run(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let rendered = match cli.format {
        Format::Human => report.render_human(),
        Format::Json => report.render_json(),
        Format::Sarif => report.render_sarif(),
    };
    if let Some(path) = &cli.report_out {
        if let Err(e) = std::fs::write(path, &rendered) {
            eprintln!("error: write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        eprintln!("lint report written to {}", path.display());
    }
    println!("{rendered}");
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
