//! `ndpx-lint` — the workspace's determinism & telemetry analyzer.
//!
//! Usage:
//!   ndpx-lint [--check] [--format text|json] [--root DIR]
//!
//! Exit status: `0` clean, `1` violations found, `2` usage or I/O error.
//! `--check` is an explicit alias for the default lint mode, kept so CI
//! invocations read as intent rather than accident.

use std::path::PathBuf;
use std::process::exit;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut format_json = false;
    let mut root: Option<PathBuf> = None;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--check" => {}
            "--format" => {
                i += 1;
                match args.get(i).map(String::as_str) {
                    Some("json") => format_json = true,
                    Some("text") => format_json = false,
                    other => {
                        eprintln!("ndpx-lint: --format needs text|json, got {other:?}");
                        exit(2);
                    }
                }
            }
            "--root" => {
                i += 1;
                match args.get(i) {
                    Some(dir) => root = Some(PathBuf::from(dir)),
                    None => {
                        eprintln!("ndpx-lint: --root needs a directory");
                        exit(2);
                    }
                }
            }
            other => {
                eprintln!("ndpx-lint: unknown argument {other:?}");
                eprintln!("usage: ndpx-lint [--check] [--format text|json] [--root DIR]");
                exit(2);
            }
        }
        i += 1;
    }

    let root = root.or_else(|| {
        let cwd = std::env::current_dir().ok()?;
        ndpx_lint::walk::find_workspace_root(&cwd)
    });
    let Some(root) = root else {
        eprintln!("ndpx-lint: no workspace root found (run inside the repo or pass --root)");
        exit(2);
    };

    let violations = match ndpx_lint::lint_workspace(&root) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("ndpx-lint: scan failed: {e}");
            exit(2);
        }
    };

    if format_json {
        print!("{}", ndpx_lint::to_json(&violations));
    } else {
        for v in &violations {
            println!("{}:{}: [{}] {}", v.path, v.line, v.rule.name(), v.message);
        }
        if violations.is_empty() {
            eprintln!("ndpx-lint: workspace clean");
        } else {
            eprintln!("ndpx-lint: {} violation(s)", violations.len());
        }
    }
    exit(if violations.is_empty() { 0 } else { 1 });
}
