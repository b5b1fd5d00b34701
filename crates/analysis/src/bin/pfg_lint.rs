//! Workspace determinism/concurrency linter.
//!
//! Usage: `pfg_lint [--root <dir>] [--allow <file>]`
//!
//! Defaults: `--root` is the current directory, `--allow` is
//! `<root>/lint.allow` (a missing allowlist file is treated as empty).
//! Exit codes: 0 clean, 1 findings or stale allowlist entries (an entry
//! whose path prefix matches no scanned `.rs` file), 2 usage or I/O
//! error.

use std::path::PathBuf;
use std::process::ExitCode;

use pfg_analysis::{lint_tree, stale_entries, Allowlist};

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut allow_path: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(v) => root = Some(PathBuf::from(v)),
                None => return usage_error("--root requires a directory argument"),
            },
            "--allow" => match args.next() {
                Some(v) => allow_path = Some(PathBuf::from(v)),
                None => return usage_error("--allow requires a file argument"),
            },
            "--help" | "-h" => {
                println!("usage: pfg_lint [--root <dir>] [--allow <file>]");
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("unknown argument `{other}`")),
        }
    }

    let root = match root {
        Some(r) => r,
        None => match std::env::current_dir() {
            Ok(d) => d,
            Err(e) => {
                eprintln!("pfg_lint: cannot determine working directory: {e}");
                return ExitCode::from(2);
            }
        },
    };
    let allow_path = allow_path.unwrap_or_else(|| root.join("lint.allow"));

    let allow = match Allowlist::load(&allow_path) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pfg_lint: cannot read {}: {e}", allow_path.display());
            return ExitCode::from(2);
        }
    };

    let (violations, stale) = match lint_tree(&root, &allow)
        .and_then(|violations| Ok((violations, stale_entries(&root, &allow)?)))
    {
        Ok(found) => found,
        Err(e) => {
            eprintln!("pfg_lint: I/O error under {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    if violations.is_empty() && stale.is_empty() {
        println!(
            "pfg_lint: clean ({} suppression entries active)",
            allow.len()
        );
        return ExitCode::SUCCESS;
    }
    for v in &violations {
        println!("{v}");
    }
    for entry in &stale {
        println!(
            "{}: [stale-allow] entry `{entry}` matches no scanned .rs file",
            allow_path.display()
        );
    }
    eprintln!(
        "pfg_lint: {} finding(s), {} stale allowlist entries",
        violations.len(),
        stale.len()
    );
    ExitCode::FAILURE
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("pfg_lint: {msg}");
    eprintln!("usage: pfg_lint [--root <dir>] [--allow <file>]");
    ExitCode::from(2)
}
