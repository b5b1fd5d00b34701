//! `perfbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] [--quick]`
//!
//! Prints a host-stamp line, then the result as the last line of standard
//! output. A traced run also writes its spans to
//! `perfbench/out/trace-<workload>-<seed>.json`. `--workload all` runs
//! every workload untraced and traced, each in its own process so peak
//! memory stays per workload.

use std::path::Path;
use std::process::{Command, ExitCode};

use perfbench::{run, Options, Workload};

/// The default workload seed. A speed claim is re-checked on a held-out
/// seed too (see `perfbench/README.md`).
const DEFAULT_SEED: u64 = 20230309;

fn usage(problem: &str) -> ExitCode {
    eprintln!("perfbench: {problem}");
    eprintln!(
        "usage: perfbench --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1] [--quick]",
        Workload::ALL.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut quick = false;
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1).map(String::as_str);
        let ok = match (args[i].as_str(), value) {
            ("--quick", _) => {
                quick = true;
                i += 1;
                continue;
            }
            ("--workload", Some(v)) => {
                workload = Some(v.to_string());
                true
            }
            ("--seed", Some(v)) => v.parse().map(|s| seed = s).is_ok(),
            ("--seconds", Some(v)) => v.parse().map(|s| seconds = s).is_ok(),
            ("--trace", Some(v)) => match v {
                "0" | "1" => {
                    trace = v == "1";
                    true
                }
                _ => false,
            },
            _ => false,
        };
        if !ok {
            return usage(&format!("bad argument `{}`", args[i]));
        }
        i += 2;
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };
    if workload == "all" {
        return run_all(&args);
    }
    let Some(workload) = Workload::parse(&workload) else {
        return usage(&format!("unknown workload `{workload}`"));
    };

    let opts = Options {
        workload,
        seed,
        seconds,
        trace,
        quick,
    };
    let outcome = run(&opts);
    for error in &outcome.audit.errors {
        eprintln!("perfbench: check failed: {error}");
    }
    if let Some(spans) = &outcome.spans {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("trace-{}-{seed}.json", workload.name()));
        let body = format!("{{\"host\": {}, \"spans\": {spans}}}\n", outcome.host);
        if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, body)) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }
    println!("{{\"host\": {}}}", outcome.host);
    println!("{{\"raw_seconds\": {}}}", outcome.raw);
    println!("{}", outcome.result_line());
    ExitCode::SUCCESS
}

/// Runs every workload untraced, then traced, each in a child process with
/// the same arguments, waiting for each before starting the next.
fn run_all(args: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return usage(&format!("cannot locate own executable: {e}")),
    };
    let mut rest: Vec<&str> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--workload" | "--trace" => i += 2,
            "--quick" => {
                rest.push("--quick");
                i += 1;
            }
            other => {
                rest.extend([other, args[i + 1].as_str()]);
                i += 2;
            }
        }
    }
    for w in Workload::ALL {
        for trace in ["0", "1"] {
            println!("# {} --trace {trace}", w.name());
            let status = Command::new(&exe)
                .args(["--workload", w.name(), "--trace", trace])
                .args(&rest)
                .status();
            if !status.is_ok_and(|s| s.success()) {
                eprintln!("perfbench: {} --trace {trace} did not finish", w.name());
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
