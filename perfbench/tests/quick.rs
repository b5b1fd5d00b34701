//! The benchmark's own tests: quick mode runs the measured code path at
//! small n and must print every metric `BENCHMARK.json` declares, with its
//! unit, with all checks passing; a corrupted dendrogram must be reported
//! as a failed run.

use std::path::Path;

use perfbench::checks::{problems, Audit};
use perfbench::{run, Options, Workload};

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`,
/// which lists one metric object per line.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    let field = |line: &str, key: &str| {
        let tag = format!("\"{key}\": \"");
        let start = line.find(&tag)? + tag.len();
        let len = line[start..].find('"')?;
        Some(line[start..start + len].to_string())
    };
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section is present");
    text[start..]
        .lines()
        .skip(1)
        .take_while(|line| !line.trim_start().starts_with(']'))
        .map(|line| {
            let name = field(line, "name").expect("metric has a name");
            let unit = field(line, "unit").expect("metric has a unit");
            (name, unit)
        })
        .collect()
}

#[test]
fn quick_mode_prints_every_declared_metric_and_passes_all_checks() {
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let metrics = declared(section);
        assert!(!metrics.is_empty(), "{section} declares metrics");
        for workload in Workload::ALL {
            let outcome = run(&Options {
                workload,
                seed: 20230309,
                seconds: 0.0,
                trace,
                quick: true,
            });
            let what = format!("{} trace={trace}", workload.name());
            assert!(outcome.audit.attempted > 0, "{what}: no runs");
            assert_eq!(
                outcome.audit.failed, 0,
                "{what}: {:?}",
                outcome.audit.errors
            );
            assert_eq!(outcome.metrics.len(), metrics.len(), "{what}: metric count");
            let line = outcome.result_line();
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{line}"
            );
            for (name, unit) in &metrics {
                let value = format!("\"{name}\": {{\"value\": ");
                let at = line
                    .find(&value)
                    .unwrap_or_else(|| panic!("{what}: {name} missing"));
                let tail = &line[at..];
                let end = tail.find('}').expect("metric object closes");
                assert!(
                    tail[..end].ends_with(&format!("\"unit\": \"{unit}\"")),
                    "{what}: {name} has unit other than {unit}: {}",
                    &tail[..end]
                );
            }
            assert_eq!(
                outcome.spans.is_some(),
                trace,
                "{what}: spans only when traced"
            );
        }
    }
}

#[test]
fn corrupted_dendrogram_is_reported_as_a_failed_run() {
    let workload = Workload::CropP1;
    let input = workload.generate(20230309, true);
    let n = input.series.len();
    let (matrices, _) = workload.kernel(&input.series);
    let (good, _) = workload.cluster(&matrices).expect("quick input clusters");

    let mut bad = good.clone();
    let node = n + n / 2;
    let height = bad.dendrogram.node(node).height;
    bad.dendrogram.set_height(node, height * 1.5 + 0.25);

    let mut audit = Audit::default();
    audit.record(
        "good",
        problems(n, &good, Some(("reference", &good.dendrogram))),
    );
    audit.record(
        "corrupted",
        problems(n, &bad, Some(("reference", &good.dendrogram))),
    );
    assert_eq!(
        (audit.attempted, audit.failed),
        (2, 1),
        "{:?}",
        audit.errors
    );
    assert!(audit.errors.iter().all(|e| e.starts_with("corrupted: ")));
    assert!(audit
        .errors
        .iter()
        .any(|e| e.contains("differs from reference")));
}
