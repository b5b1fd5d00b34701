//! Reading, writing and diffing the machine-readable records that bench
//! runs and figure harnesses drop under `target/bench-records/`.
//!
//! The criterion shim appends one `BENCH_<bin>.json` file per bench binary
//! (a JSON array of flat objects with `bench`/`label` strings and `*_ns`
//! numbers). [`diff_directories`] compares two such directories and flags
//! mean-time regressions — the consumer half of the perf-trajectory loop
//! whose producer half has existed since the records were introduced. The
//! same module hosts the record-directory resolution and JSON-array writer
//! used by `fig6_prefix_quality` for its agreement table.
//!
//! All parsing is hand-rolled: the offline build has no `serde`, and the
//! record format is deliberately flat (string and number fields only).

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use pfg_primitives::AllowFile;

/// A single flat JSON object: string and number fields only.
pub type FlatRecord = BTreeMap<String, JsonScalar>;

/// A scalar field of a record.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonScalar {
    /// A JSON string (unescaped).
    Str(String),
    /// A JSON number.
    Num(f64),
    /// `null` (emitted for non-finite numbers).
    Null,
}

impl JsonScalar {
    /// The string value, if this scalar is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonScalar::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this scalar is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonScalar::Num(x) => Some(*x),
            _ => None,
        }
    }
}

/// Parses a JSON array of flat objects (the record-file format). Nested
/// arrays/objects are rejected. Returns `None` on malformed input rather
/// than panicking, so a truncated record file degrades to "no baseline".
pub fn parse_flat_array(text: &str) -> Option<Vec<FlatRecord>> {
    let mut chars = text.chars().peekable();
    skip_ws(&mut chars);
    if chars.next()? != '[' {
        return None;
    }
    let mut records = Vec::new();
    loop {
        skip_ws(&mut chars);
        match chars.peek()? {
            ']' => {
                chars.next();
                return Some(records);
            }
            ',' => {
                chars.next();
            }
            '{' => {
                records.push(parse_object(&mut chars)?);
            }
            _ => return None,
        }
    }
}

fn skip_ws(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) {
    while chars.peek().is_some_and(|c| c.is_whitespace()) {
        chars.next();
    }
}

fn parse_object(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> Option<FlatRecord> {
    if chars.next()? != '{' {
        return None;
    }
    let mut record = FlatRecord::new();
    loop {
        skip_ws(chars);
        match chars.peek()? {
            '}' => {
                chars.next();
                return Some(record);
            }
            ',' => {
                chars.next();
            }
            '"' => {
                let key = parse_string(chars)?;
                skip_ws(chars);
                if chars.next()? != ':' {
                    return None;
                }
                skip_ws(chars);
                let value = match chars.peek()? {
                    '"' => JsonScalar::Str(parse_string(chars)?),
                    'n' => {
                        for expected in "null".chars() {
                            if chars.next()? != expected {
                                return None;
                            }
                        }
                        JsonScalar::Null
                    }
                    _ => JsonScalar::Num(parse_number(chars)?),
                };
                record.insert(key, value);
            }
            _ => return None,
        }
    }
}

fn parse_string(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> Option<String> {
    if chars.next()? != '"' {
        return None;
    }
    let mut out = String::new();
    loop {
        match chars.next()? {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let code: String = (0..4).filter_map(|_| chars.next()).collect();
                    let value = u32::from_str_radix(&code, 16).ok()?;
                    out.push(char::from_u32(value)?);
                }
                _ => return None,
            },
            c => out.push(c),
        }
    }
}

fn parse_number(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> Option<f64> {
    let mut literal = String::new();
    while chars
        .peek()
        .is_some_and(|c| c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E'))
    {
        literal.push(chars.next()?);
    }
    literal.parse().ok()
}

/// The directory bench records are written to: `BENCH_RECORD_DIR` if set,
/// otherwise `<target>/bench-records` derived from the running executable's
/// location (bench executables live in `<target>/<profile>/deps/`, figure
/// binaries in `<target>/<profile>/`).
pub fn record_dir() -> PathBuf {
    if let Some(dir) = std::env::var_os("BENCH_RECORD_DIR") {
        return PathBuf::from(dir);
    }
    let target = std::env::current_exe().ok().and_then(|exe| {
        let profile_dir = exe.parent()?;
        let profile_dir = if profile_dir.file_name().is_some_and(|n| n == "deps") {
            profile_dir.parent()?
        } else {
            profile_dir
        };
        Some(profile_dir.parent()?.to_path_buf())
    });
    target
        .unwrap_or_else(|| PathBuf::from("target"))
        .join("bench-records")
}

/// Escapes `s` as a JSON string literal (including the surrounding
/// quotes). The inverse of [`parse_flat_array`]'s string handling; shared
/// by every hand-rolled record emitter so free-form values (dataset names,
/// labels) cannot produce malformed record files.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Writes `lines` (single-line JSON objects) as a pretty-printed JSON array
/// at `path`, creating the parent directory if needed.
pub fn write_json_array(path: &Path, lines: &[String]) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut file = std::fs::File::create(path)?;
    writeln!(file, "[")?;
    for (i, line) in lines.iter().enumerate() {
        let comma = if i + 1 < lines.len() { "," } else { "" };
        writeln!(file, "  {line}{comma}")?;
    }
    writeln!(file, "]")
}

/// One benchmark present in both the baseline and the current records.
///
/// The two times are medians when both records carry a `median_ns`, and
/// means otherwise. A series of 20 short samples moves its mean past the
/// gate on one descheduled sample, while its median holds.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchComparison {
    /// `<file stem>/<label>` identifying the benchmark.
    pub key: String,
    /// Baseline nanoseconds: the median, or the mean if either record
    /// lacks a median.
    pub baseline_ns: f64,
    /// Current nanoseconds, the same statistic as `baseline_ns`.
    pub current_ns: f64,
    /// Relative change in percent (positive = slower than baseline).
    pub change_pct: f64,
}

impl BenchComparison {
    /// Whether this comparison is a regression at `threshold_pct`.
    pub fn is_regression(&self, threshold_pct: f64) -> bool {
        self.change_pct > threshold_pct
    }
}

/// The outcome of diffing two record directories.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// Benchmarks found in both directories, sorted by decreasing change.
    pub comparisons: Vec<BenchComparison>,
    /// Benchmarks present only in the current records (new benches).
    pub only_current: Vec<String>,
    /// Benchmarks present only in the baseline (removed benches).
    pub only_baseline: Vec<String>,
}

impl DiffReport {
    /// The comparisons regressing by more than `threshold_pct`.
    pub fn regressions(&self, threshold_pct: f64) -> Vec<&BenchComparison> {
        self.comparisons
            .iter()
            .filter(|c| c.is_regression(threshold_pct))
            .collect()
    }

    /// [`DiffReport::regressions`] minus the series matched by `allow` —
    /// the failing set for a gating CI run.
    pub fn gating_regressions(
        &self,
        threshold_pct: f64,
        allow: &BenchAllowlist,
    ) -> Vec<&BenchComparison> {
        self.comparisons
            .iter()
            .filter(|c| c.is_regression(threshold_pct) && !allow.is_allowed(&c.key))
            .collect()
    }
}

/// A per-series allowlist for the bench gate, mirroring `lint.allow`'s
/// discipline: one benchmark-key prefix per line, `#` comments and blank
/// lines ignored. An allowed series still prints its comparison — the
/// trajectory stays visible — but cannot fail the gate. Keep the file
/// short: an entry documents a series known to be scheduler- or
/// allocator-noisy on shared CI runners, not a license to regress.
///
/// Parsing and matching live in the shared [`pfg_primitives::allow`]
/// module (the linter's `lint.allow` uses the same line discipline); this
/// wrapper keeps the gate's load semantics — a missing file is an error.
#[derive(Debug, Clone, Default)]
pub struct BenchAllowlist {
    file: AllowFile,
}

impl BenchAllowlist {
    /// Parses allowlist text (prefix-per-line format described above).
    pub fn parse(text: &str) -> Self {
        BenchAllowlist {
            file: AllowFile::parse_prefixes(text),
        }
    }

    /// Loads and parses an allowlist file.
    ///
    /// # Errors
    /// Propagates the underlying read error (a missing file is an error:
    /// a gating CI step should fail loudly, not silently gate on nothing).
    pub fn load(path: &Path) -> std::io::Result<Self> {
        Ok(Self::parse(&std::fs::read_to_string(path)?))
    }

    /// Whether `key` (a `bench/label` benchmark key) matches any allowed
    /// prefix.
    pub fn is_allowed(&self, key: &str) -> bool {
        self.file.allows(None, key)
    }
}

/// The times of one record that the gate compares.
#[derive(Debug, Clone, Copy)]
struct Timing {
    mean_ns: f64,
    median_ns: Option<f64>,
}

/// Loads every `BENCH_*.json` file of `dir` into `(key, timing)` pairs,
/// with the key combining the record's `bench` field (falling back to the
/// file stem) and its `label`.
fn load_timings(dir: &Path) -> BTreeMap<String, Timing> {
    let mut timings = BTreeMap::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return timings;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let stem = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
        if !stem.starts_with("BENCH_") || path.extension().is_none_or(|e| e != "json") {
            continue;
        }
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        for record in parse_flat_array(&text).unwrap_or_default() {
            let bench = record
                .get("bench")
                .and_then(JsonScalar::as_str)
                .unwrap_or(&stem)
                .to_string();
            let Some(label) = record.get("label").and_then(JsonScalar::as_str) else {
                continue;
            };
            let Some(mean_ns) = record.get("mean_ns").and_then(JsonScalar::as_f64) else {
                continue;
            };
            let median_ns = record.get("median_ns").and_then(JsonScalar::as_f64);
            timings.insert(format!("{bench}/{label}"), Timing { mean_ns, median_ns });
        }
    }
    timings
}

/// Diffs the `BENCH_*.json` records of two directories by benchmark key,
/// on medians where both records carry one (see [`BenchComparison`]).
pub fn diff_directories(baseline: &Path, current: &Path) -> DiffReport {
    let baseline_timings = load_timings(baseline);
    let mut current_timings = load_timings(current);
    let mut report = DiffReport::default();
    for (key, baseline) in baseline_timings {
        match current_timings.remove(&key) {
            Some(current) => {
                let (baseline_ns, current_ns) = match (baseline.median_ns, current.median_ns) {
                    (Some(b), Some(c)) => (b, c),
                    _ => (baseline.mean_ns, current.mean_ns),
                };
                let change_pct = if baseline_ns > 0.0 {
                    (current_ns - baseline_ns) / baseline_ns * 100.0
                } else {
                    0.0
                };
                report.comparisons.push(BenchComparison {
                    key,
                    baseline_ns,
                    current_ns,
                    change_pct,
                });
            }
            None => report.only_baseline.push(key),
        }
    }
    report.only_current = current_timings.into_keys().collect();
    report.comparisons.sort_by(|a, b| {
        b.change_pct
            .total_cmp(&a.change_pct)
            .then(a.key.cmp(&b.key))
    });
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_criterion_shim_format() {
        let text = r#"[
  {"bench":"primitives","label":"sort/std/4096","samples":100,"mean_ns":12345,"median_ns":12000,"stddev_ns":42,"min_ns":11000,"max_ns":15000,"iqr_outliers":2},
  {"bench":"primitives","label":"max/\"quoted\"","samples":5,"mean_ns":1.5e3,"median_ns":null,"stddev_ns":0,"min_ns":0,"max_ns":0,"iqr_outliers":0}
]"#;
        let records = parse_flat_array(text).expect("valid array");
        assert_eq!(records.len(), 2);
        assert_eq!(
            records[0].get("label").and_then(JsonScalar::as_str),
            Some("sort/std/4096")
        );
        assert_eq!(
            records[0].get("mean_ns").and_then(JsonScalar::as_f64),
            Some(12345.0)
        );
        assert_eq!(
            records[1].get("label").and_then(JsonScalar::as_str),
            Some("max/\"quoted\"")
        );
        assert_eq!(
            records[1].get("mean_ns").and_then(JsonScalar::as_f64),
            Some(1500.0)
        );
        assert_eq!(records[1].get("median_ns"), Some(&JsonScalar::Null));
    }

    #[test]
    fn malformed_input_is_rejected_not_panicking() {
        assert!(parse_flat_array("").is_none());
        assert!(parse_flat_array("{}").is_none());
        assert!(parse_flat_array("[{\"a\":").is_none());
        assert!(parse_flat_array("[[1]]").is_none());
        assert_eq!(parse_flat_array("[]"), Some(Vec::new()));
    }

    #[test]
    fn diff_flags_regressions_and_membership_changes() {
        let dir = std::env::temp_dir().join(format!("pfg-bench-diff-{}", std::process::id()));
        let baseline = dir.join("baseline");
        let current = dir.join("current");
        std::fs::create_dir_all(&baseline).unwrap();
        std::fs::create_dir_all(&current).unwrap();
        std::fs::write(
            baseline.join("BENCH_a.json"),
            r#"[{"bench":"a","label":"x","mean_ns":100},{"bench":"a","label":"gone","mean_ns":10}]"#,
        )
        .unwrap();
        std::fs::write(
            current.join("BENCH_a.json"),
            r#"[{"bench":"a","label":"x","mean_ns":150},{"bench":"a","label":"new","mean_ns":5}]"#,
        )
        .unwrap();
        let report = diff_directories(&baseline, &current);
        assert_eq!(report.comparisons.len(), 1);
        let c = &report.comparisons[0];
        assert_eq!(c.key, "a/x");
        assert!((c.change_pct - 50.0).abs() < 1e-9);
        assert!(c.is_regression(30.0));
        assert!(!c.is_regression(60.0));
        assert_eq!(report.only_baseline, vec!["a/gone".to_string()]);
        assert_eq!(report.only_current, vec!["a/new".to_string()]);
        assert_eq!(report.regressions(30.0).len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn diff_compares_medians_when_both_records_carry_one() {
        let dir = std::env::temp_dir().join(format!("pfg-bench-median-{}", std::process::id()));
        let baseline = dir.join("baseline");
        let current = dir.join("current");
        std::fs::create_dir_all(&baseline).unwrap();
        std::fs::create_dir_all(&current).unwrap();
        // `noisy`: one slow sample triples the mean, the median holds.
        // `slower`: the whole series doubles. `old`: the baseline has no
        // median, so both sides compare means.
        std::fs::write(
            baseline.join("BENCH_a.json"),
            r#"[{"bench":"a","label":"noisy","mean_ns":100,"median_ns":100},
                {"bench":"a","label":"slower","mean_ns":100,"median_ns":90},
                {"bench":"a","label":"old","mean_ns":100,"median_ns":null}]"#,
        )
        .unwrap();
        std::fs::write(
            current.join("BENCH_a.json"),
            r#"[{"bench":"a","label":"noisy","mean_ns":300,"median_ns":110},
                {"bench":"a","label":"slower","mean_ns":200,"median_ns":180},
                {"bench":"a","label":"old","mean_ns":160,"median_ns":100}]"#,
        )
        .unwrap();
        let report = diff_directories(&baseline, &current);
        let by_key = |key: &str| {
            let c = report.comparisons.iter().find(|c| c.key == key).unwrap();
            (c.baseline_ns, c.current_ns, c.change_pct.round())
        };
        assert_eq!(by_key("a/noisy"), (100.0, 110.0, 10.0));
        assert_eq!(by_key("a/slower"), (90.0, 180.0, 100.0));
        assert_eq!(by_key("a/old"), (100.0, 160.0, 60.0));
        let flagged: Vec<&str> = report
            .regressions(40.0)
            .iter()
            .map(|c| c.key.as_str())
            .collect();
        assert_eq!(flagged, vec!["a/slower", "a/old"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn allowlist_matches_prefixes_and_ignores_comments() {
        let allow = BenchAllowlist::parse(
            "# noisy on shared runners\nexecutor/round_trip/spawn_per_call\n\nprimitives/write_ # inline comment\n",
        );
        assert!(allow.is_allowed("executor/round_trip/spawn_per_call/1024"));
        assert!(allow.is_allowed("primitives/write_max/10000"));
        assert!(!allow.is_allowed("executor/round_trip/work_stealing/1024"));
        assert!(!allow.is_allowed("primitives/sort/10000"));
        assert!(!BenchAllowlist::default().is_allowed("anything"));
    }

    #[test]
    fn gating_regressions_exclude_allowed_series() {
        let report = DiffReport {
            comparisons: vec![
                BenchComparison {
                    key: "a/noisy".into(),
                    baseline_ns: 100.0,
                    current_ns: 200.0,
                    change_pct: 100.0,
                },
                BenchComparison {
                    key: "a/real".into(),
                    baseline_ns: 100.0,
                    current_ns: 180.0,
                    change_pct: 80.0,
                },
            ],
            ..DiffReport::default()
        };
        let allow = BenchAllowlist::parse("a/noisy\n");
        assert_eq!(report.regressions(40.0).len(), 2);
        let gating = report.gating_regressions(40.0, &allow);
        assert_eq!(gating.len(), 1);
        assert_eq!(gating[0].key, "a/real");
    }

    #[test]
    fn missing_directories_yield_an_empty_report() {
        let report = diff_directories(
            Path::new("/nonexistent/baseline"),
            Path::new("/nonexistent/current"),
        );
        assert!(report.comparisons.is_empty());
        assert!(report.only_baseline.is_empty());
        assert!(report.only_current.is_empty());
    }

    #[test]
    fn write_json_array_round_trips_through_the_parser() {
        let dir = std::env::temp_dir().join(format!("pfg-bench-write-{}", std::process::id()));
        let path = dir.join("BENCH_roundtrip.json");
        let lines = vec![
            r#"{"bench":"t","label":"one","mean_ns":1}"#.to_string(),
            r#"{"bench":"t","label":"two","mean_ns":2}"#.to_string(),
        ];
        write_json_array(&path, &lines).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let records = parse_flat_array(&text).expect("valid array");
        assert_eq!(records.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }
}
