//! In-tree static analysis for the workspace's determinism and
//! concurrency contracts (the `pfg_lint` binary drives this library).
//!
//! The repo's standing guarantee — results byte-identical across
//! `RAYON_NUM_THREADS`, steal orders, and tile sizes — is stronger than
//! the paper's algorithmic equivalence, and most of the ways to lose it
//! are quiet: a `HashMap` iteration feeding an output, a `partial_cmp`
//! comparator meeting a NaN, an unannotated `unsafe` write whose
//! disjointness argument rotted. This crate enforces those contracts
//! lexically (no `syn`; the build is offline): [`scanner`] splits source
//! into code and comments with full string/raw-string/char-literal
//! awareness, [`rules`] runs the five checks over the code view, and
//! [`allowlist`] applies the checked-in, rule-scoped suppressions from
//! `lint.allow`.
//!
//! Run it as:
//!
//! ```text
//! cargo run -p pfg_analysis --bin pfg_lint            # lint the workspace
//! cargo run -p pfg_analysis --bin pfg_lint -- --root <dir> --allow <file>
//! ```
//!
//! Exit code 0 means clean; 1 means findings (printed one per line as
//! `file:line: [rule] message`) or stale allowlist entries (entries whose
//! path prefix matches no scanned file, see [`stale_entries`]); 2 means an
//! I/O error. The dynamic half of the audit story — the `pfg_racecheck`
//! shadow-write registry and the executor's chaos mode — lives in
//! `pfg_audit` and the rayon shim; this crate is the static half.

pub mod allowlist;
pub mod rules;
pub mod scanner;

pub use allowlist::Allowlist;
pub use rules::{
    check_source, Violation, RULE_ATOMIC_ORDERING, RULE_HASH_ITER, RULE_PARTIAL_CMP,
    RULE_RAW_THREAD, RULE_RELAXED_FIELD, RULE_UNSAFE, RULE_UNWRAP, RULE_WALL_CLOCK,
};

use std::path::{Path, PathBuf};

/// Directory names never descended into: build output, VCS state, and the
/// linter's own known-bad fixtures (linted by unit tests, not by the
/// workspace sweep).
const SKIP_DIRS: &[&str] = &["target", ".git", "fixtures"];

/// All `.rs` files under `root`, sorted for deterministic report order.
pub fn rust_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<_> = std::fs::read_dir(&dir)?
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .map(|e| e.path())
            .collect();
        entries.sort();
        for path in entries {
            if path.is_dir() {
                let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
                if !SKIP_DIRS.contains(&name) && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if path.extension().is_some_and(|e| e == "rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Lints every `.rs` file under `root`, applying `allow`. Findings come
/// back sorted by `(file, line, rule)`.
pub fn lint_tree(root: &Path, allow: &Allowlist) -> std::io::Result<Vec<Violation>> {
    let mut out = Vec::new();
    for path in rust_files(root)? {
        let rel = rel_path(root, &path);
        let source = std::fs::read_to_string(&path)?;
        out.extend(
            check_source(&rel, &source)
                .into_iter()
                .filter(|v| !allow.allows(v.rule, &v.file)),
        );
    }
    out.sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    Ok(out)
}

/// The entries of `allow` whose path prefix matches none of the `.rs`
/// files under `root`, as `<rule> <path-prefix>`. Such an entry
/// suppresses nothing; `pfg_lint` fails on it, so an exemption cannot
/// outlive the file it was written for.
pub fn stale_entries(root: &Path, allow: &Allowlist) -> std::io::Result<Vec<String>> {
    let paths: Vec<String> = rust_files(root)?
        .iter()
        .map(|path| rel_path(root, path))
        .collect();
    Ok(allow.unmatched(&paths))
}

/// `path` relative to `root`, with forward slashes (allowlist entries and
/// reports use this form on every platform).
fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture_dir() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures")
    }

    fn lint_fixture(name: &str) -> Vec<Violation> {
        let path = fixture_dir().join(name);
        let source = std::fs::read_to_string(&path).expect("fixture exists");
        check_source(name, &source)
    }

    #[test]
    fn bad_unsafe_fixture_flags_exact_lines() {
        let v = lint_fixture("bad_unsafe.rs");
        let unsafe_hits: Vec<usize> = v
            .iter()
            .filter(|f| f.rule == RULE_UNSAFE)
            .map(|f| f.line)
            .collect();
        // Line 6: bare unsafe block. Line 14: unsafe impl with an
        // unrelated comment above. The annotated sites (SAFETY on the
        // line above, `# Safety` doc section, attribute between comment
        // and keyword) must NOT appear.
        assert_eq!(unsafe_hits, vec![6, 14]);
        assert!(v.iter().all(|f| f.file == "bad_unsafe.rs"));
    }

    #[test]
    fn bad_partial_cmp_fixture_flags_call_not_impl() {
        let v = lint_fixture("bad_partial_cmp.rs");
        let hits: Vec<usize> = v
            .iter()
            .filter(|f| f.rule == RULE_PARTIAL_CMP)
            .map(|f| f.line)
            .collect();
        // The `.partial_cmp(` call on line 11; the `fn partial_cmp`
        // definition and the string literal mentioning it must not match.
        assert_eq!(hits, vec![11]);
    }

    #[test]
    fn bad_hash_iter_fixture_flags_non_test_iteration_only() {
        let v = lint_fixture("bad_hash_iter.rs");
        let hits: Vec<usize> = v
            .iter()
            .filter(|f| f.rule == RULE_HASH_ITER)
            .map(|f| f.line)
            .collect();
        // Line 8: `for` over a HashMap binding. Line 20: `.keys()` on a
        // field. Line 29: `.intersection(` on an indexed Vec<HashSet>.
        // The lookup-only uses and the cfg(test) iteration must not match.
        assert_eq!(hits, vec![8, 20, 29]);
    }

    #[test]
    fn bad_wall_clock_fixture() {
        let v = lint_fixture("bad_wall_clock.rs");
        let hits: Vec<usize> = v
            .iter()
            .filter(|f| f.rule == RULE_WALL_CLOCK)
            .map(|f| f.line)
            .collect();
        assert_eq!(hits, vec![4, 9]);
    }

    #[test]
    fn bad_thread_fixture_skips_test_code() {
        let v = lint_fixture("bad_thread.rs");
        let hits: Vec<usize> = v
            .iter()
            .filter(|f| f.rule == RULE_RAW_THREAD)
            .map(|f| f.line)
            .collect();
        // Line 4: static mut. Line 8: thread::spawn. The cfg(test) spawn
        // must not match.
        assert_eq!(hits, vec![4, 8]);
    }

    #[test]
    fn bad_atomic_ordering_fixture_flags_raw_atomics_not_cmp() {
        let v = lint_fixture("bad_atomic_ordering.rs");
        let atomic_hits: Vec<usize> = v
            .iter()
            .filter(|f| f.rule == RULE_ATOMIC_ORDERING)
            .map(|f| f.line)
            .collect();
        // Line 5: the std::sync::atomic import. Line 8: an AtomicUsize
        // field. Line 11: an AtomicUsize parameter. Lines 12/15: memory
        // orderings at use sites. The std::cmp::Ordering comparator and
        // the string-literal mentions must NOT match.
        assert_eq!(atomic_hits, vec![5, 8, 11, 12, 15]);
        let relaxed_hits: Vec<usize> = v
            .iter()
            .filter(|f| f.rule == RULE_RELAXED_FIELD)
            .map(|f| f.line)
            .collect();
        // Only the `.top` store with `Ordering::Relaxed` — the SeqCst
        // store on line 12 touches no protocol field.
        assert_eq!(relaxed_hits, vec![15]);
    }

    #[test]
    fn bad_unwrap_fixture_is_scoped_to_hot_path_crates() {
        let path = fixture_dir().join("bad_unwrap.rs");
        let source = std::fs::read_to_string(&path).expect("fixture exists");
        // Under a hot-path pseudo-path: the bare unwrap on line 6 fires;
        // `expect`, `unwrap_or`, and the cfg(test) unwrap do not.
        let hits: Vec<usize> = check_source("crates/core/src/bad_unwrap.rs", &source)
            .iter()
            .filter(|f| f.rule == RULE_UNWRAP)
            .map(|f| f.line)
            .collect();
        assert_eq!(hits, vec![6]);
        // Outside the scoped prefixes the rule does not apply at all.
        assert!(check_source("crates/bench/src/bad_unwrap.rs", &source)
            .iter()
            .all(|f| f.rule != RULE_UNWRAP));
    }

    #[test]
    fn good_fixture_is_clean() {
        let v = lint_fixture("good_annotated.rs");
        assert!(v.is_empty(), "unexpected findings: {v:?}");
    }

    #[test]
    fn stale_entries_name_prefixes_that_match_no_file() {
        let allow = Allowlist::parse(
            "no-wall-clock bad_wall_clock.rs\natomic-ordering gone/atomic.rs\n* good_\n",
        );
        let stale = stale_entries(&fixture_dir(), &allow).unwrap();
        assert_eq!(stale, vec!["atomic-ordering gone/atomic.rs"]);
    }

    #[test]
    fn allowlist_suppresses_by_rule_and_prefix() {
        let path = fixture_dir().join("bad_wall_clock.rs");
        let source = std::fs::read_to_string(&path).unwrap();
        let findings = check_source("crates/bench/src/methods.rs", &source);
        assert!(!findings.is_empty());
        let allow = Allowlist::parse("no-wall-clock crates/bench/\n");
        let left: Vec<_> = findings
            .iter()
            .filter(|v| !allow.allows(v.rule, &v.file))
            .collect();
        assert!(left.is_empty(), "allowlist failed to suppress: {left:?}");
        // Rule-scoped: the same prefix does not suppress other rules.
        assert!(!allow.allows(RULE_HASH_ITER, "crates/bench/src/methods.rs"));
    }
}
