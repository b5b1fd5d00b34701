//! The workspace itself must pass `pfg_lint` with the checked-in
//! allowlist. This is the test that keeps the determinism/concurrency
//! contracts from rotting: any new `unsafe` without a SAFETY note, hash
//! iteration on a result path, `partial_cmp` comparator, wall-clock read
//! in algorithm code, or raw thread outside the executor shim fails CI
//! here with the exact file and line — and so does an allowlist entry
//! whose path prefix no longer matches any file.

use std::path::Path;

use pfg_analysis::{lint_tree, stale_entries, Allowlist};

#[test]
fn workspace_is_lint_clean_under_checked_in_allowlist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves");
    assert!(
        root.join("Cargo.toml").exists(),
        "expected workspace root, got {}",
        root.display()
    );

    let allow = Allowlist::load(&root.join("lint.allow")).expect("lint.allow loads");
    assert!(
        !allow.is_empty(),
        "lint.allow should carry the documented suppressions"
    );

    let violations = lint_tree(&root, &allow).expect("lint sweep succeeds");
    assert!(
        violations.is_empty(),
        "workspace lint findings:\n{}",
        violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    let stale = stale_entries(&root, &allow).expect("lint sweep succeeds");
    assert!(stale.is_empty(), "stale lint.allow entries: {stale:?}");
}
