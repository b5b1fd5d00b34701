//! `pfg_lint` fails, naming the entry, when an allowlist entry's path
//! prefix matches none of the files it scans.

use std::path::Path;
use std::process::{Command, Output};

#[test]
fn pfg_lint_exits_1_naming_a_stale_entry() {
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    let allow = Path::new(env!("CARGO_TARGET_TMPDIR")).join("stale_allow_test.allow");
    let lint = |text: &str| -> Output {
        std::fs::write(&allow, text).unwrap();
        Command::new(env!("CARGO_BIN_EXE_pfg_lint"))
            .arg("--root")
            .arg(&fixtures)
            .arg("--allow")
            .arg(&allow)
            .output()
            .unwrap()
    };
    // `* bad_` suppresses every fixture finding, so only a stale entry can
    // fail the run.
    let clean = lint("* bad_\n");
    assert_eq!(clean.status.code(), Some(0), "{clean:?}");
    let stale = lint("* bad_\natomic-ordering gone/atomic.rs\n");
    assert_eq!(stale.status.code(), Some(1), "{stale:?}");
    let stdout = String::from_utf8_lossy(&stale.stdout);
    assert!(
        stdout.contains("[stale-allow] entry `atomic-ordering gone/atomic.rs`"),
        "{stdout}"
    );
}
