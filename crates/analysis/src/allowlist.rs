//! The checked-in suppression file for [`crate::rules`] findings.
//!
//! Format (one entry per line, `#` comments):
//!
//! ```text
//! <rule-id> <path-prefix>
//! ```
//!
//! An entry suppresses findings of `rule-id` (or every rule, for `*`) in
//! files whose repo-relative path starts with `path-prefix` (forward
//! slashes on every platform). Suppressions are *rule-scoped* by design:
//! allowing wall-clock reads in the bench crate must not also allow, say,
//! hash iteration there. The workspace's file is `lint.allow` at the repo
//! root; every entry carries a comment saying why the exemption is sound.
//!
//! Parsing and matching live in the shared [`pfg_primitives::allow`]
//! module (the bench gate's `bench.allow` uses the same line discipline);
//! this wrapper keeps the linter's load semantics — a missing file is an
//! empty allowlist, not an error.

use std::path::Path;

use pfg_primitives::AllowFile;

/// Parsed allowlist: rule-scoped `(rule, path-prefix)` entries.
#[derive(Debug, Clone, Default)]
pub struct Allowlist {
    file: AllowFile,
}

impl Allowlist {
    /// Parses the `lint.allow` format. Unknown rule names are kept (they
    /// suppress nothing but do not error, so the file can lead its
    /// linter).
    pub fn parse(text: &str) -> Self {
        Allowlist {
            file: AllowFile::parse_scoped(text),
        }
    }

    /// Loads and parses a file; a missing file is an empty allowlist.
    pub fn load(path: &Path) -> std::io::Result<Self> {
        match std::fs::read_to_string(path) {
            Ok(text) => Ok(Self::parse(&text)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Self::default()),
            Err(e) => Err(e),
        }
    }

    /// Whether findings of `rule` in `rel_path` are suppressed.
    pub fn allows(&self, rule: &str, rel_path: &str) -> bool {
        self.file.allows(Some(rule), rel_path)
    }

    /// The entries whose path prefix starts none of `paths`, written back
    /// as `<rule> <path-prefix>` (`*` for an every-rule entry).
    pub fn unmatched(&self, paths: &[String]) -> Vec<String> {
        self.file
            .unmatched(paths)
            .into_iter()
            .map(|e| format!("{} {}", e.scope.as_deref().unwrap_or("*"), e.prefix))
            .collect()
    }

    /// Number of entries (for reporting).
    pub fn len(&self) -> usize {
        self.file.len()
    }

    /// Whether the allowlist is empty.
    pub fn is_empty(&self) -> bool {
        self.file.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_entries_and_comments() {
        let a = Allowlist::parse(
            "# header\nno-wall-clock crates/bench/  # timing is the product\n\n* crates/x/\n",
        );
        assert_eq!(a.len(), 2);
        assert!(a.allows("no-wall-clock", "crates/bench/src/methods.rs"));
        assert!(!a.allows("no-wall-clock", "crates/core/src/lib.rs"));
        assert!(!a.allows("no-hash-iteration", "crates/bench/src/methods.rs"));
        assert!(a.allows("anything", "crates/x/y.rs"));
    }

    #[test]
    fn missing_file_is_empty() {
        let a = Allowlist::load(Path::new("/nonexistent/lint.allow")).unwrap();
        assert!(a.is_empty());
    }
}
