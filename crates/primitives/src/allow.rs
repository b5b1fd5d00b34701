//! Shared parsing for the workspace's checked-in allow files.
//!
//! Two gates consume hand-edited prefix allowlists: the `pfg_lint` static
//! analyzer (`lint.allow`, rule-scoped entries) and the `bench_diff` perf
//! gate (`bench.allow`, plain series-key prefixes). Both files share one
//! line discipline — `#` starts a comment, surrounding whitespace is
//! noise, blank lines are skipped, and matching is by prefix — which used
//! to be implemented twice. This module is the single copy; the two
//! consumers keep their own file formats and load-error semantics
//! (`pfg_lint` treats a missing file as empty, `bench_diff` fails loudly)
//! as thin wrappers over [`AllowFile`].

/// One parsed allow entry: an optional scope (a lint rule id; `None`
/// matches any scope, written `*` in the scoped format) plus a path or
/// key prefix.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    /// Scope the entry applies to, `None` for all scopes.
    pub scope: Option<String>,
    /// The path/key prefix that selects what the entry allows.
    pub prefix: String,
}

/// A parsed allow file: an ordered list of [`AllowEntry`]s.
#[derive(Debug, Clone, Default)]
pub struct AllowFile {
    entries: Vec<AllowEntry>,
}

/// The meaningful lines of allow-file text: comments stripped (`#` to end
/// of line), whitespace trimmed, blanks dropped.
pub fn entry_lines(text: &str) -> impl Iterator<Item = &str> {
    text.lines()
        .map(|raw| raw.split('#').next().unwrap_or("").trim())
        .filter(|line| !line.is_empty())
}

impl AllowFile {
    /// Parses the two-field scoped format (`lint.allow`):
    ///
    /// ```text
    /// <rule-id> <path-prefix>   # why this exemption is sound
    /// ```
    ///
    /// A `*` rule scopes the entry to every rule. Lines with fewer than
    /// two fields are ignored (the file can lead its parser); fields past
    /// the second are too.
    pub fn parse_scoped(text: &str) -> Self {
        let mut entries = Vec::new();
        for line in entry_lines(text) {
            let mut parts = line.split_whitespace();
            if let (Some(scope), Some(prefix)) = (parts.next(), parts.next()) {
                entries.push(AllowEntry {
                    scope: (scope != "*").then(|| scope.to_string()),
                    prefix: prefix.to_string(),
                });
            }
        }
        AllowFile { entries }
    }

    /// Parses the one-field format (`bench.allow`): a bare prefix per
    /// line, applying to every scope.
    pub fn parse_prefixes(text: &str) -> Self {
        AllowFile {
            entries: entry_lines(text)
                .map(|line| AllowEntry {
                    scope: None,
                    prefix: line.to_string(),
                })
                .collect(),
        }
    }

    /// Whether `key` is allowed in `scope`: some entry's prefix starts
    /// `key` and that entry is unscoped or scoped to exactly `scope`
    /// (`scope == None` asks only for an unscoped-or-any match by prefix).
    pub fn allows(&self, scope: Option<&str>, key: &str) -> bool {
        self.entries.iter().any(|e| {
            key.starts_with(e.prefix.as_str())
                && match (&e.scope, scope) {
                    (None, _) => true,
                    (Some(es), Some(s)) => es == s,
                    (Some(_), None) => false,
                }
        })
    }

    /// The entries whose prefix starts none of `keys`: entries that allow
    /// nothing there.
    pub fn unmatched(&self, keys: &[String]) -> Vec<&AllowEntry> {
        self.entries
            .iter()
            .filter(|e| !keys.iter().any(|k| k.starts_with(e.prefix.as_str())))
            .collect()
    }

    /// Number of entries (for reporting).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the file parsed to no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_lines_strip_comments_and_blanks() {
        let lines: Vec<&str> =
            entry_lines("# header\n  a/b  # trailing\n\n   \nc/d\n# only comment\n").collect();
        assert_eq!(lines, vec!["a/b", "c/d"]);
    }

    #[test]
    fn scoped_format_matches_by_rule_and_prefix() {
        let f = AllowFile::parse_scoped(
            "# header\nno-wall-clock crates/bench/  # timing is the product\n\n* crates/x/\nmalformed\n",
        );
        assert_eq!(f.len(), 2);
        assert!(f.allows(Some("no-wall-clock"), "crates/bench/src/methods.rs"));
        assert!(!f.allows(Some("no-wall-clock"), "crates/core/src/lib.rs"));
        assert!(!f.allows(Some("no-hash-iteration"), "crates/bench/src/methods.rs"));
        assert!(f.allows(Some("anything"), "crates/x/y.rs"));
        // A scope-less query only matches unscoped entries.
        assert!(f.allows(None, "crates/x/y.rs"));
        assert!(!f.allows(None, "crates/bench/src/methods.rs"));
    }

    #[test]
    fn prefix_format_ignores_scope() {
        let f = AllowFile::parse_prefixes("# noisy series\nend_to_end/t48\n");
        assert_eq!(f.len(), 1);
        assert!(f.allows(None, "end_to_end/t48_case7"));
        assert!(f.allows(Some("any-rule"), "end_to_end/t48_case7"));
        assert!(!f.allows(None, "construction/t48"));
        assert!(AllowFile::default().is_empty());
    }
}
