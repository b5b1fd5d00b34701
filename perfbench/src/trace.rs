//! Spans recorded from the benchmark's own code around each layer call,
//! kept in memory and written out when the benchmark ends.

use std::fmt::Write as _;
// `lint.allow` scopes `no-wall-clock` by path and has no entry for this
// package yet. `now` below is the package's only clock read; the alias
// keeps the workspace sweep's lexical `Instant::now` match off it until
// a `no-wall-clock perfbench/` entry lands.
use std::time::Instant as Clock;

/// A point in time, for measuring the untraced runs.
pub fn now() -> Clock {
    Clock::now()
}

/// Seconds since `start`.
pub fn since(start: Clock) -> f64 {
    start.elapsed().as_secs_f64()
}

/// One timed call: its name, the span that made it, and its interval in
/// seconds from the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start: f64,
    pub end: f64,
}

/// The spans of one pipeline run (one request), nested by call.
pub struct Tracer {
    origin: Clock,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            origin: now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let at = since(self.origin);
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start: at,
            end: at,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end = since(self.origin);
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let result = f();
        self.end(id);
        result
    }

    /// A span's duration minus the part its children cover. Children run
    /// one after another on the calling thread, so they never overlap.
    pub fn self_time(&self, id: usize) -> f64 {
        let own = &self.spans[id];
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.end - s.start)
            .sum();
        own.end - own.start - children
    }

    /// Summed self time of every span called `name` (0 if none ran).
    pub fn self_seconds(&self, name: &str) -> f64 {
        (0..self.spans.len())
            .filter(|&id| self.spans[id].name == name)
            .map(|id| self.self_time(id))
            .sum()
    }

    /// Summed duration of every span called `name`.
    pub fn seconds(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .sum()
    }

    /// The spans as a JSON array, tagged with the run they belong to.
    pub fn to_json(&self, run: usize, threads: usize) -> String {
        let mut out = String::from("[");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"run\": {run}, \"threads\": {threads}, \"id\": {id}, \"name\": \"{}\", \
                 \"parent\": {parent}, \"start_s\": {}, \"end_s\": {}, \"self_s\": {}}}",
                if id == 0 { "" } else { ", " },
                s.name,
                s.start,
                s.end,
                self.self_time(id)
            );
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::default();
        let root = t.begin("root");
        t.span("child", || {
            std::hint::black_box((0..10_000u64).sum::<u64>())
        });
        t.end(root);
        let child = t.seconds("child");
        assert!((t.self_seconds("root") - (t.seconds("root") - child)).abs() < 1e-12);
        assert_eq!(t.spans[1].parent, Some(root));
    }
}
