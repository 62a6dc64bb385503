//! The benchmark's clock and its in-memory span recorder.
//!
//! Spans are recorded from the benchmark's own code, around each call
//! into a layer of the system; nothing inside the program is
//! instrumented. A span has a name, a start, an end, the span that
//! caused it and one count (items examined, EM iterations, ...). They
//! stay in memory until the run ends and are written out once.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// Wall clock with excluded stretches: work the benchmark does for
/// itself (oracle checks, re-running a layer to split its time) runs
/// inside [`Clock::exclude`] and is subtracted from [`Clock::now`], so
/// it never counts against the system's throughput or freshness.
#[derive(Debug)]
pub struct Clock {
    origin: Instant,
    excluded: Duration,
}

impl Clock {
    pub fn new() -> Self {
        Clock { origin: Instant::now(), excluded: Duration::ZERO }
    }

    /// Real time since the clock started, in nanoseconds.
    pub fn real_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// A reader of [`Clock::real_ns`] usable inside [`Clock::exclude`].
    pub fn real_ns_fn(&self) -> impl Fn() -> u64 {
        let origin = self.origin;
        move || origin.elapsed().as_nanos() as u64
    }

    /// Time since the clock started minus every excluded stretch.
    pub fn now(&self) -> Duration {
        self.origin.elapsed() - self.excluded
    }

    /// Runs `f` off the clock.
    pub fn exclude<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let result = f();
        self.excluded += start.elapsed();
        result
    }
}

/// Index of a recorded span; [`NO_SPAN`] when tracing is off or the
/// span has no parent.
pub type SpanId = u32;
pub const NO_SPAN: SpanId = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    parent: SpanId,
    start_ns: u64,
    end_ns: u64,
    count: u64,
}

/// Span recorder. When disabled every call is a no-op returning
/// [`NO_SPAN`], so the traced and untraced runs share one code path.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, spans: Vec::new(), open: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off; spans already recorded stay.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Opens a span at `start_ns`; its parent is the innermost open span.
    pub fn begin(&mut self, name: &'static str, start_ns: u64) -> SpanId {
        if !self.enabled {
            return NO_SPAN;
        }
        let id = self.spans.len() as SpanId;
        let parent = self.open.last().copied().unwrap_or(NO_SPAN);
        self.spans.push(Span { name, parent, start_ns, end_ns: start_ns, count: 0 });
        self.open.push(id);
        id
    }

    /// Opens a span at `start_ns` caused by `parent`, which may already
    /// be closed (work done after a call, on its behalf).
    pub fn begin_under(&mut self, name: &'static str, parent: SpanId, start_ns: u64) -> SpanId {
        let id = self.begin(name, start_ns);
        if id != NO_SPAN {
            self.spans[id as usize].parent = parent;
        }
        id
    }

    /// Closes the innermost open span `id` at `end_ns`, renaming it to
    /// `name` (a call's layer is often known only from its outcome) and
    /// attaching `count`.
    pub fn end(&mut self, id: SpanId, name: &'static str, end_ns: u64, count: u64) {
        if id == NO_SPAN {
            return;
        }
        debug_assert_eq!(self.open.last(), Some(&id), "spans close innermost first");
        self.open.pop();
        let span = &mut self.spans[id as usize];
        span.name = name;
        span.end_ns = end_ns;
        span.count = count;
    }

    /// Records a closed span under the innermost open span.
    pub fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64, count: u64) {
        let id = self.begin(name, start_ns);
        self.end(id, name, end_ns, count);
    }

    /// Per-name totals: calls, summed duration, summed self time (the
    /// duration minus the part of it its child spans cover; a child
    /// recorded after its parent ended covers none) and summed count.
    pub fn summary(&self) -> BTreeMap<&'static str, NameStats> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = self.spans.get(span.parent as usize) {
                let covered = span
                    .end_ns
                    .min(parent.end_ns)
                    .saturating_sub(span.start_ns.max(parent.start_ns));
                child_ns[span.parent as usize] += covered;
            }
        }
        let mut out: BTreeMap<&'static str, NameStats> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let dur = span.end_ns - span.start_ns;
            let entry = out.entry(span.name).or_default();
            entry.calls += 1;
            entry.total_ns += dur;
            entry.self_ns += dur.saturating_sub(children);
            entry.count += span.count;
        }
        out
    }

    /// Durations in microseconds of every span named `name`, sorted.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        crate::stats::sorted(
            self.spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
                .collect(),
        )
    }

    /// Writes every span as one tab-separated line:
    /// `id parent name start_ns end_ns count` (parent `-` for roots).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\tstart_ns\tend_ns\tcount")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_SPAN { "-".to_string() } else { s.parent.to_string() };
            writeln!(out, "{id}\t{parent}\t{}\t{}\t{}\t{}", s.name, s.start_ns, s.end_ns, s.count)?;
        }
        out.flush()
    }
}

/// Aggregate of all spans sharing one name.
#[derive(Debug, Default, Clone, Copy)]
pub struct NameStats {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub count: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let root = t.begin("root", 0);
        t.record("child", 10, 30, 2);
        t.record("child", 40, 45, 3);
        t.end(root, "root", 100, 0);
        let later = t.begin_under("after", root, 200);
        t.end(later, "after", 250, 0);
        let s = t.summary();
        assert_eq!(s["root"].total_ns, 100);
        assert_eq!(s["root"].self_ns, 75, "a child after the parent ended covers none of it");
        assert_eq!(s["after"].self_ns, 50);
        assert_eq!(s["child"].calls, 2);
        assert_eq!(s["child"].count, 5);
        assert_eq!(t.durations_us("child"), vec![0.005, 0.02]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("x", 0);
        assert_eq!(id, NO_SPAN);
        t.end(id, "x", 5, 0);
        assert!(t.summary().is_empty());
    }
}
