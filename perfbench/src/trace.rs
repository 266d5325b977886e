//! Benchmark-owned span recording.
//!
//! Spans are recorded from outside the program: the benchmark opens a
//! span around each call it makes into a crate's public entry point. A
//! span carries its name, start and end (nanoseconds since the sweep
//! started), its parent, and the domain rank as the request id. Each
//! worker records into its own [`Recorder`]; recorders are merged after
//! the sweep, so recording never synchronises workers.

use crate::measure::nanos;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Worker that made the call.
    pub worker: u32,
    /// Domain rank the call served (the request id).
    pub rank: u32,
    /// Layer name, e.g. `core.topology`.
    pub name: &'static str,
    /// Start, nanoseconds since the sweep's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the sweep's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same span list.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One worker's span buffer.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    worker: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
    started_ns: u64,
    finished_ns: u64,
}

impl Recorder {
    /// A recorder for `worker`; its busy interval starts now.
    pub fn new(epoch: Instant, worker: u32) -> Recorder {
        let started_ns = nanos(epoch.elapsed());
        Recorder {
            epoch,
            worker,
            spans: Vec::new(),
            open: Vec::new(),
            started_ns,
            finished_ns: started_ns,
        }
    }

    fn now_ns(&self) -> u64 {
        nanos(self.epoch.elapsed())
    }

    /// Open a span nested in the innermost open one; returns its handle.
    pub fn enter(&mut self, name: &'static str, rank: usize) -> usize {
        let start_ns = self.now_ns();
        self.push(name, rank, start_ns, start_ns)
    }

    /// Close the span `id` (spans close in LIFO order).
    pub fn exit(&mut self, id: usize) {
        let end_ns = self.now_ns();
        self.spans[id].end_ns = end_ns;
        self.finished_ns = end_ns;
        let closed = self.open.pop();
        debug_assert_eq!(closed, Some(id), "spans must close in LIFO order");
    }

    /// Run `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, rank: usize, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name, rank);
        let out = f();
        self.exit(id);
        out
    }

    /// Record an already-finished call as a child of the innermost open
    /// span (used for calls timed inside the program's own callbacks).
    pub fn record(&mut self, name: &'static str, rank: usize, start: Instant, end: Instant) {
        let s = nanos(start.saturating_duration_since(self.epoch));
        let e = nanos(end.saturating_duration_since(self.epoch));
        self.push(name, rank, s, e);
        self.open.pop();
    }

    fn push(&mut self, name: &'static str, rank: usize, start_ns: u64, end_ns: u64) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            worker: self.worker,
            rank: u32::try_from(rank).unwrap_or(u32::MAX),
            name,
            start_ns,
            end_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Nanoseconds this worker was busy: from its creation to the end of
    /// its last span.
    pub fn busy_ns(&self) -> u64 {
        self.finished_ns.saturating_sub(self.started_ns)
    }

    /// Move this worker's spans onto `out`, re-basing parent indices.
    pub fn drain_into(self, out: &mut Vec<Span>) {
        let offset = out.len();
        out.extend(self.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }
}

/// Per-name totals over a span list.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Calls recorded.
    pub calls: u64,
    /// Summed span time, nanoseconds.
    pub total_ns: u64,
    /// Summed self time (span time minus child span time), nanoseconds.
    pub self_ns: u64,
}

/// Totals per span name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, child) in spans.iter().zip(child_ns) {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += s.dur_ns().saturating_sub(child);
    }
    out
}

/// Render spans as tab-separated lines (header first).
pub fn render_tsv(spans: &[Span]) -> String {
    let mut out = String::from("id\tworker\trank\tname\tstart_ns\tend_ns\tparent\n");
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{id}\t{}\t{}\t{}\t{}\t{}\t{parent}",
            s.worker, s.rank, s.name, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                worker: 0,
                rank: 0,
                name: "domain",
                start_ns: 0,
                end_ns: 100,
                parent: None,
            },
            Span {
                worker: 0,
                rank: 0,
                name: "a",
                start_ns: 10,
                end_ns: 40,
                parent: Some(0),
            },
            Span {
                worker: 0,
                rank: 0,
                name: "b",
                start_ns: 50,
                end_ns: 90,
                parent: Some(0),
            },
            Span {
                worker: 0,
                rank: 0,
                name: "c",
                start_ns: 60,
                end_ns: 70,
                parent: Some(2),
            },
        ];
        let t = totals(&spans);
        assert_eq!(t["domain"].self_ns, 30);
        assert_eq!(t["b"].self_ns, 30);
        assert_eq!(t["b"].total_ns, 40);
        assert_eq!(t["c"].calls, 1);
    }

    #[test]
    fn recorder_nests_and_rebases() {
        let epoch = Instant::now();
        let mut out = vec![Span {
            worker: 9,
            rank: 0,
            name: "x",
            start_ns: 0,
            end_ns: 1,
            parent: None,
        }];
        let mut r = Recorder::new(epoch, 1);
        let d = r.enter("domain", 7);
        r.span("leaf", 7, || ());
        r.exit(d);
        r.drain_into(&mut out);
        assert_eq!(out[1].parent, None);
        assert_eq!(out[2].parent, Some(1));
        assert_eq!(out[2].rank, 7);
    }
}
