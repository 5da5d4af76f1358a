//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a name (the per-layer metric it feeds), start, end, the
//! span that caused it and the request it belongs to. Spans stay in
//! memory and are written out when the run ends. A layer's self time is
//! its span's duration minus the part covered by its child spans.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The span recorder. When off, every call is a no-op returning id 0.
pub struct Tracer {
    on: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// A fresh id, usable as a request id or a span id.
    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a span that ran from `start` to `end`; returns its id.
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u64,
        request: u64,
    ) -> u64 {
        if !self.on {
            return 0;
        }
        let id = self.next_id();
        self.push(Span {
            id,
            parent,
            request,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        id
    }

    /// Record a span whose position is known only relative to another
    /// (a phase the server reported as a duration).
    pub fn record_ns(
        &self,
        name: &'static str,
        start_ns: u64,
        dur_ns: u64,
        parent: u64,
        request: u64,
    ) {
        if !self.on {
            return;
        }
        let id = self.next_id();
        self.push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns: start_ns + dur_ns,
        });
    }

    /// Time `f` as a span named `name`.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: u64,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.on {
            return f();
        }
        let t0 = Instant::now();
        let out = f();
        self.record(name, t0, Instant::now(), parent, request);
        out
    }

    /// Like [`Tracer::span`], but `f` receives the span's own id so it can
    /// parent child spans; the id is reserved before `f` runs.
    pub fn parent_span<T>(
        &self,
        name: &'static str,
        parent: u64,
        request: u64,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        if !self.on {
            return f(0);
        }
        let id = self.next_id();
        let t0 = Instant::now();
        let out = f(id);
        let end = Instant::now();
        self.push(Span {
            id,
            parent,
            request,
            name,
            start_ns: self.ns(t0),
            end_ns: self.ns(end),
        });
        out
    }

    pub fn position_ns(&self, t: Instant) -> u64 {
        self.ns(t)
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span buffer poisoned").push(span);
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span buffer poisoned"))
    }
}

/// Per-name totals over a span set.
#[derive(Debug, Clone, Default)]
pub struct LayerTime {
    pub count: u64,
    pub total_s: f64,
    pub self_s: f64,
    pub durations_ms: Vec<f64>,
}

/// Aggregate spans by name: count, total and self time.
pub fn aggregate(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let covered = children
            .get_mut(&s.id)
            .map(|c| covered_ns(c, s.start_ns, s.end_ns))
            .unwrap_or(0);
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_s += dur as f64 / 1e9;
        e.self_s += dur.saturating_sub(covered) as f64 / 1e9;
        e.durations_ms.push(dur as f64 / 1e6);
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// Spans as tab-separated lines: id, parent, request, name, start, end.
pub fn to_tsv(spans: &[Span]) -> String {
    let mut out = String::from("id\tparent\trequest\tname\tstart_ns\tend_ns\n");
    for s in spans {
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        let mk = |id, parent, s, e| Span {
            id,
            parent,
            request: 1,
            name: if parent == 0 { "root" } else { "child" },
            start_ns: s,
            end_ns: e,
        };
        let spans = vec![
            mk(1, 0, 0, 100),
            mk(2, 1, 10, 40),
            mk(3, 1, 30, 60),
            mk(4, 1, 90, 130),
        ];
        let agg = aggregate(&spans);
        // Children cover [10,60) and [90,100) of the root: 60 of 100 ns.
        assert!((agg["root"].self_s - 40e-9).abs() < 1e-15);
        assert_eq!(agg["child"].count, 3);
    }
}
