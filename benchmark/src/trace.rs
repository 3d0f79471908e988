//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records its layer, name, start, end, parent span and the job or
//! cell it served. Spans stay in memory until the run ends; then they are
//! written out once and reduced to per-layer self time (a span's duration
//! minus the part of it its children cover). With tracing off, opening a
//! span costs one branch.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub layer: &'static str,
    pub name: &'static str,
    /// The job or cell this span served.
    pub job: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Collects spans from any number of threads.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

/// An open span; it is recorded when dropped.
pub struct Open<'a> {
    tracer: &'a Tracer,
    id: u32,
    parent: Option<u32>,
    layer: &'static str,
    name: &'static str,
    job: u64,
    start_ns: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            next: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; `None` when tracing is off.
    pub fn open(
        &self,
        layer: &'static str,
        name: &'static str,
        parent: Option<u32>,
        job: u64,
    ) -> Option<Open<'_>> {
        if !self.on {
            return None;
        }
        Some(Open {
            tracer: self,
            id: self.next.fetch_add(1, Ordering::Relaxed),
            parent,
            layer,
            name,
            job,
            start_ns: self.now_ns(),
        })
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("span list poisoned by a panicking recorder")
            .clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

impl Open<'_> {
    pub fn id(&self) -> u32 {
        self.id
    }
}

impl Drop for Open<'_> {
    fn drop(&mut self) {
        let span = Span {
            id: self.id,
            parent: self.parent,
            layer: self.layer,
            name: self.name,
            job: self.job,
            start_ns: self.start_ns,
            end_ns: self.tracer.now_ns(),
        };
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans.push(span);
        }
    }
}

/// The id of an optional open span (for passing as a parent).
pub fn id_of(open: &Option<Open<'_>>) -> Option<u32> {
    open.as_ref().map(Open::id)
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time per layer, in seconds: each span's duration minus the union
/// of its children's intervals (children on parallel threads overlap, so
/// the union, not the sum, is subtracted).
pub fn self_seconds(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let kids = children.remove(&s.id).unwrap_or_default();
        let own = dur - covered(kids, s.start_ns, s.end_ns).min(dur);
        *out.entry(s.layer).or_default() += own as f64 / 1e9;
    }
    out
}

/// Renders spans as JSON lines (one object per span).
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"layer\":\"{}\",\"name\":\"{}\",\"job\":{},\"start_ns\":{},\"end_ns\":{}}}\n",
            s.id, parent, s.layer, s.name, s.job, s.start_ns, s.end_ns
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, layer: &'static str, s: u64, e: u64) -> Span {
        Span {
            id,
            parent,
            layer,
            name: "x",
            job: 0,
            start_ns: s,
            end_ns: e,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // A 100 ns parent with two overlapping children (10..50, 30..70)
        // and one child hanging past its end (90..120).
        let spans = vec![
            span(1, None, "pass", 0, 100),
            span(2, Some(1), "cell", 10, 50),
            span(3, Some(1), "cell", 30, 70),
            span(4, Some(1), "cell", 90, 120),
        ];
        let t = self_seconds(&spans);
        // Covered: 10..70 (60) + 90..100 (10) = 70 → self 30 ns.
        assert!((t["pass"] - 30e-9).abs() < 1e-15);
        assert!((t["cell"] - (40e-9 + 40e-9 + 30e-9)).abs() < 1e-15);
    }

    #[test]
    fn spans_record_only_when_on() {
        let off = Tracer::new(false);
        assert!(off.open("a", "b", None, 0).is_none());
        assert!(off.spans().is_empty());

        let on = Tracer::new(true);
        {
            let outer = on.open("bench", "pass", None, 7);
            let parent = id_of(&outer);
            let _inner = on.open("sim", "cell", parent, 7);
        }
        let spans = on.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns && s.job == 7));
        let lines = to_json_lines(&spans);
        assert_eq!(lines.lines().count(), 2);
        assert!(lines.contains("\"layer\":\"sim\""));
    }
}
