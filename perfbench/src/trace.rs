//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, start and end (nanoseconds since the tracer was
//! created), the id of the span that caused it, and the request id it
//! belongs to. Spans are kept in memory and written out once, when the run
//! ends. With tracing off, [`Tracer::timed`] still measures its closure (the
//! end-to-end metrics need the time) but records nothing.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub request: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder shared by every thread of one run.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer { on, origin: Instant::now(), next_id: AtomicU64::new(1), spans: Mutex::new(Vec::new()) }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    fn nanos(&self, at: Instant) -> u64 {
        u64::try_from(at.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Record a span that ran from `start` to `end`.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<u64>,
        request: Option<u64>,
        start: Instant,
        end: Instant,
    ) {
        if self.on {
            let id = self.next_id.fetch_add(1, Ordering::Relaxed);
            let span =
                Span { id, parent, request, name, start_ns: self.nanos(start), end_ns: self.nanos(end) };
            self.spans.lock().expect("span list lock poisoned").push(span);
        }
    }

    /// Start a span whose children run before it ends: returns its id and
    /// start, to be passed to [`Tracer::close`].
    pub fn open(&self) -> (u64, Instant) {
        (self.next_id.fetch_add(1, Ordering::Relaxed), Instant::now())
    }

    /// End a span started with [`Tracer::open`].
    pub fn close(&self, name: &'static str, parent: Option<u64>, (id, start): (u64, Instant)) {
        if self.on {
            let span = Span {
                id,
                parent,
                request: None,
                name,
                start_ns: self.nanos(start),
                end_ns: self.nanos(Instant::now()),
            };
            self.spans.lock().expect("span list lock poisoned").push(span);
        }
    }

    /// Run `f` inside a span named `name`; `f` receives the span's id so
    /// that nested calls can name it as their parent. Returns the closure's
    /// result and its wall time in seconds.
    pub fn timed<T>(&self, name: &'static str, parent: Option<u64>, f: impl FnOnce(u64) -> T) -> (T, f64) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let out = f(id);
        let end = Instant::now();
        if self.on {
            let span = Span {
                id,
                parent,
                request: None,
                name,
                start_ns: self.nanos(start),
                end_ns: self.nanos(end),
            };
            self.spans.lock().expect("span list lock poisoned").push(span);
        }
        (out, end.duration_since(start).as_secs_f64())
    }

    /// Every span recorded so far, ordered by start time.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span list lock poisoned").clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// Total length of the union of `intervals` (each `(start, end)`).
fn union_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0u64;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = current {
        total += ce - cs;
    }
    total
}

/// Self time per span name, in seconds: each span's duration minus the part
/// of it its child spans cover, summed over spans of the same name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            children.entry(parent).or_default().push((span.start_ns, span.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for span in spans {
        let covered = children.get(&span.id).map_or(0, |c| {
            union_ns(
                c.iter()
                    .map(|&(s, e)| (s.max(span.start_ns), e.min(span.end_ns)))
                    .filter(|(s, e)| s < e)
                    .collect(),
            )
        });
        *out.entry(span.name).or_default() +=
            (span.duration_ns() - covered.min(span.duration_ns())) as f64 / 1e9;
    }
    out
}

/// Share of the root span's wall time covered by its direct children.
pub fn coverage(spans: &[Span], root: u64) -> f64 {
    let Some(root_span) = spans.iter().find(|s| s.id == root) else { return 0.0 };
    let covered = union_ns(
        spans
            .iter()
            .filter(|s| s.parent == Some(root))
            .map(|s| (s.start_ns.max(root_span.start_ns), s.end_ns.min(root_span.end_ns)))
            .filter(|(s, e)| s < e)
            .collect(),
    );
    covered as f64 / root_span.duration_ns().max(1) as f64
}

/// Spans as JSON lines, one object per span.
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let request = s.request.map_or("null".to_string(), |r| r.to_string());
        out.push_str(&format!(
            "{{\"id\": {}, \"parent\": {parent}, \"request\": {request}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}\n",
            s.id, s.name, s.start_ns, s.end_ns
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, request: None, name, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, None, "root", 0, 100),
            span(2, Some(1), "a", 10, 40),
            span(3, Some(1), "b", 30, 60),
            span(4, Some(2), "c", 10, 20),
        ];
        let times = self_times(&spans);
        assert!((times["root"] - 50e-9).abs() < 1e-15);
        assert!((times["a"] - 20e-9).abs() < 1e-15);
        assert!((coverage(&spans, 1) - 0.5).abs() < 1e-12);
    }
}
