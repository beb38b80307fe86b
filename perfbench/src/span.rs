//! In-memory span recorder for the traced run.
//!
//! A span is one call from the benchmark into a layer of the repository:
//! its name (`<layer>.<operation>`), start and end on a monotonic clock,
//! the span that caused it and the request it served. Spans stay in
//! memory while the run is measured and are written out when it ends.
//! When tracing is off, [`Recorder::span`] only calls the closure.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded call. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub request: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }

    fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Recorder {
    on: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new(on: bool) -> Recorder {
        Recorder {
            on,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Run `f` as span `name` under `parent` for `request`. `f` receives
    /// the new span's id (0 when tracing is off) to parent its own
    /// children.
    pub fn span<R>(
        &self,
        name: &str,
        parent: Option<u64>,
        request: u64,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        if !self.on {
            return f(0);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.push(Span {
            id,
            parent,
            request,
            name: name.to_string(),
            start_ns,
            end_ns,
        });
        out
    }

    /// Record a span whose bounds were measured by the caller; returns
    /// its id (0 when tracing is off).
    pub fn record(
        &self,
        name: &str,
        parent: Option<u64>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.on {
            return 0;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.push(Span {
            id,
            parent,
            request,
            name: name.to_string(),
            start_ns: ns(start),
            end_ns: ns(end),
        });
        id
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("span list poisoned by a panicking recorder")
            .push(span);
    }

    pub fn spans(&self) -> Vec<Span> {
        let mut v = self
            .spans
            .lock()
            .expect("span list poisoned by a panicking recorder")
            .clone();
        v.sort_by_key(|s| (s.start_ns, s.id));
        v
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi)`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.remove(&s.id).unwrap_or_default();
            (s.id, s.dur() - covered(kids, s.start_ns, s.end_ns))
        })
        .collect()
}

/// Self time summed per layer, in nanoseconds.
pub fn layer_self_ns(spans: &[Span]) -> BTreeMap<String, u64> {
    let own = self_times(spans);
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.layer().to_string()).or_insert(0) += own[&s.id];
    }
    out
}

/// Mean duration in milliseconds of the spans named `name` (0 if none).
pub fn mean_ms(spans: &[Span], name: &str) -> f64 {
    let durs: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur)
        .collect();
    if durs.is_empty() {
        return 0.0;
    }
    durs.iter().sum::<u64>() as f64 / durs.len() as f64 / 1e6
}

/// One JSON object per line.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, parent, s.request, s.name, s.start_ns, s.end_ns
        )
        .expect("writing to a String cannot fail");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 0,
            name: name.into(),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        // root 0..100 with children 10..30 and 20..50 (overlapping) and a
        // grandchild 25..35 under the second child.
        let spans = vec![
            span(1, None, "serve.request", 0, 100),
            span(2, Some(1), "serve.submit", 10, 30),
            span(3, Some(1), "serve.events", 20, 50),
            span(4, Some(3), "experiments.parse", 25, 35),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 100 - 40, "children cover 10..50 once");
        assert_eq!(own[&2], 20);
        assert_eq!(own[&3], 30 - 10);
        assert_eq!(own[&4], 10);
        let layers = layer_self_ns(&spans);
        assert_eq!(layers["serve"], 60 + 20 + 20);
        assert_eq!(layers["experiments"], 10);
        // Self times partition the root's interval.
        assert_eq!(
            layers.values().sum::<u64>(),
            100 + 10,
            "overlap 20..30 counted by both children"
        );
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = vec![
            span(1, None, "bench.root", 10, 20),
            span(2, Some(1), "store.put", 5, 15),
            span(3, Some(1), "store.put", 18, 40),
        ];
        assert_eq!(self_times(&spans)[&1], 10 - 5 - 2);
    }

    #[test]
    fn recorder_nests_and_is_inert_when_off() {
        let rec = Recorder::new(true);
        let v = rec.span("bench.root", None, 7, |root| {
            rec.span("trace.decode", Some(root), 7, |_| 41) + 1
        });
        assert_eq!(v, 42);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        let root = spans.iter().find(|s| s.name == "bench.root").unwrap();
        let kid = spans.iter().find(|s| s.name == "trace.decode").unwrap();
        assert_eq!(kid.parent, Some(root.id));
        assert!(root.start_ns <= kid.start_ns && kid.end_ns <= root.end_ns);
        assert!(mean_ms(&spans, "trace.decode") <= mean_ms(&spans, "bench.root"));
        assert_eq!(mean_ms(&spans, "no.such"), 0.0);
        assert!(to_jsonl(&spans)
            .lines()
            .all(|l| l.contains("\"request\":7")));

        let off = Recorder::new(false);
        assert_eq!(off.span("bench.root", None, 0, |id| id), 0);
        assert!(off.spans().is_empty());
    }
}
