//! Span recording for the traced run.
//!
//! A span is one timed call across a layer boundary: a name whose prefix
//! before the first `.` is the layer (`core.compile` → `core`), start and
//! end instants, the span that was open when it began (its parent), and
//! the workload cell it belongs to. Spans stay in memory and are written
//! out once, when the run ends. With tracing off, [`Tracer::span`] is a
//! plain call and nothing is recorded.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = u32;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub cell: Option<u32>,
    /// Index of the traced batch the span belongs to.
    pub batch: u32,
    /// Small per-run thread number (0 is the main thread).
    pub thread: u32,
}

thread_local! {
    /// The spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<SpanId>> = const { RefCell::new(Vec::new()) };
}

struct State {
    spans: Vec<Span>,
    threads: Vec<ThreadId>,
    batch: u32,
}

/// The span store. Shared by reference with worker threads.
pub struct Tracer {
    on: bool,
    t0: Instant,
    state: Mutex<State>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            on: false,
            t0: Instant::now(),
            state: Mutex::new(State {
                spans: Vec::new(),
                threads: vec![std::thread::current().id()],
                batch: 0,
            }),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Turns recording on or off; each switch-on starts a new batch.
    pub fn set_enabled(&mut self, on: bool) {
        if on && !self.on {
            self.state.get_mut().expect("tracer lock").batch += 1;
        }
        self.on = on;
    }

    /// Runs `f` inside a span under the span open on this thread.
    pub fn span<T>(&self, name: &'static str, cell: Option<u32>, f: impl FnOnce() -> T) -> T {
        let parent = OPEN.with(|o| o.borrow().last().copied());
        self.span_under(parent, name, cell, f)
    }

    /// Runs `f` inside a span with an explicit parent (for calls made on
    /// worker threads, whose own stack is empty).
    pub fn span_under<T>(
        &self,
        parent: Option<SpanId>,
        name: &'static str,
        cell: Option<u32>,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let id = self.push(
            name,
            cell,
            parent,
            (start, start),
            std::thread::current().id(),
        );
        OPEN.with(|o| o.borrow_mut().push(id));
        let out = f();
        OPEN.with(|o| o.borrow_mut().pop());
        let end = self.ns(Instant::now());
        self.state.lock().expect("tracer lock").spans[id as usize].end_ns = end;
        out
    }

    /// Records a span whose interval was measured elsewhere (for
    /// example the event loop, timed by the simulator itself) on thread
    /// `on`.
    pub fn record(
        &self,
        name: &'static str,
        cell: Option<u32>,
        parent: Option<SpanId>,
        (start, end): (Instant, Instant),
        on: ThreadId,
    ) {
        if self.on {
            self.push(name, cell, parent, (start, end), on);
        }
    }

    /// The innermost span open on this thread.
    pub fn current(&self) -> Option<SpanId> {
        if !self.on {
            return None;
        }
        OPEN.with(|o| o.borrow().last().copied())
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.t0).as_nanos() as u64
    }

    fn push(
        &self,
        name: &'static str,
        cell: Option<u32>,
        parent: Option<SpanId>,
        (start, end): (Instant, Instant),
        me: ThreadId,
    ) -> SpanId {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        let mut st = self.state.lock().expect("tracer lock");
        let thread = match st.threads.iter().position(|&t| t == me) {
            Some(i) => i,
            None => {
                st.threads.push(me);
                st.threads.len() - 1
            }
        } as u32;
        let batch = st.batch;
        st.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            cell,
            batch,
            thread,
        });
        (st.spans.len() - 1) as SpanId
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.state.lock().expect("tracer lock").spans.clone()
    }
}

/// The layer a span name belongs to.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Seconds of self time per layer, per traced batch: each span's
/// duration minus the part of its interval that its children cover.
pub fn self_time_by_batch(spans: &[Span]) -> BTreeMap<u32, BTreeMap<String, f64>> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<u32, BTreeMap<String, f64>> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children.iter_mut()) {
        let covered = covered_ns(s.start_ns, s.end_ns, kids);
        let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered);
        *out.entry(s.batch)
            .or_default()
            .entry(layer_of(s.name).to_string())
            .or_insert(0.0) += own as f64 * 1e-9;
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`. Children on
/// parallel workers overlap one another, so a plain sum would overcount.
fn covered_ns(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(lo), b.min(hi));
        if a >= b {
            continue;
        }
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        total += cb - ca;
    }
    total
}

/// The spans as a Chrome trace-event document (complete events), which
/// Perfetto and `chrome://tracing` load. Parent and cell ride in `args`.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":{},\"tid\":{},\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"cell\":{}}}}}",
            s.name,
            layer_of(s.name),
            s.batch,
            s.thread,
            s.start_ns as f64 / 1e3,
            s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
            i,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.cell.map_or("null".to_string(), |c| c.to_string()),
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            cell: None,
            batch: 1,
            thread: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Two overlapping children (parallel workers) cover [10, 70).
        let spans = vec![
            span("experiments.run_cells", 0, 100, None),
            span("sim.run_full", 10, 60, Some(0)),
            span("sim.run_full", 30, 70, Some(0)),
        ];
        let t = &self_time_by_batch(&spans)[&1];
        assert!((t["experiments"] - 40e-9).abs() < 1e-15);
        assert!((t["sim"] - 90e-9).abs() < 1e-15);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tr = Tracer::new();
        assert_eq!(tr.span("core.compile", None, || 7), 7);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn nested_spans_get_their_parent() {
        let mut tr = Tracer::new();
        tr.set_enabled(true);
        tr.span("bench.batch", None, || {
            tr.span("core.compile", Some(3), || ())
        });
        let s = tr.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[1].cell, Some(3));
    }
}
