//! The span recorder and the timing decorator around a real backend.
//!
//! A span is one timed call into a public function of the stack: its
//! name, start and end (ns on the benchmark's monotonic probe), the span
//! it ran inside, the request (submission index) being served, and the
//! allocations made during the call. Spans stay in memory while the run
//! is traced and are written out at exit. With tracing off, [`span`]
//! calls straight through.

use crate::alloc::allocations;
use rotary::core::error::Result as RotaryResult;
use rotary::core::json::Json;
use rotary::core::SimTime;
use rotary::serve::{Backend, BackendDone, Pending};
use rotary::store::SnapshotRecords;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Nanoseconds on the benchmark's monotonic wall-clock probe.
pub fn now_ns() -> u64 {
    rotary_bench::timing::monotonic_probe().as_nanos() as u64
}

/// `parent` of a top-level span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified name, e.g. `backend.admit`.
    pub name: &'static str,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// Submission index being served when the span opened.
    pub req: u64,
    /// Allocation calls made during the span, children included.
    pub allocs: u64,
}

impl Span {
    /// Wall duration, ns.
    pub fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Default)]
struct Recorder {
    on: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
    req: u64,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder::default());
}

/// Turns recording on (clearing earlier spans and reserving room for
/// `capacity` spans, so the recorder's own growth stays out of the
/// counts) or off.
pub fn set_tracing(on: bool, capacity: usize) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.on = on;
        r.spans = Vec::with_capacity(if on { capacity } else { 0 });
        r.open = Vec::with_capacity(64);
    });
}

/// Whether spans are being recorded.
pub fn tracing() -> bool {
    REC.with(|r| r.borrow().on)
}

/// Stamps spans opened from now on with this request id.
pub fn set_request(req: u64) {
    REC.with(|r| r.borrow_mut().req = req);
}

/// Runs `f` inside a span named `name` (a plain call when not tracing).
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let idx = REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return None;
        }
        let idx = r.spans.len() as u32;
        let parent = r.open.last().copied().unwrap_or(NO_PARENT);
        let req = r.req;
        r.spans.push(Span { name, start_ns: 0, end_ns: 0, parent, req, allocs: 0 });
        r.open.push(idx);
        Some(idx)
    });
    let Some(idx) = idx else { return f() };
    let allocs_before = allocations();
    let start_ns = now_ns();
    let out = f();
    let end_ns = now_ns();
    let allocs = allocations() - allocs_before;
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.open.pop();
        if let Some(s) = r.spans.get_mut(idx as usize) {
            s.start_ns = start_ns;
            s.end_ns = end_ns;
            s.allocs = allocs;
        }
    });
    out
}

/// Takes the recorded spans, leaving the recorder empty (and off).
pub fn take_spans() -> Vec<Span> {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.on = false;
        std::mem::take(&mut r.spans)
    })
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    /// Calls.
    pub count: u64,
    /// Wall time, ns, children included.
    pub total_ns: u64,
    /// Wall time minus the wall time of child spans, ns.
    pub self_ns: u64,
    /// Allocation calls, children included.
    pub allocs: u64,
    /// Allocation calls minus those of child spans.
    pub self_allocs: u64,
}

/// Sums spans by name, with self time and self allocations.
pub fn aggregate(spans: &[Span]) -> BTreeMap<&'static str, Agg> {
    let mut child_ns = vec![0u64; spans.len()];
    let mut child_allocs = vec![0u64; spans.len()];
    for s in spans {
        if let (Some(ns), Some(al)) =
            (child_ns.get_mut(s.parent as usize), child_allocs.get_mut(s.parent as usize))
        {
            *ns += s.dur();
            *al += s.allocs;
        }
    }
    let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let a = out.entry(s.name).or_default();
        a.count += 1;
        a.total_ns += s.dur();
        a.self_ns += s.dur().saturating_sub(child_ns[i]);
        a.allocs += s.allocs;
        a.self_allocs += s.allocs.saturating_sub(child_allocs[i]);
    }
    out
}

/// Durations of the spans named `name`, in call order.
pub fn durations(spans: &[Span], name: &str) -> Vec<u64> {
    spans.iter().filter(|s| s.name == name).map(Span::dur).collect()
}

/// Renders spans as tab-separated lines with a header.
pub fn spans_tsv(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 48 + 64);
    out.push_str("index\tname\tstart_ns\tend_ns\tparent\treq\tallocs\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT { -1 } else { i64::from(s.parent) };
        let _ = writeln!(
            out,
            "{i}\t{}\t{}\t{}\t{parent}\t{}\t{}",
            s.name, s.start_ns, s.end_ns, s.req, s.allocs
        );
    }
    out
}

/// Timing decorator around a real backend: every trait call except the
/// trivially cheap `name` and `peek` runs inside a `backend.*` span.
pub struct Traced<B>(pub B);

impl<B: Backend> Backend for Traced<B> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn validate(&self, payload: &Json) -> RotaryResult<SimTime> {
        span("backend.validate", || self.0.validate(payload))
    }

    fn admit(
        &mut self,
        now: SimTime,
        entry: &Pending,
        out: &mut Vec<BackendDone>,
    ) -> RotaryResult<()> {
        span("backend.admit", || self.0.admit(now, entry, out))
    }

    fn peek(&self) -> Option<SimTime> {
        self.0.peek()
    }

    fn step(&mut self, out: &mut Vec<BackendDone>) -> bool {
        span("backend.step", || self.0.step(out))
    }

    fn inflight(&self) -> usize {
        span("backend.inflight", || self.0.inflight())
    }

    fn snapshot(&self) -> RotaryResult<SnapshotRecords> {
        span("backend.snapshot", || self.0.snapshot())
    }

    fn restore(&mut self, records: &SnapshotRecords, admitted: &[Pending]) -> RotaryResult<()> {
        span("backend.restore", || self.0.restore(records, admitted))
    }
}
