//! In-memory span recording for the traced run, and self-time
//! arithmetic over the recorded span tree.

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval at a layer boundary.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer boundary name, e.g. `collision.motion`.
    pub name: &'static str,
    /// The plan or request this span belongs to.
    pub id: u64,
    /// Start, in ns since the recorder was created.
    pub start: u64,
    /// End, in ns since the recorder was created.
    pub end: u64,
    /// Index of the enclosing span in the same recording, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in ns.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Single-threaded span recorder: spans opened while another is open
/// become its children.
pub struct Recorder {
    base: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    id: Cell<u64>,
}

/// Closes its span when dropped.
pub struct Guard<'a> {
    rec: &'a Recorder,
    idx: usize,
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let end = self.rec.now_ns();
        self.rec.spans.borrow_mut()[self.idx].end = end;
        self.rec.open.borrow_mut().pop();
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            base: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            id: Cell::new(0),
        }
    }
}

impl Recorder {
    /// ns since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// ns offset of `t` from the recorder's base (0 if earlier).
    pub fn ns_of(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.base).as_nanos() as u64
    }

    /// Tags subsequent spans with plan/request `id`.
    pub fn set_id(&self, id: u64) {
        self.id.set(id);
    }

    /// Opens a span under the innermost open one.
    pub fn span(&self, name: &'static str) -> Guard<'_> {
        let parent = self.open.borrow().last().copied();
        let idx = self.record(name, self.now_ns(), 0, parent);
        self.open.borrow_mut().push(idx);
        Guard { rec: self, idx }
    }

    /// Appends a span whose bounds were measured elsewhere (e.g. on
    /// another thread); returns its index for use as a parent.
    pub fn record(&self, name: &'static str, start: u64, end: u64, parent: Option<usize>) -> usize {
        let mut spans = self.spans.borrow_mut();
        spans.push(Span {
            name,
            id: self.id.get(),
            start,
            end,
            parent,
        });
        spans.len() - 1
    }

    /// Removes and returns everything recorded so far.
    pub fn take(&self) -> Vec<Span> {
        debug_assert!(self.open.borrow().is_empty(), "take() with open spans");
        std::mem::take(&mut *self.spans.borrow_mut())
    }

    /// Mean cost in ns of opening and closing one span (the probe cost
    /// that tracing adds per recorded span).
    pub fn probe_cost_ns(&self) -> f64 {
        const N: u32 = 20_000;
        let t = Instant::now();
        for _ in 0..N {
            drop(std::hint::black_box(self.span("probe")));
        }
        let per = t.elapsed().as_nanos() as f64 / f64::from(N);
        self.take();
        per
    }
}

/// Self time of every span: its duration minus the durations of its
/// direct children.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut out: Vec<u64> = spans.iter().map(Span::dur).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] = out[p].saturating_sub(s.dur());
        }
    }
    out
}

/// Appends one recording to `into`, rebasing its parent indices.
pub fn append(into: &mut Vec<Span>, spans: Vec<Span>) {
    let base = into.len();
    into.extend(spans.into_iter().map(|s| Span {
        parent: s.parent.map(|p| p + base),
        ..s
    }));
}

/// Chrome trace-event JSON (`ph: X` complete events, µs timestamps, one
/// lane per plan/request id) for `spans`, with `stamp` as metadata.
pub fn chrome_json(spans: &[Span], stamp: &str) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"span\":{i},\"parent\":{parent}}}}}",
            s.name,
            s.id,
            s.start as f64 / 1e3,
            s.dur() as f64 / 1e3,
        );
    }
    let _ = write!(out, "],\"metadata\":{stamp}}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            id: 0,
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // plan [0,100] ⊃ motion [10,40] ⊃ inner [15,25]; nearest [50,60].
        let spans = [
            span("plan", 0, 100, None),
            span("motion", 10, 40, Some(0)),
            span("inner", 15, 25, Some(1)),
            span("nearest", 50, 60, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![60, 20, 10, 10]);
        // Self times partition the root's wall time.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn recorder_nests_guards() {
        let rec = Recorder::default();
        rec.set_id(7);
        {
            let _plan = rec.span("plan");
            let _motion = rec.span("motion");
        }
        let _sibling = rec.span("nearest");
        drop(_sibling);
        let spans = rec.take();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, None);
        assert!(spans.iter().all(|s| s.id == 7 && s.end >= s.start));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
    }

    #[test]
    fn append_rebases_parents() {
        let mut all = vec![span("request", 0, 10, None), span("admit", 1, 2, Some(0))];
        append(
            &mut all,
            vec![span("plan", 20, 30, None), span("motion", 21, 22, Some(0))],
        );
        let parents: Vec<_> = all.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), None, Some(2)]);
    }
}
