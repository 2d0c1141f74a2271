//! Per-thread span recording and the global merge registry.
//!
//! The hot path — `enter`/`exit` on an enabled span — touches only
//! thread-local state: a span stack for exclusive-time accounting, a
//! fixed table of per-stage aggregates, and a bounded ring of raw events
//! (oldest overwritten, drops counted). Nothing on that path takes a
//! lock or allocates after the thread's first recorded span.
//! [`flush`](crate::flush) folds a thread's state into the mutex-guarded
//! global registry, which is how worker pools converge: once per job,
//! off the hot path.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;

use crate::profile::{Profile, StageProfile};
use crate::{now_ticks, tick_unit, Stage};

/// Stages tracked (dense `Stage::idx()` range).
const STAGES: usize = Stage::ALL.len();

/// Log2 histogram buckets for per-span self time: bucket `b` holds spans
/// whose self ticks `v` satisfy `floor(log2(max(v,1))) == b`. 44 buckets
/// cover ~17.5 trillion ticks (~4.8 hours at nanosecond resolution).
pub(crate) const HIST_BUCKETS: usize = 44;

/// Capacity of each thread's raw-event ring. At 32 bytes per event this
/// is 512 KiB per recording thread — deep enough for several full plans,
/// bounded so a long-running service cannot grow without limit.
pub const RING_CAPACITY: usize = 16_384;

/// Cap on raw events the global registry retains across flushes; beyond
/// it the oldest are dropped (and counted), mirroring the ring contract.
const REGISTRY_EVENT_CAP: usize = 1 << 20;

/// One completed span, as exported to the Chrome-trace writer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    /// The stage recorded.
    pub stage: Stage,
    /// Tick at entry.
    pub start: u64,
    /// Tick at exit (`>= start`).
    pub end: u64,
    /// Recording thread's dense id (assigned at first recorded span).
    pub thread: u32,
}

/// An open span on the thread's stack.
struct Open {
    stage: Stage,
    start: u64,
    /// Total ticks consumed by already-closed direct children; subtracted
    /// at exit so the parent keeps only its exclusive (self) time.
    child_ticks: u64,
}

/// Per-stage running aggregate (self-time based, exact count/min/max/sum
/// plus a log2 histogram for percentile estimation).
#[derive(Clone)]
pub(crate) struct StageAccum {
    pub(crate) count: u64,
    pub(crate) self_ticks: u64,
    pub(crate) total_ticks: u64,
    pub(crate) min_self: u64,
    pub(crate) max_self: u64,
    pub(crate) hist: [u64; HIST_BUCKETS],
}

impl Default for StageAccum {
    fn default() -> Self {
        StageAccum {
            count: 0,
            self_ticks: 0,
            total_ticks: 0,
            min_self: u64::MAX,
            max_self: 0,
            hist: [0; HIST_BUCKETS],
        }
    }
}

impl StageAccum {
    fn record(&mut self, self_ticks: u64, total_ticks: u64) {
        self.count += 1;
        self.self_ticks += self_ticks;
        self.total_ticks += total_ticks;
        self.min_self = self.min_self.min(self_ticks);
        self.max_self = self.max_self.max(self_ticks);
        self.hist[bucket_of(self_ticks)] += 1;
    }

    fn merge(&mut self, other: &StageAccum) {
        if other.count == 0 {
            return;
        }
        self.count += other.count;
        self.self_ticks += other.self_ticks;
        self.total_ticks += other.total_ticks;
        self.min_self = self.min_self.min(other.min_self);
        self.max_self = self.max_self.max(other.max_self);
        for (a, b) in self.hist.iter_mut().zip(other.hist.iter()) {
            *a += b;
        }
    }

    /// Upper-bound estimate of the `q`-quantile of per-span self time:
    /// the upper edge of the first histogram bucket whose cumulative
    /// count reaches `ceil(q * count)`, clamped to the observed max.
    pub(crate) fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (b, c) in self.hist.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(b).min(self.max_self);
            }
        }
        self.max_self
    }
}

/// Histogram bucket for a self-tick value: `floor(log2(max(v, 1)))`.
#[inline]
fn bucket_of(v: u64) -> usize {
    ((63 - v.max(1).leading_zeros()) as usize).min(HIST_BUCKETS - 1)
}

/// Inclusive upper edge of bucket `b` (`2^(b+1) - 1`).
fn bucket_upper(b: usize) -> u64 {
    if b + 1 >= 64 {
        u64::MAX
    } else {
        (1u64 << (b + 1)) - 1
    }
}

/// Everything one thread records between flushes.
struct ThreadRecorder {
    thread: u32,
    stack: Vec<Open>,
    accum: Vec<StageAccum>,
    ring: Vec<SpanEvent>,
    /// Next ring slot to (over)write once the ring is full.
    ring_head: usize,
    dropped: u64,
}

/// Dense thread ids for trace rows (stable across flushes, monotonic
/// across threads in first-span order).
static NEXT_THREAD_ID: AtomicU32 = AtomicU32::new(0);

impl ThreadRecorder {
    fn new() -> Self {
        ThreadRecorder {
            thread: NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed),
            stack: Vec::with_capacity(16),
            accum: vec![StageAccum::default(); STAGES],
            ring: Vec::with_capacity(RING_CAPACITY),
            ring_head: 0,
            dropped: 0,
        }
    }

    fn push_event(&mut self, ev: SpanEvent) {
        if self.ring.len() < RING_CAPACITY {
            self.ring.push(ev);
        } else {
            // Overwrite the oldest slot; the profiler aggregates stay
            // exact, only the raw timeline is bounded.
            self.ring[self.ring_head] = ev;
            self.ring_head = (self.ring_head + 1) % RING_CAPACITY;
            self.dropped += 1;
        }
    }
}

thread_local! {
    static RECORDER: RefCell<Option<ThreadRecorder>> = const { RefCell::new(None) };
}

/// Runs `f` on the thread's recorder, creating it on first use.
fn with_recorder(f: impl FnOnce(&mut ThreadRecorder)) {
    // `try_with` so spans during thread teardown degrade to no-ops
    // instead of panicking in a destructor.
    let _ = RECORDER.try_with(|cell| {
        let mut slot = cell.borrow_mut();
        f(slot.get_or_insert_with(ThreadRecorder::new));
    });
}

/// Opens `stage` on the current thread (called by `span` when enabled).
pub(crate) fn enter(stage: Stage) {
    let start = now_ticks();
    with_recorder(|rec| {
        rec.stack.push(Open {
            stage,
            start,
            child_ticks: 0,
        });
    });
}

/// Closes the innermost open span (called by `Span::drop` when armed).
pub(crate) fn exit(stage: Stage) {
    let end = now_ticks();
    with_recorder(|rec| {
        let Some(open) = rec.stack.pop() else {
            return; // unbalanced exit after a mid-span reset: drop it
        };
        debug_assert_eq!(open.stage, stage, "span enter/exit mismatch");
        let total = end.saturating_sub(open.start);
        let self_ticks = total.saturating_sub(open.child_ticks);
        if let Some(parent) = rec.stack.last_mut() {
            parent.child_ticks += total;
        }
        rec.accum[open.stage.idx()].record(self_ticks, total);
        let thread = rec.thread;
        rec.push_event(SpanEvent {
            stage: open.stage,
            start: open.start,
            end,
            thread,
        });
    });
}

/// Records a completed duration with no enclosing span (cross-thread
/// intervals such as queue wait). Synthesizes a timeline event ending at
/// the current tick.
pub(crate) fn record_duration(stage: Stage, ticks: u64) {
    let end = now_ticks();
    with_recorder(|rec| {
        rec.accum[stage.idx()].record(ticks, ticks);
        let thread = rec.thread;
        rec.push_event(SpanEvent {
            stage,
            start: end.saturating_sub(ticks),
            end,
            thread,
        });
    });
}

// ---------------------------------------------------------------------------
// The global registry
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Registry {
    accum: Vec<StageAccum>,
    events: Vec<SpanEvent>,
    dropped: u64,
}

static REGISTRY: Mutex<Option<Registry>> = Mutex::new(None);

fn with_registry<R>(f: impl FnOnce(&mut Registry) -> R) -> R {
    let mut guard = REGISTRY.lock().unwrap_or_else(|p| p.into_inner());
    let reg = guard.get_or_insert_with(|| Registry {
        accum: vec![StageAccum::default(); STAGES],
        events: Vec::new(),
        dropped: 0,
    });
    f(reg)
}

/// Merges and clears the calling thread's recorder (open spans survive,
/// keeping enter/exit pairing intact across flushes).
pub(crate) fn flush() {
    with_recorder(|rec| {
        // Ring order: oldest first when it has wrapped.
        let mut events: Vec<SpanEvent> = Vec::with_capacity(rec.ring.len());
        if rec.ring.len() == RING_CAPACITY {
            events.extend_from_slice(&rec.ring[rec.ring_head..]);
            events.extend_from_slice(&rec.ring[..rec.ring_head]);
        } else {
            events.extend_from_slice(&rec.ring);
        }
        let dropped = rec.dropped;
        let accum = std::mem::replace(&mut rec.accum, vec![StageAccum::default(); STAGES]);
        rec.ring.clear();
        rec.ring_head = 0;
        rec.dropped = 0;
        with_registry(|reg| {
            for (into, from) in reg.accum.iter_mut().zip(accum.iter()) {
                into.merge(from);
            }
            reg.dropped += dropped;
            let overflow = (reg.events.len() + events.len()).saturating_sub(REGISTRY_EVENT_CAP);
            if overflow > 0 {
                let keep = reg.events.len().saturating_sub(overflow);
                reg.events.drain(..reg.events.len() - keep);
                reg.dropped += overflow as u64;
            }
            reg.events.extend_from_slice(&events);
        });
    });
}

/// Builds the merged per-stage profile from the registry.
pub(crate) fn snapshot_profile() -> Profile {
    with_registry(|reg| {
        let stages = Stage::ALL
            .iter()
            .filter(|s| reg.accum[s.idx()].count > 0)
            .map(|&s| {
                let a = &reg.accum[s.idx()];
                StageProfile {
                    stage: s,
                    count: a.count,
                    self_ticks: a.self_ticks,
                    total_ticks: a.total_ticks,
                    min: if a.count == 0 { 0 } else { a.min_self },
                    max: a.max_self,
                    p50: a.quantile(0.50),
                    p99: a.quantile(0.99),
                }
            })
            .collect();
        Profile {
            stages,
            unit: tick_unit(),
        }
    })
}

/// Drains the registry's raw events; returns `(events, dropped)`.
pub(crate) fn take_events() -> (Vec<SpanEvent>, u64) {
    with_registry(|reg| {
        let dropped = reg.dropped;
        reg.dropped = 0;
        (std::mem::take(&mut reg.events), dropped)
    })
}

/// Clears the registry and the calling thread's recorder (including its
/// open-span stack — callers reset only between, not inside, traced
/// regions).
pub(crate) fn reset() {
    with_recorder(|rec| {
        rec.stack.clear();
        rec.accum = vec![StageAccum::default(); STAGES];
        rec.ring.clear();
        rec.ring_head = 0;
        rec.dropped = 0;
    });
    let mut guard = REGISTRY.lock().unwrap_or_else(|p| p.into_inner());
    *guard = None;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_buckets_cover_the_range() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
        for b in 0..HIST_BUCKETS - 1 {
            assert!(bucket_upper(b) < bucket_upper(b + 1));
        }
    }

    #[test]
    fn quantiles_track_the_histogram() {
        let mut a = StageAccum::default();
        for v in [1u64, 1, 1, 1, 1, 1, 1, 1, 1, 1000] {
            a.record(v, v);
        }
        assert_eq!(a.count, 10);
        // p50 sits in the first bucket; p99 reaches the outlier's bucket
        // but is clamped to the observed max.
        assert!(a.quantile(0.5) <= 1);
        assert_eq!(a.quantile(0.99), 1000);
        assert_eq!(a.quantile(1.0), 1000);
    }

    #[test]
    fn empty_accum_quantile_is_zero() {
        let a = StageAccum::default();
        assert_eq!(a.quantile(0.5), 0);
    }

    #[test]
    fn merge_combines_counts_and_extrema() {
        let mut a = StageAccum::default();
        let mut b = StageAccum::default();
        a.record(5, 10);
        b.record(2, 2);
        b.record(100, 120);
        a.merge(&b);
        assert_eq!(a.count, 3);
        assert_eq!(a.self_ticks, 107);
        assert_eq!(a.total_ticks, 132);
        assert_eq!(a.min_self, 2);
        assert_eq!(a.max_self, 100);
        // Merging an empty accumulator changes nothing.
        let before = (a.count, a.self_ticks, a.min_self);
        a.merge(&StageAccum::default());
        assert_eq!((a.count, a.self_ticks, a.min_self), before);
    }
}
