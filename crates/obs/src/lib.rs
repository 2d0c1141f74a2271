//! `moped-obs`: the observability subsystem — structured stage spans, a
//! per-stage profiler, a deterministic event journal, and exporters.
//!
//! MOPED's whole pitch is shifting RRT\*'s bottleneck profile (TSPS cuts
//! collision cost, STNS/SIAS cut neighbor-search cost), so "collision or
//! nearest-neighbor?" must be *measurable per workload*, not argued from
//! op counts alone. This crate gives every layer of the stack a shared,
//! low-overhead instrument:
//!
//! * **Spans** ([`span`]) — RAII enter/exit markers around the planner's
//!   inner-loop stages (sample, nearest, steer, broad/narrow-phase
//!   collision, rewire, insert), the hardware pipeline's speculation
//!   commit/repair, and the service layer's admission/queue/attempt/retry.
//!   Recording is per-thread (no locks on the hot path) into fixed-size
//!   stage aggregates plus a bounded ring of raw events.
//! * **Gate** ([`set_enabled`]) — tracing is compiled in but runtime-gated
//!   by a single atomic; the disabled path is one relaxed load and no
//!   heap allocation (asserted by the workspace's overhead tests).
//! * **Ticks** ([`set_tick_source`]) — spans timestamp with an injected
//!   monotonic tick counter. The default [`TickSource::Logical`] is a
//!   global atomic increment, so deterministic crates (see `moped-lint`'s
//!   `wall-clock` rule) never read a wall clock; applications that want
//!   real time opt into [`TickSource::WallClock`] (nanoseconds), which
//!   only this crate — deliberately outside the deterministic set —
//!   touches.
//! * **Profiler** ([`snapshot`] → [`Profile`]) — per-stage count /
//!   self-time / total-time / p50 / p99 tables with exclusive-time
//!   accounting, so nested spans (a SAT check inside a rewire) are never
//!   double-counted and the table sums to the instrumented total.
//! * **Journal** ([`Journal`]) — a deterministic record of every sample
//!   (with its drawn coordinates), accept, reject, rewire, and goal event
//!   plus the seed, serializable to a line format with bit-exact `f64`
//!   round-tripping; `moped-core` can replay one to reproduce a plan
//!   bit-identically.
//! * **Exporters** ([`export`]) — human text table, JSON, and
//!   Chrome-trace/Perfetto JSON (load at `chrome://tracing` or
//!   <https://ui.perfetto.dev>).
//!
//! See DESIGN.md §9 for the ring-buffer design, the tick-counter time
//! source, and the journal format; `examples/observe.rs` for an
//! end-to-end tour.

#![deny(missing_docs)]

pub mod export;
pub mod journal;
pub mod profile;
pub mod recorder;

pub use journal::{Journal, JournalEvent, RejectReason};
pub use profile::{Profile, StageProfile};
pub use recorder::SpanEvent;

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Stages
// ---------------------------------------------------------------------------

/// The named stages of the planning stack, from the service layer down to
/// the SAT kernels. The discriminants index the per-thread aggregate
/// tables, so they must stay dense.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Stage {
    /// One full RRT\* sampling round (envelope of the stages below).
    Round = 0,
    /// Drawing `x_rand` (goal-biased or uniform, or journal replay).
    Sample = 1,
    /// Nearest-neighbor query against the active index backend.
    Nearest = 2,
    /// SI-MBR tree descent inside a nearest query (MINDIST-pruned).
    MbrDescent = 3,
    /// Neighborhood query around `x_new` (exact range or SIAS leaf group).
    Neighborhood = 4,
    /// Steering `x_nearest` toward `x_rand`.
    Steer = 5,
    /// One pose collision query (FK + dispatch envelope).
    Collision = 6,
    /// Broad phase: R-tree AABB filter descent.
    BroadPhase = 7,
    /// Narrow phase: exact OBB–OBB SAT on filter survivors.
    NarrowPhase = 8,
    /// Refinement: parent choice and rewiring (collision checks nest).
    Rewire = 9,
    /// Index insertion of the accepted node (LCI or conventional).
    Insert = 10,
    /// Hardware model: speculative search + repair from the MNB.
    SpecRepair = 11,
    /// Hardware model: round commit (steer, insert, pipeline drain).
    SpecCommit = 12,
    /// Service: admission (validation + bounded-queue send).
    Admission = 13,
    /// Service: time a job sat in the queue before dequeue.
    QueueWait = 14,
    /// Service: one planning attempt under the panic guard.
    Attempt = 15,
    /// Service: retry backoff sleep after a caught panic.
    Retry = 16,
}

impl Stage {
    /// Every stage, in table order.
    pub const ALL: [Stage; 17] = [
        Stage::Round,
        Stage::Sample,
        Stage::Nearest,
        Stage::MbrDescent,
        Stage::Neighborhood,
        Stage::Steer,
        Stage::Collision,
        Stage::BroadPhase,
        Stage::NarrowPhase,
        Stage::Rewire,
        Stage::Insert,
        Stage::SpecRepair,
        Stage::SpecCommit,
        Stage::Admission,
        Stage::QueueWait,
        Stage::Attempt,
        Stage::Retry,
    ];

    /// Dense index into the aggregate tables.
    #[inline]
    pub fn idx(self) -> usize {
        self as usize
    }

    /// Stable kebab-case name used by every exporter.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Round => "round",
            Stage::Sample => "sample",
            Stage::Nearest => "nearest",
            Stage::MbrDescent => "mbr-descent",
            Stage::Neighborhood => "neighborhood",
            Stage::Steer => "steer",
            Stage::Collision => "collision",
            Stage::BroadPhase => "broad-phase",
            Stage::NarrowPhase => "narrow-phase",
            Stage::Rewire => "rewire",
            Stage::Insert => "insert",
            Stage::SpecRepair => "spec-repair",
            Stage::SpecCommit => "spec-commit",
            Stage::Admission => "admission",
            Stage::QueueWait => "queue-wait",
            Stage::Attempt => "attempt",
            Stage::Retry => "retry",
        }
    }
}

// ---------------------------------------------------------------------------
// The gate
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether tracing is currently recording. One relaxed load; this is the
/// *entire* cost a disabled span pays beyond constructing the guard on
/// the stack.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns span recording on or off process-wide. Off by default.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// The tick source
// ---------------------------------------------------------------------------

/// Where span timestamps come from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TickSource {
    /// A global atomic counter incremented on every read: deterministic,
    /// wall-clock-free, and what the deterministic crates implicitly use.
    /// "Time" then means "tick-read order", which is enough for event
    /// ordering and span counting but not for latency attribution.
    Logical,
    /// Nanoseconds since the first read, from a monotonic clock. Only
    /// this crate reads the clock; callers in deterministic crates stay
    /// wall-clock-free at the token level (the `moped-lint` contract).
    WallClock,
}

static TICK_MODE: AtomicU8 = AtomicU8::new(0);
static LOGICAL_TICKS: AtomicU64 = AtomicU64::new(0);
static WALL_BASE: OnceLock<Instant> = OnceLock::new();

/// Selects the tick source. Defaults to [`TickSource::Logical`].
pub fn set_tick_source(source: TickSource) {
    let mode = match source {
        TickSource::Logical => 0,
        TickSource::WallClock => 1,
    };
    TICK_MODE.store(mode, Ordering::Relaxed);
}

/// The currently selected tick source.
pub fn tick_source() -> TickSource {
    match TICK_MODE.load(Ordering::Relaxed) {
        0 => TickSource::Logical,
        _ => TickSource::WallClock,
    }
}

/// Unit label for the current tick source ("ticks" or "ns").
pub fn tick_unit() -> &'static str {
    match tick_source() {
        TickSource::Logical => "ticks",
        TickSource::WallClock => "ns",
    }
}

/// Reads the monotonic tick counter (advances the logical counter when
/// that source is active).
#[inline]
pub fn now_ticks() -> u64 {
    match tick_source() {
        TickSource::Logical => LOGICAL_TICKS.fetch_add(1, Ordering::Relaxed) + 1,
        TickSource::WallClock => {
            let base = *WALL_BASE.get_or_init(Instant::now);
            base.elapsed().as_nanos() as u64
        }
    }
}

/// Converts a wall duration to ticks. Exact under
/// [`TickSource::WallClock`] (nanoseconds); under [`TickSource::Logical`]
/// the nanosecond count is still recorded but shares no unit with the
/// logical counter, so duration-based stages (queue wait) are only
/// meaningful for profiling under the wall-clock source.
pub fn duration_ticks(d: Duration) -> u64 {
    d.as_nanos().min(u64::MAX as u128) as u64
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// RAII span guard: records `stage` from construction to drop. Obtain via
/// [`span`]. An unarmed guard (tracing disabled at construction) does
/// nothing on drop, even if tracing was enabled in between — enter/exit
/// stay paired.
#[must_use = "a span records its stage between construction and drop; binding it to `_` drops it immediately"]
pub struct Span {
    stage: Stage,
    armed: bool,
}

/// Opens a span for `stage` on the current thread. When tracing is
/// disabled this is a single atomic load and a two-byte stack value — no
/// allocation, no thread-local touch, no time read. `span`, `enabled` and
/// the guard's `drop` are `#[inline(always)]`, so an unoptimized build
/// does not pay three calls per disabled span either.
#[inline(always)]
pub fn span(stage: Stage) -> Span {
    let armed = enabled();
    if armed {
        recorder::enter(stage);
    }
    Span { stage, armed }
}

impl Drop for Span {
    #[inline(always)]
    fn drop(&mut self) {
        if self.armed {
            recorder::exit(self.stage);
        }
    }
}

/// Records a completed duration for `stage` without an enclosing span —
/// used where the interval crosses threads (queue wait is measured by
/// the dequeuing worker, not the submitter). No-op while disabled.
#[inline]
pub fn record_duration(stage: Stage, ticks: u64) {
    if enabled() {
        recorder::record_duration(stage, ticks);
    }
}

// ---------------------------------------------------------------------------
// Aggregation entry points (thin wrappers over the recorder/registry)
// ---------------------------------------------------------------------------

/// Merges the calling thread's recorder into the global registry. Workers
/// call this once per job so per-thread state never grows unbounded and
/// the registry converges without hot-path locking.
pub fn flush() {
    recorder::flush();
}

/// Flushes the calling thread, then returns the merged per-stage profile.
pub fn snapshot() -> Profile {
    recorder::flush();
    recorder::snapshot_profile()
}

/// Flushes the calling thread, then drains and returns the merged raw
/// span events (for the Chrome-trace exporter) plus the count of events
/// dropped to the ring/registry bounds.
pub fn take_events() -> (Vec<SpanEvent>, u64) {
    recorder::flush();
    recorder::take_events()
}

/// Clears the global registry and the calling thread's recorder. Other
/// threads' unflushed events survive until their next flush; tests that
/// need a clean slate serialize on one thread.
pub fn reset() {
    recorder::reset();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests in this crate share the process-global recorder; serialize
    /// them and restore defaults.
    fn with_clean_obs(f: impl FnOnce()) {
        use std::sync::Mutex;
        static GUARD: Mutex<()> = Mutex::new(());
        let _g = GUARD.lock().unwrap_or_else(|p| p.into_inner());
        reset();
        set_tick_source(TickSource::Logical);
        set_enabled(true);
        f();
        set_enabled(false);
        reset();
    }

    #[test]
    fn stage_indices_are_dense_and_names_unique() {
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(s.idx(), i);
            assert!(
                Stage::ALL.iter().skip(i + 1).all(|o| o.name() != s.name()),
                "duplicate stage name {}",
                s.name()
            );
        }
    }

    #[test]
    fn disabled_spans_record_nothing() {
        with_clean_obs(|| {
            set_enabled(false);
            for _ in 0..32 {
                let _s = span(Stage::Sample);
            }
            set_enabled(true);
            let p = snapshot();
            assert!(p.stage(Stage::Sample).is_none());
        });
    }

    #[test]
    fn nested_spans_split_self_time() {
        with_clean_obs(|| {
            {
                let _outer = span(Stage::Round);
                let _inner = span(Stage::Sample);
            }
            let p = snapshot();
            let round = p.stage(Stage::Round).expect("round recorded");
            let sample = p.stage(Stage::Sample).expect("sample recorded");
            assert_eq!(round.count, 1);
            assert_eq!(sample.count, 1);
            // Exclusive accounting: the child's total is carved out of the
            // parent's self time, so self ≤ total and the pieces add up.
            assert!(round.self_ticks <= round.total_ticks);
            assert_eq!(round.self_ticks + sample.total_ticks, round.total_ticks);
        });
    }

    #[test]
    fn same_stage_nesting_never_double_counts() {
        with_clean_obs(|| {
            {
                let _outer = span(Stage::Collision);
                let _inner = span(Stage::Collision);
            }
            let p = snapshot();
            let c = p.stage(Stage::Collision).expect("recorded");
            assert_eq!(c.count, 2);
            // Summed *self* time equals the outer span's total (the inner
            // interval is counted once), while summed total double-covers
            // the inner interval — so self stays strictly below total.
            assert!(c.self_ticks < c.total_ticks);
        });
    }

    #[test]
    fn logical_ticks_are_monotonic() {
        set_tick_source(TickSource::Logical);
        let a = now_ticks();
        let b = now_ticks();
        assert!(b > a);
    }

    #[test]
    fn wall_ticks_are_monotonic_nanos() {
        // Direct reads of the wall source, independent of the mode flag.
        let base = *WALL_BASE.get_or_init(Instant::now);
        let a = base.elapsed().as_nanos() as u64;
        let b = base.elapsed().as_nanos() as u64;
        assert!(b >= a);
        assert_eq!(duration_ticks(Duration::from_micros(3)), 3_000);
    }

    #[test]
    fn record_duration_feeds_the_profile() {
        with_clean_obs(|| {
            record_duration(Stage::QueueWait, 1_000);
            record_duration(Stage::QueueWait, 3_000);
            let p = snapshot();
            let qw = p.stage(Stage::QueueWait).expect("recorded");
            assert_eq!(qw.count, 2);
            assert_eq!(qw.total_ticks, 4_000);
            assert_eq!(qw.self_ticks, 4_000);
            assert_eq!(qw.max, 3_000);
        });
    }
}
