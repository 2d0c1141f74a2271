//! `moped-obs`: the deterministic event journal.
//!
//! A [`Journal`] is a bit-exact record of one planning run: the seed,
//! every drawn sample (with its coordinates), and each accept, reject,
//! rewire, link and goal event. It serializes to a line format with
//! bit-exact `f64` round-tripping, and `moped-core` replays one to
//! reproduce a plan bit-identically.
//!
//! Per-layer wall time is not measured here. The `wallbench` benchmark
//! wraps the collision checker and the neighbor index in timing
//! decorators (`--trace 1`) and reports every per-layer metric from them.
//!
//! See DESIGN.md §9 for the journal format and `examples/observe.rs` for
//! a record → serialize → parse → replay walkthrough.

#![deny(missing_docs)]

pub mod journal;

pub use journal::{Journal, JournalEvent, RejectReason};

/// Always `false`: this crate records no spans.
///
/// The benchmark in `wallbench/` refuses to time while this returns
/// `true`, and its sources are frozen until the next change to the
/// benchmark, which deletes this function together with that check.
pub fn enabled() -> bool {
    false
}
