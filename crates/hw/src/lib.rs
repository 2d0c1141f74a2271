//! Hardware performance model of the MOPED accelerator.
//!
//! The paper evaluates a synthesized 28nm ASIC (168 16-bit MACs, 198 KB of
//! on-chip SRAM, 0.62 mm², 137.5 mW @ 1 GHz). Synthesis tooling is not
//! available here, so this crate substitutes an **analytical + discrete-
//! event model** fed by the *actual counted work* of the algorithm crates:
//!
//! * [`params`] — documented 28nm energy/area/timing constants (the
//!   swappable knobs; every evaluation number is a ratio between designs
//!   running the same counted workload, so shapes survive knob changes).
//! * [`lfsr`] — the Galois LFSR random samplers the hardware uses.
//! * [`fixed`] — 16-bit fixed-point quantization (the on-chip number
//!   format), with validation helpers.
//! * [`pipeline`] — the speculate-and-repair (S&R) two-unit pipeline
//!   simulator: replays a planner's per-round trace, reports serial vs
//!   speculative latency, FIFO / Missing-Neighbors-Buffer occupancy, and
//!   verifies the §IV-B functional-equivalence claim.
//! * [`design`] — the design-point roll-up (area, power, SRAM budget).
//! * [`perf`] — end-to-end latency/energy reports for MOPED and the three
//!   baselines (CPU, RRT\* ASIC, RRT\* ASIC + CODAcc).
//!
//! # Example
//!
//! ```
//! use moped_hw::design::DesignPoint;
//! let d = DesignPoint::default();
//! assert!((d.area_mm2() - 0.62).abs() < 0.1);
//! ```

#![deny(missing_docs)]

pub mod design;
pub mod fixed;
pub mod lfsr;
pub mod params;
pub mod perf;
pub mod pipeline;
pub mod satq;
