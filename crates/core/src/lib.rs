//! The MOPED planning engine: RRT\* with the paper's co-designed kernels.
//!
//! This crate is the primary contribution of the reproduction: an RRT\*
//! planner (Karaman & Frazzoli 2011) that is generic over
//!
//! * a **neighbor index** ([`NeighborIndex`]): linear scan (baseline),
//!   KD-tree (Fig 19 baseline), or the SI-MBR-Tree with optional
//!   steering-informed approximated search and O(1) insertion, and
//! * a **collision checker** (`moped_collision::CollisionChecker`): naive
//!   all-pairs OBB–OBB or the two-stage R-tree scheme.
//!
//! A [`PlannerProfile`] names one complete stack — engine, collision
//! stage, NN backend, SIAS and LCI — and [`PlannerProfile::planner`] is
//! the one place a stack is assembled. The two engines ([`Engine`])
//! run the same round steps — sample draw, extend, attach — and differ
//! only in how their trees grow.
//! The [`Variant`] ladder names the paper's ablation rungs (Fig 16) as
//! profile presets: V0 baseline → V1 two-stage collision (TSPS) → V2
//! SI-MBR neighbor search (STNS) → V3 approximated search (SIAS) → V4
//! low-cost insertion (LCI) = full MOPED.
//!
//! Every phase of every sampling round is charged to separate ledgers and
//! optionally traced per round, which is what the hardware model replays
//! through its speculate-and-repair pipeline.
//!
//! # Example
//!
//! ```
//! use moped_core::{PlannerParams, Variant};
//! use moped_env::{Scenario, ScenarioParams};
//! use moped_robot::Robot;
//!
//! let scenario = Scenario::generate(Robot::mobile_2d(), &ScenarioParams::with_obstacles(8), 1);
//! let params = PlannerParams { max_samples: 300, ..PlannerParams::default() };
//! let result = Variant::V4Lci.profile().plan(&scenario, &params);
//! assert!(result.stats.samples <= 300);
//! ```

#![deny(missing_docs)]

mod connect;
mod index;
mod planner;
mod profile;
pub mod smooth;
mod variant;

pub use index::{
    AnyIndex, KdIndex, LinearIndex, NeighborIndex, NnBackend, SimbrIndex, SIMBR_NODE_CAPACITY,
};
pub use planner::{Engine, PlanResult, PlanStats, PlannerParams, RoundTrace, RrtStar};
pub use profile::{CollisionStage, PlannerProfile};
pub use variant::Variant;
