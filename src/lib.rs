//! # MOPED — Efficient Motion Planning Engine with Flexible Dimension Support
//!
//! A full reproduction of the HPCA'24 MOPED algorithm/hardware co-design:
//! an RRT\* motion-planning engine accelerated by a two-stage collision
//! scheme, the SI-MBR-Tree neighbor index with steering-informed
//! approximated search and O(1) insertion, and a speculate-and-repair
//! pipeline model.
//!
//! This facade crate re-exports the public API of every subsystem:
//!
//! * [`geometry`] — OBB/AABB geometry, SAT kernels, MINDIST, op counting
//! * [`robot`] — the five evaluation robot models (3–7 DoF)
//! * [`mod@env`] — scenario generation (random fields, narrow passages)
//! * [`scenarios`] — the seeded procedural scenario corpus (narrow
//!   passages, mazes, clutter, shelf rooms, moving-obstacle epochs)
//! * [`rtree`] — the static STR-bulk-loaded obstacle R-tree
//! * [`simbr`] — the SI-MBR-Tree
//! * [`kdtree`] — the KD-tree neighbor-search baseline
//! * [`octree`] — the octree occupancy baseline (§VI comparison)
//! * [`eval`] — corpus regression matrix and path-clearance metrics
//! * [`collision`] — naive and two-stage motion collision checkers
//! * [`core`] — the RRT\* planner, the `PlannerProfile` stack value, and
//!   the V0–V4 variant ladder as profile presets
//! * [`hw`] — the 28nm hardware performance model and baselines
//! * [`service`] — the concurrent batch planning engine (worker pool,
//!   bounded admission queue, deadlines, cancellation, metrics)
//! * [`obs`] — the deterministic event journal (record, serialize,
//!   replay a plan bit-identically)
//!
//! # Quickstart
//!
//! ```
//! use moped::core::{PlannerParams, Variant};
//! use moped::env::{Scenario, ScenarioParams};
//! use moped::robot::Robot;
//!
//! let scenario = Scenario::generate(
//!     Robot::mobile_2d(),
//!     &ScenarioParams::with_obstacles(8),
//!     42,
//! );
//! let params = PlannerParams { max_samples: 500, ..PlannerParams::default() };
//! let result = Variant::V4Lci.profile().plan(&scenario, &params);
//! println!("solved: {}, cost: {:.1}", result.solved(), result.path_cost);
//! ```

#![deny(missing_docs)]

pub use moped_collision as collision;
pub use moped_core as core;
pub use moped_env as env;
pub use moped_eval as eval;
pub use moped_geometry as geometry;
pub use moped_hw as hw;
pub use moped_kdtree as kdtree;
pub use moped_obs as obs;
pub use moped_octree as octree;
pub use moped_robot as robot;
pub use moped_rtree as rtree;
pub use moped_scenarios as scenarios;
pub use moped_service as service;
pub use moped_simbr as simbr;
pub use moped_tune as tune;
