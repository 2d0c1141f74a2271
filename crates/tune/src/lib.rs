//! moped-tune: the planner-profile subsystem.
//!
//! The paper's Fig 3 data shows the collision-vs-NN bottleneck flipping
//! with workload, and engine/backend choice is the biggest lever the
//! serving layer can pull per request. This crate owns that choice,
//! made offline by calibration and pinned in a table:
//!
//! * [`PlannerProfile`] — one serializable planner stack (engine,
//!   collision stage, NN backend, SIAS, LCI), defined in `moped-core`
//!   and re-exported here;
//! * [`RequestClass`] — the bucketed robot × environment key profiles
//!   are resolved under;
//! * [`Calibrator`] — short seeded micro-plans scoring candidate
//!   profiles per class (offline/startup path);
//! * [`ProfileTable`] — the class→profile map the service resolves on
//!   admission, with a pinnable wire form.
//!
//! **Determinism contract.** Every decision here is a pure function of
//! (class, probe results). The crate is on the lint
//! `DETERMINISTIC_CRATES` list: no wall clock, no hash-order iteration.
//! Fix the calibration seed and pin the table, and every auto-tuned
//! plan is bit-identical and journal-replayable.
//!
//! # Example
//!
//! ```
//! use moped_core::PlannerParams;
//! use moped_robot::RobotModel;
//! use moped_scenarios::{CorpusEntry, Family};
//! use moped_tune::{CalibrationConfig, Calibrator, RequestClass};
//!
//! let scene = CorpusEntry::new(Family::Shelf, RobotModel::Mobile2d, 1).build();
//! let mut cal = Calibrator::new(CalibrationConfig { probe_samples: 150, ..Default::default() });
//! cal.add_scenario(&scene);
//! let (table, _probes) = cal.calibrate();
//! let res = table.resolve(&RequestClass::of_scenario(&scene).id());
//! let result = res.profile.plan(&scene, &PlannerParams::default());
//! assert!(result.stats.samples > 0);
//! ```

#![deny(missing_docs)]

mod calibrate;
mod class;
mod table;

pub use calibrate::{default_candidates, CalibrationConfig, Calibrator, ProbeOutcome};
pub use class::{DensityBucket, ObstacleBucket, RequestClass};
pub use moped_core::PlannerProfile;
pub use table::{ProfileTable, Resolution};
