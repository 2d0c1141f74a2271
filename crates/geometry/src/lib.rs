//! Geometric kernels for the MOPED motion-planning engine.
//!
//! This crate implements every low-level geometric primitive the MOPED
//! co-design (HPCA'24) relies on:
//!
//! * [`Vec3`] / [`Mat3`] — 3D workspace linear algebra,
//! * [`Config`] — a flexible-dimension configuration-space point (2–8 DoF),
//! * [`Aabb`] — axis-aligned bounding boxes (the cheap, loose-fitting
//!   representation used by the R-tree first collision stage),
//! * [`Obb`] — oriented bounding boxes (the tight-fitting representation
//!   used by the exact second collision stage),
//! * [`sat`] — Separating-Axis-Theorem intersection tests (OBB–OBB 15-axis
//!   for 3D, 4-axis for 2D; AABB–OBB reduced-cost variants),
//! * [`gjk`] — GJK distance between OBBs (path-clearance metrics),
//! * [`InterpolationSteps`] — the discretization of a straight
//!   configuration-space motion into collision-checked poses,
//! * [`OpCount`] — the operation-count accounting that every computational
//!   cost figure in the paper's evaluation is derived from.
//!
//! # Example
//!
//! ```
//! use moped_geometry::{sat, Obb, OpCount, Vec3};
//!
//! let a = Obb::axis_aligned(Vec3::new(0.0, 0.0, 0.0), Vec3::new(1.0, 1.0, 1.0));
//! let b = Obb::from_euler(Vec3::new(1.5, 0.0, 0.0), Vec3::new(1.0, 1.0, 1.0), 0.4, 0.0, 0.0);
//! let mut ops = OpCount::default();
//! assert!(sat::obb_obb(&a, &b, &mut ops));
//! assert!(ops.mul > 0);
//! ```

#![deny(missing_docs)]

mod aabb;
mod config;
pub mod gjk;
mod mat3;
mod obb;
mod ops;
pub mod sat;
mod segment;
mod vec3;

pub use aabb::Aabb;
pub use config::{Config, MAX_DOF};
pub use mat3::Mat3;
pub use obb::Obb;
pub use ops::OpCount;
pub use segment::{InterpolationSteps, Poses};
pub use vec3::Vec3;
