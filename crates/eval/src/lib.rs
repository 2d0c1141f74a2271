//! Evaluation harnesses shared by the benches and tests.
//!
//! * [`corpus`] — the regression matrix: every engine column over every
//!   seeded corpus scenario, one cell per (scenario, engine) pair, which
//!   `corpus_bench` serializes into `BENCH_corpus.json`.
//! * [`clearance`] — path-clearance metrics: the minimum obstacle
//!   distance a path keeps over every checked pose.

#![deny(missing_docs)]

pub mod clearance;
pub mod corpus;
