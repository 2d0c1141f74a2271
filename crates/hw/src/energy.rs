//! Per-phase energy breakdown of a planning run on the MOPED engine.
//!
//! The design-point power figure (§V-B) is an average; architects also
//! want to know *where* the joules go — which is what guided the paper's
//! cache hierarchy (memory traffic) and S&R unit (leakage × latency).
//! This module splits a traced run's energy by pipeline phase and by
//! compute/memory/leakage class.

use moped_core::PlanStats;

use crate::design::DesignPoint;
use crate::params;
use crate::pipeline;

/// Energy attribution for one planning run, in joules.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// Neighbor-search datapath energy.
    pub ns_j: f64,
    /// Extension collision-check datapath energy.
    pub cc_j: f64,
    /// Refinement (parent choice + rewiring) datapath energy.
    pub refine_j: f64,
    /// Tree-insertion datapath energy.
    pub insert_j: f64,
    /// SRAM/cache traffic energy.
    pub memory_j: f64,
    /// Leakage over the run's latency.
    pub leakage_j: f64,
}

impl EnergyBreakdown {
    /// Total energy.
    pub fn total_j(&self) -> f64 {
        self.ns_j + self.cc_j + self.refine_j + self.insert_j + self.memory_j + self.leakage_j
    }

    /// Fraction of the total attributable to the datapath phases
    /// `(ns, cc, refine, insert)`.
    pub fn datapath_shares(&self) -> (f64, f64, f64, f64) {
        let t = self.total_j().max(f64::MIN_POSITIVE);
        (
            self.ns_j / t,
            self.cc_j / t,
            self.refine_j / t,
            self.insert_j / t,
        )
    }
}

/// Computes the breakdown from a traced run.
///
/// Datapath energy is MAC work × per-MAC energy per phase (from the round
/// trace); memory energy prices the ledger's word traffic with the §IV-C
/// cache hierarchy serving `cache_fraction` of it; leakage integrates the
/// S&R-scheduled latency.
///
/// # Panics
///
/// Panics if `stats` has no round trace.
pub fn breakdown(stats: &PlanStats, design: &DesignPoint, cache_fraction: f64) -> EnergyBreakdown {
    assert!(
        !stats.rounds.is_empty(),
        "energy breakdown needs a per-round trace"
    );
    let mut ns = 0u64;
    let mut cc = 0u64;
    let mut refine = 0u64;
    let mut insert = 0u64;
    for r in &stats.rounds {
        ns += r.ns_macs;
        cc += r.cc_macs;
        refine += r.refine_macs;
        insert += r.insert_macs;
    }
    let e = params::MAC_ENERGY_J;
    let words = stats.total_ops().mem_words as f64;
    let memory_j = words * (1.0 - cache_fraction) * params::SRAM_WORD_ENERGY_J
        + words * cache_fraction * params::CACHE_WORD_ENERGY_J;
    let rounds = pipeline::rounds_from_trace(&stats.rounds);
    let latency_s = pipeline::simulate(&rounds).speculative_cycles as f64 / params::CLOCK_HZ;
    let _ = design; // the design point fixes the clock/leakage globals used above
    EnergyBreakdown {
        ns_j: ns as f64 * e,
        cc_j: cc as f64 * e,
        refine_j: refine as f64 * e,
        insert_j: insert as f64 * e,
        memory_j,
        leakage_j: params::LEAKAGE_W * latency_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moped_core::{PlannerParams, Variant};
    use moped_env::{Scenario, ScenarioParams};
    use moped_robot::Robot;

    fn traced(robot: Robot, variant: Variant) -> PlanStats {
        let s = Scenario::generate(robot, &ScenarioParams::with_obstacles(16), 77);
        let p = PlannerParams {
            max_samples: 250,
            seed: 3,
            trace_rounds: true,
            ..PlannerParams::default()
        };
        variant.profile().plan(&s, &p).stats
    }

    #[test]
    fn components_are_positive_and_sum() {
        let stats = traced(Robot::drone_3d(), Variant::V4Lci);
        let b = breakdown(&stats, &DesignPoint::default(), 0.6);
        assert!(b.ns_j > 0.0 && b.cc_j > 0.0 && b.memory_j > 0.0 && b.leakage_j > 0.0);
        let (a, c, d, e) = b.datapath_shares();
        assert!(a + c + d + e < 1.0, "memory+leakage must take some share");
        assert!(b.total_j() > 0.0);
    }

    #[test]
    fn arm_workloads_are_collision_dominated() {
        let stats = traced(Robot::xarm7(), Variant::V0Baseline);
        let b = breakdown(&stats, &DesignPoint::default(), 0.0);
        assert!(
            b.cc_j + b.refine_j > b.ns_j,
            "baseline arm energy should be collision-heavy: {b:?}"
        );
    }

    #[test]
    fn caching_reduces_memory_energy() {
        let stats = traced(Robot::drone_3d(), Variant::V4Lci);
        let uncached = breakdown(&stats, &DesignPoint::default(), 0.0);
        let cached = breakdown(&stats, &DesignPoint::default(), 0.8);
        assert!(cached.memory_j < uncached.memory_j);
        assert_eq!(cached.ns_j, uncached.ns_j, "datapath unaffected by caching");
    }

    #[test]
    #[should_panic(expected = "trace")]
    fn untraced_stats_rejected() {
        let _ = breakdown(&PlanStats::default(), &DesignPoint::default(), 0.5);
    }
}
