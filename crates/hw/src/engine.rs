//! One-call hardware evaluation of a planning workload.
//!
//! [`evaluate`] assembles the whole model stack — plan the task with the
//! baseline and full-MOPED variants, replay the MOPED trace through the
//! S&R pipeline, price energy, replay cache behaviour, and compare
//! against all three §V-B baselines — returning a single report a
//! downstream user (or the figures harness) can print.

use moped_core::{PlannerParams, Variant};
use moped_env::Scenario;

use crate::cache::{self, CacheConfig};
use crate::design::DesignPoint;
use crate::energy::{self, EnergyBreakdown};
use crate::perf::{self, Comparison, HwReport};
use crate::pipeline::{self, PipelineReport};

/// Complete hardware evaluation of one planning task.
#[derive(Clone, Debug)]
pub struct EngineReport {
    /// MOPED engine latency/energy/area.
    pub moped: HwReport,
    /// The S&R pipeline replay (serial vs speculative cycles, buffers).
    pub pipeline: PipelineReport,
    /// Per-phase energy attribution.
    pub energy: EnergyBreakdown,
    /// Unit-level cache model outcome.
    pub cache: cache::CacheReport,
    /// Comparison vs the CPU software baseline.
    pub vs_cpu: Comparison,
    /// Comparison vs the RRT\* ASIC baseline.
    pub vs_asic: Comparison,
    /// Comparison vs the RRT\* ASIC + CODAcc baseline.
    pub vs_codacc: Comparison,
    /// Whether both planners solved the task.
    pub solved: bool,
    /// MOPED / baseline algorithmic saving (MAC-equivalent ratio).
    pub algorithmic_saving: f64,
}

/// Runs the full evaluation of `scenario` at the given sampling budget.
///
/// Uses `Variant::V0Baseline` for the CPU/ASIC/CODAcc baselines and
/// `Variant::V4Lci` for the MOPED engine, both traced, on the same seed.
pub fn evaluate(scenario: &Scenario, params: &PlannerParams, design: &DesignPoint) -> EngineReport {
    let traced = PlannerParams {
        trace_rounds: true,
        ..params.clone()
    };
    let base = Variant::V0Baseline.profile().plan(scenario, &traced);
    let moped = Variant::V4Lci.profile().plan(scenario, &traced);

    let m = perf::moped_report(&moped.stats, design);
    let cpu = perf::cpu_report(&base.stats);
    let asic = perf::rrt_asic_report(&base.stats, design);
    let cod = perf::codacc_report(&base.stats, &scenario.robot, design);

    let rounds = pipeline::rounds_from_trace(&moped.stats.rounds);
    let pipe = pipeline::simulate(&rounds);

    // Cache model fed by depth-bucketed visit statistics approximated
    // from the trace volume (unit-level view; the trace-replay simulator
    // in `cachesim` offers the measured alternative).
    let mut stats = moped_simbr::SearchStats::default();
    let height = 4usize;
    let visits = moped.stats.rounds.len() as u64;
    stats.visits_by_depth = (0..height).map(|d| visits >> d).collect();
    stats.nodes_visited = stats.visits_by_depth.iter().sum();
    let cache = cache::apply(&stats, moped.stats.nodes as u64, &CacheConfig::default());

    EngineReport {
        moped: m,
        pipeline: pipe,
        energy: energy::breakdown(&moped.stats, design, 0.65),
        cache,
        vs_cpu: perf::compare(&m, &cpu),
        vs_asic: perf::compare(&m, &asic),
        vs_codacc: perf::compare(&m, &cod),
        solved: base.solved() && moped.solved(),
        algorithmic_saving: base.stats.total_ops().mac_equiv() as f64
            / moped.stats.total_ops().mac_equiv().max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moped_env::ScenarioParams;
    use moped_robot::Robot;

    #[test]
    fn full_evaluation_is_coherent() {
        let s = Scenario::generate(Robot::drone_3d(), &ScenarioParams::with_obstacles(16), 44);
        let params = PlannerParams {
            max_samples: 250,
            seed: 1,
            ..PlannerParams::default()
        };
        let rep = evaluate(&s, &params, &DesignPoint::default());
        assert!(rep.moped.latency_s > 0.0);
        assert!(rep.pipeline.speedup() >= 1.0);
        assert!(rep.energy.total_j() > 0.0);
        assert!(rep.vs_cpu.speedup > rep.vs_asic.speedup);
        assert!(rep.algorithmic_saving > 1.5);
        assert!(rep.pipeline.max_fifo_occupancy <= crate::params::FIFO_DEPTH);
        assert!(rep.pipeline.max_missing_neighbors <= crate::params::MISSING_NEIGHBOR_CAPACITY);
    }

    #[test]
    fn evaluation_is_deterministic() {
        let s = Scenario::generate(Robot::mobile_2d(), &ScenarioParams::with_obstacles(8), 2);
        let params = PlannerParams {
            max_samples: 150,
            seed: 9,
            ..PlannerParams::default()
        };
        let a = evaluate(&s, &params, &DesignPoint::default());
        let b = evaluate(&s, &params, &DesignPoint::default());
        assert_eq!(a.moped.latency_s.to_bits(), b.moped.latency_s.to_bits());
        assert_eq!(a.pipeline, b.pipeline);
    }
}
