//! End-to-end integration tests spanning every crate: full planning runs
//! through the facade API, checked for soundness, determinism, and the
//! paper's headline behaviours.

use moped::collision::{CollisionChecker, CollisionLedger, NaiveChecker, TwoStageChecker};
use moped::core::{PlannerParams, RrtStar, SimbrIndex, Variant};
use moped::env::{Scenario, ScenarioParams};
use moped::geometry::InterpolationSteps;
use moped::hw::design::DesignPoint;
use moped::hw::{perf, pipeline};
use moped::robot::Robot;

fn quick(samples: usize, seed: u64) -> PlannerParams {
    PlannerParams {
        max_samples: samples,
        seed,
        ..PlannerParams::default()
    }
}

/// Every variant, every robot: the planner runs to budget, the returned
/// path (when any) starts at the start, ends at the goal, and every
/// interpolated pose is collision free under the *exact* oracle.
#[test]
fn all_variants_all_robots_produce_sound_paths() {
    for robot in Robot::all_models() {
        let s = Scenario::generate(robot, &ScenarioParams::with_obstacles(8), 99);
        for variant in [Variant::V0Baseline, Variant::V4Lci] {
            let r = variant.profile().plan(&s, &quick(400, 1));
            assert_eq!(r.stats.samples, 400, "{variant} on {}", s.robot.name());
            if let Some(path) = &r.path {
                assert_eq!(path[0], s.start);
                assert_eq!(*path.last().unwrap(), s.goal);
                let steps =
                    InterpolationSteps::with_resolution((s.robot.steering_step() / 4.0).max(1e-3));
                for w in path.windows(2) {
                    for pose in steps.poses(&w[0], &w[1]) {
                        assert!(
                            !s.config_collides(&pose),
                            "{variant} on {}: pose collides",
                            s.robot.name()
                        );
                    }
                }
            }
        }
    }
}

/// The checkers must agree query-for-query when driven by the same
/// planner (the two-stage filter is exact, only cheaper).
#[test]
fn naive_and_two_stage_planners_agree_given_same_seed() {
    let s = Scenario::generate(Robot::drone_3d(), &ScenarioParams::with_obstacles(24), 7);
    let naive = NaiveChecker::new(s.obstacles.clone());
    let two = TwoStageChecker::moped(s.obstacles.clone());
    // Identical index + seed: the planners must walk identical trees.
    let a = RrtStar::new(&s, &naive, SimbrIndex::moped(6), quick(300, 5)).plan();
    let b = RrtStar::new(&s, &two, SimbrIndex::moped(6), quick(300, 5)).plan();
    assert_eq!(a.stats.nodes, b.stats.nodes, "same decisions expected");
    assert_eq!(a.path_cost.to_bits(), b.path_cost.to_bits());
}

/// Headline claim: the full MOPED stack saves a large factor of counted
/// work at paper-like budgets while keeping path cost comparable.
#[test]
fn moped_saves_work_without_hurting_quality() {
    let mut total_base = 0u64;
    let mut total_moped = 0u64;
    let mut cost_base = 0.0;
    let mut cost_moped = 0.0;
    let mut solved = 0;
    for seed in 0..3 {
        let s = Scenario::generate(
            Robot::mobile_2d(),
            &ScenarioParams::with_obstacles(16),
            200 + seed,
        );
        let b = Variant::V0Baseline.profile().plan(&s, &quick(1200, seed));
        let m = Variant::V4Lci.profile().plan(&s, &quick(1200, seed));
        total_base += b.stats.total_ops().mac_equiv();
        total_moped += m.stats.total_ops().mac_equiv();
        if b.solved() && m.solved() {
            cost_base += b.path_cost;
            cost_moped += m.path_cost;
            solved += 1;
        }
    }
    assert!(
        total_moped * 4 < total_base,
        "expected >4x saving at 1200 samples: {total_moped} vs {total_base}"
    );
    assert!(solved >= 2, "both planners should solve open scenes");
    assert!(
        cost_moped <= cost_base * 1.25,
        "path quality must be preserved: {cost_moped} vs {cost_base}"
    );
}

/// The hardware stack composes with the planner: trace → pipeline →
/// reports, with the §IV-B buffer bounds holding on a real workload.
#[test]
fn hardware_model_end_to_end() {
    let s = Scenario::generate(Robot::rozum(), &ScenarioParams::with_obstacles(16), 55);
    let p = PlannerParams {
        max_samples: 500,
        seed: 2,
        trace_rounds: true,
        goal_tolerance: 0.8,
        ..PlannerParams::default()
    };
    let base = Variant::V0Baseline.profile().plan(&s, &p);
    let moped = Variant::V4Lci.profile().plan(&s, &p);

    let design = DesignPoint::default();
    let m = perf::moped_report(&moped.stats, &design);
    let cpu = perf::cpu_report(&base.stats);
    let asic = perf::rrt_asic_report(&base.stats, &design);
    let cod = perf::codacc_report(&base.stats, &s.robot, &design);

    assert!(m.latency_s > 0.0 && m.latency_s < 0.1);
    assert!(perf::compare(&m, &cpu).speedup > 50.0);
    assert!(perf::compare(&m, &asic).speedup > 1.0);
    assert!(perf::compare(&m, &cod).speedup > 0.5);

    let rounds = pipeline::rounds_from_trace(&moped.stats.rounds);
    let rep = pipeline::simulate(&rounds);
    assert!(rep.max_fifo_occupancy <= 20);
    assert!(rep.max_missing_neighbors <= 5);
    assert!(rep.speedup() >= 1.0);
}

/// S&R functional equivalence on every robot model (the §IV-B claim).
#[test]
fn speculation_is_functionally_equivalent_everywhere() {
    for robot in Robot::all_models() {
        let s = Scenario::generate(robot, &ScenarioParams::with_obstacles(16), 13);
        let p = PlannerParams {
            max_samples: 150,
            seed: 4,
            ..PlannerParams::default()
        };
        let rep = pipeline::verify_equivalence(&s, &p, 2);
        assert!(rep.equivalent, "S&R diverged on {}", s.robot.name());
    }
}

/// LFSR-driven sampling composes with the robot models (hardware-faithful
/// sampling front end).
#[test]
fn lfsr_sampler_feeds_collision_pipeline() {
    let s = Scenario::generate(Robot::drone_3d(), &ScenarioParams::with_obstacles(16), 3);
    let two = TwoStageChecker::moped(s.obstacles.clone());
    let mut sampler = moped::hw::lfsr::ConfigSampler::new(6, 0x5A5A);
    let mut ledger = CollisionLedger::default();
    let mut free = 0;
    for _ in 0..200 {
        let q = sampler.sample(&s.robot);
        if two.config_free(&s.robot, &q, &mut ledger) {
            free += 1;
        }
    }
    assert!(
        free > 100,
        "most of a 16-obstacle workspace is free: {free}/200"
    );
    assert!(ledger.first_stage.sat_queries > 0);
}

/// Fixed-point quantization leaves planner decisions intact on a real
/// scenario's start/goal bookkeeping.
#[test]
fn quantized_configs_stay_collision_consistent() {
    use moped::hw::fixed::QFormat;
    let s = Scenario::generate(Robot::mobile_2d(), &ScenarioParams::with_obstacles(16), 21);
    let fmt = QFormat::WORKSPACE;
    let mut agree = 0;
    let mut total = 0;
    let mut rng_state = 99u64;
    for _ in 0..300 {
        rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
        let unit: Vec<f64> = (0..3)
            .map(|i| ((rng_state >> (i * 16)) & 0xFFFF) as f64 / 65535.0)
            .collect();
        let q = s.robot.config_from_unit(&unit);
        let qq = fmt.roundtrip_config(&q);
        total += 1;
        if s.config_collides(&q) == s.config_collides(&qq) {
            agree += 1;
        }
    }
    // Boundary-straddling poses may flip; the overwhelming majority must
    // agree for 16-bit hardware to be viable.
    assert!(agree * 100 >= total * 97, "only {agree}/{total} agreed");
}
