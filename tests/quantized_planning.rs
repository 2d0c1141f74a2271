//! End-to-end planning on the 16-bit datapath: the full RRT\* loop with
//! all collision decisions made by the integer SAT on quantized operands,
//! compared against double-precision planning on the same tasks. This is
//! the system-level validation that MOPED's 16-bit word size (Fig 11) is
//! sufficient for real planning, not just for isolated kernel queries.

use moped::collision::NaiveChecker;
use moped::core::{PlannerParams, RrtStar, SimbrIndex};
use moped::env::{Scenario, ScenarioParams};
use moped::hw::satq::QuantizedChecker;
use moped::robot::Robot;

fn params(samples: usize, seed: u64) -> PlannerParams {
    PlannerParams {
        max_samples: samples,
        seed,
        ..PlannerParams::default()
    }
}

/// The quantized planner must solve the same open scenes the float
/// planner solves, with comparable path quality.
#[test]
fn quantized_planning_matches_float_planning() {
    let mut both_solved = 0;
    let mut q_cost = 0.0;
    let mut f_cost = 0.0;
    for seed in 0..4u64 {
        let s = Scenario::generate(
            Robot::mobile_2d(),
            &ScenarioParams::with_obstacles(12),
            300 + seed,
        );
        let float_checker = NaiveChecker::new(s.obstacles.clone());
        let quant_checker = QuantizedChecker::new(&s.obstacles);
        let rf = RrtStar::new(&s, &float_checker, SimbrIndex::moped(3), params(900, seed)).plan();
        let rq = RrtStar::new(&s, &quant_checker, SimbrIndex::moped(3), params(900, seed)).plan();
        if rf.solved() && rq.solved() {
            both_solved += 1;
            f_cost += rf.path_cost;
            q_cost += rq.path_cost;
        }
    }
    assert!(
        both_solved >= 3,
        "quantized planner should solve open scenes: {both_solved}/4"
    );
    assert!(
        q_cost < f_cost * 1.2 + 10.0,
        "16-bit path quality must stay close: {q_cost:.1} vs {f_cost:.1}"
    );
}

/// Paths produced under quantized collision checking must be collision
/// free under the *exact* float oracle — the conservative bias of the
/// integer kernel (ULP slack on the radius side) must protect the robot.
#[test]
fn quantized_paths_are_actually_safe() {
    for seed in [11u64, 13] {
        let s = Scenario::generate(Robot::drone_3d(), &ScenarioParams::with_obstacles(16), seed);
        let quant_checker = QuantizedChecker::new(&s.obstacles);
        let mut planner = RrtStar::new(&s, &quant_checker, SimbrIndex::moped(6), params(700, seed));
        let r = planner.plan();
        if let Some(path) = &r.path {
            let steps = moped::geometry::InterpolationSteps::with_resolution(
                (s.robot.steering_step() / 4.0).max(1e-3),
            );
            let mut grazing = 0usize;
            let mut total = 0usize;
            for w in path.windows(2) {
                for pose in steps.poses(&w[0], &w[1]) {
                    total += 1;
                    if s.config_collides(&pose) {
                        grazing += 1;
                    }
                }
            }
            // Quantization can admit poses an exact checker rejects only
            // within a half-ULP shell; any real violation rate means the
            // conservative bias is broken.
            assert!(
                grazing * 100 <= total,
                "{grazing}/{total} poses violate the exact oracle (seed {seed})"
            );
        }
    }
}

/// The checker's name and obstacle encoding are exposed for reports.
#[test]
fn quantized_checker_metadata() {
    let s = Scenario::generate(Robot::mobile_2d(), &ScenarioParams::with_obstacles(8), 1);
    let c = QuantizedChecker::new(&s.obstacles);
    assert_eq!(c.obstacles().len(), 8);
    assert_eq!(
        moped::collision::CollisionChecker::name(&c),
        "quantized-16bit"
    );
}
