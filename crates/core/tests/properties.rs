//! Property-based tests for the planner: soundness of the returned path
//! and the exploration tree under arbitrary seeds, budgets, variant and
//! engine choices.

use moped_collision::TwoStageChecker;
use moped_core::{Engine, PlannerParams, RrtStar, SimbrIndex, Variant};
use moped_env::{Scenario, ScenarioParams};
use moped_geometry::InterpolationSteps;
use moped_robot::Robot;
use proptest::prelude::*;
use proptest::TestCaseError;

fn variant_from(idx: u8) -> Variant {
    Variant::ALL[(idx as usize) % Variant::ALL.len()]
}

/// One planner run on a generated 2D scene is sound: exact sample count,
/// endpoints correct, path collision free under the exact oracle, and
/// cost = sum of edge lengths.
fn check_planner_soundness(
    scene_seed: u64,
    plan_seed: u64,
    budget: usize,
    vidx: u8,
) -> Result<(), TestCaseError> {
    let s = Scenario::generate(
        Robot::mobile_2d(),
        &ScenarioParams::with_obstacles(16),
        scene_seed,
    );
    let variant = variant_from(vidx);
    let params = PlannerParams {
        max_samples: budget,
        seed: plan_seed,
        ..PlannerParams::default()
    };
    let r = variant.profile().plan(&s, &params);
    prop_assert_eq!(r.stats.samples, budget);
    if let Some(path) = &r.path {
        prop_assert_eq!(&path[0], &s.start);
        prop_assert_eq!(path.last().unwrap(), &s.goal);
        let summed: f64 = path.windows(2).map(|w| w[0].distance(&w[1])).sum();
        prop_assert!((summed - r.path_cost).abs() < 1e-6);
        // Validate at the planner's own discretization (step/4):
        // collision freedom is only guaranteed at the resolution the
        // planner checked, a deliberate property of sampling-based
        // planning.
        let steps = InterpolationSteps::with_resolution((s.robot.steering_step() / 4.0).max(1e-3));
        for w in path.windows(2) {
            for pose in steps.poses(&w[0], &w[1]) {
                prop_assert!(!s.config_collides(&pose), "{variant}: colliding pose");
            }
        }
    }
    Ok(())
}

/// A case the property's shrinker once reduced a failure to.
#[test]
fn planner_soundness_scene_69() {
    check_planner_soundness(69, 1, 234, 0).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any (seed, budget, variant) triple yields a sound result on a 2D
    /// scene (see [`check_planner_soundness`]).
    #[test]
    fn planner_soundness(
        scene_seed in 0u64..200,
        plan_seed in 0u64..50,
        budget in 100usize..400,
        vidx in 0u8..5,
    ) {
        check_planner_soundness(scene_seed, plan_seed, budget, vidx)?;
    }

    /// Tree invariants hold after any run of any engine (costs
    /// consistent, no cycles, child links intact; RRT-Connect's goal
    /// root at cost zero).
    #[test]
    fn tree_invariants(
        scene_seed in 0u64..100,
        plan_seed in 0u64..30,
        eidx in 0..Engine::all().len(),
    ) {
        let s = Scenario::generate(
            Robot::drone_3d(),
            &ScenarioParams::with_obstacles(16),
            scene_seed,
        );
        let checker = TwoStageChecker::moped(s.obstacles.clone());
        let params = PlannerParams { max_samples: 200, seed: plan_seed, ..PlannerParams::default() };
        let mut planner = RrtStar::new(&s, &checker, SimbrIndex::moped(6), params)
            .with_engine(Engine::all()[eidx]);
        let _ = planner.plan();
        prop_assert!(planner.check_tree_invariants().is_none(),
            "{:?}", planner.check_tree_invariants());
    }

    /// Determinism: identical inputs give bit-identical outputs for every
    /// variant.
    #[test]
    fn determinism(scene_seed in 0u64..50, vidx in 0u8..5) {
        let s = Scenario::generate(
            Robot::mobile_2d(),
            &ScenarioParams::with_obstacles(8),
            scene_seed,
        );
        let variant = variant_from(vidx);
        let params = PlannerParams { max_samples: 150, seed: 9, ..PlannerParams::default() };
        let a = variant.profile().plan(&s, &params);
        let b = variant.profile().plan(&s, &params);
        prop_assert_eq!(a.path_cost.to_bits(), b.path_cost.to_bits());
        prop_assert_eq!(a.stats.total_ops(), b.stats.total_ops());
        prop_assert_eq!(a.stats.nodes, b.stats.nodes);
    }

    /// Round traces account for the run: per-phase MACs sum close to the
    /// aggregate ledgers (within the bookkeeping not attributed to
    /// rounds, e.g. goal-connection checks).
    #[test]
    fn trace_accounts_for_ledgers(scene_seed in 0u64..50) {
        let s = Scenario::generate(
            Robot::mobile_2d(),
            &ScenarioParams::with_obstacles(16),
            scene_seed,
        );
        let params = PlannerParams {
            max_samples: 200,
            seed: 3,
            trace_rounds: true,
            ..PlannerParams::default()
        };
        let r = Variant::V4Lci.profile().plan(&s, &params);
        prop_assert_eq!(r.stats.rounds.len(), r.stats.samples);
        let traced_ns: u64 = r.stats.rounds.iter().map(|t| t.ns_macs).sum();
        let total_ns = r.stats.ns_ops.mac_equiv();
        prop_assert!(traced_ns <= total_ns);
        prop_assert!(traced_ns * 10 >= total_ns * 9, "trace misses >10% of NS work");
    }
}
