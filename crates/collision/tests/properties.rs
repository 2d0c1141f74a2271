//! Property-based tests for the collision pipelines: the two-stage
//! checker must agree with the naive exact checker on every query, and
//! the AABB-only mode must be conservative.

use moped_collision::{
    CollisionChecker, CollisionLedger, NaiveAabbChecker, NaiveChecker, SecondStage, TwoStageChecker,
};
use moped_geometry::{Config, InterpolationSteps};
use moped_robot::Robot;
use proptest::prelude::*;

/// A deterministic obstacle field from a seed (proptest drives the seed,
/// scenario generation supplies realistic geometry).
fn scene(seed: u64, count: usize) -> moped_env::Scenario {
    moped_env::Scenario::generate(
        Robot::drone_3d(),
        &moped_env::ScenarioParams::with_obstacles(count),
        seed,
    )
}

fn unit_config(robot: &Robot, unit: &[f64]) -> Config {
    robot.config_from_unit(unit)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Exactness: two-stage (OBB second stage) equals the naive checker
    /// on arbitrary configurations.
    #[test]
    fn two_stage_matches_naive(
        seed in 0u64..500,
        unit in prop::collection::vec(0.0..1.0f64, 6),
    ) {
        let s = scene(seed, 24);
        let naive = NaiveChecker::new(s.obstacles.clone());
        let two = TwoStageChecker::moped(s.obstacles.clone());
        let q = unit_config(&s.robot, &unit);
        let mut l1 = CollisionLedger::default();
        let mut l2 = CollisionLedger::default();
        prop_assert_eq!(
            naive.config_free(&s.robot, &q, &mut l1),
            two.config_free(&s.robot, &q, &mut l2)
        );
    }

    /// Conservativeness: whenever an AABB-based checker says free, the
    /// exact checker must also say free (never the other way).
    #[test]
    fn aabb_checkers_are_conservative(
        seed in 0u64..500,
        unit in prop::collection::vec(0.0..1.0f64, 6),
    ) {
        let s = scene(seed, 24);
        let exact = NaiveChecker::new(s.obstacles.clone());
        let loose_naive = NaiveAabbChecker::new(s.obstacles.clone());
        let loose_two = TwoStageChecker::new(s.obstacles.clone(), SecondStage::AabbOnly);
        let q = unit_config(&s.robot, &unit);
        let mut l = CollisionLedger::default();
        if loose_naive.config_free(&s.robot, &q, &mut l) {
            prop_assert!(exact.config_free(&s.robot, &q, &mut l));
        }
        if loose_two.config_free(&s.robot, &q, &mut l) {
            prop_assert!(exact.config_free(&s.robot, &q, &mut l));
        }
    }

    /// The two AABB-based checkers (naive scan and R-tree filtered) make
    /// identical decisions — the hierarchy changes cost, not semantics.
    #[test]
    fn aabb_hierarchy_preserves_semantics(
        seed in 0u64..500,
        unit in prop::collection::vec(0.0..1.0f64, 6),
    ) {
        let s = scene(seed, 32);
        let a = NaiveAabbChecker::new(s.obstacles.clone());
        let b = TwoStageChecker::new(s.obstacles.clone(), SecondStage::AabbOnly);
        let q = unit_config(&s.robot, &unit);
        let mut l = CollisionLedger::default();
        prop_assert_eq!(
            a.config_free(&s.robot, &q, &mut l),
            b.config_free(&s.robot, &q, &mut l)
        );
    }

    /// Motion queries agree between checkers for arbitrary short motions.
    #[test]
    fn motion_queries_agree(
        seed in 0u64..200,
        unit_a in prop::collection::vec(0.0..1.0f64, 6),
        delta in prop::collection::vec(-0.05..0.05f64, 6),
    ) {
        let s = scene(seed, 16);
        let naive = NaiveChecker::new(s.obstacles.clone());
        let two = TwoStageChecker::moped(s.obstacles.clone());
        let from = unit_config(&s.robot, &unit_a);
        let unit_b: Vec<f64> =
            unit_a.iter().zip(&delta).map(|(a, d)| (a + d).clamp(0.0, 1.0)).collect();
        let to = unit_config(&s.robot, &unit_b);
        let steps = InterpolationSteps::default();
        let mut l1 = CollisionLedger::default();
        let mut l2 = CollisionLedger::default();
        prop_assert_eq!(
            naive.motion_free(&s.robot, &from, &to, &steps, &mut l1),
            two.motion_free(&s.robot, &from, &to, &steps, &mut l2)
        );
        prop_assert_eq!(l1.pose_queries >= 1, true);
    }
}
