//! Property-based tests for the collision pipelines: the two-stage
//! checker must agree with the naive exact checker on every query, and
//! the AABB-only mode must be conservative.

use moped_collision::{
    CollisionChecker, CollisionLedger, NaiveAabbChecker, NaiveChecker, SecondStage, TwoStageChecker,
};
use std::sync::atomic::{AtomicU64, Ordering};

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
}

/// Motions the two-stage checker settled with one swept R-tree pass, that
/// a drone or mobile robot checked pose by pose, and that an arm checked.
static RESOLVED: AtomicU64 = AtomicU64::new(0);
static RIGID_FALLBACK: AtomicU64 = AtomicU64::new(0);
static ARM: AtomicU64 = AtomicU64::new(0);

/// The per-pose reference: every pose of the motion through
/// `config_free`, counted, stopping at the first colliding one.
fn per_pose_reference(
    checker: &TwoStageChecker,
    robot: &Robot,
    from: &Config,
    to: &Config,
    steps: &InterpolationSteps,
    ledger: &mut CollisionLedger,
) -> bool {
    ledger.motion_queries += 1;
    for pose in steps.poses(from, to) {
        ledger.pose_queries += 1;
        if !checker.config_free(robot, &pose, ledger) {
            return false;
        }
    }
    true
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// Steering-step motions of the drone, the xarm7 and the mobile
    /// robot: the two-stage `motion_free` gives the naive checker's
    /// verdict and charges exactly the per-pose reference's ledger,
    /// whether the swept pass settled the motion or every pose was
    /// checked. Run by `motion_queries_agree`, which also requires both
    /// branches to have run.
    fn motion_ledgers_match_per_pose(
        (robot, seed) in (0usize..3, 0u64..200),
        unit_a in prop::collection::vec(0.0..1.0f64, 7),
        unit_b in prop::collection::vec(0.0..1.0f64, 7),
        resolution in 0.5..3.0f64,
    ) {
        let robot = [Robot::drone_3d(), Robot::xarm7(), Robot::mobile_2d()][robot].clone();
        let dof = robot.dof();
        let s = moped_env::Scenario::generate(
            robot,
            &moped_env::ScenarioParams::with_obstacles(16),
            seed,
        );
        let naive = NaiveChecker::new(s.obstacles.clone());
        let two = TwoStageChecker::moped(s.obstacles.clone());
        let from = unit_config(&s.robot, &unit_a[..dof]);
        let target = unit_config(&s.robot, &unit_b[..dof]);
        let to = from.steer_toward(&target, s.robot.steering_step());
        let steps = InterpolationSteps::with_resolution(resolution);
        let mut live = CollisionLedger::default();
        let mut reference = CollisionLedger::default();
        let mut l = CollisionLedger::default();
        let free = two.motion_free(&s.robot, &from, &to, &steps, &mut live);
        prop_assert_eq!(
            free,
            per_pose_reference(&two, &s.robot, &from, &to, &steps, &mut reference)
        );
        prop_assert_eq!(free, naive.motion_free(&s.robot, &from, &to, &steps, &mut l));
        prop_assert_eq!(live, reference);

        let counter = if two.swept_pass(&s.robot, &from, &to).is_some() {
            &RESOLVED
        } else if s.robot.center_hull(&from, &to).is_some() {
            &RIGID_FALLBACK
        } else {
            &ARM
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

#[test]
fn motion_queries_agree() {
    motion_ledgers_match_per_pose();
    for (what, counter) in [
        ("resolved by the swept pass", &RESOLVED),
        ("checked pose by pose (drone or mobile)", &RIGID_FALLBACK),
        ("checked pose by pose (arm)", &ARM),
    ] {
        assert!(counter.load(Ordering::Relaxed) > 0, "no motion {what}");
    }
}
