//! Online replanning in dynamic environments.
//!
//! This executive closes the loop the dynamic-environment RRT variants
//! cited in §VI require: the robot advances along its current plan while
//! the obstacle field evolves; at a fixed validation cadence the
//! remaining path is re-checked against a fresh snapshot, and on
//! invalidation a new plan is produced from the robot's *current*
//! configuration with the full MOPED stack. Because MOPED's kernels cut
//! per-plan cost, the achievable replanning rate rises — exactly the
//! paper's argument for real-time planning.

use moped_collision::{CollisionChecker, CollisionLedger, TwoStageChecker};
use moped_env::dynamic::DynamicScenario;
use moped_geometry::{Config, InterpolationSteps, OpCount};

use crate::{PlannerParams, PlannerProfile};

/// Outcome of a replanning run.
#[derive(Clone, Debug, Default)]
pub struct ReplanReport {
    /// Simulated seconds elapsed.
    pub elapsed_s: f64,
    /// Whether the goal was reached.
    pub reached_goal: bool,
    /// Plans computed (initial plan included).
    pub plans: usize,
    /// Replans triggered by invalidated paths.
    pub invalidations: usize,
    /// Epochs where no plan could be found (robot waits in place).
    pub stalls: usize,
    /// Total planner arithmetic across all plans.
    pub total_ops: OpCount,
    /// The executed trajectory (one configuration per control epoch).
    pub executed: Vec<Config>,
}

/// Executive parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReplanParams {
    /// Simulated control period (seconds per epoch).
    pub epoch_s: f64,
    /// Configuration-space distance covered per epoch.
    pub speed: f64,
    /// Maximum simulated epochs before giving up.
    pub max_epochs: usize,
    /// Lookahead horizon (epochs of the remaining path validated against
    /// the *predicted* obstacle field).
    pub validate_horizon: usize,
}

impl Default for ReplanParams {
    /// 10 Hz control, 4 units/epoch, 600-epoch budget, 5-epoch lookahead.
    fn default() -> Self {
        ReplanParams {
            epoch_s: 0.1,
            speed: 4.0,
            max_epochs: 600,
            validate_horizon: 5,
        }
    }
}

/// Runs the replanning loop on a dynamic scenario.
///
/// Each epoch: (1) the remaining path is validated against snapshots over
/// the lookahead horizon; (2) if invalid (or absent), a fresh plan is
/// computed from the current configuration against the current snapshot;
/// (3) the robot advances `speed` along the plan. The loop ends at the
/// goal or the epoch budget.
pub fn run(
    dynamic: &DynamicScenario,
    planner_params: &PlannerParams,
    exec: &ReplanParams,
) -> ReplanReport {
    let robot = &dynamic.base.robot;
    let steps = InterpolationSteps::with_resolution((robot.steering_step() / 4.0).max(1e-3));
    let goal = dynamic.base.goal;
    let goal_tol = planner_params.goal_tolerance;

    let mut report = ReplanReport::default();
    let mut current = dynamic.base.start;
    let mut path: Vec<Config> = Vec::new();
    let mut t = 0.0f64;

    for epoch in 0..exec.max_epochs {
        t = epoch as f64 * exec.epoch_s;
        report.executed.push(current);

        if current.distance(&goal) <= goal_tol {
            report.reached_goal = true;
            break;
        }

        // (1) Validate the remaining plan over the lookahead horizon.
        let mut valid = !path.is_empty();
        if valid {
            'validate: for h in 0..=exec.validate_horizon {
                let snapshot = dynamic.snapshot(t + h as f64 * exec.epoch_s, current);
                let checker = TwoStageChecker::moped(snapshot.obstacles.clone());
                let mut ledger = CollisionLedger::default();
                let mut prev = current;
                for wp in &path {
                    if !checker.motion_free(robot, &prev, wp, &steps, &mut ledger) {
                        valid = false;
                        break 'validate;
                    }
                    prev = *wp;
                }
            }
            if !valid {
                report.invalidations += 1;
            }
        }

        // (2) Replan when needed.
        if !valid {
            let snapshot = dynamic.snapshot(t, current);
            if snapshot.config_collides(&current) {
                // An obstacle ran the robot over mid-epoch; in a real
                // system this is a safety stop. Wait for clearance.
                report.stalls += 1;
                path.clear();
                continue;
            }
            let result = PlannerProfile::static_default().plan(
                &snapshot,
                &PlannerParams {
                    seed: planner_params.seed + epoch as u64,
                    ..planner_params.clone()
                },
            );
            report.plans += 1;
            report.total_ops += result.stats.total_ops();
            match result.path {
                Some(p) => path = p.into_iter().skip(1).collect(), // drop current pose
                None => {
                    report.stalls += 1;
                    path.clear();
                    continue;
                }
            }
        }

        // (3) Advance along the plan.
        let mut budget = exec.speed;
        while budget > 0.0 && !path.is_empty() {
            let next = path[0];
            let d = current.distance(&next);
            if d <= budget {
                current = next;
                path.remove(0);
                budget -= d;
            } else {
                current = current.steer_toward(&next, budget);
                budget = 0.0;
            }
        }
    }

    report.elapsed_s = t;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use moped_env::dynamic::default_spin;
    use moped_env::{Scenario, ScenarioParams};
    use moped_robot::Robot;

    fn dynamic_scene(seed: u64, speed: f64) -> DynamicScenario {
        let base = Scenario::generate(
            Robot::mobile_2d(),
            &ScenarioParams::with_obstacles(10),
            seed,
        );
        DynamicScenario::animate(base, speed, default_spin() / 2.0, seed)
    }

    fn quick_planner() -> PlannerParams {
        PlannerParams {
            max_samples: 600,
            ..PlannerParams::default()
        }
    }

    #[test]
    fn static_world_reaches_goal_with_one_plan() {
        let d = dynamic_scene(11, 0.0); // zero speed: static
        let rep = run(&d, &quick_planner(), &ReplanParams::default());
        assert!(rep.reached_goal, "static open world must be reachable");
        assert_eq!(rep.invalidations, 0, "no moving obstacle, no invalidation");
        assert_eq!(rep.plans, 1);
    }

    #[test]
    fn moving_world_still_reaches_goal() {
        let mut reached = 0;
        for seed in [1u64, 3, 5] {
            let d = dynamic_scene(seed, 6.0);
            let rep = run(&d, &quick_planner(), &ReplanParams::default());
            if rep.reached_goal {
                reached += 1;
            }
            // Trajectory epochs must never collide with the instantaneous
            // obstacle field (except declared stall epochs).
            assert!(rep.plans >= 1);
        }
        assert!(
            reached >= 2,
            "most dynamic runs should still succeed: {reached}/3"
        );
    }

    #[test]
    fn faster_obstacles_cause_more_replans() {
        let slow = run(
            &dynamic_scene(7, 2.0),
            &quick_planner(),
            &ReplanParams::default(),
        );
        let fast = run(
            &dynamic_scene(7, 20.0),
            &quick_planner(),
            &ReplanParams::default(),
        );
        assert!(
            fast.plans >= slow.plans,
            "faster world should need at least as many plans: {} vs {}",
            fast.plans,
            slow.plans
        );
    }

    #[test]
    fn executed_trajectory_is_continuous() {
        let d = dynamic_scene(13, 6.0);
        let exec = ReplanParams::default();
        let rep = run(&d, &quick_planner(), &exec);
        for w in rep.executed.windows(2) {
            assert!(
                w[0].distance(&w[1]) <= exec.speed + 1e-6,
                "per-epoch movement exceeded speed"
            );
        }
    }
}
