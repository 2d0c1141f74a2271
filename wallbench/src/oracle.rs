//! The output oracle: every returned path re-checked edge by edge with
//! the all-pairs `NaiveChecker`, which shares no code with the R-tree /
//! SoA path the planner used.

use moped_collision::{CollisionChecker, CollisionLedger, NaiveChecker};
use moped_env::Scenario;
use moped_geometry::{Config, InterpolationSteps};
use moped_robot::Robot;

/// The planner's own default resolution (a quarter of the robot's
/// steering step) without the default 64-pose cap, so the planner checks
/// every motion at the resolution the oracle re-checks it at. Capped, a
/// long motion (a goal connection, say) is checked more coarsely and can
/// cross a thin obstacle unseen.
pub fn uncapped_steps(robot: &Robot) -> InterpolationSteps {
    InterpolationSteps {
        max_steps: usize::MAX,
        ..InterpolationSteps::with_resolution((robot.steering_step() / 4.0).max(1e-3))
    }
}

/// Exact path checker for one scenario.
pub struct Oracle {
    checker: NaiveChecker,
    resolution: f64,
}

impl Oracle {
    /// An oracle at the resolution of [`uncapped_steps`].
    pub fn new(s: &Scenario) -> Oracle {
        Oracle {
            checker: NaiveChecker::new(s.obstacles.clone()),
            resolution: uncapped_steps(&s.robot).resolution,
        }
    }

    /// `Ok` when `path` runs from the scenario's start to its goal, its
    /// length is the `cost` the planner reported, and no pose on any
    /// edge collides. Edges are subdivided to the full resolution however
    /// long they are, never capped.
    pub fn check(&self, s: &Scenario, path: &[Config], cost: f64) -> Result<(), String> {
        let (Some(first), Some(last)) = (path.first(), path.last()) else {
            return Err("empty path".into());
        };
        if *first != s.start || *last != s.goal {
            return Err("path does not join start and goal".into());
        }
        let length: f64 = path.windows(2).map(|w| w[0].distance(&w[1])).sum();
        if (length - cost).abs() > 1e-6 * length.max(1.0) {
            return Err(format!("reported cost {cost}, path length {length}"));
        }
        let mut ledger = CollisionLedger::default();
        if !self.checker.config_free(&s.robot, first, &mut ledger) {
            return Err("start pose collides".into());
        }
        for (e, w) in path.windows(2).enumerate() {
            let n = (w[0].distance(&w[1]) / self.resolution).ceil().max(1.0) as usize;
            for i in 1..=n {
                let pose = if i == n {
                    w[1]
                } else {
                    w[0].lerp(&w[1], i as f64 / n as f64)
                };
                if !self.checker.config_free(&s.robot, &pose, &mut ledger) {
                    return Err(format!("edge {e} collides at pose {i}/{n}"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moped_geometry::{Obb, Vec3};

    fn walled() -> Scenario {
        Scenario {
            robot: Robot::drone_3d(),
            obstacles: vec![Obb::axis_aligned(
                Vec3::new(150.0, 150.0, 150.0),
                Vec3::new(5.0, 120.0, 120.0),
            )],
            start: Config::new(&[50.0, 150.0, 150.0, 0.0, 0.0, 0.0]),
            goal: Config::new(&[250.0, 150.0, 150.0, 0.0, 0.0, 0.0]),
            seed: 0,
        }
    }

    #[test]
    fn flags_a_path_through_a_wall() {
        let s = walled();
        let cost = s.start.distance(&s.goal);
        let err = Oracle::new(&s)
            .check(&s, &[s.start, s.goal], cost)
            .unwrap_err();
        assert!(err.starts_with("edge 0 collides"), "{err}");
    }

    #[test]
    fn passes_a_free_path_and_rejects_wrong_endpoints_or_cost() {
        let mut s = walled();
        s.goal = Config::new(&[60.0, 100.0, 150.0, 0.0, 0.0, 0.0]);
        let mid = Config::new(&[60.0, 150.0, 150.0, 0.0, 0.0, 0.0]);
        let oracle = Oracle::new(&s);
        let cost = s.start.distance(&mid) + mid.distance(&s.goal);
        assert_eq!(oracle.check(&s, &[s.start, mid, s.goal], cost), Ok(()));
        assert!(oracle
            .check(&s, &[s.start, mid, s.goal], cost + 1.0)
            .is_err());
        assert!(oracle.check(&s, &[s.start, mid], cost).is_err());
        assert!(oracle.check(&s, &[], 0.0).is_err());
    }
}
