//! Dynamic environments: obstacles in motion.
//!
//! The paper positions MOPED's kernels as directly applicable to the
//! dynamic-environment RRT variants it cites (Adiyatov & Varol 2017,
//! Bruce & Veloso 2002, Ferguson et al. 2006). This module supplies the
//! substrate those variants need: an obstacle field whose boxes translate
//! and spin over time, with deterministic evolution so replanning
//! experiments are reproducible.

use moped_geometry::{Mat3, Obb, Vec3};
use moped_robot::WORKSPACE_EXTENT;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::Scenario;

/// A rigid obstacle with a constant linear velocity and spin rate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MovingObstacle {
    /// Shape and pose at `t = 0`.
    pub initial: Obb,
    /// Workspace velocity (units per second).
    pub velocity: Vec3,
    /// Yaw spin rate (radians per second).
    pub spin: f64,
}

impl MovingObstacle {
    /// Pose at time `t`: the center translates with reflection off the
    /// workspace walls (so the scene stays busy indefinitely) and the box
    /// spins about Z.
    pub fn at(&self, t: f64) -> Obb {
        let c0 = self.initial.center();
        let reflect = |x0: f64, v: f64| -> f64 {
            if v == 0.0 {
                return x0.clamp(0.0, WORKSPACE_EXTENT);
            }
            // Triangle-wave reflection within [0, extent].
            let period = 2.0 * WORKSPACE_EXTENT;
            let raw = (x0 + v * t).rem_euclid(period);
            if raw <= WORKSPACE_EXTENT {
                raw
            } else {
                period - raw
            }
        };
        let center = Vec3::new(
            reflect(c0.x, self.velocity.x),
            reflect(c0.y, self.velocity.y),
            reflect(c0.z, self.velocity.z),
        );
        let rot = Mat3::rotation_z(self.spin * t) * self.initial.rotation();
        let moved = self.initial.at_center(center).with_rotation(rot);
        if self.initial.is_planar() {
            // Preserve planar encoding for 2D workloads.
            Obb::planar(
                Vec3::new(center.x, center.y, 0.0),
                self.initial.half_extents().x,
                self.initial.half_extents().y,
                heading_of(&rot),
            )
        } else {
            moved
        }
    }
}

fn heading_of(rot: &Mat3) -> f64 {
    rot.m[1][0].atan2(rot.m[0][0])
}

/// A scenario whose obstacle field evolves over time.
#[derive(Clone, Debug)]
pub struct DynamicScenario {
    /// The static template (robot, start, goal, initial obstacles).
    pub base: Scenario,
    /// The moving obstacles (same order as `base.obstacles`).
    pub movers: Vec<MovingObstacle>,
}

impl DynamicScenario {
    /// Animates an existing scenario: every obstacle receives a random
    /// velocity up to `max_speed` and spin up to `max_spin`, seeded
    /// deterministically.
    pub fn animate(base: Scenario, max_speed: f64, max_spin: f64, seed: u64) -> DynamicScenario {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD15A);
        let planar = base.robot.workspace_is_2d();
        let movers = base
            .obstacles
            .iter()
            .map(|o| MovingObstacle {
                initial: *o,
                velocity: Vec3::new(
                    rng.gen_range(-max_speed..=max_speed),
                    rng.gen_range(-max_speed..=max_speed),
                    if planar {
                        0.0
                    } else {
                        rng.gen_range(-max_speed..=max_speed)
                    },
                ),
                spin: rng.gen_range(-max_spin..=max_spin),
            })
            .collect();
        DynamicScenario { base, movers }
    }

    /// The obstacle field at time `t`.
    pub fn obstacles_at(&self, t: f64) -> Vec<Obb> {
        self.movers.iter().map(|m| m.at(t)).collect()
    }

    /// A static snapshot scenario frozen at time `t` (start is replaced
    /// by `from`, e.g. the robot's current configuration mid-execution).
    pub fn snapshot(&self, t: f64, from: moped_geometry::Config) -> Scenario {
        Scenario {
            robot: self.base.robot.clone(),
            obstacles: self.obstacles_at(t),
            start: from,
            goal: self.base.goal,
            seed: self.base.seed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScenarioParams;
    use moped_robot::Robot;
    use std::f64::consts::PI;

    fn dynamic_scene(seed: u64) -> DynamicScenario {
        let base = Scenario::generate(Robot::drone_3d(), &ScenarioParams::with_obstacles(12), seed);
        DynamicScenario::animate(base, 10.0, PI / 2.0, seed)
    }

    #[test]
    fn time_zero_matches_base() {
        let d = dynamic_scene(3);
        let snap = d.obstacles_at(0.0);
        for (a, b) in snap.iter().zip(&d.base.obstacles) {
            assert!((a.center() - b.center()).norm() < 1e-9);
        }
    }

    #[test]
    fn obstacles_actually_move() {
        let d = dynamic_scene(4);
        let t0 = d.obstacles_at(0.0);
        let t5 = d.obstacles_at(5.0);
        let moved = t0
            .iter()
            .zip(&t5)
            .filter(|(a, b)| (a.center() - b.center()).norm() > 1.0)
            .count();
        assert!(
            moved > t0.len() / 2,
            "most obstacles should have moved: {moved}"
        );
    }

    #[test]
    fn reflection_keeps_centers_in_workspace() {
        let d = dynamic_scene(5);
        for t in [0.0, 7.3, 31.4, 120.0, 999.9] {
            for o in d.obstacles_at(t) {
                let c = o.center();
                assert!((0.0..=WORKSPACE_EXTENT).contains(&c.x), "t={t}, c={c:?}");
                assert!((0.0..=WORKSPACE_EXTENT).contains(&c.y));
                assert!((0.0..=WORKSPACE_EXTENT).contains(&c.z));
            }
        }
    }

    #[test]
    fn evolution_is_deterministic() {
        let a = dynamic_scene(9).obstacles_at(12.5);
        let b = dynamic_scene(9).obstacles_at(12.5);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.center(), y.center());
        }
    }

    #[test]
    fn planar_scene_stays_planar() {
        let base = Scenario::generate(Robot::mobile_2d(), &ScenarioParams::with_obstacles(8), 2);
        let d = DynamicScenario::animate(base, 8.0, PI / 2.0, 2);
        for o in d.obstacles_at(17.2) {
            assert!(o.is_planar());
            assert_eq!(o.center().z, 0.0);
        }
    }

    #[test]
    fn snapshot_replaces_start() {
        let d = dynamic_scene(6);
        let from = d.base.goal;
        let snap = d.snapshot(3.0, from);
        assert_eq!(snap.start, from);
        assert_eq!(snap.goal, d.base.goal);
        assert_eq!(snap.obstacles.len(), d.base.obstacles.len());
    }

    #[test]
    fn spin_rotates_boxes() {
        let base = Scenario::generate(Robot::drone_3d(), &ScenarioParams::with_obstacles(4), 7);
        let mut d = DynamicScenario::animate(base, 0.0, 0.0, 7);
        d.movers[0].spin = 1.0;
        let r0 = d.movers[0].at(0.0).rotation();
        let r1 = d.movers[0].at(1.0).rotation();
        assert!(r0 != r1, "spinning obstacle must change orientation");
    }
}
