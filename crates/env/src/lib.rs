//! Planning-scenario generation for the MOPED evaluation.
//!
//! §V of the paper evaluates in a simulated 300×300×300 workspace
//! (300×300 for the planar robot) with 8/16/32/48 randomly placed OBB
//! obstacles (3D sizes up to 30×30×50, 2D up to 30×30, random positions
//! and orientations), and 50 random planning tasks per environment
//! configuration with random collision-free start and goal configurations.
//! This crate generates those workloads deterministically from a seed, plus
//! the narrow-passage stress scene used to demonstrate the OBB-vs-AABB
//! path-quality gap (Fig 5).
//!
//! # Example
//!
//! ```
//! use moped_env::{Scenario, ScenarioParams};
//! use moped_robot::Robot;
//!
//! let scenario = Scenario::generate(Robot::drone_3d(), &ScenarioParams::with_obstacles(16), 7);
//! assert_eq!(scenario.obstacles.len(), 16);
//! assert!(!scenario.config_collides(&scenario.start));
//! assert!(!scenario.config_collides(&scenario.goal));
//! ```

#![deny(missing_docs)]

pub mod dynamic;

use std::f64::consts::PI;

use moped_geometry::{sat, Config, Obb, OpCount, Vec3, MAX_DOF};
use moped_robot::{Robot, WORKSPACE_EXTENT};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The obstacle counts swept by the paper's evaluation.
pub const OBSTACLE_COUNTS: [usize; 4] = [8, 16, 32, 48];

/// Tunable generation parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScenarioParams {
    /// Number of random obstacles.
    pub obstacle_count: usize,
    /// Maximum obstacle half extents in X and Y (paper: 30/2 = 15).
    pub max_half_xy: f64,
    /// Maximum obstacle half extent in Z (paper: 50/2 = 25; ignored for
    /// planar scenes).
    pub max_half_z: f64,
    /// Minimum obstacle half extent on every axis.
    pub min_half: f64,
    /// Keep-out margin around start/goal poses when validating them.
    pub clearance: f64,
}

impl ScenarioParams {
    /// Paper-default parameters with the given obstacle count.
    pub fn with_obstacles(obstacle_count: usize) -> Self {
        ScenarioParams {
            obstacle_count,
            ..ScenarioParams::default()
        }
    }
}

impl Default for ScenarioParams {
    /// 16 obstacles with the §V size limits.
    fn default() -> Self {
        ScenarioParams {
            obstacle_count: 16,
            max_half_xy: 15.0,
            max_half_z: 25.0,
            min_half: 3.0,
            clearance: 1.0,
        }
    }
}

/// A complete planning task: a robot, an obstacle field, and validated
/// start/goal configurations.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// The robot being planned for.
    pub robot: Robot,
    /// OBB obstacles (the format a perception front-end would deliver).
    pub obstacles: Vec<Obb>,
    /// Collision-free start configuration.
    pub start: Config,
    /// Collision-free goal configuration.
    pub goal: Config,
    /// The seed this task was generated from (reproducibility handle).
    pub seed: u64,
}

impl Scenario {
    /// Checks that every obstacle field — center, half extents and
    /// rotation — is finite. The R-tree bulk load orders obstacles by
    /// center and bounds them by their boxes, so a NaN or infinite field
    /// cannot be indexed. Endpoints are not checked yet.
    pub fn validate(&self) -> Result<(), String> {
        for (i, obb) in self.obstacles.iter().enumerate() {
            let rot = obb.rotation();
            let finite = obb.center().is_finite()
                && obb.half_extents().is_finite()
                && (0..3).all(|c| rot.col(c).is_finite());
            if !finite {
                return Err(format!("obstacle {i} has a non-finite field: {obb:?}"));
            }
        }
        Ok(())
    }

    /// Generates a random task: obstacles first, then rejection-sampled
    /// collision-free start and goal configurations. Deterministic in
    /// `(robot model, params, seed)`.
    ///
    /// # Panics
    ///
    /// Panics if a collision-free start/goal cannot be found within a
    /// generous rejection budget (pathologically dense scenes).
    pub fn generate(robot: Robot, params: &ScenarioParams, seed: u64) -> Scenario {
        let mut rng = StdRng::seed_from_u64(seed);
        let planar = robot.workspace_is_2d();
        let obstacles: Vec<Obb> = (0..params.obstacle_count)
            .map(|_| random_obstacle(&mut rng, params, planar, &robot))
            .collect();
        let mut scenario = Scenario {
            robot,
            obstacles,
            start: Config::zeros(1),
            goal: Config::zeros(1),
            seed,
        };
        scenario.start = scenario.sample_free(&mut rng);
        scenario.goal = scenario.sample_free(&mut rng);
        scenario
    }

    /// A narrow-passage stress scene (Fig 5): two long collinear walls
    /// tilted by `wall_tilt`, leaving a slot of `gap` units *along their
    /// shared diagonal* at the workspace center; start and goal sit on
    /// opposite sides of the wall line.
    ///
    /// The geometry is chosen so the loose AABB relaxation of each tilted
    /// wall over-covers its gap-side corner: whenever
    /// `gap < 2·thickness·tan(wall_tilt)` the two AABBs jointly seal the
    /// slot (false-positive collisions) while the exact OBBs leave it
    /// open — the path-quality / success-rate failure the paper
    /// illustrates. With `wall_tilt = 0` AABB and OBB coincide.
    ///
    /// # Panics
    ///
    /// Panics if `gap` is not positive.
    pub fn narrow_passage(robot: Robot, gap: f64, wall_tilt: f64) -> Scenario {
        assert!(gap > 0.0, "gap must be positive");
        let planar = robot.workspace_is_2d();
        let mid = WORKSPACE_EXTENT / 2.0;
        let center = Vec3::new(mid, mid, if planar { 0.0 } else { mid });
        let thickness = 10.0; // wall half-thickness
        let half_len = WORKSPACE_EXTENT; // long enough to block flanking
                                         // Walls run along u = (cos t, sin t); the slot lies between their
                                         // near ends, centered on `center`.
        let u = Vec3::new(wall_tilt.cos(), wall_tilt.sin(), 0.0);
        let offset = half_len + gap / 2.0;
        let make_wall = |sign: f64| -> Obb {
            let c = center + u * (sign * offset);
            if planar {
                Obb::planar(c, half_len, thickness, wall_tilt)
            } else {
                Obb::from_euler(
                    c,
                    Vec3::new(half_len, thickness, WORKSPACE_EXTENT),
                    wall_tilt,
                    0.0,
                    0.0,
                )
            }
        };
        let obstacles = vec![make_wall(-1.0), make_wall(1.0)];
        // Start/goal on opposite sides of the wall line, along the
        // perpendicular n = (-sin t, cos t).
        let n = Vec3::new(-wall_tilt.sin(), wall_tilt.cos(), 0.0);
        let s_pos = center - n * 80.0;
        let g_pos = center + n * 80.0;
        let (start, goal) = match robot.model() {
            moped_robot::RobotModel::Mobile2d => (
                Config::new(&[s_pos.x, s_pos.y, wall_tilt]),
                Config::new(&[g_pos.x, g_pos.y, wall_tilt]),
            ),
            moped_robot::RobotModel::Drone3d => (
                Config::new(&[s_pos.x, s_pos.y, mid, wall_tilt, 0.0, 0.0]),
                Config::new(&[g_pos.x, g_pos.y, mid, wall_tilt, 0.0, 0.0]),
            ),
            _ => {
                // Arms: swing from one side of the wall plane to the other.
                let mut s = vec![0.0; robot.dof()];
                let mut g = vec![0.0; robot.dof()];
                s[0] = -PI / 2.0 + 0.3;
                g[0] = PI / 2.0 - 0.3;
                (Config::new(&s), Config::new(&g))
            }
        };
        Scenario {
            robot,
            obstacles,
            start,
            goal,
            seed: 0,
        }
    }

    /// Exact (all-pairs OBB–OBB) collision test for a single
    /// configuration; used for start/goal validation and as the ground
    /// truth in tests. Planner-grade checking lives in `moped-collision`.
    pub fn config_collides(&self, q: &Config) -> bool {
        let mut scratch = OpCount::default();
        self.robot.body_obbs(q).iter().any(|body| {
            self.obstacles
                .iter()
                .any(|obs| sat::obb_obb(obs, body, &mut scratch))
        })
    }

    /// Rejection-samples a collision-free configuration.
    ///
    /// # Panics
    ///
    /// Panics after 100 000 failed attempts (the scene is effectively
    /// fully blocked).
    pub fn sample_free(&self, rng: &mut StdRng) -> Config {
        for _ in 0..100_000 {
            let q = self.sample_any(rng);
            if !self.config_collides(&q) {
                return q;
            }
        }
        panic!("could not sample a collision-free configuration in 100000 tries");
    }

    /// Samples an arbitrary (possibly colliding) configuration — the raw
    /// `x_rand` draw of each RRT\* round.
    pub fn sample_any(&self, rng: &mut StdRng) -> Config {
        let mut unit = [0.0; MAX_DOF];
        let unit = &mut unit[..self.robot.dof()];
        for u in unit.iter_mut() {
            *u = rng.gen::<f64>();
        }
        self.robot.config_from_unit(unit)
    }
}

fn random_obstacle(rng: &mut StdRng, params: &ScenarioParams, planar: bool, robot: &Robot) -> Obb {
    let hx = rng.gen_range(params.min_half..=params.max_half_xy);
    let hy = rng.gen_range(params.min_half..=params.max_half_xy);
    if planar {
        let cx = rng.gen_range(0.0..WORKSPACE_EXTENT);
        let cy = rng.gen_range(0.0..WORKSPACE_EXTENT);
        let theta = rng.gen_range(-PI..PI);
        return Obb::planar(Vec3::new(cx, cy, 0.0), hx, hy, theta);
    }
    let hz = rng.gen_range(params.min_half..=params.max_half_z);
    let is_arm = matches!(
        robot.model(),
        moped_robot::RobotModel::ViperX300
            | moped_robot::RobotModel::Rozum
            | moped_robot::RobotModel::XArm7
    );
    let mid = WORKSPACE_EXTENT / 2.0;
    let base = Vec3::new(mid, mid, 0.0);
    // Dense environments must never fully enclose the arm: obstacles are
    // redrawn if their AABB reaches into a keep-out ball around the base
    // (the mount itself plus its immediate surroundings stay clear, as
    // any physical deployment would guarantee).
    let keep_out = 35.0f64;
    loop {
        // Keep arm workloads honest: bias obstacle centers into the
        // robot's reachable shell so collision checks actually trigger.
        let center = if is_arm {
            let r = robot.reach() * 1.6;
            Vec3::new(
                rng.gen_range((mid - r).max(0.0)..(mid + r).min(WORKSPACE_EXTENT)),
                rng.gen_range((mid - r).max(0.0)..(mid + r).min(WORKSPACE_EXTENT)),
                rng.gen_range(0.0..(r * 1.2).min(WORKSPACE_EXTENT)),
            )
        } else {
            Vec3::new(
                rng.gen_range(0.0..WORKSPACE_EXTENT),
                rng.gen_range(0.0..WORKSPACE_EXTENT),
                rng.gen_range(0.0..WORKSPACE_EXTENT),
            )
        };
        let yaw = rng.gen_range(-PI..PI);
        let pitch = rng.gen_range(-PI / 2.0..PI / 2.0);
        let roll = rng.gen_range(-PI..PI);
        let obb = Obb::from_euler(center, Vec3::new(hx, hy, hz), yaw, pitch, roll);
        if is_arm {
            let aabb = moped_geometry::Aabb::from_obb(&obb);
            let nearest = base.max(aabb.min()).min(aabb.max());
            if (nearest - base).norm() < keep_out {
                continue;
            }
        }
        return obb;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_in_seed() {
        let a = Scenario::generate(Robot::drone_3d(), &ScenarioParams::default(), 42);
        let b = Scenario::generate(Robot::drone_3d(), &ScenarioParams::default(), 42);
        assert_eq!(a.start, b.start);
        assert_eq!(a.goal, b.goal);
        assert_eq!(a.obstacles.len(), b.obstacles.len());
        for (x, y) in a.obstacles.iter().zip(&b.obstacles) {
            assert_eq!(x.center(), y.center());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = Scenario::generate(Robot::drone_3d(), &ScenarioParams::default(), 1);
        let b = Scenario::generate(Robot::drone_3d(), &ScenarioParams::default(), 2);
        assert_ne!(a.start, b.start);
    }

    #[test]
    fn start_goal_are_collision_free_for_all_models() {
        for robot in Robot::all_models() {
            let s = Scenario::generate(robot, &ScenarioParams::with_obstacles(16), 9);
            assert!(
                !s.config_collides(&s.start),
                "{} start collides",
                s.robot.name()
            );
            assert!(
                !s.config_collides(&s.goal),
                "{} goal collides",
                s.robot.name()
            );
        }
    }

    #[test]
    fn planar_robot_gets_planar_obstacles() {
        let s = Scenario::generate(Robot::mobile_2d(), &ScenarioParams::with_obstacles(8), 3);
        assert!(s.obstacles.iter().all(Obb::is_planar));
    }

    #[test]
    fn spatial_robot_gets_3d_obstacles() {
        let s = Scenario::generate(Robot::drone_3d(), &ScenarioParams::with_obstacles(8), 3);
        assert!(s.obstacles.iter().all(|o| !o.is_planar()));
    }

    #[test]
    fn obstacle_sizes_respect_limits() {
        let p = ScenarioParams::default();
        let s = Scenario::generate(Robot::drone_3d(), &p, 17);
        for o in &s.obstacles {
            let h = o.half_extents();
            assert!(h.x >= p.min_half && h.x <= p.max_half_xy);
            assert!(h.y >= p.min_half && h.y <= p.max_half_xy);
            assert!(h.z >= p.min_half && h.z <= p.max_half_z);
        }
    }

    #[test]
    fn narrow_passage_start_goal_free() {
        for tilt in [0.0, 0.4, 0.8] {
            let s = Scenario::narrow_passage(Robot::mobile_2d(), 30.0, tilt);
            assert_eq!(s.obstacles.len(), 2);
            assert!(!s.config_collides(&s.start), "tilt {tilt} start collides");
            assert!(!s.config_collides(&s.goal), "tilt {tilt} goal collides");
        }
    }

    #[test]
    fn narrow_passage_gap_is_exactly_passable() {
        // A pose centered in the slot, heading along the wall diagonal,
        // must be free under the exact OBB representation.
        for tilt in [0.0, 0.5, 0.8] {
            let s = Scenario::narrow_passage(Robot::mobile_2d(), 40.0, tilt);
            let q = Config::new(&[WORKSPACE_EXTENT / 2.0, WORKSPACE_EXTENT / 2.0, tilt]);
            assert!(!s.config_collides(&q), "tilt {tilt}: slot center not free");
        }
    }

    #[test]
    fn narrow_passage_aabb_relaxation_seals_tilted_slot() {
        use moped_geometry::Aabb;
        // With gap < 2·thickness·tan(tilt) the wall AABBs cover the slot
        // center — the Fig 5 false-positive mechanism.
        let tilt = 0.9f64;
        let gap = 15.0;
        assert!(gap < 2.0 * 10.0 * tilt.tan());
        let s = Scenario::narrow_passage(Robot::mobile_2d(), gap, tilt);
        let mid = Vec3::new(WORKSPACE_EXTENT / 2.0, WORKSPACE_EXTENT / 2.0, 0.0);
        let covered = s
            .obstacles
            .iter()
            .any(|o| Aabb::from_obb(o).contains_point(mid));
        assert!(covered, "AABB relaxation should seal the slot center");
        // While the exact OBBs leave it open — the robot crosses sideways
        // (long axis perpendicular to the walls) to fit the slot:
        let q = Config::new(&[mid.x, mid.y, tilt + PI / 2.0]);
        assert!(!s.config_collides(&q));
    }

    #[test]
    fn sample_any_is_in_bounds() {
        let s = Scenario::generate(Robot::xarm7(), &ScenarioParams::with_obstacles(8), 4);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let q = s.sample_any(&mut rng);
            assert!(s.robot.in_bounds(&q));
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_gap_rejected() {
        let _ = Scenario::narrow_passage(Robot::mobile_2d(), 0.0, 0.0);
    }
}
