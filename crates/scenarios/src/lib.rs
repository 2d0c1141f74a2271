//! Seeded procedural scenario corpus for the MOPED evaluation.
//!
//! The paper's §V methodology (random OBB fields, one narrow-passage
//! stress scene) measures average behaviour on essentially one workload
//! shape. This crate widens the evaluation axis with five *families* of
//! procedurally generated scenes — parametric narrow passages with tilt,
//! perfect mazes, dense clutter fields, walled shelf/cage rooms, and
//! moving-obstacle snapshots frozen at epoch times — each fully
//! deterministic in `(family, robot model, seed)` and emitted as ordinary
//! [`moped_env::Scenario`] values, so every robot model (mobile base,
//! drone, arms) runs on every family through the unchanged planner stack.
//!
//! The [`corpus`] function enumerates the regression matrix the bench
//! harness runs (engine × family × robot over seeded scenarios);
//! [`smoke_corpus`] is the ≤ 6-entry subset wired into CI.
//!
//! # Example
//!
//! ```
//! use moped_scenarios::{CorpusEntry, Family};
//! use moped_robot::RobotModel;
//!
//! let entry = CorpusEntry::new(Family::Maze, RobotModel::Mobile2d, 1);
//! let scenario = entry.build();
//! assert!(!scenario.config_collides(&scenario.start));
//! assert!(!scenario.config_collides(&scenario.goal));
//! ```

#![deny(missing_docs)]

use std::f64::consts::PI;

use moped_env::dynamic::DynamicScenario;
use moped_env::{Scenario, ScenarioParams};
use moped_geometry::{Aabb, Config, Obb, Vec3};
use moped_robot::{Robot, RobotModel, WORKSPACE_EXTENT};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// RNG stream tag for endpoint re-sampling (kept distinct from obstacle
/// streams so adding obstacles never perturbs endpoints).
const ENDPOINT_STREAM: u64 = 0xE17D_0011;

/// A procedural scene family.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Family {
    /// Two long tilted walls with a seed-parametric slot (gap and tilt
    /// drawn from the seed) — the Fig 5 harness generalized into a
    /// family. The tilt makes the AABB relaxation seal the slot while the
    /// exact OBBs leave it open.
    NarrowPassage,
    /// A perfect maze (DFS spanning tree over a square cell grid); the
    /// wall layout is the seed's random spanning tree, so every seed is a
    /// different topology with exactly one corridor between any two
    /// cells.
    Maze,
    /// A dense field of many small boxes — tests steering through
    /// unstructured clutter rather than around a few large blocks.
    Clutter,
    /// A four-walled full-height room with a seed-placed door gap; the
    /// goal sits inside, the start outside, so every plan must thread the
    /// door.
    Shelf,
    /// A clutter field animated by `moped_env::dynamic` and frozen at a
    /// seed-selected epoch time — the static snapshot a replanning loop
    /// would hand the planner mid-execution.
    Dynamic,
}

impl Family {
    /// Every family, in report order.
    pub const ALL: [Family; 5] = [
        Family::NarrowPassage,
        Family::Maze,
        Family::Clutter,
        Family::Shelf,
        Family::Dynamic,
    ];

    /// Stable identifier used in corpus ids and bench JSON.
    pub fn name(&self) -> &'static str {
        match self {
            Family::NarrowPassage => "narrow-passage",
            Family::Maze => "maze",
            Family::Clutter => "clutter",
            Family::Shelf => "shelf",
            Family::Dynamic => "dynamic",
        }
    }
}

/// One corpus cell: a family instantiated for a robot model at a seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CorpusEntry {
    /// The scene family.
    pub family: Family,
    /// The robot model planned for.
    pub robot: RobotModel,
    /// Generation seed (also recorded in the emitted `Scenario`).
    pub seed: u64,
}

impl CorpusEntry {
    /// Creates an entry.
    pub fn new(family: Family, robot: RobotModel, seed: u64) -> CorpusEntry {
        CorpusEntry {
            family,
            robot,
            seed,
        }
    }

    /// Stable identifier: `family/robot/s<seed>`.
    pub fn id(&self) -> String {
        format!(
            "{}/{}/s{}",
            self.family.name(),
            robot_slug(self.robot),
            self.seed
        )
    }

    /// Generates the scenario. Deterministic: the same entry always
    /// produces the bit-identical scene (see the determinism tests).
    pub fn build(&self) -> Scenario {
        let robot = Robot::from_model(self.robot);
        match self.family {
            Family::NarrowPassage => narrow_passage(robot, self.seed),
            Family::Maze => maze(robot, self.seed),
            Family::Clutter => clutter(robot, self.seed),
            Family::Shelf => shelf(robot, self.seed),
            Family::Dynamic => dynamic_snapshot(robot, self.seed),
        }
    }
}

/// The robot models the regression matrix sweeps: one planar base, one
/// free-flying 6-DoF drone, one 7-DoF arm.
pub const CORPUS_ROBOTS: [RobotModel; 3] =
    [RobotModel::Mobile2d, RobotModel::Drone3d, RobotModel::XArm7];

/// Seeds per (family, robot) cell in the full corpus.
pub const CORPUS_SEEDS: [u64; 2] = [1, 2];

/// The full regression corpus: every family × [`CORPUS_ROBOTS`] ×
/// [`CORPUS_SEEDS`] — 30 seeded scenarios across 5 families and 3 robots.
pub fn corpus() -> Vec<CorpusEntry> {
    let mut out = Vec::new();
    for family in Family::ALL {
        for robot in CORPUS_ROBOTS {
            for seed in CORPUS_SEEDS {
                out.push(CorpusEntry::new(family, robot, seed));
            }
        }
    }
    out
}

/// The CI smoke subset: one entry per family (mobile except one drone
/// cell), ≤ 6 scenarios, cheap enough for `scripts/verify.sh`.
pub fn smoke_corpus() -> Vec<CorpusEntry> {
    vec![
        CorpusEntry::new(Family::NarrowPassage, RobotModel::Drone3d, 1),
        CorpusEntry::new(Family::Maze, RobotModel::Mobile2d, 1),
        CorpusEntry::new(Family::Clutter, RobotModel::Mobile2d, 1),
        CorpusEntry::new(Family::Shelf, RobotModel::Mobile2d, 1),
        CorpusEntry::new(Family::Dynamic, RobotModel::Mobile2d, 1),
    ]
}

/// Successive epoch snapshots of one animated clutter scene — the input
/// a serving layer feeds its epoch-versioned environment swap. Epoch `e`
/// is the field frozen at `t = e * epoch_dt`; epoch 0 equals the static
/// base scene.
pub fn dynamic_epochs(model: RobotModel, seed: u64, epochs: usize, epoch_dt: f64) -> Vec<Scenario> {
    let robot = Robot::from_model(model);
    let base = clutter(robot, seed);
    let animated = DynamicScenario::animate(base.clone(), 12.0, PI / 4.0, seed);
    let arm = is_arm(&base.robot);
    (0..epochs)
        .map(|e| {
            let mut snap = animated.snapshot(e as f64 * epoch_dt, base.start);
            if arm {
                // Moving boxes may drift over the manipulator base; a
                // scene where an obstacle impales the robot mount is
                // unsolvable by construction, so drop those.
                snap.obstacles = filter_arm_keep_out(snap.obstacles);
            }
            revalidate_endpoints(&mut snap, seed.wrapping_add(e as u64));
            snap
        })
        .collect()
}

// --- Family generators -------------------------------------------------

/// Seed-parametric narrow passage: gap ∈ [18, 40], tilt ∈ [0, 0.9].
fn narrow_passage(robot: Robot, seed: u64) -> Scenario {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4A22_0001);
    let gap = rng.gen_range(18.0..=40.0);
    let tilt = rng.gen_range(0.0..=0.9);
    let mut s = Scenario::narrow_passage(robot, gap, tilt);
    s.seed = seed;
    if is_arm(&s.robot) {
        // The canned joint sweeps are hand-verified only for the default
        // harness; seeded scenes re-sample guaranteed-free endpoints.
        resample_endpoints(&mut s, seed);
    }
    s
}

/// Perfect maze over a `G × G` cell grid (DFS random spanning tree):
/// interior boundaries without a passage become full-height walls.
fn maze(robot: Robot, seed: u64) -> Scenario {
    const G: usize = 4;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x3A2E_0002);
    let planar = robot.workspace_is_2d();
    let arm = is_arm(&robot);
    // Arms get the maze scaled ×0.35 into their reachable shell;
    // free-flying robots thread the full workspace.
    let scale = if arm { 0.35 } else { 1.0 };
    let span = WORKSPACE_EXTENT * scale;
    let origin = (WORKSPACE_EXTENT - span) / 2.0;
    let cell = span / G as f64;
    let wall_half = 4.0 * scale;

    // Random spanning tree: `open_r[i][j]` opens (i,j)→(i+1,j) (east),
    // `open_d[i][j]` opens (i,j)→(i,j+1) (north).
    let mut open_r = [[false; G]; G];
    let mut open_d = [[false; G]; G];
    let mut visited = [[false; G]; G];
    let mut stack = vec![(0usize, 0usize)];
    visited[0][0] = true;
    while let Some(&(x, y)) = stack.last() {
        let mut options: Vec<(usize, usize)> = Vec::new();
        if x + 1 < G && !visited[x + 1][y] {
            options.push((x + 1, y));
        }
        if x > 0 && !visited[x - 1][y] {
            options.push((x - 1, y));
        }
        if y + 1 < G && !visited[x][y + 1] {
            options.push((x, y + 1));
        }
        if y > 0 && !visited[x][y - 1] {
            options.push((x, y - 1));
        }
        if options.is_empty() {
            stack.pop();
            continue;
        }
        let (nx, ny) = options[rng.gen_range(0..options.len())];
        if nx > x {
            open_r[x][y] = true;
        } else if nx < x {
            open_r[nx][y] = true;
        } else if ny > y {
            open_d[x][y] = true;
        } else {
            open_d[x][ny] = true;
        }
        visited[nx][ny] = true;
        stack.push((nx, ny));
    }

    // Closed interior boundaries become walls covering the boundary.
    let z_center = if arm { 55.0 } else { WORKSPACE_EXTENT / 2.0 };
    let z_half = if arm { 60.0 } else { WORKSPACE_EXTENT / 2.0 };
    let mut obstacles = Vec::new();
    let mut wall = |cx: f64, cy: f64, hx: f64, hy: f64| {
        if planar {
            obstacles.push(Obb::planar(Vec3::new(cx, cy, 0.0), hx, hy, 0.0));
        } else {
            obstacles.push(Obb::from_euler(
                Vec3::new(cx, cy, z_center),
                Vec3::new(hx, hy, z_half),
                0.0,
                0.0,
                0.0,
            ));
        }
    };
    for (x, col) in open_r.iter().enumerate().take(G - 1) {
        for (y, &open) in col.iter().enumerate() {
            if !open {
                let cx = origin + (x + 1) as f64 * cell;
                let cy = origin + (y as f64 + 0.5) * cell;
                wall(cx, cy, wall_half, cell / 2.0);
            }
        }
    }
    for (x, col) in open_d.iter().enumerate() {
        for (y, &open) in col.iter().enumerate().take(G - 1) {
            if !open {
                let cx = origin + (x as f64 + 0.5) * cell;
                let cy = origin + (y + 1) as f64 * cell;
                wall(cx, cy, cell / 2.0, wall_half);
            }
        }
    }

    let mut s = Scenario {
        start: Config::zeros(robot.dof()),
        goal: Config::zeros(robot.dof()),
        robot,
        obstacles: if arm {
            filter_arm_keep_out(obstacles)
        } else {
            obstacles
        },
        seed,
    };
    // Opposite corner cells; the spanning tree guarantees a corridor.
    let s_xy = (origin + cell / 2.0, origin + cell / 2.0);
    let g_xy = (origin + span - cell / 2.0, origin + span - cell / 2.0);
    set_endpoints(&mut s, s_xy, g_xy, seed);
    s
}

/// Dense clutter: 24–48 small seeded boxes (count drawn from the seed),
/// endpoints rejection-sampled by the `moped_env` generator.
fn clutter(robot: Robot, seed: u64) -> Scenario {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC1A7_0003);
    let params = ScenarioParams {
        obstacle_count: rng.gen_range(24..=48),
        max_half_xy: 8.0,
        max_half_z: 10.0,
        min_half: 2.0,
        ..ScenarioParams::default()
    };
    let mut s = Scenario::generate(robot, &params, seed ^ 0xC1A7_0004);
    s.seed = seed;
    s
}

/// Shelf/cage room: four full-height walls around the workspace center
/// with one seed-placed door gap; goal inside, start outside.
fn shelf(robot: Robot, seed: u64) -> Scenario {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5E1F_0005);
    let planar = robot.workspace_is_2d();
    let arm = is_arm(&robot);
    let scale = if arm { 0.35 } else { 1.0 };
    let mid = WORKSPACE_EXTENT / 2.0;
    let r = 60.0 * scale; // room half-size
    let t = 4.0 * scale; // wall half-thickness
    let door = rng.gen_range(28.0..=44.0) * scale;
    let door_side = rng.gen_range(0..4u8); // 0=E 1=N 2=W 3=S
    let door_slack: f64 = r - door / 2.0 - t;
    let door_at = rng.gen_range(-door_slack..=door_slack);
    let z_center = if arm { 55.0 } else { mid };
    let z_half = if arm { 60.0 } else { mid };

    let mut obstacles = Vec::new();
    let mut wall = |cx: f64, cy: f64, hx: f64, hy: f64| {
        if hx <= 0.0 || hy <= 0.0 {
            return;
        }
        if planar {
            obstacles.push(Obb::planar(Vec3::new(cx, cy, 0.0), hx, hy, 0.0));
        } else {
            obstacles.push(Obb::from_euler(
                Vec3::new(cx, cy, z_center),
                Vec3::new(hx, hy, z_half),
                0.0,
                0.0,
                0.0,
            ));
        }
    };
    // For each side: either a solid wall or two segments leaving the door.
    for side in 0..4u8 {
        let vertical = side == 0 || side == 2; // wall runs along Y
        let sign = if side == 0 || side == 1 { 1.0 } else { -1.0 };
        let (wx, wy) = if vertical {
            (mid + sign * r, mid)
        } else {
            (mid, mid + sign * r)
        };
        if side != door_side {
            if vertical {
                wall(wx, wy, t, r + t);
            } else {
                wall(wx, wy, r + t, t);
            }
            continue;
        }
        // Split around the door: segments on either side of `door_at`.
        let lo_half = (door_at - door / 2.0 + r) / 2.0;
        let hi_half = (r - door_at - door / 2.0) / 2.0;
        let lo_center = -r + lo_half;
        let hi_center = r - hi_half;
        if vertical {
            wall(wx, wy + lo_center, t, lo_half);
            wall(wx, wy + hi_center, t, hi_half);
        } else {
            wall(wx + lo_center, wy, lo_half, t);
            wall(wx + hi_center, wy, hi_half, t);
        }
    }

    let mut s = Scenario {
        start: Config::zeros(robot.dof()),
        goal: Config::zeros(robot.dof()),
        robot,
        obstacles: if arm {
            filter_arm_keep_out(obstacles)
        } else {
            obstacles
        },
        seed,
    };
    // Start well outside the room on the door-opposite side; goal inside.
    let outside = r / scale + 80.0;
    let s_xy = match door_side {
        0 => (mid - outside, mid),
        1 => (mid, mid - outside),
        2 => (mid + outside, mid),
        _ => (mid, mid + outside),
    };
    set_endpoints(&mut s, s_xy, (mid, mid), seed);
    s
}

/// Moving-obstacle snapshot: a clutter field animated by
/// `moped_env::dynamic`, frozen at a seed-selected epoch time, endpoints
/// re-validated against the moved field.
fn dynamic_snapshot(robot: Robot, seed: u64) -> Scenario {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD77A_0006);
    let epoch = rng.gen_range(1..=4u32);
    let model = robot.model();
    let mut snaps = dynamic_epochs(model, seed, epoch as usize + 1, 2.5);
    let mut s = snaps
        .pop()
        .unwrap_or_else(|| clutter(Robot::from_model(model), seed));
    s.seed = seed;
    s
}

// --- Scene signatures ---------------------------------------------------

/// The raw environment signature of a scenario: the inputs the autotuner
/// buckets into a request class. Pure function of the scene — no wall
/// clock, no RNG — so the same scenario always signs identically.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SceneSig {
    /// Number of obstacles in the scene.
    pub obstacles: usize,
    /// Occupied volume in integer permille of the workspace cube
    /// (`WORKSPACE_EXTENT`³), saturating at 1000. Planar walls contribute
    /// their true thin volume; the permille is a clutter measure, not a
    /// physical occupancy claim.
    pub density_permille: u32,
    /// Robot configuration-space dimension.
    pub dof: usize,
}

/// Computes the [`SceneSig`] of a scenario.
pub fn scene_sig(s: &Scenario) -> SceneSig {
    let workspace = WORKSPACE_EXTENT * WORKSPACE_EXTENT * WORKSPACE_EXTENT;
    let occupied: f64 = s.obstacles.iter().map(|o| o.volume()).sum();
    let permille = ((occupied / workspace) * 1000.0).round();
    SceneSig {
        obstacles: s.obstacles.len(),
        density_permille: if permille < 0.0 {
            0
        } else if permille > 1000.0 {
            1000
        } else {
            permille as u32
        },
        dof: s.robot.dof(),
    }
}

// --- Shared helpers ----------------------------------------------------

/// Filesystem/JSON-safe robot identifier (the display names in
/// `moped_robot` carry spaces and capitals).
pub fn robot_slug(model: RobotModel) -> &'static str {
    match model {
        RobotModel::Mobile2d => "mobile_2d",
        RobotModel::Drone3d => "drone_3d",
        RobotModel::ViperX300 => "viperx_300",
        RobotModel::Rozum => "rozum",
        RobotModel::XArm7 => "xarm7",
    }
}

fn is_arm(robot: &Robot) -> bool {
    !matches!(robot.model(), RobotModel::Mobile2d | RobotModel::Drone3d)
}

/// Drops obstacles whose AABB reaches into the 12-unit keep-out ball
/// around the arm base, so an arm never starts in contact.
fn filter_arm_keep_out(obstacles: Vec<Obb>) -> Vec<Obb> {
    let mid = WORKSPACE_EXTENT / 2.0;
    let base = Vec3::new(mid, mid, 0.0);
    let keep_out = 12.0;
    obstacles
        .into_iter()
        .filter(|o| {
            let aabb = Aabb::from_obb(o);
            let nearest = base.max(aabb.min()).min(aabb.max());
            (nearest - base).norm() >= keep_out
        })
        .collect()
}

/// Installs workspace endpoints for the free-flying robots or seeded
/// free joint configurations for arms.
fn set_endpoints(s: &mut Scenario, start_xy: (f64, f64), goal_xy: (f64, f64), seed: u64) {
    let mid = WORKSPACE_EXTENT / 2.0;
    match s.robot.model() {
        RobotModel::Mobile2d => {
            s.start = Config::new(&[start_xy.0, start_xy.1, 0.0]);
            s.goal = Config::new(&[goal_xy.0, goal_xy.1, 0.0]);
        }
        RobotModel::Drone3d => {
            s.start = Config::new(&[start_xy.0, start_xy.1, mid, 0.0, 0.0, 0.0]);
            s.goal = Config::new(&[goal_xy.0, goal_xy.1, mid, 0.0, 0.0, 0.0]);
        }
        _ => resample_endpoints(s, seed),
    }
    debug_assert!(!s.config_collides(&s.start), "start collides (seed {seed})");
    debug_assert!(!s.config_collides(&s.goal), "goal collides (seed {seed})");
}

/// Seeded rejection sampling of free start/goal configurations.
fn resample_endpoints(s: &mut Scenario, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed ^ ENDPOINT_STREAM);
    s.start = s.sample_free(&mut rng);
    s.goal = s.sample_free(&mut rng);
}

/// Re-samples only the endpoints that collide (used by epoch snapshots,
/// where the field moved out from under validated endpoints).
fn revalidate_endpoints(s: &mut Scenario, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed ^ ENDPOINT_STREAM ^ 0xEE0C);
    if s.config_collides(&s.start) {
        s.start = s.sample_free(&mut rng);
    }
    if s.config_collides(&s.goal) {
        s.goal = s.sample_free(&mut rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits_of(s: &Scenario) -> Vec<u64> {
        let mut bits: Vec<u64> = Vec::new();
        let mut push_config = |q: &Config| bits.extend(q.as_slice().iter().map(|v| v.to_bits()));
        push_config(&s.start.clone());
        push_config(&s.goal.clone());
        for o in &s.obstacles {
            for v in [o.center(), o.half_extents()] {
                bits.extend([v.x.to_bits(), v.y.to_bits(), v.z.to_bits()]);
            }
            for row in o.rotation().m {
                bits.extend(row.iter().map(|v| v.to_bits()));
            }
        }
        bits
    }

    #[test]
    fn corpus_meets_regression_matrix_floor() {
        let c = corpus();
        assert!(c.len() >= 24, "corpus must hold ≥24 scenarios: {}", c.len());
        let families: Vec<&str> = {
            let mut f: Vec<&str> = c.iter().map(|e| e.family.name()).collect();
            f.sort_unstable();
            f.dedup();
            f
        };
        assert!(families.len() >= 4, "≥4 families required: {families:?}");
        let robots: Vec<RobotModel> = {
            let mut r: Vec<RobotModel> = c.iter().map(|e| e.robot).collect();
            r.sort_unstable_by_key(|m| format!("{m:?}"));
            r.dedup();
            r
        };
        assert!(robots.len() >= 3, "≥3 robots required: {robots:?}");
    }

    #[test]
    fn smoke_corpus_is_small_and_covers_every_family() {
        let smoke = smoke_corpus();
        assert!(smoke.len() <= 6, "smoke subset must stay ≤6 scenarios");
        for family in Family::ALL {
            assert!(
                smoke.iter().any(|e| e.family == family),
                "{} missing from smoke subset",
                family.name()
            );
        }
    }

    #[test]
    fn same_seed_builds_bit_identical_scenarios() {
        for entry in corpus() {
            let a = entry.build();
            let b = entry.build();
            assert_eq!(
                bits_of(&a),
                bits_of(&b),
                "{} not bit-deterministic",
                entry.id()
            );
        }
    }

    #[test]
    fn different_seeds_differ() {
        for family in Family::ALL {
            let a = CorpusEntry::new(family, RobotModel::Mobile2d, 1).build();
            let b = CorpusEntry::new(family, RobotModel::Mobile2d, 2).build();
            assert_ne!(
                bits_of(&a),
                bits_of(&b),
                "{}: seeds 1 and 2 built the same scene",
                family.name()
            );
        }
    }

    #[test]
    fn endpoints_are_collision_free_across_the_corpus() {
        for entry in corpus() {
            let s = entry.build();
            assert!(
                !s.config_collides(&s.start),
                "{}: start collides",
                entry.id()
            );
            assert!(!s.config_collides(&s.goal), "{}: goal collides", entry.id());
        }
    }

    #[test]
    fn planar_robots_get_planar_obstacles() {
        for family in Family::ALL {
            let s = CorpusEntry::new(family, RobotModel::Mobile2d, 1).build();
            assert!(
                s.obstacles.iter().all(Obb::is_planar),
                "{}: non-planar obstacle in planar scene",
                family.name()
            );
        }
    }

    #[test]
    fn maze_blocks_the_straight_line() {
        // A perfect maze on a 4×4 grid leaves exactly one corridor; the
        // corner-to-corner diagonal must cross a wall for most seeds.
        let blocked_seeds = (1..=6u64)
            .filter(|&seed| {
                let s = CorpusEntry::new(Family::Maze, RobotModel::Mobile2d, seed).build();
                (1..30).any(|i| s.config_collides(&s.start.lerp(&s.goal, i as f64 / 30.0)))
            })
            .count();
        assert!(
            blocked_seeds >= 5,
            "mazes should almost always block the diagonal: {blocked_seeds}/6"
        );
    }

    #[test]
    fn shelf_goal_is_enclosed_except_for_the_door() {
        // Walking a ring around the goal at the wall radius must collide
        // on most directions (walls) but not all (the door).
        let s = CorpusEntry::new(Family::Shelf, RobotModel::Mobile2d, 1).build();
        let mid = WORKSPACE_EXTENT / 2.0;
        let hits = (0..36)
            .filter(|&k| {
                let a = k as f64 / 36.0 * std::f64::consts::TAU;
                let q = Config::new(&[mid + 60.0 * a.cos(), mid + 60.0 * a.sin(), 0.0]);
                s.config_collides(&q)
            })
            .count();
        assert!(hits > 18, "most ring poses must hit the walls: {hits}/36");
        assert!(hits < 36, "the door must leave an opening: {hits}/36");
    }

    #[test]
    fn dynamic_epoch_zero_matches_static_base() {
        let snaps = dynamic_epochs(RobotModel::Mobile2d, 3, 3, 2.5);
        assert_eq!(snaps.len(), 3);
        let base = CorpusEntry::new(Family::Clutter, RobotModel::Mobile2d, 3).build();
        // Epoch 0 is frozen at t=0: obstacle centers coincide with the
        // static clutter scene built from the same seed.
        for (a, b) in snaps[0].obstacles.iter().zip(&base.obstacles) {
            assert!((a.center() - b.center()).norm() < 1e-9);
        }
        // Later epochs moved.
        let moved = snaps[0]
            .obstacles
            .iter()
            .zip(&snaps[2].obstacles)
            .filter(|(a, b)| (a.center() - b.center()).norm() > 1.0)
            .count();
        assert!(moved > snaps[0].obstacles.len() / 2);
    }

    #[test]
    fn dynamic_epochs_have_free_endpoints() {
        for seed in [1u64, 2, 3] {
            for s in dynamic_epochs(RobotModel::Drone3d, seed, 4, 2.5) {
                assert!(!s.config_collides(&s.start), "seed {seed}: start");
                assert!(!s.config_collides(&s.goal), "seed {seed}: goal");
            }
        }
    }

    #[test]
    fn corpus_id_spells_family_robot_seed() {
        let entry = CorpusEntry::new(Family::Shelf, RobotModel::XArm7, 7);
        assert_eq!(entry.id(), "shelf/xarm7/s7");
    }

    /// Exact point-to-OBB distance (the AABB bound is uselessly loose
    /// for the long tilted narrow-passage walls).
    fn point_obb_distance(p: Vec3, o: &Obb) -> f64 {
        let d = p - o.center();
        let h = o.half_extents();
        let local = Vec3::new(d.dot(o.axis(0)), d.dot(o.axis(1)), d.dot(o.axis(2)));
        let clamped = local.max(-h).min(h);
        (clamped - local).norm()
    }

    #[test]
    fn scene_sig_is_deterministic_and_discriminates_families() {
        for entry in corpus() {
            let a = scene_sig(&entry.build());
            let b = scene_sig(&entry.build());
            assert_eq!(a, b, "{}: signature must be pure", entry.id());
            assert_eq!(a.obstacles, entry.build().obstacles.len());
            assert!(a.density_permille <= 1000);
            assert!(a.dof >= 3);
        }
        // Clutter fields carry far more obstacles than a narrow passage.
        let clutter =
            scene_sig(&CorpusEntry::new(Family::Clutter, RobotModel::Mobile2d, 1).build());
        let narrow =
            scene_sig(&CorpusEntry::new(Family::NarrowPassage, RobotModel::Mobile2d, 1).build());
        assert!(clutter.obstacles > narrow.obstacles);
    }

    #[test]
    fn arm_scenes_respect_base_keep_out() {
        let mid = WORKSPACE_EXTENT / 2.0;
        let base = Vec3::new(mid, mid, 0.0);
        for family in Family::ALL {
            for seed in CORPUS_SEEDS {
                let s = CorpusEntry::new(family, RobotModel::XArm7, seed).build();
                for o in &s.obstacles {
                    assert!(
                        point_obb_distance(base, o) >= 8.9,
                        "{}/s{}: obstacle impales the arm base",
                        family.name(),
                        seed
                    );
                }
            }
        }
    }
}
