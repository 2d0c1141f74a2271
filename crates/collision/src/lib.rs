//! Motion collision checking for MOPED.
//!
//! RRT\* must verify the *entire movement course* between configurations,
//! so every planner query here is a motion query: the straight segment is
//! discretized into poses, forward kinematics produces the robot's body
//! OBBs at each pose, and each body is tested against the obstacle field.
//! Three checkers implement that contract:
//!
//! * [`NaiveChecker`] — the baseline: every body × every obstacle gets an
//!   exact OBB–OBB SAT at every pose. This is what the profiled RRT\*
//!   breakdown (Fig 3) spends most of its time in.
//! * [`TwoStageChecker`] — MOPED's §III-A scheme: an offline-built STR
//!   R-tree over obstacle AABBs filters with cheap AABB–OBB checks
//!   (stage 1); only survivors get the exact OBB–OBB check (stage 2),
//!   run as one batched SAT over the pre-encoded obstacle field.
//! * [`TwoStageChecker`] in [`SecondStage::AabbOnly`] mode — the Fig 18
//!   ablation: survivors of the first stage are *declared* collisions
//!   (loose, conservative), trading path quality for check cost.
//!
//! For the drone and the mobile robot, whose one rigid body is centered at
//! the configuration's translation, [`TwoStageChecker`]'s motion check
//! first runs one R-tree traversal on bounds that hold for every pose
//! ([`RTree::filter_swept`]). Where that traversal provably stands for
//! every pose's and leaves no survivor, the motion is free with no
//! per-pose work, and it is charged exactly what the per-pose check
//! would have charged.
//!
//! All work is charged to a [`CollisionLedger`] so the Fig 6 / Fig 18
//! comparisons come from counted operations.

#![deny(missing_docs)]

use std::fmt;

use moped_geometry::{sat, Config, InterpolationSteps, Obb, OpCount, Poses, Vec3};
use moped_robot::Robot;
use moped_rtree::{FilterStats, RTree};

/// Accounting for collision work, split by pipeline stage.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CollisionLedger {
    /// Arithmetic charged by first-stage (AABB–OBB / R-tree) work.
    pub first_stage: OpCount,
    /// Arithmetic charged by second-stage (exact OBB–OBB) work.
    pub second_stage: OpCount,
    /// Motion-level queries issued by the planner.
    pub motion_queries: u64,
    /// Individual poses checked across all motions.
    pub pose_queries: u64,
    /// R-tree traversal statistics accumulated over all first stages.
    pub filter: FilterStats,
}

impl CollisionLedger {
    /// Sum of both stages' arithmetic.
    pub fn total_ops(&self) -> OpCount {
        self.first_stage + self.second_stage
    }

    /// Resets all counters.
    pub fn reset(&mut self) {
        *self = CollisionLedger::default();
    }
}

impl fmt::Display for CollisionLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} motions, {} poses, {} MAC-equiv",
            self.motion_queries,
            self.pose_queries,
            self.total_ops().mac_equiv()
        )
    }
}

/// The checking interface the planners consume.
///
/// Implementations must be *sound*: a motion reported free must have no
/// checked pose in collision under the checker's obstacle representation.
/// Conservative over-reporting of collisions (as AABB relaxations do) is
/// allowed and is exactly the path-quality trade-off Fig 5/18 studies.
pub trait CollisionChecker {
    /// Returns `true` if configuration `q` is collision free.
    fn config_free(&self, robot: &Robot, q: &Config, ledger: &mut CollisionLedger) -> bool;

    /// Returns `true` if the straight motion `from → to` is collision
    /// free at the given discretization.
    ///
    /// The default implementation checks each pose of
    /// [`InterpolationSteps::poses`] with `config_free`, failing fast on
    /// the first colliding pose.
    fn motion_free(
        &self,
        robot: &Robot,
        from: &Config,
        to: &Config,
        steps: &InterpolationSteps,
        ledger: &mut CollisionLedger,
    ) -> bool {
        ledger.motion_queries += 1;
        poses_free(self, robot, steps.poses(from, to), ledger)
    }

    /// Called by the planners once at the start of each plan, so a checker
    /// could reset cross-plan state there. No checker in this workspace
    /// keeps any, so every one uses this no-op; the hook stays because the
    /// wall-clock benchmark's timing wrapper forwards it.
    fn begin_plan(&self) {}

    /// Short descriptive name for reports.
    fn name(&self) -> &'static str;
}

/// The per-pose motion check: each pose goes through `config_free` and is
/// counted, stopping at the first colliding one.
fn poses_free<C: CollisionChecker + ?Sized>(
    checker: &C,
    robot: &Robot,
    mut poses: Poses,
    ledger: &mut CollisionLedger,
) -> bool {
    poses.all(|pose| {
        ledger.pose_queries += 1;
        checker.config_free(robot, &pose, ledger)
    })
}

/// Baseline all-pairs exact checker: every robot body OBB against every
/// obstacle OBB, 15-axis SAT each (4-axis for the planar workload).
#[derive(Clone, Debug)]
pub struct NaiveChecker {
    obstacles: Vec<Obb>,
    bodies: std::cell::RefCell<Vec<Obb>>,
}

impl NaiveChecker {
    /// Creates a checker over the given obstacle field.
    pub fn new(obstacles: Vec<Obb>) -> Self {
        NaiveChecker {
            obstacles,
            bodies: std::cell::RefCell::new(Vec::new()),
        }
    }

    /// The obstacle field being checked against.
    pub fn obstacles(&self) -> &[Obb] {
        &self.obstacles
    }
}

impl CollisionChecker for NaiveChecker {
    fn config_free(&self, robot: &Robot, q: &Config, ledger: &mut CollisionLedger) -> bool {
        let mut bodies = self.bodies.borrow_mut();
        robot.body_obbs_into(q, &mut bodies);
        for body in bodies.iter() {
            for obs in &self.obstacles {
                ledger.second_stage.mem_words += obs.encoded_words();
                if sat::obb_obb(obs, body, &mut ledger.second_stage) {
                    return false;
                }
            }
        }
        true
    }

    fn name(&self) -> &'static str {
        "naive-obb"
    }
}

/// Baseline all-pairs *AABB-relaxed* checker: every robot body OBB against
/// every obstacle's AABB relaxation, any hit declared a collision. This is
/// the "RRT\* ASIC using the same AABB checker" baseline of Fig 18
/// (right): cheap per query, no hierarchy, false positives included.
#[derive(Clone, Debug)]
pub struct NaiveAabbChecker {
    obstacles: Vec<Obb>,
    /// Center and half-extents of each obstacle's AABB relaxation.
    aabbs: Vec<(Vec3, Vec3)>,
    bodies: std::cell::RefCell<Vec<Obb>>,
}

impl NaiveAabbChecker {
    /// Creates a checker over the AABB relaxations of `obstacles`.
    pub fn new(obstacles: Vec<Obb>) -> Self {
        let aabbs = obstacles
            .iter()
            .map(|o| {
                let a = moped_geometry::Aabb::from_obb(o);
                (a.center(), a.half_extents())
            })
            .collect();
        NaiveAabbChecker {
            obstacles,
            aabbs,
            bodies: std::cell::RefCell::new(Vec::new()),
        }
    }

    /// The original OBB obstacle field.
    pub fn obstacles(&self) -> &[Obb] {
        &self.obstacles
    }
}

impl CollisionChecker for NaiveAabbChecker {
    fn config_free(&self, robot: &Robot, q: &Config, ledger: &mut CollisionLedger) -> bool {
        let mut bodies = self.bodies.borrow_mut();
        robot.body_obbs_into(q, &mut bodies);
        for body in bodies.iter() {
            let mut prepared = sat::AabbObbBody::new(body);
            let words = if body.is_planar() { 4 } else { 6 };
            let mut tested = 0;
            let hit = self.aabbs.iter().any(|&(c, h)| {
                tested += 1;
                prepared.overlaps(c, h)
            });
            ledger.first_stage.mem_words += words * tested;
            prepared.charge(&mut ledger.first_stage);
            if hit {
                return false;
            }
        }
        true
    }

    fn name(&self) -> &'static str {
        "naive-aabb"
    }
}

/// Second-stage policy for [`TwoStageChecker`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SecondStage {
    /// Exact OBB–OBB verification of first-stage survivors (MOPED).
    ObbExact,
    /// Treat any first-stage survivor as a collision (AABB-only ablation,
    /// Fig 18): cheap but suffers false positives that inflate path cost.
    AabbOnly,
}

/// Fanout of the obstacle R-tree: the paper's small node, used by every
/// two-stage checker and environment snapshot.
pub const RTREE_FANOUT: usize = 4;

/// MOPED's two-stage checker (§III-A): R-tree AABB filter, then exact
/// OBB–OBB on survivors.
///
/// The obstacle field is held as a precomputed structure-of-arrays
/// ([`sat::ObbSoa`]): centers, half-extents, and rotation axes are
/// extracted once at construction, so the narrow phase streams plain
/// `f64` lanes instead of re-deriving axes per test. Survivors are
/// checked in [`sat::SAT_BATCH`]-wide chunks of branch-free full-axis
/// lanes, with the body's axes prepared once per pose.
///
/// The checker is read-only after construction and `Sync`: the per-pose
/// scratch buffers live in a thread-local, so one checker can be shared
/// by every thread that plans in its obstacle field.
#[derive(Clone, Debug)]
pub struct TwoStageChecker {
    rtree: RTree,
    soa: sat::ObbSoa,
    second: SecondStage,
}

/// Per-thread buffers reused by every [`TwoStageChecker`] call on that
/// thread. Each call clears what it reads before filling it
/// (`body_obbs_into` and `filter_into` clear their outputs), so a panic
/// mid-check leaves nothing a later call could mistake for its own.
#[derive(Default)]
struct TwoStageScratch {
    bodies: Vec<Obb>,
    stack: Vec<usize>,
    survivors: Vec<usize>,
}

thread_local! {
    static SCRATCH: std::cell::RefCell<TwoStageScratch> =
        std::cell::RefCell::new(TwoStageScratch::default());
}

impl TwoStageChecker {
    /// Builds the checker, bulk-loading the obstacle R-tree offline with
    /// [`RTREE_FANOUT`].
    pub fn new(obstacles: Vec<Obb>, second: SecondStage) -> Self {
        TwoStageChecker {
            rtree: RTree::build(&obstacles, RTREE_FANOUT),
            soa: sat::ObbSoa::build(obstacles),
            second,
        }
    }

    /// The MOPED checker: exact OBB–OBB second stage.
    pub fn moped(obstacles: Vec<Obb>) -> Self {
        TwoStageChecker::new(obstacles, SecondStage::ObbExact)
    }

    /// The underlying obstacle R-tree (exposed for the hardware model's
    /// SRAM sizing).
    pub fn rtree(&self) -> &RTree {
        &self.rtree
    }

    /// The obstacle field.
    pub fn obstacles(&self) -> &[Obb] {
        self.soa.obbs()
    }

    /// The configured second-stage policy.
    pub fn second_stage(&self) -> SecondStage {
        self.second
    }

    /// The one swept R-tree traversal of the motion `from → to`, for a
    /// robot with one rigid body centered at the configuration's
    /// translation ([`Robot::center_hull`]): the traversal's statistics
    /// and charge when it provably stands for every pose's traversal and
    /// leaves no survivor ([`RTree::filter_swept`]); `None` when it does
    /// not, and for the arms.
    pub fn swept_pass(
        &self,
        robot: &Robot,
        from: &Config,
        to: &Config,
    ) -> Option<(FilterStats, OpCount)> {
        let (centers, half) = robot.center_hull(from, to)?;
        let body = sat::SweptAabbObbBody::new(&centers, half, robot.workspace_is_2d());
        SCRATCH.with_borrow_mut(|scratch| self.rtree.filter_swept(body, &mut scratch.stack))
    }
}

// One checker serves every thread that plans in its obstacle field; a
// field that reintroduces per-checker interior mutability breaks the
// build here.
const _: () = {
    const fn assert_sync<T: Sync>() {}
    assert_sync::<TwoStageChecker>();
};

impl CollisionChecker for TwoStageChecker {
    fn config_free(&self, robot: &Robot, q: &Config, ledger: &mut CollisionLedger) -> bool {
        SCRATCH.with_borrow_mut(|scratch| {
            robot.body_obbs_into(q, &mut scratch.bodies);

            for body in &scratch.bodies {
                // Stage 1: hierarchical AABB filter.
                self.rtree.filter_into(
                    body,
                    &mut ledger.first_stage,
                    &mut ledger.filter,
                    &mut scratch.stack,
                    &mut scratch.survivors,
                );
                if scratch.survivors.is_empty() {
                    continue;
                }
                match self.second {
                    SecondStage::AabbOnly => return false,
                    SecondStage::ObbExact => {
                        // Stage 2: exact check on the few survivors only.
                        let pre = sat::prepare(body);
                        for &oid in &scratch.survivors {
                            ledger.second_stage.mem_words += self.soa.get(oid).encoded_words();
                        }
                        if sat::obb_obb_batch(
                            &self.soa,
                            &scratch.survivors,
                            &pre,
                            &mut ledger.second_stage,
                        )
                        .is_some()
                        {
                            return false;
                        }
                    }
                }
            }
            true
        })
    }

    /// One swept R-tree traversal for the whole motion where it provably
    /// stands for every pose's, else the per-pose check.
    ///
    /// When [`TwoStageChecker::swept_pass`] resolves, every pose's check
    /// would take that same traversal and leave no survivor, so the
    /// motion is free and the ledger gets `n` times that traversal:
    /// exactly what `n` per-pose checks add, with no forward kinematics
    /// and no per-pose filter. Otherwise, and for the arms, every pose is
    /// checked as in the default.
    fn motion_free(
        &self,
        robot: &Robot,
        from: &Config,
        to: &Config,
        steps: &InterpolationSteps,
        ledger: &mut CollisionLedger,
    ) -> bool {
        ledger.motion_queries += 1;
        let poses = steps.poses(from, to);
        if let Some((stats, ops)) = self.swept_pass(robot, from, to) {
            let n = poses.len() as u64;
            ledger.pose_queries += n;
            ledger.first_stage += ops * n;
            ledger.filter += stats * n;
            return true;
        }
        poses_free(self, robot, poses, ledger)
    }

    fn name(&self) -> &'static str {
        match self.second {
            SecondStage::ObbExact => "two-stage-obb",
            SecondStage::AabbOnly => "two-stage-aabb-only",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moped_env::{Scenario, ScenarioParams};

    fn drone_scene(seed: u64, obstacles: usize) -> Scenario {
        Scenario::generate(
            Robot::drone_3d(),
            &ScenarioParams::with_obstacles(obstacles),
            seed,
        )
    }

    #[test]
    fn empty_world_is_always_free() {
        let naive = NaiveChecker::new(Vec::new());
        let two = TwoStageChecker::moped(Vec::new());
        let robot = Robot::drone_3d();
        let q = robot.config_from_unit(&[0.5; 6]);
        let mut ledger = CollisionLedger::default();
        assert!(naive.config_free(&robot, &q, &mut ledger));
        assert!(two.config_free(&robot, &q, &mut ledger));
    }

    /// `n` drone poses from a seeded LCG: each step advances `state` and
    /// reads the six unit coordinates as consecutive `bits`-wide fields.
    fn lcg_poses(
        s: &Scenario,
        n: usize,
        mut state: u64,
        mul: u64,
        add: u64,
        bits: u32,
    ) -> Vec<Config> {
        let mask = (1u64 << bits) - 1;
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(mul).wrapping_add(add);
                let unit: Vec<f64> = (0..6)
                    .map(|i| ((state >> (i * bits)) & mask) as f64 / mask as f64)
                    .collect();
                s.robot.config_from_unit(&unit)
            })
            .collect()
    }

    #[test]
    fn checkers_agree_on_config_queries() {
        const MUL: u64 = 6364136223846793005;
        let mut cases = Vec::new();
        for seed in 0..5 {
            let s = drone_scene(seed, 24);
            let poses = lcg_poses(&s, 40, 0, MUL, seed + 1, 8);
            cases.push((s, poses, format!("24 obstacles, seed {seed}")));
        }
        // Denser scenes.
        for seed in [0u64, 9, 17] {
            let s = drone_scene(seed, 40);
            let state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
            let poses = lcg_poses(&s, 50, state, MUL, 1442695040888963407, 10);
            cases.push((s, poses, format!("40 obstacles, seed {seed}")));
        }
        // One long run of mixed free and colliding poses through one
        // checker.
        let s = drone_scene(13, 36);
        let poses = lcg_poses(&s, 120, 99, 2862933555777941757, 3037000493, 7);
        cases.push((s, poses, "36 obstacles, seed 13".to_string()));
        // A cluster of overlapping rotated boxes, swept by poses along
        // and beside its axis: bodies here leave several broad-phase
        // survivors, some colliding and some only AABB-overlapping, so the
        // batched narrow phase decides between multiple candidates.
        let mut s = drone_scene(5, 8);
        s.obstacles = (0..6)
            .map(|k| {
                let c = Vec3::new(120.0 + 12.0 * k as f64, 150.0, 150.0);
                Obb::from_euler(c, Vec3::new(10.0, 25.0, 4.0), 0.3 * k as f64, 0.5, 0.2)
            })
            .collect();
        let poses = (0..120)
            .map(|i| {
                let x = 90.0 + 1.5 * (i / 3) as f64;
                let off = 12.0 * (i % 3) as f64;
                Config::new(&[x, 140.0 + off, 150.0 - off, 0.2 * i as f64, 0.0, 0.0])
            })
            .collect();
        cases.push((s, poses, "overlapping cluster".to_string()));

        for (s, poses, label) in &cases {
            let naive = NaiveChecker::new(s.obstacles.clone());
            let two = TwoStageChecker::moped(s.obstacles.clone());
            let mut ln = CollisionLedger::default();
            let mut lt = CollisionLedger::default();
            for q in poses {
                assert_eq!(
                    naive.config_free(&s.robot, q, &mut ln),
                    two.config_free(&s.robot, q, &mut lt),
                    "disagreement at {q:?} ({label})"
                );
            }
        }
    }

    #[test]
    fn two_stage_is_cheaper_on_realistic_scenes() {
        let s = drone_scene(11, 48);
        let naive = NaiveChecker::new(s.obstacles.clone());
        let two = TwoStageChecker::moped(s.obstacles.clone());
        let mut ln = CollisionLedger::default();
        let mut lt = CollisionLedger::default();
        let steps = InterpolationSteps::default();
        let mut q = s.start;
        for t in 1..20 {
            let next = s.start.lerp(&s.goal, t as f64 / 20.0);
            let _ = naive.motion_free(&s.robot, &q, &next, &steps, &mut ln);
            let _ = two.motion_free(&s.robot, &q, &next, &steps, &mut lt);
            q = next;
        }
        let naive_cost = ln.total_ops().mac_equiv();
        let two_cost = lt.total_ops().mac_equiv();
        assert!(
            two_cost * 2 < naive_cost,
            "two-stage should save well over 2x here: {two_cost} vs {naive_cost}"
        );
    }

    #[test]
    fn aabb_only_is_conservative_wrt_exact() {
        // If AABB-only says free, exact must also say free.
        let s = drone_scene(3, 32);
        let loose = TwoStageChecker::new(s.obstacles.clone(), SecondStage::AabbOnly);
        let exact = TwoStageChecker::moped(s.obstacles.clone());
        let mut ll = CollisionLedger::default();
        let mut le = CollisionLedger::default();
        let mut state = 7u64;
        for _ in 0..60 {
            state = state
                .wrapping_mul(2862933555777941757)
                .wrapping_add(3037000493);
            let unit: Vec<f64> = (0..6)
                .map(|i| ((state >> (i * 9)) & 0x1FF) as f64 / 511.0)
                .collect();
            let q = s.robot.config_from_unit(&unit);
            if loose.config_free(&s.robot, &q, &mut ll) {
                assert!(
                    exact.config_free(&s.robot, &q, &mut le),
                    "AABB-only freed a config the exact checker rejects"
                );
            }
        }
    }

    #[test]
    fn motion_through_wall_detected() {
        let wall = Obb::axis_aligned(Vec3::new(150.0, 150.0, 150.0), Vec3::new(5.0, 120.0, 120.0));
        let robot = Robot::drone_3d();
        let from = Config::new(&[50.0, 150.0, 150.0, 0.0, 0.0, 0.0]);
        let to = Config::new(&[250.0, 150.0, 150.0, 0.0, 0.0, 0.0]);
        let steps = InterpolationSteps::default();
        let mut ledger = CollisionLedger::default();
        for checker in [
            Box::new(NaiveChecker::new(vec![wall])) as Box<dyn CollisionChecker>,
            Box::new(TwoStageChecker::moped(vec![wall])),
        ] {
            assert!(
                !checker.motion_free(&robot, &from, &to, &steps, &mut ledger),
                "{} missed the wall",
                checker.name()
            );
        }
    }

    #[test]
    fn short_free_motion_passes() {
        let s = drone_scene(5, 8);
        let two = TwoStageChecker::moped(s.obstacles.clone());
        let steps = InterpolationSteps::default();
        let mut ledger = CollisionLedger::default();
        // A tiny motion around the validated-free start pose.
        let mut to = s.start;
        to.as_mut_slice()[0] += 0.5;
        assert!(two.motion_free(&s.robot, &s.start, &to, &steps, &mut ledger));
        assert_eq!(ledger.motion_queries, 1);
        assert!(ledger.pose_queries >= 1);
    }

    #[test]
    fn ledger_separates_stages() {
        let s = drone_scene(2, 32);
        let two = TwoStageChecker::moped(s.obstacles.clone());
        let mut ledger = CollisionLedger::default();
        let steps = InterpolationSteps::default();
        let _ = two.motion_free(&s.robot, &s.start, &s.goal, &steps, &mut ledger);
        assert!(ledger.first_stage.sat_queries > 0, "first stage must run");
        // With 32 obstacles along a long motion, at least the filter stats
        // must register traffic.
        assert!(ledger.filter.total_checks() > 0);
    }

    #[test]
    fn arm_models_work_through_both_checkers() {
        for robot in [Robot::viperx_300(), Robot::rozum(), Robot::xarm7()] {
            let s = Scenario::generate(robot, &ScenarioParams::with_obstacles(16), 21);
            let naive = NaiveChecker::new(s.obstacles.clone());
            let two = TwoStageChecker::moped(s.obstacles.clone());
            let mut l1 = CollisionLedger::default();
            let mut l2 = CollisionLedger::default();
            let steps = InterpolationSteps::with_resolution(0.2);
            let a = naive.motion_free(&s.robot, &s.start, &s.goal, &steps, &mut l1);
            let b = two.motion_free(&s.robot, &s.start, &s.goal, &steps, &mut l2);
            assert_eq!(a, b, "{} checkers disagree", s.robot.name());
        }
    }

    /// Two threads checking one pose set through one shared checker each
    /// get the serial run's verdicts and ledger: the per-thread scratch
    /// carries nothing from one call, or one thread, into another.
    #[test]
    fn shared_checker_matches_serial_across_threads() {
        let s = drone_scene(13, 36);
        let poses = lcg_poses(&s, 120, 99, 2862933555777941757, 3037000493, 7);
        let checker = TwoStageChecker::moped(s.obstacles.clone());
        let run = || {
            let mut ledger = CollisionLedger::default();
            let verdicts: Vec<bool> = poses
                .iter()
                .map(|q| checker.config_free(&s.robot, q, &mut ledger))
                .collect();
            (verdicts, ledger)
        };
        let serial = run();
        assert!(serial.0.contains(&true) && serial.0.contains(&false));
        let (a, b) = std::thread::scope(|scope| {
            let a = scope.spawn(run);
            let b = scope.spawn(run);
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!(a, serial);
        assert_eq!(b, serial);
    }

    #[test]
    fn checker_names_are_stable() {
        assert_eq!(NaiveChecker::new(Vec::new()).name(), "naive-obb");
        assert_eq!(TwoStageChecker::moped(Vec::new()).name(), "two-stage-obb");
        assert_eq!(
            TwoStageChecker::new(Vec::new(), SecondStage::AabbOnly).name(),
            "two-stage-aabb-only"
        );
    }
}
