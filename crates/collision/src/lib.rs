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
//!   (stage 1); only survivors get the exact OBB–OBB check (stage 2).
//! * [`TwoStageChecker`] in [`SecondStage::AabbOnly`] mode — the Fig 18
//!   ablation: survivors of the first stage are *declared* collisions
//!   (loose, conservative), trading path quality for check cost.
//!
//! All work is charged to a [`CollisionLedger`] so the Fig 6 / Fig 18
//! comparisons come from counted operations.

#![deny(missing_docs)]

use std::fmt;

use moped_geometry::{sat, Config, InterpolationSteps, Obb, OpCount, Vec3};
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
    /// The default implementation interpolates poses and checks each one,
    /// failing fast on the first colliding pose.
    fn motion_free(
        &self,
        robot: &Robot,
        from: &Config,
        to: &Config,
        steps: &InterpolationSteps,
        ledger: &mut CollisionLedger,
    ) -> bool {
        let _span = moped_obs::span(moped_obs::Stage::Collision);
        ledger.motion_queries += 1;
        // Poses are generated in place (same sequence as
        // [`moped_geometry::interpolate`]) so the hot loop never allocates.
        let n = steps.count(from.distance(to));
        for i in 1..=n {
            let pose = if i == n {
                *to
            } else {
                from.lerp(to, i as f64 / n as f64)
            };
            ledger.pose_queries += 1;
            if !self.config_free(robot, &pose, ledger) {
                return false;
            }
        }
        true
    }

    /// Clears transient acceleration state (e.g. last-hit caches) so a
    /// fresh plan's *operation counts* do not depend on earlier queries
    /// against the same shared checker. Verdicts never depend on this
    /// state; planners call it once at the start of each plan.
    fn begin_plan(&self) {}

    /// Short descriptive name for reports.
    fn name(&self) -> &'static str;
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
        let _span = moped_obs::span(moped_obs::Stage::Collision);
        let mut bodies = self.bodies.borrow_mut();
        robot.body_obbs_into(q, &mut bodies);
        let _narrow = moped_obs::span(moped_obs::Stage::NarrowPhase);
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
        let _span = moped_obs::span(moped_obs::Stage::Collision);
        let mut bodies = self.bodies.borrow_mut();
        robot.body_obbs_into(q, &mut bodies);
        let _broad = moped_obs::span(moped_obs::Stage::BroadPhase);
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

/// Narrow-phase kernel selection for [`TwoStageChecker`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NarrowMode {
    /// The pre-rewrite path: one early-exit 15-axis SAT per survivor,
    /// obstacle data gathered from the AoS obstacle list. Kept as the
    /// old-vs-new baseline for the benches.
    Reference,
    /// Batched SAT over the precomputed SoA obstacle field: survivors are
    /// processed in [`sat::SAT_BATCH`]-wide chunks of branch-free
    /// full-axis lanes, with the body's axes prepared once per pose.
    /// Returns the same verdicts (any-hit semantics) as `Reference`.
    Batched,
}

/// MOPED's two-stage checker (§III-A): R-tree AABB filter, then exact
/// OBB–OBB on survivors.
///
/// The obstacle field is held as a precomputed structure-of-arrays
/// ([`sat::ObbSoa`]): centers, half-extents, and rotation axes are
/// extracted once at construction, so the narrow phase streams plain
/// `f64` lanes instead of re-deriving axes per test. In
/// [`NarrowMode::Batched`] + [`SecondStage::ObbExact`] a *last-hit cache*
/// remembers the obstacle that most recently caused a collision and, when
/// that obstacle survives the broad phase again, moves it to the front of
/// the survivor list — colliding poses cluster on the same obstacle, so
/// the batched SAT terminates on its first chunk. The reorder is free (a
/// swap) and verdict-preserving: any-hit semantics do not depend on
/// survivor order. See DESIGN §10 for why the earlier probe-before-
/// broad-phase design was a net loss on planner workloads.
#[derive(Clone, Debug)]
pub struct TwoStageChecker {
    rtree: RTree,
    soa: sat::ObbSoa,
    second: SecondStage,
    narrow: NarrowMode,
    last_hit: std::cell::Cell<Option<usize>>,
    cache_hits: std::cell::Cell<u64>,
    cache_misses: std::cell::Cell<u64>,
    scratch: std::cell::RefCell<TwoStageScratch>,
}

#[derive(Clone, Debug, Default)]
struct TwoStageScratch {
    bodies: Vec<Obb>,
    stack: Vec<usize>,
    survivors: Vec<usize>,
}

impl TwoStageChecker {
    /// Builds the checker, bulk-loading the obstacle R-tree offline with
    /// the given fanout (paper-style small node, default choice is 4).
    pub fn new(obstacles: Vec<Obb>, fanout: usize, second: SecondStage) -> Self {
        let rtree = RTree::build(&obstacles, fanout);
        TwoStageChecker::with_prebuilt(rtree, obstacles, second)
    }

    /// Convenience constructor with the default fanout and exact second
    /// stage.
    pub fn moped(obstacles: Vec<Obb>) -> Self {
        TwoStageChecker::new(obstacles, 4, SecondStage::ObbExact)
    }

    /// Wraps an R-tree that was already bulk-loaded over exactly
    /// `obstacles` (same order). A serving layer pays the STR build once
    /// per environment snapshot and hands each worker a cheap structural
    /// clone instead of re-sorting the obstacle field per request.
    pub fn with_prebuilt(rtree: RTree, obstacles: Vec<Obb>, second: SecondStage) -> Self {
        TwoStageChecker::with_prebuilt_soa(rtree, sat::ObbSoa::build(obstacles), second)
    }

    /// Like [`TwoStageChecker::with_prebuilt`], but also reuses an
    /// already-extracted SoA obstacle field (see
    /// `moped_env::Scenario::prepared_obstacles`), so per-worker checker
    /// construction copies flat arrays instead of re-deriving axes.
    pub fn with_prebuilt_soa(rtree: RTree, soa: sat::ObbSoa, second: SecondStage) -> Self {
        debug_assert_eq!(rtree.len(), soa.len(), "rtree/obstacle mismatch");
        TwoStageChecker {
            rtree,
            soa,
            second,
            narrow: NarrowMode::Batched,
            last_hit: std::cell::Cell::new(None),
            cache_hits: std::cell::Cell::new(0),
            cache_misses: std::cell::Cell::new(0),
            scratch: std::cell::RefCell::new(TwoStageScratch::default()),
        }
    }

    /// Selects the narrow-phase kernel (builder style); the default is
    /// [`NarrowMode::Batched`].
    pub fn with_narrow_mode(mut self, narrow: NarrowMode) -> Self {
        self.narrow = narrow;
        self
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

    /// The configured narrow-phase kernel.
    pub fn narrow_mode(&self) -> NarrowMode {
        self.narrow
    }

    /// Last-hit cache `(hits, misses)` since construction. A hit is a
    /// colliding pose resolved by the front-loaded cached obstacle; a
    /// miss is a cached entry that failed to recur (the pose was free or
    /// a different obstacle collided). Misses cost nothing — the cache
    /// only reorders work the pipeline was doing anyway.
    pub fn narrow_cache_stats(&self) -> (u64, u64) {
        (self.cache_hits.get(), self.cache_misses.get())
    }

    /// Whether the last-hit cache is live under the current configuration.
    fn cache_enabled(&self) -> bool {
        self.narrow == NarrowMode::Batched && self.second == SecondStage::ObbExact
    }
}

impl CollisionChecker for TwoStageChecker {
    fn config_free(&self, robot: &Robot, q: &Config, ledger: &mut CollisionLedger) -> bool {
        let _span = moped_obs::span(moped_obs::Stage::Collision);
        let scratch = &mut *self.scratch.borrow_mut();
        robot.body_obbs_into(q, &mut scratch.bodies);

        for body in &scratch.bodies {
            // Stage 1: hierarchical AABB filter (spanned as broad-phase
            // inside `RTree::filter_into`).
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
                    let _narrow = moped_obs::span(moped_obs::Stage::NarrowPhase);
                    match self.narrow {
                        NarrowMode::Batched => {
                            // Cost-free last-hit reuse: front-load the
                            // cached obstacle so a recurring collision
                            // resolves in the first SAT chunk. A swap
                            // never changes the any-hit verdict.
                            if self.cache_enabled() {
                                if let Some(prev) = self.last_hit.get() {
                                    if let Some(pos) =
                                        scratch.survivors.iter().position(|&s| s == prev)
                                    {
                                        scratch.survivors.swap(0, pos);
                                    }
                                }
                            }
                            let pre = sat::prepare(body);
                            for &oid in &scratch.survivors {
                                ledger.second_stage.mem_words += self.soa.get(oid).encoded_words();
                            }
                            if let Some(oid) = sat::obb_obb_batch(
                                &self.soa,
                                &scratch.survivors,
                                &pre,
                                &mut ledger.second_stage,
                            ) {
                                if self.cache_enabled() {
                                    match self.last_hit.get() {
                                        Some(prev) if prev == oid => {
                                            self.cache_hits.set(self.cache_hits.get() + 1);
                                            moped_obs::counters::bump(
                                                moped_obs::Counter::LeafCacheHit,
                                            );
                                        }
                                        Some(_) => {
                                            self.cache_misses.set(self.cache_misses.get() + 1);
                                            moped_obs::counters::bump(
                                                moped_obs::Counter::LeafCacheMiss,
                                            );
                                        }
                                        None => {}
                                    }
                                    self.last_hit.set(Some(oid));
                                }
                                return false;
                            }
                        }
                        NarrowMode::Reference => {
                            for &oid in &scratch.survivors {
                                let obs = self.soa.get(oid);
                                ledger.second_stage.mem_words += obs.encoded_words();
                                if sat::obb_obb(obs, body, &mut ledger.second_stage) {
                                    return false;
                                }
                            }
                        }
                    }
                }
            }
        }
        // Free pose: a lingering cache entry failed to recur. Retire it
        // (and count the miss) so the stats reflect real reuse.
        if self.cache_enabled() && self.last_hit.take().is_some() {
            self.cache_misses.set(self.cache_misses.get() + 1);
            moped_obs::counters::bump(moped_obs::Counter::LeafCacheMiss);
        }
        true
    }

    fn begin_plan(&self) {
        self.last_hit.set(None);
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

    #[test]
    fn checkers_agree_on_config_queries() {
        for seed in 0..5 {
            let s = drone_scene(seed, 24);
            let naive = NaiveChecker::new(s.obstacles.clone());
            let two = TwoStageChecker::moped(s.obstacles.clone());
            let mut ln = CollisionLedger::default();
            let mut lt = CollisionLedger::default();
            let mut rng_like = 0u64;
            for _ in 0..40 {
                rng_like = rng_like
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(seed + 1);
                let unit: Vec<f64> = (0..6)
                    .map(|i| ((rng_like >> (i * 8)) & 0xFF) as f64 / 255.0)
                    .collect();
                let q = s.robot.config_from_unit(&unit);
                assert_eq!(
                    naive.config_free(&s.robot, &q, &mut ln),
                    two.config_free(&s.robot, &q, &mut lt),
                    "disagreement at {q:?} (seed {seed})"
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
        let loose = TwoStageChecker::new(s.obstacles.clone(), 4, SecondStage::AabbOnly);
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

    #[test]
    fn batched_narrow_phase_matches_reference_verdicts() {
        for seed in [0u64, 9, 17] {
            let s = drone_scene(seed, 40);
            let batched = TwoStageChecker::moped(s.obstacles.clone());
            let reference =
                TwoStageChecker::moped(s.obstacles.clone()).with_narrow_mode(NarrowMode::Reference);
            assert_eq!(batched.narrow_mode(), NarrowMode::Batched);
            let mut lb = CollisionLedger::default();
            let mut lr = CollisionLedger::default();
            let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
            for _ in 0..50 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let unit: Vec<f64> = (0..6)
                    .map(|i| ((state >> (i * 10)) & 0x3FF) as f64 / 1023.0)
                    .collect();
                let q = s.robot.config_from_unit(&unit);
                assert_eq!(
                    batched.config_free(&s.robot, &q, &mut lb),
                    reference.config_free(&s.robot, &q, &mut lr),
                    "narrow kernels disagree at {q:?} (seed {seed})"
                );
            }
        }
    }

    #[test]
    fn last_hit_cache_short_circuits_repeat_collisions() {
        let wall = Obb::axis_aligned(Vec3::new(150.0, 150.0, 150.0), Vec3::new(5.0, 120.0, 120.0));
        let two = TwoStageChecker::moped(vec![wall]);
        let robot = Robot::drone_3d();
        let mut ledger = CollisionLedger::default();
        // Poses inside the wall: the first collision populates the cache,
        // each further one is answered by the cached obstacle alone.
        for y in 0..10 {
            let q = Config::new(&[150.0, 100.0 + 10.0 * y as f64, 150.0, 0.0, 0.0, 0.0]);
            assert!(!two.config_free(&robot, &q, &mut ledger));
        }
        let (hits, misses) = two.narrow_cache_stats();
        assert_eq!(hits, 9, "every pose after the first should hit the cache");
        assert_eq!(misses, 0);
        // A free pose far away invalidates the entry exactly once.
        let free = Config::new(&[20.0, 20.0, 20.0, 0.0, 0.0, 0.0]);
        assert!(two.config_free(&robot, &free, &mut ledger));
        assert_eq!(two.narrow_cache_stats(), (9, 1));
        assert!(two.config_free(&robot, &free, &mut ledger));
        assert_eq!(
            two.narrow_cache_stats(),
            (9, 1),
            "an empty cache must not be consulted again"
        );
    }

    #[test]
    fn cached_verdicts_agree_with_naive_on_mixed_sequences() {
        // Alternating free/colliding poses exercise every cache
        // transition; verdicts must still match the all-pairs baseline.
        let s = drone_scene(13, 36);
        let naive = NaiveChecker::new(s.obstacles.clone());
        let two = TwoStageChecker::moped(s.obstacles.clone());
        let mut ln = CollisionLedger::default();
        let mut lt = CollisionLedger::default();
        let mut state = 99u64;
        for _ in 0..120 {
            state = state
                .wrapping_mul(2862933555777941757)
                .wrapping_add(3037000493);
            let unit: Vec<f64> = (0..6)
                .map(|i| ((state >> (i * 7)) & 0x7F) as f64 / 127.0)
                .collect();
            let q = s.robot.config_from_unit(&unit);
            assert_eq!(
                naive.config_free(&s.robot, &q, &mut ln),
                two.config_free(&s.robot, &q, &mut lt),
                "cached two-stage diverged at {q:?}"
            );
        }
    }

    #[test]
    fn checker_names_are_stable() {
        assert_eq!(NaiveChecker::new(Vec::new()).name(), "naive-obb");
        assert_eq!(TwoStageChecker::moped(Vec::new()).name(), "two-stage-obb");
        assert_eq!(
            TwoStageChecker::new(Vec::new(), 4, SecondStage::AabbOnly).name(),
            "two-stage-aabb-only"
        );
    }
}
