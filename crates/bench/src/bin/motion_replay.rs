//! Motion-check kernel replay: prices `TwoStageChecker::motion_free`
//! against a per-pose reference on the motion stream of real plans, and
//! proves the two charge the same collision ledger.
//!
//! A drone-sparse plan (drone_3d among 8 generated obstacles, RRT\* at
//! 5 000 samples) and an arm-clutter plan (xarm7 on a corpus `clutter`
//! scene, 900 samples), both over the full MOPED stack, run once with a
//! recording checker that logs every `motion_free` call. Each log is then
//! replayed, with nothing else in the loop, through `motion_free` and
//! through a reference that checks every pose of
//! `InterpolationSteps::poses` with `config_free` and stops at the first
//! colliding one. The two are timed in alternating passes.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p moped-bench --bin motion_replay -- [--smoke]
//! ```
//!
//! Every replayed motion must give the reference's verdict and add the
//! reference's `CollisionLedger`, field for field; the binary exits
//! non-zero on any difference. It prints ns per motion for both, and the
//! fraction of motions (and of their poses) that the swept R-tree pass
//! resolves without per-pose work. A full run records scene seeds 1–4 of
//! each workload and reports the median of 11 passes; `--smoke` records
//! scene seed 1 and the drone plan at 1 500 samples, median of 3 (the
//! `scripts/verify.sh` step).
//!
//! The full run's ns columns cannot resolve a change under about 30% on
//! a shared 2-vCPU host without many alternating runs: ten runs of one
//! unchanged binary read drone-sparse `motion_free` 711–1 314 ns and
//! arm-clutter 4 433–8 700 ns. The median of 11 in-process passes does
//! not remove drift between processes.

use std::cell::RefCell;
use std::time::Instant;

use moped_collision::{CollisionChecker, CollisionLedger, TwoStageChecker};
use moped_core::{PlannerParams, PlannerProfile};
use moped_env::{Scenario, ScenarioParams};
use moped_geometry::{Config, InterpolationSteps};
use moped_robot::{Robot, RobotModel};
use moped_scenarios::{CorpusEntry, Family};

/// One recorded `motion_free` call.
#[derive(Clone, Copy)]
struct Motion {
    from: Config,
    to: Config,
    steps: InterpolationSteps,
}

/// Delegates to `inner` and appends every motion query to `log`.
struct Recording<'a> {
    inner: &'a TwoStageChecker,
    log: &'a RefCell<Vec<Motion>>,
}

impl CollisionChecker for Recording<'_> {
    fn config_free(&self, robot: &Robot, q: &Config, ledger: &mut CollisionLedger) -> bool {
        self.inner.config_free(robot, q, ledger)
    }

    fn motion_free(
        &self,
        robot: &Robot,
        from: &Config,
        to: &Config,
        steps: &InterpolationSteps,
        ledger: &mut CollisionLedger,
    ) -> bool {
        self.log.borrow_mut().push(Motion {
            from: *from,
            to: *to,
            steps: *steps,
        });
        self.inner.motion_free(robot, from, to, steps, ledger)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Planner seed of every recorded plan.
const PLANNER_SEED: u64 = 7;

/// Plans `scenario` with the MOPED stack and returns its motion log.
fn record(scenario: &Scenario, checker: &TwoStageChecker, samples: usize) -> Vec<Motion> {
    let log = RefCell::new(Vec::new());
    let recording = Recording {
        inner: checker,
        log: &log,
    };
    let params = PlannerParams {
        max_samples: samples,
        seed: PLANNER_SEED,
        ..PlannerParams::default()
    };
    PlannerProfile::static_default()
        .planner(scenario, &recording, &params)
        .plan();
    log.into_inner()
}

/// The per-pose reference motion check.
fn per_pose(
    checker: &TwoStageChecker,
    robot: &Robot,
    m: &Motion,
    ledger: &mut CollisionLedger,
) -> bool {
    ledger.motion_queries += 1;
    m.steps.poses(&m.from, &m.to).all(|pose| {
        ledger.pose_queries += 1;
        checker.config_free(robot, &pose, ledger)
    })
}

/// One workload's recorded scenes: each scene with its checker and log.
struct Workload {
    name: &'static str,
    scenes: Vec<(Scenario, TwoStageChecker, Vec<Motion>)>,
}

impl Workload {
    fn record(name: &'static str, scenarios: Vec<Scenario>, samples: usize) -> Workload {
        let scenes = scenarios
            .into_iter()
            .map(|s| {
                let checker = TwoStageChecker::moped(s.obstacles.clone());
                let log = record(&s, &checker, samples);
                (s, checker, log)
            })
            .collect();
        Workload { name, scenes }
    }

    fn motions(&self) -> usize {
        self.scenes.iter().map(|(_, _, log)| log.len()).sum()
    }

    /// Replays every motion through both checks with a fresh ledger
    /// each and returns the motions whose verdict or ledger differ.
    fn mismatches(&self) -> usize {
        let mut bad = 0;
        for (s, checker, log) in &self.scenes {
            for m in log {
                let (mut a, mut b) = (CollisionLedger::default(), CollisionLedger::default());
                let va = checker.motion_free(&s.robot, &m.from, &m.to, &m.steps, &mut a);
                let vb = per_pose(checker, &s.robot, m, &mut b);
                if va != vb || a != b {
                    bad += 1;
                    if bad <= 3 {
                        eprintln!(
                            "motion_replay: {} {:?} → {:?}: motion_free {va} {a:?}, \
                             per-pose {vb} {b:?}",
                            self.name, m.from, m.to
                        );
                    }
                }
            }
        }
        bad
    }

    /// The swept pass's share of motions and of the reference's poses.
    fn resolved_fractions(&self) -> (f64, f64) {
        let (mut motions, mut poses, mut all_poses) = (0usize, 0u64, 0u64);
        for (s, checker, log) in &self.scenes {
            for m in log {
                let mut l = CollisionLedger::default();
                per_pose(checker, &s.robot, m, &mut l);
                all_poses += l.pose_queries;
                if checker.swept_pass(&s.robot, &m.from, &m.to).is_some() {
                    motions += 1;
                    poses += l.pose_queries;
                }
            }
        }
        (
            motions as f64 / self.motions().max(1) as f64,
            poses as f64 / all_poses.max(1) as f64,
        )
    }

    /// Wall time of one pass over every motion, in ns.
    fn pass_ns(&self, swept: bool) -> u64 {
        let start = Instant::now();
        for (s, checker, log) in &self.scenes {
            let mut ledger = CollisionLedger::default();
            for m in log {
                let free = if swept {
                    checker.motion_free(&s.robot, &m.from, &m.to, &m.steps, &mut ledger)
                } else {
                    per_pose(checker, &s.robot, m, &mut ledger)
                };
                std::hint::black_box(free);
            }
            std::hint::black_box(&ledger);
        }
        start.elapsed().as_nanos() as u64
    }

    /// Median ns per motion of `motion_free` and of the reference, from
    /// `passes` passes of each in alternating order.
    fn timings(&self, passes: usize) -> (f64, f64) {
        let (mut swept, mut reference) = (Vec::new(), Vec::new());
        for p in 0..passes {
            for swept_pass in [p % 2 == 0, p % 2 != 0] {
                let ns = self.pass_ns(swept_pass);
                let times = if swept_pass {
                    &mut swept
                } else {
                    &mut reference
                };
                times.push(ns);
            }
        }
        let per_motion = |v: &mut Vec<u64>| {
            v.sort_unstable();
            v[v.len() / 2] as f64 / self.motions().max(1) as f64
        };
        (per_motion(&mut swept), per_motion(&mut reference))
    }
}

fn main() {
    let smoke = std::env::args().skip(1).any(|a| a == "--smoke");
    let (scene_seeds, drone_samples, passes) = if smoke {
        (1..=1, 1_500, 3)
    } else {
        (1..=4, 5_000, 11)
    };
    let drone: Vec<Scenario> = scene_seeds
        .clone()
        .map(|seed| Scenario::generate(Robot::drone_3d(), &ScenarioParams::with_obstacles(8), seed))
        .collect();
    let arm: Vec<Scenario> = scene_seeds
        .clone()
        .map(|seed| CorpusEntry::new(Family::Clutter, RobotModel::XArm7, seed).build())
        .collect();
    let workloads = [
        Workload::record("drone-sparse", drone, drone_samples),
        Workload::record("arm-clutter", arm, 900),
    ];

    println!(
        "motion_replay: scenes {scene_seeds:?}, planner seed {PLANNER_SEED}, median of {passes} \
         alternating passes"
    );
    println!(
        "{:<14} {:>8} {:>14} {:>14} {:>8} {:>14} {:>14} {:>10}",
        "workload",
        "motions",
        "motion_free_ns",
        "per_pose_ns",
        "speedup",
        "resolved_frac",
        "skipped_poses",
        "mismatches"
    );
    let mut failed = 0;
    for w in &workloads {
        let bad = w.mismatches();
        failed += bad;
        let (motions, poses) = w.resolved_fractions();
        let (swept, reference) = w.timings(passes);
        println!(
            "{:<14} {:>8} {:>14.0} {:>14.0} {:>7.2}x {:>14.3} {:>14.3} {:>10}",
            w.name,
            w.motions(),
            swept,
            reference,
            reference / swept.max(1.0),
            motions,
            poses,
            bad
        );
    }
    if failed > 0 {
        eprintln!(
            "motion_replay: FAIL — {failed} motions' verdict or collision ledger differ from the \
             per-pose reference"
        );
        std::process::exit(1);
    }
}
