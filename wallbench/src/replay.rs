//! Kernel replay: the collision queries of one recorded plan re-run
//! through forward kinematics, the R-tree broad phase and the full
//! two-stage pose check in isolation, with tracing off, to price each
//! collision layer per call. The replay must reproduce the live plan's
//! collision ledger exactly, or its prices describe some other work.

use std::time::Instant;

use moped_collision::{CollisionChecker, CollisionLedger, TwoStageChecker};
use moped_geometry::{sat, Config, Obb, OpCount};
use moped_robot::Robot;
use moped_rtree::FilterStats;

use crate::timed::Query;

/// Per-call prices and the counts they were taken over.
#[derive(Clone, Debug, Default)]
pub struct KernelPrices {
    /// Forward kinematics (all body OBBs of the pose), ns per pose.
    pub fk_ns: f64,
    /// Broad phase (`filter_into` for each body the check reached), ns
    /// per pose.
    pub filter_ns: f64,
    /// The rest of the pose check — exact SAT on survivors plus
    /// dispatch — taken as the full two-stage `config_free` time minus
    /// FK and broad phase, ns per pose. The three add up to the pose
    /// check.
    pub narrow_ns: f64,
    /// Broad-phase calls issued.
    pub filter_calls: u64,
    /// Broad-phase calls that left at least one survivor.
    pub useful_filters: u64,
    /// Mismatches between replayed and live counts (empty when exact).
    pub mismatches: Vec<String>,
}

/// Timed passes per kernel; the median pass is reported.
const REPEATS: usize = 5;

/// Runs `f` `REPEATS` times and returns the median wall time in ns.
fn median_ns(mut f: impl FnMut()) -> f64 {
    let mut t: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let s = Instant::now();
            f();
            s.elapsed().as_nanos() as f64
        })
        .collect();
    t.sort_by(f64::total_cmp);
    t[REPEATS / 2]
}

/// Replays `queries` (one plan's, in issue order) against `checker` and
/// prices the layers; `live` is that plan's collision ledger.
pub fn replay(
    robot: &Robot,
    checker: &TwoStageChecker,
    queries: &[Query],
    live: &CollisionLedger,
) -> KernelPrices {
    // Discovery (untimed): expand motions into the exact pose sequence
    // `motion_free` checks, stopping each at its first colliding pose.
    checker.begin_plan();
    let mut ledger = CollisionLedger::default();
    let mut poses: Vec<Config> = Vec::new();
    for q in queries {
        match q {
            Query::Pose(p) => {
                poses.push(*p);
                checker.config_free(robot, p, &mut ledger);
            }
            Query::Motion(from, to, steps) => {
                ledger.motion_queries += 1;
                let n = steps.count(from.distance(to));
                for i in 1..=n {
                    let pose = if i == n {
                        *to
                    } else {
                        from.lerp(to, i as f64 / n as f64)
                    };
                    ledger.pose_queries += 1;
                    poses.push(pose);
                    if !checker.config_free(robot, &pose, &mut ledger) {
                        break;
                    }
                }
            }
        }
    }

    // Which bodies each pose's check reached: the two-stage check stops
    // at the first body with a true (exact) hit among its survivors.
    let rtree = checker.rtree();
    let obstacles = checker.obstacles();
    let mut stack = Vec::new();
    let mut survivors = Vec::new();
    let mut scratch = OpCount::default();
    let mut stats = FilterStats::default();
    let mut reached: Vec<Vec<Obb>> = Vec::with_capacity(poses.len());
    let (mut filter_calls, mut useful) = (0u64, 0u64);
    for p in &poses {
        let mut bodies = robot.body_obbs(p);
        let mut k = bodies.len();
        for (b, body) in bodies.iter().enumerate() {
            rtree.filter_into(body, &mut scratch, &mut stats, &mut stack, &mut survivors);
            filter_calls += 1;
            if survivors.is_empty() {
                continue;
            }
            useful += 1;
            if survivors
                .iter()
                .any(|&s| sat::obb_obb(&obstacles[s], body, &mut scratch))
            {
                k = b + 1;
                break;
            }
        }
        bodies.truncate(k);
        reached.push(bodies);
    }

    let mut mismatches = Vec::new();
    let mut expect = |what: &str, replayed: u64, live: u64| {
        if replayed != live {
            mismatches.push(format!("{what}: replayed {replayed} vs live {live}"));
        }
    };
    expect("motion_queries", ledger.motion_queries, live.motion_queries);
    expect("pose_queries", ledger.pose_queries, live.pose_queries);
    expect(
        "filter.node_checks",
        stats.node_checks,
        live.filter.node_checks,
    );
    expect(
        "second_stage.sat_queries",
        ledger.second_stage.sat_queries,
        live.second_stage.sat_queries,
    );

    // Timed passes, tracing off.
    let full_ns = median_ns(|| {
        checker.begin_plan();
        let mut l = CollisionLedger::default();
        for p in &poses {
            std::hint::black_box(checker.config_free(robot, p, &mut l));
        }
    });
    let mut bodies = Vec::new();
    let fk_ns = median_ns(|| {
        for p in &poses {
            robot.body_obbs_into(p, &mut bodies);
            std::hint::black_box(&bodies);
        }
    });
    let filter_ns = median_ns(|| {
        let mut ops = OpCount::default();
        let mut st = FilterStats::default();
        for body in reached.iter().flatten() {
            rtree.filter_into(body, &mut ops, &mut st, &mut stack, &mut survivors);
            std::hint::black_box(&survivors);
        }
    });

    let n = poses.len().max(1) as f64;
    KernelPrices {
        fk_ns: fk_ns / n,
        filter_ns: filter_ns / n,
        narrow_ns: (full_ns - fk_ns - filter_ns).max(0.0) / n,
        filter_calls,
        useful_filters: useful,
        mismatches,
    }
}
