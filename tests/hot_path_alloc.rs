//! Zero-allocation contract for the hot-path engine: after warm-up,
//! sampling, neighbor search and motion collision checking perform no
//! heap allocation at all. The flat SoA tree arena, the reusable depth-first
//! search stack, the checker scratch buffers, and the persistent search-stats
//! accumulator exist precisely so the per-query path is allocation-free —
//! this binary asserts that with a counting global allocator rather than
//! assuming it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use moped::collision::{CollisionChecker, CollisionLedger, TwoStageChecker};
use moped::core::{NeighborIndex, PlannerParams, SimbrIndex, Variant};
use moped::env::{Scenario, ScenarioParams};
use moped::geometry::{Config, InterpolationSteps, OpCount};
use moped::robot::Robot;
use moped::simbr::{SearchStats, SiMbrTree};
use rand::rngs::StdRng;
use rand::SeedableRng;

// ---------------------------------------------------------------------------
// Counting allocator: every heap allocation in this binary bumps a
// thread-local counter.
// ---------------------------------------------------------------------------

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: delegates verbatim to `System`; the counter touch is the only
// addition and `try_with` keeps it sound during thread teardown.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// A 6-DoF drone workload: the dimensionality the ISSUE targets and the
/// one where tree depth (and therefore scratch growth) is largest.
fn drone_scenario() -> Scenario {
    Scenario::generate(Robot::drone_3d(), &ScenarioParams::with_obstacles(32), 7)
}

fn drone_queries(s: &Scenario, n: usize) -> Vec<Config> {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let unit: Vec<f64> = (0..6)
                .map(|i| ((state >> (i * 10)) & 0x3FF) as f64 / 1023.0)
                .collect();
            s.robot.config_from_unit(&unit)
        })
        .collect()
}

#[test]
fn sampling_allocates_nothing_after_warmup() {
    // Every planner round draws `x_rand` through `Scenario::sample_any`,
    // which maps the unit draw through `Robot::config_from_unit`.
    let s = drone_scenario();
    let mut rng = StdRng::seed_from_u64(7);
    let _ = s.sample_any(&mut rng);
    let allocs = allocations_during(|| {
        for _ in 0..256 {
            let q = s.sample_any(&mut rng);
            assert!(s.robot.in_bounds(&q));
        }
    });
    assert_eq!(
        allocs, 0,
        "sampling must not touch the heap ({allocs} allocations over 256 samples)"
    );
}

#[test]
fn nearest_query_allocates_nothing_after_warmup() {
    let s = drone_scenario();
    let mut tree = SiMbrTree::new(6, 6);
    let mut ops = OpCount::default();
    let points = drone_queries(&s, 800);
    for (i, p) in points.iter().enumerate() {
        tree.insert_conventional(i as u64, *p, &mut ops);
    }
    let queries = drone_queries(&s, 64);
    let mut stats = SearchStats::default();

    // Warm-up: sizes the reusable search stack.
    for q in &queries {
        let _ = tree.nearest_with_stats(q, &mut ops, &mut stats);
    }
    let allocs = allocations_during(|| {
        for q in &queries {
            let got = tree.nearest_with_stats(q, &mut ops, &mut stats);
            assert!(got.is_some());
        }
    });
    assert_eq!(
        allocs, 0,
        "warm nearest queries must not touch the heap ({allocs} allocations over 64 queries)"
    );
}

#[test]
fn index_nearest_allocates_nothing() {
    // Through the planner-facing index: the persistent stats accumulator
    // still allows zero allocations.
    let s = drone_scenario();
    let points = drone_queries(&s, 600);
    let mut index = SimbrIndex::moped(6);
    let mut ops = OpCount::default();
    for (i, p) in points.iter().enumerate() {
        let hint = if i == 0 {
            None
        } else {
            index.nearest(p, &mut ops).map(|(id, _)| id)
        };
        index.insert(i as u64, *p, hint, &mut ops);
    }
    let queries = drone_queries(&s, 64);
    for q in &queries {
        let _ = index.nearest(q, &mut ops);
    }
    let allocs = allocations_during(|| {
        for q in &queries {
            let got = index.nearest(q, &mut ops);
            assert!(got.is_some());
        }
    });
    assert_eq!(
        allocs, 0,
        "warm index nearest must not touch the heap ({allocs} allocations over 64 queries)"
    );
}

#[test]
fn motion_check_allocates_nothing_after_warmup() {
    let s = drone_scenario();
    let checker = TwoStageChecker::moped(s.obstacles.clone());
    let steps = InterpolationSteps::default();
    let mut ledger = CollisionLedger::default();
    let endpoints = drone_queries(&s, 32);

    // Warm-up: sizes the body/stack/survivor scratch buffers.
    for pair in endpoints.windows(2) {
        let _ = checker.motion_free(&s.robot, &pair[0], &pair[1], &steps, &mut ledger);
    }
    let allocs = allocations_during(|| {
        for pair in endpoints.windows(2) {
            let _ = checker.motion_free(&s.robot, &pair[0], &pair[1], &steps, &mut ledger);
        }
    });
    assert_eq!(
        allocs, 0,
        "warm motion checks must not touch the heap ({allocs} allocations over 31 motions)"
    );
}

#[test]
fn config_check_allocates_nothing_on_mixed_poses() {
    // A mix of free and colliding poses runs both the broad phase alone
    // and the broad plus exact narrow phase; neither path may allocate.
    let s = drone_scenario();
    let checker = TwoStageChecker::moped(s.obstacles.clone());
    let mut ledger = CollisionLedger::default();
    let poses = drone_queries(&s, 128);
    for q in &poses {
        let _ = checker.config_free(&s.robot, q, &mut ledger);
    }
    let allocs = allocations_during(|| {
        for q in &poses {
            let _ = checker.config_free(&s.robot, q, &mut ledger);
        }
    });
    assert_eq!(
        allocs, 0,
        "warm config checks must not touch the heap ({allocs} allocations over 128 poses)"
    );
}

#[test]
fn planning_rounds_average_under_two_allocations() {
    // A whole drone-sparse RRT* plan, set-up included. What still
    // allocates: the SIAS neighborhood `Vec` of every accepted sample,
    // each new node's child list, and the amortized growth of the node
    // and index-arena vectors. The refinement candidate list is one
    // buffer reused by every round.
    let scenario = Scenario::generate(Robot::drone_3d(), &ScenarioParams::with_obstacles(8), 1);
    let checker = TwoStageChecker::moped(scenario.obstacles.clone());
    let params = PlannerParams {
        max_samples: 1_500,
        seed: 7,
        ..PlannerParams::default()
    };
    let mut planner = Variant::V4Lci
        .profile()
        .planner(&scenario, &checker, &params);
    let mut samples = 0;
    let allocs = allocations_during(|| samples = planner.plan().stats.samples);
    assert_eq!(samples, 1_500);
    assert!(
        allocs < 2 * samples as u64,
        "a planning round must average under 2 heap allocations \
         ({allocs} over {samples} rounds)"
    );
}
