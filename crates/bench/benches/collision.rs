//! Criterion benchmarks for the collision-checking pipelines (Fig 6,
//! wall-clock view): naive all-pairs OBB-OBB vs the two-stage R-tree
//! scheme, across obstacle densities and robot models.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use moped_collision::{CollisionChecker, CollisionLedger, NaiveChecker, TwoStageChecker};
use moped_env::{Scenario, ScenarioParams};
use moped_geometry::InterpolationSteps;
use moped_robot::Robot;
use std::hint::black_box;

fn bench_config_checks(c: &mut Criterion) {
    let mut g = c.benchmark_group("config_check_drone");
    for &count in &[8usize, 48] {
        let s = Scenario::generate(Robot::drone_3d(), &ScenarioParams::with_obstacles(count), 9);
        let naive = NaiveChecker::new(s.obstacles.clone());
        let two = TwoStageChecker::moped(s.obstacles.clone());
        let q = s.start;
        g.bench_with_input(BenchmarkId::new("naive", count), &q, |b, q| {
            b.iter(|| {
                let mut ledger = CollisionLedger::default();
                black_box(naive.config_free(&s.robot, black_box(q), &mut ledger))
            })
        });
        g.bench_with_input(BenchmarkId::new("two_stage", count), &q, |b, q| {
            b.iter(|| {
                let mut ledger = CollisionLedger::default();
                black_box(two.config_free(&s.robot, black_box(q), &mut ledger))
            })
        });
    }
    g.finish();
}

fn bench_motion_checks(c: &mut Criterion) {
    let mut g = c.benchmark_group("motion_check_xarm7");
    let s = Scenario::generate(Robot::xarm7(), &ScenarioParams::with_obstacles(32), 4);
    let naive = NaiveChecker::new(s.obstacles.clone());
    let two = TwoStageChecker::moped(s.obstacles.clone());
    let steps = InterpolationSteps::with_resolution(0.1);
    let to = {
        let mut t = s.start;
        t.as_mut_slice()[0] += 0.3;
        t.as_mut_slice()[2] -= 0.2;
        t
    };
    g.bench_function("naive", |b| {
        b.iter(|| {
            let mut ledger = CollisionLedger::default();
            black_box(naive.motion_free(&s.robot, &s.start, black_box(&to), &steps, &mut ledger))
        })
    });
    g.bench_function("two_stage", |b| {
        b.iter(|| {
            let mut ledger = CollisionLedger::default();
            black_box(two.motion_free(&s.robot, &s.start, black_box(&to), &steps, &mut ledger))
        })
    });
    g.finish();
}

fn bench_rtree_build(c: &mut Criterion) {
    // Offline construction cost (excluded from runtime in the paper, but
    // worth tracking).
    let s = Scenario::generate(Robot::drone_3d(), &ScenarioParams::with_obstacles(48), 2);
    c.bench_function("rtree_build_48", |b| {
        b.iter(|| black_box(moped_rtree::RTree::build(black_box(&s.obstacles), 4)))
    });
}

fn bench_octree(c: &mut Criterion) {
    use moped_geometry::{OpCount, Vec3};
    let s = Scenario::generate(Robot::drone_3d(), &ScenarioParams::with_obstacles(32), 3);
    c.bench_function("octree_build_d7_32obs", |b| {
        b.iter(|| {
            black_box(moped_octree::Octree::build(
                black_box(&s.obstacles),
                Vec3::ZERO,
                moped_robot::WORKSPACE_EXTENT,
                7,
            ))
        })
    });
    let tree =
        moped_octree::Octree::build(&s.obstacles, Vec3::ZERO, moped_robot::WORKSPACE_EXTENT, 7);
    let body = s.robot.body_obbs(&s.start)[0];
    c.bench_function("octree_query_d7", |b| {
        b.iter(|| {
            let mut ops = OpCount::default();
            black_box(tree.intersects_obb(black_box(&body), &mut ops))
        })
    });
}

criterion_group!(
    benches,
    bench_config_checks,
    bench_motion_checks,
    bench_rtree_build,
    bench_octree
);
criterion_main!(benches);
