//! Criterion benchmarks for the end-to-end planners (Fig 16 bottom,
//! wall-clock view): the V0 baseline vs the full MOPED V4 stack.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use moped_core::{PlannerParams, Variant};
use moped_env::{Scenario, ScenarioParams};
use moped_robot::Robot;
use std::hint::black_box;

fn bench_variants(c: &mut Criterion) {
    let mut g = c.benchmark_group("plan_300_samples");
    g.sample_size(10);
    for robot in [Robot::mobile_2d(), Robot::drone_3d(), Robot::xarm7()] {
        let s = Scenario::generate(robot.clone(), &ScenarioParams::with_obstacles(16), 7);
        let params = PlannerParams {
            max_samples: 300,
            seed: 3,
            ..PlannerParams::default()
        };
        for variant in [Variant::V0Baseline, Variant::V1Tsps, Variant::V4Lci] {
            g.bench_with_input(
                BenchmarkId::new(format!("{variant}"), robot.name()),
                &s,
                |b, s| b.iter(|| black_box(variant.profile().plan(black_box(s), &params))),
            );
        }
    }
    g.finish();
}

fn bench_scaling(c: &mut Criterion) {
    // How wall-clock scales with the sampling budget (Fig 19 left trend).
    let mut g = c.benchmark_group("budget_scaling_mobile2d");
    g.sample_size(10);
    let s = Scenario::generate(Robot::mobile_2d(), &ScenarioParams::with_obstacles(16), 11);
    for &samples in &[200usize, 400, 800] {
        let params = PlannerParams {
            max_samples: samples,
            seed: 5,
            ..PlannerParams::default()
        };
        g.bench_with_input(BenchmarkId::new("v4", samples), &s, |b, s| {
            b.iter(|| black_box(Variant::V4Lci.profile().plan(black_box(s), &params)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_variants, bench_scaling);
criterion_main!(benches);
