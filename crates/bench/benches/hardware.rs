//! Criterion benchmarks for the hardware-model kernels: the S&R pipeline
//! simulator, the LFSR samplers, and fixed-point quantization.

use criterion::{criterion_group, criterion_main, Criterion};
use moped_geometry::Config;
use moped_hw::fixed::QFormat;
use moped_hw::lfsr::{ConfigSampler, Lfsr16};
use moped_hw::{perf, pipeline};
use moped_robot::Robot;
use std::hint::black_box;

fn bench_pipeline(c: &mut Criterion) {
    let trace = perf::synthetic_trace(5000, 480, 520, 200, 64);
    let rounds = pipeline::rounds_from_trace(&trace);
    c.bench_function("sr_pipeline_5000_rounds", |b| {
        b.iter(|| black_box(pipeline::simulate(black_box(&rounds))))
    });
}

fn bench_lfsr(c: &mut Criterion) {
    c.bench_function("lfsr16_step", |b| {
        let mut l = Lfsr16::new(0xACE1);
        b.iter(|| black_box(l.next_u16()))
    });
    c.bench_function("config_sample_7d", |b| {
        let robot = Robot::xarm7();
        let mut s = ConfigSampler::new(7, 0x77);
        b.iter(|| black_box(s.sample(&robot)))
    });
}

fn bench_fixed(c: &mut Criterion) {
    let q = Config::new(&[10.3, -20.7, 150.0, 3.17, -2.71, 99.9, 0.001]);
    c.bench_function("quantize_config_7d", |b| {
        b.iter(|| black_box(QFormat::WORKSPACE.roundtrip_config(black_box(&q))))
    });
}

fn bench_satq(c: &mut Criterion) {
    use moped_geometry::{Mat3, Obb, OpCount, Vec3};
    use moped_hw::satq::{obb_obb_q, QObb};
    let a = Obb::new(
        Vec3::new(10.0, 20.0, 20.0),
        Vec3::new(3.0, 2.0, 1.5),
        Mat3::from_euler(0.4, 0.3, -0.2),
    );
    let b_near = Obb::new(
        Vec3::new(12.0, 20.5, 19.5),
        Vec3::new(2.0, 2.0, 2.0),
        Mat3::from_euler(-0.7, 0.1, 0.9),
    );
    let (qa, qb) = (QObb::from_obb(&a), QObb::from_obb(&b_near));
    let mut g = c.benchmark_group("sat_datapath");
    g.bench_function("float64", |bch| {
        bch.iter(|| {
            let mut ops = OpCount::default();
            black_box(moped_geometry::sat::obb_obb(
                black_box(&a),
                black_box(&b_near),
                &mut ops,
            ))
        })
    });
    g.bench_function("fixed16", |bch| {
        bch.iter(|| {
            let mut ops = OpCount::default();
            black_box(obb_obb_q(black_box(&qa), black_box(&qb), &mut ops))
        })
    });
    g.finish();
}

criterion_group!(benches, bench_pipeline, bench_lfsr, bench_fixed, bench_satq);
criterion_main!(benches);
