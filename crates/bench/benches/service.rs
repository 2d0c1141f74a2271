//! Service-layer throughput: wall-clock for a 32-request batch through
//! the worker pool at 1, 4, and 8 workers. Divide the batch size by the
//! reported mean to get plans/sec.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use moped_core::PlannerParams;
use moped_robot::Robot;
use moped_service::{EnvironmentCatalog, PlanRequest, PlanService, ServiceConfig};
use std::hint::black_box;

const BATCH: usize = 32;

fn run_batch(workers: usize) -> usize {
    let catalog = EnvironmentCatalog::standard(&Robot::mobile_2d());
    let env_ids: Vec<_> = catalog.ids().collect();
    let service = PlanService::start(
        catalog,
        ServiceConfig {
            workers,
            queue_capacity: BATCH,
            ..Default::default()
        },
    );
    let requests = (0..BATCH).map(|i| {
        let params = PlannerParams {
            max_samples: 300,
            seed: i as u64,
            ..PlannerParams::default()
        };
        PlanRequest::new(env_ids[i % env_ids.len()], params)
    });
    let responses = service.run_batch(requests);
    service.shutdown();
    responses
        .iter()
        .filter(|r| r.as_ref().is_ok_and(|o| o.is_served()))
        .count()
}

fn bench_worker_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("service_batch32");
    g.sample_size(10);
    for &workers in &[1usize, 4, 8] {
        g.bench_with_input(
            BenchmarkId::new("workers", workers),
            &workers,
            |b, &workers| b.iter(|| black_box(run_batch(workers))),
        );
    }
    g.finish();
}

criterion_group!(benches, bench_worker_scaling);
criterion_main!(benches);
