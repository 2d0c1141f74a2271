//! Fault-tolerance demo: chaos-inject panics and latency into the
//! serving layer and watch it hold its contract.
//!
//! A 24-request batch runs against a fault plan that panics every 5th
//! plan and delays every 7th. Every ticket still resolves: a panicked
//! request as a typed failure, the rest with deterministic results. The
//! worker that caught a panic goes on serving the next job.
//!
//! Run with: `cargo run --release --example service_faults`

use std::sync::Arc;
use std::time::Duration;

use moped::core::PlannerParams;
use moped::robot::RobotModel;
use moped::scenarios::{CorpusEntry, Family};
use moped::service::{
    EnvironmentCatalog, FaultPlan, FaultSite, PlanOutcome, PlanRequest, PlanService, ServiceConfig,
};

fn main() {
    // The five mobile-robot corpus scenes, served under their corpus ids.
    let mut catalog = EnvironmentCatalog::new();
    for family in Family::ALL {
        let scene = CorpusEntry::new(family, RobotModel::Mobile2d, 1);
        catalog.register(scene.id(), scene.build());
    }
    let env_ids: Vec<_> = catalog.ids().collect();
    let names: Vec<String> = env_ids
        .iter()
        .map(|&id| catalog.get(id).unwrap().name.clone())
        .collect();

    // The chaos plan: every 5th plan panics (caught by the per-job
    // guard) and every 7th gains 5ms of artificial latency.
    let faults = Arc::new(
        FaultPlan::new()
            .panic_every(FaultSite::Planning, 5)
            .delay_every(FaultSite::Planning, Duration::from_millis(5), 7),
    );
    let config = ServiceConfig {
        workers: 4,
        queue_capacity: 64,
        faults: Some(faults),
        tuner: None,
    };
    let workers = config.workers;
    let service = PlanService::start(catalog, config);
    println!(
        "serving {} environments on {} workers, chaos plan armed\n",
        env_ids.len(),
        workers
    );

    let requests: Vec<PlanRequest> = (0..24u64)
        .map(|i| {
            let params = PlannerParams {
                max_samples: 500,
                seed: i,
                ..Default::default()
            };
            PlanRequest::new(env_ids[i as usize % env_ids.len()], params)
        })
        .collect();

    let outcomes = service.run_batch(requests);
    println!(" req  environment                  resolution        worker    cost      samples");
    for (i, outcome) in outcomes.iter().enumerate() {
        match outcome {
            Ok(PlanOutcome::Served(r)) => println!(
                "{:4}  {:27}  {:16} {:9}  {:8.1}  {:7}",
                r.id,
                names[i % names.len()],
                "served",
                r.worker,
                r.result.path_cost,
                r.result.stats.samples,
            ),
            Ok(PlanOutcome::Failed(f)) => println!(
                "{:4}  {:27}  {:16} {:9}  ({})",
                f.id,
                names[i % names.len()],
                "failed",
                "-",
                f.reason,
            ),
            Err(reason) => println!("{i:4}  rejected: {reason}"),
        }
    }

    let metrics = service.shutdown();
    println!("\n--- metrics ---\n{}", metrics.dump_text());
}
