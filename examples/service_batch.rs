//! Batch serving demo: 32 plan requests scheduled across 4 workers.
//!
//! Demonstrates the service layer end to end — admission into the bounded
//! queue, deterministic per-seed planning against shared environment
//! snapshots, one deadline-limited request answered with its best-so-far
//! result, and the metrics dump.
//!
//! Run with: `cargo run --release --example service_batch`

use std::time::Duration;

use moped::core::PlannerParams;
use moped::robot::RobotModel;
use moped::scenarios::{CorpusEntry, Family};
use moped::service::{
    EnvironmentCatalog, Outcome, PlanOutcome, PlanRequest, PlanService, ServiceConfig,
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

    let config = ServiceConfig {
        workers: 4,
        queue_capacity: 64,
        ..Default::default()
    };
    let workers = config.workers;
    let service = PlanService::start(catalog, config);
    println!(
        "serving {} environments on {} workers\n",
        env_ids.len(),
        workers
    );

    // 32 requests round-robined over the catalog, each with its own seed.
    // Request 7 gets a 2ms deadline against a huge sampling budget — it
    // must come back early with whatever tree it grew.
    let mut requests = Vec::new();
    for i in 0..32u64 {
        let env = env_ids[i as usize % env_ids.len()];
        let params = PlannerParams {
            max_samples: 800,
            seed: i,
            ..Default::default()
        };
        let req = if i == 7 {
            let big = PlannerParams {
                max_samples: 50_000_000,
                seed: i,
                ..Default::default()
            };
            PlanRequest::new(env, big).with_deadline(Duration::from_millis(2))
        } else {
            PlanRequest::new(env, params)
        };
        requests.push(req);
    }

    let responses = service.run_batch(requests);
    println!(
        " req  environment                  outcome          solved  cost      samples  worker"
    );
    for (i, resp) in responses.iter().enumerate() {
        match resp {
            Ok(PlanOutcome::Served(r)) => {
                let outcome = match r.outcome {
                    Outcome::Completed => "completed",
                    Outcome::DeadlineExpired => "deadline-expired",
                    Outcome::Cancelled => "cancelled",
                };
                println!(
                    "{:4}  {:27}  {:16} {:6}  {:8.1}  {:7}  {:6}",
                    r.id,
                    names[i % names.len()],
                    outcome,
                    r.result.solved(),
                    r.result.path_cost,
                    r.result.stats.samples,
                    r.worker,
                );
            }
            Ok(PlanOutcome::Failed(f)) => println!("{:4}  failed: {}", f.id, f.reason),
            Err(reason) => println!("{i:4}  rejected: {reason}"),
        }
    }

    let metrics = service.shutdown();
    println!("\n--- metrics ---\n{}", metrics.dump_text());
}
