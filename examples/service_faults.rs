//! Fault-tolerance demo: chaos-inject panics, worker kills, and latency
//! into the serving layer and watch it hold its contract.
//!
//! A 24-request batch runs against a fault plan that panics every 5th
//! planning attempt, kills one worker outright, and delays every 7th
//! attempt — with a retry policy that absorbs transient faults. Every
//! ticket still resolves, non-faulted results stay deterministic, and
//! the supervisor respawns the killed worker so the pool ends at full
//! capacity.
//!
//! Run with: `cargo run --release --example service_faults`

use std::sync::Arc;
use std::time::Duration;

use moped::core::PlannerParams;
use moped::robot::Robot;
use moped::service::{
    EnvironmentCatalog, FaultPlan, FaultSite, PlanOutcome, PlanRequest, PlanService, RetryPolicy,
    ServiceConfig,
};

fn main() {
    let catalog = EnvironmentCatalog::standard(&Robot::mobile_2d());
    let env_ids: Vec<_> = catalog.ids().collect();
    let names: Vec<String> = env_ids
        .iter()
        .map(|&id| catalog.get(id).unwrap().name.clone())
        .collect();

    // The chaos plan: every 5th planning attempt panics (caught by the
    // per-job guard), the 4th dequeue kills its worker outright
    // (supervisor respawns it), and every 7th attempt gains 5ms of
    // artificial latency.
    let faults = Arc::new(
        FaultPlan::new()
            .panic_every(FaultSite::Planning, 5)
            .kill_worker_every(4, 1)
            .delay_every(FaultSite::Planning, Duration::from_millis(5), 7),
    );
    let config = ServiceConfig {
        workers: 4,
        queue_capacity: 64,
        retry: RetryPolicy::attempts(2).with_backoff(Duration::from_millis(1)),
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
    println!(" req  environment       resolution        attempts  cost      samples");
    for (i, outcome) in outcomes.iter().enumerate() {
        match outcome {
            Ok(PlanOutcome::Served(r)) => println!(
                "{:4}  {:16}  {:16} {:9}  {:8.1}  {:7}",
                r.id,
                names[i % names.len()],
                "served",
                r.attempts,
                r.result.path_cost,
                r.result.stats.samples,
            ),
            Ok(PlanOutcome::Failed(f)) => println!(
                "{:4}  {:16}  {:16} {:9}  ({})",
                f.id,
                names[i % names.len()],
                "failed",
                f.attempts,
                f.reason,
            ),
            Err(reason) => println!("{i:4}  rejected: {reason}"),
        }
    }

    // Give the supervisor a beat to finish respawning, then show that
    // capacity was restored.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while service.alive_workers() < service.worker_count() && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    println!(
        "\npool capacity: {}/{} workers alive",
        service.alive_workers(),
        service.worker_count()
    );

    let metrics = service.shutdown();
    println!("\n--- metrics ---\n{}", metrics.dump_text());
}
