//! Chaos tests for the fault-tolerant serving layer: panics injected
//! into the worker loop must never hang a ticket, never poison the
//! determinism of unaffected requests, and never shrink the pool.

use std::time::{Duration, Instant};

use moped::core::{PlannerParams, PlannerProfile};
use moped::robot::Robot;
use moped::service::{
    EnvironmentCatalog, FailureReason, FaultPlan, FaultSite, Outcome, PlanRequest, PlanService,
    RetryPolicy, ServiceConfig,
};
use std::sync::Arc;

const BATCH: usize = 32;
const WORKERS: usize = 4;

fn batch_requests(catalog: &EnvironmentCatalog) -> Vec<PlanRequest> {
    let env_ids: Vec<_> = catalog.ids().collect();
    (0..BATCH)
        .map(|i| {
            let params = PlannerParams {
                max_samples: 300,
                seed: i as u64,
                ..PlannerParams::default()
            };
            PlanRequest::new(env_ids[i % env_ids.len()], params)
        })
        .collect()
}

fn serial_reference(catalog: &EnvironmentCatalog, requests: &[PlanRequest]) -> Vec<u64> {
    requests
        .iter()
        .map(|r| {
            let scenario = &catalog.get(r.env).unwrap().scenario;
            PlannerProfile::static_default()
                .plan(scenario, &r.params)
                .path_cost
                .to_bits()
        })
        .collect()
}

/// Spin until the supervisor has restored the pool to full capacity.
fn await_full_capacity(service: &PlanService) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while service.alive_workers() < service.worker_count() {
        assert!(
            Instant::now() < deadline,
            "supervisor must respawn dead workers"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The acceptance-criteria chaos batch: every 8th planning attempt in a
/// 32-request batch panics. Every ticket must resolve (no hang, no
/// client panic), each faulted request must yield a typed failure, every
/// non-faulted request must stay bit-identical to a serial
/// `PlannerProfile::plan` run, and the pool must end at full capacity.
#[test]
fn chaos_batch_with_injected_panics_keeps_contract() {
    let catalog = EnvironmentCatalog::standard(&Robot::mobile_2d());
    let requests = batch_requests(&catalog);
    let serial = serial_reference(&catalog, &requests);

    let faults = Arc::new(FaultPlan::new().panic_every(FaultSite::Planning, 8));
    let service = PlanService::start(
        catalog,
        ServiceConfig {
            workers: WORKERS,
            queue_capacity: BATCH,
            faults: Some(faults),
            ..Default::default()
        },
    );

    // (a) every ticket resolves — run_batch waits on all of them.
    let outcomes = service.run_batch(requests);
    assert_eq!(outcomes.len(), BATCH);

    let mut failed = 0usize;
    for (i, outcome) in outcomes.iter().enumerate() {
        let outcome = outcome.as_ref().expect("batch fits the queue");
        match outcome.response() {
            // (c) non-faulted requests are bit-identical to serial runs.
            Some(resp) => {
                assert_eq!(resp.outcome, Outcome::Completed, "request {i}");
                assert_eq!(resp.result.path_cost.to_bits(), serial[i], "request {i}");
            }
            // (b) faulted requests resolve as typed failures.
            None => {
                let failure = outcome.failure().unwrap();
                assert!(
                    matches!(&failure.reason, FailureReason::Panic { message }
                        if message.contains("injected panic at planning")),
                    "unexpected failure: {failure}"
                );
                assert_eq!(failure.attempts, 1, "retries are off");
                failed += 1;
            }
        }
    }
    // Retries are off, so planning-site hits == requests: 32 hits fire
    // the every-8th rule exactly 4 times.
    assert_eq!(failed, BATCH / 8);

    // (d) workers caught the panics in place: capacity never dropped.
    await_full_capacity(&service);
    assert_eq!(service.alive_workers(), WORKERS);

    let metrics = service.shutdown();
    assert_eq!(metrics.accepted(), BATCH as u64);
    assert_eq!(metrics.failed(), (BATCH / 8) as u64);
    assert_eq!(metrics.panics_caught(), (BATCH / 8) as u64);
    assert_eq!(metrics.faults_injected(), (BATCH / 8) as u64);
    assert_eq!(
        metrics.completed() + metrics.failed(),
        BATCH as u64,
        "every admitted request has exactly one terminal accounting"
    );
    assert_eq!(metrics.queue_depth(), 0);
    assert_eq!(metrics.worker_respawns(), 0, "caught panics kill nobody");
}

/// Worker-killing faults (panics outside the per-job guard): the two
/// victims' tickets resolve as `WorkerDied`, everything else stays
/// bit-identical to serial, and the supervisor respawns the pool back to
/// its configured capacity.
#[test]
fn killed_workers_are_respawned_and_tickets_resolve() {
    let catalog = EnvironmentCatalog::standard(&Robot::mobile_2d());
    let requests = batch_requests(&catalog);
    let serial = serial_reference(&catalog, &requests);

    // Kill the serving worker on the 9th and 18th dequeues.
    let faults = Arc::new(FaultPlan::new().kill_worker_every(9, 2));
    let service = PlanService::start(
        catalog,
        ServiceConfig {
            workers: WORKERS,
            queue_capacity: BATCH,
            faults: Some(faults),
            ..Default::default()
        },
    );

    let outcomes = service.run_batch(requests);
    let mut died = 0usize;
    for (i, outcome) in outcomes.iter().enumerate() {
        let outcome = outcome.as_ref().expect("batch fits the queue");
        match outcome.response() {
            Some(resp) => {
                assert_eq!(resp.result.path_cost.to_bits(), serial[i], "request {i}");
            }
            None => {
                assert_eq!(
                    outcome.failure().unwrap().reason,
                    FailureReason::WorkerDied,
                    "request {i}"
                );
                died += 1;
            }
        }
    }
    assert_eq!(died, 2, "exactly the two kill-rule victims fail");

    // (d) post-respawn pool capacity equals the configured worker count.
    await_full_capacity(&service);
    assert_eq!(service.alive_workers(), WORKERS);

    let metrics = service.shutdown();
    assert_eq!(metrics.faults_injected(), 2);
    assert_eq!(metrics.worker_respawns(), 2);
    // (e) no double-execution: completions account for exactly the
    // survivors; a re-executed victim would push this past BATCH - 2.
    assert_eq!(metrics.accepted(), BATCH as u64);
    assert_eq!(metrics.completed(), (BATCH - 2) as u64);
    assert_eq!(metrics.queue_depth(), 0);
    assert_eq!(
        metrics.panics_caught(),
        0,
        "dequeue kills fire outside the per-job guard"
    );
}

/// With retries enabled, a once-off injected panic is absorbed: the
/// faulted request succeeds on its second attempt, bit-identical to a
/// serial run, and the retry is visible in the response and the metrics.
#[test]
fn retry_recovers_transient_panic_bit_identically() {
    let catalog = EnvironmentCatalog::standard(&Robot::mobile_2d());
    let env = catalog.find("pillar-forest").unwrap();
    let params = PlannerParams {
        max_samples: 300,
        seed: 42,
        ..PlannerParams::default()
    };
    let reference =
        PlannerProfile::static_default().plan(&catalog.get(env).unwrap().scenario, &params);

    let faults = Arc::new(FaultPlan::new().panic_once(FaultSite::Planning));
    let service = PlanService::start(
        catalog,
        ServiceConfig {
            workers: 1,
            retry: RetryPolicy::attempts(3)
                .with_backoff(Duration::from_millis(1))
                .with_jitter(Duration::from_millis(1)),
            faults: Some(faults),
            ..Default::default()
        },
    );
    let response = service
        .submit(PlanRequest::new(env, params))
        .unwrap()
        .wait()
        .into_result()
        .expect("retry must recover the transient fault");
    assert_eq!(response.attempts, 2);
    assert_eq!(
        response.result.path_cost.to_bits(),
        reference.path_cost.to_bits(),
        "the retried run is still bit-identical to serial"
    );

    let metrics = service.shutdown();
    assert_eq!(metrics.retries(), 1);
    assert_eq!(metrics.panics_caught(), 1);
    assert_eq!(metrics.failed(), 0);
    assert_eq!(metrics.completed(), 1);
}

/// A panic that reproduces identically is deterministic; however many
/// attempts the policy allows, the worker stops after one confirming
/// retry instead of burning the budget on a failure that cannot heal.
#[test]
fn deterministic_panics_are_not_retried_blindly() {
    let catalog = EnvironmentCatalog::standard(&Robot::mobile_2d());
    let env = catalog.find("open-meadow").unwrap();
    let params = PlannerParams {
        max_samples: 100,
        seed: 5,
        ..PlannerParams::default()
    };

    // Unlimited panic rule: every attempt fails the same way.
    let faults = Arc::new(FaultPlan::new().panic_every(FaultSite::Planning, 1));
    let service = PlanService::start(
        catalog,
        ServiceConfig {
            workers: 1,
            retry: RetryPolicy::attempts(5),
            faults: Some(faults),
            ..Default::default()
        },
    );
    let failure = service
        .submit(PlanRequest::new(env, params))
        .unwrap()
        .wait()
        .into_result()
        .expect_err("every attempt panics");
    assert_eq!(
        failure.attempts, 2,
        "first attempt + one confirming retry, despite max_attempts=5"
    );

    let metrics = service.shutdown();
    assert_eq!(metrics.retries(), 1);
    assert_eq!(metrics.panics_caught(), 2);
    assert_eq!(metrics.failed(), 1);
}

/// Polling a ticket whose worker died must surface a terminal failure
/// instead of spinning on `None` forever.
#[test]
fn poll_surfaces_worker_death_as_terminal_failure() {
    let catalog = EnvironmentCatalog::standard(&Robot::mobile_2d());
    let env = catalog.find("open-meadow").unwrap();
    let params = PlannerParams {
        max_samples: 100,
        seed: 3,
        ..PlannerParams::default()
    };

    // The one worker dies on its first dequeue, taking the job with it.
    let faults = Arc::new(FaultPlan::new().kill_worker_every(1, 1));
    let service = PlanService::start(
        catalog,
        ServiceConfig {
            workers: 1,
            faults: Some(faults),
            ..Default::default()
        },
    );
    let ticket = service.submit(PlanRequest::new(env, params)).unwrap();

    let deadline = Instant::now() + Duration::from_secs(10);
    let outcome = loop {
        if let Some(outcome) = ticket.poll() {
            break outcome;
        }
        assert!(
            Instant::now() < deadline,
            "poll must resolve after a worker death"
        );
        std::thread::sleep(Duration::from_millis(1));
    };
    assert_eq!(
        outcome.failure().expect("typed failure").reason,
        FailureReason::WorkerDied
    );
    // The resolution has been taken; poll does not re-report it.
    assert!(ticket.poll().is_none());
    service.shutdown();
}

/// Forced queue-full faults at admission surface as ordinary
/// `QueueFull` rejections, and injected latency stretches service time
/// without changing the result.
#[test]
fn admission_and_latency_faults_behave_as_load_conditions() {
    let catalog = EnvironmentCatalog::standard(&Robot::mobile_2d());
    let env = catalog.find("open-meadow").unwrap();
    let faults = Arc::new(FaultPlan::new().queue_full_every(2).delay_every(
        FaultSite::Planning,
        Duration::from_millis(20),
        1,
    ));
    let service = PlanService::start(
        catalog,
        ServiceConfig {
            workers: 1,
            faults: Some(faults),
            ..Default::default()
        },
    );
    let params = PlannerParams {
        max_samples: 50,
        seed: 1,
        ..PlannerParams::default()
    };
    let first = service
        .submit(PlanRequest::new(env, params.clone()))
        .unwrap();
    let second = service.submit(PlanRequest::new(env, params.clone()));
    assert!(
        matches!(second, Err(moped::service::RejectReason::QueueFull { .. })),
        "every 2nd admission is forced to reject"
    );
    let response = first.wait().into_result().expect("served");
    assert!(
        response.service_time >= Duration::from_millis(20),
        "injected latency must show up in service time"
    );
    let metrics = service.shutdown();
    assert_eq!(metrics.rejected(), 1);
    assert!(metrics.faults_injected() >= 2);
}

/// Shutdown with clients still holding unresolved tickets: every ticket
/// resolves with a drained result — never a hang, never a panic.
#[test]
fn shutdown_resolves_outstanding_tickets_with_drained_results() {
    let catalog = EnvironmentCatalog::standard(&Robot::mobile_2d());
    let env = catalog.find("open-meadow").unwrap();
    let service = PlanService::start(
        catalog,
        ServiceConfig {
            workers: 2,
            queue_capacity: 16,
            ..Default::default()
        },
    );
    let tickets: Vec<_> = (0..10u64)
        .map(|seed| {
            let params = PlannerParams {
                max_samples: 250,
                seed,
                ..PlannerParams::default()
            };
            service.submit(PlanRequest::new(env, params)).unwrap()
        })
        .collect();
    // Shut down while all ten tickets are outstanding.
    let metrics = service.shutdown();
    for ticket in tickets {
        let response = ticket.wait().into_result().expect("drained result");
        assert_eq!(response.outcome, Outcome::Completed);
    }
    assert_eq!(metrics.completed(), 10);
    assert_eq!(metrics.queue_depth(), 0);
}

/// Shutdown racing a pool that keeps dying: tickets resolve with typed
/// failures (`WorkerDied` for jobs a dying worker took down,
/// `ShutdownDrained` for jobs no worker ever picked up) — never a hang.
#[test]
fn shutdown_with_dead_pool_fails_tickets_typed() {
    let catalog = EnvironmentCatalog::standard(&Robot::mobile_2d());
    let env = catalog.find("open-meadow").unwrap();
    // Every dequeue kills the worker; respawns die too.
    let faults = Arc::new(FaultPlan::new().kill_worker_every(1, u64::MAX));
    let service = PlanService::start(
        catalog,
        ServiceConfig {
            workers: 1,
            queue_capacity: 16,
            faults: Some(faults),
            ..Default::default()
        },
    );
    let tickets: Vec<_> = (0..6u64)
        .map(|seed| {
            let params = PlannerParams {
                max_samples: 100,
                seed,
                ..PlannerParams::default()
            };
            service.submit(PlanRequest::new(env, params)).unwrap()
        })
        .collect();
    let metrics = service.shutdown();
    for ticket in tickets {
        let failure = ticket
            .wait()
            .into_result()
            .expect_err("no job can survive a pool that dies on every dequeue");
        assert!(
            matches!(
                failure.reason,
                FailureReason::WorkerDied | FailureReason::ShutdownDrained
            ),
            "unexpected reason: {}",
            failure.reason
        );
    }
    assert_eq!(metrics.completed(), 0);
    assert_eq!(metrics.queue_depth(), 0, "drain balances the gauge");
}
