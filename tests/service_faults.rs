//! Chaos tests for the fault-tolerant serving layer: panics injected
//! into the worker's per-job guard must never hang a ticket, never
//! poison the determinism of unaffected requests, and never stop a
//! worker from serving the next job.

use std::time::Duration;

use moped::core::{PlannerParams, PlannerProfile};
use moped::robot::RobotModel;
use moped::scenarios::{CorpusEntry, Family};
use moped::service::{
    EnvironmentCatalog, FailureReason, FaultKind, FaultPlan, FaultSite, Outcome, PlanRequest,
    PlanService, ServiceConfig,
};
use std::sync::Arc;

const BATCH: usize = 32;
const WORKERS: usize = 4;

/// The five `mobile_2d` corpus cells at seed 1, registered under their
/// corpus ids.
fn mobile_catalog() -> EnvironmentCatalog {
    let mut catalog = EnvironmentCatalog::new();
    for family in Family::ALL {
        let scene = CorpusEntry::new(family, RobotModel::Mobile2d, 1);
        catalog.register(scene.id(), scene.build());
    }
    catalog
}

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

/// The acceptance-criteria chaos batch: every 8th plan in a
/// 32-request batch panics. Every ticket must resolve (no hang, no
/// client panic), each faulted request must yield a typed failure, every
/// non-faulted request must stay bit-identical to a serial
/// `PlannerProfile::plan` run.
#[test]
fn chaos_batch_with_injected_panics_keeps_contract() {
    let catalog = mobile_catalog();
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
                failed += 1;
            }
        }
    }
    // Each request hits the planning site once: 32 hits fire the
    // every-8th rule exactly 4 times.
    assert_eq!(failed, BATCH / 8);

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
}

/// A caught panic costs its job, never the worker: the one worker
/// answers three injected panics with typed failures, then serves the
/// fourth request bit-identical to a serial run.
#[test]
fn one_worker_keeps_serving_after_caught_panics() {
    let catalog = mobile_catalog();
    let env = catalog.find("clutter/mobile_2d/s1").unwrap();
    let params = PlannerParams {
        max_samples: 300,
        seed: 42,
        ..PlannerParams::default()
    };
    let reference =
        PlannerProfile::static_default().plan(&catalog.get(env).unwrap().scenario, &params);

    let faults =
        Arc::new(FaultPlan::new().with_rule_limited(FaultSite::Planning, FaultKind::Panic, 1, 3));
    let service = PlanService::start(
        catalog,
        ServiceConfig {
            workers: 1,
            faults: Some(faults),
            ..Default::default()
        },
    );
    for _ in 0..3 {
        let failure = service
            .submit(PlanRequest::new(env, params.clone()))
            .unwrap()
            .wait()
            .into_result()
            .expect_err("the first three jobs panic");
        assert!(
            matches!(failure.reason, FailureReason::Panic { .. }),
            "unexpected failure: {failure}"
        );
    }
    let response = service
        .submit(PlanRequest::new(env, params))
        .unwrap()
        .wait()
        .into_result()
        .expect("the worker survived its caught panics");
    assert_eq!(response.worker, 0);
    assert_eq!(response.outcome, Outcome::Completed);
    assert_eq!(
        response.result.path_cost.to_bits(),
        reference.path_cost.to_bits(),
        "the fourth request is bit-identical to serial"
    );

    let metrics = service.shutdown();
    assert_eq!(metrics.panics_caught(), 3);
    assert_eq!(metrics.failed(), 3);
    assert_eq!(metrics.completed(), 1);
    assert_eq!(metrics.accepted(), 4);
}

/// Forced queue-full faults at admission surface as ordinary
/// `QueueFull` rejections, and injected latency stretches service time
/// without changing the result.
#[test]
fn admission_and_latency_faults_behave_as_load_conditions() {
    let catalog = mobile_catalog();
    let env = catalog.find("clutter/mobile_2d/s1").unwrap();
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
    let catalog = mobile_catalog();
    let env = catalog.find("clutter/mobile_2d/s1").unwrap();
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

/// Shutdown with every job panicking: each outstanding ticket resolves
/// as a typed `Panic` failure — never a hang — and the accounting
/// balances.
#[test]
fn shutdown_with_every_job_panicking_fails_tickets_typed() {
    let catalog = mobile_catalog();
    let env = catalog.find("clutter/mobile_2d/s1").unwrap();
    let faults = Arc::new(FaultPlan::new().panic_every(FaultSite::Planning, 1));
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
        let failure = ticket.wait().into_result().expect_err("every job panics");
        assert!(
            matches!(failure.reason, FailureReason::Panic { .. }),
            "unexpected reason: {}",
            failure.reason
        );
    }
    assert_eq!(metrics.failed(), 6);
    assert_eq!(metrics.completed(), 0);
    assert_eq!(
        metrics.completed() + metrics.deadline_expired() + metrics.cancelled() + metrics.failed(),
        metrics.accepted()
    );
    assert_eq!(metrics.queue_depth(), 0, "drain balances the gauge");
}
