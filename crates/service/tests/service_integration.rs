//! End-to-end service tests: determinism under concurrency, deadline
//! enforcement, and metrics accounting across a full batch.

use std::sync::Arc;
use std::time::{Duration, Instant};

use moped_core::{PlannerParams, PlannerProfile};
use moped_geometry::InterpolationSteps;
use moped_robot::RobotModel;
use moped_scenarios::{CorpusEntry, Family};
use moped_service::{
    EnvironmentCatalog, FaultPlan, FaultSite, Outcome, PlanRequest, PlanService, RejectReason,
    ServiceConfig,
};

const BATCH: usize = 32;

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
                max_samples: 400,
                seed: i as u64,
                ..PlannerParams::default()
            };
            PlanRequest::new(env_ids[i % env_ids.len()], params)
        })
        .collect()
}

/// The acceptance-criteria batch: 32 requests over 4 workers, every
/// response byte-identical (cost and op counts) to a serial
/// `PlannerProfile::plan` run of the static default profile with the
/// same `(environment, params)` pair.
#[test]
fn concurrent_batch_matches_serial_bit_for_bit() {
    let catalog = mobile_catalog();
    let requests = batch_requests(&catalog);

    // Serial reference first, against the same snapshots.
    let serial: Vec<_> = requests
        .iter()
        .map(|r| {
            let scenario = &catalog.get(r.env).unwrap().scenario;
            PlannerProfile::static_default().plan(scenario, &r.params)
        })
        .collect();

    let service = PlanService::start(
        catalog,
        ServiceConfig {
            workers: 4,
            queue_capacity: BATCH,
            ..Default::default()
        },
    );
    let responses = service.run_batch(requests);
    let metrics = service.shutdown();

    assert_eq!(responses.len(), BATCH);
    let mut workers_seen = std::collections::HashSet::new();
    for (i, (resp, reference)) in responses.iter().zip(&serial).enumerate() {
        let resp = resp.as_ref().expect("batch fits the queue");
        let resp = resp.response().expect("no faults configured: served");
        assert_eq!(resp.outcome, Outcome::Completed, "request {i}");
        // Bit-identical, not approximately equal: same RNG stream, same
        // kernels, same tree.
        assert_eq!(
            resp.result.path_cost.to_bits(),
            reference.path_cost.to_bits(),
            "request {i}"
        );
        assert_eq!(resp.result.path, reference.path, "request {i}");
        assert_eq!(
            resp.result.stats.samples, reference.stats.samples,
            "request {i}"
        );
        assert_eq!(
            resp.result.stats.nodes, reference.stats.nodes,
            "request {i}"
        );
        assert_eq!(
            resp.result.stats.rewires, reference.stats.rewires,
            "request {i}"
        );
        assert_eq!(
            resp.result.stats.collision.total_ops().mac_equiv(),
            reference.stats.collision.total_ops().mac_equiv(),
            "request {i}"
        );
        workers_seen.insert(resp.worker);
    }
    assert!(
        workers_seen.len() > 1,
        "work must actually spread across the pool"
    );
    assert_eq!(metrics.accepted(), BATCH as u64);
    assert_eq!(metrics.completed(), BATCH as u64);
    assert_eq!(metrics.queue_depth(), 0);
}

/// Running the same batch twice yields identical results — the service
/// is a deterministic function of its requests, independent of worker
/// interleaving.
#[test]
fn repeated_batches_are_reproducible() {
    let run = || {
        let catalog = mobile_catalog();
        let requests = batch_requests(&catalog);
        let service = PlanService::start(
            catalog,
            ServiceConfig {
                workers: 4,
                queue_capacity: BATCH,
                ..Default::default()
            },
        );
        let responses = service.run_batch(requests);
        service.shutdown();
        responses
            .into_iter()
            .map(|r| {
                let r = r.unwrap().into_result().unwrap();
                (
                    r.result.path_cost.to_bits(),
                    r.result.stats.samples,
                    r.result.stats.nodes,
                )
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}

/// A deadline-limited request must come back early with a best-so-far
/// answer instead of hanging the worker, and be counted as expired.
#[test]
fn deadline_is_enforced_with_best_so_far_result() {
    let catalog = mobile_catalog();
    let env = catalog.find("clutter/mobile_2d/s1").unwrap();
    let service = PlanService::start(
        catalog,
        ServiceConfig {
            workers: 2,
            queue_capacity: 8,
            ..Default::default()
        },
    );

    // A sampling budget that would take minutes, and a 25ms wall clock.
    let params = PlannerParams {
        max_samples: 50_000_000,
        seed: 11,
        ..Default::default()
    };
    let ticket = service
        .submit(PlanRequest::new(env, params).with_deadline(Duration::from_millis(25)))
        .unwrap();
    let response = ticket.wait().into_result().expect("served");

    assert_eq!(response.outcome, Outcome::DeadlineExpired);
    assert!(response.result.stats.stopped_early);
    assert!(
        response.result.stats.samples < 50_000_000,
        "the budget cannot have been exhausted"
    );
    // Generous bound: polling every 32 rounds must stop the run well
    // within a few hundred ms even on a loaded machine.
    assert!(response.service_time < Duration::from_secs(5));

    let metrics = service.shutdown();
    assert_eq!(metrics.deadline_expired(), 1);
    assert_eq!(metrics.completed(), 0);
}

/// A request whose deadline elapses while it is still queued is answered
/// immediately with an empty best-so-far result.
#[test]
fn deadline_expired_in_queue_short_circuits() {
    let catalog = mobile_catalog();
    let env = catalog.find("clutter/mobile_2d/s1").unwrap();
    // One worker, hogged; the second request's deadline expires in queue.
    let service = PlanService::start(
        catalog,
        ServiceConfig {
            workers: 1,
            queue_capacity: 8,
            ..Default::default()
        },
    );
    let hog_params = PlannerParams {
        max_samples: 50_000_000,
        seed: 1,
        ..Default::default()
    };
    let hog = service.submit(PlanRequest::new(env, hog_params)).unwrap();

    let quick = PlannerParams {
        max_samples: 400,
        seed: 2,
        ..Default::default()
    };
    let starved = service
        .submit(PlanRequest::new(env, quick).with_deadline(Duration::from_millis(5)))
        .unwrap();
    std::thread::sleep(Duration::from_millis(30));
    hog.cancel();
    assert_eq!(
        hog.wait().into_result().unwrap().outcome,
        Outcome::Cancelled
    );

    let response = starved.wait().into_result().expect("served");
    assert_eq!(response.outcome, Outcome::DeadlineExpired);
    assert!(response.result.path.is_none());
    assert_eq!(response.result.stats.samples, 0);
    service.shutdown();
}

/// Every admitted request is accounted for exactly once after a drain:
/// `accepted == completed + deadline_expired + cancelled`.
#[test]
fn metrics_sum_correctly_over_mixed_batch() {
    let catalog = mobile_catalog();
    let env_ids: Vec<_> = catalog.ids().collect();
    let service = PlanService::start(
        catalog,
        ServiceConfig {
            workers: 4,
            queue_capacity: BATCH,
            ..Default::default()
        },
    );

    let mut tickets = Vec::new();
    let mut cancel_ids = Vec::new();
    for i in 0..BATCH as u64 {
        let env = env_ids[i as usize % env_ids.len()];
        let req = match i % 8 {
            // Every 8th request: huge budget with a short deadline.
            0 => {
                let p = PlannerParams {
                    max_samples: 50_000_000,
                    seed: i,
                    ..Default::default()
                };
                PlanRequest::new(env, p).with_deadline(Duration::from_millis(10))
            }
            // Every 8th+4: huge budget, cancelled from the client side.
            4 => {
                let p = PlannerParams {
                    max_samples: 50_000_000,
                    seed: i,
                    ..Default::default()
                };
                PlanRequest::new(env, p)
            }
            _ => {
                let p = PlannerParams {
                    max_samples: 300,
                    seed: i,
                    ..Default::default()
                };
                PlanRequest::new(env, p)
            }
        };
        let ticket = service.submit(req).unwrap();
        if i % 8 == 4 {
            cancel_ids.push(tickets.len());
        }
        tickets.push(ticket);
    }
    std::thread::sleep(Duration::from_millis(20));
    for &idx in &cancel_ids {
        tickets[idx].cancel();
    }
    let responses: Vec<_> = tickets
        .into_iter()
        .map(|t| t.wait().into_result().expect("served"))
        .collect();
    let metrics = service.shutdown();

    let completed = responses
        .iter()
        .filter(|r| r.outcome == Outcome::Completed)
        .count() as u64;
    let expired = responses
        .iter()
        .filter(|r| r.outcome == Outcome::DeadlineExpired)
        .count() as u64;
    let cancelled = responses
        .iter()
        .filter(|r| r.outcome == Outcome::Cancelled)
        .count() as u64;

    assert_eq!(metrics.accepted(), BATCH as u64);
    assert_eq!(metrics.completed(), completed);
    assert_eq!(metrics.deadline_expired(), expired);
    assert_eq!(metrics.cancelled(), cancelled);
    assert_eq!(completed + expired + cancelled, BATCH as u64);
    assert_eq!(metrics.queue_depth(), 0);
    assert!(
        metrics.deadline_expired() >= 1,
        "the 10ms deadlines must bite"
    );

    let text = metrics.dump_text();
    assert!(text.contains(&format!("requests_accepted {BATCH}")));
    let json = metrics.dump_json();
    assert!(json.contains(&format!("\"requests_accepted\":{BATCH}")));
}

/// Submitting after shutdown is impossible by construction (shutdown
/// consumes the service), so the shutting-down path is reached via a
/// dropped queue; verify the reject taxonomy stays stable instead.
#[test]
fn reject_reasons_render() {
    assert_eq!(
        RejectReason::QueueFull { capacity: 4 }.to_string(),
        "queue full (capacity 4)"
    );
    assert_eq!(
        RejectReason::UnknownEnvironment.to_string(),
        "unknown environment id"
    );
    assert_eq!(
        RejectReason::ShuttingDown.to_string(),
        "service is shutting down"
    );
    assert_eq!(
        RejectReason::InvalidRequest("goal_bias must be in [0, 1], got 2".into()).to_string(),
        "invalid request: goal_bias must be in [0, 1], got 2"
    );
}

/// Malformed planner parameters are refused at admission with a typed
/// reason and counted as rejections; they never reach (and so never
/// panic or wedge) a worker, which keeps serving valid requests.
#[test]
fn malformed_params_are_rejected_at_admission() {
    let catalog = mobile_catalog();
    let env = catalog.find("clutter/mobile_2d/s1").unwrap();
    let robot = catalog.get(env).unwrap().scenario.robot.clone();
    let service = PlanService::start(
        catalog,
        ServiceConfig {
            workers: 1,
            ..Default::default()
        },
    );
    let base = PlannerParams {
        max_samples: 150,
        seed: 4,
        ..PlannerParams::default()
    };
    let bad_steps = [-5.0, f64::NAN, f64::INFINITY];
    for step in bad_steps {
        let params = PlannerParams {
            steering_step: Some(step),
            ..base.clone()
        };
        match service.submit(PlanRequest::new(env, params)) {
            Err(RejectReason::InvalidRequest(why)) => {
                assert!(why.contains("steering_step"), "{why}")
            }
            other => panic!("step {step} admitted: {other:?}"),
        }
    }

    // Defaults, and the uncapped-interpolation params a benchmark
    // harness sends, are admitted and served by the same pool.
    let uncapped = PlannerParams {
        interpolation: Some(InterpolationSteps {
            max_steps: usize::MAX,
            ..InterpolationSteps::with_resolution((robot.steering_step() / 4.0).max(1e-3))
        }),
        ..base.clone()
    };
    for params in [PlannerParams::default(), base, uncapped] {
        let response = service
            .submit(PlanRequest::new(env, params))
            .expect("valid params are admitted")
            .wait()
            .into_result()
            .expect("served");
        assert_eq!(response.outcome, Outcome::Completed);
    }
    let metrics = service.shutdown();
    assert_eq!(metrics.rejected(), bad_steps.len() as u64);
    assert_eq!(metrics.accepted(), 3);
    assert_eq!(metrics.completed(), 3);
}

/// Queue-wait accounting is admission → dequeue only: a pool with idle
/// workers must report (near-)zero queue wait, because each request is
/// picked up the moment it lands in the queue — planning time never
/// leaks into a response's `queue_wait`.
#[test]
fn idle_pool_reports_near_zero_queue_wait() {
    let catalog = mobile_catalog();
    let env = catalog.find("clutter/mobile_2d/s1").unwrap();
    let service = PlanService::start(
        catalog,
        ServiceConfig {
            workers: 2,
            queue_capacity: 8,
            ..Default::default()
        },
    );
    // Strictly sequential: each request resolves before the next is
    // admitted, so a worker is always parked and hungry at submit time.
    for seed in 0..8u64 {
        let params = PlannerParams {
            max_samples: 300,
            seed,
            ..PlannerParams::default()
        };
        let response = service
            .submit(PlanRequest::new(env, params))
            .unwrap()
            .wait()
            .into_result()
            .expect("served");
        assert!(
            response.queue_wait < Duration::from_millis(50),
            "idle pool queued a request for {:?}",
            response.queue_wait
        );
    }
    service.shutdown();
}

/// The pool serves jobs in parallel, whatever the host's core count:
/// four workers take four requests whose planning is padded by a 200ms
/// injected sleep, so each request is dequeued the moment it lands. A
/// pool that serialized its workers would hold the k-th request about
/// k × 200ms in the queue.
#[test]
fn pool_runs_jobs_concurrently() {
    let catalog = mobile_catalog();
    let env = catalog.find("clutter/mobile_2d/s1").unwrap();
    let faults = FaultPlan::new().delay_every(FaultSite::Planning, Duration::from_millis(200), 1);
    let service = PlanService::start(
        catalog,
        ServiceConfig {
            workers: 4,
            faults: Some(Arc::new(faults)),
            ..Default::default()
        },
    );
    let tickets: Vec<_> = (0..4u64)
        .map(|seed| {
            let params = PlannerParams {
                max_samples: 50,
                seed,
                ..PlannerParams::default()
            };
            service.submit(PlanRequest::new(env, params)).unwrap()
        })
        .collect();
    for ticket in tickets {
        let response = ticket.wait().into_result().expect("served");
        assert!(
            response.queue_wait < Duration::from_millis(100),
            "request {} queued for {:?} behind busy workers",
            response.id,
            response.queue_wait
        );
    }
    let metrics = service.shutdown();
    assert_eq!(metrics.faults_injected(), 4);
}

/// Responses never rendezvous: a worker's answer lands in the ticket's
/// bound-1 channel whether or not the client ever reads it. One worker
/// serves three requests whose tickets are never read (the first is
/// dropped at once, the other two stay alive) and must still serve a
/// fourth; a rendezvous (bound-0) channel would park the worker on the
/// second ticket's `send` and starve the fourth.
#[test]
fn unread_and_dropped_tickets_never_stall_a_worker() {
    let catalog = mobile_catalog();
    let env = catalog.find("clutter/mobile_2d/s1").unwrap();
    let service = PlanService::start(
        catalog,
        ServiceConfig {
            workers: 1,
            ..Default::default()
        },
    );
    let submit = |seed| {
        let params = PlannerParams {
            max_samples: 50,
            seed,
            ..PlannerParams::default()
        };
        service.submit(PlanRequest::new(env, params)).unwrap()
    };
    drop(submit(0));
    let unread = [submit(1), submit(2)];
    let last = submit(3);
    let give_up = Instant::now() + Duration::from_secs(30);
    let outcome = loop {
        if let Some(outcome) = last.poll() {
            break outcome;
        }
        assert!(
            Instant::now() < give_up,
            "the worker stalled on an unread ticket"
        );
        std::thread::sleep(Duration::from_millis(1));
    };
    assert_eq!(
        outcome.into_result().expect("served").outcome,
        Outcome::Completed
    );
    drop(unread);
    let metrics = service.shutdown();
    assert_eq!(metrics.completed(), 4);
    assert_eq!(metrics.queue_depth(), 0);
}
