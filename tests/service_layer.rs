//! Tier-1 smoke test for the serving layer: a concurrent batch is
//! deterministic vs serial planning, and deadlines are enforced.

use std::time::Duration;

use moped::core::{PlannerParams, PlannerProfile};
use moped::robot::Robot;
use moped::service::{EnvironmentCatalog, Outcome, PlanRequest, PlanService, ServiceConfig};

#[test]
fn batch_is_deterministic_and_deadlines_bite() {
    let catalog = EnvironmentCatalog::standard(&Robot::mobile_2d());
    let env_ids: Vec<_> = catalog.ids().collect();

    let requests: Vec<PlanRequest> = (0..12u64)
        .map(|i| {
            let params = PlannerParams {
                max_samples: 250,
                seed: i,
                ..PlannerParams::default()
            };
            PlanRequest::new(env_ids[i as usize % env_ids.len()], params)
        })
        .collect();
    let serial: Vec<f64> = requests
        .iter()
        .map(|r| {
            let scenario = &catalog.get(r.env).unwrap().scenario;
            PlannerProfile::static_default()
                .plan(scenario, &r.params)
                .path_cost
        })
        .collect();

    let service = PlanService::start(
        catalog,
        ServiceConfig {
            workers: 4,
            queue_capacity: 16,
            ..Default::default()
        },
    );
    let responses = service.run_batch(requests);
    for (resp, reference) in responses.iter().zip(&serial) {
        let resp = resp.as_ref().unwrap().response().expect("served");
        assert_eq!(resp.outcome, Outcome::Completed);
        assert_eq!(resp.result.path_cost.to_bits(), reference.to_bits());
    }

    // One more request with an unreachable budget but a short deadline:
    // it must come back early with a best-so-far answer.
    let env = env_ids[0];
    let params = PlannerParams {
        max_samples: 50_000_000,
        seed: 99,
        ..PlannerParams::default()
    };
    let ticket = service
        .submit(PlanRequest::new(env, params).with_deadline(Duration::from_millis(15)))
        .unwrap();
    let late = ticket.wait().into_result().expect("served");
    assert_eq!(late.outcome, Outcome::DeadlineExpired);
    assert!(late.result.stats.stopped_early);
    assert!(late.result.stats.samples < 50_000_000);

    let metrics = service.shutdown();
    assert_eq!(metrics.accepted(), 13);
    assert_eq!(metrics.completed() + metrics.deadline_expired(), 13);
    assert_eq!(metrics.queue_depth(), 0);
}
