//! Tier-1 smoke tests for the serving layer: a concurrent batch is
//! deterministic vs serial planning, deadlines are enforced, and a tuned
//! service stamps every response with the pinned table's profile and the
//! epoch it planned against.

use std::sync::Arc;
use std::time::Duration;

use moped::core::{PlannerParams, PlannerProfile};
use moped::robot::RobotModel;
use moped::scenarios::{smoke_corpus, CorpusEntry, Family};
use moped::service::{EnvironmentCatalog, Outcome, PlanRequest, PlanService, ServiceConfig, Tuner};
use moped::tune::ProfileTable;

/// One pool serving 3-, 6- and 7-DoF environments: the smoke corpus
/// (four mobile cells and the drone narrow passage) plus the xArm-7
/// clutter cell, each registered under its corpus id.
fn mixed_dof_catalog() -> EnvironmentCatalog {
    let mut catalog = EnvironmentCatalog::new();
    let arm = CorpusEntry::new(Family::Clutter, RobotModel::XArm7, 1);
    for scene in smoke_corpus().into_iter().chain([arm]) {
        catalog.register(scene.id(), scene.build());
    }
    catalog
}

#[test]
fn batch_is_deterministic_and_deadlines_bite() {
    let catalog = mixed_dof_catalog();
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

#[test]
fn pinned_table_stamps_every_response_across_env_swaps() {
    let epochs = moped::scenarios::dynamic_epochs(RobotModel::XArm7, 4, 3, 2.5);
    let mut catalog = EnvironmentCatalog::new();
    let env = catalog.register("drifting-clutter", epochs[0].clone());
    let service = PlanService::start(
        catalog,
        ServiceConfig {
            workers: 1,
            tuner: Some(Arc::new(Tuner::new(ProfileTable::static_default()))),
            ..Default::default()
        },
    );
    for (epoch, scenario) in epochs.iter().enumerate() {
        if epoch > 0 {
            assert_eq!(service.swap_env(env, scenario.clone()), Ok(epoch as u64));
        }
        for seed in 0..3 {
            let params = PlannerParams {
                max_samples: 300,
                seed,
                ..PlannerParams::default()
            };
            let response = service
                .submit(PlanRequest::new(env, params))
                .expect("admitted")
                .wait()
                .into_result()
                .expect("served");
            let res = response.profile.expect("tuned services stamp");
            assert_eq!(
                res.profile,
                PlannerProfile::static_default(),
                "epoch {epoch}"
            );
            assert_eq!(res.reason, "default", "epoch {epoch}");
            assert_eq!(response.epoch, epoch as u64);
        }
    }
    service.shutdown();
}
