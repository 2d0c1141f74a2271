//! Journal contract test through the facade: a recorded run, serialized
//! and parsed back, replays to the same plan bit for bit.

use moped::collision::TwoStageChecker;
use moped::core::{PlannerParams, RrtStar, SimbrIndex};
use moped::env::{Scenario, ScenarioParams};
use moped::obs;
use moped::robot::Robot;

#[test]
fn journal_replay_reproduces_the_plan_bit_identically() {
    // The 3-DoF mobile robot in a cluttered world, small enough to plan
    // in milliseconds.
    let scenario = Scenario::generate(Robot::mobile_2d(), &ScenarioParams::with_obstacles(16), 11);
    let checker = TwoStageChecker::moped(scenario.obstacles.clone());
    let params = PlannerParams {
        max_samples: 400,
        seed: 3,
        ..PlannerParams::default()
    };

    let mut recorder = RrtStar::new(&scenario, &checker, SimbrIndex::moped(3), params.clone())
        .with_journal_recording();
    let recorded = recorder.plan();
    let journal = recorder.take_journal().expect("journaling was on");

    // Round-trip the wire format before replaying: the replay input is
    // the *parsed* journal, so serialization lossiness would show.
    let parsed = obs::Journal::parse(&journal.serialize()).expect("journal round-trips");
    let replayed = RrtStar::new(&scenario, &checker, SimbrIndex::moped(3), params)
        .with_replay(&parsed)
        .plan();

    assert_eq!(
        recorded.path_cost.to_bits(),
        replayed.path_cost.to_bits(),
        "replayed cost differs: {} vs {}",
        recorded.path_cost,
        replayed.path_cost
    );
    assert_eq!(recorded.stats.nodes, replayed.stats.nodes);
    assert_eq!(recorded.stats.samples, replayed.stats.samples);
    assert_eq!(
        recorded.path, replayed.path,
        "replayed path must be identical"
    );
}
