//! Journal walkthrough: record a 3-DoF planning run, serialize the
//! journal, parse it back, and replay it to the same plan bit for bit.
//!
//! Run with `cargo run --release --example observe`. Per-layer wall time
//! comes from the benchmark's traced run (`wallbench --trace 1`), not from
//! this example.

use moped::collision::TwoStageChecker;
use moped::core::{PlannerParams, PlannerProfile};
use moped::env::{Scenario, ScenarioParams};
use moped::obs;
use moped::robot::Robot;

fn main() {
    // 3-DoF mobile robot (x, y, theta) in a cluttered planar world.
    let scenario = Scenario::generate(Robot::mobile_2d(), &ScenarioParams::with_obstacles(48), 42);
    let params = PlannerParams {
        max_samples: 2000,
        interpolation: Some(moped::geometry::InterpolationSteps::with_resolution(0.25)),
        ..PlannerParams::default()
    };
    let moped = PlannerProfile::static_default();
    let checker = TwoStageChecker::moped(scenario.obstacles.clone());

    // Record: the journal captures the seed and the full sample stream.
    let mut recorder = moped
        .planner(&scenario, &checker, &params)
        .with_journal_recording();
    let recorded = recorder.plan();
    let journal = recorder
        .take_journal()
        .expect("journaling was enabled before plan()");
    println!(
        "planned: solved={} cost={:.1} nodes={} samples={}",
        recorded.solved(),
        recorded.path_cost,
        recorded.stats.nodes,
        recorded.stats.samples
    );

    // Serialize and parse: f64s travel as IEEE-754 bit patterns.
    let wire = journal.serialize();
    println!(
        "journal: {} rounds, {} accepts, {} bytes on the wire",
        journal.rounds(),
        journal.accepts(),
        wire.len()
    );
    let reparsed = obs::Journal::parse(&wire).expect("journal round-trips");

    // Replay: the parsed sample stream reproduces the plan exactly.
    let mut replayer = moped
        .planner(&scenario, &checker, &params)
        .with_replay(&reparsed);
    let replayed = replayer.plan();
    assert_eq!(recorded.path_cost.to_bits(), replayed.path_cost.to_bits());
    assert_eq!(recorded.stats.nodes, replayed.stats.nodes);
    println!(
        "replay: cost {:.6} == {:.6}, nodes {} == {} (bit-identical)",
        recorded.path_cost, replayed.path_cost, recorded.stats.nodes, replayed.stats.nodes
    );
}
