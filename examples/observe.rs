//! Observability walkthrough: trace a 3-DoF planning run, print the
//! per-stage profile table, export a Chrome-trace file, and prove the
//! deterministic journal reproduces the run bit for bit.
//!
//! Run with `cargo run --release --example observe`. Open the emitted
//! `target/observe_trace.json` in `chrome://tracing` or
//! <https://ui.perfetto.dev> to see the span timeline.

use moped::collision::TwoStageChecker;
use moped::core::{PlannerParams, PlannerProfile};
use moped::env::{Scenario, ScenarioParams};
use moped::obs;
use moped::robot::Robot;

fn main() {
    // 3-DoF mobile robot (x, y, theta) in a cluttered planar world.
    let scenario = Scenario::generate(Robot::mobile_2d(), &ScenarioParams::with_obstacles(48), 42);
    // A fine collision discretization: each motion check verifies many
    // interpolated poses, the regime the two-stage checker is built for.
    let params = PlannerParams {
        max_samples: 2000,
        interpolation: Some(moped::geometry::InterpolationSteps::with_resolution(0.25)),
        ..PlannerParams::default()
    };

    // Arm the tracer. Wall-clock ticks (nanoseconds) make the profile
    // a real time breakdown; the default logical ticks would give
    // deterministic ordering but meaningless durations.
    obs::reset();
    obs::set_tick_source(obs::TickSource::WallClock);
    obs::set_enabled(true);

    let moped = PlannerProfile::static_default();
    let checker = TwoStageChecker::moped(scenario.obstacles.clone());
    let result = moped.planner(&scenario, &checker, &params).plan();
    obs::set_enabled(false);

    println!(
        "planned: solved={} cost={:.1} nodes={} samples={}",
        result.solved(),
        result.path_cost,
        result.stats.nodes,
        result.stats.samples
    );

    // --- Stage profile table -------------------------------------------
    let profile = obs::snapshot();
    println!("\n{}", profile.render_text());
    if let Some(f) = profile.attributed_fraction() {
        println!(
            "named stages explain {:.1}% of instrumented iteration time",
            100.0 * f
        );
    }

    // --- Chrome trace ---------------------------------------------------
    let (events, dropped) = obs::take_events();
    let trace = obs::export::chrome_trace(&events);
    let path = std::path::Path::new("target").join("observe_trace.json");
    match std::fs::write(&path, &trace) {
        Ok(()) => println!(
            "\nwrote {} span events to {} ({dropped} dropped by the ring)",
            events.len(),
            path.display()
        ),
        Err(e) => println!("\ncould not write {}: {e}", path.display()),
    }

    // --- Deterministic journal replay -----------------------------------
    // A separate journaled run (tracing off): the journal captures the
    // full sample stream, so replaying it reproduces the plan exactly.
    let mut recorder = moped
        .planner(&scenario, &checker, &params)
        .with_journal_recording();
    let recorded = recorder.plan();
    let journal = recorder
        .take_journal()
        .expect("journaling was enabled before plan()");
    let wire = journal.serialize();
    println!(
        "\njournal: {} rounds, {} accepts, {} bytes on the wire",
        journal.rounds(),
        journal.accepts(),
        wire.len()
    );
    let reparsed = obs::Journal::parse(&wire).expect("journal round-trips");
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
