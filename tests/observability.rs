//! Observability contract tests through the facade: the disabled tracing
//! path allocates nothing and costs a negligible fraction of a planning
//! run, the event journal replays bit-identically, the Chrome-trace
//! exporter emits well-formed JSON from a real run, and turning tracing
//! on never changes which plan the service serves.
//!
//! The obs recorder is process-global, so every test here serializes on
//! one mutex and restores the disabled/logical defaults on exit.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use moped::collision::TwoStageChecker;
use moped::core::{PlannerParams, RrtStar, SimbrIndex};
use moped::env::{Scenario, ScenarioParams};
use moped::obs;
use moped::robot::{Robot, RobotModel};
use moped::service::{EnvironmentCatalog, PlanRequest, PlanService, ServiceConfig, Tuner};
use moped::tune::{PlannerProfile, ProfileTable};

// ---------------------------------------------------------------------------
// Counting allocator: every heap allocation in this test binary bumps a
// thread-local counter, so "no allocation" is asserted, not assumed.
// ---------------------------------------------------------------------------

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: delegates verbatim to `System`; the counter touch is the only
// addition and `try_with` keeps it sound during thread teardown.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

// ---------------------------------------------------------------------------
// Shared state discipline
// ---------------------------------------------------------------------------

/// Serializes obs-touching tests and restores the defaults afterwards.
fn with_obs_lock(f: impl FnOnce()) {
    static GUARD: Mutex<()> = Mutex::new(());
    let _g = GUARD.lock().unwrap_or_else(|p| p.into_inner());
    obs::reset();
    f();
    obs::set_enabled(false);
    obs::set_tick_source(obs::TickSource::Logical);
    obs::reset();
}

/// The fixed planar workload every test here shares: the 3-DoF mobile
/// robot in a cluttered world, small enough to plan in milliseconds.
fn planar_scenario() -> Scenario {
    Scenario::generate(Robot::mobile_2d(), &ScenarioParams::with_obstacles(16), 11)
}

fn quick(samples: usize) -> PlannerParams {
    PlannerParams {
        max_samples: samples,
        seed: 3,
        ..PlannerParams::default()
    }
}

// ---------------------------------------------------------------------------
// Disabled-path cost
// ---------------------------------------------------------------------------

#[test]
fn disabled_tracing_allocates_nothing() {
    with_obs_lock(|| {
        obs::set_enabled(false);
        let n = allocations_during(|| {
            for _ in 0..10_000 {
                let _round = obs::span(obs::Stage::Round);
                let _inner = obs::span(obs::Stage::Collision);
                obs::record_duration(obs::Stage::QueueWait, 7);
            }
        });
        assert_eq!(n, 0, "disabled spans must not touch the heap");
    });
}

#[test]
fn disabled_tracing_costs_under_two_percent_of_a_plan() {
    with_obs_lock(|| {
        obs::set_enabled(false);
        let scenario = planar_scenario();
        let checker = TwoStageChecker::moped(scenario.obstacles.clone());
        let index = || SimbrIndex::moped(3);

        // How many spans does this workload open? Count them once with
        // tracing on (span counts are timing-independent).
        obs::set_enabled(true);
        let traced = RrtStar::new(&scenario, &checker, index(), quick(300)).plan();
        obs::set_enabled(false);
        let spans_opened: u64 = obs::snapshot().stages.iter().map(|s| s.count).sum();
        obs::reset();
        assert!(spans_opened > 0, "workload opened no spans");

        // Price one disabled span (construct + drop) in isolation, and
        // time the same plan with tracing disabled. The span batches and
        // the timed plans are interleaved, and each side keeps its
        // minimum, so both sides of the ratio see the same host speed:
        // min-of-runs discards descheduling noise when sibling test
        // binaries contend for the CPU.
        let reps: u64 = 250_000;
        let (mut per_span, mut plan_time) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..4 {
            for _ in 0..2 {
                let t0 = Instant::now();
                for _ in 0..reps {
                    let s = obs::span(obs::Stage::Round);
                    std::hint::black_box(&s);
                }
                per_span = per_span.min(t0.elapsed().as_secs_f64() / reps as f64);
            }
            let t1 = Instant::now();
            let untraced = RrtStar::new(&scenario, &checker, index(), quick(300)).plan();
            plan_time = plan_time.min(t1.elapsed().as_secs_f64());
            // Same seed, and tracing never branches the planner: identical run.
            assert_eq!(traced.stats.nodes, untraced.stats.nodes);
        }

        let overhead = per_span * spans_opened as f64;
        assert!(
            overhead < 0.02 * plan_time,
            "disabled tracing too costly: {spans_opened} spans x {:.1}ns = {:.3}ms \
             vs plan {:.3}ms",
            per_span * 1e9,
            overhead * 1e3,
            plan_time * 1e3,
        );
    });
}

// ---------------------------------------------------------------------------
// Journal replay
// ---------------------------------------------------------------------------

#[test]
fn journal_replay_reproduces_the_plan_bit_identically() {
    with_obs_lock(|| {
        obs::set_enabled(false);
        let scenario = planar_scenario();
        let checker = TwoStageChecker::moped(scenario.obstacles.clone());

        let mut recorder = RrtStar::new(&scenario, &checker, SimbrIndex::moped(3), quick(400))
            .with_journal_recording();
        let recorded = recorder.plan();
        let journal = recorder.take_journal().expect("journaling was on");

        // Round-trip the wire format before replaying: the replay input is
        // the *parsed* journal, so serialization lossiness would show.
        let parsed = obs::Journal::parse(&journal.serialize()).expect("journal round-trips");
        let replayed = RrtStar::new(&scenario, &checker, SimbrIndex::moped(3), quick(400))
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
    });
}

// ---------------------------------------------------------------------------
// Exporters on a real run
// ---------------------------------------------------------------------------

#[test]
fn chrome_trace_from_a_real_run_is_well_formed() {
    with_obs_lock(|| {
        obs::set_tick_source(obs::TickSource::WallClock);
        obs::set_enabled(true);
        let scenario = planar_scenario();
        let checker = TwoStageChecker::moped(scenario.obstacles.clone());
        let result = RrtStar::new(&scenario, &checker, SimbrIndex::moped(3), quick(200)).plan();
        obs::set_enabled(false);
        assert_eq!(result.stats.samples, 200);

        let profile = obs::snapshot();
        assert!(profile.stage(obs::Stage::Round).is_some());
        // The profiler's own JSON is held to the same grammar.
        obs::export::validate_json(&profile.to_json()).expect("profile JSON well-formed");
        let fraction = profile
            .attributed_fraction()
            .expect("round stage present => fraction defined");
        assert!(
            fraction > 0.5,
            "named stages explain only {:.1}% of round time",
            100.0 * fraction
        );

        let (events, _dropped) = obs::take_events();
        assert!(!events.is_empty(), "traced run produced no span events");
        let trace = obs::export::chrome_trace(&events);
        obs::export::validate_json(&trace).expect("chrome trace well-formed");
    });
}

// ---------------------------------------------------------------------------
// Tracing never chooses plans
// ---------------------------------------------------------------------------

#[test]
fn tracing_never_changes_a_served_plan() {
    with_obs_lock(|| {
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
        obs::set_enabled(true);
        for (epoch, scenario) in epochs.iter().enumerate() {
            // Collision-heavy evidence from outside the service: whatever
            // the process-wide profile says, the pinned table decides.
            obs::record_duration(obs::Stage::Collision, 10_000_000);
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
    });
}
