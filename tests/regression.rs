//! Regression guards: loose golden checks on headline behaviours.
//!
//! Planning is deterministic given a seed, so these assertions pin the
//! *bands* the reproduction currently achieves. They are deliberately
//! generous — their job is to catch silent behavioural drift (a broken
//! pruning rule, a mis-charged ledger), not to freeze exact numbers.

use moped::core::{PlannerParams, Variant};
use moped::env::{Scenario, ScenarioParams};
use moped::hw::design::DesignPoint;
use moped::hw::{params, perf, pipeline};
use moped::robot::Robot;

fn traced(samples: usize, seed: u64) -> PlannerParams {
    PlannerParams {
        max_samples: samples,
        seed,
        trace_rounds: true,
        ..PlannerParams::default()
    }
}

/// The headline algorithmic saving on the reference drone workload stays
/// in its band.
#[test]
fn algorithmic_saving_band() {
    let s = Scenario::generate(Robot::drone_3d(), &ScenarioParams::with_obstacles(16), 61);
    let p = traced(1000, 1);
    let base = Variant::V0Baseline.profile().plan(&s, &p);
    let moped = Variant::V4Lci.profile().plan(&s, &p);
    let saving =
        base.stats.total_ops().mac_equiv() as f64 / moped.stats.total_ops().mac_equiv() as f64;
    assert!(
        (3.0..60.0).contains(&saving),
        "drone@16obst saving drifted out of band: {saving:.1}"
    );
}

/// The end-to-end hardware evaluation keeps every comparison in the
/// direction and rough magnitude the paper reports, and the S&R pipeline
/// stays inside its on-chip buffers.
#[test]
fn hardware_comparison_bands() {
    let s = Scenario::generate(
        Robot::viperx_300(),
        &ScenarioParams::with_obstacles(16),
        123,
    );
    let p = PlannerParams {
        goal_tolerance: 0.8,
        ..traced(600, 5)
    };
    let design = DesignPoint::default();
    let base = Variant::V0Baseline.profile().plan(&s, &p);
    let moped = Variant::V4Lci.profile().plan(&s, &p);
    let m = perf::moped_report(&moped.stats, &design);
    let vs_cpu = perf::compare(&m, &perf::cpu_report(&base.stats));
    let vs_asic = perf::compare(&m, &perf::rrt_asic_report(&base.stats, &design));
    let vs_codacc = perf::compare(&m, &perf::codacc_report(&base.stats, &s.robot, &design));
    let pipe = pipeline::simulate(&pipeline::rounds_from_trace(&moped.stats.rounds));
    assert!(
        (200.0..100_000.0).contains(&vs_cpu.speedup),
        "CPU speedup band: {:.0}",
        vs_cpu.speedup
    );
    assert!(
        (1.5..60.0).contains(&vs_asic.speedup),
        "ASIC speedup band: {:.1}",
        vs_asic.speedup
    );
    assert!(
        (1.0..40.0).contains(&vs_codacc.speedup),
        "CODAcc speedup band: {:.1}",
        vs_codacc.speedup
    );
    assert!(vs_cpu.speedup > vs_asic.speedup);
    assert!(m.latency_s < 5e-3, "latency {:.2e}s", m.latency_s);
    assert!(
        (1.0..=2.0).contains(&pipe.speedup()),
        "S&R band: {:.2}",
        pipe.speedup()
    );
    assert!(pipe.max_fifo_occupancy <= params::FIFO_DEPTH);
    assert!(pipe.max_missing_neighbors <= params::MISSING_NEIGHBOR_CAPACITY);
}

/// The design point's silicon numbers stay pinned to the paper's.
#[test]
fn design_point_band() {
    let d = DesignPoint::default();
    assert!(
        (d.area_mm2() - 0.62).abs() < 0.08,
        "area {:.3}",
        d.area_mm2()
    );
    assert!(
        (d.power_w() * 1e3 - 137.5).abs() < 8.0,
        "power {:.1}mW",
        d.power_w() * 1e3
    );
    assert_eq!(d.macs(), 168);
    assert!((d.sram_kb() - 198.0).abs() < 1e-9);
}

/// Baseline breakdown keeps the Fig 3 structure: kernels ≥95% of work,
/// arms collision-dominated, mobile search-dominated.
#[test]
fn fig3_structure_band() {
    let p = PlannerParams {
        max_samples: 800,
        seed: 4,
        ..PlannerParams::default()
    };
    let mobile = Variant::V0Baseline.profile().plan(
        &Scenario::generate(Robot::mobile_2d(), &ScenarioParams::with_obstacles(16), 8),
        &p,
    );
    let arm = Variant::V0Baseline.profile().plan(
        &Scenario::generate(Robot::xarm7(), &ScenarioParams::with_obstacles(16), 8),
        &p,
    );
    let (m_cc, m_ns, _) = mobile.stats.breakdown();
    let (a_cc, a_ns, _) = arm.stats.breakdown();
    assert!(m_ns > m_cc, "mobile must be search-dominated");
    assert!(a_cc > a_ns, "xArm must be collision-dominated");
    assert!(m_cc + m_ns > 0.95 && a_cc + a_ns > 0.95);
}
