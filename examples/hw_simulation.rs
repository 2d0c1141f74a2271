//! Hardware simulation: run a planning workload, replay its round trace
//! through the MOPED performance model, and print the design-point report
//! plus comparisons against the CPU / RRT* ASIC / CODAcc baselines
//! (the Fig 15 / Fig 17 machinery on one workload).
//!
//! Run with: `cargo run --example hw_simulation`

use moped::core::{PlannerParams, Variant};
use moped::env::{Scenario, ScenarioParams};
use moped::hw::design::DesignPoint;
use moped::hw::{perf, pipeline};
use moped::robot::Robot;

fn main() {
    let scenario = Scenario::generate(
        Robot::viperx_300(),
        &ScenarioParams::with_obstacles(16),
        123,
    );
    let params = PlannerParams {
        max_samples: 1000,
        seed: 5,
        trace_rounds: true,
        goal_tolerance: 0.8,
        ..PlannerParams::default()
    };

    println!(
        "Planning: {} in a 16-obstacle field...",
        scenario.robot.name()
    );
    let base = Variant::V0Baseline.profile().plan(&scenario, &params);
    let moped = Variant::V4Lci.profile().plan(&scenario, &params);

    let design = DesignPoint::default();
    println!("\n== Design point (28nm, 1 GHz) ==");
    println!("  MACs       : {}", design.macs());
    println!("  SRAM       : {:.0} KB", design.sram_kb());
    println!("  area       : {:.2} mm^2", design.area_mm2());
    println!("  power      : {:.1} mW", design.power_w() * 1e3);
    for bank in design.banks() {
        println!("    {:<22} {:>6.1} KB", bank.name, bank.kb);
    }

    let m = perf::moped_report(&moped.stats, &design);
    let serial = perf::moped_serial_report(&moped.stats, &design);
    let cpu = perf::cpu_report(&base.stats);
    let asic = perf::rrt_asic_report(&base.stats, &design);
    let cod = perf::codacc_report(&base.stats, &scenario.robot, &design);

    println!("\n== Latency / energy ==");
    for (name, r) in [
        ("MOPED (S&R)", &m),
        ("MOPED serial", &serial),
        ("CPU baseline", &cpu),
        ("RRT* ASIC", &asic),
        ("ASIC+CODAcc", &cod),
    ] {
        println!(
            "  {:<14} {:>10.3} ms {:>12.1} uJ",
            name,
            r.latency_s * 1e3,
            r.energy_j * 1e6
        );
    }

    println!("\n== MOPED vs baselines ==");
    for (name, r) in [("CPU", &cpu), ("RRT* ASIC", &asic), ("ASIC+CODAcc", &cod)] {
        let c = perf::compare(&m, r);
        println!(
            "  vs {:<12} speedup {:>8.1}x  energy-eff {:>8.1}x  area-eff {:>7.1}x",
            name, c.speedup, c.energy_efficiency_gain, c.area_efficiency_gain
        );
    }

    let rounds = pipeline::rounds_from_trace(&moped.stats.rounds);
    let pipe = pipeline::simulate(&rounds);
    println!("\n== Speculate-and-repair pipeline ==");
    println!("  serial cycles      : {}", pipe.serial_cycles);
    println!("  speculative cycles : {}", pipe.speculative_cycles);
    println!("  S&R speedup        : {:.2}x", pipe.speedup());
    println!(
        "  max FIFO occupancy : {} (depth 20)",
        pipe.max_fifo_occupancy
    );
    println!(
        "  max missing nbrs   : {} (capacity 5)",
        pipe.max_missing_neighbors
    );
}
