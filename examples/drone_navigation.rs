//! Drone navigation: a 6-DoF free-flying robot in increasingly cluttered
//! 3D environments, showing how MOPED's savings grow with obstacle count
//! (the trend of Fig 14).
//!
//! Run with: `cargo run --example drone_navigation`

use moped::core::{PlannerParams, Variant};
use moped::env::{Scenario, ScenarioParams, OBSTACLE_COUNTS};
use moped::robot::Robot;

fn main() {
    println!("6-DoF drone navigation across environment complexities");
    println!(
        "{:<12} {:>14} {:>14} {:>8} {:>10} {:>10}",
        "obstacles", "baseline MACs", "MOPED MACs", "saving", "base cost", "moped cost"
    );

    let params = PlannerParams {
        max_samples: 1000,
        seed: 11,
        ..PlannerParams::default()
    };

    for &count in &OBSTACLE_COUNTS {
        let scenario = Scenario::generate(
            Robot::drone_3d(),
            &ScenarioParams::with_obstacles(count),
            500 + count as u64,
        );
        let base = Variant::V0Baseline.profile().plan(&scenario, &params);
        let moped = Variant::V4Lci.profile().plan(&scenario, &params);
        let b = base.stats.total_ops().mac_equiv();
        let m = moped.stats.total_ops().mac_equiv();
        println!(
            "{:<12} {:>14} {:>14} {:>7.1}x {:>10.1} {:>10.1}",
            count,
            b,
            m,
            b as f64 / m as f64,
            base.path_cost,
            moped.path_cost
        );
    }

    println!("\nMOPED's computational saving grows with clutter: the R-tree");
    println!("first stage prunes more obstacle checks, and the SI-MBR-Tree");
    println!("keeps neighbor search sub-linear as the exploration tree grows.");
}
