//! Quickstart: plan a 2D mobile-robot path with the full MOPED stack and
//! compare it against the baseline RRT\* on the same task.
//!
//! Run with: `cargo run --example quickstart`

use moped::core::{PlannerParams, Variant};
use moped::env::{Scenario, ScenarioParams};
use moped::robot::Robot;

fn main() {
    let scenario = Scenario::generate(Robot::mobile_2d(), &ScenarioParams::with_obstacles(16), 42);
    println!(
        "Scenario: {} obstacles, start {:?} -> goal {:?}",
        scenario.obstacles.len(),
        scenario.start.as_slice(),
        scenario.goal.as_slice()
    );

    let params = PlannerParams {
        max_samples: 2000,
        seed: 7,
        ..PlannerParams::default()
    };

    for variant in [Variant::V0Baseline, Variant::V4Lci] {
        let result = variant.profile().plan(&scenario, &params);
        let ops = result.stats.total_ops();
        println!("\n== {variant} ==");
        println!("  solved          : {}", result.solved());
        println!("  path cost       : {:.1}", result.path_cost);
        println!("  tree nodes      : {}", result.stats.nodes);
        println!("  MAC-equiv ops   : {}", ops.mac_equiv());
        let (cc, ns, other) = result.stats.breakdown();
        println!(
            "  breakdown       : collision {:.0}% / neighbor search {:.0}% / other {:.0}%",
            cc * 100.0,
            ns * 100.0,
            other * 100.0
        );
        if let Some(path) = &result.path {
            println!("  waypoints       : {}", path.len());
            for (i, q) in path.iter().enumerate().take(5) {
                println!("    [{i}] {:?}", q.as_slice());
            }
            if path.len() > 5 {
                println!("    ... {} more", path.len() - 5);
            }
        }
    }
}
