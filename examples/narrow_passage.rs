//! Narrow passage: the Fig 5 demonstration. With tilted walls, the loose
//! AABB relaxation of each wall seals the gap (false-positive collisions),
//! while the exact OBB second stage threads it — lower path cost and
//! higher success rate for the OBB-capable checker.
//!
//! Run with: `cargo run --example narrow_passage`

use moped::collision::{CollisionChecker, CollisionLedger, SecondStage, TwoStageChecker};
use moped::core::{PlannerParams, Variant};
use moped::env::Scenario;
use moped::robot::Robot;

fn main() {
    println!("Narrow-passage planning: OBB vs AABB obstacle representation\n");
    println!(
        "{:<10} {:>12} {:>12} {:>12} {:>12}",
        "tilt", "OBB solved", "OBB cost", "AABB solved", "AABB cost"
    );

    for tilt in [0.0, 0.2, 0.35, 0.5] {
        let scenario = Scenario::narrow_passage(Robot::mobile_2d(), 34.0, tilt);
        let params = PlannerParams {
            max_samples: 3000,
            seed: 9,
            ..PlannerParams::default()
        };

        // The full MOPED stack, once with its exact checker and once with
        // the AABB-only ablation checker.
        let moped = Variant::V4Lci.profile();
        let loose = TwoStageChecker::new(scenario.obstacles.clone(), SecondStage::AabbOnly);
        let r_exact = moped.plan(&scenario, &params);
        let r_loose = moped.planner(&scenario, &loose, &params).plan();

        println!(
            "{:<10.2} {:>12} {:>12.1} {:>12} {:>12.1}",
            tilt,
            r_exact.solved(),
            r_exact.path_cost,
            r_loose.solved(),
            r_loose.path_cost
        );
    }

    // Show the false-positive mechanism directly.
    let scenario = Scenario::narrow_passage(Robot::mobile_2d(), 34.0, 0.5);
    let exact = TwoStageChecker::new(scenario.obstacles.clone(), SecondStage::ObbExact);
    let loose = TwoStageChecker::new(scenario.obstacles.clone(), SecondStage::AabbOnly);
    let mid = scenario.start.lerp(&scenario.goal, 0.5);
    let mut ledger = CollisionLedger::default();
    println!("\nGap-center pose:");
    println!(
        "  exact OBB check : {}",
        if exact.config_free(&scenario.robot, &mid, &mut ledger) {
            "free"
        } else {
            "collision"
        }
    );
    println!(
        "  AABB-only check : {}",
        if loose.config_free(&scenario.robot, &mid, &mut ledger) {
            "free"
        } else {
            "collision (false positive)"
        }
    );
}
