//! Arm manipulation: plan joint-space motions for the three manipulator
//! models (5/6/7 DoF) and show the flexible-dimension support — the same
//! engine, unchanged, across configuration-space sizes.
//!
//! Run with: `cargo run --example arm_manipulation`

use moped::core::{PlannerParams, Variant};
use moped::env::{Scenario, ScenarioParams};
use moped::robot::Robot;

fn main() {
    println!("Joint-space planning across manipulator models\n");

    for robot in [Robot::viperx_300(), Robot::rozum(), Robot::xarm7()] {
        let name = robot.name();
        let dof = robot.dof();
        let bodies = robot.num_bodies();
        let scenario = Scenario::generate(robot, &ScenarioParams::with_obstacles(16), 77);
        let params = PlannerParams {
            max_samples: 1500,
            seed: 3,
            goal_tolerance: 0.8,
            ..PlannerParams::default()
        };
        let base = Variant::V0Baseline.profile().plan(&scenario, &params);
        let moped = Variant::V4Lci.profile().plan(&scenario, &params);

        println!("== {name} ({dof} DoF, {bodies} body boxes) ==");
        println!(
            "  baseline ops : {:>14}",
            base.stats.total_ops().mac_equiv()
        );
        println!(
            "  MOPED ops    : {:>14}",
            moped.stats.total_ops().mac_equiv()
        );
        println!(
            "  saving       : {:>13.1}x",
            base.stats.total_ops().mac_equiv() as f64
                / moped.stats.total_ops().mac_equiv().max(1) as f64
        );
        println!(
            "  solved       : baseline {} / MOPED {}",
            base.solved(),
            moped.solved()
        );
        if let Some(path) = &moped.path {
            // Show the end-effector sweep of the planned joint path.
            let ee_start = scenario.robot.end_effector(&path[0]);
            let ee_goal = scenario.robot.end_effector(path.last().unwrap());
            println!(
                "  end effector : {:?} -> {:?} over {} waypoints",
                ee_start,
                ee_goal,
                path.len()
            );
        }
        println!();
    }

    println!("Higher-DoF models spend more per distance calculation and per");
    println!("FK body box, which is exactly where MOPED's reductions bite.");
}
