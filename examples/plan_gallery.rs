//! Plan gallery: renders SVG snapshots of planner behaviour — the
//! exploration tree, the raw RRT\* path, and the smoothed path — for an
//! open scene and a narrow passage. Output lands in `target/gallery/`.
//!
//! Run with: `cargo run --release --example plan_gallery`

use moped::collision::{CollisionLedger, TwoStageChecker};
use moped::core::{smooth, PlannerParams, PlannerProfile};
use moped::env::{Scenario, ScenarioParams};
use moped::geometry::InterpolationSteps;
use moped::robot::Robot;
use moped::viz::SceneSvg;

fn main() -> std::io::Result<()> {
    let out_dir = std::path::Path::new("target/gallery");
    std::fs::create_dir_all(out_dir)?;

    let scenes = [
        (
            "open_field",
            Scenario::generate(Robot::mobile_2d(), &ScenarioParams::with_obstacles(16), 42),
        ),
        (
            "narrow_passage",
            Scenario::narrow_passage(Robot::mobile_2d(), 30.0, 0.5),
        ),
    ];

    for (name, scenario) in scenes {
        let checker = TwoStageChecker::moped(scenario.obstacles.clone());
        let params = PlannerParams {
            max_samples: 2500,
            seed: 7,
            ..PlannerParams::default()
        };
        let mut planner = PlannerProfile::static_default().planner(&scenario, &checker, &params);
        let result = planner.plan();

        // Exploration-tree edges from the planner snapshot.
        let snapshot = planner.tree_snapshot();
        let edges: Vec<_> = snapshot
            .iter()
            .filter_map(|(q, parent, _)| parent.map(|p| (snapshot[p].0, *q)))
            .collect();

        let mut svg = SceneSvg::new(&scenario).with_tree(&edges);
        if let Some(path) = &result.path {
            svg = svg.with_path(path, "#1351d8");
            let steps = InterpolationSteps::with_resolution(1.0);
            let mut ledger = CollisionLedger::default();
            let smoothed =
                smooth::shortcut(path, &scenario.robot, &checker, &steps, 400, 3, &mut ledger);
            svg = svg.with_path(&smoothed.path, "#2d7d46");
            println!(
                "{name}: solved, cost {:.1} -> smoothed {:.1} ({} shortcuts)",
                smoothed.cost_before, smoothed.cost_after, smoothed.shortcuts_applied
            );
        } else {
            println!("{name}: no path found at this budget");
        }

        let file = out_dir.join(format!("{name}.svg"));
        std::fs::write(&file, svg.render())?;
        println!("  wrote {}", file.display());
    }
    Ok(())
}
