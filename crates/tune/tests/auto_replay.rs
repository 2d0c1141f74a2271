//! The tuner's determinism contract, end to end: with a pinned
//! [`ProfileTable`], an auto-tuned plan is bit-identical across runs and
//! journal-replayable — switching profiles never leaves the replay
//! envelope the core planner guarantees.

use moped_collision::TwoStageChecker;
use moped_core::PlannerParams;
use moped_obs::Journal;
use moped_robot::RobotModel;
use moped_scenarios::{CorpusEntry, Family};
use moped_tune::{CalibrationConfig, Calibrator, ProfileTable, RequestClass};

fn pinned_table() -> ProfileTable {
    let mut cal = Calibrator::new(CalibrationConfig {
        probe_samples: 200,
        ..CalibrationConfig::default()
    });
    for family in [Family::Shelf, Family::Maze, Family::Clutter] {
        for seed in [1, 2] {
            cal.add_scenario(&CorpusEntry::new(family, RobotModel::Mobile2d, seed).build());
        }
    }
    cal.calibrate().0
}

#[test]
fn pinned_table_round_trips_and_resolves_identically() {
    let table = pinned_table();
    let wire = table.serialize();
    let reparsed = ProfileTable::parse(&wire).expect("wire round trip");
    assert_eq!(reparsed.serialize(), wire);
    for entry in [
        CorpusEntry::new(Family::Shelf, RobotModel::Mobile2d, 1),
        CorpusEntry::new(Family::Clutter, RobotModel::Mobile2d, 2),
    ] {
        let class = RequestClass::of_scenario(&entry.build()).id();
        assert_eq!(table.resolve(&class), reparsed.resolve(&class));
    }
}

#[test]
fn auto_tuned_plan_is_bit_identical_across_runs() {
    let table = pinned_table();
    let scene = CorpusEntry::new(Family::Maze, RobotModel::Mobile2d, 1).build();
    let res = table.resolve(&RequestClass::of_scenario(&scene).id());
    let params = PlannerParams {
        max_samples: 400,
        seed: 23,
        ..PlannerParams::default()
    };
    let a = res.profile.plan(&scene, &params);
    let b = res.profile.plan(&scene, &params);
    assert_eq!(a.solved(), b.solved());
    assert_eq!(a.path_cost.to_bits(), b.path_cost.to_bits());
    assert_eq!(a.stats.samples, b.stats.samples);
    assert_eq!(a.stats.total_ops(), b.stats.total_ops());
}

#[test]
fn auto_tuned_plan_replays_bit_identically_from_its_journal() {
    let table = pinned_table();
    let scene = CorpusEntry::new(Family::Shelf, RobotModel::Mobile2d, 1).build();
    let res = table.resolve(&RequestClass::of_scenario(&scene).id());
    assert!(res.from_table, "calibration must cover the shelf class");
    let params = PlannerParams {
        max_samples: 500,
        seed: 31,
        ..PlannerParams::default()
    };

    let checker = TwoStageChecker::moped(scene.obstacles.clone());
    let stack = |journal: Option<&Journal>| {
        let planner = res.profile.planner(&scene, &checker, &params);
        match journal {
            Some(j) => planner.with_replay(j),
            None => planner.with_journal_recording(),
        }
    };

    let mut recorder = stack(None);
    let original = recorder.plan();
    let journal = recorder.take_journal().expect("journaling was enabled");
    // Replay through the serialized wire format so the f64 hex round
    // trip is included in what the contract covers.
    let journal = Journal::parse(&journal.serialize()).expect("journal wire round trip");
    let replayed = stack(Some(&journal)).plan();

    assert_eq!(original.path_cost.to_bits(), replayed.path_cost.to_bits());
    assert_eq!(original.stats.samples, replayed.stats.samples);
    assert_eq!(original.stats.nodes, replayed.stats.nodes);
    assert_eq!(original.stats.total_ops(), replayed.stats.total_ops());
}
