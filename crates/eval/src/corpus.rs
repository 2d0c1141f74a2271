//! Corpus regression matrix: engine × scenario family × robot.
//!
//! [`run_matrix`] drives every engine over every seeded corpus scenario
//! and returns one [`MatrixCell`] per (scenario, engine) pair — success,
//! path cost and operation counts. The bench harness
//! serializes the cells into `BENCH_corpus.json`; tests and CI gates
//! read them directly.

use moped_core::{Engine, PlanResult, PlannerParams, PlannerProfile, Variant};
use moped_env::Scenario;
use moped_scenarios::CorpusEntry;
use moped_tune::{
    CalibrationConfig, Calibrator, ProbeOutcome, ProfileTable, RequestClass, Resolution,
};

/// A planning engine column in the regression matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// Baseline RRT\* on the reference component stack (naive collision
    /// checking, linear neighbor scan) — the paper's CPU reference.
    ReferenceRrtStar,
    /// RRT\* on the full MOPED stack (TSPS + SI-MBR + SIAS + LCI).
    MopedRrtStar,
    /// Bidirectional RRT-Connect on the MOPED stack.
    RrtConnect,
    /// Per-class auto-tuned profile resolved from a calibrated
    /// [`ProfileTable`] ([`run_auto_column`]); without a table
    /// ([`plan_engine`]) it degrades to the static default profile,
    /// which is the MOPED RRT\* stack.
    Auto,
}

impl EngineKind {
    /// Every *static* engine column, in report order. [`EngineKind::Auto`]
    /// is deliberately excluded: its rows need a calibrated
    /// [`ProfileTable`] and go through [`run_auto_column`].
    pub const ALL: [EngineKind; 3] = [
        EngineKind::ReferenceRrtStar,
        EngineKind::MopedRrtStar,
        EngineKind::RrtConnect,
    ];

    /// Stable identifier used in bench JSON.
    pub fn name(&self) -> &'static str {
        match self {
            EngineKind::ReferenceRrtStar => "reference-rrt-star",
            EngineKind::MopedRrtStar => "moped-rrt-star",
            EngineKind::RrtConnect => "moped-rrt-connect",
            EngineKind::Auto => "moped-auto",
        }
    }
}

/// One (scenario, engine) cell of the regression matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct MatrixCell {
    /// Corpus id, e.g. `narrow-passage/drone_3d/s1`.
    pub scenario_id: String,
    /// Family name (first id component).
    pub family: &'static str,
    /// Robot slug (second id component).
    pub robot: &'static str,
    /// Generation seed of the scenario.
    pub scenario_seed: u64,
    /// Engine that produced this row.
    pub engine: EngineKind,
    /// Whether a path was found within the sample budget.
    pub solved: bool,
    /// Path cost (`f64::INFINITY` when unsolved).
    pub path_cost: f64,
    /// Samples drawn.
    pub samples: usize,
    /// Tree nodes at exit.
    pub nodes: usize,
    /// Total MAC-equivalent operations.
    pub total_macs: u64,
    /// Deferred parent edges RRT\* checked (see `PlanStats`).
    pub deferred_checked: u64,
    /// Deferred edges repaired onto their fallback parent.
    pub repairs: u64,
    /// Resolved profile label (`engine/index`), auto rows only.
    pub profile: Option<String>,
    /// Resolved NN backend name, auto rows only.
    pub nn_backend: Option<String>,
    /// Request class the profile was resolved under, auto rows only.
    pub class_id: Option<String>,
}

/// Plans one scenario with one engine column.
///
/// The reference column is the [`Variant::V0Baseline`] profile; the MOPED
/// columns are the [`Variant::V4Lci`] profile with the column's
/// [`Engine`]. Without a table, [`EngineKind::Auto`] is the static
/// default profile, which is the V4 stack; callers with a calibrated
/// table use [`run_auto_column`], which resolves per class.
pub fn plan_engine(scenario: &Scenario, engine: EngineKind, params: &PlannerParams) -> PlanResult {
    let profile = match engine {
        EngineKind::ReferenceRrtStar => Variant::V0Baseline.profile(),
        EngineKind::MopedRrtStar | EngineKind::Auto => Variant::V4Lci.profile(),
        EngineKind::RrtConnect => PlannerProfile {
            engine: Engine::RrtConnect,
            ..Variant::V4Lci.profile()
        },
    };
    profile.plan(scenario, params)
}

/// Runs every engine over every corpus entry; one cell per pair. Every
/// cell is bit-deterministic in `(entry, engine, params)`.
pub fn run_matrix(
    entries: &[CorpusEntry],
    engines: &[EngineKind],
    params: &PlannerParams,
) -> Vec<MatrixCell> {
    let mut cells = Vec::with_capacity(entries.len() * engines.len());
    for entry in entries {
        let scenario = entry.build();
        for &engine in engines {
            let r = plan_engine(&scenario, engine, params);
            cells.push(matrix_cell(entry, engine, &r, None));
        }
    }
    cells
}

/// One matrix row: the entry's identity, the plan's outcome and counts,
/// and — for auto rows — the profile resolution it planned under.
fn matrix_cell(
    entry: &CorpusEntry,
    engine: EngineKind,
    r: &PlanResult,
    res: Option<&Resolution>,
) -> MatrixCell {
    MatrixCell {
        scenario_id: entry.id(),
        family: entry.family.name(),
        robot: moped_scenarios::robot_slug(entry.robot),
        scenario_seed: entry.seed,
        engine,
        solved: r.solved(),
        path_cost: r.path_cost,
        samples: r.stats.samples,
        nodes: r.stats.nodes,
        total_macs: r.stats.total_ops().mac_equiv(),
        deferred_checked: r.stats.deferred_checked,
        repairs: r.stats.repairs,
        profile: res.map(|res| res.profile.label()),
        nn_backend: res.map(|res| res.profile.nn_backend.name().to_string()),
        class_id: res.map(|res| res.class_id.clone()),
    }
}

/// Calibrates a [`ProfileTable`] over the given corpus entries (each
/// entry is one exemplar of its request class) at the given probe
/// budget. Deterministic in `(entries, probe_samples)`.
pub fn calibrate_table(
    entries: &[CorpusEntry],
    probe_samples: usize,
) -> (ProfileTable, Vec<ProbeOutcome>) {
    let mut cal = Calibrator::new(CalibrationConfig {
        probe_samples,
        ..CalibrationConfig::default()
    });
    for entry in entries {
        cal.add_scenario(&entry.build());
    }
    cal.calibrate()
}

/// Runs the auto-tuned column: every corpus entry planned under the
/// profile `table` resolves for its request class, one
/// [`EngineKind::Auto`] cell per entry with the resolved profile, NN
/// backend, and class id stamped on the row.
pub fn run_auto_column(
    entries: &[CorpusEntry],
    table: &ProfileTable,
    params: &PlannerParams,
) -> Vec<MatrixCell> {
    let mut cells = Vec::with_capacity(entries.len());
    for entry in entries {
        let scenario = entry.build();
        let res = table.resolve(&RequestClass::of_scenario(&scenario).id());
        let r = res.profile.plan(&scenario, params);
        cells.push(matrix_cell(entry, EngineKind::Auto, &r, Some(&res)));
    }
    cells
}

/// Success rate of one engine restricted to one family (0 when the
/// family/engine pair has no cells).
pub fn family_success_rate(cells: &[MatrixCell], family: &str, engine: EngineKind) -> f64 {
    let rows: Vec<&MatrixCell> = cells
        .iter()
        .filter(|c| c.family == family && c.engine == engine)
        .collect();
    if rows.is_empty() {
        return 0.0;
    }
    rows.iter().filter(|c| c.solved).count() as f64 / rows.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use moped_robot::RobotModel;
    use moped_scenarios::Family;

    fn quick_params() -> PlannerParams {
        PlannerParams {
            max_samples: 250,
            seed: 11,
            ..PlannerParams::default()
        }
    }

    #[test]
    fn matrix_covers_every_pair() {
        let entries = vec![
            CorpusEntry::new(Family::Clutter, RobotModel::Mobile2d, 1),
            CorpusEntry::new(Family::Shelf, RobotModel::Mobile2d, 1),
        ];
        let cells = run_matrix(&entries, &EngineKind::ALL, &quick_params());
        assert_eq!(cells.len(), entries.len() * EngineKind::ALL.len());
        for engine in EngineKind::ALL {
            assert_eq!(cells.iter().filter(|c| c.engine == engine).count(), 2);
        }
        for c in &cells {
            assert!(c.samples > 0 && c.samples <= 250, "{}", c.scenario_id);
            assert!(c.total_macs > 0, "{}", c.scenario_id);
            assert!(!c.solved || c.path_cost > 0.0, "{}", c.scenario_id);
        }
    }

    #[test]
    fn matrix_cells_are_deterministic() {
        let entries = vec![CorpusEntry::new(Family::Maze, RobotModel::Mobile2d, 2)];
        let a = run_matrix(&entries, &EngineKind::ALL, &quick_params());
        let b = run_matrix(&entries, &EngineKind::ALL, &quick_params());
        assert_eq!(a, b);
    }

    #[test]
    fn auto_column_resolves_and_stamps_profiles() {
        let entries = vec![
            CorpusEntry::new(Family::Shelf, RobotModel::Mobile2d, 1),
            CorpusEntry::new(Family::Clutter, RobotModel::Drone3d, 1),
        ];
        let (table, probes) = calibrate_table(&entries, 150);
        assert!(!table.is_empty());
        assert!(!probes.is_empty());
        let cells = run_auto_column(&entries, &table, &quick_params());
        assert_eq!(cells.len(), entries.len());
        for c in &cells {
            assert_eq!(c.engine, EngineKind::Auto);
            let class = c.class_id.as_deref().expect("auto rows carry a class");
            assert!(class.contains("/d"), "{class}");
            assert!(c.profile.is_some() && c.nn_backend.is_some());
        }
        // Deterministic, like the static columns.
        assert_eq!(cells, run_auto_column(&entries, &table, &quick_params()));
    }

    #[test]
    fn tableless_auto_engine_matches_the_static_default_stack() {
        // Without a table, `plan_engine(Auto)` is the static default
        // profile — i.e. the full MOPED RRT* stack, bit for bit.
        let scenario = CorpusEntry::new(Family::Clutter, RobotModel::Mobile2d, 2).build();
        let auto = plan_engine(&scenario, EngineKind::Auto, &quick_params());
        let star = plan_engine(&scenario, EngineKind::MopedRrtStar, &quick_params());
        assert_eq!(auto.solved(), star.solved());
        assert_eq!(auto.path_cost.to_bits(), star.path_cost.to_bits());
        assert_eq!(auto.stats.samples, star.stats.samples);
    }

    #[test]
    fn family_success_rate_handles_missing_pairs() {
        assert_eq!(
            family_success_rate(&[], "maze", EngineKind::MopedRrtStar),
            0.0
        );
    }

    #[test]
    fn connect_engines_match_rrt_star_goal_semantics() {
        // Solved cells must carry the exact start→goal endpoints
        // regardless of engine.
        let entry = CorpusEntry::new(Family::Clutter, RobotModel::Drone3d, 1);
        let scenario = entry.build();
        for engine in EngineKind::ALL {
            let r = plan_engine(&scenario, engine, &quick_params());
            if let Some(path) = &r.path {
                assert_eq!(path[0], scenario.start, "{}", engine.name());
                assert_eq!(*path.last().unwrap(), scenario.goal, "{}", engine.name());
            }
        }
    }
}
