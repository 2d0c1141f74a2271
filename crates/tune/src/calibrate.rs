//! The calibration probe: short seeded micro-plans that score candidate
//! profiles per request class and emit a [`ProfileTable`].
//!
//! Everything here is a pure function of (exemplar scenes, candidate
//! list, probe seed/budget): no wall clock is consulted, so the same
//! inputs always produce byte-identical tables. Callers that want probe
//! *latency* (bench, service metrics) time the `calibrate` call
//! themselves — latency is an observation about calibration, never an
//! input to it.

use std::collections::BTreeMap;

use moped_core::PlannerParams;
use moped_env::Scenario;

use crate::class::RequestClass;
use crate::table::ProfileTable;
use crate::PlannerProfile;

/// Probe parameters.
#[derive(Clone, Debug)]
pub struct CalibrationConfig {
    /// Sample budget of each micro-plan (small by design: the probe's
    /// job is ranking profiles, not solving hard scenes outright).
    pub probe_samples: usize,
    /// Fixed sampler seed shared by every probe plan.
    pub probe_seed: u64,
    /// Candidate profiles, scored in order (order breaks exact ties, so
    /// earlier candidates are preferred at equal scores).
    pub candidates: Vec<PlannerProfile>,
}

impl Default for CalibrationConfig {
    fn default() -> Self {
        CalibrationConfig {
            probe_samples: 480,
            probe_seed: 0xCA11_B007,
            candidates: default_candidates(),
        }
    }
}

/// The default candidate set: the static V4 stack first (ties keep the
/// status quo), then RRT-Connect on the MOPED stack, then an exact
/// kd-tree RRT\* for regimes where SIAS's approximate neighborhoods hurt
/// path quality.
pub fn default_candidates() -> Vec<PlannerProfile> {
    let base = PlannerProfile::static_default();
    vec![
        base.clone(),
        PlannerProfile {
            engine: moped_core::Engine::RrtConnect,
            ..base.clone()
        },
        PlannerProfile {
            nn_backend: moped_core::NnBackend::Kd,
            sias: false,
            ..base
        },
    ]
}

/// Aggregate probe result of one candidate over one class's exemplars.
#[derive(Clone, Debug)]
pub struct ProbeOutcome {
    /// The class probed.
    pub class_id: String,
    /// Candidate label (see [`PlannerProfile::label`]).
    pub profile_label: String,
    /// Exemplars solved within the probe budget.
    pub solved: u32,
    /// Exemplars probed.
    pub exemplars: u32,
    /// Total MAC-equivalent operations across exemplars (the latency
    /// proxy inside the determinism contract).
    pub total_macs: u64,
    /// Bit pattern of the summed path cost over solved exemplars
    /// (deterministic quality tie-break; bit order = numeric order for
    /// non-negative floats).
    pub cost_bits: u64,
}

/// Accumulates exemplar scenes per class, then probes every candidate on
/// each class and installs the winners in a [`ProfileTable`].
#[derive(Clone, Debug)]
pub struct Calibrator {
    cfg: CalibrationConfig,
    exemplars: BTreeMap<String, Vec<Scenario>>,
}

impl Calibrator {
    /// A calibrator with the given probe configuration.
    pub fn new(cfg: CalibrationConfig) -> Calibrator {
        Calibrator {
            cfg,
            exemplars: BTreeMap::new(),
        }
    }

    /// Registers one exemplar scene (classified internally).
    pub fn add_scenario(&mut self, s: &Scenario) {
        let class = RequestClass::of_scenario(s).id();
        self.exemplars.entry(class).or_default().push(s.clone());
    }

    /// Probes every candidate on every class and returns the calibrated
    /// table plus the full probe record (for bench stamps and tests).
    /// The winner per class maximizes solved count, then minimizes total
    /// MACs, then summed path cost, then keeps the earliest candidate.
    pub fn calibrate(&self) -> (ProfileTable, Vec<ProbeOutcome>) {
        let mut table = ProfileTable::static_default();
        let mut outcomes = Vec::new();
        let probe_params = PlannerParams {
            max_samples: self.cfg.probe_samples,
            seed: self.cfg.probe_seed,
            ..PlannerParams::default()
        };
        for (class_id, scenes) in &self.exemplars {
            let mut best: Option<(usize, u32, u64, u64)> = None; // (idx, solved, macs, cost)
            for (idx, candidate) in self.cfg.candidates.iter().enumerate() {
                let mut solved = 0u32;
                let mut total_macs = 0u64;
                let mut total_cost = 0.0f64;
                for scene in scenes {
                    let r = candidate.plan(scene, &probe_params);
                    if r.solved() {
                        solved += 1;
                        total_cost += r.path_cost;
                    }
                    total_macs += r.stats.total_ops().mac_equiv();
                }
                let cost_bits = total_cost.to_bits();
                outcomes.push(ProbeOutcome {
                    class_id: class_id.clone(),
                    profile_label: candidate.label(),
                    solved,
                    exemplars: scenes.len() as u32,
                    total_macs,
                    cost_bits,
                });
                let better = match &best {
                    None => true,
                    Some((_, s, m, c)) => {
                        (solved, u64::MAX - total_macs, u64::MAX - cost_bits)
                            > (*s, u64::MAX - *m, u64::MAX - *c)
                    }
                };
                if better {
                    best = Some((idx, solved, total_macs, cost_bits));
                }
            }
            if let Some((idx, solved, macs, _)) = best {
                let winner = &self.cfg.candidates[idx];
                let reason = format!(
                    "probe: {} solved {}/{} at {} macs (seed {:#x}, {} samples)",
                    winner.label(),
                    solved,
                    scenes.len(),
                    macs,
                    self.cfg.probe_seed,
                    self.cfg.probe_samples
                );
                table.insert(class_id, winner.clone(), &reason);
            }
        }
        (table, outcomes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moped_robot::RobotModel;
    use moped_scenarios::{CorpusEntry, Family};

    fn quick_cfg() -> CalibrationConfig {
        CalibrationConfig {
            probe_samples: 200,
            ..CalibrationConfig::default()
        }
    }

    #[test]
    fn calibration_is_deterministic() {
        let mut cal = Calibrator::new(quick_cfg());
        for family in [Family::Shelf, Family::Clutter] {
            cal.add_scenario(&CorpusEntry::new(family, RobotModel::Mobile2d, 1).build());
        }
        let (a, _) = cal.calibrate();
        let (b, _) = cal.calibrate();
        assert_eq!(a.serialize(), b.serialize());
        assert!(!a.is_empty());
    }

    #[test]
    fn probe_outcomes_cover_every_class_candidate_pair() {
        let mut cal = Calibrator::new(quick_cfg());
        cal.add_scenario(&CorpusEntry::new(Family::Shelf, RobotModel::Mobile2d, 1).build());
        cal.add_scenario(&CorpusEntry::new(Family::Shelf, RobotModel::Mobile2d, 2).build());
        let (table, outcomes) = cal.calibrate();
        let classes = outcomes
            .iter()
            .map(|o| &o.class_id)
            .collect::<std::collections::BTreeSet<_>>()
            .len();
        assert_eq!(outcomes.len(), classes * default_candidates().len());
        for o in &outcomes {
            assert!(o.solved <= o.exemplars);
            assert!(o.total_macs > 0);
        }
        // Every probed class got a table entry with a probe reason.
        for (_, _, reason) in table.iter() {
            assert!(reason.starts_with("probe: "), "{reason}");
        }
        assert_eq!(table.len(), classes);
    }

    #[test]
    fn shelf_calibration_picks_a_connect_engine() {
        // The motivating case: on shelf rooms the bidirectional engines
        // thread the door in a fraction of the single-tree engine's
        // operations, so once the probe budget is large enough to solve
        // the scene at all, a connect engine wins the class.
        let mut cal = Calibrator::new(CalibrationConfig {
            probe_samples: 800,
            ..CalibrationConfig::default()
        });
        for seed in [1, 2] {
            cal.add_scenario(&CorpusEntry::new(Family::Shelf, RobotModel::Mobile2d, seed).build());
        }
        let (table, _) = cal.calibrate();
        let class = RequestClass::of_scenario(
            &CorpusEntry::new(Family::Shelf, RobotModel::Mobile2d, 1).build(),
        );
        let res = table.resolve(&class.id());
        assert!(res.from_table);
        assert_ne!(
            res.profile.engine,
            moped_core::Engine::RrtStar,
            "probe should move shelf off single-tree RRT*: {}",
            res.reason
        );
    }
}
