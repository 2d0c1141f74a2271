//! The MOPED ablation ladder (Fig 16).

use std::fmt;

use crate::{CollisionStage, NnBackend, PlannerProfile};

/// The five designs the paper's breakdown evaluates:
///
/// | Variant | Collision check | Neighbor search | Insertion |
/// |---------|-----------------|-----------------|-----------|
/// | V0      | naive OBB–OBB   | linear scan     | —         |
/// | V1      | two-stage (TSPS)| linear scan     | —         |
/// | V2      | two-stage       | SI-MBR (STNS)   | min-enlargement |
/// | V3      | two-stage       | SI-MBR + SIAS   | min-enlargement |
/// | V4      | two-stage       | SI-MBR + SIAS   | LCI (full MOPED) |
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Variant {
    /// Baseline RRT\* (the CPU/C++ reference design).
    V0Baseline,
    /// + Two-Stage Processing Scheme for collision checks.
    V1Tsps,
    /// + SI-MBR-Tree neighbor search.
    V2Stns,
    /// + Steering-Informed Approximated Search.
    V3Sias,
    /// + Low-Cost Insertion — the full MOPED algorithm.
    V4Lci,
}

impl Variant {
    /// All variants in ablation order.
    pub const ALL: [Variant; 5] = [
        Variant::V0Baseline,
        Variant::V1Tsps,
        Variant::V2Stns,
        Variant::V3Sias,
        Variant::V4Lci,
    ];

    /// The rung's planner stack: RRT\* with the rung's collision stage,
    /// neighbor backend and search/insertion switches, and the caller's
    /// parameters unchanged. Every evaluation figure drives these: same
    /// scenario, same seed, same sampling budget — only the co-designed
    /// kernels vary.
    pub fn profile(self) -> PlannerProfile {
        let (collision, nn_backend, sias, lci) = match self {
            Variant::V0Baseline => (CollisionStage::Naive, NnBackend::Linear, false, false),
            Variant::V1Tsps => (CollisionStage::TwoStage, NnBackend::Linear, false, false),
            Variant::V2Stns => (CollisionStage::TwoStage, NnBackend::SiMbr, false, false),
            Variant::V3Sias => (CollisionStage::TwoStage, NnBackend::SiMbr, true, false),
            Variant::V4Lci => (CollisionStage::TwoStage, NnBackend::SiMbr, true, true),
        };
        PlannerProfile {
            collision,
            nn_backend,
            sias,
            lci,
            ..PlannerProfile::static_default()
        }
    }
}

impl fmt::Display for Variant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Variant::V0Baseline => "V0-baseline",
            Variant::V1Tsps => "V1-TSPS",
            Variant::V2Stns => "V2-STNS",
            Variant::V3Sias => "V3-SIAS",
            Variant::V4Lci => "V4-LCI",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, PlannerParams};
    use moped_env::{Scenario, ScenarioParams};
    use moped_robot::Robot;

    fn scene(seed: u64) -> Scenario {
        Scenario::generate(Robot::drone_3d(), &ScenarioParams::with_obstacles(16), seed)
    }

    #[test]
    fn ablation_reduces_the_cost_each_technique_targets() {
        // Fig 16 decomposition: TSPS cuts collision-check work, STNS and
        // SIAS cut neighbor-search work, LCI cuts insertion work. Totals
        // across variants diverge per-run (different parent choices grow
        // different trees), so each claim is checked on its own ledger.
        let s = scene(19);
        let params = PlannerParams {
            max_samples: 300,
            seed: 7,
            ..PlannerParams::default()
        };
        let results: Vec<_> = Variant::ALL
            .iter()
            .map(|v| v.profile().plan(&s, &params))
            .collect();
        let total = |i: usize| results[i].stats.total_ops().mac_equiv();
        let cc = |i: usize| results[i].stats.collision.total_ops().mac_equiv();
        let ns = |i: usize| results[i].stats.ns_ops.mac_equiv();
        let ins = |i: usize| results[i].stats.insert_ops.mac_equiv();

        assert!(
            cc(1) * 2 < cc(0),
            "TSPS must cut collision work >2x: {} vs {}",
            cc(1),
            cc(0)
        );
        assert!(
            ns(2) < ns(1),
            "STNS must cut NS work: {} vs {}",
            ns(2),
            ns(1)
        );
        // SIAS removes the second of the round's two searches; the exact
        // factor depends on how range-search-heavy the workload is.
        assert!(
            (ns(3) as f64) * 1.5 < ns(2) as f64,
            "SIAS must cut NS work >1.5x: {} vs {}",
            ns(3),
            ns(2)
        );
        assert!(
            ins(4) < ins(3),
            "LCI must cut insertion work: {} vs {}",
            ins(4),
            ins(3)
        );
        assert!(
            total(4) * 2 < total(0),
            "full MOPED should save >2x total at this small budget: {} vs {}",
            total(4),
            total(0)
        );
    }

    #[test]
    fn sias_preserves_path_quality() {
        // Fig 8 (left): approximated neighbor search must not degrade
        // path cost materially (averaged over seeds to damp run noise).
        let params = PlannerParams {
            max_samples: 400,
            seed: 5,
            ..PlannerParams::default()
        };
        let mut exact_sum = 0.0;
        let mut approx_sum = 0.0;
        let mut solved = 0;
        for seed in 0..4 {
            let s = Scenario::generate(
                Robot::mobile_2d(),
                &ScenarioParams::with_obstacles(16),
                100 + seed,
            );
            let exact = Variant::V2Stns.profile().plan(&s, &params);
            let approx = Variant::V3Sias.profile().plan(&s, &params);
            if exact.solved() && approx.solved() {
                exact_sum += exact.path_cost;
                approx_sum += approx.path_cost;
                solved += 1;
            }
        }
        assert!(solved >= 2, "need solved instances to compare");
        assert!(
            approx_sum < exact_sum * 1.3,
            "SIAS path cost should stay close: {approx_sum} vs {exact_sum}"
        );
    }

    #[test]
    fn all_variants_produce_sound_results() {
        let s = scene(23);
        let params = PlannerParams {
            max_samples: 200,
            seed: 3,
            ..PlannerParams::default()
        };
        for v in Variant::ALL {
            let r = v.profile().plan(&s, &params);
            assert_eq!(r.stats.samples, 200, "{v}");
            if let Some(path) = &r.path {
                assert_eq!(path[0], s.start, "{v}");
                assert_eq!(*path.last().unwrap(), s.goal, "{v}");
            }
        }
    }

    #[test]
    fn display_names_are_unique() {
        let names: std::collections::HashSet<String> =
            Variant::ALL.iter().map(|v| v.to_string()).collect();
        assert_eq!(names.len(), 5);
    }

    #[test]
    fn component_table_matches_ladder() {
        use CollisionStage::{Naive, TwoStage};
        use NnBackend::{Linear, SiMbr};
        let rungs = [
            (Variant::V0Baseline, (Naive, Linear, false, false)),
            (Variant::V1Tsps, (TwoStage, Linear, false, false)),
            (Variant::V2Stns, (TwoStage, SiMbr, false, false)),
            (Variant::V3Sias, (TwoStage, SiMbr, true, false)),
            (Variant::V4Lci, (TwoStage, SiMbr, true, true)),
        ];
        for (v, (collision, nn_backend, sias, lci)) in rungs {
            let p = v.profile();
            assert_eq!(
                (p.collision, p.nn_backend, p.sias, p.lci, p.engine),
                (collision, nn_backend, sias, lci, Engine::RrtStar),
                "{v}"
            );
        }
    }

    #[test]
    fn the_top_rung_is_the_static_default() {
        assert_eq!(Variant::V4Lci.profile(), PlannerProfile::static_default());
    }
}
