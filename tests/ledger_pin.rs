//! Pins seeded plans bit for bit: the complete collision ledger of one
//! xarm7 plan and of one neighbor-bound drone plan, and the path cost,
//! sample count and op total of every ablation rung and engine column on
//! one small scene.
//!
//! The pose-check kernels (R-tree filter, prepared AABB–OBB SAT, forward
//! kinematics) may be rewritten for speed, and the way a planner stack is
//! assembled may change, but every verdict, count and modelled op charge
//! must stay the same. The xarm7 constants were taken from the kernels
//! before the flat R-tree / prepared-body rewrite; any drift in a single
//! counter or in the last bit of the path cost fails here.

use moped::collision::{CollisionLedger, TwoStageChecker};
use moped::core::{AnyIndex, PlanResult, PlannerParams, Variant};
use moped::env::{Scenario, ScenarioParams};
use moped::eval::corpus::{plan_engine, EngineKind};
use moped::geometry::OpCount;
use moped::robot::{Robot, RobotModel};
use moped::rtree::FilterStats;
use moped::scenarios::{CorpusEntry, Family};
use moped::simbr::CacheStats;

#[test]
fn xarm7_clutter_plan_ledger_is_pinned() {
    let scenario = CorpusEntry::new(Family::Clutter, RobotModel::XArm7, 1).build();
    let params = PlannerParams {
        max_samples: 900,
        seed: 7,
        ..PlannerParams::default()
    };
    let result = Variant::V4Lci.profile().plan(&scenario, &params);
    let expected = CollisionLedger {
        first_stage: OpCount {
            mul: 36_876_138,
            add: 49_072_445,
            cmp: 7_863_853,
            sqrt: 0,
            dist_calcs: 0,
            sat_queries: 1_661_923,
            mem_words: 9_971_538,
        },
        second_stage: OpCount {
            mul: 102_726,
            add: 84_288,
            cmp: 13_170,
            sqrt: 0,
            dist_calcs: 0,
            sat_queries: 878,
            mem_words: 13_170,
        },
        motion_queries: 2_401,
        pose_queries: 56_354,
        filter: FilterStats {
            node_checks: 1_366_151,
            leaf_checks: 295_772,
            pruned_subtrees: 998_868,
            survivors: 878,
        },
    };
    assert_eq!(result.stats.collision, expected);
    assert!(result.path.is_some(), "the pinned plan solves");
    assert_eq!(result.path_cost.to_bits(), 0x4017_7742_47c7_88ab);
}

/// The neighbor-bound workload: a 6-DoF drone among 8 obstacles at 5 000
/// samples, where SI-MBR search rather than collision checking dominates.
/// Besides the collision ledger this pins the search work (node visits,
/// exact distances) and the top-of-tree and search-trace cache counters,
/// so a change to the nearest-neighbor engine that alters traversal order
/// fails here even when the path does not move.
#[test]
fn drone_sparse_plan_ledger_and_search_are_pinned() {
    let scenario = Scenario::generate(Robot::drone_3d(), &ScenarioParams::with_obstacles(8), 1);
    let params = PlannerParams {
        max_samples: 5_000,
        seed: 7,
        ..PlannerParams::default()
    };
    let checker = TwoStageChecker::moped(scenario.obstacles.clone());
    let mut planner = Variant::V4Lci
        .profile()
        .planner(&scenario, &checker, &params);
    let result = planner.plan();
    let expected = CollisionLedger {
        first_stage: OpCount {
            mul: 7_114_992,
            add: 8_933_573,
            cmp: 1_447_989,
            sqrt: 0,
            dist_calcs: 0,
            sat_queries: 286_220,
            mem_words: 1_717_320,
        },
        second_stage: OpCount {
            mul: 105_885,
            add: 86_880,
            cmp: 13_575,
            sqrt: 0,
            dist_calcs: 0,
            sat_queries: 905,
            mem_words: 13_575,
        },
        motion_queries: 8_425,
        pose_queries: 59_928,
        filter: FilterStats {
            node_checks: 137_356,
            leaf_checks: 148_864,
            pruned_subtrees: 61_426,
            survivors: 905,
        },
    };
    assert_eq!(result.stats.collision, expected);
    assert!(result.path.is_some(), "the pinned plan solves");
    assert_eq!(result.path_cost.to_bits(), 0x4053_2ea6_c7fb_d3f0);

    let AnyIndex::SiMbr(index) = planner.index() else {
        panic!("V4 plans over the SI-MBR index");
    };
    let search = index.search_stats();
    assert_eq!(search.nodes_visited, 46_269);
    assert_eq!(search.distance_calcs, 41_395);
    assert_eq!(
        index.tree().cache_stats(),
        CacheStats {
            top_hits: 20_512,
            top_misses: 25_757,
            seed_hits: 4_999,
            seed_misses: 0,
        }
    );
}

/// Every rung of the V0–V4 ladder and both connect engines, on one small
/// corpus scene: `(row, path_cost bits, samples, total MAC-equivalents)`.
/// Taken before the ladder and the engine columns were folded into one
/// `PlannerProfile` assembly path; any stack that plans differently from
/// the one it replaced fails here.
const LADDER_ROWS: [(&str, u64, usize, u64); 7] = [
    ("V0-baseline", 0x4073_1892_0db1_4260, 400, 3_457_556),
    ("V1-TSPS", 0x4073_1892_0db1_4260, 400, 1_436_671),
    ("V2-STNS", 0x4073_1892_0db1_4260, 400, 846_993),
    ("V3-SIAS", 0x4071_9577_9606_bc50, 400, 1_281_977),
    ("V4-LCI", 0x4072_6a41_847d_2bdf, 400, 1_111_497),
    ("moped-rrt-connect", 0x4075_183b_916f_f669, 99, 200_168),
    ("moped-multi-tree", 0x4075_81fb_ff39_db98, 80, 224_704),
];

#[test]
fn ladder_and_engine_rows_are_pinned() {
    let scenario = CorpusEntry::new(Family::Clutter, RobotModel::Mobile2d, 1).build();
    let params = PlannerParams {
        max_samples: 400,
        seed: 7,
        ..PlannerParams::default()
    };
    let mut rows: Vec<(String, PlanResult)> = Variant::ALL
        .iter()
        .map(|v| (v.to_string(), v.profile().plan(&scenario, &params)))
        .collect();
    for engine in [EngineKind::RrtConnect, EngineKind::MultiTree] {
        rows.push((
            engine.name().to_string(),
            plan_engine(&scenario, engine, &params),
        ));
    }
    assert_eq!(rows.len(), LADDER_ROWS.len());
    for ((name, r), (want_name, cost_bits, samples, macs)) in rows.iter().zip(LADDER_ROWS) {
        assert_eq!(name, want_name);
        assert_eq!(r.path_cost.to_bits(), cost_bits, "{name}: path cost");
        assert_eq!(r.stats.samples, samples, "{name}: samples");
        assert_eq!(r.stats.total_ops().mac_equiv(), macs, "{name}: MACs");
    }
}
