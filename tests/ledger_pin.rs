//! Pins seeded plans bit for bit: the complete collision ledger of one
//! xarm7 plan and of one neighbor-bound drone plan, and the path cost,
//! sample count and op total of every ablation rung and engine column on
//! one small scene.
//!
//! The pose-check kernels (R-tree filter, prepared AABB–OBB SAT, forward
//! kinematics) may be rewritten for speed, and the way a planner stack is
//! assembled may change, but every verdict, count and modelled op charge
//! must stay the same; any drift in a single counter or in the last bit
//! of the path cost fails here. Path costs, sample and node counts,
//! journals, solution histories and trees date from before the flat
//! R-tree / prepared-body rewrite. Collision ledgers, MAC totals and
//! round-trace hashes were re-taken when RRT\*'s goal connection became
//! bound-first: a goal edge that cannot beat the best path is no longer
//! checked, and the goal checks that remain are charged to refinement.
//! That removed collision work without moving any path, tree or journal.
//! The neighbor-search ledger, search counters, MAC totals and
//! round-trace hashes were re-taken when SI-MBR nearest became a
//! depth-first search: it visits more nodes than the best-first search
//! did, but returns the same entry, so again no path, tree, journal or
//! collision ledger moved. They were re-taken once more when the software
//! top-of-tree block and the previous-winner seed were deleted: the
//! search starts from an unbounded best and nodes keep their allocation
//! slots, which moves only the modelled search work. Second-stage
//! charges, MAC totals and round-trace and ledger hashes were re-taken
//! when the two-stage narrow phase became one early-exit `sat::obb_obb`
//! per survivor, stopping at the first hit: a pair is charged up to its
//! separating axis instead of all 15, and no verdict, path, tree or
//! journal moved. The RRT\* collision ledgers, MAC totals, journal,
//! round-trace, tree and ledger hashes were re-taken when RRT\*'s parent
//! choice became lazy: `x_new` attaches to its cheapest candidate
//! unchecked, and only deferred edges on the returned path are checked.
//! Trees and journals moved; no pinned path cost, solution history or
//! search counter did, and the RRT-Connect rows are unchanged.

use moped::collision::{CollisionLedger, TwoStageChecker};
use moped::core::{AnyIndex, PlanResult, PlannerParams, Variant};
use moped::env::{Scenario, ScenarioParams};
use moped::eval::corpus::{plan_engine, EngineKind};
use moped::geometry::OpCount;
use moped::robot::{Robot, RobotModel};
use moped::rtree::FilterStats;
use moped::scenarios::{CorpusEntry, Family};
use moped::simbr::SearchStats;

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
            mul: 3_650_205,
            add: 4_757_606,
            cmp: 765_960,
            sqrt: 0,
            dist_calcs: 0,
            sat_queries: 158_009,
            mem_words: 948_054,
        },
        second_stage: OpCount {
            mul: 11_721,
            add: 10_819,
            cmp: 1_024,
            sqrt: 0,
            dist_calcs: 0,
            sat_queries: 193,
            mem_words: 2_895,
        },
        motion_queries: 867,
        pose_queries: 3_737,
        filter: FilterStats {
            node_checks: 120_609,
            leaf_checks: 37_400,
            pruned_subtrees: 83_295,
            survivors: 193,
        },
    };
    assert_eq!(result.stats.collision, expected);
    assert!(result.path.is_some(), "the pinned plan solves");
    assert_eq!(result.path_cost.to_bits(), 0x4017_7742_47c7_88ab);
}

/// The neighbor-bound workload: a 6-DoF drone among 8 obstacles at 5 000
/// samples, where SI-MBR search rather than collision checking dominates.
/// Besides the collision ledger this pins the search work (node visits,
/// exact distances), the full neighbor-search and insert op ledgers and
/// the final tree shape, so a change to the nearest-neighbor engine that
/// alters traversal order, split decisions or any op charge fails here
/// even when the path does not move.
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
            mul: 2_445_417,
            add: 3_067_058,
            cmp: 497_602,
            sqrt: 0,
            dist_calcs: 0,
            sat_queries: 98_100,
            mem_words: 588_600,
        },
        second_stage: OpCount {
            mul: 18_399,
            add: 17_635,
            cmp: 1_122,
            sqrt: 0,
            dist_calcs: 0,
            sat_queries: 380,
            mem_words: 5_700,
        },
        motion_queries: 4_772,
        pose_queries: 20_644,
        filter: FilterStats {
            node_checks: 47_292,
            leaf_checks: 50_808,
            pruned_subtrees: 21_266,
            survivors: 380,
        },
    };
    assert_eq!(result.stats.collision, expected);
    assert!(result.path.is_some(), "the pinned plan solves");
    assert_eq!(result.path_cost.to_bits(), 0x4053_2ea6_c7fb_d3f0);

    let AnyIndex::SiMbr(index) = planner.index() else {
        panic!("V4 plans over the SI-MBR index");
    };
    assert_eq!(
        index.search_stats(),
        SearchStats {
            nodes_visited: 59_775,
            subtrees_skipped: 145_544,
            distance_calcs: 62_473,
        }
    );
    assert_eq!(
        result.stats.ns_ops,
        OpCount {
            mul: 1_576_752,
            add: 2_890_712,
            cmp: 2_967_139,
            sqrt: 0,
            dist_calcs: 62_473,
            sat_queries: 0,
            mem_words: 2_928_746,
        }
    );
    assert_eq!(
        result.stats.insert_ops,
        OpCount {
            mul: 0,
            add: 77_948,
            cmp: 349_078,
            sqrt: 0,
            dist_calcs: 0,
            sat_queries: 0,
            mem_words: 310_104,
        }
    );
    let tree = index.tree();
    assert_eq!(tree.node_count(), 1_505);
    assert_eq!(tree.height(), 6);
    assert_eq!(tree.memory_words(), 52_758);
}

/// Every rung of the V0–V4 ladder and the RRT-Connect engine, on one small
/// corpus scene: `(row, path_cost bits, samples, total MAC-equivalents)`.
/// Path costs and samples were taken before the ladder and the engine
/// columns were folded into one `PlannerProfile` assembly path; any stack
/// that plans differently from the one it replaced fails here.
const LADDER_ROWS: [(&str, u64, usize, u64); 6] = [
    ("V0-baseline", 0x4073_1892_0db1_4260, 400, 2_690_740),
    ("V1-TSPS", 0x4073_1892_0db1_4260, 400, 1_271_133),
    ("V2-STNS", 0x4073_1892_0db1_4260, 400, 677_917),
    ("V3-SIAS", 0x4071_9577_9606_bc50, 400, 686_977),
    ("V4-LCI", 0x4072_6a41_847d_2bdf, 400, 554_769),
    ("moped-rrt-connect", 0x4075_183b_916f_f669, 99, 198_934),
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
    rows.push((
        EngineKind::RrtConnect.name().to_string(),
        plan_engine(&scenario, EngineKind::RrtConnect, &params),
    ));
    assert_eq!(rows.len(), LADDER_ROWS.len());
    for ((name, r), (want_name, cost_bits, samples, macs)) in rows.iter().zip(LADDER_ROWS) {
        assert_eq!(name, want_name);
        assert_eq!(r.path_cost.to_bits(), cost_bits, "{name}: path cost");
        assert_eq!(r.stats.samples, samples, "{name}: samples");
        assert_eq!(r.stats.total_ops().mac_equiv(), macs, "{name}: MACs");
    }
}

/// FNV-1a (64-bit) over a string: a stable fingerprint for pinning long
/// serialized artifacts without storing them.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One engine on one scene: `(path_cost bits, nodes, samples, total
/// MACs)` and FNV-1a hashes of the serialized journal, the `{:?}` of the
/// per-round trace, of the solution history, of the tree snapshot and of
/// the collision ledger.
type EngineRow = (u64, usize, usize, u64, [u64; 5]);

/// The two engines × three scenes (mobile clutter, drone narrow
/// passage, xarm7 clutter), 400 samples, seed 7, round tracing and
/// journal recording on. Path, journal, history and tree hashes were
/// taken before the engines were moved onto one set of shared round steps
/// (sample draw, extend, attach); any reordered journal event, shifted
/// trace charge or moved tree node fails here.
const ENGINE_ROWS: [EngineRow; 6] = [
    (
        0x4072_6a41_847d_2bdf,
        268,
        400,
        554_769,
        [
            0x2ba8_40d9_92b8_354d,
            0x95a0_a9ae_7572_119d,
            0x7d44_0a2b_f81b_4568,
            0x0181_2c23_d295_c64d,
            0x74db_298d_15e5_95b0,
        ],
    ),
    (
        0x4075_183b_916f_f669,
        104,
        99,
        198_934,
        [
            0x9bc0_8aee_5c8b_e29e,
            0x47cf_4ce1_b7af_7b11,
            0x416a_11f5_6632_b746,
            0xe0d2_6b4f_97ad_0d9b,
            0x233f_4379_1b85_e658,
        ],
    ),
    (
        0x4067_73aa_e651_b210,
        353,
        400,
        853_908,
        [
            0xda4d_db33_2630_6958,
            0x4b6f_efdd_aefa_6627,
            0xc448_2f94_1ac1_7fc8,
            0xc766_46f1_be1a_e8f8,
            0xfc8d_824c_e21b_dd91,
        ],
    ),
    (
        0x4064_7647_606b_fded,
        23,
        1,
        22_596,
        [
            0x8632_cd08_f4fe_1619,
            0x8418_8f8c_c798_b152,
            0x987c_0c67_15f8_3490,
            0x5cb2_ed50_3e57_c015,
            0x40fb_2977_ada4_c5ef,
        ],
    ),
    (
        0x4017_7742_47c7_88ab,
        380,
        400,
        4_622_766,
        [
            0xb2ad_80fb_12f5_a92f,
            0xbfc0_1f0a_532e_7f56,
            0x53ea_4c5d_36ca_1c63,
            0xce95_46b2_3684_0474,
            0x14e5_8827_e965_7919,
        ],
    ),
    (
        0x4017_2adc_7669_82b4,
        19,
        1,
        43_497,
        [
            0x175e_2f14_483c_7848,
            0xb6c0_58f7_2708_ce82,
            0x6228_75ba_4d0a_b2df,
            0xdd66_2651_a261_bc86,
            0x16a4_1ace_b814_9525,
        ],
    ),
];

#[test]
fn engine_round_streams_are_pinned() {
    use moped::core::{Engine, PlannerProfile};
    let scenes = [
        (Family::Clutter, RobotModel::Mobile2d),
        (Family::NarrowPassage, RobotModel::Drone3d),
        (Family::Clutter, RobotModel::XArm7),
    ];
    let params = PlannerParams {
        max_samples: 400,
        seed: 7,
        trace_rounds: true,
        ..PlannerParams::default()
    };
    let mut rows = Vec::new();
    for (family, robot) in scenes {
        let scenario = CorpusEntry::new(family, robot, 1).build();
        let checker = TwoStageChecker::moped(scenario.obstacles.clone());
        for engine in Engine::all() {
            let profile = PlannerProfile {
                engine,
                ..PlannerProfile::static_default()
            };
            let mut planner = profile
                .planner(&scenario, &checker, &params)
                .with_journal_recording();
            let r = planner.plan();
            let journal = planner.take_journal().expect("journaling was enabled");
            rows.push((
                r.path_cost.to_bits(),
                r.stats.nodes,
                r.stats.samples,
                r.stats.total_ops().mac_equiv(),
                [
                    fnv1a(&journal.serialize()),
                    fnv1a(&format!("{:?}", r.stats.rounds)),
                    fnv1a(&format!("{:?}", r.stats.solution_history)),
                    fnv1a(&format!("{:?}", planner.tree_snapshot())),
                    fnv1a(&format!("{:?}", r.stats.collision)),
                ],
            ));
        }
    }
    assert_eq!(rows, ENGINE_ROWS);
}
