//! Pins the complete collision ledger and path cost of one seeded plan.
//!
//! The pose-check kernels (R-tree filter, prepared AABB–OBB SAT, forward
//! kinematics) may be rewritten for speed, but every verdict, count and
//! modelled op charge must stay the same. The constants below were taken
//! from the kernels before the flat R-tree / prepared-body rewrite; any
//! drift in a single counter or in the last bit of the path cost fails
//! here.

use moped::collision::CollisionLedger;
use moped::core::{plan_variant, PlannerParams, Variant};
use moped::geometry::OpCount;
use moped::robot::RobotModel;
use moped::rtree::FilterStats;
use moped::scenarios::{CorpusEntry, Family};

#[test]
fn xarm7_clutter_plan_ledger_is_pinned() {
    let scenario = CorpusEntry::new(Family::Clutter, RobotModel::XArm7, 1).build();
    let params = PlannerParams {
        max_samples: 900,
        seed: 7,
        ..PlannerParams::default()
    };
    let result = plan_variant(&scenario, Variant::V4Lci, &params);
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
