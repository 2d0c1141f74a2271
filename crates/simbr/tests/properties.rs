//! Property-based tests for the SI-MBR-Tree.
//!
//! Core claim under test: for *any* insertion sequence — conventional
//! min-area-enlargement descent or the O(1) steering-informed insertion —
//! the branch-and-bound `nearest()` is exact, `near()` is the exact
//! in-radius set, and the structural invariants hold.

use moped_geometry::{Config, OpCount};
use moped_simbr::{SearchStats, SiMbrTree};
use proptest::prelude::*;
use proptest::TestCaseError;

fn arb_points(dim: usize, n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Config>> {
    prop::collection::vec(prop::collection::vec(-30.0..30.0f64, dim), n)
        .prop_map(|vs| vs.into_iter().map(|v| Config::new(&v)).collect())
}

/// Builds with conventional insertion.
fn build_conv(points: &[Config], cap: usize) -> SiMbrTree {
    let mut tree = SiMbrTree::new(points[0].dim(), cap);
    let mut ops = OpCount::default();
    for (i, p) in points.iter().enumerate() {
        tree.insert_conventional(i as u64, *p, &mut ops);
    }
    tree
}

/// Builds RRT\*-style: each point is inserted near its exact nearest
/// already-inserted point, mimicking steering-informed placement.
fn build_lci(points: &[Config], cap: usize) -> SiMbrTree {
    let mut tree = SiMbrTree::new(points[0].dim(), cap);
    let mut ops = OpCount::default();
    tree.insert_conventional(0, points[0], &mut ops);
    for (i, p) in points.iter().enumerate().skip(1) {
        let (near, _) = tree.nearest(p, &mut ops).expect("tree is non-empty");
        tree.insert_near(i as u64, *p, near, &mut ops);
    }
    tree
}

fn linear_nearest(points: &[Config], q: &Config) -> (u64, f64) {
    let mut best = (0u64, f64::INFINITY);
    for (i, p) in points.iter().enumerate() {
        let d = p.distance(q);
        if d < best.1 {
            best = (i as u64, d);
        }
    }
    best
}

/// Dimensions and node capacities the search property sweeps.
const DIMS: [usize; 5] = [2, 3, 6, 7, 8];
const CAPS: [usize; 3] = [2, 6, 32];

/// Checks one query against the linear scan: the distance bits match,
/// the returned entry's point lies at that distance, and the search
/// visits no more nodes than the tree has.
fn check_query(tree: &SiMbrTree, points: &[Config], q: &Config) -> Result<(), TestCaseError> {
    let mut ops = OpCount::default();
    let mut stats = SearchStats::default();
    let (id, d) = tree
        .nearest_with_stats(q, &mut ops, &mut stats)
        .expect("tree is non-empty");
    let (_, lin_d) = tree.nearest_linear(q, &mut ops).expect("tree is non-empty");
    prop_assert_eq!(d.to_bits(), lin_d.to_bits(), "query {:?}", q);
    prop_assert_eq!(points[id as usize].distance(q).to_bits(), d.to_bits());
    prop_assert!(
        stats.nodes_visited as usize <= tree.node_count(),
        "{:?}",
        stats
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The depth-first search equals the linear scan to the bit for every
    /// swept dimension and capacity, over trees built by either insertion.
    /// Snapped coordinates put many points at equal distances, so ties
    /// between distinct entries and duplicate points are exercised too.
    #[test]
    fn nearest_equals_linear_scan_bits(
        dim_pick in 0usize..DIMS.len(),
        cap_pick in 0usize..CAPS.len(),
        lci in any::<bool>(),
        snap in any::<bool>(),
        coords in prop::collection::vec(-30.0..30.0f64, 16..960),
        queries in prop::collection::vec(-40.0..40.0f64, 64),
    ) {
        let (dim, cap) = (DIMS[dim_pick], CAPS[cap_pick]);
        let round = |v: f64| if snap { v.round() } else { v };
        let points: Vec<Config> = coords
            .chunks_exact(dim)
            .map(|c| Config::new(&c.iter().map(|&v| round(v)).collect::<Vec<_>>()))
            .collect();
        prop_assume!(!points.is_empty());
        let tree = if lci { build_lci(&points, cap) } else { build_conv(&points, cap) };
        prop_assert!(tree.check_invariants().is_none(), "{:?}", tree.check_invariants());
        for q in queries.chunks_exact(dim).take(8) {
            let q = Config::new(&q.iter().map(|&v| round(v)).collect::<Vec<_>>());
            check_query(&tree, &points, &q)?;
        }
    }

    #[test]
    fn nearest_exact_conventional(points in arb_points(3, 2..80), qv in prop::collection::vec(-40.0..40.0f64, 3)) {
        let tree = build_conv(&points, 4);
        let q = Config::new(&qv);
        let mut ops = OpCount::default();
        let (_, got) = tree.nearest(&q, &mut ops).unwrap();
        let (_, want) = linear_nearest(&points, &q);
        prop_assert!((got - want).abs() < 1e-9, "got {got}, want {want}");
        prop_assert!(tree.check_invariants().is_none());
    }

    #[test]
    fn nearest_exact_lci(points in arb_points(4, 2..60), qv in prop::collection::vec(-40.0..40.0f64, 4)) {
        let tree = build_lci(&points, 4);
        let q = Config::new(&qv);
        let mut ops = OpCount::default();
        let (_, got) = tree.nearest(&q, &mut ops).unwrap();
        let (_, want) = linear_nearest(&points, &q);
        prop_assert!((got - want).abs() < 1e-9);
        prop_assert!(tree.check_invariants().is_none());
    }

    /// In every dimension the range search returns exactly the entries
    /// within the radius; the radius grows with `sqrt(dim)` so the sets
    /// stay non-trivial as the points spread out.
    #[test]
    fn near_is_exact_range_set(
        dim in 1..=8usize,
        coords in prop::collection::vec(-30.0..30.0f64, 16..480),
        qv in prop::collection::vec(-40.0..40.0f64, 8),
        r in 0.5..20.0f64,
    ) {
        let points: Vec<Config> = coords.chunks_exact(dim).take(60).map(Config::new).collect();
        prop_assume!(points.len() >= 2);
        let tree = build_conv(&points, 5);
        let q = Config::new(&qv[..dim]);
        let r = r * (dim as f64).sqrt();
        let mut ops = OpCount::default();
        let mut got: Vec<u64> = tree.near(&q, r, &mut ops).iter().map(|e| e.id).collect();
        got.sort_unstable();
        let mut want: Vec<u64> = points
            .iter()
            .enumerate()
            .filter(|(_, p)| p.distance(&q) <= r)
            .map(|(i, _)| i as u64)
            .collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn leaf_group_is_spatially_coherent(points in arb_points(3, 10..60)) {
        // Every leaf-group member must be no farther from the anchor than
        // the diameter of the anchor leaf's MBR could allow; weaker but
        // robust check: group members share one parent, so the group is
        // bounded by the tree's per-node capacity.
        let tree = build_lci(&points, 4);
        let mut ops = OpCount::default();
        for id in 0..points.len() as u64 {
            let group: Vec<_> = tree.leaf_group(id, &mut ops).collect();
            prop_assert!(group.iter().any(|e| e.id == id));
            prop_assert!(group.len() <= 4);
        }
    }

    #[test]
    fn capacity_variation_preserves_exactness(points in arb_points(5, 2..40), cap in 2usize..9) {
        let tree = build_conv(&points, cap);
        let q = Config::zeros(5);
        let mut ops = OpCount::default();
        let (_, got) = tree.nearest(&q, &mut ops).unwrap();
        let (_, want) = linear_nearest(&points, &q);
        prop_assert!((got - want).abs() < 1e-9);
        prop_assert!(tree.check_invariants().is_none());
    }

    /// Interleaving the two insertion modes arbitrarily must still keep
    /// search exact and the structure sound.
    #[test]
    fn mixed_insertions_stay_sound(points in arb_points(3, 2..50), flags in prop::collection::vec(any::<bool>(), 50)) {
        let mut tree = SiMbrTree::new(3, 4);
        let mut ops = OpCount::default();
        tree.insert_conventional(0, points[0], &mut ops);
        for (i, p) in points.iter().enumerate().skip(1) {
            if flags[i % flags.len()] {
                tree.insert_conventional(i as u64, *p, &mut ops);
            } else {
                let (near, _) = tree.nearest(p, &mut ops).unwrap();
                tree.insert_near(i as u64, *p, near, &mut ops);
            }
        }
        prop_assert!(tree.check_invariants().is_none(), "{:?}", tree.check_invariants());
        let q = Config::zeros(3);
        let (_, got) = tree.nearest(&q, &mut ops).unwrap();
        let (_, want) = linear_nearest(&points, &q);
        prop_assert!((got - want).abs() < 1e-9);
    }
}

/// Every grid point is stored twice (ids `i` and `i + 100`), so the
/// nearest distance is always tied, and some queries sit at equal
/// distance from distinct points as well: whatever entry wins must lie at
/// the linear scan's distance.
#[test]
fn nearest_on_a_tied_grid_lies_at_the_linear_distance() {
    let mut tree = SiMbrTree::new(2, 4);
    let mut ops = OpCount::default();
    let mut points = vec![Config::zeros(2); 200];
    for i in 0..100u64 {
        let p = Config::new(&[(i * 37 % 23) as f64 * 0.9, (i * 11 % 17) as f64 * 1.1]);
        tree.insert_conventional(i, p, &mut ops);
        tree.insert_near(i + 100, p, i, &mut ops);
        points[i as usize] = p;
        points[i as usize + 100] = p;
    }
    for q in [[3.3, 2.7], [-4.0, 7.5], [11.0, 9.9], [8.1, 0.05]] {
        check_query(&tree, &points, &Config::new(&q)).unwrap();
    }
}

/// SplitMix64: a seeded coordinate stream that does not depend on the
/// `rand` version.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a (64-bit) offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One FNV-1a (64-bit) step over the eight bytes of `word`.
fn fnv1a(h: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a (64-bit) over the ids and coordinate bits of `iter()`, in arena
/// order: any moved entry, reordered slot or changed split fails it.
fn arena_hash(tree: &SiMbrTree) -> u64 {
    let mut h = FNV_OFFSET;
    for e in tree.iter() {
        h = fnv1a(h, e.id);
        for &c in e.point.as_slice() {
            h = fnv1a(h, c.to_bits());
        }
    }
    h
}

/// One pinned build: `(dim, cap, insertion, arena hash, node_count,
/// height, memory_words, insert ledger [mul, add, cmp, mem_words])`.
type InsertPin = (usize, usize, &'static str, u64, usize, usize, u64, [u64; 4]);

/// A seeded value in `[0, 1)`.
fn unit(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// A seeded point in `[-30, 30)^dim`.
fn seeded_point(state: &mut u64, dim: usize) -> Config {
    let coords: Vec<f64> = (0..dim).map(|_| unit(state) * 60.0 - 30.0).collect();
    Config::new(&coords)
}

/// Builds a tree from a seeded 300-point stream in `[-30, 30)^dim` and
/// returns it with the ledger of its insertions. `"lci"` anchors each
/// point at its exact nearest entry, `"conv"` descends from the root.
fn seeded_tree(dim: usize, cap: usize, insertion: &str) -> (SiMbrTree, OpCount) {
    let mut state = 0x5EED_0000 ^ (dim as u64) << 8 ^ cap as u64;
    let mut tree = SiMbrTree::new(dim, cap);
    let (mut ops, mut search_ops) = (OpCount::default(), OpCount::default());
    for i in 0..300u64 {
        let p = seeded_point(&mut state, dim);
        match tree.nearest(&p, &mut search_ops) {
            Some((anchor, _)) if insertion == "lci" => tree.insert_near(i, p, anchor, &mut ops),
            _ => tree.insert_conventional(i, p, &mut ops),
        }
    }
    assert!(
        tree.check_invariants().is_none(),
        "{:?}",
        tree.check_invariants()
    );
    (tree, ops)
}

/// The pin of one seeded build (see [`seeded_tree`]); only the
/// insertions are charged to the pinned ledger.
fn insert_pin(dim: usize, cap: usize, insertion: &'static str) -> InsertPin {
    let (tree, ops) = seeded_tree(dim, cap, insertion);
    assert_eq!((ops.sqrt, ops.dist_calcs, ops.sat_queries), (0, 0, 0));
    (
        dim,
        cap,
        insertion,
        arena_hash(&tree),
        tree.node_count(),
        tree.height(),
        tree.memory_words(),
        [ops.mul, ops.add, ops.cmp, ops.mem_words],
    )
}

/// Trees, split decisions and insert ledgers in every dimension the
/// insert kernels are compiled for, at capacities 2 and 6, by LCI and by
/// conventional insertion. Taken before insertion was specialised per
/// dimension; any change to a split, a slot order or an op charge fails
/// here.
#[rustfmt::skip]
const INSERT_PINS: [InsertPin; 32] = [
    (1, 2, "lci",  0xe592_66c8_e154_2a09, 580, 13,  2339, [0, 4536, 8906, 6638]),
    (1, 2, "conv", 0xe592_66c8_e154_2a09, 580, 13,  2339, [9914, 14450, 23777, 16552]),
    (1, 6, "lci",  0xbe35_4b0f_3675_aa02,  98,  4,   893, [0, 4888, 4598, 2154]),
    (1, 6, "conv", 0xbe35_4b0f_3675_aa02,  98,  4,   893, [6412, 11300, 14216, 8566]),
    (2, 2, "lci",  0x014b_3ea8_9ed1_25fa, 552, 13,  3659, [0, 4312, 15180, 13024]),
    (2, 2, "conv", 0x17d4_b800_6ffa_7d46, 501, 12,  3404, [9470, 22852, 38159, 31468]),
    (2, 6, "lci",  0x8f36_02de_2f3b_f8ce,  98,  4,  1389, [0, 4888, 6588, 4144]),
    (2, 6, "conv", 0xe7c6_5632_1fcc_0c86,  99,  4,  1394, [6358, 17656, 22541, 16892]),
    (3, 2, "lci",  0x5435_3b65_ffdb_ceb5, 579, 16,  5252, [0, 4504, 22004, 19752]),
    (3, 2, "conv", 0x8dec_33cd_8245_0bad, 458, 12,  4405, [17584, 29944, 49620, 43440]),
    (3, 6, "lci",  0xa08a_4f2b_6393_bd99,  93,  4,  1850, [0, 4628, 8620, 6306]),
    (3, 6, "conv", 0x5ea2_eb4d_1d8e_0cb9,  92,  4,  1843, [12028, 22618, 29475, 24180]),
    (4, 2, "lci",  0x9bdc_43f2_00ee_769f, 558, 14,  6521, [0, 4352, 28520, 26344]),
    (4, 2, "conv", 0x5163_ec70_c71b_bb27, 457, 11,  5612, [26268, 38592, 63842, 57680]),
    (4, 6, "lci",  0x9fe5_5b51_959c_3fba,  92,  4,  2327, [0, 4576, 10768, 8480]),
    (4, 6, "conv", 0xb55f_c834_2e6e_88d2,  88,  4,  2291, [18726, 29336, 38801, 33496]),
    (5, 2, "lci",  0x8970_bea4_2d60_840c, 551, 14,  7860, [0, 4296, 35108, 32960]),
    (5, 2, "conv", 0x67f5_9317_b180_43f4, 462, 12,  6881, [34888, 47210, 77801, 71640]),
    (5, 6, "lci",  0x78bb_2dab_b78a_9660, 102,  5,  2921, [0, 5044, 12952, 10430]),
    (5, 6, "conv", 0x8475_f0c6_3d6b_5714,  87,  4,  2756, [24056, 34386, 45615, 40450]),
    (6, 2, "lci",  0xf530_4b9d_e56c_f230, 563, 16,  9418, [0, 4376, 42856, 40668]),
    (6, 2, "conv", 0x91ed_58dc_7589_d0dc, 444, 12,  7871, [43860, 56088, 92538, 86424]),
    (6, 6, "lci",  0x96dd_d58a_c91c_8246,  96,  5,  3347, [0, 4732, 15374, 13008]),
    (6, 6, "conv", 0x4682_f420_0137_1d46,  84,  4,  3191, [29510, 39572, 52563, 47532]),
    (7, 2, "lci",  0xb57c_46a2_ff9c_f95b, 562, 16, 10829, [0, 4368, 50736, 48552]),
    (7, 2, "conv", 0xb651_97c8_3fdd_0e0b, 440, 14,  8999, [55632, 68312, 111326, 104986]),
    (7, 6, "lci",  0xd480_3fed_8edf_d536,  95,  4,  3824, [0, 4732, 16940, 14574]),
    (7, 6, "conv", 0x623b_4679_063f_32aa,  87,  4,  3704, [34848, 44972, 60292, 55230]),
    (8, 2, "lci",  0xd7ee_4b5a_09d5_f2d6, 550, 14, 12049, [0, 4288, 57488, 55344]),
    (8, 2, "conv", 0x8bc7_722a_acf7_da7e, 410, 11,  9669, [55230, 66312, 108421, 102880]),
    (8, 6, "lci",  0xe402_fa49_6712_d189,  98,  5,  4365, [0, 4836, 19842, 17424]),
    (8, 6, "conv", 0x88f4_2d5d_afc5_a8b1,  86,  4,  4161, [41286, 51448, 68633, 63552]),
];

#[test]
fn insertion_is_pinned_in_every_dimension() {
    let got: Vec<InsertPin> = (1..=8)
        .flat_map(|dim| [2, 6].map(|cap| (dim, cap)))
        .flat_map(|(dim, cap)| ["lci", "conv"].map(|mode| insert_pin(dim, cap, mode)))
        .collect();
    let table: String = got
        .iter()
        .map(|(d, c, mode, h, n, ht, w, ops)| {
            format!(
                "    ({d}, {c}, {:<7} {h:#018x}, {n:>3}, {ht:>2}, {w:>5}, {ops:?}),\n",
                format!("{mode:?},")
            )
        })
        .collect();
    assert_eq!(
        got, INSERT_PINS,
        "insert pins moved; the current rows:\n{table}"
    );
}

/// One pinned range-search run: `(dim, cap, entries returned, FNV-1a of
/// the returned ids in returned order, near ledger [mul, add, cmp, sqrt,
/// dist_calcs, sat_queries, mem_words])`.
type NearPin = (usize, usize, usize, u64, [u64; 7]);

/// Runs 64 seeded range searches on the conventionally built seeded
/// tree, with radii in `[0, 12·sqrt(dim))`, and returns their pin. Each
/// query's ids are hashed in the order `near` returns them, then a
/// separator word.
fn near_pin(dim: usize, cap: usize) -> NearPin {
    let (tree, _) = seeded_tree(dim, cap, "conv");
    let mut state = 0x4EA2_0000 ^ (dim as u64) << 8 ^ cap as u64;
    let mut ops = OpCount::default();
    let (mut h, mut returned) = (FNV_OFFSET, 0);
    for _ in 0..64 {
        let q = seeded_point(&mut state, dim);
        let r = unit(&mut state) * 12.0 * (dim as f64).sqrt();
        for e in tree.near(&q, r, &mut ops) {
            h = fnv1a(h, e.id);
            returned += 1;
        }
        h = fnv1a(h, u64::MAX);
    }
    let OpCount {
        mul,
        add,
        cmp,
        sqrt,
        dist_calcs,
        sat_queries,
        mem_words,
    } = ops;
    (
        dim,
        cap,
        returned,
        h,
        [mul, add, cmp, sqrt, dist_calcs, sat_queries, mem_words],
    )
}

/// Range-search results, their order and their ledger in every
/// dimension, at capacities 2 and 6. The order matters: RRT\*'s ranked
/// parent choice sorts candidates stably, so on a cost tie the first
/// one `near` returned wins. Taken before `near` ran on the
/// fixed-dimension kernels.
#[rustfmt::skip]
const NEAR_PINS: [NearPin; 16] = [
    (1, 2, 4173, 0xf1c3_4aa3_be60_389c, [13016, 13016, 21844, 0, 4188, 0, 21844]),
    (1, 6, 3590, 0x3b9b_81e4_dcb6_9034, [5639, 5639, 7542, 0, 3736, 0, 7542]),
    (2, 2, 1225, 0xb12f_d854_3b77_bc37, [11914, 17871, 19457, 0, 1457, 0, 20914]),
    (2, 6, 1407, 0xfa3c_5a1a_0957_7f7f, [9128, 13692, 10789, 0, 2489, 0, 13278]),
    (3, 2,  785, 0x38ee_bb3b_365e_f08d, [18666, 31110, 31262, 0, 1214, 0, 33690]),
    (3, 6,  571, 0x93fe_cb8d_ed5a_b347, [12666, 21110, 15917, 0, 1883, 0, 19683]),
    (4, 2,  349, 0xd42b_87ef_30c9_f308, [22172, 38801, 38366, 0, 854, 0, 40928]),
    (4, 6,  219, 0x5775_6ecf_1b49_7d74, [15896, 27818, 19297, 0, 1785, 0, 24652]),
    (5, 2,  167, 0xc9cc_7047_c677_066e, [24620, 44316, 45055, 0, 465, 0, 46915]),
    (5, 6,  258, 0x1fb3_0ca1_193b_d025, [24175, 43515, 27200, 0, 2350, 0, 36600]),
    (6, 2,   64, 0x2ce9_94d3_136a_0771, [33174, 60819, 62729, 0, 329, 0, 64374]),
    (6, 6,   99, 0xf400_0a8b_bad2_5adf, [38610, 70785, 40106, 0, 3374, 0, 56976]),
    (7, 2,   43, 0x5aab_1ef0_ddba_cbfa, [49735, 92365, 94881, 0, 353, 0, 96999]),
    (7, 6,   47, 0x3401_0d9c_5758_18d1, [42189, 78351, 49200, 0, 2706, 0, 65436]),
    (8, 2,   33, 0x552d_550f_c127_bc5c, [57120, 107100, 108345, 0, 393, 0, 111096]),
    (8, 6,   31, 0x12e7_2a00_8d0c_04b5, [52432, 98310, 57209, 0, 3177, 0, 79448]),
];

#[test]
fn near_is_pinned_in_every_dimension() {
    let got: Vec<NearPin> = (1..=8)
        .flat_map(|dim| [2, 6].map(|cap| near_pin(dim, cap)))
        .collect();
    let table: String = got
        .iter()
        .map(|(d, c, n, h, ops)| format!("    ({d}, {c}, {n:>4}, {h:#018x}, {ops:?}),\n"))
        .collect();
    assert_eq!(
        got, NEAR_PINS,
        "near pins moved; the current rows:\n{table}"
    );
}
