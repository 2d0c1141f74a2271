//! Property-based tests for the KD-tree baseline.

use moped_geometry::{Config, OpCount};
use moped_kdtree::KdTree;
use proptest::prelude::*;

fn arb_points(dim: usize, n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Config>> {
    prop::collection::vec(prop::collection::vec(-50.0..50.0f64, dim), n)
        .prop_map(|vs| vs.into_iter().map(|v| Config::new(&v)).collect())
}

fn build(points: &[Config]) -> KdTree {
    let mut t = KdTree::new(points[0].dim());
    let mut ops = OpCount::default();
    for (i, p) in points.iter().enumerate() {
        t.insert(i as u64, *p, &mut ops);
    }
    t
}

fn linear_nearest(points: &[Config], q: &Config) -> f64 {
    points
        .iter()
        .map(|p| p.distance(q))
        .fold(f64::INFINITY, f64::min)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Incremental KD nearest equals a linear scan for any insertion
    /// order, dimension 2-7.
    #[test]
    fn nearest_is_exact(points in arb_points(4, 1..80), qv in prop::collection::vec(-60.0..60.0f64, 4)) {
        let tree = build(&points);
        let q = Config::new(&qv);
        let mut ops = OpCount::default();
        let (_, got) = tree.nearest(&q, &mut ops).unwrap();
        prop_assert!((got - linear_nearest(&points, &q)).abs() < 1e-9);
    }

    /// Range search returns exactly the in-radius identifiers.
    #[test]
    fn near_is_exact(points in arb_points(5, 1..50), r in 1.0..40.0f64) {
        let tree = build(&points);
        let q = Config::zeros(5);
        let mut ops = OpCount::default();
        let mut got: Vec<u64> = tree.near(&q, r, &mut ops).iter().map(|(i, _)| *i).collect();
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
}
