//! KD-tree baseline for nearest-neighbor search in RRT\*.
//!
//! Fig 19 (right) of the paper compares SI-MBR-Tree neighbor search
//! against a KD-tree, the de-facto standard index in sampling-based
//! planners, reporting 4.12–7.76× computational savings for the MBR tree.
//! This crate implements that baseline faithfully:
//!
//! * **Incremental insertion** without rebalancing — points arrive one at
//!   a time from the sampler, exactly the dynamic-dataset regime the paper
//!   argues KD-trees handle poorly (sequential insertion produces
//!   correlated, unbalanced trees).
//! * **Exact nearest-neighbor search** with hyperplane pruning, charging
//!   the same [`OpCount`] ledger as the SI-MBR-Tree so costs compare
//!   apples-to-apples.
//!
//! # Example
//!
//! ```
//! use moped_geometry::{Config, OpCount};
//! use moped_kdtree::KdTree;
//!
//! let mut tree = KdTree::new(3);
//! let mut ops = OpCount::default();
//! tree.insert(0, Config::new(&[0.0, 0.0, 0.0]), &mut ops);
//! tree.insert(1, Config::new(&[5.0, 5.0, 5.0]), &mut ops);
//! let (id, _d) = tree.nearest(&Config::new(&[4.0, 4.0, 4.0]), &mut ops).unwrap();
//! assert_eq!(id, 1);
//! ```

#![deny(missing_docs)]

use moped_geometry::{Config, OpCount};

#[derive(Clone, Debug)]
struct Node {
    id: u64,
    point: Config,
    axis: usize,
    left: Option<usize>,
    right: Option<usize>,
}

/// An incrementally built KD-tree over configuration-space points.
#[derive(Clone, Debug)]
pub struct KdTree {
    nodes: Vec<Node>,
    root: Option<usize>,
    dim: usize,
}

/// Traversal statistics for one nearest-neighbor query.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KdSearchStats {
    /// Nodes visited (distance computed).
    pub nodes_visited: u64,
    /// Subtrees pruned by the splitting-plane bound.
    pub subtrees_pruned: u64,
}

impl KdTree {
    /// Creates an empty KD-tree for `dim`-dimensional points.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is outside `1..=moped_geometry::MAX_DOF`.
    pub fn new(dim: usize) -> Self {
        assert!(
            (1..=moped_geometry::MAX_DOF).contains(&dim),
            "unsupported dimension {dim}"
        );
        KdTree {
            nodes: Vec::new(),
            root: None,
            dim,
        }
    }

    /// Number of stored points.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Point dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Tree depth (longest root-to-leaf path; 0 when empty). Incremental
    /// insertion of correlated samples drives this far beyond `log n`,
    /// which is precisely the degradation Fig 19 (right) quantifies.
    pub fn depth(&self) -> usize {
        fn rec(nodes: &[Node], n: Option<usize>) -> usize {
            match n {
                None => 0,
                Some(i) => 1 + rec(nodes, nodes[i].left).max(rec(nodes, nodes[i].right)),
            }
        }
        rec(&self.nodes, self.root)
    }

    /// Inserts a point with caller-assigned `id`, descending by the
    /// cycling split axis. Charges one coordinate comparison per level.
    ///
    /// # Panics
    ///
    /// Panics if `point.dim()` differs from the tree dimension.
    pub fn insert(&mut self, id: u64, point: Config, ops: &mut OpCount) {
        assert_eq!(point.dim(), self.dim, "dimension mismatch");
        let new_idx = self.nodes.len();
        let Some(mut cur) = self.root else {
            self.nodes.push(Node {
                id,
                point,
                axis: 0,
                left: None,
                right: None,
            });
            self.root = Some(0);
            return;
        };
        loop {
            let axis = self.nodes[cur].axis;
            ops.cmp += 1;
            ops.mem_words += self.dim as u64;
            let go_left = point[axis] < self.nodes[cur].point[axis];
            let slot = if go_left {
                self.nodes[cur].left
            } else {
                self.nodes[cur].right
            };
            match slot {
                Some(next) => cur = next,
                None => {
                    let child_axis = (axis + 1) % self.dim;
                    self.nodes.push(Node {
                        id,
                        point,
                        axis: child_axis,
                        left: None,
                        right: None,
                    });
                    if go_left {
                        self.nodes[cur].left = Some(new_idx);
                    } else {
                        self.nodes[cur].right = Some(new_idx);
                    }
                    return;
                }
            }
        }
    }

    /// Exact nearest neighbor: returns `(id, distance)` or `None` when
    /// empty. See [`KdTree::nearest_with_stats`].
    pub fn nearest(&self, query: &Config, ops: &mut OpCount) -> Option<(u64, f64)> {
        let mut stats = KdSearchStats::default();
        self.nearest_with_stats(query, ops, &mut stats)
    }

    /// Exact nearest neighbor with traversal statistics.
    ///
    /// Standard KD search: descend to the query's leaf region, then unwind
    /// and explore the far side only when the splitting hyperplane is
    /// closer than the current best — the test whose effectiveness decays
    /// with dimension (the "curse of dimensionality" cited in §III-C).
    ///
    /// # Panics
    ///
    /// Panics if `query.dim()` differs from the tree dimension.
    pub fn nearest_with_stats(
        &self,
        query: &Config,
        ops: &mut OpCount,
        stats: &mut KdSearchStats,
    ) -> Option<(u64, f64)> {
        assert_eq!(query.dim(), self.dim, "dimension mismatch");
        let root = self.root?;
        let mut best = (0u64, f64::INFINITY);
        self.nearest_rec(root, query, &mut best, ops, stats);
        Some((best.0, best.1.sqrt()))
    }

    fn nearest_rec(
        &self,
        idx: usize,
        query: &Config,
        best: &mut (u64, f64),
        ops: &mut OpCount,
        stats: &mut KdSearchStats,
    ) {
        let node = &self.nodes[idx];
        stats.nodes_visited += 1;
        ops.mem_words += self.dim as u64;
        let d2 = node.point.distance_sq_counted(query, ops);
        ops.cmp += 1;
        if d2 < best.1 {
            *best = (node.id, d2);
        }
        let axis = node.axis;
        let delta = query[axis] - node.point[axis];
        ops.add += 1;
        let (near_side, far_side) = if delta < 0.0 {
            (node.left, node.right)
        } else {
            (node.right, node.left)
        };
        ops.cmp += 1;
        if let Some(n) = near_side {
            self.nearest_rec(n, query, best, ops, stats);
        }
        // The far side can contain a closer point only if the hyperplane
        // is nearer than the current best.
        ops.mul += 1;
        ops.cmp += 1;
        if let Some(f) = far_side {
            if delta * delta < best.1 {
                self.nearest_rec(f, query, best, ops, stats);
            } else {
                stats.subtrees_pruned += 1;
            }
        }
    }

    /// All points within `radius` of `query` (unsorted), with hyperplane
    /// pruning.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ or `radius` is negative.
    pub fn near(&self, query: &Config, radius: f64, ops: &mut OpCount) -> Vec<(u64, Config)> {
        assert_eq!(query.dim(), self.dim, "dimension mismatch");
        assert!(radius >= 0.0, "radius must be non-negative");
        let mut out = Vec::new();
        if let Some(root) = self.root {
            self.near_rec(root, query, radius * radius, &mut out, ops);
        }
        out
    }

    fn near_rec(
        &self,
        idx: usize,
        query: &Config,
        r2: f64,
        out: &mut Vec<(u64, Config)>,
        ops: &mut OpCount,
    ) {
        let node = &self.nodes[idx];
        ops.mem_words += self.dim as u64;
        let d2 = node.point.distance_sq_counted(query, ops);
        ops.cmp += 1;
        if d2 <= r2 {
            out.push((node.id, node.point));
        }
        let delta = query[node.axis] - node.point[node.axis];
        ops.add += 1;
        ops.mul += 1;
        ops.cmp += 2;
        let (near_side, far_side) = if delta < 0.0 {
            (node.left, node.right)
        } else {
            (node.right, node.left)
        };
        if let Some(n) = near_side {
            self.near_rec(n, query, r2, out, ops);
        }
        if let Some(f) = far_side {
            if delta * delta <= r2 {
                self.near_rec(f, query, r2, out, ops);
            }
        }
    }

    /// Linear-scan reference nearest neighbor.
    pub fn nearest_linear(&self, query: &Config, ops: &mut OpCount) -> Option<(u64, f64)> {
        let mut best: Option<(u64, f64)> = None;
        for n in &self.nodes {
            let d2 = n.point.distance_sq_counted(query, ops);
            ops.cmp += 1;
            if best.is_none_or(|(_, b)| d2 < b) {
                best = Some((n.id, d2));
            }
        }
        best.map(|(id, d2)| (id, d2.sqrt()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts3(n: usize) -> Vec<Config> {
        (0..n)
            .map(|i| {
                Config::new(&[
                    ((i * 7) % 23) as f64,
                    ((i * 13) % 19) as f64,
                    ((i * 5) % 17) as f64,
                ])
            })
            .collect()
    }

    fn build(points: &[Config]) -> KdTree {
        let mut tree = KdTree::new(points[0].dim());
        let mut ops = OpCount::default();
        for (i, p) in points.iter().enumerate() {
            tree.insert(i as u64, *p, &mut ops);
        }
        tree
    }

    #[test]
    fn empty_tree_returns_none() {
        let tree = KdTree::new(3);
        let mut ops = OpCount::default();
        assert!(tree.nearest(&Config::zeros(3), &mut ops).is_none());
        assert!(tree.is_empty());
        assert_eq!(tree.depth(), 0);
    }

    #[test]
    fn nearest_matches_linear() {
        let pts = pts3(120);
        let tree = build(&pts);
        let mut ops = OpCount::default();
        for q in [
            Config::new(&[3.0, 4.0, 5.0]),
            Config::new(&[-10.0, 0.0, 30.0]),
            Config::new(&[11.5, 9.5, 8.5]),
        ] {
            let a = tree.nearest(&q, &mut ops).unwrap();
            let b = tree.nearest_linear(&q, &mut ops).unwrap();
            assert!((a.1 - b.1).abs() < 1e-12);
        }
    }

    #[test]
    fn near_matches_brute_force() {
        let pts = pts3(80);
        let tree = build(&pts);
        let mut ops = OpCount::default();
        let q = Config::new(&[10.0, 10.0, 10.0]);
        let r = 6.0;
        let mut got: Vec<u64> = tree.near(&q, r, &mut ops).iter().map(|(i, _)| *i).collect();
        got.sort_unstable();
        let mut want: Vec<u64> = pts
            .iter()
            .enumerate()
            .filter(|(_, p)| p.distance(&q) <= r)
            .map(|(i, _)| i as u64)
            .collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn pruning_happens_in_low_dim() {
        let pts: Vec<Config> = (0..200)
            .map(|i| Config::new(&[(i % 20) as f64, (i / 20) as f64]))
            .collect();
        let tree = build(&pts);
        let mut ops = OpCount::default();
        let mut stats = KdSearchStats::default();
        let _ = tree.nearest_with_stats(&Config::new(&[5.2, 5.2]), &mut ops, &mut stats);
        assert!(stats.nodes_visited < 200);
        assert!(stats.subtrees_pruned > 0);
    }

    #[test]
    fn sorted_insertion_degenerates() {
        // Sequential insertion without rebalancing degenerates to a list.
        let pts: Vec<Config> = (0..127).map(|i| Config::new(&[i as f64, 0.0])).collect();
        let tree = build(&pts);
        assert!(tree.depth() > 60, "sorted insertion should degenerate");
    }

    #[test]
    fn duplicate_coordinates_handled() {
        let pts = vec![
            Config::new(&[1.0, 1.0]),
            Config::new(&[1.0, 1.0]),
            Config::new(&[1.0, 1.0]),
        ];
        let tree = build(&pts);
        let mut ops = OpCount::default();
        let (_, d) = tree.nearest(&Config::new(&[1.0, 1.0]), &mut ops).unwrap();
        assert_eq!(d, 0.0);
        assert_eq!(tree.len(), 3);
    }

    #[test]
    fn high_dim_search_visits_more_nodes_than_low_dim() {
        // The curse of dimensionality: with the same point count, the
        // fraction of nodes visited grows with dimension.
        let n = 400;
        let low: Vec<Config> = (0..n)
            .map(|i| Config::new(&[((i * 29) % 101) as f64, ((i * 31) % 97) as f64]))
            .collect();
        let high: Vec<Config> = (0..n)
            .map(|i| {
                let c: Vec<f64> = (0..7)
                    .map(|d| ((i * (13 + d * 2) + d) % 89) as f64)
                    .collect();
                Config::new(&c)
            })
            .collect();
        let tl = build(&low);
        let th = build(&high);
        let mut ops = OpCount::default();
        let mut sl = KdSearchStats::default();
        let mut sh = KdSearchStats::default();
        let _ = tl.nearest_with_stats(&Config::new(&[50.0, 50.0]), &mut ops, &mut sl);
        let _ = th.nearest_with_stats(&Config::new(&[40.0; 7]), &mut ops, &mut sh);
        assert!(
            sh.nodes_visited > sl.nodes_visited,
            "7-D should visit more: {} vs {}",
            sh.nodes_visited,
            sl.nodes_visited
        );
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dimension_mismatch_rejected() {
        let mut tree = KdTree::new(3);
        let mut ops = OpCount::default();
        tree.insert(0, Config::zeros(2), &mut ops);
    }
}
