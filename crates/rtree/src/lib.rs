//! Static obstacle R-tree for MOPED's first-stage collision filter.
//!
//! MOPED's two-stage collision scheme (§III-A) stores obstacle AABBs in a
//! hierarchical R-tree built **offline** with the Sort-Tile-Recursive (STR)
//! bulk-loading algorithm (Leutenegger et al., ICDE'97). At query time the
//! robot's OBB is tested against node AABBs with the cheap AABB–OBB SAT;
//! a clear node prunes its entire subtree, so most exact OBB–OBB checks are
//! never issued.
//!
//! The tree is *static by design*: the paper treats obstacle-tree
//! construction as an offline step that does not affect runtime cost, and
//! this crate mirrors that contract (build once per environment, then only
//! query).
//!
//! [`RTree::filter_into`] filters one robot body. [`RTree::filter_swept`]
//! runs the same traversal once for a rigid body over every pose of a
//! motion, known only by bounds on its center and its world-axis radius,
//! and answers only when every test is provably the same on every pose.
//!
//! # Example
//!
//! ```
//! use moped_geometry::{Obb, OpCount, Vec3};
//! use moped_rtree::RTree;
//!
//! let obstacles = vec![
//!     Obb::axis_aligned(Vec3::new(10.0, 10.0, 10.0), Vec3::splat(2.0)),
//!     Obb::axis_aligned(Vec3::new(90.0, 90.0, 90.0), Vec3::splat(2.0)),
//! ];
//! let tree = RTree::build(&obstacles, 4);
//! let robot = Obb::axis_aligned(Vec3::new(11.0, 10.0, 10.0), Vec3::splat(1.0));
//! let mut ops = OpCount::default();
//! let candidates = tree.filter(&robot, &mut ops);
//! assert_eq!(candidates, vec![0]);
//! ```

#![deny(missing_docs)]

use moped_geometry::{sat, Aabb, Obb, OpCount, Vec3};

/// Statistics for one filter traversal, used by the evaluation figures to
/// report how many checks the first stage actually performed vs skipped.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FilterStats {
    /// Internal / leaf-group node AABB–OBB tests performed.
    pub node_checks: u64,
    /// Per-obstacle AABB–OBB tests performed at the leaves.
    pub leaf_checks: u64,
    /// Subtrees pruned without visiting their children.
    pub pruned_subtrees: u64,
    /// Obstacles that survived the first stage (need exact checks).
    pub survivors: u64,
}

impl FilterStats {
    /// Total first-stage SAT queries issued.
    pub fn total_checks(&self) -> u64 {
        self.node_checks + self.leaf_checks
    }
}

impl std::ops::AddAssign for FilterStats {
    fn add_assign(&mut self, rhs: FilterStats) {
        self.node_checks += rhs.node_checks;
        self.leaf_checks += rhs.leaf_checks;
        self.pruned_subtrees += rhs.pruned_subtrees;
        self.survivors += rhs.survivors;
    }
}

impl std::ops::Mul<u64> for FilterStats {
    type Output = FilterStats;
    /// The statistics of `n` repetitions of these traversals.
    fn mul(self, n: u64) -> FilterStats {
        FilterStats {
            node_checks: self.node_checks * n,
            leaf_checks: self.leaf_checks * n,
            pruned_subtrees: self.pruned_subtrees * n,
            survivors: self.survivors * n,
        }
    }
}

/// A node's children: the range `start..start + len` of
/// [`RTree::child_ids`], holding obstacle ids for a leaf group and node
/// ids otherwise.
#[derive(Clone, Copy, Debug)]
struct Kids {
    start: u32,
    len: u32,
    leaf: bool,
}

/// A static R-tree over OBB obstacles, bulk-loaded with STR.
///
/// Node bounding volumes are AABBs, as the R-tree structure requires; the
/// per-obstacle AABBs at the leaf fringe are the relaxations of the stored
/// OBBs. Both are held as flat center / half-extent arrays (the paper's
/// 6-value encoding), computed once at build with [`Aabb::center`] and
/// [`Aabb::half_extents`], so a query streams plain `f64` triples and
/// never re-derives them. See the crate docs for the query contract.
#[derive(Clone, Debug)]
pub struct RTree {
    node_center: Vec<Vec3>,
    node_half: Vec<Vec3>,
    node_kids: Vec<Kids>,
    /// Every node's children, concatenated in node order.
    child_ids: Vec<usize>,
    /// Per-obstacle AABB relaxations, indexed by obstacle id.
    obstacle_center: Vec<Vec3>,
    obstacle_half: Vec<Vec3>,
    root: Option<usize>,
    fanout: usize,
    height: usize,
}

impl RTree {
    /// Bulk-loads an R-tree over `obstacles` with the given `fanout`
    /// (maximum children per node) using Sort-Tile-Recursive packing.
    ///
    /// An empty obstacle slice yields an empty tree whose
    /// [`RTree::filter`] always returns no candidates.
    ///
    /// # Panics
    ///
    /// Panics if `fanout < 2`.
    pub fn build(obstacles: &[Obb], fanout: usize) -> RTree {
        assert!(fanout >= 2, "R-tree fanout must be at least 2");
        let obstacle_aabbs: Vec<Aabb> = obstacles.iter().map(Aabb::from_obb).collect();
        let (obstacle_center, obstacle_half) = obstacle_aabbs
            .iter()
            .map(|a| (a.center(), a.half_extents()))
            .unzip();
        let mut tree = RTree {
            node_center: Vec::new(),
            node_half: Vec::new(),
            node_kids: Vec::new(),
            child_ids: Vec::new(),
            obstacle_center,
            obstacle_half,
            root: None,
            fanout,
            height: 0,
        };
        if obstacles.is_empty() {
            return tree;
        }

        // STR leaf packing: recursively tile the id list along x, y, z of
        // the obstacle centers so each leaf holds up to `fanout` nearby
        // obstacles.
        let ids: Vec<usize> = (0..obstacles.len()).collect();
        let centers: Vec<Vec3> = obstacle_aabbs.iter().map(Aabb::center).collect();
        let planar = obstacles.iter().all(Obb::is_planar);
        let axes: &[usize] = if planar { &[0, 1] } else { &[0, 1, 2] };
        let mut groups: Vec<Vec<usize>> = Vec::new();
        str_tile(&ids, &centers, axes, fanout, &mut groups);

        // Node AABBs, kept only while packing.
        let mut boxes: Vec<Aabb> = Vec::new();
        let mut level: Vec<usize> = groups
            .iter()
            .map(|g| {
                let aabb = g
                    .iter()
                    .map(|&i| obstacle_aabbs[i])
                    .reduce(|a, b| a.union(&b))
                    .expect("STR groups are non-empty");
                tree.push_node(&mut boxes, aabb, g, true)
            })
            .collect();

        // Pack upper levels: STR ordering keeps consecutive leaves spatially
        // close, so chunked packing preserves locality.
        tree.height = 1;
        while level.len() > 1 {
            let mut next = Vec::new();
            for chunk in level.chunks(fanout) {
                let aabb = chunk
                    .iter()
                    .map(|&i| boxes[i])
                    .reduce(|a, b| a.union(&b))
                    .expect("chunks are non-empty");
                next.push(tree.push_node(&mut boxes, aabb, chunk, false));
            }
            level = next;
            tree.height += 1;
        }
        tree.root = Some(level[0]);
        tree
    }

    /// Appends a node bounded by `aabb` over `kids` and returns its id.
    fn push_node(
        &mut self,
        boxes: &mut Vec<Aabb>,
        aabb: Aabb,
        kids: &[usize],
        leaf: bool,
    ) -> usize {
        self.node_center.push(aabb.center());
        self.node_half.push(aabb.half_extents());
        self.node_kids.push(Kids {
            start: u32::try_from(self.child_ids.len()).expect("R-tree child count fits u32"),
            len: u32::try_from(kids.len()).expect("fanout fits u32"),
            leaf,
        });
        self.child_ids.extend_from_slice(kids);
        boxes.push(aabb);
        boxes.len() - 1
    }

    /// Node `ni`'s children and whether they are obstacle ids.
    #[inline]
    fn kids(&self, ni: usize) -> (&[usize], bool) {
        let k = self.node_kids[ni];
        let start = k.start as usize;
        (&self.child_ids[start..start + k.len as usize], k.leaf)
    }

    /// Number of obstacles indexed.
    pub fn len(&self) -> usize {
        self.obstacle_center.len()
    }

    /// Returns `true` if the tree indexes no obstacles.
    pub fn is_empty(&self) -> bool {
        self.obstacle_center.is_empty()
    }

    /// Tree height in levels (0 for an empty tree; 1 = root is a leaf).
    pub fn height(&self) -> usize {
        self.height
    }

    /// Total node count (internal + leaf-group nodes).
    pub fn node_count(&self) -> usize {
        self.node_kids.len()
    }

    /// Configured maximum fanout.
    pub fn fanout(&self) -> usize {
        self.fanout
    }

    /// First-stage filter: returns the ids of obstacles whose AABB
    /// relaxation intersects the robot body `robot`, pruning whole
    /// subtrees whose group AABB is clear.
    ///
    /// Every AABB–OBB SAT issued is charged to `ops`. The result is a
    /// *superset* of the truly colliding obstacles (AABBs are
    /// conservative), and — crucially for correctness — never omits a
    /// colliding obstacle. Traversal statistics are discarded; see
    /// [`RTree::filter_into`].
    pub fn filter(&self, robot: &Obb, ops: &mut OpCount) -> Vec<usize> {
        let mut out = Vec::new();
        self.filter_into(
            robot,
            ops,
            &mut FilterStats::default(),
            &mut Vec::new(),
            &mut out,
        );
        out
    }

    /// [`RTree::filter`] with traversal statistics and without
    /// allocation: node/leaf check counts and pruning counts accumulate
    /// into `stats`, and the caller supplies the traversal stack and the
    /// output buffer (both are cleared first), so planner hot loops can
    /// reuse scratch storage.
    ///
    /// The body is prepared once per call ([`sat::AabbObbBody`]); each
    /// node and leaf test is charged the modelled cost of a from-scratch
    /// AABB–OBB SAT plus the box read (6 words 3D / 4 words 2D).
    pub fn filter_into(
        &self,
        robot: &Obb,
        ops: &mut OpCount,
        stats: &mut FilterStats,
        stack: &mut Vec<usize>,
        out: &mut Vec<usize>,
    ) {
        out.clear();
        stack.clear();
        let Some(root) = self.root else { return };
        let mut body = sat::AabbObbBody::new(robot);
        // The stack holds nodes whose own test passed: a node's children
        // are tested when it is expanded, and only the passing ones are
        // pushed, in child order. Every node is still tested once, and
        // passing nodes are expanded in the same depth-first order as
        // testing each node when it is popped.
        let (mut nodes, mut leaves, mut pruned) = (1u64, 0u64, 0u64);
        if body.overlaps(self.node_center[root], self.node_half[root]) {
            stack.push(root);
        } else {
            pruned += 1;
        }
        while let Some(ni) = stack.pop() {
            let (kids, leaf) = self.kids(ni);
            if leaf {
                leaves += kids.len() as u64;
                for &oid in kids {
                    if body.overlaps(self.obstacle_center[oid], self.obstacle_half[oid]) {
                        out.push(oid);
                    }
                }
                continue;
            }
            nodes += kids.len() as u64;
            for &k in kids {
                if body.overlaps(self.node_center[k], self.node_half[k]) {
                    stack.push(k);
                } else {
                    pruned += 1;
                }
            }
        }
        stats.node_checks += nodes;
        stats.leaf_checks += leaves;
        stats.pruned_subtrees += pruned;
        stats.survivors += out.len() as u64;
        ops.mem_words += box_words(robot.is_planar()) * (nodes + leaves);
        body.charge(ops);
    }

    /// The traversal of [`RTree::filter_into`] run once for every pose of
    /// a swept body at once.
    ///
    /// Each node and obstacle test is classified for all poses with
    /// [`sat::SweptAabbObbBody::classify`], in the order `filter_into`
    /// tests them. When every test is classified and no obstacle passes,
    /// every pose's `filter_into` would take this same traversal and
    /// leave no survivor: the result is that one traversal's statistics
    /// and charge, exactly what `filter_into` adds for any one of the
    /// poses. It is `None` as soon as a test is not provably the same on
    /// every pose or an obstacle passes.
    pub fn filter_swept(
        &self,
        mut body: sat::SweptAabbObbBody,
        stack: &mut Vec<usize>,
    ) -> Option<(FilterStats, OpCount)> {
        stack.clear();
        let Some(root) = self.root else {
            return Some((FilterStats::default(), OpCount::ZERO));
        };
        let (mut nodes, mut leaves, mut pruned) = (1u64, 0u64, 0u64);
        if body.classify(self.node_center[root], self.node_half[root])? {
            stack.push(root);
        } else {
            pruned += 1;
        }
        while let Some(ni) = stack.pop() {
            let (kids, leaf) = self.kids(ni);
            if leaf {
                leaves += kids.len() as u64;
                for &oid in kids {
                    if body.classify(self.obstacle_center[oid], self.obstacle_half[oid])? {
                        return None;
                    }
                }
                continue;
            }
            nodes += kids.len() as u64;
            for &k in kids {
                if body.classify(self.node_center[k], self.node_half[k])? {
                    stack.push(k);
                } else {
                    pruned += 1;
                }
            }
        }
        let stats = FilterStats {
            node_checks: nodes,
            leaf_checks: leaves,
            pruned_subtrees: pruned,
            survivors: 0,
        };
        let mut ops = OpCount {
            mem_words: box_words(body.is_planar()) * (nodes + leaves),
            ..OpCount::ZERO
        };
        body.charge(&mut ops);
        Some((stats, ops))
    }

    /// On-chip storage footprint of the tree in 16-bit words (every node
    /// AABB is 6 words plus one child pointer word per child), used by the
    /// hardware model for SRAM sizing.
    pub fn memory_words(&self) -> u64 {
        (self.node_count() * 6 + self.child_ids.len() + self.len() * 6) as u64
    }

    /// Exhaustive reference filter (no hierarchy): checks the robot
    /// against every per-obstacle AABB. Used by tests to validate the
    /// superset property and by the figures to quantify pruning.
    pub fn filter_linear(&self, robot: &Obb, ops: &mut OpCount) -> Vec<usize> {
        let mut body = sat::AabbObbBody::new(robot);
        let hits = (0..self.len())
            .filter(|&i| body.overlaps(self.obstacle_center[i], self.obstacle_half[i]))
            .collect();
        body.charge(ops);
        hits
    }
}

/// Words read per AABB test: the paper's 6-value 3D / 4-value 2D box.
fn box_words(planar: bool) -> u64 {
    if planar {
        4
    } else {
        6
    }
}

/// Recursive Sort-Tile-Recursive partition of `ids` into groups of at most
/// `cap`, slicing along `axes` in order.
fn str_tile(
    ids: &[usize],
    centers: &[Vec3],
    axes: &[usize],
    cap: usize,
    out: &mut Vec<Vec<usize>>,
) {
    if ids.len() <= cap {
        if !ids.is_empty() {
            out.push(ids.to_vec());
        }
        return;
    }
    let mut sorted = ids.to_vec();
    let axis = axes[0];
    sorted.sort_by(|&a, &b| {
        centers[a]
            .component(axis)
            .partial_cmp(&centers[b].component(axis))
            .expect("obstacle centers must be finite")
    });
    let leaves = ids.len().div_ceil(cap);
    let slabs = if axes.len() == 1 {
        leaves
    } else {
        // ceil(leaves^(1/remaining)) slabs along this axis.
        (leaves as f64).powf(1.0 / axes.len() as f64).ceil() as usize
    }
    .max(1);
    let per_slab = ids.len().div_ceil(slabs);
    for chunk in sorted.chunks(per_slab) {
        if axes.len() == 1 {
            for leaf in chunk.chunks(cap) {
                out.push(leaf.to_vec());
            }
        } else {
            str_tile(chunk, centers, &axes[1..], cap, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_obstacles(n_per_axis: usize, spacing: f64) -> Vec<Obb> {
        let mut v = Vec::new();
        for i in 0..n_per_axis {
            for j in 0..n_per_axis {
                for k in 0..n_per_axis {
                    v.push(Obb::axis_aligned(
                        Vec3::new(i as f64 * spacing, j as f64 * spacing, k as f64 * spacing),
                        Vec3::splat(1.0),
                    ));
                }
            }
        }
        v
    }

    #[test]
    fn empty_tree_filters_nothing() {
        let tree = RTree::build(&[], 4);
        let robot = Obb::axis_aligned(Vec3::ZERO, Vec3::splat(1.0));
        let mut ops = OpCount::default();
        assert!(tree.filter(&robot, &mut ops).is_empty());
        assert!(tree.is_empty());
        assert_eq!(tree.height(), 0);
    }

    #[test]
    fn single_obstacle_hit_and_miss() {
        let tree = RTree::build(&[Obb::axis_aligned(Vec3::splat(5.0), Vec3::splat(1.0))], 4);
        let mut ops = OpCount::default();
        let near = Obb::axis_aligned(Vec3::splat(5.5), Vec3::splat(1.0));
        let far = Obb::axis_aligned(Vec3::splat(50.0), Vec3::splat(1.0));
        assert_eq!(tree.filter(&near, &mut ops), vec![0]);
        assert!(tree.filter(&far, &mut ops).is_empty());
    }

    #[test]
    fn filter_matches_linear_reference() {
        let obstacles = grid_obstacles(4, 7.0);
        let tree = RTree::build(&obstacles, 4);
        let mut ops = OpCount::default();
        for probe in [
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(10.5, 10.5, 10.5),
            Vec3::new(3.0, 14.0, 7.0),
            Vec3::new(-5.0, -5.0, -5.0),
        ] {
            let robot = Obb::from_euler(probe, Vec3::splat(2.0), 0.3, 0.2, 0.1);
            let mut a = tree.filter(&robot, &mut ops);
            let mut b = tree.filter_linear(&robot, &mut ops);
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn pruning_actually_skips_work() {
        let obstacles = grid_obstacles(4, 20.0); // 64 well-separated obstacles
        let tree = RTree::build(&obstacles, 4);
        let robot = Obb::axis_aligned(Vec3::splat(0.0), Vec3::splat(1.5));
        let mut ops = OpCount::default();
        let mut stats = FilterStats::default();
        tree.filter_into(
            &robot,
            &mut ops,
            &mut stats,
            &mut Vec::new(),
            &mut Vec::new(),
        );
        assert!(
            stats.pruned_subtrees > 0,
            "expected pruning on sparse scene"
        );
        assert!(
            stats.total_checks() < obstacles.len() as u64 * 2,
            "hierarchy should beat exhaustive checking"
        );
    }

    #[test]
    fn tree_height_grows_logarithmically() {
        let obstacles = grid_obstacles(4, 5.0); // 64 obstacles, fanout 4 → height >= 3
        let tree = RTree::build(&obstacles, 4);
        assert!(tree.height() >= 3);
        assert!(tree.node_count() > 16);
    }

    #[test]
    fn node_aabbs_contain_children() {
        let obstacles = grid_obstacles(3, 6.0);
        let tree = RTree::build(&obstacles, 4);
        let contains = |c: Vec3, h: Vec3, kc: Vec3, kh: Vec3| {
            (0..3).all(|i| {
                (kc.component(i) - c.component(i)).abs() + kh.component(i) <= h.component(i) + 1e-9
            })
        };
        for ni in 0..tree.node_count() {
            let (c, h) = (tree.node_center[ni], tree.node_half[ni]);
            let (kids, leaf) = tree.kids(ni);
            for &k in kids {
                let (kc, kh) = if leaf {
                    (tree.obstacle_center[k], tree.obstacle_half[k])
                } else {
                    (tree.node_center[k], tree.node_half[k])
                };
                assert!(
                    contains(c, h, kc, kh),
                    "node {ni} does not contain child {k}"
                );
            }
        }
    }

    #[test]
    fn every_obstacle_reachable_exactly_once() {
        let obstacles = grid_obstacles(3, 4.0);
        let tree = RTree::build(&obstacles, 5);
        let mut seen = vec![0usize; obstacles.len()];
        for ni in 0..tree.node_count() {
            if let (obs, true) = tree.kids(ni) {
                for &o in obs {
                    seen[o] += 1;
                }
            }
        }
        assert!(
            seen.iter().all(|&c| c == 1),
            "leaf partition must cover each obstacle once"
        );
    }

    #[test]
    fn planar_obstacles_build_2d_tiling() {
        let obstacles: Vec<Obb> = (0..20)
            .map(|i| {
                Obb::planar(
                    Vec3::new((i % 5) as f64 * 10.0, (i / 5) as f64 * 10.0, 0.0),
                    2.0,
                    2.0,
                    0.1,
                )
            })
            .collect();
        let tree = RTree::build(&obstacles, 4);
        let robot = Obb::planar(Vec3::new(0.0, 0.0, 0.0), 1.0, 1.0, 0.0);
        let mut ops = OpCount::default();
        let hits = tree.filter(&robot, &mut ops);
        assert_eq!(hits, vec![0]);
    }

    #[test]
    #[should_panic(expected = "fanout")]
    fn tiny_fanout_rejected() {
        let _ = RTree::build(&[], 1);
    }

    #[test]
    fn memory_words_positive_for_nonempty() {
        let tree = RTree::build(&grid_obstacles(2, 5.0), 4);
        assert!(tree.memory_words() > 0);
    }

    #[test]
    fn swept_filter_resolves_clear_motions_and_declines_others() {
        let tree = RTree::build(&grid_obstacles(3, 20.0), 4);
        let half = Vec3::new(2.0, 1.0, 0.5);
        let swept = |lo: Vec3, hi: Vec3| {
            let body = sat::SweptAabbObbBody::new(&Aabb::new(lo, hi), half, false);
            tree.filter_swept(body, &mut Vec::new())
        };
        // Between obstacles: every pose prunes the same nodes.
        let (stats, ops) = swept(Vec3::new(10.0, 10.0, 9.0), Vec3::new(10.0, 10.0, 11.0))
            .expect("a motion clear of every box resolves");
        let mut pose_ops = OpCount::default();
        let mut pose_stats = FilterStats::default();
        let pose = Obb::from_euler(Vec3::splat(10.0), half, 0.4, -0.3, 1.2);
        let mut out = Vec::new();
        tree.filter_into(
            &pose,
            &mut pose_ops,
            &mut pose_stats,
            &mut Vec::new(),
            &mut out,
        );
        assert!(out.is_empty());
        assert_eq!((stats, ops), (pose_stats, pose_ops));
        // Through an obstacle, or grazing one by less than the body radius.
        assert!(swept(Vec3::new(-5.0, 0.0, 0.0), Vec3::new(5.0, 0.0, 0.0)).is_none());
        assert!(swept(Vec3::new(2.5, 0.0, 0.0), Vec3::new(2.5, 0.0, 0.0)).is_none());
        // An empty tree charges nothing.
        let empty = RTree::build(&[], 4);
        let body = sat::SweptAabbObbBody::new(&Aabb::new(Vec3::ZERO, Vec3::ZERO), half, false);
        assert_eq!(
            empty.filter_swept(body, &mut Vec::new()),
            Some((FilterStats::default(), OpCount::ZERO))
        );
    }

    #[test]
    fn filter_charges_ops_and_memory() {
        let tree = RTree::build(&grid_obstacles(3, 6.0), 4);
        let robot = Obb::axis_aligned(Vec3::splat(6.0), Vec3::splat(2.0));
        let mut ops = OpCount::default();
        let _ = tree.filter(&robot, &mut ops);
        assert!(ops.sat_queries > 0);
        assert!(ops.mem_words > 0);
    }
}
