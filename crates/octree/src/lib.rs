//! Octree occupancy baseline for collision checking.
//!
//! §VI of the paper argues that space-subdivision structures popular in
//! computer graphics are a poor fit for resource-constrained motion
//! planning: an octree voxelizes the workspace, so representation
//! precision trades directly against memory (the paper cites deployments
//! needing hundreds of megabytes), and the voxel relaxation suffers the
//! same false-positive path-quality problem as AABBs. This crate
//! implements that baseline so the argument is *measured* rather than
//! asserted:
//!
//! * [`Octree::build`] — subdivides the workspace cube until a node is
//!   either empty, fully covered, or at maximum depth; leaf nodes store
//!   occupancy of their voxel.
//! * [`Octree::intersects_obb`] — conservative collision query for a
//!   robot body OBB (descends only into occupied children overlapping
//!   the body's AABB).
//! * [`Octree::memory_words`] — the on-chip storage the structure would
//!   demand, the quantity Fig/§VI compares against the R-tree's.
//!
//! The occupancy test is conservative-by-construction (voxels bound the
//! true obstacle geometry from outside), mirroring the AABB-only checker
//! semantics.

#![deny(missing_docs)]

use moped_geometry::{sat, Aabb, Obb, OpCount, Vec3};

#[derive(Clone, Debug)]
enum Node {
    /// Entirely free space.
    Empty,
    /// Entirely (conservatively) occupied.
    Full,
    /// Mixed: eight children, octant-ordered.
    Split(Box<[Node; 8]>),
}

/// A cubic occupancy octree over an obstacle field.
#[derive(Clone, Debug)]
pub struct Octree {
    root: Node,
    origin: Vec3,
    extent: f64,
    max_depth: u32,
    node_count: usize,
}

impl Octree {
    /// Builds the tree over `obstacles`, covering the cube at `origin`
    /// with side `extent`, subdividing to at most `max_depth` levels
    /// (voxel side = `extent / 2^max_depth`).
    ///
    /// A node becomes `Full` when any obstacle's AABB covers it entirely
    /// or when it still overlaps an obstacle at maximum depth; `Empty`
    /// when no obstacle AABB overlaps it.
    ///
    /// # Panics
    ///
    /// Panics if `extent` is not positive or `max_depth > 12` (2^36
    /// voxels is beyond any on-chip budget and would only demonstrate an
    /// out-of-memory condition).
    pub fn build(obstacles: &[Obb], origin: Vec3, extent: f64, max_depth: u32) -> Octree {
        assert!(extent > 0.0, "extent must be positive");
        assert!(max_depth <= 12, "max_depth > 12 is out of scope");
        let refs: Vec<&Obb> = obstacles.iter().collect();
        let mut node_count = 0usize;
        let root = build_rec(&refs, origin, extent, max_depth, &mut node_count);
        Octree {
            root,
            origin,
            extent,
            max_depth,
            node_count,
        }
    }

    /// Total allocated nodes.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Voxel side length at maximum depth.
    pub fn resolution(&self) -> f64 {
        self.extent / f64::from(1u32 << self.max_depth)
    }

    /// Storage demand in 16-bit words: every node needs a 2-bit state,
    /// packed 8 states per word, plus one child-pointer word per split
    /// node — the §VI memory-consumption comparison quantity.
    pub fn memory_words(&self) -> u64 {
        let state_words = (self.node_count as u64).div_ceil(8);
        let pointer_words = self.split_count() as u64;
        state_words + pointer_words
    }

    fn split_count(&self) -> usize {
        fn rec(n: &Node) -> usize {
            match n {
                Node::Split(kids) => 1 + kids.iter().map(rec).sum::<usize>(),
                _ => 0,
            }
        }
        rec(&self.root)
    }

    /// Conservative occupancy query for a point.
    pub fn occupied(&self, p: Vec3) -> bool {
        let half = self.extent / 2.0;
        let cube = Aabb::from_center_half(self.origin + Vec3::splat(half), Vec3::splat(half));
        if !cube.contains_point(p) {
            return false;
        }
        fn rec(node: &Node, origin: Vec3, extent: f64, p: Vec3) -> bool {
            match node {
                Node::Empty => false,
                Node::Full => true,
                Node::Split(kids) => {
                    let half = extent / 2.0;
                    let ix = usize::from(p.x >= origin.x + half);
                    let iy = usize::from(p.y >= origin.y + half);
                    let iz = usize::from(p.z >= origin.z + half);
                    let idx = ix | (iy << 1) | (iz << 2);
                    let child_origin =
                        origin + Vec3::new(ix as f64 * half, iy as f64 * half, iz as f64 * half);
                    rec(&kids[idx], child_origin, half, p)
                }
            }
        }
        rec(&self.root, self.origin, self.extent, p)
    }

    /// Conservative collision query for a robot body OBB: `true` when any
    /// occupied voxel intersects the body. Charges each visited node's
    /// AABB–OBB test to `ops`.
    pub fn intersects_obb(&self, body: &Obb, ops: &mut OpCount) -> bool {
        fn rec(node: &Node, origin: Vec3, extent: f64, body: &Obb, ops: &mut OpCount) -> bool {
            let half = extent / 2.0;
            let cube = Aabb::from_center_half(origin + Vec3::splat(half), Vec3::splat(half));
            ops.mem_words += 1; // packed state read
            match node {
                Node::Empty => false,
                Node::Full => sat::aabb_obb(&cube, body, ops),
                Node::Split(kids) => {
                    if !sat::aabb_obb(&cube, body, ops) {
                        return false;
                    }
                    for (idx, kid) in kids.iter().enumerate() {
                        let child_origin = origin
                            + Vec3::new(
                                (idx & 1) as f64 * half,
                                ((idx >> 1) & 1) as f64 * half,
                                ((idx >> 2) & 1) as f64 * half,
                            );
                        if rec(kid, child_origin, half, body, ops) {
                            return true;
                        }
                    }
                    false
                }
            }
        }
        rec(&self.root, self.origin, self.extent, body, ops)
    }
}

fn build_rec(
    obstacles: &[&Obb],
    origin: Vec3,
    extent: f64,
    depth_left: u32,
    node_count: &mut usize,
) -> Node {
    *node_count += 1;
    let half = extent / 2.0;
    let cube = Aabb::from_center_half(origin + Vec3::splat(half), Vec3::splat(half));
    // Voxelize against the exact OBB geometry: the whole point of an
    // octree map is the resolution-tight occupancy an AABB cannot give.
    let mut scratch = OpCount::default();
    let overlapping: Vec<&Obb> = obstacles
        .iter()
        .filter(|o| sat::aabb_obb(&cube, o, &mut scratch))
        .copied()
        .collect();
    if overlapping.is_empty() {
        return Node::Empty;
    }
    let cube_inside = |o: &Obb| -> bool {
        let c = cube.center();
        let h = cube.half_extents();
        [
            Vec3::new(-h.x, -h.y, -h.z),
            Vec3::new(-h.x, -h.y, h.z),
            Vec3::new(-h.x, h.y, -h.z),
            Vec3::new(-h.x, h.y, h.z),
            Vec3::new(h.x, -h.y, -h.z),
            Vec3::new(h.x, -h.y, h.z),
            Vec3::new(h.x, h.y, -h.z),
            Vec3::new(h.x, h.y, h.z),
        ]
        .into_iter()
        .all(|d| o.contains_point(c + d))
    };
    if overlapping.iter().any(|o| cube_inside(o)) || depth_left == 0 {
        return Node::Full;
    }
    let children: Vec<Node> = (0..8)
        .map(|idx| {
            let child_origin = origin
                + Vec3::new(
                    (idx & 1) as f64 * half,
                    ((idx >> 1) & 1) as f64 * half,
                    ((idx >> 2) & 1) as f64 * half,
                );
            build_rec(&overlapping, child_origin, half, depth_left - 1, node_count)
        })
        .collect();
    let arr: [Node; 8] = children.try_into().expect("eight octants");
    // Coalesce uniform children.
    if arr.iter().all(|c| matches!(c, Node::Full)) {
        return Node::Full;
    }
    if arr.iter().all(|c| matches!(c, Node::Empty)) {
        return Node::Empty;
    }
    Node::Split(Box::new(arr))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn single_box() -> Vec<Obb> {
        vec![Obb::axis_aligned(Vec3::splat(100.0), Vec3::splat(20.0))]
    }

    #[test]
    fn empty_world_is_all_free() {
        let tree = Octree::build(&[], Vec3::ZERO, 256.0, 6);
        assert!(!tree.occupied(Vec3::splat(100.0)));
        let body = Obb::axis_aligned(Vec3::splat(50.0), Vec3::splat(5.0));
        let mut ops = OpCount::default();
        assert!(!tree.intersects_obb(&body, &mut ops));
    }

    #[test]
    fn point_queries_match_geometry() {
        let tree = Octree::build(&single_box(), Vec3::ZERO, 256.0, 7);
        assert!(tree.occupied(Vec3::splat(100.0)), "center of the obstacle");
        assert!(!tree.occupied(Vec3::splat(10.0)), "far corner is free");
        // Outside the covered cube.
        assert!(!tree.occupied(Vec3::splat(-5.0)));
    }

    #[test]
    fn obb_query_is_conservative() {
        let obstacles = single_box();
        let tree = Octree::build(&obstacles, Vec3::ZERO, 256.0, 7);
        let mut ops = OpCount::default();
        // A body truly colliding must be detected.
        let hit = Obb::from_euler(Vec3::splat(110.0), Vec3::splat(4.0), 0.3, 0.2, 0.1);
        assert!(obstacles[0].intersects(&hit));
        assert!(tree.intersects_obb(&hit, &mut ops));
        // A far-away body must be free.
        let miss = Obb::axis_aligned(Vec3::splat(20.0), Vec3::splat(3.0));
        assert!(!tree.intersects_obb(&miss, &mut ops));
    }

    #[test]
    fn false_positives_shrink_with_depth() {
        // A rotated thin plate: coarse voxels over-cover it heavily.
        let obstacles = vec![Obb::from_euler(
            Vec3::splat(128.0),
            Vec3::new(60.0, 2.0, 60.0),
            0.6,
            0.4,
            0.2,
        )];
        let probe = Obb::axis_aligned(Vec3::new(128.0, 160.0, 128.0), Vec3::splat(4.0));
        assert!(!obstacles[0].intersects(&probe), "probe is truly free");
        let mut fp = Vec::new();
        for depth in [3u32, 5, 7] {
            let tree = Octree::build(&obstacles, Vec3::ZERO, 256.0, depth);
            let mut ops = OpCount::default();
            fp.push(tree.intersects_obb(&probe, &mut ops));
        }
        // At some coarse depth the voxelization reports a false positive;
        // by depth 7 (2-unit voxels) it must be resolved as free.
        assert!(!fp[2], "fine resolution should clear the probe");
    }

    #[test]
    fn memory_explodes_with_resolution() {
        // The §VI argument: each extra level multiplies storage.
        let obstacles: Vec<Obb> = (0..10)
            .map(|i| {
                Obb::from_euler(
                    Vec3::new(30.0 * i as f64 + 15.0, 120.0, 120.0),
                    Vec3::new(10.0, 14.0, 22.0),
                    0.3 * i as f64,
                    0.1,
                    0.0,
                )
            })
            .collect();
        let mut words = Vec::new();
        for depth in [4u32, 6, 8] {
            let tree = Octree::build(&obstacles, Vec3::ZERO, 300.0, depth);
            words.push(tree.memory_words());
        }
        assert!(words[1] > 4 * words[0], "depth 6 ≫ depth 4: {words:?}");
        assert!(words[2] > 4 * words[1], "depth 8 ≫ depth 6: {words:?}");
    }

    #[test]
    fn coalescing_keeps_uniform_regions_cheap() {
        // One tiny obstacle in a huge space: almost all nodes coalesce.
        let obstacles = vec![Obb::axis_aligned(Vec3::splat(10.0), Vec3::splat(2.0))];
        let tree = Octree::build(&obstacles, Vec3::ZERO, 256.0, 8);
        assert!(
            tree.node_count() < 6000,
            "sparse scene should stay small: {}",
            tree.node_count()
        );
    }

    #[test]
    fn resolution_matches_depth() {
        let tree = Octree::build(&[], Vec3::ZERO, 256.0, 8);
        assert_eq!(tree.resolution(), 1.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_extent_rejected() {
        let _ = Octree::build(&[], Vec3::ZERO, 0.0, 4);
    }
}
