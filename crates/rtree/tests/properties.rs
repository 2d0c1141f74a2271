//! Property-based tests for the obstacle R-tree.

use moped_geometry::{sat, Aabb, Mat3, Obb, OpCount, Vec3};
use moped_rtree::{FilterStats, RTree};
use proptest::prelude::*;

fn arb_obb() -> impl Strategy<Value = Obb> {
    (
        (-60.0..60.0f64, -60.0..60.0f64, -60.0..60.0f64),
        (0.5..8.0f64, 0.5..8.0f64, 0.5..8.0f64),
        -3.1..3.1f64,
        -1.5..1.5f64,
        -3.1..3.1f64,
    )
        .prop_map(|((x, y, z), (hx, hy, hz), yaw, pitch, roll)| {
            Obb::new(
                Vec3::new(x, y, z),
                Vec3::new(hx, hy, hz),
                Mat3::from_euler(yaw, pitch, roll),
            )
        })
}

/// A center box from a corner and extents, optionally snapped against
/// faces of obstacle `snap.0`'s AABB (faces of every node that holds it)
/// on the axes in bit mask `snap.1`, so several snapped axes put the box
/// at an edge or corner. `snap.2` picks the face, the side the box sits
/// on, and its offset from the face: 0, or the body radius bound `rb_lo`
/// or `rb_hi`, where a test's verdict turns over. A `thin` box is shrunk
/// twentyfold, so its poses barely spread.
fn center_box(
    obstacles: &[Obb],
    corner: (f64, f64, f64),
    extent: (f64, f64, f64),
    (snap, thin): ((usize, usize, usize), bool),
    rb: (f64, f64),
    planar: bool,
) -> Aabb {
    let scale = if thin { 0.05 } else { 1.0 };
    let mut lo = [corner.0, corner.1, corner.2];
    let ext = [extent.0 * scale, extent.1 * scale, extent.2 * scale];
    if let Some(o) = obstacles.get(snap.0 % (obstacles.len() + 1)) {
        let (mask, mode) = (snap.1, snap.2);
        let aabb = Aabb::from_obb(o);
        let offset = [0.0, rb.0, rb.1][mode % 3];
        for axis in (0..3).filter(|a| mask >> a & 1 == 1) {
            let face = if mode / 3 % 2 == 0 {
                aabb.min().component(axis) - offset
            } else {
                aabb.max().component(axis) + offset
            };
            lo[axis] = if mode / 6 == 0 {
                face - ext[axis]
            } else {
                face
            };
        }
    }
    if planar {
        lo[2] = 0.0;
    }
    let hi = [
        lo[0] + ext[0],
        lo[1] + ext[1],
        if planar { 0.0 } else { lo[2] + ext[2] },
    ];
    Aabb::new(
        Vec3::new(lo[0], lo[1], lo[2]),
        Vec3::new(hi[0], hi[1], hi[2]),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whenever the swept traversal resolves, every pose inside its
    /// bounds (center in the box, any rotation) gets, through
    /// `filter_into`, exactly the classified statistics and charge and no
    /// survivor. Boxes are drawn free and snapped against node faces, at
    /// the offsets where a test's verdict turns over.
    #[test]
    fn swept_filter_matches_every_pose(
        obstacles in prop::collection::vec(arb_obb(), 1..30),
        (fanout, planar) in (2usize..9, any::<bool>()),
        (hx, hy, hz) in (0.5..8.0f64, 0.5..8.0f64, 0.5..8.0f64),
        boxes in prop::collection::vec(
            (
                (-75.0..75.0f64, -75.0..75.0f64, -75.0..75.0f64),
                (0.0..16.0f64, 0.0..16.0f64, 0.0..16.0f64),
                ((0usize..1000, 1usize..8, 0usize..12), any::<bool>()),
            ),
            12,
        ),
        poses in prop::collection::vec(
            ((0.0..1.0f64, 0.0..1.0f64, 0.0..1.0f64), (-3.2..3.2f64, -1.6..1.6f64, -3.2..3.2f64)),
            6,
        ),
    ) {
        let obstacles: Vec<Obb> = if planar {
            obstacles
                .iter()
                .map(|o| {
                    let (c, h) = (o.center(), o.half_extents());
                    Obb::planar(Vec3::new(c.x, c.y, 0.0), h.x, h.y, c.z / 20.0)
                })
                .collect()
        } else {
            obstacles
        };
        let tree = RTree::build(&obstacles, fanout);
        let half = Vec3::new(hx, hy, hz);
        let h: &[f64] = if planar { &[hx, hy] } else { &[hx, hy, hz] };
        let rb = (
            h.iter().copied().fold(f64::INFINITY, f64::min),
            h.iter().map(|v| v * v).sum::<f64>().sqrt(),
        );
        let mut stack = Vec::new();
        let mut out = Vec::new();
        for &(corner, extent, snap) in &boxes {
            let centers = center_box(&obstacles, corner, extent, snap, rb, planar);
            let body = sat::SweptAabbObbBody::new(&centers, half, planar);
            let Some((stats, ops)) = tree.filter_swept(body, &mut stack) else {
                continue;
            };
            prop_assert_eq!(stats.survivors, 0);
            // Both corners of the box, then poses inside it.
            let corners = [((0.0, 0.0, 0.0), (0.3, -0.2, 1.0)), ((1.0, 1.0, 1.0), (-2.0, 1.5, -0.4))];
            for &((u, v, w), (yaw, pitch, roll)) in corners.iter().chain(&poses) {
                let (lo, hi) = (centers.min(), centers.max());
                let c = lo + Vec3::new(u * (hi.x - lo.x), v * (hi.y - lo.y), w * (hi.z - lo.z));
                let pose = if planar {
                    Obb::planar(c, hx, hy, yaw)
                } else {
                    Obb::new(c, half, Mat3::from_euler(yaw, pitch, roll))
                };
                let mut pose_ops = OpCount::default();
                let mut pose_stats = FilterStats::default();
                tree.filter_into(&pose, &mut pose_ops, &mut pose_stats, &mut stack, &mut out);
                prop_assert!(out.is_empty(), "pose {pose:?} leaves survivors {out:?}");
                prop_assert_eq!(pose_stats, stats);
                prop_assert_eq!(pose_ops, ops);
            }
        }
    }

    /// The hierarchical filter returns exactly the same candidate set as
    /// the exhaustive per-obstacle AABB scan, for any obstacle field,
    /// fanout, and probe.
    #[test]
    fn filter_equals_linear_scan(
        obstacles in prop::collection::vec(arb_obb(), 1..40),
        probe in arb_obb(),
        fanout in 2usize..9,
    ) {
        let tree = RTree::build(&obstacles, fanout);
        let mut ops = OpCount::default();
        let mut a = tree.filter(&probe, &mut ops);
        let mut b = tree.filter_linear(&probe, &mut ops);
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }

    /// The filter result is a superset of truly colliding obstacles: no
    /// exact OBB collision is ever missed by the first stage.
    #[test]
    fn filter_never_misses_a_collision(
        obstacles in prop::collection::vec(arb_obb(), 1..30),
        probe in arb_obb(),
    ) {
        let tree = RTree::build(&obstacles, 4);
        let mut ops = OpCount::default();
        let candidates = tree.filter(&probe, &mut ops);
        for (i, obs) in obstacles.iter().enumerate() {
            if obs.intersects(&probe) {
                prop_assert!(
                    candidates.contains(&i),
                    "obstacle {i} collides but was filtered out"
                );
            }
        }
    }

    /// Filter statistics are internally consistent: survivors equal the
    /// returned candidate count, and checks bound pruning.
    #[test]
    fn filter_stats_consistent(
        obstacles in prop::collection::vec(arb_obb(), 1..40),
        probe in arb_obb(),
    ) {
        let tree = RTree::build(&obstacles, 4);
        let mut ops = OpCount::default();
        let mut stats = FilterStats::default();
        let mut out = Vec::new();
        tree.filter_into(&probe, &mut ops, &mut stats, &mut Vec::new(), &mut out);
        prop_assert_eq!(stats.survivors as usize, out.len());
        prop_assert!(stats.pruned_subtrees <= stats.node_checks);
        prop_assert!(stats.leaf_checks as usize <= obstacles.len());
    }

    /// Build is total and bounded: node count is linear in obstacles and
    /// height logarithmic.
    #[test]
    fn build_shape_is_sane(obstacles in prop::collection::vec(arb_obb(), 1..120), fanout in 2usize..9) {
        let tree = RTree::build(&obstacles, fanout);
        prop_assert_eq!(tree.len(), obstacles.len());
        prop_assert!(tree.node_count() <= 4 * obstacles.len() + 4);
        let max_height =
            (obstacles.len() as f64).log(fanout as f64).ceil() as usize + 3;
        prop_assert!(tree.height() <= max_height,
            "height {} too large for {} obstacles fanout {fanout}", tree.height(), obstacles.len());
    }
}
