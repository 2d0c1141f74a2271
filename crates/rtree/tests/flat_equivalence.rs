//! The flat-arena R-tree against a transcription of the node-list tree it
//! replaced (`Vec<Node { aabb, Children::Inner | Leaves }>`, each node's
//! box tested when popped): identical survivor order, traversal
//! statistics and op charges. Both sides run the same AABB–OBB test, which
//! `geometry/tests/aabb_obb_equivalence.rs` checks against its own
//! from-scratch transcription.

use moped_geometry::{sat, Aabb, Obb, OpCount, Vec3};
use moped_rtree::{FilterStats, RTree};

enum Children {
    Inner(Vec<usize>),
    Leaves(Vec<usize>),
}

struct Node {
    aabb: Aabb,
    children: Children,
}

/// The node-list R-tree, STR-packed exactly as before.
struct ReferenceTree {
    nodes: Vec<Node>,
    obstacle_aabbs: Vec<Aabb>,
    root: Option<usize>,
}

impl ReferenceTree {
    fn build(obstacles: &[Obb], fanout: usize) -> ReferenceTree {
        let obstacle_aabbs: Vec<Aabb> = obstacles.iter().map(Aabb::from_obb).collect();
        if obstacles.is_empty() {
            return ReferenceTree {
                nodes: Vec::new(),
                obstacle_aabbs,
                root: None,
            };
        }
        let ids: Vec<usize> = (0..obstacles.len()).collect();
        let centers: Vec<Vec3> = obstacle_aabbs.iter().map(Aabb::center).collect();
        let planar = obstacles.iter().all(Obb::is_planar);
        let axes: &[usize] = if planar { &[0, 1] } else { &[0, 1, 2] };
        let mut groups = Vec::new();
        str_tile(&ids, &centers, axes, fanout, &mut groups);

        let mut nodes: Vec<Node> = Vec::new();
        let mut level: Vec<usize> = groups
            .into_iter()
            .map(|g| {
                let aabb = g
                    .iter()
                    .map(|&i| obstacle_aabbs[i])
                    .reduce(|a, b| a.union(&b))
                    .unwrap();
                nodes.push(Node {
                    aabb,
                    children: Children::Leaves(g),
                });
                nodes.len() - 1
            })
            .collect();
        while level.len() > 1 {
            let mut next = Vec::new();
            for chunk in level.chunks(fanout) {
                let aabb = chunk
                    .iter()
                    .map(|&i| nodes[i].aabb)
                    .reduce(|a, b| a.union(&b))
                    .unwrap();
                nodes.push(Node {
                    aabb,
                    children: Children::Inner(chunk.to_vec()),
                });
                next.push(nodes.len() - 1);
            }
            level = next;
        }
        ReferenceTree {
            root: Some(level[0]),
            nodes,
            obstacle_aabbs,
        }
    }

    fn filter(&self, robot: &Obb, ops: &mut OpCount, stats: &mut FilterStats) -> Vec<usize> {
        let mut out = Vec::new();
        let Some(root) = self.root else { return out };
        let words = if robot.is_planar() { 4 } else { 6 };
        let mut stack = vec![root];
        while let Some(ni) = stack.pop() {
            let node = &self.nodes[ni];
            stats.node_checks += 1;
            ops.mem_words += words;
            if !sat::aabb_obb(&node.aabb, robot, ops) {
                stats.pruned_subtrees += 1;
                continue;
            }
            match &node.children {
                Children::Inner(kids) => stack.extend_from_slice(kids),
                Children::Leaves(obstacles) => {
                    for &oid in obstacles {
                        stats.leaf_checks += 1;
                        ops.mem_words += words;
                        if sat::aabb_obb(&self.obstacle_aabbs[oid], robot, ops) {
                            stats.survivors += 1;
                            out.push(oid);
                        }
                    }
                }
            }
        }
        out
    }

    fn memory_words(&self) -> u64 {
        let mut words = 0u64;
        for node in &self.nodes {
            words += 6;
            words += match &node.children {
                Children::Inner(k) => k.len() as u64,
                Children::Leaves(l) => l.len() as u64,
            };
        }
        words + self.obstacle_aabbs.len() as u64 * 6
    }
}

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
            .unwrap()
    });
    let leaves = ids.len().div_ceil(cap);
    let slabs = if axes.len() == 1 {
        leaves
    } else {
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

/// xorshift64 in `[0, 1)`.
struct Rng(u64);

impl Rng {
    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        lo + (hi - lo) * ((self.0 >> 11) as f64 / (1u64 << 53) as f64)
    }

    fn obb(&mut self, extent: f64, size: f64, planar: bool) -> Obb {
        let c = Vec3::new(
            self.range(0.0, extent),
            self.range(0.0, extent),
            if planar { 0.0 } else { self.range(0.0, extent) },
        );
        let (hx, hy) = (self.range(0.2, size), self.range(0.2, size));
        if planar {
            Obb::planar(c, hx, hy, self.range(-3.2, 3.2))
        } else {
            let h = Vec3::new(hx, hy, self.range(0.2, size));
            Obb::from_euler(
                c,
                h,
                self.range(-3.2, 3.2),
                self.range(-1.6, 1.6),
                self.range(-3.2, 3.2),
            )
        }
    }
}

#[test]
fn flat_filter_matches_node_list_filter() {
    let mut rng = Rng(0xf1a7_a7e4_u64);
    let mut checked = 0u64;
    for scene in 0..48 {
        let planar = scene % 4 == 3;
        let fanout = 2 + scene % 7;
        let count = [0, 1, 3, 17, 64, 150][scene % 6];
        let obstacles: Vec<Obb> = (0..count).map(|_| rng.obb(100.0, 8.0, planar)).collect();
        let flat = RTree::build(&obstacles, fanout);
        let reference = ReferenceTree::build(&obstacles, fanout);
        assert_eq!(flat.memory_words(), reference.memory_words());
        assert_eq!(flat.node_count(), reference.nodes.len());

        let (mut stack, mut out) = (Vec::new(), Vec::new());
        let (mut flat_ops, mut ref_ops) = (OpCount::default(), OpCount::default());
        let (mut flat_stats, mut ref_stats) = (FilterStats::default(), FilterStats::default());
        for _ in 0..400 {
            let body = rng.obb(100.0, 14.0, planar);
            flat.filter_into(&body, &mut flat_ops, &mut flat_stats, &mut stack, &mut out);
            let expected = reference.filter(&body, &mut ref_ops, &mut ref_stats);
            assert_eq!(out, expected, "survivor order (scene {scene})");
            assert_eq!(flat_stats, ref_stats, "filter stats (scene {scene})");
            assert_eq!(flat_ops, ref_ops, "op charge (scene {scene})");
            let mut linear = OpCount::default();
            let mut sorted = out.clone();
            sorted.sort_unstable();
            assert_eq!(flat.filter_linear(&body, &mut linear), sorted);
        }
        checked += flat_stats.survivors;
    }
    assert!(
        checked > 1_000,
        "the sample must leave survivors: {checked}"
    );
}
