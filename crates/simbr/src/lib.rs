//! SI-MBR-Tree: the steering-informed minimal-bounding-rectangle tree.
//!
//! This is MOPED's data structure for neighbor search over the RRT\*
//! exploration tree (§III-B/§III-C). Leaf entries are exploration-tree
//! configurations; every non-leaf node stores the minimum bounding
//! rectangle (MBR) of its descendants. Three capabilities distinguish it
//! from a stock R-tree:
//!
//! 1. **MINDIST branch-and-bound nearest search** — a depth-first descent
//!    that expands each node's children closest-MINDIST first and skips a
//!    subtree the moment its MINDIST reaches the best distance found so
//!    far, since MINDIST lower bounds the distance to *every* leaf in the
//!    subtree. The MINDIST and distance loops are compiled once per
//!    dimension, over fixed-length arrays.
//! 2. **Steering-informed approximated neighborhoods (SIAS)** — because
//!    `x_new` is steered a short step from `x_nearest`, the leaf group
//!    (siblings) of `x_nearest` approximates the `near()` set of `x_new`,
//!    eliminating the second neighbor search of each RRT\* round.
//! 3. **Low-cost O(1) insertion (LCI)** — `x_new` is inserted directly as
//!    a sibling of `x_nearest`, skipping the conventional root-to-leaf
//!    min-area-enlargement descent. Insertion, like search, is compiled
//!    once per dimension: the ancestor-MBR walk, the descent and the
//!    quadratic split run over fixed-length arrays.
//!
//! # Layout
//!
//! The tree is stored as a flat structure-of-arrays arena: rect planes
//! are contiguous `f64` slabs, child/entry slots are fixed-stride spans,
//! and leaf points live in one coordinate slab — no per-node `Vec`, no
//! pointer chasing on the search hot path. A node keeps the arena slot
//! it was allocated in.
//!
//! The paper's top-of-tree and search-trace caches (§IV-C) are on-chip
//! hardware; `moped-hw`'s design point budgets the top levels as its
//! 4 KB "Top NS Cache" bank. This crate keeps no software copy of
//! either: a pinned top block and a previous-winner seed were measured
//! here and bought no wall time (DESIGN.md §10).
//!
//! Both the conventional insertion (for the V2/V3 ablations) and LCI (V4)
//! are implemented; every kernel charges an [`OpCount`] ledger.
//!
//! # Example
//!
//! ```
//! use moped_geometry::{Config, OpCount};
//! use moped_simbr::SiMbrTree;
//!
//! let mut tree = SiMbrTree::new(2, 4);
//! let mut ops = OpCount::default();
//! for (i, xy) in [[0.0, 0.0], [5.0, 5.0], [1.0, 0.5]].iter().enumerate() {
//!     tree.insert_conventional(i as u64, Config::new(xy), &mut ops);
//! }
//! let (id, d) = tree.nearest(&Config::new(&[0.9, 0.4]), &mut ops).unwrap();
//! assert_eq!(id, 2);
//! assert!(d < 0.2);
//! ```

#![deny(missing_docs)]

use std::cell::RefCell;

use moped_geometry::{Config, OpCount, MAX_DOF};

/// Sentinel for "no node": the root's parent, and an entry id absent
/// from the dense entry → leaf table.
const NO_NODE: u32 = u32::MAX;

/// Largest node capacity [`SiMbrTree::new`] accepts.
const MAX_ENTRIES: usize = 32;

/// Items a node holds at the instant it splits: a full node plus the
/// overflow item.
const SPLIT_ITEMS: usize = MAX_ENTRIES + 1;

/// Evaluates `$body` with the const `$D` bound to the run-time dimension
/// `$dim`: one copy of `$body` per dimension in `1..=MAX_DOF`, so the
/// kernels it calls run over fixed-length arrays. Insertion, nearest
/// search and range search all dispatch through it.
macro_rules! with_dim {
    ($dim:expr, $D:ident => $body:expr) => {
        with_dim!($dim, $D => $body; 1 2 3 4 5 6 7 8)
    };
    ($dim:expr, $D:ident => $body:expr; $($d:literal)*) => {
        match $dim {
            $($d => {
                const $D: usize = $d;
                $body
            })*
            d => unreachable!("dimension {d} is rejected by SiMbrTree::new"),
        }
    };
}

// `with_dim!` covers every dimension in `1..=MAX_DOF`.
const _: () = assert!(MAX_DOF == 8);

/// Traversal statistics of nearest searches: how many nodes they
/// visited, how many subtrees the MINDIST bound skipped and how many
/// exact distances they computed. Every field is additive, so one record
/// can total any number of searches.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Nodes whose children (or entries, for a leaf) were scored.
    pub nodes_visited: u64,
    /// Subtrees skipped by the MINDIST bound: a child rejected when its
    /// parent was visited, or a stacked subtree rejected when popped
    /// because the bound had tightened since it was pushed.
    pub subtrees_skipped: u64,
    /// Leaf-entry exact distance computations.
    pub distance_calcs: u64,
}

/// A leaf entry: one exploration-tree node.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Entry {
    /// Caller-assigned identifier (the EXP-tree node id).
    pub id: u64,
    /// The configuration this entry indexes.
    pub point: Config,
}

/// A subtree the depth-first search still has to consider: its node id
/// and the MINDIST from the query to its MBR.
#[derive(Clone, Copy, Debug)]
struct Pending {
    md: f64,
    node: u32,
}

/// The steering-informed MBR tree. See the crate-level docs.
///
/// Entry ids index a dense `entry → leaf` table, so the tree's memory
/// grows with the largest id inserted, not with the number of entries:
/// callers should hand out dense ids (the planner uses its node-arena
/// indices). Ids must be below `u32::MAX`, the table's "absent" sentinel.
#[derive(Clone, Debug)]
pub struct SiMbrTree {
    // --- flat SoA arena, all arrays indexed by node id ---
    /// MBR minimum planes, stride `dim`.
    lo: Vec<f64>,
    /// MBR maximum planes, stride `dim`.
    hi: Vec<f64>,
    /// Parent node id, `NO_NODE` for the root.
    parent: Vec<u32>,
    /// Leaf flag per node.
    is_leaf: Vec<bool>,
    /// Live child/entry count per node.
    count: Vec<u32>,
    /// Child node ids (inner) or entry ids (leaf), stride `cap`.
    slots: Vec<u64>,
    /// Leaf entry coordinates, stride `cap * dim`.
    pts: Vec<f64>,
    root: Option<usize>,
    /// Leaf node of each entry, indexed by entry id; `NO_NODE` marks an
    /// absent id.
    entry_leaf: Vec<u32>,
    dim: usize,
    max_entries: usize,
    /// Slots per node: `max_entries + 1` so a node can hold its overflow
    /// item for the instant between insertion and split.
    cap: usize,
    len: usize,
    /// Reusable depth-first stack: amortizes to zero heap allocation per
    /// query.
    stack: RefCell<Vec<Pending>>,
}

impl SiMbrTree {
    /// Creates an empty tree for `dim`-dimensional configurations with at
    /// most `max_entries` entries (or children) per node.
    ///
    /// # Panics
    ///
    /// Panics if `max_entries < 2` or `dim` is outside
    /// `1..=moped_geometry::MAX_DOF`.
    pub fn new(dim: usize, max_entries: usize) -> Self {
        assert!(
            (2..=MAX_ENTRIES).contains(&max_entries),
            "node capacity must be in 2..=32 (hardware node records are small)"
        );
        assert!(
            (1..=moped_geometry::MAX_DOF).contains(&dim),
            "unsupported dimension {dim}"
        );
        SiMbrTree {
            lo: Vec::new(),
            hi: Vec::new(),
            parent: Vec::new(),
            is_leaf: Vec::new(),
            count: Vec::new(),
            slots: Vec::new(),
            pts: Vec::new(),
            root: None,
            entry_leaf: Vec::new(),
            dim,
            max_entries,
            cap: max_entries + 1,
            len: 0,
            stack: RefCell::new(Vec::new()),
        }
    }

    /// Number of indexed entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the tree holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Configuration-space dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Node capacity this tree was built with (`max_entries` in `new`).
    pub fn max_entries(&self) -> usize {
        self.max_entries
    }

    /// Tree height (0 when empty, 1 when the root is a leaf).
    pub fn height(&self) -> usize {
        let Some(mut n) = self.root else { return 0 };
        let mut h = 1;
        while !self.is_leaf[n] {
            n = self.slots[n * self.cap] as usize;
            h += 1;
        }
        h
    }

    /// Total allocated node count.
    pub fn node_count(&self) -> usize {
        self.parent.len()
    }

    /// On-chip footprint in 16-bit words: each node MBR is `2d` words plus
    /// one pointer word per child/entry; each entry point is `d` words.
    pub fn memory_words(&self) -> u64 {
        let mut words = 0u64;
        for n in 0..self.node_count() {
            words += 2 * self.dim as u64;
            words += if self.is_leaf[n] {
                self.count[n] as u64 * (1 + self.dim as u64)
            } else {
                self.count[n] as u64
            };
        }
        words
    }

    // ------------------------------------------------------------------
    // Arena accessors
    // ------------------------------------------------------------------

    /// Node `n`'s MBR planes `(lo, hi)`.
    fn planes(&self, n: usize) -> (&[f64], &[f64]) {
        let axes = n * self.dim..(n + 1) * self.dim;
        (&self.lo[axes.clone()], &self.hi[axes])
    }

    /// Whether the box `lo..hi` is upright and lies within node `n`'s
    /// MBR, boundary inclusive; a point is the box `p..p`.
    fn mbr_contains(&self, n: usize, lo: &[f64], hi: &[f64]) -> bool {
        let (n_lo, n_hi) = self.planes(n);
        (0..self.dim).all(|i| n_lo[i] <= lo[i] && lo[i] <= hi[i] && hi[i] <= n_hi[i])
    }

    fn set_planes<const D: usize>(&mut self, n: usize, lo: &[f64; D], hi: &[f64; D]) {
        *fixed_mut(&mut self.lo, n) = *lo;
        *fixed_mut(&mut self.hi, n) = *hi;
    }

    /// The leaf holding entry `id`, or `None` if `id` is absent.
    #[inline]
    fn leaf_of(&self, id: u64) -> Option<usize> {
        let leaf = *self.entry_leaf.get(usize::try_from(id).ok()?)?;
        (leaf != NO_NODE).then_some(leaf as usize)
    }

    /// Records that entry `id` (below `NO_NODE`, see `check_insert`) now
    /// lives in `leaf`, growing the dense table if `id` is new.
    fn set_leaf_of(&mut self, id: u64, leaf: usize) {
        let i = id as usize;
        if i >= self.entry_leaf.len() {
            self.entry_leaf.resize(i + 1, NO_NODE);
        }
        self.entry_leaf[i] = leaf as u32;
    }

    #[inline]
    fn kids_of(&self, n: usize) -> &[u64] {
        &self.slots[n * self.cap..n * self.cap + self.count[n] as usize]
    }

    #[inline]
    fn entry_pt(&self, n: usize, k: usize) -> &[f64] {
        let base = (n * self.cap + k) * self.dim;
        &self.pts[base..base + self.dim]
    }

    fn entry_config(&self, n: usize, k: usize) -> Config {
        Config::new(self.entry_pt(n, k))
    }

    /// Appends a fresh node to every arena column; returns its id.
    fn alloc_node(&mut self, parent: u32, is_leaf: bool) -> usize {
        let id = self.parent.len();
        self.lo.resize(self.lo.len() + self.dim, 0.0);
        self.hi.resize(self.hi.len() + self.dim, 0.0);
        self.parent.push(parent);
        self.is_leaf.push(is_leaf);
        self.count.push(0);
        self.slots.resize(self.slots.len() + self.cap, 0);
        self.pts.resize(self.pts.len() + self.cap * self.dim, 0.0);
        id
    }

    // ------------------------------------------------------------------
    // Insertion
    // ------------------------------------------------------------------

    /// Conventional R-tree insertion: descends from the root, picking at
    /// each level the child whose MBR needs the *minimum area enlargement*
    /// to absorb `point` (ties broken by smaller area). This is what the
    /// V2/V3 ablations pay for every sample (Fig 9, left).
    ///
    /// # Panics
    ///
    /// Panics if `point.dim()` differs from the tree dimension or `id` is
    /// already present.
    pub fn insert_conventional(&mut self, id: u64, point: Config, ops: &mut OpCount) {
        self.check_insert(id, &point);
        self.insert(id, &point, None, ops);
    }

    /// Steering-informed low-cost insertion (LCI, §III-C): places `point`
    /// directly as a sibling of the existing entry `near_id` — the
    /// `x_nearest` that `point` was steered from — with no descent and no
    /// enlargement arithmetic.
    ///
    /// # Panics
    ///
    /// Panics if `near_id` is not in the tree, `id` is already present,
    /// or dimensions mismatch.
    pub fn insert_near(&mut self, id: u64, point: Config, near_id: u64, ops: &mut OpCount) {
        self.check_insert(id, &point);
        let leaf = self
            .leaf_of(near_id)
            .unwrap_or_else(|| panic!("near_id {near_id} not present in SI-MBR-Tree"));
        self.insert(id, &point, Some(leaf), ops);
    }

    fn check_insert(&self, id: u64, point: &Config) {
        assert_eq!(point.dim(), self.dim, "dimension mismatch");
        assert!(
            id < u64::from(NO_NODE),
            "SI-MBR-Tree entry id {id} is at or above the dense-table sentinel {NO_NODE}"
        );
        assert!(
            self.leaf_of(id).is_none(),
            "duplicate SI-MBR-Tree entry id {id}"
        );
    }

    /// Inserts `point` into `leaf`, or, for `None`, into the leaf the
    /// conventional descent picks. One copy of the insertion per
    /// dimension, so the ancestor-MBR, descent and split loops run over
    /// fixed-length arrays.
    fn insert(&mut self, id: u64, point: &Config, leaf: Option<usize>, ops: &mut OpCount) {
        with_dim!(self.dim, D => self.insert_fixed::<D>(id, point, leaf, ops))
    }

    fn insert_fixed<const D: usize>(
        &mut self,
        id: u64,
        point: &Config,
        leaf: Option<usize>,
        ops: &mut OpCount,
    ) {
        let p: &[f64; D] = point
            .as_slice()
            .try_into()
            .expect("point dimension checked");
        let leaf = match (leaf, self.root) {
            (Some(leaf), _) => leaf,
            (None, Some(root)) => self.choose_leaf(root, p, ops),
            (None, None) => return self.create_root(id, p),
        };
        self.push_entry(leaf, id, p, ops);
    }

    /// The conventional descent from `root`: the min-area-enlargement
    /// choice, the costly part the paper's LCI removes. A child's
    /// enlargement is `measure(union) − measure` of its MBR and `p`.
    fn choose_leaf<const D: usize>(&self, root: usize, p: &[f64; D], ops: &mut OpCount) -> usize {
        let d = D as u64;
        let mut node = root;
        while !self.is_leaf[node] {
            let kids = self.kids_of(node);
            let mut best = kids[0] as usize;
            let mut best_enl = f64::INFINITY;
            let mut best_area = f64::INFINITY;
            for &k in kids {
                let (lo, hi) = (fixed(&self.lo, k as usize), fixed(&self.hi, k as usize));
                let area = measure(lo, hi);
                let enl = union_measure(lo, hi, p, p) - area;
                if enl < best_enl || (enl == best_enl && area < best_area) {
                    best = k as usize;
                    best_enl = enl;
                    best_area = area;
                }
            }
            // Per child: a 2d-word MBR read; the enlargement's 2d
            // min/max compares, 2d subtractions and two d-term products;
            // and one compare.
            let n = kids.len() as u64;
            ops.mem_words += n * 2 * d;
            ops.cmp += n * (2 * d + 1);
            ops.add += n * 2 * d;
            ops.mul += n * 2 * (d - 1).max(1);
            node = best;
        }
        node
    }

    fn create_root<const D: usize>(&mut self, id: u64, p: &[f64; D]) {
        let n = self.alloc_node(NO_NODE, true);
        self.set_planes(n, p, p);
        self.slots[n * self.cap] = id;
        *fixed_mut(&mut self.pts, n * self.cap) = *p;
        self.count[n] = 1;
        self.root = Some(n);
        self.set_leaf_of(id, n);
        self.len = 1;
    }

    fn push_entry<const D: usize>(
        &mut self,
        leaf: usize,
        id: u64,
        p: &[f64; D],
        ops: &mut OpCount,
    ) {
        debug_assert!(self.is_leaf[leaf]);
        let slot = self.count[leaf] as usize;
        debug_assert!(slot < self.cap, "leaf overfull before split");
        self.slots[leaf * self.cap + slot] = id;
        *fixed_mut(&mut self.pts, leaf * self.cap + slot) = *p;
        self.count[leaf] += 1;
        self.set_leaf_of(id, leaf);
        self.len += 1;
        // Extend ancestor MBRs in place; per level this is 2d min/max
        // compares and a 2d-word write-back.
        let mut n = leaf;
        let mut levels = 0u64;
        loop {
            let lo: &mut [f64; D] = fixed_mut(&mut self.lo, n);
            for i in 0..D {
                if p[i] < lo[i] {
                    lo[i] = p[i];
                }
            }
            let hi: &mut [f64; D] = fixed_mut(&mut self.hi, n);
            for i in 0..D {
                if p[i] > hi[i] {
                    hi[i] = p[i];
                }
            }
            levels += 1;
            if self.parent[n] == NO_NODE {
                break;
            }
            n = self.parent[n] as usize;
        }
        ops.cmp += levels * 2 * D as u64;
        ops.mem_words += levels * 2 * D as u64;
        self.maybe_split::<D>(leaf, ops);
    }

    // ------------------------------------------------------------------
    // Splitting (Guttman quadratic split)
    // ------------------------------------------------------------------

    fn maybe_split<const D: usize>(&mut self, mut node: usize, ops: &mut OpCount) {
        while self.count[node] as usize > self.max_entries {
            node = self.split_node::<D>(node, ops);
        }
    }

    /// Splits `node` in two; returns the parent that gained a child (and
    /// may itself now be overfull).
    fn split_node<const D: usize>(&mut self, node: usize, ops: &mut OpCount) -> usize {
        let is_leaf = self.is_leaf[node];
        let n_items = self.count[node] as usize;
        let cap = self.cap;

        // Gather each item once, before the kept group is rewritten in
        // place: its slot and its MBR planes (the child's rect for an
        // inner node, the entry point as a degenerate rect for a leaf).
        let mut ids = [0u64; SPLIT_ITEMS];
        ids[..n_items].copy_from_slice(self.kids_of(node));
        let mut lo = [[0.0; D]; SPLIT_ITEMS];
        let mut hi = [[0.0; D]; SPLIT_ITEMS];
        for k in 0..n_items {
            if is_leaf {
                lo[k] = *fixed(&self.pts, node * cap + k);
                hi[k] = lo[k];
            } else {
                let child = ids[k] as usize;
                lo[k] = *fixed(&self.lo, child);
                hi[k] = *fixed(&self.hi, child);
            }
        }
        let (keep, moved) = quadratic_split(&lo[..n_items], &hi[..n_items], ops);

        // Rewrite the kept group in place, the moved group into the twin.
        let new_node = self.alloc_node(self.parent[node], is_leaf);
        for (slot, &i) in keep.items().iter().enumerate() {
            let i = i as usize;
            self.slots[node * cap + slot] = ids[i];
            if is_leaf {
                *fixed_mut(&mut self.pts, node * cap + slot) = lo[i];
            }
        }
        self.count[node] = keep.len as u32;
        self.set_planes(node, &keep.lo, &keep.hi);
        for (slot, &i) in moved.items().iter().enumerate() {
            let (i, id) = (i as usize, ids[i as usize]);
            self.slots[new_node * cap + slot] = id;
            if is_leaf {
                *fixed_mut(&mut self.pts, new_node * cap + slot) = lo[i];
                self.entry_leaf[id as usize] = new_node as u32;
            } else {
                self.parent[id as usize] = new_node as u32;
            }
        }
        self.count[new_node] = moved.len as u32;
        self.set_planes(new_node, &moved.lo, &moved.hi);

        if self.parent[node] == NO_NODE {
            // Grow a new root.
            let mut lo = [0.0; D];
            let mut hi = [0.0; D];
            for i in 0..D {
                lo[i] = keep.lo[i].min(moved.lo[i]);
                hi[i] = keep.hi[i].max(moved.hi[i]);
            }
            let root = self.alloc_node(NO_NODE, false);
            self.set_planes(root, &lo, &hi);
            self.slots[root * cap] = node as u64;
            self.slots[root * cap + 1] = new_node as u64;
            self.count[root] = 2;
            self.parent[node] = root as u32;
            self.parent[new_node] = root as u32;
            self.root = Some(root);
            root
        } else {
            let p = self.parent[node] as usize;
            debug_assert!(!self.is_leaf[p], "parent of a split node must be inner");
            let slot = self.count[p] as usize;
            debug_assert!(slot < self.cap, "parent overfull before split");
            self.slots[p * self.cap + slot] = new_node as u64;
            self.count[p] += 1;
            p
        }
    }

    // ------------------------------------------------------------------
    // Search
    // ------------------------------------------------------------------

    /// Exact nearest neighbor of `query`: returns `(entry id, distance)`.
    ///
    /// A depth-first MINDIST branch-and-bound: each visited node's
    /// children are scored, and those whose MINDIST can still beat the
    /// current best are expanded closest first; a subtree is skipped the
    /// moment its MINDIST can no longer beat the best — the §III-B pruning
    /// rule. Returns `None` on an empty tree. See
    /// [`SiMbrTree::nearest_with_stats`] for traversal detail.
    pub fn nearest(&self, query: &Config, ops: &mut OpCount) -> Option<(u64, f64)> {
        let mut stats = SearchStats::default();
        self.nearest_with_stats(query, ops, &mut stats)
    }

    /// Exact nearest neighbor with traversal statistics: this query's
    /// counts are added onto `stats`, so one record can total a run.
    ///
    /// # Panics
    ///
    /// Panics if `query.dim()` differs from the tree dimension.
    pub fn nearest_with_stats(
        &self,
        query: &Config,
        ops: &mut OpCount,
        stats: &mut SearchStats,
    ) -> Option<(u64, f64)> {
        assert_eq!(query.dim(), self.dim, "dimension mismatch");
        self.root?;
        with_dim!(self.dim, D => self.search::<D>(query, ops, stats))
    }

    /// The depth-first core over `D`-dimensional points. Pops a pending
    /// subtree and skips it if its MINDIST no longer beats the bound
    /// (the bound may have tightened since it was pushed); otherwise
    /// visits it. A leaf visit scores every entry; an inner visit scores
    /// every child and pushes the survivors so the stack holds them in
    /// descending MINDIST order, with the closest on top and ties in slot
    /// order. Op charges are added once per visit: per entry and per
    /// child they are those of the `dist_sq` and `mindist_sq` kernels, and
    /// every probe that places a survivor on the stack is one `cmp`.
    fn search<const D: usize>(
        &self,
        query: &Config,
        ops: &mut OpCount,
        stats: &mut SearchStats,
    ) -> Option<(u64, f64)> {
        let root = self.root?;
        let q: &[f64; D] = query
            .as_slice()
            .try_into()
            .expect("query dimension checked");
        let (cap, d) = (self.cap, D as u64);
        let mut best: Option<u64> = None;
        let mut best_d2 = f64::INFINITY;
        let mut stack = self.stack.borrow_mut();
        stack.clear();
        stack.push(Pending {
            md: 0.0,
            node: root as u32,
        });
        while let Some(Pending { md, node }) = stack.pop() {
            ops.cmp += 1;
            if md >= best_d2 {
                stats.subtrees_skipped += 1;
                continue;
            }
            let node = node as usize;
            stats.nodes_visited += 1;
            let slots = &self.slots[node * cap..node * cap + self.count[node] as usize];
            let n = slots.len() as u64;
            if self.is_leaf[node] {
                for (k, &id) in slots.iter().enumerate() {
                    let d2 = dist_sq(q, fixed(&self.pts, node * cap + k));
                    if d2 < best_d2 {
                        best_d2 = d2;
                        best = Some(id);
                    }
                }
                // Per entry: a d-word point read, the distance kernel and
                // one compare against the bound.
                ops.mem_words += n * d;
                ops.mul += n * d;
                ops.add += n * (2 * d - 1);
                ops.dist_calcs += n;
                ops.cmp += n;
                stats.distance_calcs += n;
            } else {
                let base = stack.len();
                for &child in slots {
                    let child = child as usize;
                    let md = mindist_sq(q, fixed(&self.lo, child), fixed(&self.hi, child));
                    if md < best_d2 {
                        // Insertion into the descending run above `base`.
                        let pending = Pending {
                            md,
                            node: child as u32,
                        };
                        let mut j = stack.len();
                        stack.push(pending);
                        while j > base {
                            ops.cmp += 1;
                            if stack[j - 1].md > md {
                                break;
                            }
                            stack[j] = stack[j - 1];
                            j -= 1;
                        }
                        stack[j] = pending;
                    } else {
                        stats.subtrees_skipped += 1;
                    }
                }
                // Per child: a 2d-word MBR read, the MINDIST kernel and
                // one compare against the bound.
                ops.mem_words += n * 2 * d;
                ops.cmp += n * (2 * d + 1);
                ops.mul += n * d;
                ops.add += n * (2 * d - 1);
            }
        }
        best.map(|id| (id, best_d2.sqrt()))
    }

    /// Exact range search: all entries within `radius` of `query`,
    /// unsorted. Subtrees are pruned by `MINDIST > radius`. This is the
    /// *second* neighbor search of a stock RRT\* round, which SIAS
    /// replaces.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ or `radius` is negative.
    pub fn near(&self, query: &Config, radius: f64, ops: &mut OpCount) -> Vec<Entry> {
        assert_eq!(query.dim(), self.dim, "dimension mismatch");
        assert!(radius >= 0.0, "radius must be non-negative");
        let mut out = Vec::new();
        with_dim!(self.dim, D => self.range::<D>(query, radius * radius, ops, &mut out));
        out
    }

    /// The range-search core over `D`-dimensional points: pops a node,
    /// skips it if its MINDIST exceeds `r2`, and otherwise appends the
    /// leaf entries within `r2` in slot order, or pushes an inner node's
    /// children in slot order (so the last child is expanded first).
    /// Per node it charges a 2d-word MBR read and the MINDIST kernel; per
    /// scored entry a d-word point read, the distance kernel and one
    /// compare.
    fn range<const D: usize>(
        &self,
        query: &Config,
        r2: f64,
        ops: &mut OpCount,
        out: &mut Vec<Entry>,
    ) {
        let Some(root) = self.root else { return };
        let q: &[f64; D] = query
            .as_slice()
            .try_into()
            .expect("query dimension checked");
        let (cap, d) = (self.cap, D as u64);
        let mut stack = vec![root];
        while let Some(n) = stack.pop() {
            ops.mem_words += 2 * d;
            ops.cmp += 2 * d;
            ops.mul += d;
            ops.add += 2 * d - 1;
            if mindist_sq(q, fixed(&self.lo, n), fixed(&self.hi, n)) > r2 {
                continue;
            }
            let slots = &self.slots[n * cap..n * cap + self.count[n] as usize];
            if self.is_leaf[n] {
                for (k, &id) in slots.iter().enumerate() {
                    let p = fixed(&self.pts, n * cap + k);
                    if dist_sq(q, p) <= r2 {
                        out.push(Entry {
                            id,
                            point: Config::new(p),
                        });
                    }
                }
                let m = slots.len() as u64;
                ops.mem_words += m * d;
                ops.mul += m * d;
                ops.add += m * (2 * d - 1);
                ops.dist_calcs += m;
                ops.cmp += m;
            } else {
                stack.extend(slots.iter().map(|&k| k as usize));
            }
        }
    }

    /// Steering-informed approximated neighborhood (SIAS, §III-B): the
    /// leaf group of `entry_id` — every entry sharing its parent node.
    /// The building procedure groups geometrically nearby configurations
    /// under the same parent, and steering keeps `x_new` close to
    /// `x_nearest`, so this set approximates `near(x_new, ·)` **at zero
    /// search cost** (only the leaf read is charged).
    ///
    /// # Panics
    ///
    /// Panics if `entry_id` is not present.
    pub fn leaf_group(
        &self,
        entry_id: u64,
        ops: &mut OpCount,
    ) -> impl ExactSizeIterator<Item = Entry> + '_ {
        let leaf = self
            .leaf_of(entry_id)
            .unwrap_or_else(|| panic!("entry {entry_id} not present in SI-MBR-Tree"));
        debug_assert!(self.is_leaf[leaf], "entry_leaf always maps to leaves");
        let n = self.count[leaf] as usize;
        ops.mem_words += n as u64 * (1 + self.dim as u64);
        (0..n).map(move |k| Entry {
            id: self.slots[leaf * self.cap + k],
            point: self.entry_config(leaf, k),
        })
    }

    /// Linear-scan nearest neighbor over all entries: the oracle the
    /// tests compare [`SiMbrTree::nearest`] against. (The evaluation's
    /// no-index baseline is `moped_core::LinearIndex`.)
    pub fn nearest_linear(&self, query: &Config, ops: &mut OpCount) -> Option<(u64, f64)> {
        let mut best = None;
        let mut best_d2 = f64::INFINITY;
        for n in 0..self.node_count() {
            if !self.is_leaf[n] {
                continue;
            }
            for k in 0..self.count[n] as usize {
                let d2 = query.distance_sq_to_slice_counted(self.entry_pt(n, k), ops);
                ops.cmp += 1;
                if d2 < best_d2 {
                    best_d2 = d2;
                    best = Some(self.slots[n * self.cap + k]);
                }
            }
        }
        best.map(|id| (id, best_d2.sqrt()))
    }

    /// Iterates over all entries (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = Entry> + '_ {
        (0..self.node_count())
            .filter(|&n| self.is_leaf[n])
            .flat_map(move |n| {
                (0..self.count[n] as usize).map(move |k| Entry {
                    id: self.slots[n * self.cap + k],
                    point: self.entry_config(n, k),
                })
            })
    }

    /// Verifies structural invariants (MBR containment, parent links,
    /// entry-map consistency); used by tests and debug assertions.
    ///
    /// Returns a human-readable violation description, or `None` if sound.
    pub fn check_invariants(&self) -> Option<String> {
        let Some(root) = self.root else {
            return (self.len != 0).then(|| "empty tree with nonzero len".into());
        };
        if self.parent[root] != NO_NODE {
            return Some("root has a parent".into());
        }
        let mut seen_entries = 0usize;
        let mut stack = vec![root];
        while let Some(n) = stack.pop() {
            if self.is_leaf[n] {
                for k in 0..self.count[n] as usize {
                    seen_entries += 1;
                    let id = self.slots[n * self.cap + k];
                    let p = self.entry_pt(n, k);
                    if !self.mbr_contains(n, p, p) {
                        return Some(format!("leaf MBR of node {n} misses entry {id}"));
                    }
                    if self.leaf_of(id) != Some(n) {
                        return Some(format!("entry map stale for {id}"));
                    }
                }
            } else {
                if self.count[n] == 0 {
                    return Some(format!("inner node {n} has no children"));
                }
                for &k in self.kids_of(n) {
                    let k = k as usize;
                    if self.parent[k] != n as u32 {
                        return Some(format!("parent link broken at {k}"));
                    }
                    let (lo, hi) = self.planes(k);
                    if !self.mbr_contains(n, lo, hi) {
                        return Some(format!("MBR of {n} misses child {k}"));
                    }
                    stack.push(k);
                }
            }
        }
        if seen_entries != self.len {
            return Some(format!(
                "len {} but {seen_entries} reachable entries",
                self.len
            ));
        }
        let mapped = self.entry_leaf.iter().filter(|&&l| l != NO_NODE).count();
        if mapped != self.len {
            return Some(format!(
                "entry map holds {mapped} ids for {} entries",
                self.len
            ));
        }
        None
    }
}

/// The `D` coordinates at `slab[at * D..]` as a fixed-length array.
#[inline(always)]
fn fixed<const D: usize>(slab: &[f64], at: usize) -> &[f64; D] {
    slab[at * D..at * D + D]
        .try_into()
        .expect("slice of length D")
}

/// The `D` coordinates at `slab[at * D..]` as a mutable fixed-length
/// array.
#[inline(always)]
fn fixed_mut<const D: usize>(slab: &mut [f64], at: usize) -> &mut [f64; D] {
    (&mut slab[at * D..at * D + D])
        .try_into()
        .expect("slice of length D")
}

/// Squared distance from `q` to `p`, summed axis by axis in the order of
/// `Config::distance_sq_to_slice_counted`, so the two agree to the bit.
/// (`nearest_linear`, the tests' oracle, uses the latter.)
#[inline(always)]
fn dist_sq<const D: usize>(q: &[f64; D], p: &[f64; D]) -> f64 {
    let mut acc = 0.0;
    for i in 0..D {
        let d = q[i] - p[i];
        acc += d * d;
    }
    acc
}

/// Squared MINDIST from `q` to the MBR `lo..hi` (Cheung & Fu 1998): the
/// squared distance to the MBR's nearest point, zero inside it, and so a
/// lower bound on the squared distance to every point the MBR holds.
///
/// Each axis's excess is computed without a branch as
/// `(lo − q).max(0) + (q − hi).max(0)`: because `lo ≤ hi`, at most one
/// term is positive, and adding an exact zero to it changes nothing.
#[inline(always)]
fn mindist_sq<const D: usize>(q: &[f64; D], lo: &[f64; D], hi: &[f64; D]) -> f64 {
    let mut acc = 0.0;
    for i in 0..D {
        let excess = (lo[i] - q[i]).max(0.0) + (q[i] - hi[i]).max(0.0);
        acc += excess * excess;
    }
    acc
}

/// The MBR's generalized d-volume ("area" in the paper's insertion rule):
/// the product of the side lengths, axis by axis.
#[inline(always)]
fn measure<const D: usize>(lo: &[f64; D], hi: &[f64; D]) -> f64 {
    let mut m = 1.0;
    for i in 0..D {
        m *= hi[i] - lo[i];
    }
    m
}

/// The measure of the union of MBRs `a` and `b`, without building the
/// union: per axis the union's side, multiplied in axis order.
#[inline(always)]
fn union_measure<const D: usize>(
    alo: &[f64; D],
    ahi: &[f64; D],
    blo: &[f64; D],
    bhi: &[f64; D],
) -> f64 {
    let mut m = 1.0;
    for i in 0..D {
        m *= ahi[i].max(bhi[i]) - alo[i].min(blo[i]);
    }
    m
}

/// Guttman quadratic split of the gathered items `lo[k]..hi[k]`. Seeds
/// are the pair wasting the most dead area if grouped; the other items,
/// in slot order, join the group whose MBR grows least.
///
/// Each item's measure is computed once. The split decisions, and with
/// them every tree shape, are pinned per dimension by the insertion pins
/// in the tests.
// Index pairs (i, j) over the same items are the algorithm's
// vocabulary; the seed search needs both indices.
#[allow(clippy::needless_range_loop)]
fn quadratic_split<const D: usize>(
    lo: &[[f64; D]],
    hi: &[[f64; D]],
    ops: &mut OpCount,
) -> (SplitGroup<D>, SplitGroup<D>) {
    let n = lo.len();
    debug_assert!((2..=SPLIT_ITEMS).contains(&n));
    let mut measures = [0.0; SPLIT_ITEMS];
    for k in 0..n {
        measures[k] = measure(&lo[k], &hi[k]);
    }
    // Pick seeds.
    let (mut sa, mut sb) = (0, 1);
    let mut worst = f64::NEG_INFINITY;
    for i in 0..n {
        for j in (i + 1)..n {
            let waste = union_measure(&lo[i], &hi[i], &lo[j], &hi[j]) - measures[i] - measures[j];
            if waste > worst {
                worst = waste;
                sa = i;
                sb = j;
            }
        }
    }
    // Per pair: two subtractions and one compare.
    let pairs = (n * (n - 1) / 2) as u64;
    ops.add += 2 * pairs;
    ops.cmp += pairs;
    let mut ga = SplitGroup::seed(sa, &lo[sa], &hi[sa], measures[sa]);
    let mut gb = SplitGroup::seed(sb, &lo[sb], &hi[sb], measures[sb]);
    for i in 0..n {
        if i == sa || i == sb {
            continue;
        }
        let ea = ga.enlargement(&lo[i], &hi[i]);
        let eb = gb.enlargement(&lo[i], &hi[i]);
        if ea < eb || (ea == eb && ga.len <= gb.len) {
            ga.join(i, &lo[i], &hi[i]);
        } else {
            gb.join(i, &lo[i], &hi[i]);
        }
    }
    // Per remaining item: two enlargements and one compare.
    ops.add += 2 * (n - 2) as u64;
    ops.cmp += (n - 2) as u64;
    (ga, gb)
}

/// One side of a quadratic split: its item indices in join order and its
/// MBR planes, all in fixed arrays.
struct SplitGroup<const D: usize> {
    items: [u8; SPLIT_ITEMS],
    len: usize,
    lo: [f64; D],
    hi: [f64; D],
    /// `measure` of the group MBR, refreshed on every join.
    measure: f64,
}

impl<const D: usize> SplitGroup<D> {
    fn seed(item: usize, lo: &[f64; D], hi: &[f64; D], measure: f64) -> Self {
        let mut items = [0; SPLIT_ITEMS];
        items[0] = item as u8;
        SplitGroup {
            items,
            len: 1,
            lo: *lo,
            hi: *hi,
            measure,
        }
    }

    fn items(&self) -> &[u8] {
        &self.items[..self.len]
    }

    /// Growth of the group's measure if it absorbed the rect `lo..hi`.
    fn enlargement(&self, lo: &[f64; D], hi: &[f64; D]) -> f64 {
        union_measure(&self.lo, &self.hi, lo, hi) - self.measure
    }

    fn join(&mut self, item: usize, lo: &[f64; D], hi: &[f64; D]) {
        self.items[self.len] = item as u8;
        self.len += 1;
        for i in 0..D {
            self.lo[i] = self.lo[i].min(lo[i]);
            self.hi[i] = self.hi[i].max(hi[i]);
        }
        self.measure = measure(&self.lo, &self.hi);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn c2(x: f64, y: f64) -> Config {
        Config::new(&[x, y])
    }

    fn build_grid(n: usize, insertion: &str) -> (SiMbrTree, Vec<Config>) {
        let mut tree = SiMbrTree::new(2, 4);
        let mut ops = OpCount::default();
        let mut pts = Vec::new();
        for i in 0..n {
            let p = c2((i % 10) as f64, (i / 10) as f64);
            pts.push(p);
            match insertion {
                "conv" => tree.insert_conventional(i as u64, p, &mut ops),
                "lci" => {
                    if i == 0 {
                        tree.insert_conventional(0, p, &mut ops);
                    } else {
                        // steer-like: insert near the previous point
                        tree.insert_near(i as u64, p, i as u64 - 1, &mut ops);
                    }
                }
                _ => unreachable!(),
            }
        }
        (tree, pts)
    }

    /// MINDIST lower-bounds the distance to every point its MBR holds,
    /// exactly (the kernel rounds monotonically), in every dimension:
    /// seeded point sets, their bounding MBR, and queries that per axis
    /// lie below, on the low face, inside, on the high face or above.
    /// Against a point, MINDIST is the squared distance to the bit.
    #[test]
    fn mindist_lower_bounds_every_member() {
        fn check<const D: usize>(rng: &mut StdRng) {
            let mut pts = [[0.0f64; D]; 12];
            for c in pts.iter_mut().flatten() {
                *c = rng.gen_range(-20.0..20.0);
            }
            let (mut lo, mut hi) = (pts[0], pts[0]);
            for p in &pts {
                for i in 0..D {
                    lo[i] = lo[i].min(p[i]);
                    hi[i] = hi[i].max(p[i]);
                }
            }
            for _ in 0..16 {
                let mut q = [0.0; D];
                for i in 0..D {
                    q[i] = match rng.gen_range(0..5) {
                        0 => lo[i] - rng.gen_range(0.0..10.0),
                        1 => lo[i],
                        2 => rng.gen_range(lo[i]..=hi[i]),
                        3 => hi[i],
                        _ => hi[i] + rng.gen_range(0.0..10.0),
                    };
                }
                let md = mindist_sq(&q, &lo, &hi);
                for p in &pts {
                    assert!(dist_sq(&q, p) >= md, "{q:?} to {p:?} under {md}");
                    assert_eq!(mindist_sq(&q, p, p).to_bits(), dist_sq(&q, p).to_bits());
                }
            }
        }
        let mut rng = StdRng::seed_from_u64(0x3D15);
        for _ in 0..64 {
            for dim in 1..=MAX_DOF {
                with_dim!(dim, D => check::<D>(&mut rng));
            }
        }
    }

    #[test]
    fn empty_tree_behaviour() {
        let tree = SiMbrTree::new(3, 4);
        let mut ops = OpCount::default();
        assert!(tree.is_empty());
        assert_eq!(tree.nearest(&Config::zeros(3), &mut ops), None);
        assert!(tree.near(&Config::zeros(3), 1.0, &mut ops).is_empty());
        assert_eq!(tree.height(), 0);
        assert!(tree.check_invariants().is_none());
    }

    #[test]
    fn nearest_matches_linear_scan_conventional() {
        let (tree, _) = build_grid(60, "conv");
        let mut ops = OpCount::default();
        for q in [c2(3.3, 2.7), c2(-1.0, -1.0), c2(9.5, 5.5), c2(100.0, 100.0)] {
            let a = tree.nearest(&q, &mut ops).unwrap();
            let b = tree.nearest_linear(&q, &mut ops).unwrap();
            assert_eq!(a.0, b.0, "query {q:?}");
            assert!((a.1 - b.1).abs() < 1e-12);
        }
    }

    #[test]
    fn nearest_matches_linear_scan_lci() {
        let (tree, _) = build_grid(60, "lci");
        assert!(
            tree.check_invariants().is_none(),
            "{:?}",
            tree.check_invariants()
        );
        let mut ops = OpCount::default();
        for q in [c2(3.3, 2.7), c2(0.0, 5.9), c2(9.5, 5.5)] {
            let a = tree.nearest(&q, &mut ops).unwrap();
            let b = tree.nearest_linear(&q, &mut ops).unwrap();
            assert!((a.1 - b.1).abs() < 1e-12, "query {q:?}");
        }
    }

    #[test]
    fn pruning_saves_distance_calcs() {
        let (tree, _) = build_grid(100, "conv");
        let mut ops = OpCount::default();
        let mut stats = SearchStats::default();
        let _ = tree.nearest_with_stats(&c2(2.2, 2.2), &mut ops, &mut stats);
        assert!(
            stats.distance_calcs < 100,
            "branch-and-bound should not touch all {} leaves: {stats:?}",
            tree.len()
        );
        assert!(stats.subtrees_skipped > 0);
    }

    #[test]
    fn near_returns_exactly_the_in_radius_set() {
        let (tree, pts) = build_grid(80, "conv");
        let mut ops = OpCount::default();
        let q = c2(4.5, 3.5);
        let r = 2.0;
        let mut got: Vec<u64> = tree.near(&q, r, &mut ops).iter().map(|e| e.id).collect();
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
    fn leaf_group_contains_the_anchor() {
        let (tree, _) = build_grid(50, "conv");
        let mut ops = OpCount::default();
        for id in [0u64, 13, 49] {
            let group: Vec<Entry> = tree.leaf_group(id, &mut ops).collect();
            assert!(group.iter().any(|e| e.id == id));
            assert!(group.len() <= 4);
        }
    }

    #[test]
    fn lci_insertion_is_cheaper_than_conventional() {
        let mut conv_ops = OpCount::default();
        let mut lci_ops = OpCount::default();
        let mut conv = SiMbrTree::new(2, 4);
        let mut lci = SiMbrTree::new(2, 4);
        conv.insert_conventional(0, c2(0.0, 0.0), &mut conv_ops);
        lci.insert_conventional(0, c2(0.0, 0.0), &mut lci_ops);
        let warmup = (conv_ops, lci_ops);
        for i in 1..200u64 {
            let p = c2((i % 14) as f64 + 0.1, (i / 14) as f64);
            conv.insert_conventional(i, p, &mut conv_ops);
            lci.insert_near(i, p, i - 1, &mut lci_ops);
        }
        let conv_cost = (conv_ops - warmup.0).mac_equiv();
        let lci_cost = (lci_ops - warmup.1).mac_equiv();
        assert!(
            lci_cost < conv_cost,
            "LCI should be cheaper: {lci_cost} vs {conv_cost}"
        );
    }

    #[test]
    fn invariants_hold_after_many_splits() {
        let (tree, _) = build_grid(300, "conv");
        assert!(
            tree.check_invariants().is_none(),
            "{:?}",
            tree.check_invariants()
        );
        assert!(tree.height() >= 3);
        let (tree, _) = build_grid(300, "lci");
        assert!(
            tree.check_invariants().is_none(),
            "{:?}",
            tree.check_invariants()
        );
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_id_rejected() {
        let mut tree = SiMbrTree::new(2, 4);
        let mut ops = OpCount::default();
        tree.insert_conventional(7, c2(0.0, 0.0), &mut ops);
        tree.insert_conventional(7, c2(1.0, 1.0), &mut ops);
    }

    /// Ids `1000·i + 7`: the dense table has holes, which must read as
    /// absent everywhere.
    fn build_sparse(n: u64) -> SiMbrTree {
        let mut tree = SiMbrTree::new(2, 4);
        let mut ops = OpCount::default();
        for i in 0..n {
            let p = c2((i % 9) as f64 * 1.3, (i / 9) as f64 * 0.7);
            if i % 3 == 0 {
                tree.insert_conventional(1000 * i + 7, p, &mut ops);
            } else {
                tree.insert_near(1000 * i + 7, p, 1000 * (i - 1) + 7, &mut ops);
            }
        }
        tree
    }

    #[test]
    fn sparse_ids_index_a_dense_table() {
        let tree = build_sparse(120);
        assert!(
            tree.check_invariants().is_none(),
            "{:?}",
            tree.check_invariants()
        );
        let mut ops = OpCount::default();
        for q in [c2(3.3, 2.7), c2(-1.0, 40.0), c2(10.4, 5.5)] {
            let a = tree.nearest(&q, &mut ops).unwrap();
            let b = tree.nearest_linear(&q, &mut ops).unwrap();
            assert_eq!(a.1.to_bits(), b.1.to_bits(), "query {q:?}");
            assert_eq!(a.0 % 1000, 7);
        }
        for i in [0u64, 41, 119] {
            let id = 1000 * i + 7;
            assert!(tree.leaf_group(id, &mut ops).any(|e| e.id == id));
        }
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_sparse_id_rejected() {
        let mut tree = build_sparse(30);
        tree.insert_conventional(1000 * 17 + 7, c2(50.0, 50.0), &mut OpCount::default());
    }

    #[test]
    #[should_panic(expected = "dense-table sentinel")]
    fn id_at_the_sentinel_rejected() {
        let mut tree = SiMbrTree::new(2, 4);
        tree.insert_conventional(u64::from(u32::MAX), c2(0.0, 0.0), &mut OpCount::default());
    }

    #[test]
    #[should_panic(expected = "not present")]
    fn insert_near_missing_anchor_rejected() {
        let mut tree = SiMbrTree::new(2, 4);
        let mut ops = OpCount::default();
        tree.insert_conventional(0, c2(0.0, 0.0), &mut ops);
        tree.insert_near(1, c2(0.1, 0.0), 42, &mut ops);
    }

    #[test]
    fn iter_yields_all_entries() {
        let (tree, _) = build_grid(37, "conv");
        let mut ids: Vec<u64> = tree.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..37u64).collect::<Vec<_>>());
    }

    #[test]
    fn memory_words_grow_with_entries() {
        let (t1, _) = build_grid(10, "conv");
        let (t2, _) = build_grid(100, "conv");
        assert!(t2.memory_words() > t1.memory_words());
    }

    #[test]
    fn high_dim_nearest_works() {
        let mut tree = SiMbrTree::new(7, 6);
        let mut ops = OpCount::default();
        for i in 0..50u64 {
            let coords: Vec<f64> = (0..7).map(|d| ((i * 7 + d) % 13) as f64).collect();
            tree.insert_conventional(i, Config::new(&coords), &mut ops);
        }
        let q = Config::new(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 0.0]);
        let fast = tree.nearest(&q, &mut ops).unwrap();
        let slow = tree.nearest_linear(&q, &mut ops).unwrap();
        assert!((fast.1 - slow.1).abs() < 1e-12);
    }
}
