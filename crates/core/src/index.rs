//! Neighbor-index backends for the planner.

use moped_geometry::{Config, OpCount};
use moped_kdtree::KdTree;
use moped_simbr::{SearchStats, SiMbrTree};

/// The neighbor-search interface RRT\* consumes.
///
/// Each sampling round issues up to two queries: `nearest(x_rand)` to find
/// `x_nearest`, and a neighborhood query around `x_new` for parent choice
/// and rewiring. Backends differ in how (and whether) they pay for the
/// second query — that is the crux of MOPED's §III-B.
pub trait NeighborIndex {
    /// Adds a configuration under a caller-assigned id. `near_hint` is the
    /// id of the node `q` was steered from (`x_nearest`); LCI-enabled
    /// backends use it for O(1) placement, others ignore it.
    fn insert(&mut self, id: u64, q: Config, near_hint: Option<u64>, ops: &mut OpCount);

    /// Exact or backend-best nearest neighbor: `(id, distance)`.
    fn nearest(&self, q: &Config, ops: &mut OpCount) -> Option<(u64, f64)>;

    /// The neighborhood used for parent selection and rewiring around the
    /// new node `q`, where `anchor` is the id of `x_nearest` and `radius`
    /// the RRT\* rewiring radius. Exact backends return the true
    /// in-radius set; the SIAS backend returns the anchor's leaf group.
    fn neighborhood(
        &self,
        anchor: u64,
        q: &Config,
        radius: f64,
        ops: &mut OpCount,
    ) -> Vec<(u64, Config)>;

    /// Number of indexed configurations.
    fn len(&self) -> usize;

    /// Returns `true` when no configurations are indexed.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Short backend name for reports.
    fn name(&self) -> &'static str;

    /// An empty index with the same configuration (dimension, node
    /// capacity, search/insert switches) as `self`. The planner uses this
    /// to restart a run and to give RRT-Connect's goal tree its own index
    /// without the caller having to re-specify backend parameters.
    fn fresh(&self) -> Self
    where
        Self: Sized;
}

/// Brute-force index: the baseline RRT\* implementation's linear scans.
#[derive(Clone, Debug, Default)]
pub struct LinearIndex {
    points: Vec<(u64, Config)>,
}

impl LinearIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        LinearIndex::default()
    }
}

impl NeighborIndex for LinearIndex {
    fn insert(&mut self, id: u64, q: Config, _near_hint: Option<u64>, _ops: &mut OpCount) {
        self.points.push((id, q));
    }

    fn nearest(&self, q: &Config, ops: &mut OpCount) -> Option<(u64, f64)> {
        let mut best: Option<(u64, f64)> = None;
        for (id, p) in &self.points {
            ops.mem_words += q.dim() as u64;
            let d2 = p.distance_sq_counted(q, ops);
            ops.cmp += 1;
            if best.is_none_or(|(_, b)| d2 < b) {
                best = Some((*id, d2));
            }
        }
        best.map(|(id, d2)| (id, d2.sqrt()))
    }

    fn neighborhood(
        &self,
        _anchor: u64,
        q: &Config,
        radius: f64,
        ops: &mut OpCount,
    ) -> Vec<(u64, Config)> {
        let r2 = radius * radius;
        self.points
            .iter()
            .filter(|(_, p)| {
                ops.mem_words += q.dim() as u64;
                ops.cmp += 1;
                p.distance_sq_counted(q, ops) <= r2
            })
            .copied()
            .collect()
    }

    fn len(&self) -> usize {
        self.points.len()
    }

    fn name(&self) -> &'static str {
        "linear"
    }

    fn fresh(&self) -> Self {
        LinearIndex::new()
    }
}

/// Entries per SI-MBR-Tree node: the paper's small node.
pub const SIMBR_NODE_CAPACITY: usize = 6;

/// SI-MBR-Tree index with the two MOPED switches:
///
/// * `approx_search` (SIAS): the neighborhood query returns the anchor's
///   leaf group instead of running an exact range search.
/// * `low_cost_insert` (LCI): inserts place the point next to its steering
///   anchor in O(1) instead of the min-enlargement descent.
///
/// `nearest` is the tree's exact search with no state carried between
/// queries; the index only totals its [`SearchStats`].
#[derive(Clone, Debug)]
pub struct SimbrIndex {
    tree: SiMbrTree,
    approx_search: bool,
    low_cost_insert: bool,
    search_stats: std::cell::Cell<SearchStats>,
}

impl SimbrIndex {
    /// Creates the index for `dim`-dimensional configurations, with
    /// [`SIMBR_NODE_CAPACITY`]-entry nodes.
    pub fn new(dim: usize, approx_search: bool, low_cost_insert: bool) -> Self {
        SimbrIndex {
            tree: SiMbrTree::new(dim, SIMBR_NODE_CAPACITY),
            approx_search,
            low_cost_insert,
            search_stats: std::cell::Cell::new(SearchStats::default()),
        }
    }

    /// Accumulated traversal statistics across every `nearest` call.
    pub fn search_stats(&self) -> SearchStats {
        self.search_stats.get()
    }

    /// Full MOPED configuration (SIAS + LCI).
    pub fn moped(dim: usize) -> Self {
        SimbrIndex::new(dim, true, true)
    }

    /// Access to the underlying tree (for memory sizing / diagnostics).
    pub fn tree(&self) -> &SiMbrTree {
        &self.tree
    }
}

impl NeighborIndex for SimbrIndex {
    fn insert(&mut self, id: u64, q: Config, near_hint: Option<u64>, ops: &mut OpCount) {
        match (self.low_cost_insert, near_hint) {
            (true, Some(anchor)) => self.tree.insert_near(id, q, anchor, ops),
            _ => self.tree.insert_conventional(id, q, ops),
        }
    }

    fn nearest(&self, q: &Config, ops: &mut OpCount) -> Option<(u64, f64)> {
        // Every SearchStats field is additive, so the tree adds this
        // query's counts straight onto the running totals.
        let mut stats = self.search_stats.get();
        let out = self.tree.nearest_with_stats(q, ops, &mut stats);
        self.search_stats.set(stats);
        out
    }

    fn neighborhood(
        &self,
        anchor: u64,
        q: &Config,
        radius: f64,
        ops: &mut OpCount,
    ) -> Vec<(u64, Config)> {
        if self.approx_search {
            self.tree
                .leaf_group(anchor, ops)
                .map(|e| (e.id, e.point))
                .collect()
        } else {
            self.tree
                .near(q, radius, ops)
                .into_iter()
                .map(|e| (e.id, e.point))
                .collect()
        }
    }

    fn len(&self) -> usize {
        self.tree.len()
    }

    fn name(&self) -> &'static str {
        match (self.approx_search, self.low_cost_insert) {
            (false, false) => "si-mbr",
            (true, false) => "si-mbr+sias",
            (false, true) => "si-mbr+lci",
            (true, true) => "si-mbr+sias+lci",
        }
    }

    fn fresh(&self) -> Self {
        SimbrIndex::new(self.tree.dim(), self.approx_search, self.low_cost_insert)
    }
}

/// KD-tree index (the Fig 19 neighbor-search baseline).
#[derive(Clone, Debug)]
pub struct KdIndex {
    tree: KdTree,
}

impl KdIndex {
    /// Creates the index for `dim`-dimensional configurations.
    pub fn new(dim: usize) -> Self {
        KdIndex {
            tree: KdTree::new(dim),
        }
    }

    /// Access to the underlying KD-tree.
    pub fn tree(&self) -> &KdTree {
        &self.tree
    }
}

impl NeighborIndex for KdIndex {
    fn insert(&mut self, id: u64, q: Config, _near_hint: Option<u64>, ops: &mut OpCount) {
        self.tree.insert(id, q, ops);
    }

    fn nearest(&self, q: &Config, ops: &mut OpCount) -> Option<(u64, f64)> {
        self.tree.nearest(q, ops)
    }

    fn neighborhood(
        &self,
        _anchor: u64,
        q: &Config,
        radius: f64,
        ops: &mut OpCount,
    ) -> Vec<(u64, Config)> {
        self.tree.near(q, radius, ops)
    }

    fn len(&self) -> usize {
        self.tree.len()
    }

    fn name(&self) -> &'static str {
        "kd-tree"
    }

    fn fresh(&self) -> Self {
        KdIndex::new(self.tree.dim())
    }
}

/// The NN-backend choices the autotuner switches between.
///
/// This is the runtime-selectable face of the three concrete index types:
/// a profile names a backend, [`NnBackend::build`] constructs the matching
/// [`AnyIndex`], and the planner stays monomorphic over `AnyIndex` so the
/// event journal and replay machinery keep working for tuned plans.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NnBackend {
    /// Brute-force linear scan ([`LinearIndex`]).
    Linear,
    /// KD-tree ([`KdIndex`]).
    Kd,
    /// SI-MBR tree ([`SimbrIndex`]); SIAS/LCI switches are supplied at
    /// build time.
    SiMbr,
}

impl NnBackend {
    /// Every backend, in stable order (candidate enumeration, tests).
    pub const ALL: [NnBackend; 3] = [NnBackend::Linear, NnBackend::Kd, NnBackend::SiMbr];

    /// Stable wire/report name.
    pub fn name(self) -> &'static str {
        match self {
            NnBackend::Linear => "linear",
            NnBackend::Kd => "kd-tree",
            NnBackend::SiMbr => "si-mbr",
        }
    }

    /// Parses [`NnBackend::name`] output.
    pub fn parse(s: &str) -> Option<NnBackend> {
        match s {
            "linear" => Some(NnBackend::Linear),
            "kd-tree" => Some(NnBackend::Kd),
            "si-mbr" => Some(NnBackend::SiMbr),
            _ => None,
        }
    }

    /// Builds the concrete index for `dim`-dimensional configurations.
    ///
    /// `sias` and `lci` only affect the SI-MBR backend (paper switches);
    /// the exact backends ignore them.
    pub fn build(self, dim: usize, sias: bool, lci: bool) -> AnyIndex {
        match self {
            NnBackend::Linear => AnyIndex::Linear(LinearIndex::new()),
            NnBackend::Kd => AnyIndex::Kd(KdIndex::new(dim)),
            NnBackend::SiMbr => AnyIndex::SiMbr(SimbrIndex::new(dim, sias, lci)),
        }
    }
}

/// Enum-dispatch wrapper over the three index backends.
///
/// The planner is generic over [`NeighborIndex`]; `AnyIndex` makes the
/// backend a *runtime* choice (the tuner's profile application seam)
/// while keeping `RrtStar<AnyIndex>` a single concrete type.
// The variant size gap is deliberate: exactly one AnyIndex is built per
// plan and then queried by reference on the NN hot path, so boxing the
// SI-MBR arena would trade a single oversized move at construction for
// a pointer chase on every nearest/neighborhood call.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum AnyIndex {
    /// [`LinearIndex`] variant.
    Linear(LinearIndex),
    /// [`KdIndex`] variant.
    Kd(KdIndex),
    /// [`SimbrIndex`] variant.
    SiMbr(SimbrIndex),
}

impl AnyIndex {
    /// Which backend this wraps.
    pub fn backend(&self) -> NnBackend {
        match self {
            AnyIndex::Linear(_) => NnBackend::Linear,
            AnyIndex::Kd(_) => NnBackend::Kd,
            AnyIndex::SiMbr(_) => NnBackend::SiMbr,
        }
    }
}

impl NeighborIndex for AnyIndex {
    fn insert(&mut self, id: u64, q: Config, near_hint: Option<u64>, ops: &mut OpCount) {
        match self {
            AnyIndex::Linear(i) => i.insert(id, q, near_hint, ops),
            AnyIndex::Kd(i) => i.insert(id, q, near_hint, ops),
            AnyIndex::SiMbr(i) => i.insert(id, q, near_hint, ops),
        }
    }

    fn nearest(&self, q: &Config, ops: &mut OpCount) -> Option<(u64, f64)> {
        match self {
            AnyIndex::Linear(i) => i.nearest(q, ops),
            AnyIndex::Kd(i) => i.nearest(q, ops),
            AnyIndex::SiMbr(i) => i.nearest(q, ops),
        }
    }

    fn neighborhood(
        &self,
        anchor: u64,
        q: &Config,
        radius: f64,
        ops: &mut OpCount,
    ) -> Vec<(u64, Config)> {
        match self {
            AnyIndex::Linear(i) => i.neighborhood(anchor, q, radius, ops),
            AnyIndex::Kd(i) => i.neighborhood(anchor, q, radius, ops),
            AnyIndex::SiMbr(i) => i.neighborhood(anchor, q, radius, ops),
        }
    }

    fn len(&self) -> usize {
        match self {
            AnyIndex::Linear(i) => i.len(),
            AnyIndex::Kd(i) => i.len(),
            AnyIndex::SiMbr(i) => i.len(),
        }
    }

    fn name(&self) -> &'static str {
        match self {
            AnyIndex::Linear(i) => i.name(),
            AnyIndex::Kd(i) => i.name(),
            AnyIndex::SiMbr(i) => i.name(),
        }
    }

    fn fresh(&self) -> Self {
        match self {
            AnyIndex::Linear(i) => AnyIndex::Linear(i.fresh()),
            AnyIndex::Kd(i) => AnyIndex::Kd(i.fresh()),
            AnyIndex::SiMbr(i) => AnyIndex::SiMbr(i.fresh()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeded_points(n: usize, dim: usize) -> Vec<Config> {
        (0..n)
            .map(|i| {
                let coords: Vec<f64> = (0..dim)
                    .map(|d| (((i * 31 + d * 17) % 97) as f64) / 3.0)
                    .collect();
                Config::new(&coords)
            })
            .collect()
    }

    fn fill(index: &mut dyn NeighborIndex, pts: &[Config]) {
        let mut ops = OpCount::default();
        for (i, p) in pts.iter().enumerate() {
            let hint = if i == 0 {
                None
            } else {
                index.nearest(p, &mut ops).map(|(id, _)| id)
            };
            index.insert(i as u64, *p, hint, &mut ops);
        }
    }

    #[test]
    fn all_backends_agree_on_nearest() {
        let pts = seeded_points(150, 4);
        let mut linear = LinearIndex::new();
        let mut simbr = SimbrIndex::moped(4);
        let mut simbr_conv = SimbrIndex::new(4, false, false);
        let mut kd = KdIndex::new(4);
        fill(&mut linear, &pts);
        fill(&mut simbr, &pts);
        fill(&mut simbr_conv, &pts);
        fill(&mut kd, &pts);
        let mut ops = OpCount::default();
        for q in seeded_points(20, 4).iter().map(|p| {
            let mut q = *p;
            q.as_mut_slice()[0] += 0.37;
            q
        }) {
            let want = linear.nearest(&q, &mut ops).unwrap().1;
            for idx in [
                &simbr as &dyn NeighborIndex,
                &simbr_conv as &dyn NeighborIndex,
                &kd as &dyn NeighborIndex,
            ] {
                let got = idx.nearest(&q, &mut ops).unwrap().1;
                assert!((got - want).abs() < 1e-9, "{} wrong nearest", idx.name());
            }
        }
    }

    #[test]
    fn exact_neighborhoods_agree() {
        let pts = seeded_points(100, 3);
        let mut linear = LinearIndex::new();
        let mut simbr = SimbrIndex::new(3, false, false);
        let mut kd = KdIndex::new(3);
        fill(&mut linear, &pts);
        fill(&mut simbr, &pts);
        fill(&mut kd, &pts);
        let mut ops = OpCount::default();
        let q = Config::new(&[10.0, 10.0, 10.0]);
        let mut want: Vec<u64> = linear
            .neighborhood(0, &q, 6.0, &mut ops)
            .iter()
            .map(|(i, _)| *i)
            .collect();
        want.sort_unstable();
        for idx in [&simbr as &dyn NeighborIndex, &kd as &dyn NeighborIndex] {
            let mut got: Vec<u64> = idx
                .neighborhood(0, &q, 6.0, &mut ops)
                .iter()
                .map(|(i, _)| *i)
                .collect();
            got.sort_unstable();
            assert_eq!(got, want, "{} wrong neighborhood", idx.name());
        }
    }

    #[test]
    fn sias_neighborhood_contains_anchor_and_is_cheap() {
        let pts = seeded_points(200, 5);
        let mut simbr = SimbrIndex::moped(5);
        fill(&mut simbr, &pts);
        let mut cheap = OpCount::default();
        let q = pts[42];
        let group = simbr.neighborhood(42, &q, 5.0, &mut cheap);
        assert!(group.iter().any(|(id, _)| *id == 42));
        let mut exact_ops = OpCount::default();
        let mut exact_idx = SimbrIndex::new(5, false, false);
        fill(&mut exact_idx, &pts);
        let _ = exact_idx.neighborhood(42, &q, 5.0, &mut exact_ops);
        assert!(
            cheap.mac_equiv() < exact_ops.mac_equiv(),
            "SIAS must beat exact range search: {} vs {}",
            cheap.mac_equiv(),
            exact_ops.mac_equiv()
        );
    }

    #[test]
    fn simbr_search_stats_accumulate() {
        let pts = seeded_points(120, 3);
        let mut simbr = SimbrIndex::moped(3);
        fill(&mut simbr, &pts);
        assert!(simbr.search_stats().nodes_visited > 0);
    }

    #[test]
    fn backend_names() {
        assert_eq!(LinearIndex::new().name(), "linear");
        assert_eq!(SimbrIndex::moped(3).name(), "si-mbr+sias+lci");
        assert_eq!(SimbrIndex::new(3, false, false).name(), "si-mbr");
        assert_eq!(KdIndex::new(3).name(), "kd-tree");
    }

    #[test]
    fn fresh_preserves_configuration_and_starts_empty() {
        let pts = seeded_points(40, 4);
        let mut simbr = SimbrIndex::new(4, true, false);
        let mut kd = KdIndex::new(4);
        fill(&mut simbr, &pts);
        fill(&mut kd, &pts);
        let f = simbr.fresh();
        assert!(f.is_empty());
        assert_eq!(f.name(), simbr.name());
        assert_eq!(f.tree().dim(), 4);
        assert_eq!(f.tree().max_entries(), SIMBR_NODE_CAPACITY);
        assert!(kd.fresh().is_empty());
        assert_eq!(kd.fresh().tree().dim(), 4);
        assert!(LinearIndex::new().fresh().is_empty());
    }

    #[test]
    fn any_index_matches_wrapped_backend() {
        let pts = seeded_points(90, 4);
        for backend in NnBackend::ALL {
            let mut any = backend.build(4, false, false);
            let mut linear = LinearIndex::new();
            fill(&mut any, &pts);
            fill(&mut linear, &pts);
            assert_eq!(any.backend(), backend);
            assert_eq!(any.len(), linear.len());
            let mut ops = OpCount::default();
            let q = Config::new(&[7.0, 3.0, 11.0, 5.0]);
            let want = linear.nearest(&q, &mut ops).unwrap().1;
            let got = any.nearest(&q, &mut ops).unwrap().1;
            assert!((got - want).abs() < 1e-9, "{} wrong nearest", any.name());
            let f = any.fresh();
            assert!(f.is_empty());
            assert_eq!(f.backend(), backend);
        }
    }

    #[test]
    fn nn_backend_name_round_trip() {
        for backend in NnBackend::ALL {
            assert_eq!(NnBackend::parse(backend.name()), Some(backend));
        }
        assert_eq!(NnBackend::parse("bogus"), None);
        assert_eq!(
            NnBackend::SiMbr.build(3, true, true).name(),
            "si-mbr+sias+lci"
        );
    }

    #[test]
    fn empty_index_nearest_is_none() {
        let mut ops = OpCount::default();
        assert!(LinearIndex::new()
            .nearest(&Config::zeros(2), &mut ops)
            .is_none());
        assert!(SimbrIndex::moped(2)
            .nearest(&Config::zeros(2), &mut ops)
            .is_none());
        assert!(KdIndex::new(2)
            .nearest(&Config::zeros(2), &mut ops)
            .is_none());
    }
}
