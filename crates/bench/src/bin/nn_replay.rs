//! Neighbor-index kernel replay: prices `insert`, `nearest` and
//! `neighborhood` alone, per backend, on the call stream of real plans.
//!
//! The drone-sparse plans (drone_3d among 8 obstacles, scene seeds 1–4,
//! RRT\* at 5 000 samples over the full MOPED stack) run once with a
//! recording index that logs every `NeighborIndex` call and each
//! `nearest` answer. The log is then replayed, with nothing else in the
//! loop, into a fresh SI-MBR V4 index (SIAS + LCI), an exact SI-MBR index
//! (range search + conventional insert), a kd-tree and a linear scan.
//! Each call is timed on its own; `nearest` is also priced per node
//! visit (tree nodes visited for SI-MBR, nodes touched for the kd-tree,
//! points scanned for the linear scan). A per-call clock-read pair costs
//! about as much as a non-splitting insert, so inserts are also timed in
//! a batch: each plan's insert stream alone into a fresh index, with one
//! clock read around the whole stream (`ins_ms/plan`). The binary prints
//! what one clock-read pair costs on the host.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p moped-bench --bin nn_replay -- [--smoke]
//! ```
//!
//! Every backend answers `nearest` exactly, and all four compute the
//! squared distance axis by axis in the same order, so each replayed
//! `nearest` distance must equal the recorded one to the bit. The
//! planner's tree also depends on *which* entry wins, so the two SI-MBR
//! backends must return the recorded id as well (the kd-tree and the
//! linear scan may break an exact tie differently and are checked on
//! distance only). The replayed SI-MBR V4 inserts must also charge each
//! plan's recorded insert `OpCount` exactly, so the timed insert stream
//! is the plan's own: a dropped call or anchor, or an insert that
//! depends on anything but the call stream, fails here. (Kernel changes
//! that move the ledger are caught by the insert pins in the tests.)
//! The exact SI-MBR backend's range search and the linear scan both keep
//! the entries with squared distance `<= r²`, summed axis by axis, so on
//! every replayed `neighborhood` call their id sets must be equal; the
//! sets are compared outside the timed region.
//! The binary exits non-zero on any mismatch. A full run keeps the fastest of 3
//! replays per backend; `--smoke` replays one scene at 1 500 samples
//! once (the `scripts/verify.sh` step).

use std::cell::RefCell;
use std::time::Instant;

use moped_collision::TwoStageChecker;
use moped_core::{
    KdIndex, LinearIndex, NeighborIndex, PlannerParams, PlannerProfile, RrtStar, SimbrIndex,
};
use moped_env::{Scenario, ScenarioParams};
use moped_geometry::{Config, OpCount};
use moped_kdtree::KdSearchStats;
use moped_robot::Robot;

/// One recorded `NeighborIndex` call.
#[derive(Clone, Copy)]
enum Call {
    Insert {
        id: u64,
        q: Config,
        hint: Option<u64>,
    },
    Nearest {
        q: Config,
        found: Option<(u64, f64)>,
    },
    Neighborhood {
        anchor: u64,
        q: Config,
        radius: f64,
    },
}

/// Delegates to `inner` and appends every call to `log`.
struct Recording<'a, N> {
    inner: N,
    log: &'a RefCell<Vec<Call>>,
}

impl<N: NeighborIndex> NeighborIndex for Recording<'_, N> {
    fn insert(&mut self, id: u64, q: Config, hint: Option<u64>, ops: &mut OpCount) {
        self.log.borrow_mut().push(Call::Insert { id, q, hint });
        self.inner.insert(id, q, hint, ops);
    }

    fn nearest(&self, q: &Config, ops: &mut OpCount) -> Option<(u64, f64)> {
        let found = self.inner.nearest(q, ops);
        self.log.borrow_mut().push(Call::Nearest { q: *q, found });
        found
    }

    fn neighborhood(
        &self,
        anchor: u64,
        q: &Config,
        radius: f64,
        ops: &mut OpCount,
    ) -> Vec<(u64, Config)> {
        self.log.borrow_mut().push(Call::Neighborhood {
            anchor,
            q: *q,
            radius,
        });
        self.inner.neighborhood(anchor, q, radius, ops)
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn fresh(&self) -> Self {
        Recording {
            inner: self.inner.fresh(),
            log: self.log,
        }
    }
}

/// Plans drone-sparse scene `scene_seed` and returns its index call log
/// and the insert ledger the plan charged.
fn record(scene_seed: u64, samples: usize, seed: u64) -> (Vec<Call>, OpCount) {
    let scenario = Scenario::generate(
        Robot::drone_3d(),
        &ScenarioParams::with_obstacles(8),
        scene_seed,
    );
    let checker = TwoStageChecker::moped(scenario.obstacles.clone());
    let profile = PlannerProfile::static_default();
    let params = PlannerParams {
        max_samples: samples,
        seed,
        ..PlannerParams::default()
    };
    let log = RefCell::new(Vec::new());
    let index = Recording {
        inner: profile.build_index(scenario.robot.dof()),
        log: &log,
    };
    let result = RrtStar::new(&scenario, &checker, index, params)
        .with_engine(profile.engine)
        .plan();
    (log.into_inner(), result.stats.insert_ops)
}

/// Per-call wall times of one operation kind.
#[derive(Default)]
struct Timings {
    ns: Vec<u64>,
}

impl Timings {
    fn total(&self) -> u64 {
        self.ns.iter().sum()
    }

    fn mean(&self) -> f64 {
        self.total() as f64 / self.ns.len().max(1) as f64
    }

    fn p50(&mut self) -> u64 {
        self.ns.sort_unstable();
        self.ns.get(self.ns.len() / 2).copied().unwrap_or(0)
    }
}

/// What one replay of one backend measured.
#[derive(Default)]
struct Replay {
    insert: Timings,
    nearest: Timings,
    neighborhood: Timings,
    visits: u64,
    mismatches: u64,
    id_mismatches: u64,
    /// Each `neighborhood` answer's ids, sorted, in call order.
    neighborhoods: Vec<Vec<u64>>,
}

impl Replay {
    fn total_ns(&self) -> u64 {
        self.insert.total() + self.nearest.total() + self.neighborhood.total()
    }
}

/// Counts one `nearest` query's node visits; called untimed right after
/// the query, and made anew for each fresh index.
type VisitCounter<N> = Box<dyn FnMut(&N, &Config) -> u64>;

/// Replays every log into a fresh copy of `empty`.
fn replay<N: NeighborIndex>(
    empty: &N,
    logs: &[Vec<Call>],
    counter: &dyn Fn() -> VisitCounter<N>,
) -> Replay {
    let mut out = Replay::default();
    let mut ops = OpCount::default();
    for log in logs {
        let mut index = empty.fresh();
        let mut visits = counter();
        for call in log {
            let start = Instant::now();
            match *call {
                Call::Insert { id, q, hint } => {
                    index.insert(id, q, hint, &mut ops);
                    out.insert.ns.push(start.elapsed().as_nanos() as u64);
                }
                Call::Nearest { q, found } => {
                    let got = index.nearest(&q, &mut ops);
                    out.nearest.ns.push(start.elapsed().as_nanos() as u64);
                    out.visits += visits(&index, &q);
                    let bits = |r: Option<(u64, f64)>| r.map(|(_, d)| d.to_bits());
                    if bits(got) != bits(found) {
                        out.mismatches += 1;
                    }
                    if got.map(|(id, _)| id) != found.map(|(id, _)| id) {
                        out.id_mismatches += 1;
                    }
                }
                Call::Neighborhood { anchor, q, radius } => {
                    let group = index.neighborhood(anchor, &q, radius, &mut ops);
                    out.neighborhood.ns.push(start.elapsed().as_nanos() as u64);
                    let mut ids: Vec<u64> = group.iter().map(|&(id, _)| id).collect();
                    ids.sort_unstable();
                    out.neighborhoods.push(ids);
                }
            }
        }
    }
    out
}

/// Replays only the inserts of each log into a fresh copy of `empty`,
/// `reps` times, with one clock read around each plan's whole stream.
/// Returns the fastest rep's ms per plan and each plan's insert ledger.
fn insert_batch<N: NeighborIndex>(
    reps: usize,
    empty: &N,
    logs: &[Vec<Call>],
) -> (f64, Vec<OpCount>) {
    let mut best_ns = u128::MAX;
    let mut ledgers = Vec::new();
    for _ in 0..reps {
        let mut ns = 0;
        ledgers.clear();
        for log in logs {
            let mut index = empty.fresh();
            let mut ops = OpCount::default();
            let start = Instant::now();
            for call in log {
                if let Call::Insert { id, q, hint } = *call {
                    index.insert(id, q, hint, &mut ops);
                }
            }
            ns += start.elapsed().as_nanos();
            std::hint::black_box(&index);
            ledgers.push(ops);
        }
        best_ns = best_ns.min(ns);
    }
    (best_ns as f64 / 1e6 / logs.len() as f64, ledgers)
}

/// Mean cost of one `Instant::now()` / `elapsed()` pair, the overhead
/// every per-call timing above carries.
fn clock_pair_ns() -> f64 {
    const PAIRS: u32 = 100_000;
    let start = Instant::now();
    for _ in 0..PAIRS {
        std::hint::black_box(Instant::now().elapsed());
    }
    start.elapsed().as_nanos() as f64 / f64::from(PAIRS)
}

/// Replays `reps` times and keeps the fastest run: the others differ
/// only by scheduler noise.
fn best_of<N: NeighborIndex>(
    reps: usize,
    empty: &N,
    logs: &[Vec<Call>],
    counter: &dyn Fn() -> VisitCounter<N>,
) -> Replay {
    (0..reps)
        .map(|_| replay(empty, logs, counter))
        .min_by_key(Replay::total_ns)
        .expect("at least one rep")
}

fn print_row(backend: &str, r: &mut Replay, insert_ms: f64) {
    let (calls, ns) = (r.nearest.ns.len() as f64, r.nearest.total() as f64);
    println!(
        "{backend:<16} {:>9.0} {:>8} {:>11.3} {:>9.0} {:>8} {:>9.0} {:>8} {:>8.1} {:>8.1} {:>10} {:>8}",
        r.insert.mean(),
        r.insert.p50(),
        insert_ms,
        r.nearest.mean(),
        r.nearest.p50(),
        r.neighborhood.mean(),
        r.neighborhood.p50(),
        r.visits as f64 / calls.max(1.0),
        ns / (r.visits as f64).max(1.0),
        r.mismatches,
        r.id_mismatches,
    );
}

/// Planner seed of every recorded plan.
const PLANNER_SEED: u64 = 7;

fn main() {
    let smoke = std::env::args().skip(1).any(|a| a == "--smoke");
    let (scene_seeds, samples, reps) = if smoke {
        (1..=1, 1_500, 1)
    } else {
        (1..=4, 5_000, 3)
    };
    let seed = PLANNER_SEED;

    let (logs, insert_ops): (Vec<Vec<Call>>, Vec<OpCount>) = scene_seeds
        .clone()
        .map(|s| record(s, samples, seed))
        .unzip();
    let count =
        |pred: fn(&Call) -> bool| -> usize { logs.iter().flatten().filter(|c| pred(c)).count() };
    println!(
        "nn_replay: drone_3d/o8 scenes {scene_seeds:?}, {samples} samples, planner seed {seed}, \
         best of {reps}: {} inserts, {} nearest, {} neighborhoods",
        count(|c| matches!(c, Call::Insert { .. })),
        count(|c| matches!(c, Call::Nearest { .. })),
        count(|c| matches!(c, Call::Neighborhood { .. })),
    );
    println!(
        "nn_replay: one clock-read pair costs {:.0} ns",
        clock_pair_ns()
    );
    println!(
        "{:<16} {:>9} {:>8} {:>11} {:>9} {:>8} {:>9} {:>8} {:>8} {:>8} {:>10} {:>8}",
        "backend",
        "ins_mean",
        "ins_p50",
        "ins_ms/plan",
        "nn_mean",
        "nn_p50",
        "nbh_mean",
        "nbh_p50",
        "visits",
        "ns/visit",
        "mismatches",
        "id_diffs"
    );
    let dim = Robot::drone_3d().dof();
    // SI-MBR accumulates its visits; the counter reports the growth.
    let simbr_visits = || -> VisitCounter<SimbrIndex> {
        let mut seen = 0;
        Box::new(move |index: &SimbrIndex, _: &Config| {
            let total = index.search_stats().nodes_visited;
            let visits = total - seen;
            seen = total;
            visits
        })
    };
    let v4 = SimbrIndex::moped(dim);
    let exact = SimbrIndex::new(dim, false, false);
    let (v4_insert_ms, v4_ledgers) = insert_batch(reps, &v4, &logs);
    let mut rows = vec![
        (
            "si-mbr-v4",
            best_of(reps, &v4, &logs, &simbr_visits),
            v4_insert_ms,
        ),
        (
            "si-mbr-exact",
            best_of(reps, &exact, &logs, &simbr_visits),
            insert_batch(reps, &exact, &logs).0,
        ),
        (
            "kd-tree",
            best_of(reps, &KdIndex::new(dim), &logs, &|| {
                Box::new(|index: &KdIndex, q: &Config| {
                    let mut stats = KdSearchStats::default();
                    index
                        .tree()
                        .nearest_with_stats(q, &mut OpCount::default(), &mut stats);
                    stats.nodes_visited
                })
            }),
            insert_batch(reps, &KdIndex::new(dim), &logs).0,
        ),
        (
            "linear",
            best_of(reps, &LinearIndex::new(), &logs, &|| {
                Box::new(|index: &LinearIndex, _: &Config| index.len() as u64)
            }),
            insert_batch(reps, &LinearIndex::new(), &logs).0,
        ),
    ];
    let (mut mismatches, mut id_mismatches) = (0, 0);
    for (backend, r, insert_ms) in &mut rows {
        print_row(backend, r, *insert_ms);
        mismatches += r.mismatches;
        if backend.starts_with("si-mbr") {
            id_mismatches += r.id_mismatches;
        }
    }
    let sets = |backend: &str| {
        let row = rows.iter().find(|(b, ..)| *b == backend);
        &row.expect("backend replayed").1.neighborhoods
    };
    let set_mismatches = sets("si-mbr-exact")
        .iter()
        .zip(sets("linear"))
        .filter(|(exact, linear)| exact != linear)
        .count();
    let ledger_mismatches = insert_ops
        .iter()
        .zip(&v4_ledgers)
        .filter(|(recorded, replayed)| recorded != replayed)
        .count();
    println!(
        "nn_replay: ns per call (mean, p50), batch-timed ms of inserts per plan; \
         {mismatches} nearest-distance mismatches, {id_mismatches} SI-MBR nearest-id mismatches, \
         {ledger_mismatches} SI-MBR V4 insert-ledger mismatches, \
         {set_mismatches} SI-MBR exact neighborhood-set mismatches"
    );
    if mismatches > 0 {
        eprintln!("nn_replay: FAIL — a backend's nearest distance differs from the recorded one");
        std::process::exit(1);
    }
    if id_mismatches > 0 {
        eprintln!("nn_replay: FAIL — an SI-MBR backend's nearest id differs from the recorded one");
        std::process::exit(1);
    }
    if ledger_mismatches > 0 {
        eprintln!(
            "nn_replay: FAIL — the SI-MBR V4 replay's insert OpCount differs from a recorded plan's"
        );
        std::process::exit(1);
    }
    if set_mismatches > 0 {
        eprintln!("nn_replay: FAIL — the exact SI-MBR neighborhood differs from the linear scan's");
        std::process::exit(1);
    }
}
