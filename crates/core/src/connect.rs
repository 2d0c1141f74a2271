//! The bidirectional and multi-tree connect engines.
//!
//! Both engines grow a *forest* inside the [`RrtStar`] node arena: tree 0
//! is rooted at the start (node 0), tree 1 at the goal (node 1), and the
//! multi-tree variant adds local trees seeded in narrow free-space
//! regions. Every round extends one tree toward a fresh sample in
//! deterministic round-robin order, then greedily connects the closest
//! *other* component toward the new node, step by step, until it either
//! reaches it or collides (RRT-Connect's CONNECT primitive). A successful
//! connect bridges the two trees with a zero-length link; the run ends as
//! soon as the start and goal components are bridged — connect engines
//! are feasibility-first and return the first path found.
//!
//! Everything downstream of sampling is a pure function of the scenario
//! and parameters, so the engines inherit the RRT\* determinism contract:
//! same seed → same forest, and a recorded journal replays bit-exactly
//! (local-tree seeding uses its own seed-derived RNG, not the sample
//! stream, so replay reproduces it from `PlannerParams::seed` alone).

use moped_geometry::{Config, OpCount};
use moped_obs::Stage;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::planner::{PlanResult, PlanStats, RoundTrace, RrtStar};
use crate::NeighborIndex;

/// Maximum local trees the multi-tree engine seeds.
const MAX_LOCAL_TREES: usize = 4;
/// Sampling attempts spent looking for narrow-region seeds.
const SEED_ATTEMPTS: usize = 128;
/// Axis probes that must be blocked for a free sample to count as
/// "narrow" (of `2 * dof` probes at steering-step distance).
const NARROW_BLOCKED_MIN: usize = 2;

/// Union-find over tree ids (plain vectors — `core` is under the
/// determinism lint, and the forest never exceeds a handful of trees).
struct Components {
    parent: Vec<usize>,
}

impl Components {
    fn new(n: usize) -> Self {
        Components {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            // Deterministic: the lower root absorbs the higher.
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi] = lo;
        }
    }
}

/// Runs RRT-Connect (`multi_tree == false`: two trees) or the multi-tree
/// guided variant (`multi_tree == true`: plus narrow-region local trees)
/// over the planner's arena and backends.
pub(crate) fn plan_connect<N: NeighborIndex>(
    planner: &mut RrtStar<'_, N>,
    multi_tree: bool,
) -> PlanResult {
    let mut stats = PlanStats::default();
    let (mut rng, budget) = planner.begin_run();

    // --- Forest roots -------------------------------------------------
    // Node 0 / tree 0: start. Node 1 / tree 1: goal. Local trees follow.
    let mut roots = vec![planner.scenario.start, planner.scenario.goal];
    if multi_tree {
        roots.extend(seed_narrow_roots(planner, &mut stats));
    }
    for q in &roots {
        planner.plant_root(*q, &mut stats);
    }
    let num_trees = roots.len();
    let mut comps = Components::new(num_trees);
    // Zero-length links between nodes of equal configuration in
    // different trees; they only ever join distinct components, so tree
    // edges plus bridges stay a forest and the start→goal path is unique.
    let mut bridges: Vec<(usize, usize)> = Vec::new();
    let mut solution: Option<usize> = None; // bridge that closed start↔goal

    'rounds: for round in 0..budget {
        if planner.stop_requested(round) {
            stats.stopped_early = true;
            break;
        }
        stats.samples += 1;
        let mut trace = RoundTrace::default();
        let ns_mark = stats.ns_ops;
        let cc_mark = planner.ledger_macs(&stats);
        let ins_mark = stats.insert_ops;
        let _round_span = moped_obs::span(Stage::Round);
        // No goal bias: the goal is a tree root.
        let x_rand = planner.draw_sample(&mut rng, false);

        // --- EXTEND: deterministic round-robin over the trees ---------
        let t = round % num_trees;
        let near = {
            let _s = moped_obs::span(Stage::Nearest);
            planner.trees[t]
                .nearest(&x_rand, &mut stats.ns_ops)
                .expect("every tree holds at least its root")
                .0 as usize
        };
        let Some(x_new) = planner.extend(near, &x_rand, &mut stats) else {
            finish_trace(planner, &mut stats, trace, ns_mark, cc_mark, ins_mark);
            continue;
        };
        let new_idx = grow(planner, &mut stats, t, near, x_new);
        trace.accepted = true;

        // --- CONNECT: greedy walk from the closest other component ----
        // Target: the tree (outside x_new's component) whose nearest node
        // is closest to x_new; ties break toward the lowest tree id.
        let mut target: Option<(f64, usize, usize)> = None; // (dist, tree, node)
        for (u, index) in planner.trees.iter().enumerate() {
            if comps.find(u) == comps.find(t) {
                continue;
            }
            let _s = moped_obs::span(Stage::Nearest);
            if let Some((id, d)) = index.nearest(&x_new, &mut stats.ns_ops) {
                stats.other_ops.cmp += 1;
                if target.is_none_or(|(bd, _, _)| d < bd) {
                    target = Some((d, u, id as usize));
                }
            }
        }
        if let Some((_, u, entry)) = target {
            let mut cur = entry;
            let reached = loop {
                if planner.nodes[cur].q == x_new {
                    break true;
                }
                match planner.step_toward(cur, &x_new, &mut stats) {
                    Ok(q_next) => cur = grow(planner, &mut stats, u, cur, q_next),
                    Err(_) => break false, // trapped
                }
            };
            if reached {
                // The walk ended on x_new: zero-length bridge between the
                // trees.
                bridges.push((new_idx, cur));
                if let Some(j) = &mut planner.journal {
                    j.record_link(new_idx as u64, cur as u64);
                }
                comps.union(t, u);
                if comps.find(0) == comps.find(1) {
                    solution = Some(bridges.len() - 1);
                    finish_trace(planner, &mut stats, trace, ns_mark, cc_mark, ins_mark);
                    break 'rounds;
                }
            }
        }
        finish_trace(planner, &mut stats, trace, ns_mark, cc_mark, ins_mark);
    }

    // --- Path extraction ----------------------------------------------
    let (path, path_cost) = match solution {
        None => (None, f64::INFINITY),
        Some(closing) => {
            let path = extract_path(planner, &bridges);
            let total: f64 = path.windows(2).map(|w| w[0].distance(&w[1])).sum();
            planner.record_goal(&mut stats, bridges[closing].0, total);
            (Some(path), total)
        }
    };

    stats.nodes = planner.nodes.len();
    PlanResult {
        path,
        path_cost,
        stats,
    }
}

/// Attaches `q` to `tree` under `parent` at its root-relative cost;
/// returns the arena id.
fn grow<N: NeighborIndex>(
    planner: &mut RrtStar<'_, N>,
    stats: &mut PlanStats,
    tree: usize,
    parent: usize,
    q: Config,
) -> usize {
    let from = &planner.nodes[parent];
    let cost = from.cost + from.q.distance_counted(&q, &mut stats.other_ops);
    planner.attach(tree, parent, q, cost, parent, stats)
}

/// Closes out a round's trace if tracing is on.
fn finish_trace<N: NeighborIndex>(
    planner: &RrtStar<'_, N>,
    stats: &mut PlanStats,
    mut trace: RoundTrace,
    ns_mark: OpCount,
    cc_mark: u64,
    ins_mark: OpCount,
) {
    if planner.params.trace_rounds {
        trace.ns_macs = (stats.ns_ops - ns_mark).mac_equiv();
        trace.cc_macs = planner.ledger_macs(stats) - cc_mark;
        trace.insert_macs = (stats.insert_ops - ins_mark).mac_equiv();
        stats.rounds.push(trace);
    }
}

/// Walks the unique node-0 → node-1 path through tree edges and bridge
/// edges, returning its configurations with zero-length bridge
/// duplicates collapsed.
fn extract_path<N: NeighborIndex>(
    planner: &RrtStar<'_, N>,
    bridges: &[(usize, usize)],
) -> Vec<Config> {
    let n = planner.nodes.len();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, node) in planner.nodes.iter().enumerate() {
        if let Some(p) = node.parent {
            adj[i].push(p);
            adj[p].push(i);
        }
    }
    for &(a, b) in bridges {
        adj[a].push(b);
        adj[b].push(a);
    }
    // BFS start → goal (deterministic: adjacency in construction order).
    let mut prev: Vec<Option<usize>> = vec![None; n];
    let mut seen = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    seen[0] = true;
    queue.push_back(0usize);
    while let Some(i) = queue.pop_front() {
        if i == 1 {
            break;
        }
        for &j in &adj[i] {
            if !seen[j] {
                seen[j] = true;
                prev[j] = Some(i);
                queue.push_back(j);
            }
        }
    }
    debug_assert!(seen[1], "extract_path called on a disconnected forest");
    let mut rev = vec![1usize];
    while let Some(p) = prev[*rev.last().expect("non-empty")] {
        rev.push(p);
    }
    rev.reverse();
    let mut path: Vec<Config> = Vec::with_capacity(rev.len());
    for i in rev {
        let q = planner.nodes[i].q;
        if path.last() != Some(&q) {
            path.push(q);
        }
    }
    path
}

/// Finds up to [`MAX_LOCAL_TREES`] collision-free configurations in
/// narrow regions (≥ [`NARROW_BLOCKED_MIN`] of the `2·dof` axis probes at
/// steering-step distance are blocked by obstacles), using a seed-derived
/// RNG that is independent of the sample stream so journal replay
/// re-derives the same roots from `PlannerParams::seed`.
fn seed_narrow_roots<N: NeighborIndex>(
    planner: &RrtStar<'_, N>,
    stats: &mut PlanStats,
) -> Vec<Config> {
    let mut rng = StdRng::seed_from_u64(planner.params.seed ^ 0x9E37_79B9_7F4A_7C15);
    let robot = &planner.scenario.robot;
    let dim = robot.dof();
    let step = planner.step;
    let mut roots: Vec<Config> = Vec::new();
    for _ in 0..SEED_ATTEMPTS {
        if roots.len() >= MAX_LOCAL_TREES {
            break;
        }
        let q = planner.scenario.sample_any(&mut rng);
        if !planner.checker.config_free(robot, &q, &mut stats.collision) {
            continue;
        }
        // Keep seeds away from the fixed roots and each other so each
        // local tree explores distinct territory.
        let mut far = q.distance_counted(&planner.scenario.start, &mut stats.other_ops)
            > 2.0 * step
            && q.distance_counted(&planner.scenario.goal, &mut stats.other_ops) > 2.0 * step;
        for r in &roots {
            far = far && q.distance_counted(r, &mut stats.other_ops) > 2.0 * step;
        }
        stats.other_ops.cmp += 2 + roots.len() as u64;
        if !far {
            continue;
        }
        let mut blocked = 0usize;
        for d in 0..dim {
            for sgn in [-1.0, 1.0] {
                let mut p = q;
                p.as_mut_slice()[d] += sgn * step;
                stats.other_ops.add += 1;
                if robot.in_bounds(&p)
                    && !planner.checker.config_free(robot, &p, &mut stats.collision)
                {
                    blocked += 1;
                }
            }
        }
        if blocked >= NARROW_BLOCKED_MIN {
            roots.push(q);
        }
    }
    roots
}

#[cfg(test)]
mod tests {
    use crate::{Engine, PlannerParams, RrtStar, SimbrIndex};
    use moped_collision::TwoStageChecker;
    use moped_env::{Scenario, ScenarioParams};
    use moped_obs::Journal;
    use moped_robot::Robot;

    fn params(samples: usize, seed: u64) -> PlannerParams {
        PlannerParams {
            max_samples: samples,
            seed,
            ..PlannerParams::default()
        }
    }

    fn open_scene(seed: u64) -> Scenario {
        Scenario::generate(Robot::mobile_2d(), &ScenarioParams::with_obstacles(8), seed)
    }

    #[test]
    fn rrt_connect_solves_open_world() {
        let s = open_scene(3);
        let checker = TwoStageChecker::moped(s.obstacles.clone());
        let mut planner = RrtStar::new(&s, &checker, SimbrIndex::moped(3), params(800, 5))
            .with_engine(Engine::RrtConnect);
        let r = planner.plan();
        assert!(r.solved(), "open world should be solvable bidirectionally");
        assert!(r.path_cost.is_finite());
        assert!(planner.check_tree_invariants().is_none());
        let path = r.path.as_ref().expect("solved");
        assert_eq!(path[0], s.start);
        assert_eq!(*path.last().expect("non-empty"), s.goal);
        let summed: f64 = path.windows(2).map(|w| w[0].distance(&w[1])).sum();
        assert!((summed - r.path_cost).abs() < 1e-9);
    }

    #[test]
    fn multi_tree_solves_open_world() {
        let s = open_scene(7);
        let checker = TwoStageChecker::moped(s.obstacles.clone());
        let mut planner = RrtStar::new(&s, &checker, SimbrIndex::moped(3), params(800, 2))
            .with_engine(Engine::MultiTree);
        let r = planner.plan();
        assert!(r.solved());
        let path = r.path.as_ref().expect("solved");
        assert_eq!(path[0], s.start);
        assert_eq!(*path.last().expect("non-empty"), s.goal);
        assert!(planner.check_tree_invariants().is_none());
    }

    #[test]
    fn connect_paths_are_collision_free() {
        let s = Scenario::generate(Robot::mobile_2d(), &ScenarioParams::with_obstacles(16), 11);
        let checker = TwoStageChecker::moped(s.obstacles.clone());
        for engine in [Engine::RrtConnect, Engine::MultiTree] {
            let mut planner = RrtStar::new(&s, &checker, SimbrIndex::moped(3), params(1200, 9))
                .with_engine(engine);
            let r = planner.plan();
            if let Some(path) = &r.path {
                for w in path.windows(2) {
                    for p in moped_geometry::interpolate(&w[0], &w[1], &planner.steps) {
                        assert!(
                            !s.config_collides(&p),
                            "{} path pose collides: {p:?}",
                            engine.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn connect_engines_are_deterministic() {
        let s = Scenario::generate(Robot::mobile_2d(), &ScenarioParams::with_obstacles(16), 8);
        let checker = TwoStageChecker::moped(s.obstacles.clone());
        for engine in [Engine::RrtConnect, Engine::MultiTree] {
            let run = |seed| {
                RrtStar::new(&s, &checker, SimbrIndex::moped(3), params(400, seed))
                    .with_engine(engine)
                    .plan()
            };
            let (a, b) = (run(17), run(17));
            assert_eq!(
                a.path_cost.to_bits(),
                b.path_cost.to_bits(),
                "{} cost must be bit-identical",
                engine.name()
            );
            assert_eq!(a.path, b.path, "{} path must be identical", engine.name());
            assert_eq!(a.stats.total_ops(), b.stats.total_ops());
        }
    }

    #[test]
    fn connect_engines_replay_bit_identically() {
        let s = Scenario::generate(Robot::mobile_2d(), &ScenarioParams::with_obstacles(16), 9);
        let checker = TwoStageChecker::moped(s.obstacles.clone());
        for engine in [Engine::RrtConnect, Engine::MultiTree] {
            let mut recorder = RrtStar::new(&s, &checker, SimbrIndex::moped(3), params(400, 23))
                .with_engine(engine)
                .with_journal_recording();
            let original = recorder.plan();
            let journal = recorder.take_journal().expect("journaling was enabled");
            assert_eq!(journal.rounds(), original.stats.samples);
            if original.solved() {
                assert!(
                    journal.links() > 0,
                    "{} must journal bridges",
                    engine.name()
                );
            }

            // Round-trip the wire format so hex-f64 parsing is covered.
            let journal = Journal::parse(&journal.serialize()).expect("wire round trip");
            let mut replayer = RrtStar::new(&s, &checker, SimbrIndex::moped(3), params(400, 23))
                .with_engine(engine)
                .with_replay(&journal);
            let replayed = replayer.plan();
            assert_eq!(
                original.path_cost.to_bits(),
                replayed.path_cost.to_bits(),
                "{} replay cost mismatch",
                engine.name()
            );
            assert_eq!(original.path, replayed.path);
            assert_eq!(original.stats.nodes, replayed.stats.nodes);
            assert_eq!(original.stats.samples, replayed.stats.samples);
            assert_eq!(original.stats.total_ops(), replayed.stats.total_ops());
            assert!(replayer.check_tree_invariants().is_none());
        }
    }

    #[test]
    fn connect_stop_hook_truncates_run() {
        // A nearly-sealed passage keeps the trees apart long enough for
        // the hook to fire; the contract is the flag plus a sound forest.
        let s = Scenario::narrow_passage(Robot::mobile_2d(), 2.0, 0.0);
        let checker = TwoStageChecker::moped(s.obstacles.clone());
        let mut planner = RrtStar::new(&s, &checker, SimbrIndex::moped(3), params(10_000, 5))
            .with_engine(Engine::RrtConnect)
            .with_stop_hook(1, || true);
        let r = planner.plan();
        assert!(r.stats.stopped_early);
        assert_eq!(r.stats.samples, 1);
        assert!(planner.check_tree_invariants().is_none());
    }

    #[test]
    fn rrt_connect_beats_rrt_star_on_tilted_narrow_passage() {
        // The acceptance gate in miniature: at an equal sample budget the
        // bidirectional engine must solve tilted narrow passages at least
        // as often as single-tree RRT*.
        let robot = Robot::drone_3d();
        let mut star = 0u32;
        let mut connect = 0u32;
        for seed in 0u64..6 {
            let s = Scenario::narrow_passage(robot.clone(), 24.0, 0.5);
            let p = params(700, 40 + seed);
            let checker = TwoStageChecker::moped(s.obstacles.clone());
            let dim = robot.dof();
            if RrtStar::new(&s, &checker, SimbrIndex::moped(dim), p.clone())
                .plan()
                .solved()
            {
                star += 1;
            }
            if RrtStar::new(&s, &checker, SimbrIndex::moped(dim), p)
                .with_engine(Engine::RrtConnect)
                .plan()
                .solved()
            {
                connect += 1;
            }
        }
        assert!(
            connect >= star,
            "RRT-Connect should solve narrow passages at least as often: {connect} vs {star}"
        );
    }

    #[test]
    fn multi_tree_forest_costs_are_root_relative() {
        let s = Scenario::generate(Robot::mobile_2d(), &ScenarioParams::with_obstacles(24), 19);
        let checker = TwoStageChecker::moped(s.obstacles.clone());
        let mut planner = RrtStar::new(&s, &checker, SimbrIndex::moped(3), params(300, 31))
            .with_engine(Engine::MultiTree);
        let _ = planner.plan();
        let snapshot = planner.tree_snapshot();
        // Node 0 (start) and node 1 (goal) are always parentless roots.
        assert!(snapshot[0].1.is_none() && snapshot[0].2 == 0.0);
        assert!(snapshot[1].1.is_none() && snapshot[1].2 == 0.0);
        assert!(planner.check_tree_invariants().is_none());
    }
}
