//! The bidirectional RRT-Connect engine.
//!
//! The engine grows two trees inside the [`RrtStar`] node arena: tree 0
//! is rooted at the start (node 0), tree 1 at the goal (node 1). Rounds
//! alternate between the trees: each extends one tree toward a fresh
//! sample, then greedily connects the other tree toward the new node,
//! step by step, until it either reaches it or collides (RRT-Connect's
//! CONNECT primitive). A connect that reaches the new node bridges the
//! two trees with a zero-length link and ends the run — the engine is
//! feasibility-first and returns the first path found.
//!
//! Everything downstream of sampling is a pure function of the scenario
//! and parameters, so the engine inherits the RRT\* determinism contract:
//! same seed → same trees, and a recorded journal replays bit-exactly.

use moped_geometry::{Config, OpCount};

use crate::planner::{PlanResult, PlanStats, RoundTrace, RrtStar};
use crate::NeighborIndex;

/// Runs RRT-Connect over the planner's arena and backends.
pub(crate) fn plan_connect<N: NeighborIndex>(planner: &mut RrtStar<'_, N>) -> PlanResult {
    let mut stats = PlanStats::default();
    let (mut rng, budget) = planner.begin_run();

    // Node 0 / tree 0: start. Node 1 / tree 1: goal.
    planner.plant_root(planner.scenario.start, &mut stats);
    planner.plant_root(planner.scenario.goal, &mut stats);
    // The zero-length link that closed start↔goal: `(extended tree, its
    // new node, the other tree's node)`.
    let mut bridge: Option<(usize, usize, usize)> = None;

    for round in 0..budget {
        if planner.stop_requested(round) {
            stats.stopped_early = true;
            break;
        }
        stats.samples += 1;
        let mut trace = RoundTrace::default();
        let ns_mark = stats.ns_ops;
        let cc_mark = planner.ledger_macs(&stats);
        let ins_mark = stats.insert_ops;
        // No goal bias: the goal is a tree root.
        let x_rand = planner.draw_sample(&mut rng, false);

        // --- EXTEND: the trees take turns ------------------------------
        let t = round % 2;
        let near = planner.trees[t]
            .nearest(&x_rand, &mut stats.ns_ops)
            .expect("every tree holds at least its root")
            .0 as usize;
        let Some(x_new) = planner.extend(near, &x_rand, &mut stats) else {
            finish_trace(planner, &mut stats, trace, ns_mark, cc_mark, ins_mark);
            continue;
        };
        let new_idx = grow(planner, &mut stats, t, near, x_new);
        trace.accepted = true;

        // --- CONNECT: greedy walk from the other tree ------------------
        let u = 1 - t;
        let mut cur = planner.trees[u]
            .nearest(&x_new, &mut stats.ns_ops)
            .expect("every tree holds at least its root")
            .0 as usize;
        // The target-tree comparison; pinned op ledgers include it.
        stats.other_ops.cmp += 1;
        // A short steering step makes the walk arbitrarily long, so it
        // polls the stop hook at the round cadence, counted in steps.
        let mut walked = 0;
        let reached = loop {
            if planner.nodes[cur].q == x_new {
                break true;
            }
            match planner.step_toward(cur, &x_new, &mut stats) {
                Ok(q_next) => cur = grow(planner, &mut stats, u, cur, q_next),
                Err(_) => break false, // trapped
            }
            walked += 1;
            if planner.stop_requested(walked) {
                stats.stopped_early = true;
                break false;
            }
        };
        finish_trace(planner, &mut stats, trace, ns_mark, cc_mark, ins_mark);
        if stats.stopped_early {
            break;
        }
        if reached {
            // The walk ended on x_new: zero-length bridge between the
            // trees.
            if let Some(j) = &mut planner.journal {
                j.record_link(new_idx as u64, cur as u64);
            }
            bridge = Some((t, new_idx, cur));
            break;
        }
    }

    // --- Path extraction ----------------------------------------------
    let (path, path_cost) = match bridge {
        None => (None, f64::INFINITY),
        Some((t, new_idx, cur)) => {
            let (a, b) = if t == 0 {
                (new_idx, cur)
            } else {
                (cur, new_idx)
            };
            let path = extract_path(planner, a, b);
            let total: f64 = path.windows(2).map(|w| w[0].distance(&w[1])).sum();
            planner.record_goal(&mut stats, new_idx, total);
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

/// The start → goal path through the bridge `a`–`b` (`a` in the start
/// tree, `b` in the goal tree): `a`'s walk up to the start reversed, then
/// `b`'s walk up to the goal, with consecutive duplicate configurations
/// (the zero-length bridge) collapsed.
fn extract_path<N: NeighborIndex>(planner: &RrtStar<'_, N>, a: usize, b: usize) -> Vec<Config> {
    let up = |from: usize| std::iter::successors(Some(from), |&i| planner.nodes[i].parent);
    let mut ids: Vec<usize> = up(a).collect();
    ids.reverse();
    let mut path: Vec<Config> = Vec::with_capacity(ids.len());
    for i in ids.into_iter().chain(up(b)) {
        let q = planner.nodes[i].q;
        if path.last() != Some(&q) {
            path.push(q);
        }
    }
    path
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
    fn connect_paths_are_collision_free() {
        let s = Scenario::generate(Robot::mobile_2d(), &ScenarioParams::with_obstacles(16), 11);
        let checker = TwoStageChecker::moped(s.obstacles.clone());
        let mut planner = RrtStar::new(&s, &checker, SimbrIndex::moped(3), params(1200, 9))
            .with_engine(Engine::RrtConnect);
        let r = planner.plan();
        if let Some(path) = &r.path {
            for w in path.windows(2) {
                for p in planner.steps.poses(&w[0], &w[1]) {
                    assert!(!s.config_collides(&p), "path pose collides: {p:?}");
                }
            }
        }
    }

    #[test]
    fn connect_engines_are_deterministic() {
        let s = Scenario::generate(Robot::mobile_2d(), &ScenarioParams::with_obstacles(16), 8);
        let checker = TwoStageChecker::moped(s.obstacles.clone());
        let run = |seed| {
            RrtStar::new(&s, &checker, SimbrIndex::moped(3), params(400, seed))
                .with_engine(Engine::RrtConnect)
                .plan()
        };
        let (a, b) = (run(17), run(17));
        assert_eq!(a.path_cost.to_bits(), b.path_cost.to_bits());
        assert_eq!(a.path, b.path);
        assert_eq!(a.stats.total_ops(), b.stats.total_ops());
    }

    #[test]
    fn connect_engines_replay_bit_identically() {
        let s = Scenario::generate(Robot::mobile_2d(), &ScenarioParams::with_obstacles(16), 9);
        let checker = TwoStageChecker::moped(s.obstacles.clone());
        let mut recorder = RrtStar::new(&s, &checker, SimbrIndex::moped(3), params(400, 23))
            .with_engine(Engine::RrtConnect)
            .with_journal_recording();
        let original = recorder.plan();
        let journal = recorder.take_journal().expect("journaling was enabled");
        assert_eq!(journal.rounds(), original.stats.samples);
        if original.solved() {
            assert!(journal.links() > 0, "the closing bridge must be journaled");
        }

        // Round-trip the wire format so hex-f64 parsing is covered.
        let journal = Journal::parse(&journal.serialize()).expect("wire round trip");
        let mut replayer = RrtStar::new(&s, &checker, SimbrIndex::moped(3), params(400, 23))
            .with_engine(Engine::RrtConnect)
            .with_replay(&journal);
        let replayed = replayer.plan();
        assert_eq!(original.path_cost.to_bits(), replayed.path_cost.to_bits());
        assert_eq!(original.path, replayed.path);
        assert_eq!(original.stats.nodes, replayed.stats.nodes);
        assert_eq!(original.stats.samples, replayed.stats.samples);
        assert_eq!(original.stats.total_ops(), replayed.stats.total_ops());
        assert!(replayer.check_tree_invariants().is_none());
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
    fn connect_walk_polls_the_stop_hook() {
        // A tiny step makes round 0's walk about a million steps long; a
        // hook polled only between rounds would never see it.
        let s = Scenario::generate(Robot::mobile_2d(), &ScenarioParams::with_obstacles(8), 1);
        let checker = TwoStageChecker::moped(s.obstacles.clone());
        let polls = std::cell::Cell::new(0);
        let p = PlannerParams {
            steering_step: Some(1e-4),
            ..params(500, 7)
        };
        let mut planner = RrtStar::new(&s, &checker, SimbrIndex::moped(3), p)
            .with_engine(Engine::RrtConnect)
            .with_stop_hook(1, || {
                polls.set(polls.get() + 1);
                polls.get() == 3
            });
        let r = planner.plan();
        assert!(r.stats.stopped_early);
        assert_eq!(polls.get(), 3);
        assert!(r.stats.nodes < 1_000, "{} nodes", r.stats.nodes);
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
    fn connect_forest_costs_are_root_relative() {
        let s = Scenario::generate(Robot::mobile_2d(), &ScenarioParams::with_obstacles(24), 19);
        let checker = TwoStageChecker::moped(s.obstacles.clone());
        let mut planner = RrtStar::new(&s, &checker, SimbrIndex::moped(3), params(300, 31))
            .with_engine(Engine::RrtConnect);
        let _ = planner.plan();
        let snapshot = planner.tree_snapshot();
        // Node 0 (start) and node 1 (goal) are always parentless roots.
        assert!(snapshot[0].1.is_none() && snapshot[0].2 == 0.0);
        assert!(snapshot[1].1.is_none() && snapshot[1].2 == 0.0);
        assert!(planner.check_tree_invariants().is_none());
    }
}
