//! The RRT\* planner with phase-level cost accounting.

use moped_collision::{CollisionChecker, CollisionLedger};
use moped_env::Scenario;
use moped_geometry::{Config, InterpolationSteps, OpCount};
use moped_obs::{Journal, RejectReason};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::NeighborIndex;

/// Search strategy executed behind the [`RrtStar`] facade.
///
/// Both engines share the node arena, neighbor-index backend, TSPS
/// collision stack, journal recording/replay, and the stop-hook
/// contract; they differ only in how the exploration structure grows.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Engine {
    /// Single-tree RRT\* (sample → nearest → steer → refine → rewire);
    /// asymptotically optimal, the paper's evaluation engine.
    #[default]
    RrtStar,
    /// Bidirectional RRT-Connect: one tree from the start, one from the
    /// goal, taking turns, with a greedy multi-step connect of the other
    /// tree toward every new node. Feasibility-first — it returns the
    /// first path found, closed by one zero-length bridge, and performs
    /// no rewiring.
    RrtConnect,
}

impl Engine {
    /// Short engine name for reports and bench rows.
    pub fn name(&self) -> &'static str {
        match self {
            Engine::RrtStar => "rrt-star",
            Engine::RrtConnect => "rrt-connect",
        }
    }

    /// Every engine, in report order.
    pub fn all() -> [Engine; 2] {
        [Engine::RrtStar, Engine::RrtConnect]
    }
}

/// Planner tuning knobs.
#[derive(Clone, Debug, PartialEq)]
pub struct PlannerParams {
    /// Sampling budget (the paper's evaluation uses 5 000).
    pub max_samples: usize,
    /// Steering step; `None` uses the robot model's default.
    pub steering_step: Option<f64>,
    /// Rewiring-radius scale `gamma` in `r = gamma * (ln n / n)^(1/d)`;
    /// the radius is additionally clamped to `[step, 4*step]`.
    pub rewire_gamma: f64,
    /// Probability of sampling the goal instead of a random point.
    pub goal_bias: f64,
    /// A node within this configuration-space distance of the goal tries
    /// to connect directly.
    pub goal_tolerance: f64,
    /// Collision-check discretization; `None` derives it from the step.
    pub interpolation: Option<InterpolationSteps>,
    /// Random seed for the sampler.
    pub seed: u64,
    /// Record a per-round trace (needed by the hardware pipeline model).
    pub trace_rounds: bool,
}

impl Default for PlannerParams {
    /// Paper-flavoured defaults with a modest 1 000-sample budget (the
    /// figures binary raises this to 5 000).
    fn default() -> Self {
        PlannerParams {
            max_samples: 1000,
            steering_step: None,
            rewire_gamma: 40.0,
            goal_bias: 0.05,
            goal_tolerance: 10.0,
            interpolation: None,
            seed: 0,
            trace_rounds: false,
        }
    }
}

impl PlannerParams {
    /// Checks the knobs every engine relies on: a set `steering_step`
    /// must be finite and positive, a set `interpolation` must have a
    /// finite, positive `resolution` and a nonzero `max_steps`,
    /// `rewire_gamma` and `goal_tolerance` must be finite and
    /// non-negative, and `goal_bias` a probability. A step of zero, below
    /// zero or NaN stalls or panics the engines, and an infinite one turns
    /// every edge into one long, coarsely checked motion. A bad resolution
    /// checks only each motion's endpoint, and `max_steps` of zero panics
    /// the motion check.
    pub fn validate(&self) -> Result<(), String> {
        if let Some(step) = self.steering_step {
            if !(step.is_finite() && step > 0.0) {
                return Err(format!("steering_step must be finite and > 0, got {step}"));
            }
        }
        if let Some(interp) = self.interpolation {
            if !(interp.resolution.is_finite() && interp.resolution > 0.0) {
                return Err(format!(
                    "interpolation resolution must be finite and > 0, got {}",
                    interp.resolution
                ));
            }
            if interp.max_steps == 0 {
                return Err("interpolation max_steps must be >= 1".to_string());
            }
        }
        for (name, value) in [
            ("rewire_gamma", self.rewire_gamma),
            ("goal_tolerance", self.goal_tolerance),
        ] {
            if !(value.is_finite() && value >= 0.0) {
                return Err(format!("{name} must be finite and >= 0, got {value}"));
            }
        }
        if !(0.0..=1.0).contains(&self.goal_bias) {
            return Err(format!(
                "goal_bias must be in [0, 1], got {}",
                self.goal_bias
            ));
        }
        Ok(())
    }
}

/// Cost trace of one sampling round, in MAC-equivalent operations per
/// phase. The hardware model replays these through the S&R pipeline.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RoundTrace {
    /// Neighbor-search work (nearest + neighborhood queries).
    pub ns_macs: u64,
    /// Collision-check work in the extension phase.
    pub cc_macs: u64,
    /// Tree-refinement work (parent choice, rewiring and the goal
    /// connection), collision checks included.
    pub refine_macs: u64,
    /// Index-insertion work.
    pub insert_macs: u64,
    /// Whether the sample was accepted into the tree.
    pub accepted: bool,
    /// Size of the neighborhood examined during refinement.
    pub near_count: u32,
}

/// Aggregated statistics of one planning run.
#[derive(Clone, Debug, Default)]
pub struct PlanStats {
    /// Sampling rounds executed.
    pub samples: usize,
    /// Nodes in the exploration tree (accepted samples + start).
    pub nodes: usize,
    /// Neighbor-search arithmetic.
    pub ns_ops: OpCount,
    /// Index-insertion arithmetic.
    pub insert_ops: OpCount,
    /// Steering / cost-bookkeeping arithmetic.
    pub other_ops: OpCount,
    /// Collision-check ledger (both stages, extension + refinement).
    pub collision: CollisionLedger,
    /// Rewire operations that actually changed a parent.
    pub rewires: u64,
    /// Per-round trace (present when requested).
    pub rounds: Vec<RoundTrace>,
    /// Anytime-quality profile: `(sample index, best path cost)` each
    /// time the best known solution improved — RRT\*'s asymptotic
    /// optimality made visible.
    pub solution_history: Vec<(usize, f64)>,
    /// `true` when the run was cut short by a stop hook (deadline or
    /// cancellation) before exhausting its sampling budget; the result
    /// is the best-so-far anytime answer.
    pub stopped_early: bool,
}

impl PlanStats {
    /// Total arithmetic across all phases.
    pub fn total_ops(&self) -> OpCount {
        self.ns_ops + self.insert_ops + self.other_ops + self.collision.total_ops()
    }

    /// Fractional breakdown `(collision, neighbor-search, other)` of
    /// MAC-equivalent work — the Fig 3 pie.
    pub fn breakdown(&self) -> (f64, f64, f64) {
        let cc = self.collision.total_ops().mac_equiv() as f64;
        let ns = self.ns_ops.mac_equiv() as f64;
        let other = (self.insert_ops + self.other_ops).mac_equiv() as f64;
        let total = (cc + ns + other).max(1.0);
        (cc / total, ns / total, other / total)
    }
}

/// The outcome of a planning run.
#[derive(Clone, Debug)]
pub struct PlanResult {
    /// Start-to-goal path (inclusive) if one was found.
    pub path: Option<Vec<Config>>,
    /// Cost (configuration-space length) of the returned path;
    /// `f64::INFINITY` when no path was found.
    pub path_cost: f64,
    /// Run statistics.
    pub stats: PlanStats,
}

impl PlanResult {
    /// Whether a path to the goal was found.
    pub fn solved(&self) -> bool {
        self.path.is_some()
    }
}

#[derive(Clone, Debug)]
pub(crate) struct TreeNode {
    pub(crate) q: Config,
    pub(crate) parent: Option<usize>,
    pub(crate) children: Vec<usize>,
    pub(crate) cost: f64,
}

/// An RRT\* planner instance bound to a scenario.
///
/// Generic over the neighbor index; the collision checker is taken as a
/// trait object so ablations can swap it freely.
pub struct RrtStar<'a, N: NeighborIndex> {
    pub(crate) scenario: &'a Scenario,
    pub(crate) checker: &'a dyn CollisionChecker,
    /// One neighbor index per exploration tree: RRT\* grows only tree 0,
    /// rooted at the start; RRT-Connect adds tree 1, rooted at the goal.
    pub(crate) trees: Vec<N>,
    pub(crate) params: PlannerParams,
    pub(crate) nodes: Vec<TreeNode>,
    pub(crate) steps: InterpolationSteps,
    pub(crate) step: f64,
    engine: Engine,
    stop_hook: Option<StopHook<'a>>,
    journal_enabled: bool,
    pub(crate) journal: Option<Journal>,
    replay: Option<Replay>,
}

/// Pre-decoded sample stream consumed instead of the RNG when replaying
/// a journal (goal-bias draws are already baked into the stream).
struct Replay {
    samples: Vec<Config>,
    cursor: usize,
}

/// A cooperative-stop predicate polled every `.0` sampling rounds; when
/// it returns `true` the planner abandons the remaining budget and
/// returns its best-so-far anytime result.
type StopHook<'a> = (usize, Box<dyn Fn() -> bool + 'a>);

impl<'a, N: NeighborIndex> RrtStar<'a, N> {
    /// Creates a planner over `scenario` with the given backends.
    pub fn new(
        scenario: &'a Scenario,
        checker: &'a dyn CollisionChecker,
        index: N,
        params: PlannerParams,
    ) -> Self {
        let step = params
            .steering_step
            .unwrap_or_else(|| scenario.robot.steering_step());
        let steps = params
            .interpolation
            .unwrap_or_else(|| InterpolationSteps::with_resolution((step / 4.0).max(1e-3)));
        RrtStar {
            scenario,
            checker,
            trees: vec![index],
            params,
            nodes: Vec::new(),
            steps,
            step,
            engine: Engine::RrtStar,
            stop_hook: None,
            journal_enabled: false,
            journal: None,
            replay: None,
        }
    }

    /// Selects the search engine executed by [`plan`]. Defaults to
    /// single-tree RRT\*; see [`Engine`] for the alternatives.
    ///
    /// [`plan`]: RrtStar::plan
    pub fn with_engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Installs a cooperative stop hook polled every `every` sampling
    /// rounds (clamped to ≥ 1); RRT-Connect also polls it every `every`
    /// steps of a connect walk. When `hook` returns `true` the planner
    /// stops early and returns its best-so-far anytime result with
    /// [`PlanStats::stopped_early`] set; the exploration tree remains
    /// fully consistent (see [`RrtStar::check_tree_invariants`]).
    ///
    /// This is how a serving layer enforces per-request deadlines and
    /// cancellation without killing threads mid-iteration.
    pub fn with_stop_hook(mut self, every: usize, hook: impl Fn() -> bool + 'a) -> Self {
        self.stop_hook = Some((every.max(1), Box::new(hook)));
        self
    }

    /// Records a deterministic event journal during the next [`plan`]
    /// call: every sample draw (goal-bias draws included), accept,
    /// reject, rewire, and goal improvement, plus the sampler seed.
    /// Retrieve it afterwards with [`take_journal`]; feeding it to
    /// [`with_replay`] on a fresh planner over the same scenario
    /// reproduces the run bit-identically.
    ///
    /// [`plan`]: RrtStar::plan
    /// [`take_journal`]: RrtStar::take_journal
    /// [`with_replay`]: RrtStar::with_replay
    pub fn with_journal_recording(mut self) -> Self {
        self.journal_enabled = true;
        self
    }

    /// The journal recorded by the last [`RrtStar::plan`] call, if
    /// journaling was enabled.
    pub fn take_journal(&mut self) -> Option<Journal> {
        self.journal.take()
    }

    /// Replays a recorded journal: the planner consumes the journal's
    /// sample stream instead of its RNG, and its budget becomes the
    /// journal's round count. Everything downstream of sampling is
    /// deterministic, so the run — tree shape, node count, path cost —
    /// reproduces the recorded one bit for bit.
    pub fn with_replay(mut self, journal: &Journal) -> Self {
        let samples = journal
            .sample_rows()
            .map(Config::new)
            .collect::<Vec<Config>>();
        self.replay = Some(Replay { samples, cursor: 0 });
        self
    }

    /// The neighbor index of the start tree (state inspection after
    /// planning).
    pub fn index(&self) -> &N {
        &self.trees[0]
    }

    /// Runs the planner to its sampling budget and extracts the best
    /// path found (for RRT-Connect: the first path found).
    ///
    /// Parameters that [`PlannerParams::validate`] rejects plan nothing:
    /// the result is unsolved with zero samples, rather than a panic or a
    /// run that never ends.
    pub fn plan(&mut self) -> PlanResult {
        if self.params.validate().is_err() {
            return PlanResult {
                path: None,
                path_cost: f64::INFINITY,
                stats: PlanStats::default(),
            };
        }
        match self.engine {
            Engine::RrtStar => self.plan_rrt_star(),
            Engine::RrtConnect => crate::connect::plan_connect(self),
        }
    }

    // --- Round steps shared by every engine -----------------------------

    /// Starts a run: lets a checker that keeps cross-plan state reset it
    /// (so runs stay op-for-op reproducible), opens the journal, empties
    /// the node arena and the forest down to a fresh start-tree index.
    /// Returns the sampler RNG and the round budget; a replaying planner's
    /// budget is the journal's round count, one recorded sample per round.
    pub(crate) fn begin_run(&mut self) -> (StdRng, usize) {
        self.checker.begin_plan();
        let dim = self.scenario.robot.dof();
        self.journal = self
            .journal_enabled
            .then(|| Journal::new(self.params.seed, dim));
        self.nodes.clear();
        self.trees.truncate(1);
        self.trees[0] = self.trees[0].fresh();
        let budget = self
            .replay
            .as_ref()
            .map_or(self.params.max_samples, |r| r.samples.len());
        (StdRng::seed_from_u64(self.params.seed), budget)
    }

    /// Cooperative cancellation/deadline, polled every N rounds so a
    /// serving layer can reclaim the worker; the forest stays consistent
    /// and the best-so-far result is still extracted.
    pub(crate) fn stop_requested(&self, round: usize) -> bool {
        self.stop_hook
            .as_ref()
            .is_some_and(|(every, hook)| round.is_multiple_of(*every) && round > 0 && hook())
    }

    /// Draws the round's sample — the next replayed one, or from `rng`
    /// (with RRT\*'s goal-bias coin when `goal_biased`) — and journals it.
    pub(crate) fn draw_sample(&mut self, rng: &mut StdRng, goal_biased: bool) -> Config {
        let q = match &mut self.replay {
            Some(r) => {
                let q = r.samples[r.cursor];
                r.cursor += 1;
                q
            }
            None if goal_biased && rng.gen::<f64>() < self.params.goal_bias => self.scenario.goal,
            None => self.scenario.sample_any(rng),
        };
        if let Some(j) = &mut self.journal {
            j.record_sample(q.as_slice());
        }
        q
    }

    /// Steers from node `from` toward `target` by at most one step and
    /// checks that motion; returns the new configuration or why it was
    /// refused (a step that does not move is `Degenerate`).
    pub(crate) fn step_toward(
        &self,
        from: usize,
        target: &Config,
        stats: &mut PlanStats,
    ) -> Result<Config, RejectReason> {
        let q_from = &self.nodes[from].q;
        let q = q_from.steer_toward(target, self.step);
        let dim = self.scenario.robot.dof() as u64;
        stats.other_ops.mul += dim;
        stats.other_ops.add += dim;
        if q == *q_from {
            return Err(RejectReason::Degenerate);
        }
        if !self.checker.motion_free(
            &self.scenario.robot,
            q_from,
            &q,
            &self.steps,
            &mut stats.collision,
        ) {
            return Err(RejectReason::Collision);
        }
        Ok(q)
    }

    /// The round's extension: [`RrtStar::step_toward`] with a refused
    /// step journaled as the round's reject.
    pub(crate) fn extend(
        &mut self,
        from: usize,
        target: &Config,
        stats: &mut PlanStats,
    ) -> Option<Config> {
        match self.step_toward(from, target, stats) {
            Ok(q) => Some(q),
            Err(why) => {
                if let Some(j) = &mut self.journal {
                    j.record_reject(why);
                }
                None
            }
        }
    }

    /// Plants a new tree rooted at `q` (roots are not journaled); roots
    /// are planted before any growth, so node id and tree id coincide.
    pub(crate) fn plant_root(&mut self, q: Config, stats: &mut PlanStats) -> usize {
        let id = self.nodes.len();
        self.nodes.push(TreeNode {
            q,
            parent: None,
            children: Vec::new(),
            cost: 0.0,
        });
        if id > 0 {
            let index = self.trees[0].fresh();
            self.trees.push(index);
        }
        self.trees[id].insert(id as u64, q, None, &mut stats.insert_ops);
        id
    }

    /// Adds `q` to `tree` as a child of `parent` with root-relative
    /// `cost`, indexes it (`hint` is the insertion anchor), and journals
    /// the accept; returns the new node id.
    pub(crate) fn attach(
        &mut self,
        tree: usize,
        parent: usize,
        q: Config,
        cost: f64,
        hint: usize,
        stats: &mut PlanStats,
    ) -> usize {
        let id = self.nodes.len();
        self.nodes.push(TreeNode {
            q,
            parent: Some(parent),
            children: Vec::new(),
            cost,
        });
        self.nodes[parent].children.push(id);
        self.trees[tree].insert(id as u64, q, Some(hint as u64), &mut stats.insert_ops);
        if let Some(j) = &mut self.journal {
            j.record_accept(id as u64, parent as u64, cost);
        }
        id
    }

    /// Records an improved goal connection: in the solution history, and
    /// in the journal through `node`.
    pub(crate) fn record_goal(&mut self, stats: &mut PlanStats, node: usize, total: f64) {
        stats.solution_history.push((stats.samples, total));
        if let Some(j) = &mut self.journal {
            j.record_goal(node as u64, total);
        }
    }

    /// The single-tree RRT\* engine.
    fn plan_rrt_star(&mut self) -> PlanResult {
        let mut stats = PlanStats::default();
        let (mut rng, budget) = self.begin_run();
        self.plant_root(self.scenario.start, &mut stats);

        let mut best_goal: Option<(usize, f64)> = None; // (node, node→goal dist)

        for round in 0..budget {
            if self.stop_requested(round) {
                stats.stopped_early = true;
                break;
            }
            stats.samples += 1;
            let mut trace = RoundTrace::default();
            let x_rand = self.draw_sample(&mut rng, true);

            // --- Neighbor search 1: nearest ---------------------------
            let ns_mark = stats.ns_ops;
            let (nearest_id, _) = self.trees[0]
                .nearest(&x_rand, &mut stats.ns_ops)
                .expect("index holds at least the root");
            let nearest_idx = nearest_id as usize;

            // --- Steer + collision check: extension edge --------------
            let cc_mark = self.ledger_macs(&stats);
            let x_new = self.extend(nearest_idx, &x_rand, &mut stats);
            trace.cc_macs = self.ledger_macs(&stats) - cc_mark;
            let Some(x_new) = x_new else {
                if self.params.trace_rounds {
                    trace.ns_macs = (stats.ns_ops - ns_mark).mac_equiv();
                    stats.rounds.push(trace);
                }
                continue;
            };

            // --- Neighbor search 2: neighborhood of x_new -------------
            let radius = self.rewire_radius();
            let near = self.trees[0].neighborhood(nearest_id, &x_new, radius, &mut stats.ns_ops);
            trace.near_count = near.len() as u32;
            trace.ns_macs = (stats.ns_ops - ns_mark).mac_equiv();

            // --- Refinement: choose best parent ------------------------
            // Candidates are ranked by prospective cost and the first
            // collision-free edge wins (the ranked-order check means the
            // nearest node's already-verified edge usually terminates the
            // scan immediately, exactly the paper's low-check refinement).
            let refine_mark = self.ledger_macs(&stats) + stats.other_ops.mac_equiv();
            let nearest_through = self.nodes[nearest_idx].cost
                + self.nodes[nearest_idx]
                    .q
                    .distance_counted(&x_new, &mut stats.other_ops);
            let mut candidates: Vec<(f64, usize)> = vec![(nearest_through, nearest_idx)];
            for (cand_id, cand_q) in &near {
                let ci = *cand_id as usize;
                if ci == nearest_idx {
                    continue;
                }
                let c = self.nodes[ci].cost + cand_q.distance_counted(&x_new, &mut stats.other_ops);
                candidates.push((c, ci));
            }
            candidates.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite costs"));
            stats.other_ops.cmp += candidates.len() as u64;
            let mut parent = nearest_idx;
            let mut best_cost = nearest_through;
            for (c, ci) in candidates {
                if ci == nearest_idx {
                    // Edge already verified collision free above.
                    parent = ci;
                    best_cost = c;
                    break;
                }
                let q = self.nodes[ci].q;
                if self.checker.motion_free(
                    &self.scenario.robot,
                    &q,
                    &x_new,
                    &self.steps,
                    &mut stats.collision,
                ) {
                    parent = ci;
                    best_cost = c;
                    break;
                }
            }

            // --- Insert the new node -----------------------------------
            let ins_mark = stats.insert_ops;
            let new_idx = self.attach(0, parent, x_new, best_cost, nearest_idx, &mut stats);
            trace.insert_macs = (stats.insert_ops - ins_mark).mac_equiv();
            trace.accepted = true;
            stats.nodes = self.nodes.len();

            // --- Rewire ------------------------------------------------
            for (cand_id, cand_q) in &near {
                let ci = *cand_id as usize;
                if ci == parent || ci == new_idx {
                    continue;
                }
                let through = best_cost + x_new.distance_counted(cand_q, &mut stats.other_ops);
                stats.other_ops.cmp += 1;
                if through < self.nodes[ci].cost
                    && self.checker.motion_free(
                        &self.scenario.robot,
                        &x_new,
                        cand_q,
                        &self.steps,
                        &mut stats.collision,
                    )
                {
                    self.reparent(ci, new_idx, through);
                    stats.rewires += 1;
                    if let Some(j) = &mut self.journal {
                        j.record_rewire(ci as u64, new_idx as u64, through);
                    }
                }
            }

            // --- Goal bookkeeping --------------------------------------
            // The bound is tested before the edge is checked: a goal
            // connection that cannot beat the best path is never checked.
            let gd = x_new.distance_counted(&self.scenario.goal, &mut stats.other_ops);
            stats.other_ops.cmp += 1;
            let total = self.nodes[new_idx].cost + gd;
            if gd <= self.params.goal_tolerance
                && best_goal.is_none_or(|(bi, bd)| total < self.nodes[bi].cost + bd)
                && self.checker.motion_free(
                    &self.scenario.robot,
                    &x_new,
                    &self.scenario.goal,
                    &self.steps,
                    &mut stats.collision,
                )
            {
                best_goal = Some((new_idx, gd));
                self.record_goal(&mut stats, new_idx, total);
            }
            trace.refine_macs = (self.ledger_macs(&stats) + stats.other_ops.mac_equiv())
                .saturating_sub(refine_mark);

            if self.params.trace_rounds {
                stats.rounds.push(trace);
            }
        }

        // Re-evaluate the best goal connection: rewiring may have lowered
        // some node's cost after it was recorded.
        let (path, path_cost) = match best_goal {
            None => (None, f64::INFINITY),
            Some((node, gd)) => {
                let mut chain = Vec::new();
                let mut cur = Some(node);
                while let Some(i) = cur {
                    chain.push(self.nodes[i].q);
                    cur = self.nodes[i].parent;
                }
                chain.reverse();
                chain.push(self.scenario.goal);
                (Some(chain), self.nodes[node].cost + gd)
            }
        };

        stats.nodes = self.nodes.len();
        PlanResult {
            path,
            path_cost,
            stats,
        }
    }

    /// Total collision-ledger MACs (both stages).
    pub(crate) fn ledger_macs(&self, stats: &PlanStats) -> u64 {
        stats.collision.total_ops().mac_equiv()
    }

    /// RRT\* shrinking rewire radius, clamped around the steering step.
    fn rewire_radius(&self) -> f64 {
        let n = self.nodes.len().max(2) as f64;
        let d = self.scenario.robot.dof() as f64;
        let r = self.params.rewire_gamma * ((n.ln()) / n).powf(1.0 / d);
        r.clamp(self.step, 4.0 * self.step)
    }

    /// Moves `node` under `new_parent` with the given new cost and
    /// propagates the cost delta through the subtree.
    fn reparent(&mut self, node: usize, new_parent: usize, new_cost: f64) {
        let old_parent = self.nodes[node].parent.expect("root is never rewired");
        self.nodes[old_parent].children.retain(|&c| c != node);
        self.nodes[node].parent = Some(new_parent);
        self.nodes[new_parent].children.push(node);
        let delta = new_cost - self.nodes[node].cost;
        let mut stack = vec![node];
        while let Some(i) = stack.pop() {
            self.nodes[i].cost += delta;
            stack.extend_from_slice(&self.nodes[i].children);
        }
    }

    /// Exposes the exploration tree as `(config, parent, cost)` rows for
    /// inspection and invariant tests.
    pub fn tree_snapshot(&self) -> Vec<(Config, Option<usize>, f64)> {
        self.nodes.iter().map(|n| (n.q, n.parent, n.cost)).collect()
    }

    /// Verifies exploration-tree invariants: acyclic parent chains,
    /// consistent child links, and costs equal to the sum of edge lengths
    /// along the parent chain. The RRT\* engine additionally requires a
    /// single root (node 0); RRT-Connect also roots its goal tree at
    /// node 1, which must then cost zero.
    ///
    /// Returns a violation description or `None` when sound.
    pub fn check_tree_invariants(&self) -> Option<String> {
        if self.nodes.is_empty() {
            return None;
        }
        if self.nodes[0].parent.is_some() {
            return Some("root has a parent".into());
        }
        for (i, n) in self.nodes.iter().enumerate() {
            if let Some(p) = n.parent {
                if !self.nodes[p].children.contains(&i) {
                    return Some(format!("child link missing for {i}"));
                }
                let expect = self.nodes[p].cost + self.nodes[p].q.distance(&n.q);
                if (expect - n.cost).abs() > 1e-6 {
                    return Some(format!(
                        "cost mismatch at {i}: stored {} vs recomputed {expect}",
                        n.cost
                    ));
                }
            } else if i != 0 {
                if self.engine == Engine::RrtStar || i != 1 {
                    return Some(format!("non-root {i} has no parent"));
                }
                if n.cost != 0.0 {
                    return Some(format!("goal root {i} has nonzero cost {}", n.cost));
                }
            }
            // Walk to root, guarding against cycles.
            let mut seen = 0usize;
            let mut cur = n.parent;
            while let Some(p) = cur {
                seen += 1;
                if seen > self.nodes.len() {
                    return Some(format!("cycle reachable from {i}"));
                }
                cur = self.nodes[p].parent;
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LinearIndex, SimbrIndex};
    use moped_collision::{NaiveChecker, TwoStageChecker};
    use moped_env::ScenarioParams;
    use moped_robot::Robot;

    fn quick_params(samples: usize, seed: u64) -> PlannerParams {
        PlannerParams {
            max_samples: samples,
            seed,
            ..PlannerParams::default()
        }
    }

    #[test]
    fn validate_accepts_defaults_and_rejects_bad_knobs() {
        assert_eq!(PlannerParams::default().validate(), Ok(()));
        let ok_step = PlannerParams {
            steering_step: Some(2.5),
            goal_bias: 1.0,
            rewire_gamma: 0.0,
            ..PlannerParams::default()
        };
        assert_eq!(ok_step.validate(), Ok(()));
        let bad = [
            PlannerParams {
                steering_step: Some(-5.0),
                ..PlannerParams::default()
            },
            PlannerParams {
                steering_step: Some(0.0),
                ..PlannerParams::default()
            },
            PlannerParams {
                steering_step: Some(f64::NAN),
                ..PlannerParams::default()
            },
            PlannerParams {
                steering_step: Some(f64::INFINITY),
                ..PlannerParams::default()
            },
            PlannerParams {
                rewire_gamma: -1.0,
                ..PlannerParams::default()
            },
            PlannerParams {
                goal_tolerance: f64::INFINITY,
                ..PlannerParams::default()
            },
            PlannerParams {
                goal_bias: 1.5,
                ..PlannerParams::default()
            },
            PlannerParams {
                goal_bias: f64::NAN,
                ..PlannerParams::default()
            },
            PlannerParams {
                interpolation: Some(InterpolationSteps {
                    resolution: -1.0,
                    max_steps: 64,
                }),
                ..PlannerParams::default()
            },
            PlannerParams {
                interpolation: Some(InterpolationSteps {
                    resolution: f64::NAN,
                    max_steps: 64,
                }),
                ..PlannerParams::default()
            },
            PlannerParams {
                interpolation: Some(InterpolationSteps {
                    resolution: f64::INFINITY,
                    max_steps: 64,
                }),
                ..PlannerParams::default()
            },
            PlannerParams {
                interpolation: Some(InterpolationSteps {
                    resolution: 0.5,
                    max_steps: 0,
                }),
                ..PlannerParams::default()
            },
        ];
        for p in bad {
            assert!(p.validate().is_err(), "{p:?}");
        }
    }

    /// Delegates to an inner checker and counts the motion checks that
    /// end at `goal` and find the edge free.
    struct GoalCheckRecorder<'a> {
        inner: &'a dyn CollisionChecker,
        goal: Config,
        free: std::cell::Cell<usize>,
    }

    impl CollisionChecker for GoalCheckRecorder<'_> {
        fn config_free(&self, robot: &Robot, q: &Config, ledger: &mut CollisionLedger) -> bool {
            self.inner.config_free(robot, q, ledger)
        }

        fn motion_free(
            &self,
            robot: &Robot,
            from: &Config,
            to: &Config,
            steps: &InterpolationSteps,
            ledger: &mut CollisionLedger,
        ) -> bool {
            let free = self.inner.motion_free(robot, from, to, steps, ledger);
            if free && *to == self.goal {
                self.free.set(self.free.get() + 1);
            }
            free
        }

        fn name(&self) -> &'static str {
            "goal-check-recorder"
        }
    }

    #[test]
    fn goal_connection_is_checked_only_when_it_could_improve() {
        // An arm's default goal tolerance covers almost all of its joint
        // space, so every accepted node is a goal candidate. A goal edge
        // is checked only when it would beat the best path, so each free
        // goal check improves the solution. A goal-biased draw can steer
        // a node exactly onto the goal, and then its extension and
        // parent-choice edges end there too; with no goal bias every
        // check that ends at the goal is a goal connection.
        let s = moped_scenarios::CorpusEntry::new(
            moped_scenarios::Family::Clutter,
            moped_robot::RobotModel::XArm7,
            1,
        )
        .build();
        let inner = TwoStageChecker::moped(s.obstacles.clone());
        let checker = GoalCheckRecorder {
            inner: &inner,
            goal: s.goal,
            free: std::cell::Cell::new(0),
        };
        let r = crate::Variant::V4Lci
            .profile()
            .planner(
                &s,
                &checker,
                &PlannerParams {
                    goal_bias: 0.0,
                    ..quick_params(900, 7)
                },
            )
            .plan();
        assert!(r.path.is_some(), "the scene is solvable at this budget");
        assert_eq!(checker.free.get(), r.stats.solution_history.len());
    }

    #[test]
    fn invalid_steering_step_plans_nothing_on_every_engine() {
        let s = moped_env::Scenario::generate(
            Robot::mobile_2d(),
            &ScenarioParams::with_obstacles(8),
            3,
        );
        let checker = TwoStageChecker::moped(s.obstacles.clone());
        let bad_steps = [-5.0, -0.0, 0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY].map(|step| {
            PlannerParams {
                steering_step: Some(step),
                ..quick_params(200, 1)
            }
        });
        let bad_interpolation = [(-1.0, 64), (f64::NAN, 64), (f64::INFINITY, 64), (0.5, 0)].map(
            |(resolution, max_steps)| PlannerParams {
                interpolation: Some(InterpolationSteps {
                    resolution,
                    max_steps,
                }),
                ..quick_params(200, 1)
            },
        );
        for params in bad_steps.into_iter().chain(bad_interpolation) {
            assert!(params.validate().is_err(), "{params:?} must be rejected");
            for engine in Engine::all() {
                let r = RrtStar::new(&s, &checker, SimbrIndex::moped(3), params.clone())
                    .with_engine(engine)
                    .plan();
                assert!(!r.solved(), "{}: {params:?}", engine.name());
                assert_eq!(r.stats.samples, 0, "{}: {params:?}", engine.name());
            }
        }
    }

    #[test]
    fn finds_path_in_open_2d_world() {
        let s = moped_env::Scenario::generate(
            Robot::mobile_2d(),
            &ScenarioParams::with_obstacles(8),
            3,
        );
        let checker = TwoStageChecker::moped(s.obstacles.clone());
        let mut planner = RrtStar::new(&s, &checker, SimbrIndex::moped(3), quick_params(800, 5));
        let result = planner.plan();
        assert!(result.solved(), "open world should be solvable");
        assert!(result.path_cost.is_finite());
        assert!(planner.check_tree_invariants().is_none());
    }

    #[test]
    fn path_endpoints_are_start_and_goal() {
        let s = moped_env::Scenario::generate(
            Robot::mobile_2d(),
            &ScenarioParams::with_obstacles(8),
            7,
        );
        let checker = TwoStageChecker::moped(s.obstacles.clone());
        let mut planner = RrtStar::new(&s, &checker, SimbrIndex::moped(3), quick_params(800, 2));
        let result = planner.plan();
        if let Some(path) = &result.path {
            assert_eq!(path[0], s.start);
            assert_eq!(*path.last().unwrap(), s.goal);
            // Path cost equals the sum of its edge lengths. (Individual
            // edges may exceed the steering step after rewiring.)
            let summed: f64 = path.windows(2).map(|w| w[0].distance(&w[1])).sum();
            assert!((summed - result.path_cost).abs() < 1e-6);
        }
    }

    #[test]
    fn path_is_collision_free() {
        let s = moped_env::Scenario::generate(
            Robot::mobile_2d(),
            &ScenarioParams::with_obstacles(16),
            11,
        );
        let checker = TwoStageChecker::moped(s.obstacles.clone());
        let mut planner = RrtStar::new(&s, &checker, SimbrIndex::moped(3), quick_params(1200, 9));
        let result = planner.plan();
        if let Some(path) = &result.path {
            for w in path.windows(2) {
                let poses = moped_geometry::interpolate(&w[0], &w[1], &planner.steps);
                for p in poses {
                    assert!(!s.config_collides(&p), "path pose collides: {p:?}");
                }
            }
        }
    }

    #[test]
    fn baseline_and_moped_both_solve_same_scene() {
        let s = moped_env::Scenario::generate(
            Robot::mobile_2d(),
            &ScenarioParams::with_obstacles(8),
            5,
        );
        let naive = NaiveChecker::new(s.obstacles.clone());
        let two = TwoStageChecker::moped(s.obstacles.clone());
        let r0 = RrtStar::new(&s, &naive, LinearIndex::new(), quick_params(600, 1)).plan();
        let r4 = RrtStar::new(&s, &two, SimbrIndex::moped(3), quick_params(600, 1)).plan();
        assert_eq!(r0.solved(), r4.solved(), "same seed, same feasibility");
        if r0.solved() {
            // Path quality parity within a generous factor.
            assert!(r4.path_cost < 2.0 * r0.path_cost + 50.0);
        }
    }

    #[test]
    fn moped_costs_less_than_baseline() {
        let s = moped_env::Scenario::generate(
            Robot::drone_3d(),
            &ScenarioParams::with_obstacles(32),
            13,
        );
        let naive = NaiveChecker::new(s.obstacles.clone());
        let two = TwoStageChecker::moped(s.obstacles.clone());
        let r0 = RrtStar::new(&s, &naive, LinearIndex::new(), quick_params(400, 4)).plan();
        let r4 = RrtStar::new(&s, &two, SimbrIndex::moped(6), quick_params(400, 4)).plan();
        let base = r0.stats.total_ops().mac_equiv();
        let moped = r4.stats.total_ops().mac_equiv();
        // At this small 400-sample budget the saving is ~2.5-3x; the gap
        // widens with sample count (baseline NS is O(n) per round) — the
        // figures harness demonstrates the paper-scale factors at 5000.
        assert!(
            moped * 2 < base,
            "full MOPED should save >2x on a 32-obstacle drone scene: {moped} vs {base}"
        );
    }

    #[test]
    fn tracing_records_each_round() {
        let s = moped_env::Scenario::generate(
            Robot::mobile_2d(),
            &ScenarioParams::with_obstacles(8),
            2,
        );
        let checker = TwoStageChecker::moped(s.obstacles.clone());
        let params = PlannerParams {
            trace_rounds: true,
            ..quick_params(200, 3)
        };
        let mut planner = RrtStar::new(&s, &checker, SimbrIndex::moped(3), params);
        let result = planner.plan();
        assert_eq!(result.stats.rounds.len(), result.stats.samples);
        assert!(result.stats.rounds.iter().any(|r| r.accepted));
        assert!(result.stats.rounds.iter().any(|r| r.ns_macs > 0));
    }

    #[test]
    fn deterministic_given_seed() {
        let s = moped_env::Scenario::generate(
            Robot::mobile_2d(),
            &ScenarioParams::with_obstacles(16),
            8,
        );
        let checker = TwoStageChecker::moped(s.obstacles.clone());
        let a = RrtStar::new(&s, &checker, SimbrIndex::moped(3), quick_params(300, 17)).plan();
        let b = RrtStar::new(&s, &checker, SimbrIndex::moped(3), quick_params(300, 17)).plan();
        assert_eq!(a.path_cost.to_bits(), b.path_cost.to_bits());
        assert_eq!(a.stats.total_ops(), b.stats.total_ops());
    }

    #[test]
    fn journal_replay_reproduces_run_bit_identically() {
        let s = moped_env::Scenario::generate(
            Robot::mobile_2d(),
            &ScenarioParams::with_obstacles(16),
            9,
        );
        let checker = TwoStageChecker::moped(s.obstacles.clone());
        let mut recorder = RrtStar::new(&s, &checker, SimbrIndex::moped(3), quick_params(400, 23))
            .with_journal_recording();
        let original = recorder.plan();
        let journal = recorder.take_journal().expect("journaling was enabled");
        assert_eq!(journal.rounds(), original.stats.samples);
        assert_eq!(journal.seed(), 23);

        // Replay through the serialized wire format, not the in-memory
        // journal, so the f64 hex round trip is part of what's verified.
        let journal = Journal::parse(&journal.serialize()).expect("wire round trip");
        let mut replayer = RrtStar::new(&s, &checker, SimbrIndex::moped(3), quick_params(400, 23))
            .with_replay(&journal);
        let replayed = replayer.plan();
        assert_eq!(original.path_cost.to_bits(), replayed.path_cost.to_bits());
        assert_eq!(original.stats.nodes, replayed.stats.nodes);
        assert_eq!(original.stats.samples, replayed.stats.samples);
        assert_eq!(original.stats.rewires, replayed.stats.rewires);
        assert_eq!(original.stats.total_ops(), replayed.stats.total_ops());
        assert!(replayer.check_tree_invariants().is_none());
    }

    #[test]
    fn journal_records_every_round_outcome() {
        let s = moped_env::Scenario::generate(
            Robot::mobile_2d(),
            &ScenarioParams::with_obstacles(8),
            2,
        );
        let checker = TwoStageChecker::moped(s.obstacles.clone());
        let mut planner = RrtStar::new(&s, &checker, SimbrIndex::moped(3), quick_params(300, 7))
            .with_journal_recording();
        let result = planner.plan();
        let journal = planner.take_journal().expect("journaling was enabled");
        // Accepted rounds match tree growth (root is not journaled).
        assert_eq!(journal.accepts(), result.stats.nodes - 1);
        // Every round drew exactly one sample.
        assert_eq!(journal.rounds(), result.stats.samples);
    }

    #[test]
    fn stats_breakdown_sums_to_one() {
        let s = moped_env::Scenario::generate(
            Robot::drone_3d(),
            &ScenarioParams::with_obstacles(16),
            3,
        );
        let naive = NaiveChecker::new(s.obstacles.clone());
        let r = RrtStar::new(&s, &naive, LinearIndex::new(), quick_params(150, 2)).plan();
        let (cc, ns, other) = r.stats.breakdown();
        assert!((cc + ns + other - 1.0).abs() < 1e-9);
        assert!(cc > 0.0 && ns > 0.0);
    }

    #[test]
    fn solution_history_is_monotonically_improving() {
        let s = moped_env::Scenario::generate(
            Robot::mobile_2d(),
            &ScenarioParams::with_obstacles(8),
            14,
        );
        let checker = TwoStageChecker::moped(s.obstacles.clone());
        let result = RrtStar::new(&s, &checker, SimbrIndex::moped(3), quick_params(1500, 8)).plan();
        let h = &result.stats.solution_history;
        if result.solved() {
            assert!(!h.is_empty(), "a solved run must record its first solution");
            for w in h.windows(2) {
                assert!(w[0].0 <= w[1].0, "sample indices must be ordered");
                assert!(w[1].1 < w[0].1, "recorded costs must strictly improve");
            }
            // The final recorded cost can only improve further via
            // rewiring after the record, never regress.
            assert!(result.path_cost <= h.last().unwrap().1 + 1e-9);
        }
    }

    #[test]
    fn stop_hook_truncates_run_to_identical_prefix() {
        // Stopping at round K must be indistinguishable from a run whose
        // budget was K all along: same tree, same best-so-far answer.
        let s = moped_env::Scenario::generate(
            Robot::mobile_2d(),
            &ScenarioParams::with_obstacles(8),
            3,
        );
        let checker = TwoStageChecker::moped(s.obstacles.clone());
        let polls = std::cell::Cell::new(0u32);
        let mut hooked = RrtStar::new(&s, &checker, SimbrIndex::moped(3), quick_params(800, 5))
            .with_stop_hook(50, || {
                polls.set(polls.get() + 1);
                polls.get() >= 3 // fires at round 150
            });
        let early = hooked.plan();
        assert!(early.stats.stopped_early);
        assert_eq!(early.stats.samples, 150);
        assert!(hooked.check_tree_invariants().is_none());

        let full = RrtStar::new(&s, &checker, SimbrIndex::moped(3), quick_params(150, 5)).plan();
        assert!(!full.stats.stopped_early);
        assert_eq!(early.path_cost.to_bits(), full.path_cost.to_bits());
        assert_eq!(early.stats.total_ops(), full.stats.total_ops());
    }

    #[test]
    fn deadline_expiry_returns_valid_best_so_far() {
        // A wall-clock deadline far shorter than the sampling budget must
        // cut the run short while leaving a sound tree and a usable
        // anytime result — the serving layer's liveness guarantee.
        use std::time::{Duration, Instant};
        let s = moped_env::Scenario::generate(
            Robot::drone_3d(),
            &ScenarioParams::with_obstacles(32),
            13,
        );
        let checker = TwoStageChecker::moped(s.obstacles.clone());
        let deadline = Instant::now() + Duration::from_millis(20);
        let params = quick_params(50_000_000, 4); // would run for hours
        let mut planner = RrtStar::new(&s, &checker, SimbrIndex::moped(6), params)
            .with_stop_hook(64, move || Instant::now() >= deadline);
        let result = planner.plan();
        assert!(result.stats.stopped_early, "deadline must fire");
        assert!(result.stats.samples < 50_000_000);
        assert!(planner.check_tree_invariants().is_none());
        assert_eq!(result.stats.nodes, planner.tree_snapshot().len());
        if let Some(path) = &result.path {
            assert_eq!(path[0], s.start);
            assert_eq!(*path.last().unwrap(), s.goal);
        }
    }

    #[test]
    fn seven_dof_arm_planning_runs() {
        let s =
            moped_env::Scenario::generate(Robot::xarm7(), &ScenarioParams::with_obstacles(8), 10);
        let checker = TwoStageChecker::moped(s.obstacles.clone());
        let params = PlannerParams {
            goal_tolerance: 0.8,
            ..quick_params(400, 12)
        };
        let mut planner = RrtStar::new(&s, &checker, SimbrIndex::moped(7), params);
        let result = planner.plan();
        assert!(result.stats.nodes > 1, "tree should grow in 7-DoF space");
        assert!(planner.check_tree_invariants().is_none());
    }
}
