//! The closed-loop planner workloads: one client thread plans back to
//! back, each plan issued as soon as the previous one returns.
//!
//! * `arm-clutter` — xarm7 on the corpus `clutter` and `dynamic` scenes,
//!   900 samples: collision-bound (most of a plan is spent checking
//!   motions), so FK, the R-tree broad phase and the SAT narrow phase
//!   show here and neighbor search barely does.
//! * `drone-sparse` — drone_3d in generated 8-obstacle scenes at the
//!   paper's 5 000-sample budget: neighbor-search-bound, so SI-MBR
//!   nearest/neighborhood/insert work shows here and barely moves
//!   `arm-clutter`.
//!
//! The scene set is fixed; `--seed` draws the planner seed of every plan.

use std::time::{Duration, Instant};

use moped_collision::TwoStageChecker;
use moped_core::{PlanResult, PlannerParams};
use moped_env::{Scenario, ScenarioParams};
use moped_robot::{Robot, RobotModel};
use moped_scenarios::{CorpusEntry, Family, CORPUS_SEEDS};
use moped_tune::{PlannerProfile, ProfileTable, RequestClass};

use crate::layers::{self, ServiceTimes};
use crate::loadgen::splitmix64;
use crate::oracle::{uncapped_steps, Oracle};
use crate::stack::{self, Request};
use crate::stats::{self, percentile};
use crate::trace::Recorder;
use crate::{median_setup, peak_rss_mb, Metric, Report};

/// A closed-loop planner workload.
#[derive(Clone, Copy)]
pub enum Kind {
    /// xarm7 in corpus clutter: collision-bound.
    ArmClutter,
    /// drone_3d among 8 obstacles at 5 000 samples: neighbor-bound.
    DroneSparse,
}

impl Kind {
    fn samples(self) -> usize {
        match self {
            Kind::ArmClutter => 900,
            Kind::DroneSparse => 5000,
        }
    }

    /// Requests of an untraced run, an equal number per scene: a pass over
    /// them takes a few seconds, so a run holds several passes.
    fn requests(self) -> usize {
        match self {
            Kind::ArmClutter => 48,
            Kind::DroneSparse => 64,
        }
    }

    fn scenes(self) -> Vec<(String, Scenario)> {
        match self {
            Kind::ArmClutter => [Family::Clutter, Family::Dynamic]
                .into_iter()
                .flat_map(|f| CORPUS_SEEDS.map(|s| CorpusEntry::new(f, RobotModel::XArm7, s)))
                .map(|e| (e.id(), e.build()))
                .collect(),
            Kind::DroneSparse => (1..=4)
                .map(|s| {
                    let params = ScenarioParams::with_obstacles(8);
                    let scene = Scenario::generate(Robot::drone_3d(), &params, s);
                    (format!("generate/drone_3d/o8/s{s}"), scene)
                })
                .collect(),
        }
    }
}

/// One scene, ready to plan in.
struct Scene {
    scenario: Scenario,
    checker: TwoStageChecker,
    oracle: Oracle,
    profile: PlannerProfile,
}

/// Everything built before timing starts.
struct Setup {
    ids: Vec<String>,
    scenes: Vec<Scene>,
}

fn setup(kind: Kind) -> Setup {
    let table = ProfileTable::static_default();
    let (mut ids, mut scenes) = (vec![], vec![]);
    for (id, scenario) in kind.scenes() {
        let checker = TwoStageChecker::moped(scenario.obstacles.clone());
        let profile = table
            .resolve(&RequestClass::of_scenario(&scenario).id())
            .profile;
        let oracle = Oracle::new(&scenario);
        ids.push(id);
        scenes.push(Scene {
            scenario,
            checker,
            oracle,
            profile,
        });
    }
    let s = Setup { ids, scenes };
    warm_up(&s, kind.samples());
    s
}

/// Job `i` plans in scene `i mod scenes` under the next planner seed.
struct Jobs {
    state: u64,
    next: usize,
    scenes: usize,
    samples: usize,
}

impl Jobs {
    fn new(seed: u64, scenes: usize, samples: usize) -> Jobs {
        Jobs {
            state: seed ^ 0x0A11_BE9C,
            next: 0,
            scenes,
            samples,
        }
    }
}

impl Iterator for Jobs {
    type Item = (usize, PlannerParams);

    fn next(&mut self) -> Option<Self::Item> {
        let scene = self.next % self.scenes;
        self.next += 1;
        let params = PlannerParams {
            max_samples: self.samples,
            seed: splitmix64(&mut self.state),
            ..PlannerParams::default()
        };
        Some((scene, params))
    }
}

fn request<'a>(s: &'a Setup, scene: usize, params: PlannerParams) -> Request<'a> {
    let sc = &s.scenes[scene];
    Request {
        scenario: &sc.scenario,
        checker: &sc.checker,
        profile: &sc.profile,
        params: PlannerParams {
            interpolation: Some(uncapped_steps(&sc.scenario.robot)),
            ..params
        },
    }
}

/// One request of the timed loop, planned once per pass.
struct Row {
    scene: usize,
    params: PlannerParams,
    /// Fastest wall time over the passes, ns.
    best_ns: u64,
    result: PlanResult,
}

/// Fewest passes over the requests. Passes repeat until the run's time
/// is up: co-tenants on a shared host slow it by up to half for
/// stretches of seconds, and each request's repeats lie a whole pass
/// apart, so its fastest one is timed on an undisturbed stretch.
const MIN_PASSES: usize = 2;

/// One short plan per scene, so lazy state and caches settle before
/// timing; part of set-up.
fn warm_up(s: &Setup, samples: usize) {
    for (scene, mut params) in Jobs::new(u64::MAX, s.scenes.len(), samples).take(s.scenes.len()) {
        params.max_samples = samples.min(300);
        stack::run(&request(s, scene, params));
    }
}

/// Oracle verdicts over `(scene, result)` pairs: the number of invalid
/// paths.
fn oracle_failures<'r>(
    s: &Setup,
    plans: impl Iterator<Item = (usize, &'r PlanResult)>,
    notes: &mut Vec<String>,
) -> u64 {
    let mut failed = 0;
    for (i, (scene, r)) in plans.enumerate() {
        let sc = &s.scenes[scene];
        let Some(path) = &r.path else { continue };
        if let Err(e) = sc.oracle.check(&sc.scenario, path, r.path_cost) {
            failed += 1;
            if failed <= 3 {
                notes.push(format!("plan {i} ({}): {e}", s.ids[scene]));
            }
        }
    }
    failed
}

/// The untraced run: end-to-end metrics. A fixed number of requests is
/// planned pass after pass, in the same order, until `seconds` are up;
/// every pass must reproduce every path. Each request is timed by its
/// fastest pass. One more set-up is timed after each pass, so the set-up
/// time, like the plan times, samples the whole run.
pub fn run(kind: Kind, seed: u64, seconds: f64) -> Report {
    let s = setup(kind);
    let mut setups = Vec::new();
    let start = Instant::now();
    let mut rows: Vec<Row> = Jobs::new(seed, s.scenes.len(), kind.samples())
        .take(kind.requests())
        .map(|(scene, params)| {
            let (result, best_ns) = stack::run(&request(&s, scene, params.clone()));
            Row {
                scene,
                params,
                best_ns,
                result,
            }
        })
        .collect();
    let mut pass_s = vec![rows.iter().map(|r| r.best_ns as f64 / 1e9).sum::<f64>()];
    let mut repeatable = true;
    let budget = Duration::from_secs_f64(seconds);
    // Passes end near the budget: the next one starts only if at least
    // half of it fits.
    let mut pass_start = start;
    while pass_s.len() < MIN_PASSES || start.elapsed() + pass_start.elapsed() / 2 < budget {
        pass_start = Instant::now();
        setups.push(median_setup(1, || setup(kind)).0);
        let mut total_ns = 0;
        for row in &mut rows {
            let (result, ns) = stack::run(&request(&s, row.scene, row.params.clone()));
            row.best_ns = row.best_ns.min(ns);
            total_ns += ns;
            repeatable &= result.path_cost.to_bits() == row.result.path_cost.to_bits();
        }
        pass_s.push(total_ns as f64 / 1e9);
    }
    let setup_s = percentile(&setups, 50.0);

    let mut notes = vec![format!(
        "{} passes over {} requests in {:.1} s, planning {:.2?} s per pass",
        pass_s.len(),
        rows.len(),
        start.elapsed().as_secs_f64(),
        pass_s,
    )];
    let failed = oracle_failures(&s, rows.iter().map(|r| (r.scene, &r.result)), &mut notes);
    let ms: Vec<f64> = rows.iter().map(|r| r.best_ns as f64 / 1e6).collect();
    let ratios: Vec<f64> = rows
        .iter()
        .filter(|r| r.result.solved())
        .map(|r| {
            let sc = &s.scenes[r.scene].scenario;
            r.result.path_cost / sc.start.distance(&sc.goal)
        })
        .collect();
    let n = rows.len() as f64;
    let tail = stats::tail(&ms);
    notes.push(format!(
        "fastest-pass plan wall: p50 {:.3} ms, p{} {:.3} ms over {} requests",
        percentile(&ms, 50.0),
        tail.pct,
        tail.value,
        tail.n
    ));
    Report {
        correct: !rows.is_empty() && repeatable,
        attempted: rows.len() as u64,
        failed,
        metrics: vec![
            Metric::new("plan_ms_iqm", stats::iqm(&ms), "ms"),
            Metric::new("plan_ms_p90", percentile(&ms, 90.0), "ms"),
            Metric::new("plans_per_s", 1e3 * n / ms.iter().sum::<f64>(), "1/s"),
            Metric::new("solved_frac", ratios.len() as f64 / n, "fraction"),
            Metric::new("path_cost_ratio_p50", percentile(&ratios, 50.0), "ratio"),
            Metric::new("ok_frac", 1.0 - failed as f64 / n, "fraction"),
            Metric::new("setup_s", setup_s, "s"),
            Metric::new("peak_rss_mb", peak_rss_mb(), "MB"),
        ],
        scenario_ids: s.ids.clone(),
        notes,
        spans: Vec::new(),
    }
}

/// Requests whose spans are written to the trace file.
const KEPT_PLANS: usize = 3;

/// The traced run: per-layer metrics, from the same requests planned
/// plain and decorated. The service, environment, tuner and
/// load-generator metrics read 0: a closed loop has none of those layers.
pub fn run_traced(kind: Kind, seed: u64, seconds: f64) -> Report {
    let s = setup(kind);
    let requests = Jobs::new(seed, s.scenes.len(), kind.samples())
        .enumerate()
        .map(|(i, (scene, params))| (i as u64, request(&s, scene, params)));
    let budget = Duration::from_secs_f64(seconds * 0.8);
    let p = stack::paired(requests, budget, KEPT_PLANS, &Recorder::default());
    let mut notes = p.notes;
    let scenes = s.scenes.len();
    let plans = p.plain.iter().enumerate().map(|(i, r)| (i % scenes, r));
    let failed = oracle_failures(&s, plans, &mut notes);
    let mut metrics = layers::planner_metrics(&p.ledger, &p.totals, &p.prices);
    metrics.extend(layers::service_metrics(&ServiceTimes::default()));
    metrics.extend(p.rc.metrics());
    Report {
        correct: p.correct,
        attempted: p.plain.len() as u64,
        failed,
        metrics,
        scenario_ids: s.ids.clone(),
        notes,
        spans: p.kept,
    }
}
