//! The served workload, `service-corpus`: requests from one generator
//! thread into a tuned `PlanService` with one worker per CPU. Requests
//! cycle through all 30 corpus scenes (3 robots × 5 families × 2 seeds,
//! 900 samples each). Plans are short and heavy-tailed, so admission,
//! queueing, stealing and response hand-off are a visible share of
//! latency here and absent from the planner workloads.
//!
//! The run is a few rounds of two phases: open-loop Poisson arrivals at
//! a fixed rate below capacity (latency is timed from each request's due
//! time, so generator stalls count against it), then a closed loop that
//! keeps the service above capacity (completions per second is the
//! capacity). Throughout, the generator swaps copies of the six `dynamic`
//! scenes to their next animation epoch at a fixed cadence: writes beside
//! the reads on the catalog.
//!
//! Requests never go to a swapped slot. A worker caches the checker of a
//! slot by the slot alone, not its epoch, so a request planned after a
//! swap can be planned against the obstacles of before, and whether it is
//! depends on timing. The traced run measures that separately and
//! deterministically (`env.stale_path_frac`).
//!
//! `BENCHMARK.json` does not list this workload. On a shared 2-vCPU
//! host its latency rests on how fast an idle vCPU wakes, which follows
//! the host's load: over ten runs the fixed-rate IQM latency ranged from
//! 0.57 to 1.14 ms. Its traced run still supplies the service, env, tune
//! and loadgen layer metrics of the traced `arm-clutter` run.

use std::ops::Range;
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use moped_collision::TwoStageChecker;
use moped_core::PlannerParams;
use moped_env::Scenario;
use moped_scenarios::{corpus, dynamic_epochs, CorpusEntry, Family};
use moped_service::{
    EnvId, EnvironmentCatalog, PlanOutcome, PlanRequest, PlanService, PlanTicket, ServiceConfig,
    Tuner,
};
use moped_tune::{CalibrationConfig, Calibrator, ProfileTable};

use crate::layers::{self, ServiceTimes};
use crate::loadgen::{poisson_schedule, splitmix64};
use crate::oracle::{uncapped_steps, Oracle};
use crate::stack::{self, Request};
use crate::stats::{self, percentile};
use crate::trace::{self, Recorder, Span};
use crate::{median_setup, peak_rss_mb, Metric, Report};

/// Offered rate of the latency phase: a fifth to a quarter of what two
/// workers complete on this mix (1 000–1 900 plans/s on 2 vCPUs), so
/// latency is mostly service time and hand-off rather than queueing
/// that would amplify machine noise.
const RATE_FIXED: f64 = 250.0;
/// Requests kept in flight in the saturation phase: enough to keep every
/// worker's queue non-empty, few enough to drain within `DRAIN`.
const SATURATION: usize = 64;
/// Admission bound; never reached unless the service stalls.
const QUEUE_CAPACITY: usize = 1 << 16;
/// Cadence of `swap_env` calls, s.
const SWAP_EVERY: f64 = 0.2;
/// Samples per plan.
const SAMPLES: usize = 900;
/// Start of the capacity window after the saturation phase begins, s
/// (the queue is still filling before it).
const CAPACITY_WARM: f64 = 0.25;
/// Time left at the end of each round for the saturation backlog to
/// drain before the next round's first request is due, s.
const DRAIN: f64 = 0.25;
/// Rounds of the run. Every round offers the same fixed-rate requests
/// (scenes, planner seeds and due offsets), so each request's latency is
/// its fastest round and the capacity is the best round's: co-tenants on
/// a shared host slow it for stretches of seconds, and rounds lie
/// seconds apart.
const ROUNDS: usize = 5;
/// Threads blocked on tickets. Each takes the oldest unclaimed ticket
/// and stamps its resolution when it wakes: more than the requests in
/// flight at the fixed rate nearly always, few enough to leave the CPUs
/// to the workers.
const WAITERS: usize = 4;
/// Dynamic snapshots used by the corpus itself are epochs 1..=4; swaps
/// install the epochs after them.
const FIRST_SWAP_EPOCH: usize = 5;

/// A catalog slot and every snapshot it held, indexed by epoch.
struct Slot {
    id: String,
    epochs: Vec<Scenario>,
    /// Snapshots not yet swapped in, next first.
    upcoming: Vec<Scenario>,
}

struct Setup {
    /// The corpus slots, which requests go to, then the swapped copies.
    slots: Vec<Slot>,
    /// Corpus slots: the first `requested` of `slots`.
    requested: usize,
    catalog: EnvironmentCatalog,
    env_ids: Vec<EnvId>,
    table: ProfileTable,
    calibrate_s: f64,
}

/// Snapshots `FIRST_SWAP_EPOCH..FIRST_SWAP_EPOCH + n` of a `dynamic`
/// corpus scene.
fn swap_epochs(e: &CorpusEntry, n: usize) -> Vec<Scenario> {
    dynamic_epochs(e.robot, e.seed, FIRST_SWAP_EPOCH + n, 2.5).split_off(FIRST_SWAP_EPOCH)
}

fn setup(swaps_per_slot: usize) -> Setup {
    let entries = corpus();
    let scenes: Vec<Scenario> = entries.iter().map(|e| e.build()).collect();
    let t = Instant::now();
    let mut cal = Calibrator::new(CalibrationConfig::default());
    for s in &scenes {
        cal.add_scenario(s);
    }
    let (table, _) = cal.calibrate();
    let calibrate_s = t.elapsed().as_secs_f64();
    let mut catalog = EnvironmentCatalog::new();
    let mut slots = Vec::new();
    let mut env_ids = Vec::new();
    for (e, scenario) in entries.iter().zip(&scenes) {
        env_ids.push(catalog.register(e.id(), scenario.clone()));
        slots.push(Slot {
            id: e.id(),
            epochs: vec![scenario.clone()],
            upcoming: Vec::new(),
        });
    }
    for (e, scenario) in entries.iter().zip(scenes) {
        if e.family != Family::Dynamic {
            continue;
        }
        let id = format!("{}+swapped", e.id());
        env_ids.push(catalog.register(id.clone(), scenario.clone()));
        slots.push(Slot {
            id,
            epochs: vec![scenario],
            upcoming: swap_epochs(e, swaps_per_slot),
        });
    }
    Setup {
        slots,
        requested: entries.len(),
        catalog,
        env_ids,
        table,
        calibrate_s,
    }
}

/// A request's index, due time and `submit` call.
#[derive(Clone, Copy)]
struct Issued {
    k: usize,
    /// Index in the fixed-rate schedule (`None` above capacity).
    job: Option<usize>,
    due: Instant,
    submit_start: Instant,
    submit_end: Instant,
}

/// A request in flight.
struct Pending {
    at: Issued,
    ticket: PlanTicket,
}

/// A resolved request.
struct Done {
    at: Issued,
    resolved: Instant,
    /// Worker time, including retries.
    service_time: Duration,
    failed: bool,
    /// Kept for fixed-rate requests only, and boxed: a saturation-phase
    /// record stays a few words, so peak memory barely grows with the
    /// measured capacity.
    outcome: Option<Box<PlanOutcome>>,
}

/// What one service run produced.
struct Served {
    done: Vec<Done>,
    params: Vec<PlannerParams>,
    rejected: u64,
    /// Requests in the fixed-rate schedule of each round.
    jobs: usize,
    /// Capacity window of each round.
    windows: Vec<Range<Instant>>,
    swaps: Vec<f64>,
}

fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Requests in flight, with a condition variable signalled whenever
/// one resolves.
type InFlight = (Mutex<usize>, Condvar);

/// Takes tickets in admission order, waits on each, stamps resolution;
/// outcomes of saturation-phase requests are reduced to their timing.
fn wait_tickets(rx: &Mutex<mpsc::Receiver<Pending>>, done: &Mutex<Vec<Done>>, flight: &InFlight) {
    loop {
        let next = rx.lock().expect("no waiter panics holding it").recv();
        let Ok(p) = next else { return };
        let outcome = p.ticket.wait();
        let resolved = Instant::now();
        let service_time = outcome
            .response()
            .map_or(Duration::ZERO, |r| r.service_time);
        done.lock()
            .expect("no waiter panics holding it")
            .push(Done {
                at: p.at,
                resolved,
                service_time,
                failed: outcome.is_failed(),
                outcome: p.at.job.map(|_| Box::new(outcome)),
            });
        *flight.0.lock().expect("no waiter panics holding it") -= 1;
        flight.1.notify_one();
    }
}

/// Sleeps until `t` (returns at once if it has passed).
fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// The load generator: issues requests in order and swaps the dynamic
/// slots on schedule.
struct Generator<'a> {
    service: &'a PlanService,
    s: &'a mut Setup,
    dynamic: Vec<usize>,
    start: Instant,
    next_swap: usize,
    swaps: Vec<f64>,
    rejected: u64,
    rng: u64,
    /// Parameters of every request issued, by `k`.
    params: Vec<PlannerParams>,
    /// Parameters of the fixed-rate schedule, by job.
    job_params: Vec<PlannerParams>,
    tx: mpsc::Sender<Pending>,
    flight: &'a InFlight,
}

impl Generator<'_> {
    fn at(&self, t: f64) -> Instant {
        self.start + Duration::from_secs_f64(t)
    }

    /// Performs every swap due by `t` s after the start, each at its
    /// time (swaps stop at `end`).
    fn swaps_until(&mut self, t: f64, end: f64) {
        loop {
            let swap_t = SWAP_EVERY * (self.next_swap + 1) as f64;
            if swap_t > t || swap_t >= end {
                return;
            }
            sleep_until(self.at(swap_t));
            let i = self.dynamic[self.next_swap % self.dynamic.len()];
            let slot = &mut self.s.slots[i];
            let scenario = slot.upcoming.remove(0);
            let t0 = Instant::now();
            let epoch = self.service.swap_env(self.s.env_ids[i], scenario.clone());
            self.swaps.push(t0.elapsed().as_nanos() as f64);
            assert_eq!(epoch, Ok(slot.epochs.len() as u64), "epochs are dense");
            slot.epochs.push(scenario);
            self.next_swap += 1;
        }
    }

    /// Submits fixed-rate job `job` (scene `job mod 30`, the job's
    /// planner seed) or, for `None`, a saturation-phase request (scene
    /// `k mod 30`, the next planner seed), due at `due`.
    fn issue(&mut self, due: Instant, job: Option<usize>) {
        let k = self.params.len();
        let slot = job.unwrap_or(k) % self.s.requested;
        let params = PlannerParams {
            interpolation: Some(uncapped_steps(&self.s.slots[slot].epochs[0].robot)),
            ..match job {
                Some(j) => self.job_params[j].clone(),
                None => plan_params(&mut self.rng),
            }
        };
        self.params.push(params.clone());
        let env = self.s.env_ids[slot];
        let submit_start = Instant::now();
        match self.service.submit(PlanRequest::new(env, params)) {
            Ok(ticket) => {
                *self.flight.0.lock().expect("no waiter panics holding it") += 1;
                let at = Issued {
                    k,
                    job,
                    due,
                    submit_start,
                    submit_end: Instant::now(),
                };
                self.tx
                    .send(Pending { at, ticket })
                    .expect("waiters outlive the generator");
            }
            Err(_) => self.rejected += 1,
        }
    }

    /// Blocks until at most `n` requests are in flight.
    fn wait_in_flight(&self, n: usize) {
        let mut f = self.flight.0.lock().expect("no waiter panics holding it");
        while *f > n {
            f = self.flight.1.wait(f).expect("no waiter panics holding it");
        }
    }
}

/// Budget and a fresh planner seed for one request.
fn plan_params(rng: &mut u64) -> PlannerParams {
    PlannerParams {
        max_samples: SAMPLES,
        seed: splitmix64(rng),
        ..PlannerParams::default()
    }
}

/// Runs `ROUNDS` rounds in `seconds`, each a fixed-rate phase and a
/// saturation phase of equal length, the latter drained before the next
/// round; shuts the service down once every ticket resolved.
fn serve(s: &mut Setup, seed: u64, seconds: f64) -> Served {
    let round = seconds / ROUNDS as f64;
    let fixed_due = poisson_schedule(seed ^ 0xA11, RATE_FIXED, round / 2.0);
    let mut rng = seed ^ 0x5EED;
    let job_params = fixed_due.iter().map(|_| plan_params(&mut rng)).collect();
    let dynamic: Vec<usize> = (0..s.slots.len())
        .filter(|&i| !s.slots[i].upcoming.is_empty())
        .collect();
    let service = PlanService::start(
        std::mem::take(&mut s.catalog),
        ServiceConfig {
            workers: workers(),
            queue_capacity: QUEUE_CAPACITY,
            tuner: Some(Arc::new(Tuner::new(s.table.clone()))),
            ..ServiceConfig::default()
        },
    );
    let (tx, rx) = mpsc::channel::<Pending>();
    let (rx, done) = (Mutex::new(rx), Mutex::new(Vec::new()));
    let flight: InFlight = (Mutex::new(0), Condvar::new());
    let (g_swaps, rejected, params, windows) = std::thread::scope(|scope| {
        for _ in 0..WAITERS {
            scope.spawn(|| wait_tickets(&rx, &done, &flight));
        }
        let mut g = Generator {
            service: &service,
            s,
            dynamic,
            start: Instant::now(),
            next_swap: 0,
            swaps: Vec::new(),
            rejected: 0,
            rng,
            params: Vec::new(),
            job_params,
            tx,
            flight: &flight,
        };
        let mut windows = Vec::new();
        for r in 0..ROUNDS {
            let r0 = round * r as f64;
            // Open loop: each request is due at its scheduled time.
            for (j, &t) in fixed_due.iter().enumerate() {
                g.swaps_until(r0 + t, seconds);
                sleep_until(g.at(r0 + t));
                g.issue(g.at(r0 + t), Some(j));
            }
            // Closed loop above capacity: the next request is issued as
            // soon as fewer than `SATURATION` are in flight.
            let (b0, b1) = (r0 + round / 2.0, r0 + round - DRAIN);
            g.swaps_until(b0, seconds);
            sleep_until(g.at(b0));
            while Instant::now() < g.at(b1) {
                g.wait_in_flight(SATURATION - 1);
                let now = g.start.elapsed().as_secs_f64();
                g.swaps_until(now, seconds);
                g.issue(Instant::now(), None);
            }
            windows.push(g.at(b0 + CAPACITY_WARM)..g.at(b1));
            g.wait_in_flight(0);
        }
        (g.swaps, g.rejected, g.params, windows)
    });
    let done = done.into_inner().expect("waiters joined");
    service.shutdown();
    Served {
        done,
        params,
        rejected,
        jobs: fixed_due.len(),
        windows,
        swaps: g_swaps,
    }
}

/// Oracle pass over every served path, against the snapshot of the
/// epoch stamped in its response. Returns the number of invalid paths.
fn oracle_failures(s: &Setup, served: &Served, notes: &mut Vec<String>) -> u64 {
    let oracles: Vec<Vec<Oracle>> = s
        .slots
        .iter()
        .map(|slot| slot.epochs.iter().map(Oracle::new).collect())
        .collect();
    let mut invalid = 0;
    for d in &served.done {
        let Some(r) = d.outcome.as_deref().and_then(PlanOutcome::response) else {
            continue;
        };
        let Some(path) = &r.result.path else { continue };
        let slot = r.env.index();
        let scenario = &s.slots[slot].epochs[r.epoch as usize];
        if let Err(e) = oracles[slot][r.epoch as usize].check(scenario, path, r.result.path_cost) {
            invalid += 1;
            if invalid <= 3 {
                notes.push(format!(
                    "request {} ({} epoch {}): {e}",
                    d.at.k, s.slots[slot].id, r.epoch
                ));
            }
        }
    }
    invalid
}

/// Requests after each swap in the stale-path probe.
const STALE_PROBES: usize = 4;

/// The checker-cache probe: a one-worker service plans once in each
/// `dynamic` scene, so the worker caches its checker; the scene is
/// swapped to its next epoch; the requests planned after the swap are
/// checked against the new snapshot. Returns the share of their solved
/// paths the oracle refutes. One worker makes it independent of timing.
fn stale_path_frac(seed: u64) -> f64 {
    let mut catalog = EnvironmentCatalog::new();
    let mut swaps = Vec::new();
    for e in corpus().iter().filter(|e| e.family == Family::Dynamic) {
        let env = catalog.register(format!("{}+probe", e.id()), e.build());
        swaps.push((env, swap_epochs(e, 1).remove(0)));
    }
    let service = PlanService::start(
        catalog,
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
    );
    let mut rng = seed ^ 0x57A1E;
    let (mut refuted, mut solved) = (0u32, 0u32);
    for (env, next) in swaps {
        let oracle = Oracle::new(&next);
        let plan = |rng: &mut u64| {
            let params = PlannerParams {
                interpolation: Some(uncapped_steps(&next.robot)),
                ..plan_params(rng)
            };
            let ticket = service.submit(PlanRequest::new(env, params));
            ticket.expect("an idle service admits").wait()
        };
        let _cached = plan(&mut rng);
        service
            .swap_env(env, next.clone())
            .expect("a registered slot");
        for _ in 0..STALE_PROBES {
            let outcome = plan(&mut rng);
            let Some(r) = outcome.response() else {
                continue;
            };
            let Some(path) = &r.result.path else { continue };
            solved += 1;
            refuted += u32::from(oracle.check(&next, path, r.result.path_cost).is_err());
        }
    }
    service.shutdown();
    f64::from(refuted) / f64::from(solved.max(1))
}

/// Rejections, failed tickets and oracle-refuted paths: over all
/// requests, and over the fixed-rate requests (the only ones whose paths
/// are kept and checked).
fn failures(s: &Setup, served: &Served, notes: &mut Vec<String>) -> (u64, u64) {
    let invalid = oracle_failures(s, served, notes);
    let failed = |fixed_only: bool| {
        let tickets = served
            .done
            .iter()
            .filter(|d| d.failed && (!fixed_only || d.at.job.is_some()));
        served.rejected + tickets.count() as u64 + invalid
    };
    (failed(false), failed(true))
}

/// A served request to replay serially.
struct Replayable {
    k: usize,
    slot: usize,
    profile: moped_tune::PlannerProfile,
    cost: f64,
}

fn replay_request<'a>(
    s: &'a Setup,
    checkers: &'a [TwoStageChecker],
    params: &[PlannerParams],
    item: &'a Replayable,
) -> Request<'a> {
    Request {
        scenario: &s.slots[item.slot].epochs[0],
        checker: &checkers[item.slot],
        profile: &item.profile,
        params: params[item.k].clone(),
    }
}

/// ns from `a` to `b`.
fn ns_between(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_nanos() as f64
}

/// Request-path timings of the fixed-rate phase (and service time of
/// the overload phase).
fn service_times(s: &Setup, served: &Served) -> ServiceTimes {
    let mut t = ServiceTimes {
        swap: served.swaps.clone(),
        calibrate_s: s.calibrate_s,
        ..ServiceTimes::default()
    };
    for d in served.done.iter().filter(|d| !d.failed) {
        let st = d.service_time.as_nanos() as f64;
        let Some(r) = d.outcome.as_deref().and_then(PlanOutcome::response) else {
            t.service_sat.push(st);
            continue;
        };
        let (lag, admit) = (
            ns_between(d.at.due, d.at.submit_start),
            ns_between(d.at.submit_start, d.at.submit_end),
        );
        let (qw, latency) = (
            r.queue_wait.as_nanos() as f64,
            ns_between(d.at.due, d.resolved),
        );
        t.lag.push(lag);
        t.admit.push(admit);
        t.queue.push(qw);
        t.service.push(st);
        t.latency.push(latency);
        t.handoff.push((latency - lag - admit - qw - st).max(0.0));
    }
    t
}

/// Swaps each dynamic slot sees in a run of `seconds`.
fn swaps_per_slot(seconds: f64) -> usize {
    (seconds / SWAP_EVERY / 6.0).ceil() as usize + 1
}

/// Per fixed-rate job: its fastest latency over the rounds, ms
/// (infinite if it failed in every round). Also checks that every round
/// planned the job's request bit-identically while its snapshot was
/// never swapped.
fn best_latency(served: &Served, notes: &mut Vec<String>) -> (Vec<f64>, bool) {
    let mut best = vec![f64::INFINITY; served.jobs];
    let mut cost: Vec<Option<u64>> = vec![None; served.jobs];
    let mut repeatable = true;
    for d in served.done.iter().filter(|d| !d.failed) {
        let Some(j) = d.at.job else { continue };
        best[j] = best[j].min(ns_between(d.at.due, d.resolved) / 1e6);
        let Some(r) = d.outcome.as_deref().and_then(PlanOutcome::response) else {
            continue;
        };
        if r.epoch == 0 {
            let bits = r.result.path_cost.to_bits();
            if *cost[j].get_or_insert(bits) != bits {
                repeatable = false;
                notes.push(format!("job {j}: rounds planned different paths"));
            }
        }
    }
    (best, repeatable)
}

/// The untraced run: end-to-end metrics.
pub fn run(seed: u64, seconds: f64) -> Report {
    let (setup_s, mut s) = median_setup(5, || setup(swaps_per_slot(seconds)));
    let served = serve(&mut s, seed, seconds);
    let mut notes = Vec::new();
    let (failed, failed_fixed) = failures(&s, &served, &mut notes);
    let attempted = served.params.len() as u64;
    let (best, repeatable) = best_latency(&served, &mut notes);
    let latency_ms: Vec<f64> = best.into_iter().filter(|l| l.is_finite()).collect();

    // Capacity: completions per second in the best round's window.
    let per_round: Vec<f64> = served
        .windows
        .iter()
        .map(|w| {
            let completed = served.done.iter().filter(|d| w.contains(&d.resolved));
            completed.count() as f64 / (w.end - w.start).as_secs_f64()
        })
        .collect();
    let capacity = per_round.iter().copied().fold(0.0, f64::max);
    let ratios: Vec<f64> = served
        .done
        .iter()
        .filter_map(|d| d.outcome.as_deref().and_then(PlanOutcome::response))
        .filter(|r| r.result.solved())
        .map(|r| {
            let sc = &s.slots[r.env.index()].epochs[r.epoch as usize];
            r.result.path_cost / sc.start.distance(&sc.goal)
        })
        .collect();
    let n = (served.jobs * ROUNDS) as f64;
    let tail = stats::tail(&latency_ms);
    notes.push(format!(
        "fastest-round latency at {RATE_FIXED}/s: p50 {:.3} ms, p{} {:.3} ms over {} requests; \
         capacity per round {:.0?}/s",
        percentile(&latency_ms, 50.0),
        tail.pct,
        tail.value,
        tail.n,
        per_round,
    ));
    Report {
        correct: repeatable && served.done.len() as u64 + served.rejected == attempted,
        attempted,
        failed,
        metrics: vec![
            Metric::new("plan_ms_iqm", stats::iqm(&latency_ms), "ms"),
            Metric::new("plan_ms_p90", percentile(&latency_ms, 90.0), "ms"),
            Metric::new("plans_per_s", capacity, "1/s"),
            Metric::new("solved_frac", ratios.len() as f64 / n, "fraction"),
            Metric::new("path_cost_ratio_p50", percentile(&ratios, 50.0), "ratio"),
            Metric::new("ok_frac", 1.0 - failed_fixed as f64 / n, "fraction"),
            Metric::new("setup_s", setup_s, "s"),
            Metric::new("peak_rss_mb", peak_rss_mb(), "MB"),
        ],
        scenario_ids: s.slots.iter().map(|slot| slot.id.clone()).collect(),
        notes,
        spans: Vec::new(),
    }
}

/// Requests whose spans are written to the trace file.
const KEPT: usize = 3;

/// The traced run: a shorter service run for the request-path layers,
/// then the served fixed-rate requests on never-swapped snapshots
/// replayed serially, plain and decorated, for the planner layers.
pub fn run_traced(seed: u64, seconds: f64) -> Report {
    let mut s = setup(swaps_per_slot(seconds));
    // One recorder for the served and the replayed spans, created first
    // so that every instant of the service run has an offset from it.
    let rec = Recorder::default();
    let served = serve(&mut s, seed, seconds * 0.5);
    let mut notes = Vec::new();
    let (failed, _) = failures(&s, &served, &mut notes);
    let (_, repeatable) = best_latency(&served, &mut notes);
    let times = ServiceTimes {
        stale_path_frac: stale_path_frac(seed),
        ..service_times(&s, &served)
    };
    let mut kept: Vec<Span> = Vec::new();
    for d in served.done.iter().filter(|d| d.at.k < KEPT) {
        let Some(r) = d.outcome.as_deref().and_then(PlanOutcome::response) else {
            continue;
        };
        rec.set_id(d.at.k as u64);
        let ns = |t: Instant| rec.ns_of(t);
        let root = rec.record("request", ns(d.at.due), ns(d.resolved), None);
        rec.record(
            "loadgen.lag",
            ns(d.at.due),
            ns(d.at.submit_start),
            Some(root),
        );
        rec.record(
            "service.admit",
            ns(d.at.submit_start),
            ns(d.at.submit_end),
            Some(root),
        );
        let dequeued = d.at.submit_end + r.queue_wait;
        rec.record(
            "service.queue",
            ns(d.at.submit_end),
            ns(dequeued),
            Some(root),
        );
        rec.record(
            "service.plan",
            ns(dequeued),
            ns(dequeued + r.service_time),
            Some(root),
        );
        trace::append(&mut kept, rec.take());
    }
    let empty = kept.iter().filter(|span| span.end <= span.start).count();
    if empty > 0 {
        notes.push(format!("{empty} request-path spans have no duration"));
    }

    // Serial replay of served requests whose snapshot was never swapped.
    let checkers: Vec<TwoStageChecker> = s
        .slots
        .iter()
        .map(|slot| TwoStageChecker::moped(slot.epochs[0].obstacles.clone()))
        .collect();
    let replayable: Vec<Replayable> = served
        .done
        .iter()
        .filter(|d| d.at.k < served.jobs)
        .filter_map(|d| {
            let r = d.outcome.as_deref()?.response().filter(|r| r.epoch == 0)?;
            Some(Replayable {
                k: d.at.k,
                slot: r.env.index(),
                profile: r.profile.as_ref()?.profile.clone(),
                cost: r.result.path_cost,
            })
        })
        .collect();
    let request = |item| replay_request(&s, &checkers, &served.params, item);
    let requests = replayable.iter().map(|item| (item.k as u64, request(item)));
    let budget = Duration::from_secs_f64(seconds * 0.4);
    let p = stack::paired(requests, budget, KEPT, &rec);
    notes.extend(p.notes);
    trace::append(&mut kept, p.kept);
    let mut correct = p.correct
        && repeatable
        && empty == 0
        && served.done.len() as u64 + served.rejected == served.params.len() as u64;
    for (item, row) in replayable.iter().zip(&p.plain) {
        if row.path_cost.to_bits() != item.cost.to_bits() {
            correct = false;
            notes.push(format!(
                "request {}: serial replay differs from served plan",
                item.k
            ));
        }
    }

    let mut metrics = layers::planner_metrics(&p.ledger, &p.totals, &p.prices);
    metrics.extend(layers::service_metrics(&times));
    metrics.extend(p.rc.metrics());
    Report {
        correct,
        attempted: served.params.len() as u64,
        failed,
        metrics,
        scenario_ids: s.slots.iter().map(|slot| slot.id.clone()).collect(),
        notes,
        spans: kept,
    }
}
