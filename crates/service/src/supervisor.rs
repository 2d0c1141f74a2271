//! Worker-pool supervision and the panic-isolated worker loop.
//!
//! Each planning attempt runs inside `catch_unwind`, so a panicking
//! request resolves as a typed [`PlanOutcome::Failed`] response instead
//! of taking the worker (and every in-flight ticket) with it. Panics
//! that do escape the guard — deliberate worker-kill faults, or bugs in
//! the loop itself — are absorbed by the supervisor: a monitor thread
//! joins the dead worker and respawns a replacement in the same slot,
//! so pool capacity is never silently lost.

use std::any::Any;
use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, Once};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use moped_collision::{CollisionChecker, NaiveChecker};
use moped_core::{CollisionStage, PlanResult, PlanStats, PlannerProfile};

use crate::fault::{FaultKind, FaultPlan, FaultSite};
use crate::metrics::Metrics;
use crate::queue::{lock_ignore_poison, JobQueue};
use crate::{FailureReason, Job, Outcome, PlanFailure, PlanOutcome, PlanResponse, RetryPolicy};

/// How often the monitor thread scans the pool for dead workers.
const MONITOR_POLL: Duration = Duration::from_millis(2);

/// Sampling rounds between a plan's deadline/cancellation polls.
const STOP_POLL_EVERY: usize = 64;

/// State shared by every worker, the monitor, and the service handle.
pub(crate) struct WorkerShared {
    /// The bounded admission queue.
    pub(crate) queue: Arc<JobQueue>,
    pub(crate) metrics: Arc<Metrics>,
    pub(crate) retry: RetryPolicy,
    pub(crate) faults: Option<Arc<FaultPlan>>,
    /// Set (before the queue closes) to tell the monitor that worker
    /// exits are expected and must not trigger respawns.
    pub(crate) shutting_down: AtomicBool,
}

thread_local! {
    /// Set around code whose panics are expected (the per-job guard,
    /// injected worker kills) so the process-wide hook stays silent for
    /// them while genuine panics elsewhere still report normally.
    static QUIET_PANICS: Cell<bool> = const { Cell::new(false) };
}

/// Installs (once per process) a panic hook that suppresses output for
/// panics the serving layer expects and handles; all other panics are
/// forwarded to the previously installed hook.
pub(crate) fn install_quiet_panic_hook() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !QUIET_PANICS.with(Cell::get) {
                previous(info);
            }
        }));
    });
}

/// Runs `f` under `catch_unwind` with panic output suppressed.
fn catch_quietly<R>(f: impl FnOnce() -> R) -> Result<R, Box<dyn Any + Send>> {
    QUIET_PANICS.with(|q| q.set(true));
    let out = panic::catch_unwind(AssertUnwindSafe(f));
    QUIET_PANICS.with(|q| q.set(false));
    out
}

/// Extracts a human-readable message from a panic payload.
fn panic_message(payload: Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The worker pool plus its monitor thread.
pub(crate) struct Pool {
    slots: Arc<Mutex<Vec<Option<JoinHandle<()>>>>>,
    monitor: Option<JoinHandle<()>>,
    shared: Arc<WorkerShared>,
}

impl Pool {
    /// Spawns `workers` worker threads and the monitor that keeps that
    /// many alive until shutdown.
    pub(crate) fn start(workers: usize, shared: Arc<WorkerShared>) -> Self {
        let slots: Vec<Option<JoinHandle<()>>> = (0..workers)
            .map(|idx| Some(spawn_worker(idx, &shared)))
            .collect();
        let slots = Arc::new(Mutex::new(slots));
        let monitor = {
            let slots = Arc::clone(&slots);
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("moped-supervisor".into())
                .spawn(move || monitor_loop(&slots, &shared))
                // moped-lint: allow(panic-path) OS thread-spawn failure at startup is resource exhaustion with no caller to report to; no request is in flight yet
                .expect("spawning the supervisor thread")
        };
        Pool {
            slots,
            monitor: Some(monitor),
            shared,
        }
    }

    /// Number of worker threads currently running.
    pub(crate) fn alive(&self) -> usize {
        lock_ignore_poison(&self.slots)
            .iter()
            .filter(|slot| slot.as_ref().is_some_and(|h| !h.is_finished()))
            .count()
    }

    /// Marks the pool as shutting down and stops the monitor, so worker
    /// exits from here on are treated as expected (no respawns).
    pub(crate) fn begin_shutdown(&mut self) {
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        if let Some(monitor) = self.monitor.take() {
            monitor.thread().unpark();
            let _ = monitor.join();
        }
    }

    /// Joins every worker thread. Call after the queue is closed.
    pub(crate) fn join_workers(&mut self) {
        let handles: Vec<JoinHandle<()>> = lock_ignore_poison(&self.slots)
            .iter_mut()
            .filter_map(Option::take)
            .collect();
        for handle in handles {
            let _ = handle.join();
        }
    }

    /// Resolves any jobs still sitting in the queue after every worker
    /// has exited (possible only when the whole pool died during a
    /// drain): each leftover ticket gets a typed shutdown failure
    /// instead of hanging forever.
    pub(crate) fn fail_leftovers(&self) {
        for job in self.shared.queue.drain_remaining() {
            self.shared.metrics.queue_left();
            self.shared.metrics.inc_failed();
            let failure = PlanFailure {
                id: job.id,
                env: job.env_id,
                reason: FailureReason::ShutdownDrained,
                attempts: 0,
            };
            job.respond.send(PlanOutcome::Failed(failure));
        }
    }
}

/// Monitor: scan the pool, respawn any dead worker in place, and join
/// the corpses only after releasing the slot table — `join` can block
/// on thread teardown, and `alive()`/`join_workers()` contend for the
/// same lock.
fn monitor_loop(slots: &Mutex<Vec<Option<JoinHandle<()>>>>, shared: &Arc<WorkerShared>) {
    while !shared.shutting_down.load(Ordering::SeqCst) {
        let mut dead: Vec<JoinHandle<()>> = Vec::new();
        {
            let mut slots = lock_ignore_poison(slots);
            for (idx, slot) in slots.iter_mut().enumerate() {
                if let Some(handle) = slot.take_if(|h| h.is_finished()) {
                    dead.push(handle);
                    shared.metrics.inc_worker_respawns();
                    *slot = Some(spawn_worker(idx, shared));
                }
            }
        }
        for handle in dead {
            // Join result intentionally discarded: the worker is dead
            // either way, and the panic payload (if any) was already
            // surfaced through the job's ticket.
            let _ = handle.join();
        }
        thread::park_timeout(MONITOR_POLL);
    }
}

fn spawn_worker(worker_idx: usize, shared: &Arc<WorkerShared>) -> JoinHandle<()> {
    let shared = Arc::clone(shared);
    thread::Builder::new()
        .name(format!("moped-worker-{worker_idx}"))
        .spawn(move || worker_loop(worker_idx, &shared))
        // moped-lint: allow(panic-path) OS thread-spawn failure is resource exhaustion; returning an error here would leave the slot silently empty, which is worse than failing loudly
        .expect("spawning a worker thread")
}

/// Fires any configured fault at a site that lies *outside* the per-job
/// panic guard: an injected panic here unwinds the worker thread itself
/// (quietly — the death is the point, not the backtrace).
fn apply_worker_fault(shared: &WorkerShared, site: FaultSite) {
    let Some(plan) = shared.faults.as_deref() else {
        return;
    };
    match plan.fire(site) {
        None | Some(FaultKind::QueueFull) => {}
        Some(FaultKind::Delay(d)) => {
            shared.metrics.inc_faults_injected();
            thread::sleep(d);
        }
        Some(FaultKind::Panic) => {
            shared.metrics.inc_faults_injected();
            QUIET_PANICS.with(|q| q.set(true));
            // moped-lint: allow(panic-path) chaos injection: the panic IS the configured fault; inert unless a FaultPlan is installed
            panic!("{}", FaultPlan::panic_message(site));
        }
    }
}

/// A worker: pull the oldest job off the queue, serve it
/// (panic-isolated, with retries), repeat until the queue closes.
fn worker_loop(worker_idx: usize, shared: &Arc<WorkerShared>) {
    // `None`: the queue is closed and drained, a graceful exit.
    while let Some(job) = shared.queue.pop_blocking() {
        // The job left the queue the moment it was popped: settle the
        // gauge before any kill site can take this worker down, so a
        // death between pop and serve cannot leak queue depth.
        shared.metrics.queue_left();
        serve_job(worker_idx, job, shared);
    }
}

/// Serves one job: planning attempts under `catch_unwind`, bounded
/// retries per policy, and exactly one resolution on the ticket's slot —
/// unless a worker-kill fault fires, in which case the dropped responder
/// itself resolves the ticket as `WorkerDied`.
fn serve_job(worker_idx: usize, job: Job, shared: &WorkerShared) {
    // The caller already settled the queue-depth gauge at pop time.
    let metrics = &shared.metrics;
    let started = Instant::now();
    // Queue wait is admission → dequeue, sampled before any attempt
    // runs, so planning time can never leak into it.
    let queue_wait = started.duration_since(job.enqueued);
    metrics.record_queue_wait(queue_wait);

    apply_worker_fault(shared, FaultSite::Dequeue);

    let mut attempt: u32 = 0;
    let mut last_panic: Option<String> = None;
    let result = loop {
        attempt += 1;
        let attempt_result = catch_quietly(|| {
            if let Some(plan) = shared.faults.as_deref() {
                match plan.fire(FaultSite::Planning) {
                    None | Some(FaultKind::QueueFull) => {}
                    Some(FaultKind::Delay(d)) => {
                        shared.metrics.inc_faults_injected();
                        thread::sleep(d);
                    }
                    Some(FaultKind::Panic) => {
                        shared.metrics.inc_faults_injected();
                        // moped-lint: allow(panic-path) chaos injection: this panic exercises the per-attempt catch_unwind guard
                        panic!("{}", FaultPlan::panic_message(FaultSite::Planning));
                    }
                }
            }
            execute(&job, started)
        });
        match attempt_result {
            Ok(result) => break result,
            Err(payload) => {
                let message = panic_message(payload);
                metrics.inc_panics_caught();

                // Planning is deterministic in (env, profile, params),
                // so a repeat of the *same* panic will not heal on its
                // own: retry once to rule out a transient cause, then
                // give up as soon as the failure proves itself stable.
                let identical = last_panic.as_deref() == Some(message.as_str());
                let deadline_blown = job.deadline_at.is_some_and(|d| Instant::now() >= d);
                if attempt < shared.retry.max_attempts && !identical && !deadline_blown {
                    metrics.inc_retries();
                    last_panic = Some(message);
                    let pause = retry_pause(&shared.retry, job.id, attempt);
                    if !pause.is_zero() {
                        thread::sleep(pause);
                    }
                    continue;
                }

                metrics.inc_failed();
                metrics.record_service_latency(started.elapsed());
                apply_worker_fault(shared, FaultSite::Respond);
                // A dropped ticket just discards the resolution.
                let failure = PlanFailure {
                    id: job.id,
                    env: job.env_id,
                    reason: FailureReason::Panic { message },
                    attempts: attempt,
                };
                job.respond.send(PlanOutcome::Failed(failure));
                return;
            }
        }
    };

    let outcome = if result.stats.stopped_early {
        if job.cancel.load(Ordering::Relaxed) {
            metrics.inc_cancelled();
            Outcome::Cancelled
        } else {
            metrics.inc_deadline_expired();
            Outcome::DeadlineExpired
        }
    } else {
        metrics.inc_completed();
        Outcome::Completed
    };
    metrics.record_stats(&result.stats, result.solved());
    // Spans every attempt, including retry backoff.
    let service_time = started.elapsed();
    metrics.record_service_latency(service_time);

    apply_worker_fault(shared, FaultSite::Respond);
    let response = PlanResponse {
        id: job.id,
        env: job.env_id,
        epoch: job.env.epoch,
        outcome,
        result,
        queue_wait,
        service_time,
        worker: worker_idx,
        attempts: attempt,
        profile: job.profile.clone(),
    };
    job.respond.send(PlanOutcome::Served(response));
}

/// Backoff before retry `attempt` of job `id`: the fixed base plus a
/// deterministic per-(job, attempt) fraction of the jitter bound.
fn retry_pause(policy: &RetryPolicy, id: u64, attempt: u32) -> Duration {
    let mut pause = policy.backoff;
    if !policy.jitter.is_zero() {
        let mut state = id
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(u64::from(attempt));
        pause += policy.jitter.mul_f64(splitmix64(&mut state));
    }
    pause
}

/// One step of splitmix64, folded to a float in `[0, 1)`.
fn splitmix64(state: &mut u64) -> f64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// Runs one request's plan on its profile's stack: the admission-time
/// resolution's profile, or the static default on untuned services. The
/// two-stage checker is the one the job's snapshot was built with, so
/// the result is byte-identical to a serial `PlannerProfile::plan` run
/// on the same inputs.
fn execute(job: &Job, started: Instant) -> PlanResult {
    // Deadline already blown while queued: answer immediately with an
    // empty best-so-far result instead of burning worker time.
    if job.deadline_at.is_some_and(|d| started >= d) {
        return PlanResult {
            path: None,
            path_cost: f64::INFINITY,
            stats: PlanStats {
                stopped_early: true,
                ..PlanStats::default()
            },
        };
    }

    let scenario = &job.env.scenario;
    let profile = job
        .profile
        .as_ref()
        .map_or_else(PlannerProfile::static_default, |r| r.profile.clone());
    let cancel = Arc::clone(&job.cancel);
    let deadline_at = job.deadline_at;
    let stop =
        move || cancel.load(Ordering::Relaxed) || deadline_at.is_some_and(|d| Instant::now() >= d);

    let naive;
    let checker: &dyn CollisionChecker = match profile.collision {
        CollisionStage::TwoStage => &job.env.checker,
        CollisionStage::Naive => {
            naive = NaiveChecker::new(scenario.obstacles.clone());
            &naive
        }
    };

    let result = profile
        .planner(scenario, checker, &job.params)
        .with_stop_hook(STOP_POLL_EVERY, stop)
        .plan();
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_unit_range() {
        let mut a = 42u64;
        let mut b = 42u64;
        let (x, y) = (splitmix64(&mut a), splitmix64(&mut b));
        assert_eq!(x, y);
        assert!((0.0..1.0).contains(&x));
        // Streams advance.
        assert_ne!(splitmix64(&mut a), x);
    }

    #[test]
    fn retry_pause_is_bounded_by_backoff_plus_jitter() {
        let policy = RetryPolicy {
            max_attempts: 3,
            backoff: Duration::from_millis(4),
            jitter: Duration::from_millis(2),
        };
        for id in 0..64u64 {
            let p = retry_pause(&policy, id, 1);
            assert!(p >= Duration::from_millis(4));
            assert!(p < Duration::from_millis(6));
        }
        // Deterministic per (id, attempt).
        assert_eq!(retry_pause(&policy, 7, 2), retry_pause(&policy, 7, 2));
    }

    #[test]
    fn panic_messages_downcast() {
        install_quiet_panic_hook();
        let p = catch_quietly(|| panic!("boom")).unwrap_err();
        assert_eq!(panic_message(p), "boom");
        let p = catch_quietly(|| panic!("{}", String::from("owned"))).unwrap_err();
        assert_eq!(panic_message(p), "owned");
    }
}
