//! The panic-isolated worker pool.
//!
//! A worker runs everything it does for one job inside one
//! `catch_unwind`: queue-wait sampling, the [`FaultSite::Planning`]
//! fault site, the plan itself, building the [`PlanResponse`] and the
//! outcome counters. The job's response sender stays outside the guard
//! and sends exactly once: the response, or a typed
//! [`FailureReason::Panic`]. A caught panic costs its job, never the
//! worker, which takes the next job; a worker thread ends only when the
//! queue is closed and drained.
//!
//! Nothing re-runs a panicked job: a plan is a pure function of
//! `(environment, profile, params)`, so the same panic would recur.

use std::any::Any;
use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Once};
use std::thread::{self, JoinHandle};
use std::time::Instant;

use moped_collision::{CollisionChecker, NaiveChecker};
use moped_core::{CollisionStage, PlanResult, PlanStats, PlannerProfile};

use crate::fault::{FaultKind, FaultPlan, FaultSite};
use crate::metrics::Metrics;
use crate::queue::JobQueue;
use crate::{FailureReason, Job, Outcome, PlanFailure, PlanOutcome, PlanResponse};

/// Sampling rounds between a plan's deadline/cancellation polls.
const STOP_POLL_EVERY: usize = 64;

/// State shared by every worker.
pub(crate) struct WorkerShared {
    /// The bounded admission queue.
    pub(crate) queue: Arc<JobQueue>,
    pub(crate) metrics: Arc<Metrics>,
    pub(crate) faults: Option<Arc<FaultPlan>>,
}

thread_local! {
    /// Set around the per-job guard, whose panics are expected and
    /// answered, so the process-wide hook stays silent for them while
    /// genuine panics elsewhere still report normally.
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

/// The fixed set of worker threads.
pub(crate) struct Pool {
    workers: Vec<JoinHandle<()>>,
}

impl Pool {
    /// Spawns `workers` worker threads.
    pub(crate) fn start(workers: usize, shared: &Arc<WorkerShared>) -> Self {
        let workers = (0..workers)
            .map(|idx| {
                let shared = Arc::clone(shared);
                thread::Builder::new()
                    .name(format!("moped-worker-{idx}"))
                    .spawn(move || worker_loop(idx, &shared))
                    // moped-lint: allow(panic-path) OS thread-spawn failure at startup is resource exhaustion with no caller to report to; no request is in flight yet
                    .expect("spawning a worker thread")
            })
            .collect();
        Pool { workers }
    }

    /// Joins every worker thread. Call after the queue is closed; a
    /// second call finds nothing left to join.
    pub(crate) fn join(&mut self) {
        for handle in self.workers.drain(..) {
            // A worker ends only once the queue is closed and drained;
            // an `Err` here would be a panic outside the per-job guard,
            // whose in-flight ticket its dropped response sender already
            // resolved as `WorkerDied`.
            let _ = handle.join();
        }
    }
}

/// A worker: pull the oldest job off the queue, serve it under the
/// per-job guard, and answer its ticket; repeat until the queue is
/// closed and drained.
fn worker_loop(worker_idx: usize, shared: &WorkerShared) {
    while let Some(job) = shared.queue.pop_blocking() {
        shared.metrics.queue_left();
        let started = Instant::now();
        let outcome = match catch_quietly(|| serve(worker_idx, &job, shared, started)) {
            Ok(response) => PlanOutcome::Served(response),
            Err(payload) => {
                shared.metrics.inc_panics_caught();
                shared.metrics.inc_failed();
                PlanOutcome::Failed(PlanFailure {
                    id: job.id,
                    env: job.env_id,
                    reason: FailureReason::Panic {
                        message: panic_message(payload),
                    },
                })
            }
        };
        // A dropped ticket just discards the resolution.
        let _ = job.respond.send(outcome);
    }
}

/// Serves one job (runs inside the per-job guard). The counters come
/// last, after everything that could panic, so a job is counted either
/// here or as a caught panic, never both.
fn serve(worker_idx: usize, job: &Job, shared: &WorkerShared, started: Instant) -> PlanResponse {
    let metrics = &shared.metrics;
    // Queue wait is admission → dequeue, sampled before planning runs,
    // so planning time can never leak into it.
    let queue_wait = started.duration_since(job.enqueued);

    if let Some(plan) = shared.faults.as_deref() {
        match plan.fire(FaultSite::Planning) {
            None | Some(FaultKind::QueueFull) => {}
            Some(FaultKind::Delay(d)) => {
                metrics.inc_faults_injected();
                thread::sleep(d);
            }
            Some(FaultKind::Panic) => {
                metrics.inc_faults_injected();
                // moped-lint: allow(panic-path) chaos injection: this panic exercises the per-job catch_unwind guard
                panic!("{}", FaultPlan::panic_message(FaultSite::Planning));
            }
        }
    }
    let result = execute(job, started);

    let outcome = if !result.stats.stopped_early {
        Outcome::Completed
    } else if job.cancel.load(Ordering::Relaxed) {
        Outcome::Cancelled
    } else {
        Outcome::DeadlineExpired
    };
    let service_time = started.elapsed();
    let response = PlanResponse {
        id: job.id,
        env: job.env_id,
        epoch: job.env.epoch,
        outcome,
        result,
        queue_wait,
        service_time,
        worker: worker_idx,
        profile: job.profile.clone(),
    };

    match outcome {
        Outcome::Completed => metrics.inc_completed(),
        Outcome::Cancelled => metrics.inc_cancelled(),
        Outcome::DeadlineExpired => metrics.inc_deadline_expired(),
    }
    metrics.record_stats(&response.result.stats, response.result.solved());
    response
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
    fn panic_messages_downcast() {
        install_quiet_panic_hook();
        let p = catch_quietly(|| panic!("boom")).unwrap_err();
        assert_eq!(panic_message(p), "boom");
        let p = catch_quietly(|| panic!("{}", String::from("owned"))).unwrap_err();
        assert_eq!(panic_message(p), "owned");
    }
}
