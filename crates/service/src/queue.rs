//! The bounded FIFO admission queue.
//!
//! The queue is one `Mutex<VecDeque<Job>>` plus a `Condvar`. Admission
//! appends under the lock, refusing the job outright when `capacity`
//! jobs are already queued (reject-don't-buffer). Workers pop the oldest
//! job; an idle worker waits on the condvar, which releases the lock
//! while it sleeps, so no lock is ever held across a blocking wait. The
//! lock is held only for one `VecDeque` push or pop; at the measured
//! traffic (a few thousand sub-millisecond plans per second on two
//! workers) it did not limit throughput (EXPERIMENTS.md).
//!
//! Closing the queue stops admission; workers drain what is already
//! queued, and `pop_blocking` returns `None` only once the queue is both
//! closed and empty, so shutdown serves every admitted job.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use crate::Job;

/// Locks a mutex, recovering the guard if another thread panicked while
/// holding it — every structure in this module stays valid under a
/// panicked holder, and refusing the lock would wedge the pool.
pub(crate) fn lock_ignore_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Why a push was refused (the job itself is dropped with its response
/// sender, which is harmless because no ticket has been handed out for
/// a refused admission).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum PushRefused {
    /// The queue holds `capacity` jobs already.
    Full,
    /// The queue is closed (service shutting down).
    Closed,
}

struct State {
    jobs: VecDeque<Job>,
    closed: bool,
}

/// The bounded admission queue. See the module docs.
pub(crate) struct JobQueue {
    state: Mutex<State>,
    /// Signalled on every push (one waiter) and on close (all waiters).
    ready: Condvar,
    capacity: usize,
}

impl JobQueue {
    /// An empty queue admitting at most `capacity` (at least 1) queued
    /// jobs.
    pub(crate) fn new(capacity: usize) -> Self {
        JobQueue {
            state: Mutex::new(State {
                jobs: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Whether [`close`](JobQueue::close) has been called.
    pub(crate) fn is_closed(&self) -> bool {
        lock_ignore_poison(&self.state).closed
    }

    /// Admits one job: O(1), reject-don't-buffer. On refusal the job is
    /// dropped (no ticket exists for it yet).
    pub(crate) fn push(&self, job: Job) -> Result<(), PushRefused> {
        {
            let mut state = lock_ignore_poison(&self.state);
            if state.closed {
                return Err(PushRefused::Closed);
            }
            if state.jobs.len() >= self.capacity {
                return Err(PushRefused::Full);
            }
            state.jobs.push_back(job);
        }
        self.ready.notify_one();
        Ok(())
    }

    /// Blocking dequeue: waits until a job arrives or the queue is
    /// closed *and* drained. `None` means the worker should exit.
    pub(crate) fn pop_blocking(&self) -> Option<Job> {
        let mut state = lock_ignore_poison(&self.state);
        loop {
            if let Some(job) = state.jobs.pop_front() {
                return Some(job);
            }
            if state.closed {
                return None;
            }
            state = self
                .ready
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Stops admission and wakes every waiting worker; workers drain
    /// whatever is already queued, then exit.
    pub(crate) fn close(&self) {
        lock_ignore_poison(&self.state).closed = true;
        self.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::{mpsc, Arc};
    use std::time::Instant;

    use moped_core::PlannerParams;
    use moped_env::{Scenario, ScenarioParams};
    use moped_robot::Robot;

    use crate::{EnvId, EnvSnapshot};

    fn snapshot() -> Arc<EnvSnapshot> {
        let scenario =
            Scenario::generate(Robot::mobile_2d(), &ScenarioParams::with_obstacles(0), 1);
        Arc::new(EnvSnapshot::new("empty", scenario))
    }

    fn job(id: u64, env: &Arc<EnvSnapshot>) -> Job {
        let (respond, _ticket) = mpsc::sync_channel(1);
        Job {
            id,
            env_id: EnvId(0),
            env: Arc::clone(env),
            params: PlannerParams::default(),
            deadline_at: None,
            cancel: Arc::new(AtomicBool::new(false)),
            enqueued: Instant::now(),
            respond,
            profile: None,
        }
    }

    #[test]
    fn jobs_pop_in_push_order_whichever_worker_pops() {
        let env = snapshot();
        let q = JobQueue::new(8);
        for id in 0..6 {
            assert!(q.push(job(id, &env)).is_ok());
        }
        // Alternate between a pop on this thread and one on a fresh
        // worker thread.
        for id in 0..6 {
            let popped = if id % 2 == 0 {
                q.pop_blocking()
            } else {
                std::thread::scope(|s| s.spawn(|| q.pop_blocking()).join().unwrap())
            };
            assert_eq!(popped.map(|j| j.id), Some(id));
        }
        q.close();
        assert!(q.pop_blocking().is_none());
    }

    #[test]
    fn push_beyond_capacity_is_refused_full() {
        let env = snapshot();
        let q = JobQueue::new(3);
        for id in 0..3 {
            assert!(q.push(job(id, &env)).is_ok());
        }
        assert_eq!(q.push(job(3, &env)).err(), Some(PushRefused::Full));
        // A pop frees exactly one slot.
        assert_eq!(q.pop_blocking().map(|j| j.id), Some(0));
        assert!(q.push(job(4, &env)).is_ok());
        assert_eq!(q.push(job(5, &env)).err(), Some(PushRefused::Full));
    }

    #[test]
    fn push_after_close_is_refused_closed() {
        let env = snapshot();
        let q = JobQueue::new(4);
        assert!(!q.is_closed());
        q.close();
        assert!(q.is_closed());
        assert_eq!(q.push(job(0, &env)).err(), Some(PushRefused::Closed));
    }

    #[test]
    fn close_drains_queued_jobs_before_pop_blocking_ends() {
        let env = snapshot();
        let q = JobQueue::new(4);
        for id in 0..3 {
            assert!(q.push(job(id, &env)).is_ok());
        }
        q.close();
        let drained: Vec<u64> = std::iter::from_fn(|| q.pop_blocking().map(|j| j.id)).collect();
        assert_eq!(drained, [0, 1, 2]);
        assert!(q.pop_blocking().is_none());
    }
}
