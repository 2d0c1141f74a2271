//! The bounded FIFO admission queue and the one-shot response slot that
//! resolves each ticket.
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
//! The response path is per-request: a [`ResponseSlot`] is a one-shot
//! mutex+condvar cell. The worker's [`Responder`] half delivers exactly
//! one resolution; dropping it unsent (a worker death mid-job) marks the
//! slot abandoned, which the ticket surfaces as a typed `WorkerDied`
//! failure.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use crate::{Job, PlanOutcome};

/// Locks a mutex, recovering the guard if another thread died while
/// holding it — every structure in this module tolerates a panicked
/// holder (a worker death can abandon a guard at any point), and
/// refusing the lock would wedge the pool.
pub(crate) fn lock_ignore_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Why a push was refused (the job itself is dropped; its responder
/// marks the slot abandoned, which is harmless because no ticket has
/// been handed out for a refused admission).
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

    /// Removes and returns every job still queued (used after the whole
    /// pool has exited, to resolve leftovers with typed failures).
    pub(crate) fn drain_remaining(&self) -> Vec<Job> {
        lock_ignore_poison(&self.state).jobs.drain(..).collect()
    }
}

/// State of one request's resolution slot.
// The size gap between variants is deliberate: a resolution is built
// once per request and moved through the slot exactly once, so boxing
// the outcome would trade a single move for a heap allocation on the
// hot path (same reasoning as `PlanOutcome` itself).
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum SlotState {
    /// No resolution yet.
    Pending,
    /// Resolution delivered, not yet taken by the ticket.
    Ready(PlanOutcome),
    /// Resolution taken by the ticket.
    Taken,
    /// The responder was dropped without sending (worker died mid-job).
    Abandoned,
}

/// Result of a non-blocking slot probe.
// Same deliberate size gap as `SlotState`: the outcome is moved out at
// the poll site exactly once, so boxing it would only add a heap
// allocation to the response path.
#[allow(clippy::large_enum_variant)]
pub(crate) enum TryTake {
    /// Nothing delivered yet.
    Pending,
    /// The resolution, taken exactly once.
    Resolved(PlanOutcome),
    /// The responder is gone and no resolution will ever arrive.
    Abandoned,
}

/// A one-shot resolution cell: one mutex + condvar per request, no
/// channel machinery. See the module docs.
#[derive(Debug)]
pub(crate) struct ResponseSlot {
    state: Mutex<SlotState>,
    ready: Condvar,
}

impl ResponseSlot {
    /// A fresh slot and its (single) responder half.
    pub(crate) fn pair() -> (Arc<ResponseSlot>, Responder) {
        let slot = Arc::new(ResponseSlot {
            state: Mutex::new(SlotState::Pending),
            ready: Condvar::new(),
        });
        let responder = Responder {
            slot: Arc::clone(&slot),
            sent: false,
        };
        (slot, responder)
    }

    /// Blocks until the slot resolves. `None` means the responder was
    /// dropped unsent — the caller maps that to a `WorkerDied` failure.
    pub(crate) fn wait_take(&self) -> Option<PlanOutcome> {
        let mut state = lock_ignore_poison(&self.state);
        loop {
            if matches!(*state, SlotState::Pending) {
                state = self
                    .ready
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
                continue;
            }
            return match std::mem::replace(&mut *state, SlotState::Taken) {
                SlotState::Ready(outcome) => Some(outcome),
                _ => None,
            };
        }
    }

    /// Non-blocking probe; yields the resolution at most once.
    pub(crate) fn try_take(&self) -> TryTake {
        let mut state = lock_ignore_poison(&self.state);
        match &*state {
            SlotState::Pending => TryTake::Pending,
            SlotState::Abandoned | SlotState::Taken => TryTake::Abandoned,
            SlotState::Ready(_) => {
                let SlotState::Ready(outcome) = std::mem::replace(&mut *state, SlotState::Taken)
                else {
                    return TryTake::Abandoned; // just matched Ready above
                };
                TryTake::Resolved(outcome)
            }
        }
    }
}

/// The worker-side half of a [`ResponseSlot`]: delivers exactly one
/// resolution, or — if dropped unsent by an unwinding worker — marks
/// the slot abandoned so the ticket resolves as `WorkerDied` instead of
/// hanging.
pub(crate) struct Responder {
    slot: Arc<ResponseSlot>,
    sent: bool,
}

impl Responder {
    /// Delivers the resolution and wakes the waiting ticket, if any.
    pub(crate) fn send(mut self, outcome: PlanOutcome) {
        self.sent = true;
        {
            let mut state = lock_ignore_poison(&self.slot.state);
            if matches!(*state, SlotState::Pending) {
                *state = SlotState::Ready(outcome);
            }
        }
        self.slot.ready.notify_all();
    }
}

impl Drop for Responder {
    fn drop(&mut self) {
        if self.sent {
            return;
        }
        {
            let mut state = lock_ignore_poison(&self.slot.state);
            if matches!(*state, SlotState::Pending) {
                *state = SlotState::Abandoned;
            }
        }
        self.slot.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
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
        let (_slot, respond) = ResponseSlot::pair();
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

    #[test]
    fn slot_round_trips_a_resolution() {
        let (slot, responder) = ResponseSlot::pair();
        assert!(matches!(slot.try_take(), TryTake::Pending));
        responder.send(PlanOutcome::Failed(crate::PlanFailure {
            id: 7,
            env: crate::EnvId(0),
            reason: crate::FailureReason::ShutdownDrained,
            attempts: 0,
        }));
        let TryTake::Resolved(outcome) = slot.try_take() else {
            panic!("resolution must be available");
        };
        assert_eq!(outcome.failure().map(|f| f.id), Some(7));
        // Taken exactly once.
        assert!(matches!(slot.try_take(), TryTake::Abandoned));
    }

    #[test]
    fn dropped_responder_abandons_the_slot() {
        let (slot, responder) = ResponseSlot::pair();
        drop(responder);
        assert!(matches!(slot.try_take(), TryTake::Abandoned));
        assert!(slot.wait_take().is_none());
    }
}
