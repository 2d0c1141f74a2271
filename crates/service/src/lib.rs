//! The MOPED serving layer: a concurrent, fault-tolerant batch planning
//! engine.
//!
//! The core crates answer one plan request on one thread. This crate
//! turns them into a *service*: many [`PlanRequest`]s are admitted into a
//! bounded queue, scheduled across a fixed pool of worker threads, and
//! answered with [`PlanOutcome`]s carrying either the planner's result
//! plus queue/service timing, or a typed failure. Design points:
//!
//! * **Shared immutable snapshots** — each environment is registered once
//!   in an [`EnvironmentCatalog`]; its scenario and its two-stage
//!   collision checker (R-tree bulk-loaded once) live behind an `Arc`
//!   that every worker plans against, so admission is O(1) and no
//!   obstacle field is ever re-sorted or copied per request or per
//!   worker.
//! * **Epoch-versioned hot swap** — a slot's snapshot can be replaced
//!   while the service runs ([`PlanService::swap_env`]); each swap bumps
//!   the slot's epoch, new admissions see the replacement, in-flight
//!   requests keep the immutable snapshot they were admitted with, and
//!   every [`PlanResponse`] records the epoch it planned against.
//! * **Determinism under concurrency** — planning state is confined to
//!   the worker; a request's result is a pure function of its
//!   `(environment, params, profile)` triple, byte-identical to a serial
//!   [`moped_core::PlannerProfile::plan`] run with the same inputs. The
//!   profile is the one the tuner resolved at admission, or
//!   [`moped_core::PlannerProfile::static_default`] (the full MOPED
//!   stack) on untuned services.
//! * **Autotuning** — an optional [`Tuner`] ([`ServiceConfig::tuner`])
//!   resolves each environment's precomputed request class against a
//!   calibrated `moped_tune::ProfileTable` at admission; the decision
//!   picks the worker's engine/index stack, is stamped into the
//!   [`PlanResponse`], and is counted per class in [`metrics::Metrics`].
//!   The table is fixed for the service's lifetime, so environment
//!   swaps never change which plan a class is served.
//! * **Deadlines and cancellation** — cooperative: the planner's stop
//!   hook is polled every few sampling rounds, and an expired or
//!   cancelled request returns its best-so-far anytime result instead of
//!   running away or killing a thread.
//! * **Admission control** — the queue is bounded; a full queue rejects
//!   with [`RejectReason::QueueFull`] rather than buffering unboundedly,
//!   and malformed planner parameters reject with
//!   [`RejectReason::InvalidRequest`] before they reach a worker.
//! * **FIFO dispatch** — admitted jobs wait in one bounded FIFO (a
//!   mutex-guarded deque plus a condvar); every idle worker takes the
//!   oldest job, so no request waits behind a busy worker while another
//!   sits idle. Each ticket resolves through its own bound-1
//!   `sync_channel`, so a worker's `send` never waits for the client.
//! * **Fault tolerance** — everything a worker does for one job runs
//!   inside one panic guard, so a panicking request resolves its ticket
//!   with a typed [`PlanFailure`] and the worker moves on to the next
//!   job. A ticket whose response sender is dropped unsent resolves as
//!   [`FailureReason::WorkerDied`] instead of hanging. A panicked job is
//!   never re-run: planning is deterministic, so it would panic again.
//!   A compiled-in but inert-by-default [`FaultPlan`] can inject panics,
//!   latency, and forced rejections at named sites for chaos testing.
//! * **Graceful shutdown** — [`PlanService::shutdown`] stops admission,
//!   drains everything already queued, and joins the workers; every
//!   outstanding ticket resolves before it returns.
//! * **Observability** — a lock-free [`metrics::Metrics`] registry counts
//!   every admission outcome (including failures and caught panics),
//!   aggregates per-stage op ledgers and per-class profile decisions,
//!   and renders one key list as a text or JSON dump. Wall time is per
//!   request: every [`PlanResponse`] carries its own `queue_wait` and
//!   `service_time`.
//!
//! Only `std` is used: threads, mutexes, condvars and bounded channels, no
//! external runtime.
//!
//! # Example
//!
//! ```
//! use moped_service::{EnvironmentCatalog, PlanRequest, PlanService, ServiceConfig};
//! use moped_core::PlannerParams;
//! use moped_robot::RobotModel;
//! use moped_scenarios::{CorpusEntry, Family};
//!
//! let mut catalog = EnvironmentCatalog::new();
//! let scene = CorpusEntry::new(Family::Clutter, RobotModel::Mobile2d, 1);
//! let env = catalog.register(scene.id(), scene.build());
//! let service = PlanService::start(catalog, ServiceConfig { workers: 2, ..Default::default() });
//! let params = PlannerParams { max_samples: 200, seed: 7, ..Default::default() };
//! let ticket = service.submit(PlanRequest::new(env, params)).unwrap();
//! let response = ticket.wait().into_result().expect("request served");
//! assert!(response.result.stats.samples <= 200);
//! let metrics = service.shutdown();
//! assert_eq!(metrics.accepted(), 1);
//! ```

#![deny(missing_docs)]

pub mod fault;
pub mod metrics;
mod queue;
mod supervisor;

use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvError, SyncSender, TryRecvError};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use moped_collision::TwoStageChecker;
use moped_core::{PlanResult, PlannerParams};
use moped_env::Scenario;
use moped_tune::{ProfileTable, RequestClass, Resolution};

pub use fault::{FaultKind, FaultPlan, FaultSite};
pub use metrics::Metrics;

use queue::{JobQueue, PushRefused};
use supervisor::{Pool, WorkerShared};

/// An immutable, shareable environment: the scenario plus its two-stage
/// collision checker, built once at registration (or swap) and shared by
/// every worker. The checker keeps no per-call state of its own (its
/// scratch is thread-local), so one instance serves the whole pool.
#[derive(Clone, Debug)]
pub struct EnvSnapshot {
    /// Catalog name of this environment.
    pub name: String,
    /// Version of this environment slot: 0 at registration, bumped by
    /// every [`EnvironmentCatalog::swap`]. In-flight requests keep the
    /// snapshot (`Arc`) they were admitted with; the epoch in their
    /// [`PlanResponse`] records which version they actually planned
    /// against.
    pub epoch: u64,
    /// The planning scenario (robot, obstacles, default start/goal).
    pub scenario: Scenario,
    /// The MOPED two-stage checker over the scenario's obstacles (its STR
    /// R-tree and the obstacle boxes), which workers plan against.
    pub checker: TwoStageChecker,
    /// The request class this environment buckets into (robot ×
    /// obstacle/density signature), computed once at registration so
    /// per-request profile resolution is a map lookup, never a scene
    /// scan.
    pub class: String,
}

impl EnvSnapshot {
    /// Builds a snapshot at epoch 0, paying the checker's R-tree bulk
    /// load once.
    pub fn new(name: impl Into<String>, scenario: Scenario) -> Self {
        EnvSnapshot::at_epoch(name, scenario, 0)
    }

    /// Builds a snapshot carrying an explicit epoch (used by
    /// [`EnvironmentCatalog::swap`] to version replacements).
    fn at_epoch(name: impl Into<String>, scenario: Scenario, epoch: u64) -> Self {
        let checker = TwoStageChecker::moped(scenario.obstacles.clone());
        let class = RequestClass::of_scenario(&scenario).id();
        EnvSnapshot {
            name: name.into(),
            epoch,
            scenario,
            checker,
            class,
        }
    }
}

/// Handle to a registered environment (index into the catalog).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct EnvId(usize);

impl EnvId {
    /// The catalog slot this id refers to.
    pub fn index(&self) -> usize {
        self.0
    }
}

/// The set of environments a service instance can plan in.
///
/// The slot *list* is fixed once the service starts, but each slot's
/// snapshot can be hot-swapped ([`EnvironmentCatalog::swap`]) while the
/// service runs: lookups hand out owned `Arc`s, so in-flight requests
/// keep planning against the snapshot they were admitted with while new
/// admissions see the replacement. Every swap bumps the slot's epoch.
#[derive(Debug, Default)]
pub struct EnvironmentCatalog {
    envs: Vec<RwLock<Arc<EnvSnapshot>>>,
}

/// Reads a catalog slot, recovering the (immutable, always-valid) `Arc`
/// even if a prior writer panicked and poisoned the lock.
fn read_slot(slot: &RwLock<Arc<EnvSnapshot>>) -> Arc<EnvSnapshot> {
    match slot.read() {
        Ok(guard) => Arc::clone(&guard),
        Err(poisoned) => Arc::clone(&poisoned.into_inner()),
    }
}

impl EnvironmentCatalog {
    /// An empty catalog.
    pub fn new() -> Self {
        EnvironmentCatalog::default()
    }

    /// Registers an environment at epoch 0, returning its id.
    pub fn register(&mut self, name: impl Into<String>, scenario: Scenario) -> EnvId {
        self.envs
            .push(RwLock::new(Arc::new(EnvSnapshot::new(name, scenario))));
        EnvId(self.envs.len() - 1)
    }

    /// Looks up the current snapshot of a slot. The returned `Arc` stays
    /// valid (and immutable) across later swaps of the same slot.
    pub fn get(&self, id: EnvId) -> Option<Arc<EnvSnapshot>> {
        self.envs.get(id.0).map(read_slot)
    }

    /// Replaces a slot's environment with a new scenario, keeping the
    /// slot's name and bumping its epoch by one. Returns the new epoch.
    ///
    /// The snapshot (checker build: the R-tree bulk load) is
    /// built while holding the slot's write lock, so concurrent swaps of
    /// one slot serialize and each epoch is used exactly once; other
    /// slots and already-admitted requests are unaffected.
    pub fn swap(&self, id: EnvId, scenario: Scenario) -> Option<u64> {
        let slot = self.envs.get(id.0)?;
        let mut guard = match slot.write() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        let epoch = guard.epoch + 1;
        *guard = Arc::new(EnvSnapshot::at_epoch(guard.name.clone(), scenario, epoch));
        Some(epoch)
    }

    /// Finds an environment id by name.
    pub fn find(&self, name: &str) -> Option<EnvId> {
        self.envs
            .iter()
            .position(|e| read_slot(e).name == name)
            .map(EnvId)
    }

    /// Number of registered environments.
    pub fn len(&self) -> usize {
        self.envs.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.envs.is_empty()
    }

    /// All registered ids in registration order.
    pub fn ids(&self) -> impl Iterator<Item = EnvId> + '_ {
        (0..self.envs.len()).map(EnvId)
    }
}

/// One planning request.
#[derive(Clone, Debug)]
pub struct PlanRequest {
    /// Which environment to plan in.
    pub env: EnvId,
    /// Planner knobs — `params.seed` makes the request deterministic.
    pub params: PlannerParams,
    /// Wall-clock budget measured from admission; `None` means the
    /// sampling budget alone bounds the run.
    pub deadline: Option<Duration>,
}

impl PlanRequest {
    /// A request with no deadline.
    pub fn new(env: EnvId, params: PlannerParams) -> Self {
        PlanRequest {
            env,
            params,
            deadline: None,
        }
    }

    /// Sets the wall-clock deadline.
    #[must_use = "builder method returns the updated request; it does not mutate in place"]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// How a served request left the planner.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Ran to its full sampling budget.
    Completed,
    /// Stopped by its deadline; `result` is the best-so-far answer.
    DeadlineExpired,
    /// Stopped by [`PlanTicket::cancel`]; `result` is the best-so-far
    /// answer.
    Cancelled,
}

/// The answer to one successfully served [`PlanRequest`].
#[derive(Clone, Debug)]
pub struct PlanResponse {
    /// Service-assigned request id (admission order).
    pub id: u64,
    /// The environment planned in.
    pub env: EnvId,
    /// Epoch of the environment snapshot the request actually planned
    /// against (a concurrent [`EnvironmentCatalog::swap`] does not move
    /// a request off the snapshot it was admitted with).
    pub epoch: u64,
    /// How the request terminated.
    pub outcome: Outcome,
    /// The planner's result (path, cost, per-stage statistics).
    pub result: PlanResult,
    /// Time spent queued before a worker picked the request up.
    pub queue_wait: Duration,
    /// Time spent planning (dequeue to response).
    pub service_time: Duration,
    /// Index of the worker that served the request.
    pub worker: usize,
    /// The profile decision this request planned under: the resolved
    /// class, profile, and reason. `None` on untuned services
    /// ([`ServiceConfig::tuner`] unset), which plan with
    /// [`moped_core::PlannerProfile::static_default`].
    pub profile: Option<Resolution>,
}

/// Why an admitted request terminally failed instead of being served.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FailureReason {
    /// Serving the request panicked; the worker's per-job guard caught
    /// it and the request is not re-run.
    Panic {
        /// The panic payload, rendered as a string.
        message: String,
    },
    /// The request's response sender was dropped unsent, so no
    /// resolution can ever arrive. Every path through a worker sends
    /// exactly once; this is the ticket's reading of a disconnected
    /// channel, which only a panic outside the per-job guard could leave
    /// behind.
    WorkerDied,
}

impl fmt::Display for FailureReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureReason::Panic { message } => write!(f, "planning panicked: {message}"),
            FailureReason::WorkerDied => {
                write!(f, "the request was abandoned without a response")
            }
        }
    }
}

/// A terminal failure: the request was admitted but no [`PlanResult`]
/// exists for it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlanFailure {
    /// Service-assigned request id (admission order).
    pub id: u64,
    /// The environment the request targeted.
    pub env: EnvId,
    /// Why the request failed.
    pub reason: FailureReason,
}

impl fmt::Display for PlanFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "request {} failed: {}", self.id, self.reason)
    }
}

impl std::error::Error for PlanFailure {}

/// The resolution of a [`PlanTicket`]: every admitted request ends in
/// exactly one of these — a served response or a typed failure. The
/// ticket API never panics and never hangs on a dead worker.
// The size gap between variants is deliberate: an outcome is built once
// per request and moved over the ticket channel exactly once, so boxing
// the response would trade a single 500-byte move for a heap allocation
// on the hot path.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
#[must_use = "a PlanOutcome carries either the response or a typed failure; dropping it hides failures"]
pub enum PlanOutcome {
    /// The planner produced a result (completed, deadline-expired, or
    /// cancelled — see [`PlanResponse::outcome`]).
    Served(PlanResponse),
    /// The request terminally failed; see [`PlanFailure::reason`].
    Failed(PlanFailure),
}

impl PlanOutcome {
    /// Converts into a `Result`, for `?`-style handling.
    pub fn into_result(self) -> Result<PlanResponse, PlanFailure> {
        match self {
            PlanOutcome::Served(response) => Ok(response),
            PlanOutcome::Failed(failure) => Err(failure),
        }
    }

    /// The served response, if any.
    pub fn response(&self) -> Option<&PlanResponse> {
        match self {
            PlanOutcome::Served(response) => Some(response),
            PlanOutcome::Failed(_) => None,
        }
    }

    /// The failure, if any.
    pub fn failure(&self) -> Option<&PlanFailure> {
        match self {
            PlanOutcome::Served(_) => None,
            PlanOutcome::Failed(failure) => Some(failure),
        }
    }

    /// Whether the request was served with a planner result.
    pub fn is_served(&self) -> bool {
        matches!(self, PlanOutcome::Served(_))
    }

    /// Whether the request terminally failed.
    pub fn is_failed(&self) -> bool {
        matches!(self, PlanOutcome::Failed(_))
    }
}

/// Why a request was refused at admission.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// The bounded queue is at capacity; retry later or shed load.
    QueueFull {
        /// The configured queue capacity.
        capacity: usize,
    },
    /// The request references an environment id the catalog lacks.
    UnknownEnvironment,
    /// The service is shutting down and no longer admits work.
    ShuttingDown,
    /// The request's planner parameters are malformed; the message is
    /// [`PlannerParams::validate`]'s.
    InvalidRequest(String),
    /// A swapped-in environment is malformed; the message is
    /// [`Scenario::validate`]'s.
    InvalidEnvironment(String),
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::QueueFull { capacity } => {
                write!(f, "queue full (capacity {capacity})")
            }
            RejectReason::UnknownEnvironment => write!(f, "unknown environment id"),
            RejectReason::ShuttingDown => write!(f, "service is shutting down"),
            RejectReason::InvalidRequest(why) => write!(f, "invalid request: {why}"),
            RejectReason::InvalidEnvironment(why) => write!(f, "invalid environment: {why}"),
        }
    }
}

impl std::error::Error for RejectReason {}

/// The service-side autotuner: a pinned [`ProfileTable`] resolved on
/// every admission.
///
/// Install one via [`ServiceConfig::tuner`]. Admissions then resolve the
/// environment's request class against the table ([`Tuner::resolve`]);
/// the decision rides on the job, selects the worker's engine/index
/// stack, and is stamped into the [`PlanResponse`]. Nothing rewrites the
/// table while the service runs: environment swaps leave every class's
/// resolution as the table reads.
///
/// Determinism: resolution is a pure map lookup, so every auto-tuned
/// plan stays bit-identical and journal-replayable.
#[derive(Debug)]
pub struct Tuner {
    table: ProfileTable,
}

impl Tuner {
    /// A tuner over `table`.
    pub fn new(table: ProfileTable) -> Self {
        Tuner { table }
    }

    /// Resolves a request class against the table (one map lookup plus
    /// the profile clone).
    pub fn resolve(&self, class_id: &str) -> Resolution {
        self.table.resolve(class_id)
    }

    /// The table (pin it to reproduce runs).
    pub fn table(&self) -> &ProfileTable {
        &self.table
    }
}

/// Service tuning knobs.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker threads in the pool.
    pub workers: usize,
    /// Bounded queue capacity; admissions beyond it are rejected.
    pub queue_capacity: usize,
    /// Optional fault-injection plan (chaos testing); `None` — the
    /// default — makes the harness completely inert.
    pub faults: Option<Arc<FaultPlan>>,
    /// Optional autotuner; `None` — the default — plans every request
    /// with [`moped_core::PlannerProfile::static_default`]. When set,
    /// every admission resolves its environment's request class to a
    /// [`PlannerProfile`](moped_tune::PlannerProfile) and the worker
    /// plans with that profile's stack.
    pub tuner: Option<Arc<Tuner>>,
}

impl Default for ServiceConfig {
    /// 4 workers, a 64-deep queue, no fault injection, no autotuner.
    fn default() -> Self {
        ServiceConfig {
            workers: 4,
            queue_capacity: 64,
            faults: None,
            tuner: None,
        }
    }
}

/// A pending request: await the resolution, or cancel the work.
///
/// Every ticket resolves exactly once — with a served response, or with
/// a typed [`PlanFailure`] if the request panicked or its response
/// sender was dropped unsent. Neither [`wait`](PlanTicket::wait) nor
/// [`poll`](PlanTicket::poll) ever panics or hangs on a dropped sender.
#[derive(Debug)]
#[must_use = "dropping a ticket discards the request's resolution; call wait() or poll()"]
pub struct PlanTicket {
    id: u64,
    env: EnvId,
    cancel: Arc<AtomicBool>,
    response: Receiver<PlanOutcome>,
    /// Set once `poll` has yielded: a served ticket's drained channel
    /// reads `Disconnected`, which must not be re-reported as a failure.
    resolved: Cell<bool>,
}

impl PlanTicket {
    /// The service-assigned request id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Requests cooperative cancellation; the resolution (best-so-far)
    /// still arrives through [`PlanTicket::wait`].
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::Relaxed);
    }

    /// Blocks until the request resolves. If the response sender was
    /// dropped unsent, this returns a [`FailureReason::WorkerDied`]
    /// failure instead of panicking.
    pub fn wait(self) -> PlanOutcome {
        self.response
            .recv()
            .unwrap_or_else(|RecvError| PlanOutcome::Failed(self.disconnect_failure()))
    }

    /// Returns the resolution if it is already available, without
    /// blocking. Yields `Some` exactly once: `None` before resolution
    /// and again after the resolution has been taken. A response sender
    /// dropped unsent resolves the ticket with a terminal
    /// [`FailureReason::WorkerDied`] failure rather than leaving the
    /// caller polling forever.
    pub fn poll(&self) -> Option<PlanOutcome> {
        if self.resolved.get() {
            return None;
        }
        let outcome = match self.response.try_recv() {
            Err(TryRecvError::Empty) => return None,
            Ok(outcome) => outcome,
            Err(TryRecvError::Disconnected) => PlanOutcome::Failed(self.disconnect_failure()),
        };
        self.resolved.set(true);
        Some(outcome)
    }

    fn disconnect_failure(&self) -> PlanFailure {
        PlanFailure {
            id: self.id,
            env: self.env,
            reason: FailureReason::WorkerDied,
        }
    }
}

/// One unit of queued work.
pub(crate) struct Job {
    pub(crate) id: u64,
    pub(crate) env_id: EnvId,
    pub(crate) env: Arc<EnvSnapshot>,
    pub(crate) params: PlannerParams,
    pub(crate) deadline_at: Option<Instant>,
    pub(crate) cancel: Arc<AtomicBool>,
    pub(crate) enqueued: Instant,
    /// The ticket's one-shot answer: a bound-1 channel, so the worker's
    /// `send` never waits for the client to read.
    pub(crate) respond: SyncSender<PlanOutcome>,
    /// Admission-time profile resolution (tuned services only). Frozen
    /// here so a concurrent table rewrite can never move an in-flight
    /// request off the profile it was admitted with.
    pub(crate) profile: Option<Resolution>,
}

/// The concurrent batch planning engine. See the crate docs for the
/// architecture; construct with [`PlanService::start`].
pub struct PlanService {
    queue: Arc<JobQueue>,
    pool: Pool,
    metrics: Arc<Metrics>,
    catalog: Arc<EnvironmentCatalog>,
    next_id: AtomicU64,
    config: ServiceConfig,
}

impl PlanService {
    /// Spawns the worker pool and starts admitting requests.
    pub fn start(catalog: EnvironmentCatalog, config: ServiceConfig) -> Self {
        supervisor::install_quiet_panic_hook();
        let workers_n = config.workers.max(1);
        let metrics = Arc::new(Metrics::default());
        let queue = Arc::new(JobQueue::new(config.queue_capacity));
        let shared = Arc::new(WorkerShared {
            queue: Arc::clone(&queue),
            metrics: Arc::clone(&metrics),
            faults: config.faults.clone(),
        });
        let pool = Pool::start(workers_n, &shared);
        PlanService {
            queue,
            pool,
            metrics,
            catalog: Arc::new(catalog),
            next_id: AtomicU64::new(0),
            config,
        }
    }

    /// The shared environment catalog.
    pub fn catalog(&self) -> &EnvironmentCatalog {
        &self.catalog
    }

    /// Hot-swaps an environment slot while the service runs: requests
    /// admitted after this call plan against `scenario`; requests already
    /// queued or planning keep the snapshot they were admitted with.
    /// Returns the slot's new epoch (also reported per-request in
    /// [`PlanResponse::epoch`]). A scenario that fails
    /// [`Scenario::validate`] is rejected before its snapshot is built,
    /// and the slot keeps its current snapshot.
    pub fn swap_env(&self, id: EnvId, scenario: Scenario) -> Result<u64, RejectReason> {
        scenario
            .validate()
            .map_err(RejectReason::InvalidEnvironment)?;
        self.catalog
            .swap(id, scenario)
            .ok_or(RejectReason::UnknownEnvironment)
    }

    /// The live metrics registry (shared; clone the `Arc` to keep reading
    /// after shutdown).
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.metrics)
    }

    /// Admits one request. O(1): resolves the environment snapshot and
    /// appends the job to the queue; planning happens on a worker.
    /// Rejection (with reason) is immediate when the queue is full, the
    /// environment is unknown, the parameters fail
    /// [`PlannerParams::validate`], or the service is shutting down.
    pub fn submit(&self, request: PlanRequest) -> Result<PlanTicket, RejectReason> {
        if self.queue.is_closed() {
            self.metrics.inc_rejected();
            return Err(RejectReason::ShuttingDown);
        }
        let Some(env) = self.catalog.get(request.env) else {
            self.metrics.inc_rejected();
            return Err(RejectReason::UnknownEnvironment);
        };
        if let Err(why) = request.params.validate() {
            self.metrics.inc_rejected();
            return Err(RejectReason::InvalidRequest(why));
        }
        // Admission-site fault injection (inert unless configured). A
        // `Panic` rule here unwinds the *calling* thread, by design.
        if let Some(plan) = self.config.faults.as_deref() {
            match plan.fire(FaultSite::Admission) {
                None => {}
                Some(FaultKind::QueueFull) => {
                    self.metrics.inc_faults_injected();
                    self.metrics.inc_rejected();
                    return Err(RejectReason::QueueFull {
                        capacity: self.config.queue_capacity.max(1),
                    });
                }
                Some(FaultKind::Delay(d)) => {
                    self.metrics.inc_faults_injected();
                    std::thread::sleep(d);
                }
                Some(FaultKind::Panic) => {
                    self.metrics.inc_faults_injected();
                    // moped-lint: allow(panic-path) chaos injection: an admission-site fault unwinds the caller by design
                    panic!("{}", FaultPlan::panic_message(FaultSite::Admission));
                }
            }
        }
        // Tuned services resolve the environment's class to a profile at
        // admission — a map lookup against the precomputed class id —
        // and count the decision on the (non-worker) admission path.
        let profile = self.config.tuner.as_deref().map(|tuner| {
            let resolution = tuner.resolve(&env.class);
            self.metrics
                .record_profile_decision(&resolution.class_id, resolution.from_table);
            resolution
        });
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let cancel = Arc::new(AtomicBool::new(false));
        // Every ticket receives exactly one resolution (response or
        // failure) through a bound-1 channel; a sender dropped unsent
        // disconnects it, which the ticket surfaces as a typed
        // WorkerDied failure.
        let (respond, response) = mpsc::sync_channel(1);
        let now = Instant::now();
        let job = Job {
            id,
            env_id: request.env,
            env,
            params: request.params,
            deadline_at: request.deadline.map(|d| now + d),
            cancel: Arc::clone(&cancel),
            enqueued: now,
            respond,
            profile,
        };
        // The gauge must go up *before* the job becomes visible to the
        // pool: a worker can dequeue and decrement within nanoseconds of
        // `push` returning, and the decrement clamps at zero — an
        // increment arriving after it would strand the gauge at 1.
        self.metrics.queue_entered();
        match self.queue.push(job) {
            Ok(()) => {
                self.metrics.inc_accepted();
                Ok(PlanTicket {
                    id,
                    env: request.env,
                    cancel,
                    response,
                    resolved: Cell::new(false),
                })
            }
            Err(PushRefused::Full) => {
                self.metrics.queue_left();
                self.metrics.inc_rejected();
                Err(RejectReason::QueueFull {
                    capacity: self.config.queue_capacity.max(1),
                })
            }
            Err(PushRefused::Closed) => {
                self.metrics.queue_left();
                self.metrics.inc_rejected();
                Err(RejectReason::ShuttingDown)
            }
        }
    }

    /// Submits a batch and blocks until every admitted request resolves.
    /// Per-request admission failures are reported in place; order
    /// matches the input.
    pub fn run_batch(
        &self,
        requests: impl IntoIterator<Item = PlanRequest>,
    ) -> Vec<Result<PlanOutcome, RejectReason>> {
        let tickets: Vec<Result<PlanTicket, RejectReason>> =
            requests.into_iter().map(|r| self.submit(r)).collect();
        tickets
            .into_iter()
            .map(|t| t.map(PlanTicket::wait))
            .collect()
    }

    /// Stops admission, drains every queued request, joins the workers,
    /// and returns the metrics registry. Outstanding [`PlanTicket`]s all
    /// resolve before this returns.
    pub fn shutdown(mut self) -> Arc<Metrics> {
        self.drain_and_join();
        Arc::clone(&self.metrics)
    }

    fn drain_and_join(&mut self) {
        // Closing the queue stops admission and wakes parked workers;
        // they drain what was already admitted, then exit.
        self.queue.close();
        self.pool.join();
    }
}

impl Drop for PlanService {
    fn drop(&mut self) {
        self.drain_and_join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moped_robot::{Robot, RobotModel};
    use moped_scenarios::{CorpusEntry, Family};

    /// The five `mobile_2d` corpus cells at seed 1, registered under
    /// their corpus ids.
    fn mobile_catalog() -> EnvironmentCatalog {
        let mut cat = EnvironmentCatalog::new();
        for family in Family::ALL {
            let scene = CorpusEntry::new(family, RobotModel::Mobile2d, 1);
            cat.register(scene.id(), scene.build());
        }
        cat
    }

    fn small_params(samples: usize, seed: u64) -> PlannerParams {
        PlannerParams {
            max_samples: samples,
            seed,
            ..PlannerParams::default()
        }
    }

    #[test]
    fn catalog_registers_and_finds() {
        let cat = mobile_catalog();
        assert_eq!(cat.len(), Family::ALL.len());
        for family in Family::ALL {
            let name = CorpusEntry::new(family, RobotModel::Mobile2d, 1).id();
            let id = cat.find(&name).expect("registered");
            let snap = cat.get(id).unwrap();
            assert_eq!(snap.name, name);
            assert_eq!(snap.checker.rtree().len(), snap.scenario.obstacles.len());
        }
        assert!(cat.find("nope").is_none());
    }

    #[test]
    fn swap_bumps_epoch_and_new_requests_see_it() {
        let mut cat = EnvironmentCatalog::new();
        let epochs = moped_scenarios::dynamic_epochs(RobotModel::Mobile2d, 3, 3, 2.5);
        let env = cat.register("drifting-clutter", epochs[0].clone());
        assert_eq!(cat.get(env).unwrap().epoch, 0);

        let service = PlanService::start(
            cat,
            ServiceConfig {
                workers: 1,
                ..Default::default()
            },
        );
        let before = service
            .submit(PlanRequest::new(env, small_params(150, 3)))
            .unwrap()
            .wait()
            .into_result()
            .expect("served");
        assert_eq!(before.epoch, 0);

        for (i, snap) in epochs.iter().enumerate().skip(1) {
            assert_eq!(service.swap_env(env, snap.clone()), Ok(i as u64));
        }
        let cat = service.catalog();
        let current = cat.get(env).unwrap();
        assert_eq!(current.epoch, 2);
        assert_eq!(current.name, "drifting-clutter");
        assert_eq!(
            current.checker.obstacles(),
            current.scenario.obstacles.as_slice()
        );

        let after = service
            .submit(PlanRequest::new(env, small_params(150, 3)))
            .unwrap()
            .wait()
            .into_result()
            .expect("served");
        assert_eq!(after.epoch, 2);
        // Same params, different environment snapshot — the response
        // epoch is what distinguishes the two results.
        assert_eq!(
            service.swap_env(EnvId(99), epochs[0].clone()),
            Err(RejectReason::UnknownEnvironment)
        );
        service.shutdown();
    }

    #[test]
    fn swap_rejects_non_finite_obstacles_and_keeps_the_old_snapshot() {
        use moped_geometry::{Mat3, Obb, Vec3};

        let cat = mobile_catalog();
        let env = cat.ids().next().expect("registered");
        let service = PlanService::start(
            cat,
            ServiceConfig {
                workers: 1,
                ..Default::default()
            },
        );
        let good = service.catalog().get(env).unwrap().scenario.clone();
        let (nan, inf) = (f64::NAN, f64::INFINITY);
        let unit = Vec3::splat(1.0);
        let bad_boxes = [
            Obb::axis_aligned(Vec3::new(nan, 5.0, 0.0), unit),
            Obb::axis_aligned(Vec3::new(5.0, inf, 0.0), unit),
            Obb::axis_aligned(Vec3::new(5.0, 5.0, -inf), unit),
            Obb::axis_aligned(Vec3::splat(5.0), Vec3::new(1.0, inf, 1.0)),
            Obb::axis_aligned(Vec3::splat(5.0), unit).with_rotation(Mat3 {
                m: [[1.0, 0.0, 0.0], [0.0, nan, 0.0], [0.0, 0.0, 1.0]],
            }),
        ];
        for obb in bad_boxes {
            let mut bad = good.clone();
            bad.obstacles.push(obb);
            let err = service.swap_env(env, bad).expect_err("non-finite obstacle");
            assert!(
                matches!(&err, RejectReason::InvalidEnvironment(why) if why.contains("obstacle")),
                "{err}"
            );
        }
        // A NaN half extent never gets that far: `Obb::new` refuses it.
        let nan_half = std::panic::catch_unwind(|| {
            Obb::axis_aligned(Vec3::splat(5.0), Vec3::new(nan, 1.0, 1.0))
        });
        assert!(nan_half.is_err());

        let kept = service.catalog().get(env).unwrap();
        assert_eq!(kept.epoch, 0, "a rejected swap keeps the old snapshot");
        assert_eq!(kept.scenario.obstacles, good.obstacles);
        let served = service
            .submit(PlanRequest::new(env, small_params(150, 3)))
            .unwrap()
            .wait()
            .into_result()
            .expect("served on the kept snapshot");
        assert_eq!(served.epoch, 0);
        assert_eq!(service.swap_env(env, good), Ok(1));
        service.shutdown();
    }

    #[test]
    fn worker_checks_the_snapshot_it_was_handed_after_a_swap() {
        use moped_collision::{CollisionChecker, CollisionLedger, NaiveChecker};
        use moped_env::ScenarioParams;
        use moped_geometry::{InterpolationSteps, Obb, Vec3};

        // One worker serves both requests, before and after the swap;
        // the second must plan against the swapped snapshot's checker.
        let robot = Robot::mobile_2d();
        let open = Scenario::generate(robot.clone(), &ScenarioParams::with_obstacles(0), 4);
        let mut cat = EnvironmentCatalog::new();
        let env = cat.register("open-then-blocked", open.clone());
        let service = PlanService::start(
            cat,
            ServiceConfig {
                workers: 1,
                ..Default::default()
            },
        );
        let plan = |service: &PlanService| {
            let response = service
                .submit(PlanRequest::new(env, small_params(600, 5)))
                .unwrap()
                .wait()
                .into_result()
                .expect("served");
            (response.epoch, response.result.path)
        };
        let (epoch, path) = plan(&service);
        assert_eq!(epoch, 0);
        let old_path = path.expect("the open scene solves");

        // Block the old path with one box on its middle edge, far from
        // the start and goal poses.
        let steps = InterpolationSteps::with_resolution(robot.steering_step() / 4.0);
        let free = |checker: &NaiveChecker, path: &[moped_geometry::Config]| {
            let mut ledger = CollisionLedger::default();
            path.windows(2)
                .all(|w| checker.motion_free(&robot, &w[0], &w[1], &steps, &mut ledger))
        };
        let mid = old_path.len() / 2;
        let at = old_path[mid - 1].lerp(&old_path[mid], 0.5);
        let mut blocked = open.clone();
        blocked
            .obstacles
            .push(Obb::planar(Vec3::new(at[0], at[1], 0.0), 2.0, 2.0, 0.0));
        let oracle = NaiveChecker::new(blocked.obstacles.clone());
        assert!(
            !free(&oracle, &old_path),
            "the new snapshot blocks the old path"
        );

        assert_eq!(service.swap_env(env, blocked), Ok(1));
        let (epoch, path) = plan(&service);
        assert_eq!(epoch, 1);
        let new_path = path.expect("the blocked scene still solves");
        assert!(
            free(&oracle, &new_path),
            "the path planned after the swap collides with the new snapshot"
        );
        service.shutdown();
    }

    #[test]
    fn in_flight_requests_keep_their_admitted_snapshot() {
        let mut cat = EnvironmentCatalog::new();
        let epochs = moped_scenarios::dynamic_epochs(RobotModel::Mobile2d, 5, 2, 2.5);
        let env = cat.register("drifting-clutter", epochs[0].clone());
        let service = PlanService::start(
            cat,
            ServiceConfig {
                workers: 1,
                ..Default::default()
            },
        );
        // Admit a long-running request, swap underneath it, then cancel:
        // its response must report the epoch it was admitted with.
        let hog = service
            .submit(PlanRequest::new(env, small_params(50_000_000, 1)))
            .unwrap();
        assert_eq!(service.swap_env(env, epochs[1].clone()), Ok(1));
        hog.cancel();
        let response = hog.wait().into_result().expect("served");
        assert_eq!(response.epoch, 0);
        service.shutdown();
    }

    #[test]
    fn unknown_environment_is_rejected() {
        let cat = mobile_catalog();
        let service = PlanService::start(cat, ServiceConfig::default());
        let bogus = EnvId(99);
        let err = service
            .submit(PlanRequest::new(bogus, small_params(10, 1)))
            .unwrap_err();
        assert_eq!(err, RejectReason::UnknownEnvironment);
        let metrics = service.shutdown();
        assert_eq!(metrics.rejected(), 1);
        assert_eq!(metrics.accepted(), 0);
    }

    #[test]
    fn single_request_round_trips() {
        let cat = mobile_catalog();
        let env = cat.find("clutter/mobile_2d/s1").unwrap();
        let service = PlanService::start(
            cat,
            ServiceConfig {
                workers: 1,
                ..Default::default()
            },
        );
        let ticket = service
            .submit(PlanRequest::new(env, small_params(300, 3)))
            .unwrap();
        let response = ticket.wait().into_result().expect("served");
        assert_eq!(response.outcome, Outcome::Completed);
        assert_eq!(response.result.stats.samples, 300);
        assert!(!response.result.stats.stopped_early);
        // Untuned services never stamp a profile decision.
        assert!(response.profile.is_none());
        let metrics = service.shutdown();
        assert_eq!(metrics.accepted(), 1);
        assert_eq!(metrics.completed(), 1);
        assert_eq!(metrics.failed(), 0);
        assert_eq!(metrics.queue_depth(), 0);
    }

    #[test]
    fn poll_surfaces_an_abandoned_slot_as_worker_died() {
        // A ticket whose sender was dropped without sending.
        let abandoned = || {
            let (respond, response) = mpsc::sync_channel::<PlanOutcome>(1);
            drop(respond);
            PlanTicket {
                id: 3,
                env: EnvId(0),
                cancel: Arc::new(AtomicBool::new(false)),
                response,
                resolved: Cell::new(false),
            }
        };
        let reason = |outcome: PlanOutcome| outcome.into_result().map(|_| ()).unwrap_err().reason;

        let polled = abandoned();
        let outcome = polled.poll().expect("an abandoned ticket resolves");
        assert_eq!(reason(outcome), FailureReason::WorkerDied);
        // The resolution was taken; poll does not re-report it.
        assert!(polled.poll().is_none());

        assert_eq!(reason(abandoned().wait()), FailureReason::WorkerDied);
    }

    #[test]
    fn cancellation_returns_best_so_far() {
        let cat = mobile_catalog();
        let env = cat.find("clutter/mobile_2d/s1").unwrap();
        let service = PlanService::start(
            cat,
            ServiceConfig {
                workers: 1,
                ..Default::default()
            },
        );
        // A budget that would take minutes — cancellation must cut it.
        let ticket = service
            .submit(PlanRequest::new(env, small_params(50_000_000, 9)))
            .unwrap();
        std::thread::sleep(Duration::from_millis(30));
        ticket.cancel();
        let response = ticket.wait().into_result().expect("served");
        assert_eq!(response.outcome, Outcome::Cancelled);
        assert!(response.result.stats.stopped_early);
        assert!(response.result.stats.samples < 50_000_000);
        let metrics = service.shutdown();
        assert_eq!(metrics.cancelled(), 1);
    }

    #[test]
    fn queue_full_rejects_with_reason() {
        let cat = mobile_catalog();
        let env = cat.find("maze/mobile_2d/s1").unwrap();
        let service = PlanService::start(
            cat,
            ServiceConfig {
                workers: 1,
                queue_capacity: 1,
                ..Default::default()
            },
        );
        // One long job occupies the worker; capacity-1 queue holds one
        // more; further admissions must bounce.
        let hog = service
            .submit(PlanRequest::new(env, small_params(50_000_000, 1)))
            .unwrap();
        std::thread::sleep(Duration::from_millis(10)); // let the worker dequeue the hog
        let queued = service
            .submit(PlanRequest::new(env, small_params(10, 2)))
            .unwrap();
        let mut saw_full = false;
        for seed in 3..13 {
            if let Err(RejectReason::QueueFull { capacity }) =
                service.submit(PlanRequest::new(env, small_params(10, seed)))
            {
                assert_eq!(capacity, 1);
                saw_full = true;
                break;
            }
        }
        assert!(saw_full, "bounded queue must reject when full");
        hog.cancel();
        assert_eq!(
            hog.wait().into_result().unwrap().outcome,
            Outcome::Cancelled
        );
        assert_eq!(
            queued.wait().into_result().unwrap().outcome,
            Outcome::Completed
        );
        let metrics = service.shutdown();
        assert!(metrics.rejected() >= 1);
    }

    #[test]
    fn shutdown_drains_queued_work() {
        let cat = mobile_catalog();
        let env = cat.find("clutter/mobile_2d/s1").unwrap();
        let service = PlanService::start(
            cat,
            ServiceConfig {
                workers: 2,
                queue_capacity: 32,
                ..Default::default()
            },
        );
        let tickets: Vec<PlanTicket> = (0..8)
            .map(|seed| {
                service
                    .submit(PlanRequest::new(env, small_params(200, seed)))
                    .unwrap()
            })
            .collect();
        let metrics = service.shutdown(); // must drain, not drop, the 8 jobs
        let responses: Vec<PlanResponse> = tickets
            .into_iter()
            .map(|t| t.wait().into_result().expect("drained, not dropped"))
            .collect();
        assert_eq!(responses.len(), 8);
        assert!(responses.iter().all(|r| r.outcome == Outcome::Completed));
        assert_eq!(metrics.accepted(), 8);
        assert_eq!(metrics.completed(), 8);
        assert_eq!(metrics.queue_depth(), 0);
    }

    #[test]
    fn tuned_baseline_profile_plans_on_the_naive_checker() {
        // A profile whose collision stage is naive bypasses the
        // snapshot's two-stage checker and still matches the serial plan.
        let cat = mobile_catalog();
        let env = cat.find("clutter/mobile_2d/s1").unwrap();
        let class = cat.get(env).unwrap().class.clone();
        let baseline = moped_core::Variant::V0Baseline.profile();
        let mut table = ProfileTable::static_default();
        table.insert(&class, baseline.clone(), "pinned for test");
        let service = PlanService::start(
            cat,
            ServiceConfig {
                workers: 1,
                tuner: Some(Arc::new(Tuner::new(table))),
                ..Default::default()
            },
        );
        let params = small_params(150, 5);
        let response = service
            .submit(PlanRequest::new(env, params.clone()))
            .unwrap()
            .wait()
            .into_result()
            .unwrap();
        assert_eq!(response.outcome, Outcome::Completed);
        assert_eq!(response.result.stats.samples, 150);
        let scenario = service.catalog().get(env).unwrap().scenario.clone();
        let serial = baseline.plan(&scenario, &params);
        assert_eq!(response.result.stats.collision, serial.stats.collision);
        assert_eq!(
            response.result.path_cost.to_bits(),
            serial.path_cost.to_bits()
        );
        service.shutdown();
    }

    #[test]
    fn tuned_requests_resolve_profiles_and_stamp_responses() {
        let cat = mobile_catalog();
        let env = cat.find("clutter/mobile_2d/s1").unwrap();
        let class = cat.get(env).unwrap().class.clone();
        let mut table = ProfileTable::static_default();
        table.insert(
            &class,
            moped_tune::PlannerProfile {
                engine: moped_core::Engine::RrtConnect,
                ..moped_tune::PlannerProfile::static_default()
            },
            "pinned for test",
        );
        let service = PlanService::start(
            cat,
            ServiceConfig {
                workers: 1,
                tuner: Some(Arc::new(Tuner::new(table))),
                ..Default::default()
            },
        );
        let params = small_params(300, 3);
        let response = service
            .submit(PlanRequest::new(env, params.clone()))
            .unwrap()
            .wait()
            .into_result()
            .expect("served");
        let res = response.profile.as_ref().expect("tuned services stamp");
        assert!(res.from_table);
        assert_eq!(res.class_id, class);
        assert_eq!(res.reason, "pinned for test");
        assert_eq!(res.profile.engine, moped_core::Engine::RrtConnect);

        // Byte-identical to the serial profile path on the same inputs.
        let scenario = service.catalog().get(env).unwrap().scenario.clone();
        let serial = res.profile.plan(&scenario, &params);
        assert_eq!(response.result.solved(), serial.solved());
        assert_eq!(
            response.result.path_cost.to_bits(),
            serial.path_cost.to_bits()
        );
        assert_eq!(response.result.stats.samples, serial.stats.samples);

        let metrics = service.shutdown();
        assert_eq!(metrics.profile_decisions(), vec![(class.clone(), 1, 1)]);
        let text = metrics.dump_text();
        assert!(text.contains(&format!(
            "profile_decisions{{class=\"{class}\"}} 1 (1 from table)"
        )));
        let json = metrics.dump_json();
        assert!(json.contains("\"profile_decisions\":[{\"class\":"));
    }

    #[test]
    fn poll_reports_pending_then_resolution() {
        let cat = mobile_catalog();
        let env = cat.find("clutter/mobile_2d/s1").unwrap();
        let service = PlanService::start(
            cat,
            ServiceConfig {
                workers: 1,
                ..Default::default()
            },
        );
        let ticket = service
            .submit(PlanRequest::new(env, small_params(100, 4)))
            .unwrap();
        let deadline = Instant::now() + Duration::from_secs(30);
        let outcome = loop {
            if let Some(outcome) = ticket.poll() {
                break outcome;
            }
            assert!(Instant::now() < deadline, "poll must resolve");
            std::thread::sleep(Duration::from_millis(1));
        };
        assert!(outcome.is_served());
        // The resolution was taken; later polls report nothing new.
        assert!(ticket.poll().is_none());
        service.shutdown();
    }
}
