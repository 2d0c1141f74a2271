//! Running one plan request on the MOPED stack, plain or decorated.
//!
//! Every workload plans through a `moped_tune::PlannerProfile`, the same
//! way a tuned `PlanService` worker does: the planner workloads pin the
//! static full-MOPED profile (RRT\*, two-stage checker, SI-MBR with SIAS
//! and LCI); served requests replay under the profile they resolved to.

use std::time::{Duration, Instant};

use moped_collision::{CollisionLedger, TwoStageChecker};
use moped_core::{AnyIndex, PlanResult, PlannerParams, RrtStar};
use moped_env::Scenario;
use moped_tune::PlannerProfile;

use crate::layers::{Ledger, PlanTotals, Reconciliation};
use crate::replay::{self, KernelPrices};
use crate::timed::{EdgeLog, TimedChecker, TimedIndex};
use crate::trace::{self, Recorder, Span};

/// One plan request.
pub struct Request<'a> {
    /// The scene to plan in.
    pub scenario: &'a Scenario,
    /// The scene's two-stage checker.
    pub checker: &'a TwoStageChecker,
    /// The planner stack.
    pub profile: &'a PlannerProfile,
    /// Budget and sampler seed.
    pub params: PlannerParams,
}

/// Plans with no decorators; returns the result and the wall time in ns
/// of building the planner and running it.
pub fn run(req: &Request) -> (PlanResult, u64) {
    let t = Instant::now();
    let result = RrtStar::new(
        req.scenario,
        req.checker,
        req.profile.build_index(req.scenario.robot.dof()),
        req.profile.apply(&req.params),
    )
    .with_engine(req.profile.engine)
    .plan();
    (result, t.elapsed().as_nanos() as u64)
}

/// Plans through the timing decorators under a `plan` span that covers
/// what [`run`] times: building the planner and running it. Returns the
/// result and the SI-MBR node visits, when the index is SI-MBR.
pub fn run_traced(req: &Request, rec: &Recorder, log: &EdgeLog) -> (PlanResult, Option<u64>) {
    let checker = TimedChecker::new(req.checker, rec, log);
    let _plan = rec.span("plan");
    let index = TimedIndex::new(req.profile.build_index(req.scenario.robot.dof()), rec);
    let mut planner = RrtStar::new(
        req.scenario,
        &checker,
        index,
        req.profile.apply(&req.params),
    )
    .with_engine(req.profile.engine);
    let result = planner.plan();
    let visits = match &planner.index().inner {
        AnyIndex::SiMbr(index) => Some(index.search_stats().nodes_visited),
        _ => None,
    };
    (result, visits)
}

/// The traced pass: requests planned twice, plain and decorated.
pub struct Paired {
    /// Span statistics of the decorated plans.
    pub ledger: Ledger,
    /// Op counts of the decorated plans.
    pub totals: PlanTotals,
    /// The plain results, in request order.
    pub plain: Vec<PlanResult>,
    /// Spans of the first requests, for the trace file.
    pub kept: Vec<Span>,
    /// Collision-layer prices from the heaviest plan's kernel replay.
    pub prices: KernelPrices,
    /// Tracing cost and ledger reconciliation.
    pub rc: Reconciliation,
    /// Whether paths matched bit for bit, the replay reproduced the live
    /// ledger, and the ledger reconciled.
    pub correct: bool,
    /// Diagnostics.
    pub notes: Vec<String>,
}

/// Plans `requests` (with their ids) until `budget` elapses, each one
/// plain and through the decorators on `rec` in alternating order, so
/// drift in machine speed falls on both; spans of the first `keep` are
/// kept. The collision queries of the plan with the most poses are then
/// replayed kernel by kernel.
pub fn paired<'a>(
    requests: impl Iterator<Item = (u64, Request<'a>)>,
    budget: Duration,
    keep: usize,
    rec: &Recorder,
) -> Paired {
    let probe_ns = rec.probe_cost_ns();
    let (mut ledger, mut totals) = (Ledger::default(), PlanTotals::default());
    let (mut plain, mut kept, mut notes) = (vec![], vec![], vec![]);
    let (mut correct, mut untraced_ns) = (true, 0.0);
    let (log, mut best) = (EdgeLog::default(), None);
    let start = Instant::now();
    for (i, (id, req)) in requests.enumerate() {
        if start.elapsed() >= budget {
            break;
        }
        let first = (i % 2 == 0).then(|| run(&req));
        rec.set_id(id);
        log.borrow_mut().clear();
        let (result, visits) = run_traced(&req, rec, &log);
        let spans = rec.take();
        let (row, ns) = first.unwrap_or_else(|| run(&req));
        untraced_ns += ns as f64;
        if result.path_cost.to_bits() != row.path_cost.to_bits() {
            correct = false;
            notes.push(format!("request {id}: decorated plan differs from plain"));
        }
        let nearest = spans.iter().filter(|s| s.name == "simbr.nearest").count();
        totals.add(&result, visits, nearest as u64);
        ledger.add(&spans);
        let ledger_now = &result.stats.collision;
        if best
            .as_ref()
            .is_none_or(|(_, l, _): &(_, CollisionLedger, _)| {
                ledger_now.pose_queries > l.pose_queries
            })
        {
            best = Some((req, ledger_now.clone(), log.borrow().clone()));
        }
        if i < keep {
            trace::append(&mut kept, spans);
        }
        plain.push(row);
    }

    let (req, live, queries) = best.expect("at least one request ran");
    let prices = replay::replay(&req.scenario.robot, req.checker, &queries, &live);
    for m in &prices.mismatches {
        correct = false;
        notes.push(format!("kernel replay count mismatch: {m}"));
    }
    let rc = Reconciliation::new(ledger.dur_ns("plan"), untraced_ns, ledger.spans, probe_ns);
    if rc.reconcile_err > 0.15 {
        correct = false;
        notes.push(format!(
            "layer self times miss the untraced wall by {:.1}% (limit 15%)",
            rc.reconcile_err * 100.0
        ));
    }
    Paired {
        ledger,
        totals,
        plain,
        kept,
        prices,
        rc,
        correct,
        notes,
    }
}
