//! Fault-injection harness for the serving layer.
//!
//! A [`FaultPlan`] names *sites* in the serving path and attaches rules
//! to them: panic, sleep, or force a queue-full rejection on every Nth
//! hit of the site, optionally capped to a total number of firings. The
//! harness is compiled in unconditionally but completely inert unless a
//! plan is installed in [`ServiceConfig::faults`](crate::ServiceConfig)
//! — the unconfigured cost is one `Option` branch per site.
//!
//! Site semantics (see DESIGN §7):
//!
//! * [`FaultSite::Admission`] fires in the *client* thread inside
//!   [`PlanService::submit`](crate::PlanService::submit); it is the only
//!   site where [`FaultKind::QueueFull`] applies.
//! * [`FaultSite::Planning`] fires inside the worker's per-job panic
//!   guard, just before the plan runs: an injected panic is caught and
//!   resolved as a typed [`FailureReason::Panic`](crate::FailureReason)
//!   response, and the worker goes on to its next job.
//!
//! Hit counters are shared across the pool, so "every Nth" means every
//! Nth hit of the site service-wide, not per worker.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A named instrumentation point in the serving path.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// Inside `PlanService::submit`, before the queue send (client thread).
    Admission,
    /// Just before a job's plan runs, *inside* the worker's per-job
    /// panic guard — a panic here becomes a typed failure response.
    Planning,
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            FaultSite::Admission => "admission",
            FaultSite::Planning => "planning",
        };
        f.write_str(name)
    }
}

/// What happens when a rule fires.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultKind {
    /// Panic at the site (unwinding the client at admission, caught by
    /// the per-job guard at planning).
    Panic,
    /// Sleep for the given duration (artificial latency).
    Delay(Duration),
    /// Force a `RejectReason::QueueFull` rejection; only meaningful at
    /// [`FaultSite::Admission`], ignored elsewhere.
    QueueFull,
}

/// One injection rule: fire `kind` on every `every`-th hit of `site`,
/// at most `limit` times in total.
#[derive(Debug)]
struct FaultRule {
    site: FaultSite,
    kind: FaultKind,
    every: u64,
    limit: u64,
    hits: AtomicU64,
    fired: AtomicU64,
}

/// A set of fault-injection rules shared (via `Arc`) by the admission
/// path and every worker. See the module docs for site semantics.
#[derive(Debug, Default)]
pub struct FaultPlan {
    rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// An empty (inert) plan.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds a rule firing `kind` on every `every`-th hit of `site`, with
    /// no cap on total firings. `every` is clamped to at least 1.
    pub fn with_rule(self, site: FaultSite, kind: FaultKind, every: u64) -> Self {
        self.with_rule_limited(site, kind, every, u64::MAX)
    }

    /// Adds a rule firing `kind` on every `every`-th hit of `site`, at
    /// most `limit` times in total.
    pub fn with_rule_limited(
        mut self,
        site: FaultSite,
        kind: FaultKind,
        every: u64,
        limit: u64,
    ) -> Self {
        self.rules.push(FaultRule {
            site,
            kind,
            every: every.max(1),
            limit,
            hits: AtomicU64::new(0),
            fired: AtomicU64::new(0),
        });
        self
    }

    /// Panic on every `every`-th hit of `site`.
    pub fn panic_every(self, site: FaultSite, every: u64) -> Self {
        self.with_rule(site, FaultKind::Panic, every)
    }

    /// Sleep `delay` on every `every`-th hit of `site`.
    pub fn delay_every(self, site: FaultSite, delay: Duration, every: u64) -> Self {
        self.with_rule(site, FaultKind::Delay(delay), every)
    }

    /// Force a queue-full rejection on every `every`-th admission.
    pub fn queue_full_every(self, every: u64) -> Self {
        self.with_rule(FaultSite::Admission, FaultKind::QueueFull, every)
    }

    /// Records one hit of `site` against every matching rule and returns
    /// the action of the first rule whose cadence and limit allow it to
    /// fire, if any.
    pub(crate) fn fire(&self, site: FaultSite) -> Option<FaultKind> {
        let mut action = None;
        for rule in &self.rules {
            if rule.site != site {
                continue;
            }
            let hit = rule.hits.fetch_add(1, Ordering::Relaxed) + 1;
            // moped-lint: allow(panic-path) `every` is clamped to >= 1 at rule construction
            if hit % rule.every == 0 {
                let prior = rule.fired.fetch_add(1, Ordering::Relaxed);
                if prior < rule.limit && action.is_none() {
                    action = Some(rule.kind);
                }
            }
        }
        action
    }

    /// The panic message used for injected panics at `site`.
    pub(crate) fn panic_message(site: FaultSite) -> String {
        format!("moped-fault: injected panic at {site}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_never_fires() {
        let plan = FaultPlan::new();
        for _ in 0..100 {
            assert_eq!(plan.fire(FaultSite::Planning), None);
        }
    }

    #[test]
    fn cadence_fires_every_nth_hit() {
        let plan = FaultPlan::new().panic_every(FaultSite::Planning, 3);
        let fired: Vec<bool> = (0..9)
            .map(|_| plan.fire(FaultSite::Planning).is_some())
            .collect();
        assert_eq!(
            fired,
            [false, false, true, false, false, true, false, false, true]
        );
        // Hits on other sites do not advance the counter.
        assert_eq!(plan.fire(FaultSite::Admission), None);
    }

    #[test]
    fn limit_caps_total_firings() {
        let plan = FaultPlan::new().with_rule_limited(FaultSite::Planning, FaultKind::Panic, 2, 1);
        let fired: Vec<bool> = (0..8)
            .map(|_| plan.fire(FaultSite::Planning).is_some())
            .collect();
        assert_eq!(fired.iter().filter(|&&f| f).count(), 1);
        assert!(fired[1], "first firing is on the second hit");
    }

    #[test]
    fn first_matching_rule_wins() {
        let plan = FaultPlan::new()
            .delay_every(FaultSite::Admission, Duration::from_millis(1), 1)
            .queue_full_every(1);
        assert_eq!(
            plan.fire(FaultSite::Admission),
            Some(FaultKind::Delay(Duration::from_millis(1)))
        );
    }

    #[test]
    fn zero_cadence_is_clamped() {
        let plan = FaultPlan::new().panic_every(FaultSite::Planning, 0);
        assert!(plan.fire(FaultSite::Planning).is_some());
    }

    #[test]
    fn sites_render() {
        assert_eq!(FaultSite::Admission.to_string(), "admission");
        assert_eq!(FaultSite::Planning.to_string(), "planning");
        assert_eq!(
            FaultPlan::panic_message(FaultSite::Planning),
            "moped-fault: injected panic at planning"
        );
    }
}
