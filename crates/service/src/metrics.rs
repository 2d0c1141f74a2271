//! Lock-free service observability: atomic request counters, a
//! queue-depth gauge, op ledgers and per-class profile decisions, with
//! text/JSON dumps.
//!
//! Every numeric instrument is a plain `AtomicU64` in one service-wide
//! [`Metrics`] registry, so workers and the admission thread record
//! without locks and readers see monotonically consistent (if racy by a
//! few events) values — the usual contract of a scrape-style registry.
//! The registry keeps no wall time: each
//! [`PlanResponse`](crate::PlanResponse) carries its own `queue_wait`
//! and `service_time`.

use std::collections::BTreeMap;
use std::fmt::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use moped_core::PlanStats;

/// The service-wide metrics registry.
///
/// Request accounting obeys `accepted = completed + deadline_expired +
/// cancelled + failed + in_flight_or_queued`; `rejected` counts
/// admissions that never entered the queue. After a drain
/// (`PlanService::shutdown`) the in-flight term is zero, which the
/// integration tests assert. A ticket whose response sender was dropped
/// unsent resolves *client-side* (as a `WorkerDied` failure) and is counted by
/// no terminal counter here; the per-job panic guard leaves no known
/// path to that state.
#[derive(Debug, Default)]
pub struct Metrics {
    accepted: AtomicU64,
    rejected: AtomicU64,
    faults_injected: AtomicU64,
    completed: AtomicU64,
    deadline_expired: AtomicU64,
    cancelled: AtomicU64,
    failed: AtomicU64,
    panics_caught: AtomicU64,
    queue_depth: AtomicU64,
    samples: AtomicU64,
    nodes: AtomicU64,
    rewires: AtomicU64,
    solved: AtomicU64,
    ns_macs: AtomicU64,
    cc_macs: AtomicU64,
    insert_macs: AtomicU64,
    other_macs: AtomicU64,
    /// Profile decisions by request class (admission path only — the
    /// client thread takes this lock, never a worker; the map is the one
    /// string-keyed instrument in the registry, so it lives behind a
    /// mutex instead of forcing classes into a fixed table). BTreeMap
    /// keeps dumps in stable class order.
    profile_decisions: Mutex<BTreeMap<String, (u64, u64)>>,
}

macro_rules! counter_api {
    ($($(#[$doc:meta])* $name:ident / $inc:ident),* $(,)?) => {$(
        $(#[$doc])*
        pub fn $name(&self) -> u64 {
            self.$name.load(Ordering::Relaxed)
        }

        pub(crate) fn $inc(&self) {
            self.$name.fetch_add(1, Ordering::Relaxed);
        }
    )*};
}

impl Metrics {
    counter_api! {
        /// Requests admitted into the queue.
        accepted / inc_accepted,
        /// Requests refused at admission (full queue, unknown env, shutdown).
        rejected / inc_rejected,
        /// Faults fired by the configured `FaultPlan` (always zero when
        /// the harness is unconfigured).
        faults_injected / inc_faults_injected,
        /// Requests that ran to their full sampling budget.
        completed / inc_completed,
        /// Requests cut short by their deadline (best-so-far returned).
        deadline_expired / inc_deadline_expired,
        /// Requests cut short by explicit cancellation.
        cancelled / inc_cancelled,
        /// Requests resolved as typed failures (a caught panic).
        failed / inc_failed,
        /// Jobs that panicked and were caught by the worker's per-job
        /// guard.
        panics_caught / inc_panics_caught,
    }

    /// Records one admission-time profile decision for `class_id`
    /// (`from_table` marks calibrated hits vs. default fallbacks).
    /// Admission path only: workers never touch the decision map.
    pub(crate) fn record_profile_decision(&self, class_id: &str, from_table: bool) {
        let mut map = match self.profile_decisions.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        let entry = map.entry(class_id.to_string()).or_insert((0, 0));
        entry.0 += 1;
        if from_table {
            entry.1 += 1;
        }
    }

    /// Profile decisions by request class, in class order:
    /// `(class, decisions, table_hits)`. Empty on untuned services.
    pub fn profile_decisions(&self) -> Vec<(String, u64, u64)> {
        let map = match self.profile_decisions.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        map.iter().map(|(k, &(n, h))| (k.clone(), n, h)).collect()
    }

    /// Folds one plan's statistics into the op ledgers.
    pub(crate) fn record_stats(&self, stats: &PlanStats, solved: bool) {
        self.samples
            .fetch_add(stats.samples as u64, Ordering::Relaxed);
        self.nodes.fetch_add(stats.nodes as u64, Ordering::Relaxed);
        self.rewires.fetch_add(stats.rewires, Ordering::Relaxed);
        if solved {
            self.solved.fetch_add(1, Ordering::Relaxed);
        }
        self.ns_macs
            .fetch_add(stats.ns_ops.mac_equiv(), Ordering::Relaxed);
        self.cc_macs
            .fetch_add(stats.collision.total_ops().mac_equiv(), Ordering::Relaxed);
        self.insert_macs
            .fetch_add(stats.insert_ops.mac_equiv(), Ordering::Relaxed);
        self.other_macs
            .fetch_add(stats.other_ops.mac_equiv(), Ordering::Relaxed);
    }

    /// Requests currently queued (admitted, not yet dequeued).
    pub fn queue_depth(&self) -> u64 {
        self.queue_depth.load(Ordering::Relaxed)
    }

    pub(crate) fn queue_entered(&self) {
        self.queue_depth.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn queue_left(&self) {
        // Guarded decrement: clamping at zero beats wrapping to
        // u64::MAX should a decrement ever outrun its increment.
        let _ = self
            .queue_depth
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1));
    }

    /// Requests whose response carried a start-to-goal path.
    pub fn solved(&self) -> u64 {
        self.solved.load(Ordering::Relaxed)
    }

    /// Total sampling rounds executed across all responses.
    pub fn samples(&self) -> u64 {
        self.samples.load(Ordering::Relaxed)
    }

    /// MAC-equivalent work split `(collision, neighbor-search, insert,
    /// other)` aggregated across all responses.
    pub fn mac_breakdown(&self) -> (u64, u64, u64, u64) {
        (
            self.cc_macs.load(Ordering::Relaxed),
            self.ns_macs.load(Ordering::Relaxed),
            self.insert_macs.load(Ordering::Relaxed),
            self.other_macs.load(Ordering::Relaxed),
        )
    }

    fn nodes(&self) -> u64 {
        self.nodes.load(Ordering::Relaxed)
    }

    fn rewires(&self) -> u64 {
        self.rewires.load(Ordering::Relaxed)
    }

    /// Every scalar instrument as `(key, value)`, in dump order; both
    /// dumps render this one list.
    fn fields(&self) -> [(&'static str, u64); 17] {
        let (cc, ns, ins, other) = self.mac_breakdown();
        [
            ("requests_accepted", self.accepted()),
            ("requests_rejected", self.rejected()),
            ("requests_completed", self.completed()),
            ("requests_deadline_expired", self.deadline_expired()),
            ("requests_cancelled", self.cancelled()),
            ("requests_failed", self.failed()),
            ("requests_solved", self.solved()),
            ("panics_caught", self.panics_caught()),
            ("faults_injected", self.faults_injected()),
            ("queue_depth", self.queue_depth()),
            ("samples_total", self.samples()),
            ("nodes_total", self.nodes()),
            ("rewires_total", self.rewires()),
            ("macs_collision", cc),
            ("macs_neighbor_search", ns),
            ("macs_insert", ins),
            ("macs_other", other),
        ]
    }

    /// Human-readable dump (one `key value` pair per line).
    pub fn dump_text(&self) -> String {
        let mut out = String::new();
        for (k, v) in self.fields() {
            let _ = writeln!(out, "{k} {v}");
        }
        // Autotuner decisions (aggregate-on-read: the per-class map is
        // folded here, never on the per-request path).
        for (class, decisions, hits) in self.profile_decisions() {
            let _ = writeln!(
                out,
                "profile_decisions{{class=\"{class}\"}} {decisions} ({hits} from table)"
            );
        }
        out
    }

    /// Machine-readable dump (a flat JSON object; hand-rolled because the
    /// workspace deliberately has no serialization dependency).
    pub fn dump_json(&self) -> String {
        let mut body: Vec<String> = self
            .fields()
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        let decisions = self
            .profile_decisions()
            .iter()
            .map(|(class, n, hits)| {
                format!("{{\"class\":\"{class}\",\"decisions\":{n},\"table_hits\":{hits}}}")
            })
            .collect::<Vec<_>>()
            .join(",");
        body.push(format!("\"profile_decisions\":[{decisions}]"));
        format!("{{{}}}", body.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_depth_gauge_never_underflows() {
        let m = Metrics::default();
        // An unmatched decrement (panic/early-reject recovery path)
        // must clamp at zero, not wrap to u64::MAX.
        m.queue_left();
        assert_eq!(m.queue_depth(), 0);
        m.queue_entered();
        m.queue_entered();
        m.queue_left();
        m.queue_left();
        m.queue_left();
        assert_eq!(m.queue_depth(), 0);
        m.queue_entered();
        assert_eq!(m.queue_depth(), 1);
    }

    #[test]
    fn dumps_contain_counters() {
        let m = Metrics::default();
        m.inc_accepted();
        m.inc_completed();
        m.inc_failed();
        m.inc_panics_caught();
        m.record_profile_decision("mobile/open", true);
        let text = m.dump_text();
        assert!(text.contains("requests_accepted 1"));
        assert!(text.contains("requests_completed 1"));
        assert!(text.contains("requests_failed 1"));
        assert!(text.contains("panics_caught 1"));
        assert!(text.contains("faults_injected 0"));
        assert!(text.contains("nodes_total 0"));
        assert!(text.contains("rewires_total 0"));
        let json = m.dump_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"requests_accepted\":1"));
        assert!(json.contains("\"requests_failed\":1"));
        assert!(json.contains("\"panics_caught\":1"));
        assert!(json.contains("\"profile_decisions\":[{\"class\":\"mobile/open\""));
        // Both dumps render one key list: every text key is a JSON key.
        for line in text.lines() {
            let key = line.split([' ', '{']).next().unwrap_or(line);
            assert!(
                json.contains(&format!("\"{key}\":")),
                "{key} missing from {json}"
            );
        }
    }
}
