//! Lock-free service observability: atomic counters, gauges, and
//! fixed-bucket latency histograms with text/JSON dumps.
//!
//! Every instrument is a plain `AtomicU64` in one service-wide
//! [`Metrics`] registry, so workers and the admission thread record
//! without locks and readers see monotonically consistent (if racy by a
//! few events) values — the usual contract of a scrape-style registry.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use moped_core::PlanStats;

/// Upper bucket bounds in microseconds; one overflow bucket follows.
/// Spans 50µs .. 13s on a ~×1.6 geometric grid (a 1-2-3-5-8-13 ladder
/// per decade). The previous grid stepped ×3 per bucket, which collapsed
/// p50 and p99 onto the same bound for any unimodal latency
/// distribution narrower than one bucket — exactly what service plans
/// in the low tens of milliseconds produced.
pub const LATENCY_BUCKET_BOUNDS_US: [u64; 28] = [
    50, 80, 130, 200, 320, 500, 800, 1_300, 2_000, 3_200, 5_000, 8_000, 13_000, 20_000, 32_000,
    50_000, 80_000, 130_000, 200_000, 320_000, 500_000, 800_000, 1_300_000, 2_000_000, 3_200_000,
    5_000_000, 8_000_000, 13_000_000,
];

const BUCKETS: usize = LATENCY_BUCKET_BOUNDS_US.len() + 1;

/// A fixed-bucket histogram of durations (microsecond resolution).
#[derive(Debug)]
pub struct LatencyHistogram {
    counts: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
    max_us: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// Records one observation.
    pub fn record(&self, d: Duration) {
        let us = d.as_micros().min(u64::MAX as u128) as u64;
        let bucket = LATENCY_BUCKET_BOUNDS_US
            .iter()
            .position(|&b| us <= b)
            .unwrap_or(BUCKETS - 1);
        if let Some(slot) = self.counts.get(bucket) {
            slot.fetch_add(1, Ordering::Relaxed);
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// A point-in-time copy of the histogram, for quantile math.
    pub fn snapshot(&self) -> LatencyStats {
        LatencyStats {
            counts: std::array::from_fn(|i| self.counts[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum_us: self.sum_us.load(Ordering::Relaxed),
            max_us: self.max_us.load(Ordering::Relaxed),
        }
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// The largest recorded observation.
    pub fn max(&self) -> Duration {
        Duration::from_micros(self.max_us.load(Ordering::Relaxed))
    }

    /// Mean of all observations (zero when empty).
    pub fn mean(&self) -> Duration {
        self.snapshot().mean()
    }

    /// Within-bucket interpolated estimate of the `q`-quantile; see
    /// [`LatencyStats::quantile`].
    pub fn quantile(&self, q: f64) -> Duration {
        self.snapshot().quantile(q)
    }
}

/// An owned snapshot of a [`LatencyHistogram`].
#[derive(Clone, Copy, Debug)]
pub struct LatencyStats {
    counts: [u64; BUCKETS],
    count: u64,
    sum_us: u64,
    max_us: u64,
}

impl LatencyStats {
    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The largest recorded observation.
    pub fn max(&self) -> Duration {
        Duration::from_micros(self.max_us)
    }

    /// Mean of all observations (zero when empty).
    pub fn mean(&self) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        Duration::from_micros(self.sum_us / self.count)
    }

    /// Estimate of the `q`-quantile (`0.0 ..= 1.0`) with *linear
    /// interpolation inside the bucket* holding the target rank: the
    /// rank's position within the bucket's count places it between the
    /// bucket's lower and upper bounds (the upper bound clamped to the
    /// observed max, which also gives the unbounded overflow bucket a
    /// finite ceiling). Interpolation is what keeps p50 and p99
    /// distinguishable when most observations share one bucket.
    pub fn quantile(&self, q: f64) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if seen + c >= rank && c > 0 {
                let lower = if i == 0 {
                    0
                } else {
                    LATENCY_BUCKET_BOUNDS_US[i - 1]
                };
                let upper = if i < LATENCY_BUCKET_BOUNDS_US.len() {
                    LATENCY_BUCKET_BOUNDS_US[i].min(self.max_us)
                } else {
                    self.max_us
                };
                let upper = upper.max(lower);
                let frac = (rank - seen) as f64 / c as f64;
                let us = lower as f64 + (upper - lower) as f64 * frac;
                return Duration::from_micros(us.round() as u64);
            }
            seen += c;
        }
        Duration::from_micros(self.max_us)
    }

    /// Per-bucket counts (the overflow bucket last).
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.counts.to_vec()
    }
}

/// The service-wide metrics registry.
///
/// Request accounting obeys `accepted = completed + deadline_expired +
/// cancelled + failed + in_flight_or_queued`; `rejected` counts
/// admissions that never entered the queue. After a drain
/// (`PlanService::shutdown`) the in-flight term is zero, which the
/// integration tests assert. A ticket whose responder was dropped unsent
/// resolves *client-side* (as a `WorkerDied` failure) and is counted by
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
    /// Wall time from dequeue to response.
    service_latency: LatencyHistogram,
    /// Wall time from admission to dequeue (planning time excluded by
    /// construction: the sample is taken the moment the job leaves the
    /// queue, before planning runs).
    queue_wait: LatencyHistogram,
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

    /// Records a dequeue-to-response service time.
    pub(crate) fn record_service_latency(&self, d: Duration) {
        self.service_latency.record(d);
    }

    /// Records an admission-to-dequeue queue wait.
    pub(crate) fn record_queue_wait(&self, d: Duration) {
        self.queue_wait.record(d);
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

    /// Dequeue-to-response latency.
    pub fn service_latency(&self) -> LatencyStats {
        self.service_latency.snapshot()
    }

    /// Admission-to-dequeue queue wait.
    pub fn queue_wait(&self) -> LatencyStats {
        self.queue_wait.snapshot()
    }

    /// Human-readable dump (one `key value` pair per line).
    pub fn dump_text(&self) -> String {
        let (cc, ns, ins, other) = self.mac_breakdown();
        let latency = self.service_latency();
        let queue_wait = self.queue_wait();
        let mut out = String::new();
        let mut kv = |k: &str, v: String| {
            out.push_str(k);
            out.push(' ');
            out.push_str(&v);
            out.push('\n');
        };
        kv("requests_accepted", self.accepted().to_string());
        kv("requests_rejected", self.rejected().to_string());
        kv("requests_completed", self.completed().to_string());
        kv(
            "requests_deadline_expired",
            self.deadline_expired().to_string(),
        );
        kv("requests_cancelled", self.cancelled().to_string());
        kv("requests_failed", self.failed().to_string());
        kv("requests_solved", self.solved().to_string());
        kv("panics_caught", self.panics_caught().to_string());
        kv("faults_injected", self.faults_injected().to_string());
        kv("queue_depth", self.queue_depth().to_string());
        kv("samples_total", self.samples().to_string());
        kv("nodes_total", self.nodes().to_string());
        kv("rewires_total", self.rewires().to_string());
        kv("macs_collision", cc.to_string());
        kv("macs_neighbor_search", ns.to_string());
        kv("macs_insert", ins.to_string());
        kv("macs_other", other.to_string());
        kv(
            "latency_p50_us",
            latency.quantile(0.50).as_micros().to_string(),
        );
        kv(
            "latency_p95_us",
            latency.quantile(0.95).as_micros().to_string(),
        );
        kv(
            "latency_p99_us",
            latency.quantile(0.99).as_micros().to_string(),
        );
        kv("latency_max_us", latency.max().as_micros().to_string());
        kv("latency_mean_us", latency.mean().as_micros().to_string());
        kv(
            "queue_wait_p95_us",
            queue_wait.quantile(0.95).as_micros().to_string(),
        );
        kv(
            "queue_wait_p99_us",
            queue_wait.quantile(0.99).as_micros().to_string(),
        );
        // Autotuner decisions (aggregate-on-read: the per-class map is
        // folded here, never on the per-request path).
        for (class, decisions, hits) in self.profile_decisions() {
            kv(
                &format!("profile_decisions{{class=\"{class}\"}}"),
                format!("{decisions} ({hits} from table)"),
            );
        }
        out
    }

    /// Machine-readable dump (a flat JSON object; hand-rolled because the
    /// workspace deliberately has no serialization dependency).
    pub fn dump_json(&self) -> String {
        let (cc, ns, ins, other) = self.mac_breakdown();
        let latency = self.service_latency();
        let queue_wait = self.queue_wait();
        let mut fields: Vec<(String, String)> = vec![
            ("requests_accepted".into(), self.accepted().to_string()),
            ("requests_rejected".into(), self.rejected().to_string()),
            ("requests_completed".into(), self.completed().to_string()),
            (
                "requests_deadline_expired".into(),
                self.deadline_expired().to_string(),
            ),
            ("requests_cancelled".into(), self.cancelled().to_string()),
            ("requests_failed".into(), self.failed().to_string()),
            ("requests_solved".into(), self.solved().to_string()),
            ("panics_caught".into(), self.panics_caught().to_string()),
            ("faults_injected".into(), self.faults_injected().to_string()),
            ("queue_depth".into(), self.queue_depth().to_string()),
            ("samples_total".into(), self.samples().to_string()),
            ("macs_collision".into(), cc.to_string()),
            ("macs_neighbor_search".into(), ns.to_string()),
            ("macs_insert".into(), ins.to_string()),
            ("macs_other".into(), other.to_string()),
            (
                "latency_p50_us".into(),
                latency.quantile(0.50).as_micros().to_string(),
            ),
            (
                "latency_p95_us".into(),
                latency.quantile(0.95).as_micros().to_string(),
            ),
            (
                "latency_p99_us".into(),
                latency.quantile(0.99).as_micros().to_string(),
            ),
            (
                "latency_max_us".into(),
                latency.max().as_micros().to_string(),
            ),
            (
                "queue_wait_p99_us".into(),
                queue_wait.quantile(0.99).as_micros().to_string(),
            ),
        ];
        let decisions = self
            .profile_decisions()
            .iter()
            .map(|(class, n, hits)| {
                format!("{{\"class\":\"{class}\",\"decisions\":{n},\"table_hits\":{hits}}}")
            })
            .collect::<Vec<_>>()
            .join(",");
        fields.push(("profile_decisions".into(), format!("[{decisions}]")));
        let buckets = latency
            .bucket_counts()
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(",");
        fields.push(("latency_buckets".into(), format!("[{buckets}]")));
        let body = fields
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect::<Vec<_>>()
            .join(",");
        format!("{{{body}}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_are_ordered() {
        let h = LatencyHistogram::default();
        for ms in [1u64, 2, 3, 10, 20, 40, 80, 200, 500, 900] {
            h.record(Duration::from_millis(ms));
        }
        assert_eq!(h.count(), 10);
        assert!(h.quantile(0.5) <= h.quantile(0.95));
        assert!(h.quantile(0.95) <= h.max());
        assert_eq!(h.max(), Duration::from_millis(900));
        assert!(h.mean() >= Duration::from_millis(100));
    }

    /// Interpolation sanity on a known distribution: 10,000 evenly
    /// spaced observations over 0..100ms must put p50 near 50ms and p99
    /// near 99ms — and, critically, *apart* from each other. (The old
    /// ×3-step grid put both on the same bucket bound.)
    #[test]
    fn interpolated_quantiles_track_a_uniform_distribution() {
        let h = LatencyHistogram::default();
        for i in 0..10_000u64 {
            h.record(Duration::from_micros(i * 10));
        }
        let p50 = h.quantile(0.50).as_micros() as u64;
        let p99 = h.quantile(0.99).as_micros() as u64;
        assert!((45_000..=55_000).contains(&p50), "p50 = {p50}us");
        assert!((94_000..=100_000).contains(&p99), "p99 = {p99}us");
        assert!(p50 < p99, "interpolation must separate p50 from p99");
        // Monotone across the whole quantile range.
        let qs: Vec<u64> = [0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0]
            .iter()
            .map(|&q| h.quantile(q).as_micros() as u64)
            .collect();
        assert!(qs.windows(2).all(|w| w[0] <= w[1]), "{qs:?}");
    }

    /// p50 and p99 must stay distinguishable even when every
    /// observation lands in one bucket — the exact symptom the
    /// BENCH_service.json artifact showed (p50 == p99 == 13350).
    #[test]
    fn quantiles_separate_within_a_single_bucket() {
        let h = LatencyHistogram::default();
        // 13350us sat in the old (5ms, 15ms] bucket; the new grid puts
        // it in (13ms, 20ms]. Spread observations inside one bucket.
        for i in 0..1000u64 {
            h.record(Duration::from_micros(13_100 + i * 6)); // 13.1ms..19.1ms
        }
        let p50 = h.quantile(0.50);
        let p99 = h.quantile(0.99);
        assert!(p50 < p99, "p50 {p50:?} must be below p99 {p99:?}");
    }

    #[test]
    fn histogram_overflow_bucket_reports_max() {
        let h = LatencyHistogram::default();
        h.record(Duration::from_secs(30)); // beyond the last bound
        assert_eq!(h.quantile(0.99), Duration::from_secs(30));
    }

    /// Percentile estimation on an *empty* histogram is fully defined:
    /// every quantile (including the extremes), the mean, and the max
    /// are exactly zero — no division by the zero count, no garbage
    /// bucket bound.
    #[test]
    fn empty_histogram_is_zero() {
        let h = LatencyHistogram::default();
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Duration::ZERO, "q={q}");
        }
        assert_eq!(h.mean(), Duration::ZERO);
        assert_eq!(h.max(), Duration::ZERO);
        assert_eq!(h.count(), 0);
    }

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
    fn latency_readers_see_every_record() {
        let m = Metrics::default();
        m.record_service_latency(Duration::from_millis(5));
        m.record_service_latency(Duration::from_millis(50));
        assert_eq!(m.service_latency().count(), 2);
        assert_eq!(m.service_latency().max(), Duration::from_millis(50));
        m.record_queue_wait(Duration::from_micros(300));
        assert_eq!(m.queue_wait().count(), 1);
    }

    #[test]
    fn dumps_contain_counters() {
        let m = Metrics::default();
        m.inc_accepted();
        m.inc_completed();
        m.inc_failed();
        m.inc_panics_caught();
        m.record_service_latency(Duration::from_millis(3));
        let text = m.dump_text();
        assert!(text.contains("requests_accepted 1"));
        assert!(text.contains("requests_completed 1"));
        assert!(text.contains("requests_failed 1"));
        assert!(text.contains("panics_caught 1"));
        assert!(text.contains("faults_injected 0"));
        assert!(text.contains("latency_p99_us"));
        assert!(text.contains("queue_wait_p99_us"));
        let json = m.dump_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"requests_accepted\":1"));
        assert!(json.contains("\"requests_failed\":1"));
        assert!(json.contains("\"panics_caught\":1"));
        assert!(json.contains("\"latency_buckets\":["));
        assert!(json.contains("\"queue_wait_p99_us\":"));
    }
}
