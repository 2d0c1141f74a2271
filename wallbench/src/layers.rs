//! The per-layer ledger of a traced run: span self times per layer,
//! planner op counts, kernel prices, and the reconciliation of the
//! layers against the untraced wall time.

use std::collections::BTreeMap;

use moped_core::PlanResult;

use crate::replay::KernelPrices;
use crate::stats::percentile;
use crate::trace::{self_times, Span};
use crate::Metric;

/// Span names of each planner layer.
const COLLISION: [&str; 2] = ["collision.motion", "collision.pose"];
const SIMBR: [&str; 3] = ["simbr.nearest", "simbr.neighborhood", "simbr.insert"];

/// Accumulated span statistics, keyed by span name.
#[derive(Default)]
pub struct Ledger {
    selfs: BTreeMap<&'static str, Vec<f64>>,
    durs: BTreeMap<&'static str, Vec<f64>>,
    /// Spans recorded.
    pub spans: u64,
}

impl Ledger {
    /// Folds one plan's or request's spans in.
    pub fn add(&mut self, spans: &[Span]) {
        for (s, own) in spans.iter().zip(self_times(spans)) {
            self.selfs.entry(s.name).or_default().push(own as f64);
            self.durs.entry(s.name).or_default().push(s.dur() as f64);
        }
        self.spans += spans.len() as u64;
    }

    /// Summed self time of the named spans, ns.
    pub fn self_ns(&self, names: &[&str]) -> f64 {
        names
            .iter()
            .filter_map(|n| self.selfs.get(n))
            .flatten()
            .sum()
    }

    /// Durations of the named span, ns.
    pub fn durs(&self, name: &str) -> &[f64] {
        self.durs.get(name).map_or(&[], Vec::as_slice)
    }

    /// Summed duration of the named span, ns.
    pub fn dur_ns(&self, name: &str) -> f64 {
        self.durs(name).iter().sum()
    }
}

/// Planner op counts summed over the traced plans.
#[derive(Default)]
pub struct PlanTotals {
    plans: u64,
    motions: u64,
    poses: u64,
    node_checks: u64,
    sat_tests: u64,
    samples: u64,
    nodes: u64,
    rewires: u64,
    macs: u64,
    simbr_visits: u64,
    simbr_nearest: u64,
}

impl PlanTotals {
    /// Adds one plan; `visits` is its SI-MBR node-visit count and
    /// `nearest` its nearest-query count when the index was SI-MBR.
    pub fn add(&mut self, r: &PlanResult, visits: Option<u64>, nearest: u64) {
        let c = &r.stats.collision;
        self.plans += 1;
        self.motions += c.motion_queries;
        self.poses += c.pose_queries;
        self.node_checks += c.filter.node_checks;
        self.sat_tests += c.second_stage.sat_queries;
        self.samples += r.stats.samples as u64;
        self.nodes += r.stats.nodes as u64;
        self.rewires += r.stats.rewires;
        self.macs += r.stats.total_ops().mac_equiv();
        if let Some(v) = visits {
            self.simbr_visits += v;
            self.simbr_nearest += nearest;
        }
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Tracing cost and ledger reconciliation of a traced pass against the
/// untraced pass over the same requests.
pub struct Reconciliation {
    /// Traced plan wall over untraced, minus one; clamped at 0, since a
    /// traced pass that reads faster only shows machine noise.
    pub overhead_frac: f64,
    /// Sum of all layer self times, less the measured probe cost of
    /// every span, against the untraced wall: absolute relative error.
    pub reconcile_err: f64,
}

impl Reconciliation {
    /// `traced_ns` is the summed duration of the root spans, whose self
    /// times partition it; `probe_ns` the cost of one span.
    pub fn new(traced_ns: f64, untraced_ns: f64, spans: u64, probe_ns: f64) -> Self {
        let layers_ns = traced_ns - spans as f64 * probe_ns;
        Reconciliation {
            overhead_frac: (ratio(traced_ns, untraced_ns) - 1.0).max(0.0),
            reconcile_err: (ratio(layers_ns, untraced_ns) - 1.0).abs(),
        }
    }
}

/// Request-path timings of the served workload, ns: each list has one
/// entry per request. The planner workloads have no request path and
/// report the empty default (every metric 0).
#[derive(Default)]
pub struct ServiceTimes {
    /// Admission: the `submit` call.
    pub admit: Vec<f64>,
    /// Admission to dequeue.
    pub queue: Vec<f64>,
    /// Planning on the worker, at the fixed offered rate.
    pub service: Vec<f64>,
    /// Planning on the worker, above capacity.
    pub service_sat: Vec<f64>,
    /// Latency left over after admission, queueing and planning.
    pub handoff: Vec<f64>,
    /// Due time to resolution.
    pub latency: Vec<f64>,
    /// How late each request was issued relative to its due time.
    pub lag: Vec<f64>,
    /// `swap_env` calls.
    pub swap: Vec<f64>,
    /// Share of paths planned just after a swap that the oracle refutes
    /// against the swapped-in snapshot.
    pub stale_path_frac: f64,
    /// Profile calibration in set-up, s.
    pub calibrate_s: f64,
}

/// The service, environment, tuner and load-generator metrics.
pub fn service_metrics(s: &ServiceTimes) -> Vec<Metric> {
    let p = |v: &[f64], q: f64, scale: f64| percentile(v, q) / scale;
    let plan: f64 = s.service.iter().sum();
    let latency: f64 = s.latency.iter().sum();
    vec![
        Metric::new("service.admit_us_p50", p(&s.admit, 50.0, 1e3), "us"),
        Metric::new("service.queue_wait_ms_p50", p(&s.queue, 50.0, 1e6), "ms"),
        Metric::new("service.queue_wait_ms_p99", p(&s.queue, 99.0, 1e6), "ms"),
        Metric::new(
            "service.service_time_ms_p50",
            p(&s.service, 50.0, 1e6),
            "ms",
        ),
        Metric::new(
            "service.service_time_sat_ms_p50",
            p(&s.service_sat, 50.0, 1e6),
            "ms",
        ),
        Metric::new("service.handoff_us_p50", p(&s.handoff, 50.0, 1e3), "us"),
        Metric::new("service.latency_ms_p99", p(&s.latency, 99.0, 1e6), "ms"),
        Metric::new("service.plan_share", ratio(plan, latency), "fraction"),
        Metric::new("env.swap_ms_p50", p(&s.swap, 50.0, 1e6), "ms"),
        Metric::new("env.stale_path_frac", s.stale_path_frac, "fraction"),
        Metric::new("tune.calibrate_s", s.calibrate_s, "s"),
        Metric::new("loadgen.lag_ms_p99", p(&s.lag, 99.0, 1e6), "ms"),
    ]
}

/// The planner-layer metrics: collision, R-tree, geometry, robot,
/// SI-MBR and core.
pub fn planner_metrics(l: &Ledger, t: &PlanTotals, k: &KernelPrices) -> Vec<Metric> {
    let plan_ns = l.dur_ns("plan");
    let plans = t.plans as f64;
    let poses = t.poses as f64;
    vec![
        Metric::new(
            "collision.share",
            ratio(l.self_ns(&COLLISION), plan_ns),
            "fraction",
        ),
        Metric::new(
            "collision.motion_ns_p50",
            percentile(l.durs(COLLISION[0]), 50.0),
            "ns",
        ),
        Metric::new(
            "collision.motions_per_plan",
            ratio(t.motions as f64, plans),
            "count",
        ),
        Metric::new(
            "collision.poses_per_motion",
            ratio(poses, t.motions as f64),
            "count",
        ),
        Metric::new("robot.fk_ns", k.fk_ns, "ns"),
        Metric::new("rtree.filter_ns", k.filter_ns, "ns"),
        Metric::new(
            "rtree.node_checks_per_pose",
            ratio(t.node_checks as f64, poses),
            "count",
        ),
        Metric::new(
            "rtree.survivor_frac",
            ratio(k.useful_filters as f64, k.filter_calls as f64),
            "fraction",
        ),
        Metric::new("geometry.narrow_ns", k.narrow_ns, "ns"),
        Metric::new(
            "geometry.sat_tests_per_pose",
            ratio(t.sat_tests as f64, poses),
            "count",
        ),
        Metric::new("simbr.share", ratio(l.self_ns(&SIMBR), plan_ns), "fraction"),
        Metric::new(
            "simbr.nearest_ns_p50",
            percentile(l.durs(SIMBR[0]), 50.0),
            "ns",
        ),
        Metric::new(
            "simbr.visits_per_nearest",
            ratio(t.simbr_visits as f64, t.simbr_nearest as f64),
            "count",
        ),
        Metric::new(
            "simbr.neighborhood_ns_p50",
            percentile(l.durs(SIMBR[1]), 50.0),
            "ns",
        ),
        Metric::new(
            "simbr.insert_ns_p50",
            percentile(l.durs(SIMBR[2]), 50.0),
            "ns",
        ),
        Metric::new(
            "core.self_share",
            ratio(l.self_ns(&["plan"]), plan_ns),
            "fraction",
        ),
        Metric::new(
            "core.samples_per_plan",
            ratio(t.samples as f64, plans),
            "count",
        ),
        Metric::new("core.nodes_per_plan", ratio(t.nodes as f64, plans), "count"),
        Metric::new(
            "core.rewires_per_plan",
            ratio(t.rewires as f64, plans),
            "count",
        ),
        Metric::new(
            "core.macs_per_plan",
            ratio(t.macs as f64, plans),
            "modelled_mac",
        ),
    ]
}

impl Reconciliation {
    /// The tracing-cost metrics.
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            Metric::new("trace.overhead_frac", self.overhead_frac, "fraction"),
            Metric::new("ledger.reconcile_err", self.reconcile_err, "fraction"),
        ]
    }
}
