//! Machine-readable service-layer benchmark: an *open-loop* load
//! generator with deterministic Poisson arrivals, run against the worker
//! pool at several pool sizes, writing a flat JSON report (throughput
//! plus latency and queue-wait percentiles per worker count).
//!
//! Open-loop means arrivals do not wait for completions: request `i` is
//! submitted at its pre-drawn arrival time whether or not earlier
//! requests have finished, exactly like independent clients hitting a
//! service. The closed 64-request batch this replaces could never expose
//! saturation behaviour — a closed loop self-throttles to the pool's
//! speed, so queueing delay is invisible and the measured "throughput"
//! is just batch/latency. Under open-loop load the offered rate is fixed
//! above capacity, every row measures the pool's actual sustained
//! capacity, and queue-wait percentiles mean something.
//!
//! Arrivals are seeded: inter-arrival gaps are exponential draws from a
//! splitmix64 stream, so the same seed replays the same arrival process
//! (and request `i` always plans environment `i % catalog` with planner
//! seed `i` — the whole run is reproducible from the config stamp). The
//! report also stamps the machine's core count: throughput-vs-workers
//! curves are meaningless without it.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p moped-bench --bin service_bench -- \
//!     [--requests 1000] [--samples 1200] [--rate 4000] [--seed 7] \
//!     [--smoke] [--out BENCH_service.json]
//! ```
//!
//! `--smoke` runs a small 1-vs-4-worker scaling gate (used by
//! scripts/verify.sh) and exits non-zero if 4 workers fail to beat 1
//! worker by the factor this machine's core count can support: 1.5x on
//! a >=4-core machine, and a 0.75x no-collapse floor on smaller ones
//! (a single core cannot parallelize CPU-bound planning, but the pool
//! must at least not scale *negatively* the way the old
//! `Mutex<Receiver>` pool did).

use std::time::{Duration, Instant};

use moped_core::PlannerParams;
use moped_robot::Robot;
use moped_service::{EnvironmentCatalog, PlanRequest, PlanService, PlanTicket, ServiceConfig};

const WORKER_COUNTS: [usize; 5] = [1, 4, 8, 16, 32];
const SMOKE_WORKER_COUNTS: [usize; 2] = [1, 4];

/// One step of splitmix64 (the workspace's stock deterministic stream).
fn splitmix64(state: &mut u64) -> f64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// Deterministic Poisson arrival times: cumulative sums of exponential
/// inter-arrival gaps at `rate_per_s`, as offsets from the run start.
fn poisson_arrivals(n: usize, rate_per_s: f64, seed: u64) -> Vec<Duration> {
    let mut state = seed;
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            let u = splitmix64(&mut state);
            // Inverse-CDF draw; (1 - u) keeps ln away from zero.
            t += -(1.0 - u).ln() / rate_per_s.max(1e-9);
            Duration::from_secs_f64(t)
        })
        .collect()
}

struct Row {
    workers: usize,
    served: usize,
    rejected: usize,
    elapsed_s: f64,
    throughput: f64,
    p50_us: u128,
    p99_us: u128,
    queue_wait_p50_us: u128,
    queue_wait_p99_us: u128,
}

struct Load {
    requests: usize,
    samples: usize,
    rate_per_s: f64,
    seed: u64,
}

fn run_open_loop(workers: usize, load: &Load) -> Row {
    let catalog = EnvironmentCatalog::standard(&Robot::mobile_2d());
    let env_ids: Vec<_> = catalog.ids().collect();
    let service = PlanService::start(
        catalog,
        ServiceConfig {
            workers,
            // Deep buffer: this run measures capacity and queueing, not
            // admission control, so nothing should be shed at the door.
            queue_capacity: load.requests,
            ..Default::default()
        },
    );

    let arrivals = poisson_arrivals(load.requests, load.rate_per_s, load.seed);
    let start = Instant::now();
    let mut tickets: Vec<PlanTicket> = Vec::with_capacity(load.requests);
    let mut rejected = 0usize;
    for (i, offset) in arrivals.iter().enumerate() {
        // Open-loop pacing: sleep until this request's absolute due
        // time. Sleeping (not spinning) keeps the generator off the
        // workers' backs on small machines.
        let due = start + *offset;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let params = PlannerParams {
            max_samples: load.samples,
            seed: i as u64,
            ..PlannerParams::default()
        };
        match service.submit(PlanRequest::new(env_ids[i % env_ids.len()], params)) {
            Ok(ticket) => tickets.push(ticket),
            Err(_) => rejected += 1,
        }
    }
    let served = tickets
        .into_iter()
        .map(PlanTicket::wait)
        .filter(|outcome| outcome.is_served())
        .count();
    // Elapsed spans first arrival to last resolution: under an offered
    // rate above capacity this is the sustained-capacity denominator.
    let elapsed = start.elapsed();
    let metrics = service.metrics();
    service.shutdown();

    let latency = metrics.service_latency();
    let queue_wait = metrics.queue_wait();
    let elapsed_s = elapsed.as_secs_f64();
    Row {
        workers,
        served,
        rejected,
        elapsed_s,
        throughput: served as f64 / elapsed_s.max(1e-9),
        p50_us: latency.quantile(0.50).as_micros(),
        p99_us: latency.quantile(0.99).as_micros(),
        queue_wait_p50_us: queue_wait.quantile(0.50).as_micros(),
        queue_wait_p99_us: queue_wait.quantile(0.99).as_micros(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut load = Load {
        requests: 1000,
        // Heavy enough that per-request work dominates queue hand-off:
        // short plans underestimate pool scaling.
        samples: 1200,
        // Offered rate above any single-machine capacity, so every row
        // measures sustained capacity rather than the arrival process.
        rate_per_s: 4000.0,
        seed: 7,
    };
    let mut out = "BENCH_service.json".to_string();
    let mut smoke = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--requests" => {
                load.requests = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(load.requests)
            }
            "--samples" => {
                load.samples = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(load.samples)
            }
            "--rate" => {
                load.rate_per_s = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(load.rate_per_s)
            }
            "--seed" => load.seed = it.next().and_then(|v| v.parse().ok()).unwrap_or(load.seed),
            "--out" => out = it.next().cloned().unwrap_or(out),
            "--smoke" => {
                // Small presets for the CI gate; later flags still
                // override them.
                smoke = true;
                load.requests = 240;
                load.samples = 400;
                load.rate_per_s = 2000.0;
            }
            other => eprintln!("ignoring unknown flag {other}"),
        }
    }

    let cpus = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let worker_counts: &[usize] = if smoke {
        &SMOKE_WORKER_COUNTS
    } else {
        &WORKER_COUNTS
    };

    println!(
        "service bench — open-loop Poisson arrivals: {} requests at {:.0}/s, \
         {} samples/request, seed {}, {} cpu(s)",
        load.requests, load.rate_per_s, load.samples, load.seed, cpus
    );
    println!(
        "{:>8} {:>8} {:>9} {:>10} {:>12} {:>10} {:>10} {:>13} {:>13}",
        "workers",
        "served",
        "rejected",
        "elapsed_s",
        "plans_per_s",
        "p50_us",
        "p99_us",
        "qwait_p50_us",
        "qwait_p99_us"
    );
    let rows: Vec<Row> = worker_counts
        .iter()
        .map(|&w| {
            let row = run_open_loop(w, &load);
            println!(
                "{:>8} {:>8} {:>9} {:>10.3} {:>12.1} {:>10} {:>10} {:>13} {:>13}",
                row.workers,
                row.served,
                row.rejected,
                row.elapsed_s,
                row.throughput,
                row.p50_us,
                row.p99_us,
                row.queue_wait_p50_us,
                row.queue_wait_p99_us
            );
            row
        })
        .collect();

    // Flat, dependency-free JSON (mirrors the shape of Metrics::dump_json).
    let body = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"workers\":{},\"served\":{},\"rejected\":{},\"elapsed_s\":{:.6},\
                 \"plans_per_s\":{:.3},\"latency_p50_us\":{},\"latency_p99_us\":{},\
                 \"queue_wait_p50_us\":{},\"queue_wait_p99_us\":{}}}",
                r.workers,
                r.served,
                r.rejected,
                r.elapsed_s,
                r.throughput,
                r.p50_us,
                r.p99_us,
                r.queue_wait_p50_us,
                r.queue_wait_p99_us
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    // Config stamp: request `i` plans environment `i % catalog` with
    // planner seed `i`, arriving per the seeded Poisson stream — the
    // whole run is reproducible from this object.
    let stamp_catalog = EnvironmentCatalog::standard(&Robot::mobile_2d());
    let env_names = stamp_catalog
        .ids()
        .filter_map(|id| stamp_catalog.get(id).map(|s| format!("\"{}\"", s.name)))
        .collect::<Vec<_>>()
        .join(",");
    let json = format!(
        "{{\"bench\":\"service_open_loop\",\"requests\":{},\"samples_per_request\":{},\
         \"arrival_rate_per_s\":{:.1},\"seed\":{},\"cpus\":{cpus},\
         \"config\":{{\"arrivals\":\"poisson-open-loop\",\"planner_seed_base\":0,\
         \"environments\":[{env_names}]}},\"rows\":[{body}]}}",
        load.requests, load.samples, load.rate_per_s, load.seed
    );
    match std::fs::write(&out, &json) {
        Ok(()) => println!("wrote {out}"),
        Err(e) => {
            eprintln!("could not write {out}: {e}");
            std::process::exit(1);
        }
    }

    if smoke {
        // Scaling gate: with >=4 cores, 4 workers must genuinely
        // parallelize; on smaller machines assert the pool at least does
        // not collapse when workers are added (the failure mode the
        // single shared queue lock caused even on one core).
        let t1 = rows[0].throughput;
        let t4 = rows[rows.len() - 1].throughput;
        let ratio = t4 / t1.max(1e-9);
        let (threshold, gate) = if cpus >= 4 {
            (1.5, "parallel-scaling")
        } else {
            (0.75, "no-collapse (full 1.5x gate needs >=4 cpus)")
        };
        println!(
            "smoke gate [{gate}]: 4w/1w throughput ratio {ratio:.3} vs threshold {threshold:.2}"
        );
        if ratio < threshold {
            eprintln!(
                "smoke gate FAILED: 4-worker throughput {t4:.1} plans/s is {ratio:.3}x \
                 the 1-worker {t1:.1} plans/s (needs >= {threshold:.2}x on {cpus} cpu(s))"
            );
            std::process::exit(1);
        }
    }
}
