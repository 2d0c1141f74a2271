//! Wall-clock benchmark of the MOPED planning stack.
//!
//! ```text
//! cargo run --release --manifest-path wallbench/Cargo.toml -- \
//!     --workload <arm-clutter|drone-sparse|service-corpus> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` times the workload with nothing decorated and prints the
//! end-to-end metrics; `--trace 1` runs the same requests plain and
//! through timing decorators, prints the per-layer metrics, and writes
//! the recorded spans to `.wallbench_out/`. The last stdout line is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`.

mod layers;
mod loadgen;
mod oracle;
mod planner;
mod replay;
mod service;
mod stack;
mod stats;
mod timed;
mod trace;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use trace::Span;

/// One named measurement.
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

impl Metric {
    /// A metric; non-finite values (empty inputs) read as 0.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        let value = if value.is_finite() { value } else { 0.0 };
        Metric { name, value, unit }
    }
}

/// What a workload run produced.
pub struct Report {
    /// The run's own consistency checks held.
    pub correct: bool,
    /// Requests or plans attempted.
    pub attempted: u64,
    /// Attempts that were rejected, failed, or returned a path the
    /// oracle refutes.
    pub failed: u64,
    /// Metrics in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// The scenes the workload planned in.
    pub scenario_ids: Vec<String>,
    /// Diagnostics for stderr.
    pub notes: Vec<String>,
    /// Spans to write out (traced runs).
    pub spans: Vec<Span>,
}

impl Report {
    fn json(&self) -> String {
        let mut m = String::new();
        for (i, x) in self.metrics.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(
                m,
                "{sep}\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                x.name, x.value, x.unit
            );
        }
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{m}}}}}",
            self.correct, self.attempted, self.failed
        )
    }
}

/// Runs `build` `n` times and returns the median wall time in s, with
/// the last result.
pub fn median_setup<T>(n: usize, mut build: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n {
        let t = Instant::now();
        last = Some(build());
        times.push(t.elapsed().as_secs_f64());
    }
    (stats::percentile(&times, 50.0), last.expect("n >= 1"))
}

/// Peak resident set size of this process, MB (`VmHWM`; 0 where
/// `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The checked-out revision when run from a git work tree, else
/// `unknown`.
fn git_revision() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head.to_string(),
    };
    match rev.trim() {
        "" => "unknown".to_string(),
        r => r.to_string(),
    }
}

/// Metric prefixes of the layers only a served workload has.
const SERVED_LAYERS: [&str; 4] = ["service.", "env.", "tune.", "loadgen."];

/// `planner` with its served-layer metrics (0 in a closed loop) taken
/// from a traced `service-corpus` run. No listed workload serves
/// requests (see `service`), so the traced `arm-clutter` run measures
/// those layers on the corpus traffic.
fn with_served_layers(mut planner: Report, served: Report) -> Report {
    for m in &served.metrics {
        if SERVED_LAYERS.iter().any(|p| m.name.starts_with(p)) {
            if let Some(x) = planner.metrics.iter_mut().find(|x| x.name == m.name) {
                x.value = m.value;
            }
        }
    }
    planner.correct &= served.correct;
    planner.attempted += served.attempted;
    planner.failed += served.failed;
    planner.notes.extend(served.notes);
    planner.scenario_ids.extend(served.scenario_ids);
    trace::append(&mut planner.spans, served.spans);
    planner
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value != "0",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err(format!(
            "--seconds must be in (0, 600], got {}",
            args.seconds
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wallbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Timings taken with the library's own span recording on would
    // include its cost.
    if moped_obs::enabled() {
        eprintln!("wallbench: refusing to time while moped_obs tracing is enabled");
        return ExitCode::from(3);
    }
    let (seed, secs) = (args.seed, args.seconds);
    let report = match (args.workload.as_str(), args.trace) {
        ("arm-clutter", false) => planner::run(planner::Kind::ArmClutter, seed, secs),
        ("arm-clutter", true) => with_served_layers(
            planner::run_traced(planner::Kind::ArmClutter, seed, secs),
            service::run_traced(seed, secs),
        ),
        ("drone-sparse", false) => planner::run(planner::Kind::DroneSparse, seed, secs),
        ("drone-sparse", true) => planner::run_traced(planner::Kind::DroneSparse, seed, secs),
        ("service-corpus", false) => service::run(seed, secs),
        ("service-corpus", true) => service::run_traced(seed, secs),
        (other, _) => {
            eprintln!("wallbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };

    let cpus = std::thread::available_parallelism().map_or(1, usize::from);
    let ids = report
        .scenario_ids
        .iter()
        .map(|id| format!("\"{id}\""))
        .collect::<Vec<_>>()
        .join(",");
    let stamp =
        format!(
        "{{\"workload\":\"{}\",\"seed\":{seed},\"seconds\":{secs},\"trace\":{},\"cpus\":{cpus},\
         \"profile\":\"{}\",\"git\":\"{}\",\"scenarios\":[{ids}]}}",
        args.workload,
        args.trace,
        if cfg!(debug_assertions) { "debug" } else { "release" },
        git_revision(),
    );
    for note in &report.notes {
        eprintln!("wallbench: {note}");
    }
    if args.trace {
        let dir = std::path::Path::new(".wallbench_out");
        let file = dir.join(format!("{}-seed{seed}.trace.json", args.workload));
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&file, trace::chrome_json(&report.spans, &stamp)));
        if let Err(e) = written {
            eprintln!("wallbench: could not write {}: {e}", file.display());
            return ExitCode::from(1);
        }
    }
    println!("stamp {stamp}");
    println!("{}", report.json());
    ExitCode::SUCCESS
}
