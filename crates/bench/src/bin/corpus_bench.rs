//! Machine-readable corpus regression matrix: every planning engine over
//! every seeded corpus scenario (family × robot × seed), writing one row
//! per (scenario, engine) pair to a flat JSON report.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p moped-bench --bin corpus_bench -- \
//!     [--samples 900] [--seed 7] [--out BENCH_corpus.json] [--smoke] \
//!     [--engine all|auto|<static engine name>]
//! ```
//!
//! Besides the three static engine columns, the matrix carries a
//! `moped-auto` column: a `ProfileTable` is calibrated over the run's
//! own entries (probe budget 480 full / 160 smoke), each scenario plans
//! under the profile resolved for its request class, and the resolved
//! profile / NN backend / class id are stamped on the row. The config
//! block records the full calibrated table so any row can be reproduced
//! bit-for-bit.
//!
//! `--smoke` runs the ≤6-scenario smoke subset at a small budget (the
//! `scripts/verify.sh` CI step) and gates on the auto column solving at
//! least as many scenarios as static MOPED RRT\*. The full run sweeps
//! the 30-entry corpus and enforces the acceptance gates: RRT-Connect ≥
//! RRT\* on the tilted narrow-passage family, the auto column strictly
//! ahead of static RRT\* on aggregate solved count, and auto ≥ RRT\* on
//! per-family success for the shelf and maze families.

use moped_core::PlannerParams;
use moped_eval::corpus::{
    calibrate_table, family_success_rate, run_auto_column, run_matrix, EngineKind, MatrixCell,
};
use moped_scenarios::{corpus, smoke_corpus, CorpusEntry, Family};

/// Probe budget of the calibration pass (samples per micro-plan).
const PROBE_SAMPLES_FULL: usize = 480;
const PROBE_SAMPLES_SMOKE: usize = 160;

fn opt_str(v: &Option<String>) -> String {
    match v {
        Some(s) => format!("\"{s}\""),
        None => "null".to_string(),
    }
}

fn cell_json(c: &MatrixCell) -> String {
    // Unsolved cells carry an infinite path cost, which JSON cannot
    // represent — emit null instead.
    let cost = if c.path_cost.is_finite() {
        format!("{:.6}", c.path_cost)
    } else {
        "null".to_string()
    };
    format!(
        "{{\"scenario\":\"{}\",\"family\":\"{}\",\"robot\":\"{}\",\"scenario_seed\":{},\
         \"engine\":\"{}\",\"solved\":{},\"path_cost\":{},\"samples\":{},\"nodes\":{},\
         \"total_macs\":{},\"profile\":{},\"nn_backend\":{},\"class\":{}}}",
        c.scenario_id,
        c.family,
        c.robot,
        c.scenario_seed,
        c.engine.name(),
        c.solved,
        cost,
        c.samples,
        c.nodes,
        c.total_macs,
        opt_str(&c.profile),
        opt_str(&c.nn_backend),
        opt_str(&c.class_id),
    )
}

fn aggregate_solved(cells: &[MatrixCell], engine: EngineKind) -> usize {
    cells
        .iter()
        .filter(|c| c.engine == engine && c.solved)
        .count()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut samples = 900usize;
    let mut seed = 7u64;
    let mut out = "BENCH_corpus.json".to_string();
    let mut smoke = false;
    let mut engine_filter = "all".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--samples" => samples = it.next().and_then(|v| v.parse().ok()).unwrap_or(samples),
            "--seed" => seed = it.next().and_then(|v| v.parse().ok()).unwrap_or(seed),
            "--out" => out = it.next().cloned().unwrap_or(out),
            "--smoke" => smoke = true,
            "--engine" => engine_filter = it.next().cloned().unwrap_or(engine_filter),
            other => eprintln!("ignoring unknown flag {other}"),
        }
    }
    let entries: Vec<CorpusEntry> = if smoke {
        samples = samples.min(250);
        smoke_corpus()
    } else {
        corpus()
    };

    // Column selection: `all` (default) runs the three static engines
    // plus the auto column; `auto` runs only the auto column; a static
    // engine name runs just that column.
    let static_engines: Vec<EngineKind> = match engine_filter.as_str() {
        "all" => EngineKind::ALL.to_vec(),
        "auto" => Vec::new(),
        name => match EngineKind::ALL.iter().find(|e| e.name() == name) {
            Some(&e) => vec![e],
            None => {
                eprintln!("unknown --engine {name}; expected all, auto, or a static engine name");
                std::process::exit(2);
            }
        },
    };
    let run_auto = matches!(engine_filter.as_str(), "all" | "auto");

    let params = PlannerParams {
        max_samples: samples,
        seed,
        ..PlannerParams::default()
    };
    let probe_samples = if smoke {
        PROBE_SAMPLES_SMOKE
    } else {
        PROBE_SAMPLES_FULL
    };
    println!(
        "corpus bench — {} scenarios x {} engines{}, {samples} samples, planner seed {seed}",
        entries.len(),
        static_engines.len(),
        if run_auto { " + auto" } else { "" },
    );
    let mut cells = run_matrix(&entries, &static_engines, &params);

    // Auto column: calibrate over this run's own entries, then plan each
    // scenario under its class's resolved profile.
    let mut auto_stamp = String::new();
    if run_auto {
        let (table, probes) = calibrate_table(&entries, probe_samples);
        println!(
            "calibrated {} classes from {} probe outcomes (probe budget {probe_samples})",
            table.len(),
            probes.len(),
        );
        let profiles = table
            .iter()
            .map(|(class, profile, reason)| {
                format!(
                    "{{\"class\":\"{class}\",\"profile\":\"{}\",\"nn_backend\":\"{}\",\
                     \"reason\":\"{reason}\"}}",
                    profile.label(),
                    profile.nn_backend.name(),
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        auto_stamp = format!(
            ",\"auto\":{{\"probe_samples\":{probe_samples},\"classes\":{},\"profiles\":[{profiles}]}}",
            table.len(),
        );
        cells.extend(run_auto_column(&entries, &table, &params));
    }

    // Family × engine success summary.
    let mut columns = static_engines.clone();
    if run_auto {
        columns.push(EngineKind::Auto);
    }
    println!(
        "{:>16} {:>20} {:>8} {:>10}",
        "family", "engine", "solved", "rate"
    );
    let mut summary = Vec::new();
    for family in Family::ALL {
        for &engine in &columns {
            let rows: Vec<&MatrixCell> = cells
                .iter()
                .filter(|c| c.family == family.name() && c.engine == engine)
                .collect();
            if rows.is_empty() {
                continue;
            }
            let solved = rows.iter().filter(|c| c.solved).count();
            let rate = solved as f64 / rows.len() as f64;
            println!(
                "{:>16} {:>20} {:>5}/{:<2} {:>10.2}",
                family.name(),
                engine.name(),
                solved,
                rows.len(),
                rate
            );
            summary.push(format!(
                "{{\"family\":\"{}\",\"engine\":\"{}\",\"solved\":{},\"runs\":{},\
                 \"success_rate\":{:.4}}}",
                family.name(),
                engine.name(),
                solved,
                rows.len(),
                rate
            ));
        }
    }

    // Lazy refinement's work per RRT* engine: deferred parent edges
    // checked, and how many of them were repaired.
    let mut lazy = Vec::new();
    for engine in [EngineKind::ReferenceRrtStar, EngineKind::MopedRrtStar] {
        if !static_engines.contains(&engine) {
            continue;
        }
        let rows = cells.iter().filter(|c| c.engine == engine);
        let (checked, repairs) =
            rows.fold((0, 0), |(d, r), c| (d + c.deferred_checked, r + c.repairs));
        println!(
            "{}: {checked} deferred edges checked, {repairs} repaired",
            engine.name()
        );
        lazy.push(format!(
            "{{\"engine\":\"{}\",\"deferred_checked\":{checked},\"repairs\":{repairs}}}",
            engine.name()
        ));
    }

    // Config stamp: everything needed to reproduce the run bit-for-bit
    // (the auto block pins the calibrated table alongside its budget).
    let ids = entries
        .iter()
        .map(|e| format!("\"{}\"", e.id()))
        .collect::<Vec<_>>()
        .join(",");
    let body = cells.iter().map(cell_json).collect::<Vec<_>>().join(",");
    let json = format!(
        "{{\"bench\":\"corpus_matrix\",\"smoke\":{smoke},\
         \"config\":{{\"planner_seed\":{seed},\"samples_per_plan\":{samples},\
         \"scenario_count\":{},\"scenario_ids\":[{ids}]{auto_stamp}}},\
         \"summary\":[{}],\"lazy_refinement\":[{}],\"rows\":[{body}]}}",
        entries.len(),
        summary.join(","),
        lazy.join(","),
    );
    match std::fs::write(&out, &json) {
        Ok(()) => println!("wrote {out}"),
        Err(e) => {
            eprintln!("could not write {out}: {e}");
            std::process::exit(1);
        }
    }

    let gates_comparable = run_auto && static_engines.contains(&EngineKind::MopedRrtStar);

    // Smoke gate: on the smoke subset the auto-tuned column must solve
    // at least as many scenarios as the static default stack.
    if smoke && gates_comparable {
        let auto = aggregate_solved(&cells, EngineKind::Auto);
        let star = aggregate_solved(&cells, EngineKind::MopedRrtStar);
        println!("smoke: moped-auto solved {auto} vs moped-rrt-star {star}");
        if auto < star {
            eprintln!("acceptance gate: auto {auto} < static rrt-star {star} on the smoke subset");
            std::process::exit(1);
        }
    }

    // Full-run acceptance gates.
    if !smoke {
        if static_engines.contains(&EngineKind::MopedRrtStar)
            && static_engines.contains(&EngineKind::RrtConnect)
        {
            // Feasibility-first RRT-Connect must match or beat RRT* on
            // the narrow-passage family.
            let star = family_success_rate(&cells, "narrow-passage", EngineKind::MopedRrtStar);
            let connect = family_success_rate(&cells, "narrow-passage", EngineKind::RrtConnect);
            println!("narrow-passage: rrt-connect {connect:.2} vs rrt-star {star:.2}");
            if connect < star {
                eprintln!(
                    "acceptance gate: rrt-connect {connect:.2} < rrt-star {star:.2} on narrow-passage"
                );
                std::process::exit(1);
            }
        }
        if gates_comparable {
            // The auto column must strictly beat static RRT* on aggregate
            // solved count, and match or beat it per family on the two
            // families the tuner targets.
            let auto = aggregate_solved(&cells, EngineKind::Auto);
            let star = aggregate_solved(&cells, EngineKind::MopedRrtStar);
            println!("aggregate: moped-auto solved {auto} vs moped-rrt-star {star}");
            if auto <= star {
                eprintln!("acceptance gate: auto {auto} must beat static rrt-star {star}");
                std::process::exit(1);
            }
            for family in ["shelf", "maze"] {
                let a = family_success_rate(&cells, family, EngineKind::Auto);
                let s = family_success_rate(&cells, family, EngineKind::MopedRrtStar);
                println!("{family}: moped-auto {a:.2} vs moped-rrt-star {s:.2}");
                if a < s {
                    eprintln!("acceptance gate: auto {a:.2} < rrt-star {s:.2} on {family}");
                    std::process::exit(1);
                }
            }
        }
    }
}
