//! Regenerates every table and figure of the Tapeflow evaluation.
//!
//! ```text
//! experiments all [--scale tiny|small|large] [--csv DIR] [--jobs N] [--json PATH]
//! experiments fig4.1 table4.1 ...
//! ```
//!
//! Simulations fan out over `--jobs` worker threads (default: all
//! cores); tables, CSV and JSON are assembled serially in a fixed order,
//! so every output is byte-identical to a `--jobs 1` run. Alongside the
//! human-readable tables, a machine-readable document with every
//! rendered table plus a canonical per-benchmark configuration sweep is
//! written to `--json PATH` (default `results/BENCH_experiments.json`;
//! pass `--json -` to skip it). The document also carries a `passes`
//! section aggregating compile-pass wall time across every compilation
//! the run performed; `--stable-json` zeroes every wall-clock field so
//! the document is byte-reproducible (CI diffs it against a reference).
//! `--stall-breakdown` re-runs the sweep under the cycle-attribution
//! probe and folds a per-cause `stalls` object into every feasible
//! configuration entry — pure cycle counters, so the fold needs no
//! `--stable-json` scrubbing to stay reproducible. `--hot-spots`
//! likewise folds a `hot_spots` array per entry: the heaviest
//! instructions by attributed PE-cycles, resolved through the IR
//! provenance chain to their source ops, regions and layers. `--host-perf` times
//! the sweep through sweep sessions against cold per-point runs (the
//! `tapeflow bench-host` measurement) and folds a `host_perf` section
//! in; its wall-derived fields are zeroed under `--stable-json`.

use std::path::PathBuf;
use tapeflow_bench::experiments::{Lab, IDS};
use tapeflow_bench::{hostperf, pool};
use tapeflow_benchmarks::Scale;
use tapeflow_sim::json::Value;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut ids: Vec<String> = Vec::new();
    let mut scale = Scale::Small;
    let mut csv_dir: Option<PathBuf> = None;
    let mut jobs = pool::available_jobs();
    let mut json_path: Option<PathBuf> = Some(PathBuf::from("results/BENCH_experiments.json"));
    let mut stable_json = false;
    let mut stall_breakdown = false;
    let mut hot_spots = false;
    let mut host_perf = false;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                let v = it.next().unwrap_or_default();
                scale = match v.as_str() {
                    "tiny" => Scale::Tiny,
                    "small" => Scale::Small,
                    "large" => Scale::Large,
                    other => {
                        eprintln!("unknown scale {other:?} (tiny|small|large)");
                        std::process::exit(2);
                    }
                };
            }
            "--csv" => {
                csv_dir = Some(PathBuf::from(it.next().unwrap_or_else(|| ".".into())));
            }
            "--jobs" => {
                let v = it.next().unwrap_or_default();
                // `0` means "auto" and oversized requests are clamped to
                // a sane pool size (with a stderr note) — results are
                // byte-identical at any job count, so there is nothing
                // to refuse.
                let requested = match v.parse::<usize>() {
                    Ok(n) => n,
                    Err(_) => {
                        eprintln!("--jobs needs an integer, got {v:?}");
                        std::process::exit(2);
                    }
                };
                let (effective, note) = pool::clamp_jobs(requested);
                if let Some(note) = note {
                    eprintln!("{note}");
                }
                jobs = effective;
            }
            "--json" => {
                let v = it.next().unwrap_or_else(|| "-".into());
                json_path = if v == "-" {
                    None
                } else {
                    Some(PathBuf::from(v))
                };
            }
            "--stable-json" => stable_json = true,
            "--stall-breakdown" => stall_breakdown = true,
            "--hot-spots" => hot_spots = true,
            "--host-perf" => host_perf = true,
            "all" => ids.extend(IDS.iter().map(|s| s.to_string())),
            "--help" | "-h" => {
                println!(
                    "usage: experiments [all | <id>...] [--scale tiny|small|large] \
                     [--csv DIR] [--jobs N] [--json PATH|-] [--stable-json] \
                     [--stall-breakdown] [--hot-spots] [--host-perf]"
                );
                println!("ids: {}", IDS.join(" "));
                return;
            }
            other => ids.push(other.to_string()),
        }
    }
    if ids.is_empty() {
        eprintln!(
            "no experiments selected; try `experiments all` (ids: {})",
            IDS.join(" ")
        );
        std::process::exit(2);
    }
    if let Some(bad) = ids.iter().find(|id| !IDS.contains(&id.as_str())) {
        eprintln!("unknown experiment {bad:?} (ids: {})", IDS.join(" "));
        std::process::exit(2);
    }
    if let Some(d) = &csv_dir {
        std::fs::create_dir_all(d).expect("create csv dir");
    }

    let wall = std::time::Instant::now();
    let mut lab = Lab::with_jobs(scale, jobs);
    let mut experiments_json = Vec::new();
    for id in ids {
        let start = std::time::Instant::now();
        let tables = lab.run(&id);
        for (ti, t) in tables.iter().enumerate() {
            println!("{}", t.render());
            if let Some(d) = &csv_dir {
                // Multi-table experiments (the ablations) get one file
                // per table instead of silently overwriting each other.
                let stem = id.replace('.', "_");
                let name = if tables.len() == 1 {
                    format!("{stem}.csv")
                } else {
                    format!("{stem}_{ti}.csv")
                };
                std::fs::write(d.join(name), t.to_csv()).expect("write csv");
            }
        }
        let seconds = start.elapsed().as_secs_f64();
        eprintln!("[{id} done in {seconds:.1}s]\n");
        let mut e = Value::object();
        e.set("id", id.as_str())
            .set(
                "wall_clock_seconds",
                if stable_json { 0.0 } else { seconds },
            )
            .set(
                "tables",
                Value::Arr(tables.iter().map(|t| t.to_json()).collect()),
            );
        experiments_json.push(e);
    }

    if let Some(path) = json_path {
        let sweep = lab
            .json_report_with(stall_breakdown, hot_spots)
            .get("benchmarks")
            .cloned()
            .unwrap_or(Value::Arr(Vec::new()));
        let passes: Vec<Value> = lab
            .pass_wall_totals()
            .into_iter()
            .map(|(name, (runs, wall))| {
                let mut p = Value::object();
                p.set("pass", name).set("runs", runs).set(
                    "seconds",
                    if stable_json { 0.0 } else { wall.as_secs_f64() },
                );
                p
            })
            .collect();
        let mut doc = Value::object();
        doc.set("schema", "tapeflow.bench.experiments/v1")
            .set("scale", format!("{scale:?}"))
            .set("jobs", if stable_json { 0 } else { jobs })
            .set("experiments", Value::Arr(experiments_json))
            .set("passes", Value::Arr(passes))
            .set("benchmarks", sweep);
        if host_perf {
            // Fold the host-throughput sweep in. Under --stable-json the
            // wall-derived fields (seconds, cycles/sec, speedups) are
            // zeroed — only the structure and simulated-cycle totals
            // stay, which are deterministic.
            let start = std::time::Instant::now();
            let results = hostperf::measure(scale, 1, jobs);
            eprintln!(
                "[host-perf sweep done in {:.1}s; geomean speedup {:.2}x]",
                start.elapsed().as_secs_f64(),
                hostperf::geomean_speedup(&results)
            );
            doc.set(
                "host_perf",
                hostperf::host_perf_json(&results, scale, &hostperf::host_meta(jobs), stable_json),
            );
        }
        doc.set(
            "total_wall_clock_seconds",
            if stable_json {
                0.0
            } else {
                wall.elapsed().as_secs_f64()
            },
        );
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).expect("create json dir");
        }
        std::fs::write(&path, doc.render()).expect("write json");
        eprintln!("[machine-readable results: {}]", path.display());
    }
}
