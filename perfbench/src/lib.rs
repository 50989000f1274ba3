//! The repository benchmark: three closed-loop batch workloads over the
//! nine registry programs, run from one process, with every output
//! checked.
//!
//! * [`cold`] — the single-program user: differentiate, compile, trace,
//!   prep and simulate each program from nothing.
//! * [`sweep`] — the parameter-study user: a cache ladder through one
//!   sweep session and the canonical mixed sweep through the planner,
//!   over programs traced in set-up.
//! * [`analyze`] — the compiler user: every pass assembly, lint,
//!   pretty/parse round trips and the dynamic range oracle, with no
//!   simulation.
//!
//! A run sets up the workload several times (reporting the median), then
//! repeats whole iterations — one pass over the nine programs — until
//! the requested seconds have passed. End-to-end times add up the
//! fastest time of each lap of each program; per-layer metrics are
//! medians over traced iterations. A traced run alternates untraced and traced iterations:
//! spans from this crate's own code around each call into a layer give
//! per-layer self times, and the untraced iterations give the tracing
//! overhead.

pub mod analyze;
pub mod cold;
pub mod common;
pub mod inputs;
pub mod spans;
pub mod sweep;

use common::{geomean, median, Checks, Counts};
use spans::{self_times_ms, Span, Tracer};
use std::collections::BTreeMap;
use std::time::Instant;
use tapeflow_benchmarks::Scale;
use tapeflow_sim::json::Value;

/// The three workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// See [`cold`].
    Cold,
    /// See [`sweep`].
    Sweep,
    /// See [`analyze`].
    Analyze,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Cold, Workload::Sweep, Workload::Analyze];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Cold => "cold",
            Workload::Sweep => "sweep",
            Workload::Analyze => "analyze",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// How many times a run sets the workload up before timing
    /// (`setup_s` is the median). Sweep set-up traces every program, so
    /// it repeats less.
    fn setup_reps(self) -> usize {
        match self {
            Workload::Sweep => 3,
            Workload::Cold | Workload::Analyze => 15,
        }
    }

    /// Whether the run also sets the workload up again after every
    /// timed iteration. Cold and analyze set-up takes milliseconds, so
    /// samples taken back to back all see the host at one instant, and
    /// the host's speed drifts by up to 2x over a run.
    fn setup_between_iterations(self) -> bool {
        matches!(self, Workload::Cold | Workload::Analyze)
    }
}

/// What to run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Input seed (see [`inputs`]).
    pub seed: u64,
    /// Measure until this many seconds of iterations have passed.
    pub seconds: f64,
    /// Record spans and report per-layer metrics instead of end-to-end
    /// ones.
    pub trace: bool,
    /// Run every scale at Tiny (the smoke tests); otherwise `cold` and
    /// `sweep` run at Small and `analyze` at Small and Large.
    pub tiny: bool,
    /// Flip one gradient bit before every gradient comparison (checker
    /// self-test).
    pub inject_mismatch: bool,
}

/// A workload after set-up, plus which input arrays the seed varied,
/// per program.
#[derive(Debug)]
pub struct Setup<S> {
    /// Workload state the iterations run on.
    pub state: S,
    /// `(program, arrays the seed redrew)`.
    pub varied: Vec<(String, Vec<String>)>,
}

/// One iteration's measurements.
#[derive(Clone, Debug, Default)]
pub struct Iter {
    /// Timed laps per program (see [`common::Laps`]), in registry order.
    pub laps_ms: Vec<Vec<f64>>,
    /// Counters and deterministic results of the iteration.
    pub counts: Counts,
}

impl Iter {
    /// Timed milliseconds per program, in registry order.
    pub fn program_ms(&self) -> Vec<f64> {
        self.laps_ms.iter().map(|l| l.iter().sum()).collect()
    }

    /// The timed part of the iteration, in seconds.
    pub fn wall_s(&self) -> f64 {
        self.program_ms().iter().sum::<f64>() / 1e3
    }
}

/// End-to-end metrics, printed by an untraced run. `wall_s` is the
/// timed part of one iteration on an undisturbed host: the sum, over
/// every lap of every program, of that lap's fastest time in the run.
/// On a shared host other tenants only ever add time, in phases from
/// under a second to minutes that slow every program alike (up to about
/// 2.4x), so a median follows the share of the run spent in a slow phase
/// while the minimum follows the program; short laps catch short fast
/// phases.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("program_geomean_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("pass_rate", "ratio"),
];

/// Per-layer metrics, printed by a traced run. A `*_ms` metric whose
/// stem is a span name is that span's self time per iteration.
pub const PER_LAYER: [(&str, &str); 59] = [
    ("benchmarks.build_ms", "ms"),
    ("benchmarks.seeded_arrays", "count"),
    ("autodiff.differentiate_ms", "ms"),
    ("autodiff.tape_bytes", "bytes"),
    ("autodiff.taped_values", "count"),
    ("core.pipeline.tflow_ms", "ms"),
    ("core.pipeline.tflowc_ms", "ms"),
    ("core.pipeline.aos_ms", "ms"),
    ("core.pass.regions_ms", "ms"),
    ("core.pass.layering_ms", "ms"),
    ("core.pass.streams_ms", "ms"),
    ("core.pass.spad-index_ms", "ms"),
    ("core.pass.value-ranges_ms", "ms"),
    ("core.pass.tape-compress_ms", "ms"),
    ("core.pass.aos-layout_ms", "ms"),
    ("core.lint_ms", "ms"),
    ("core.tape_bytes_before", "bytes"),
    ("core.tape_bytes_after", "bytes"),
    ("core.narrowed_slots", "count"),
    ("core.elided_slots", "count"),
    ("core.fwd_layers", "count"),
    ("core.insts_after", "count"),
    ("ir.trace_ms", "ms"),
    ("ir.trace.nodes", "count"),
    ("ir.trace.nodes_per_s", "1/s"),
    ("ir.lint_ms", "ms"),
    ("ir.lint.errors", "count"),
    ("ir.lint.contradicted", "count"),
    ("ir.interp_ms", "ms"),
    ("ir.interp.insts", "count"),
    ("ir.interp.insts_per_s", "1/s"),
    ("ir.vra_ms", "ms"),
    ("ir.pretty_ms", "ms"),
    ("ir.parse_ms", "ms"),
    ("sim.prep_ms", "ms"),
    ("sim.prep.nodes_per_s", "1/s"),
    ("sim.engine_ms", "ms"),
    ("sim.engine.cycles_per_s", "1/s"),
    ("sim.engine.nodes_per_s", "1/s"),
    ("sim.sweep_ms", "ms"),
    ("sim.sweep.cold_equiv", "x"),
    ("sim.report_ms", "ms"),
    ("bench.planner_ms", "ms"),
    ("bench.planner.groups", "count"),
    ("bench.planner.cold_equiv", "x"),
    ("ladder_configs_per_s", "1/s"),
    ("mixed_configs_per_s", "1/s"),
    ("sim_mcycles_per_s", "Mcycles/s"),
    ("tflow_speedup_geomean", "x"),
    ("tflow_dram_mb", "MB"),
    ("tflow_energy_uj", "uJ"),
    ("tape_kb", "KiB"),
    ("error_rate", "ratio"),
    ("trace.spans", "count"),
    ("trace.wall_ms", "ms"),
    ("trace.untraced_wall_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.unspanned_ms", "ms"),
    ("trace.spanned_share", "ratio"),
];

/// One printed metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// A finished run.
#[derive(Debug)]
pub struct Outcome {
    /// No output check failed.
    pub correct: bool,
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed (wrong outputs and contradicted lint
    /// verdicts).
    pub failed: u64,
    /// Descriptions of the first failed output checks.
    pub wrong_outputs: Vec<String>,
    /// [`END_TO_END`] (untraced) or [`PER_LAYER`] (traced), in order.
    pub metrics: Vec<Metric>,
    /// `(program, arrays the seed redrew)`.
    pub varied: Vec<(String, Vec<String>)>,
    /// Timed iterations run (untraced, traced).
    pub iterations: (usize, usize),
    /// Timed milliseconds per program (registry order) of every
    /// untraced iteration.
    pub iteration_ms: Vec<Vec<f64>>,
    /// Chrome trace-event document of the last traced iteration.
    pub trace_doc: Option<Value>,
}

/// Ratio that reads 0 instead of NaN or infinity when the layer did no
/// work in this workload.
fn rate(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-layer values of one traced iteration.
fn layer_values(it: &Iter, self_ms: &BTreeMap<&'static str, f64>) -> BTreeMap<&'static str, f64> {
    let c = |k: &str| it.counts.get(k).copied().unwrap_or(0.0);
    let ms = |k: &str| self_ms.get(k).copied().unwrap_or(0.0);
    let mut v = BTreeMap::new();
    for (name, _) in PER_LAYER {
        let x = match name {
            "ir.trace.nodes_per_s" => rate(c("ir.trace.nodes"), ms("ir.trace") / 1e3),
            "sim.prep.nodes_per_s" => rate(c("sim.prep.nodes"), ms("sim.prep") / 1e3),
            "sim.engine.cycles_per_s" => rate(c("sim.engine.cycles"), ms("sim.engine") / 1e3),
            "sim.engine.nodes_per_s" => rate(c("sim.engine.nodes"), ms("sim.engine") / 1e3),
            "ir.interp.insts_per_s" => rate(c("ir.interp.insts"), ms("ir.interp") / 1e3),
            "ladder_configs_per_s" => rate(c("sweep.ladder_configs"), c("sweep.ladder_s")),
            "mixed_configs_per_s" => rate(c("sweep.mixed_configs"), c("sweep.mixed_s")),
            "sim_mcycles_per_s" => rate(c("sim.cycles") / 1e6, c("sim.wall_s")),
            "trace.spans" => c("trace.spans"),
            "trace.wall_ms" => it.wall_s() * 1e3,
            "trace.unspanned_ms" => ms("perfbench.program"),
            "trace.spanned_share" => rate(
                self_ms.values().sum::<f64>() - ms("perfbench.program"),
                it.wall_s() * 1e3,
            ),
            _ => match name.strip_suffix("_ms") {
                Some(stem) if self_ms.contains_key(stem) => ms(stem),
                _ => c(name),
            },
        };
        v.insert(name, x);
    }
    v
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

type IterFn<S> = fn(&mut S, &Tracer, &mut Checks) -> Iter;
type FinishFn<S> = fn(&mut S, &mut Checks, &mut Counts);

fn drive<S>(
    cfg: &RunConfig,
    setup: impl Fn() -> Setup<S>,
    iteration: IterFn<S>,
    finish: FinishFn<S>,
) -> Outcome {
    let mut setup_s = Vec::new();
    let mut done = None;
    for _ in 0..cfg.workload.setup_reps() {
        drop(done.take()); // release the previous set-up before timing the next
        let t = Instant::now();
        let s = setup();
        setup_s.push(t.elapsed().as_secs_f64());
        done = Some(s);
    }
    let Setup { mut state, varied } = done.expect("at least one set-up");

    let mut checks = Checks {
        inject_mismatch: cfg.inject_mismatch,
        ..Checks::default()
    };
    let (off, on) = (Tracer::new(false), Tracer::new(true));
    let mut plain: Vec<Iter> = Vec::new();
    let mut traced: Vec<(Iter, BTreeMap<&'static str, f64>)> = Vec::new();
    let mut last_spans: Vec<Span> = Vec::new();
    let min_iters = if cfg.trace { 2 } else { 3 };
    // One untimed iteration first, so allocator growth and first-touch
    // page faults stay out of the timings. Its checks still count.
    iteration(&mut state, &off, &mut checks);
    let start = Instant::now();
    loop {
        if cfg.trace && plain.len() > traced.len() {
            let mut it = iteration(&mut state, &on, &mut checks);
            let spans = on.take();
            it.counts.insert("trace.spans", spans.len() as f64);
            traced.push((it, self_times_ms(&spans)));
            last_spans = spans;
        } else {
            plain.push(iteration(&mut state, &off, &mut checks));
        }
        if cfg.workload.setup_between_iterations() {
            let t = Instant::now();
            let again = setup();
            setup_s.push(t.elapsed().as_secs_f64());
            drop(again);
        }
        let n = plain.len() + traced.len();
        if n >= min_iters && start.elapsed().as_secs_f64() >= cfg.seconds {
            break;
        }
    }
    let mut run_counts = Counts::new();
    finish(&mut state, &mut checks, &mut run_counts);

    let metrics = if cfg.trace {
        let untraced_ms = median(&plain.iter().map(|i| i.wall_s() * 1e3).collect::<Vec<_>>());
        let per_iter: Vec<_> = traced.iter().map(|(it, st)| layer_values(it, st)).collect();
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let traced_median = median(&per_iter.iter().map(|v| v[name]).collect::<Vec<_>>());
                let value = match name {
                    "error_rate" => rate(checks.failed as f64, checks.attempted as f64),
                    "trace.untraced_wall_ms" => untraced_ms,
                    "trace.overhead_ms" => {
                        median(
                            &per_iter
                                .iter()
                                .map(|v| v["trace.wall_ms"])
                                .collect::<Vec<_>>(),
                        ) - untraced_ms
                    }
                    _ => run_counts.get(name).copied().unwrap_or(traced_median),
                };
                Metric { name, unit, value }
            })
            .collect()
    } else {
        let fastest = |p: usize, l: usize| {
            plain
                .iter()
                .map(|i| i.laps_ms[p][l])
                .fold(f64::INFINITY, f64::min)
        };
        let per_program: Vec<f64> = (plain[0].laps_ms.iter().enumerate())
            .map(|(p, laps)| (0..laps.len()).map(|l| fastest(p, l)).sum())
            .collect();
        END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let value = match name {
                    "setup_s" => median(&setup_s),
                    "wall_s" => per_program.iter().sum::<f64>() / 1e3,
                    "program_geomean_ms" => geomean(&per_program),
                    "peak_rss_mb" => peak_rss_mb(),
                    "pass_rate" => {
                        (checks.attempted - checks.failed) as f64 / checks.attempted as f64
                    }
                    _ => unreachable!("END_TO_END is matched exhaustively"),
                };
                Metric { name, unit, value }
            })
            .collect()
    };

    let trace_doc = cfg.trace.then(|| {
        let mut meta = Value::object();
        meta.set("workload", cfg.workload.name())
            .set("seed", cfg.seed)
            .set("host", host_line(cfg.workload));
        spans::chrome_trace(
            &last_spans,
            &format!("perfbench {}", cfg.workload.name()),
            meta,
        )
    });
    Outcome {
        correct: checks.wrong_outputs.is_empty(),
        attempted: checks.attempted,
        failed: checks.failed,
        wrong_outputs: checks.wrong_outputs,
        metrics,
        varied,
        iterations: (plain.len(), traced.len()),
        iteration_ms: plain.iter().map(Iter::program_ms).collect(),
        trace_doc,
    }
}

/// Host identity, as the bench harness stamps it on its own results.
pub fn host_line(w: Workload) -> String {
    let jobs = match w {
        Workload::Sweep => tapeflow_bench::pool::available_jobs(),
        Workload::Cold | Workload::Analyze => 1,
    };
    let m = tapeflow_bench::hostperf::host_meta(jobs);
    format!(
        "logical_cpus={} rustc=\"{}\" opt_level={} jobs={}",
        m.logical_cpus, m.rustc, m.opt_level, m.jobs
    )
}

/// The finish step of workloads that check everything per iteration.
fn no_finish<S>(_: &mut S, _: &mut Checks, _: &mut Counts) {}

/// Runs one workload as configured.
pub fn run(cfg: &RunConfig) -> Outcome {
    let (main, large) = if cfg.tiny {
        (Scale::Tiny, Scale::Tiny)
    } else {
        (Scale::Small, Scale::Large)
    };
    let seed = cfg.seed;
    match cfg.workload {
        Workload::Cold => drive(cfg, || cold::setup(main, seed), cold::iteration, no_finish),
        Workload::Sweep => drive(
            cfg,
            || sweep::setup(main, seed),
            sweep::iteration,
            sweep::finish,
        ),
        Workload::Analyze => drive(
            cfg,
            || analyze::setup(&[main, large], Scale::Tiny, seed),
            analyze::iteration,
            no_finish,
        ),
    }
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "{} is not finite", m.name);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}
