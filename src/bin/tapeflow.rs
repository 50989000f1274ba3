//! The `tapeflow` command-line tool — the repository's analogue of the
//! paper's Appendix A toolflow (`clang … | opt -enzyme -enable-tf`).
//!
//! ```text
//! tapeflow show      FILE                         parse + pretty-print
//! tapeflow opt       FILE                         constant-fold / CSE / DCE
//! tapeflow grad      FILE --wrt a,b --loss l      differentiate (prints gradient IR)
//! tapeflow compile   FILE --wrt a,b --loss l      pass-manager pipeline (opt → ad →
//!                    [--spad-bytes N] [--aos-only]    regions → layering → streams →
//!                    [--single-buffer]                spad-index; --compress-tape adds
//!                    [--compress-tape]                tape-compress before streams)
//! tapeflow simulate  FILE --wrt a,b --loss l      AD → compile → trace → simulate,
//!                    [--cache-bytes N] [--spad-bytes N]   Enzyme vs Tapeflow
//! tapeflow profile   FILE --wrt a,b --loss l      simulate with the cycle-attribution
//!                    [--trace-out trace.json]         probe: stall-breakdown table,
//!                    [--by-inst] [--top N]            per-pass IR deltas, Chrome trace;
//!                    [--flame-out f.folded]           --by-inst adds source-attributed
//!                    [--sample N]                     hot-spot tables + flamegraph
//! tapeflow lint      FILE|NAME [--json PATH]      static tape-safety / scratchpad /
//!                    [--check-dynamic]                stream-schedule / value-range
//!                    [--explain RULE]                 analysis; exit 1 on any
//!                                                     error-severity finding or
//!                                                     dynamic-oracle escape
//! tapeflow passes                                 list registered passes
//! tapeflow bench-host [--scale S] [--repeats N]   time the configuration sweep through
//!                    [--benchmarks a,b] [--jobs N]    sweep sessions against cold
//!                    [--stable-json] [--json PATH]    per-point runs; writes
//!                                                     results/BENCH_host_perf.json
//! ```
//!
//! `compile`, `simulate` and `profile` drive the `tapeflow_core::pipeline`
//! pass manager and accept LLVM-style pipeline flags: `--passes a,b,c`
//! runs a custom pass list, `--print-after-all` prints the verified IR
//! after every pass, `--time-passes` prints a per-pass wall-time table to
//! stderr. `simulate --json PATH` includes a `passes` section with the
//! per-pass records and IR deltas.
//!
//! `profile` attaches the [`tapeflow::sim::probe`] observability layer:
//! it prints a table charging every PE-cycle of both the Enzyme baseline
//! and the Tapeflow build to a cause (enforcing the
//! `sum(attributed) == cycles × PEs` invariant), a per-pass IR-delta
//! table, and with `--trace-out FILE.json` writes a Chrome trace-event
//! timeline (one track per PE, cache port, stream engine and scratchpad
//! bank) loadable in `chrome://tracing` or <https://ui.perfetto.dev>.
//!
//! `profile --by-inst` splits the same budget per IR instruction
//! (column sums stay exactly equal to the per-cause totals) and resolves
//! each instruction through the provenance chain the compiler passes
//! maintain — source op, tape region, layer, creating/rewriting pass —
//! into per-variant hot-spot tables (`--top N` rows). `--flame-out
//! FILE.folded` writes the same rollup as collapsed flamegraph stacks
//! (`variant;region;layer;source;op count` — render with inferno,
//! flamegraph.pl or speedscope). `--sample N` records the `--trace-out`
//! timeline in 1-in-N windows of 256 cycles (deterministic fixed-stride
//! schedule, no RNG), bounding trace memory at `--scale large`; the
//! phase barrier is always kept and a `sampling` metadata instant names
//! the recorded fraction. Output paths are validated up front — an
//! unwritable `--trace-out`/`--json`/`--flame-out` is a usage error
//! (exit 2) before the simulation runs, not a panic after it.
//!
//! `bench-host` times each benchmark's cache ladder and mixed sweep
//! twice: through the sweep sessions that reuse earlier points' work,
//! and as cold `simulate_prepared` runs of every point on the same
//! arena (the reports are identical; the speedup is what reuse buys).
//! `--benchmarks a,b` restricts the run to a registry subset (an
//! unknown name is a usage error that lists the registry), `--jobs N`
//! sets the worker count for the mixed sweep's trace-group fan-out
//! (default: all logical CPUs; the reports are byte-identical at any
//! count), and `--stable-json` zeroes the wall-clock and host-identity
//! fields of the JSON document (schema `tapeflow.bench.host_perf/v3`,
//! which carries a `host` section: logical CPUs, rustc version,
//! opt-level, job count) so the bytes reproduce across machines.
//!
//! `FILE` is textual IR in the `pretty`/`parse` format (see
//! `tapeflow_ir::parse`). For `simulate`, `f64` inputs are filled with a
//! deterministic ramp and `i64` inputs with `0..len` so any well-formed
//! program runs without an input file.
//!
//! Where a `FILE` is accepted, a registered benchmark name (`tapeflow
//! passes` lists passes; see `tapeflow::benchmarks::NAMES` for programs)
//! works too: `lint`, `simulate` and `profile` then use the benchmark's
//! own inputs and `--wrt`/`--loss` default to its gradient spec.
//! `--scale tiny|small|large` picks the benchmark size.
//!
//! `lint` runs the `tapeflow_ir::lint` + `tapeflow_core::lint` +
//! `tapeflow_ir::vra` analyses over the fully compiled program (or
//! directly over an already-lowered IR file), prints the findings as a
//! table, optionally as `--json` (schema `tapeflow.cli.lint/v2`, which
//! carries a `ranges` section: the bounded/total value census, per-array
//! content ranges and — under `--compress-tape` — the per-slot narrowing
//! decisions), and exits non-zero when any error-severity finding fires.
//! `lint --check-dynamic` additionally runs the dynamic soundness
//! oracle: it interprets the program (and, through the pipeline, its
//! gradient function) under a recorder that observes every produced
//! value and array write, then checks each observation against the
//! static ranges — any escape means the analysis or an input annotation
//! is unsound, and the command exits non-zero. `lint --explain RULE`
//! prints the rule-catalog entry for any lint rule and exits.
//! `--lint-after-all` (any pipeline-driving
//! command) additionally runs the function-level lints after every pass
//! and reports per-pass findings on stderr, mirroring
//! `--print-after-all` — it never changes the compiled output.

use std::process::ExitCode;
use tapeflow::autodiff::{differentiate, AdOptions, Gradient, TapePolicy};
use tapeflow::bench::{attr, hostperf, pool};
use tapeflow::benchmarks::{self, Benchmark, Scale};
use tapeflow::core::compress::SlotEncoding;
use tapeflow::core::compress::TapeEncoding;
use tapeflow::core::pipeline::{
    registered_passes, IrCounts, PassRecord, PipelineBuilder, PipelineReport,
};
use tapeflow::core::{lint as plan_lint, CompileMode, CompileOptions, CompiledProgram};
use tapeflow::ir::lint::{self, LintConfig};
use tapeflow::ir::trace::{trace_function, TraceOptions};
use tapeflow::ir::{interp, parse, pretty, vra, ArrayId, ArrayKind, Function, Memory, Op, Scalar};
use tapeflow::sim::json::Value;
use tapeflow::sim::{
    simulate, simulate_probed, AttributionProbe, CycleBreakdown, SamplingProbe, SimOptions,
    SimReport, StallKind, SystemConfig, TraceRecorder,
};

/// Timeline slice length for `profile --sample N`: every `N`-th window
/// of this many cycles is recorded in full.
const SAMPLE_WINDOW: u64 = 256;

struct Args {
    file: String,
    wrt: Vec<String>,
    loss: Option<String>,
    spad_bytes: usize,
    cache_bytes: usize,
    aos_only: bool,
    compress_tape: bool,
    double_buffer: bool,
    policy: TapePolicy,
    json: Option<String>,
    trace_out: Option<String>,
    passes: Option<Vec<String>>,
    print_after_all: bool,
    time_passes: bool,
    lint_after_all: bool,
    scale: Scale,
    repeats: usize,
    by_inst: bool,
    top: usize,
    sample: Option<u64>,
    flame_out: Option<String>,
    benchmarks: Option<Vec<String>>,
    jobs: Option<usize>,
    stable_json: bool,
    check_dynamic: bool,
    explain: Option<String>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: tapeflow <show|opt|grad|compile|simulate|profile|lint|passes|bench-host> \
         FILE|NAME \
         [--wrt a,b] [--loss l] [--spad-bytes N] [--cache-bytes N] \
         [--aos-only] [--compress-tape] [--single-buffer] \
         [--policy minimal|conservative|all] \
         [--passes a,b,c] [--print-after-all] [--time-passes] [--lint-after-all] \
         [--scale tiny|small|large] [--repeats N] \
         [--by-inst] [--top N] [--sample N] [--flame-out PATH] \
         [--benchmarks a,b] [--jobs N] [--stable-json] \
         [--check-dynamic] [--explain RULE] \
         [--json PATH] [--trace-out PATH]"
    );
    ExitCode::from(2)
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<(String, Args), String> {
    let cmd = argv.next().ok_or("missing command")?;
    let mut args = Args {
        file: String::new(),
        wrt: Vec::new(),
        loss: None,
        spad_bytes: 1024,
        cache_bytes: 32 * 1024,
        aos_only: false,
        compress_tape: false,
        double_buffer: true,
        policy: TapePolicy::Conservative,
        json: None,
        trace_out: None,
        passes: None,
        print_after_all: false,
        time_passes: false,
        lint_after_all: false,
        scale: Scale::default(),
        repeats: 5,
        by_inst: false,
        top: 10,
        sample: None,
        flame_out: None,
        benchmarks: None,
        jobs: None,
        stable_json: false,
        check_dynamic: false,
        explain: None,
    };
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--wrt" => {
                let v = argv.next().ok_or("--wrt needs a value")?;
                args.wrt = v.split(',').map(str::to_string).collect();
            }
            "--loss" => args.loss = Some(argv.next().ok_or("--loss needs a value")?),
            "--spad-bytes" => {
                args.spad_bytes = argv
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--spad-bytes needs a number")?;
            }
            "--cache-bytes" => {
                args.cache_bytes = argv
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--cache-bytes needs a number")?;
            }
            "--aos-only" => args.aos_only = true,
            "--compress-tape" => args.compress_tape = true,
            "--single-buffer" => args.double_buffer = false,
            "--json" => args.json = Some(argv.next().ok_or("--json needs a path")?),
            "--trace-out" => {
                args.trace_out = Some(argv.next().ok_or("--trace-out needs a path")?);
            }
            "--passes" => {
                let v = argv.next().ok_or("--passes needs a comma-separated list")?;
                args.passes = Some(v.split(',').map(str::to_string).collect());
            }
            "--by-inst" => args.by_inst = true,
            "--top" => {
                args.top = argv
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .ok_or("--top needs a positive number")?;
            }
            "--sample" => {
                args.sample = Some(
                    argv.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n| n > 0)
                        .ok_or("--sample needs a positive stride")?,
                );
            }
            "--flame-out" => {
                args.flame_out = Some(argv.next().ok_or("--flame-out needs a path")?);
            }
            "--benchmarks" => {
                let v = argv
                    .next()
                    .ok_or("--benchmarks needs a comma-separated list")?;
                args.benchmarks = Some(v.split(',').map(str::to_string).collect());
            }
            "--jobs" => {
                args.jobs = Some(
                    argv.next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--jobs needs a number (0 = auto)")?,
                );
            }
            "--stable-json" => args.stable_json = true,
            "--check-dynamic" => args.check_dynamic = true,
            "--explain" => args.explain = Some(argv.next().ok_or("--explain needs a rule name")?),
            "--print-after-all" => args.print_after_all = true,
            "--time-passes" => args.time_passes = true,
            "--lint-after-all" => args.lint_after_all = true,
            "--scale" => {
                args.scale = match argv.next().as_deref() {
                    Some("tiny") => Scale::Tiny,
                    Some("small") => Scale::Small,
                    Some("large") => Scale::Large,
                    other => return Err(format!("unknown scale {other:?}")),
                };
            }
            "--repeats" => {
                args.repeats = argv
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .ok_or("--repeats needs a positive number")?;
            }
            "--policy" => {
                args.policy = match argv.next().as_deref() {
                    Some("minimal") => TapePolicy::Minimal,
                    Some("conservative") => TapePolicy::Conservative,
                    Some("all") => TapePolicy::All,
                    other => return Err(format!("unknown policy {other:?}")),
                };
            }
            f if args.file.is_empty() && !f.starts_with("--") => args.file = f.to_string(),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let standalone =
        cmd == "passes" || cmd == "bench-host" || (cmd == "lint" && args.explain.is_some());
    if args.file.is_empty() && !standalone {
        return Err("missing input file".into());
    }
    Ok((cmd, args))
}

fn resolve_arrays(func: &Function, names: &[String]) -> Result<Vec<ArrayId>, String> {
    names
        .iter()
        .map(|n| {
            func.array_by_name(n)
                .ok_or_else(|| format!("no array named {n:?}"))
        })
        .collect()
}

/// The program a command operates on: a parsed IR file, or a registered
/// benchmark (which also carries its inputs and gradient spec).
struct Input {
    func: Function,
    bench: Option<Benchmark>,
}

/// Resolves the positional argument: an IR file when it exists on disk,
/// else a registered benchmark name. A miss on both is a structured
/// error (never a panic), listing the registry.
fn load_input(args: &Args) -> Result<Input, String> {
    if std::path::Path::new(&args.file).exists() {
        let text = std::fs::read_to_string(&args.file)
            .map_err(|e| format!("cannot read {}: {e}", args.file))?;
        let func = parse::parse(&text).map_err(|e| e.to_string())?;
        return Ok(Input { func, bench: None });
    }
    match benchmarks::try_by_name(&args.file, args.scale) {
        Some(bench) => Ok(Input {
            func: bench.func.clone(),
            bench: Some(bench),
        }),
        None => Err(format!(
            "{:?} is neither a readable IR file nor a registered benchmark \
             (registered: {})",
            args.file,
            benchmarks::NAMES.join(", ")
        )),
    }
}

fn ad_options(input: &Input, args: &Args) -> Result<AdOptions, String> {
    if args.wrt.is_empty() {
        // A benchmark carries its own gradient spec; use it when the user
        // gave none.
        if let Some(b) = &input.bench {
            return Ok(AdOptions::new(b.wrt.clone(), vec![b.loss.array]).with_policy(args.policy));
        }
        return Err("--wrt is required for this command".into());
    }
    let loss_name = args.loss.as_ref().ok_or("--loss is required")?;
    let wrt = resolve_arrays(&input.func, &args.wrt)?;
    let loss = resolve_arrays(&input.func, std::slice::from_ref(loss_name))?[0];
    Ok(AdOptions::new(wrt, vec![loss]).with_policy(args.policy))
}

/// The base input arrays for simulation: a benchmark's own inputs, or
/// the deterministic defaults for a plain IR file.
fn base_memory(input: &Input) -> Memory {
    match &input.bench {
        Some(b) => b.mem.clone(),
        None => default_memory(&input.func),
    }
}

/// Deterministic inputs: f64 ramps, i64 identity indices.
fn default_memory(func: &Function) -> Memory {
    let mut mem = Memory::for_function(func);
    for (i, a) in func.arrays().iter().enumerate() {
        if a.kind != ArrayKind::Input {
            continue;
        }
        let id = ArrayId::new(i);
        match a.elem {
            Scalar::F64 => {
                let data: Vec<f64> = (0..a.len).map(|k| 0.05 + 0.01 * k as f64).collect();
                mem.set_f64(id, &data);
            }
            Scalar::I64 => {
                let data: Vec<i64> = (0..a.len).map(|k| k as i64).collect();
                mem.set_i64(id, &data);
            }
        }
    }
    mem
}

/// The scratchpad/pipeline options the CLI flags select.
fn compile_options(args: &Args, mode: CompileMode) -> CompileOptions {
    CompileOptions {
        spad_entries: (args.spad_bytes / 8).max(2),
        double_buffer: args.double_buffer,
        mode,
        compress_tape: args.compress_tape,
    }
}

/// The lint machine model the flags select: scratchpad size from
/// `--spad-bytes`, bank count from the simulated system config.
fn lint_config(copts: &CompileOptions) -> LintConfig {
    LintConfig {
        spad_entries: copts.spad_entries,
        spad_banks: SystemConfig::default().spad.banks,
    }
}

/// The standard Full-mode pass list the flags select. `--compress-tape`
/// inserts the `value-ranges` analysis plus Pass 5 (`tape-compress`)
/// between `layering` and the `streams` terminal lowering —
/// `tape-compress` refuses to run without the `value-ranges` artifact.
fn full_pass_names(args: &Args, with_opt: bool) -> Vec<&'static str> {
    let mut names = Vec::new();
    if with_opt {
        names.push("opt");
    }
    names.extend(["ad", "regions", "layering"]);
    if args.compress_tape {
        names.extend(["value-ranges", "tape-compress"]);
    }
    names.extend(["streams", "spad-index"]);
    names
}

/// The `lint` pass list: the standard pipeline with `value-ranges`
/// always present, so the range census and the `float-nonfinite` rule
/// see the pipeline's own artifact rather than a side computation.
fn lint_pass_names(args: &Args) -> Vec<&'static str> {
    if args.aos_only {
        return vec!["opt", "ad", "regions", "value-ranges", "aos-layout"];
    }
    let mut names = vec!["opt", "ad", "regions", "layering", "value-ranges"];
    if args.compress_tape {
        names.push("tape-compress");
    }
    names.extend(["streams", "spad-index"]);
    names
}

/// The pipeline behind `compile`/`simulate`: the flags' standard
/// pipeline, or `--passes`'s custom list (which only needs `--wrt`/
/// `--loss` when it contains `ad`).
fn pipeline_for(
    args: &Args,
    input: &Input,
    copts: CompileOptions,
    default_names: &[&str],
) -> Result<PipelineBuilder, String> {
    let names: Vec<&str> = match &args.passes {
        Some(list) => list.iter().map(String::as_str).collect(),
        None => default_names.to_vec(),
    };
    let ad = if names.contains(&"ad") {
        Some(ad_options(input, args)?)
    } else {
        None
    };
    let lint = args.lint_after_all.then(|| lint_config(&copts));
    Ok(PipelineBuilder::from_names(&names, copts, ad)
        .map_err(|e| e.to_string())?
        .with_lint(lint))
}

/// Everything `simulate`/`profile` need after the pipeline ran: the
/// pass report plus the two programs to race (the gradient is the
/// Enzyme baseline, the compiled program the Tapeflow build).
struct SimSetup {
    report: PipelineReport,
    grad: Gradient,
    compiled: CompiledProgram,
}

/// Compiles `func` through the simulate pipeline (no `opt` by default,
/// matching the established Enzyme-vs-Tapeflow numbers; opt in via
/// `--passes opt,ad,...`).
fn compile_variants(args: &Args, input: &Input) -> Result<(AdOptions, SimSetup), String> {
    let opts = ad_options(input, args)?;
    let copts = compile_options(args, CompileMode::Full);
    let builder = pipeline_for(args, input, copts, &full_pass_names(args, false))?
        .with_verify(true)
        .with_ir_capture(args.print_after_all);
    let run = builder.run_source(&input.func).map_err(|e| e.to_string())?;
    if args.print_after_all {
        // stderr: simulate/profile's stdout stays the result tables.
        eprint!("{}", run.report.render_snapshots());
    }
    if args.time_passes {
        eprint!("{}", run.report.render_timings());
    }
    if args.lint_after_all {
        eprint!("{}", run.report.render_lint());
    }
    let report = run.report.clone();
    let grad = run
        .state
        .gradient
        .clone()
        .ok_or("this command needs the `ad` pass in --passes")?;
    let compiled = run.into_compiled().map_err(|e| e.to_string())?;
    Ok((
        opts,
        SimSetup {
            report,
            grad,
            compiled,
        },
    ))
}

/// Inputs for one simulated variant: the shared deterministic base
/// arrays plus a unit seed in the loss shadow.
fn variant_memory(
    source: &Function,
    variant: &Function,
    base: &Memory,
    grad: &Gradient,
    opts: &AdOptions,
) -> Memory {
    let mut mem = Memory::for_function(variant);
    for i in 0..source.arrays().len() {
        mem.clone_array_from(base, ArrayId::new(i));
    }
    mem.set_f64_at(grad.shadow_of(opts.seeds[0]).expect("loss shadow"), 0, 1.0);
    mem
}

/// One `{insts, values, tape_slots}` IR-size object.
fn ir_counts_json(c: &IrCounts) -> Value {
    let mut v = Value::object();
    v.set("insts", c.insts)
        .set("values", c.values)
        .set("tape_slots", c.tape_slots);
    v
}

/// The JSON `passes` section shared by `simulate` and `profile`:
/// per-pass wall time, pre/post IR counters and the per-pass deltas.
fn passes_json(records: &[PassRecord]) -> Vec<Value> {
    records
        .iter()
        .map(|r| {
            let mut p = Value::object();
            p.set("pass", r.name)
                .set("seconds", r.wall.as_secs_f64())
                .set("insts", r.ir_insts)
                .set("values", r.ir_after.values)
                .set("tape_slots", r.ir_after.tape_slots)
                .set("ir_before", ir_counts_json(&r.ir_before))
                .set("ir_after", ir_counts_json(&r.ir_after))
                .set("insts_delta", r.insts_delta())
                .set("values_delta", r.values_delta())
                .set("tape_slots_delta", r.tape_slots_delta())
                .set("detail", r.detail.as_str());
            p
        })
        .collect()
}

/// The JSON `compression` section: what Pass 5 (`tape-compress`) did to
/// the tape layout (only present when the pass ran).
fn compression_json(enc: &TapeEncoding) -> Value {
    let mut v = Value::object();
    v.set("elided_slots", enc.elided_slots)
        .set("narrowed_slots", enc.narrowed_slots)
        .set("tape_bytes_before", enc.bytes_before)
        .set("tape_bytes_after", enc.bytes_after);
    v
}

/// Greedy word wrap for catalog paragraphs.
fn wrap(text: &str, width: usize, indent: &str) -> String {
    let mut out = String::new();
    let mut col = 0;
    for w in text.split_whitespace() {
        if col == 0 {
            out.push_str(indent);
            col = indent.len();
        } else if col + 1 + w.len() > width {
            out.push('\n');
            out.push_str(indent);
            col = indent.len();
        } else {
            out.push(' ');
            col += 1;
        }
        out.push_str(w);
        col += w.len();
    }
    out
}

/// `lint --explain RULE`: prints one rule-catalog entry, or the whole
/// catalog index when the rule name is unknown (as an error).
fn explain_cmd(rule: &str) -> Result<(), String> {
    match plan_lint::explain_rule(rule) {
        Some(doc) => {
            println!(
                "{} ({}, {} level)",
                doc.rule,
                doc.severity.label(),
                doc.layer
            );
            println!("{}", wrap(doc.what, 72, "  "));
            Ok(())
        }
        None => Err(format!(
            "no lint rule named {rule:?}; the catalog: {}",
            plan_lint::RULE_CATALOG
                .iter()
                .map(|d| d.rule)
                .collect::<Vec<_>>()
                .join(", ")
        )),
    }
}

/// The JSON `ranges` section of the lint v2 schema: the bounded/total
/// value census over the analysed function, every array's proven
/// content range, and the per-slot narrowing decisions when
/// `tape-compress` ran.
fn ranges_json(
    func: &Function,
    r: &vra::ValueRanges,
    grad: Option<&Gradient>,
    enc: Option<&TapeEncoding>,
) -> Value {
    let (bi, ui) = r.int_census(func);
    let (bf, uf) = r.float_census(func);
    let mut v = Value::object();
    v.set("bounded_i64", bi)
        .set("total_i64", bi + ui)
        .set("bounded_f64", bf)
        .set("total_f64", bf + uf);
    let arrays: Vec<Value> = func
        .arrays()
        .iter()
        .zip(&r.contents)
        .map(|(a, c)| {
            let mut o = Value::object();
            o.set("name", a.name.as_str()).set(
                "content",
                match c {
                    vra::ContentRange::Int(Some(ir)) => format!("i64 [{}, {}]", ir.lo, ir.hi),
                    vra::ContentRange::Float(Some(fr)) => format!(
                        "f64 [{}, {}]{}",
                        fr.lo,
                        fr.hi,
                        if fr.quantized { " quantized" } else { "" }
                    ),
                    _ => "unbounded".to_string(),
                },
            );
            o
        })
        .collect();
    v.set("arrays", Value::Arr(arrays));
    if let (Some(grad), Some(enc)) = (grad, enc) {
        let narrowing: Vec<Value> = enc
            .slots
            .iter()
            .enumerate()
            .map(|(k, s)| {
                let mut o = Value::object();
                o.set("slot", k)
                    .set("array", grad.func.array(grad.tapes[k].array).name.as_str());
                match s {
                    SlotEncoding::Keep { width } => {
                        o.set("encoding", "keep")
                            .set("width_bytes", *width as usize);
                    }
                    SlotEncoding::Remat(_) => {
                        o.set("encoding", "remat");
                    }
                }
                o
            })
            .collect();
        v.set("narrowing", Value::Arr(narrowing));
    }
    v
}

/// One variant of the dynamic soundness oracle (`lint --check-dynamic`):
/// interprets `f` under a [`interp::RangeRecorder`], re-derives the
/// static ranges, and returns the render line plus any escapes.
fn oracle_run(label: &str, f: &Function, mem: &mut Memory) -> Result<(String, usize), String> {
    let rec = interp::RangeRecorder::new(f, mem);
    let (rec, dyn_insts) = interp::execute(f, mem, rec)
        .map_err(|e| format!("--check-dynamic: {label} failed to execute: {e}"))?;
    let ranges = vra::value_ranges(f);
    let escapes = vra::check_containment(f, &ranges, &rec);
    let mut line = format!(
        "{label:<9} {dyn_insts:>9} dynamic insts, {} values, {} arrays: {}",
        f.values().len(),
        f.arrays().len(),
        if escapes.is_empty() {
            "contained".to_string()
        } else {
            format!("{} ESCAPE(S)", escapes.len())
        }
    );
    for e in &escapes {
        line.push_str(&format!("\n  {e}"));
    }
    Ok((line, escapes.len()))
}

/// `+n` / `-n` / `0`, so growth and shrinkage read at a glance.
fn signed(v: i64) -> String {
    if v > 0 {
        format!("+{v}")
    } else {
        v.to_string()
    }
}

/// The profile stall table: one column pair per simulated variant, one
/// row per attribution cause, footers with totals and occupancy.
fn render_stall_table(rows: &[(&str, SimReport, CycleBreakdown)]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let pes = rows.iter().map(|r| r.2.pes).max().unwrap_or(0);
    let _ = writeln!(out, "=== cycle attribution ({pes} PEs, PE-cycles) ===");
    let _ = write!(out, "{:<28}", "cause");
    for (label, _, _) in rows {
        let _ = write!(out, "{label:>14} {:>6}", "%");
    }
    let _ = writeln!(out);
    for kind in StallKind::ALL {
        let _ = write!(out, "{:<28}", kind.label());
        for (_, _, bd) in rows {
            let u = bd.get(kind);
            let pct = if bd.total_units() == 0 {
                0.0
            } else {
                u as f64 / bd.total_units() as f64 * 100.0
            };
            let _ = write!(out, "{u:>14} {pct:>5.1}%");
        }
        let _ = writeln!(out);
    }
    let mut footer = |name: &str, cells: Vec<String>| {
        let _ = write!(out, "{name:<28}");
        for c in cells {
            let _ = write!(out, "{c:>14} {:>6}", "");
        }
        let _ = writeln!(out);
    };
    footer(
        "total PE-cycles",
        rows.iter().map(|r| r.2.total_units().to_string()).collect(),
    );
    footer(
        "cycles",
        rows.iter().map(|r| r.1.cycles.to_string()).collect(),
    );
    footer(
        "avg busy PEs",
        rows.iter()
            .map(|r| format!("{:.2}", r.2.avg_busy_pes()))
            .collect(),
    );
    out
}

/// The profile per-pass table: post-pass IR counters and their deltas.
fn render_pass_deltas(report: &PipelineReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "=== per-pass IR deltas ===");
    let _ = writeln!(
        out,
        "{:<12} {:>7} {:>8} {:>7} {:>8} {:>10} {:>8}  detail",
        "pass", "insts", "Δinsts", "values", "Δvalues", "tape slots", "Δslots"
    );
    for r in &report.records {
        let _ = writeln!(
            out,
            "{:<12} {:>7} {:>8} {:>7} {:>8} {:>10} {:>8}  {}",
            r.name,
            r.ir_after.insts,
            signed(r.insts_delta()),
            r.ir_after.values,
            signed(r.values_delta()),
            r.ir_after.tape_slots,
            signed(r.tape_slots_delta()),
            r.detail
        );
    }
    out
}

/// Fails fast when an output path cannot be created or appended to, so
/// a long simulation never runs just to die on the final write. The
/// probe file survives (empty or with its old content intact) and is
/// overwritten by the real emit. A `-` path is never written.
fn check_writable(flag: &str, path: &str) -> Result<(), String> {
    if path == "-" {
        return Ok(());
    }
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map(drop)
        .map_err(|e| format!("{flag} {path}: not writable: {e}"))
}

fn run() -> Result<ExitCode, String> {
    let mut argv = std::env::args().skip(1);
    let (cmd, args) = parse_args(&mut argv)?;
    if cmd == "passes" {
        for (name, desc) in registered_passes() {
            println!("{name:<13} {desc}");
        }
        return Ok(ExitCode::SUCCESS);
    }
    if cmd == "bench-host" {
        // Host-throughput tracking: each selected benchmark's cache
        // ladder and mixed sweep, timed through sweep sessions and as
        // cold per-point runs (min of --repeats runs). --benchmarks narrows the registry; an
        // unknown name is a usage error that lists what exists.
        let names: Vec<&'static str> = match &args.benchmarks {
            None => benchmarks::NAMES.to_vec(),
            Some(list) => list
                .iter()
                .map(|n| {
                    benchmarks::NAMES
                        .iter()
                        .copied()
                        .find(|&k| k == n.as_str())
                        .ok_or_else(|| {
                            format!(
                                "unknown benchmark {n:?}; registered benchmarks: {}",
                                benchmarks::NAMES.join(", ")
                            )
                        })
                })
                .collect::<Result<_, _>>()?,
        };
        let (jobs, note) = pool::clamp_jobs(args.jobs.unwrap_or(0));
        if let Some(note) = note.filter(|_| args.jobs.is_some()) {
            eprintln!("tapeflow: {note}");
        }
        let results = hostperf::measure_named(&names, args.scale, args.repeats, jobs);
        print!("{}", hostperf::render_table(&results));
        let path = args
            .json
            .as_deref()
            .unwrap_or("results/BENCH_host_perf.json");
        if path != "-" {
            let meta = hostperf::host_meta(jobs);
            let doc = hostperf::host_perf_json(&results, args.scale, &meta, args.stable_json);
            if let Some(dir) = std::path::Path::new(path)
                .parent()
                .filter(|d| !d.as_os_str().is_empty())
            {
                std::fs::create_dir_all(dir)
                    .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
            }
            std::fs::write(path, doc.render()).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("// machine-readable report: {path}");
        }
        return Ok(ExitCode::SUCCESS);
    }
    if cmd == "lint" {
        if let Some(rule) = &args.explain {
            explain_cmd(rule)?;
            return Ok(ExitCode::SUCCESS);
        }
    }
    let input = load_input(&args)?;
    let func = input.func.clone();

    match cmd.as_str() {
        "show" => print!("{}", pretty::pretty(&func)),
        "opt" => {
            let (g, stats) = tapeflow::ir::opt::optimize(&func);
            print!("{}", pretty::pretty(&g));
            eprintln!(
                "// folded {} cse {} dce {}",
                stats.folded, stats.cse_hits, stats.dce_removed
            );
        }
        "grad" => {
            let opts = ad_options(&input, &args)?;
            let grad = differentiate(&func, &opts).map_err(|e| e.to_string())?;
            print!("{}", pretty::pretty(&grad.func));
            eprintln!(
                "// taped {} values ({} bytes), recomputed {}, adjoint cells {}",
                grad.stats.taped_values,
                grad.stats.tape_bytes,
                grad.stats.recomputed_values,
                grad.stats.adjoint_cells
            );
        }
        "compile" => {
            let mode = if args.aos_only {
                CompileMode::AosOnly
            } else {
                CompileMode::Full
            };
            let copts = compile_options(&args, mode);
            let default_names: Vec<&str> = if args.aos_only {
                vec!["opt", "ad", "regions", "aos-layout"]
            } else {
                full_pass_names(&args, true)
            };
            let builder = pipeline_for(&args, &input, copts, &default_names)?
                .with_verify(true)
                .with_ir_capture(args.print_after_all);
            let run = builder.run_source(&func).map_err(|e| e.to_string())?;
            if args.print_after_all {
                // The snapshots end with the final pass's IR; don't print
                // it twice.
                print!("{}", run.report.render_snapshots());
            } else if let Some(ir) = run.state.current_ir() {
                print!("{}", pretty::pretty(ir));
            }
            if args.time_passes {
                eprint!("{}", run.report.render_timings());
            }
            if args.lint_after_all {
                eprint!("{}", run.report.render_lint());
            }
            if let Some(c) = &run.state.compiled {
                eprintln!(
                    "// {} regions, {} fwd layers, {} duplicated slots, {} merged tape bytes",
                    c.stats.regions,
                    c.stats.fwd_layers,
                    c.stats.duplicated_slots,
                    c.stats.merged_tape_bytes
                );
                if let Some(enc) = &c.encoding {
                    eprintln!(
                        "// tape-compress: elided {} slots, narrowed {}, tape bytes {} -> {}",
                        enc.elided_slots, enc.narrowed_slots, enc.bytes_before, enc.bytes_after
                    );
                }
            }
        }
        "simulate" => {
            let (opts, setup) = compile_variants(&args, &input)?;
            let base = base_memory(&input);
            let cfg = SystemConfig::with_cache_bytes(args.cache_bytes);
            let mut reports = Vec::new();
            for (label, f, barrier) in [
                ("Enzyme", &setup.grad.func, setup.grad.phase_barrier),
                (
                    "Tapeflow",
                    &setup.compiled.func,
                    setup.compiled.phase_barrier,
                ),
            ] {
                let mut mem = variant_memory(&func, f, &base, &setup.grad, &opts);
                let trace = trace_function(
                    f,
                    &mut mem,
                    TraceOptions {
                        phase_barrier: Some(barrier),
                    },
                )
                .map_err(|e| e.to_string())?;
                let r =
                    simulate(&trace, &cfg, &SimOptions::default()).map_err(|e| e.to_string())?;
                println!(
                    "{label:<8} cycles {:>10}  dram bytes {:>10}  on-chip pJ {:>12.0}  rev hit {:.1}%",
                    r.cycles,
                    r.dram_bytes(),
                    r.energy.on_chip_pj(),
                    r.cache.rev_hit_rate() * 100.0
                );
                reports.push(r);
            }
            println!(
                "speedup {:.2}x, energy reduction {:.2}x",
                reports[1].speedup_over(&reports[0]),
                reports[0].energy.on_chip_pj() / reports[1].energy.on_chip_pj().max(1.0)
            );
            if let Some(path) = &args.json {
                let mut doc = Value::object();
                doc.set("schema", "tapeflow.cli.simulate/v1")
                    .set("cache_bytes", args.cache_bytes)
                    .set("spad_bytes", args.spad_bytes)
                    .set("passes", Value::Arr(passes_json(&setup.report.records)));
                if let Some(enc) = &setup.compiled.encoding {
                    doc.set("compression", compression_json(enc));
                }
                doc.set("enzyme", reports[0].to_json())
                    .set("tapeflow", reports[1].to_json())
                    .set("speedup", reports[1].speedup_over(&reports[0]));
                std::fs::write(path, doc.render())
                    .map_err(|e| format!("cannot write {path}: {e}"))?;
                eprintln!("// machine-readable report: {path}");
            }
        }
        "profile" => {
            // Output paths are validated before anything expensive runs:
            // a typo'd directory is a usage error (exit 2), not a panic
            // after a minutes-long Large-scale simulation.
            for (flag, path) in [
                ("--trace-out", args.trace_out.as_deref()),
                ("--json", args.json.as_deref()),
                ("--flame-out", args.flame_out.as_deref()),
            ] {
                if let Some(p) = path {
                    check_writable(flag, p)?;
                }
            }
            let by_inst = args.by_inst || args.flame_out.is_some();
            let (opts, setup) = compile_variants(&args, &input)?;
            let base = base_memory(&input);
            let cfg = SystemConfig::with_cache_bytes(args.cache_bytes);
            let variants = [
                ("Enzyme", &setup.grad.func, setup.grad.phase_barrier),
                (
                    "Tapeflow",
                    &setup.compiled.func,
                    setup.compiled.phase_barrier,
                ),
            ];
            let mut rows: Vec<(&str, SimReport, CycleBreakdown)> = Vec::new();
            let mut inst_rows: Vec<Vec<attr::InstAttr>> = Vec::new();
            let mut recorders: Vec<TraceRecorder> = Vec::new();
            let mut samplers: Vec<SamplingProbe> = Vec::new();
            for (pid, (label, f, barrier)) in variants.iter().copied().enumerate() {
                let mut mem = variant_memory(&func, f, &base, &setup.grad, &opts);
                let trace = trace_function(
                    f,
                    &mut mem,
                    TraceOptions {
                        phase_barrier: Some(barrier),
                    },
                )
                .map_err(|e| e.to_string())?;
                let attr_probe = if by_inst {
                    // The trace is the node → instruction back-map; the
                    // probe splits the same PE-cycle budget one level
                    // finer along it.
                    AttributionProbe::with_inst_map(attr::node_to_inst(&trace), f.insts().len())
                } else {
                    AttributionProbe::new()
                };
                let recorder = (args.trace_out.is_some() && args.sample.is_none())
                    .then(|| TraceRecorder::new(pid as u64 + 1, label));
                let sampler =
                    args.trace_out.as_ref().and(args.sample).map(|stride| {
                        SamplingProbe::new(pid as u64 + 1, label, SAMPLE_WINDOW, stride)
                    });
                let mut probe = (attr_probe, (recorder, sampler));
                let r = simulate_probed(&trace, &cfg, &SimOptions::default(), &mut probe)
                    .map_err(|e| e.to_string())?;
                let (attr_probe, (recorder, sampler)) = probe;
                let (bd, inst_bd) = attr_probe.into_parts();
                bd.check()
                    .map_err(|e| format!("{label}: cycle attribution broke its invariant: {e}"))?;
                if let Some(ib) = inst_bd {
                    ib.check_against(&bd).map_err(|e| {
                        format!("{label}: per-inst attribution broke its invariant: {e}")
                    })?;
                    inst_rows.push(attr::resolve(f, Some(&func), &ib));
                }
                recorders.extend(recorder);
                samplers.extend(sampler);
                rows.push((label, r, bd));
            }
            print!("{}", render_stall_table(&rows));
            if by_inst {
                for (i, (label, _, bd)) in rows.iter().enumerate() {
                    print!(
                        "{}",
                        attr::render_hot_spots(label, &inst_rows[i], bd.total_units(), args.top)
                    );
                }
            }
            print!("{}", render_pass_deltas(&setup.report));
            println!("speedup {:.2}x", rows[1].1.speedup_over(&rows[0].1));
            if let Some(path) = &args.flame_out {
                let mut lines = Vec::new();
                for (i, (label, _, _)) in rows.iter().enumerate() {
                    lines.extend(attr::flame_lines(label, &inst_rows[i]));
                }
                std::fs::write(path, lines.join("\n") + "\n")
                    .map_err(|e| format!("cannot write {path}: {e}"))?;
                eprintln!(
                    "// collapsed-stack flamegraph: {path} \
                     (render with inferno, flamegraph.pl or speedscope)"
                );
            }
            let sample_fractions: Vec<f64> =
                samplers.iter().map(|s| s.recorded_fraction()).collect();
            if let Some(path) = &args.trace_out {
                let doc = if args.sample.is_some() {
                    SamplingProbe::chrome_trace(samplers)
                } else {
                    TraceRecorder::chrome_trace(recorders)
                };
                std::fs::write(path, doc.render())
                    .map_err(|e| format!("cannot write {path}: {e}"))?;
                eprintln!(
                    "// chrome trace: {path} (load in chrome://tracing or https://ui.perfetto.dev)"
                );
                if let Some(stride) = args.sample {
                    eprintln!(
                        "// sampled timeline: 1 in {stride} windows of {SAMPLE_WINDOW} cycles \
                         ({:.1}% / {:.1}% of cycles recorded)",
                        sample_fractions[0] * 100.0,
                        sample_fractions[1] * 100.0
                    );
                }
            }
            if let Some(path) = &args.json {
                let mut doc = Value::object();
                let variant = |i: usize| {
                    let row = &rows[i];
                    let mut v = Value::object();
                    v.set("report", row.1.to_json())
                        .set("stalls", row.2.to_json())
                        .set("provenance", attr::provenance_json(variants[i].1));
                    if by_inst {
                        v.set(
                            "insts",
                            Value::Arr(attr::rows_json(&inst_rows[i], args.top)),
                        );
                    }
                    v
                };
                doc.set("schema", "tapeflow.cli.profile/v2")
                    .set("cache_bytes", args.cache_bytes)
                    .set("spad_bytes", args.spad_bytes)
                    .set("passes", Value::Arr(passes_json(&setup.report.records)));
                if let Some(enc) = &setup.compiled.encoding {
                    doc.set("compression", compression_json(enc));
                }
                if let Some(stride) = args.sample {
                    let mut s = Value::object();
                    s.set("stride", stride)
                        .set("window_cycles", SAMPLE_WINDOW)
                        .set(
                            "recorded_fraction",
                            Value::Arr(sample_fractions.iter().map(|&f| Value::from(f)).collect()),
                        );
                    doc.set("sample", s);
                }
                doc.set("enzyme", variant(0))
                    .set("tapeflow", variant(1))
                    .set("speedup", rows[1].1.speedup_over(&rows[0].1));
                std::fs::write(path, doc.render())
                    .map_err(|e| format!("cannot write {path}: {e}"))?;
                eprintln!("// machine-readable report: {path}");
            }
        }
        "lint" => {
            let mode = if args.aos_only {
                CompileMode::AosOnly
            } else {
                CompileMode::Full
            };
            let copts = compile_options(&args, mode);
            let cfg = lint_config(&copts);
            // Already-lowered IR (tape/scratchpad/stream ops present) is
            // linted directly; a plain source program with a gradient spec
            // is compiled first so the lints see the post-pipeline
            // FWD/REV function and the layer plan.
            let lowered = func.insts().iter().any(|i| {
                matches!(
                    i.op,
                    Op::SAlloc { .. }
                        | Op::SpadLoad
                        | Op::SpadStore
                        | Op::StreamIn(_)
                        | Op::StreamOut(_)
                )
            }) || func.arrays_of_kind(ArrayKind::Tape).next().is_some();
            let has_grad_spec = input.bench.is_some() || !args.wrt.is_empty();
            let mut diags;
            // Whichever path runs leaves behind the analysed function +
            // its ranges (for the v2 census), the narrowing decisions,
            // and the variants the dynamic oracle executes.
            let mut analysed: Option<(Function, vra::ValueRanges)> = None;
            let mut encoding: Option<TapeEncoding> = None;
            let mut enc_grad: Option<Gradient> = None;
            let mut oracle: Vec<(&str, Function, Memory)> = Vec::new();
            if lowered || !has_grad_spec {
                diags = lint::lint_function(&func, &cfg);
                let ranges = vra::value_ranges(&func);
                diags.extend(ranges.diagnostics.iter().cloned());
                lint::sort_diagnostics(&mut diags);
                if args.check_dynamic {
                    oracle.push(("program", func.clone(), base_memory(&input)));
                }
                analysed = Some((func.clone(), ranges));
            } else {
                let default_names = lint_pass_names(&args);
                let builder = pipeline_for(&args, &input, copts, &default_names)?.with_verify(true);
                let run = builder.run_source(&func).map_err(|e| e.to_string())?;
                if args.lint_after_all {
                    eprint!("{}", run.report.render_lint());
                }
                let compiled = run
                    .state
                    .current_ir()
                    .ok_or("the lint pipeline produced no IR")?;
                diags = lint::lint_function(compiled, &cfg);
                if let (Some(grad), Some(plan)) = (&run.state.gradient, &run.state.plan) {
                    diags.extend(plan_lint::lint_plan(
                        grad,
                        plan,
                        &copts,
                        run.state.encoding.as_ref(),
                    ));
                }
                if let Some(r) = &run.state.ranges {
                    diags.extend(r.diagnostics.iter().cloned());
                }
                lint::sort_diagnostics(&mut diags);
                if let Some(grad) = &run.state.gradient {
                    if args.check_dynamic {
                        let opts = ad_options(&input, &args)?;
                        let base = base_memory(&input);
                        oracle.push(("source", func.clone(), base.clone()));
                        oracle.push((
                            "gradient",
                            grad.func.clone(),
                            variant_memory(&func, &grad.func, &base, grad, &opts),
                        ));
                    }
                    if let Some(r) = &run.state.ranges {
                        // The pipeline's artifact is computed over the
                        // gradient function (see ValueRangesPass).
                        analysed = Some((grad.func.clone(), r.clone()));
                    }
                    enc_grad = Some(grad.clone());
                }
                encoding = run.state.encoding.clone();
            }
            let (errors, warnings) = lint::counts(&diags);
            print!("{}", lint::render_table(&diags));
            println!("{}: {errors} error(s), {warnings} warning(s)", args.file);
            let mut escapes = 0usize;
            if args.check_dynamic {
                println!("=== dynamic range oracle ===");
                for (label, f, mut mem) in oracle {
                    let (line, n) = oracle_run(label, &f, &mut mem)?;
                    println!("{line}");
                    escapes += n;
                }
                println!(
                    "dynamic oracle: {escapes} escape(s){}",
                    if escapes > 0 {
                        " — the static analysis (or an input annotation) is UNSOUND"
                    } else {
                        ""
                    }
                );
            }
            if let Some(path) = &args.json {
                let ds: Vec<Value> = diags
                    .iter()
                    .map(|d| {
                        let mut o = Value::object();
                        o.set("rule", d.rule)
                            .set("severity", d.severity.label())
                            .set("inst", d.span.inst.map_or(Value::Null, Value::from))
                            .set("array", d.span.array.map_or(Value::Null, Value::from))
                            .set("message", d.message.as_str());
                        o
                    })
                    .collect();
                let mut doc = Value::object();
                doc.set("schema", "tapeflow.cli.lint/v2")
                    .set("program", args.file.as_str())
                    .set("spad_entries", cfg.spad_entries)
                    .set("spad_banks", cfg.spad_banks)
                    .set("errors", errors)
                    .set("warnings", warnings)
                    .set("diagnostics", Value::Arr(ds));
                if let Some((f, r)) = &analysed {
                    doc.set(
                        "ranges",
                        ranges_json(f, r, enc_grad.as_ref(), encoding.as_ref()),
                    );
                }
                if args.check_dynamic {
                    doc.set("dynamic_escapes", escapes);
                }
                std::fs::write(path, doc.render())
                    .map_err(|e| format!("cannot write {path}: {e}"))?;
                eprintln!("// machine-readable report: {path}");
            }
            if errors > 0 || escapes > 0 {
                return Ok(ExitCode::FAILURE);
            }
        }
        other => return Err(format!("unknown command {other:?}")),
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("tapeflow: {e}");
            usage()
        }
    }
}
