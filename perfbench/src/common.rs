//! Pieces shared by the workloads: counters, check bookkeeping, and
//! the program-level helpers every workload calls (variant memory,
//! gradient comparison, compilation with pass-time capture).

use std::collections::BTreeMap;
use std::time::Instant;
use tapeflow_autodiff::Gradient;
use tapeflow_benchmarks::Benchmark;
use tapeflow_core::pipeline::PipelineBuilder;
use tapeflow_core::{CompileMode, CompileOptions, CompiledProgram};
use tapeflow_ir::{ArrayId, ArrayKind, Function, Memory};

/// Per-iteration counters and values, keyed by metric name.
pub type Counts = BTreeMap<&'static str, f64>;

/// Adds `v` to counter `k`.
pub fn add(c: &mut Counts, k: &'static str, v: f64) {
    *c.entry(k).or_insert(0.0) += v;
}

/// A program's timed part, cut into consecutive laps at fixed points of
/// the workload's code. The laps sum to the program's time, and the same
/// program cuts into the same laps in every iteration.
#[derive(Debug)]
pub struct Laps {
    last: Instant,
    ms: Vec<f64>,
}

impl Laps {
    /// Starts timing a program.
    pub fn start() -> Self {
        Laps {
            last: Instant::now(),
            ms: Vec::new(),
        }
    }

    /// Ends the current lap and starts the next.
    pub fn lap(&mut self) {
        let now = Instant::now();
        self.ms
            .push(now.duration_since(self.last).as_secs_f64() * 1e3);
        self.last = now;
    }

    /// Ends the last lap; returns every lap, in milliseconds.
    pub fn finish(mut self) -> Vec<f64> {
        self.lap();
        self.ms
    }
}

/// Pass-and-fail bookkeeping behind `attempted`, `failed` and `correct`.
///
/// Output checks (gradients, round trips, report equality) decide
/// `correct`. Lint verdicts that the interpreter contradicts are failed
/// operations too, but they are a finding about the analysis, not a
/// wrong program output, so they leave `correct` alone.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed, of either kind.
    pub failed: u64,
    /// Failed output checks, with a short description of the first few.
    pub wrong_outputs: Vec<String>,
    /// Flip one gradient bit before every gradient comparison, so a test
    /// can show the checker is not vacuous.
    pub inject_mismatch: bool,
}

impl Checks {
    /// Records one output check.
    pub fn output(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.wrong_outputs.len() < 8 {
                self.wrong_outputs.push(what());
            }
        }
    }

    /// Records one lint verdict; `confirmed == false` means the
    /// interpreter contradicted it.
    pub fn verdict(&mut self, confirmed: bool) {
        self.attempted += 1;
        if !confirmed {
            self.failed += 1;
        }
    }
}

/// Compares two gradients bit for bit; `inject` flips one bit of the
/// reference first ([`Checks::inject_mismatch`]).
pub fn gradients_match(inject: bool, reference: &Shadows, other: &Shadows) -> bool {
    if !inject {
        return reference == other;
    }
    let mut flipped = reference.clone();
    if let Some(v) = flipped.iter_mut().find_map(|(_, bits)| bits.first_mut()) {
        *v ^= 1;
    }
    flipped == *other
}

/// Every shadow array of a memory image as raw bits, sorted by name.
pub type Shadows = Vec<(String, Vec<u64>)>;

/// The shadow arrays of `func` in `mem`.
pub fn shadows(func: &Function, mem: &Memory) -> Shadows {
    let mut out: Shadows = func
        .arrays_of_kind(ArrayKind::Shadow)
        .map(|a| {
            (
                func.array(a).name.clone(),
                mem.get_f64(a).into_iter().map(f64::to_bits).collect(),
            )
        })
        .collect();
    out.sort();
    out
}

/// Inputs for one variant of a benchmark's gradient (the AD output or a
/// compiled form): the benchmark's arrays plus a unit seed in the loss
/// shadow.
pub fn variant_memory(bench: &Benchmark, grad: &Gradient, variant: &Function) -> Memory {
    let mut mem = Memory::for_function(variant);
    for i in 0..bench.func.arrays().len() {
        mem.clone_array_from(&bench.mem, ArrayId::new(i));
    }
    mem.set_f64_at(
        grad.shadow_of(bench.loss.array).expect("loss has a shadow"),
        bench.loss.index,
        1.0,
    );
    mem
}

/// The three compiled forms the workloads build.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Form {
    /// `Tflow`: the paper's 1 KB double-buffered scratchpad pipeline.
    Tflow,
    /// `TflowC`: `Tflow` plus `value-ranges` and `tape-compress`.
    TflowC,
    /// Pass 1 only (array-of-structs layout, cache-resident).
    Aos,
}

impl Form {
    /// All three, in the order the workloads run them.
    pub const ALL: [Form; 3] = [Form::Tflow, Form::TflowC, Form::Aos];

    /// The span name of this form's pipeline run.
    pub fn span(self) -> &'static str {
        match self {
            Form::Tflow => "core.pipeline.tflow",
            Form::TflowC => "core.pipeline.tflowc",
            Form::Aos => "core.pipeline.aos",
        }
    }

    /// Compile options selecting this form's pass assembly (the same
    /// options the bench harness uses for `Tflow_N`, `TflowC_N`, `AoS_N`).
    pub fn options(self) -> CompileOptions {
        match self {
            Form::Tflow => CompileOptions::default(),
            Form::TflowC => CompileOptions {
                compress_tape: true,
                ..CompileOptions::default()
            },
            Form::Aos => CompileOptions {
                spad_entries: 2,
                double_buffer: false,
                mode: CompileMode::AosOnly,
                compress_tape: false,
            },
        }
    }
}

/// The metric that accumulates a registered pass's wall time.
fn pass_metric(pass: &str) -> Option<&'static str> {
    Some(match pass {
        "regions" => "core.pass.regions_ms",
        "layering" => "core.pass.layering_ms",
        "streams" => "core.pass.streams_ms",
        "spad-index" => "core.pass.spad-index_ms",
        "value-ranges" => "core.pass.value-ranges_ms",
        "tape-compress" => "core.pass.tape-compress_ms",
        "aos-layout" => "core.pass.aos-layout_ms",
        _ => return None,
    })
}

/// Runs `form`'s pipeline on `grad`, adding each pass's own recorded
/// wall time to `counts`.
///
/// # Panics
///
/// Panics if the pipeline rejects a registry benchmark, which no seed
/// can cause: seeds change data, not program structure.
pub fn compile(grad: &Gradient, form: Form, counts: &mut Counts) -> CompiledProgram {
    let run = PipelineBuilder::for_options(&form.options())
        .run_gradient(grad)
        .unwrap_or_else(|e| panic!("{form:?} pipeline: {e}"));
    for r in &run.report.records {
        if let Some(k) = pass_metric(r.name) {
            add(counts, k, r.wall.as_secs_f64() * 1e3);
        }
    }
    run.into_compiled()
        .unwrap_or_else(|e| panic!("{form:?} pipeline: {e}"))
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Geometric mean of positive values.
pub fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}
