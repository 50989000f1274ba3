//! `analyze`: the compiler user, with no simulation.
//!
//! Each round, per program, at Small and at Large: differentiate; run
//! the Tflow, TflowC and AoS-only pass assemblies; lint the Tflow build
//! (`ir::lint` plus `core::lint`, as `Prepared::lint_findings` does);
//! round-trip every compiled function through pretty→parse→pretty. Then
//! at Tiny: interpret the AD gradient and the three compiled forms and
//! compare gradients bit for bit, and run the dynamic range oracle
//! (`interp::execute` with a `RangeRecorder`, then
//! `vra::check_containment`) on the source and the gradient.
//!
//! Compile passes are about 1% of `cold`, so a regression in
//! `value-ranges` or lint would not show there; this workload makes it
//! show. Large grows VRA's unrolling work without growing the IR.
//!
//! A lint error is checked against the interpreter: when the gradient
//! and all three compiled forms run in bounds with bit-equal gradients,
//! each error counts as `ir.lint.contradicted` and as a failed
//! operation.

use crate::common::{
    add, compile, gradients_match, shadows, variant_memory, Checks, Counts, Form, Laps, Shadows,
};
use crate::inputs::build_seeded;
use crate::spans::Tracer;
use crate::{Iter, Setup};
use tapeflow_autodiff::Gradient;
use tapeflow_benchmarks::{Benchmark, Scale, NAMES};
use tapeflow_core::CompiledProgram;
use tapeflow_ir::interp::{self, RangeRecorder};
use tapeflow_ir::lint::{lint_function, LintConfig, Severity};
use tapeflow_ir::{parse, pretty, vra, Function, Memory};
use tapeflow_sim::SystemConfig;

/// One program's inputs at every scale the round uses.
#[derive(Debug)]
struct Program {
    name: &'static str,
    /// The analysed scales (Small and Large in a real run).
    scaled: Vec<Benchmark>,
    /// The interpreted scale (Tiny).
    tiny: Benchmark,
}

/// The analyze workload's state.
#[derive(Debug)]
pub struct Analyze {
    programs: Vec<Program>,
}

/// Set-up: builds and seeds every program at every scale the round
/// uses.
pub fn setup(scales: &[Scale], tiny: Scale, seed: u64) -> Setup<Analyze> {
    let mut varied = Vec::new();
    let programs = NAMES
        .iter()
        .map(|&name| {
            let scaled = scales
                .iter()
                .map(|&s| build_seeded(name, s, seed).0)
                .collect();
            let (tiny, v) = build_seeded(name, tiny, seed);
            varied.push((name.to_string(), v));
            Program { name, scaled, tiny }
        })
        .collect();
    Setup {
        state: Analyze { programs },
        varied,
    }
}

/// Outcome of one check, applied to [`Checks`] after the timed part.
enum Outcome {
    Output(bool, String),
    Verdict(bool),
}

fn differentiate(tr: &Tracer, bench: &Benchmark, c: &mut Counts) -> Gradient {
    let grad = tr.span("autodiff.differentiate", || bench.gradient());
    add(c, "autodiff.tape_bytes", grad.stats.tape_bytes as f64);
    add(c, "autodiff.taped_values", grad.stats.taped_values as f64);
    grad
}

fn compile_all(tr: &Tracer, grad: &Gradient, c: &mut Counts) -> Vec<CompiledProgram> {
    Form::ALL
        .iter()
        .map(|&f| tr.span(f.span(), || compile(grad, f, c)))
        .collect()
}

/// Interprets `func` on `mem`; the dynamic instruction count lands in
/// `c`. `None` when the interpreter rejects the run (e.g. out of bounds).
fn interpret(tr: &Tracer, func: &Function, mut mem: Memory, c: &mut Counts) -> Option<Shadows> {
    let n = tr.span("ir.interp", || interp::run(func, &mut mem)).ok()?;
    add(c, "ir.interp.insts", n as f64);
    Some(shadows(func, &mem))
}

/// One analysed scale: compile, lint, round-trip.
fn analyse_scale(
    tr: &Tracer,
    name: &str,
    bench: &Benchmark,
    c: &mut Counts,
    out: &mut Vec<Outcome>,
) {
    let grad = differentiate(tr, bench, c);
    let forms = compile_all(tr, &grad, c);
    let [tflow, tflowc, _] = &forms[..] else {
        unreachable!("three forms")
    };
    add(c, "core.fwd_layers", tflow.stats.fwd_layers as f64);
    add(c, "core.insts_after", tflow.func.insts().len() as f64);
    let enc = tflowc.encoding.as_ref().expect("TflowC runs tape-compress");
    add(c, "core.tape_bytes_before", enc.bytes_before as f64);
    add(c, "core.tape_bytes_after", enc.bytes_after as f64);
    add(c, "core.narrowed_slots", enc.narrowed_slots as f64);
    add(c, "core.elided_slots", enc.elided_slots as f64);

    let cfg = LintConfig {
        spad_entries: tflow.options.spad_entries,
        spad_banks: SystemConfig::default().spad.banks,
    };
    let mut diags = tr.span("ir.lint", || lint_function(&tflow.func, &cfg));
    diags.extend(tr.span("core.lint", || {
        tapeflow_core::lint::lint_plan(&grad, &tflow.plan, &tflow.options, tflow.encoding.as_ref())
    }));
    let errors = diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count() as u64;
    add(c, "ir.lint.errors", errors as f64);

    for (form, f) in Form::ALL.iter().zip(&forms) {
        let text = tr.span("ir.pretty", || pretty::pretty(&f.func).to_string());
        let again = tr
            .span("ir.parse", || parse::parse(&text))
            .map(|g| tr.span("ir.pretty", || pretty::pretty(&g).to_string()));
        out.push(Outcome::Output(
            again.as_deref() == Ok(text.as_str()),
            format!("{name}: {form:?} pretty→parse→pretty is not byte-identical"),
        ));
    }

    if errors == 0 {
        out.push(Outcome::Verdict(true));
        return;
    }
    // The verdict claims the program misbehaves; the interpreter
    // bounds-checks every access, including streams.
    let reference = interpret(tr, &grad.func, bench.gradient_memory(&grad), c);
    let clean = reference.is_some()
        && forms
            .iter()
            .all(|f| interpret(tr, &f.func, variant_memory(bench, &grad, &f.func), c) == reference);
    for _ in 0..errors {
        out.push(Outcome::Verdict(!clean));
    }
    if clean {
        add(c, "ir.lint.contradicted", errors as f64);
    }
}

/// The Tiny checks: gradients of every compiled form, and the dynamic
/// range oracle over source and gradient.
fn tiny_checks(
    tr: &Tracer,
    name: &str,
    bench: &Benchmark,
    inject: bool,
    c: &mut Counts,
    out: &mut Vec<Outcome>,
) {
    let grad = differentiate(tr, bench, c);
    let forms = compile_all(tr, &grad, c);
    let mut reference = None;
    for (label, func, mut mem) in [
        ("source", &bench.func, bench.mem.clone()),
        ("gradient", &grad.func, bench.gradient_memory(&grad)),
    ] {
        let rec = RangeRecorder::new(func, &mem);
        let run = tr.span("ir.interp", || interp::execute(func, &mut mem, rec));
        let ok = match run {
            Ok((rec, n)) => {
                add(c, "ir.interp.insts", n as f64);
                let ranges = tr.span("ir.vra", || vra::value_ranges(func));
                vra::check_containment(func, &ranges, &rec).is_empty()
            }
            Err(_) => false,
        };
        out.push(Outcome::Output(
            ok,
            format!("{name}: {label} escapes its static value ranges"),
        ));
        if label == "gradient" {
            // `execute` with a hook is `interp::run` plus observation:
            // this run is the AD reference gradient.
            reference = Some(shadows(func, &mem));
        }
    }
    for (form, f) in Form::ALL.iter().zip(&forms) {
        let got = interpret(tr, &f.func, variant_memory(bench, &grad, &f.func), c);
        let ok = match (&reference, &got) {
            (Some(r), Some(g)) => gradients_match(inject, r, g),
            _ => false,
        };
        out.push(Outcome::Output(
            ok,
            format!("{name}: {form:?} gradient differs from the AD gradient"),
        ));
    }
}

/// One round over the nine programs.
pub fn iteration(st: &mut Analyze, tr: &Tracer, checks: &mut Checks) -> Iter {
    let mut it = Iter::default();
    let inject = checks.inject_mismatch;
    for prog in &st.programs {
        let mut outcomes = Vec::new();
        let mut laps = Laps::start();
        tr.span("perfbench.program", || {
            for bench in &prog.scaled {
                analyse_scale(tr, prog.name, bench, &mut it.counts, &mut outcomes);
                laps.lap();
            }
            tiny_checks(
                tr,
                prog.name,
                &prog.tiny,
                inject,
                &mut it.counts,
                &mut outcomes,
            );
        });
        it.laps_ms.push(laps.finish());
        for o in outcomes {
            match o {
                Outcome::Output(ok, what) => checks.output(ok, || what),
                Outcome::Verdict(confirmed) => checks.verdict(confirmed),
            }
        }
    }
    // Only the analysed scales record TflowC encodings.
    let tape_bytes = it
        .counts
        .get("core.tape_bytes_after")
        .copied()
        .unwrap_or(0.0);
    it.counts.insert("tape_kb", tape_bytes / 1024.0);
    it
}
