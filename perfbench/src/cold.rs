//! `cold`: the single-program user (`tapeflow simulate NAME`).
//!
//! Per program and iteration: build and seed the inputs, differentiate,
//! compile `Tflow_32k`, trace and prep both variants, simulate
//! `Enzyme_32k` and `Tflow_32k` cold, and render the report JSON.
//! Nothing is reused between programs or iterations, so the path is
//! dominated by `ir.trace` and `sim.prep` and never touches a sweep
//! session.

use crate::common::{
    add, compile, geomean, gradients_match, shadows, variant_memory, Checks, Counts, Form, Laps,
};
use crate::inputs::build_seeded;
use crate::spans::Tracer;
use crate::{Iter, Setup};
use std::time::Instant;
use tapeflow_benchmarks::{Scale, NAMES};
use tapeflow_ir::trace::{trace_function, TraceOptions};
use tapeflow_ir::{Function, InstId, Memory};
use tapeflow_sim::json::Value;
use tapeflow_sim::{simulate_prepared, PreparedSim, SimOptions, SimReport, SystemConfig};

/// The cache both variants simulate with (`Enzyme_32k`, `Tflow_32k`).
pub const CACHE_BYTES: usize = 32 * 1024;

/// The cold workload's state: only the seed and scale; every iteration
/// starts from nothing.
#[derive(Debug)]
pub struct Cold {
    scale: Scale,
    seed: u64,
}

/// Set-up: builds and seeds the nine programs' inputs once, which
/// validates the seed and records which arrays it varies.
pub fn setup(scale: Scale, seed: u64) -> Setup<Cold> {
    let varied = NAMES
        .iter()
        .map(|n| (n.to_string(), build_seeded(n, scale, seed).1))
        .collect();
    Setup {
        state: Cold { scale, seed },
        varied,
    }
}

/// What one program's cold path leaves behind for checking: both
/// reports, both programs and the memories their traces ran in.
struct Outcome {
    enzyme: (SimReport, Function, Memory),
    tflow: (SimReport, Function, Memory),
    report_json: String,
}

/// Traces, preps and simulates one variant, one lap each; returns the
/// report and the memory the trace ran in (it holds the variant's
/// gradient).
fn run_variant(
    tr: &Tracer,
    func: &Function,
    barrier: InstId,
    mut mem: Memory,
    counts: &mut Counts,
    laps: &mut Laps,
) -> (SimReport, Memory) {
    let trace = tr.span("ir.trace", || {
        trace_function(
            func,
            &mut mem,
            TraceOptions {
                phase_barrier: Some(barrier),
            },
        )
        .expect("registry programs trace")
    });
    laps.lap();
    let prep = tr.span("sim.prep", || {
        PreparedSim::new(&trace).expect("traces fit the arena limits")
    });
    laps.lap();
    let sys = SystemConfig::with_cache_bytes(CACHE_BYTES);
    let t0 = Instant::now();
    let report = tr.span("sim.engine", || {
        simulate_prepared(&prep, &sys, &SimOptions::default())
    });
    add(counts, "sim.wall_s", t0.elapsed().as_secs_f64());
    let nodes = trace.len() as f64;
    add(counts, "ir.trace.nodes", nodes);
    add(counts, "sim.prep.nodes", nodes);
    add(counts, "sim.engine.nodes", nodes);
    add(counts, "sim.engine.cycles", report.cycles as f64);
    add(counts, "sim.cycles", report.cycles as f64);
    // Freeing a layer's structure is part of that layer's cost.
    tr.span("sim.prep", || drop(prep));
    tr.span("ir.trace", || drop(trace));
    laps.lap();
    (report, mem)
}

fn cold_one(
    tr: &Tracer,
    name: &str,
    scale: Scale,
    seed: u64,
    counts: &mut Counts,
    laps: &mut Laps,
) -> Outcome {
    let (bench, varied) = tr.span("benchmarks.build", || build_seeded(name, scale, seed));
    add(counts, "benchmarks.seeded_arrays", varied.len() as f64);
    laps.lap();
    let grad = tr.span("autodiff.differentiate", || bench.gradient());
    laps.lap();
    add(counts, "autodiff.tape_bytes", grad.stats.tape_bytes as f64);
    add(
        counts,
        "autodiff.taped_values",
        grad.stats.taped_values as f64,
    );
    let tflow = tr.span(Form::Tflow.span(), || compile(&grad, Form::Tflow, counts));
    laps.lap();
    add(counts, "core.fwd_layers", tflow.stats.fwd_layers as f64);
    add(counts, "core.insts_after", tflow.func.insts().len() as f64);

    let (enzyme_r, enzyme_mem) = run_variant(
        tr,
        &grad.func,
        grad.phase_barrier,
        variant_memory(&bench, &grad, &grad.func),
        counts,
        laps,
    );
    let (tflow_r, tflow_mem) = run_variant(
        tr,
        &tflow.func,
        tflow.phase_barrier,
        variant_memory(&bench, &grad, &tflow.func),
        counts,
        laps,
    );
    let report_json = tr.span("sim.report", || {
        let mut doc = Value::object();
        doc.set("schema", "tapeflow.cli.simulate/v1")
            .set("cache_bytes", CACHE_BYTES)
            .set("spad_bytes", tflow.options.spad_entries * 8)
            .set("enzyme", enzyme_r.to_json())
            .set("tapeflow", tflow_r.to_json())
            .set("speedup", tflow_r.speedup_over(&enzyme_r));
        doc.render()
    });
    Outcome {
        enzyme: (enzyme_r, grad.func, enzyme_mem),
        tflow: (tflow_r, tflow.func, tflow_mem),
        report_json,
    }
}

/// One pass over the nine programs.
pub fn iteration(st: &mut Cold, tr: &Tracer, checks: &mut Checks) -> Iter {
    let mut it = Iter::default();
    let (mut speedups, mut dram, mut energy) = (Vec::new(), 0.0, 0.0);
    for name in NAMES {
        let mut laps = Laps::start();
        let out = tr.span("perfbench.program", || {
            cold_one(tr, name, st.scale, st.seed, &mut it.counts, &mut laps)
        });
        it.laps_ms.push(laps.finish());

        let (enzyme, tflow) = (&out.enzyme.0, &out.tflow.0);
        let ok = gradients_match(
            checks.inject_mismatch,
            &shadows(&out.enzyme.1, &out.enzyme.2),
            &shadows(&out.tflow.1, &out.tflow.2),
        );
        checks.output(ok, || {
            format!("{name}: Tflow_32k gradient differs from the AD gradient")
        });
        let parsed = Value::parse(&out.report_json).ok();
        let cycles = |k: &str| {
            parsed
                .as_ref()
                .and_then(|d| d.get(k))
                .and_then(|r| r.get("cycles"))
                .and_then(Value::as_u64)
        };
        checks.output(
            cycles("enzyme") == Some(enzyme.cycles)
                && cycles("tapeflow") == Some(tflow.cycles)
                && tflow.cycles > 0,
            || format!("{name}: report JSON does not round-trip the simulated cycles"),
        );
        speedups.push(enzyme.cycles as f64 / tflow.cycles as f64);
        dram += tflow.dram_bytes() as f64 / 1e6;
        energy += tflow.energy.on_chip_pj() / 1e6;
    }
    it.counts
        .insert("tflow_speedup_geomean", geomean(&speedups));
    it.counts.insert("tflow_dram_mb", dram);
    it.counts.insert("tflow_energy_uj", energy);
    it
}
