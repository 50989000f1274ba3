//! Per-instruction attribution across the whole benchmark registry: on
//! every one of the nine registered benchmarks (Tiny scale), the
//! per-inst cycle breakdown must partition the per-cause totals exactly
//! (`InstBreakdown::check_against`) and resolve back to the full cycle
//! budget. That the event core charges every instruction identically to
//! the scalar reference loop is checked by the cross-engine equivalence
//! suite (`crates/bench/tests/equivalence.rs`).

use tapeflow::bench::attr;
use tapeflow::benchmarks::{by_name, Scale, NAMES};
use tapeflow::core::pipeline::PipelineBuilder;
use tapeflow::core::CompileOptions;
use tapeflow::ir::trace::{trace_function, TraceOptions};
use tapeflow::ir::{ArrayId, Function, Memory};
use tapeflow::sim::{simulate_probed, AttributionProbe, InstBreakdown, SimOptions, SystemConfig};

/// Runs `func`'s trace under the per-inst probe and checks the
/// partition invariants; returns the raw per-inst ledger.
fn probed_rows(label: &str, func: &Function, trace: &tapeflow::ir::trace::Trace) -> InstBreakdown {
    let sys = SystemConfig::default();
    let mut probe = AttributionProbe::with_inst_map(attr::node_to_inst(trace), func.insts().len());
    simulate_probed(trace, &sys, &SimOptions::default(), &mut probe)
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    let (bd, inst_bd) = probe.into_parts();
    let inst_bd = inst_bd.expect("per-inst mode was requested");
    bd.check().unwrap_or_else(|e| panic!("{label}: {e}"));
    inst_bd
        .check_against(&bd)
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    // One row per instruction plus the trailing unattributed bucket.
    assert_eq!(
        inst_bd.rows.len(),
        func.insts().len() + 1,
        "{label}: ledger shape"
    );
    // The resolved view must conserve cycles: resolve() only drops
    // all-zero rows, so resolved totals sum back to the full budget.
    let resolved = attr::resolve(func, None, &inst_bd);
    let budget: u64 = bd.cycles * bd.pes as u64;
    let resolved_total: u64 = resolved.iter().map(|r| r.total).sum();
    assert_eq!(resolved_total, budget, "{label}: resolve() lost cycles");
    assert!(
        resolved.iter().all(|r| r.total > 0),
        "{label}: resolve() kept a zero row"
    );
    inst_bd
}

/// Traces `func` with the benchmark's inputs and loss seed (the
/// harness's memory recipe).
fn traced(
    bench: &tapeflow::benchmarks::Benchmark,
    grad: &tapeflow::autodiff::Gradient,
    func: &Function,
    barrier: tapeflow::ir::InstId,
) -> tapeflow::ir::trace::Trace {
    let mut mem = Memory::for_function(func);
    for i in 0..bench.func.arrays().len() {
        mem.clone_array_from(&bench.mem, ArrayId::new(i));
    }
    mem.set_f64_at(
        grad.shadow_of(bench.loss.array).expect("loss shadow"),
        bench.loss.index,
        1.0,
    );
    trace_function(
        func,
        &mut mem,
        TraceOptions {
            phase_barrier: Some(barrier),
        },
    )
    .unwrap_or_else(|e| panic!("{}: {e}", bench.name))
}

#[test]
fn registry_per_inst_sums_match_per_cause_totals() {
    for name in NAMES {
        let bench = by_name(name, Scale::Tiny);
        let grad = bench.gradient();
        let trace = traced(&bench, &grad, &grad.func, grad.phase_barrier);
        probed_rows(&format!("{name} gradient"), &grad.func, &trace);
    }
}

#[test]
fn registry_per_inst_invariants_hold_for_compiled_programs() {
    let mut compiled_count = 0usize;
    for name in NAMES {
        let bench = by_name(name, Scale::Tiny);
        let grad = bench.gradient();
        let run = match PipelineBuilder::for_options(&CompileOptions::default()).run_gradient(&grad)
        {
            Ok(run) => run,
            // An infeasible scratchpad fit is a legitimate outcome for a
            // fixed default configuration, not an attribution bug.
            Err(_) => continue,
        };
        let compiled = match run.into_compiled() {
            Ok(c) => c,
            Err(_) => continue,
        };
        compiled_count += 1;
        let trace = traced(&bench, &grad, &compiled.func, compiled.phase_barrier);
        let inst_bd = probed_rows(&format!("{name} tapeflow"), &compiled.func, &trace);
        // Compiled programs carry provenance from the pass pipeline:
        // the hot rows must resolve to source ops, not all fall into
        // the unattributed bucket.
        let rows = attr::resolve(&compiled.func, Some(&bench.func), &inst_bd);
        assert!(
            rows.iter().any(|r| r.inst.is_some()),
            "{name}: every cycle unattributed"
        );
        assert!(
            rows.iter()
                .filter(|r| r.inst.is_some())
                .all(|r| !r.created_by.is_empty()),
            "{name}: compiled inst without a creating pass"
        );
    }
    assert!(
        compiled_count >= NAMES.len() / 2,
        "only {compiled_count} of {} benchmarks compiled at the default \
         scratchpad — the compiled-side coverage collapsed",
        NAMES.len()
    );
}
