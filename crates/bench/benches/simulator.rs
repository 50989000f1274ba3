//! Micro-benchmarks for the cycle-level simulator: tracing and
//! simulation throughput on the Enzyme and Tapeflow programs.
//!
//! `simulate` times arena construction plus one run on pathfinder,
//! whose run state fits in L2; `engine` times `simulate_prepared` alone
//! on somier at Small and prints ns/node, the figure ROADMAP's per-node
//! table quotes. Run with `cargo bench -p tapeflow-bench --bench
//! simulator`.

use tapeflow_bench::microbench::Group;
use tapeflow_benchmarks::{by_name, Scale};
use tapeflow_core::{compile, CompileOptions};
use tapeflow_ir::trace::{trace_function, TraceOptions};
use tapeflow_ir::{ArrayId, Memory};
use tapeflow_sim::{simulate_prepared, PreparedSim, SimOptions, SystemConfig};

fn traced(name: &str, tapeflow: bool) -> tapeflow_ir::Trace {
    let bench = by_name(name, Scale::Small);
    let grad = bench.gradient();
    let (func, barrier) = if tapeflow {
        let c = compile(&grad, &CompileOptions::default()).expect("compiles");
        (c.func, c.phase_barrier)
    } else {
        (grad.func.clone(), grad.phase_barrier)
    };
    let mut mem = Memory::for_function(&func);
    for i in 0..bench.func.arrays().len() {
        mem.clone_array_from(&bench.mem, ArrayId::new(i));
    }
    mem.set_f64_at(
        grad.shadow_of(bench.loss.array).expect("loss shadow"),
        bench.loss.index,
        1.0,
    );
    trace_function(
        &func,
        &mut mem,
        TraceOptions {
            phase_barrier: Some(barrier),
        },
    )
    .expect("traces")
}

fn bench_simulate() {
    let group = Group::new("simulate", 10);
    for (label, tf) in [("enzyme", false), ("tapeflow", true)] {
        let trace = traced("pathfinder", tf);
        group.bench(format!("pathfinder/{label}"), || {
            let prep = PreparedSim::new(&trace).expect("fits the arena limits");
            simulate_prepared(&prep, &SystemConfig::baseline_32k(), &SimOptions::default())
        });
    }
}

/// The engine alone: the arena is built once, outside the timed
/// closure, so each sample is one `simulate_prepared` call on a trace
/// whose run state (8 B/node) is far larger than L2.
fn bench_engine() {
    let group = Group::new("engine", 10);
    for (label, tf) in [("enzyme", false), ("tapeflow", true)] {
        let prep = PreparedSim::new(&traced("somier", tf)).expect("fits the arena limits");
        let cfg = SystemConfig::baseline_32k();
        let t = group.bench(format!("somier/{label}"), || {
            simulate_prepared(&prep, &cfg, &SimOptions::default())
        });
        let per_node = |d: std::time::Duration| d.as_nanos() as f64 / prep.len() as f64;
        println!(
            "engine/somier/{label:<17} {} nodes  min {:>6.1} ns/node  median {:>6.1} ns/node",
            prep.len(),
            per_node(t.min),
            per_node(t.median)
        );
    }
}

fn bench_trace_extraction() {
    let group = Group::new("trace-extraction", 10);
    for name in ["logsum", "pathfinder", "mttkrp"] {
        group.bench(name, || traced(name, false));
    }
}

fn main() {
    bench_simulate();
    bench_engine();
    bench_trace_extraction();
}
