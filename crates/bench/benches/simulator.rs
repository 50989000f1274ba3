//! Micro-benchmarks for the cycle-level simulator: tracing and
//! simulation throughput on the Enzyme and Tapeflow programs.

use tapeflow_bench::microbench::Group;
use tapeflow_benchmarks::{by_name, Scale};
use tapeflow_core::{compile, CompileOptions};
use tapeflow_ir::trace::{trace_function, TraceOptions};
use tapeflow_ir::{ArrayId, Memory};
use tapeflow_sim::{simulate, SimOptions, SystemConfig};

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
            simulate(
                &trace,
                &SystemConfig::baseline_32k(),
                &SimOptions::default(),
            )
            .expect("simulates")
        });
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
    bench_trace_extraction();
}
