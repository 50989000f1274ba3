//! Micro-benchmarks for the cycle-level simulator: tracing and
//! simulation throughput on the Enzyme and Tapeflow programs.
//!
//! `simulate` times arena construction plus one run on pathfinder,
//! whose run state fits in L2; `engine` times `PreparedSim::new`,
//! `PreparedSim::order_by_schedule` and `simulate_prepared` on both
//! numberings separately on somier at Small and prints them per node,
//! the figures ROADMAP's per-node table quotes. Run with
//! `cargo bench -p tapeflow-bench --bench simulator` (add `-- engine`
//! for that group alone).

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

/// The arena builds and the engine apart, on a trace whose run state
/// (8 B/node) is far larger than L2: `prep` is one `PreparedSim::new`,
/// `prep-ordered` the same plus `PreparedSim::order_by_schedule` (the
/// renumbering costs the difference), and `run` and `run-ordered` one
/// `simulate_prepared` on each numbering, with the arenas built outside
/// the timed closures. The break-even is the renumbering's cost in the
/// runs it saves (medians): a sweep of more configurations than that
/// gains from renumbering its arena.
fn bench_engine() {
    let group = Group::new("engine", 10);
    for (label, tf) in [("enzyme", false), ("tapeflow", true)] {
        let trace = traced("somier", tf);
        let build = |order: bool| {
            let prep = PreparedSim::new(&trace).expect("fits the arena limits");
            if order {
                prep.order_by_schedule();
            }
            prep
        };
        let prep = group.bench(format!("somier/{label}/prep"), || build(false));
        let prep_ordered = group.bench(format!("somier/{label}/prep-ordered"), || build(true));
        let (plain, ordered) = (build(false), build(true));
        let cfg = SystemConfig::baseline_32k();
        let run = group.bench(format!("somier/{label}/run"), || {
            simulate_prepared(&plain, &cfg, &SimOptions::default())
        });
        let run_ordered = group.bench(format!("somier/{label}/run-ordered"), || {
            simulate_prepared(&ordered, &cfg, &SimOptions::default())
        });
        let secs = |d: std::time::Duration| d.as_secs_f64();
        let per_node = |s: f64| s * 1e9 / plain.len() as f64;
        let order = secs(prep_ordered.median) - secs(prep.median);
        let saved = secs(run.median) - secs(run_ordered.median);
        println!(
            "engine/somier/{label:<9} {} nodes  median ns/node: prep {:.1} order {:.1} \
             run {:.1} run-ordered {:.1}  break-even {:.2} runs",
            plain.len(),
            per_node(secs(prep.median)),
            per_node(order),
            per_node(secs(run.median)),
            per_node(secs(run_ordered.median)),
            order / saved
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
    // `cargo bench --bench simulator -- engine` runs the one group.
    let only = std::env::args().skip(1).find(|a| !a.starts_with('-'));
    let groups: [(&str, fn()); 3] = [
        ("simulate", bench_simulate),
        ("engine", bench_engine),
        ("trace-extraction", bench_trace_extraction),
    ];
    for (name, run) in groups {
        if only.as_deref().is_none_or(|o| o == name) {
            run();
        }
    }
}
