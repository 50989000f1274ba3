//! Trains the mass-spring controller (the paper's DiffTaichi-style
//! benchmark) with gradients computed by the **Tapeflow-compiled**
//! program — demonstrating that the streamed-tape program is a drop-in
//! replacement for the plain gradient function, while reporting what the
//! streaming would cost on the modelled accelerator.
//!
//! ```text
//! cargo run --release --example mass_spring_training
//! ```

use tapeflow::benchmarks::{by_name, Scale};
use tapeflow::core::{compile, CompileOptions};
use tapeflow::ir::trace::{trace_function, TraceOptions};
use tapeflow::ir::{ArrayId, Memory};
use tapeflow::sim::{simulate_prepared, PreparedSim, SimOptions, SystemConfig};

fn main() {
    let bench = by_name("mass_spring", Scale::Small);
    let grad = bench.gradient();
    let compiled = compile(&grad, &CompileOptions::default()).expect("compiles");
    println!(
        "mass_spring: {} | {} regions, {} fwd layers, tape {} bytes",
        bench.params,
        compiled.stats.regions,
        compiled.stats.fwd_layers,
        compiled.stats.merged_tape_bytes
    );

    let (w1, w2) = (bench.wrt[0], bench.wrt[1]);
    let mut w1v = bench.mem.get_f64(w1);
    let mut w2v = bench.mem.get_f64(w2);
    let lr = 0.05;

    for epoch in 0..15 {
        // Fresh memory for the compiled gradient program each epoch.
        let mut mem = Memory::for_function(&compiled.func);
        for i in 0..bench.func.arrays().len() {
            mem.clone_array_from(&bench.mem, ArrayId::new(i));
        }
        mem.set_f64(w1, &w1v);
        mem.set_f64(w2, &w2v);
        mem.set_f64_at(grad.shadow_of(bench.loss.array).unwrap(), 0, 1.0);
        tapeflow::ir::interp::run(&compiled.func, &mut mem).expect("runs");
        let loss = mem.get_f64_at(bench.loss.array, 0);
        let d1 = mem.get_f64(grad.shadow_of(w1).unwrap());
        let d2 = mem.get_f64(grad.shadow_of(w2).unwrap());
        println!("epoch {epoch:>2}: loss = {loss:.6}");
        for (w, d) in w1v.iter_mut().zip(&d1) {
            *w -= lr * d;
        }
        for (w, d) in w2v.iter_mut().zip(&d2) {
            *w -= lr * d;
        }
    }

    // One simulated step on the accelerator, both memory systems.
    let mut mem = Memory::for_function(&compiled.func);
    for i in 0..bench.func.arrays().len() {
        mem.clone_array_from(&bench.mem, ArrayId::new(i));
    }
    mem.set_f64_at(grad.shadow_of(bench.loss.array).unwrap(), 0, 1.0);
    let tf_trace = trace_function(
        &compiled.func,
        &mut mem,
        TraceOptions {
            phase_barrier: Some(compiled.phase_barrier),
        },
    )
    .expect("traces");
    let mut mem2 = bench.gradient_memory(&grad);
    let ez_trace = trace_function(
        &grad.func,
        &mut mem2,
        TraceOptions {
            phase_barrier: Some(grad.phase_barrier),
        },
    )
    .expect("traces");
    let cfg = SystemConfig::baseline_32k();
    let tf_prep = PreparedSim::new(&tf_trace).expect("fits the arena limits");
    let ez_prep = PreparedSim::new(&ez_trace).expect("fits the arena limits");
    let tf = simulate_prepared(&tf_prep, &cfg, &SimOptions::default());
    let ez = simulate_prepared(&ez_prep, &cfg, &SimOptions::default());
    println!(
        "one training step on the accelerator: Enzyme_32k {} cycles vs Tflow_32k {} cycles ({:.2}x)",
        ez.cycles,
        tf.cycles,
        tf.speedup_over(&ez)
    );
}
