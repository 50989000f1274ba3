//! Quickstart: differentiate a function, stream its tape, simulate both
//! memory systems.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use tapeflow::autodiff::{differentiate, AdOptions, TapePolicy};
use tapeflow::core::{compile, CompileOptions};
use tapeflow::ir::trace::{trace_function, TraceOptions};
use tapeflow::ir::{ArrayId, ArrayKind, FunctionBuilder, Memory, Scalar};
use tapeflow::sim::{simulate, SimOptions, SystemConfig};

fn main() {
    // 1. Write a forward function in the IR: loss = sum_i tanh(exp(x_i))^2.
    let n = 1024;
    let mut b = FunctionBuilder::new("quickstart");
    let x = b.array("x", n, ArrayKind::Input, Scalar::F64);
    let loss = b.array("loss", 1, ArrayKind::Output, Scalar::F64);
    b.for_loop("i", 0, n as i64, |b, i| {
        let xi = b.load(x, i);
        let e = b.exp(xi);
        let t = b.tanh(e);
        let sq = b.fmul(t, t);
        let c = b.load_cell(loss);
        let s = b.fadd(c, sq);
        b.store_cell(loss, s);
    });
    let f = b.finish();

    // 2. Reverse-mode AD (the Enzyme substitute): FWD + tape + REV.
    let grad = differentiate(
        &f,
        &AdOptions::new(vec![x], vec![loss]).with_policy(TapePolicy::Conservative),
    )
    .expect("differentiable");
    println!(
        "gradient function: {} taped values, {} tape bytes, {} recomputed",
        grad.stats.taped_values, grad.stats.tape_bytes, grad.stats.recomputed_values
    );

    // 3. The Tapeflow passes: AoS regions, layers, streams, scratchpad.
    let compiled = compile(&grad, &CompileOptions::default()).expect("compiles");
    println!(
        "tapeflow program: {} regions, {} forward layers, {} duplicated slots",
        compiled.stats.regions, compiled.stats.fwd_layers, compiled.stats.duplicated_slots
    );

    // 4. Execute both programs (they compute bit-identical gradients).
    let inputs: Vec<f64> = (0..n).map(|i| (i as f64) * 0.001 - 0.5).collect();
    let run = |func: &tapeflow::ir::Function, barrier| {
        let mut mem = Memory::for_function(func);
        mem.clone_array_from(
            &{
                let mut m = Memory::for_function(&f);
                m.set_f64(x, &inputs);
                m
            },
            ArrayId::new(0),
        );
        mem.set_f64_at(grad.shadow_of(loss).unwrap(), 0, 1.0);
        let trace = trace_function(
            func,
            &mut mem,
            TraceOptions {
                phase_barrier: Some(barrier),
            },
        )
        .expect("executes");
        let d = mem.get_f64(grad.shadow_of(x).unwrap());
        (trace, d)
    };
    let (enzyme_trace, d_enzyme) = run(&grad.func, grad.phase_barrier);
    let (tapeflow_trace, d_tapeflow) = run(&compiled.func, compiled.phase_barrier);
    assert_eq!(d_enzyme, d_tapeflow, "same gradients, bit for bit");
    println!("d_x[0..4] = {:?}", &d_enzyme[..4]);

    // 5. Simulate on the spatial accelerator with an 8 KB cache.
    let cfg = SystemConfig::with_cache_bytes(8 * 1024);
    let ez = simulate(&enzyme_trace, &cfg, &SimOptions::default()).expect("simulates");
    let tf = simulate(&tapeflow_trace, &cfg, &SimOptions::default()).expect("simulates");
    println!(
        "Enzyme_8k : {} cycles, {} DRAM bytes, {:.1} nJ on-chip",
        ez.cycles,
        ez.dram_bytes(),
        ez.energy.on_chip_pj() / 1000.0
    );
    println!(
        "Tflow_8k  : {} cycles, {} DRAM bytes, {:.1} nJ on-chip",
        tf.cycles,
        tf.dram_bytes(),
        tf.energy.on_chip_pj() / 1000.0
    );
    println!(
        "speedup {:.2}x, on-chip energy reduction {:.2}x",
        tf.speedup_over(&ez),
        ez.energy.on_chip_pj() / tf.energy.on_chip_pj()
    );
}
