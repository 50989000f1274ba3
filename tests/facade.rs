//! Cross-crate integration through the `tapeflow` facade: the README's
//! advertised flow, determinism, and ablations of the design choices
//! DESIGN.md calls out.

use tapeflow::autodiff::{differentiate, AdOptions, TapePolicy};
use tapeflow::benchmarks::{by_name, Scale};
use tapeflow::core::{compile, CompileOptions};
use tapeflow::ir::trace::{trace_function, TraceOptions};
use tapeflow::ir::{ArrayId, ArrayKind, FunctionBuilder, Memory, Scalar};
use tapeflow::sim::{simulate, Cache, CacheConfig, ReplacementPolicy, SimOptions, SystemConfig};

#[test]
fn readme_flow_works_through_the_facade() {
    let mut b = FunctionBuilder::new("readme");
    let x = b.array("x", 32, ArrayKind::Input, Scalar::F64);
    let loss = b.array("loss", 1, ArrayKind::Output, Scalar::F64);
    b.for_loop("i", 0, 32, |b, i| {
        let v = b.load(x, i);
        let e = b.exp(v);
        let c = b.load_cell(loss);
        let s = b.fadd(c, e);
        b.store_cell(loss, s);
    });
    let f = b.finish();
    let grad = differentiate(&f, &AdOptions::new(vec![x], vec![loss])).unwrap();
    let compiled = compile(&grad, &CompileOptions::default()).unwrap();
    let mut mem = Memory::for_function(&compiled.func);
    mem.set_f64(x, &[0.1; 32]);
    mem.set_f64_at(grad.shadow_of(loss).unwrap(), 0, 1.0);
    let trace = trace_function(
        &compiled.func,
        &mut mem,
        TraceOptions {
            phase_barrier: Some(compiled.phase_barrier),
        },
    )
    .unwrap();
    let report = simulate(&trace, &SystemConfig::default(), &SimOptions::default()).unwrap();
    assert!(report.cycles > 0);
    let d = mem.get_f64(grad.shadow_of(x).unwrap());
    assert!(d.iter().all(|&g| (g - 0.1f64.exp()).abs() < 1e-12));
}

#[test]
fn simulation_is_deterministic() {
    let bench = by_name("pathfinder", Scale::Tiny);
    let grad = bench.gradient();
    let run = || {
        let mut mem = bench.gradient_memory(&grad);
        let t = trace_function(
            &grad.func,
            &mut mem,
            TraceOptions {
                phase_barrier: Some(grad.phase_barrier),
            },
        )
        .unwrap();
        let r = simulate(&t, &SystemConfig::default(), &SimOptions::default()).unwrap();
        (
            t.len(),
            t.edge_count(),
            r.cycles,
            r.cache.hits,
            r.dram_bytes(),
        )
    };
    assert_eq!(run(), run(), "trace and simulation must be reproducible");
}

#[test]
fn tape_policy_ablation_orders_tape_sizes() {
    // Minimal <= Conservative <= All, strictly somewhere.
    let bench = by_name("matdescent", Scale::Tiny);
    let sizes: Vec<u64> = [
        TapePolicy::Minimal,
        TapePolicy::Conservative,
        TapePolicy::All,
    ]
    .into_iter()
    .map(|p| bench.gradient_with(p).stats.tape_bytes)
    .collect();
    assert!(sizes[0] <= sizes[1] && sizes[1] <= sizes[2], "{sizes:?}");
    assert!(sizes[0] < sizes[2], "policies must differ: {sizes:?}");
}

#[test]
fn replacement_policy_does_not_rescue_the_baseline() {
    // Paper Obs 1.3: the tape's mixed reuse defeats policy tweaks. FIFO
    // and LRU must land within a modest factor of each other, both far
    // from eliminating tape misses.
    let bench = by_name("mttkrp", Scale::Small);
    let grad = bench.gradient();
    let mut mem = bench.gradient_memory(&grad);
    let t = trace_function(
        &grad.func,
        &mut mem,
        TraceOptions {
            phase_barrier: Some(grad.phase_barrier),
        },
    )
    .unwrap();
    let mut results = Vec::new();
    for policy in [ReplacementPolicy::Lru, ReplacementPolicy::Fifo] {
        let mut cfg = SystemConfig::with_cache_bytes(8 * 1024);
        cfg.cache.policy = policy;
        let r = simulate(&t, &cfg, &SimOptions::default()).unwrap();
        assert!(r.cache.tape_misses > 0, "{policy:?}");
        results.push(r.cycles as f64);
    }
    let ratio = results[0] / results[1];
    assert!(
        (0.5..2.0).contains(&ratio),
        "policies within 2x of each other: {ratio:.2}"
    );
}

#[test]
fn cache_model_exposed_for_standalone_use() {
    // The cache is a reusable component in its own right.
    let mut c = Cache::new(CacheConfig {
        size_bytes: 512,
        assoc: 2,
        line_bytes: 64,
        ports: 1,
        hit_latency: 1,
        mshrs: 2,
        policy: ReplacementPolicy::Lru,
    });
    let mut misses = 0;
    for i in 0..64u64 {
        if !c.access(i * 8, false).hit {
            misses += 1;
        }
    }
    assert_eq!(misses, 8, "one miss per 64 B line over 512 B");
}

#[test]
fn unrolled_benchmark_grads_match_rolled() {
    let bench = by_name("pathfinder", Scale::Tiny);
    // Tiny pathfinder inner loop has 7 columns; unroll the copy loop
    // instead (7 is prime) — use logsum for a clean divisible case.
    let _ = bench;
    let lb = by_name("logsum", Scale::Tiny); // 24 elements
    let unrolled = tapeflow::ir::transform::unroll_loop(&lb.func, "i", 4).unwrap();
    let grad_r = lb.gradient();
    let opts = AdOptions::new(lb.wrt.clone(), vec![lb.loss.array]);
    let grad_u = differentiate(&unrolled, &opts).unwrap();
    let run = |g: &tapeflow::autodiff::Gradient, f: &tapeflow::ir::Function| {
        let mut mem = Memory::for_function(f);
        mem.clone_array_from(&lb.mem, ArrayId::new(0));
        mem.set_f64_at(g.shadow_of(lb.loss.array).unwrap(), 0, 1.0);
        tapeflow::ir::interp::run(f, &mut mem).unwrap();
        mem.get_f64(g.shadow_of(lb.wrt[0]).unwrap())
    };
    assert_eq!(run(&grad_r, &grad_r.func), run(&grad_u, &grad_u.func));
}
