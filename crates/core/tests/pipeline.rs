//! End-to-end pipeline tests: compiled Tapeflow programs must compute
//! bit-identical gradients to the plain gradient function (tiling and
//! streaming preserve iteration order exactly), and the stream schedule
//! must satisfy the paper's LIFO stream-stack invariant.

use tapeflow_autodiff::{differentiate, AdOptions, Gradient};
use tapeflow_core::{compile, CompileMode, CompileOptions, CoreError};
use tapeflow_ir::trace::{trace_function, TraceOptions};
use tapeflow_ir::{ArrayId, ArrayKind, Function, FunctionBuilder, Memory, Op, Scalar};

/// Runs a function (gradient or compiled) and returns the wrt shadows.
fn run_shadows(
    func: &Function,
    grad: &Gradient,
    orig: &Function,
    base: &Memory,
    wrt: &[ArrayId],
    loss: ArrayId,
) -> Vec<Vec<f64>> {
    let mut mem = Memory::for_function(func);
    for i in 0..orig.arrays().len() {
        mem.clone_array_from(base, ArrayId::new(i));
    }
    mem.set_f64_at(grad.shadow_of(loss).unwrap(), 0, 1.0);
    tapeflow_ir::interp::run(func, &mut mem).unwrap();
    wrt.iter()
        .map(|&w| mem.get_f64(grad.shadow_of(w).unwrap()))
        .collect()
}

struct Pipeline {
    orig: Function,
    grad: Gradient,
    base: Memory,
    wrt: Vec<ArrayId>,
    loss: ArrayId,
}

impl Pipeline {
    fn baseline(&self) -> Vec<Vec<f64>> {
        run_shadows(
            &self.grad.func,
            &self.grad,
            &self.orig,
            &self.base,
            &self.wrt,
            self.loss,
        )
    }

    fn compiled(&self, opts: &CompileOptions) -> Vec<Vec<f64>> {
        let c = compile(&self.grad, opts).unwrap_or_else(|e| panic!("compile: {e}"));
        tapeflow_ir::verify::verify(&c.func).unwrap();
        run_shadows(
            &c.func, &self.grad, &self.orig, &self.base, &self.wrt, self.loss,
        )
    }

    fn assert_equivalent(&self, opts: &CompileOptions) {
        assert_eq!(
            self.baseline(),
            self.compiled(opts),
            "compiled program must match the gradient bit for bit ({opts:?})"
        );
    }
}

/// `loss = sum_i f(x[i])` with `per_iter` taped values per iteration.
fn chain_pipeline(n: usize, per_iter: usize) -> Pipeline {
    let mut b = FunctionBuilder::new(format!("chain{per_iter}"));
    let x = b.array("x", n, ArrayKind::Input, Scalar::F64);
    let loss = b.array("loss", 1, ArrayKind::Output, Scalar::F64);
    b.for_loop("i", 0, n as i64, |b, i| {
        let mut v = b.load(x, i);
        for _ in 0..per_iter {
            // Each tanh result is needed by REV -> one tape slot each.
            v = b.tanh(v);
        }
        let c = b.load_cell(loss);
        let s = b.fadd(c, v);
        b.store_cell(loss, s);
    });
    let orig = b.finish();
    let grad = differentiate(&orig, &AdOptions::new(vec![x], vec![loss])).unwrap();
    let mut base = Memory::for_function(&orig);
    base.set_f64(
        x,
        &(0..n).map(|i| (i as f64) * 0.07 - 1.1).collect::<Vec<_>>(),
    );
    Pipeline {
        orig,
        grad,
        base,
        wrt: vec![x],
        loss,
    }
}

/// Nested matvec-like program producing two regions at two levels.
fn nested_pipeline(m: usize, n: usize) -> Pipeline {
    let mut b = FunctionBuilder::new("nested");
    let a = b.array("A", m * n, ArrayKind::Input, Scalar::F64);
    let v = b.array("v", n, ArrayKind::Input, Scalar::F64);
    let loss = b.array("loss", 1, ArrayKind::Output, Scalar::F64);
    b.for_loop("i", 0, m as i64, |b, i| {
        let acc = b.cell_f64("acc", 0.0);
        let z = b.f64(0.0);
        b.store_cell(acc, z);
        b.for_loop("j", 0, n as i64, |b, j| {
            let idx = b.idx2(i, n as i64, j);
            let aij = b.load(a, idx);
            let vj = b.load(v, j);
            let p = b.fmul(aij, vj);
            let t = b.tanh(p);
            let c = b.load_cell(acc);
            let s = b.fadd(c, t);
            b.store_cell(acc, s);
        });
        let r = b.load_cell(acc);
        let e = b.exp(r);
        let c = b.load_cell(loss);
        let s = b.fadd(c, e);
        b.store_cell(loss, s);
    });
    let orig = b.finish();
    let grad = differentiate(&orig, &AdOptions::new(vec![a, v], vec![loss])).unwrap();
    let mut base = Memory::for_function(&orig);
    base.set_f64(
        a,
        &(0..m * n)
            .map(|i| (i as f64) * 0.013 - 0.4)
            .collect::<Vec<_>>(),
    );
    base.set_f64(
        v,
        &(0..n).map(|i| 0.3 - (i as f64) * 0.05).collect::<Vec<_>>(),
    );
    Pipeline {
        orig,
        grad,
        base,
        wrt: vec![a, v],
        loss,
    }
}

#[test]
fn full_pipeline_preserves_gradients() {
    chain_pipeline(64, 2).assert_equivalent(&CompileOptions::default());
}

#[test]
fn aos_only_preserves_gradients() {
    let opts = CompileOptions {
        mode: CompileMode::AosOnly,
        ..CompileOptions::default()
    };
    chain_pipeline(64, 3).assert_equivalent(&opts);
}

#[test]
fn single_buffered_preserves_gradients() {
    let opts = CompileOptions {
        double_buffer: false,
        ..CompileOptions::default()
    };
    chain_pipeline(48, 2).assert_equivalent(&opts);
}

#[test]
fn nested_regions_two_levels() {
    let p = nested_pipeline(6, 8);
    // Check the plan really has two levels.
    let c = compile(&p.grad, &CompileOptions::default()).unwrap();
    assert_eq!(c.plan.levels, 2, "two region-nesting levels expected");
    p.assert_equivalent(&CompileOptions::default());
}

#[test]
fn spad_size_sweep_preserves_gradients() {
    let p = nested_pipeline(5, 7);
    for bytes in [64, 128, 256, 512, 1024, 2048] {
        let opts = CompileOptions::with_spad_bytes(bytes);
        p.assert_equivalent(&opts);
    }
}

#[test]
fn tiny_spad_forces_segmentation_with_duplicates() {
    // 12 taped tanh values per iteration; one struct cannot fit in a
    // 2-entry layer, so the body is segmented and the chain of uses
    // forces duplicated slots.
    let p = chain_pipeline(10, 12);
    let opts = CompileOptions {
        spad_entries: 8, // double-buffered: 4-entry layers
        ..CompileOptions::default()
    };
    let c = compile(&p.grad, &opts).unwrap();
    let seg = c.plan.regions.iter().any(|r| {
        matches!(
            r.layout,
            tapeflow_core::layering::RegionLayout::Segmented { .. }
        )
    });
    assert!(seg, "segmentation expected at this scratchpad size");
    p.assert_equivalent(&opts);
}

#[test]
fn segmentation_duplicates_cross_segment_values() {
    // x*y products consumed far later: u_k folds all earlier products.
    let n = 4usize;
    let k = 10usize;
    let mut b = FunctionBuilder::new("crossseg");
    let x = b.array("x", n * k, ArrayKind::Input, Scalar::F64);
    let loss = b.array("loss", 1, ArrayKind::Output, Scalar::F64);
    b.for_loop("i", 0, n as i64, |b, i| {
        // k tanh chain values, each consumed by the *next* statement's
        // adjoint, so segment-crossing consumption is guaranteed.
        let mut vals = Vec::new();
        for kk in 0..k {
            let kv = b.i64(kk as i64);
            let idx = b.idx2(i, k as i64, kv);
            let v = b.load(x, idx);
            let t = b.tanh(v);
            vals.push(t);
        }
        // product of all: every val consumed at the end.
        let mut prod = vals[0];
        for &t in &vals[1..] {
            prod = b.fmul(prod, t);
        }
        let c = b.load_cell(loss);
        let s = b.fadd(c, prod);
        b.store_cell(loss, s);
    });
    let orig = b.finish();
    let grad = differentiate(&orig, &AdOptions::new(vec![x], vec![loss])).unwrap();
    let mut base = Memory::for_function(&orig);
    base.set_f64(
        x,
        &(0..n * k)
            .map(|i| 0.4 + 0.01 * i as f64)
            .collect::<Vec<_>>(),
    );
    let p = Pipeline {
        orig,
        grad,
        base,
        wrt: vec![x],
        loss,
    };
    let opts = CompileOptions {
        spad_entries: 16,
        ..CompileOptions::default()
    };
    let c = compile(&p.grad, &opts).unwrap();
    assert!(
        c.stats.duplicated_slots > 0,
        "cross-segment consumers must force redundant stores"
    );
    p.assert_equivalent(&opts);
}

#[test]
fn spad_too_small_is_reported() {
    let p = nested_pipeline(4, 4); // two levels
    let opts = CompileOptions {
        spad_entries: 2, // one entry per level < 2 needed for double buffer
        ..CompileOptions::default()
    };
    assert!(matches!(
        compile(&p.grad, &opts),
        Err(CoreError::SpadTooSmall { .. })
    ));
}

#[test]
fn streams_obey_lifo_stack_order() {
    // The paper coordinates REV streams with a stack of FWD stream
    // records; our static addressing must produce the same LIFO order:
    // per region, REV-Streams pop exactly the reverse of FWD-Stream
    // pushes.
    let p = chain_pipeline(40, 2);
    let c = compile(&p.grad, &CompileOptions::default()).unwrap();
    let mut mem = Memory::for_function(&c.func);
    for i in 0..p.orig.arrays().len() {
        mem.clone_array_from(&p.base, ArrayId::new(i));
    }
    mem.set_f64_at(p.grad.shadow_of(p.loss).unwrap(), 0, 1.0);
    let trace = trace_function(
        &c.func,
        &mut mem,
        TraceOptions {
            phase_barrier: Some(c.phase_barrier),
        },
    )
    .unwrap();
    let mut outs: Vec<(u64, u32)> = Vec::new();
    let mut ins: Vec<(u64, u32)> = Vec::new();
    let cols = trace.columns();
    for (i, &inst) in trace.insts().iter().enumerate() {
        let node = (cols.addr()[i], cols.bytes(i));
        match c.func.inst(inst).op {
            Op::StreamOut(_) => outs.push(node),
            Op::StreamIn(_) => ins.push(node),
            _ => {}
        }
    }
    assert!(!outs.is_empty());
    assert_eq!(outs.len(), ins.len(), "every push is popped");
    let rev: Vec<_> = outs.into_iter().rev().collect();
    assert_eq!(rev, ins, "REV streams pop in LIFO order of FWD streams");
}

#[test]
fn layer_counts_match_plan() {
    let p = chain_pipeline(40, 2);
    let opts = CompileOptions::default();
    let c = compile(&p.grad, &opts).unwrap();
    let mut mem = Memory::for_function(&c.func);
    for i in 0..p.orig.arrays().len() {
        mem.clone_array_from(&p.base, ArrayId::new(i));
    }
    mem.set_f64_at(p.grad.shadow_of(p.loss).unwrap(), 0, 1.0);
    let trace = trace_function(&c.func, &mut mem, TraceOptions::default()).unwrap();
    // SAlloc count = FWD layers + REV layers = 2 × plan.
    assert_eq!(u64::from(trace.layer_count()), 2 * c.stats.fwd_layers);
}

#[test]
fn merged_region_shrinks_old_tapes() {
    let p = chain_pipeline(32, 2);
    let c = compile(&p.grad, &CompileOptions::default()).unwrap();
    // Old per-value tape arrays are shrunk to zero length.
    for t in &p.grad.tapes {
        assert_eq!(c.func.array(t.array).len, 0);
    }
    // One merged region with 2 slots per iteration.
    assert_eq!(c.stats.regions, 1);
    assert_eq!(c.stats.merged_tape_bytes, 32 * 2 * 8);
}

#[test]
fn compiled_output_keeps_provenance() {
    let p = chain_pipeline(64, 3);
    let c = compile(&p.grad, &CompileOptions::default()).unwrap();
    tapeflow_ir::verify::verify_provenance(&c.func, Some(p.orig.insts().len())).unwrap();
    tapeflow_ir::verify::verify_provenance_regions(&c.func).unwrap();
    // The lowered scratchpad stores still name the primal source op they
    // taped, and record the rewrite chain that produced them.
    let chained = c.func.insts().iter().enumerate().any(|(i, inst)| {
        matches!(inst.op, Op::SpadStore) && {
            let pr = c.func.prov(tapeflow_ir::InstId::new(i));
            pr.source.is_some() && pr.region.is_some() && pr.rewritten_by == Some("spad-index")
        }
    });
    assert!(chained, "no spad.store with a full provenance chain");
}

#[test]
fn segmented_output_stamps_layers() {
    let p = chain_pipeline(10, 12);
    let opts = CompileOptions {
        spad_entries: 8,
        ..CompileOptions::default()
    };
    let c = compile(&p.grad, &opts).unwrap();
    tapeflow_ir::verify::verify_provenance_regions(&c.func).unwrap();
    // Segments are layers: tape accesses in a segmented region carry one.
    let layered = (0..c.func.insts().len())
        .map(|i| c.func.prov(tapeflow_ir::InstId::new(i)))
        .any(|pr| pr.layer.is_some() && pr.region.is_some());
    assert!(layered, "segmented compile lost its layer stamps");
}
