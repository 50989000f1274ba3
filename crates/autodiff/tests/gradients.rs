//! End-to-end gradient correctness: every structural feature the paper's
//! benchmarks rely on, checked against central finite differences.

use tapeflow_autodiff::gradcheck::{analytic_gradient, check_gradient, LossSpec};
use tapeflow_autodiff::{differentiate, AdOptions, TapePolicy};
use tapeflow_ir::{ArrayId, ArrayKind, Function, FunctionBuilder, Memory, Scalar};

const EPS: f64 = 1e-6;
const RTOL: f64 = 1e-4;
const ATOL: f64 = 1e-7;

struct Case {
    func: Function,
    wrt: Vec<ArrayId>,
    loss: LossSpec,
    mem: Memory,
}

impl Case {
    fn check(self) {
        self.check_with(TapePolicy::Minimal);
    }

    fn check_with(&self, policy: TapePolicy) {
        let opts = AdOptions::new(self.wrt.clone(), vec![self.loss.array]).with_policy(policy);
        let grad = differentiate(&self.func, &opts).expect("differentiate");
        tapeflow_ir::verify::verify(&grad.func).expect("gradient verifies");
        check_gradient(
            &self.func, &grad, &self.mem, &self.wrt, self.loss, EPS, RTOL, ATOL,
        )
        .unwrap_or_else(|e| panic!("{}: {e}", self.func.name));
    }

    fn check_both_policies(self) {
        self.check_with(TapePolicy::Minimal);
        self.check_with(TapePolicy::All);
    }
}

fn ramp(n: usize, lo: f64, step: f64) -> Vec<f64> {
    (0..n).map(|i| lo + step * i as f64).collect()
}

#[test]
fn dot_product() {
    let n = 8;
    let mut b = FunctionBuilder::new("dot");
    let x = b.array("x", n, ArrayKind::Input, Scalar::F64);
    let y = b.array("y", n, ArrayKind::Input, Scalar::F64);
    let loss = b.array("loss", 1, ArrayKind::Output, Scalar::F64);
    b.for_loop("i", 0, n as i64, |b, i| {
        let xi = b.load(x, i);
        let yi = b.load(y, i);
        let p = b.fmul(xi, yi);
        let c = b.load_cell(loss);
        let s = b.fadd(c, p);
        b.store_cell(loss, s);
    });
    let func = b.finish();
    let mut mem = Memory::for_function(&func);
    mem.set_f64(x, &ramp(n, 0.3, 0.7));
    mem.set_f64(y, &ramp(n, -1.0, 0.45));
    Case {
        func,
        wrt: vec![x, y],
        loss: LossSpec::cell(loss),
        mem,
    }
    .check_both_policies();
}

#[test]
fn transcendental_chain() {
    // loss = sum tanh(exp(sin(x)) / (1 + x^2))
    let n = 6;
    let mut b = FunctionBuilder::new("chain");
    let x = b.array("x", n, ArrayKind::Input, Scalar::F64);
    let loss = b.array("loss", 1, ArrayKind::Output, Scalar::F64);
    b.for_loop("i", 0, n as i64, |b, i| {
        let xi = b.load(x, i);
        let s = b.sin(xi);
        let e = b.exp(s);
        let x2 = b.fmul(xi, xi);
        let one = b.f64(1.0);
        let denom = b.fadd(one, x2);
        let q = b.fdiv(e, denom);
        let t = b.tanh(q);
        let c = b.load_cell(loss);
        let s2 = b.fadd(c, t);
        b.store_cell(loss, s2);
    });
    let func = b.finish();
    let mut mem = Memory::for_function(&func);
    mem.set_f64(x, &ramp(n, -1.2, 0.5));
    Case {
        func,
        wrt: vec![x],
        loss: LossSpec::cell(loss),
        mem,
    }
    .check_both_policies();
}

#[test]
fn sqrt_ln_pow_cos_abs() {
    // loss = sum |cos(x)| + sqrt(x+3) + ln(x+3) + x^3
    let n = 5;
    let mut b = FunctionBuilder::new("unaries");
    let x = b.array("x", n, ArrayKind::Input, Scalar::F64);
    let loss = b.array("loss", 1, ArrayKind::Output, Scalar::F64);
    b.for_loop("i", 0, n as i64, |b, i| {
        let xi = b.load(x, i);
        let c = b.cos(xi);
        let ac = b.fabs(c);
        let three = b.f64(3.0);
        let sh = b.fadd(xi, three);
        let sq = b.sqrt(sh);
        let l = b.ln(sh);
        let e3 = b.f64(3.0);
        let p = b.fpow(xi, e3);
        let t1 = b.fadd(ac, sq);
        let t2 = b.fadd(l, p);
        let t = b.fadd(t1, t2);
        let cu = b.load_cell(loss);
        let s = b.fadd(cu, t);
        b.store_cell(loss, s);
    });
    let func = b.finish();
    let mut mem = Memory::for_function(&func);
    mem.set_f64(x, &[0.4, 1.3, 2.2, 0.9, 1.7]);
    Case {
        func,
        wrt: vec![x],
        loss: LossSpec::cell(loss),
        mem,
    }
    .check();
}

#[test]
fn min_max_select_routing() {
    // pathfinder-style: loss = sum min(x[i], y[i]) + max(x[i], 0.5) and a
    // select on a comparison.
    let n = 7;
    let mut b = FunctionBuilder::new("minmax");
    let x = b.array("x", n, ArrayKind::Input, Scalar::F64);
    let y = b.array("y", n, ArrayKind::Input, Scalar::F64);
    let loss = b.array("loss", 1, ArrayKind::Output, Scalar::F64);
    b.for_loop("i", 0, n as i64, |b, i| {
        let xi = b.load(x, i);
        let yi = b.load(y, i);
        let mn = b.fmin(xi, yi);
        let half = b.f64(0.5);
        let mx = b.fmax(xi, half);
        let c = b.fcmp(tapeflow_ir::CmpKind::Lt, xi, yi);
        let sel = b.select(c, mx, mn);
        let t = b.fadd(mn, sel);
        let cu = b.load_cell(loss);
        let s = b.fadd(cu, t);
        b.store_cell(loss, s);
    });
    let func = b.finish();
    let mut mem = Memory::for_function(&func);
    // Avoid ties (non-differentiable points).
    mem.set_f64(x, &[0.1, 0.9, -0.4, 1.4, 0.7, -1.2, 2.0]);
    mem.set_f64(y, &[0.6, 0.2, 0.3, -0.9, 1.5, 0.8, -0.5]);
    Case {
        func,
        wrt: vec![x, y],
        loss: LossSpec::cell(loss),
        mem,
    }
    .check_both_policies();
}

#[test]
fn nested_loops_matvec() {
    // loss = || A v ||^2, wrt A and v: exercises 2-D tape indices.
    let (m, n) = (4usize, 3usize);
    let mut b = FunctionBuilder::new("matvec");
    let a = b.array("A", m * n, ArrayKind::Input, Scalar::F64);
    let v = b.array("v", n, ArrayKind::Input, Scalar::F64);
    let loss = b.array("loss", 1, ArrayKind::Output, Scalar::F64);
    b.for_loop("i", 0, m as i64, |b, i| {
        let acc = b.cell_f64(format!("row{}", "acc"), 0.0);
        let zero = b.f64(0.0);
        b.store_cell(acc, zero);
        b.for_loop("j", 0, n as i64, |b, j| {
            let idx = b.idx2(i, n as i64, j);
            let aij = b.load(a, idx);
            let vj = b.load(v, j);
            let p = b.fmul(aij, vj);
            let c = b.load_cell(acc);
            let s = b.fadd(c, p);
            b.store_cell(acc, s);
        });
        let r = b.load_cell(acc);
        let r2 = b.fmul(r, r);
        let cu = b.load_cell(loss);
        let s = b.fadd(cu, r2);
        b.store_cell(loss, s);
    });
    let func = b.finish();
    let mut mem = Memory::for_function(&func);
    mem.set_f64(a, &ramp(m * n, -0.8, 0.23));
    mem.set_f64(v, &ramp(n, 0.5, -0.4));
    Case {
        func,
        wrt: vec![a, v],
        loss: LossSpec::cell(loss),
        mem,
    }
    .check_both_policies();
}

#[test]
fn loop_carried_overwrites() {
    // u is overwritten every iteration: exercises the shadow-kill path.
    // u_{k+1} = u_k * x[k] + x[k]^2, loss = u_N.
    let n = 5;
    let mut b = FunctionBuilder::new("carry");
    let x = b.array("x", n, ArrayKind::Input, Scalar::F64);
    let loss = b.array("loss", 1, ArrayKind::Output, Scalar::F64);
    let u = b.cell_f64("u", 1.0);
    b.for_loop("k", 0, n as i64, |b, k| {
        let xk = b.load(x, k);
        let cu = b.load_cell(u);
        let m = b.fmul(cu, xk);
        let x2 = b.fmul(xk, xk);
        let nu = b.fadd(m, x2);
        b.store_cell(u, nu);
    });
    let fin = b.load_cell(u);
    b.store_cell(loss, fin);
    let func = b.finish();
    let mut mem = Memory::for_function(&func);
    mem.set_f64(x, &[1.1, 0.7, -0.9, 1.3, 0.4]);
    Case {
        func,
        wrt: vec![x],
        loss: LossSpec::cell(loss),
        mem,
    }
    .check_both_policies();
}

#[test]
fn hoisted_value_used_in_loop_needs_cell_adjoint() {
    // t = w[0]*w[1] computed once, consumed by every iteration: the
    // adjoint of t accumulates across the mirrored loop via a cell.
    let n = 6;
    let mut b = FunctionBuilder::new("hoist");
    let w = b.array("w", 2, ArrayKind::Input, Scalar::F64);
    let x = b.array("x", n, ArrayKind::Input, Scalar::F64);
    let loss = b.array("loss", 1, ArrayKind::Output, Scalar::F64);
    let z = b.i64(0);
    let o = b.i64(1);
    let w0 = b.load(w, z);
    let w1 = b.load(w, o);
    let t = b.fmul(w0, w1);
    b.for_loop("i", 0, n as i64, |b, i| {
        let xi = b.load(x, i);
        let p = b.fmul(t, xi);
        let e = b.exp(p);
        let c = b.load_cell(loss);
        let s = b.fadd(c, e);
        b.store_cell(loss, s);
    });
    let func = b.finish();
    let mut mem = Memory::for_function(&func);
    mem.set_f64(w, &[0.8, -0.6]);
    mem.set_f64(x, &ramp(n, -0.5, 0.3));
    Case {
        func,
        wrt: vec![w, x],
        loss: LossSpec::cell(loss),
        mem,
    }
    .check_both_policies();
}

#[test]
fn indirect_indexing_mass_spring_style() {
    // Springs connect particle pairs through integer index arrays (the
    // paper's mass-spring benchmark shape): force = k*(x[a]-x[b])^2.
    let np = 6;
    let ns = 8;
    let mut b = FunctionBuilder::new("springs");
    let x = b.array("x", np, ArrayKind::Input, Scalar::F64);
    let ia = b.array("ia", ns, ArrayKind::Input, Scalar::I64);
    let ib = b.array("ib", ns, ArrayKind::Input, Scalar::I64);
    let loss = b.array("loss", 1, ArrayKind::Output, Scalar::F64);
    b.for_loop("s", 0, ns as i64, |b, s| {
        let a = b.load(ia, s);
        let bb = b.load(ib, s);
        let xa = b.load(x, a);
        let xb = b.load(x, bb);
        let d = b.fsub(xa, xb);
        let d2 = b.fmul(d, d);
        let c = b.load_cell(loss);
        let s2 = b.fadd(c, d2);
        b.store_cell(loss, s2);
    });
    let func = b.finish();
    let mut mem = Memory::for_function(&func);
    mem.set_f64(x, &ramp(np, -1.0, 0.62));
    mem.set_i64(ia, &[0, 1, 2, 3, 4, 5, 0, 2]);
    mem.set_i64(ib, &[1, 2, 3, 4, 5, 0, 3, 5]);
    Case {
        func,
        wrt: vec![x],
        loss: LossSpec::cell(loss),
        mem,
    }
    .check_both_policies();
}

#[test]
fn imperfect_nest_with_mid_loop_code() {
    // Code before, between and after an inner loop (imperfect nest).
    let (m, n) = (3usize, 4usize);
    let mut b = FunctionBuilder::new("imperfect");
    let x = b.array("x", m * n, ArrayKind::Input, Scalar::F64);
    let g = b.array("g", m, ArrayKind::Input, Scalar::F64);
    let loss = b.array("loss", 1, ArrayKind::Output, Scalar::F64);
    b.for_loop("i", 0, m as i64, |b, i| {
        let gi = b.load(g, i);
        let scale = b.exp(gi);
        let acc = b.cell_f64("acc2", 0.0);
        let zero = b.f64(0.0);
        b.store_cell(acc, zero);
        b.for_loop("j", 0, n as i64, |b, j| {
            let idx = b.idx2(i, n as i64, j);
            let v = b.load(x, idx);
            let sv = b.fmul(scale, v);
            let t = b.tanh(sv);
            let c = b.load_cell(acc);
            let s = b.fadd(c, t);
            b.store_cell(acc, s);
        });
        let a = b.load_cell(acc);
        let a2 = b.fmul(a, gi);
        let cu = b.load_cell(loss);
        let s = b.fadd(cu, a2);
        b.store_cell(loss, s);
    });
    let func = b.finish();
    let mut mem = Memory::for_function(&func);
    mem.set_f64(x, &ramp(m * n, -0.7, 0.19));
    mem.set_f64(g, &[0.3, -0.2, 0.5]);
    Case {
        func,
        wrt: vec![x, g],
        loss: LossSpec::cell(loss),
        mem,
    }
    .check_both_policies();
}

#[test]
fn inout_array_overwritten_in_place() {
    // The wrt array itself is overwritten (InOut), like a physics state
    // advanced in place over timesteps.
    let n = 4;
    let steps = 3;
    let mut b = FunctionBuilder::new("inplace");
    let x0 = b.array("x0", n, ArrayKind::Input, Scalar::F64);
    let x = b.array("x", n, ArrayKind::InOut, Scalar::F64);
    let loss = b.array("loss", 1, ArrayKind::Output, Scalar::F64);
    b.for_loop("i", 0, n as i64, |b, i| {
        let v = b.load(x0, i);
        b.store(x, i, v);
    });
    b.for_loop("t", 0, steps, |b, _t| {
        b.for_loop("i", 0, n as i64, |b, i| {
            let v = b.load(x, i);
            let v2 = b.fmul(v, v);
            let tenth = b.f64(0.1);
            let dv = b.fmul(tenth, v2);
            let nv = b.fadd(v, dv);
            b.store(x, i, nv);
        });
    });
    b.for_loop("i", 0, n as i64, |b, i| {
        let v = b.load(x, i);
        let c = b.load_cell(loss);
        let s = b.fadd(c, v);
        b.store_cell(loss, s);
    });
    let func = b.finish();
    let mut mem = Memory::for_function(&func);
    mem.set_f64(x0, &[0.5, -0.3, 0.8, 0.1]);
    Case {
        func,
        wrt: vec![x0],
        loss: LossSpec::cell(loss),
        mem,
    }
    .check_both_policies();
}

#[test]
fn non_unit_stride_and_offset_loops() {
    let mut b = FunctionBuilder::new("strided");
    let x = b.array("x", 16, ArrayKind::Input, Scalar::F64);
    let loss = b.array("loss", 1, ArrayKind::Output, Scalar::F64);
    b.for_loop_step("i", 2i64, 14i64, 3, |b, i| {
        let v = b.load(x, i);
        let e = b.exp(v);
        let c = b.load_cell(loss);
        let s = b.fadd(c, e);
        b.store_cell(loss, s);
    });
    let func = b.finish();
    let mut mem = Memory::for_function(&func);
    mem.set_f64(x, &ramp(16, -0.9, 0.13));
    Case {
        func,
        wrt: vec![x],
        loss: LossSpec::cell(loss),
        mem,
    }
    .check_both_policies();
}

#[test]
fn taped_select_condition_roundtrips_through_f64_tape() {
    // The select condition depends on a value that is overwritten, so it
    // cannot be recomputed in REV: it must round-trip through the f64
    // tape (TapeAsInt).
    let n = 5;
    let mut b = FunctionBuilder::new("tapedcond");
    let x = b.array("x", n, ArrayKind::Input, Scalar::F64);
    let state = b.cell_f64("state", 0.0);
    let loss = b.array("loss", 1, ArrayKind::Output, Scalar::F64);
    b.for_loop("i", 0, n as i64, |b, i| {
        let xi = b.load(x, i);
        let st = b.load_cell(state);
        // cond depends on mutable state -> not recomputable.
        let thresh = b.f64(0.9);
        let c = b.fcmp(tapeflow_ir::CmpKind::Lt, st, thresh);
        let two = b.f64(2.0);
        let half = b.f64(0.5);
        let hi = b.fmul(two, xi);
        let lo = b.fmul(half, xi);
        let sel = b.select(c, hi, lo);
        let ns = b.fadd(st, xi);
        b.store_cell(state, ns);
        let cu = b.load_cell(loss);
        let s = b.fadd(cu, sel);
        b.store_cell(loss, s);
    });
    let func = b.finish();
    let mut mem = Memory::for_function(&func);
    mem.set_f64(x, &[0.4, 0.3, 0.35, 0.2, 0.6]);
    let opts = AdOptions::new(vec![x], vec![loss]);
    let grad = differentiate(&func, &opts).unwrap();
    // At least one tape array must be an int round-trip.
    assert!(
        grad.tapes.iter().any(|t| t.as_int),
        "expected a TapeAsInt array"
    );
    Case {
        func,
        wrt: vec![x],
        loss: LossSpec::cell(loss),
        mem,
    }
    .check();
}

#[test]
fn tape_metadata_is_consistent() {
    let n = 8;
    let mut b = FunctionBuilder::new("meta");
    let x = b.array("x", n, ArrayKind::Input, Scalar::F64);
    let loss = b.array("loss", 1, ArrayKind::Output, Scalar::F64);
    b.for_loop("i", 0, n as i64, |b, i| {
        let xi = b.load(x, i);
        let e = b.exp(xi);
        let sq = b.fmul(e, e);
        let c = b.load_cell(loss);
        let s = b.fadd(c, sq);
        b.store_cell(loss, s);
    });
    let func = b.finish();
    let grad = differentiate(&func, &AdOptions::new(vec![x], vec![loss])).unwrap();
    assert!(!grad.tapes.is_empty(), "exp result must be taped");
    for t in &grad.tapes {
        assert_eq!(t.trip_product, n as u64);
        assert_eq!(grad.func.array(t.array).len, n);
        assert_eq!(grad.func.array(t.array).kind, ArrayKind::Tape);
        assert!(!t.loads.is_empty(), "every tape store has a consumer");
        assert_eq!(t.fwd_loop_path.len(), 1);
    }
    assert!(!grad.loop_map.is_empty());
    assert_eq!(grad.stats.taped_values, grad.tapes.len());
    assert_eq!(grad.stats.tape_bytes, grad.tape_elems() * 8);
}

#[test]
fn seed_scaling_is_linear() {
    // Seeding d_loss = 2 must exactly double the gradient.
    let n = 4;
    let mut b = FunctionBuilder::new("linear_seed");
    let x = b.array("x", n, ArrayKind::Input, Scalar::F64);
    let loss = b.array("loss", 1, ArrayKind::Output, Scalar::F64);
    b.for_loop("i", 0, n as i64, |b, i| {
        let v = b.load(x, i);
        let e = b.exp(v);
        let c = b.load_cell(loss);
        let s = b.fadd(c, e);
        b.store_cell(loss, s);
    });
    let func = b.finish();
    let grad = differentiate(&func, &AdOptions::new(vec![x], vec![loss])).unwrap();
    let mut base = Memory::for_function(&func);
    base.set_f64(x, &[0.1, 0.2, 0.3, 0.4]);
    let run_with_seed = |seed: f64| {
        let mut m = grad.prepare_memory(&func, &base);
        m.set_f64_at(grad.shadow_of(loss).unwrap(), 0, seed);
        tapeflow_ir::interp::run(&grad.func, &mut m).unwrap();
        m.get_f64(grad.shadow_of(x).unwrap())
    };
    let g1 = run_with_seed(1.0);
    let g2 = run_with_seed(2.0);
    for (a, b2) in g1.iter().zip(&g2) {
        assert!((2.0 * a - b2).abs() < 1e-12);
    }
}

/// `y = Σx` over a 2×2 ones input (stored flat), `z = y²`: every
/// element's gradient is `dz/dx = 2y = 8`, exactly.
#[test]
fn square_of_sum_on_ones_has_gradient_eight() {
    let mut b = FunctionBuilder::new("square_of_sum");
    let x = b.array("x", 4, ArrayKind::Input, Scalar::F64);
    let y = b.array("y", 1, ArrayKind::Output, Scalar::F64);
    let z = b.array("z", 1, ArrayKind::Output, Scalar::F64);
    b.for_loop("i", 0, 4, |b, i| {
        let xi = b.load(x, i);
        let c = b.load_cell(y);
        let s = b.fadd(c, xi);
        b.store_cell(y, s);
    });
    let yv = b.load_cell(y);
    let zv = b.fmul(yv, yv);
    b.store_cell(z, zv);
    let func = b.finish();
    let grad = differentiate(&func, &AdOptions::new(vec![x], vec![z])).unwrap();
    let mut mem = Memory::for_function(&func);
    mem.set_f64(x, &[1.0; 4]);
    let loss = LossSpec::cell(z);
    let dz_dx = analytic_gradient(&func, &grad, &mem, &[x], loss).unwrap();
    assert_eq!(dz_dx, [[8.0; 4]]);
    check_gradient(&func, &grad, &mem, &[x], loss, EPS, RTOL, ATOL).unwrap();
}

/// `y = x²`, `z = y²` at `x = 3`, differentiated once for both outputs
/// (like a persistent tape): `dz/dx = 4x³ = 108` and `dy/dx = 2x = 6`,
/// exactly.
#[test]
fn square_of_square_at_three_has_gradient_108() {
    let mut b = FunctionBuilder::new("square_of_square");
    let x = b.array("x", 1, ArrayKind::Input, Scalar::F64);
    let y = b.array("y", 1, ArrayKind::Output, Scalar::F64);
    let z = b.array("z", 1, ArrayKind::Output, Scalar::F64);
    let xv = b.load_cell(x);
    let yv = b.fmul(xv, xv);
    b.store_cell(y, yv);
    let zv = b.fmul(yv, yv);
    b.store_cell(z, zv);
    let func = b.finish();
    let grad = differentiate(&func, &AdOptions::new(vec![x], vec![y, z])).unwrap();
    let mut mem = Memory::for_function(&func);
    mem.set_f64(x, &[3.0]);
    for (out, want) in [(z, 108.0), (y, 6.0)] {
        let loss = LossSpec::cell(out);
        let got = analytic_gradient(&func, &grad, &mem, &[x], loss).unwrap();
        assert_eq!(got, [[want]], "d{}/dx", func.array(out).name);
        check_gradient(&func, &grad, &mem, &[x], loss, EPS, RTOL, ATOL).unwrap();
    }
}
