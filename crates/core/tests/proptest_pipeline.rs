//! Randomized pipeline checking: random stateful programs are
//! differentiated and compiled at random scratchpad sizes/modes; the
//! compiled program must compute bit-identical gradients to the plain
//! gradient function and its streams must obey the LIFO stack order.
//! Deterministic in-tree xorshift generation (the container has no
//! network access to fetch `proptest`), so every run exercises the same
//! cases.

use tapeflow_autodiff::{differentiate, AdOptions, TapePolicy};
use tapeflow_core::{compile, CompileMode, CompileOptions};
use tapeflow_ir::trace::{trace_function, TraceOptions};
use tapeflow_ir::{
    ArrayId, ArrayKind, CmpKind, Function, FunctionBuilder, Memory, Op, Scalar, ValueId,
};

/// Tiny deterministic xorshift64 RNG (no external deps).
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }
    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
    fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

/// One step of a random inner-loop computation over (x_i, running state).
#[derive(Clone, Copy, Debug)]
enum StepOp {
    Tanh,
    SafeExp,
    Sin,
    MulX,
    AddState,
    MinX,
    SelectGt,
    Sqrt1p,
}

const STEPS: [StepOp; 8] = [
    StepOp::Tanh,
    StepOp::SafeExp,
    StepOp::Sin,
    StepOp::MulX,
    StepOp::AddState,
    StepOp::MinX,
    StepOp::SelectGt,
    StepOp::Sqrt1p,
];

fn gen_steps(r: &mut Rng, lo: usize, hi: usize) -> Vec<StepOp> {
    let n = lo + r.below((hi - lo) as u64) as usize;
    (0..n).map(|_| STEPS[r.below(8) as usize]).collect()
}

fn apply_step(
    b: &mut FunctionBuilder,
    op: StepOp,
    v: ValueId,
    xi: ValueId,
    state: ValueId,
) -> ValueId {
    match op {
        StepOp::Tanh => b.tanh(v),
        StepOp::SafeExp => {
            let t = b.tanh(v);
            b.exp(t)
        }
        StepOp::Sin => b.sin(v),
        StepOp::MulX => b.fmul(v, xi),
        StepOp::AddState => b.fadd(v, state),
        StepOp::MinX => b.fmin(v, xi),
        StepOp::SelectGt => {
            let zero = b.f64(0.0);
            let c = b.fcmp(CmpKind::Gt, v, zero);
            let half = b.f64(0.5);
            let lo = b.fmul(v, half);
            b.select(c, v, lo)
        }
        StepOp::Sqrt1p => {
            let a = b.fabs(v);
            let one = b.f64(1.0);
            let s = b.fadd(a, one);
            b.sqrt(s)
        }
    }
}

/// Builds: two nested loops over a grid; inner body applies the random
/// step chain, threading a mutable state cell; loss accumulates results.
fn build_program(steps: &[StepOp], rows: usize, cols: usize) -> (Function, ArrayId, ArrayId) {
    let mut b = FunctionBuilder::new("randpipe");
    let x = b.array("x", rows * cols, ArrayKind::Input, Scalar::F64);
    let loss = b.array("loss", 1, ArrayKind::Output, Scalar::F64);
    let state = b.cell_f64("state", 0.1);
    b.for_loop("r", 0, rows as i64, |b, r| {
        b.for_loop("c", 0, cols as i64, |b, c| {
            let idx = b.idx2(r, cols as i64, c);
            let xi = b.load(x, idx);
            let st = b.load_cell(state);
            let mut v = xi;
            for &op in steps {
                v = apply_step(b, op, v, xi, st);
            }
            let half = b.f64(0.5);
            let hs = b.fmul(st, half);
            let ns = b.fadd(hs, v);
            b.store_cell(state, ns);
            let cur = b.load_cell(loss);
            let s = b.fadd(cur, v);
            b.store_cell(loss, s);
        });
    });
    (b.finish(), x, loss)
}

fn shadows(
    func: &Function,
    grad: &tapeflow_autodiff::Gradient,
    x: ArrayId,
    loss: ArrayId,
    data: &[f64],
) -> Vec<f64> {
    let mut mem = Memory::for_function(func);
    mem.set_f64(x, data);
    mem.set_f64_at(grad.shadow_of(loss).unwrap(), 0, 1.0);
    tapeflow_ir::interp::run(func, &mut mem).unwrap();
    mem.get_f64(grad.shadow_of(x).unwrap())
}

#[test]
fn compiled_gradients_bit_identical() {
    for case in 0..48u64 {
        let mut r = Rng::new(case);
        let steps = gen_steps(&mut r, 1, 6);
        let rows = 2 + r.below(3) as usize;
        let cols = 2 + r.below(5) as usize;
        let spad_bytes = [64usize, 128, 256, 1024][r.below(4) as usize];
        let double_buffer = r.bool();
        let aos_only = r.bool();
        let policy = if r.bool() {
            TapePolicy::Conservative
        } else {
            TapePolicy::Minimal
        };
        let seed = r.below(1000);

        let (func, x, loss) = build_program(&steps, rows, cols);
        tapeflow_ir::verify::verify(&func).unwrap();
        let grad = differentiate(
            &func,
            &AdOptions::new(vec![x], vec![loss]).with_policy(policy),
        )
        .unwrap();
        let data: Vec<f64> = (0..rows * cols)
            .map(|i| ((seed as f64 + i as f64) * 0.37).sin() * 0.8)
            .collect();
        let baseline = shadows(&grad.func, &grad, x, loss, &data);
        let opts = CompileOptions {
            spad_entries: (spad_bytes / 8).max(2),
            double_buffer,
            mode: if aos_only {
                CompileMode::AosOnly
            } else {
                CompileMode::Full
            },
            compress_tape: false,
        };
        match compile(&grad, &opts) {
            Err(tapeflow_core::CoreError::RegionTooLarge { .. })
            | Err(tapeflow_core::CoreError::SpadTooSmall { .. }) => {
                // Legitimately infeasible at this scratchpad size.
            }
            Err(e) => panic!("case {case}: compile: {e}"),
            Ok(c) => {
                tapeflow_ir::verify::verify(&c.func).unwrap();
                let got = shadows(&c.func, &grad, x, loss, &data);
                assert_eq!(&baseline, &got, "case {case}: {steps:?}");
            }
        }
    }
}

#[test]
fn stream_stack_lifo_under_random_programs() {
    for case in 0..48u64 {
        let mut r = Rng::new(0x11F0 ^ case);
        let steps = gen_steps(&mut r, 1, 5);
        let cols = 3 + r.below(6) as usize;
        let (func, x, loss) = build_program(&steps, 3, cols);
        let grad = differentiate(&func, &AdOptions::new(vec![x], vec![loss])).unwrap();
        let Ok(c) = compile(&grad, &CompileOptions::with_spad_bytes(128)) else {
            continue; // infeasible at 128 B: nothing to check
        };
        let mut mem = Memory::for_function(&c.func);
        let data: Vec<f64> = (0..3 * cols).map(|i| 0.01 * i as f64).collect();
        mem.set_f64(x, &data);
        mem.set_f64_at(grad.shadow_of(loss).unwrap(), 0, 1.0);
        let trace = trace_function(
            &c.func,
            &mut mem,
            TraceOptions {
                phase_barrier: Some(c.phase_barrier),
            },
        )
        .unwrap();
        let cols = trace.columns();
        let streams = |want: fn(&Op) -> bool| -> Vec<(u64, u32)> {
            (0..trace.len())
                .filter(|&i| want(&c.func.inst(trace.insts()[i]).op))
                .map(|i| (cols.addr()[i], cols.bytes(i)))
                .collect()
        };
        let outs = streams(|op| matches!(op, Op::StreamOut(_)));
        let ins = streams(|op| matches!(op, Op::StreamIn(_)));
        let popped: Vec<_> = outs.iter().rev().copied().collect();
        assert_eq!(popped, ins, "case {case}: {steps:?}");
    }
}
