//! Reference execution of IR functions.
//!
//! A single executor drives both the plain interpreter ([`run`]) and the
//! dynamic-dataflow tracer ([`crate::trace`]): the tracer is just an
//! [`ExecHook`] observing every executed instruction, so functional
//! semantics can never diverge between the two.

use crate::function::{Bound, Function, Stmt, ValueDef};
use crate::ids::{ArrayId, InstId, ValueId};
use crate::memory::Memory;
use crate::ops::Op;
use crate::types::Value;
use std::error::Error;
use std::fmt;
use std::ops::Range;

/// A runtime error raised while executing a function.
#[derive(Clone, Debug, PartialEq)]
pub enum ExecError {
    /// An array access fell outside the array.
    OutOfBounds {
        /// Array name.
        array: String,
        /// Offending element index.
        index: i64,
        /// Array length.
        len: usize,
    },
    /// Integer division or remainder by zero.
    DivByZero {
        /// The instruction that divided.
        inst: InstId,
    },
    /// A value was consumed before any producer ran (unverified function).
    UndefinedValue(ValueId),
    /// A scratchpad access fell outside the allocated scratchpad.
    SpadOutOfRange {
        /// Offending entry index.
        entry: i64,
    },
    /// A stream command had a negative or out-of-range transfer.
    BadStream {
        /// The stream instruction.
        inst: InstId,
    },
    /// A traced dataflow graph has more dependence edges than its
    /// 32-bit CSR offsets can index.
    TraceTooLarge {
        /// How many edges the trace has.
        edges: usize,
        /// The largest edge count the trace can index.
        limit: usize,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::OutOfBounds { array, index, len } => {
                write!(f, "access {array}[{index}] out of bounds (len {len})")
            }
            ExecError::DivByZero { inst } => write!(f, "integer division by zero at {inst}"),
            ExecError::UndefinedValue(v) => write!(f, "value {v} consumed before definition"),
            ExecError::SpadOutOfRange { entry } => {
                write!(f, "scratchpad entry {entry} out of range")
            }
            ExecError::BadStream { inst } => write!(f, "malformed stream transfer at {inst}"),
            ExecError::TraceTooLarge { edges, limit } => write!(
                f,
                "trace too large: {edges} dependence edges exceed the trace's \
                 32-bit index limit of {limit}"
            ),
        }
    }
}

impl Error for ExecError {}

/// The memory effect of one executed instruction, as seen by a hook.
#[derive(Clone, Debug, PartialEq)]
pub enum MemEffect {
    /// Pure compute; no memory touched.
    None,
    /// A DRAM load of 8 bytes at `addr` from `array`.
    Load {
        /// Byte address.
        addr: u64,
        /// Array touched.
        array: ArrayId,
    },
    /// A DRAM store of 8 bytes at `addr` to `array`.
    Store {
        /// Byte address.
        addr: u64,
        /// Array touched.
        array: ArrayId,
    },
    /// A scratchpad read of entry `entry`.
    SpadLoad {
        /// Scratchpad entry index.
        entry: u64,
    },
    /// A scratchpad write of entry `entry`.
    SpadStore {
        /// Scratchpad entry index.
        entry: u64,
    },
    /// A stream transfer between a scratchpad range and a DRAM range.
    Stream {
        /// Scratchpad entries moved.
        spad: Range<u64>,
        /// DRAM byte addresses moved (8 B per element).
        dram_start: u64,
        /// Number of 8 B elements.
        elems: u64,
        /// The tape array streamed.
        array: ArrayId,
        /// Direction: `true` = scratchpad → DRAM (`FWD-Stream`).
        to_dram: bool,
    },
}

/// Observer invoked after every executed instruction.
pub trait ExecHook {
    /// Called once per dynamic instruction, in execution order.
    fn on_inst(&mut self, inst: InstId, func: &Function, effect: &MemEffect);

    /// Called right after an instruction's result value is written,
    /// with the concrete value. Default: ignore.
    #[inline]
    fn on_result(&mut self, _inst: InstId, _result: ValueId, _value: Value) {}

    /// Called for every element written to a DRAM array — plain stores
    /// and stream drains alike. Default: ignore.
    #[inline]
    fn on_array_write(&mut self, _array: ArrayId, _value: Value) {}
}

/// Hook that ignores everything (plain interpretation).
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopHook;

impl ExecHook for NoopHook {
    #[inline]
    fn on_inst(&mut self, _inst: InstId, _func: &Function, _effect: &MemEffect) {}
}

/// Observed min/max of one value or array over a concrete run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Observed {
    /// Observed `i64` min/max.
    pub int: Option<(i64, i64)>,
    /// Observed finite `f64` min/max.
    pub float: Option<(f64, f64)>,
    /// A NaN or ±Inf `f64` was observed.
    pub nonfinite: bool,
    /// A finite `f64` with a fractional part was observed.
    pub fractional: bool,
}

impl Observed {
    fn note(&mut self, v: Value) {
        match v {
            Value::I64(x) => {
                let (lo, hi) = self.int.get_or_insert((x, x));
                *lo = (*lo).min(x);
                *hi = (*hi).max(x);
            }
            Value::F64(x) => {
                if !x.is_finite() {
                    self.nonfinite = true;
                    return;
                }
                if x.fract() != 0.0 {
                    self.fractional = true;
                }
                let (lo, hi) = self.float.get_or_insert((x, x));
                *lo = (*lo).min(x);
                *hi = (*hi).max(x);
            }
        }
    }
}

/// Hook that records every produced value and every array write — the
/// measurement side of the dynamic soundness oracle. Feed the finished
/// recorder to [`crate::vra::check_containment`] to compare against the
/// static [`crate::vra::value_ranges`] result.
#[derive(Clone, Debug)]
pub struct RangeRecorder {
    values: Vec<Observed>,
    arrays: Vec<Observed>,
}

impl RangeRecorder {
    /// Creates a recorder for `func`, folding the *initial* contents of
    /// `mem` into the per-array observations — so a dishonest declared
    /// input range is caught even when the program never loads the
    /// offending element.
    pub fn new(func: &Function, mem: &Memory) -> Self {
        let mut arrays = vec![Observed::default(); func.arrays().len()];
        for (i, obs) in arrays.iter_mut().enumerate() {
            let id = ArrayId::new(i);
            for k in 0..mem.len_of(id) {
                obs.note(mem.load(id, k));
            }
        }
        RangeRecorder {
            values: vec![Observed::default(); func.values().len()],
            arrays,
        }
    }

    /// Per-value observations, indexed by [`ValueId`].
    pub fn values(&self) -> &[Observed] {
        &self.values
    }

    /// Per-array observations, indexed by [`ArrayId`].
    pub fn arrays(&self) -> &[Observed] {
        &self.arrays
    }
}

impl ExecHook for RangeRecorder {
    #[inline]
    fn on_inst(&mut self, _inst: InstId, _func: &Function, _effect: &MemEffect) {}

    #[inline]
    fn on_result(&mut self, _inst: InstId, result: ValueId, value: Value) {
        self.values[result.index()].note(value);
    }

    #[inline]
    fn on_array_write(&mut self, array: ArrayId, value: Value) {
        self.arrays[array.index()].note(value);
    }
}

/// Scratchpad size the executor provides for `func`: up to its highest
/// statically allocated entry.
pub(crate) fn spad_entries(func: &Function) -> usize {
    func.insts()
        .iter()
        .filter_map(|inst| match inst.op {
            Op::SAlloc { size, base } => Some(base as usize + size as usize),
            _ => None,
        })
        .max()
        .unwrap_or(0)
}

struct Executor<'f, 'm, H> {
    func: &'f Function,
    mem: &'m mut Memory,
    vals: Vec<Option<Value>>,
    spad: Vec<u64>,
    hook: H,
    dyn_insts: u64,
}

impl<'f, 'm, H: ExecHook> Executor<'f, 'm, H> {
    fn new(func: &'f Function, mem: &'m mut Memory, hook: H) -> Self {
        let mut vals = vec![None; func.values().len()];
        for (i, v) in func.values().iter().enumerate() {
            if let ValueDef::Const(c) = v.def {
                vals[i] = Some(c.into());
            }
        }
        Executor {
            func,
            mem,
            vals,
            spad: vec![0; spad_entries(func)],
            hook,
            dyn_insts: 0,
        }
    }

    #[inline]
    fn get(&self, v: ValueId) -> Result<Value, ExecError> {
        self.vals[v.index()].ok_or(ExecError::UndefinedValue(v))
    }

    #[inline]
    fn getf(&self, v: ValueId) -> Result<f64, ExecError> {
        Ok(self.get(v)?.expect_f64())
    }

    #[inline]
    fn geti(&self, v: ValueId) -> Result<i64, ExecError> {
        Ok(self.get(v)?.expect_i64())
    }

    fn bound(&self, b: Bound) -> Result<i64, ExecError> {
        match b {
            Bound::Const(c) => Ok(c),
            Bound::Value(v) => self.geti(v),
        }
    }

    fn check_index(&self, array: ArrayId, index: i64) -> Result<usize, ExecError> {
        let len = self.mem.len_of(array);
        if index < 0 || index as usize >= len {
            return Err(ExecError::OutOfBounds {
                array: self.mem.name_of(array).to_string(),
                index,
                len,
            });
        }
        Ok(index as usize)
    }

    fn spad_entry(&self, entry: i64) -> Result<usize, ExecError> {
        if entry < 0 || entry as usize >= self.spad.len() {
            return Err(ExecError::SpadOutOfRange { entry });
        }
        Ok(entry as usize)
    }

    fn exec_stmts(&mut self, stmts: &[Stmt]) -> Result<(), ExecError> {
        for s in stmts {
            match s {
                Stmt::Inst(id) => self.exec_inst(*id)?,
                Stmt::For { loop_id, body } => {
                    let info = self.func.loop_info(*loop_id);
                    let start = self.bound(info.start)?;
                    let end = self.bound(info.end)?;
                    let step = info.step;
                    let iv_slot = info.iv.index();
                    let mut iv = start;
                    while (step > 0 && iv < end) || (step < 0 && iv > end) {
                        self.vals[iv_slot] = Some(Value::I64(iv));
                        self.exec_stmts(body)?;
                        iv += step;
                    }
                }
            }
        }
        Ok(())
    }

    fn exec_inst(&mut self, id: InstId) -> Result<(), ExecError> {
        let inst = self.func.inst(id);
        let a = &inst.args;
        let mut effect = MemEffect::None;
        use Op::*;
        let result: Option<Value> = match inst.op {
            FAdd => Some(Value::F64(self.getf(a[0])? + self.getf(a[1])?)),
            FSub => Some(Value::F64(self.getf(a[0])? - self.getf(a[1])?)),
            FMul => Some(Value::F64(self.getf(a[0])? * self.getf(a[1])?)),
            FDiv => Some(Value::F64(self.getf(a[0])? / self.getf(a[1])?)),
            FMin => Some(Value::F64(self.getf(a[0])?.min(self.getf(a[1])?))),
            FMax => Some(Value::F64(self.getf(a[0])?.max(self.getf(a[1])?))),
            FNeg => Some(Value::F64(-self.getf(a[0])?)),
            FAbs => Some(Value::F64(self.getf(a[0])?.abs())),
            Sqrt => Some(Value::F64(self.getf(a[0])?.sqrt())),
            Sin => Some(Value::F64(self.getf(a[0])?.sin())),
            Cos => Some(Value::F64(self.getf(a[0])?.cos())),
            Exp => Some(Value::F64(self.getf(a[0])?.exp())),
            Ln => Some(Value::F64(self.getf(a[0])?.ln())),
            Tanh => Some(Value::F64(self.getf(a[0])?.tanh())),
            FPow => Some(Value::F64(self.getf(a[0])?.powf(self.getf(a[1])?))),
            FCmp(k) => Some(Value::I64(k.eval(self.getf(a[0])?, self.getf(a[1])?) as i64)),
            Select => {
                let c = self.geti(a[0])?;
                Some(if c != 0 {
                    self.get(a[1])?
                } else {
                    self.get(a[2])?
                })
            }
            IAdd => Some(Value::I64(self.geti(a[0])?.wrapping_add(self.geti(a[1])?))),
            ISub => Some(Value::I64(self.geti(a[0])?.wrapping_sub(self.geti(a[1])?))),
            IMul => Some(Value::I64(self.geti(a[0])?.wrapping_mul(self.geti(a[1])?))),
            IDiv => {
                let d = self.geti(a[1])?;
                if d == 0 {
                    return Err(ExecError::DivByZero { inst: id });
                }
                Some(Value::I64(self.geti(a[0])?.wrapping_div(d)))
            }
            IRem => {
                let d = self.geti(a[1])?;
                if d == 0 {
                    return Err(ExecError::DivByZero { inst: id });
                }
                Some(Value::I64(self.geti(a[0])?.wrapping_rem(d)))
            }
            IMin => Some(Value::I64(self.geti(a[0])?.min(self.geti(a[1])?))),
            IMax => Some(Value::I64(self.geti(a[0])?.max(self.geti(a[1])?))),
            ICmp(k) => Some(Value::I64(k.eval(self.geti(a[0])?, self.geti(a[1])?) as i64)),
            IToF => Some(Value::F64(self.geti(a[0])? as f64)),
            FToI => Some(Value::I64(self.getf(a[0])?.round() as i64)),
            Load(arr) => {
                let idx = self.check_index(arr, self.geti(a[0])?)?;
                effect = MemEffect::Load {
                    addr: self.mem.addr_of(arr, idx),
                    array: arr,
                };
                Some(self.mem.load(arr, idx))
            }
            Store(arr) => {
                let idx = self.check_index(arr, self.geti(a[0])?)?;
                let v = self.get(a[1])?;
                effect = MemEffect::Store {
                    addr: self.mem.addr_of(arr, idx),
                    array: arr,
                };
                self.mem.store(arr, idx, v);
                self.hook.on_array_write(arr, v);
                None
            }
            SAlloc { base, .. } => Some(Value::I64(base as i64)),
            SpadLoad => {
                let e = self.spad_entry(self.geti(a[0])?)?;
                effect = MemEffect::SpadLoad { entry: e as u64 };
                Some(Value::F64(f64::from_bits(self.spad[e])))
            }
            SpadStore | TapeStore { .. } => {
                let e = self.spad_entry(self.geti(a[0])?)?;
                let v = self.getf(a[1])?;
                effect = MemEffect::SpadStore { entry: e as u64 };
                self.spad[e] = v.to_bits();
                None
            }
            TapeLoad { array, rsize, off } => {
                let lin = self.geti(a[0])?;
                let idx = self.check_index(
                    array,
                    lin.wrapping_mul(rsize as i64).wrapping_add(off as i64),
                )?;
                effect = MemEffect::Load {
                    addr: self.mem.addr_of(array, idx),
                    array,
                };
                Some(self.mem.load(array, idx))
            }
            StreamOut(arr)
            | StreamIn(arr)
            | StreamOutC { array: arr, .. }
            | StreamInC { array: arr, .. } => {
                let to_dram = matches!(inst.op, StreamOut(_) | StreamOutC { .. });
                let sbase = self.geti(a[0])?;
                let dbase = self.geti(a[1])?;
                let elems = self.geti(a[2])?;
                if elems < 0 || sbase < 0 || dbase < 0 {
                    return Err(ExecError::BadStream { inst: id });
                }
                let elems = elems as u64;
                if elems > 0 {
                    self.spad_entry(sbase)?;
                    self.spad_entry(sbase + elems as i64 - 1)?;
                    self.check_index(arr, dbase)?;
                    self.check_index(arr, dbase + elems as i64 - 1)?;
                    for k in 0..elems as usize {
                        let s = sbase as usize + k;
                        let d = dbase as usize + k;
                        if to_dram {
                            let v = Value::F64(f64::from_bits(self.spad[s]));
                            self.mem.store(arr, d, v);
                            self.hook.on_array_write(arr, v);
                        } else {
                            self.spad[s] = self.mem.load(arr, d).to_bits();
                        }
                    }
                }
                effect = MemEffect::Stream {
                    spad: sbase as u64..sbase as u64 + elems,
                    dram_start: if self.mem.len_of(arr) > 0 && elems > 0 {
                        self.mem.addr_of(arr, dbase as usize)
                    } else {
                        0
                    },
                    elems,
                    array: arr,
                    to_dram,
                };
                None
            }
            Barrier => None,
        };
        if let (Some(rv), Some(rid)) = (result, inst.result) {
            self.vals[rid.index()] = Some(rv);
            self.hook.on_result(id, rid, rv);
        }
        self.dyn_insts += 1;
        self.hook.on_inst(id, self.func, &effect);
        Ok(())
    }
}

/// Executes `func` against `mem`, reporting every dynamic instruction to
/// `hook`. Returns the hook and the dynamic instruction count.
///
/// # Errors
///
/// Returns an [`ExecError`] on out-of-bounds accesses, zero divisions,
/// malformed streams, or use of undefined values.
pub fn execute<H: ExecHook>(
    func: &Function,
    mem: &mut Memory,
    hook: H,
) -> Result<(H, u64), ExecError> {
    let mut ex = Executor::new(func, mem, hook);
    ex.exec_stmts(&func.body)?;
    Ok((ex.hook, ex.dyn_insts))
}

/// Interprets `func` against `mem` (no observation).
///
/// Returns the number of dynamic instructions executed.
///
/// # Errors
///
/// See [`execute`].
pub fn run(func: &Function, mem: &mut Memory) -> Result<u64, ExecError> {
    execute(func, mem, NoopHook).map(|(_, n)| n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::function::ArrayKind;
    use crate::types::Scalar;

    #[test]
    fn saxpy_matches_reference() {
        let n = 16usize;
        let mut b = FunctionBuilder::new("saxpy");
        let x = b.array("x", n, ArrayKind::Input, Scalar::F64);
        let y = b.array("y", n, ArrayKind::InOut, Scalar::F64);
        let a = b.f64(3.0);
        b.for_loop("i", 0, n as i64, |b, i| {
            let xi = b.load(x, i);
            let yi = b.load(y, i);
            let t = b.fmul(a, xi);
            let s = b.fadd(t, yi);
            b.store(y, i, s);
        });
        let f = b.finish();
        crate::verify::verify(&f).unwrap();
        let mut mem = Memory::for_function(&f);
        let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let ys: Vec<f64> = (0..n).map(|i| 2.0 * i as f64).collect();
        mem.set_f64(x, &xs);
        mem.set_f64(y, &ys);
        run(&f, &mut mem).unwrap();
        let out = mem.get_f64(y);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, 3.0 * i as f64 + 2.0 * i as f64);
        }
    }

    #[test]
    fn accumulator_cell() {
        let mut b = FunctionBuilder::new("sum");
        let x = b.array("x", 8, ArrayKind::Input, Scalar::F64);
        let acc = b.cell_f64("acc", 0.0);
        b.for_loop("i", 0, 8, |b, i| {
            let xi = b.load(x, i);
            let cur = b.load_cell(acc);
            let s = b.fadd(cur, xi);
            b.store_cell(acc, s);
        });
        let f = b.finish();
        let mut mem = Memory::for_function(&f);
        mem.set_f64(x, &[1.0; 8]);
        run(&f, &mut mem).unwrap();
        assert_eq!(mem.get_f64_at(acc, 0), 8.0);
    }

    #[test]
    fn reversed_loop() {
        let mut b = FunctionBuilder::new("rev");
        let y = b.array("y", 4, ArrayKind::Output, Scalar::F64);
        let c = b.cell_f64("c", 0.0);
        b.for_loop_step("i", 3i64, -1i64, -1, |b, i| {
            let cur = b.load_cell(c);
            let one = b.f64(1.0);
            let nxt = b.fadd(cur, one);
            b.store_cell(c, nxt);
            b.store(y, i, nxt);
        });
        let f = b.finish();
        let mut mem = Memory::for_function(&f);
        run(&f, &mut mem).unwrap();
        // Iteration order 3,2,1,0 with a running count.
        assert_eq!(mem.get_f64(y), vec![4.0, 3.0, 2.0, 1.0]);
    }

    #[test]
    fn out_of_bounds_reported() {
        let mut b = FunctionBuilder::new("oob");
        let x = b.array("x", 2, ArrayKind::Input, Scalar::F64);
        let i = b.i64(5);
        let _ = b.load(x, i);
        let f = b.finish();
        let mut mem = Memory::for_function(&f);
        let err = run(&f, &mut mem).unwrap_err();
        assert!(matches!(
            err,
            ExecError::OutOfBounds {
                index: 5,
                len: 2,
                ..
            }
        ));
    }

    #[test]
    fn div_by_zero_reported() {
        let mut b = FunctionBuilder::new("dz");
        let one = b.i64(1);
        let zero = b.i64(0);
        let _ = b.idiv(one, zero);
        let f = b.finish();
        let mut mem = Memory::for_function(&f);
        assert!(matches!(
            run(&f, &mut mem),
            Err(ExecError::DivByZero { .. })
        ));
    }

    #[test]
    fn spad_and_streams_roundtrip() {
        use crate::function::Stmt;
        use crate::ops::Op;
        // Store 1.5 and 2.5 to spad, stream out to tape, stream back in to
        // the other buffer and load.
        let mut f = crate::Function::new("spad");
        let tape = f.add_array("T", 4, ArrayKind::Tape, Scalar::F64);
        let out = f.add_array("o", 2, ArrayKind::Output, Scalar::F64);
        let mut sched = Vec::new();
        let (al0, base0) = f.add_inst(Op::SAlloc { size: 2, base: 0 }, vec![]);
        sched.push(Stmt::Inst(al0));
        let base0 = base0.unwrap();
        let c0 = f.add_const(crate::Const::I64(0));
        let c1 = f.add_const(crate::Const::I64(1));
        let c2 = f.add_const(crate::Const::I64(2));
        let v15 = f.add_const(crate::Const::F64(1.5));
        let v25 = f.add_const(crate::Const::F64(2.5));
        let (e0, _) = f.add_inst(Op::IAdd, vec![base0, c0]);
        sched.push(Stmt::Inst(e0));
        let e0v = f.inst(e0).result.unwrap();
        let (s0, _) = f.add_inst(Op::SpadStore, vec![e0v, v15]);
        sched.push(Stmt::Inst(s0));
        let (e1, _) = f.add_inst(Op::IAdd, vec![base0, c1]);
        sched.push(Stmt::Inst(e1));
        let e1v = f.inst(e1).result.unwrap();
        let (s1, _) = f.add_inst(Op::SpadStore, vec![e1v, v25]);
        sched.push(Stmt::Inst(s1));
        let (so, _) = f.add_inst(Op::StreamOut(tape), vec![base0, c0, c2]);
        sched.push(Stmt::Inst(so));
        let (al1, base1) = f.add_inst(Op::SAlloc { size: 2, base: 2 }, vec![]);
        sched.push(Stmt::Inst(al1));
        let base1 = base1.unwrap();
        let (si, _) = f.add_inst(Op::StreamIn(tape), vec![base1, c0, c2]);
        sched.push(Stmt::Inst(si));
        let (l0, r0) = f.add_inst(Op::SpadLoad, vec![base1]);
        sched.push(Stmt::Inst(l0));
        let (e3, _) = f.add_inst(Op::IAdd, vec![base1, c1]);
        sched.push(Stmt::Inst(e3));
        let e3v = f.inst(e3).result.unwrap();
        let (l1, r1) = f.add_inst(Op::SpadLoad, vec![e3v]);
        sched.push(Stmt::Inst(l1));
        let (w0, _) = f.add_inst(Op::Store(out), vec![c0, r0.unwrap()]);
        sched.push(Stmt::Inst(w0));
        let (w1, _) = f.add_inst(Op::Store(out), vec![c1, r1.unwrap()]);
        sched.push(Stmt::Inst(w1));
        f.body = sched;
        crate::verify::verify(&f).unwrap();
        let mut mem = Memory::for_function(&f);
        run(&f, &mut mem).unwrap();
        assert_eq!(mem.get_f64(out), vec![1.5, 2.5]);
        assert_eq!(mem.get_f64(tape)[..2], [1.5, 2.5]);
    }

    #[test]
    fn streamed_tape_form_executes() {
        use crate::function::Stmt;
        use crate::ops::Op;
        // tape.store writes the scratchpad, stream.outc drains it to DRAM,
        // tape.load reads the drained element straight from DRAM.
        let mut f = crate::Function::new("st");
        let tape = f.add_array("R0", 4, ArrayKind::Tape, Scalar::F64);
        let out = f.add_array("o", 2, ArrayKind::Output, Scalar::F64);
        let mut sched = Vec::new();
        let (al, base) = f.add_inst(Op::SAlloc { size: 2, base: 0 }, vec![]);
        sched.push(Stmt::Inst(al));
        let base = base.unwrap();
        let c0 = f.add_const(crate::Const::I64(0));
        let c1 = f.add_const(crate::Const::I64(1));
        let c2 = f.add_const(crate::Const::I64(2));
        let v15 = f.add_const(crate::Const::F64(1.5));
        let v25 = f.add_const(crate::Const::F64(2.5));
        let (e1, _) = f.add_inst(Op::IAdd, vec![base, c1]);
        sched.push(Stmt::Inst(e1));
        let e1v = f.inst(e1).result.unwrap();
        let (s0, _) = f.add_inst(
            Op::TapeStore {
                array: tape,
                off: 0,
            },
            vec![base, v15],
        );
        sched.push(Stmt::Inst(s0));
        let (s1, _) = f.add_inst(
            Op::TapeStore {
                array: tape,
                off: 1,
            },
            vec![e1v, v25],
        );
        sched.push(Stmt::Inst(s1));
        let (so, _) = f.add_inst(
            Op::StreamOutC {
                array: tape,
                struct_elems: 2,
                struct_bytes: 10,
            },
            vec![base, c0, c2],
        );
        sched.push(Stmt::Inst(so));
        let (l0, r0) = f.add_inst(
            Op::TapeLoad {
                array: tape,
                rsize: 2,
                off: 0,
            },
            vec![c0, base],
        );
        sched.push(Stmt::Inst(l0));
        let (l1, r1) = f.add_inst(
            Op::TapeLoad {
                array: tape,
                rsize: 2,
                off: 1,
            },
            vec![c0, e1v],
        );
        sched.push(Stmt::Inst(l1));
        let (w0, _) = f.add_inst(Op::Store(out), vec![c0, r0.unwrap()]);
        sched.push(Stmt::Inst(w0));
        let (w1, _) = f.add_inst(Op::Store(out), vec![c1, r1.unwrap()]);
        sched.push(Stmt::Inst(w1));
        f.body = sched;
        crate::verify::verify(&f).unwrap();
        let mut mem = Memory::for_function(&f);
        run(&f, &mut mem).unwrap();
        assert_eq!(mem.get_f64(out), vec![1.5, 2.5]);
        assert_eq!(mem.get_f64(tape)[..2], [1.5, 2.5]);
    }
}
