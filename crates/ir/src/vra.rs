//! Whole-program value-range analysis (VRA).
//!
//! This is the one integer range domain: [`crate::lint`] reads its `i64`
//! ranges for the index rules and the `tape-compress` pass reads them to
//! narrow tape slots. It is an **array-content abstract interpretation**
//! of the whole function: every array carries a content domain seeded
//! from its declared [`crate::DeclRange`] (inputs), its zero-initialization
//! ([`crate::Memory::for_function`] zero-fills `Temp` and `Tape` arrays),
//! or ⊤ (externally writable kinds), and the domains are updated by
//! `store` / `stream.out` and consulted by `load` / `tape.load` — so values
//! that round-trip through the gradient tape (store → tape → load) stay
//! bounded.
//!
//! Two precision layers:
//!
//! 1. **Bounded unrolling.** Loops with static trip counts are executed
//!    abstractly iteration by iteration (induction variables are points)
//!    while a global evaluation budget lasts. This is what makes
//!    accumulation and DP recurrences (`acc = acc + x`) converge to
//!    their true hull — a joining fixpoint alone has no finite solution
//!    for them.
//! 2. **Join mode with widening-to-thresholds.** Loops that do not fit
//!    the budget (or have runtime bounds) run with the induction
//!    variable as its hull, re-executing the body until the memory
//!    domains stabilize; after a few rounds, still-growing bounds are
//!    widened to the next threshold, and finally to ⊤, guaranteeing
//!    termination.
//!
//! The float domain tracks **finiteness** (a `Some` range means "provably
//! finite, in `[lo, hi]`") and **quantization** (`quantized` means every
//! value is an exact integer — the property that lets the tape-compress
//! pass narrow an 8-byte float slot to an integer wire format without
//! changing a single gradient bit). Ops that provably produce NaN/Inf
//! surface as `float-nonfinite` diagnostics.
//!
//! The analysis is *checked* rather than trusted: the dynamic soundness
//! oracle ([`crate::interp::RangeRecorder`] + [`check_containment`])
//! replays a program under the recording interpreter and fails hard on
//! any observed value that escapes its static range.

use crate::function::{ArrayKind, Bound, DeclRange, Function, Stmt};
use crate::ids::{ArrayId, InstId, LoopId};
use crate::interp::RangeRecorder;
use crate::lint::{Diagnostic, Severity, Span};
use crate::ops::Op;
use crate::types::{Const, Scalar};
use crate::ValueDef;
use std::collections::HashMap;

/// Exact-integer cutoff: every `f64` with magnitude below this is exact
/// integer arithmetic territory.
const EXACT: f64 = 9_007_199_254_740_992.0; // 2^53

/// `exp` overflows to `Inf` above this.
const EXP_OVERFLOW: f64 = 709.782712893384;

// ---------------------------------------------------------------------------
// Domains
// ---------------------------------------------------------------------------

/// A provably finite `f64` range. `None` at use sites means "may be
/// anything, including NaN/Inf".
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FloatRange {
    /// Inclusive lower bound (finite).
    pub lo: f64,
    /// Inclusive upper bound (finite).
    pub hi: f64,
    /// Every value in the set is an exact integer.
    pub quantized: bool,
}

impl FloatRange {
    fn point(v: f64) -> Option<FloatRange> {
        v.is_finite().then_some(FloatRange {
            lo: v,
            hi: v,
            quantized: v.fract() == 0.0,
        })
    }

    fn join(self, o: FloatRange) -> FloatRange {
        FloatRange {
            lo: self.lo.min(o.lo),
            hi: self.hi.max(o.hi),
            quantized: self.quantized && o.quantized,
        }
    }

    /// True when `o` adds nothing (used for fixpoint detection).
    fn contains(&self, o: &FloatRange) -> bool {
        self.lo <= o.lo && self.hi >= o.hi && (self.quantized == o.quantized || !self.quantized)
    }
}

fn join_f(a: Option<FloatRange>, b: Option<FloatRange>) -> Option<FloatRange> {
    Some(a?.join(b?))
}

/// An inclusive `i64` range. All transfer functions use *checked*
/// arithmetic and fall to ⊤ (`None`) on overflow, which is sound against
/// the interpreter's wrapping semantics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IntRange {
    /// Inclusive lower bound.
    pub lo: i64,
    /// Inclusive upper bound.
    pub hi: i64,
}

impl IntRange {
    pub(crate) fn point(v: i64) -> IntRange {
        IntRange { lo: v, hi: v }
    }

    fn join(self, o: IntRange) -> IntRange {
        IntRange {
            lo: self.lo.min(o.lo),
            hi: self.hi.max(o.hi),
        }
    }

    fn contains(&self, o: &IntRange) -> bool {
        self.lo <= o.lo && self.hi >= o.hi
    }

    pub(crate) fn add(self, o: IntRange) -> Option<IntRange> {
        Some(IntRange {
            lo: self.lo.checked_add(o.lo)?,
            hi: self.hi.checked_add(o.hi)?,
        })
    }

    fn sub(self, o: IntRange) -> Option<IntRange> {
        Some(IntRange {
            lo: self.lo.checked_sub(o.hi)?,
            hi: self.hi.checked_sub(o.lo)?,
        })
    }

    fn corners(self, o: IntRange, f: impl Fn(i64, i64) -> Option<i64>) -> Option<IntRange> {
        let cs = [
            f(self.lo, o.lo)?,
            f(self.lo, o.hi)?,
            f(self.hi, o.lo)?,
            f(self.hi, o.hi)?,
        ];
        Some(IntRange {
            lo: cs.iter().copied().min().unwrap(),
            hi: cs.iter().copied().max().unwrap(),
        })
    }

    pub(crate) fn mul(self, o: IntRange) -> Option<IntRange> {
        self.corners(o, i64::checked_mul)
    }

    /// Truncated division; defined only when the divisor excludes zero.
    fn div(self, o: IntRange) -> Option<IntRange> {
        if o.lo > 0 || o.hi < 0 {
            self.corners(o, i64::checked_div)
        } else {
            None
        }
    }

    /// Remainder with a divisor range that excludes zero.
    fn rem(self, o: IntRange) -> Option<IntRange> {
        if o.lo <= 0 && o.hi >= 0 {
            return None;
        }
        let mag = o.lo.unsigned_abs().max(o.hi.unsigned_abs());
        let m = i64::try_from(mag).ok()?.checked_sub(1)?;
        if self.lo >= 0 {
            Some(IntRange {
                lo: 0,
                hi: self.hi.min(m),
            })
        } else {
            Some(IntRange { lo: -m, hi: m })
        }
    }

    fn min(self, o: IntRange) -> IntRange {
        IntRange {
            lo: self.lo.min(o.lo),
            hi: self.hi.min(o.hi),
        }
    }

    fn max(self, o: IntRange) -> IntRange {
        IntRange {
            lo: self.lo.max(o.lo),
            hi: self.hi.max(o.hi),
        }
    }
}

fn join_i(a: Option<IntRange>, b: Option<IntRange>) -> Option<IntRange> {
    Some(a?.join(b?))
}

/// Content range of one array, in the array's element type. `None`
/// payloads mean unbounded (for floats: possibly NaN/Inf).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ContentRange {
    /// Content of an `i64` array.
    Int(Option<IntRange>),
    /// Content of an `f64` array.
    Float(Option<FloatRange>),
}

// ---------------------------------------------------------------------------
// Outward rounding
// ---------------------------------------------------------------------------

fn next_up(x: f64) -> f64 {
    if x.is_nan() || x == f64::INFINITY {
        return x;
    }
    if x == 0.0 {
        return f64::from_bits(1);
    }
    let bits = x.to_bits();
    f64::from_bits(if x > 0.0 { bits + 1 } else { bits - 1 })
}

fn next_down(x: f64) -> f64 {
    -next_up(-x)
}

/// Widens `[lo, hi]` outward by two ulps per side to absorb the
/// round-to-nearest error of endpoint arithmetic. Returns `None` when a
/// bound has escaped to ±Inf.
fn outward(lo: f64, hi: f64, quantized: bool) -> Option<FloatRange> {
    let (lo, hi) = (next_down(next_down(lo)), next_up(next_up(hi)));
    (lo.is_finite() && hi.is_finite()).then_some(FloatRange { lo, hi, quantized })
}

/// Endpoint arithmetic for a binary float op: exact when both operands
/// are quantized and the result endpoints stay below 2^53, outward-
/// rounded otherwise. Integer-valued operands keep the result integer-
/// valued for `+ - *` (every representable `f64` ≥ 2^53 is an integer).
fn f_binary(
    a: FloatRange,
    b: FloatRange,
    f: impl Fn(f64, f64) -> f64,
    preserves_quant: bool,
) -> Option<FloatRange> {
    let cs = [f(a.lo, b.lo), f(a.lo, b.hi), f(a.hi, b.lo), f(a.hi, b.hi)];
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for c in cs {
        if c.is_nan() {
            return None;
        }
        lo = lo.min(c);
        hi = hi.max(c);
    }
    if !lo.is_finite() || !hi.is_finite() {
        return None;
    }
    let quantized = preserves_quant && a.quantized && b.quantized;
    if quantized && lo.abs() < EXACT && hi.abs() < EXACT {
        // Exact integer endpoint arithmetic: no rounding to absorb.
        return Some(FloatRange { lo, hi, quantized });
    }
    outward(lo, hi, quantized)
}

// ---------------------------------------------------------------------------
// Widening thresholds
// ---------------------------------------------------------------------------

const INT_THRESHOLDS: &[i64] = &[0, 1, 9, 15, 255, 1023, 65_535, 1 << 20, i32::MAX as i64];
const FLOAT_THRESHOLDS: &[f64] = &[0.0, 1.0, 9.0, 255.0, 65_535.0, 1e6, 1e12, 1e100];

/// Widens a grown bound to the next threshold; `None` when the value is
/// past the last threshold (the caller then falls to ⊤).
fn threshold_up_i(v: i64) -> Option<i64> {
    INT_THRESHOLDS.iter().copied().find(|&t| t >= v)
}

fn threshold_up_f(v: f64) -> Option<f64> {
    FLOAT_THRESHOLDS.iter().copied().find(|&t| t >= v)
}

fn widen_int(prev: IntRange, next: IntRange) -> Option<IntRange> {
    let lo = if next.lo < prev.lo {
        threshold_up_i(-next.lo).map(|t| -t)?
    } else {
        prev.lo
    };
    let hi = if next.hi > prev.hi {
        threshold_up_i(next.hi)?
    } else {
        prev.hi
    };
    Some(IntRange { lo, hi })
}

fn widen_float(prev: FloatRange, next: FloatRange) -> Option<FloatRange> {
    let lo = if next.lo < prev.lo {
        threshold_up_f(-next.lo).map(|t| -t)?
    } else {
        prev.lo
    };
    let hi = if next.hi > prev.hi {
        threshold_up_f(next.hi)?
    } else {
        prev.hi
    };
    Some(FloatRange {
        lo,
        hi,
        // Widening loosens bounds, not values: integers stay integers.
        quantized: prev.quantized && next.quantized,
    })
}

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

/// Tuning knobs for the analysis. Defaults are sized so the nine paper
/// benchmarks unroll fully at `Tiny` scale while keeping the pass well
/// under a second.
#[derive(Clone, Copy, Debug)]
pub struct VraConfig {
    /// Global abstract-evaluation budget; loops whose full unrolling
    /// does not fit the remaining budget run in join mode instead.
    pub eval_budget: u64,
    /// Join-mode rounds before widening kicks in.
    pub widen_after: u32,
    /// Hard cap on join-mode rounds; still-growing domains go to ⊤.
    pub max_rounds: u32,
}

impl Default for VraConfig {
    fn default() -> Self {
        VraConfig {
            eval_budget: 2_000_000,
            widen_after: 2,
            max_rounds: 8,
        }
    }
}

/// The analysis result: proven ranges for every SSA value and every
/// array's contents, plus `float-nonfinite` diagnostics.
///
/// Indexed by [`crate::ValueId`] / [`ArrayId`]. A `None` entry means the
/// analysis could not bound the value (or, for values inside never-
/// executed loops, never saw it) — consumers must treat it as ⊤.
#[derive(Clone, Debug)]
pub struct ValueRanges {
    /// Per-value `i64` range (`None` for `f64` values and ⊤).
    pub ints: Vec<Option<IntRange>>,
    /// Per-value finite `f64` range (`None` for `i64` values and ⊤).
    pub floats: Vec<Option<FloatRange>>,
    /// Per-array content range over the whole execution.
    pub contents: Vec<ContentRange>,
    /// `float-nonfinite` findings: ops that provably produce NaN/Inf.
    pub diagnostics: Vec<Diagnostic>,
}

impl ValueRanges {
    /// Counts `(bounded, unbounded)` over the `i64` values of `func`.
    pub fn int_census(&self, func: &Function) -> (usize, usize) {
        census(func, Scalar::I64, |i| self.ints[i].is_some())
    }

    /// Counts `(bounded, unbounded)` over the `f64` values of `func`.
    pub fn float_census(&self, func: &Function) -> (usize, usize) {
        census(func, Scalar::F64, |i| self.floats[i].is_some())
    }
}

fn census(func: &Function, ty: Scalar, bounded: impl Fn(usize) -> bool) -> (usize, usize) {
    let mut b = 0;
    let mut u = 0;
    for (i, v) in func.values().iter().enumerate() {
        if v.ty == ty {
            if bounded(i) {
                b += 1;
            } else {
                u += 1;
            }
        }
    }
    (b, u)
}

/// Runs the analysis with default tuning. See [`value_ranges_with`].
pub fn value_ranges(func: &Function) -> ValueRanges {
    value_ranges_with(func, &VraConfig::default())
}

/// Runs the whole-program value-range analysis over `func`.
///
/// The function must pass [`crate::verify::verify`]. The result is
/// deterministic for a given `(func, cfg)` pair.
pub fn value_ranges_with(func: &Function, cfg: &VraConfig) -> ValueRanges {
    let mut eng = Engine::new(func, *cfg);
    eng.exec_block(&func.body);
    eng.finish()
}

// ---------------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------------

/// Join accumulator: ⊥ (never evaluated) → range → ⊤.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Acc<T> {
    Bot,
    Range(T),
    Top,
}

impl<T: Copy> Acc<T> {
    fn join(&mut self, v: Option<T>, j: impl Fn(T, T) -> T) {
        *self = match (*self, v) {
            (Acc::Top, _) | (_, None) => Acc::Top,
            (Acc::Bot, Some(r)) => Acc::Range(r),
            (Acc::Range(a), Some(b)) => Acc::Range(j(a, b)),
        };
    }

    fn export(self) -> Option<T> {
        match self {
            Acc::Range(r) => Some(r),
            _ => None,
        }
    }
}

#[derive(Clone, PartialEq)]
enum Content {
    Int(Option<IntRange>),
    Float(Option<FloatRange>),
}

struct Engine<'f> {
    func: &'f Function,
    cfg: VraConfig,
    /// Current environment (per evaluation of an instruction).
    int: Vec<Option<IntRange>>,
    float: Vec<Option<FloatRange>>,
    /// Join over every evaluation — the exported per-value ranges.
    acc_int: Vec<Acc<IntRange>>,
    acc_float: Vec<Acc<FloatRange>>,
    /// Monotone per-array content domains.
    content: Vec<Content>,
    /// Monotone scratchpad content domain (spad entries are zero-
    /// initialized `f64` bit patterns).
    spad: Option<FloatRange>,
    /// Remaining abstract-evaluation budget.
    budget: u64,
    /// Full-unroll cost per loop (`None`: runtime bounds somewhere).
    loop_cost: HashMap<LoopId, Option<u64>>,
    /// Deduplicated `float-nonfinite` findings.
    nonfinite: HashMap<usize, Diagnostic>,
}

impl<'f> Engine<'f> {
    fn new(func: &'f Function, cfg: VraConfig) -> Self {
        let nv = func.values().len();
        let mut int = vec![None; nv];
        let mut float = vec![None; nv];
        for (i, v) in func.values().iter().enumerate() {
            match v.def {
                ValueDef::Const(Const::I64(c)) => int[i] = Some(IntRange::point(c)),
                ValueDef::Const(Const::F64(c)) => float[i] = FloatRange::point(c),
                _ => {}
            }
        }
        let content = func.arrays().iter().map(seed_content).collect();
        let mut loop_cost = HashMap::new();
        block_cost(func, &func.body, &mut loop_cost);
        Engine {
            func,
            cfg,
            int,
            float,
            acc_int: vec![Acc::Bot; nv],
            acc_float: vec![Acc::Bot; nv],
            content,
            spad: Some(FloatRange {
                lo: 0.0,
                hi: 0.0,
                quantized: true,
            }),
            budget: cfg.eval_budget,
            loop_cost,
            nonfinite: HashMap::new(),
        }
    }

    fn finish(mut self) -> ValueRanges {
        // Constants never flow through `eval`, so export them directly.
        for (i, v) in self.func.values().iter().enumerate() {
            match v.def {
                ValueDef::Const(Const::I64(_)) | ValueDef::Const(Const::F64(_)) => {
                    self.acc_int[i].join(self.int[i], IntRange::join);
                    self.acc_float[i].join(self.float[i], FloatRange::join);
                    // A non-finite f64 constant is ⊤, not ⊥.
                    if v.ty == Scalar::F64 && self.float[i].is_none() {
                        self.acc_float[i] = Acc::Top;
                    }
                }
                _ => {}
            }
        }
        let mut diagnostics: Vec<Diagnostic> = self.nonfinite.into_values().collect();
        crate::lint::sort_diagnostics(&mut diagnostics);
        ValueRanges {
            ints: self.acc_int.into_iter().map(Acc::export).collect(),
            floats: self.acc_float.into_iter().map(Acc::export).collect(),
            contents: self
                .content
                .into_iter()
                .map(|c| match c {
                    Content::Int(r) => ContentRange::Int(r),
                    Content::Float(r) => ContentRange::Float(r),
                })
                .collect(),
            diagnostics,
        }
    }

    fn bound_range(&self, b: Bound) -> Option<IntRange> {
        match b {
            Bound::Const(c) => Some(IntRange::point(c)),
            Bound::Value(v) => self.int[v.index()],
        }
    }

    fn exec_block(&mut self, stmts: &[Stmt]) {
        for s in stmts {
            match s {
                Stmt::Inst(id) => self.eval(*id),
                Stmt::For { loop_id, body } => self.exec_loop(*loop_id, body),
            }
        }
    }

    fn exec_loop(&mut self, loop_id: LoopId, body: &[Stmt]) {
        let info = self.func.loop_info(loop_id);
        let (start, end, step) = (
            self.bound_range(info.start),
            self.bound_range(info.end),
            info.step,
        );
        // Unroll when the trip count is a known constant and the full
        // expansion fits the remaining budget.
        let const_trips = match (start, end) {
            (Some(s), Some(e)) if s.lo == s.hi && e.lo == e.hi => {
                Some((s.lo, crate::function::trip_count(s.lo, e.lo, step)))
            }
            _ => None,
        };
        if let Some((s0, trips)) = const_trips {
            let cost = self
                .loop_cost
                .get(&loop_id)
                .copied()
                .flatten()
                .or_else(|| per_iter_cost(self.func, body).map(|c| c.saturating_mul(trips)));
            if let Some(c) = cost {
                if c <= self.budget {
                    self.budget -= c;
                    let iv = info.iv.index();
                    for k in 0..trips {
                        self.int[iv] = Some(IntRange::point(s0 + k as i64 * step));
                        self.acc_int[iv].join(self.int[iv], IntRange::join);
                        self.exec_block(body);
                    }
                    return;
                }
            }
        }
        // Join mode: iv gets its hull, the body re-executes until the
        // memory domains stabilize, widening after a few rounds.
        let hull = match (start, end) {
            (Some(s), Some(e)) if step > 0 => Some(IntRange {
                lo: s.lo,
                hi: e.hi.saturating_sub(1).max(s.lo),
            }),
            (Some(s), Some(e)) => Some(IntRange {
                lo: e.lo.saturating_add(1).min(s.hi),
                hi: s.hi,
            }),
            _ => None,
        };
        let iv = info.iv.index();
        self.int[iv] = hull;
        self.acc_int[iv].join(hull, IntRange::join);
        for round in 0..self.cfg.max_rounds {
            let before = (self.content.clone(), self.spad);
            self.exec_block(body);
            if self.content == before.0 && self.spad == before.1 {
                return;
            }
            if round + 1 >= self.cfg.widen_after {
                self.widen_memory(&before.0, before.1);
            }
        }
        // Still growing at the cap: force the moving domains to ⊤ and do
        // one final pass so downstream values see the stable state.
        let before = (self.content.clone(), self.spad);
        self.exec_block(body);
        for (c, b) in self.content.iter_mut().zip(&before.0) {
            if c != b {
                *c = match c {
                    Content::Int(_) => Content::Int(None),
                    Content::Float(_) => Content::Float(None),
                };
            }
        }
        if self.spad != before.1 {
            self.spad = None;
        }
        self.exec_block(body);
    }

    /// Threshold-widens every content domain that grew since `prev`.
    fn widen_memory(&mut self, prev: &[Content], prev_spad: Option<FloatRange>) {
        for (c, p) in self.content.iter_mut().zip(prev) {
            match (&mut *c, p) {
                (Content::Int(Some(n)), Content::Int(Some(b))) if !b.contains(n) => {
                    *c = Content::Int(widen_int(*b, *n));
                }
                (Content::Float(Some(n)), Content::Float(Some(b))) if !b.contains(n) => {
                    *c = Content::Float(widen_float(*b, *n));
                }
                _ => {}
            }
        }
        if let (Some(n), Some(b)) = (self.spad, prev_spad) {
            if !b.contains(&n) {
                self.spad = widen_float(b, n);
            }
        }
    }

    fn flag_nonfinite(&mut self, id: InstId, what: &str) {
        self.nonfinite.entry(id.index()).or_insert(Diagnostic {
            rule: "float-nonfinite",
            severity: Severity::Error,
            span: Span::at_inst(id),
            message: format!("{} — the result is provably non-finite", what),
        });
    }

    fn store_content(&mut self, arr: ArrayId, int: Option<IntRange>, float: Option<FloatRange>) {
        match &mut self.content[arr.index()] {
            Content::Int(c) => *c = join_i(*c, int),
            Content::Float(c) => *c = join_f(*c, float),
        }
    }

    fn load_content(&self, arr: ArrayId) -> (Option<IntRange>, Option<FloatRange>) {
        match &self.content[arr.index()] {
            Content::Int(c) => (*c, None),
            Content::Float(c) => (None, *c),
        }
    }

    fn eval(&mut self, id: InstId) {
        self.budget = self.budget.saturating_sub(1);
        let inst = self.func.inst(id);
        let fi = |e: &Self, k: usize| e.int[inst.args[k].index()];
        let ff = |e: &Self, k: usize| e.float[inst.args[k].index()];
        use Op::*;
        let (ri, rf): (Option<IntRange>, Option<FloatRange>) = match inst.op {
            IAdd => (
                fi(self, 0).zip(fi(self, 1)).and_then(|(a, b)| a.add(b)),
                None,
            ),
            ISub => (
                fi(self, 0).zip(fi(self, 1)).and_then(|(a, b)| a.sub(b)),
                None,
            ),
            IMul => (
                fi(self, 0).zip(fi(self, 1)).and_then(|(a, b)| a.mul(b)),
                None,
            ),
            IDiv => (
                fi(self, 0).zip(fi(self, 1)).and_then(|(a, b)| a.div(b)),
                None,
            ),
            IRem => (
                fi(self, 0).zip(fi(self, 1)).and_then(|(a, b)| a.rem(b)),
                None,
            ),
            IMin => (fi(self, 0).zip(fi(self, 1)).map(|(a, b)| a.min(b)), None),
            IMax => (fi(self, 0).zip(fi(self, 1)).map(|(a, b)| a.max(b)), None),
            ICmp(_) | FCmp(_) => (Some(IntRange { lo: 0, hi: 1 }), None),
            FAdd => (
                None,
                ff(self, 0)
                    .zip(ff(self, 1))
                    .and_then(|(a, b)| f_binary(a, b, |x, y| x + y, true)),
            ),
            FSub => (
                None,
                ff(self, 0)
                    .zip(ff(self, 1))
                    .and_then(|(a, b)| f_binary(a, b, |x, y| x - y, true)),
            ),
            FMul => (
                None,
                ff(self, 0)
                    .zip(ff(self, 1))
                    .and_then(|(a, b)| f_binary(a, b, |x, y| x * y, true)),
            ),
            FDiv => {
                let d = ff(self, 1);
                if let Some(d) = d {
                    if d.lo == 0.0 && d.hi == 0.0 {
                        self.flag_nonfinite(id, "fdiv divides by a value provably zero");
                    }
                }
                let r = ff(self, 0).zip(d).and_then(|(a, b)| {
                    if b.lo <= 0.0 && b.hi >= 0.0 {
                        None
                    } else {
                        f_binary(a, b, |x, y| x / y, false)
                    }
                });
                (None, r)
            }
            FMin => (
                None,
                ff(self, 0).zip(ff(self, 1)).map(|(a, b)| FloatRange {
                    lo: a.lo.min(b.lo),
                    hi: a.hi.min(b.hi),
                    quantized: a.quantized && b.quantized,
                }),
            ),
            FMax => (
                None,
                ff(self, 0).zip(ff(self, 1)).map(|(a, b)| FloatRange {
                    lo: a.lo.max(b.lo),
                    hi: a.hi.max(b.hi),
                    quantized: a.quantized && b.quantized,
                }),
            ),
            FNeg => (
                None,
                ff(self, 0).map(|a| FloatRange {
                    lo: -a.hi,
                    hi: -a.lo,
                    quantized: a.quantized,
                }),
            ),
            FAbs => (
                None,
                ff(self, 0).map(|a| {
                    let lo = if a.lo <= 0.0 && a.hi >= 0.0 {
                        0.0
                    } else {
                        a.lo.abs().min(a.hi.abs())
                    };
                    FloatRange {
                        lo,
                        hi: a.lo.abs().max(a.hi.abs()),
                        quantized: a.quantized,
                    }
                }),
            ),
            Sqrt => {
                let a = ff(self, 0);
                if let Some(a) = a {
                    if a.hi < 0.0 {
                        self.flag_nonfinite(id, "sqrt of a value provably negative");
                    }
                }
                let r = a.and_then(|a| {
                    (a.lo >= 0.0)
                        .then(|| outward(a.lo.sqrt(), a.hi.sqrt(), false))
                        .flatten()
                });
                (None, r)
            }
            Exp => {
                let a = ff(self, 0);
                if let Some(a) = a {
                    if a.lo > EXP_OVERFLOW {
                        self.flag_nonfinite(id, "exp of a value provably overflowing");
                    }
                }
                (None, a.and_then(|a| outward(a.lo.exp(), a.hi.exp(), false)))
            }
            Ln => {
                let a = ff(self, 0);
                if let Some(a) = a {
                    if a.hi <= 0.0 {
                        self.flag_nonfinite(id, "ln of a value provably non-positive");
                    }
                }
                let r = a.and_then(|a| {
                    (a.lo > 0.0)
                        .then(|| outward(a.lo.ln(), a.hi.ln(), false))
                        .flatten()
                });
                (None, r)
            }
            Tanh => (
                None,
                ff(self, 0).and_then(|a| {
                    let r = outward(a.lo.tanh(), a.hi.tanh(), false)?;
                    Some(FloatRange {
                        lo: r.lo.max(-1.0),
                        hi: r.hi.min(1.0),
                        quantized: false,
                    })
                }),
            ),
            Sin | Cos => (
                None,
                ff(self, 0).map(|_| FloatRange {
                    lo: -1.0,
                    hi: 1.0,
                    quantized: false,
                }),
            ),
            FPow => (None, None),
            IToF => (
                None,
                fi(self, 0).and_then(|a| {
                    let (lo, hi) = (a.lo as f64, a.hi as f64);
                    if lo.abs() < EXACT && hi.abs() < EXACT {
                        Some(FloatRange {
                            lo,
                            hi,
                            quantized: true,
                        })
                    } else {
                        // The casts round to nearest; widen outward. Casts of
                        // i64 are always integer-valued floats.
                        outward(lo, hi, true)
                    }
                }),
            ),
            FToI => (
                ff(self, 0).map(|a| IntRange {
                    lo: a.lo.round() as i64,
                    hi: a.hi.round() as i64,
                }),
                None,
            ),
            Select => (
                join_i(fi(self, 1), fi(self, 2)),
                join_f(ff(self, 1), ff(self, 2)),
            ),
            Load(arr) => self.load_content(arr),
            Store(arr) => {
                let (i, f) = (fi(self, 1), ff(self, 1));
                self.store_content(arr, i, f);
                (None, None)
            }
            SAlloc { base, .. } => (Some(IntRange::point(i64::from(base))), None),
            SpadLoad => (None, self.spad),
            SpadStore | TapeStore { .. } => {
                self.spad = join_f(self.spad, ff(self, 1));
                (None, None)
            }
            TapeLoad { array, .. } => self.load_content(array),
            StreamOut(arr) | StreamOutC { array: arr, .. } => {
                let s = self.spad;
                self.store_content(arr, None, s);
                (None, None)
            }
            StreamIn(arr) | StreamInC { array: arr, .. } => {
                let (_, f) = self.load_content(arr);
                self.spad = join_f(self.spad, f);
                (None, None)
            }
            Barrier => (None, None),
        };
        let Some(res) = inst.result else { return };
        let i = res.index();
        match self.func.value(res).ty {
            Scalar::I64 => {
                self.int[i] = ri;
                self.acc_int[i].join(ri, IntRange::join);
            }
            Scalar::F64 => {
                self.float[i] = rf;
                self.acc_float[i].join(rf, FloatRange::join);
            }
        }
    }
}

/// Initial content domain of one array (what the interpreter's memory
/// holds before the first instruction runs).
fn seed_content(a: &crate::ArrayDecl) -> Content {
    match (a.kind, a.range) {
        // Declared ranges are a caller contract on inputs; the dynamic
        // oracle re-checks them against the actual initial memory.
        (ArrayKind::Input, Some(DeclRange::Int { lo, hi })) => {
            Content::Int(Some(IntRange { lo, hi }))
        }
        (ArrayKind::Input, Some(DeclRange::Float { lo, hi, quantized })) => {
            Content::Float(Some(FloatRange { lo, hi, quantized }))
        }
        // Temp and Tape arrays are zero-initialized by
        // `Memory::for_function` and not externally writable.
        (ArrayKind::Temp | ArrayKind::Tape, _) => match a.elem {
            Scalar::I64 => Content::Int(Some(IntRange::point(0))),
            Scalar::F64 => Content::Float(Some(FloatRange {
                lo: 0.0,
                hi: 0.0,
                quantized: true,
            })),
        },
        // Unannotated inputs and all externally writable kinds
        // (Output, InOut, Shadow — e.g. the loss shadow seeded to 1.0
        // by the driver) start unbounded.
        _ => match a.elem {
            Scalar::I64 => Content::Int(None),
            Scalar::F64 => Content::Float(None),
        },
    }
}

/// Total dynamic instruction count of `stmts` when every loop has a
/// constant trip count; memoizes per-loop costs.
fn block_cost(
    func: &Function,
    stmts: &[Stmt],
    memo: &mut HashMap<LoopId, Option<u64>>,
) -> Option<u64> {
    let mut c = 0u64;
    let mut ok = true;
    for s in stmts {
        match s {
            Stmt::Inst(_) => c = c.saturating_add(1),
            Stmt::For { loop_id, body } => {
                let inner = block_cost(func, body, memo);
                let trips = func.loop_info(*loop_id).trip_count();
                let cost = match (inner, trips) {
                    (Some(b), Some(t)) => Some(t.saturating_mul(b.max(1))),
                    _ => None,
                };
                memo.insert(*loop_id, cost);
                match cost {
                    Some(lc) => c = c.saturating_add(lc),
                    None => ok = false,
                }
            }
        }
    }
    ok.then_some(c)
}

/// Per-iteration cost of a loop body whose own trip count came from the
/// environment rather than the loop header (runtime bounds that the
/// abstract interpretation resolved to points).
fn per_iter_cost(func: &Function, body: &[Stmt]) -> Option<u64> {
    let mut memo = HashMap::new();
    block_cost(func, body, &mut memo)
}

// ---------------------------------------------------------------------------
// Dynamic soundness oracle: containment checking
// ---------------------------------------------------------------------------

/// One observed value (or array element) escaping its static range.
#[derive(Clone, Debug, PartialEq)]
pub struct Escape {
    /// What escaped: `"value %7"` or ``"array @2 `x`"``.
    pub what: String,
    /// Human-readable description of the violation.
    pub detail: String,
}

impl std::fmt::Display for Escape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.what, self.detail)
    }
}

/// Checks every range observed by a [`RangeRecorder`] run against the
/// static result. Any escape is a soundness bug in the analysis (or a
/// dishonest input annotation) and must fail hard.
pub fn check_containment(
    func: &Function,
    ranges: &ValueRanges,
    rec: &RangeRecorder,
) -> Vec<Escape> {
    let mut out = Vec::new();
    for (i, obs) in rec.values().iter().enumerate() {
        let what = || format!("value %{i}");
        if let Some((lo, hi)) = obs.int {
            if let Some(r) = ranges.ints.get(i).copied().flatten() {
                if lo < r.lo || hi > r.hi {
                    out.push(Escape {
                        what: what(),
                        detail: format!(
                            "observed i64 [{lo}, {hi}] escapes static [{}, {}]",
                            r.lo, r.hi
                        ),
                    });
                }
            }
        }
        if let Some(r) = ranges.floats.get(i).copied().flatten() {
            if obs.nonfinite {
                out.push(Escape {
                    what: what(),
                    detail: "observed a non-finite f64 but the static range claims finiteness"
                        .into(),
                });
            } else if let Some((lo, hi)) = obs.float {
                if lo < r.lo || hi > r.hi {
                    out.push(Escape {
                        what: what(),
                        detail: format!(
                            "observed f64 [{lo}, {hi}] escapes static [{}, {}]",
                            r.lo, r.hi
                        ),
                    });
                } else if r.quantized && obs.fractional {
                    out.push(Escape {
                        what: what(),
                        detail: "observed a fractional f64 but the static range claims \
                                 quantized (integer) values"
                            .into(),
                    });
                }
            }
        }
    }
    for (i, obs) in rec.arrays().iter().enumerate() {
        let what = || format!("array @{i} `{}`", func.arrays()[i].name);
        match ranges.contents.get(i) {
            Some(ContentRange::Int(Some(r))) => {
                if let Some((lo, hi)) = obs.int {
                    if lo < r.lo || hi > r.hi {
                        out.push(Escape {
                            what: what(),
                            detail: format!(
                                "observed contents [{lo}, {hi}] escape static [{}, {}]",
                                r.lo, r.hi
                            ),
                        });
                    }
                }
            }
            Some(ContentRange::Float(Some(r))) => {
                if obs.nonfinite {
                    out.push(Escape {
                        what: what(),
                        detail: "observed non-finite contents but the static range claims \
                                 finiteness"
                            .into(),
                    });
                } else if let Some((lo, hi)) = obs.float {
                    if lo < r.lo || hi > r.hi {
                        out.push(Escape {
                            what: what(),
                            detail: format!(
                                "observed contents [{lo}, {hi}] escape static [{}, {}]",
                                r.lo, r.hi
                            ),
                        });
                    } else if r.quantized && obs.fractional {
                        out.push(Escape {
                            what: what(),
                            detail: "observed fractional contents but the static range \
                                     claims quantized (integer) values"
                                .into(),
                        });
                    }
                }
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::function::ArrayKind;
    use crate::interp;
    use crate::memory::Memory;
    use crate::types::Scalar;
    use crate::verify::verify;

    #[test]
    fn unrolled_product_gets_exact_hull() {
        // prod = i*3 over i in 0..8: the hull is [0, 21].
        let mut b = FunctionBuilder::new("iv");
        let k = b.i64(3);
        let mut prod = None;
        b.for_loop("i", 0, 8, |b, i| {
            prod = Some(b.imul(i, k));
        });
        let f = b.finish();
        let r = value_ranges(&f);
        assert_eq!(
            r.ints[prod.unwrap().index()],
            Some(IntRange { lo: 0, hi: 21 })
        );
    }

    #[test]
    fn load_bounded_by_declared_range() {
        let mut b = FunctionBuilder::new("ld");
        let x = b.array_ranged(
            "x",
            8,
            ArrayKind::Input,
            Scalar::I64,
            DeclRange::Int { lo: 0, hi: 9 },
        );
        let mut v = None;
        b.for_loop("i", 0, 8, |b, i| {
            v = Some(b.load(x, i));
        });
        let f = b.finish();
        verify(&f).unwrap();
        let r = value_ranges(&f);
        assert_eq!(r.ints[v.unwrap().index()], Some(IntRange { lo: 0, hi: 9 }));
    }

    #[test]
    fn accumulator_hull_via_unrolling() {
        // acc += x[i] with x in [0, 9]: after 8 iterations acc ∈ [0, 72].
        // A joining fixpoint alone cannot bound this.
        let mut b = FunctionBuilder::new("acc");
        let x = b.array_ranged(
            "x",
            8,
            ArrayKind::Input,
            Scalar::F64,
            DeclRange::Float {
                lo: 0.0,
                hi: 9.0,
                quantized: true,
            },
        );
        let cell = b.cell_f64("acc", 0.0);
        b.for_loop("i", 0, 8, |b, i| {
            let xi = b.load(x, i);
            let cur = b.load_cell(cell);
            let s = b.fadd(cur, xi);
            b.store_cell(cell, s);
        });
        let f = b.finish();
        verify(&f).unwrap();
        let r = value_ranges(&f);
        let ContentRange::Float(Some(c)) = r.contents[cell.index()] else {
            panic!("accumulator cell content unbounded: {:?}", r.contents);
        };
        assert_eq!((c.lo, c.hi), (0.0, 72.0));
        assert!(c.quantized, "integer inputs keep the accumulator quantized");
    }

    #[test]
    fn join_mode_widens_to_thresholds() {
        // Tiny budget forces join mode; the accumulator's content must
        // widen to a finite threshold or ⊤ (not loop forever).
        let mut b = FunctionBuilder::new("widen");
        let x = b.array_ranged(
            "x",
            64,
            ArrayKind::Input,
            Scalar::F64,
            DeclRange::Float {
                lo: 0.0,
                hi: 1.0,
                quantized: false,
            },
        );
        let cell = b.cell_f64("acc", 0.0);
        b.for_loop("i", 0, 64, |b, i| {
            let xi = b.load(x, i);
            let cur = b.load_cell(cell);
            let s = b.fadd(cur, xi);
            b.store_cell(cell, s);
        });
        let f = b.finish();
        let cfg = VraConfig {
            eval_budget: 8,
            ..VraConfig::default()
        };
        let r = value_ranges_with(&f, &cfg);
        match r.contents[cell.index()] {
            // Sound either way: a widened threshold covering [0, 64]
            // or ⊤ after the round cap.
            ContentRange::Float(Some(c)) => {
                assert!(c.lo <= 0.0 && c.hi >= 64.0, "unsound widening: {c:?}");
            }
            ContentRange::Float(None) => {}
            ref other => panic!("wrong content domain: {other:?}"),
        }
    }

    #[test]
    fn tape_round_trip_stays_bounded() {
        // FWD stores a bounded value into a tape array, REV loads it:
        // the loaded value inherits the bound (plus the zero seed).
        let mut b = FunctionBuilder::new("tape");
        let x = b.array_ranged(
            "x",
            8,
            ArrayKind::Input,
            Scalar::F64,
            DeclRange::Float {
                lo: 2.0,
                hi: 5.0,
                quantized: true,
            },
        );
        let t = b.array("T0", 8, ArrayKind::Tape, Scalar::F64);
        b.for_loop("i", 0, 8, |b, i| {
            let xi = b.load(x, i);
            b.store(t, i, xi);
        });
        let mut back = None;
        b.for_loop_step(
            "r",
            crate::function::Bound::Const(7),
            crate::function::Bound::Const(-1),
            -1,
            |b, i| {
                back = Some(b.load(t, i));
            },
        );
        let f = b.finish();
        verify(&f).unwrap();
        let r = value_ranges(&f);
        let got = r.floats[back.unwrap().index()].expect("tape load bounded");
        assert_eq!((got.lo, got.hi), (0.0, 5.0));
        assert!(got.quantized);
    }

    #[test]
    fn nonfinite_division_is_flagged() {
        let mut b = FunctionBuilder::new("nf");
        let z = b.array_ranged(
            "z",
            1,
            ArrayKind::Input,
            Scalar::F64,
            DeclRange::Float {
                lo: 0.0,
                hi: 0.0,
                quantized: true,
            },
        );
        let i0 = b.i64(0);
        let d = b.load(z, i0);
        let one = b.f64(1.0);
        let q = b.fdiv(one, d);
        let _ = q;
        let f = b.finish();
        verify(&f).unwrap();
        let r = value_ranges(&f);
        assert_eq!(r.diagnostics.len(), 1);
        assert_eq!(r.diagnostics[0].rule, "float-nonfinite");
        assert_eq!(r.diagnostics[0].severity, Severity::Error);
    }

    #[test]
    fn division_by_nonzero_stays_clean() {
        let mut b = FunctionBuilder::new("ok");
        let z = b.array_ranged(
            "z",
            1,
            ArrayKind::Input,
            Scalar::F64,
            DeclRange::Float {
                lo: 1.0,
                hi: 4.0,
                quantized: false,
            },
        );
        let i0 = b.i64(0);
        let d = b.load(z, i0);
        let one = b.f64(1.0);
        let q = b.fdiv(one, d);
        let f = b.finish();
        let r = value_ranges(&f);
        assert!(r.diagnostics.is_empty());
        let fr = r.floats[q.index()].expect("bounded quotient");
        assert!(fr.lo <= 0.25 && fr.hi >= 1.0, "{fr:?}");
    }

    #[test]
    fn oracle_agrees_on_interpreted_run() {
        // Build, analyze, execute under the recorder, check containment.
        let mut b = FunctionBuilder::new("orc");
        let x = b.array_ranged(
            "x",
            8,
            ArrayKind::Input,
            Scalar::F64,
            DeclRange::Float {
                lo: 0.0,
                hi: 9.0,
                quantized: true,
            },
        );
        let y = b.array("y", 8, ArrayKind::Output, Scalar::F64);
        let cell = b.cell_f64("acc", 0.0);
        b.for_loop("i", 0, 8, |b, i| {
            let xi = b.load(x, i);
            let cur = b.load_cell(cell);
            let s = b.fadd(cur, xi);
            b.store_cell(cell, s);
            b.store(y, i, s);
        });
        let f = b.finish();
        verify(&f).unwrap();
        let ranges = value_ranges(&f);
        let mut mem = Memory::for_function(&f);
        mem.set_f64(x, &[0.0, 9.0, 3.0, 1.0, 4.0, 1.0, 5.0, 9.0]);
        let rec = RangeRecorder::new(&f, &mem);
        let (rec, _) = interp::execute(&f, &mut mem, rec).unwrap();
        let escapes = check_containment(&f, &ranges, &rec);
        assert!(escapes.is_empty(), "{escapes:?}");
    }

    #[test]
    fn oracle_catches_dishonest_annotation() {
        let mut b = FunctionBuilder::new("liar");
        let x = b.array_ranged(
            "x",
            4,
            ArrayKind::Input,
            Scalar::F64,
            DeclRange::Float {
                lo: 0.0,
                hi: 1.0,
                quantized: false,
            },
        );
        let mut v = None;
        b.for_loop("i", 0, 4, |b, i| {
            v = Some(b.load(x, i));
        });
        let _ = v;
        let f = b.finish();
        let ranges = value_ranges(&f);
        let mut mem = Memory::for_function(&f);
        mem.set_f64(x, &[0.5, 7.0, 0.5, 0.5]); // 7.0 breaks the contract
        let rec = RangeRecorder::new(&f, &mem);
        let (rec, _) = interp::execute(&f, &mut mem, rec).unwrap();
        let escapes = check_containment(&f, &ranges, &rec);
        assert!(!escapes.is_empty(), "dishonest range must be caught");
    }

    #[test]
    fn census_counts_bounded_values() {
        let mut b = FunctionBuilder::new("c");
        let k = b.i64(3);
        b.for_loop("i", 0, 4, |b, i| {
            let _ = b.imul(i, k);
        });
        let f = b.finish();
        let r = value_ranges(&f);
        let (bi, _) = r.int_census(&f);
        assert!(bi >= 2, "constant and product should be bounded");
    }
}
