//! Static tape-safety, scratchpad-hazard and stream-schedule lints.
//!
//! `ir::verify` proves a function is *structurally* well-formed (SSA,
//! types, scheduling); this module proves the properties TapeFlow's whole
//! design rests on: tape accesses stay in bounds of their statically-sized
//! arrays, the FWD pass writes every tape element the REV pass reads,
//! layer allocations fit the scratchpad, and the fill/drain handshake
//! between the compute core and the stream engines cannot deadlock.
//!
//! The analyses are deliberately conservative: an `error` diagnostic means
//! the property is provably violated on some iteration of the (fully
//! static) loop nest; silence means the analysis could not prove a
//! violation, not that none exists. Integer ranges come from the one
//! value-range analysis the pipeline runs ([`crate::vra`]); stream
//! transfers sharpen them with a min/max-aware sum bound that ties a
//! partial tile's length, and an induction variable's loop bound, to its
//! base. Bank-conflict strides come from an affine decomposition of
//! scratchpad indices over enclosing induction variables.
//!
//! Entry point: [`lint_function`]. Diagnostics are deterministically
//! ordered (severity, then rule, then span) so table and JSON renderings
//! are byte-stable across runs.

use crate::function::{ArrayKind, Bound, Function, Stmt};
use crate::ids::{ArrayId, InstId, LoopId, ValueId};
use crate::ops::Op;
use crate::types::Const;
use crate::vra::{self, IntRange};
use crate::ValueDef;
use std::collections::{HashMap, HashSet};
use std::fmt;

/// How serious a finding is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// A provable violation of a safety property: the compiled program
    /// would read garbage, corrupt state or hang.
    Error,
    /// A likely performance or hygiene problem that does not threaten
    /// correctness (e.g. a taped value never restored in REV).
    Warning,
}

impl Severity {
    /// Lower-case label used in tables and JSON.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Where in the function a diagnostic points: an instruction, an array, or
/// both. Purely positional — human-readable names go in the message.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct Span {
    /// Index of the offending instruction, if any.
    pub inst: Option<usize>,
    /// Index of the array involved, if any.
    pub array: Option<usize>,
}

impl Span {
    /// Span pointing at one instruction.
    pub fn at_inst(id: InstId) -> Self {
        Span {
            inst: Some(id.index()),
            array: None,
        }
    }

    /// Span pointing at an instruction touching an array.
    pub fn at_inst_array(id: InstId, a: ArrayId) -> Self {
        Span {
            inst: Some(id.index()),
            array: Some(a.index()),
        }
    }

    /// Span pointing at an array declaration.
    pub fn at_array(a: ArrayId) -> Self {
        Span {
            inst: None,
            array: Some(a.index()),
        }
    }

    /// Compact rendering, e.g. `inst12 @3`, `@3`, or `-`.
    pub fn render(&self) -> String {
        match (self.inst, self.array) {
            (Some(i), Some(a)) => format!("inst{i} @{a}"),
            (Some(i), None) => format!("inst{i}"),
            (None, Some(a)) => format!("@{a}"),
            (None, None) => "-".to_string(),
        }
    }
}

/// One finding, tied to a rule from the catalog in DESIGN.md.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable rule identifier (kebab-case), e.g. `"tape-index-oob"`.
    pub rule: &'static str,
    /// Error or warning.
    pub severity: Severity,
    /// Program location.
    pub span: Span,
    /// Human-readable description with names and concrete numbers.
    pub message: String,
}

impl Diagnostic {
    /// Total order used everywhere diagnostics are emitted: errors first,
    /// then rule name, then span, then message.
    pub fn sort_key(&self) -> (Severity, &'static str, Span, &str) {
        (self.severity, self.rule, self.span, &self.message)
    }
}

/// Sorts a batch of diagnostics into the canonical deterministic order.
pub fn sort_diagnostics(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
}

/// Machine parameters the lints check against. Defaults mirror the paper
/// baseline (`CompileOptions::default()` and the simulator's scratchpad):
/// 128 eight-byte entries across 16 banks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LintConfig {
    /// Scratchpad capacity in 8 B entries.
    pub spad_entries: usize,
    /// Number of scratchpad banks (bank = entry index mod banks).
    pub spad_banks: usize,
}

impl Default for LintConfig {
    fn default() -> Self {
        LintConfig {
            spad_entries: 128,
            spad_banks: 16,
        }
    }
}

/// Count of `(errors, warnings)` in a batch of diagnostics.
pub fn counts(diags: &[Diagnostic]) -> (usize, usize) {
    let errors = diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    (errors, diags.len() - errors)
}

// ---------------------------------------------------------------------------
// Affine analysis (for bank strides)
// ---------------------------------------------------------------------------

/// `konst + Σ coeff · iv` over enclosing induction variables. Coefficient
/// vectors are kept sorted by value id so equality is structural.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct Affine {
    coeffs: Vec<(ValueId, i64)>,
    konst: i64,
}

impl Affine {
    fn konst(v: i64) -> Self {
        Affine {
            coeffs: Vec::new(),
            konst: v,
        }
    }

    fn iv(v: ValueId) -> Self {
        Affine {
            coeffs: vec![(v, 1)],
            konst: 0,
        }
    }

    fn combine(&self, o: &Affine, sign: i64) -> Option<Affine> {
        let mut coeffs = self.coeffs.clone();
        for &(v, c) in &o.coeffs {
            match coeffs.binary_search_by_key(&v, |&(w, _)| w) {
                Ok(i) => {
                    coeffs[i].1 = coeffs[i].1.checked_add(c.checked_mul(sign)?)?;
                    if coeffs[i].1 == 0 {
                        coeffs.remove(i);
                    }
                }
                Err(i) => coeffs.insert(i, (v, c.checked_mul(sign)?)),
            }
        }
        Some(Affine {
            coeffs,
            konst: self.konst.checked_add(o.konst.checked_mul(sign)?)?,
        })
    }

    fn scale(&self, k: i64) -> Option<Affine> {
        let mut coeffs = Vec::with_capacity(self.coeffs.len());
        for &(v, c) in &self.coeffs {
            let c = c.checked_mul(k)?;
            if c != 0 {
                coeffs.push((v, c));
            }
        }
        Some(Affine {
            coeffs,
            konst: self.konst.checked_mul(k)?,
        })
    }

    /// Coefficient of induction variable `iv` (0 when absent).
    fn coeff_of(&self, iv: ValueId) -> i64 {
        self.coeffs
            .binary_search_by_key(&iv, |&(w, _)| w)
            .map(|i| self.coeffs[i].1)
            .unwrap_or(0)
    }

    fn as_const(&self) -> Option<i64> {
        self.coeffs.is_empty().then_some(self.konst)
    }
}

// ---------------------------------------------------------------------------
// The analysis walk
// ---------------------------------------------------------------------------

/// Per-function analysis facts shared by all rules: the `i64` ranges of
/// [`vra::value_ranges`], affine decompositions, and the linearized
/// program order with loop context.
struct Analysis {
    /// Proven range per value (`None`: unbounded, or never executed).
    ints: Vec<Option<IntRange>>,
    affine: Vec<Option<Affine>>,
    /// Scheduled instructions in program order, each with the stack of
    /// enclosing loops (outermost first).
    order: Vec<(InstId, Vec<LoopId>)>,
}

impl Analysis {
    fn run(func: &Function) -> Analysis {
        let mut a = Analysis {
            ints: vra::value_ranges(func).ints,
            affine: vec![None; func.values().len()],
            order: Vec::new(),
        };
        for (i, v) in func.values().iter().enumerate() {
            if let ValueDef::Const(Const::I64(c)) = v.def {
                a.affine[i] = Some(Affine::konst(c));
            }
        }
        let mut path = Vec::new();
        a.walk(func, &func.body, &mut path);
        a
    }

    fn walk(&mut self, func: &Function, stmts: &[Stmt], path: &mut Vec<LoopId>) {
        for s in stmts {
            match s {
                Stmt::Inst(id) => {
                    self.eval_affine(func, *id);
                    self.order.push((*id, path.clone()));
                }
                Stmt::For { loop_id, body } => {
                    let iv = func.loop_info(*loop_id).iv;
                    self.affine[iv.index()] = Some(Affine::iv(iv));
                    path.push(*loop_id);
                    self.walk(func, body, path);
                    path.pop();
                }
            }
        }
    }

    /// The value of `v` when its proven range is a single point.
    fn point(&self, v: ValueId) -> Option<i64> {
        self.ints[v.index()].filter(|r| r.lo == r.hi).map(|r| r.lo)
    }

    /// Upper bound on `x + y`, sharper than `hi(x) + hi(y)`: the sum is
    /// decomposed through `iadd`/`isub`/`imul`-by-const definitions into
    /// `konst + Σ coeff·leaf`, like terms are cancelled, and an
    /// `imin`/`imax` leaf branches the evaluation. This recovers the
    /// correlation in the streaming pass's partial-tile transfers
    /// (`base = start·k`, `elems = min(tile, total − start)·k`), where
    /// independent range bounds of base and length over-approximate.
    /// Arithmetic is checked; `None` means "fall back to ranges".
    fn sum_hi(&self, func: &Function, x: ValueId, y: ValueId) -> Option<i64> {
        self.bound_sum(func, vec![(x, 1), (y, 1)], 0, 8)
    }

    fn bound_sum(
        &self,
        func: &Function,
        mut terms: Vec<(ValueId, i64)>,
        mut konst: i64,
        fuel: u32,
    ) -> Option<i64> {
        // Expand linear definitions and fold constants to a fixpoint.
        // SSA definitions are acyclic, so this terminates.
        loop {
            terms.sort_by_key(|&(v, _)| v);
            let mut merged: Vec<(ValueId, i64)> = Vec::with_capacity(terms.len());
            for (v, c) in terms {
                match merged.last_mut() {
                    Some(last) if last.0 == v => last.1 = last.1.checked_add(c)?,
                    _ => merged.push((v, c)),
                }
            }
            merged.retain(|&(_, c)| c != 0);
            let mut changed = false;
            let mut next: Vec<(ValueId, i64)> = Vec::with_capacity(merged.len());
            for &(v, c) in &merged {
                if let Some(p) = self.point(v) {
                    konst = konst.checked_add(c.checked_mul(p)?)?;
                    changed = true;
                    continue;
                }
                if let ValueDef::Inst(id) = func.values()[v.index()].def {
                    let inst = func.inst(id);
                    match inst.op {
                        Op::IAdd => {
                            next.push((inst.args[0], c));
                            next.push((inst.args[1], c));
                            changed = true;
                            continue;
                        }
                        Op::ISub => {
                            next.push((inst.args[0], c));
                            next.push((inst.args[1], c.checked_neg()?));
                            changed = true;
                            continue;
                        }
                        Op::IMul => {
                            if let Some(k) = self.point(inst.args[1]) {
                                next.push((inst.args[0], c.checked_mul(k)?));
                                changed = true;
                                continue;
                            }
                            if let Some(k) = self.point(inst.args[0]) {
                                next.push((inst.args[1], c.checked_mul(k)?));
                                changed = true;
                                continue;
                            }
                        }
                        _ => {}
                    }
                }
                next.push((v, c));
            }
            terms = next;
            if !changed {
                break;
            }
        }
        // A min with positive weight (or max with negative weight) splits
        // the bound: `u + min(p, q) = min(u + p, u + q)` pointwise.
        if fuel > 0 {
            for (i, &(v, c)) in terms.iter().enumerate() {
                if let ValueDef::Inst(id) = func.values()[v.index()].def {
                    let inst = func.inst(id);
                    if matches!(inst.op, Op::IMin | Op::IMax) {
                        let mut ta = terms.clone();
                        ta[i] = (inst.args[0], c);
                        let mut tb = terms;
                        tb[i] = (inst.args[1], c);
                        let ra = self.bound_sum(func, ta, konst, fuel - 1)?;
                        let rb = self.bound_sum(func, tb, konst, fuel - 1)?;
                        let take_min = (inst.op == Op::IMin) == (c > 0);
                        return Some(if take_min { ra.min(rb) } else { ra.max(rb) });
                    }
                }
            }
        }
        // Residual leaves: bound each with its range, or an induction
        // variable by its loop's value bound (the tighter of the two).
        let mut hi = Some(konst);
        for &(v, c) in &terms {
            let r = self.ints[v.index()];
            hi = hi.zip(r).and_then(|(h, r)| {
                h.checked_add(c.checked_mul(if c > 0 { r.hi } else { r.lo })?)
            });
        }
        let tied = if fuel > 0 {
            self.iv_bound_sum(func, &terms, konst, fuel - 1)
        } else {
            None
        };
        match (hi, tied) {
            (Some(h), Some(t)) => Some(h.min(t)),
            (h, t) => h.or(t),
        }
    }

    /// Re-bounds the sum with its first induction-variable leaf replaced
    /// by the loop bound that caps it, when that bound is a value: `iv` lies
    /// in `[start, end − 1]` for step > 0 and `[end + 1, start]` for
    /// step < 0. This keeps the tie between a partial tile's row count and
    /// its tile index, so `i.tile·32 + i.in` with
    /// `i.in < min(32, 200 − i.tile·32)` cancels to `≤ 199`.
    fn iv_bound_sum(
        &self,
        func: &Function,
        terms: &[(ValueId, i64)],
        konst: i64,
        fuel: u32,
    ) -> Option<i64> {
        for (i, &(v, c)) in terms.iter().enumerate() {
            let ValueDef::Iv(l) = func.values()[v.index()].def else {
                continue;
            };
            let info = func.loop_info(l);
            // `c·iv` peaks at the end side when `c` and the step agree in sign.
            let (bound, shift) = if (c > 0) == (info.step > 0) {
                (info.end, -info.step.signum())
            } else {
                (info.start, 0)
            };
            let Bound::Value(b) = bound else {
                continue;
            };
            let mut t = terms.to_vec();
            t[i] = (b, c);
            return self.bound_sum(func, t, konst.checked_add(c.checked_mul(shift)?)?, fuel);
        }
        None
    }

    fn eval_affine(&mut self, func: &Function, id: InstId) {
        let inst = func.inst(id);
        let Some(res) = inst.result else { return };
        let af = |k: usize| self.affine[inst.args[k].index()].as_ref();
        let affine = match inst.op {
            Op::IAdd => af(0).zip(af(1)).and_then(|(a, b)| a.combine(b, 1)),
            Op::ISub => af(0).zip(af(1)).and_then(|(a, b)| a.combine(b, -1)),
            Op::IMul => af(0)
                .zip(af(1))
                .and_then(|(a, b)| match (a.as_const(), b.as_const()) {
                    (Some(k), _) => b.scale(k),
                    (_, Some(k)) => a.scale(k),
                    _ => None,
                }),
            Op::SAlloc { base, .. } => Some(Affine::konst(i64::from(base))),
            _ => None,
        };
        self.affine[res.index()] = affine;
    }
}

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

/// Runs every function-level rule and returns the findings in canonical
/// order. The function must already pass [`crate::verify::verify`].
pub fn lint_function(func: &Function, cfg: &LintConfig) -> Vec<Diagnostic> {
    let a = Analysis::run(func);
    let mut diags = Vec::new();
    tape_index_oob(func, &a, &mut diags);
    tape_read_before_write(func, &a, &mut diags);
    spad_capacity(func, &a, cfg, &mut diags);
    spad_oob(func, &a, cfg, &mut diags);
    spad_bank_conflict(func, &a, cfg, &mut diags);
    stream_deadlock(func, &a, cfg, &mut diags);
    tape_never_loaded(func, &a, &mut diags);
    sort_diagnostics(&mut diags);
    diags
}

fn arr_label(func: &Function, a: ArrayId) -> String {
    format!("{a} `{}`", func.array(a).name)
}

/// `tape-index-oob` (error): a tape load/store or stream transfer whose
/// DRAM element range provably leaves `[0, len)`.
fn tape_index_oob(func: &Function, a: &Analysis, diags: &mut Vec<Diagnostic>) {
    for &(id, _) in &a.order {
        let inst = func.inst(id);
        let (arr, range, what) = match inst.op {
            Op::Load(arr) | Op::Store(arr) if func.array(arr).kind.is_tape() => {
                let Some(r) = a.ints[inst.args[0].index()] else {
                    continue;
                };
                let what = if matches!(inst.op, Op::Load(_)) {
                    "load"
                } else {
                    "store"
                };
                (arr, r, what)
            }
            Op::TapeLoad {
                array: arr,
                rsize,
                off,
            } => {
                let Some(r) = a.ints[inst.args[0].index()].and_then(|lin| {
                    lin.mul(IntRange::point(rsize as i64))?
                        .add(IntRange::point(off as i64))
                }) else {
                    continue;
                };
                (arr, r, "tape.load")
            }
            Op::StreamIn(arr)
            | Op::StreamOut(arr)
            | Op::StreamInC { array: arr, .. }
            | Op::StreamOutC { array: arr, .. } => {
                if a.ints[inst.args[2].index()].is_none_or(|elems| elems.hi <= 0) {
                    continue;
                }
                let Some(r) = transfer_range(func, a, inst.args[1], inst.args[2]) else {
                    continue;
                };
                let what = if matches!(inst.op, Op::StreamIn(_) | Op::StreamInC { .. }) {
                    "stream.in"
                } else {
                    "stream.out"
                };
                (arr, r, what)
            }
            _ => continue,
        };
        let len = func.array(arr).len as i64;
        if range.lo < 0 || range.hi >= len {
            diags.push(Diagnostic {
                rule: "tape-index-oob",
                severity: Severity::Error,
                span: Span::at_inst_array(id, arr),
                message: format!(
                    "{what} touches elements [{}, {}] of tape {} which has {} elements",
                    range.lo,
                    range.hi,
                    arr_label(func, arr),
                    func.array(arr).len
                ),
            });
        }
    }
}

/// `tape-read-before-write` (error): in linear program order, a tape array
/// is read (load / stream.in) before anything has written it.
fn tape_read_before_write(func: &Function, a: &Analysis, diags: &mut Vec<Diagnostic>) {
    let mut written: HashSet<ArrayId> = HashSet::new();
    let mut flagged: HashSet<ArrayId> = HashSet::new();
    for &(id, _) in &a.order {
        let inst = func.inst(id);
        match inst.op {
            Op::Store(arr) | Op::StreamOut(arr) | Op::StreamOutC { array: arr, .. }
                if func.array(arr).kind.is_tape() =>
            {
                written.insert(arr);
            }
            Op::Load(arr)
            | Op::StreamIn(arr)
            | Op::StreamInC { array: arr, .. }
            | Op::TapeLoad { array: arr, .. }
                if func.array(arr).kind.is_tape()
                    && !written.contains(&arr)
                    && flagged.insert(arr) =>
            {
                diags.push(Diagnostic {
                    rule: "tape-read-before-write",
                    severity: Severity::Error,
                    span: Span::at_inst_array(id, arr),
                    message: format!(
                        "tape {} is read before any FWD write reaches it",
                        arr_label(func, arr)
                    ),
                });
            }
            _ => {}
        }
    }
}

/// `spad-capacity` (error): a layer allocation extends past the end of the
/// scratchpad.
fn spad_capacity(func: &Function, a: &Analysis, cfg: &LintConfig, diags: &mut Vec<Diagnostic>) {
    for &(id, _) in &a.order {
        if let Op::SAlloc { size, base } = func.inst(id).op {
            let end = base as usize + size as usize;
            if end > cfg.spad_entries {
                diags.push(Diagnostic {
                    rule: "spad-capacity",
                    severity: Severity::Error,
                    span: Span::at_inst(id),
                    message: format!(
                        "salloc of {size} entries at base {base} ends at {end}, \
                         past the {}-entry scratchpad",
                        cfg.spad_entries
                    ),
                });
            }
        }
    }
}

/// Range `[base, base + elems − 1]` a stream transfer touches, its end
/// taken from the correlated sum bound when that applies.
fn transfer_range(
    func: &Function,
    a: &Analysis,
    base: ValueId,
    elems: ValueId,
) -> Option<IntRange> {
    let b = a.ints[base.index()]?;
    let e = a.ints[elems.index()]?;
    let end = match a.sum_hi(func, base, elems) {
        Some(end) => end,
        None => b.add(IntRange::point(e.hi.max(1)))?.hi,
    };
    Some(IntRange {
        lo: b.lo,
        hi: (end - 1).max(b.lo),
    })
}

/// Scratchpad entry range an instruction touches, when provable.
fn spad_range(func: &Function, a: &Analysis, id: InstId) -> Option<IntRange> {
    let inst = func.inst(id);
    match inst.op {
        Op::SpadLoad | Op::SpadStore | Op::TapeStore { .. } => a.ints[inst.args[0].index()],
        Op::TapeLoad { .. } => a.ints[inst.args[1].index()],
        Op::StreamIn(_) | Op::StreamOut(_) | Op::StreamInC { .. } | Op::StreamOutC { .. } => {
            transfer_range(func, a, inst.args[0], inst.args[2])
        }
        _ => None,
    }
}

/// `spad-oob` (error): a scratchpad access or stream transfer provably
/// leaves the scratchpad.
fn spad_oob(func: &Function, a: &Analysis, cfg: &LintConfig, diags: &mut Vec<Diagnostic>) {
    for &(id, _) in &a.order {
        let inst = func.inst(id);
        if !matches!(
            inst.op,
            Op::SpadLoad
                | Op::SpadStore
                | Op::TapeStore { .. }
                | Op::TapeLoad { .. }
                | Op::StreamIn(_)
                | Op::StreamOut(_)
                | Op::StreamInC { .. }
                | Op::StreamOutC { .. }
        ) {
            continue;
        }
        let Some(r) = spad_range(func, a, id) else {
            continue;
        };
        if r.lo < 0 || r.hi >= cfg.spad_entries as i64 {
            diags.push(Diagnostic {
                rule: "spad-oob",
                severity: Severity::Error,
                span: Span::at_inst(id),
                message: format!(
                    "{} touches scratchpad entries [{}, {}], outside the \
                     {}-entry scratchpad",
                    func.inst(id).op.mnemonic(),
                    r.lo,
                    r.hi,
                    cfg.spad_entries
                ),
            });
        }
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// `spad-bank-conflict` (warning): consecutive iterations of the innermost
/// enclosing loop hit a strict subset of the banks (stride shares a factor
/// with the bank count), serializing accesses on those banks.
fn spad_bank_conflict(
    func: &Function,
    a: &Analysis,
    cfg: &LintConfig,
    diags: &mut Vec<Diagnostic>,
) {
    if cfg.spad_banks <= 1 {
        return;
    }
    for (id, path) in &a.order {
        let inst = func.inst(*id);
        // TapeStore/TapeLoad carry their (future) scratchpad entry in the
        // same operand Pass 4 redirects them to, so the stride warning is
        // already meaningful on the streams terminal form.
        let entry_arg = match inst.op {
            Op::SpadLoad | Op::SpadStore | Op::TapeStore { .. } => inst.args[0],
            Op::TapeLoad { .. } => inst.args[1],
            _ => continue,
        };
        let Some(innermost) = path.last() else {
            continue;
        };
        let Some(affine) = &a.affine[entry_arg.index()] else {
            continue;
        };
        let info = func.loop_info(*innermost);
        let stride = affine.coeff_of(info.iv).saturating_mul(info.step);
        if stride == 0 {
            continue;
        }
        let g = gcd(stride.unsigned_abs(), cfg.spad_banks as u64);
        if g > 1 {
            diags.push(Diagnostic {
                rule: "spad-bank-conflict",
                severity: Severity::Warning,
                span: Span::at_inst(*id),
                message: format!(
                    "{} strides by {} per iteration of loop `{}`, hitting only \
                     {} of {} banks",
                    inst.op.mnemonic(),
                    stride,
                    info.name,
                    cfg.spad_banks as u64 / g,
                    cfg.spad_banks
                ),
            });
        }
    }
}

/// `stream-deadlock` (error): within one barrier-delimited section, the
/// wait-for graph between the compute core and the stream engines has a
/// cycle.
///
/// The graph has one node per scratchpad access or stream command and four
/// edge kinds, modelling the full/empty handshake bits: (1) the in-order
/// core chains its scratchpad accesses; (2) each stream engine executes its
/// commands in order; (3) a `spad.load` waits on the `stream.in` filling an
/// overlapping range (full bit set by the fill); (4) a `stream.out` waits
/// on the `spad.store` producing an overlapping range. Ranges the value-range
/// analysis cannot bound are treated as covering the whole scratchpad.
fn stream_deadlock(func: &Function, a: &Analysis, cfg: &LintConfig, diags: &mut Vec<Diagnostic>) {
    #[derive(Clone, Copy, PartialEq)]
    enum Kind {
        Fill,  // stream.in
        Drain, // stream.out
        Load,  // spad.load
        Store, // spad.store
    }
    let full = IntRange {
        lo: 0,
        hi: cfg.spad_entries.saturating_sub(1) as i64,
    };
    let mut section: Vec<(InstId, Kind, IntRange)> = Vec::new();
    let mut sections: Vec<Vec<(InstId, Kind, IntRange)>> = Vec::new();
    for &(id, _) in &a.order {
        let kind = match func.inst(id).op {
            Op::StreamIn(_) | Op::StreamInC { .. } => Kind::Fill,
            Op::StreamOut(_) | Op::StreamOutC { .. } => Kind::Drain,
            Op::SpadLoad | Op::TapeLoad { .. } => Kind::Load,
            Op::SpadStore | Op::TapeStore { .. } => Kind::Store,
            Op::Barrier => {
                sections.push(std::mem::take(&mut section));
                continue;
            }
            _ => continue,
        };
        let range = spad_range(func, a, id).unwrap_or(full);
        section.push((id, kind, range));
    }
    sections.push(section);

    let overlap = |x: IntRange, y: IntRange| x.lo <= y.hi && y.lo <= x.hi;
    for nodes in &sections {
        let n = nodes.len();
        if n < 2 {
            continue;
        }
        let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut prev_core: Option<usize> = None;
        let mut prev_stream: Option<usize> = None;
        for (i, (_, kind, range)) in nodes.iter().enumerate() {
            match kind {
                Kind::Load | Kind::Store => {
                    if let Some(p) = prev_core {
                        succ[p].push(i);
                    }
                    prev_core = Some(i);
                }
                Kind::Fill | Kind::Drain => {
                    if let Some(p) = prev_stream {
                        succ[p].push(i);
                    }
                    prev_stream = Some(i);
                }
            }
            for (j, (_, jkind, jrange)) in nodes.iter().enumerate() {
                if i == j || !overlap(*range, *jrange) {
                    continue;
                }
                match (kind, jkind) {
                    // A load blocks until the overlapping fill lands.
                    (Kind::Fill, Kind::Load) => succ[i].push(j),
                    // A drain blocks until the overlapping store lands.
                    (Kind::Store, Kind::Drain) => succ[i].push(j),
                    _ => {}
                }
            }
        }
        if let Some(cycle) = find_cycle(&succ) {
            let names: Vec<String> = cycle
                .iter()
                .map(|&i| {
                    let (id, _, _) = nodes[i];
                    format!("inst{} ({})", id.index(), func.inst(id).op.mnemonic())
                })
                .collect();
            let first = cycle.iter().map(|&i| nodes[i].0).min().unwrap();
            diags.push(Diagnostic {
                rule: "stream-deadlock",
                severity: Severity::Error,
                span: Span::at_inst(first),
                message: format!(
                    "fill/drain handshake cycle: {} -> back to start",
                    names.join(" -> ")
                ),
            });
        }
    }
}

/// First cycle in a successor graph, as node indices in order, or `None`.
fn find_cycle(succ: &[Vec<usize>]) -> Option<Vec<usize>> {
    // 0 = white, 1 = on stack, 2 = done.
    let mut color = vec![0u8; succ.len()];
    let mut stack: Vec<usize> = Vec::new();
    fn dfs(
        v: usize,
        succ: &[Vec<usize>],
        color: &mut [u8],
        stack: &mut Vec<usize>,
    ) -> Option<Vec<usize>> {
        color[v] = 1;
        stack.push(v);
        for &w in &succ[v] {
            match color[w] {
                0 => {
                    if let Some(c) = dfs(w, succ, color, stack) {
                        return Some(c);
                    }
                }
                1 => {
                    let from = stack.iter().position(|&x| x == w).unwrap();
                    return Some(stack[from..].to_vec());
                }
                _ => {}
            }
        }
        stack.pop();
        color[v] = 2;
        None
    }
    for v in 0..succ.len() {
        if color[v] == 0 {
            if let Some(c) = dfs(v, succ, &mut color, &mut stack) {
                return Some(c);
            }
        }
    }
    None
}

/// `tape-never-loaded` (warning): a tape array the FWD pass writes but no
/// REV code ever reads — the min-tape heuristic missed a recompute/reload
/// opportunity, and the stores are pure overhead.
fn tape_never_loaded(func: &Function, a: &Analysis, diags: &mut Vec<Diagnostic>) {
    let mut written: HashMap<ArrayId, InstId> = HashMap::new();
    let mut read: HashSet<ArrayId> = HashSet::new();
    for &(id, _) in &a.order {
        match func.inst(id).op {
            Op::Store(arr)
            | Op::StreamOut(arr)
            | Op::StreamOutC { array: arr, .. }
            | Op::TapeStore { array: arr, .. }
                if func.array(arr).kind.is_tape() =>
            {
                written.entry(arr).or_insert(id);
            }
            Op::Load(arr)
            | Op::StreamIn(arr)
            | Op::StreamInC { array: arr, .. }
            | Op::TapeLoad { array: arr, .. }
                if func.array(arr).kind.is_tape() =>
            {
                read.insert(arr);
            }
            _ => {}
        }
    }
    for arr in func.arrays_of_kind(ArrayKind::Tape) {
        if let Some(&site) = written.get(&arr) {
            if !read.contains(&arr) {
                diags.push(Diagnostic {
                    rule: "tape-never-loaded",
                    severity: Severity::Warning,
                    span: Span {
                        inst: Some(site.index()),
                        array: Some(arr.index()),
                    },
                    message: format!(
                        "tape {} is stored in FWD but never loaded in REV",
                        arr_label(func, arr)
                    ),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

/// Renders diagnostics as an aligned text table (empty string for none).
pub fn render_table(diags: &[Diagnostic]) -> String {
    if diags.is_empty() {
        return String::new();
    }
    let rows: Vec<[String; 4]> = diags
        .iter()
        .map(|d| {
            [
                d.severity.label().to_string(),
                d.rule.to_string(),
                d.span.render(),
                d.message.clone(),
            ]
        })
        .collect();
    let header = ["severity", "rule", "span", "message"];
    let mut width = [0usize; 3];
    for c in 0..3 {
        width[c] = header[c].len();
        for r in &rows {
            width[c] = width[c].max(r[c].len());
        }
    }
    let mut out = String::new();
    out.push_str(&format!(
        "{:<w0$}  {:<w1$}  {:<w2$}  {}\n",
        header[0],
        header[1],
        header[2],
        header[3],
        w0 = width[0],
        w1 = width[1],
        w2 = width[2]
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<w0$}  {:<w1$}  {:<w2$}  {}\n",
            r[0],
            r[1],
            r[2],
            r[3],
            w0 = width[0],
            w1 = width[1],
            w2 = width[2]
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::types::Scalar;
    use crate::verify::verify;

    fn cfg() -> LintConfig {
        LintConfig::default()
    }

    fn rules(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.rule).collect()
    }

    #[test]
    fn clean_function_has_no_findings() {
        let mut b = FunctionBuilder::new("clean");
        let t = b.array("t", 8, ArrayKind::Tape, Scalar::F64);
        b.for_loop("i", 0, 8, |b, i| {
            let v = b.f64(1.0);
            b.store(t, i, v);
        });
        b.for_loop("r", 0, 8, |b, i| {
            let _ = b.load(t, i);
        });
        let f = b.finish();
        verify(&f).unwrap();
        assert!(lint_function(&f, &cfg()).is_empty());
    }

    #[test]
    fn flags_out_of_bounds_tape_indices() {
        let mut b = FunctionBuilder::new("oob");
        let t = b.array("t", 8, ArrayKind::Tape, Scalar::F64);
        b.for_loop("i", 0, 16, |b, i| {
            let v = b.f64(1.0);
            b.store(t, i, v);
        });
        b.for_loop("r", 0, 16, |b, i| {
            let _ = b.load(t, i);
        });
        let f = b.finish();
        verify(&f).unwrap();
        let diags = lint_function(&f, &cfg());
        assert_eq!(rules(&diags), ["tape-index-oob", "tape-index-oob"]);
        assert!(diags[0].message.contains("[0, 15]"), "{}", diags[0].message);
    }

    #[test]
    fn clamped_indices_are_in_bounds() {
        // min/max clamping must be understood by the value-range analysis.
        let mut b = FunctionBuilder::new("clamp");
        let t = b.array("t", 8, ArrayKind::Tape, Scalar::F64);
        b.for_loop("i", 0, 16, |b, i| {
            let hi = b.i64(7);
            let idx = b.imin(i, hi);
            let v = b.f64(1.0);
            b.store(t, idx, v);
            let _ = b.load(t, idx);
        });
        let f = b.finish();
        verify(&f).unwrap();
        assert!(lint_function(&f, &cfg()).is_empty());
    }

    #[test]
    fn reversed_loops_get_correct_iv_interval() {
        let mut b = FunctionBuilder::new("rev");
        let t = b.array("t", 8, ArrayKind::Tape, Scalar::F64);
        b.for_loop("i", 0, 8, |b, i| {
            let v = b.f64(1.0);
            b.store(t, i, v);
        });
        b.for_loop_step("r", 7, -1, -1, |b, i| {
            let _ = b.load(t, i);
        });
        let f = b.finish();
        verify(&f).unwrap();
        assert!(lint_function(&f, &cfg()).is_empty());
    }

    #[test]
    fn partial_tile_streams_are_in_bounds() {
        // The streaming pass's last-tile shape: base = tile·2·28 with
        // elems = min(2, 3 − tile·2)·28 over tile in 0..2. Independent
        // interval bounds give end ≤ 56 + 56 = 112 > 84; the correlated
        // sum bound proves end ≤ 84.
        let mut b = FunctionBuilder::new("tiles");
        let t = b.array("t", 84, ArrayKind::Tape, Scalar::F64);
        b.push_inst(Op::SAlloc { size: 64, base: 0 }, vec![]);
        let z = b.i64(0);
        b.for_loop("tile", 0, 2, |b, tile| {
            let two = b.i64(2);
            let three = b.i64(3);
            let k = b.i64(28);
            let start = b.imul(tile, two);
            let left = b.isub(three, start);
            let iters = b.imin(two, left);
            let base = b.imul(start, k);
            let elems = b.imul(iters, k);
            b.push_inst(Op::StreamOut(t), vec![z, base, elems]);
            b.push_inst(Op::Barrier, vec![]);
        });
        b.for_loop("r", 0, 84, |b, i| {
            let _ = b.load(t, i);
        });
        let f = b.finish();
        verify(&f).unwrap();
        assert!(lint_function(&f, &cfg()).is_empty());
    }

    #[test]
    fn short_last_tile_of_a_two_level_nest_is_in_bounds() {
        // 200 rows of 2 elements in tiles of 32: the last tile has 8 rows.
        // FWD streams row `tile·32 + in` out for `in < min(32, 200 −
        // tile·32)`; REV walks both levels backwards. The rows' hulls give
        // (6·32 + 31)·2 + 1 = 447; tying `in` to its loop bound proves the
        // transfers end exactly at element 399.
        let build = |len: usize| {
            let mut b = FunctionBuilder::new("short_tile");
            let t = b.array("R0", len, ArrayKind::Tape, Scalar::F64);
            b.push_inst(Op::SAlloc { size: 2, base: 0 }, vec![]);
            let z = b.i64(0);
            let two = b.i64(2);
            let tile_rows = b.i64(32);
            let total = b.i64(200);
            let one = b.i64(1);
            let row_range = |b: &mut FunctionBuilder, tile: ValueId| {
                let start = b.imul(tile, tile_rows);
                let left = b.isub(total, start);
                (start, b.imin(tile_rows, left))
            };
            b.for_loop("i.tile", 0, 7, |b, tile| {
                let (start, rows) = row_range(b, tile);
                b.for_loop_step("i.in", 0, rows, 1, |b, i| {
                    let row = b.iadd(start, i);
                    let base = b.imul(row, two);
                    b.push_inst(Op::StreamOut(t), vec![z, base, two]);
                    b.push_inst(Op::Barrier, vec![]);
                });
            });
            b.for_loop_step("ri.tile", 6, -1, -1, |b, tile| {
                let (start, rows) = row_range(b, tile);
                let last = b.isub(rows, one);
                b.for_loop_step("ri.in", last, -1, -1, |b, i| {
                    let row = b.iadd(start, i);
                    let base = b.imul(row, two);
                    b.push_inst(Op::StreamIn(t), vec![z, base, two]);
                    b.push_inst(Op::Barrier, vec![]);
                });
            });
            let f = b.finish();
            verify(&f).unwrap();
            lint_function(&f, &cfg())
        };
        let diags = build(400);
        assert!(diags.is_empty(), "{diags:?}");
        let short = build(399);
        assert_eq!(rules(&short), ["tape-index-oob", "tape-index-oob"]);
        assert!(
            short[0].message.contains("[0, 399]"),
            "{}",
            short[0].message
        );
    }

    #[test]
    fn flags_read_before_write() {
        let mut b = FunctionBuilder::new("rbw");
        let t = b.array("t", 8, ArrayKind::Tape, Scalar::F64);
        b.for_loop("r", 0, 8, |b, i| {
            let _ = b.load(t, i);
        });
        b.for_loop("i", 0, 8, |b, i| {
            let v = b.f64(1.0);
            b.store(t, i, v);
        });
        let f = b.finish();
        verify(&f).unwrap();
        assert_eq!(
            rules(&lint_function(&f, &cfg())),
            ["tape-read-before-write"]
        );
    }

    #[test]
    fn flags_salloc_past_capacity_and_oob_access() {
        let mut b = FunctionBuilder::new("cap");
        b.push_inst(Op::SAlloc { size: 192, base: 0 }, vec![]);
        let idx = b.i64(191);
        let v = b.f64(1.0);
        b.push_inst(Op::SpadStore, vec![idx, v]);
        let f = b.finish();
        verify(&f).unwrap();
        let diags = lint_function(&f, &cfg());
        assert_eq!(rules(&diags), ["spad-capacity", "spad-oob"]);
    }

    #[test]
    fn flags_power_of_two_stride_bank_conflict() {
        let mut b = FunctionBuilder::new("banks");
        b.push_inst(Op::SAlloc { size: 128, base: 0 }, vec![]);
        b.for_loop("i", 0, 8, |b, i| {
            let k = b.i64(16);
            let idx = b.imul(i, k);
            let _ = b.push_inst(Op::SpadLoad, vec![idx]);
        });
        let f = b.finish();
        verify(&f).unwrap();
        let diags = lint_function(&f, &cfg());
        assert_eq!(rules(&diags), ["spad-bank-conflict"]);
        assert_eq!(diags[0].severity, Severity::Warning);
        assert!(diags[0].message.contains("1 of 16"), "{}", diags[0].message);
    }

    #[test]
    fn coprime_stride_has_no_bank_conflict() {
        let mut b = FunctionBuilder::new("banks_ok");
        b.push_inst(Op::SAlloc { size: 128, base: 0 }, vec![]);
        b.for_loop("i", 0, 8, |b, i| {
            let k = b.i64(3);
            let idx = b.imul(i, k);
            let _ = b.push_inst(Op::SpadLoad, vec![idx]);
        });
        let f = b.finish();
        verify(&f).unwrap();
        assert!(lint_function(&f, &cfg()).is_empty());
    }

    #[test]
    fn flags_fill_drain_cycle() {
        // stream.out waits on a spad.store that waits (via the core's
        // program order) on a spad.load that waits on a stream.in queued
        // behind the stream.out: classic circular handshake.
        let mut b = FunctionBuilder::new("cycle");
        let t = b.array("t", 8, ArrayKind::Tape, Scalar::F64);
        b.push_inst(Op::SAlloc { size: 8, base: 0 }, vec![]);
        let z = b.i64(0);
        let one = b.i64(1);
        let n = b.i64(8);
        b.push_inst(Op::StreamOut(t), vec![z, z, n]);
        let v = b.push_inst(Op::SpadLoad, vec![z]).unwrap();
        b.push_inst(Op::SpadStore, vec![one, v]);
        b.push_inst(Op::StreamIn(t), vec![z, z, n]);
        b.push_inst(Op::Barrier, vec![]);
        let f = b.finish();
        verify(&f).unwrap();
        let diags = lint_function(&f, &cfg());
        assert_eq!(rules(&diags), ["stream-deadlock"]);
    }

    #[test]
    fn well_ordered_streams_do_not_deadlock() {
        // FWD layer (stores then drain), barrier, REV layer (fill then
        // loads): the shapes the pipeline actually emits.
        let mut b = FunctionBuilder::new("ok");
        let t = b.array("t", 8, ArrayKind::Tape, Scalar::F64);
        b.push_inst(Op::SAlloc { size: 8, base: 0 }, vec![]);
        let z = b.i64(0);
        let n = b.i64(8);
        b.for_loop("i", 0, 8, |b, i| {
            let v = b.f64(2.0);
            b.push_inst(Op::SpadStore, vec![i, v]);
        });
        b.push_inst(Op::StreamOut(t), vec![z, z, n]);
        b.push_inst(Op::Barrier, vec![]);
        b.push_inst(Op::StreamIn(t), vec![z, z, n]);
        b.for_loop("r", 0, 8, |b, i| {
            let _ = b.push_inst(Op::SpadLoad, vec![i]);
        });
        b.push_inst(Op::Barrier, vec![]);
        let f = b.finish();
        verify(&f).unwrap();
        assert!(lint_function(&f, &cfg()).is_empty());
    }

    #[test]
    fn flags_tape_never_loaded() {
        let mut b = FunctionBuilder::new("dead");
        let t = b.array("t", 8, ArrayKind::Tape, Scalar::F64);
        b.for_loop("i", 0, 8, |b, i| {
            let v = b.f64(1.0);
            b.store(t, i, v);
        });
        let f = b.finish();
        verify(&f).unwrap();
        let diags = lint_function(&f, &cfg());
        assert_eq!(rules(&diags), ["tape-never-loaded"]);
        assert_eq!(diags[0].severity, Severity::Warning);
    }

    #[test]
    fn streamed_tape_form_lints_clean() {
        // The Pass-3 terminal shape: FWD tape.store + stream.out, barrier,
        // REV stream.in + tape.load.
        let mut b = FunctionBuilder::new("st");
        let t = b.array("R0", 16, ArrayKind::Tape, Scalar::F64);
        b.push_inst(Op::SAlloc { size: 16, base: 0 }, vec![]);
        let z = b.i64(0);
        let n = b.i64(16);
        b.for_loop("i", 0, 16, |b, i| {
            let v = b.f64(1.0);
            b.push_inst(Op::TapeStore { array: t, off: 0 }, vec![i, v]);
        });
        b.push_inst(Op::StreamOut(t), vec![z, z, n]);
        b.push_inst(Op::Barrier, vec![]);
        b.push_inst(
            Op::StreamInC {
                array: t,
                struct_elems: 1,
                struct_bytes: 4,
            },
            vec![z, z, n],
        );
        b.for_loop("r", 0, 16, |b, i| {
            let _ = b.push_inst(
                Op::TapeLoad {
                    array: t,
                    rsize: 1,
                    off: 0,
                },
                vec![i, i],
            );
        });
        b.push_inst(Op::Barrier, vec![]);
        let f = b.finish();
        verify(&f).unwrap();
        let diags = lint_function(&f, &cfg());
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn flags_tape_load_oob() {
        let mut b = FunctionBuilder::new("tl_oob");
        let t = b.array("R0", 16, ArrayKind::Tape, Scalar::F64);
        b.for_loop("i", 0, 16, |b, i| {
            let v = b.f64(1.0);
            b.store(t, i, v);
        });
        b.for_loop("r", 0, 16, |b, i| {
            // lin reaches 15, rsize 2 -> element 30 past the 16-entry tape.
            let _ = b.push_inst(
                Op::TapeLoad {
                    array: t,
                    rsize: 2,
                    off: 0,
                },
                vec![i, i],
            );
        });
        let f = b.finish();
        verify(&f).unwrap();
        let diags = lint_function(&f, &cfg());
        assert!(rules(&diags).contains(&"tape-index-oob"), "{diags:?}");
    }

    #[test]
    fn diagnostics_sort_stably() {
        let mk = |rule: &'static str, sev, inst| Diagnostic {
            rule,
            severity: sev,
            span: Span {
                inst: Some(inst),
                array: None,
            },
            message: String::from("m"),
        };
        let mut a = vec![
            mk("b-rule", Severity::Warning, 0),
            mk("a-rule", Severity::Error, 9),
            mk("a-rule", Severity::Error, 2),
        ];
        let mut b = a.clone();
        b.reverse();
        sort_diagnostics(&mut a);
        sort_diagnostics(&mut b);
        assert_eq!(a, b);
        assert_eq!(a[0].span.inst, Some(2));
        assert_eq!(a[2].rule, "b-rule");
    }

    #[test]
    fn table_renders_aligned_columns() {
        let diags = vec![Diagnostic {
            rule: "spad-capacity",
            severity: Severity::Error,
            span: Span::at_inst(InstId::new(3)),
            message: String::from("boom"),
        }];
        let t = render_table(&diags);
        assert!(t.starts_with("severity"), "{t}");
        assert!(t.contains("spad-capacity"), "{t}");
        assert!(t.contains("inst3"), "{t}");
        assert!(render_table(&[]).is_empty());
    }
}
