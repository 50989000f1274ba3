//! The shared gradient-function rewriter behind Pass 1's layout change
//! and Pass 3's terminal stream lowering.
//!
//! Walking the gradient function once, it
//!
//! * replaces every per-value tape array with its merged array-of-structs
//!   region (Pass 1's layout change — also the whole story in
//!   [`crate::CompileMode::AosOnly`], via `Lowering::Aos`);
//! * restructures each region loop according to the Pass 2 plan — tiling
//!   it into layer-sized chunks or cutting its body into segments — and
//!   terminates every layer with a barrier (Pass 2's schedule);
//! * inserts `FWD-Stream`/`REV-Stream` commands at layer boundaries with
//!   statically computed DRAM tile addresses and double-buffered
//!   scratchpad bases (Pass 3; the static mirrored addressing plays the
//!   role of the paper's runtime stream stack, and a LIFO-order check in
//!   the test suite verifies the equivalence);
//! * lowers tape stores/loads to the first-class stream-command ops
//!   [`Op::TapeStore`]/[`Op::TapeLoad`] — scratchpad side explicit, DRAM
//!   side carried by the stream commands — emitting §3.7 redundant
//!   duplicate stores at segment tails;
//! * applies a Pass 5 [`TapeEncoding`] when one is present: elided slots'
//!   stores disappear, their loads rematerialize from the input array,
//!   and width-narrowed regions stream through
//!   [`Op::StreamOutC`]/[`Op::StreamInC`] codecs.
//!
//! The result is the `streams` pass's terminal IR (see
//! [`crate::streams`]); rewriting the tape ops into plain scratchpad
//! accesses is Pass 4's job ([`crate::spad_index`]), a separate
//! structural rewrite that no longer shares this walk.

use crate::compress::{RematRecipe, TapeEncoding};
use crate::layering::{LayerPlan, RegionLayout, Segment, Site};
use crate::{CompileOptions, CompileStats, CoreError};
use std::collections::{HashMap, HashSet};
use tapeflow_autodiff::{Gradient, Span};
use tapeflow_ir::{
    ArrayId, ArrayKind, Bound, Const, Function, InstId, LoopId, Op, Provenance, Scalar, Stmt,
    ValueDef, ValueId,
};

/// How far the rewriter lowers tape accesses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Lowering {
    /// Pass 1 only: merged AoS regions, cache-resident accesses
    /// ([`CompileMode::AosOnly`]).
    Aos,
    /// Passes 1–3: layers, streams, and `tape.store`/`tape.load` ops —
    /// the `streams` pass's terminal form.
    Tape,
}

/// Runs the rewriter, returning the rewritten (verified) function and
/// its FWD/REV phase barrier.
///
/// # Errors
///
/// [`CoreError::Internal`] if the rewritten function fails verification.
pub(crate) fn rewrite(
    grad: &Gradient,
    plan: &LayerPlan,
    opts: CompileOptions,
    lowering: Lowering,
    encoding: Option<&TapeEncoding>,
) -> Result<(Function, InstId), CoreError> {
    let mut rw = Rw::new(grad, plan, opts, lowering, encoding);
    rw.g.set_prov_ctx(Provenance::created_by(rw.pass()));
    let mut body = Vec::new();
    rw.walk(&grad.func.body, &mut body)?;
    rw.g.body = body;
    tapeflow_ir::verify::verify(&rw.g)?;
    let phase_barrier = rw.new_phase_barrier.ok_or_else(|| {
        CoreError::Pipeline("rewritten function lost its FWD/REV phase barrier".into())
    })?;
    Ok((rw.g, phase_barrier))
}

/// The compile-stats block summarizing a plan (shared by the terminal
/// passes).
pub(crate) fn compile_stats(plan: &LayerPlan, opts: &CompileOptions) -> CompileStats {
    CompileStats {
        regions: plan.regions.len(),
        fwd_layers: plan.total_fwd_layers,
        duplicated_slots: plan
            .regions
            .iter()
            .map(|r| match &r.layout {
                RegionLayout::Segmented { segments } => segments.iter().map(|s| s.dups.len()).sum(),
                _ => 0,
            })
            .sum(),
        merged_tape_bytes: plan.regions.iter().map(|r| r.merged_len() as u64 * 8).sum(),
        spad_entries: opts.spad_entries,
    }
}

struct TileCtx {
    region: usize,
    base: ValueId,
    /// Local tile iteration (`Some` for tiled layouts, `None` for
    /// segmented ones where the layer holds a single struct).
    local_iv: Option<ValueId>,
    rsize: usize,
    /// Collapsed inner loops (old loop ids, outermost first) whose full
    /// sweep lives inside one layer struct, with their trip counts.
    collapsed: Vec<(LoopId, u64)>,
    /// Product of the collapsed trips.
    inner_prod: u64,
}

struct Rw<'a> {
    grad: &'a Gradient,
    plan: &'a LayerPlan,
    opts: CompileOptions,
    lowering: Lowering,
    g: Function,
    vmap: Vec<Option<ValueId>>,
    consts: HashMap<(bool, u64), ValueId>,
    merged: Vec<ArrayId>,
    fwd_region_loop: HashMap<LoopId, usize>,
    rev_region_loop: HashMap<LoopId, usize>,
    /// Ordinal value and trip count per open old loop.
    ord_stack: Vec<(LoopId, ValueId, u64)>,
    tile_stack: Vec<TileCtx>,
    new_phase_barrier: Option<InstId>,
    /// Pass 5: FWD tape stores dropped entirely (elided slots).
    elide: HashSet<InstId>,
    /// Pass 5: REV tape loads rebuilt from an input array.
    remat: HashMap<InstId, RematRecipe>,
    /// Pass 5: per-region stream codec (`struct_elems`, `struct_bytes`).
    codec: Vec<Option<(u16, u16)>>,
}

impl<'a> Rw<'a> {
    fn new(
        grad: &'a Gradient,
        plan: &'a LayerPlan,
        opts: CompileOptions,
        lowering: Lowering,
        encoding: Option<&TapeEncoding>,
    ) -> Self {
        let mut g = Function::new(format!("tf_{}", grad.func.name));
        // Managed per-value tape arrays disappear (their merged region
        // replaces them); shrink to zero so they cost no address space.
        // Elided slots' arrays disappear too: their accesses are dropped
        // or rematerialized, so they are managed without being sited.
        let mut managed: std::collections::HashSet<ArrayId> = plan
            .regions
            .iter()
            .flat_map(|r| r.region.tapes.iter().map(|&t| grad.tapes[t].array))
            .collect();
        let (elide, remat, codec) = match encoding {
            Some(enc) => {
                let elide = enc.elided_stores(grad);
                for (k, s) in enc.slots.iter().enumerate() {
                    if matches!(s, crate::compress::SlotEncoding::Remat(_)) {
                        managed.insert(grad.tapes[k].array);
                    }
                }
                (elide, enc.remat_loads(grad), enc.region_codec.clone())
            }
            None => (
                HashSet::new(),
                HashMap::new(),
                vec![None; plan.regions.len()],
            ),
        };
        for (i, a) in grad.func.arrays().iter().enumerate() {
            let len = if managed.contains(&ArrayId::new(i)) {
                0
            } else {
                a.len
            };
            let id = g.add_array(a.name.clone(), len, a.kind, a.elem);
            if let Some(r) = a.range {
                g.set_array_range(id, r);
            }
        }
        let mut merged = Vec::with_capacity(plan.regions.len());
        for (ri, rp) in plan.regions.iter().enumerate() {
            merged.push(g.add_array(
                format!("R{ri}"),
                rp.merged_len(),
                ArrayKind::Tape,
                Scalar::F64,
            ));
        }
        // Region loops are restructured for both the streamed snapshot
        // and the final scratchpad-indexed form.
        let layered = lowering != Lowering::Aos;
        let mut fwd_region_loop = HashMap::new();
        let mut rev_region_loop = HashMap::new();
        if layered {
            for (ri, rp) in plan.regions.iter().enumerate() {
                let collapse = match rp.layout {
                    RegionLayout::LayoutOnly => continue,
                    RegionLayout::Tiled { collapse, .. } => collapse,
                    RegionLayout::Segmented { .. } => 0,
                };
                let l = rp.region.path[rp.region.path.len() - 1 - collapse];
                fwd_region_loop.insert(l, ri);
                rev_region_loop.insert(grad.loop_map[&l], ri);
            }
        }
        Rw {
            grad,
            plan,
            opts,
            lowering,
            g,
            vmap: vec![None; grad.func.values().len()],
            consts: HashMap::new(),
            merged,
            fwd_region_loop,
            rev_region_loop,
            ord_stack: Vec::new(),
            tile_stack: Vec::new(),
            new_phase_barrier: None,
            elide,
            remat,
            codec,
        }
    }

    // ---- helpers -----------------------------------------------------------

    /// Pass name stamped into the provenance of instructions this
    /// rewriter creates.
    fn pass(&self) -> &'static str {
        match self.lowering {
            Lowering::Aos => "aos-layout",
            Lowering::Tape => "streams",
        }
    }

    /// Provenance template for pass-created helper instructions at the
    /// current walk position: the pass name, plus the innermost open
    /// region if the walk is inside one.
    fn scope_prov(&self) -> Provenance {
        let mut p = Provenance::created_by(self.pass());
        if let Some(ctx) = self.tile_stack.last() {
            p = p.with_region(ctx.region as u32);
        }
        p
    }

    fn cf(&mut self, v: f64) -> ValueId {
        let key = (true, v.to_bits());
        if let Some(&id) = self.consts.get(&key) {
            return id;
        }
        let id = self.g.add_const(Const::F64(v));
        self.consts.insert(key, id);
        id
    }

    fn ci(&mut self, v: i64) -> ValueId {
        let key = (false, v as u64);
        if let Some(&id) = self.consts.get(&key) {
            return id;
        }
        let id = self.g.add_const(Const::I64(v));
        self.consts.insert(key, id);
        id
    }

    fn emit(&mut self, out: &mut Vec<Stmt>, op: Op, args: Vec<ValueId>) -> Option<ValueId> {
        let (i, r) = self.g.add_inst(op, args);
        out.push(Stmt::Inst(i));
        r
    }

    fn emit_r(&mut self, out: &mut Vec<Stmt>, op: Op, args: Vec<ValueId>) -> ValueId {
        self.emit(out, op, args).expect("op defines a result")
    }

    fn map_val(&mut self, v: ValueId) -> ValueId {
        match self.grad.func.value(v).def {
            ValueDef::Const(Const::F64(c)) => self.cf(c),
            ValueDef::Const(Const::I64(c)) => self.ci(c),
            _ => self.vmap[v.index()].expect("value mapped before use"),
        }
    }

    fn map_bound(&mut self, b: Bound) -> Bound {
        match b {
            Bound::Const(c) => Bound::Const(c),
            Bound::Value(v) => Bound::Value(self.map_val(v)),
        }
    }

    /// Emits `(iv - start) / step`, folding the trivial case.
    fn ordinal_of(&mut self, iv: ValueId, start: i64, step: i64, out: &mut Vec<Stmt>) -> ValueId {
        if start == 0 && step == 1 {
            return iv;
        }
        let s = self.ci(start);
        let d = self.emit_r(out, Op::ISub, vec![iv, s]);
        if step == 1 {
            d
        } else {
            let st = self.ci(step);
            self.emit_r(out, Op::IDiv, vec![d, st])
        }
    }

    /// Linearizes the ordinals of the loops in `path` (must all be on the
    /// ordinal stack).
    fn fold_lin(&mut self, path: &[LoopId], out: &mut Vec<Stmt>) -> ValueId {
        if path.is_empty() {
            return self.ci(0);
        }
        let lookup = |me: &Self, l: LoopId| -> (ValueId, u64) {
            me.ord_stack
                .iter()
                .rev()
                .find(|(ol, _, _)| *ol == l)
                .map(|&(_, o, t)| (o, t))
                .expect("path loop ordinal on stack")
        };
        let (mut lin, _) = lookup(self, path[0]);
        for &l in &path[1..] {
            let (o, trip) = lookup(self, l);
            let t = self.ci(trip as i64);
            let m = self.emit_r(out, Op::IMul, vec![lin, t]);
            lin = self.emit_r(out, Op::IAdd, vec![m, o]);
        }
        lin
    }

    /// Scratchpad buffer base for the current layer instance.
    fn buffer_base(
        &mut self,
        spad_base: u32,
        range: u32,
        parity_src: Option<ValueId>,
        out: &mut Vec<Stmt>,
    ) -> ValueId {
        let base_c = self.ci(spad_base as i64);
        match (self.opts.double_buffer, parity_src) {
            (true, Some(src)) => {
                let two = self.ci(2);
                let par = self.emit_r(out, Op::IRem, vec![src, two]);
                let half = self.ci((range / 2) as i64);
                let off = self.emit_r(out, Op::IMul, vec![par, half]);
                self.emit_r(out, Op::IAdd, vec![base_c, off])
            }
            _ => base_c,
        }
    }

    /// Rebuilds an elided slot's value by reloading its input array:
    /// `array[konst + sum(coeff * rev_ordinal)]` (Pass 5 remat).
    fn emit_remat(&mut self, recipe: &RematRecipe, out: &mut Vec<Stmt>) -> ValueId {
        let mut idx = self.ci(recipe.konst);
        for &(rl, c) in &recipe.terms {
            let ord = self
                .ord_stack
                .iter()
                .rev()
                .find(|(ol, _, _)| *ol == rl)
                .map(|&(_, o, _)| o)
                .expect("remat loop ordinal on stack");
            let c_c = self.ci(c);
            let m = self.emit_r(out, Op::IMul, vec![ord, c_c]);
            idx = self.emit_r(out, Op::IAdd, vec![idx, m]);
        }
        self.emit_r(out, Op::Load(recipe.array), vec![idx])
    }

    /// `FWD-Stream` drain op for region `ri` (codec-aware).
    fn stream_out_op(&self, ri: usize) -> Op {
        match self.codec[ri] {
            Some((e, b)) => Op::StreamOutC {
                array: self.merged[ri],
                struct_elems: e,
                struct_bytes: b,
            },
            None => Op::StreamOut(self.merged[ri]),
        }
    }

    /// `REV-Stream` fill op for region `ri` (codec-aware).
    fn stream_in_op(&self, ri: usize) -> Op {
        match self.codec[ri] {
            Some((e, b)) => Op::StreamInC {
                array: self.merged[ri],
                struct_elems: e,
                struct_bytes: b,
            },
            None => Op::StreamIn(self.merged[ri]),
        }
    }

    // ---- main walk -----------------------------------------------------------

    fn walk(&mut self, stmts: &[Stmt], out: &mut Vec<Stmt>) -> Result<(), CoreError> {
        for s in stmts {
            match s {
                Stmt::Inst(old) => self.rewrite_inst(*old, out),
                Stmt::For { loop_id, body } => {
                    if let Some(&ri) = self.fwd_region_loop.get(loop_id) {
                        match &self.plan.regions[ri].layout {
                            RegionLayout::Tiled {
                                tile_iters,
                                collapse,
                                inner_prod,
                            } => {
                                let (t, c, ip) = (*tile_iters, *collapse, *inner_prod);
                                self.emit_fwd_tiled(ri, t, c, ip, *loop_id, body, out)?;
                            }
                            RegionLayout::Segmented { segments } => {
                                let segs = segments.clone();
                                self.emit_fwd_segmented(ri, &segs, *loop_id, body, out)?;
                            }
                            RegionLayout::LayoutOnly => unreachable!("not in region maps"),
                        }
                    } else if let Some(&ri) = self.rev_region_loop.get(loop_id) {
                        match &self.plan.regions[ri].layout {
                            RegionLayout::Tiled {
                                tile_iters,
                                collapse,
                                inner_prod,
                            } => {
                                let (t, c, ip) = (*tile_iters, *collapse, *inner_prod);
                                self.emit_rev_tiled(ri, t, c, ip, *loop_id, body, out)?;
                            }
                            RegionLayout::Segmented { segments } => {
                                let segs = segments.clone();
                                self.emit_rev_segmented(ri, &segs, *loop_id, body, out)?;
                            }
                            RegionLayout::LayoutOnly => unreachable!("not in region maps"),
                        }
                    } else {
                        self.clone_loop(*loop_id, body, out)?;
                    }
                }
            }
        }
        Ok(())
    }

    fn clone_loop(
        &mut self,
        old: LoopId,
        body: &[Stmt],
        out: &mut Vec<Stmt>,
    ) -> Result<(), CoreError> {
        let info = self.grad.func.loop_info(old).clone();
        let ctx = self.scope_prov();
        self.g.set_prov_ctx(ctx);
        let start = self.map_bound(info.start);
        let end = self.map_bound(info.end);
        let (nlid, niv) = self.g.add_loop(info.name.clone(), start, end, info.step);
        self.vmap[info.iv.index()] = Some(niv);
        let mut inner = Vec::new();
        // Keep an ordinal available for stream addressing in nested
        // regions. REV loops iterate ordinals directly; FWD loops derive
        // theirs from the induction variable.
        let trip = info.trip_count().unwrap_or(0);
        let is_rev = self.grad.loop_map.values().any(|&r| r == old);
        let ord = if is_rev {
            niv
        } else if let Some(s) = info.start.as_const() {
            self.ordinal_of(niv, s, info.step, &mut inner)
        } else {
            niv
        };
        self.ord_stack.push((old, ord, trip));
        self.walk(body, &mut inner)?;
        self.ord_stack.pop();
        out.push(Stmt::For {
            loop_id: nlid,
            body: inner,
        });
        Ok(())
    }

    fn rewrite_inst(&mut self, old: InstId, out: &mut Vec<Stmt>) {
        let inst = self.grad.func.inst(old).clone();
        let gp = self.grad.func.prov(old);
        if self.elide.contains(&old) {
            // Elided slot: the FWD store vanishes; REV rematerializes.
            return;
        }
        if let Some(recipe) = self.remat.get(&old).cloned() {
            // Rematerialized loads chain the primal they reconstruct and
            // record the compression rewrite that replaced them.
            self.g.set_prov_ctx(Provenance {
                created_by: self.pass(),
                rewritten_by: Some("tape-compress"),
                ..gp
            });
            let res = self.emit_remat(&recipe, out);
            self.vmap[inst.result.expect("load has result").index()] = Some(res);
            return;
        }
        if let Some(site) = self.plan.store_site.get(&old).copied() {
            // Lowered tape accesses keep the AD provenance chain (source
            // primal, region/layer from the plan) and record this pass
            // as the rewriter.
            self.g.set_prov_ctx(Provenance {
                region: Some(site.region as u32),
                rewritten_by: Some(self.pass()),
                ..gp
            });
            let val = self.map_val(inst.args[1]);
            match self.lowering {
                Lowering::Aos => {
                    let lin = self.map_val(inst.args[0]);
                    let idx = self.aos_index(site, lin, out);
                    self.emit(out, Op::Store(self.merged[site.region]), vec![idx, val]);
                }
                Lowering::Tape => {
                    let idx = self.spad_index(site, out);
                    let op = Op::TapeStore {
                        array: self.merged[site.region],
                        off: site.global_off as u32,
                    };
                    self.emit(out, op, vec![idx, val]);
                }
            }
            return;
        }
        if let Some(site) = self.plan.load_site.get(&old).copied() {
            self.g.set_prov_ctx(Provenance {
                region: Some(site.region as u32),
                rewritten_by: Some(self.pass()),
                ..gp
            });
            let res = match self.lowering {
                Lowering::Aos => {
                    let lin = self.map_val(inst.args[0]);
                    let idx = self.aos_index(site, lin, out);
                    self.emit_r(out, Op::Load(self.merged[site.region]), vec![idx])
                }
                Lowering::Tape => {
                    // The struct's linear index is the original store/load
                    // address chain, already cloned in the body — no new
                    // instructions here, only a reference.
                    let lin = self.map_val(inst.args[0]);
                    let idx = self.spad_index(site, out);
                    let op = Op::TapeLoad {
                        array: self.merged[site.region],
                        rsize: self.plan.regions[site.region].rsize_total as u32,
                        off: site.global_off as u32,
                    };
                    self.emit_r(out, op, vec![lin, idx])
                }
            };
            self.vmap[inst.result.expect("load has result").index()] = Some(res);
            return;
        }
        // Plain clone: the AD provenance carries over untouched.
        self.g.set_prov_ctx(gp);
        let args: Vec<ValueId> = inst.args.iter().map(|&a| self.map_val(a)).collect();
        let (nid, res) = self.g.add_inst(inst.op, args);
        out.push(Stmt::Inst(nid));
        if let (Some(r0), Some(r)) = (inst.result, res) {
            self.vmap[r0.index()] = Some(r);
        }
        if old == self.grad.phase_barrier {
            self.new_phase_barrier = Some(nid);
        }
    }

    /// `lin * rsize_total + global_off` — the AoS DRAM element index.
    fn aos_index(&mut self, site: Site, lin: ValueId, out: &mut Vec<Stmt>) -> ValueId {
        let r = self.ci(self.plan.regions[site.region].rsize_total as i64);
        let m = self.emit_r(out, Op::IMul, vec![lin, r]);
        let off = self.ci(site.global_off as i64);
        self.emit_r(out, Op::IAdd, vec![m, off])
    }

    /// Scratchpad entry index for a site, using the innermost open tile
    /// context of the site's region. For collapsed nests the struct index
    /// is `j * inner_prod + lin(collapsed ordinals)`.
    fn spad_index(&mut self, site: Site, out: &mut Vec<Stmt>) -> ValueId {
        let ctx = self
            .tile_stack
            .iter()
            .rev()
            .find(|c| c.region == site.region)
            .expect("tape access inside its region's layer");
        let (base, local_iv, rsize) = (ctx.base, ctx.local_iv, ctx.rsize);
        let collapsed = ctx.collapsed.clone();
        let inner_prod = ctx.inner_prod;
        match local_iv {
            Some(j) => {
                let struct_idx = if collapsed.is_empty() {
                    j
                } else {
                    let ip = self.ci(inner_prod as i64);
                    let jp = self.emit_r(out, Op::IMul, vec![j, ip]);
                    let path: Vec<LoopId> = collapsed.iter().map(|(l, _)| *l).collect();
                    let lin = self.fold_lin(&path, out);
                    self.emit_r(out, Op::IAdd, vec![jp, lin])
                };
                let r = self.ci(rsize as i64);
                let jr = self.emit_r(out, Op::IMul, vec![struct_idx, r]);
                let off = self.ci(site.local_off as i64);
                let jo = self.emit_r(out, Op::IAdd, vec![jr, off]);
                self.emit_r(out, Op::IAdd, vec![base, jo])
            }
            None => {
                let off = self.ci(site.local_off as i64);
                self.emit_r(out, Op::IAdd, vec![base, off])
            }
        }
    }

    // ---- tiled layouts -----------------------------------------------------------

    #[allow(clippy::too_many_lines, clippy::too_many_arguments)]
    fn emit_fwd_tiled(
        &mut self,
        ri: usize,
        tile: u64,
        collapse: usize,
        inner_prod: u64,
        old: LoopId,
        body: &[Stmt],
        out: &mut Vec<Stmt>,
    ) -> Result<(), CoreError> {
        let rp = &self.plan.regions[ri];
        let (spad_base, range, rsize) = (rp.spad_base, rp.spad_range, rp.rsize_total);
        let boundary = rp.region.path.len() - 1 - collapse;
        let outer_path: Vec<LoopId> = rp.region.path[..boundary].to_vec();
        let collapsed: Vec<(LoopId, u64)> = rp.region.path[boundary + 1..]
            .iter()
            .map(|l| {
                (
                    *l,
                    self.grad
                        .func
                        .loop_info(*l)
                        .trip_count()
                        .expect("static trip"),
                )
            })
            .collect();
        let info = self.grad.func.loop_info(old).clone();
        let n = info.trip_count().expect("static trip") as i64;
        let (s, st) = (info.start.as_const().expect("static"), info.step);
        let nt = (n as u64).div_ceil(tile) as i64;
        let region_prov = Provenance::created_by(self.pass()).with_region(ri as u32);
        self.g.set_prov_ctx(region_prov);
        let (outer_lid, t_iv) = self.g.add_loop(
            format!("{}.tile", info.name),
            Bound::Const(0),
            Bound::Const(nt),
            1,
        );
        let mut ob = Vec::new();
        self.emit(
            &mut ob,
            Op::SAlloc {
                size: range,
                base: spad_base,
            },
            vec![],
        );
        let base = self.buffer_base(spad_base, range, Some(t_iv), &mut ob);
        let t_c = self.ci(tile as i64);
        let tile_lo = self.emit_r(&mut ob, Op::IMul, vec![t_iv, t_c]);
        let n_c = self.ci(n);
        let rem = self.emit_r(&mut ob, Op::ISub, vec![n_c, tile_lo]);
        let cnt = self.emit_r(&mut ob, Op::IMin, vec![t_c, rem]);
        let (inner_lid, j_iv) = self.g.add_loop(
            format!("{}.in", info.name),
            Bound::Const(0),
            Bound::Value(cnt),
            1,
        );
        let mut ib = Vec::new();
        let o = self.emit_r(&mut ib, Op::IAdd, vec![tile_lo, j_iv]);
        let orig_iv = if s == 0 && st == 1 {
            o
        } else {
            let st_c = self.ci(st);
            let m = self.emit_r(&mut ib, Op::IMul, vec![o, st_c]);
            let s_c = self.ci(s);
            self.emit_r(&mut ib, Op::IAdd, vec![m, s_c])
        };
        self.vmap[info.iv.index()] = Some(orig_iv);
        self.ord_stack.push((old, o, n as u64));
        self.tile_stack.push(TileCtx {
            region: ri,
            base,
            local_iv: Some(j_iv),
            rsize,
            collapsed: collapsed.clone(),
            inner_prod,
        });
        self.walk(body, &mut ib)?;
        self.tile_stack.pop();
        self.ord_stack.pop();
        ob.push(Stmt::For {
            loop_id: inner_lid,
            body: ib,
        });
        // FWD-Stream: spill this layer's region tile to DRAM.
        self.g.set_prov_ctx(region_prov);
        let outer_lin = self.fold_lin(&outer_path, &mut ob);
        let a = self.emit_r(&mut ob, Op::IMul, vec![outer_lin, n_c]);
        let b = self.emit_r(&mut ob, Op::IAdd, vec![a, tile_lo]);
        let r_c = self.ci((rsize as u64 * inner_prod) as i64);
        let elem = self.emit_r(&mut ob, Op::IMul, vec![b, r_c]);
        let elems = self.emit_r(&mut ob, Op::IMul, vec![cnt, r_c]);
        let op = self.stream_out_op(ri);
        self.emit(&mut ob, op, vec![base, elem, elems]);
        self.emit(&mut ob, Op::Barrier, vec![]);
        out.push(Stmt::For {
            loop_id: outer_lid,
            body: ob,
        });
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn emit_rev_tiled(
        &mut self,
        ri: usize,
        tile: u64,
        collapse: usize,
        inner_prod: u64,
        old: LoopId,
        body: &[Stmt],
        out: &mut Vec<Stmt>,
    ) -> Result<(), CoreError> {
        let rp = &self.plan.regions[ri];
        let (spad_base, range, rsize) = (rp.spad_base, rp.spad_range, rp.rsize_total);
        let boundary = rp.region.path.len() - 1 - collapse;
        let rev_outer_path: Vec<LoopId> = rp.region.path[..boundary]
            .iter()
            .map(|l| self.grad.loop_map[l])
            .collect();
        let rev_collapsed: Vec<(LoopId, u64)> = rp.region.path[boundary + 1..]
            .iter()
            .map(|l| {
                (
                    self.grad.loop_map[l],
                    self.grad
                        .func
                        .loop_info(*l)
                        .trip_count()
                        .expect("static trip"),
                )
            })
            .collect();
        let info = self.grad.func.loop_info(old).clone();
        let n = info.trip_count().expect("static trip") as i64;
        let nt = (n as u64).div_ceil(tile) as i64;
        let region_prov = Provenance::created_by(self.pass()).with_region(ri as u32);
        self.g.set_prov_ctx(region_prov);
        let (outer_lid, t_iv) = self.g.add_loop(
            format!("{}.tile", info.name),
            Bound::Const(nt - 1),
            Bound::Const(-1),
            -1,
        );
        let mut ob = Vec::new();
        self.emit(
            &mut ob,
            Op::SAlloc {
                size: range,
                base: spad_base,
            },
            vec![],
        );
        let base = self.buffer_base(spad_base, range, Some(t_iv), &mut ob);
        let t_c = self.ci(tile as i64);
        let tile_lo = self.emit_r(&mut ob, Op::IMul, vec![t_iv, t_c]);
        let n_c = self.ci(n);
        let rem = self.emit_r(&mut ob, Op::ISub, vec![n_c, tile_lo]);
        let cnt = self.emit_r(&mut ob, Op::IMin, vec![t_c, rem]);
        // REV-Stream: preload this layer's region tile before compute.
        let outer_lin = self.fold_lin(&rev_outer_path, &mut ob);
        let a = self.emit_r(&mut ob, Op::IMul, vec![outer_lin, n_c]);
        let b = self.emit_r(&mut ob, Op::IAdd, vec![a, tile_lo]);
        let r_c = self.ci((rsize as u64 * inner_prod) as i64);
        let elem = self.emit_r(&mut ob, Op::IMul, vec![b, r_c]);
        let elems = self.emit_r(&mut ob, Op::IMul, vec![cnt, r_c]);
        let op = self.stream_in_op(ri);
        self.emit(&mut ob, op, vec![base, elem, elems]);
        let one = self.ci(1);
        let cnt_m1 = self.emit_r(&mut ob, Op::ISub, vec![cnt, one]);
        let (inner_lid, j_iv) = self.g.add_loop(
            format!("{}.in", info.name),
            Bound::Value(cnt_m1),
            Bound::Const(-1),
            -1,
        );
        let mut ib = Vec::new();
        let o = self.emit_r(&mut ib, Op::IAdd, vec![tile_lo, j_iv]);
        self.vmap[info.iv.index()] = Some(o);
        self.ord_stack.push((old, o, n as u64));
        self.tile_stack.push(TileCtx {
            region: ri,
            base,
            local_iv: Some(j_iv),
            rsize,
            collapsed: rev_collapsed,
            inner_prod,
        });
        self.walk(body, &mut ib)?;
        self.tile_stack.pop();
        self.ord_stack.pop();
        ob.push(Stmt::For {
            loop_id: inner_lid,
            body: ib,
        });
        self.g.set_prov_ctx(region_prov);
        self.emit(&mut ob, Op::Barrier, vec![]);
        out.push(Stmt::For {
            loop_id: outer_lid,
            body: ob,
        });
        Ok(())
    }

    // ---- segmented layouts (§3.7) ------------------------------------------------

    fn emit_fwd_segmented(
        &mut self,
        ri: usize,
        segments: &[Segment],
        old: LoopId,
        body: &[Stmt],
        out: &mut Vec<Stmt>,
    ) -> Result<(), CoreError> {
        let rp = &self.plan.regions[ri];
        let (spad_base, range, rsize) = (rp.spad_base, rp.spad_range, rp.rsize_total);
        let outer_path: Vec<LoopId> = rp.region.path[..rp.region.path.len() - 1].to_vec();
        let info = self.grad.func.loop_info(old).clone();
        let n = info.trip_count().expect("static trip") as i64;
        let (s, st) = (info.start.as_const().expect("static"), info.step);
        let (nlid, niv) = self
            .g
            .add_loop(info.name.clone(), info.start, info.end, info.step);
        self.vmap[info.iv.index()] = Some(niv);
        let region_prov = Provenance::created_by(self.pass()).with_region(ri as u32);
        self.g.set_prov_ctx(region_prov);
        let mut nb = Vec::new();
        let o = self.ordinal_of(niv, s, st, &mut nb);
        self.ord_stack.push((old, o, n as u64));
        let n_seg = segments.len() as i64;
        let spans = &self.grad.spans.fwd[&Some(old)];
        for (si, seg) in segments.iter().enumerate() {
            // Each segment is its own layer: stamp the segment index so
            // attribution can split the region by layer.
            let seg_prov = region_prov.with_layer(si as u32);
            self.g.set_prov_ctx(seg_prov);
            self.emit(
                &mut nb,
                Op::SAlloc {
                    size: range,
                    base: spad_base,
                },
                vec![],
            );
            // Layer parity across the whole region: o * S + si.
            let s_c = self.ci(n_seg);
            let os = self.emit_r(&mut nb, Op::IMul, vec![o, s_c]);
            let si_c = self.ci(si as i64);
            let layer_ord = self.emit_r(&mut nb, Op::IAdd, vec![os, si_c]);
            let base = self.buffer_base(spad_base, range, Some(layer_ord), &mut nb);
            self.tile_stack.push(TileCtx {
                region: ri,
                base,
                local_iv: None,
                rsize,
                collapsed: Vec::new(),
                inner_prod: 1,
            });
            let slice = segment_slice(spans, seg.src_range, body);
            self.walk(slice, &mut nb)?;
            // §3.7 redundant stores: duplicate foreign-consumed values into
            // this segment's struct.
            for (k, &t) in seg.dups.iter().enumerate() {
                let dup_store = self.grad.tapes[t].store;
                // A duplicate chains the same primal as the store it
                // shadows, placed in this segment.
                self.g.set_prov_ctx(Provenance {
                    region: Some(ri as u32),
                    layer: Some(si as u32),
                    rewritten_by: Some(self.pass()),
                    ..self.grad.func.prov(dup_store)
                });
                let store = self.grad.func.inst(dup_store).clone();
                let val = self.map_val(store.args[1]);
                let off = self.ci((seg.own.len() + k) as i64);
                let idx = self.emit_r(&mut nb, Op::IAdd, vec![base, off]);
                let op = Op::TapeStore {
                    array: self.merged[ri],
                    off: (seg.offset + seg.own.len() + k) as u32,
                };
                self.emit(&mut nb, op, vec![idx, val]);
            }
            self.tile_stack.pop();
            // FWD-Stream the segment struct.
            self.g.set_prov_ctx(seg_prov);
            let outer_lin = self.fold_lin(&outer_path, &mut nb);
            let n_c = self.ci(n);
            let a = self.emit_r(&mut nb, Op::IMul, vec![outer_lin, n_c]);
            let b = self.emit_r(&mut nb, Op::IAdd, vec![a, o]);
            let r_c = self.ci(rsize as i64);
            let m = self.emit_r(&mut nb, Op::IMul, vec![b, r_c]);
            let off_c = self.ci(seg.offset as i64);
            let elem = self.emit_r(&mut nb, Op::IAdd, vec![m, off_c]);
            let elems = self.ci(seg.size() as i64);
            let op = self.stream_out_op(ri);
            self.emit(&mut nb, op, vec![base, elem, elems]);
            self.emit(&mut nb, Op::Barrier, vec![]);
        }
        self.ord_stack.pop();
        out.push(Stmt::For {
            loop_id: nlid,
            body: nb,
        });
        Ok(())
    }

    fn emit_rev_segmented(
        &mut self,
        ri: usize,
        segments: &[Segment],
        old: LoopId,
        body: &[Stmt],
        out: &mut Vec<Stmt>,
    ) -> Result<(), CoreError> {
        let rp = &self.plan.regions[ri];
        let (spad_base, range, rsize) = (rp.spad_base, rp.spad_range, rp.rsize_total);
        let rev_outer_path: Vec<LoopId> = rp.region.path[..rp.region.path.len() - 1]
            .iter()
            .map(|l| self.grad.loop_map[l])
            .collect();
        let info = self.grad.func.loop_info(old).clone();
        let n = self.plan.regions[ri].region.trip_innermost as i64;
        let (nlid, niv) = self
            .g
            .add_loop(info.name.clone(), info.start, info.end, info.step);
        self.vmap[info.iv.index()] = Some(niv);
        let mut nb = Vec::new();
        let o = niv; // REV loops iterate ordinals.
        self.ord_stack.push((old, o, n as u64));
        let n_seg = segments.len() as i64;
        let rev_spans = &self.grad.spans.rev[&Some(old)];
        // REV visits segments last-to-first, which is the natural order of
        // the mirrored body.
        let region_prov = Provenance::created_by(self.pass()).with_region(ri as u32);
        for si in (0..segments.len()).rev() {
            let seg = &segments[si];
            let seg_prov = region_prov.with_layer(si as u32);
            self.g.set_prov_ctx(seg_prov);
            self.emit(
                &mut nb,
                Op::SAlloc {
                    size: range,
                    base: spad_base,
                },
                vec![],
            );
            let s_c = self.ci(n_seg);
            let os = self.emit_r(&mut nb, Op::IMul, vec![o, s_c]);
            let si_c = self.ci(si as i64);
            let layer_ord = self.emit_r(&mut nb, Op::IAdd, vec![os, si_c]);
            let base = self.buffer_base(spad_base, range, Some(layer_ord), &mut nb);
            // REV-Stream the segment struct in before compute.
            let outer_lin = self.fold_lin(&rev_outer_path, &mut nb);
            let n_c = self.ci(n);
            let a = self.emit_r(&mut nb, Op::IMul, vec![outer_lin, n_c]);
            let b = self.emit_r(&mut nb, Op::IAdd, vec![a, o]);
            let r_c = self.ci(rsize as i64);
            let m = self.emit_r(&mut nb, Op::IMul, vec![b, r_c]);
            let off_c = self.ci(seg.offset as i64);
            let elem = self.emit_r(&mut nb, Op::IAdd, vec![m, off_c]);
            let elems = self.ci(seg.size() as i64);
            let op = self.stream_in_op(ri);
            self.emit(&mut nb, op, vec![base, elem, elems]);
            self.tile_stack.push(TileCtx {
                region: ri,
                base,
                local_iv: None,
                rsize,
                collapsed: Vec::new(),
                inner_prod: 1,
            });
            let slice = rev_segment_slice(rev_spans, seg.src_range, body);
            self.walk(slice, &mut nb)?;
            self.tile_stack.pop();
            self.g.set_prov_ctx(seg_prov);
            self.emit(&mut nb, Op::Barrier, vec![]);
        }
        self.ord_stack.pop();
        out.push(Stmt::For {
            loop_id: nlid,
            body: nb,
        });
        Ok(())
    }
}

/// FWD-body statement slice covering source statements `[a, b)`.
fn segment_slice<'s>(spans: &[Span], (a, b): (usize, usize), body: &'s [Stmt]) -> &'s [Stmt] {
    let start = spans
        .iter()
        .find(|sp| sp.src_stmt == a)
        .map(|sp| sp.start)
        .expect("span for segment start");
    let end = spans
        .iter()
        .find(|sp| sp.src_stmt == b - 1)
        .map(|sp| sp.end)
        .expect("span for segment end");
    &body[start..end]
}

/// REV-body statement slice covering source statements `[a, b)` — the
/// mirrored body stores them reversed, so the slice starts at `b - 1`.
fn rev_segment_slice<'s>(spans: &[Span], (a, b): (usize, usize), body: &'s [Stmt]) -> &'s [Stmt] {
    let start = spans
        .iter()
        .find(|sp| sp.src_stmt == b - 1)
        .map(|sp| sp.start)
        .expect("rev span for segment end");
    let end = spans
        .iter()
        .find(|sp| sp.src_stmt == a)
        .map(|sp| sp.end)
        .expect("rev span for segment start");
    &body[start..end]
}
