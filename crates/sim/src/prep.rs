//! Config-independent simulation arena.
//!
//! A [`PreparedSim`] holds what the scheduler reads of a [`Trace`]: the
//! trace's per-node class, flag and address columns and stream sizes,
//! plus the successor CSR and initial indegrees. None of it depends on
//! the [`crate::SystemConfig`], so a parameter sweep that only perturbs
//! cache/scratchpad/DRAM settings re-simulates from this shared prefix
//! instead of rebuilding it per configuration (the bench harness keys
//! the arena by program and the simulation result by the
//! `SystemConfig::fingerprint` memo).
//!
//! [`PreparedSim::new`] numbers nodes in trace order and shares the
//! trace's column block (an `Arc` clone, no copy), adding 1 byte of
//! initial indegree (counts of 255 or more sit in a side list) and 4 of
//! successor offset per node, plus 4 per dependence edge. A sweep
//! session replaces that arena, once, by one renumbered in the order
//! the dataflow scheduler visits nodes
//! ([`PreparedSim::order_by_schedule`]), the way TapeFlow lays the
//! gradient tape out in the order the reverse pass reads it: by ASAP
//! level (a node's longest path from a root under fixed nominal
//! per-class latencies, `nominal_latency`), sorted stably. The
//! scheduler visits nodes roughly level by level, so a completion's
//! successor walk and the batch it drains then read nearby entries
//! instead of random ones across the whole trace. The renumbered arena
//! owns its columns in its own order (the trace's 10 bytes per node)
//! and adds a 4-byte key per node, the node's trace id. The numbering
//! never shows: both loops break same-cycle ties on the key, and probes
//! and `node_finish` receive it, so reports are byte-identical under
//! either numbering.

use crate::config::SystemConfig;
use crate::error::SimError;
use std::sync::{Arc, RwLock};
use tapeflow_ir::trace::{EDGE_LIMIT, FLAG_REV};
use tapeflow_ir::{NodeColumns, NodeId, OpClass, Trace};

/// Finish times the scheduler can hold, exclusive: a run keeps each
/// node's latest dependence finish time in the upper 40 bits of its
/// 8-byte run-state word (the low 24 count outstanding dependences), so
/// a time of `2^40` cycles or more would be truncated. The run tracks
/// its largest finish time untruncated and panics when it reaches this
/// bound instead of reporting a wrong schedule. At 2 GHz the bound is
/// about nine simulated minutes; the longest run in the checked-in
/// Small results takes 4.2 M cycles. Node and edge counts are bounded
/// separately by [`PreparedSim::check_limits`] (edges by
/// [`EDGE_LIMIT`]).
pub const FINISH_LIMIT: u64 = 1 << 40;

/// The latency a node of class `c` adds to its successors' ASAP level:
/// the default configuration's, with cache accesses at the hit latency
/// and streams at the DRAM latency. Any numbering yields the same
/// schedule; these only decide how closely the arena order follows the
/// order the scheduler visits nodes in.
pub(crate) fn nominal_latency(c: OpClass) -> u32 {
    let cfg = SystemConfig::default();
    let cycles = match c {
        OpClass::FpAlu => cfg.pe.fp_alu_latency,
        OpClass::FpMul => cfg.pe.fp_mul_latency,
        OpClass::FpLong => cfg.pe.fp_long_latency,
        OpClass::Int => cfg.pe.int_latency,
        OpClass::MemLoad | OpClass::MemStore => cfg.cache.hit_latency,
        OpClass::SpadLoad | OpClass::SpadStore => cfg.spad.latency,
        OpClass::Stream => cfg.dram.latency,
        OpClass::Sync => 0,
    };
    cycles as u32
}

/// How far to shift levels right so that the largest, `max_level`,
/// fits the `n + 1` buckets of an `n`-node counting sort. Every
/// numbering schedules alike, so coarser levels cost only locality; a
/// trace whose nominal critical path is longer than its node count is
/// mostly serial and gains little from the order anyway.
fn level_shift(max_level: u32, n: usize) -> u32 {
    (0..32)
        .find(|&s| (max_level >> s) as usize <= n)
        .unwrap_or(32)
}

/// The smallest dependence count an arena keeps outside its one-byte
/// indegree column.
const WIDE_INDEG: u8 = u8::MAX;

/// A [`Trace`] preprocessed for simulation, independent of any
/// `SystemConfig`. Build once with [`PreparedSim::new`], then run any
/// number of configurations through [`crate::engine::simulate_prepared`]
/// or a [`crate::SweepSession`]. The first session renumbers the arena
/// in schedule order ([`PreparedSim::order_by_schedule`]) and every
/// later run, cold or not, uses that numbering; only one numbering is
/// kept at a time.
#[derive(Debug)]
pub struct PreparedSim {
    arena: RwLock<Arc<Arena>>,
}

/// The arrays one numbering of a trace's nodes lays out; arena ids
/// index every one of them.
#[derive(Debug)]
pub(crate) struct Arena {
    pub(crate) n: usize,
    /// The trace id of each arena node: the tie-break within a cycle
    /// and the id probes and `node_finish` report. Empty in trace
    /// order, where every node is its own key ([`Arena::key_of`]).
    pub(crate) key: Vec<u32>,
    /// Class, flag and address columns and stream sizes in arena order:
    /// the trace's own block in trace order, a permuted copy otherwise.
    pub(crate) cols: Arc<NodeColumns>,
    /// Dependence count per node — each run's initial indegrees, which
    /// `engine::SchedState::new` packs into its 8-byte run-state words
    /// ([`Arena::indegrees`]). [`WIDE_INDEG`] marks a count of that or
    /// more, kept in `indeg_wide`.
    indeg0: Vec<u8>,
    /// `(node, count)` per node whose count does not fit `indeg0`,
    /// sorted by arena id: barriers and layer allocations, which wait
    /// on every node since the previous one.
    indeg_wide: Vec<(u32, u32)>,
    /// CSR successor offsets (`n + 1` entries).
    pub(crate) succ_off: Vec<u32>,
    /// CSR successor payload.
    pub(crate) succ_dat: Vec<u32>,
    /// Arena id of the FWD/REV phase barrier, if the trace has one.
    pub(crate) phase_barrier_idx: Option<usize>,
    /// Whether any node touches the scratchpad. Together with
    /// [`Arena::has_stream`] this decides which engine backend applies
    /// and which `SystemConfig` parameter classes are relevant to the
    /// trace at all (a sweep session chains across changes to a
    /// subsystem the trace never exercises).
    pub(crate) has_spad: bool,
    /// Whether any node is a stream-engine command.
    pub(crate) has_stream: bool,
    /// Number of cache-access nodes (`MemLoad`/`MemStore`) — the length
    /// of a sweep recording's outcome stream, precomputed so sessions
    /// don't rescan the class array.
    pub(crate) n_mem: usize,
}

impl PreparedSim {
    /// Rejects traces whose node or edge count would overflow the
    /// scheduler's 32-bit indices (event heap ids, CSR offsets). Kept
    /// separate from [`PreparedSim::new`] so the guard is testable
    /// without materializing a four-billion-node trace.
    pub fn check_limits(nodes: usize, edges: usize) -> Result<(), SimError> {
        // Node ids are stored as `u32` in the event heap and CSR payload.
        const NODE_LIMIT: usize = u32::MAX as usize - 1;
        if nodes > NODE_LIMIT {
            return Err(SimError::TraceTooLarge {
                what: "nodes",
                count: nodes,
                limit: NODE_LIMIT,
            });
        }
        // CSR offsets are cumulative `u32` edge counts, as in the trace.
        if edges > EDGE_LIMIT {
            return Err(SimError::TraceTooLarge {
                what: "dependence edges",
                count: edges,
                limit: EDGE_LIMIT,
            });
        }
        Ok(())
    }

    /// Builds the arena for `trace`, in trace order, sharing the trace's
    /// columns. Fails (instead of silently truncating ids) when the
    /// trace exceeds the 32-bit index limits.
    pub fn new(trace: &Trace) -> Result<Self, SimError> {
        Ok(PreparedSim {
            arena: RwLock::new(Arc::new(Arena::new(trace)?)),
        })
    }

    /// Renumbers the arena in schedule order unless it already is:
    /// worth the build, which takes a few times [`PreparedSim::new`]'s,
    /// where one arena serves many runs, so every
    /// [`crate::SweepSession`] calls it. The trace-order arena is
    /// released once no run holds it. Reports from either numbering are
    /// byte-identical.
    pub fn order_by_schedule(&self) {
        self.schedule_ordered();
    }

    /// Whether the arena is in schedule order.
    pub fn is_schedule_ordered(&self) -> bool {
        self.arena().is_renumbered()
    }

    /// The current arena. Runs hold it for their duration, so a
    /// concurrent [`PreparedSim::order_by_schedule`] never moves nodes
    /// under them.
    pub(crate) fn arena(&self) -> Arc<Arena> {
        Arc::clone(&self.arena.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// [`PreparedSim::order_by_schedule`], returning the renumbered
    /// arena.
    pub(crate) fn schedule_ordered(&self) -> Arc<Arena> {
        let cur = self.arena();
        if cur.is_renumbered() {
            return cur;
        }
        drop(cur);
        let mut slot = self.arena.write().unwrap_or_else(|e| e.into_inner());
        if !slot.is_renumbered() {
            *slot = Arc::new(slot.in_schedule_order());
        }
        Arc::clone(&slot)
    }

    /// Number of nodes in the prepared trace.
    pub fn len(&self) -> usize {
        self.arena().n
    }

    /// Whether the prepared trace is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Arena {
    /// The trace-order arena for `trace`.
    pub(crate) fn new(trace: &Trace) -> Result<Self, SimError> {
        let n = trace.len();
        PreparedSim::check_limits(n, trace.edge_count())?;
        let cols = Arc::clone(trace.columns());

        let mut has_spad = false;
        let mut has_stream = false;
        let mut n_mem = 0usize;
        for c in cols.class() {
            has_spad |= matches!(c, OpClass::SpadLoad | OpClass::SpadStore);
            has_stream |= matches!(c, OpClass::Stream);
            n_mem += usize::from(matches!(c, OpClass::MemLoad | OpClass::MemStore));
        }
        let phase_barrier_idx = cols.flags().iter().position(|f| f & FLAG_REV != 0);

        let mut indeg0 = Vec::with_capacity(n);
        let mut indeg_wide = Vec::new();
        // Successor counts land one slot up (`succ_off[d + 1]`), so the
        // prefix sum below leaves each node's start in `succ_off[d]`.
        let mut succ_off = vec![0u32; n + 1];
        for i in 0..n {
            let deps = trace.deps(NodeId::new(i));
            indeg0.push(deps.len().min(WIDE_INDEG.into()) as u8);
            if deps.len() >= WIDE_INDEG.into() {
                indeg_wide.push((i as u32, deps.len() as u32));
            }
            for d in deps {
                succ_off[d.index() + 1] += 1;
            }
        }

        // Transpose the predecessor CSR: bump each node's start as its
        // successors fill in, which leaves `succ_off[d]` at `d`'s end, then
        // shift the offsets back up one slot.
        for i in 0..n {
            succ_off[i + 1] += succ_off[i];
        }
        let mut succ_dat = vec![0u32; trace.edge_count()];
        for i in 0..n {
            for d in trace.deps(NodeId::new(i)) {
                let slot = &mut succ_off[d.index()];
                succ_dat[*slot as usize] = i as u32;
                *slot += 1;
            }
        }
        succ_off.copy_within(0..n, 1);
        succ_off[0] = 0;

        Ok(Arena {
            n,
            key: Vec::new(),
            cols,
            indeg0,
            indeg_wide,
            succ_off,
            succ_dat,
            phase_barrier_idx,
            has_spad,
            has_stream,
            n_mem,
        })
    }

    /// This trace-order arena renumbered by ASAP level, ties in trace
    /// order.
    pub(crate) fn in_schedule_order(&self) -> Arena {
        debug_assert!(!self.is_renumbered(), "renumbers the trace-order arena");
        let n = self.n;
        let class = &self.cols.class()[..n];
        let mut lat = [0u32; 16];
        for &c in class {
            lat[c as usize] = nominal_latency(c);
        }

        // Each node's level, pushed along its successor edges.
        let mut level = vec![0u32; n];
        let mut max_level = 0;
        for a in 0..n {
            max_level = max_level.max(level[a]);
            let fin = level[a].saturating_add(lat[class[a] as usize]);
            for &s in self.succs(a) {
                let l = &mut level[s as usize];
                *l = (*l).max(fin);
            }
        }

        // A stable counting sort by level: `next[l]` is level `l`'s next
        // free id. `level` turns into each node's new id and `key` into
        // the inverse, the node at each new id.
        let shift = level_shift(max_level, n);
        let mut next = vec![0u32; (max_level >> shift) as usize + 2];
        for &l in &level {
            next[(l >> shift) as usize + 1] += 1;
        }
        for l in 1..next.len() {
            next[l] += next[l - 1];
        }
        let mut key = vec![0u32; n];
        for (a, l) in level.iter_mut().enumerate() {
            let slot = &mut next[(*l >> shift) as usize];
            key[*slot as usize] = a as u32;
            *l = *slot;
            *slot += 1;
        }
        drop(next);
        let new_id = level;

        // Everything else is gathered in the new order, so each array is
        // written front to back.
        let mut indeg0 = Vec::with_capacity(n);
        let mut indeg_wide = Vec::with_capacity(self.indeg_wide.len());
        let mut succ_off = Vec::with_capacity(n + 1);
        let mut succ_dat = Vec::with_capacity(self.succ_dat.len());
        succ_off.push(0);
        for (b, &a) in key.iter().enumerate() {
            let k = self.indeg0[a as usize];
            if k == WIDE_INDEG {
                indeg_wide.push((b as u32, self.indeg(a as usize)));
            }
            indeg0.push(k);
            succ_dat.extend(self.succs(a as usize).iter().map(|&s| new_id[s as usize]));
            succ_off.push(succ_dat.len() as u32);
        }
        Arena {
            n,
            cols: Arc::new(self.cols.permuted(&key)),
            key,
            indeg0,
            indeg_wide,
            succ_off,
            succ_dat,
            phase_barrier_idx: self.phase_barrier_idx.map(|a| new_id[a] as usize),
            has_spad: self.has_spad,
            has_stream: self.has_stream,
            n_mem: self.n_mem,
        }
    }

    /// Whether the arena is numbered other than in trace order.
    pub(crate) fn is_renumbered(&self) -> bool {
        !self.key.is_empty()
    }

    /// Arena node `a`'s trace id.
    #[inline(always)]
    pub(crate) fn key_of(&self, a: u32) -> u32 {
        if self.key.is_empty() {
            a
        } else {
            self.key[a as usize]
        }
    }

    /// Arena node `a`'s dependence count.
    pub(crate) fn indeg(&self, a: usize) -> u32 {
        match self.indeg0[a] {
            WIDE_INDEG => {
                let k = self
                    .indeg_wide
                    .partition_point(|&(node, _)| (node as usize) < a);
                self.indeg_wide[k].1
            }
            k => k.into(),
        }
    }

    /// Every node's dependence count, in arena order.
    pub(crate) fn indegrees(&self) -> impl Iterator<Item = u32> + '_ {
        let mut wide = self.indeg_wide.iter().map(|&(_, k)| k);
        self.indeg0.iter().map(move |&k| match k {
            WIDE_INDEG => wide.next().expect("a wide count per marked node"),
            k => k.into(),
        })
    }

    /// Arena node `a`'s successors.
    #[inline]
    pub(crate) fn succs(&self, a: usize) -> &[u32] {
        &self.succ_dat[self.succ_off[a] as usize..self.succ_off[a + 1] as usize]
    }

    /// Whether any node touches the scratchpad or a stream engine. When
    /// none do, the engine's pure event loop applies (no per-cycle
    /// iteration; see `engine::dataflow_loop`).
    pub(crate) fn spad_or_stream(&self) -> bool {
        self.has_spad || self.has_stream
    }

    /// Number of nodes.
    pub(crate) fn len(&self) -> usize {
        self.n
    }

    /// Whether there are no nodes.
    pub(crate) fn is_empty(&self) -> bool {
        self.n == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{simulate_prepared, SimOptions, SystemConfig};
    use tapeflow_ir::trace::{trace_function, Phase, TraceOptions, FLAG_STREAM_IN, FLAG_TAPE};
    use tapeflow_ir::{
        ArrayKind, Const, Function, FunctionBuilder, InstId, Memory, Op, Scalar, Stmt, ValueId,
    };

    #[test]
    fn limits_reject_oversized_counts_without_building() {
        assert_eq!(PreparedSim::check_limits(0, 0), Ok(()));
        assert_eq!(PreparedSim::check_limits(1 << 20, 1 << 22), Ok(()));
        let huge = u32::MAX as usize;
        assert!(matches!(
            PreparedSim::check_limits(huge, 0),
            Err(SimError::TraceTooLarge { what: "nodes", .. })
        ));
        assert!(matches!(
            PreparedSim::check_limits(16, huge + 1),
            Err(SimError::TraceTooLarge {
                what: "dependence edges",
                ..
            })
        ));
    }

    /// Checks `arena` against the trace it was built from: the
    /// numbering, the columns, indegrees, the transposed CSR and phase
    /// barrier, all through the key.
    fn check_arena(trace: &Trace, arena: &Arena) {
        let n = trace.len();
        let cols = trace.columns();
        let deps = |i: usize| trace.deps(NodeId::new(i));
        assert_eq!(arena.len(), n);
        // The key is a permutation, and the arena id of trace node `i`
        // is `at[i]`.
        let mut at = vec![u32::MAX; n];
        for a in 0..n as u32 {
            let i = arena.key_of(a) as usize;
            assert_eq!(at[i], u32::MAX, "trace node {i} twice");
            at[i] = a;
        }
        let ac = &arena.cols;
        for a in 0..n {
            let i = arena.key_of(a as u32) as usize;
            assert_eq!(ac.class()[a], cols.class()[i], "node {i}");
            assert_eq!(ac.flags()[a], cols.flags()[i], "node {i}");
            assert_eq!(ac.addr()[a], cols.addr()[i], "node {i}");
            assert_eq!(ac.bytes(a), cols.bytes(i), "node {i}");
            assert_eq!(arena.indeg(a) as usize, deps(i).len(), "node {i}");
        }
        let indeg: Vec<u32> = (0..n).map(|a| arena.indeg(a)).collect();
        assert_eq!(arena.indegrees().collect::<Vec<_>>(), indeg);
        assert_eq!(arena.succ_off.len(), n + 1);
        assert_eq!(arena.succ_off[n] as usize, trace.edge_count());
        assert_eq!(arena.succ_dat.len(), trace.edge_count());
        for i in 0..n {
            // Every predecessor edge appears exactly once as a successor;
            // with equal totals, the successor lists hold nothing else.
            for d in deps(i) {
                let hits = arena
                    .succs(at[d.index()] as usize)
                    .iter()
                    .filter(|&&s| s == at[i])
                    .count();
                assert_eq!(hits, 1, "edge {} -> {i}", d.index());
            }
        }
        let first_rev = (0..n).find(|&i| cols.phase(i) == Phase::Rev);
        assert_eq!(arena.phase_barrier_idx, first_rev.map(|i| at[i] as usize));
    }

    /// Builds both numberings of `trace`'s arena and checks them: trace
    /// order, sharing the trace's columns, for [`Arena::new`], and ASAP
    /// levels (coarsened to fit the sort's buckets) with trace order
    /// within a level for [`Arena::in_schedule_order`]. Returns the
    /// level-ordered one.
    fn check_arenas(trace: &Trace) -> Arena {
        let n = trace.len();
        let plain = Arena::new(trace).unwrap();
        check_arena(trace, &plain);
        assert!(!plain.is_renumbered());
        assert!(Arc::ptr_eq(&plain.cols, trace.columns()));
        let arena = plain.in_schedule_order();
        check_arena(trace, &arena);
        let mut level = vec![0u32; n];
        for i in 0..n {
            level[i] = trace
                .deps(NodeId::new(i))
                .iter()
                .map(|d| level[d.index()] + nominal_latency(trace.columns().class()[d.index()]))
                .max()
                .unwrap_or(0);
        }
        let shift = level_shift(level.iter().copied().max().unwrap_or(0), n);
        for w in arena.key.windows(2) {
            let (i, j) = (w[0] as usize, w[1] as usize);
            let at = |i: usize| (level[i] >> shift, i);
            assert!(at(i) < at(j), "nodes {i} and {j} out of order");
        }
        arena
    }

    #[test]
    fn arena_mirrors_the_trace() {
        let mut b = FunctionBuilder::new("t");
        let one = b.f64(1.0);
        let mut v = b.f64(0.0);
        for _ in 0..5 {
            v = b.fadd(v, one);
        }
        let f = b.finish();
        let mut mem = Memory::for_function(&f);
        let trace = trace_function(&f, &mut mem, TraceOptions::default()).unwrap();
        let arena = check_arenas(&trace);
        assert_eq!(arena.phase_barrier_idx, None);
    }

    #[test]
    fn arena_keeps_counts_past_a_byte() {
        // A barrier waits on every node since the previous one: here
        // 300 adds, and 299 more behind the second barrier.
        let mut b = FunctionBuilder::new("t");
        let one = b.f64(1.0);
        for _ in 0..2 {
            let mut v = b.f64(0.0);
            for _ in 0..300 {
                v = b.fadd(v, one);
            }
            b.push_inst(Op::Barrier, vec![]);
        }
        let f = b.finish();
        let mut mem = Memory::for_function(&f);
        let trace = trace_function(&f, &mut mem, TraceOptions::default()).unwrap();
        let arena = check_arenas(&trace);
        assert_eq!(arena.indeg_wide.len(), 2, "{:?}", arena.indeg_wide);
    }

    #[test]
    fn arena_orders_nodes_by_level() {
        // Independent loads interleaved with a dependent chain of adds:
        // the loads share the chain head's level 0, so the arena lists
        // them right after it, ahead of the rest of the chain.
        let mut b = FunctionBuilder::new("t");
        let x = b.array("x", 8, ArrayKind::Input, Scalar::F64);
        let one = b.f64(1.0);
        let mut v = b.f64(0.0);
        for i in 0..8 {
            v = b.fadd(v, one);
            let idx = b.i64(i);
            let _ = b.load(x, idx);
        }
        let f = b.finish();
        let mut mem = Memory::for_function(&f);
        let trace = trace_function(&f, &mut mem, TraceOptions::default()).unwrap();
        let arena = check_arenas(&trace);
        let mut want = vec![OpClass::FpAlu];
        want.extend([OpClass::MemLoad; 8]);
        want.extend([OpClass::FpAlu; 7]);
        assert_eq!(arena.cols.class(), want);
    }

    /// FWD fills a scratchpad buffer and streams it out to the tape;
    /// REV, after the phase barrier, streams it back into a second
    /// buffer and reads it. Returns the trace and the barrier.
    fn stream_spad_barrier_trace() -> (Trace, InstId) {
        let mut f = Function::new("s");
        let tape = f.add_array("T", 2, ArrayKind::Tape, Scalar::F64);
        let out = f.add_array("o", 1, ArrayKind::Output, Scalar::F64);
        let c0 = f.add_const(Const::I64(0));
        let c1 = f.add_const(Const::I64(1));
        let c2 = f.add_const(Const::I64(2));
        let v = f.add_const(Const::F64(1.5));
        let mut body = Vec::new();
        let mut emit = |f: &mut Function, op: Op, args: Vec<ValueId>| {
            let (inst, result) = f.add_inst(op, args);
            body.push(Stmt::Inst(inst));
            (inst, result)
        };
        let b0 = emit(&mut f, Op::SAlloc { size: 2, base: 0 }, vec![])
            .1
            .unwrap();
        let e1 = emit(&mut f, Op::IAdd, vec![b0, c1]).1.unwrap();
        emit(&mut f, Op::SpadStore, vec![b0, v]);
        emit(&mut f, Op::SpadStore, vec![e1, v]);
        emit(&mut f, Op::StreamOut(tape), vec![b0, c0, c2]);
        let (bar, _) = emit(&mut f, Op::Barrier, vec![]);
        let b1 = emit(&mut f, Op::SAlloc { size: 2, base: 2 }, vec![])
            .1
            .unwrap();
        emit(&mut f, Op::StreamIn(tape), vec![b1, c0, c2]);
        let r = emit(&mut f, Op::SpadLoad, vec![b1]).1.unwrap();
        let neg = emit(&mut f, Op::FNeg, vec![r]).1.unwrap();
        emit(&mut f, Op::Store(out), vec![c0, neg]);
        f.body = body;
        tapeflow_ir::verify::verify(&f).unwrap();

        let mut mem = Memory::for_function(&f);
        let opts = TraceOptions {
            phase_barrier: Some(bar),
        };
        let trace = trace_function(&f, &mut mem, opts).unwrap();
        assert_eq!(mem.get_f64(out), [-1.5]);
        (trace, bar)
    }

    #[test]
    fn arena_mirrors_a_stream_spad_barrier_trace() {
        let (trace, bar) = stream_spad_barrier_trace();
        let arena = check_arenas(&trace);
        assert!(arena.has_spad && arena.has_stream);
        assert_eq!(trace.layer_count(), 2);
        let layers: Vec<u32> = (0..trace.len()).map(|i| trace.layer(i)).collect();
        assert_eq!(layers, [0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1]);
        // The barrier is the first REV node.
        let barrier = arena.phase_barrier_idx.unwrap();
        assert_eq!(arena.key[barrier], 5);
        assert_eq!(trace.insts()[5], bar);
        // Scratchpad accesses and streams are tape accesses; only the
        // `StreamIn` at trace node 7 runs on the inward engine.
        let with = |flag: u8| {
            let mut ids: Vec<u32> = (0..arena.len())
                .filter(|&a| arena.cols.flags()[a] & flag != 0)
                .map(|a| arena.key[a])
                .collect();
            ids.sort_unstable();
            ids
        };
        assert_eq!(with(FLAG_TAPE), [2, 3, 4, 7, 8]);
        assert_eq!(with(FLAG_STREAM_IN), [7]);
    }

    #[test]
    fn arena_shares_the_trace_columns_and_outlives_the_trace() {
        let (trace, _) = stream_spad_barrier_trace();
        let prep = PreparedSim::new(&trace).unwrap();
        assert!(Arc::ptr_eq(&prep.arena().cols, trace.columns()));
        let opts = SimOptions {
            record_node_times: true,
        };
        let cfg = SystemConfig::default();
        let before = simulate_prepared(&prep, &cfg, &opts);
        drop(trace);
        let plain = Arc::downgrade(&prep.arena());
        let after = simulate_prepared(&prep, &cfg, &opts);
        assert_eq!(before.to_json().render(), after.to_json().render());
        assert_eq!(before.node_finish, after.node_finish);
        // Renumbering replaces the trace-order arena, which goes away
        // with nothing else holding it, and changes no report.
        assert!(!prep.is_schedule_ordered());
        prep.order_by_schedule();
        assert!(prep.is_schedule_ordered());
        assert!(plain.upgrade().is_none(), "trace-order arena kept");
        let ordered = prep.arena();
        prep.order_by_schedule();
        assert!(Arc::ptr_eq(&ordered, &prep.arena()), "renumbered twice");
        let after = simulate_prepared(&prep, &cfg, &opts);
        assert_eq!(before.to_json().render(), after.to_json().render());
        assert_eq!(before.node_finish, after.node_finish);
    }
}
