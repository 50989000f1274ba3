//! Dynamic dataflow graph (DDG) extraction.
//!
//! Tracing executes a function (with full numeric fidelity — the final
//! [`Memory`] holds the gradients) while recording one node per dynamic
//! instruction and the dependence edges between nodes:
//!
//! * SSA edges — operand produced by an earlier dynamic instruction;
//! * memory edges — RAW, WAR and WAW on every 8-byte DRAM word, which is
//!   what carries the FWD → REV tape dependences the paper characterizes;
//! * scratchpad edges — the same, per scratchpad entry, which is how
//!   double-buffered streams naturally serialize against buffer reuse;
//! * barrier edges — layer barriers order compute (but *not* stream
//!   engines, which run ahead, as in the paper's §3.5).
//!
//! The trace is the unrolled dataflow the paper's Chapter 2 figures
//! characterize and the object `tapeflow-sim` schedules cycle by cycle.
//!
//! # Representation
//!
//! Per-node metadata is stored as columns, each filled by a plain push.
//! The columns the simulator reads (class, flags, address) form one
//! [`NodeColumns`] block behind an `Arc`, which the simulator's arena
//! shares instead of copying; the instruction column sits beside it.
//! Metadata that is constant on almost every node is not a column: a
//! node's byte count follows from its class except on streams, which
//! keep theirs in a sparse list, and its layer follows from the sorted
//! ids of the `SAlloc` nodes that open each layer. Dependences stream
//! into one flat predecessor CSR: node `i`'s sorted, deduplicated
//! predecessors are `dep_dat[dep_off[i]..dep_off[i + 1]]`, read through
//! [`Trace::deps`].
//! Nothing is allocated per node; one reused scratch buffer collects
//! each node's dependences before they are appended. Per-word memory
//! state sits in two dense tables — DRAM words indexed by
//! `(addr − DRAM_BASE) / 8`, scratchpad entries by entry — each slot
//! holding the word's last writer and the head of its list of readers
//! since. All reader lists share one `(node, next)` arena whose cells a
//! write hands back for reuse.

use crate::function::Function;
use crate::ids::{InstId, NodeId};
use crate::interp::{execute, spad_entries, ExecError, ExecHook, MemEffect};
use crate::memory::{Memory, DRAM_BASE};
use crate::ops::{Op, OpClass};
use std::sync::Arc;

/// Which half of the gradient program a node belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Forward phase: the original function plus tape stores.
    Fwd,
    /// Reverse phase: adjoint computation plus tape loads.
    Rev,
}

/// Sentinel for "not inside any layer".
pub const NO_LAYER: u32 = u32::MAX;

/// Most dependence edges a [`Trace`] can hold: its CSR offsets are
/// cumulative `u32` edge counts (as are the simulator's successor
/// offsets, which share this bound).
pub const EDGE_LIMIT: usize = u32::MAX as usize;

/// Node flag: a tape access (tape-array load/store, any scratchpad
/// access, or a stream command).
pub const FLAG_TAPE: u8 = 1 << 0;
/// Node flag: the node belongs to the reverse phase.
pub const FLAG_REV: u8 = 1 << 1;
/// Node flag: a stream command that moves data inward (`StreamIn` or
/// `StreamInC`, stream engine 1).
pub const FLAG_STREAM_IN: u8 = 1 << 2;

/// The per-node columns a simulator arena reads, indexed by node id and
/// all of the trace's length, plus the transfer size of every stream.
/// A [`Trace`] holds them behind an [`Arc`] so an arena built from it
/// shares them instead of copying them (see [`Trace::columns`]).
#[derive(Clone, Debug, Default)]
pub struct NodeColumns {
    class: Vec<OpClass>,
    flags: Vec<u8>,
    addr: Vec<u64>,
    /// `(node, bytes)` per stream command, sorted by node id.
    streams: Vec<(u32, u32)>,
}

impl NodeColumns {
    /// Scheduling class per node.
    #[inline]
    pub fn class(&self) -> &[OpClass] {
        &self.class
    }

    /// `FLAG_*` bits per node.
    #[inline]
    pub fn flags(&self) -> &[u8] {
        &self.flags
    }

    /// Byte address for DRAM accesses, entry index for scratchpad
    /// accesses, start byte address for streams; 0 otherwise.
    #[inline]
    pub fn addr(&self) -> &[u64] {
        &self.addr
    }

    /// Bytes node `i` moves: 8 for a scalar cache or scratchpad access,
    /// the transfer size for a stream, 0 for compute.
    #[inline]
    pub fn bytes(&self, i: usize) -> u32 {
        match self.class[i] {
            OpClass::MemLoad | OpClass::MemStore | OpClass::SpadLoad | OpClass::SpadStore => 8,
            OpClass::Stream => {
                let k = self
                    .streams
                    .partition_point(|&(node, _)| (node as usize) < i);
                self.streams[k].1
            }
            _ => 0,
        }
    }

    /// The same nodes renumbered: node `b` of the result is node
    /// `order[b]` of `self`. `order` must be a permutation of the node
    /// ids.
    pub fn permuted(&self, order: &[u32]) -> NodeColumns {
        debug_assert_eq!(order.len(), self.class.len());
        let mut out = NodeColumns {
            class: Vec::with_capacity(order.len()),
            flags: Vec::with_capacity(order.len()),
            addr: Vec::with_capacity(order.len()),
            streams: Vec::with_capacity(self.streams.len()),
        };
        for (b, &i) in order.iter().enumerate() {
            let i = i as usize;
            out.class.push(self.class[i]);
            out.flags.push(self.flags[i]);
            out.addr.push(self.addr[i]);
            if self.class[i] == OpClass::Stream {
                out.streams.push((b as u32, self.bytes(i)));
            }
        }
        out
    }

    /// Whether node `i` is a tape access.
    #[inline]
    pub fn is_tape(&self, i: usize) -> bool {
        self.flags[i] & FLAG_TAPE != 0
    }

    /// The phase node `i` belongs to.
    #[inline]
    pub fn phase(&self, i: usize) -> Phase {
        if self.flags[i] & FLAG_REV != 0 {
            Phase::Rev
        } else {
            Phase::Fwd
        }
    }
}

/// The dynamic dataflow graph of one execution.
#[derive(Clone, Debug)]
pub struct Trace {
    /// Name of the traced function.
    pub name: String,
    cols: Arc<NodeColumns>,
    /// The static instruction each node executed.
    insts: Vec<InstId>,
    /// The `SAlloc` nodes, each opening the next layer, in id order.
    salloc: Vec<u32>,
    /// CSR offsets into `dep_dat` (`len() + 1` entries).
    dep_off: Vec<u32>,
    /// Every node's predecessors, concatenated in node order.
    dep_dat: Vec<NodeId>,
}

impl Trace {
    /// The class, flag and address columns and the stream sizes, in
    /// execution order (a valid topological order).
    #[inline]
    pub fn columns(&self) -> &Arc<NodeColumns> {
        &self.cols
    }

    /// The static instruction behind each node.
    #[inline]
    pub fn insts(&self) -> &[InstId] {
        &self.insts
    }

    /// Node `i`'s layer index: the number of `SAlloc` nodes before it,
    /// counting itself if it is one, less one; [`NO_LAYER`] before the
    /// first.
    #[inline]
    pub fn layer(&self, i: usize) -> u32 {
        match self.salloc.partition_point(|&s| s as usize <= i) {
            0 => NO_LAYER,
            opened => opened as u32 - 1,
        }
    }

    /// The nodes `id` must wait for, in increasing id order.
    #[inline]
    pub fn deps(&self, id: NodeId) -> &[NodeId] {
        let i = id.index();
        &self.dep_dat[self.dep_off[i] as usize..self.dep_off[i + 1] as usize]
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// True when the trace recorded nothing.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Number of layers (SAlloc count); 0 for unlayered programs.
    #[inline]
    pub fn layer_count(&self) -> u32 {
        self.salloc.len() as u32
    }

    /// Total dependence edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.dep_dat.len()
    }
}

/// Options controlling trace construction.
#[derive(Clone, Copy, Debug, Default)]
pub struct TraceOptions {
    /// The barrier instruction separating FWD from REV (emitted by
    /// `tapeflow-autodiff`). Nodes executed at or after it are classified
    /// [`Phase::Rev`]; with `None`, everything is FWD.
    pub phase_barrier: Option<InstId>,
}

/// "None" in the tracer's `u32` links.
const NIL: u32 = u32::MAX;

/// Dependence state of one memory word: its last writer and the head of
/// its reader list in the [`Readers`] arena, each [`NIL`] when absent.
#[derive(Clone, Copy)]
struct AddrState {
    writer: u32,
    readers: u32,
}

impl AddrState {
    const EMPTY: AddrState = AddrState {
        writer: NIL,
        readers: NIL,
    };
}

/// Every word's readers since its last write, as `(node, next)` cells of
/// singly linked lists sharing one arena. A write walks its word's list
/// once and returns the cells to the free list.
struct Readers {
    cells: Vec<(u32, u32)>,
    free: u32,
}

impl Readers {
    fn read(&mut self, st: &mut AddrState, me: u32, deps: &mut Vec<NodeId>) {
        if st.writer != NIL {
            deps.push(NodeId(st.writer));
        }
        let cell = (me, st.readers);
        st.readers = if self.free == NIL {
            // Cell indices stay below `NIL`.
            assert!(
                self.cells.len() < NIL as usize,
                "reader arena overflows u32"
            );
            self.cells.push(cell);
            (self.cells.len() - 1) as u32
        } else {
            let c = self.free;
            self.free = self.cells[c as usize].1;
            self.cells[c as usize] = cell;
            c
        };
    }

    fn write(&mut self, st: &mut AddrState, me: u32, deps: &mut Vec<NodeId>) {
        if st.writer != NIL {
            deps.push(NodeId(st.writer));
        }
        if st.readers != NIL {
            let mut c = st.readers;
            loop {
                let (node, next) = self.cells[c as usize];
                deps.push(NodeId(node));
                if next == NIL {
                    break;
                }
                c = next;
            }
            self.cells[c as usize].1 = self.free;
            self.free = st.readers;
        }
        *st = AddrState {
            writer: me,
            readers: NIL,
        };
    }
}

/// Index of a DRAM byte address in the dense word table.
#[inline]
fn dram_word(addr: u64) -> usize {
    ((addr - DRAM_BASE) / 8) as usize
}

struct Tracer {
    cols: NodeColumns,
    insts: Vec<InstId>,
    salloc: Vec<u32>,
    dep_off: Vec<u32>,
    dep_dat: Vec<NodeId>,
    /// Dependences of the node being traced (reused for every node).
    deps: Vec<NodeId>,
    val_node: Vec<Option<NodeId>>,
    dram: Vec<AddrState>,
    spad: Vec<AddrState>,
    readers: Readers,
    last_barrier: Option<NodeId>,
    since_barrier: Vec<NodeId>,
    phase: Phase,
    phase_barrier: Option<InstId>,
}

impl Tracer {
    fn new(func: &Function, mem: &Memory, opts: TraceOptions) -> Self {
        Tracer {
            cols: NodeColumns::default(),
            insts: Vec::new(),
            salloc: Vec::new(),
            dep_off: vec![0],
            dep_dat: Vec::new(),
            deps: Vec::new(),
            val_node: vec![None; func.values().len()],
            dram: vec![AddrState::EMPTY; dram_word(mem.end_addr())],
            spad: vec![AddrState::EMPTY; spad_entries(func)],
            readers: Readers {
                cells: Vec::new(),
                free: NIL,
            },
            last_barrier: None,
            since_barrier: Vec::new(),
            phase: Phase::Fwd,
            phase_barrier: opts.phase_barrier,
        }
    }
}

impl ExecHook for Tracer {
    fn on_inst(&mut self, inst: InstId, func: &Function, effect: &MemEffect) {
        // Node ids stay below `NIL`, which marks "no node" in the links.
        assert!(
            self.insts.len() < NIL as usize,
            "trace node ids overflow u32"
        );
        let me = NodeId(self.insts.len() as u32);
        let decl = func.inst(inst);
        if self.phase_barrier == Some(inst) {
            self.phase = Phase::Rev;
        }
        if let Op::SAlloc { .. } = decl.op {
            self.salloc.push(me.0);
        }

        // SSA operand dependences.
        for &a in &decl.args {
            if let Some(n) = self.val_node[a.index()] {
                self.deps.push(n);
            }
        }

        let is_stream = matches!(
            decl.op,
            Op::StreamOut(_) | Op::StreamIn(_) | Op::StreamOutC { .. } | Op::StreamInC { .. }
        );
        let is_sync = matches!(decl.op, Op::Barrier | Op::SAlloc { .. });
        // Integer address generation is the decoupled access slice
        // (paper §2.2.3): it runs ahead of layer barriers so the stream
        // engines can prefetch the next layer's tile.
        let is_addr = decl.op.class() == OpClass::Int;
        // Compute serializes behind the latest barrier; stream engines,
        // address generation and allocation pseudo-ops run ahead (double
        // buffering), ordered only by their data dependences.
        if !is_stream && !is_sync && !is_addr {
            if let Some(b) = self.last_barrier {
                self.deps.push(b);
            }
        }

        let (readers, deps) = (&mut self.readers, &mut self.deps);
        let (addr, is_tape) = match effect {
            MemEffect::None => (0u64, false),
            MemEffect::Load { addr, array } => {
                readers.read(&mut self.dram[dram_word(*addr)], me.0, deps);
                (*addr, func.array(*array).kind.is_tape())
            }
            MemEffect::Store { addr, array } => {
                readers.write(&mut self.dram[dram_word(*addr)], me.0, deps);
                (*addr, func.array(*array).kind.is_tape())
            }
            MemEffect::SpadLoad { entry } => {
                readers.read(&mut self.spad[*entry as usize], me.0, deps);
                (*entry, true)
            }
            MemEffect::SpadStore { entry } => {
                readers.write(&mut self.spad[*entry as usize], me.0, deps);
                (*entry, true)
            }
            MemEffect::Stream {
                spad,
                dram_start,
                elems,
                to_dram,
                ..
            } => {
                let (spad, dram) = if *elems == 0 {
                    (&mut self.spad[..0], &mut self.dram[..0])
                } else {
                    let w = dram_word(*dram_start);
                    (
                        &mut self.spad[spad.start as usize..spad.end as usize],
                        &mut self.dram[w..w + *elems as usize],
                    )
                };
                // Streaming out reads the scratchpad and writes DRAM;
                // streaming in does the reverse.
                let (src, dst) = if *to_dram { (spad, dram) } else { (dram, spad) };
                for st in src {
                    readers.read(st, me.0, deps);
                }
                for st in dst {
                    readers.write(st, me.0, deps);
                }
                let bytes = match decl.op {
                    // Width-compressed streams move `struct_bytes` bytes per
                    // group of `struct_elems` entries instead of 8 per entry.
                    Op::StreamOutC {
                        struct_elems,
                        struct_bytes,
                        ..
                    }
                    | Op::StreamInC {
                        struct_elems,
                        struct_bytes,
                        ..
                    } => (elems.div_ceil(struct_elems as u64) * struct_bytes as u64) as u32,
                    _ => (*elems as u32) * 8,
                };
                self.cols.streams.push((me.0, bytes));
                (*dram_start, true)
            }
        };

        if let Op::Barrier = decl.op {
            // The barrier completes when everything since the previous
            // barrier (and that barrier itself) has. Both come in id order
            // and a barrier has no other dependences, so the possibly huge
            // list reaches the sort below already sorted.
            if let Some(b) = self.last_barrier {
                self.deps.push(b);
            }
            self.deps.append(&mut self.since_barrier);
            self.last_barrier = Some(me);
        }

        self.deps.sort_unstable();
        self.deps.dedup();
        self.dep_dat.extend_from_slice(&self.deps);
        // Wraps past `EDGE_LIMIT`; `trace_function` then rejects the trace.
        self.dep_off.push(self.dep_dat.len() as u32);
        self.deps.clear();

        if let Some(r) = decl.result {
            self.val_node[r.index()] = Some(me);
        }
        // Streams are decoupled engines: they neither wait for barriers
        // nor hold them back (buffer reuse is ordered by the per-entry
        // scratchpad dependences); everything else joins the barrier set.
        if !is_stream && !matches!(decl.op, Op::Barrier) {
            self.since_barrier.push(me);
        }
        let mut flags = FLAG_TAPE * u8::from(is_tape);
        flags |= FLAG_REV * u8::from(self.phase == Phase::Rev);
        flags |=
            FLAG_STREAM_IN * u8::from(matches!(decl.op, Op::StreamIn(_) | Op::StreamInC { .. }));
        let cols = &mut self.cols;
        cols.class.push(decl.op.class());
        cols.flags.push(flags);
        cols.addr.push(addr);
        self.insts.push(inst);
    }
}

/// Rejects edge counts the trace's `u32` CSR offsets cannot address.
fn check_edges(edges: usize) -> Result<(), ExecError> {
    if edges > EDGE_LIMIT {
        return Err(ExecError::TraceTooLarge {
            edges,
            limit: EDGE_LIMIT,
        });
    }
    Ok(())
}

/// Executes `func` against `mem`, producing its dynamic dataflow graph.
///
/// `mem` is left holding the final memory state (outputs and gradients),
/// so a single call serves both numerical checking and simulation.
///
/// # Errors
///
/// Propagates any [`ExecError`] from execution, and returns
/// [`ExecError::TraceTooLarge`] when the graph has more than
/// [`EDGE_LIMIT`] dependence edges.
pub fn trace_function(
    func: &Function,
    mem: &mut Memory,
    opts: TraceOptions,
) -> Result<Trace, ExecError> {
    let tracer = Tracer::new(func, mem, opts);
    let (mut tracer, _count) = execute(func, mem, tracer)?;
    check_edges(tracer.dep_dat.len())?;
    // An arena sharing the columns may outlive the trace; keep no
    // growth slack alive with them.
    let cols = &mut tracer.cols;
    cols.class.shrink_to_fit();
    cols.flags.shrink_to_fit();
    cols.addr.shrink_to_fit();
    cols.streams.shrink_to_fit();
    Ok(Trace {
        name: func.name.clone(),
        cols: Arc::new(tracer.cols),
        insts: tracer.insts,
        salloc: tracer.salloc,
        dep_off: tracer.dep_off,
        dep_dat: tracer.dep_dat,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::function::ArrayKind;
    use crate::types::Scalar;

    fn simple_trace() -> (Function, Trace) {
        let mut b = FunctionBuilder::new("t");
        let x = b.array("x", 4, ArrayKind::Input, Scalar::F64);
        let y = b.array("y", 4, ArrayKind::Output, Scalar::F64);
        b.for_loop("i", 0, 4, |b, i| {
            let v = b.load(x, i);
            let w = b.fmul(v, v);
            b.store(y, i, w);
        });
        let f = b.finish();
        let mut mem = Memory::for_function(&f);
        mem.set_f64(x, &[1.0, 2.0, 3.0, 4.0]);
        let t = trace_function(&f, &mut mem, TraceOptions::default()).unwrap();
        assert_eq!(mem.get_f64(y), vec![1.0, 4.0, 9.0, 16.0]);
        (f, t)
    }

    #[test]
    fn node_per_dynamic_inst() {
        let (_, t) = simple_trace();
        // 4 iterations × (load, fmul, store) + 4 index computations? No
        // index arithmetic here: the iv is used directly.
        assert_eq!(t.len(), 12);
        assert!(!t.is_empty());
        assert_eq!(t.layer_count(), 0);
        assert_eq!(t.layer(11), NO_LAYER);
        // Loads and stores move one 8-byte word; compute moves nothing.
        assert_eq!(
            (0..3).map(|i| t.columns().bytes(i)).collect::<Vec<_>>(),
            [8, 0, 8]
        );
    }

    #[test]
    fn ssa_deps_within_iteration() {
        let (_, t) = simple_trace();
        // Node order per iteration: load, fmul, store.
        assert!(t.deps(NodeId::new(1)).contains(&NodeId::new(0)));
        assert!(t.deps(NodeId::new(2)).contains(&NodeId::new(1)));
        // Loads of iteration 1 do not depend on iteration 0 (different
        // addresses, no barrier).
        assert!(t.deps(NodeId::new(3)).is_empty());
    }

    #[test]
    fn raw_dep_through_memory() {
        let mut b = FunctionBuilder::new("m");
        let c = b.cell_f64("c", 0.0);
        let one = b.f64(1.0);
        let v0 = b.load_cell(c);
        let v1 = b.fadd(v0, one);
        b.store_cell(c, v1);
        let v2 = b.load_cell(c);
        let _ = b.fadd(v2, one);
        let f = b.finish();
        let mut mem = Memory::for_function(&f);
        let t = trace_function(&f, &mut mem, TraceOptions::default()).unwrap();
        // Nodes: load, fadd, store, load, fadd.
        assert!(matches!(f.inst(t.insts()[3]).op, Op::Load(_)));
        assert!(
            t.deps(NodeId::new(3)).contains(&NodeId::new(2)),
            "RAW through cell"
        );
        // WAR: the store depends on the earlier load of the same address.
        assert!(t.deps(NodeId::new(2)).contains(&NodeId::new(0)));
    }

    #[test]
    fn phase_split_at_barrier() {
        let mut f = Function::new("p");
        let a = f.add_const(crate::Const::F64(1.0));
        let (i1, _) = f.add_inst(Op::FNeg, vec![a]);
        let (bar, _) = f.add_inst(Op::Barrier, vec![]);
        let (i2, _) = f.add_inst(Op::FNeg, vec![a]);
        f.body = vec![
            crate::Stmt::Inst(i1),
            crate::Stmt::Inst(bar),
            crate::Stmt::Inst(i2),
        ];
        let mut mem = Memory::for_function(&f);
        let t = trace_function(
            &f,
            &mut mem,
            TraceOptions {
                phase_barrier: Some(bar),
            },
        )
        .unwrap();
        assert_eq!(t.columns().phase(0), Phase::Fwd);
        assert_eq!(t.columns().phase(2), Phase::Rev);
        // Post-barrier compute depends on the barrier; the barrier depends
        // on everything before it.
        assert!(t.deps(NodeId::new(2)).contains(&NodeId::new(1)));
        assert!(t.deps(NodeId::new(1)).contains(&NodeId::new(0)));
    }

    #[test]
    fn compressed_stream_bytes() {
        // A stream.outc of 4 elements at 2 entries / 6 bytes per struct
        // models 12 bytes of traffic instead of 32.
        let mut f = Function::new("c");
        let tape = f.add_array("R0", 4, ArrayKind::Tape, Scalar::F64);
        let mut sched = Vec::new();
        let (al, base) = f.add_inst(Op::SAlloc { size: 4, base: 0 }, vec![]);
        sched.push(crate::Stmt::Inst(al));
        let base = base.unwrap();
        let c0 = f.add_const(crate::Const::I64(0));
        let c4 = f.add_const(crate::Const::I64(4));
        let (so, _) = f.add_inst(
            Op::StreamOutC {
                array: tape,
                struct_elems: 2,
                struct_bytes: 6,
            },
            vec![base, c0, c4],
        );
        sched.push(crate::Stmt::Inst(so));
        f.body = sched;
        let mut mem = Memory::for_function(&f);
        let t = trace_function(&f, &mut mem, TraceOptions::default()).unwrap();
        let sn = t
            .insts()
            .iter()
            .position(|&i| matches!(f.inst(i).op, Op::StreamOutC { .. }))
            .unwrap();
        assert_eq!(t.columns().bytes(sn), 12);
        assert!(t.columns().is_tape(sn));
        assert_eq!(t.columns().class()[sn], OpClass::Stream);
        // The `SAlloc` before it moves nothing and opens layer 0.
        assert_eq!(t.columns().bytes(0), 0);
        assert_eq!((t.layer(0), t.layer(sn), t.layer_count()), (0, 0, 1));
    }

    #[test]
    fn tape_accesses_flagged() {
        let mut b = FunctionBuilder::new("tape");
        let tape = b.array("T0", 4, ArrayKind::Tape, Scalar::F64);
        let x = b.array("x", 4, ArrayKind::Input, Scalar::F64);
        b.for_loop("i", 0, 4, |b, i| {
            let v = b.load(x, i);
            b.store(tape, i, v);
        });
        let f = b.finish();
        let mut mem = Memory::for_function(&f);
        let t = trace_function(&f, &mut mem, TraceOptions::default()).unwrap();
        let tape_nodes = (0..t.len()).filter(|&i| t.columns().is_tape(i)).count();
        assert_eq!(tape_nodes, 4);
    }

    #[test]
    fn writes_collect_only_readers_since_the_last_write() {
        let mut b = FunctionBuilder::new("w");
        let c = b.cell_f64("c", 0.0);
        let one = b.f64(1.0);
        for _ in 0..3 {
            b.load_cell(c);
            b.load_cell(c);
            b.store_cell(c, one);
        }
        let f = b.finish();
        let mut mem = Memory::for_function(&f);
        let t = trace_function(&f, &mut mem, TraceOptions::default()).unwrap();
        let deps = |i: usize| {
            t.deps(NodeId::new(i))
                .iter()
                .map(|d| d.index())
                .collect::<Vec<_>>()
        };
        // Loads see the last store (RAW); each store sees its previous
        // store (WAW) and the loads since (WAR), never older readers whose
        // arena cells an earlier store recycled.
        assert_eq!(deps(2), [0, 1]);
        assert_eq!(deps(3), [2]);
        assert_eq!(deps(5), [2, 3, 4]);
        assert_eq!(deps(8), [5, 6, 7]);
        assert_eq!(t.edge_count(), 2 + 2 + 3 + 2 + 3);
    }

    #[test]
    fn edge_overflow_is_a_structured_error() {
        assert_eq!(check_edges(0), Ok(()));
        assert_eq!(check_edges(EDGE_LIMIT), Ok(()));
        let err = check_edges(EDGE_LIMIT + 1).unwrap_err();
        assert_eq!(
            err,
            ExecError::TraceTooLarge {
                edges: EDGE_LIMIT + 1,
                limit: EDGE_LIMIT,
            }
        );
        assert!(err.to_string().starts_with("trace too large"), "{err}");
    }
}
