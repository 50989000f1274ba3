//! Config-independent simulation arena.
//!
//! A [`PreparedSim`] pairs the trace's per-node column block (class,
//! flags, address, plus the sparse stream sizes: [`NodeColumns`]),
//! shared through one `Arc` rather than copied, with what the scheduler
//! derives from the graph's shape: the successor CSR (the trace's flat
//! predecessor CSR, transposed in two linear passes), one `u32` initial
//! indegree per node (read off the predecessor offsets), the root set,
//! the phase-barrier index and the per-class presence bits. Per node
//! that is 10 bytes of shared columns, 4 of indegree and 4 of successor
//! offset, plus 4 per dependence edge. None of it depends on the
//! [`crate::SystemConfig`], so a parameter sweep that only perturbs
//! cache/scratchpad/DRAM settings re-simulates from this shared prefix
//! instead of rebuilding it per configuration (the bench harness keys
//! the arena by program and the simulation result by the
//! `SystemConfig::fingerprint` memo). The arena keeps the column block
//! alive on its own, so it may outlive the trace it was built from.

use crate::error::SimError;
use std::sync::Arc;
use tapeflow_ir::trace::{NodeColumns, EDGE_LIMIT, FLAG_REV};
use tapeflow_ir::{NodeId, OpClass, Trace};

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

/// A [`Trace`] preprocessed for simulation: the trace's shared node
/// columns plus the dependence CSR, independent of any `SystemConfig`.
///
/// Build once with [`PreparedSim::new`], then run any number of
/// configurations through [`crate::engine::simulate_prepared`].
#[derive(Clone, Debug)]
pub struct PreparedSim {
    pub(crate) n: usize,
    /// The trace's class, flag and address columns and stream sizes
    /// (scratchpad accesses carry their entry index as the address).
    pub(crate) cols: Arc<NodeColumns>,
    /// Dependence count per node — each run's initial indegrees, which
    /// `engine::SchedState::new` packs into its 8-byte run-state words.
    pub(crate) indeg0: Vec<u32>,
    /// CSR successor offsets (`n + 1` entries).
    pub(crate) succ_off: Vec<u32>,
    /// CSR successor payload.
    pub(crate) succ_dat: Vec<u32>,
    /// Nodes with no dependences, in id order.
    pub(crate) roots: Vec<u32>,
    /// Index of the FWD/REV phase barrier, if the trace has one.
    pub(crate) phase_barrier_idx: Option<usize>,
    /// Whether any node touches the scratchpad. Together with
    /// [`PreparedSim::has_stream`] this decides which engine backend
    /// applies and which `SystemConfig` parameter classes are relevant
    /// to the trace at all (a sweep session chains across changes to a
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

    /// Builds the arena over `trace`'s shared columns. Fails (instead of
    /// silently truncating ids) when the trace exceeds the 32-bit index
    /// limits.
    pub fn new(trace: &Trace) -> Result<Self, SimError> {
        let n = trace.len();
        Self::check_limits(n, trace.edge_count())?;
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
        let mut roots = Vec::new();
        // Successor counts land one slot up (`succ_off[d + 1]`), so the
        // prefix sum below leaves each node's start in `succ_off[d]`.
        let mut succ_off = vec![0u32; n + 1];
        for i in 0..n {
            let deps = trace.deps(NodeId::new(i));
            if deps.is_empty() {
                roots.push(i as u32);
            }
            indeg0.push(deps.len() as u32);
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

        Ok(PreparedSim {
            n,
            cols,
            indeg0,
            succ_off,
            succ_dat,
            roots,
            phase_barrier_idx,
            has_spad,
            has_stream,
            n_mem,
        })
    }

    /// Whether any node touches the scratchpad or a stream engine. When
    /// none do, the engine's pure event loop applies (no per-cycle
    /// iteration; see `engine::dataflow_loop`).
    pub(crate) fn spad_or_stream(&self) -> bool {
        self.has_spad || self.has_stream
    }

    /// Number of nodes in the prepared trace.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the prepared trace is empty.
    pub fn is_empty(&self) -> bool {
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

    /// Checks the arena against the trace it was built from: shared
    /// columns, indegrees, the transposed CSR, roots and phase barrier.
    fn check_arena(trace: &Trace) -> PreparedSim {
        let prep = PreparedSim::new(trace).unwrap();
        let n = trace.len();
        assert_eq!(prep.len(), n);
        assert!(Arc::ptr_eq(&prep.cols, trace.columns()));
        assert_eq!(prep.succ_off.len(), n + 1);
        assert_eq!(prep.succ_off[n] as usize, trace.edge_count());
        assert_eq!(prep.succ_dat.len(), trace.edge_count());
        let succs =
            |d: usize| &prep.succ_dat[prep.succ_off[d] as usize..prep.succ_off[d + 1] as usize];
        for i in 0..n {
            let deps = trace.deps(NodeId::new(i));
            assert_eq!(prep.indeg0[i] as usize, deps.len(), "node {i}");
            // Every predecessor edge appears exactly once as a successor;
            // with equal totals, the successor lists hold nothing else.
            for d in deps {
                let hits = succs(d.index())
                    .iter()
                    .filter(|&&s| s as usize == i)
                    .count();
                assert_eq!(hits, 1, "edge {} -> {i}", d.index());
            }
        }
        let roots: Vec<u32> = (0..n as u32)
            .filter(|&i| trace.deps(NodeId::new(i as usize)).is_empty())
            .collect();
        assert_eq!(prep.roots, roots);
        let first_rev = (0..n).find(|&i| trace.columns().phase(i) == Phase::Rev);
        assert_eq!(prep.phase_barrier_idx, first_rev);
        prep
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
        let prep = check_arena(&trace);
        assert_eq!(prep.phase_barrier_idx, None);
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
        let prep = check_arena(&trace);
        assert!(prep.has_spad && prep.has_stream);
        assert_eq!(trace.layer_count(), 2);
        let layers: Vec<u32> = (0..trace.len()).map(|i| trace.layer(i)).collect();
        assert_eq!(layers, [0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1]);
        // The barrier is the first REV node.
        assert_eq!(prep.phase_barrier_idx, Some(5));
        assert_eq!(trace.insts()[5], bar);
        // Scratchpad accesses and streams are tape accesses; only the
        // `StreamIn` at node 7 runs on the inward engine.
        let flags = &prep.cols.flags();
        let tape: Vec<usize> = (0..prep.len())
            .filter(|&i| flags[i] & FLAG_TAPE != 0)
            .collect();
        assert_eq!(tape, [2, 3, 4, 7, 8]);
        let inward: Vec<usize> = (0..prep.len())
            .filter(|&i| flags[i] & FLAG_STREAM_IN != 0)
            .collect();
        assert_eq!(inward, [7]);
    }

    #[test]
    fn arena_shares_the_trace_columns_and_outlives_the_trace() {
        let (trace, _) = stream_spad_barrier_trace();
        let prep = PreparedSim::new(&trace).unwrap();
        // Shared, not copied: one block, the same column buffers.
        assert!(Arc::ptr_eq(&prep.cols, trace.columns()));
        assert_eq!(prep.cols.addr().as_ptr(), trace.columns().addr().as_ptr());
        let opts = SimOptions {
            record_node_times: true,
        };
        let cfg = SystemConfig::default();
        let before = simulate_prepared(&prep, &cfg, &opts).to_json().render();
        drop(trace);
        assert_eq!(Arc::strong_count(&prep.cols), 1, "the arena owns the block");
        let after = simulate_prepared(&prep, &cfg, &opts).to_json().render();
        assert_eq!(before, after);
    }
}
