//! Trace-level analyses reproducing the paper's Chapter-2 tape
//! characterization: edge distribution (Fig 2.6), edge lifetimes
//! (Fig 2.7), tape-lifetime quantiles (Fig 2.8), and working-set sizing
//! (Table 4.1, Fig 4.9).

use crate::ops::{Op, OpClass};
use crate::trace::{Phase, Trace};
use std::collections::HashMap;

/// Classification of a dependence edge, following Figure 2.6.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// Produced and consumed within the forward phase.
    Fwd,
    /// Consumed in the reverse phase through ordinary (non-tape) state.
    Rev,
    /// Carried FWD → REV through the tape (tape-array, scratchpad or
    /// stream accesses on both endpoints).
    Tape,
}

/// Aggregate counts of a trace's accesses and edges.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TraceStats {
    /// Dynamic node count.
    pub nodes: u64,
    /// Dynamic floating-point compute ops.
    pub fp_ops: u64,
    /// Dynamic integer ops.
    pub int_ops: u64,
    /// DRAM loads + stores (cache path), excluding streams.
    pub mem_accesses: u64,
    /// DRAM accesses that target tape arrays.
    pub tape_mem_accesses: u64,
    /// Scratchpad accesses.
    pub spad_accesses: u64,
    /// Stream commands.
    pub streams: u64,
    /// Bytes moved by stream commands.
    pub stream_bytes: u64,
    /// Memory accesses issued in the forward phase.
    pub fwd_mem_accesses: u64,
    /// Memory accesses issued in the reverse phase.
    pub rev_mem_accesses: u64,
    /// Edges by kind: `[Fwd, Rev, Tape]`.
    pub edges: [u64; 3],
    /// Distinct DRAM bytes touched.
    pub bytes_touched: u64,
    /// Peak simultaneously-live DRAM bytes (first-touch to last-touch).
    pub max_live_bytes: u64,
}

impl TraceStats {
    /// Fraction of DRAM accesses that are tape accesses (paper Obs 1.1:
    /// 20–40 %).
    pub fn tape_access_fraction(&self) -> f64 {
        if self.mem_accesses == 0 {
            0.0
        } else {
            self.tape_mem_accesses as f64 / self.mem_accesses as f64
        }
    }

    /// Total edges.
    pub fn total_edges(&self) -> u64 {
        self.edges.iter().sum()
    }
}

/// Classifies one edge given its endpoints.
fn edge_kind(trace: &Trace, p: crate::NodeId, c: crate::NodeId) -> EdgeKind {
    let cols = trace.columns();
    if cols.is_tape(p.index()) && cols.is_tape(c.index()) {
        EdgeKind::Tape
    } else if cols.phase(c.index()) == Phase::Rev {
        EdgeKind::Rev
    } else {
        EdgeKind::Fwd
    }
}

/// Computes [`TraceStats`] in a single pass.
pub fn trace_stats(trace: &Trace) -> TraceStats {
    let mut s = TraceStats {
        nodes: trace.len() as u64,
        ..TraceStats::default()
    };
    // (first_touch, last_touch) per 8-byte DRAM word, by node index.
    let mut touch: HashMap<u64, (u32, u32)> = HashMap::new();
    let cols = trace.columns();
    for (i, (&class, &addr)) in cols.class().iter().zip(cols.addr()).enumerate() {
        match class {
            OpClass::FpAlu | OpClass::FpMul | OpClass::FpLong => s.fp_ops += 1,
            OpClass::Int => s.int_ops += 1,
            OpClass::MemLoad | OpClass::MemStore => {
                s.mem_accesses += 1;
                if cols.is_tape(i) {
                    s.tape_mem_accesses += 1;
                }
                match cols.phase(i) {
                    Phase::Fwd => s.fwd_mem_accesses += 1,
                    Phase::Rev => s.rev_mem_accesses += 1,
                }
                let e = touch.entry(addr & !7).or_insert((i as u32, i as u32));
                e.1 = i as u32;
            }
            OpClass::SpadLoad | OpClass::SpadStore => s.spad_accesses += 1,
            OpClass::Stream => {
                let bytes = u64::from(cols.bytes(i));
                s.streams += 1;
                s.stream_bytes += bytes;
                // Streams touch DRAM too; count their footprint.
                for k in 0..(bytes / 8) {
                    let a = (addr + 8 * k) & !7;
                    let e = touch.entry(a).or_insert((i as u32, i as u32));
                    e.1 = i as u32;
                }
            }
            OpClass::Sync => {}
        }
        for &d in trace.deps(crate::NodeId::new(i)) {
            let k = edge_kind(trace, d, crate::NodeId::new(i));
            let slot = match k {
                EdgeKind::Fwd => 0,
                EdgeKind::Rev => 1,
                EdgeKind::Tape => 2,
            };
            s.edges[slot] += 1;
        }
    }
    s.bytes_touched = touch.len() as u64 * 8;
    // Sweep for the peak live footprint.
    let mut events: Vec<(u32, i64)> = Vec::with_capacity(touch.len() * 2);
    for (_, (first, last)) in touch {
        events.push((first, 8));
        events.push((last + 1, -8));
    }
    events.sort_unstable();
    let mut live = 0i64;
    let mut peak = 0i64;
    for (_, delta) in events {
        live += delta;
        peak = peak.max(live);
    }
    s.max_live_bytes = peak as u64;
    s
}

/// Average producer→consumer distance of edges, split by kind
/// (Fig 2.7). `times[i]` is the completion time of node `i` — pass
/// simulator cycles for lifetimes in cycles, or [`node_index_times`] for
/// a topology-only proxy.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LifetimeStats {
    /// Mean lifetime of tape edges.
    pub tape_avg: f64,
    /// Mean lifetime of forward (non-tape) edges.
    pub fwd_avg: f64,
    /// Mean lifetime of reverse edges.
    pub rev_avg: f64,
    /// Count of tape edges.
    pub tape_edges: u64,
    /// Count of forward edges.
    pub fwd_edges: u64,
    /// Count of reverse edges.
    pub rev_edges: u64,
}

impl LifetimeStats {
    /// The paper's headline ratio: tape lifetimes vs FWD lifetimes
    /// (Obs 1.2: up to 100×).
    pub fn tape_over_fwd(&self) -> f64 {
        if self.fwd_avg == 0.0 {
            f64::INFINITY
        } else {
            self.tape_avg / self.fwd_avg
        }
    }
}

/// A trivial time assignment: node index in trace order.
pub fn node_index_times(trace: &Trace) -> Vec<u64> {
    (0..trace.len() as u64).collect()
}

/// Computes [`LifetimeStats`] under the time assignment `times`.
///
/// # Panics
///
/// Panics if `times.len() != trace.len()`.
pub fn edge_lifetimes(trace: &Trace, times: &[u64]) -> LifetimeStats {
    assert_eq!(times.len(), trace.len(), "one time per node required");
    let mut sums = [0f64; 3];
    let mut counts = [0u64; 3];
    for i in 0..trace.len() {
        for &d in trace.deps(crate::NodeId::new(i)) {
            let k = edge_kind(trace, d, crate::NodeId::new(i));
            let slot = match k {
                EdgeKind::Fwd => 0,
                EdgeKind::Rev => 1,
                EdgeKind::Tape => 2,
            };
            sums[slot] += times[i].saturating_sub(times[d.index()]) as f64;
            counts[slot] += 1;
        }
    }
    let avg = |s: f64, c: u64| if c == 0 { 0.0 } else { s / c as f64 };
    LifetimeStats {
        tape_avg: avg(sums[2], counts[2]),
        fwd_avg: avg(sums[0], counts[0]),
        rev_avg: avg(sums[1], counts[1]),
        tape_edges: counts[2],
        fwd_edges: counts[0],
        rev_edges: counts[1],
    }
}

/// One bucket of the tape-lifetime distribution (Fig 2.8).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LifetimeBucket {
    /// Largest lifetime in the bucket.
    pub max_lifetime: u64,
    /// Number of tape edges in the bucket.
    pub count: u64,
    /// Fraction of all tape edges.
    pub fraction: f64,
}

/// Splits tape-edge lifetimes into `quantiles` equal-population buckets,
/// mirroring the paper's 5-quantile presentation.
///
/// Returns an empty vector when the trace has no tape edges.
pub fn tape_lifetime_quantiles(
    trace: &Trace,
    times: &[u64],
    quantiles: usize,
) -> Vec<LifetimeBucket> {
    assert!(quantiles > 0, "need at least one quantile");
    assert_eq!(times.len(), trace.len(), "one time per node required");
    let mut lifetimes = Vec::new();
    for i in 0..trace.len() {
        for &d in trace.deps(crate::NodeId::new(i)) {
            if edge_kind(trace, d, crate::NodeId::new(i)) == EdgeKind::Tape {
                lifetimes.push(times[i].saturating_sub(times[d.index()]));
            }
        }
    }
    if lifetimes.is_empty() {
        return Vec::new();
    }
    lifetimes.sort_unstable();
    let total = lifetimes.len();
    let mut out = Vec::with_capacity(quantiles);
    for q in 0..quantiles {
        let lo = q * total / quantiles;
        let hi = ((q + 1) * total / quantiles).max(lo + usize::from(q == quantiles - 1));
        let hi = hi.min(total);
        if lo >= hi {
            continue;
        }
        out.push(LifetimeBucket {
            max_lifetime: lifetimes[hi - 1],
            count: (hi - lo) as u64,
            fraction: (hi - lo) as f64 / total as f64,
        });
    }
    out
}

/// Register-pressure report over a dynamic dataflow graph — the thesis's
/// register-allocation tool (§1.5): liveness analysis, minimum registers
/// for a spill-free schedule, and spill count for a given file size.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RegisterReport {
    /// Dynamic values produced (register definitions).
    pub values: u64,
    /// Peak simultaneously-live values = minimum spill-free registers.
    pub max_live: u64,
    /// Values evicted by the furthest-next-use policy with the given
    /// register-file size.
    pub spills: u64,
    /// Register-file size the spill count was computed for.
    pub regs: usize,
}

/// Linear-scan register-pressure analysis over the trace's schedule
/// order, spilling by furthest last use (Belady) when the file of
/// `regs` registers overflows.
///
/// Dependence edges approximate register uses: every consumer of a
/// value-producing node counts as a use (write-after-read memory edges
/// slightly over-extend lifetimes; the approximation is conservative).
pub fn register_pressure(func: &crate::Function, trace: &Trace, regs: usize) -> RegisterReport {
    assert!(regs > 0, "need at least one register");
    let n = trace.len();
    // Last consumer of each node, in schedule order.
    let mut last_use = vec![0u32; n];
    for i in 0..n {
        for d in trace.deps(crate::NodeId::new(i)) {
            last_use[d.index()] = last_use[d.index()].max(i as u32);
        }
    }
    let insts = trace.insts();
    let produces = |i: usize| func.inst(insts[i]).op.fixed_result() != Some(None);
    let mut report = RegisterReport {
        regs,
        ..RegisterReport::default()
    };
    // Live sets as (last_use, node) pairs; `full` tracks true pressure
    // (no eviction), `file` models the finite register file whose spill
    // policy drops the value reused furthest in the future.
    use std::collections::BTreeSet;
    let mut full: BTreeSet<(u32, u32)> = BTreeSet::new();
    let mut file: BTreeSet<(u32, u32)> = BTreeSet::new();
    #[allow(clippy::needless_range_loop)] // indexes three parallel arrays
    for i in 0..n {
        // Expire values whose last use has passed.
        for set in [&mut full, &mut file] {
            while let Some(&(lu, id)) = set.iter().next() {
                if (lu as usize) < i {
                    set.remove(&(lu, id));
                } else {
                    break;
                }
            }
        }
        if !produces(i) || last_use[i] as usize <= i {
            continue;
        }
        report.values += 1;
        full.insert((last_use[i], i as u32));
        report.max_live = report.max_live.max(full.len() as u64);
        file.insert((last_use[i], i as u32));
        if file.len() > regs {
            let &victim = file.iter().next_back().expect("non-empty");
            file.remove(&victim);
            report.spills += 1;
        }
    }
    report
}

/// Counts dynamic DRAM accesses per static array kind — the FWD / REV /
/// input / output / tape split of Figure 1.3.
pub fn accesses_by_array_kind(
    func: &crate::Function,
    trace: &Trace,
) -> HashMap<crate::ArrayKind, u64> {
    let mut m = HashMap::new();
    for &inst in trace.insts() {
        if let Op::Load(a) | Op::Store(a) = func.inst(inst).op {
            *m.entry(func.array(a).kind).or_insert(0) += 1;
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::function::ArrayKind;
    use crate::memory::Memory;
    use crate::trace::{trace_function, TraceOptions};
    use crate::types::Scalar;
    use crate::Function;

    /// FWD: t[i] = x[i]*x[i] (taped); barrier; REV: d[i] = t[i].
    fn tape_roundtrip_fn() -> (Function, crate::InstId) {
        let mut b = FunctionBuilder::new("rt");
        let x = b.array("x", 8, ArrayKind::Input, Scalar::F64);
        let t = b.array("T0", 8, ArrayKind::Tape, Scalar::F64);
        let d = b.array("d_x", 8, ArrayKind::Shadow, Scalar::F64);
        b.for_loop("i", 0, 8, |b, i| {
            let v = b.load(x, i);
            let w = b.fmul(v, v);
            b.store(t, i, w);
        });
        let bar = b.push_inst(crate::Op::Barrier, vec![]);
        assert!(bar.is_none());
        let bar_id = crate::InstId::new(b.func().insts().len() - 1);
        b.for_loop_step("ri", 7i64, -1i64, -1, |b, i| {
            let w = b.load(t, i);
            b.store(d, i, w);
        });
        (b.finish(), bar_id)
    }

    fn traced() -> (Function, Trace) {
        let (f, bar) = tape_roundtrip_fn();
        let mut mem = Memory::for_function(&f);
        let t = trace_function(
            &f,
            &mut mem,
            TraceOptions {
                phase_barrier: Some(bar),
            },
        )
        .unwrap();
        (f, t)
    }

    #[test]
    fn stats_count_tape_accesses() {
        let (_, t) = traced();
        let s = trace_stats(&t);
        // 8 input loads + 8 tape stores + 8 tape loads + 8 shadow stores.
        assert_eq!(s.mem_accesses, 32);
        assert_eq!(s.tape_mem_accesses, 16);
        assert!((s.tape_access_fraction() - 0.5).abs() < 1e-12);
        assert_eq!(s.fwd_mem_accesses, 16);
        assert_eq!(s.rev_mem_accesses, 16);
        assert!(s.edges[2] >= 8, "8 tape RAW edges expected");
        assert!(s.bytes_touched >= 8 * 3 * 8);
    }

    #[test]
    fn tape_edges_outlive_fwd_edges() {
        let (_, t) = traced();
        let times = node_index_times(&t);
        let lt = edge_lifetimes(&t, &times);
        assert!(lt.tape_edges >= 8);
        assert!(
            lt.tape_avg > lt.fwd_avg,
            "tape {} vs fwd {}",
            lt.tape_avg,
            lt.fwd_avg
        );
        assert!(lt.tape_over_fwd() > 1.0);
    }

    #[test]
    fn lifetime_reversal_makes_first_tape_entry_longest() {
        // The first-produced tape value is consumed last: its lifetime
        // must be the largest bucket.
        let (_, t) = traced();
        let times = node_index_times(&t);
        let buckets = tape_lifetime_quantiles(&t, &times, 5);
        assert!(!buckets.is_empty());
        for w in buckets.windows(2) {
            assert!(w[0].max_lifetime <= w[1].max_lifetime);
        }
        let total: f64 = buckets.iter().map(|b| b.fraction).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn quantiles_empty_without_tape() {
        let mut b = FunctionBuilder::new("notape");
        let x = b.array("x", 4, ArrayKind::Input, Scalar::F64);
        b.for_loop("i", 0, 4, |b, i| {
            let _ = b.load(x, i);
        });
        let f = b.finish();
        let mut mem = Memory::for_function(&f);
        let t = trace_function(&f, &mut mem, TraceOptions::default()).unwrap();
        assert!(tape_lifetime_quantiles(&t, &node_index_times(&t), 5).is_empty());
    }

    #[test]
    fn kind_split_matches() {
        let (f, t) = traced();
        let m = accesses_by_array_kind(&f, &t);
        assert_eq!(m[&ArrayKind::Input], 8);
        assert_eq!(m[&ArrayKind::Tape], 16);
        assert_eq!(m[&ArrayKind::Shadow], 8);
    }

    #[test]
    fn register_pressure_on_chain_vs_parallel() {
        // A dependent chain needs 1 live value; n parallel values all
        // consumed at the end need n.
        let mut b = FunctionBuilder::new("chain");
        let o = b.array("o", 1, ArrayKind::Output, Scalar::F64);
        let one = b.f64(1.0);
        let mut v = b.f64(0.5);
        for _ in 0..6 {
            v = b.fadd(v, one);
        }
        b.store_cell(o, v);
        let f = b.finish();
        let mut mem = Memory::for_function(&f);
        let t = trace_function(&f, &mut mem, TraceOptions::default()).unwrap();
        let chain = register_pressure(&f, &t, 4);
        assert!(chain.max_live <= 2, "{chain:?}");
        assert_eq!(chain.spills, 0);

        let mut b = FunctionBuilder::new("wide");
        let o = b.array("o", 1, ArrayKind::Output, Scalar::F64);
        let one = b.f64(1.0);
        let vals: Vec<_> = (0..8).map(|_| b.fadd(one, one)).collect();
        let mut acc = vals[0];
        for &v in &vals[1..] {
            acc = b.fmul(acc, v);
        }
        b.store_cell(o, acc);
        let f = b.finish();
        let mut mem = Memory::for_function(&f);
        let t = trace_function(&f, &mut mem, TraceOptions::default()).unwrap();
        let wide = register_pressure(&f, &t, 4);
        assert!(wide.max_live >= 7, "{wide:?}");
        assert!(wide.spills > 0, "a 4-register file must spill: {wide:?}");
        let roomy = register_pressure(&f, &t, 16);
        assert_eq!(roomy.spills, 0);
    }

    #[test]
    fn max_live_bounded_by_touched() {
        let (_, t) = traced();
        let s = trace_stats(&t);
        assert!(s.max_live_bytes <= s.bytes_touched);
        assert!(s.max_live_bytes > 0);
    }
}
