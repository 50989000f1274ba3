//! Pins the simulator's per-node memory footprint with a counting
//! global allocator (a binary of its own: the allocator is
//! process-wide, and the one test below runs alone in it).
//!
//! The ledger: a `PreparedSim` holds the trace's shared column block
//! (an `Arc` clone, no allocation) plus 4 bytes of initial indegree and
//! 4 of successor offset per node, 4 per dependence edge and the root
//! list. One simulation's run state is an 8-byte ready/indegree word
//! per node (plus a side table for nodes with 2^24 - 1 or more
//! dependences, which no registry trace has); the event wheel, wait
//! queues, MSHRs and cache come on top and do not grow with the trace.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use tapeflow_autodiff::Gradient;
use tapeflow_benchmarks::{by_name, Benchmark, Scale};
use tapeflow_core::{compile, CompileOptions};
use tapeflow_ir::trace::{trace_function, TraceOptions};
use tapeflow_ir::{ArrayId, Function, InstId, Memory, NodeId, Trace};
use tapeflow_sim::{simulate_prepared, PreparedSim, SimOptions, SystemConfig};

/// Bytes currently allocated, and the most allocated at once since the
/// last [`Counting::reset_peak`].
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

impl Counting {
    fn grow(by: usize) {
        let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }

    fn shrink(by: usize) {
        LIVE.fetch_sub(by, Ordering::Relaxed);
    }

    fn reset_peak() -> usize {
        let live = LIVE.load(Ordering::Relaxed);
        PEAK.store(live, Ordering::Relaxed);
        live
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            Counting::grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            Counting::grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        Counting::shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            // Counted as a fresh block before the old one goes, as the
            // moving case holds both.
            Counting::grow(new_size);
            Counting::shrink(layout.size());
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Traces `func`, the gradient of `bench` or a compiled form of it, on
/// the benchmark's inputs with the loss seed set, as the bench harness
/// does.
fn trace_of(bench: &Benchmark, grad: &Gradient, func: &Function, barrier: InstId) -> Trace {
    let mut mem = Memory::for_function(func);
    for i in 0..bench.func.arrays().len() {
        mem.clone_array_from(&bench.mem, ArrayId::new(i));
    }
    let shadow = grad.shadow_of(bench.loss.array).unwrap();
    mem.set_f64_at(shadow, bench.loss.index, 1.0);
    let opts = TraceOptions {
        phase_barrier: Some(barrier),
    };
    trace_function(func, &mut mem, opts).unwrap()
}

/// Room for the run's structures that do not scale with the node count
/// at this trace size: the event wheel (a 16 KiB slot table), the
/// event pool and wait queues (grown to the most events in flight), the
/// cache's tag store and the report. They measure 84 KiB on the lenet5
/// gradient and 125 KiB on its compiled form, which leaves far less
/// room than one more 8-byte per-node array would take.
const RUN_FIXED: usize = 160 << 10;

/// Checks the bytes `PreparedSim::new` keeps for `trace` against the
/// arena's exact ledger, and the peak bytes one simulation allocates
/// against 8 per node plus [`RUN_FIXED`].
fn check_footprint(label: &str, trace: &Trace) {
    let n = trace.len();
    let edges = trace.edge_count();
    let roots = (0..n)
        .filter(|&i| trace.deps(NodeId::new(i)).is_empty())
        .count();

    let before = Counting::reset_peak();
    let prep = PreparedSim::new(trace).unwrap();
    let kept = LIVE.load(Ordering::Relaxed) - before;
    // Indegrees and successor offsets (`n + 1`), the successor payload
    // and the root list, whose pushes may leave it up to twice its
    // length.
    let ledger = 4 * n + 4 * (n + 1) + 4 * edges + 8 * roots;
    eprintln!(
        "{label}: {n} nodes, {edges} edges, {roots} roots; the arena keeps {kept} B \
         (ledger {ledger} B, {:.2} B/node)",
        kept as f64 / n as f64
    );
    assert!(kept <= ledger, "{label}: arena over its ledger");

    let before = Counting::reset_peak();
    let report = simulate_prepared(&prep, &SystemConfig::default(), &SimOptions::default());
    let peak = PEAK.load(Ordering::Relaxed) - before;
    assert!(report.cycles > 0);
    eprintln!(
        "{label}: one run peaks at {peak} B ({:.2} B/node; {} B above 8 B/node)",
        peak as f64 / n as f64,
        peak as isize - 8 * n as isize
    );
    assert!(
        peak <= 8 * n + RUN_FIXED,
        "{label}: run state over 8 B/node"
    );
}

#[test]
fn arena_and_run_state_stay_within_the_per_node_ledger() {
    // lenet5 is the largest Tiny benchmark. Its gradient runs on the
    // event loop; the compiled form streams the tape through the
    // scratchpad and runs on the per-cycle core.
    let bench = by_name("lenet5", Scale::Tiny);
    let grad = bench.gradient();
    let tf = compile(&grad, &CompileOptions::default()).unwrap();
    check_footprint(
        "Enzyme",
        &trace_of(&bench, &grad, &grad.func, grad.phase_barrier),
    );
    check_footprint(
        "Tflow",
        &trace_of(&bench, &grad, &tf.func, tf.phase_barrier),
    );
}
