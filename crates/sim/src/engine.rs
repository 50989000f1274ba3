//! The cycle-level dataflow scheduler (event-driven core).
//!
//! Executes a [`tapeflow_ir::Trace`] (dynamic dataflow graph) against
//! the modelled datapath: every node issues once its dependences
//! complete and its resource (FPU slots, integer slots, cache ports,
//! scratchpad banks, stream engines) is free that cycle. DRAM is a
//! shared bandwidth server used by cache fills, write-backs and stream
//! transfers; stream engines run decoupled from the compute barriers,
//! which is what lets double-buffered layers overlap streaming with the
//! adjacent layer's compute exactly as in the paper's §3.5.
//!
//! ## Host-throughput architecture
//!
//! The scheduler runs off a [`PreparedSim`] arena — config-independent
//! and built once per trace: the trace's own per-node class, flag and
//! address columns and stream sizes (shared, not copied), plus the
//! successor CSR and initial indegrees — reused across an entire
//! parameter sweep. The hot loop reads only that arena, keeps a single
//! reusable conflict scratch buffer instead of a per-cycle allocation,
//! and **gap-skips**: whenever nothing can issue before the next
//! engine-free or node-ready boundary, time jumps straight there
//! instead of crawling cycle by cycle.
//!
//! On top of that, unprobed runs (statically known via
//! [`SimProbe::IS_NOOP`]) serve the in-order FP and integer issue queues
//! *analytically*: the event heap pops ready nodes in exactly the order
//! they would have entered those queues, and a width-limited in-order
//! queue has a two-word closed form (`IssueSrv`) that assigns each op
//! its exact issue cycle — contention included — without queue
//! round-trips or per-cycle crawling. Traces that never touch the
//! scratchpad or stream engines (every non-streaming variant) drop the
//! cycle loop entirely and run as a pure event loop (`dataflow_loop`)
//! in which the memory queue is served by the same closed form plus the
//! MSHR stall rule. All of this is schedule-preserving, not
//! approximate: reports, stall attributions and timelines stay
//! byte-identical to the scalar per-cycle loop this core replaced. That
//! loop no longer ships; it lives on as the reference oracle of the
//! cross-engine equivalence suite (`crates/bench/tests/equivalence`),
//! which this crate's unit tests also compile as `crate::legacy`.
//! Skipped cycles are not announced to probes one by one;
//! [`crate::probe::AttributionProbe`] attributes them run-length-wise
//! from in-flight state, preserving `sum(attributed) == cycles * PEs`.
//!
//! Both loops run on one scheduler state (`SchedState`), which holds
//! everything either loop mutates except the cache. Per node it is one
//! 8-byte word packing the latest dependence finish time (40 bits,
//! hence [`FINISH_LIMIT`]) with the outstanding dependence count (24
//! bits; larger counts wait in a side table). Its `Clone` is the
//! checkpoint [`crate::sweep`] resumes from, and one crate-private
//! function (`run_unprobed`) runs any unprobed simulation from a fresh
//! or cloned state on whichever loop the trace and config select.

use crate::cache::Cache;
use crate::config::{EnergyTable, SystemConfig};
use crate::prep::{PreparedSim, FINISH_LIMIT};
use crate::probe::{CacheAccessEvent, NoProbe, ProbeGeometry, SimProbe};
use crate::report::{EnergyReport, SimReport};
use std::collections::{BinaryHeap, VecDeque};
use tapeflow_ir::trace::{FLAG_REV, FLAG_STREAM_IN, FLAG_TAPE};
use tapeflow_ir::OpClass;

/// Simulation options.
#[derive(Clone, Copy, Debug, Default)]
pub struct SimOptions {
    /// Record each node's completion cycle in the report (needed by the
    /// lifetime characterizations; costs one `u64` per node).
    pub record_node_times: bool,
}

/// How many queued accesses a banked resource may inspect per cycle
/// (a bounded scheduling window keeps contended simulations linear).
const SPAD_SCAN_WINDOW: usize = 64;

#[derive(Clone)]
struct Dram {
    busy: f64,
    bytes_per_cycle: f64,
    latency: u64,
}

impl Dram {
    fn new(cfg: &SystemConfig) -> Self {
        Dram {
            busy: 0.0,
            bytes_per_cycle: cfg.dram.bytes_per_cycle,
            latency: cfg.dram.latency,
        }
    }

    /// Reserves bandwidth for `bytes` starting no earlier than `now`;
    /// returns `(bandwidth_done, completion)` — pipelined consumers (the
    /// stream engines) free up at `bandwidth_done` while the data itself
    /// lands at `completion`.
    fn transfer(&mut self, now: u64, bytes: u64) -> (u64, u64) {
        let start = self.busy.max(now as f64);
        self.busy = start + bytes as f64 / self.bytes_per_cycle;
        let bw_done = self.busy.ceil() as u64;
        (bw_done, bw_done + self.latency)
    }
}

/// Simulates a [`PreparedSim`] arena on `cfg`: prepare once with
/// [`PreparedSim::new`] (which fails with [`crate::SimError`] when the
/// trace exceeds the scheduler's 32-bit index limits), then simulate
/// every configuration.
///
/// # Panics
///
/// When a finish time reaches [`FINISH_LIMIT`] (`2^40` cycles).
pub fn simulate_prepared(prep: &PreparedSim, cfg: &SystemConfig, opts: &SimOptions) -> SimReport {
    simulate_prepared_probed(prep, cfg, opts, &mut NoProbe)
}

/// [`simulate_prepared`], reporting every issue, stall and completion to
/// `probe` (see [`crate::probe`]). With [`NoProbe`] this monomorphizes
/// to the unprobed hot loop, which is what [`simulate_prepared`] calls —
/// observability costs nothing unless a probe asks for it.
pub fn simulate_prepared_probed<P: SimProbe>(
    prep: &PreparedSim,
    cfg: &SystemConfig,
    opts: &SimOptions,
    probe: &mut P,
) -> SimReport {
    if prep.n == 0 {
        return SimReport::default();
    }
    // Fast path: when the probe statically observes nothing
    // ([`SimProbe::IS_NOOP`]) the run may take the analytic service
    // disciplines. Probed runs keep the per-cycle core so every hook
    // fires in per-cycle order.
    if P::IS_NOOP {
        return run_unprobed::<false>(
            prep,
            cfg,
            opts,
            SchedState::new(prep, cfg),
            Cache::new(cfg.cache),
            &mut Recording::disabled(),
        );
    }
    run_core(prep, cfg, opts, probe)
}

/// Runs an unprobed simulation of `prep` on `cfg` from `st` with `cache`
/// in the matching state — a fresh pair, or a checkpoint clone plus a
/// cache rebuilt by replaying the recorded prefix — on whichever loop
/// [`dataflow_ok`] selects, and finalizes the report. With `REC = true`
/// the loop appends to `rec` and takes its scheduled checkpoints.
pub(crate) fn run_unprobed<const REC: bool>(
    prep: &PreparedSim,
    cfg: &SystemConfig,
    opts: &SimOptions,
    mut st: SchedState,
    mut cache: Cache,
    rec: &mut Recording,
) -> SimReport {
    if dataflow_ok(prep, cfg) {
        dataflow_loop::<REC>(prep, cfg, &mut st, &mut cache, rec);
    } else {
        core_loop::<NoProbe, REC>(prep, cfg, &mut st, &mut cache, rec, &mut NoProbe);
    }
    finalize(st, cache, prep, cfg, opts)
}

/// Whether `prep` on `cfg` is served by the pure event loop
/// ([`dataflow_loop`]) when unprobed: no scratchpad or stream nodes, at
/// least one cache port, and the analytic-server preconditions hold.
fn dataflow_ok(prep: &PreparedSim, cfg: &SystemConfig) -> bool {
    prep.n > 0 && !prep.spad_or_stream() && cfg.cache.ports >= 1 && analytic_ok(cfg)
}

/// Whether the analytic issue servers model `cfg` exactly: every
/// compute latency ≥ 1 keeps completions strictly after their drain
/// cycle (so serving at drain time cannot reorder same-cycle queue
/// arrivals), and nonzero widths keep the server recurrence
/// well-defined (a zero-width config livelocks identically on every
/// core, so it stays on the per-cycle loop). The canonical
/// configurations all qualify.
fn analytic_ok(cfg: &SystemConfig) -> bool {
    cfg.pe.fp_issue >= 1
        && cfg.pe.int_issue >= 1
        && cfg.pe.fp_alu_latency >= 1
        && cfg.pe.fp_mul_latency >= 1
        && cfg.pe.fp_long_latency >= 1
        && cfg.pe.int_latency >= 1
        && cfg.cache.hit_latency >= 1
}

/// Analytic in-order issue server for a width-limited resource.
///
/// The event heap pops ready nodes in `(cycle, id)` order — exactly the
/// order they would have entered the corresponding in-order issue queue
/// (the per-cycle loop drains the heap into the queues in that same
/// order, and arrival cycles are non-decreasing over a run). A width-`w`
/// FIFO queue serving up to `w` ops per cycle then has a two-word
/// closed form: `cur` is the cycle the previous op issued and `used` how
/// many ops have issued at `cur`. An op arriving at `at > cur` finds
/// the queue drained and issues immediately; an op arriving at or
/// behind the backlog issues at `cur` if a slot is left there, else
/// opens cycle `cur + 1`. This reproduces the per-cycle loop's
/// schedule exactly, width contention included.
#[derive(Clone, Copy)]
struct IssueSrv {
    cur: u64,
    used: usize,
}

impl IssueSrv {
    fn new() -> Self {
        IssueSrv { cur: 0, used: 0 }
    }

    #[inline]
    fn issue_at(&mut self, at: u64, width: usize) -> u64 {
        if self.cur < at {
            self.cur = at;
            self.used = 1;
        } else if self.used < width {
            self.used += 1;
        } else {
            self.cur += 1;
            self.used = 1;
        }
        self.cur
    }
}

/// Low bits of a run-state word that count a node's outstanding
/// dependences; the bits above hold its latest dependence finish time
/// (after it completes, its own). 24 bits cover every registry trace:
/// a node's dependences are distinct earlier nodes, and the largest
/// trace (gravity's Tflow form at Large) has 6.3 M nodes in all. Unit
/// tests use 3 bits so that their barriers take the wide path.
const IND_BITS: u32 = if cfg!(test) { 3 } else { 24 };
const IND_MASK: u64 = (1 << IND_BITS) - 1;
/// Indegree field value meaning "the count lives in `SchedState::wide`":
/// nodes whose initial indegree reaches it keep their count in the
/// side table until it drops below, then move it back into the word.
const IND_WIDE: u64 = IND_MASK;

/// Counts one finished dependence of wide node `s` in `wide` and
/// returns the indegree field its word takes: [`IND_WIDE`] while the
/// count stays at or above it, else the count itself, whose entry
/// leaves the table.
#[cold]
#[inline(never)]
fn wide_done(wide: &mut Vec<(u32, u32)>, s: u32) -> u64 {
    let i = wide
        .binary_search_by_key(&s, |&(node, _)| node)
        .expect("a node whose field holds the sentinel has a side-table entry");
    wide[i].1 -= 1;
    let left = u64::from(wide[i].1);
    if left < IND_WIDE {
        wide.remove(i);
        left
    } else {
        IND_WIDE
    }
}

/// The scheduler's complete mutable state, shared by both loops —
/// everything they touch except the cache, which an incremental
/// re-simulation rebuilds by replaying the recorded access prefix
/// rather than by copy (see [`crate::sweep`]). `Clone` *is* the
/// checkpoint: the state is captured at a cycle (per-cycle core) or
/// batch (event loop) boundary and the same loop resumes from the copy
/// with byte-identical results. The copy keeps the recorded config's
/// DRAM model and MSHR count; a session only resumes it under a config
/// whose `stream` and `cache_timing` classes match.
#[derive(Clone)]
pub(crate) struct SchedState {
    /// One 8-byte word per node, `ready << IND_BITS | indeg`: the
    /// latest dependence finish time seen and the dependences still
    /// outstanding, so the completion walk makes one random access per
    /// dependence edge. A completed node's word holds its finish time:
    /// nothing reads a node's readiness once it has issued. Exact while
    /// every finish time is below [`FINISH_LIMIT`], which `finalize`
    /// checks on `max_finish`.
    pend: Vec<u64>,
    /// `(node, outstanding)` for the nodes whose indegree field holds
    /// [`IND_WIDE`], sorted by node. Empty on every registry trace.
    pub(crate) wide: Vec<(u32, u32)>,
    events: EventQ,
    /// Per-class in-order wait queues (per-cycle core only).
    q_fp: VecDeque<u32>,
    q_int: VecDeque<u32>,
    q_mem: VecDeque<u32>,
    q_spad: VecDeque<u32>,
    q_stream: [VecDeque<u32>; 2],
    /// Closed-form issue servers standing in for `q_fp`, `q_int` and
    /// `q_mem` (event loop only).
    fp_srv: IssueSrv,
    int_srv: IssueSrv,
    mem_srv: IssueSrv,
    /// MSHR free times: a demand miss needs a slot, else the memory
    /// queue stalls at its head.
    mshr: Vec<u64>,
    dram: Dram,
    stream_free: [u64; 2],
    report: SimReport,
    /// Current cycle (per-cycle core only; the event loop reads time
    /// off its event queue).
    now: u64,
    completed: usize,
    max_finish: u64,
    /// Cache accesses served so far — the recording/checkpoint clock.
    pub(crate) accesses: u64,
}

impl SchedState {
    pub(crate) fn new(prep: &PreparedSim, cfg: &SystemConfig) -> Self {
        let mut events = EventQ::new(wheel_slots(prep.n));
        for &r in &prep.roots {
            events.push(0, r);
        }
        SchedState {
            pend: prep
                .indeg0
                .iter()
                .map(|&k| u64::from(k).min(IND_WIDE))
                .collect(),
            wide: (0u32..)
                .zip(&prep.indeg0)
                .filter(|&(_, &k)| u64::from(k) >= IND_WIDE)
                .map(|(i, &k)| (i, k))
                .collect(),
            events,
            q_fp: VecDeque::with_capacity(64),
            q_int: VecDeque::with_capacity(64),
            q_mem: VecDeque::with_capacity(64),
            q_spad: VecDeque::with_capacity(64),
            q_stream: [VecDeque::with_capacity(16), VecDeque::with_capacity(16)],
            fp_srv: IssueSrv::new(),
            int_srv: IssueSrv::new(),
            mem_srv: IssueSrv::new(),
            mshr: vec![0; cfg.cache.mshrs.max(1)],
            dram: Dram::new(cfg),
            stream_free: [0u64; 2],
            report: SimReport::default(),
            now: 0,
            completed: 0,
            max_finish: 0,
            accesses: 0,
        }
    }

    /// Records node `id` as finished at `fin`.
    #[inline(always)]
    fn node_done(&mut self, id: usize, fin: u64) {
        self.pend[id] = fin << IND_BITS;
        self.max_finish = self.max_finish.max(fin);
        self.completed += 1;
    }

    /// A finished node's finish time.
    fn finish_time(&self, id: usize) -> u64 {
        self.pend[id] >> IND_BITS
    }

    /// Counts one dependence of node `s` done at `fin`; returns `s`'s
    /// ready time once that was its last outstanding one.
    #[inline(always)]
    fn dep_done(&mut self, s: u32, fin: u64) -> Option<u64> {
        let w = self.pend[s as usize];
        let ready = (w >> IND_BITS).max(fin);
        let indeg = match w & IND_MASK {
            IND_WIDE => wide_done(&mut self.wide, s),
            k => k - 1,
        };
        self.pend[s as usize] = ready << IND_BITS | indeg;
        (indeg == 0).then_some(ready)
    }
}

/// The per-cycle scheduler core: the fully announced loop (every issue
/// reported to `probe`, any probe type), with stream gap-skipping. Runs
/// probed simulations; unprobed ones go through [`run_unprobed`].
fn run_core<P: SimProbe>(
    prep: &PreparedSim,
    cfg: &SystemConfig,
    opts: &SimOptions,
    probe: &mut P,
) -> SimReport {
    let mut st = SchedState::new(prep, cfg);
    let mut cache = Cache::new(cfg.cache);
    probe.on_start(&ProbeGeometry::of(cfg, prep.phase_barrier_idx.is_some()));
    core_loop::<P, false>(
        prep,
        cfg,
        &mut st,
        &mut cache,
        &mut Recording::disabled(),
        probe,
    );
    probe.on_finish(st.max_finish);
    finalize(st, cache, prep, cfg, opts)
}

/// The per-cycle loop itself, resumable from any [`SchedState`] captured
/// at a cycle boundary. With `REC = true` every cache access's address
/// and outcome is appended to `rec` and checkpoints are taken at cycle
/// boundaries — the per-cycle counterpart of [`dataflow_loop`]'s
/// recording mode, which is what lets scratchpad and stream traces join
/// [`crate::sweep`]'s incremental re-simulation. `REC = true` is only
/// ever driven with [`NoProbe`] (the sweep path is unprobed by
/// construction); the recording hooks compile out under `REC = false`.
fn core_loop<P: SimProbe, const REC: bool>(
    prep: &PreparedSim,
    cfg: &SystemConfig,
    st: &mut SchedState,
    cache: &mut Cache,
    rec: &mut Recording,
    probe: &mut P,
) {
    let n = prep.n;
    let class = &prep.cols.class()[..n];
    let flags = &prep.cols.flags()[..n];
    let addr = &prep.cols.addr()[..n];
    let succ_off = &prep.succ_off[..n + 1];
    let succ_dat = &prep.succ_dat[..];

    // Reusable conflict scratch (the old loop allocated one per cycle).
    // Always drained by the end of a cycle, so it is never part of a
    // checkpoint.
    let mut stash: Vec<u32> = Vec::with_capacity(SPAD_SCAN_WINDOW);
    // Event-drain scratch: one id-sorted batch per occupied cycle plus
    // the side heap for same-cycle Sync-successor insertions (see the
    // drain below). Both empty at every cycle boundary, so neither is
    // part of a checkpoint.
    let mut batch: Vec<u32> = Vec::with_capacity(256);
    let mut side: BinaryHeap<std::cmp::Reverse<u32>> = BinaryHeap::new();

    // Byte accounting must use the geometry the cache actually built
    // (`Cache::new` normalizes degenerate line sizes).
    let line_bytes = cache.config().line_bytes as u64;

    let phase_barrier_idx = prep.phase_barrier_idx;

    // Completion bookkeeping shared by all issue paths. The three-arg
    // form is used only while draining the `t == now` batch: a Sync
    // completing there readies same-cycle successors that must
    // interleave into the batch by id (the heap this replaced popped
    // them that way); everywhere else same-cycle readiness goes through
    // the wheel and is picked up by a later batch or cycle.
    macro_rules! complete {
        ($id:expr, $fin:expr) => {
            complete!($id, $fin, false)
        };
        ($id:expr, $fin:expr, $merge:expr) => {{
            let id = $id as usize;
            let fin: u64 = $fin;
            st.node_done(id, fin);
            if phase_barrier_idx == Some(id) {
                probe.on_phase_barrier(fin);
            }
            for s in &succ_dat[succ_off[id] as usize..succ_off[id + 1] as usize] {
                if let Some(ready) = st.dep_done(*s, fin) {
                    if phase_barrier_idx == Some(*s as usize) {
                        probe.on_barrier_ready(st.now, ready, *s);
                    }
                    if $merge && ready == st.now {
                        side.push(std::cmp::Reverse(*s));
                    } else {
                        st.events.push(ready, *s);
                    }
                }
            }
        }};
    }

    while st.completed < n {
        if REC && st.accesses >= rec.next_ckpt {
            rec.take_ckpt(st);
        }
        probe.on_cycle_start(st.now);
        // Drain events that became ready, one id-sorted batch per
        // occupied cycle in time order — exactly the (time, id) order
        // the event heap this replaced popped in. Straggler batches
        // (`t < now`, reachable only under zero-latency datapaths)
        // cannot receive same-cycle insertions — a Sync completing at
        // `now` readies successors at `now` or later, which land in a
        // later batch — so only the `t == now` batch merges against the
        // side heap of Sync-successor insertions.
        while let Some(t) = st.events.peek_time() {
            if t > st.now {
                break;
            }
            st.events.take_at(t, &mut batch);
            batch.sort_unstable();
            let merge = t == st.now;
            let mut bi = 0;
            loop {
                let id = if merge {
                    match (batch.get(bi).copied(), side.peek().copied()) {
                        (Some(b), Some(std::cmp::Reverse(s))) => {
                            if s < b {
                                side.pop();
                                s
                            } else {
                                bi += 1;
                                b
                            }
                        }
                        (Some(b), None) => {
                            bi += 1;
                            b
                        }
                        (None, Some(_)) => {
                            let std::cmp::Reverse(s) = side.pop().expect("peeked");
                            s
                        }
                        (None, None) => break,
                    }
                } else {
                    match batch.get(bi).copied() {
                        Some(b) => {
                            bi += 1;
                            b
                        }
                        None => break,
                    }
                };
                match class[id as usize] {
                    OpClass::Sync => {
                        // Barriers and SAlloc cost nothing by themselves.
                        if merge {
                            complete!(id, st.now, true);
                        } else {
                            complete!(id, st.now);
                        }
                    }
                    OpClass::FpAlu | OpClass::FpMul | OpClass::FpLong => st.q_fp.push_back(id),
                    OpClass::Int => st.q_int.push_back(id),
                    OpClass::MemLoad | OpClass::MemStore => st.q_mem.push_back(id),
                    OpClass::SpadLoad | OpClass::SpadStore => st.q_spad.push_back(id),
                    OpClass::Stream => {
                        let dir = usize::from(flags[id as usize] & FLAG_STREAM_IN != 0);
                        st.q_stream[dir].push_back(id);
                    }
                }
            }
            batch.clear();
        }

        // Issue FP and integer ops through the width-limited slots.
        let mut fp_left = cfg.pe.fp_issue;
        while fp_left > 0 {
            let Some(id) = st.q_fp.pop_front() else { break };
            fp_left -= 1;
            st.report.fp_ops += 1;
            let c = class[id as usize];
            let lat = match c {
                OpClass::FpAlu => cfg.pe.fp_alu_latency,
                OpClass::FpMul => cfg.pe.fp_mul_latency,
                _ => cfg.pe.fp_long_latency,
            };
            probe.on_fp_issue(st.now, st.now + lat, c, id);
            complete!(id, st.now + lat);
        }

        let mut int_left = cfg.pe.int_issue;
        while int_left > 0 {
            let Some(id) = st.q_int.pop_front() else {
                break;
            };
            int_left -= 1;
            st.report.int_ops += 1;
            probe.on_int_issue(st.now, st.now + cfg.pe.int_latency, id);
            complete!(id, st.now + cfg.pe.int_latency);
        }

        // Issue cache accesses through the limited ports. A miss needs a
        // free MSHR; when none is free the queue stalls at its head
        // (in-order memory queue, the "reactive fill" bottleneck).
        let mut ports_left = cfg.cache.ports;
        while ports_left > 0 {
            let Some(&id) = st.q_mem.front() else { break };
            let f = flags[id as usize];
            let is_write = class[id as usize] == OpClass::MemStore;
            let (is_tape, is_rev) = (f & FLAG_TAPE != 0, f & FLAG_REV != 0);
            let res = cache.access(addr[id as usize], is_write);
            // A miss claims the first slot with the minimum free time
            // (same pick as the iterator-based scan this replaced);
            // hits never consult the MSHRs, so the scan is skipped for
            // the majority path.
            let mut mshr_slot = 0;
            if !res.hit {
                for i in 1..st.mshr.len() {
                    if st.mshr[i] < st.mshr[mshr_slot] {
                        mshr_slot = i;
                    }
                }
            }
            if REC {
                let m = (REC_WRITE * u8::from(is_write))
                    | (REC_HIT * u8::from(res.hit))
                    | (REC_WB * u8::from(res.writeback.is_some()));
                debug_assert_eq!(addr[id as usize] & !REC_ADDR_MASK, 0);
                rec.addrs
                    .push(addr[id as usize] | (u64::from(m) << REC_SHIFT));
            }
            st.accesses += 1;
            if !res.hit && st.mshr[mshr_slot] > st.now {
                // Undo nothing: the line was allocated, but the request
                // still pays the stall — model the stall by waiting.
                // (Allocation-on-stall slightly favours the baseline.)
                st.report.cache.misses += 1;
                st.report.cache.tape_misses += u64::from(is_tape);
                st.report.cache.rev_misses += u64::from(is_rev);
                st.report.dram_fill_bytes += line_bytes;
                if res.writeback.is_some() {
                    st.report.cache.writebacks += 1;
                    st.report.dram_writeback_bytes += line_bytes;
                    let _ = st.dram.transfer(st.now, line_bytes);
                }
                let start = st.mshr[mshr_slot];
                let (_, fin) = st.dram.transfer(start, line_bytes);
                st.mshr[mshr_slot] = fin;
                st.q_mem.pop_front();
                probe.on_mshr_stall(st.now, is_tape, id);
                probe.on_cache_access(&CacheAccessEvent {
                    node: id,
                    now: st.now,
                    fin: fin + cfg.cache.hit_latency,
                    port: cfg.cache.ports - ports_left,
                    hit: false,
                    is_tape,
                    is_rev,
                    is_write,
                });
                complete!(id, fin + cfg.cache.hit_latency);
                // Head-of-line: nothing else issues behind a stalled miss.
                break;
            }
            st.q_mem.pop_front();
            ports_left -= 1;
            let port = cfg.cache.ports - ports_left - 1;
            if res.hit {
                st.report.cache.hits += 1;
                st.report.cache.tape_hits += u64::from(is_tape);
                st.report.cache.rev_hits += u64::from(is_rev);
                probe.on_cache_access(&CacheAccessEvent {
                    node: id,
                    now: st.now,
                    fin: st.now + cfg.cache.hit_latency,
                    port,
                    hit: true,
                    is_tape,
                    is_rev,
                    is_write,
                });
                complete!(id, st.now + cfg.cache.hit_latency);
            } else {
                st.report.cache.misses += 1;
                st.report.cache.tape_misses += u64::from(is_tape);
                st.report.cache.rev_misses += u64::from(is_rev);
                st.report.dram_fill_bytes += line_bytes;
                if res.writeback.is_some() {
                    st.report.cache.writebacks += 1;
                    st.report.dram_writeback_bytes += line_bytes;
                    let _ = st.dram.transfer(st.now, line_bytes);
                }
                let (_, fin) = st.dram.transfer(st.now, line_bytes);
                st.mshr[mshr_slot] = fin;
                probe.on_cache_access(&CacheAccessEvent {
                    node: id,
                    now: st.now,
                    fin: fin + cfg.cache.hit_latency,
                    port,
                    hit: false,
                    is_tape,
                    is_rev,
                    is_write,
                });
                complete!(id, fin + cfg.cache.hit_latency);
            }
        }

        // Issue scratchpad accesses, one per bank per cycle, scanning a
        // bounded window past bank conflicts.
        if !st.q_spad.is_empty() {
            let mut banks_used: u64 = 0;
            let mut scanned = 0;
            stash.clear();
            while scanned < SPAD_SCAN_WINDOW {
                let Some(id) = st.q_spad.pop_front() else {
                    break;
                };
                scanned += 1;
                let bank = (addr[id as usize] as usize) % cfg.spad.banks.max(1);
                if banks_used & (1u64 << bank) == 0 {
                    banks_used |= 1u64 << bank;
                    st.report.spad_accesses += 1;
                    probe.on_spad_access(st.now, st.now + cfg.spad.latency, bank, id);
                    complete!(id, st.now + cfg.spad.latency);
                } else {
                    probe.on_spad_conflict(st.now, bank, id);
                    stash.push(id);
                }
            }
            for id in stash.drain(..).rev() {
                st.q_spad.push_front(id);
            }
        }

        // Issue streams: one in flight per engine.
        for dir in 0..2 {
            if st.stream_free[dir] <= st.now {
                if let Some(id) = st.q_stream[dir].pop_front() {
                    let bytes = u64::from(prep.cols.bytes(id as usize));
                    st.report.stream_cmds += 1;
                    st.report.dram_stream_bytes += bytes;
                    let (bw_done, fin) = st.dram.transfer(st.now, bytes);
                    st.stream_free[dir] = bw_done;
                    probe.on_stream(st.now, bw_done, fin, dir, bytes, id);
                    complete!(id, fin);
                }
            }
        }

        let compute_busy = !st.q_fp.is_empty()
            || !st.q_int.is_empty()
            || !st.q_mem.is_empty()
            || !st.q_spad.is_empty();
        let queues_busy = compute_busy || !st.q_stream[0].is_empty() || !st.q_stream[1].is_empty();
        probe.on_cycle_end(st.now, queues_busy);
        if st.completed >= n {
            break;
        }
        // Advance time.
        if compute_busy {
            // Memory/scratchpad queues make progress every cycle while
            // non-empty; no cycle may be skipped.
            st.now += 1;
        } else if queues_busy {
            // Gap-skip: only stream commands are pending and every engine
            // holding work is busy. Nothing can issue before the earliest
            // engine-free or node-ready boundary, so jump straight there
            // (at least one cycle, matching the scalar loop's `now += 1`
            // when that boundary is immediate).
            let mut next = u64::MAX;
            for dir in 0..2 {
                if !st.q_stream[dir].is_empty() {
                    next = next.min(st.stream_free[dir]);
                }
            }
            if let Some(t) = st.events.peek_time() {
                next = next.min(t);
            }
            st.now = next.max(st.now + 1);
        } else if let Some(t) = st.events.peek_time() {
            // Idle: jump to the next future-ready node.
            st.now = st.now.max(t);
        } else {
            // Nothing queued and no events: all in-flight work completes
            // by itself (should not happen — everything is issued
            // synchronously), guard against livelock.
            st.now += 1;
        }
    }
}

/// Turns a finished [`SchedState`] into the report: total/forward
/// cycles, the end-of-run dirty flush, energy, and (on request) per-node
/// finish times.
fn finalize(
    mut st: SchedState,
    cache: Cache,
    prep: &PreparedSim,
    cfg: &SystemConfig,
    opts: &SimOptions,
) -> SimReport {
    // Every packed word holds a finish time no later than `max_finish`,
    // so all of them are exact when it is.
    assert!(
        st.max_finish < FINISH_LIMIT,
        "a simulated finish time of {} cycles reaches the scheduler's \
         limit of 2^40 = {FINISH_LIMIT} cycles",
        st.max_finish
    );
    let mut report = std::mem::take(&mut st.report);
    report.cycles = st.max_finish;
    report.fwd_cycles = prep
        .phase_barrier_idx
        .map_or(st.max_finish, |i| st.finish_time(i));
    // Cool-down: lines still dirty when the run ends must reach DRAM
    // eventually. Charge those write-backs to traffic exactly once —
    // this happens before energy accounting so the DRAM energy sees
    // them too — otherwise small working sets hide store traffic by
    // never evicting.
    let line_bytes = cache.config().line_bytes as u64;
    let flushed = cache.dirty_lines();
    report.cache.writebacks += flushed;
    report.cache.flush_writebacks = flushed;
    report.dram_writeback_bytes += flushed * line_bytes;

    recompute_energy(&mut report, cfg);
    if opts.record_node_times {
        report.node_finish = Some((0..prep.n).map(|i| st.finish_time(i)).collect());
    }
    report
}

/// Calendar slots in the event wheel: a power of two comfortably above
/// every service latency in the canonical configurations, so almost all
/// events land inside the window and the overflow heap stays tiny.
/// Small traces get a smaller wheel ([`wheel_slots`]) — zeroing the
/// ring costs more than the events it would hold; the overflow heap
/// absorbs the occasional far event either way.
const WHEEL: usize = 4096;

/// The wheel size for an `n`-node trace.
fn wheel_slots(n: usize) -> usize {
    (n / 4).next_power_of_two().clamp(64, WHEEL)
}

/// Sentinel pool index: end of a slot's event chain / empty free list.
const NIL: u32 = u32::MAX;

/// Calendar event queue: a time wheel with a two-level occupancy bitmap
/// plus an overflow heap for events beyond the horizon. Push is O(1);
/// finding the next occupied cycle is at most four find-first-set
/// scans; each occupied cycle drains as one sorted batch. Slot storage
/// is a pooled linked list (`head` + `pool` with a free list) rather
/// than one `Vec` per slot — a per-slot `Vec` costs thousands of
/// mallocs, reallocs and drops per run, which dominated the host
/// profile right after the binary heap it replaced. Shared by the pure
/// event loop and the per-cycle core; `Clone` makes it checkpointable
/// wholesale inside [`SchedState`].
#[derive(Clone)]
struct EventQ {
    /// Slot -> first pool node (`NIL` when empty).
    head: Vec<u32>,
    /// One bit per slot.
    occ: Vec<u64>,
    /// One bit per `occ` word (at most `WHEEL / 64 = 64` words).
    occ_sum: u64,
    /// `(next, id)` chain nodes, recycled through `free` so the pool
    /// stays at the run's peak in-flight event count.
    pool: Vec<(u32, u32)>,
    free: u32,
    over: BinaryHeap<std::cmp::Reverse<(u64, u32)>>,
    /// Window start: every ring event's time is in `[cur, cur + slots)`
    /// and every overflow event's time is `>= cur + slots`.
    cur: u64,
    /// `slots - 1` (slot count is a power of two).
    mask: usize,
    len: usize,
    /// Memoized earliest queued time, or `u64::MAX` when unknown. The
    /// per-cycle core peeks two or three times per cycle (drain check,
    /// drain re-check, gap-skip); only the first pays the bitmap scan.
    /// Pushes fold into a known value (`min`), drains invalidate it.
    cached: u64,
}

impl EventQ {
    fn new(slots: usize) -> Self {
        debug_assert!(slots.is_power_of_two() && (64..=WHEEL).contains(&slots));
        EventQ {
            head: vec![NIL; slots],
            occ: vec![0; slots / 64],
            occ_sum: 0,
            pool: Vec::with_capacity(64),
            free: NIL,
            over: BinaryHeap::new(),
            cur: 0,
            mask: slots - 1,
            len: 0,
            cached: u64::MAX,
        }
    }

    /// Links `id` into the ring slot for `t` (which must lie inside the
    /// window). Does not touch `len` — both [`EventQ::push`] and the
    /// overflow refill route through here.
    #[inline]
    fn ring_insert(&mut self, t: u64, id: u32) {
        let s = t as usize & self.mask;
        let node = if self.free != NIL {
            let node = self.free;
            self.free = self.pool[node as usize].0;
            self.pool[node as usize] = (self.head[s], id);
            node
        } else {
            self.pool.push((self.head[s], id));
            (self.pool.len() - 1) as u32
        };
        self.head[s] = node;
        self.occ[s >> 6] |= 1 << (s & 63);
        self.occ_sum |= 1 << (s >> 6);
    }

    /// Queues `id` at time `t`. Requires `t >= self.cur`: service times
    /// never precede arrival times and the window only moves forward.
    #[inline]
    fn push(&mut self, t: u64, id: u32) {
        self.len += 1;
        if self.cached != u64::MAX && t < self.cached {
            // A known earliest only moves down; unknown stays unknown.
            self.cached = t;
        }
        if t - self.cur <= self.mask as u64 {
            self.ring_insert(t, id);
        } else {
            self.over.push(std::cmp::Reverse((t, id)));
        }
    }

    /// First occupied slot at or after `cur`'s slot in window order
    /// (wrapped slots hold later times than unwrapped ones).
    fn scan(&self) -> Option<usize> {
        let base = self.cur as usize & self.mask;
        let w0 = base >> 6;
        let m = self.occ[w0] & (!0u64 << (base & 63));
        if m != 0 {
            return Some((w0 << 6) | m.trailing_zeros() as usize);
        }
        let hi = if w0 + 1 < 64 {
            self.occ_sum & (!0u64 << (w0 + 1))
        } else {
            0
        };
        if hi != 0 {
            let w = hi.trailing_zeros() as usize;
            return Some((w << 6) | self.occ[w].trailing_zeros() as usize);
        }
        let lo = self.occ_sum & !(!0u64 << w0);
        if lo != 0 {
            let w = lo.trailing_zeros() as usize;
            return Some((w << 6) | self.occ[w].trailing_zeros() as usize);
        }
        let m2 = self.occ[w0] & !(!0u64 << (base & 63));
        if m2 != 0 {
            return Some((w0 << 6) | m2.trailing_zeros() as usize);
        }
        None
    }

    /// Refills the ring from the overflow heap after the window moved.
    fn refill(&mut self) {
        while let Some(&std::cmp::Reverse((t, id))) = self.over.peek() {
            if t - self.cur > self.mask as u64 {
                break;
            }
            self.over.pop();
            self.ring_insert(t, id);
        }
    }

    /// Earliest queued time; advances the window there and refills it
    /// from the overflow heap. `None` when the queue is empty.
    fn next_time(&mut self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        let c = self.cached;
        if c != u64::MAX {
            // Memoized earliest: jump the window straight there.
            self.cur = c;
        } else if let Some(slot) = self.scan() {
            let base = self.cur as usize & self.mask;
            let delta = (slot + self.mask + 1 - base) & self.mask;
            self.cur += delta as u64;
        } else {
            // Ring empty: jump the window to the overflow minimum.
            let &std::cmp::Reverse((t, _)) = self.over.peek().expect("len > 0 with an empty ring");
            self.cur = t;
        }
        self.refill();
        // Refilling moves events without changing their times, so the
        // earliest stays exactly `cur`.
        self.cached = self.cur;
        Some(self.cur)
    }

    /// Earliest queued time without disturbing the window — the
    /// per-cycle core's replacement for `BinaryHeap::peek` in its
    /// drain and gap-skip decisions. Ring events always precede
    /// overflow events (the overflow holds times beyond the window).
    fn peek_time(&mut self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        let c = self.cached;
        if c != u64::MAX {
            return Some(c);
        }
        let t = if let Some(slot) = self.scan() {
            let base = self.cur as usize & self.mask;
            let delta = (slot + self.mask + 1 - base) & self.mask;
            self.cur + delta as u64
        } else {
            let &std::cmp::Reverse((t, _)) = self.over.peek().expect("len > 0 with an empty ring");
            t
        };
        self.cached = t;
        Some(t)
    }

    /// Advances the window to `t` (which must be a time
    /// [`EventQ::peek_time`] returned, so nothing occupied is skipped)
    /// and moves every event queued there into `batch`.
    fn take_at(&mut self, t: u64, batch: &mut Vec<u32>) {
        debug_assert!(t >= self.cur);
        if t > self.cur {
            self.cur = t;
            self.refill();
        }
        self.take_into(t, batch);
    }

    /// Moves every event queued at `t` (the value [`EventQ::next_time`]
    /// returned) into `batch`.
    fn take_into(&mut self, t: u64, batch: &mut Vec<u32>) {
        let s = t as usize & self.mask;
        let mut node = self.head[s];
        while node != NIL {
            let (next, id) = self.pool[node as usize];
            batch.push(id);
            self.pool[node as usize].0 = self.free;
            self.free = node;
            self.len -= 1;
            node = next;
        }
        self.head[s] = NIL;
        self.occ[s >> 6] &= !(1 << (s & 63));
        if self.occ[s >> 6] == 0 {
            self.occ_sum &= !(1 << (s >> 6));
        }
        // The drained slot was the earliest; the next one is unknown.
        self.cached = u64::MAX;
    }
}

/// Recorded access meta bit: the access was a store.
pub(crate) const REC_WRITE: u8 = 1 << 0;
/// Recorded access meta bit: the access hit.
pub(crate) const REC_HIT: u8 = 1 << 1;
/// Recorded access meta bit: the fill evicted a dirty line.
pub(crate) const REC_WB: u8 = 1 << 2;
/// Bit position where a recorded access's meta bits live, packed into
/// the high end of the address word itself: one array push per access
/// on the record path and one load per access on the replay path
/// instead of two. Memory addresses are byte offsets into a traced
/// function's heap image — far below this bit — and scratchpad
/// addresses (which carry `SPAD_SPACE`, bit 63) are never recorded.
pub(crate) const REC_SHIFT: u32 = 61;
/// Mask recovering the address from a packed recording word.
pub(crate) const REC_ADDR_MASK: u64 = (1 << REC_SHIFT) - 1;

/// The record of a run: the cache access stream in schedule order with
/// each access's outcome, plus periodic scheduler checkpoints. A later
/// run that only changes the cache geometry replays `addrs` through the
/// new cache and compares outcomes; while they match, the schedule is
/// provably identical, so the run can skip straight to the checkpoint
/// before the first divergence.
pub(crate) struct Recording {
    /// Packed access words: address in the low [`REC_SHIFT`] bits,
    /// `REC_*` outcome bits above ([`REC_SHIFT`]).
    pub(crate) addrs: Vec<u64>,
    /// Checkpoints in recording order, each a [`SchedState`] clone.
    /// Deliberately cache-free: the scheduler's evolution depends on
    /// the cache only through per-access outcomes, which the recording
    /// captures, so one set of checkpoints serves every geometry whose
    /// outcome stream shares the prefix (the resume path rebuilds the
    /// cache by replaying the validated prefix).
    pub(crate) ckpts: Vec<SchedState>,
    next_ckpt: u64,
    max_ckpts: usize,
    /// Last access position worth checkpointing: on a monotone ladder
    /// every future divergence lands at or before the one that caused
    /// this recording, so checkpoints past it can never be resumed from.
    ckpt_limit: u64,
}

impl Recording {
    /// A recording that records nothing (the plain-run mode; with
    /// `REC = false` the loop never touches it).
    pub(crate) fn disabled() -> Recording {
        Recording {
            addrs: Vec::new(),
            ckpts: Vec::new(),
            next_ckpt: u64::MAX,
            max_ckpts: 0,
            ckpt_limit: u64::MAX,
        }
    }

    /// A live recording: checkpoints on a geometric (doubling) access
    /// schedule starting at `first`, at most `max_ckpts` of them
    /// (memory bound; zero disables checkpointing while still
    /// recording the outcome stream). The schedule is early-biased on
    /// purpose — on a descending cache-size ladder, each smaller
    /// configuration diverges *earlier* than the last (capacity
    /// pressure bites sooner), so resumes cluster near the start of
    /// the run while late checkpoints go unused. Positions past
    /// `limit` are skipped entirely (a re-record after a divergence at
    /// access *d* passes `limit = d`: no later chained run can diverge
    /// past *d* on a monotone ladder, so checkpoints there are dead
    /// weight). `cap` preallocates the access buffers (the trace's
    /// memory-node count).
    pub(crate) fn new(first: u64, max_ckpts: usize, cap: usize, limit: u64) -> Recording {
        let first = first.max(1);
        Recording {
            addrs: Vec::with_capacity(cap),
            ckpts: Vec::new(),
            next_ckpt: if max_ckpts == 0 || first > limit {
                u64::MAX
            } else {
                first
            },
            max_ckpts,
            ckpt_limit: limit,
        }
    }

    fn take_ckpt(&mut self, st: &SchedState) {
        if self.ckpts.len() >= self.max_ckpts {
            self.next_ckpt = u64::MAX;
            return;
        }
        self.ckpts.push(st.clone());
        self.advance_schedule(st.accesses);
    }

    /// Doubling schedule; catch up past the current clock when a batch
    /// overshot several scheduled points at once, and stop once the
    /// schedule leaves the useful window.
    fn advance_schedule(&mut self, accesses: u64) {
        let mut next = self.next_ckpt;
        while next <= accesses {
            next = next.saturating_mul(2);
        }
        self.next_ckpt = if next > self.ckpt_limit {
            u64::MAX
        } else {
            next
        };
    }

    /// Drops everything past checkpoint `keep` so the tail can be
    /// re-recorded from there. The re-recorded tail takes **no new
    /// checkpoints**: each clones the per-node `pend` array (8
    /// bytes/node) plus the event queue, and on a monotone
    /// ladder every later divergence lands at or before this one,
    /// where the surviving prefix checkpoints already serve.
    pub(crate) fn truncate_to(&mut self, keep: usize) {
        let cut = self.ckpts[keep].accesses;
        self.ckpts.truncate(keep + 1);
        self.addrs.truncate(cut as usize);
        self.next_ckpt = u64::MAX;
    }
}

/// The pure event loop: no per-cycle iteration at all. Dispatched for
/// no-op probes when [`dataflow_ok`] holds — the trace never touches
/// the scratchpad or stream engines, so the only resources are the
/// FP/INT slots and the cache, all of which have exact closed-form
/// service disciplines once ops are fed in queue-arrival order. The
/// event queue's pop order *is* that order, so cache accesses, DRAM
/// transfers and MSHR assignments happen in exactly the per-cycle
/// loop's sequence with exactly its timestamps; reports are
/// byte-identical. Probe hooks are omitted — the probe is statically a
/// no-op and cannot observe the difference.
///
/// Each occupied cycle drains as one id-sorted batch from the wheel.
/// Zero-cost completions (`Sync`) may ready successors in the *same*
/// cycle; those go to a small side heap merged against the remaining
/// batch, reproducing the event heap's `(time, id)` pop order exactly.
/// All other service latencies are ≥ 1 ([`analytic_ok`]), so their
/// completions are strictly future events.
///
/// With `REC = true` every cache access's address and outcome is
/// appended to `rec` and scheduler checkpoints are taken at batch
/// boundaries — the raw material for [`crate::sweep`]'s incremental
/// re-simulation. The recording hooks compile out under `REC = false`.
fn dataflow_loop<const REC: bool>(
    prep: &PreparedSim,
    cfg: &SystemConfig,
    st: &mut SchedState,
    cache: &mut Cache,
    rec: &mut Recording,
) {
    let n = prep.n;
    let class = &prep.cols.class()[..n];
    let flags = &prep.cols.flags()[..n];
    let addr = &prep.cols.addr()[..n];
    let succ_off = &prep.succ_off[..n + 1];
    let succ_dat = &prep.succ_dat[..];
    let line_bytes = cache.config().line_bytes as u64;

    let mut batch: Vec<u32> = Vec::with_capacity(256);
    let mut side: BinaryHeap<std::cmp::Reverse<u32>> = BinaryHeap::new();

    while st.completed < n {
        if REC && st.accesses >= rec.next_ckpt {
            rec.take_ckpt(st);
        }
        // An empty queue before completion means unsatisfiable
        // dependences (not a DAG); stop with a short report instead of
        // spinning — no trace built through the public constructors can
        // get here.
        let Some(t) = st.events.next_time() else {
            break;
        };
        st.events.take_into(t, &mut batch);
        batch.sort_unstable();

        macro_rules! complete {
            ($id:expr, $fin:expr) => {{
                let id = $id as usize;
                let fin: u64 = $fin;
                st.node_done(id, fin);
                for s in &succ_dat[succ_off[id] as usize..succ_off[id + 1] as usize] {
                    if let Some(ready) = st.dep_done(*s, fin) {
                        if ready == t {
                            side.push(std::cmp::Reverse(*s));
                        } else {
                            st.events.push(ready, *s);
                        }
                    }
                }
            }};
        }

        let mut bi = 0;
        loop {
            let id = match (batch.get(bi).copied(), side.peek().copied()) {
                (Some(b), Some(std::cmp::Reverse(s))) => {
                    if s < b {
                        side.pop();
                        s
                    } else {
                        bi += 1;
                        b
                    }
                }
                (Some(b), None) => {
                    bi += 1;
                    b
                }
                (None, Some(_)) => {
                    let std::cmp::Reverse(s) = side.pop().expect("peeked");
                    s
                }
                (None, None) => break,
            };
            let idu = id as usize;
            match class[idu] {
                // Barriers and SAlloc cost nothing by themselves; their
                // same-cycle successors merge into the batch in id
                // order, exactly as the event heap would interleave
                // them.
                OpClass::Sync => complete!(id, t),
                OpClass::FpAlu | OpClass::FpMul | OpClass::FpLong => {
                    let lat = match class[idu] {
                        OpClass::FpAlu => cfg.pe.fp_alu_latency,
                        OpClass::FpMul => cfg.pe.fp_mul_latency,
                        _ => cfg.pe.fp_long_latency,
                    };
                    st.report.fp_ops += 1;
                    complete!(id, st.fp_srv.issue_at(t, cfg.pe.fp_issue) + lat);
                }
                OpClass::Int => {
                    st.report.int_ops += 1;
                    complete!(
                        id,
                        st.int_srv.issue_at(t, cfg.pe.int_issue) + cfg.pe.int_latency
                    );
                }
                OpClass::MemLoad | OpClass::MemStore => {
                    let is_write = class[idu] == OpClass::MemStore;
                    let f = flags[idu];
                    let (is_tape, is_rev) = (f & FLAG_TAPE != 0, f & FLAG_REV != 0);
                    // The memory queue follows the same closed form
                    // through the cache ports, with one extra rule at
                    // the stall site: a miss with no free MSHR ends its
                    // service cycle (head-of-line).
                    let s = st.mem_srv.issue_at(t, cfg.cache.ports);
                    let res = cache.access(addr[idu], is_write);
                    // Only misses consult the MSHRs; the min-slot scan
                    // is skipped on the majority hit path.
                    let mut mshr_slot = 0;
                    if !res.hit {
                        for i in 1..st.mshr.len() {
                            if st.mshr[i] < st.mshr[mshr_slot] {
                                mshr_slot = i;
                            }
                        }
                    }
                    if REC {
                        let m = (REC_WRITE * u8::from(is_write))
                            | (REC_HIT * u8::from(res.hit))
                            | (REC_WB * u8::from(res.writeback.is_some()));
                        debug_assert_eq!(addr[idu] & !REC_ADDR_MASK, 0);
                        rec.addrs.push(addr[idu] | (u64::from(m) << REC_SHIFT));
                    }
                    st.accesses += 1;
                    if res.hit {
                        st.report.cache.hits += 1;
                        st.report.cache.tape_hits += u64::from(is_tape);
                        st.report.cache.rev_hits += u64::from(is_rev);
                        complete!(id, s + cfg.cache.hit_latency);
                    } else {
                        st.report.cache.misses += 1;
                        st.report.cache.tape_misses += u64::from(is_tape);
                        st.report.cache.rev_misses += u64::from(is_rev);
                        st.report.dram_fill_bytes += line_bytes;
                        if res.writeback.is_some() {
                            st.report.cache.writebacks += 1;
                            st.report.dram_writeback_bytes += line_bytes;
                            let _ = st.dram.transfer(s, line_bytes);
                        }
                        if st.mshr[mshr_slot] > s {
                            // Head-of-line MSHR stall: the fill starts
                            // when a slot frees, and nothing else issues
                            // behind the stalled miss this cycle —
                            // saturate it.
                            let (_, fin) = st.dram.transfer(st.mshr[mshr_slot], line_bytes);
                            st.mshr[mshr_slot] = fin;
                            st.mem_srv.used = cfg.cache.ports;
                            complete!(id, fin + cfg.cache.hit_latency);
                        } else {
                            let (_, fin) = st.dram.transfer(s, line_bytes);
                            st.mshr[mshr_slot] = fin;
                            complete!(id, fin + cfg.cache.hit_latency);
                        }
                    }
                }
                OpClass::SpadLoad | OpClass::SpadStore | OpClass::Stream => {
                    unreachable!("dispatcher guarantees no scratchpad/stream nodes")
                }
            }
        }
        batch.clear();
    }
}

/// (Re)derives the energy block from the report's counters — a pure
/// function of them, which is what lets an incremental re-simulation
/// reuse a recorded report across cache sizes (the table's per-access
/// cache energy is the only size-dependent term).
pub(crate) fn recompute_energy(report: &mut SimReport, cfg: &SystemConfig) {
    let cache_access_pj = EnergyTable::cache_pj(cfg.cache.size_bytes);
    report.energy = EnergyReport {
        cache_pj: report.cache.accesses() as f64 * cache_access_pj,
        spad_pj: report.spad_accesses as f64 * cfg.energy.spad_pj,
        stream_pj: (report.dram_stream_bytes as f64 / 8.0) * cfg.energy.stream_elem_pj,
        dram_pj: report.dram_bytes() as f64 * cfg.energy.dram_pj_per_byte,
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use tapeflow_ir::trace::{trace_function, TraceOptions};
    use tapeflow_ir::{ArrayKind, FunctionBuilder, Memory, Scalar, Trace};

    /// Prepares `trace` and simulates it on `cfg`.
    fn sim_trace(trace: &Trace, cfg: &SystemConfig, opts: &SimOptions) -> SimReport {
        simulate_prepared(&PreparedSim::new(trace).unwrap(), cfg, opts)
    }

    fn trace_of(build: impl FnOnce(&mut FunctionBuilder)) -> Trace {
        let mut b = FunctionBuilder::new("t");
        build(&mut b);
        let f = b.finish();
        let mut mem = Memory::for_function(&f);
        trace_function(&f, &mut mem, TraceOptions::default()).unwrap()
    }

    fn sim_of(build: impl FnOnce(&mut FunctionBuilder), cfg: &SystemConfig) -> SimReport {
        sim_trace(&trace_of(build), cfg, &SimOptions::default())
    }

    #[test]
    fn empty_trace_is_zero() {
        let r = sim_of(|_| {}, &SystemConfig::default());
        assert_eq!(r.cycles, 0);
    }

    #[test]
    fn dependent_chain_serializes() {
        // A chain of n dependent fadds takes ~n * latency cycles.
        let cfg = SystemConfig::default();
        let n = 50;
        let r = sim_of(
            |b| {
                let one = b.f64(1.0);
                let mut v = b.f64(0.0);
                for _ in 0..n {
                    v = b.fadd(v, one);
                }
            },
            &cfg,
        );
        assert_eq!(r.fp_ops, n);
        assert_eq!(r.cycles, n * cfg.pe.fp_alu_latency);
    }

    #[test]
    fn independent_ops_run_in_parallel() {
        let cfg = SystemConfig::default();
        let n = 64u64; // two issue groups of 32
        let r = sim_of(
            |b| {
                let one = b.f64(1.0);
                let two = b.f64(2.0);
                for _ in 0..n {
                    let _ = b.fadd(one, two);
                }
            },
            &cfg,
        );
        assert_eq!(r.fp_ops, n);
        // 32 issue per cycle -> two issue cycles; last issues at cycle 1.
        assert_eq!(r.cycles, 1 + cfg.pe.fp_alu_latency);
    }

    #[test]
    fn cache_misses_cost_dram_latency() {
        let cfg = SystemConfig::with_cache_bytes(1024);
        // 8 loads of the same address: 1 miss + 7 hits.
        let r = sim_of(
            |b| {
                let x = b.array("x", 8, ArrayKind::Input, Scalar::F64);
                let z = b.i64(0);
                for _ in 0..8 {
                    let _ = b.load(x, z);
                }
            },
            &cfg,
        );
        assert_eq!(r.cache.misses, 1);
        assert_eq!(r.cache.hits, 7);
        assert_eq!(r.dram_fill_bytes, 64);
        assert!(r.cycles >= cfg.dram.latency);
    }

    #[test]
    fn bandwidth_bound_streaming() {
        // 64 loads, each to a distinct line: misses serialize on DRAM
        // bandwidth (64 B / 9.6 B/cyc ≈ 6.7 cycles per line).
        let cfg = SystemConfig::with_cache_bytes(1024);
        let r = sim_of(
            |b| {
                let x = b.array("x", 64 * 8, ArrayKind::Input, Scalar::F64);
                for i in 0..64i64 {
                    let idx = b.i64(i * 8);
                    let _ = b.load(x, idx);
                }
            },
            &cfg,
        );
        assert_eq!(r.cache.misses, 64);
        let min_bw_cycles = (64.0 * 64.0 / cfg.dram.bytes_per_cycle) as u64;
        assert!(
            r.cycles >= min_bw_cycles,
            "{} cycles vs bandwidth floor {min_bw_cycles}",
            r.cycles
        );
    }

    #[test]
    fn spad_bank_conflicts_serialize() {
        let cfg = SystemConfig::default();
        // 8 spad stores all to bank 0 (entries 0, 16, 32, ...).
        let r = sim_of(
            |b| {
                use tapeflow_ir::Op;
                b.push_inst(Op::SAlloc { size: 128, base: 0 }, vec![]);
                let v = b.f64(1.0);
                for k in 0..8 {
                    let e = b.i64(k * 16);
                    b.push_inst(Op::SpadStore, vec![e, v]);
                }
            },
            &cfg,
        );
        assert_eq!(r.spad_accesses, 8);
        // One per cycle through the same bank.
        assert!(r.cycles >= 8, "bank serialization: {} cycles", r.cycles);
    }

    #[test]
    fn conflict_free_spad_is_parallel() {
        let cfg = SystemConfig::default();
        let r = sim_of(
            |b| {
                use tapeflow_ir::Op;
                b.push_inst(Op::SAlloc { size: 16, base: 0 }, vec![]);
                let v = b.f64(1.0);
                for k in 0..8 {
                    let e = b.i64(k); // 8 different banks
                    b.push_inst(Op::SpadStore, vec![e, v]);
                }
            },
            &cfg,
        );
        assert_eq!(r.cycles, cfg.spad.latency, "all banks in one cycle");
    }

    #[test]
    fn fwd_rev_split_at_barrier() {
        let mut b = FunctionBuilder::new("p");
        let x = b.array("x", 4, ArrayKind::Input, Scalar::F64);
        b.for_loop("i", 0, 4, |b, i| {
            let _ = b.load(x, i);
        });
        let bar = b.push_inst(tapeflow_ir::Op::Barrier, vec![]);
        assert!(bar.is_none());
        let bar_id = tapeflow_ir::InstId::new(b.func().insts().len() - 1);
        b.for_loop("j", 0, 4, |b, j| {
            let _ = b.load(x, j);
        });
        let f = b.finish();
        let mut mem = Memory::for_function(&f);
        let trace = trace_function(
            &f,
            &mut mem,
            TraceOptions {
                phase_barrier: Some(bar_id),
            },
        )
        .unwrap();
        let r = sim_trace(&trace, &SystemConfig::default(), &SimOptions::default());
        assert!(r.fwd_cycles > 0);
        assert!(r.fwd_cycles < r.cycles);
        assert_eq!(r.rev_cycles(), r.cycles - r.fwd_cycles);
    }

    #[test]
    fn final_flush_charges_writebacks_once() {
        // Two stores to distinct lines in a 32 KB cache: nothing evicts
        // during the run, so without the end-of-run flush the write-backs
        // would never be charged at all.
        let cfg = SystemConfig::default();
        let build = |b: &mut FunctionBuilder| {
            let x = b.array("x", 16, ArrayKind::Output, Scalar::F64);
            let v = b.f64(1.0);
            for i in 0..2i64 {
                let idx = b.i64(i * 8); // byte offsets 0 and 64
                b.store(x, idx, v);
            }
        };
        let r = sim_of(build, &cfg);
        let line = cfg.cache.line_bytes as u64;
        assert_eq!(r.cache.writebacks, 2, "one write-back per dirty line");
        assert_eq!(r.cache.flush_writebacks, 2, "both came from the cool-down");
        assert_eq!(r.dram_writeback_bytes, 2 * line);
        // Energy was computed after the flush, so DRAM energy covers the
        // flushed bytes exactly once.
        let expected_dram_pj = r.dram_bytes() as f64 * cfg.energy.dram_pj_per_byte;
        assert_eq!(r.energy.dram_pj, expected_dram_pj);
        // Deterministic: a second simulation charges the same amount (no
        // accumulation across runs).
        let r2 = sim_of(build, &cfg);
        assert_eq!(r2.cache.writebacks, 2);
        assert_eq!(r2.dram_writeback_bytes, r.dram_writeback_bytes);
    }

    /// A load that misses, then an add of the loaded value, on the
    /// default machine with `dram_latency`; reports node finish times.
    fn miss_then_add(dram_latency: u64) -> SimReport {
        let trace = trace_of(|b| {
            let x = b.array("x", 1, ArrayKind::Input, Scalar::F64);
            let z = b.i64(0);
            let v = b.load(x, z);
            let _ = b.fadd(v, v);
        });
        let mut cfg = SystemConfig::default();
        cfg.dram.latency = dram_latency;
        let opts = SimOptions {
            record_node_times: true,
        };
        sim_trace(&trace, &cfg, &opts)
    }

    /// The DRAM latency whose run ends on cycle `FINISH_LIMIT - 1`: the
    /// last finish time moves one for one with the latency.
    fn latency_ending_just_under_the_limit() -> u64 {
        let base = miss_then_add(100).cycles;
        FINISH_LIMIT - 1 - (base - 100)
    }

    #[test]
    fn finish_times_just_under_the_limit_stay_exact() {
        let r = miss_then_add(latency_ending_just_under_the_limit());
        assert_eq!(r.cycles, FINISH_LIMIT - 1);
        let times = r.node_finish.unwrap();
        assert_eq!(times.iter().max(), Some(&(FINISH_LIMIT - 1)));
        // The add finishes its latency after the load it waited for.
        let fp = SystemConfig::default().pe.fp_alu_latency;
        assert!(times.contains(&(FINISH_LIMIT - 1 - fp)), "{times:?}");
    }

    #[test]
    #[should_panic(expected = "limit of 2^40")]
    fn a_finish_time_past_the_limit_panics() {
        miss_then_add(latency_ending_just_under_the_limit() + 1);
    }

    #[test]
    fn node_times_recorded_when_asked() {
        let mut b = FunctionBuilder::new("t");
        let one = b.f64(1.0);
        let _ = b.fadd(one, one);
        let f = b.finish();
        let mut mem = Memory::for_function(&f);
        let trace = trace_function(&f, &mut mem, TraceOptions::default()).unwrap();
        let r = sim_trace(
            &trace,
            &SystemConfig::default(),
            &SimOptions {
                record_node_times: true,
            },
        );
        let times = r.node_finish.unwrap();
        assert_eq!(times.len(), trace.len());
        assert!(times.iter().all(|&t| t > 0));
    }

    #[test]
    fn prepared_arena_reuses_across_configs() {
        // One arena, many configs: results match a fresh arena per config.
        let trace = trace_of(|b| {
            let x = b.array("x", 64, ArrayKind::Input, Scalar::F64);
            b.for_loop("i", 0, 64, |b, i| {
                let v = b.load(x, i);
                let _ = b.fmul(v, v);
            });
        });
        let prep = PreparedSim::new(&trace).unwrap();
        for bytes in [1024, 2048, 32768] {
            let cfg = SystemConfig::with_cache_bytes(bytes);
            let from_arena = simulate_prepared(&prep, &cfg, &SimOptions::default());
            let fresh = sim_trace(&trace, &cfg, &SimOptions::default());
            assert_eq!(from_arena.cycles, fresh.cycles);
            assert_eq!(from_arena.cache, fresh.cache);
            assert_eq!(from_arena.to_json().render(), fresh.to_json().render());
        }
    }

    #[test]
    fn stream_gap_skip_matches_legacy_cycle_for_cycle() {
        // A stream-heavy trace: big transfers leave long engine-busy gaps
        // that the event core skips and the legacy loop crawls. Reports
        // must agree exactly.
        let cfg = SystemConfig::default();
        let trace = trace_of(|b| {
            use tapeflow_ir::Op;
            let tape = b.array("tape", 128, ArrayKind::Tape, Scalar::F64);
            let base = b
                .push_inst(Op::SAlloc { size: 128, base: 0 }, vec![])
                .unwrap();
            let zero = b.i64(0);
            let elems = b.i64(128);
            for _ in 0..4 {
                b.push_inst(Op::StreamOut(tape), vec![base, zero, elems]);
                b.push_inst(Op::StreamIn(tape), vec![base, zero, elems]);
            }
        });
        let opts = SimOptions::default();
        let new = sim_trace(&trace, &cfg, &opts);
        let old = crate::legacy::simulate_probed(&trace, &cfg, &opts, &mut NoProbe).unwrap();
        assert_eq!(new.cycles, old.cycles);
        assert_eq!(new.stream_cmds, old.stream_cmds);
        assert_eq!(new.dram_stream_bytes, old.dram_stream_bytes);
        assert_eq!(new.to_json().render(), old.to_json().render());
        assert!(new.stream_cmds == 8, "all streams executed: {new:?}");
    }

    #[test]
    fn analytic_paths_match_the_probed_core_exactly() {
        // The unprobed fast paths (issue servers, pure event loop) must
        // reproduce the fully announced per-cycle core byte for byte.
        // Build traces that exercise width contention, MSHR stalls, and
        // mixed classes, then compare against a probed run (probed runs
        // always take the exact per-cycle core).
        use crate::probe::AttributionProbe;
        type Build = Box<dyn Fn(&mut FunctionBuilder)>;
        let builds: Vec<Build> = vec![
            // Wide FP bursts: > fp_issue independent ops per cycle.
            Box::new(|b: &mut FunctionBuilder| {
                let one = b.f64(1.0);
                let mut acc = b.f64(0.0);
                for _ in 0..4 {
                    let mut parts = Vec::new();
                    for _ in 0..80 {
                        parts.push(b.fmul(acc, one));
                    }
                    for p in parts {
                        acc = b.fadd(acc, p);
                    }
                }
            }),
            // Miss storm through few MSHRs plus dependent integer work.
            Box::new(|b: &mut FunctionBuilder| {
                let x = b.array("x", 256 * 8, ArrayKind::Input, Scalar::F64);
                let mut acc = b.f64(0.0);
                for i in 0..256i64 {
                    let idx = b.i64((i * 64) % (256 * 8));
                    let v = b.load(x, idx);
                    acc = b.fadd(acc, v);
                }
                let _ = acc;
            }),
        ];
        for build in builds {
            let trace = trace_of(&*build);
            for bytes in [1024, 32768] {
                let cfg = SystemConfig::with_cache_bytes(bytes);
                let prep = PreparedSim::new(&trace).unwrap();
                let fast = simulate_prepared(&prep, &cfg, &SimOptions::default());
                let mut probe = AttributionProbe::default();
                let exact =
                    simulate_prepared_probed(&prep, &cfg, &SimOptions::default(), &mut probe);
                assert_eq!(
                    fast.to_json().render(),
                    exact.to_json().render(),
                    "fast path diverged at cache={bytes}"
                );
            }
        }
    }
}
