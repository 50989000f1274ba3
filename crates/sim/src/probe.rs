//! Cycle-attribution probes: the simulator's observability layer.
//!
//! [`crate::engine::simulate_prepared_probed`] is generic over a
//! [`SimProbe`] and calls a hook at every issue, stall and completion
//! site. Every hook has an empty `#[inline]` default body, so the
//! probe-less entry point ([`crate::simulate_prepared`], which passes
//! [`NoProbe`]) monomorphizes to the exact pre-probe hot loop —
//! observability is zero-cost when off.
//!
//! Two probes are provided:
//!
//! * [`AttributionProbe`] charges **every simulated PE-cycle** to exactly
//!   one cause (FP busy, INT busy, MSHR head-of-line stall, scratchpad
//!   bank conflict, tape-miss stall, non-tape miss stall, stream wait,
//!   phase-barrier drain, idle), maintaining the invariant
//!   `sum(attributed) == cycles * PEs`, plus a per-PE occupancy histogram
//!   and per-bank scratchpad access/conflict counters.
//! * [`TraceRecorder`] records a Chrome trace-event timeline (one track
//!   per PE, cache port, stream engine and scratchpad bank) loadable in
//!   `chrome://tracing` or Perfetto, serialized with [`crate::json`].
//!
//! Probes compose: `(&mut A, &mut B)`-style composition is provided via
//! the tuple implementation, so one simulation can feed both.

use crate::config::SystemConfig;
use crate::json::Value;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use tapeflow_ir::{InstId, OpClass};

/// Machine geometry the probe needs to attribute cycles, derived from the
/// [`SystemConfig`] once per simulation.
#[derive(Clone, Copy, Debug)]
pub struct ProbeGeometry {
    /// Processing elements in the grid.
    pub pes: usize,
    /// FP issue slots per PE (`fp_issue / pes`, rounded up).
    pub fp_slots_per_pe: usize,
    /// Integer issue slots per PE.
    pub int_slots_per_pe: usize,
    /// Scratchpad banks.
    pub spad_banks: usize,
    /// Cache ports.
    pub cache_ports: usize,
    /// Whether the trace has a FWD/REV phase barrier.
    pub has_phase_barrier: bool,
}

impl ProbeGeometry {
    /// Derives the geometry for `cfg`.
    pub fn of(cfg: &SystemConfig, has_phase_barrier: bool) -> Self {
        let pes = cfg.pe.pes.max(1);
        ProbeGeometry {
            pes,
            fp_slots_per_pe: cfg.pe.fp_issue.div_ceil(pes).max(1),
            int_slots_per_pe: cfg.pe.int_issue.div_ceil(pes).max(1),
            spad_banks: cfg.spad.banks.max(1),
            cache_ports: cfg.cache.ports.max(1),
            has_phase_barrier,
        }
    }
}

/// Sentinel trace-node id meaning "no node responsible" (used for
/// representative charging when a cause has no in-flight carrier).
pub const NO_NODE: u32 = u32::MAX;

/// One cache access as seen by the probe.
#[derive(Clone, Copy, Debug)]
pub struct CacheAccessEvent {
    /// Trace node that issued the access.
    pub node: u32,
    /// Issue cycle.
    pub now: u64,
    /// Cycle the value is available to dependents.
    pub fin: u64,
    /// Port the access went through (the would-be port for a stalled
    /// miss, which blocks the queue head without consuming a port).
    pub port: usize,
    /// Whether the access hit.
    pub hit: bool,
    /// Whether the access targets a tape array.
    pub is_tape: bool,
    /// Whether the access was issued by the reverse phase.
    pub is_rev: bool,
    /// Whether the access is a store.
    pub is_write: bool,
}

/// Observation hooks called by [`crate::engine::simulate_prepared_probed`].
///
/// Every method has an empty inline default so an unused hook compiles
/// away entirely; [`NoProbe`] overrides nothing.
pub trait SimProbe {
    /// Promise that every hook on this probe is a no-op. The engine uses
    /// this to take *schedule-preserving* shortcuts that do not announce
    /// individual issues/stalls (reports stay byte-identical; only the
    /// hook call sequence differs, which a no-op probe cannot observe).
    /// Only set this to `true` when all hooks keep their empty defaults.
    const IS_NOOP: bool = false;

    /// Called once before the first cycle.
    #[inline]
    fn on_start(&mut self, _geom: &ProbeGeometry) {}
    /// Called at the top of each scheduler iteration for cycle `_now`.
    /// Cycles skipped between iterations (the engine jumps over gaps with
    /// no issue work) are *not* announced individually; probes attribute
    /// them from in-flight state.
    #[inline]
    fn on_cycle_start(&mut self, _now: u64) {}
    /// An FP operation of `_class` (trace node `_node`) issued at `_now`,
    /// finishing at `_fin`.
    #[inline]
    fn on_fp_issue(&mut self, _now: u64, _fin: u64, _class: OpClass, _node: u32) {}
    /// An integer operation (trace node `_node`) issued at `_now`,
    /// finishing at `_fin`.
    #[inline]
    fn on_int_issue(&mut self, _now: u64, _fin: u64, _node: u32) {}
    /// A cache access issued (or, for `hit == false` after
    /// [`Self::on_mshr_stall`], a stalled miss resolved at the queue head).
    #[inline]
    fn on_cache_access(&mut self, _ev: &CacheAccessEvent) {}
    /// The memory queue stalled at its head: a demand miss by trace node
    /// `_node` found no free MSHR this cycle.
    #[inline]
    fn on_mshr_stall(&mut self, _now: u64, _is_tape: bool, _node: u32) {}
    /// A scratchpad access by trace node `_node` was serviced by `_bank`.
    #[inline]
    fn on_spad_access(&mut self, _now: u64, _fin: u64, _bank: usize, _node: u32) {}
    /// A scratchpad access by trace node `_node` was deferred by a
    /// conflict on `_bank`.
    #[inline]
    fn on_spad_conflict(&mut self, _now: u64, _bank: usize, _node: u32) {}
    /// A stream command (trace node `_node`) started on engine `_dir`
    /// (0 = out/FWD-Stream, 1 = in/REV-Stream); bandwidth frees at
    /// `_bw_done`, data lands at `_fin`.
    #[inline]
    fn on_stream(
        &mut self,
        _now: u64,
        _bw_done: u64,
        _fin: u64,
        _dir: usize,
        _bytes: u64,
        _node: u32,
    ) {
    }
    /// The phase barrier's (trace node `_node`) last dependence completed
    /// at `_now`; the barrier itself completes at `_at`. The half-open
    /// window `[_now, _at)` is the FWD→REV drain.
    #[inline]
    fn on_barrier_ready(&mut self, _now: u64, _at: u64, _node: u32) {}
    /// The phase barrier completed at `_at`.
    #[inline]
    fn on_phase_barrier(&mut self, _at: u64) {}
    /// End of the scheduler iteration for cycle `_now`; `_queues_busy` is
    /// whether any issue queue still holds work.
    #[inline]
    fn on_cycle_end(&mut self, _now: u64, _queues_busy: bool) {}
    /// Simulation done; `_cycles` is the final cycle count.
    #[inline]
    fn on_finish(&mut self, _cycles: u64) {}
}

/// The probe that observes nothing — [`crate::simulate_prepared`]'s
/// default. With it, `simulate_prepared_probed` monomorphizes to the
/// unprobed hot loop.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoProbe;

impl SimProbe for NoProbe {
    const IS_NOOP: bool = true;
}

macro_rules! forward_both {
    ($(fn $name:ident(&mut self $(, $arg:ident : $ty:ty)*);)*) => {
        $(
            #[inline]
            fn $name(&mut self $(, $arg: $ty)*) {
                self.0.$name($($arg),*);
                self.1.$name($($arg),*);
            }
        )*
    };
}

/// Probes compose pairwise: `(&mut attribution, &mut recorder)` feeds one
/// simulation into both.
impl<A: SimProbe, B: SimProbe> SimProbe for (A, B) {
    const IS_NOOP: bool = A::IS_NOOP && B::IS_NOOP;
    forward_both! {
        fn on_start(&mut self, geom: &ProbeGeometry);
        fn on_cycle_start(&mut self, now: u64);
        fn on_fp_issue(&mut self, now: u64, fin: u64, class: OpClass, node: u32);
        fn on_int_issue(&mut self, now: u64, fin: u64, node: u32);
        fn on_cache_access(&mut self, ev: &CacheAccessEvent);
        fn on_mshr_stall(&mut self, now: u64, is_tape: bool, node: u32);
        fn on_spad_access(&mut self, now: u64, fin: u64, bank: usize, node: u32);
        fn on_spad_conflict(&mut self, now: u64, bank: usize, node: u32);
        fn on_stream(&mut self, now: u64, bw_done: u64, fin: u64, dir: usize, bytes: u64, node: u32);
        fn on_barrier_ready(&mut self, now: u64, at: u64, node: u32);
        fn on_phase_barrier(&mut self, at: u64);
        fn on_cycle_end(&mut self, now: u64, queues_busy: bool);
        fn on_finish(&mut self, cycles: u64);
    }
}

macro_rules! forward_some {
    ($(fn $name:ident(&mut self $(, $arg:ident : $ty:ty)*);)*) => {
        $(
            #[inline]
            fn $name(&mut self $(, $arg: $ty)*) {
                if let Some(p) = self {
                    p.$name($($arg),*);
                }
            }
        )*
    };
}

/// `None` observes nothing; `Some(probe)` forwards — lets callers attach
/// a probe behind a runtime flag without duplicating the call site.
impl<P: SimProbe> SimProbe for Option<P> {
    const IS_NOOP: bool = P::IS_NOOP;
    forward_some! {
        fn on_start(&mut self, geom: &ProbeGeometry);
        fn on_cycle_start(&mut self, now: u64);
        fn on_fp_issue(&mut self, now: u64, fin: u64, class: OpClass, node: u32);
        fn on_int_issue(&mut self, now: u64, fin: u64, node: u32);
        fn on_cache_access(&mut self, ev: &CacheAccessEvent);
        fn on_mshr_stall(&mut self, now: u64, is_tape: bool, node: u32);
        fn on_spad_access(&mut self, now: u64, fin: u64, bank: usize, node: u32);
        fn on_spad_conflict(&mut self, now: u64, bank: usize, node: u32);
        fn on_stream(&mut self, now: u64, bw_done: u64, fin: u64, dir: usize, bytes: u64, node: u32);
        fn on_barrier_ready(&mut self, now: u64, at: u64, node: u32);
        fn on_phase_barrier(&mut self, at: u64);
        fn on_cycle_end(&mut self, now: u64, queues_busy: bool);
        fn on_finish(&mut self, cycles: u64);
    }
}

/// The cause a PE-cycle is charged to. Exactly one cause per leftover
/// unit per cycle, so the categories are disjoint by construction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum StallKind {
    /// PE units executing FP work (an FP op in flight occupies its unit
    /// for its full latency).
    FpBusy,
    /// PE units executing integer (address-generation) work.
    IntBusy,
    /// Demand miss stalled at the memory-queue head with no free MSHR —
    /// the paper's "reactive fill" head-of-line bottleneck.
    MshrStall,
    /// Scratchpad bank conflict deferred at least one access this cycle.
    SpadConflict,
    /// Waiting on an outstanding cache miss for a *tape* array.
    TapeMissStall,
    /// Waiting on an outstanding cache miss for a non-tape array.
    CacheMissStall,
    /// Waiting on an outstanding stream-engine transfer.
    StreamWait,
    /// Draining the forward phase into the FWD/REV barrier: the barrier's
    /// dependences are all issued but not yet complete.
    PhaseBarrier,
    /// No attributable cause: insufficient parallelism, or short
    /// fixed-latency waits (cache hits, scratchpad reads).
    Idle,
}

impl StallKind {
    /// Every kind, in priority/report order.
    pub const ALL: [StallKind; 9] = [
        StallKind::FpBusy,
        StallKind::IntBusy,
        StallKind::MshrStall,
        StallKind::SpadConflict,
        StallKind::TapeMissStall,
        StallKind::CacheMissStall,
        StallKind::StreamWait,
        StallKind::PhaseBarrier,
        StallKind::Idle,
    ];

    /// Stable machine-readable key (JSON field name).
    pub fn key(self) -> &'static str {
        match self {
            StallKind::FpBusy => "fp_busy",
            StallKind::IntBusy => "int_busy",
            StallKind::MshrStall => "mshr_stall",
            StallKind::SpadConflict => "spad_conflict",
            StallKind::TapeMissStall => "tape_miss_stall",
            StallKind::CacheMissStall => "cache_miss_stall",
            StallKind::StreamWait => "stream_wait",
            StallKind::PhaseBarrier => "phase_barrier",
            StallKind::Idle => "idle",
        }
    }

    /// Human-readable table label.
    pub fn label(self) -> &'static str {
        match self {
            StallKind::FpBusy => "FP busy",
            StallKind::IntBusy => "INT busy",
            StallKind::MshrStall => "MSHR head-of-line stall",
            StallKind::SpadConflict => "spad bank conflict",
            StallKind::TapeMissStall => "cache-miss stall (tape)",
            StallKind::CacheMissStall => "cache-miss stall (non-tape)",
            StallKind::StreamWait => "stream-engine wait",
            StallKind::PhaseBarrier => "phase-barrier drain",
            StallKind::Idle => "idle",
        }
    }
}

const KINDS: usize = StallKind::ALL.len();

/// Where every PE-cycle of a simulation went.
///
/// `sum(units) == cycles * pes` exactly ([`CycleBreakdown::check`]); the
/// per-PE occupancy histogram sums to `cycles`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CycleBreakdown {
    /// PEs the attribution distributed each cycle over.
    pub pes: usize,
    /// Total attributed cycles (== the report's `cycles`).
    pub cycles: u64,
    /// PE-cycles per cause, indexed in [`StallKind::ALL`] order.
    pub units: [u64; KINDS],
    /// `pe_occupancy[k]` = cycles during which exactly `k` PE units were
    /// busy with FP or INT work (length `pes + 1`).
    pub pe_occupancy: Vec<u64>,
    /// Scratchpad accesses serviced per bank.
    pub bank_accesses: Vec<u64>,
    /// Scratchpad conflicts (deferrals) per bank.
    pub bank_conflicts: Vec<u64>,
}

impl CycleBreakdown {
    /// PE-cycles charged to `kind`.
    pub fn get(&self, kind: StallKind) -> u64 {
        self.units[StallKind::ALL.iter().position(|k| *k == kind).unwrap()]
    }

    /// The attribution budget: `cycles * pes`.
    pub fn total_units(&self) -> u64 {
        self.cycles * self.pes as u64
    }

    /// PE-cycles attributed across all causes.
    pub fn attributed(&self) -> u64 {
        self.units.iter().sum()
    }

    /// Mean busy PEs per cycle (FP + INT).
    pub fn avg_busy_pes(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            (self.get(StallKind::FpBusy) + self.get(StallKind::IntBusy)) as f64 / self.cycles as f64
        }
    }

    /// Verifies the accounting invariants; returns a description of the
    /// first violation. Cheap — tests and the profile CLI always run it.
    pub fn check(&self) -> Result<(), String> {
        if self.attributed() != self.total_units() {
            return Err(format!(
                "attributed {} PE-cycles != cycles({}) * pes({}) = {}",
                self.attributed(),
                self.cycles,
                self.pes,
                self.total_units()
            ));
        }
        let occ: u64 = self.pe_occupancy.iter().sum();
        if occ != self.cycles {
            return Err(format!(
                "occupancy histogram sums to {occ}, expected {} cycles",
                self.cycles
            ));
        }
        if self.pe_occupancy.len() != self.pes + 1
            && !(self.pes == 0 && self.pe_occupancy.is_empty())
        {
            return Err(format!(
                "occupancy histogram has {} bins for {} PEs",
                self.pe_occupancy.len(),
                self.pes
            ));
        }
        Ok(())
    }

    /// The per-cause summary as JSON (the bench harness's compact form):
    /// category PE-cycles plus `cycles`, `pes` and the mean occupancy.
    pub fn summary_json(&self) -> Value {
        let mut o = Value::object();
        o.set("cycles", self.cycles).set("pes", self.pes as u64);
        for k in StallKind::ALL {
            o.set(k.key(), self.get(k));
        }
        o.set("avg_busy_pes", self.avg_busy_pes());
        o
    }

    /// The full breakdown as JSON: the summary plus the occupancy
    /// histogram and per-bank scratchpad counters.
    pub fn to_json(&self) -> Value {
        let mut o = self.summary_json();
        o.set(
            "pe_occupancy",
            Value::Arr(self.pe_occupancy.iter().map(|&c| Value::UInt(c)).collect()),
        )
        .set(
            "bank_accesses",
            Value::Arr(self.bank_accesses.iter().map(|&c| Value::UInt(c)).collect()),
        )
        .set(
            "bank_conflicts",
            Value::Arr(
                self.bank_conflicts
                    .iter()
                    .map(|&c| Value::UInt(c))
                    .collect(),
            ),
        );
        o
    }
}

/// Per-instruction PE-cycle attribution: one [`StallKind`] row per IR
/// instruction, plus a final *unattributed* row for cycles no instruction
/// carries (pure idle).
///
/// Built by [`AttributionProbe`] in per-inst mode via representative
/// charging: each cycle's units for a cause are charged to the
/// earliest-finishing in-flight trace node of that cause, mapped to its
/// IR instruction. Column sums therefore equal the per-cause totals of
/// the accompanying [`CycleBreakdown`] *exactly* — the same
/// `sum == cycles * PEs` budget, split one level finer.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct InstBreakdown {
    /// `rows[i]` = PE-cycles charged to instruction `i`, per cause (in
    /// [`StallKind::ALL`] order); `rows[len-1]` is the unattributed row.
    pub rows: Vec<[u64; KINDS]>,
}

impl InstBreakdown {
    /// Number of instruction rows (excluding the unattributed row).
    pub fn insts(&self) -> usize {
        self.rows.len().saturating_sub(1)
    }

    /// PE-cycles charged to instruction `i` for `kind`.
    pub fn get(&self, i: usize, kind: StallKind) -> u64 {
        self.rows[i][StallKind::ALL.iter().position(|k| *k == kind).unwrap()]
    }

    /// Total PE-cycles charged to instruction `i` across all causes.
    pub fn row_total(&self, i: usize) -> u64 {
        self.rows[i].iter().sum()
    }

    /// Verifies that every per-cause column sums exactly to the matching
    /// total in `bd` — the per-inst refinement loses nothing.
    pub fn check_against(&self, bd: &CycleBreakdown) -> Result<(), String> {
        for (ki, kind) in StallKind::ALL.iter().enumerate() {
            let col: u64 = self.rows.iter().map(|r| r[ki]).sum();
            if col != bd.units[ki] {
                return Err(format!(
                    "per-inst {} column sums to {col}, per-cause total is {}",
                    kind.key(),
                    bd.units[ki]
                ));
            }
        }
        Ok(())
    }
}

/// Attributes every simulated PE-cycle to a [`StallKind`].
///
/// FP/INT occupancy is tracked with min-heaps of in-flight finish times
/// (an op occupies its issue slot for `[issue, fin)`); leftover PE units
/// in a cycle are charged to a single cause chosen by priority:
/// MSHR stall > bank conflict > tape miss > non-tape miss > stream wait >
/// phase-barrier drain > idle. Cycles the engine skips (no issue work)
/// are attributed in O(#completions) by walking run-lengths between
/// in-flight finish times, so the probe never makes a long simulation
/// superlinear.
///
/// With [`AttributionProbe::with_inst_map`], the same budget is also
/// split per IR instruction (see [`InstBreakdown`]); without a map the
/// per-inst machinery costs nothing.
#[derive(Debug, Default)]
pub struct AttributionProbe {
    geom: Option<ProbeGeometry>,
    /// Hook events that arrived before [`SimProbe::on_start`] announced
    /// the geometry (a driver bug); dropped rather than panicking.
    pre_geometry_drops: u64,
    first_dropped_hook: Option<&'static str>,
    fp: BinaryHeap<Reverse<(u64, u32)>>,
    int: BinaryHeap<Reverse<(u64, u32)>>,
    fills_tape: BinaryHeap<Reverse<(u64, u32)>>,
    fills_other: BinaryHeap<Reverse<(u64, u32)>>,
    streams: BinaryHeap<Reverse<(u64, u32)>>,
    mshr_stalled: bool,
    mshr_node: u32,
    conflicted: bool,
    conflict_node: u32,
    barrier_window: Option<(u64, u64)>,
    barrier_node: u32,
    /// First cycle not yet committed or walked.
    cursor: u64,
    /// The last processed cycle's record, committed at the next cycle
    /// start (or discarded at finish if it lies beyond the final cycle
    /// count — the engine may process one iteration at `cycles` itself
    /// when the final node is a zero-cost sync).
    pending: Option<(u64, CycleAttr)>,
    bd: CycleBreakdown,
    per_inst: Option<PerInstState>,
}

/// One cycle's attribution: units and busy count (as before), plus the
/// representative trace node per cause ([`NO_NODE`] where unset).
#[derive(Clone, Copy, Debug)]
struct CycleAttr {
    units: [u64; KINDS],
    busy: usize,
    reps: [u32; KINDS],
}

#[derive(Debug)]
struct PerInstState {
    /// Trace node id → instruction row.
    map: Vec<InstId>,
    bd: InstBreakdown,
}

impl AttributionProbe {
    /// A fresh probe; pass to [`crate::engine::simulate_prepared_probed`].
    pub fn new() -> Self {
        Self::default()
    }

    /// A probe that additionally splits attribution per IR instruction.
    /// `node_to_inst[n]` is the instruction trace node `n` executed (the
    /// trace's [`tapeflow_ir::Trace::insts`] column); `insts` is the
    /// instruction count (rows in the result). Nodes that map out of
    /// range, and causes with no carrier node, land in the extra
    /// unattributed row.
    pub fn with_inst_map(node_to_inst: &[InstId], insts: usize) -> Self {
        AttributionProbe {
            per_inst: Some(PerInstState {
                map: node_to_inst.to_vec(),
                bd: InstBreakdown {
                    rows: vec![[0; KINDS]; insts + 1],
                },
            }),
            ..Self::default()
        }
    }

    /// The finished breakdown. Meaningful after the simulation ran.
    pub fn breakdown(&self) -> &CycleBreakdown {
        &self.bd
    }

    /// The per-instruction breakdown, if the probe was built with
    /// [`Self::with_inst_map`]. Meaningful after the simulation ran.
    pub fn inst_breakdown(&self) -> Option<&InstBreakdown> {
        self.per_inst.as_ref().map(|p| &p.bd)
    }

    /// Consumes the probe, returning the breakdown.
    pub fn into_breakdown(self) -> CycleBreakdown {
        self.bd
    }

    /// Consumes the probe, returning the per-cause breakdown and the
    /// per-instruction refinement (when enabled).
    pub fn into_parts(self) -> (CycleBreakdown, Option<InstBreakdown>) {
        (self.bd, self.per_inst.map(|p| p.bd))
    }

    fn geom(&self) -> &ProbeGeometry {
        self.geom.as_ref().expect("probe not started")
    }

    /// Marks a hook that fired before geometry was announced. Returns
    /// `false` so the hook can bail out instead of indexing
    /// un-dimensioned state (the old code panicked on an opaque
    /// `unwrap`). See [`Self::pre_geometry_drops`].
    fn started_or_drop(&mut self, hook: &'static str) -> bool {
        if self.geom.is_some() {
            return true;
        }
        self.pre_geometry_drops += 1;
        self.first_dropped_hook.get_or_insert(hook);
        false
    }

    /// Events dropped because they arrived before [`SimProbe::on_start`],
    /// with the first offending hook's name. `None` when the probe was
    /// driven correctly.
    pub fn pre_geometry_drops(&self) -> Option<(&'static str, u64)> {
        self.first_dropped_hook
            .map(|h| (h, self.pre_geometry_drops))
    }

    /// Drops every in-flight entry that finished at or before `c`.
    fn pop_done(&mut self, c: u64) {
        for h in [
            &mut self.fp,
            &mut self.int,
            &mut self.fills_tape,
            &mut self.fills_other,
            &mut self.streams,
        ] {
            while h.peek().is_some_and(|Reverse((t, _))| *t <= c) {
                h.pop();
            }
        }
    }

    /// Attribution for one cycle from current in-flight state; `flags`
    /// carries the per-cycle MSHR/conflict markers (false on walked
    /// gap cycles, which by definition issued nothing).
    fn classify(&self, c: u64, mshr: bool, conflict: bool) -> CycleAttr {
        let g = self.geom();
        let fp_units = (self.fp.len().div_ceil(g.fp_slots_per_pe)).min(g.pes);
        let int_units = (self.int.len().div_ceil(g.int_slots_per_pe)).min(g.pes - fp_units);
        let busy = fp_units + int_units;
        let rest = g.pes - busy;
        let mut units = [0u64; KINDS];
        let mut reps = [NO_NODE; KINDS];
        let rep_of =
            |h: &BinaryHeap<Reverse<(u64, u32)>>| h.peek().map_or(NO_NODE, |Reverse((_, n))| *n);
        units[0] = fp_units as u64; // FpBusy
        reps[0] = rep_of(&self.fp);
        units[1] = int_units as u64; // IntBusy
        reps[1] = rep_of(&self.int);
        if rest > 0 {
            let (kind, rep) = if mshr {
                (StallKind::MshrStall, self.mshr_node)
            } else if conflict {
                (StallKind::SpadConflict, self.conflict_node)
            } else if !self.fills_tape.is_empty() {
                (StallKind::TapeMissStall, rep_of(&self.fills_tape))
            } else if !self.fills_other.is_empty() {
                (StallKind::CacheMissStall, rep_of(&self.fills_other))
            } else if !self.streams.is_empty() {
                (StallKind::StreamWait, rep_of(&self.streams))
            } else if self.barrier_window.is_some_and(|(s, e)| s <= c && c < e) {
                (StallKind::PhaseBarrier, self.barrier_node)
            } else {
                (StallKind::Idle, NO_NODE)
            };
            let ki = StallKind::ALL.iter().position(|k| *k == kind).unwrap();
            units[ki] = rest as u64;
            reps[ki] = rep;
        }
        CycleAttr { units, busy, reps }
    }

    fn commit_span(&mut self, attr: CycleAttr, span: u64) {
        for (acc, u) in self.bd.units.iter_mut().zip(attr.units) {
            *acc += u * span;
        }
        self.bd.pe_occupancy[attr.busy] += span;
        if let Some(pi) = &mut self.per_inst {
            let unattr = pi.bd.rows.len() - 1;
            for (k, &u) in attr.units.iter().enumerate() {
                if u == 0 {
                    continue;
                }
                let row = match attr.reps[k] {
                    NO_NODE => unattr,
                    n => pi
                        .map
                        .get(n as usize)
                        .map_or(unattr, |r| r.index().min(unattr)),
                };
                pi.bd.rows[row][k] += u * span;
            }
        }
    }

    /// Attributes the half-open gap `[from, to)` the engine skipped,
    /// advancing through in-flight completion boundaries run-length-wise.
    fn walk(&mut self, from: u64, to: u64) {
        let mut c = from;
        while c < to {
            self.pop_done(c);
            let attr = self.classify(c, false, false);
            let mut nb = to;
            for h in [
                &self.fp,
                &self.int,
                &self.fills_tape,
                &self.fills_other,
                &self.streams,
            ] {
                if let Some(Reverse((t, _))) = h.peek() {
                    nb = nb.min(*t);
                }
            }
            if let Some((s, e)) = self.barrier_window {
                for edge in [s, e] {
                    if edge > c {
                        nb = nb.min(edge);
                    }
                }
            }
            let nb = nb.clamp(c + 1, to);
            self.commit_span(attr, nb - c);
            c = nb;
        }
    }
}

impl SimProbe for AttributionProbe {
    fn on_start(&mut self, geom: &ProbeGeometry) {
        self.geom = Some(*geom);
        self.bd.pes = geom.pes;
        self.bd.pe_occupancy = vec![0; geom.pes + 1];
        self.bd.bank_accesses = vec![0; geom.spad_banks];
        self.bd.bank_conflicts = vec![0; geom.spad_banks];
    }

    fn on_cycle_start(&mut self, now: u64) {
        if !self.started_or_drop("on_cycle_start") {
            return;
        }
        if let Some((c, attr)) = self.pending {
            if c < now {
                self.pending = None;
                self.commit_span(attr, 1);
                self.cursor = c + 1;
            }
        }
        if self.cursor < now {
            self.walk(self.cursor, now);
            self.cursor = now;
        }
    }

    fn on_fp_issue(&mut self, _now: u64, fin: u64, _class: OpClass, node: u32) {
        self.fp.push(Reverse((fin, node)));
    }

    fn on_int_issue(&mut self, _now: u64, fin: u64, node: u32) {
        self.int.push(Reverse((fin, node)));
    }

    fn on_cache_access(&mut self, ev: &CacheAccessEvent) {
        if !ev.hit {
            if ev.is_tape {
                self.fills_tape.push(Reverse((ev.fin, ev.node)));
            } else {
                self.fills_other.push(Reverse((ev.fin, ev.node)));
            }
        }
    }

    fn on_mshr_stall(&mut self, _now: u64, _is_tape: bool, node: u32) {
        self.mshr_stalled = true;
        self.mshr_node = node;
    }

    fn on_spad_access(&mut self, _now: u64, _fin: u64, bank: usize, _node: u32) {
        if !self.started_or_drop("on_spad_access") {
            return;
        }
        self.bd.bank_accesses[bank] += 1;
    }

    fn on_spad_conflict(&mut self, _now: u64, bank: usize, node: u32) {
        if !self.started_or_drop("on_spad_conflict") {
            return;
        }
        self.bd.bank_conflicts[bank] += 1;
        if !self.conflicted {
            self.conflict_node = node;
        }
        self.conflicted = true;
    }

    fn on_stream(
        &mut self,
        _now: u64,
        _bw_done: u64,
        fin: u64,
        _dir: usize,
        _bytes: u64,
        node: u32,
    ) {
        self.streams.push(Reverse((fin, node)));
    }

    fn on_barrier_ready(&mut self, now: u64, at: u64, node: u32) {
        self.barrier_window = Some((now, at));
        self.barrier_node = node;
    }

    fn on_cycle_end(&mut self, now: u64, _queues_busy: bool) {
        if !self.started_or_drop("on_cycle_end") {
            return;
        }
        self.pop_done(now);
        let attr = self.classify(now, self.mshr_stalled, self.conflicted);
        self.mshr_stalled = false;
        self.conflicted = false;
        self.pending = Some((now, attr));
    }

    fn on_finish(&mut self, cycles: u64) {
        if !self.started_or_drop("on_finish") {
            return;
        }
        if let Some((c, attr)) = self.pending.take() {
            if c < cycles {
                self.commit_span(attr, 1);
                self.cursor = c + 1;
            } else {
                self.cursor = self.cursor.max(c);
            }
        }
        if self.cursor < cycles {
            self.walk(self.cursor, cycles);
            self.cursor = cycles;
        }
        self.bd.cycles = cycles;
        debug_assert_eq!(self.bd.check(), Ok(()));
        if let Some(pi) = &self.per_inst {
            debug_assert_eq!(pi.bd.check_against(&self.bd), Ok(()));
        }
    }
}

/// Records a Chrome trace-event timeline of one simulation.
///
/// Track layout per process (`pid`): one thread per PE (FP/INT ops are
/// placed greedily on the least-recently-busy PE lane), one per cache
/// port, one per stream engine, one per scratchpad bank. Timestamps are
/// cycles rendered as trace microseconds; events on each track are
/// emitted in non-decreasing `ts` order.
#[derive(Debug)]
pub struct TraceRecorder {
    pid: u64,
    name: String,
    geom: Option<ProbeGeometry>,
    /// Per-PE-lane busy-until cycle, for greedy lane assignment.
    lanes: Vec<u64>,
    mshr_pending: bool,
    events: Vec<Value>,
    /// Hook events that arrived before [`SimProbe::on_start`] announced
    /// the geometry (a driver bug); dropped — with a marker in the
    /// rendered trace — rather than panicking on an opaque `unwrap`.
    pre_geometry_drops: u64,
    first_dropped_hook: Option<&'static str>,
}

impl TraceRecorder {
    /// A recorder labelling its process `name` with trace `pid`.
    pub fn new(pid: u64, name: impl Into<String>) -> Self {
        TraceRecorder {
            pid,
            name: name.into(),
            geom: None,
            lanes: Vec::new(),
            mshr_pending: false,
            events: Vec::new(),
            pre_geometry_drops: 0,
            first_dropped_hook: None,
        }
    }

    /// The geometry, or `None` after recording that `hook` fired before
    /// [`SimProbe::on_start`] — the hook then skips the event instead of
    /// indexing tracks that do not exist yet.
    fn geom_or_drop(&mut self, hook: &'static str) -> Option<ProbeGeometry> {
        if self.geom.is_none() {
            self.pre_geometry_drops += 1;
            self.first_dropped_hook.get_or_insert(hook);
        }
        self.geom
    }

    /// Events dropped because they arrived before [`SimProbe::on_start`],
    /// with the first offending hook's name. `None` when the probe was
    /// driven correctly.
    pub fn pre_geometry_drops(&self) -> Option<(&'static str, u64)> {
        self.first_dropped_hook
            .map(|h| (h, self.pre_geometry_drops))
    }

    fn meta(&mut self, which: &str, tid: Option<u64>, name: &str) {
        let mut args = Value::object();
        args.set("name", name);
        let mut e = Value::object();
        e.set("name", which)
            .set("ph", "M")
            .set("pid", self.pid)
            .set("tid", tid.unwrap_or(0));
        e.set("args", args);
        self.events.push(e);
    }

    fn slice(&mut self, tid: u64, name: &str, ts: u64, dur: u64, args: Option<Value>) {
        let mut e = Value::object();
        e.set("name", name)
            .set("ph", "X")
            .set("ts", ts)
            .set("dur", dur.max(1))
            .set("pid", self.pid)
            .set("tid", tid);
        if let Some(a) = args {
            e.set("args", a);
        }
        self.events.push(e);
    }

    fn instant(&mut self, tid: u64, name: &str, ts: u64, scope: &str) {
        let mut e = Value::object();
        e.set("name", name)
            .set("ph", "i")
            .set("ts", ts)
            .set("pid", self.pid)
            .set("tid", tid)
            .set("s", scope);
        self.events.push(e);
    }

    fn tid_cache(g: &ProbeGeometry, port: usize) -> u64 {
        (g.pes + port) as u64
    }

    fn tid_stream(g: &ProbeGeometry, dir: usize) -> u64 {
        (g.pes + g.cache_ports + dir) as u64
    }

    fn tid_bank(g: &ProbeGeometry, bank: usize) -> u64 {
        (g.pes + g.cache_ports + 2 + bank) as u64
    }

    /// The recorded events (metadata first, then the timeline). If any
    /// hook fired before the geometry was announced, a marker instant is
    /// appended so the anomaly is visible in the rendered trace.
    pub fn into_events(mut self) -> Vec<Value> {
        if let Some((hook, n)) = self.pre_geometry_drops() {
            let mut args = Value::object();
            args.set("dropped", n).set("first_hook", hook);
            let mut e = Value::object();
            e.set("name", "pre-geometry events dropped")
                .set("ph", "i")
                .set("ts", 0u64)
                .set("pid", self.pid)
                .set("tid", 0u64)
                .set("s", "p");
            e.set("args", args);
            self.events.push(e);
        }
        self.events
    }

    /// Wraps recorders into one Chrome trace-event document. Load the
    /// rendered text in `chrome://tracing` or <https://ui.perfetto.dev>.
    pub fn chrome_trace(parts: impl IntoIterator<Item = TraceRecorder>) -> Value {
        let mut events = Vec::new();
        for p in parts {
            events.extend(p.into_events());
        }
        let mut doc = Value::object();
        doc.set("displayTimeUnit", "ns")
            .set("traceEvents", Value::Arr(events));
        doc
    }
}

impl SimProbe for TraceRecorder {
    fn on_start(&mut self, geom: &ProbeGeometry) {
        self.geom = Some(*geom);
        self.lanes = vec![0; geom.pes];
        self.meta("process_name", None, &self.name.clone());
        for p in 0..geom.pes {
            self.meta("thread_name", Some(p as u64), &format!("PE {p}"));
        }
        for c in 0..geom.cache_ports {
            let tid = Self::tid_cache(geom, c);
            self.meta("thread_name", Some(tid), &format!("cache port {c}"));
        }
        for (dir, label) in ["FWD-Stream (out)", "REV-Stream (in)"].iter().enumerate() {
            let tid = Self::tid_stream(geom, dir);
            self.meta("thread_name", Some(tid), label);
        }
        for b in 0..geom.spad_banks {
            let tid = Self::tid_bank(geom, b);
            self.meta("thread_name", Some(tid), &format!("spad bank {b}"));
        }
    }

    fn on_fp_issue(&mut self, now: u64, fin: u64, class: OpClass, _node: u32) {
        if self.geom_or_drop("on_fp_issue").is_none() {
            return;
        }
        let lane = (0..self.lanes.len())
            .min_by_key(|&i| self.lanes[i])
            .unwrap_or(0);
        self.lanes[lane] = self.lanes[lane].max(fin);
        let name = match class {
            OpClass::FpMul => "fp-mul",
            OpClass::FpLong => "fp-long",
            _ => "fp-alu",
        };
        self.slice(lane as u64, name, now, fin - now, None);
    }

    fn on_int_issue(&mut self, now: u64, fin: u64, _node: u32) {
        if self.geom_or_drop("on_int_issue").is_none() {
            return;
        }
        let lane = (0..self.lanes.len())
            .min_by_key(|&i| self.lanes[i])
            .unwrap_or(0);
        self.lanes[lane] = self.lanes[lane].max(fin);
        self.slice(lane as u64, "int", now, fin - now, None);
    }

    fn on_cache_access(&mut self, ev: &CacheAccessEvent) {
        let Some(g) = self.geom_or_drop("on_cache_access") else {
            return;
        };
        let name = match (ev.hit, std::mem::take(&mut self.mshr_pending)) {
            (true, _) => "hit",
            (false, false) => "miss",
            (false, true) => "miss (mshr stall)",
        };
        let mut args = Value::object();
        args.set("tape", Value::Bool(ev.is_tape))
            .set("rev", Value::Bool(ev.is_rev))
            .set("write", Value::Bool(ev.is_write));
        self.slice(
            Self::tid_cache(&g, ev.port),
            name,
            ev.now,
            ev.fin.saturating_sub(ev.now),
            Some(args),
        );
    }

    fn on_mshr_stall(&mut self, _now: u64, _is_tape: bool, _node: u32) {
        self.mshr_pending = true;
    }

    fn on_spad_access(&mut self, now: u64, fin: u64, bank: usize, _node: u32) {
        let Some(g) = self.geom_or_drop("on_spad_access") else {
            return;
        };
        self.slice(Self::tid_bank(&g, bank), "spad", now, fin - now, None);
    }

    fn on_spad_conflict(&mut self, now: u64, bank: usize, _node: u32) {
        let Some(g) = self.geom_or_drop("on_spad_conflict") else {
            return;
        };
        self.instant(Self::tid_bank(&g, bank), "bank conflict", now, "t");
    }

    fn on_stream(&mut self, now: u64, _bw_done: u64, fin: u64, dir: usize, bytes: u64, _node: u32) {
        let Some(g) = self.geom_or_drop("on_stream") else {
            return;
        };
        let mut args = Value::object();
        args.set("bytes", bytes);
        let name = if dir == 0 { "stream-out" } else { "stream-in" };
        self.slice(Self::tid_stream(&g, dir), name, now, fin - now, Some(args));
    }

    fn on_phase_barrier(&mut self, at: u64) {
        self.instant(0, "phase barrier", at, "p");
    }
}

/// A timeline recorder with deterministic 1-in-N window sampling, for
/// `--trace-out` at scales where a full [`TraceRecorder`] timeline would
/// not fit in memory.
///
/// Time is cut into fixed windows of `window` cycles; every `stride`-th
/// window (the ones where `(cycle / window) % stride == 0`, starting with
/// window 0) is recorded in full, the rest are skipped. The schedule is a
/// pure function of the cycle number — fixed stride, no host RNG — so two
/// runs of the same simulation sample identical slices and the rendered
/// trace is byte-stable. Memory is bounded by construction to roughly a
/// `1/stride` fraction of the full timeline.
///
/// Skipped-window events are dropped at the hook, before any allocation.
/// Phase-barrier markers are always kept (there is at most one), and the
/// rendered trace carries a `sampling` metadata instant naming the
/// window, stride and recorded fraction.
#[derive(Debug)]
pub struct SamplingProbe {
    inner: TraceRecorder,
    window: u64,
    stride: u64,
    /// Final cycle count, set at [`SimProbe::on_finish`].
    cycles: u64,
}

impl SamplingProbe {
    /// A sampling recorder labelling its process `name` with trace `pid`.
    /// `window` is the slice length in cycles; `stride` records one
    /// window in every `stride` (both clamped to at least 1 — a stride
    /// of 1 degenerates to a full [`TraceRecorder`]).
    pub fn new(pid: u64, name: impl Into<String>, window: u64, stride: u64) -> Self {
        SamplingProbe {
            inner: TraceRecorder::new(pid, name),
            window: window.max(1),
            stride: stride.max(1),
            cycles: 0,
        }
    }

    #[inline]
    fn sampled(&self, now: u64) -> bool {
        (now / self.window).is_multiple_of(self.stride)
    }

    /// Cycles covered by recorded windows in `[0, cycles)`.
    fn recorded_cycles(&self, cycles: u64) -> u64 {
        let full_periods = cycles / (self.window * self.stride);
        let mut rec = full_periods * self.window;
        let rem = cycles % (self.window * self.stride);
        rec += rem.min(self.window);
        rec
    }

    /// Fraction of simulated cycles that fell in recorded windows
    /// (`1.0` for stride 1; meaningful after the simulation ran).
    pub fn recorded_fraction(&self) -> f64 {
        if self.cycles == 0 {
            return 1.0;
        }
        self.recorded_cycles(self.cycles) as f64 / self.cycles as f64
    }

    /// The recorded events, with a `sampling` metadata instant appended
    /// (window, stride, recorded fraction).
    pub fn into_events(self) -> Vec<Value> {
        let mut args = Value::object();
        args.set("window_cycles", self.window)
            .set("stride", self.stride)
            .set("recorded_fraction", self.recorded_fraction());
        let mut e = Value::object();
        e.set("name", "sampling")
            .set("ph", "i")
            .set("ts", 0u64)
            .set("pid", self.inner.pid)
            .set("tid", 0u64)
            .set("s", "p");
        e.set("args", args);
        let mut events = self.inner.into_events();
        events.push(e);
        events
    }

    /// Wraps sampling recorders into one Chrome trace-event document
    /// (same envelope as [`TraceRecorder::chrome_trace`]).
    pub fn chrome_trace(parts: impl IntoIterator<Item = SamplingProbe>) -> Value {
        let mut events = Vec::new();
        for p in parts {
            events.extend(p.into_events());
        }
        let mut doc = Value::object();
        doc.set("displayTimeUnit", "ns")
            .set("traceEvents", Value::Arr(events));
        doc
    }
}

impl SimProbe for SamplingProbe {
    fn on_start(&mut self, geom: &ProbeGeometry) {
        self.inner.on_start(geom);
    }

    fn on_fp_issue(&mut self, now: u64, fin: u64, class: OpClass, node: u32) {
        if self.sampled(now) {
            self.inner.on_fp_issue(now, fin, class, node);
        }
    }

    fn on_int_issue(&mut self, now: u64, fin: u64, node: u32) {
        if self.sampled(now) {
            self.inner.on_int_issue(now, fin, node);
        }
    }

    fn on_cache_access(&mut self, ev: &CacheAccessEvent) {
        if self.sampled(ev.now) {
            self.inner.on_cache_access(ev);
        }
    }

    fn on_mshr_stall(&mut self, now: u64, is_tape: bool, node: u32) {
        if self.sampled(now) {
            self.inner.on_mshr_stall(now, is_tape, node);
        } else {
            // Keep the miss/stall pairing consistent: a stall marker from
            // a skipped window must not re-label the next sampled miss.
            self.inner.mshr_pending = false;
        }
    }

    fn on_spad_access(&mut self, now: u64, fin: u64, bank: usize, node: u32) {
        if self.sampled(now) {
            self.inner.on_spad_access(now, fin, bank, node);
        }
    }

    fn on_spad_conflict(&mut self, now: u64, bank: usize, node: u32) {
        if self.sampled(now) {
            self.inner.on_spad_conflict(now, bank, node);
        }
    }

    fn on_stream(&mut self, now: u64, bw_done: u64, fin: u64, dir: usize, bytes: u64, node: u32) {
        if self.sampled(now) {
            self.inner.on_stream(now, bw_done, fin, dir, bytes, node);
        }
    }

    fn on_phase_barrier(&mut self, at: u64) {
        // Always kept: a single instant, and the FWD→REV boundary is the
        // one landmark a sampled timeline must not lose.
        self.inner.on_phase_barrier(at);
    }

    fn on_finish(&mut self, cycles: u64) {
        self.cycles = cycles;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::engine::{simulate_prepared_probed, SimOptions};
    use crate::PreparedSim;
    use tapeflow_ir::trace::{trace_function, TraceOptions};
    use tapeflow_ir::{ArrayKind, FunctionBuilder, Memory, Scalar, Trace};

    /// Prepares `trace` and simulates it on `cfg` under `probe`.
    fn sim_probed<P: SimProbe>(
        trace: &Trace,
        cfg: &SystemConfig,
        opts: &SimOptions,
        probe: &mut P,
    ) -> crate::SimReport {
        simulate_prepared_probed(&PreparedSim::new(trace).unwrap(), cfg, opts, probe)
    }

    fn run_probed(
        build: impl FnOnce(&mut FunctionBuilder),
        cfg: &SystemConfig,
    ) -> (crate::SimReport, CycleBreakdown) {
        let mut b = FunctionBuilder::new("t");
        build(&mut b);
        let f = b.finish();
        let mut mem = Memory::for_function(&f);
        let trace = trace_function(&f, &mut mem, TraceOptions::default()).unwrap();
        let mut probe = AttributionProbe::new();
        let r = sim_probed(&trace, cfg, &SimOptions::default(), &mut probe);
        (r, probe.into_breakdown())
    }

    #[test]
    fn empty_trace_attributes_nothing() {
        let (r, bd) = run_probed(|_| {}, &SystemConfig::default());
        assert_eq!(r.cycles, 0);
        assert_eq!(bd.attributed(), 0);
    }

    #[test]
    fn chain_holds_invariant_and_marks_fp() {
        let cfg = SystemConfig::default();
        let (r, bd) = run_probed(
            |b| {
                let one = b.f64(1.0);
                let mut v = b.f64(0.0);
                for _ in 0..40 {
                    v = b.fadd(v, one);
                }
            },
            &cfg,
        );
        bd.check().unwrap();
        assert_eq!(bd.cycles, r.cycles);
        assert_eq!(bd.attributed(), bd.total_units());
        // A serial chain keeps exactly one FP unit busy every cycle.
        assert_eq!(bd.get(StallKind::FpBusy), r.cycles);
        assert_eq!(
            bd.get(StallKind::Idle),
            r.cycles * (bd.pes as u64 - 1),
            "remaining PEs idle: {bd:?}"
        );
        assert_eq!(bd.pe_occupancy[1], r.cycles);
    }

    #[test]
    fn misses_attributed_to_cache_stall() {
        let cfg = SystemConfig::with_cache_bytes(1024);
        let (r, bd) = run_probed(
            |b| {
                let x = b.array("x", 64 * 8, ArrayKind::Input, Scalar::F64);
                for i in 0..64i64 {
                    let idx = b.i64(i * 8);
                    let _ = b.load(x, idx);
                }
            },
            &cfg,
        );
        bd.check().unwrap();
        let miss_units = bd.get(StallKind::CacheMissStall) + bd.get(StallKind::MshrStall);
        assert!(
            miss_units > 0,
            "64 distinct-line misses must show up as miss/MSHR stall: {bd:?}"
        );
        assert_eq!(bd.cycles, r.cycles);
    }

    #[test]
    fn bank_conflicts_counted_per_bank() {
        let cfg = SystemConfig::default();
        let (_, bd) = run_probed(
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
        bd.check().unwrap();
        assert_eq!(bd.bank_accesses[0], 8, "all accesses land in bank 0");
        assert!(
            bd.bank_conflicts[0] >= 7,
            "seven deferrals behind the first access: {:?}",
            bd.bank_conflicts
        );
        assert!(bd.get(StallKind::SpadConflict) > 0);
    }

    #[test]
    fn probed_report_matches_unprobed() {
        let cfg = SystemConfig::with_cache_bytes(2048);
        let mut b = FunctionBuilder::new("t");
        let x = b.array("x", 64, ArrayKind::Input, Scalar::F64);
        let y = b.array("y", 64, ArrayKind::InOut, Scalar::F64);
        let a = b.f64(3.0);
        b.for_loop("i", 0, 64, |b, i| {
            let xi = b.load(x, i);
            let yi = b.load(y, i);
            let t = b.fmul(a, xi);
            let s = b.fadd(t, yi);
            b.store(y, i, s);
        });
        let f = b.finish();
        let mut mem = Memory::for_function(&f);
        let trace = trace_function(&f, &mut mem, TraceOptions::default()).unwrap();
        let plain = sim_probed(&trace, &cfg, &SimOptions::default(), &mut NoProbe);
        let mut probe = (AttributionProbe::new(), TraceRecorder::new(1, "t"));
        let probed = sim_probed(&trace, &cfg, &SimOptions::default(), &mut probe);
        assert_eq!(plain.cycles, probed.cycles);
        assert_eq!(plain.cache, probed.cache);
        assert_eq!(plain.fp_ops, probed.fp_ops);
        probe.0.breakdown().check().unwrap();
    }

    #[test]
    fn per_inst_columns_sum_to_per_cause_totals() {
        let cfg = SystemConfig::with_cache_bytes(1024);
        let mut b = FunctionBuilder::new("t");
        let x = b.array("x", 64 * 8, ArrayKind::Input, Scalar::F64);
        b.for_loop("i", 0, 64, |b, i| {
            let eight = b.i64(8);
            let idx = b.imul(i, eight);
            let v = b.load(x, idx);
            let _ = b.exp(v);
        });
        let f = b.finish();
        let mut mem = Memory::for_function(&f);
        let trace = trace_function(&f, &mut mem, TraceOptions::default()).unwrap();
        let mut probe = AttributionProbe::with_inst_map(trace.insts(), f.insts().len());
        let r = sim_probed(&trace, &cfg, &SimOptions::default(), &mut probe);
        let (bd, pi) = probe.into_parts();
        let pi = pi.expect("per-inst mode on");
        bd.check().unwrap();
        pi.check_against(&bd).unwrap();
        assert_eq!(bd.cycles, r.cycles);
        assert_eq!(pi.insts(), f.insts().len());
        // The load instruction carries the miss stalls.
        let loads: u64 = (0..pi.insts())
            .filter(|&i| {
                matches!(
                    f.inst(tapeflow_ir::InstId::new(i)).op,
                    tapeflow_ir::Op::Load(_)
                )
            })
            .map(|i| pi.get(i, StallKind::CacheMissStall) + pi.get(i, StallKind::MshrStall))
            .sum();
        assert!(loads > 0, "miss stalls must land on the load inst: {pi:?}");
        // Per-cause totals are byte-identical to a plain probe's.
        let mut plain = AttributionProbe::new();
        sim_probed(&trace, &cfg, &SimOptions::default(), &mut plain);
        assert_eq!(plain.into_breakdown(), bd);
    }

    #[test]
    fn breakdown_json_round_trips() {
        let cfg = SystemConfig::default();
        let (_, bd) = run_probed(
            |b| {
                let one = b.f64(1.0);
                let _ = b.fadd(one, one);
            },
            &cfg,
        );
        let j = bd.to_json();
        assert_eq!(j.get("pes").unwrap().as_u64(), Some(bd.pes as u64));
        let text = j.render();
        let back = Value::parse(&text).unwrap();
        assert_eq!(back, j);
    }

    #[test]
    fn recorder_survives_events_before_geometry() {
        // A trace/port event arriving before on_start used to panic on
        // `geom.as_ref().unwrap()`; it is now dropped and counted, with
        // the offending hook named.
        let mut rec = TraceRecorder::new(1, "early");
        rec.on_cache_access(&CacheAccessEvent {
            node: 0,
            now: 0,
            fin: 2,
            port: 0,
            hit: true,
            is_tape: false,
            is_rev: false,
            is_write: false,
        });
        rec.on_fp_issue(0, 3, OpClass::FpAlu, 0);
        rec.on_int_issue(0, 1, 0);
        rec.on_spad_access(0, 1, 0, 0);
        rec.on_spad_conflict(0, 0, 0);
        rec.on_stream(0, 1, 2, 0, 64, 0);
        let (hook, n) = rec.pre_geometry_drops().expect("drops recorded");
        assert_eq!(hook, "on_cache_access", "first offending hook named");
        assert_eq!(n, 6);
        // The rendered trace carries a marker for the anomaly.
        let events = rec.into_events();
        let marker = events
            .iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some("pre-geometry events dropped"))
            .expect("marker instant present");
        let args = marker.get("args").unwrap();
        assert_eq!(args.get("dropped").unwrap().as_u64(), Some(6));
        assert_eq!(
            args.get("first_hook").unwrap().as_str(),
            Some("on_cache_access")
        );
    }

    #[test]
    fn recorder_records_no_marker_when_driven_correctly() {
        let cfg = SystemConfig::default();
        let mut rec = TraceRecorder::new(1, "ok");
        rec.on_start(&ProbeGeometry::of(&cfg, false));
        rec.on_fp_issue(0, 3, OpClass::FpAlu, 0);
        assert_eq!(rec.pre_geometry_drops(), None);
        let events = rec.into_events();
        assert!(events
            .iter()
            .all(|e| e.get("name").and_then(Value::as_str) != Some("pre-geometry events dropped")));
    }

    #[test]
    fn attribution_probe_survives_events_before_geometry() {
        let mut p = AttributionProbe::new();
        p.on_cycle_start(3);
        p.on_spad_access(3, 4, 0, 0);
        p.on_spad_conflict(3, 1, 0);
        p.on_cycle_end(3, true);
        p.on_finish(5);
        let (hook, n) = p.pre_geometry_drops().expect("drops recorded");
        assert_eq!(hook, "on_cycle_start");
        assert_eq!(n, 5);
        assert_eq!(p.breakdown().attributed(), 0, "nothing was attributed");
    }

    #[test]
    fn sampling_probe_is_deterministic_and_bounded() {
        let cfg = SystemConfig::with_cache_bytes(1024);
        let mut b = FunctionBuilder::new("t");
        let x = b.array("x", 256 * 8, ArrayKind::Input, Scalar::F64);
        b.for_loop("i", 0, 256, |b, i| {
            let eight = b.i64(8);
            let idx = b.imul(i, eight);
            let v = b.load(x, idx);
            let _ = b.exp(v);
        });
        let f = b.finish();
        let mut mem = Memory::for_function(&f);
        let trace = trace_function(&f, &mut mem, TraceOptions::default()).unwrap();
        let run = |window, stride| {
            let mut p = SamplingProbe::new(1, "s", window, stride);
            sim_probed(&trace, &cfg, &SimOptions::default(), &mut p);
            let frac = p.recorded_fraction();
            (SamplingProbe::chrome_trace([p]).render(), frac)
        };
        let (full, frac_full) = run(64, 1);
        let (a, frac_a) = run(64, 8);
        let (b2, _) = run(64, 8);
        assert_eq!(a, b2, "sampling schedule must be deterministic");
        assert!(frac_full == 1.0, "stride 1 records everything: {frac_full}");
        assert!(
            frac_a < 0.5,
            "1-in-8 sampling records a small fraction: {frac_a}"
        );
        assert!(
            a.len() < full.len(),
            "sampled trace must be smaller ({} vs {})",
            a.len(),
            full.len()
        );
        // The sampled document is still a well-formed trace with the
        // sampling marker.
        let doc = Value::parse(&a).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let marker = events
            .iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some("sampling"))
            .expect("sampling metadata instant");
        let args = marker.get("args").unwrap();
        assert_eq!(args.get("stride").unwrap().as_u64(), Some(8));
        assert_eq!(args.get("window_cycles").unwrap().as_u64(), Some(64));
    }

    #[test]
    fn trace_recorder_emits_monotonic_tracks() {
        let cfg = SystemConfig::with_cache_bytes(1024);
        let mut b = FunctionBuilder::new("t");
        let x = b.array("x", 64, ArrayKind::Input, Scalar::F64);
        b.for_loop("i", 0, 32, |b, i| {
            let v = b.load(x, i);
            let _ = b.fadd(v, v);
        });
        let f = b.finish();
        let mut mem = Memory::for_function(&f);
        let trace = trace_function(&f, &mut mem, TraceOptions::default()).unwrap();
        let mut rec = TraceRecorder::new(7, "unit");
        sim_probed(&trace, &cfg, &SimOptions::default(), &mut rec);
        let doc = TraceRecorder::chrome_trace([rec]);
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert!(!events.is_empty());
        let mut last_ts: std::collections::BTreeMap<(u64, u64), u64> = Default::default();
        for e in events {
            if e.get("ph").and_then(Value::as_str) != Some("X") {
                continue;
            }
            let pid = e.get("pid").unwrap().as_u64().unwrap();
            let tid = e.get("tid").unwrap().as_u64().unwrap();
            let ts = e.get("ts").unwrap().as_u64().unwrap();
            let prev = last_ts.entry((pid, tid)).or_insert(0);
            assert!(ts >= *prev, "track ({pid},{tid}) went backwards");
            *prev = ts;
        }
    }
}
