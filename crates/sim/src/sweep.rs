//! Incremental re-simulation across parameter sweeps.
//!
//! A sweep re-runs the *same* prepared trace under configurations that
//! differ in a few machine parameters; the schedule of two such runs is
//! identical up to the first cache access whose outcome (hit/miss,
//! dirty eviction) differs — provided every parameter the replay itself
//! cannot validate is unchanged. [`SweepSession`] exploits that:
//!
//! 1. The first configuration runs fully, recording the cache access
//!    stream with outcomes and taking periodic scheduler checkpoints
//!    (`engine::Recording`). Both simulator loops — the pure event loop
//!    for cache-only traces, the per-cycle core for scratchpad/stream
//!    traces — run on one scheduler state, and a checkpoint is a clone
//!    of it, so *every* nonempty trace gets a session and one
//!    record/resume path serves both loops.
//! 2. Each later configuration **replays** the recorded address stream
//!    through its own cold cache — pure `Cache::access` calls, no
//!    scheduler at all — comparing outcomes against the record.
//!    * Outcomes match to the end: the schedule is provably identical,
//!      so the recorded report is reused wholesale; only the end-of-run
//!      dirty flush (read off the replayed cache) and the
//!      size-dependent energy terms are recomputed.
//!    * First mismatch at access *k*: the run resumes from the last
//!      checkpoint at or before *k* — scheduler state cloned from the
//!      checkpoint, cache state from the replay — and re-simulates
//!      only the tail, re-recording it for the next configuration.
//!
//! A session renumbers its arena in schedule order
//! ([`PreparedSim::order_by_schedule`]) unless an earlier session
//! already did: the runs then walk the per-node arrays nearly in
//! sequence, and every later session and cold run over the arena reuses
//! the numbering.
//!
//! Ordering a ladder from large caches to small maximizes shared
//! prefixes (neighbouring sizes behave identically until capacity
//! pressure bites); [`plan_order`] encodes that policy for arbitrary
//! config sets. Correctness never depends on the order, only the
//! amount of reuse does; every report is byte-identical to a fresh
//! simulation, which the determinism suite and the harness's golden
//! JSON pin down.
//!
//! ## What may change between chained configurations
//!
//! Compatibility is keyed on the per-parameter-class fingerprints of
//! [`crate::config::ClassPrints`] rather than the whole-config memo
//! fingerprint:
//!
//! * **Cache geometry** (size/assoc/policy) — free: the replay
//!   validates it directly through outcomes.
//! * **Scratchpad bank count** — validated *structurally*: the bank of
//!   a scratchpad access is `addr % banks`, a pure per-address
//!   function, so two counts chain iff they assign every scratchpad
//!   address in the trace the same bank (`spad_map_equal`); traces
//!   without scratchpad nodes chain across any bank count.
//! * **Energy table** — free: energy is recomputed from final counters.
//! * Everything else — cache timing (line/ports/latency/MSHRs),
//!   scratchpad latency, the DRAM/stream model, the datapath — feeds
//!   timing without leaving a per-access record and forces a fresh
//!   recording when a *relevant* class changes (classes the trace never
//!   exercises don't gate).

use crate::cache::Cache;
use crate::config::SystemConfig;
use crate::engine::{
    recompute_energy, run_unprobed, simulate_arena, Recording, SchedState, SimOptions,
    REC_ADDR_MASK, REC_HIT, REC_SHIFT, REC_WB, REC_WRITE,
};
use crate::prep::{Arena, PreparedSim};
use crate::probe::NoProbe;
use crate::report::SimReport;
use std::sync::Arc;
use tapeflow_ir::OpClass;

/// Total checkpoint memory budget in bytes per session; large arenas
/// get fewer checkpoints (possibly none — incremental reuse then
/// degrades to "replay or re-run from scratch", still exact).
const CKPT_BUDGET: usize = 256 << 20;
/// Conservative per-node cost estimate of one checkpoint (a scheduler
/// state clone) in bytes. A clone copies one 8-byte ready/indegree
/// word per node plus the queue and event entries; the estimate stays
/// at the 40 set when a clone copied 24 bytes per node, so checkpoint
/// plans stay as they were measured.
const CKPT_NODE_BYTES: usize = 40;
/// Earliest checkpoint position in accesses — below this the snapshot
/// costs more than the prefix it saves.
const FIRST_CKPT: u64 = 64;
/// Hard cap on checkpoints per recording, independent of the budget
/// (each doubling past this covers so much stream that more snapshots
/// stop paying for themselves).
const CKPT_HARD_CAP: usize = 16;
/// Measured cost of one scheduler snapshot relative to a full cold
/// simulation of the same trace, in percent. Both scale linearly with
/// node count (the snapshot memcpys the per-node scheduler state, the
/// simulation visits every node), so the ratio is roughly
/// scale-invariant; ~30% held on both the event loop and the
/// per-cycle core when a snapshot copied 24 bytes per node (three
/// times today's), and is kept so checkpoint plans do not change. A
/// checkpoint at access *a* can save at most the `a / n_mem` prefix of
/// one future resume, so re-records only take as many snapshots as
/// their expected resume savings can repay.
const CKPT_COST_PCT: usize = 30;
/// How much earlier the *next* divergence lands relative to the one
/// that triggered a re-record, as a divisor on the expected resume
/// savings. On descending cache ladders successive divergences cluster
/// toward the start of the stream (measured roughly a third of the
/// previous position across the canonical sweeps), so a re-record
/// after a divergence at `d` should expect future resumes to reuse
/// only about `d / 3` of its prefix, not all of it.
const DIV_SHRINK: usize = 3;
/// Lookahead value meaning "unknown number of future configurations"
/// ([`SweepSession::simulate`] without a plan): checkpoint as if many
/// consumers may resume, i.e. the cost model caps on schedule span
/// and budget alone.
const MANY: usize = usize::MAX;

/// The checkpoint plan for a trace: first-checkpoint position (in
/// accesses) and checkpoint count, sized so the doubling schedule
/// spans the whole access stream while total snapshot memory stays
/// under [`CKPT_BUDGET`] **regardless of trace length** — the count
/// shrinks as the per-snapshot cost (`~CKPT_NODE_BYTES * nodes`)
/// grows. Invariant (pinned by a unit test):
/// `max_ckpts * CKPT_NODE_BYTES * nodes <= CKPT_BUDGET`, and
/// `interval << max_ckpts >= n_mem` (the schedule reaches the end).
pub(crate) fn ckpt_plan(nodes: usize, n_mem: usize) -> (u64, usize) {
    // Checkpoints wanted: enough doublings from FIRST_CKPT to span the
    // access stream (a short trace needs few; zero accesses need none).
    let mut wanted = 0usize;
    let mut pos = FIRST_CKPT;
    while pos < n_mem as u64 && wanted < CKPT_HARD_CAP {
        pos = pos.saturating_mul(2);
        wanted += 1;
    }
    if n_mem > 0 {
        wanted = wanted.max(1);
    }
    let per_ckpt = CKPT_NODE_BYTES * nodes.max(1);
    let max_ckpts = (CKPT_BUDGET / per_ckpt).min(wanted);
    // Anchor the first checkpoint so `max_ckpts` doublings span the
    // stream even when the budget granted fewer than `wanted`.
    let interval = ((n_mem as u64) >> max_ckpts).max(FIRST_CKPT);
    (interval, max_ckpts)
}

/// A sweep-scoped simulation session over one prepared trace: same
/// results as calling [`simulate_prepared`](crate::simulate_prepared) per configuration, but
/// configurations whose differences the replay can validate (cache
/// geometry, scratchpad bank maps, energy tables) reuse the unchanged
/// warm-up prefix of the previous run instead of re-simulating it.
pub struct SweepSession {
    prep: Arc<Arena>,
    opts: SimOptions,
    /// First-checkpoint position (accesses), derived from the trace's
    /// memory-node count; later checkpoints double from here.
    interval: u64,
    max_ckpts: usize,
    /// Memory accesses in the trace (recording buffer preallocation).
    n_mem: usize,
    /// Whether any chained configuration has diverged yet. Checkpoints
    /// are only worth their snapshot memcpys once a divergence has
    /// actually been observed — an all-match ladder (working set fits
    /// every size) records checkpoint-free.
    diverged: bool,
    base: Option<BaseRec>,
}

/// The most recent recorded run: its configuration, access record with
/// checkpoints, and final report.
struct BaseRec {
    cfg: SystemConfig,
    rec: Recording,
    report: SimReport,
}

impl std::fmt::Debug for SweepSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepSession")
            .field("nodes", &self.prep.len())
            .field("interval", &self.interval)
            .field("recorded", &self.base.is_some())
            .finish()
    }
}

impl SweepSession {
    /// A session over `prep`, renumbered in schedule order for the many
    /// runs a session makes ([`PreparedSim::order_by_schedule`]).
    /// `opts` applies to every run.
    pub fn new(prep: Arc<PreparedSim>, opts: SimOptions) -> SweepSession {
        let prep = prep.schedule_ordered();
        let n_mem = prep.n_mem;
        let (interval, max_ckpts) = ckpt_plan(prep.len(), n_mem);
        SweepSession {
            prep,
            opts,
            interval,
            max_ckpts,
            n_mem,
            diverged: false,
            base: None,
        }
    }

    /// Simulates `cfg`, reusing the previous run's prefix when the
    /// configurations are sweep-compatible. Byte-identical to
    /// [`simulate_prepared`](crate::simulate_prepared) on the same inputs.
    pub fn simulate(&mut self, cfg: &SystemConfig) -> SimReport {
        self.simulate_lookahead(cfg, MANY)
    }

    /// [`Self::simulate`] with a lookahead hint: `remaining` is the
    /// number of configurations still to run through this session
    /// after this one. The hint only tunes the recording effort —
    /// results stay byte-identical to [`simulate_prepared`](crate::simulate_prepared) for any
    /// value:
    ///
    /// * `remaining == 0`: nothing can consume a recording, so a run
    ///   that must re-simulate does it cold (no access recording, no
    ///   snapshots); full-match replays still reuse the base wholesale.
    /// * otherwise: re-records after a divergence take only as many
    ///   checkpoints as `remaining` future resumes could plausibly
    ///   repay under the `CKPT_COST_PCT` cost model.
    ///
    /// [`run_group`] drives sessions through this entry point with the
    /// exact plan tail length; callers without a plan can use
    /// [`Self::simulate`], which assumes many consumers follow.
    pub fn simulate_lookahead(&mut self, cfg: &SystemConfig, remaining: usize) -> SimReport {
        if self.prep.is_empty() {
            // Nothing to record or replay.
            return simulate_arena(&self.prep, cfg, &self.opts, &mut NoProbe);
        }
        let chains = matches!(&self.base, Some(b) if self.chains_with(&b.cfg, cfg));
        if chains {
            self.incremental(*cfg, remaining)
        } else {
            self.record_fresh(*cfg, remaining, None)
        }
    }

    /// Whether `b` can chain off a recording made under `a`: every
    /// parameter class the replay cannot validate must be unchanged —
    /// unless the trace never exercises that subsystem at all. The
    /// gated classes (cache timing, datapath) also pin the loop choice
    /// (`engine::dataflow_ok`), so a chained pair always resumes on the
    /// loop that recorded the checkpoint. They also make a checkpoint
    /// clone valid under `b`: it carries `a`'s MSHR count (cache timing)
    /// and DRAM model (`stream`, gated whenever the trace uses DRAM).
    fn chains_with(&self, a: &SystemConfig, b: &SystemConfig) -> bool {
        let (pa, pb) = (a.class_prints(), b.class_prints());
        if pa.cache_timing != pb.cache_timing || pa.pe != pb.pe {
            return false;
        }
        // The DRAM model serves cache fills and stream transfers; a
        // trace with neither never consults it.
        if (self.n_mem > 0 || self.prep.has_stream) && pa.stream != pb.stream {
            return false;
        }
        if self.prep.has_spad {
            if pa.spad_timing != pb.spad_timing {
                return false;
            }
            if pa.spad_geometry != pb.spad_geometry
                && !spad_map_equal(&self.prep, a.spad.banks, b.spad.banks)
            {
                return false;
            }
        }
        true
    }

    /// Full run with recording; becomes the new base. Checkpoints are
    /// taken only once this session has seen a divergence — before
    /// that, the snapshots would be pure overhead on ladders whose
    /// outcome streams all match — and even then only as many as the
    /// remaining plan can repay: with a known divergence position
    /// `div`, each of the `remaining` future runs can save at most the
    /// `div / n_mem` prefix of one cold run by resuming, while every
    /// snapshot costs ~[`CKPT_COST_PCT`]% of a cold run up front. With
    /// nothing left in the plan (`remaining == 0`) the run skips
    /// recording entirely and leaves the existing base untouched — it
    /// still truthfully describes its own configuration, so a stray
    /// later call can keep chaining off it.
    fn record_fresh(&mut self, cfg: SystemConfig, remaining: usize, div: Option<u64>) -> SimReport {
        if remaining == 0 || (self.diverged && remaining == 1) {
            // Nothing left in the plan — or one run left right after a
            // divergence. Below the working set every smaller geometry's
            // outcome stream differs from every larger one's near the
            // start, so the post-divergence successor diverges again
            // with near certainty: recording for it would pay the
            // record overhead to enable a replay-match that will not
            // happen. The untouched base still truthfully describes
            // its own configuration, so the successor replays (and
            // early-diverges against) that instead.
            return simulate_arena(&self.prep, &cfg, &self.opts, &mut NoProbe);
        }
        let (ckpts, limit) = if !self.diverged {
            (0, u64::MAX)
        } else if let Some(div) = div {
            let div_pct = (100 * div / self.n_mem.max(1) as u64) as usize;
            let afford = remaining.min(64) * div_pct / (DIV_SHRINK * CKPT_COST_PCT);
            (afford.min(self.max_ckpts), div.max(1))
        } else {
            (self.max_ckpts, u64::MAX)
        };
        let mut rec = Recording::new(self.interval, ckpts, self.n_mem, limit);
        let report = run_unprobed::<true>(
            &self.prep,
            &cfg,
            &self.opts,
            SchedState::new(&self.prep, &cfg),
            Cache::new(cfg.cache),
            &mut rec,
        );
        self.base = Some(BaseRec {
            cfg,
            rec,
            report: report.clone(),
        });
        report
    }

    /// Replay the base record through `cfg`'s cache; skip what matches.
    fn incremental(&mut self, cfg: SystemConfig, remaining: usize) -> SimReport {
        let b = self.base.as_mut().expect("incremental requires a base");
        let mut cache = Cache::new(cfg.cache);

        // Pass 1: replay the recorded address stream comparing outcomes.
        // No state is saved along the way — the common full-match case
        // must stay a pure `Cache::access` scan (snapshotting a multi-MB
        // cache at every checkpoint boundary would dwarf the replay).
        let mut div: Option<u64> = None;
        for (i, &word) in b.rec.addrs.iter().enumerate() {
            let m = (word >> REC_SHIFT) as u8;
            let res = cache.access(word & REC_ADDR_MASK, m & REC_WRITE != 0);
            let got = (REC_HIT * u8::from(res.hit)) | (REC_WB * u8::from(res.writeback.is_some()));
            if got != m & (REC_HIT | REC_WB) {
                div = Some(i as u64);
                break;
            }
        }

        let Some(div) = div else {
            // Identical outcome stream end to end: identical schedule,
            // identical counters. Only the end-of-run dirty flush (this
            // geometry's resident dirty lines) and the size-dependent
            // energy terms differ from the recorded report.
            let mut report = b.report.clone();
            let line = cache.config().line_bytes as u64;
            let flushed = cache.dirty_lines();
            report.cache.writebacks =
                report.cache.writebacks - report.cache.flush_writebacks + flushed;
            report.dram_writeback_bytes =
                report.dram_writeback_bytes - report.cache.flush_writebacks * line + flushed * line;
            report.cache.flush_writebacks = flushed;
            recompute_energy(&mut report, &cfg);
            // Chain: the record now equally describes this run.
            b.cfg = cfg;
            b.report = report.clone();
            return report;
        };

        // Resume from the last checkpoint at or before the divergence.
        // Pass 2 (divergence only) rebuilds that boundary's cache by
        // re-replaying the already-validated prefix — every access
        // before `div` matched, so no comparison is needed. With no
        // usable checkpoint, re-record from scratch; the session now
        // knows divergences happen on this ladder, so the re-record
        // takes checkpoints.
        self.diverged = true;
        let usable = b.rec.ckpts.partition_point(|c| c.accesses <= div);
        let Some(j) = usable.checked_sub(1) else {
            return self.record_fresh(cfg, remaining, Some(div));
        };
        let keep = b.rec.ckpts[j].accesses as usize;
        let tail_cache = replay_prefix(&cfg, &b.rec.addrs[..keep]);
        // The clone resumes on the loop that recorded it: a chained
        // pair agrees on every class that selects the loop.
        let st = b.rec.ckpts[j].clone();
        if remaining <= 1 {
            // Last run of the plan — or the next-to-last right after
            // this divergence, whose successor will again diverge early
            // (see `record_fresh`) rather than replay-match this tail.
            // Either way nobody profits from a recorded tail, so it
            // runs unrecorded, and the base — untouched — keeps
            // truthfully describing the previous configuration.
            let mut rec = Recording::disabled();
            return run_unprobed::<false>(&self.prep, &cfg, &self.opts, st, tail_cache, &mut rec);
        }
        b.rec.truncate_to(j);
        let report = run_unprobed::<true>(&self.prep, &cfg, &self.opts, st, tail_cache, &mut b.rec);
        b.cfg = cfg;
        b.report = report.clone();
        report
    }
}

/// A cold `cfg` cache after serving the recorded access words `prefix`
/// — the cache state matching a checkpoint taken after them.
fn replay_prefix(cfg: &SystemConfig, prefix: &[u64]) -> Cache {
    let mut cache = Cache::new(cfg.cache);
    for &word in prefix {
        cache.access(
            word & REC_ADDR_MASK,
            (word >> REC_SHIFT) as u8 & REC_WRITE != 0,
        );
    }
    cache
}

/// Whether bank counts `b1` and `b2` assign every scratchpad address in
/// the trace the same bank (`addr % banks`, the engine's static bank
/// map). A pure trace property — no recording needed — so a session
/// can chain across bank-count changes whenever it holds, and a trace
/// with no scratchpad nodes trivially chains across any count.
pub(crate) fn spad_map_equal(prep: &Arena, b1: usize, b2: usize) -> bool {
    let (b1, b2) = (b1.max(1), b2.max(1));
    if b1 == b2 {
        return true;
    }
    prep.cols
        .class()
        .iter()
        .zip(prep.cols.addr())
        .all(|(c, &a)| {
            !matches!(c, OpClass::SpadLoad | OpClass::SpadStore)
                || (a as usize) % b1 == (a as usize) % b2
        })
}

/// The order in which to run `cfgs` through one [`SweepSession`] to
/// maximize replay-prefix reuse: configurations whose timing classes
/// match (the chainability requirement) land adjacent, bank-count
/// variants cluster within a timing group, and cache sizes descend
/// within a group — on a descending ladder each smaller configuration
/// diverges *earlier*, so prefix checkpoints from the larger run keep
/// serving. Deterministic: ties break on the caller's index.
pub fn plan_order(cfgs: &[SystemConfig]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..cfgs.len()).collect();
    idx.sort_by_key(|&i| {
        let p = cfgs[i].class_prints();
        (
            p.chain_key(),
            p.spad_geometry,
            std::cmp::Reverse(cfgs[i].cache.size_bytes),
            i,
        )
    });
    idx
}

/// Runs every configuration through one [`SweepSession`] in
/// [`plan_order`], returning reports in the **caller's** order. The
/// session-per-trace building block of the sweep planner (the bench
/// harness groups arbitrary config sets by trace and fans the groups
/// out in parallel).
pub fn run_group(
    prep: Arc<PreparedSim>,
    opts: SimOptions,
    cfgs: &[SystemConfig],
) -> Vec<SimReport> {
    let mut sess = SweepSession::new(prep, opts);
    let mut out: Vec<Option<SimReport>> = (0..cfgs.len()).map(|_| None).collect();
    let order = plan_order(cfgs);
    for (k, &i) in order.iter().enumerate() {
        // The plan tail length lets the session skip recording work no
        // later run can consume (nothing on the last visit).
        out[i] = Some(sess.simulate_lookahead(&cfgs[i], order.len() - k - 1));
    }
    out.into_iter()
        .map(|r| r.expect("plan_order visits every index"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::simulate_prepared;
    use tapeflow_ir::trace::{trace_function, TraceOptions};
    use tapeflow_ir::{ArrayKind, FunctionBuilder, Memory, Op, Scalar, Trace};

    /// A cold run: a fresh arena for `trace`, simulated on `cfg`.
    fn cold_run(trace: &Trace, cfg: &SystemConfig, opts: &SimOptions) -> SimReport {
        simulate_prepared(&PreparedSim::new(trace).unwrap(), cfg, opts)
    }

    fn mixed_trace(arrays: usize, len: i64) -> Trace {
        mixed_trace_with(arrays, len, false)
    }

    /// [`mixed_trace`], with a barrier before each array's loop when
    /// `phased`: each array's loads then wait for the previous array's
    /// work, so the event loop drains many small batches — and reaches
    /// many checkpoint boundaries — instead of one batch of every load.
    fn mixed_trace_with(arrays: usize, len: i64, phased: bool) -> Trace {
        // Loads over several arrays with FP reductions and stores —
        // enough working set that small caches diverge from large ones.
        let mut b = FunctionBuilder::new("sweep");
        let xs: Vec<_> = (0..arrays)
            .map(|k| b.array(format!("x{k}"), len as usize, ArrayKind::InOut, Scalar::F64))
            .collect();
        let mut acc = b.f64(0.0);
        for &x in &xs {
            if phased {
                b.push_inst(Op::Barrier, vec![]);
            }
            b.for_loop("i", 0, len, |b, i| {
                let v = b.load(x, i);
                let w = b.fmul(v, v);
                b.store(x, i, w);
            });
            let z = b.i64(0);
            let v0 = b.load(x, z);
            acc = b.fadd(acc, v0);
        }
        let f = b.finish();
        let mut mem = Memory::for_function(&f);
        trace_function(&f, &mut mem, TraceOptions::default()).unwrap()
    }

    /// A trace exercising the scratchpad, stream engines *and* the
    /// cache — forced onto the per-cycle core.
    fn spad_stream_trace(len: i64) -> Trace {
        let mut b = FunctionBuilder::new("spadsweep");
        let x = b.array("x", len as usize, ArrayKind::Input, Scalar::F64);
        let tape = b.array("tape", len as usize, ArrayKind::Tape, Scalar::F64);
        let base = b
            .push_inst(
                Op::SAlloc {
                    size: len as u32,
                    base: 0,
                },
                vec![],
            )
            .unwrap();
        let zero = b.i64(0);
        let elems = b.i64(len);
        b.push_inst(Op::StreamOut(tape), vec![base, zero, elems]);
        let v = b.f64(1.0);
        b.for_loop("i", 0, len, |b, i| {
            let w = b.load(x, i);
            let s = b.fadd(w, v);
            b.push_inst(Op::SpadStore, vec![i, s]);
            let _ = b.push_inst(Op::SpadLoad, vec![i]);
        });
        b.push_inst(Op::StreamIn(tape), vec![base, zero, elems]);
        let f = b.finish();
        let mut mem = Memory::for_function(&f);
        trace_function(&f, &mut mem, TraceOptions::default()).unwrap()
    }

    #[test]
    fn session_matches_fresh_simulation_in_any_order() {
        let trace = mixed_trace(4, 128);
        let prep = Arc::new(PreparedSim::new(&trace).unwrap());
        // Descending (the intended ladder), ascending, and zig-zag: the
        // session must be byte-identical to fresh runs regardless.
        let ladders: [&[usize]; 3] = [
            &[131072, 32768, 8192, 2048, 1024],
            &[1024, 2048, 8192, 32768, 131072],
            &[32768, 1024, 131072, 2048, 32768],
        ];
        for ladder in ladders {
            let mut sess = SweepSession::new(Arc::clone(&prep), SimOptions::default());
            for &bytes in ladder {
                let cfg = SystemConfig::with_cache_bytes(bytes);
                let inc = sess.simulate(&cfg);
                let fresh = cold_run(&trace, &cfg, &SimOptions::default());
                assert_eq!(
                    inc.to_json().render(),
                    fresh.to_json().render(),
                    "sweep diverged at cache={bytes} in ladder {ladder:?}"
                );
            }
        }
    }

    #[test]
    fn session_reuses_identical_outcome_streams() {
        // Two huge cache sizes over a small working set: the second run
        // must be served from the record (no tail re-simulation), which
        // we observe through the record keeping its original config's
        // report but still matching a fresh simulation bit for bit.
        let trace = mixed_trace(2, 64);
        let prep = Arc::new(PreparedSim::new(&trace).unwrap());
        let mut sess = SweepSession::new(Arc::clone(&prep), SimOptions::default());
        let big = SystemConfig::with_cache_bytes(1 << 20);
        let bigger = SystemConfig::with_cache_bytes(2 << 20);
        let first = sess.simulate(&big);
        let second = sess.simulate(&bigger);
        assert_eq!(first.cycles, second.cycles, "fits-in-cache: same schedule");
        let fresh = cold_run(&trace, &bigger, &SimOptions::default());
        assert_eq!(second.to_json().render(), fresh.to_json().render());
    }

    #[test]
    fn incompatible_configs_rerecord_instead_of_chaining() {
        let trace = mixed_trace(2, 64);
        let prep = Arc::new(PreparedSim::new(&trace).unwrap());
        let mut sess = SweepSession::new(Arc::clone(&prep), SimOptions::default());
        let a = SystemConfig::with_cache_bytes(32768);
        let mut b = SystemConfig::with_cache_bytes(32768);
        b.cache.mshrs = 1; // timing-relevant: must not chain
        b.cache.hit_latency = 5;
        let _ = sess.simulate(&a);
        let rb = sess.simulate(&b);
        let fresh = cold_run(&trace, &b, &SimOptions::default());
        assert_eq!(rb.to_json().render(), fresh.to_json().render());
    }

    #[test]
    fn node_times_survive_incremental_reuse() {
        let trace = mixed_trace(2, 64);
        let prep = Arc::new(PreparedSim::new(&trace).unwrap());
        let opts = SimOptions {
            record_node_times: true,
        };
        let mut sess = SweepSession::new(Arc::clone(&prep), opts);
        for bytes in [1 << 20, 2 << 20, 1024] {
            let cfg = SystemConfig::with_cache_bytes(bytes);
            let inc = sess.simulate(&cfg);
            let fresh = cold_run(&trace, &cfg, &opts);
            assert_eq!(inc.node_finish, fresh.node_finish, "cache={bytes}");
        }
    }

    #[test]
    fn spad_stream_traces_run_on_the_session_core() {
        // The per-cycle-core backend: cache ladders over a trace with
        // scratchpad and stream nodes must chain (not fall back to cold
        // runs) and stay byte-identical to fresh simulations in any
        // order.
        let trace = spad_stream_trace(192);
        let prep = Arc::new(PreparedSim::new(&trace).unwrap());
        assert!(prep.arena().has_spad && prep.arena().has_stream);
        let ladders: [&[usize]; 2] = [&[131072, 32768, 2048, 1024], &[1024, 131072, 2048, 32768]];
        for ladder in ladders {
            let mut sess = SweepSession::new(Arc::clone(&prep), SimOptions::default());
            for &bytes in ladder {
                let cfg = SystemConfig::with_cache_bytes(bytes);
                let inc = sess.simulate(&cfg);
                let fresh = cold_run(&trace, &cfg, &SimOptions::default());
                assert_eq!(
                    inc.to_json().render(),
                    fresh.to_json().render(),
                    "core-backend sweep diverged at cache={bytes}"
                );
            }
        }
    }

    #[test]
    fn every_checkpoint_resumes_exactly_on_both_loops() {
        // Record one run of each trace — two on the event loop, one on
        // the per-cycle core — with a dense checkpoint schedule, then
        // resume from a clone of each checkpoint with the cache rebuilt
        // from the recorded prefix. Every resume must reproduce a fresh
        // run exactly — the session tests alone would also pass if a
        // resume silently fell back to a cold re-record.
        let opts = SimOptions {
            record_node_times: true,
        };
        let cfg = SystemConfig::with_cache_bytes(2048);
        let traces = [
            (mixed_trace(4, 128), true),
            (mixed_trace_with(4, 128, true), true),
            (spad_stream_trace(192), false),
        ];
        for (trace, event_loop) in traces {
            let prep = Arena::new(&trace).unwrap();
            assert_eq!(prep.spad_or_stream(), !event_loop);
            let fresh = cold_run(&trace, &cfg, &opts);
            let mut rec = Recording::new(4, CKPT_HARD_CAP, prep.n_mem, u64::MAX);
            let recorded = run_unprobed::<true>(
                &prep,
                &cfg,
                &opts,
                SchedState::new(&prep, &cfg),
                Cache::new(cfg.cache),
                &mut rec,
            );
            assert_eq!(recorded.to_json().render(), fresh.to_json().render());
            assert!(rec.ckpts.len() >= 2, "only {} checkpoints", rec.ckpts.len());
            for ckpt in &rec.ckpts {
                let at = ckpt.accesses;
                assert!(at > 0 && at < rec.addrs.len() as u64);
                let cache = replay_prefix(&cfg, &rec.addrs[..at as usize]);
                let mut off = Recording::disabled();
                let resumed =
                    run_unprobed::<false>(&prep, &cfg, &opts, ckpt.clone(), cache, &mut off);
                assert_eq!(
                    resumed.to_json().render(),
                    fresh.to_json().render(),
                    "resume from access {at} diverged (event loop: {event_loop})"
                );
                assert_eq!(resumed.node_finish, fresh.node_finish, "access {at}");
            }
        }
    }

    #[test]
    fn resumes_from_a_checkpoint_inside_a_wide_count() {
        // Unit tests keep 3 indegree bits per run-state word, so each
        // barrier of the phased trace (one dependence per node since
        // the last barrier) keeps its count in the side table. Resume
        // from every checkpoint taken while such a count was partly
        // done: the table must travel with the clone.
        let opts = SimOptions {
            record_node_times: true,
        };
        let cfg = SystemConfig::with_cache_bytes(2048);
        let trace = mixed_trace_with(4, 128, true);
        let prep = Arena::new(&trace).unwrap();
        let fresh = cold_run(&trace, &cfg, &opts);
        let mut rec = Recording::new(4, CKPT_HARD_CAP, prep.n_mem, u64::MAX);
        run_unprobed::<true>(
            &prep,
            &cfg,
            &opts,
            SchedState::new(&prep, &cfg),
            Cache::new(cfg.cache),
            &mut rec,
        );
        let mut resumed = 0;
        for ckpt in &rec.ckpts {
            let partly = |&(node, left): &(u32, u32)| left < prep.indeg(node as usize);
            if !ckpt.wide.iter().any(partly) {
                continue;
            }
            let cache = replay_prefix(&cfg, &rec.addrs[..ckpt.accesses as usize]);
            let mut off = Recording::disabled();
            let r = run_unprobed::<false>(&prep, &cfg, &opts, ckpt.clone(), cache, &mut off);
            assert_eq!(r.to_json().render(), fresh.to_json().render());
            assert_eq!(r.node_finish, fresh.node_finish);
            resumed += 1;
        }
        assert!(resumed > 0, "no checkpoint caught a wide count midway");
    }

    #[test]
    fn bank_count_changes_chain_when_the_map_agrees() {
        // All scratchpad addresses in this trace are < 16, so 16 and 32
        // banks assign identical banks (addr % 16 == addr % 32 for
        // addr < 16): the bank-map check must chain them. 8 banks remap
        // (addr 8 lands on bank 0) and must re-record. Either way the
        // reports match fresh runs.
        let trace = spad_stream_trace(16);
        let prep = Arc::new(PreparedSim::new(&trace).unwrap());
        let arena = prep.arena();
        let spad_addrs: Vec<u64> = arena
            .cols
            .class()
            .iter()
            .zip(arena.cols.addr())
            .filter(|(c, _)| matches!(c, OpClass::SpadLoad | OpClass::SpadStore))
            .map(|(_, &a)| a)
            .collect();
        assert!(!spad_addrs.is_empty());
        assert!(spad_addrs.iter().all(|&a| a < 16));
        assert!(spad_map_equal(&arena, 16, 32));
        assert!(!spad_map_equal(&arena, 16, 8));
        drop(arena);

        let mut sess = SweepSession::new(Arc::clone(&prep), SimOptions::default());
        for banks in [16usize, 32, 8] {
            let mut cfg = SystemConfig::default();
            cfg.spad.banks = banks;
            let inc = sess.simulate(&cfg);
            let fresh = cold_run(&trace, &cfg, &SimOptions::default());
            assert_eq!(
                inc.to_json().render(),
                fresh.to_json().render(),
                "bank sweep diverged at banks={banks}"
            );
        }
    }

    #[test]
    fn stream_model_changes_gate_chaining_correctly() {
        // DRAM bandwidth/latency feed both stream transfers and cache
        // fills: changing them must re-record, and the results must
        // still match fresh runs.
        let trace = spad_stream_trace(64);
        let prep = Arc::new(PreparedSim::new(&trace).unwrap());
        let mut sess = SweepSession::new(Arc::clone(&prep), SimOptions::default());
        let a = SystemConfig::default();
        let mut b = SystemConfig::default();
        b.dram.bytes_per_cycle = 4.8;
        b.dram.latency = 200;
        for cfg in [&a, &b, &a] {
            let inc = sess.simulate(cfg);
            let fresh = cold_run(&trace, cfg, &SimOptions::default());
            assert_eq!(inc.to_json().render(), fresh.to_json().render());
        }
    }

    #[test]
    fn energy_table_changes_never_force_a_rerecord() {
        // Energy is recomputed at finalize; two configs differing only
        // in the energy table must chain with a full-match replay.
        let trace = mixed_trace(2, 64);
        let prep = Arc::new(PreparedSim::new(&trace).unwrap());
        let mut sess = SweepSession::new(Arc::clone(&prep), SimOptions::default());
        let a = SystemConfig::default();
        let mut b = SystemConfig::default();
        b.energy.dram_pj_per_byte *= 2.0;
        let _ = sess.simulate(&a);
        let rb = sess.simulate(&b);
        let fresh = cold_run(&trace, &b, &SimOptions::default());
        assert_eq!(rb.to_json().render(), fresh.to_json().render());
    }

    #[test]
    fn ckpt_plan_bounds_memory_for_any_trace_size() {
        // The adaptive plan's contract: snapshot memory stays under the
        // budget regardless of trace length, and the doubling schedule
        // spans the access stream.
        for nodes in [0usize, 1, 100, 1 << 16, 1 << 24, 1 << 30] {
            for n_mem in [0usize, 1, 64, 4096, 1 << 20, 1 << 28] {
                let (interval, max_ckpts) = ckpt_plan(nodes, n_mem);
                assert!(
                    max_ckpts * CKPT_NODE_BYTES * nodes.max(1) <= CKPT_BUDGET,
                    "budget blown: nodes={nodes} n_mem={n_mem} -> {max_ckpts} ckpts"
                );
                assert!(max_ckpts <= CKPT_HARD_CAP);
                assert!(interval >= FIRST_CKPT);
                if max_ckpts > 0 {
                    assert!(
                        (interval << max_ckpts) >= n_mem as u64,
                        "schedule falls short: nodes={nodes} n_mem={n_mem}"
                    );
                }
            }
        }
        // Zero memory accesses: no checkpoints at all.
        assert_eq!(ckpt_plan(1000, 0).1, 0);
    }

    #[test]
    fn zero_memory_access_trace_builds_a_trivial_session() {
        // A pure-FP trace records an empty access stream; every later
        // config must full-match (trivially) and reuse the report.
        let mut b = FunctionBuilder::new("fponly");
        let one = b.f64(1.0);
        let mut v = b.f64(0.0);
        for _ in 0..32 {
            v = b.fadd(v, one);
        }
        let f = b.finish();
        let mut mem = Memory::for_function(&f);
        let trace = trace_function(&f, &mut mem, TraceOptions::default()).unwrap();
        let prep = Arc::new(PreparedSim::new(&trace).unwrap());
        let mut sess = SweepSession::new(Arc::clone(&prep), SimOptions::default());
        for bytes in [1024usize, 32768, 131072] {
            let cfg = SystemConfig::with_cache_bytes(bytes);
            let inc = sess.simulate(&cfg);
            let fresh = cold_run(&trace, &cfg, &SimOptions::default());
            assert_eq!(inc.to_json().render(), fresh.to_json().render());
        }
    }

    #[test]
    fn run_group_returns_reports_in_caller_order() {
        let trace = mixed_trace(3, 96);
        let prep = Arc::new(PreparedSim::new(&trace).unwrap());
        // A deliberately shuffled mixed set: cache ladder + an MSHR
        // variant that cannot chain.
        let mut mshr1 = SystemConfig::with_cache_bytes(8192);
        mshr1.cache.mshrs = 1;
        let cfgs = vec![
            SystemConfig::with_cache_bytes(1024),
            mshr1,
            SystemConfig::with_cache_bytes(131072),
            SystemConfig::with_cache_bytes(8192),
        ];
        let got = run_group(Arc::clone(&prep), SimOptions::default(), &cfgs);
        assert_eq!(got.len(), cfgs.len());
        for (i, cfg) in cfgs.iter().enumerate() {
            let fresh = cold_run(&trace, cfg, &SimOptions::default());
            assert_eq!(
                got[i].to_json().render(),
                fresh.to_json().render(),
                "run_group slot {i} diverged"
            );
        }
        // The plan is deterministic and visits every index once.
        let order = plan_order(&cfgs);
        let mut seen = order.clone();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3]);
        assert_eq!(order, plan_order(&cfgs));
    }
}
