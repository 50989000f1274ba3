//! The reference oracle: the scalar per-cycle scheduler the
//! event-driven core in `tapeflow_sim::engine` replaced, kept verbatim.
//!
//! It crawls every cycle, rebuilds its dependence bookkeeping from the
//! trace on every run and serves every queue through explicit
//! per-cycle issue, so it shares none of the event core's gap-skipping,
//! analytic issue servers or pure event loop. The equivalence suite
//! asserts that both produce byte-identical reports, stall attributions,
//! Chrome traces and per-instruction ledgers. It uses only the public
//! `tapeflow_sim` API, plus a private copy of the DRAM server below, so
//! `tapeflow-sim`'s unit tests compile this same file as their
//! `legacy` module.

use std::collections::{BinaryHeap, VecDeque};
use tapeflow_ir::trace::{Phase, FLAG_STREAM_IN};
use tapeflow_ir::{NodeId, OpClass, Trace};
use tapeflow_sim::probe::CacheAccessEvent;
use tapeflow_sim::{
    Cache, EnergyReport, EnergyTable, PreparedSim, ProbeGeometry, SimError, SimOptions, SimProbe,
    SimReport, SystemConfig,
};

/// The shared DRAM bandwidth/latency server, as the event core models
/// it: cache fills, write-backs and stream transfers queue on one
/// bandwidth reservation.
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

/// How many queued accesses a banked resource may inspect per cycle.
const SPAD_SCAN_WINDOW: usize = 64;

/// Simulates `trace` on `cfg` with the scalar per-cycle loop. The loop
/// body is the pre-event-core scheduler, unchanged but for two things:
/// the up-front index-width guard (which the old code lacked — node ids
/// silently truncated to `u32`), and node metadata read from the
/// trace's columns instead of per-node structs. The stream direction
/// is the trace's `FLAG_STREAM_IN` bit, which also routes compressed
/// `StreamInC` commands inward, as the event core does.
pub fn simulate_probed<P: SimProbe>(
    trace: &Trace,
    cfg: &SystemConfig,
    opts: &SimOptions,
    probe: &mut P,
) -> Result<SimReport, SimError> {
    PreparedSim::check_limits(trace.len(), trace.edge_count())?;
    let n = trace.len();
    let mut report = SimReport::default();
    if n == 0 {
        return Ok(report);
    }

    // Successor lists in CSR form + indegrees.
    let mut indeg = vec![0u32; n];
    let mut succ_cnt = vec![0u32; n];
    for i in 0..n {
        for d in trace.deps(NodeId::new(i)) {
            succ_cnt[d.index()] += 1;
        }
    }
    let mut succ_off = vec![0u32; n + 1];
    for i in 0..n {
        succ_off[i + 1] = succ_off[i] + succ_cnt[i];
    }
    let mut succ_dat = vec![0u32; succ_off[n] as usize];
    let mut fill = succ_off.clone();
    for (i, deg) in indeg.iter_mut().enumerate() {
        let deps = trace.deps(NodeId::new(i));
        *deg = deps.len() as u32;
        for d in deps {
            let di = d.index();
            succ_dat[fill[di] as usize] = i as u32;
            fill[di] += 1;
        }
    }

    let mut ready_time = vec![0u64; n];
    let mut finish = vec![0u64; n];
    // Future-ready events.
    let mut events: BinaryHeap<std::cmp::Reverse<(u64, u32)>> = BinaryHeap::new();
    for (i, d) in indeg.iter().enumerate() {
        if *d == 0 {
            events.push(std::cmp::Reverse((0, i as u32)));
        }
    }

    // Per-class in-order wait queues.
    let mut q_fp: VecDeque<u32> = VecDeque::new();
    let mut q_int: VecDeque<u32> = VecDeque::new();
    let mut q_mem: VecDeque<u32> = VecDeque::new();
    let mut q_spad: VecDeque<u32> = VecDeque::new();
    let mut q_stream: [VecDeque<u32>; 2] = [VecDeque::new(), VecDeque::new()];

    let mut cache = Cache::new(cfg.cache);
    // Byte accounting must use the geometry the cache actually built
    // (`Cache::new` normalizes degenerate line sizes).
    let line_bytes = cache.config().line_bytes as u64;
    // MSHR free times: a demand miss needs a slot, else the memory queue
    // stalls at its head.
    let mut mshr: Vec<u64> = vec![0; cfg.cache.mshrs.max(1)];
    let mut dram = Dram::new(cfg);
    let mut stream_free = [0u64; 2];

    let cols = trace.columns();
    let phase_barrier_idx = (0..n).find(|&i| cols.phase(i) == Phase::Rev);
    probe.on_start(&ProbeGeometry::of(cfg, phase_barrier_idx.is_some()));

    let mut now: u64 = 0;
    let mut completed: usize = 0;
    let mut max_finish: u64 = 0;

    // Completion bookkeeping shared by all issue paths.
    macro_rules! complete {
        ($id:expr, $fin:expr) => {{
            let id = $id as usize;
            let fin: u64 = $fin;
            finish[id] = fin;
            max_finish = max_finish.max(fin);
            completed += 1;
            if phase_barrier_idx == Some(id) {
                probe.on_phase_barrier(fin);
            }
            for s in &succ_dat[succ_off[id] as usize..succ_off[id + 1] as usize] {
                let si = *s as usize;
                ready_time[si] = ready_time[si].max(fin);
                indeg[si] -= 1;
                if indeg[si] == 0 {
                    if phase_barrier_idx == Some(si) {
                        probe.on_barrier_ready(now, ready_time[si], *s);
                    }
                    events.push(std::cmp::Reverse((ready_time[si], *s)));
                }
            }
        }};
    }

    while completed < n {
        probe.on_cycle_start(now);
        // Drain events that became ready.
        while let Some(&std::cmp::Reverse((t, id))) = events.peek() {
            if t > now {
                break;
            }
            events.pop();
            match cols.class()[id as usize] {
                OpClass::Sync => {
                    // Barriers and SAlloc cost nothing by themselves.
                    complete!(id, now);
                }
                OpClass::FpAlu | OpClass::FpMul | OpClass::FpLong => q_fp.push_back(id),
                OpClass::Int => q_int.push_back(id),
                OpClass::MemLoad | OpClass::MemStore => q_mem.push_back(id),
                OpClass::SpadLoad | OpClass::SpadStore => q_spad.push_back(id),
                OpClass::Stream => {
                    let dir = usize::from(cols.flags()[id as usize] & FLAG_STREAM_IN != 0);
                    q_stream[dir].push_back(id);
                }
            }
        }

        // Issue FP ops.
        let mut fp_left = cfg.pe.fp_issue;
        while fp_left > 0 {
            let Some(id) = q_fp.pop_front() else { break };
            fp_left -= 1;
            report.fp_ops += 1;
            let class = cols.class()[id as usize];
            let lat = match class {
                OpClass::FpAlu => cfg.pe.fp_alu_latency,
                OpClass::FpMul => cfg.pe.fp_mul_latency,
                _ => cfg.pe.fp_long_latency,
            };
            probe.on_fp_issue(now, now + lat, class, id);
            complete!(id, now + lat);
        }

        // Issue integer ops.
        let mut int_left = cfg.pe.int_issue;
        while int_left > 0 {
            let Some(id) = q_int.pop_front() else { break };
            int_left -= 1;
            report.int_ops += 1;
            probe.on_int_issue(now, now + cfg.pe.int_latency, id);
            complete!(id, now + cfg.pe.int_latency);
        }

        // Issue cache accesses through the limited ports. A miss needs a
        // free MSHR; when none is free the queue stalls at its head
        // (in-order memory queue, the "reactive fill" bottleneck).
        let mut ports_left = cfg.cache.ports;
        while ports_left > 0 {
            let Some(&id) = q_mem.front() else { break };
            let i = id as usize;
            let (is_tape, is_rev) = (cols.is_tape(i), cols.phase(i) == Phase::Rev);
            let is_write = cols.class()[i] == OpClass::MemStore;
            // Peek whether this would miss without an MSHR available.
            let mshr_slot = mshr
                .iter()
                .enumerate()
                .min_by_key(|(_, &t)| t)
                .map(|(i, _)| i)
                .expect("mshr vec non-empty");
            let res = cache.access(cols.addr()[i], is_write);
            if !res.hit && mshr[mshr_slot] > now {
                // Undo nothing: the line was allocated, but the request
                // still pays the stall — model the stall by waiting.
                // (Allocation-on-stall slightly favours the baseline.)
                report.cache.misses += 1;
                report.cache.tape_misses += u64::from(is_tape);
                report.cache.rev_misses += u64::from(is_rev);
                report.dram_fill_bytes += line_bytes;
                if res.writeback.is_some() {
                    report.cache.writebacks += 1;
                    report.dram_writeback_bytes += line_bytes;
                    let _ = dram.transfer(now, line_bytes);
                }
                let start = mshr[mshr_slot];
                let (_, fin) = dram.transfer(start, line_bytes);
                mshr[mshr_slot] = fin;
                q_mem.pop_front();
                probe.on_mshr_stall(now, is_tape, id);
                probe.on_cache_access(&CacheAccessEvent {
                    node: id,
                    now,
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
            q_mem.pop_front();
            ports_left -= 1;
            let port = cfg.cache.ports - ports_left - 1;
            if res.hit {
                report.cache.hits += 1;
                report.cache.tape_hits += u64::from(is_tape);
                report.cache.rev_hits += u64::from(is_rev);
                probe.on_cache_access(&CacheAccessEvent {
                    node: id,
                    now,
                    fin: now + cfg.cache.hit_latency,
                    port,
                    hit: true,
                    is_tape,
                    is_rev,
                    is_write,
                });
                complete!(id, now + cfg.cache.hit_latency);
            } else {
                report.cache.misses += 1;
                report.cache.tape_misses += u64::from(is_tape);
                report.cache.rev_misses += u64::from(is_rev);
                report.dram_fill_bytes += line_bytes;
                if res.writeback.is_some() {
                    report.cache.writebacks += 1;
                    report.dram_writeback_bytes += line_bytes;
                    let _ = dram.transfer(now, line_bytes);
                }
                let (_, fin) = dram.transfer(now, line_bytes);
                mshr[mshr_slot] = fin;
                probe.on_cache_access(&CacheAccessEvent {
                    node: id,
                    now,
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
        let mut banks_used: u64 = 0;
        let mut stash: Vec<u32> = Vec::new();
        let mut scanned = 0;
        while scanned < SPAD_SCAN_WINDOW {
            let Some(id) = q_spad.pop_front() else { break };
            scanned += 1;
            let bank = (cols.addr()[id as usize] as usize) % cfg.spad.banks.max(1);
            if banks_used & (1u64 << bank) == 0 {
                banks_used |= 1u64 << bank;
                report.spad_accesses += 1;
                probe.on_spad_access(now, now + cfg.spad.latency, bank, id);
                complete!(id, now + cfg.spad.latency);
            } else {
                probe.on_spad_conflict(now, bank, id);
                stash.push(id);
            }
        }
        for id in stash.into_iter().rev() {
            q_spad.push_front(id);
        }

        // Issue streams: one in flight per engine.
        for dir in 0..2 {
            if stream_free[dir] <= now {
                if let Some(id) = q_stream[dir].pop_front() {
                    let bytes = u64::from(cols.bytes(id as usize));
                    report.stream_cmds += 1;
                    report.dram_stream_bytes += bytes;
                    let (bw_done, fin) = dram.transfer(now, bytes);
                    stream_free[dir] = bw_done;
                    probe.on_stream(now, bw_done, fin, dir, bytes, id);
                    complete!(id, fin);
                }
            }
        }

        let queues_busy = !q_fp.is_empty()
            || !q_int.is_empty()
            || !q_mem.is_empty()
            || !q_spad.is_empty()
            || !q_stream[0].is_empty()
            || !q_stream[1].is_empty();
        probe.on_cycle_end(now, queues_busy);
        if completed >= n {
            break;
        }
        // Advance time: to the next event if idle, else one cycle.
        if queues_busy {
            now += 1;
        } else if let Some(&std::cmp::Reverse((t, _))) = events.peek() {
            now = now.max(t);
        } else {
            // Nothing queued and no events: all in-flight work completes
            // by itself (should not happen — everything is issued
            // synchronously), guard against livelock.
            now += 1;
        }
    }

    report.cycles = max_finish;
    report.fwd_cycles = phase_barrier_idx.map_or(max_finish, |i| finish[i]);
    probe.on_finish(max_finish);

    // Cool-down: lines still dirty when the run ends must reach DRAM
    // eventually. Charge those write-backs to traffic exactly once — this
    // happens before energy accounting so the DRAM energy sees them too —
    // otherwise small working sets hide store traffic by never evicting.
    let flushed = cache.flush_dirty();
    report.cache.writebacks += flushed;
    report.cache.flush_writebacks = flushed;
    report.dram_writeback_bytes += flushed * line_bytes;

    // Energy accounting.
    let cache_access_pj = EnergyTable::cache_pj(cfg.cache.size_bytes);
    report.energy = EnergyReport {
        cache_pj: report.cache.accesses() as f64 * cache_access_pj,
        spad_pj: report.spad_accesses as f64 * cfg.energy.spad_pj,
        stream_pj: (report.dram_stream_bytes as f64 / 8.0) * cfg.energy.stream_elem_pj,
        dram_pj: report.dram_bytes() as f64 * cfg.energy.dram_pj_per_byte,
    };
    if opts.record_node_times {
        report.node_finish = Some(finish);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tapeflow_ir::trace::{trace_function, TraceOptions};
    use tapeflow_ir::{FunctionBuilder, Memory};
    use tapeflow_sim::NoProbe;

    #[test]
    fn legacy_loop_still_runs() {
        let cfg = SystemConfig::default();
        let mut b = FunctionBuilder::new("t");
        let one = b.f64(1.0);
        let mut v = b.f64(0.0);
        for _ in 0..10 {
            v = b.fadd(v, one);
        }
        let f = b.finish();
        let mut mem = Memory::for_function(&f);
        let trace = trace_function(&f, &mut mem, TraceOptions::default()).unwrap();
        let r = simulate_probed(&trace, &cfg, &SimOptions::default(), &mut NoProbe).unwrap();
        assert_eq!(r.fp_ops, 10);
        assert_eq!(r.cycles, 10 * cfg.pe.fp_alu_latency);
    }
}
