//! Cross-engine equivalence: the event-driven core is a performance
//! rework, not a model change, so the scalar per-cycle loop it replaced
//! is kept here as the reference oracle ([`oracle`]) and every
//! observable output must match it **byte for byte** — rendered report
//! JSON, stall attributions, Chrome trace timelines and per-instruction
//! cycle ledgers — across all nine paper benchmarks. A probe must also
//! never perturb the simulation it observes, and the incremental
//! re-simulation session must derive exactly the reports a cold run
//! produces.

#[path = "equivalence/oracle.rs"]
mod oracle;

use std::sync::Arc;
use tapeflow_bench::experiments::Lab;
use tapeflow_bench::harness::{sys_for, Config, Prepared, SweepPlanner};
use tapeflow_benchmarks::{by_name, Scale, NAMES};
use tapeflow_ir::trace::{trace_function, TraceOptions};
use tapeflow_ir::{ArrayKind, FunctionBuilder, Memory, Op, Scalar, Trace};
use tapeflow_sim::{
    simulate_prepared, simulate_prepared_probed, AttributionProbe, CycleBreakdown, InstBreakdown,
    NoProbe, PreparedSim, SimError, SimOptions, SimReport, StallKind, SweepSession, SystemConfig,
    TraceRecorder,
};

/// Program variants exercised per benchmark: the Enzyme baseline, the
/// Tapeflow build and its width-compressed form (whose `StreamInC` /
/// `StreamOutC` transfers are the only streams not sized at 8 bytes per
/// element) at the default cache, plus a thrash-sized cache so
/// miss/writeback/MSHR paths diverge from the hit path.
fn configs() -> [Config; 4] {
    [
        Config::enzyme(32 * 1024),
        Config::tapeflow(32 * 1024),
        Config::tapeflow_compressed(32 * 1024),
        Config::enzyme(4 * 1024),
    ]
}

/// Everything one probed run lets a user observe.
struct Observed {
    report: SimReport,
    stalls: CycleBreakdown,
    per_inst: InstBreakdown,
    timeline: String,
}

/// Runs `sim` under the per-instruction attribution probe and a Chrome
/// trace recorder, checking the attribution invariants on the way out.
fn observe(
    label: &str,
    trace: &Trace,
    sim: impl FnOnce(&mut (AttributionProbe, TraceRecorder)) -> Result<SimReport, SimError>,
) -> Observed {
    let map = trace.insts();
    let insts = map.iter().max().map_or(0, |i| i.index() + 1);
    // Same pid/name on both engines: the Chrome traces can only differ
    // if the simulated timelines differ.
    let mut probe = (
        AttributionProbe::with_inst_map(map, insts),
        TraceRecorder::new(1, label),
    );
    let report = sim(&mut probe).unwrap_or_else(|e| panic!("{label}: {e}"));
    let (attr, recorder) = probe;
    let (stalls, per_inst) = attr.into_parts();
    let per_inst = per_inst.expect("per-inst mode was requested");
    stalls
        .check()
        .unwrap_or_else(|e| panic!("{label}: attribution broke: {e}"));
    per_inst
        .check_against(&stalls)
        .unwrap_or_else(|e| panic!("{label}: per-inst ledger broke: {e}"));
    Observed {
        report,
        stalls,
        per_inst,
        timeline: TraceRecorder::chrome_trace([recorder]).render(),
    }
}

/// Asserts that the event core, on the arena in trace order and in
/// schedule order, and the oracle agree on every observable output of
/// `trace` on `sys`, node finish times included; returns what the event
/// core showed on the schedule-ordered arena.
fn assert_engines_agree(label: &str, trace: &Trace, sys: &SystemConfig) -> Observed {
    let opts = SimOptions::default();
    let timed = SimOptions {
        record_node_times: true,
    };
    let plain = PreparedSim::new(trace).expect("arena");
    let ordered = PreparedSim::new(trace).expect("arena");
    ordered.order_by_schedule();
    assert!(!plain.is_schedule_ordered() && ordered.is_schedule_ordered());
    let oracle = observe(label, trace, |p| {
        oracle::simulate_probed(trace, sys, &opts, p)
    });
    let times = oracle::simulate_probed(trace, sys, &timed, &mut NoProbe)
        .expect("oracle run")
        .node_finish;
    let mut seen = None;
    for (order, prep) in [("trace order", &plain), ("schedule order", &ordered)] {
        // Same process name on every run: the Chrome traces can only
        // differ if the simulated timelines differ.
        let event = observe(label, trace, |p| {
            Ok(simulate_prepared_probed(prep, sys, &opts, p))
        });
        let label = format!("{label} ({order})");
        assert_eq!(
            simulate_prepared(prep, sys, &timed).node_finish,
            times,
            "{label}: node finish times differ"
        );
        assert_eq!(
            event.report.to_json().render(),
            oracle.report.to_json().render(),
            "{label}: report JSON differs"
        );
        assert_eq!(
            event.stalls.to_json().render(),
            oracle.stalls.to_json().render(),
            "{label}: stall attribution differs"
        );
        assert!(
            event.per_inst == oracle.per_inst,
            "{label}: engines disagree on per-inst attribution"
        );
        assert_eq!(
            event.timeline, oracle.timeline,
            "{label}: chrome trace differs"
        );
        seen = Some(event);
    }
    seen.expect("two numberings ran")
}

/// Traces a hand-built function.
fn trace_of(build: impl FnOnce(&mut FunctionBuilder)) -> Trace {
    let mut b = FunctionBuilder::new("t");
    build(&mut b);
    let f = b.finish();
    let mut mem = Memory::for_function(&f);
    trace_function(&f, &mut mem, TraceOptions::default()).expect("hand-built trace")
}

#[test]
fn reports_attributions_and_traces_match_across_engines() {
    let mut compared = 0usize;
    for name in NAMES {
        let mut p = Prepared::new(by_name(name, Scale::Tiny));
        for config in configs() {
            let Some(trace) = p.try_trace_shared(&config) else {
                continue;
            };
            let label = format!("{name}/{}", config.label());
            assert_engines_agree(&label, &trace, &sys_for(&config));
            compared += 1;
        }
    }
    // Every benchmark must contribute at least its Enzyme variants.
    assert!(
        compared >= 2 * NAMES.len(),
        "only {compared} comparisons ran"
    );

    let cfg = SystemConfig::default();
    // A dependent chain of ten FP adds: the smallest trace the scalar
    // loop runs, with a closed-form cycle count.
    let chain = trace_of(|b| {
        let one = b.f64(1.0);
        let mut v = b.f64(0.0);
        for _ in 0..10 {
            v = b.fadd(v, one);
        }
    });
    let r = assert_engines_agree("fadd chain", &chain, &cfg).report;
    assert_eq!(r.fp_ops, 10);
    assert_eq!(r.cycles, 10 * cfg.pe.fp_alu_latency);
    // Back-to-back streams: big transfers leave long engine-busy gaps
    // that the event core skips and the oracle crawls cycle by cycle.
    let streams = trace_of(|b| {
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
    let r = assert_engines_agree("back-to-back streams", &streams, &cfg).report;
    assert_eq!(r.stream_cmds, 8, "all streams executed: {r:?}");
    // Dense bank conflicts: 80 independent scratchpad stores that all map
    // to bank 0, ready at cycle 0, so the queue holds more accesses than
    // the scan window (64). One access on another bank sits inside the
    // first window and three sit past it, where the window only reaches
    // them as bank 0's backlog drains.
    let banks = cfg.spad.banks as i64;
    let conflicts = trace_of(|b| {
        let size = u32::try_from(80 * banks).unwrap();
        b.push_inst(Op::SAlloc { size, base: 0 }, vec![]);
        let v = b.f64(1.0);
        let store = |b: &mut FunctionBuilder, entry: i64| {
            let entry = b.i64(entry);
            b.push_inst(Op::SpadStore, vec![entry, v]);
        };
        for k in 0..80 {
            store(b, k * banks);
            if k == 10 {
                store(b, 1);
            }
        }
        for other in 2..5 {
            store(b, other);
        }
    });
    let seen = assert_engines_agree("dense bank conflicts", &conflicts, &cfg);
    assert_eq!(seen.report.spad_accesses, 84);
    assert!(
        seen.stalls.get(StallKind::SpadConflict) > 0,
        "bank 0's backlog must stall: {:?}",
        seen.stalls
    );
}

#[test]
fn same_cycle_ties_break_in_trace_order() {
    // Sixty adds wait on a chain of three multiplies (nominal level 12)
    // and come first in the trace; sixty more wait on one cache miss
    // (nominal level 2, the hit latency) and come after them. The DRAM
    // latency is set so the miss lands when the chain ends: all 120
    // become ready in one cycle on the FP queue, 32 wide, and the
    // schedule-ordered arena numbers the late adds first. Issue order
    // must still follow the trace.
    let build = |b: &mut FunctionBuilder| {
        let x = b.array("x", 1, ArrayKind::Input, Scalar::F64);
        let zero = b.i64(0);
        let missed = b.load(x, zero);
        let two = b.f64(2.0);
        let mut chain = two;
        for _ in 0..3 {
            chain = b.fmul(chain, two);
        }
        for _ in 0..60 {
            let _ = b.fadd(chain, two);
        }
        for _ in 0..60 {
            let _ = b.fadd(missed, two);
        }
    };
    let trace = trace_of(build);
    let timed = SimOptions {
        record_node_times: true,
    };
    let mut cfg = SystemConfig::default();
    let finish = |cfg: &SystemConfig| {
        let prep = PreparedSim::new(&trace).expect("arena");
        simulate_prepared(&prep, cfg, &timed).node_finish.unwrap()
    };
    // Nodes 0..4 are the load and the chain; the miss finishes one for
    // one with the DRAM latency.
    let times = finish(&cfg);
    cfg.dram.latency = cfg.dram.latency + times[3] - times[0];
    let times = finish(&cfg);
    assert_eq!(times[0], times[3], "the miss and the chain end together");
    let r = assert_engines_agree("same-cycle tie", &trace, &cfg).report;
    assert_eq!(r.fp_ops, 123);
    // The first 32 adds in the trace take the first issue cycle.
    let times = finish(&cfg);
    assert!(times[4..36].iter().all(|&t| t == times[4]));
    assert!(times[36..].iter().all(|&t| t > times[4]));
}

#[test]
fn probes_do_not_perturb_reports() {
    let opts = SimOptions::default();
    for name in NAMES {
        let mut p = Prepared::new(by_name(name, Scale::Tiny));
        let config = Config::enzyme(32 * 1024);
        let trace = p.try_trace_shared(&config).expect("gradient always traces");
        let sys = sys_for(&config);
        let probe = || (AttributionProbe::new(), TraceRecorder::new(1, name));
        let prep = PreparedSim::new(&trace).expect("arena");
        let event = (
            simulate_prepared(&prep, &sys, &opts),
            simulate_prepared_probed(&prep, &sys, &opts, &mut probe()),
        );
        let oracle = (
            oracle::simulate_probed(&trace, &sys, &opts, &mut NoProbe).expect("bare run"),
            oracle::simulate_probed(&trace, &sys, &opts, &mut probe()).expect("probed run"),
        );
        for (engine, (bare, probed)) in [("event", event), ("oracle", oracle)] {
            assert_eq!(
                bare.to_json().render(),
                probed.to_json().render(),
                "{name}: {engine} probe perturbed the report"
            );
        }
    }
}

#[test]
fn cross_parameter_sweeps_derive_cold_runs_on_spad_stream_traces() {
    // The generalized session must stay invisible when the sweep
    // perturbs scratchpad and stream parameters — not just cache
    // geometry — on traces that exercise the scratchpad and stream
    // engines (the Tapeflow build). Every derived report must match a
    // cold event run and the oracle byte for byte, and the
    // attribution/timeline artifacts must stay engine-equivalent on
    // every varied system.
    let opts = SimOptions::default();
    let mut exercised = 0usize;
    for name in NAMES {
        let mut p = Prepared::new(by_name(name, Scale::Tiny));
        let config = Config::tapeflow(32 * 1024);
        let Some(trace) = p.try_trace_shared(&config) else {
            continue;
        };
        let prep = p.try_prepared_sim(&config).expect("trace implies arena");
        let base = sys_for(&config);
        let mut systems = vec![base];
        {
            // Cache geometry: replay-validated, may diverge late.
            let mut s = base;
            s.cache.size_bytes = 4 * 1024;
            systems.push(s);
        }
        {
            // Bank count: chains when the bank map agrees, else re-records.
            let mut s = base;
            s.spad.banks = 32;
            systems.push(s);
        }
        {
            // Scratchpad timing: always gates chaining on a spad trace.
            let mut s = base;
            s.spad.banks = 8;
            s.spad.latency = 2;
            systems.push(s);
        }
        {
            // Stream model: gates chaining on a stream trace.
            let mut s = base;
            s.dram.bytes_per_cycle = 4.8;
            s.dram.latency = 200;
            systems.push(s);
        }
        {
            // Energy: recomputed at finalize, never forces a re-record.
            let mut s = base;
            s.energy.dram_pj_per_byte *= 2.0;
            systems.push(s);
        }
        // Return to base: replays whatever recording survived the walk.
        systems.push(base);
        let mut session = SweepSession::new(Arc::clone(&prep), opts);
        for (si, sys) in systems.iter().enumerate() {
            let label = format!("{name}/Tflow[{si}]");
            let derived = session.simulate(sys).to_json().render();
            let event = simulate_prepared(&prep, sys, &opts).to_json().render();
            assert_eq!(derived, event, "{label}: session vs cold event run");
            let agreed = assert_engines_agree(&label, &trace, sys);
            assert_eq!(
                derived,
                agreed.report.to_json().render(),
                "{label}: session vs oracle"
            );
            exercised += 1;
        }
    }
    assert!(exercised > 0, "no Tapeflow-feasible benchmark ran");
}

#[test]
fn planner_reports_match_cold_runs_at_any_job_count() {
    // The trace-grouped planner over the canonical mixed sweep: every
    // feasible unit's report must match a cold event run and the oracle
    // byte for byte, infeasible units must stay `None` exactly where
    // the cold path finds them infeasible, and re-running with any
    // worker count must reproduce the serial bytes.
    let opts = SimOptions::default();
    for name in NAMES {
        let mut p = Prepared::new(by_name(name, Scale::Tiny));
        let units: Vec<(Config, SystemConfig)> = Lab::json_configs()
            .iter()
            .map(|c| (*c, sys_for(c)))
            .collect();
        let planner = SweepPlanner::new(&mut p, &units, false);
        assert!(
            planner.group_count() > 1,
            "{name}: canonical sweep spans several trace groups"
        );
        let serial = planner.run();
        for ((config, sys), report) in units.iter().zip(&serial) {
            let label = format!("{name}/{}", config.label());
            let cold = p
                .try_prepared_sim(config)
                .map(|prep| simulate_prepared(&prep, sys, &opts));
            match (report, cold) {
                (Some(r), Some(c)) => {
                    let derived = r.to_json().render();
                    assert_eq!(
                        derived,
                        c.to_json().render(),
                        "{label}: planner vs cold event run"
                    );
                    let trace = p
                        .try_trace_shared(config)
                        .expect("feasible unit has a trace");
                    let oracle = oracle::simulate_probed(&trace, sys, &opts, &mut NoProbe)
                        .expect("oracle run");
                    assert_eq!(
                        derived,
                        oracle.to_json().render(),
                        "{label}: planner vs oracle"
                    );
                }
                (None, None) => {}
                (got, want) => panic!(
                    "{label}: feasibility disagrees (planner {}, cold {})",
                    got.is_some(),
                    want.is_some()
                ),
            }
        }
        let serial_bytes: Vec<Option<String>> = serial
            .iter()
            .map(|r| r.as_ref().map(|r| r.to_json().render()))
            .collect();
        for jobs in [2, 4, 7] {
            let par: Vec<Option<String>> = planner
                .run_parallel(jobs)
                .iter()
                .map(|r| r.as_ref().map(|r| r.to_json().render()))
                .collect();
            assert_eq!(
                serial_bytes, par,
                "{name}: planner results differ at jobs={jobs}"
            );
        }
    }
}

#[test]
fn sweep_session_derives_cold_run_reports() {
    // The incremental-resim path (what the harness memo routes sweeps
    // through) must be invisible: every report it derives from the
    // recorded outcome stream must match both a cold event run and the
    // oracle, in an order chosen to force replay hits, late divergences
    // and full re-records.
    let sizes: [usize; 6] = [64 * 1024, 32 * 1024, 16 * 1024, 4 * 1024, 1024, 8 * 1024];
    let opts = SimOptions::default();
    for name in NAMES {
        let mut p = Prepared::new(by_name(name, Scale::Tiny));
        let config = Config::enzyme(sizes[0]);
        let trace = p.try_trace_shared(&config).expect("gradient always traces");
        let prep = p.try_prepared_sim(&config).expect("gradient always preps");
        let mut session = SweepSession::new(Arc::clone(&prep), opts);
        for bytes in sizes {
            let sys = SystemConfig::with_cache_bytes(bytes);
            let derived = session.simulate(&sys).to_json().render();
            let event = simulate_prepared(&prep, &sys, &opts).to_json().render();
            let oracle = oracle::simulate_probed(&trace, &sys, &opts, &mut NoProbe)
                .expect("oracle run")
                .to_json()
                .render();
            assert_eq!(derived, event, "{name}@{bytes}: session vs cold event run");
            assert_eq!(derived, oracle, "{name}@{bytes}: session vs oracle");
        }
    }
}
