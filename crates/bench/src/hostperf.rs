//! Host-throughput measurement: simulated cycles per wall-clock second.
//!
//! Two sweeps are timed per benchmark, each twice — once through the
//! sweep-reuse machinery and once as cold runs of every point:
//!
//! * **Cache ladder** — the gradient (Enzyme-mode) trace swept over a
//!   descending ladder of cache sizes ([`LADDER`]). This is the
//!   incremental-re-simulation scenario: the session side drives the
//!   whole ladder through one [`SweepSession`], which records the first
//!   run's per-access cache outcomes and re-simulates each subsequent
//!   size by replaying the recorded address stream — a full match costs
//!   a cache replay instead of a scheduler run, and a divergence resumes
//!   from the last unchanged checkpoint.
//! * **Mixed sweep** — the canonical configuration sweep (the one
//!   `experiments --json` reports and CI regenerates), which changes the
//!   program between points (Enzyme vs. Tapeflow vs. AoS). The session
//!   side runs it through a [`SweepPlanner`]: units are grouped by trace
//!   key, each group gets one generalized sweep session (so the shared
//!   Tapeflow trace's scratchpad/stream points replay each other's
//!   outcome streams instead of re-running cold), and independent trace
//!   groups fan out across `jobs` workers with order-fixed collection.
//!
//! The cold side runs [`simulate_prepared`] once per point, serially, on
//! the same shared arenas, so `speedup` is exactly what session reuse
//! (and the mixed sweep's group fan-out) buys over plain event-engine
//! runs. Both sides produce identical reports (the equivalence suite is
//! the oracle); the cycle totals are asserted equal here as a cheap
//! tripwire. Wall-clock derived fields are nondeterministic by nature;
//! the JSON document ([`host_perf_json`]) zeroes them under `stable` —
//! along with the host-identity fields (CPU count, compiler) that vary
//! between machines — so the fold into `experiments --stable-json`
//! stays byte-reproducible.

use crate::experiments::Lab;
use crate::harness::{geomean, sys_for, Config, Prepared, SweepPlanner};
use std::sync::Arc;
use std::time::Instant;
use tapeflow_benchmarks::{by_name, Scale, NAMES};
use tapeflow_sim::json::Value;
use tapeflow_sim::{simulate_prepared, PreparedSim, SimOptions, SweepSession, SystemConfig};

const KIB: usize = 1024;

/// The cache-size ladder (bytes, descending): a miss-ratio-curve grid
/// at four points per octave ({1, 1.25, 1.5, 1.75} x 2^k) from 2 MiB
/// down to 16 KiB — the resolution a cache study needs to place the
/// working-set knee — then power-of-two steps through the tail where
/// every tiny-scale trace is far off-knee. Descending order maximizes
/// prefix reuse in the session: every access that hits in an N-byte
/// cache also hits in the larger predecessors that recorded the
/// outcome stream, so shrinking sweeps diverge late (or not at all
/// once the working set stops fitting either size).
pub const LADDER: [usize; 33] = [
    2048 * KIB,
    1792 * KIB,
    1536 * KIB,
    1280 * KIB,
    1024 * KIB,
    896 * KIB,
    768 * KIB,
    640 * KIB,
    512 * KIB,
    448 * KIB,
    384 * KIB,
    320 * KIB,
    256 * KIB,
    224 * KIB,
    192 * KIB,
    160 * KIB,
    128 * KIB,
    112 * KIB,
    96 * KIB,
    80 * KIB,
    64 * KIB,
    56 * KIB,
    48 * KIB,
    40 * KIB,
    32 * KIB,
    28 * KIB,
    24 * KIB,
    20 * KIB,
    16 * KIB,
    8 * KIB,
    4 * KIB,
    2 * KIB,
    KIB,
];

/// One side's timing over a sweep.
#[derive(Clone, Copy, Debug)]
pub struct RunTiming {
    /// Wall-clock seconds for the whole sweep (best of the repeats).
    pub seconds: f64,
    /// Simulated cycles per wall-clock second.
    pub sim_cycles_per_sec: f64,
}

impl RunTiming {
    fn from(seconds: f64, cycles: u64) -> Self {
        RunTiming {
            seconds,
            sim_cycles_per_sec: if seconds > 0.0 {
                cycles as f64 / seconds
            } else {
                0.0
            },
        }
    }
}

/// Session and cold timings over one sweep.
#[derive(Clone, Copy, Debug)]
pub struct SweepTiming {
    /// Configurations the sweep simulated.
    pub configs: usize,
    /// Independent trace groups the session side planned (each drives
    /// one sweep session; the ladder is a single group by construction).
    pub trace_groups: usize,
    /// Total simulated cycles across the sweep (identical for both
    /// sides — asserted during measurement).
    pub sim_cycles: u64,
    /// Sweep sessions (shared arena; session reuse; group fan-out).
    pub session: RunTiming,
    /// One cold [`simulate_prepared`] run per point on the same arena.
    pub cold: RunTiming,
    /// `cold.seconds / session.seconds`.
    pub speedup: f64,
}

impl SweepTiming {
    fn from(
        configs: usize,
        trace_groups: usize,
        sim_cycles: u64,
        session_secs: f64,
        cold_secs: f64,
    ) -> Self {
        SweepTiming {
            configs,
            trace_groups,
            sim_cycles,
            session: RunTiming::from(session_secs, sim_cycles),
            cold: RunTiming::from(cold_secs, sim_cycles),
            speedup: if session_secs > 0.0 {
                cold_secs / session_secs
            } else {
                0.0
            },
        }
    }
}

/// Host throughput of one benchmark, session against cold.
#[derive(Clone, Debug)]
pub struct HostPerf {
    /// Benchmark name.
    pub name: &'static str,
    /// The cache-size ladder on the gradient trace (incremental resim).
    pub ladder: SweepTiming,
    /// The canonical mixed configuration sweep (planner-driven).
    pub mixed: SweepTiming,
}

/// Identity of the machine and binary that produced a measurement — the
/// `host` section of `tapeflow.bench.host_perf/v3`. Throughput numbers
/// are only comparable when these match; the section makes silently
/// mixing hosts in a results file impossible. All fields are scrubbed
/// under `stable` (they differ between machines by definition).
#[derive(Clone, Debug)]
pub struct HostMeta {
    /// Logical CPUs visible to the process.
    pub logical_cpus: usize,
    /// `rustc --version` of the compiler that built this binary.
    pub rustc: String,
    /// Cargo `opt-level` the binary was built at.
    pub opt_level: String,
    /// Worker threads used for the mixed sweep's trace-group fan-out.
    pub jobs: usize,
}

/// Snapshots the host identity; `jobs` is the worker count the caller
/// ran the mixed sweep with (after clamping).
pub fn host_meta(jobs: usize) -> HostMeta {
    HostMeta {
        logical_cpus: crate::pool::available_jobs(),
        rustc: env!("TAPEFLOW_RUSTC_VERSION").to_string(),
        opt_level: env!("TAPEFLOW_OPT_LEVEL").to_string(),
        jobs,
    }
}

/// Times one cold [`simulate_prepared`] run per `(system, arena)` pair,
/// best of `repeats`; returns `(seconds, total cycles)`.
fn time_cold(
    units: &[(SystemConfig, Arc<PreparedSim>)],
    opts: &SimOptions,
    repeats: usize,
) -> (f64, u64) {
    let mut secs = f64::INFINITY;
    let mut sim_cycles = 0u64;
    for rep in 0..repeats {
        let start = Instant::now();
        let mut cycles = 0u64;
        for (sys, prep) in units {
            cycles += simulate_prepared(prep, sys, opts).cycles;
        }
        secs = secs.min(start.elapsed().as_secs_f64());
        if rep == 0 {
            sim_cycles = cycles;
        }
    }
    (secs, sim_cycles)
}

/// Times the cache ladder on the gradient trace: the session side
/// drives one [`SweepSession`] down the ladder (a fresh session per
/// repeat — the session *is* the thing being measured), the cold side
/// runs every point from scratch.
fn measure_ladder(p: &mut Prepared, repeats: usize) -> SweepTiming {
    let config = Config::enzyme(LADDER[0]);
    let prep = p.try_prepared_sim(&config).expect("gradient always preps");
    let systems: Vec<SystemConfig> = LADDER
        .iter()
        .map(|&b| SystemConfig::with_cache_bytes(b))
        .collect();
    let opts = SimOptions::default();

    let mut sim_cycles = 0u64;
    let mut session_secs = f64::INFINITY;
    for rep in 0..repeats {
        let start = Instant::now();
        let mut session = SweepSession::new(Arc::clone(&prep), opts);
        let mut cycles = 0u64;
        for (k, sys) in systems.iter().enumerate() {
            // The ladder is its own plan (descending sizes), so the
            // session gets the exact tail length as lookahead.
            cycles += session
                .simulate_lookahead(sys, systems.len() - k - 1)
                .cycles;
        }
        session_secs = session_secs.min(start.elapsed().as_secs_f64());
        if rep == 0 {
            sim_cycles = cycles;
        }
    }

    let cold_units: Vec<_> = systems
        .iter()
        .map(|&sys| (sys, Arc::clone(&prep)))
        .collect();
    let (cold_secs, cold_cycles) = time_cold(&cold_units, &opts, repeats);
    assert_eq!(
        cold_cycles, sim_cycles,
        "{}: session and cold runs disagree on ladder cycles",
        p.bench.name
    );
    SweepTiming::from(systems.len(), 1, sim_cycles, session_secs, cold_secs)
}

/// Times the canonical mixed sweep. The session side is the planner
/// path production code uses: grouping, tracing and arena preparation
/// happen once outside the timed region (both sides share them), and
/// each repeat times exactly `planner.run_parallel(jobs)` — fresh
/// sessions per repeat, since the sessions are the thing being
/// measured.
fn measure_mixed(p: &mut Prepared, repeats: usize, jobs: usize) -> SweepTiming {
    let units: Vec<(Config, SystemConfig)> = Lab::json_configs()
        .iter()
        .map(|c| (*c, sys_for(c)))
        .collect();
    let planner = SweepPlanner::new(p, &units, false);
    let opts = SimOptions::default();

    let mut sim_cycles = 0u64;
    let mut configs = 0usize;
    let mut session_secs = f64::INFINITY;
    for rep in 0..repeats {
        let start = Instant::now();
        let reports = planner.run_parallel(jobs);
        session_secs = session_secs.min(start.elapsed().as_secs_f64());
        if rep == 0 {
            configs = reports.iter().flatten().count();
            sim_cycles = reports.iter().flatten().map(|r| r.cycles).sum();
        }
    }

    let cold_units: Vec<_> = units
        .iter()
        .filter_map(|(c, sys)| Some((*sys, p.try_prepared_sim(c)?)))
        .collect();
    let (cold_secs, cold_cycles) = time_cold(&cold_units, &opts, repeats);
    assert_eq!(
        cold_cycles, sim_cycles,
        "{}: session and cold runs disagree on mixed-sweep cycles",
        p.bench.name
    );
    SweepTiming::from(
        configs,
        planner.group_count(),
        sim_cycles,
        session_secs,
        cold_secs,
    )
}

/// Times one benchmark. `repeats` runs each sweep that many times per
/// side and keeps the fastest wall time (minimum is the
/// standard noise filter for throughput numbers); `jobs` is the worker
/// count for the mixed sweep's trace-group fan-out (`1` = serial).
pub fn measure_one(bench: &'static str, scale: Scale, repeats: usize, jobs: usize) -> HostPerf {
    let mut p = Prepared::new(by_name(bench, scale));
    let repeats = repeats.max(1);
    HostPerf {
        name: bench,
        ladder: measure_ladder(&mut p, repeats),
        mixed: measure_mixed(&mut p, repeats, jobs.max(1)),
    }
}

/// Times a named subset of the registry at `scale`. Callers validate
/// the names (the CLI exits 2 with the registry listing on an unknown
/// one); this borrows the `'static` spellings from [`NAMES`].
pub fn measure_named(
    names: &[&'static str],
    scale: Scale,
    repeats: usize,
    jobs: usize,
) -> Vec<HostPerf> {
    names
        .iter()
        .map(|b| measure_one(b, scale, repeats, jobs))
        .collect()
}

/// Times the full registry at `scale`.
pub fn measure(scale: Scale, repeats: usize, jobs: usize) -> Vec<HostPerf> {
    measure_named(&NAMES, scale, repeats, jobs)
}

/// Geometric mean of the per-benchmark ladder-sweep speedups (the
/// headline number — the incremental-resim scenario).
pub fn geomean_speedup(results: &[HostPerf]) -> f64 {
    geomean(&results.iter().map(|r| r.ladder.speedup).collect::<Vec<_>>())
}

/// Geometric mean of the per-benchmark mixed-sweep speedups.
pub fn geomean_mixed_speedup(results: &[HostPerf]) -> f64 {
    geomean(&results.iter().map(|r| r.mixed.speedup).collect::<Vec<_>>())
}

/// The machine-readable document (`tapeflow.bench.host_perf/v3`).
/// `stable` zeroes every wall-clock-derived field (seconds, throughput,
/// speedups) and every host-identity field (CPU count, compiler,
/// opt-level, job count) so the bytes reproduce across hosts and runs;
/// the schema, benchmark list, config/group counts and simulated-cycle
/// totals remain.
///
/// v2 over v1: adds the `host` section and per-sweep `trace_groups`.
/// v3 over v2: the per-sweep `engines` object (`event`, `legacy`)
/// becomes `runs` (`session`, `cold`), and `speedup` is cold over
/// session.
pub fn host_perf_json(results: &[HostPerf], scale: Scale, meta: &HostMeta, stable: bool) -> Value {
    let scrub = |v: f64| if stable { 0.0 } else { v };
    let timing = |t: &RunTiming| {
        let mut e = Value::object();
        e.set("seconds", scrub(t.seconds))
            .set("sim_cycles_per_sec", scrub(t.sim_cycles_per_sec));
        e
    };
    let sweep = |s: &SweepTiming| {
        let mut runs = Value::object();
        runs.set("session", timing(&s.session))
            .set("cold", timing(&s.cold));
        let mut v = Value::object();
        v.set("configs", s.configs)
            .set("trace_groups", s.trace_groups)
            .set("sim_cycles", s.sim_cycles)
            .set("runs", runs)
            .set("speedup", scrub(s.speedup));
        v
    };
    let benches: Vec<Value> = results
        .iter()
        .map(|r| {
            let mut b = Value::object();
            b.set("name", r.name)
                .set("cache_ladder", sweep(&r.ladder))
                .set("mixed_sweep", sweep(&r.mixed));
            b
        })
        .collect();
    let ladder: Vec<Value> = LADDER.iter().map(|&b| Value::from(b)).collect();
    let mut host = Value::object();
    host.set("logical_cpus", if stable { 0 } else { meta.logical_cpus })
        .set("rustc", if stable { "" } else { meta.rustc.as_str() })
        .set(
            "opt_level",
            if stable { "" } else { meta.opt_level.as_str() },
        )
        .set("jobs", if stable { 0 } else { meta.jobs });
    let mut doc = Value::object();
    doc.set("schema", "tapeflow.bench.host_perf/v3")
        .set("scale", format!("{scale:?}"))
        .set("host", host)
        .set("ladder_bytes", Value::Arr(ladder))
        .set("benchmarks", Value::Arr(benches))
        .set("geomean_ladder_speedup", scrub(geomean_speedup(results)))
        .set(
            "geomean_mixed_speedup",
            scrub(geomean_mixed_speedup(results)),
        );
    doc
}

/// Human-readable table for the CLI.
pub fn render_table(results: &[HostPerf]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<12} {:>12} {:>14} {:>14} {:>9} {:>9}",
        "bench", "sim cycles", "session Mcyc/s", "cold Mcyc/s", "ladder", "mixed"
    );
    for r in results {
        let _ = writeln!(
            out,
            "{:<12} {:>12} {:>14.2} {:>14.2} {:>8.2}x {:>8.2}x",
            r.name,
            r.ladder.sim_cycles + r.mixed.sim_cycles,
            r.ladder.session.sim_cycles_per_sec / 1e6,
            r.ladder.cold.sim_cycles_per_sec / 1e6,
            r.ladder.speedup,
            r.mixed.speedup
        );
    }
    let _ = writeln!(
        out,
        "geomean sweep speedup: ladder {:.2}x, mixed {:.2}x",
        geomean_speedup(results),
        geomean_mixed_speedup(results)
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_benchmark_measures_and_serializes() {
        let r = measure_one("logsum", Scale::Tiny, 1, 2);
        assert!(r.ladder.configs == LADDER.len());
        assert_eq!(r.ladder.trace_groups, 1);
        assert!(r.mixed.configs > 0, "no feasible mixed configs timed");
        assert!(
            r.mixed.trace_groups > 1,
            "canonical sweep spans several programs"
        );
        assert!(r.ladder.sim_cycles > 0 && r.mixed.sim_cycles > 0);
        assert!(r.ladder.session.seconds > 0.0 && r.ladder.cold.seconds > 0.0);
        let doc = host_perf_json(std::slice::from_ref(&r), Scale::Tiny, &host_meta(2), false);
        let parsed = Value::parse(&doc.render()).expect("emitted JSON parses");
        assert_eq!(
            parsed.get("schema").and_then(Value::as_str),
            Some("tapeflow.bench.host_perf/v3")
        );
        let host = parsed.get("host").expect("host section");
        assert!(host.get("logical_cpus").and_then(Value::as_u64).unwrap() > 0);
        assert!(!host
            .get("rustc")
            .and_then(Value::as_str)
            .unwrap()
            .is_empty());
        assert_eq!(host.get("jobs").and_then(Value::as_u64), Some(2));
        assert_eq!(
            parsed
                .get("ladder_bytes")
                .and_then(Value::as_arr)
                .map(|a| a.len()),
            Some(LADDER.len())
        );
        let b = &parsed.get("benchmarks").and_then(Value::as_arr).unwrap()[0];
        assert_eq!(b.get("name").and_then(Value::as_str), Some("logsum"));
        for sweep in ["cache_ladder", "mixed_sweep"] {
            let s = b.get(sweep).expect(sweep);
            assert!(s.get("sim_cycles").and_then(Value::as_u64).unwrap() > 0);
            assert!(s.get("trace_groups").and_then(Value::as_u64).unwrap() > 0);
            assert!(s.get("runs").and_then(|e| e.get("session")).is_some());
        }
    }

    #[test]
    fn stable_json_zeroes_every_wall_and_host_field() {
        let r = measure_one("logsum", Scale::Tiny, 1, 1);
        let doc = host_perf_json(std::slice::from_ref(&r), Scale::Tiny, &host_meta(1), true);
        let parsed = Value::parse(&doc.render()).expect("parses");
        assert_eq!(parsed.get("geomean_ladder_speedup"), Some(&Value::Num(0.0)));
        assert_eq!(parsed.get("geomean_mixed_speedup"), Some(&Value::Num(0.0)));
        let host = parsed.get("host").expect("host section survives");
        assert_eq!(host.get("logical_cpus").and_then(Value::as_u64), Some(0));
        assert_eq!(host.get("rustc").and_then(Value::as_str), Some(""));
        assert_eq!(host.get("opt_level").and_then(Value::as_str), Some(""));
        assert_eq!(host.get("jobs").and_then(Value::as_u64), Some(0));
        let b = &parsed.get("benchmarks").and_then(Value::as_arr).unwrap()[0];
        for sweep in ["cache_ladder", "mixed_sweep"] {
            let s = b.get(sweep).expect(sweep);
            assert_eq!(s.get("speedup"), Some(&Value::Num(0.0)), "{sweep}");
            for run in ["session", "cold"] {
                let e = s.get("runs").and_then(|e| e.get(run)).unwrap();
                assert_eq!(e.get("seconds"), Some(&Value::Num(0.0)), "{sweep}/{run}");
                assert_eq!(
                    e.get("sim_cycles_per_sec"),
                    Some(&Value::Num(0.0)),
                    "{sweep}/{run}"
                );
            }
            // The deterministic parts survive the scrub.
            assert!(s.get("sim_cycles").and_then(Value::as_u64).unwrap() > 0);
            assert!(s.get("trace_groups").and_then(Value::as_u64).unwrap() > 0);
        }
    }
}
