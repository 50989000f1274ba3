//! `sweep`: the parameter-study user.
//!
//! Set-up compiles, traces and preps every program. The timed part then
//! runs, per program, the 33-point cache ladder
//! ([`tapeflow_bench::hostperf::LADDER`]) through one fresh
//! [`SweepSession`], and the canonical 10-config mixed sweep
//! ([`Lab::json_configs`]) through [`SweepPlanner::run_parallel`] with
//! at most one worker per logical CPU. The ladder changes only cache
//! parameters and mostly replays; the mixed sweep changes program,
//! scratchpad and stream and mostly runs cold, so a gain for replay
//! that costs cold runs shows here.

use crate::common::{add, geomean, Checks, Counts, Laps};
use crate::inputs::build_seeded;
use crate::spans::Tracer;
use crate::{Iter, Setup};
use std::sync::Arc;
use std::time::Instant;
use tapeflow_bench::experiments::Lab;
use tapeflow_bench::harness::{sys_for, Config, Prepared, SweepPlanner};
use tapeflow_bench::hostperf::LADDER;
use tapeflow_benchmarks::{Scale, NAMES};
use tapeflow_sim::{
    simulate_prepared, PreparedSim, SimOptions, SimReport, SweepSession, SystemConfig,
};

/// One program, prepared for sweeping.
struct Program {
    name: &'static str,
    /// The gradient trace's arena (the ladder's program).
    ladder_prep: Arc<PreparedSim>,
    units: Vec<(Config, SystemConfig)>,
    /// Each unit's arena (`None` when infeasible); units of one trace
    /// group share one arena.
    unit_preps: Vec<Option<Arc<PreparedSim>>>,
    planner: SweepPlanner,
    /// Reports of the first timed iteration, kept for the checks.
    first: Option<(Vec<SimReport>, Vec<Option<SimReport>>)>,
    /// Ladder and planner walls of every iteration, in seconds.
    walls: Vec<(f64, f64)>,
}

/// The sweep workload's state.
pub struct Sweep {
    programs: Vec<Program>,
    ladder: Vec<SystemConfig>,
    jobs: usize,
}

impl std::fmt::Debug for Sweep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sweep")
            .field("programs", &self.programs.len())
            .field("jobs", &self.jobs)
            .finish()
    }
}

/// Set-up: seeded inputs, gradient, every compiled form, trace and
/// arena for the nine programs.
pub fn setup(scale: Scale, seed: u64) -> Setup<Sweep> {
    let mut varied = Vec::new();
    let mut programs = Vec::new();
    for name in NAMES {
        let (bench, v) = build_seeded(name, scale, seed);
        varied.push((name.to_string(), v));
        let mut p = Prepared::new(bench);
        let ladder_prep = p
            .try_prepared_sim(&Config::enzyme(LADDER[0]))
            .expect("the gradient always traces");
        let units: Vec<(Config, SystemConfig)> = Lab::json_configs()
            .iter()
            .map(|c| (*c, sys_for(c)))
            .collect();
        let planner = SweepPlanner::new(&mut p, &units, false);
        let unit_preps = units.iter().map(|(c, _)| p.try_prepared_sim(c)).collect();
        // Dropping the harness releases the traces; the arenas stay.
        drop(p);
        programs.push(Program {
            name,
            ladder_prep,
            units,
            unit_preps,
            planner,
            first: None,
            walls: Vec::new(),
        });
    }
    Setup {
        state: Sweep {
            programs,
            ladder: LADDER
                .iter()
                .map(|&b| SystemConfig::with_cache_bytes(b))
                .collect(),
            jobs: tapeflow_bench::pool::available_jobs(),
        },
        varied,
    }
}

/// What a check compares: cycle and traffic totals plus energy bits.
fn fingerprint(r: &SimReport) -> (u64, u64, u64, u64, u64) {
    (
        r.cycles,
        r.dram_fill_bytes,
        r.dram_writeback_bytes,
        r.dram_stream_bytes,
        r.energy.on_chip_pj().to_bits(),
    )
}

/// One ladder plus one mixed sweep per program.
pub fn iteration(st: &mut Sweep, tr: &Tracer, checks: &mut Checks) -> Iter {
    let mut it = Iter::default();
    let opts = SimOptions::default();
    for prog in &mut st.programs {
        let mut laps = Laps::start();
        let (ladder, ladder_s, mixed, mixed_s) = tr.span("perfbench.program", || {
            let t = Instant::now();
            let ladder: Vec<SimReport> = tr.span("sim.sweep", || {
                let mut session = SweepSession::new(Arc::clone(&prog.ladder_prep), opts);
                let n = st.ladder.len();
                st.ladder
                    .iter()
                    .enumerate()
                    .map(|(k, sys)| {
                        let r = session.simulate_lookahead(sys, n - k - 1);
                        laps.lap();
                        r
                    })
                    .collect()
            });
            let ladder_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let mixed = tr.span("bench.planner", || prog.planner.run_parallel(st.jobs));
            (ladder, ladder_s, mixed, t.elapsed().as_secs_f64())
        });
        it.laps_ms.push(laps.finish());
        prog.walls.push((ladder_s, mixed_s));

        let c = &mut it.counts;
        let feasible = mixed.iter().flatten().count();
        add(c, "sweep.ladder_configs", ladder.len() as f64);
        add(c, "sweep.ladder_s", ladder_s);
        add(c, "sweep.mixed_configs", feasible as f64);
        add(c, "sweep.mixed_s", mixed_s);
        add(c, "sim.wall_s", ladder_s + mixed_s);
        let cycles: u64 = ladder
            .iter()
            .chain(mixed.iter().flatten())
            .map(|r| r.cycles)
            .sum();
        add(c, "sim.cycles", cycles as f64);
        add(c, "bench.planner.groups", prog.planner.group_count() as f64);

        match &prog.first {
            None => prog.first = Some((ladder, mixed)),
            Some((l0, m0)) => {
                let same = l0
                    .iter()
                    .map(fingerprint)
                    .eq(ladder.iter().map(fingerprint))
                    && m0
                        .iter()
                        .map(|r| r.as_ref().map(fingerprint))
                        .eq(mixed.iter().map(|r| r.as_ref().map(fingerprint)));
                checks.output(same, || {
                    format!("{}: sweep reports changed between iterations", prog.name)
                });
            }
        }
    }
    deterministic(st, &mut it.counts);
    it
}

/// `Enzyme_32k` against `Tflow_32k`, read from the mixed sweep (the same
/// quantities `cold` reports, from the same inputs).
fn deterministic(st: &Sweep, c: &mut Counts) {
    let find = |prog: &Program, cfg: Config| {
        let (_, mixed) = prog.first.as_ref().expect("first iteration recorded");
        let i = prog
            .units
            .iter()
            .position(|(u, _)| *u == cfg)
            .expect("canonical config");
        mixed[i].clone().expect("32 KiB configs are feasible")
    };
    let (mut speedups, mut dram, mut energy) = (Vec::new(), 0.0, 0.0);
    for prog in &st.programs {
        let e = find(prog, Config::enzyme(32 * 1024));
        let t = find(prog, Config::tapeflow(32 * 1024));
        speedups.push(e.cycles as f64 / t.cycles as f64);
        dram += t.dram_bytes() as f64 / 1e6;
        energy += t.energy.on_chip_pj() / 1e6;
    }
    c.insert("tflow_speedup_geomean", geomean(&speedups));
    c.insert("tflow_dram_mb", dram);
    c.insert("tflow_energy_uj", energy);
}

/// Outside the timed part: a sample of session and planner reports must
/// equal a cold `simulate_prepared` run on the same (trace, config) —
/// the first and last ladder points and one member of each mixed trace
/// group. The cold runs are timed too, to express the sweeps in
/// cold-run equivalents.
pub fn finish(st: &mut Sweep, checks: &mut Checks, run: &mut Counts) {
    let opts = SimOptions::default();
    let (mut ladder_equiv, mut planner_equiv) = (Vec::new(), Vec::new());
    for prog in &st.programs {
        let (ladder, mixed) = prog.first.as_ref().expect("at least one iteration ran");
        let same = |a: &SimReport, b: &SimReport| a.to_json().render() == b.to_json().render();

        let mut ladder_cold_s = 0.0;
        for k in [0, st.ladder.len() - 1] {
            let t = Instant::now();
            let cold = simulate_prepared(&prog.ladder_prep, &st.ladder[k], &opts);
            if k == 0 {
                ladder_cold_s = t.elapsed().as_secs_f64();
            }
            checks.output(same(&ladder[k], &cold), || {
                format!("{}: ladder point {k} differs from a cold run", prog.name)
            });
        }

        // One member per trace group; its cold time stands for the
        // group's members when estimating the mixed sweep's cold cost.
        let mut cold_total_s = 0.0;
        for (i, (cfg, sys)) in prog.units.iter().enumerate() {
            let Some(prep) = &prog.unit_preps[i] else {
                continue;
            };
            let same_group =
                |p: &Option<Arc<PreparedSim>>| p.as_ref().is_some_and(|p| Arc::ptr_eq(p, prep));
            if prog.unit_preps[..i].iter().any(same_group) {
                continue;
            }
            let members = prog.unit_preps.iter().filter(|p| same_group(p)).count();
            let t = Instant::now();
            let cold = simulate_prepared(prep, sys, &opts);
            cold_total_s += t.elapsed().as_secs_f64() * members as f64;
            let planned = mixed[i].as_ref().expect("feasible config has a report");
            checks.output(same(planned, &cold), || {
                format!(
                    "{}: planner report for {} differs from a cold run",
                    prog.name,
                    cfg.label()
                )
            });
        }
        let feasible = mixed.iter().flatten().count() as f64;
        let ladder_s = crate::common::median(&prog.walls.iter().map(|w| w.0).collect::<Vec<_>>());
        let mixed_s = crate::common::median(&prog.walls.iter().map(|w| w.1).collect::<Vec<_>>());
        ladder_equiv.push(ladder_s / ladder_cold_s);
        planner_equiv.push(mixed_s / (cold_total_s / feasible));
    }
    run.insert("sim.sweep.cold_equiv", geomean(&ladder_equiv));
    run.insert("bench.planner.cold_equiv", geomean(&planner_equiv));
}
