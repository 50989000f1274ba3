//! Memoized per-benchmark runners.
//!
//! A [`Prepared`] computes the gradient once and memoizes compiled
//! programs, traces and simulation results per configuration. Programs
//! and traces live behind [`Arc`] so they can be shared read-only with
//! worker threads; simulation results are keyed on the *full*
//! [`SystemConfig`] (via [`SystemConfig::fingerprint`]), so sweeps that
//! vary anything beyond the cache size — replacement policy, MSHRs,
//! scratchpad banks — never alias each other's entries.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Duration;
use tapeflow_autodiff::Gradient;
use tapeflow_benchmarks::Benchmark;
use tapeflow_core::pipeline::PipelineBuilder;
use tapeflow_core::{CompileMode, CompileOptions, CompiledProgram, CoreError};
use tapeflow_ir::trace::{trace_function, TraceOptions};
use tapeflow_ir::{ArrayId, Memory, Trace};
use tapeflow_sim::{
    simulate_prepared_probed, AttributionProbe, CycleBreakdown, PreparedSim, SimOptions, SimReport,
    SweepSession, SystemConfig,
};

/// One simulated configuration, in the paper's naming scheme.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Config {
    /// `Enzyme_N`: gradient as produced by AD; tape through an N-byte
    /// cache.
    Enzyme {
        /// Cache size in bytes.
        cache_bytes: usize,
    },
    /// `Tflow_N`: full pipeline; tape through scratchpad + streams,
    /// non-tape through an N-byte cache.
    Tapeflow {
        /// Cache size in bytes.
        cache_bytes: usize,
        /// Scratchpad size in bytes (paper baseline 1 KB).
        spad_bytes: usize,
        /// Double-buffered layers.
        double_buffer: bool,
        /// Run Pass 5 (`tape-compress`) before the terminal lowering.
        compress: bool,
    },
    /// Pass 1 only: array-of-structs layout, still cache-resident
    /// (Figure 4.3).
    AosOnCache {
        /// Cache size in bytes.
        cache_bytes: usize,
    },
}

impl Config {
    /// `Enzyme_N` shorthand.
    pub fn enzyme(cache_bytes: usize) -> Self {
        Config::Enzyme { cache_bytes }
    }

    /// `Tflow_N` shorthand with the paper's 1 KB scratchpad.
    pub fn tapeflow(cache_bytes: usize) -> Self {
        Config::Tapeflow {
            cache_bytes,
            spad_bytes: 1024,
            double_buffer: true,
            compress: false,
        }
    }

    /// `TflowC_N` shorthand: [`Config::tapeflow`] plus Pass 5 tape
    /// compression.
    pub fn tapeflow_compressed(cache_bytes: usize) -> Self {
        Config::Tapeflow {
            cache_bytes,
            spad_bytes: 1024,
            double_buffer: true,
            compress: true,
        }
    }

    /// Display label (`Enzyme_32k`, `Tflow_2k`, ...).
    pub fn label(&self) -> String {
        fn size(b: usize) -> String {
            if b >= 1024 && b.is_multiple_of(1024) {
                format!("{}k", b / 1024)
            } else {
                format!("{b}B")
            }
        }
        match self {
            Config::Enzyme { cache_bytes } => format!("Enzyme_{}", size(*cache_bytes)),
            Config::Tapeflow {
                cache_bytes,
                compress: true,
                ..
            } => format!("TflowC_{}", size(*cache_bytes)),
            Config::Tapeflow { cache_bytes, .. } => format!("Tflow_{}", size(*cache_bytes)),
            Config::AosOnCache { cache_bytes } => format!("AoS_{}", size(*cache_bytes)),
        }
    }

    /// The cache size this configuration simulates with.
    pub fn cache_bytes(&self) -> usize {
        match self {
            Config::Enzyme { cache_bytes }
            | Config::Tapeflow { cache_bytes, .. }
            | Config::AosOnCache { cache_bytes } => *cache_bytes,
        }
    }
}

/// The default system for a configuration: everything from Table 4.2
/// except the cache size, which the configuration picks.
pub fn sys_for(config: &Config) -> SystemConfig {
    SystemConfig::with_cache_bytes(config.cache_bytes())
}

/// Identity of the *program* (and therefore the trace and simulation
/// arena) behind a [`Config`] — the cache size is deliberately absent:
/// every cache ladder over one program shares a single trace. This is
/// the sweep planner's grouping key: configurations with equal trace
/// keys can share one [`SweepSession`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ProgramKey {
    /// The raw gradient function (Enzyme baselines).
    Gradient,
    /// A pipeline-compiled program.
    Compiled {
        /// Scratchpad capacity compiled for.
        spad_bytes: usize,
        /// Double-buffered layers.
        double_buffer: bool,
        /// Pass 1 only (AoS layout, cache-resident).
        aos_only: bool,
        /// Pass 5 tape compression.
        compress: bool,
    },
}

/// Simulation memo key: which program, on which full system
/// configuration, with or without node times.
type SimKey = (ProgramKey, u64, bool);

/// A benchmark prepared for repeated simulation: the gradient is computed
/// once, compiled programs and traces are memoized per configuration.
pub struct Prepared {
    /// The benchmark.
    pub bench: Benchmark,
    /// Its gradient (Enzyme-realistic tape policy).
    pub grad: Gradient,
    traces: HashMap<ProgramKey, Arc<Trace>>,
    /// Config-independent simulation arenas (dependence CSR +
    /// struct-of-arrays node metadata), built once per program alongside
    /// its trace. A parameter sweep that only perturbs cache/scratchpad
    /// settings re-simulates from this shared prefix — the per-config
    /// work is just the scheduler loop, keyed by the
    /// [`SystemConfig::fingerprint`] memo below.
    preps: HashMap<ProgramKey, Arc<PreparedSim>>,
    compiled: HashMap<ProgramKey, Arc<CompiledProgram>>,
    /// Programs that failed to compile (scratchpad too small), with the
    /// pipeline's diagnosis; cached so repeated sweeps don't retry the
    /// compilation.
    infeasible: HashMap<ProgramKey, CoreError>,
    /// Accumulated per-pass wall time across every compilation this
    /// benchmark ran (pass name → (runs, total wall)).
    pass_wall: BTreeMap<&'static str, (u64, Duration)>,
    sims: HashMap<SimKey, SimReport>,
    /// Incremental re-simulation state, one session per program (and
    /// per `record_times` flavor, since that changes [`SimOptions`]).
    /// Memo *misses* in [`Prepared::try_sim_with`] run through here, so
    /// a sweep that only perturbs cache parameters replays the previous
    /// run's recorded outcome stream instead of re-simulating from
    /// scratch; reports are identical either way (the session's
    /// contract, enforced by its unit tests and the cross-engine
    /// equivalence suite).
    sessions: HashMap<(ProgramKey, bool), SweepSession>,
}

// Worker threads hold `&Prepared` during the read-only simulation
// fan-out; keep it thread-safe by construction.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Prepared>();
};

impl std::fmt::Debug for Prepared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Prepared")
            .field("bench", &self.bench.name)
            .finish()
    }
}

impl Prepared {
    /// Prepares a benchmark.
    pub fn new(bench: Benchmark) -> Self {
        let grad = bench.gradient();
        Prepared {
            bench,
            grad,
            traces: HashMap::new(),
            preps: HashMap::new(),
            compiled: HashMap::new(),
            infeasible: HashMap::new(),
            pass_wall: BTreeMap::new(),
            sims: HashMap::new(),
            sessions: HashMap::new(),
        }
    }

    fn key_of(config: &Config) -> ProgramKey {
        match config {
            Config::Enzyme { .. } => ProgramKey::Gradient,
            Config::Tapeflow {
                spad_bytes,
                double_buffer,
                compress,
                ..
            } => ProgramKey::Compiled {
                spad_bytes: *spad_bytes,
                double_buffer: *double_buffer,
                aos_only: false,
                compress: *compress,
            },
            Config::AosOnCache { .. } => ProgramKey::Compiled {
                spad_bytes: 0,
                double_buffer: false,
                aos_only: true,
                compress: false,
            },
        }
    }

    fn try_compiled_for(&mut self, key: ProgramKey) -> Result<&CompiledProgram, CoreError> {
        let ProgramKey::Compiled {
            spad_bytes,
            double_buffer,
            aos_only,
            compress,
        } = key
        else {
            // The old code panicked here ("gradient key has no compiled
            // program"); an Enzyme config simply runs `grad.func` as-is.
            return Err(CoreError::Pipeline(
                "Enzyme configurations run the gradient function directly; \
                 no compiled program exists"
                    .into(),
            ));
        };
        if let Some(e) = self.infeasible.get(&key) {
            return Err(e.clone());
        }
        if !self.compiled.contains_key(&key) {
            let opts = CompileOptions {
                spad_entries: (spad_bytes / 8).max(2),
                double_buffer,
                mode: if aos_only {
                    CompileMode::AosOnly
                } else {
                    CompileMode::Full
                },
                compress_tape: compress,
            };
            let run = PipelineBuilder::for_options(&opts).run_gradient(&self.grad);
            let compiled = run.and_then(|run| {
                for r in &run.report.records {
                    let slot = self.pass_wall.entry(r.name).or_insert((0, Duration::ZERO));
                    slot.0 += 1;
                    slot.1 += r.wall;
                }
                run.into_compiled()
            });
            match compiled {
                Ok(c) => {
                    self.compiled.insert(key, Arc::new(c));
                }
                Err(e) => {
                    self.infeasible.insert(key, e.clone());
                    return Err(e);
                }
            }
        }
        Ok(&self.compiled[&key])
    }

    fn compiled_for(&mut self, key: ProgramKey) -> &CompiledProgram {
        let name = self.bench.name;
        self.try_compiled_for(key)
            .unwrap_or_else(|e| panic!("{name}: {e}"))
    }

    /// The trace-identity key behind `config`, memoizing the program,
    /// trace and simulation arena on the way; `None` when the program
    /// cannot be compiled for that scratchpad. Configurations mapping
    /// to the same key simulate the same trace — the sweep planner's
    /// grouping relation.
    pub fn try_trace_key(&mut self, config: &Config) -> Option<ProgramKey> {
        let key = Self::key_of(config);
        if !self.traces.contains_key(&key) {
            let (func, barrier) = match key {
                ProgramKey::Gradient => (self.grad.func.clone(), self.grad.phase_barrier),
                k => {
                    let c = self.try_compiled_for(k).ok()?;
                    (c.func.clone(), c.phase_barrier)
                }
            };
            let mut mem = Memory::for_function(&func);
            for i in 0..self.bench.func.arrays().len() {
                mem.clone_array_from(&self.bench.mem, ArrayId::new(i));
            }
            mem.set_f64_at(
                self.grad
                    .shadow_of(self.bench.loss.array)
                    .expect("loss shadow"),
                self.bench.loss.index,
                1.0,
            );
            let t = trace_function(
                &func,
                &mut mem,
                TraceOptions {
                    phase_barrier: Some(barrier),
                },
            )
            .unwrap_or_else(|e| panic!("{}: {e}", self.bench.name));
            let prep = PreparedSim::new(&t).unwrap_or_else(|e| panic!("{}: {e}", self.bench.name));
            self.traces.insert(key, Arc::new(t));
            self.preps.insert(key, Arc::new(prep));
        }
        Some(key)
    }

    /// Trace of the program selected by `config` (memoized); `None` when
    /// the program cannot be compiled for that scratchpad.
    pub fn try_trace(&mut self, config: &Config) -> Option<&Trace> {
        let key = self.try_trace_key(config)?;
        Some(&self.traces[&key])
    }

    /// Like [`Prepared::try_trace`] but handing out a shared reference,
    /// so callers can keep the trace without a deep clone.
    pub fn try_trace_shared(&mut self, config: &Config) -> Option<Arc<Trace>> {
        let key = self.try_trace_key(config)?;
        Some(Arc::clone(&self.traces[&key]))
    }

    /// The config-independent simulation arena behind `config`
    /// (memoized alongside the trace); `None` when the program cannot be
    /// compiled for that scratchpad. The arena is shared (`Arc`), so a
    /// sweep holds one copy regardless of how many configurations it
    /// simulates.
    pub fn try_prepared_sim(&mut self, config: &Config) -> Option<Arc<PreparedSim>> {
        let key = self.try_trace_key(config)?;
        Some(Arc::clone(&self.preps[&key]))
    }

    /// Like [`Prepared::try_trace`] but panicking on infeasible configs.
    pub fn trace(&mut self, config: &Config) -> &Trace {
        let name = self.bench.name;
        self.try_trace(config)
            .unwrap_or_else(|| panic!("{name}: scratchpad too small for this program"))
    }

    /// The compiled program behind a Tapeflow/AoS config (memoized),
    /// or the [`CoreError`] explaining why there is none — either the
    /// cached infeasibility diagnosis, or a [`CoreError::Pipeline`] for
    /// Enzyme configs (which run the gradient function directly).
    pub fn try_compiled(&mut self, config: &Config) -> Result<&CompiledProgram, CoreError> {
        self.try_compiled_for(Self::key_of(config))
    }

    /// Static lint findings for the paper-baseline Tapeflow compilation
    /// (1 KB scratchpad, double buffered): the function-level rules over
    /// the rewritten program plus the plan-level rules against its layer
    /// plan, merged and canonically sorted. `None` when the baseline is
    /// infeasible for this benchmark. Purely static — no wall clock, no
    /// simulation — so the findings are byte-stable at any job count.
    pub fn lint_findings(&mut self) -> Option<Vec<tapeflow_ir::lint::Diagnostic>> {
        let key = ProgramKey::Compiled {
            spad_bytes: 1024,
            double_buffer: true,
            aos_only: false,
            compress: false,
        };
        self.try_compiled_for(key).ok()?;
        let compiled = Arc::clone(&self.compiled[&key]);
        let cfg = tapeflow_ir::lint::LintConfig {
            spad_entries: compiled.options.spad_entries,
            spad_banks: SystemConfig::default().spad.banks,
        };
        let mut diags = tapeflow_ir::lint::lint_function(&compiled.func, &cfg);
        diags.extend(tapeflow_core::lint::lint_plan(
            &self.grad,
            &compiled.plan,
            &compiled.options,
            compiled.encoding.as_ref(),
        ));
        tapeflow_ir::lint::sort_diagnostics(&mut diags);
        Some(diags)
    }

    /// The cached compilation failure for `config`, if an earlier attempt
    /// found it infeasible. `None` means "compiled fine" or "never
    /// attempted".
    pub fn compile_error(&self, config: &Config) -> Option<&CoreError> {
        self.infeasible.get(&Self::key_of(config))
    }

    /// Accumulated per-pass wall time across every compilation this
    /// benchmark ran: pass name → (number of runs, total wall time).
    /// Deterministically ordered by pass name. Wall times are
    /// nondeterministic — report them, never fold them into result
    /// bytes.
    pub fn pass_wall(&self) -> &BTreeMap<&'static str, (u64, Duration)> {
        &self.pass_wall
    }

    /// The compiled program behind a Tapeflow/AoS config (memoized).
    ///
    /// # Panics
    ///
    /// Panics when called with an `Enzyme` config or an infeasible
    /// scratchpad (use [`Prepared::try_compiled`] for a `Result`).
    pub fn compiled(&mut self, config: &Config) -> &CompiledProgram {
        self.compiled_for(Self::key_of(config))
    }

    /// Memoizes the program and trace behind `config` without simulating;
    /// returns whether the configuration is feasible. This is the
    /// preparation stage the parallel harness runs per benchmark before
    /// fanning simulations out over read-only `&Prepared` references.
    pub fn ensure_program(&mut self, config: &Config) -> bool {
        self.try_trace_key(config).is_some()
    }

    /// Whether a simulation result for exactly this (config, system,
    /// record) combination is already memoized.
    pub fn has_sim(&self, config: &Config, sys: &SystemConfig, record_times: bool) -> bool {
        self.sims
            .contains_key(&(Self::key_of(config), sys.fingerprint(), record_times))
    }

    /// Re-runs one simulation under the cycle-attribution probe and
    /// returns the per-cause breakdown. This skips the memo, requires [`Prepared::ensure_program`] first,
    /// and takes `&self` so a worker pool can fan out over shared
    /// references; `None` for infeasible configurations. The breakdown
    /// is a pure function of the trace and system configuration, so its
    /// bytes are reproducible at any job count.
    pub fn stall_breakdown(&self, config: &Config, sys: &SystemConfig) -> Option<CycleBreakdown> {
        let prep = self.preps.get(&Self::key_of(config))?;
        let mut probe = AttributionProbe::new();
        let report = simulate_prepared_probed(
            prep,
            sys,
            &SimOptions {
                record_node_times: false,
            },
            &mut probe,
        );
        let bd = probe.into_breakdown();
        debug_assert_eq!(
            bd.cycles, report.cycles,
            "{}: probe cycles",
            self.bench.name
        );
        bd.check()
            .unwrap_or_else(|e| panic!("{}: {e}", self.bench.name));
        Some(bd)
    }

    /// Re-runs one simulation with the attribution probe in per-inst
    /// mode and resolves the result into source-attributed hot-spot
    /// rows (descending PE-cycles, truncated to `top`). Requires
    /// [`Prepared::ensure_program`] first and takes `&self` like
    /// [`Prepared::stall_breakdown`], so a worker pool can fan out over
    /// shared references; `None` for infeasible configurations. Pure
    /// cycle counters joined against static IR — byte-stable at any job
    /// count.
    pub fn hot_spots(
        &self,
        config: &Config,
        sys: &SystemConfig,
        top: usize,
    ) -> Option<Vec<crate::attr::InstAttr>> {
        let key = Self::key_of(config);
        let prep = self.preps.get(&key)?;
        let trace = self.traces.get(&key)?;
        let func = match key {
            ProgramKey::Gradient => &self.grad.func,
            k => &self.compiled.get(&k)?.func,
        };
        let mut probe = AttributionProbe::with_inst_map(trace.insts(), func.insts().len());
        simulate_prepared_probed(
            prep,
            sys,
            &SimOptions {
                record_node_times: false,
            },
            &mut probe,
        );
        let (bd, inst_bd) = probe.into_parts();
        let inst_bd = inst_bd.expect("per-inst mode requested");
        inst_bd
            .check_against(&bd)
            .unwrap_or_else(|e| panic!("{}: {e}", self.bench.name));
        let mut rows = crate::attr::resolve(func, Some(&self.bench.func), &inst_bd);
        rows.truncate(top);
        Some(rows)
    }

    /// Stores a simulation result computed elsewhere (by a
    /// [`SweepPlanner`] on worker threads) into the memo.
    pub fn insert_sim(
        &mut self,
        config: &Config,
        sys: &SystemConfig,
        record_times: bool,
        report: SimReport,
    ) {
        self.sims.insert(
            (Self::key_of(config), sys.fingerprint(), record_times),
            report,
        );
    }

    /// Simulates under `config` on an explicit system configuration
    /// (memoized on the full configuration); `None` when the program
    /// cannot be compiled for that scratchpad.
    pub fn try_sim_with(
        &mut self,
        config: &Config,
        sys: &SystemConfig,
        record_times: bool,
    ) -> Option<&SimReport> {
        let key = (Self::key_of(config), sys.fingerprint(), record_times);
        if !self.sims.contains_key(&key) {
            self.try_trace_key(config)?;
            // Misses run through the program's sweep session: a sweep
            // that only perturbs cache parameters replays the recorded
            // outcome stream of the previous run (identical report,
            // fraction of the cost) instead of re-simulating cold.
            let prep = Arc::clone(&self.preps[&Self::key_of(config)]);
            let session = self
                .sessions
                .entry((Self::key_of(config), record_times))
                .or_insert_with(|| {
                    SweepSession::new(
                        prep,
                        SimOptions {
                            record_node_times: record_times,
                        },
                    )
                });
            let r = session.simulate(sys);
            self.sims.insert(key, r);
        }
        Some(&self.sims[&key])
    }

    /// Simulates under `config` with the default system for its cache
    /// size (memoized); `None` when the program cannot be compiled for
    /// that scratchpad. `record_times` additionally stores per-node
    /// finish cycles (needed once per benchmark for the lifetime
    /// figures).
    pub fn try_sim(&mut self, config: &Config, record_times: bool) -> Option<&SimReport> {
        self.try_sim_with(config, &sys_for(config), record_times)
    }

    /// Like [`Prepared::try_sim`] but panicking on infeasible configs.
    pub fn sim(&mut self, config: &Config, record_times: bool) -> &SimReport {
        let name = self.bench.name;
        self.try_sim(config, record_times)
            .unwrap_or_else(|| panic!("{name}: scratchpad too small for this program"))
    }
}

/// A planned sweep over one benchmark: arbitrary `(Config, SystemConfig)`
/// units grouped by trace key ([`Prepared::try_trace_key`]), one
/// [`SweepSession`] per trace group, each group's members run in
/// [`tapeflow_sim::plan_order`] to maximize replay-prefix reuse.
/// Independent trace groups are embarrassingly parallel —
/// [`SweepPlanner::run_parallel`] fans them out over the worker pool
/// with order-fixed collection, so results are byte-identical at any
/// job count (and to cold [`tapeflow_sim::simulate_prepared`] runs,
/// the session contract).
pub struct SweepPlanner {
    groups: Vec<PlanGroup>,
    /// Total unit count (feasible or not) — the result vector's length.
    n_units: usize,
    opts: SimOptions,
}

struct PlanGroup {
    prep: Arc<PreparedSim>,
    /// `(original unit index, system)` members, in caller order.
    members: Vec<(usize, SystemConfig)>,
}

impl std::fmt::Debug for SweepPlanner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepPlanner")
            .field("groups", &self.groups.len())
            .field("units", &self.n_units)
            .finish()
    }
}

impl SweepPlanner {
    /// Plans `units` against `p`, memoizing programs/traces on the way.
    /// Infeasible configurations keep their slot (the corresponding
    /// result is `None`); groups appear in first-occurrence order.
    pub fn new(p: &mut Prepared, units: &[(Config, SystemConfig)], record_times: bool) -> Self {
        let mut group_of: HashMap<ProgramKey, usize> = HashMap::new();
        let mut groups: Vec<PlanGroup> = Vec::new();
        for (i, (config, sys)) in units.iter().enumerate() {
            let Some(key) = p.try_trace_key(config) else {
                continue;
            };
            let gi = *group_of.entry(key).or_insert_with(|| {
                groups.push(PlanGroup {
                    prep: Arc::clone(&p.preps[&key]),
                    members: Vec::new(),
                });
                groups.len() - 1
            });
            groups[gi].members.push((i, *sys));
        }
        SweepPlanner {
            groups,
            n_units: units.len(),
            opts: SimOptions {
                record_node_times: record_times,
            },
        }
    }

    /// Number of trace groups (equals the number of sessions a run
    /// drives, and the parallelism [`SweepPlanner::run_parallel`] can
    /// exploit).
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Runs every group serially. Result `i` corresponds to unit `i`;
    /// `None` marks an infeasible configuration.
    pub fn run(&self) -> Vec<Option<SimReport>> {
        self.run_parallel(1)
    }

    /// Runs independent trace groups across `jobs` workers (callers
    /// clamp; `1` runs inline). Collection is order-fixed, so the
    /// result bytes are identical at any job count.
    pub fn run_parallel(&self, jobs: usize) -> Vec<Option<SimReport>> {
        let opts = self.opts;
        // Every group's session renumbers its arena; doing it here, on
        // the calling thread, keeps the long-lived renumbered arenas out
        // of the workers' allocator arenas, where the sessions' freed
        // buffers would pin them (perfbench `sweep` peaked at ~940 MB
        // against ~650 MB this way).
        for g in &self.groups {
            g.prep.order_by_schedule();
        }
        let per_group: Vec<Vec<SimReport>> =
            crate::pool::map_parallel(&self.groups, jobs, |_, g| {
                let systems: Vec<SystemConfig> = g.members.iter().map(|(_, s)| *s).collect();
                tapeflow_sim::run_group(Arc::clone(&g.prep), opts, &systems)
            });
        let mut out: Vec<Option<SimReport>> = (0..self.n_units).map(|_| None).collect();
        for (g, reports) in self.groups.iter().zip(per_group) {
            for (&(i, _), r) in g.members.iter().zip(reports) {
                out[i] = Some(r);
            }
        }
        out
    }
}

/// Geometric mean of a non-empty slice.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tapeflow_benchmarks::{by_name, Scale};
    use tapeflow_sim::ReplacementPolicy;

    #[test]
    fn labels() {
        assert_eq!(Config::enzyme(32768).label(), "Enzyme_32k");
        assert_eq!(Config::tapeflow(2048).label(), "Tflow_2k");
        assert_eq!(Config::AosOnCache { cache_bytes: 512 }.label(), "AoS_512B");
    }

    #[test]
    fn memoization_returns_identical_reports() {
        let mut p = Prepared::new(by_name("logsum", Scale::Tiny));
        let a = p.sim(&Config::enzyme(1024), false).cycles;
        let b = p.sim(&Config::enzyme(1024), false).cycles;
        assert_eq!(a, b);
        let t = p.sim(&Config::tapeflow(1024), false).cycles;
        assert!(t > 0);
    }

    #[test]
    fn memo_keys_on_full_system_config() {
        // Same cache size, different replacement policy: the memo must
        // keep both results apart (the old key aliased them).
        let mut p = Prepared::new(by_name("logsum", Scale::Tiny));
        let config = Config::enzyme(1024);
        let lru = sys_for(&config);
        let mut fifo = lru;
        fifo.cache.policy = ReplacementPolicy::Fifo;
        let r_lru = p.try_sim_with(&config, &lru, false).unwrap().clone();
        let r_fifo = p.try_sim_with(&config, &fifo, false).unwrap().clone();
        assert!(p.has_sim(&config, &lru, false));
        assert!(p.has_sim(&config, &fifo, false));
        // Both memo entries stay distinct and each re-read returns its
        // own result.
        assert_eq!(
            p.try_sim_with(&config, &lru, false).unwrap().cycles,
            r_lru.cycles
        );
        assert_eq!(
            p.try_sim_with(&config, &fifo, false).unwrap().cycles,
            r_fifo.cycles
        );
        assert_eq!(
            p.sims.len(),
            2,
            "two distinct memo entries, not one aliased"
        );
    }

    #[test]
    fn one_arena_serves_the_whole_sweep() {
        // Every cache size of the same program key shares one
        // `PreparedSim` (pointer-identical), and the arena mirrors the
        // trace it was built from.
        let mut p = Prepared::new(by_name("logsum", Scale::Tiny));
        let a = p.try_prepared_sim(&Config::enzyme(1024)).unwrap();
        let b = p.try_prepared_sim(&Config::enzyme(32768)).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "sweep rebuilt the arena");
        let trace = p.try_trace_shared(&Config::enzyme(1024)).unwrap();
        assert_eq!(a.len(), trace.len());
        // A different program key gets its own arena.
        let t = p.try_prepared_sim(&Config::tapeflow(1024)).unwrap();
        assert!(!Arc::ptr_eq(&a, &t));
    }

    #[test]
    fn infeasible_configs_are_cached_not_retried() {
        let mut p = Prepared::new(by_name("mttkrp", Scale::Tiny));
        let tiny_spad = Config::Tapeflow {
            cache_bytes: 32768,
            spad_bytes: 16, // 2 entries: too small for any real region
            double_buffer: true,
            compress: false,
        };
        if p.ensure_program(&tiny_spad) {
            return; // feasible at this scale: nothing to assert
        }
        assert!(p.try_sim(&tiny_spad, false).is_none());
        assert!(!p.ensure_program(&tiny_spad), "stays infeasible");
        // The cache keeps the diagnosis, not just a boolean, and the
        // Result path surfaces the same error object.
        let cached = p.compile_error(&tiny_spad).cloned().expect("cached error");
        assert_eq!(p.try_compiled(&tiny_spad).unwrap_err(), cached);
        assert!(matches!(
            cached,
            CoreError::SpadTooSmall { .. } | CoreError::RegionTooLarge { .. }
        ));
    }

    #[test]
    fn enzyme_config_has_no_compiled_program_as_error_not_panic() {
        let mut p = Prepared::new(by_name("logsum", Scale::Tiny));
        let err = p.try_compiled(&Config::enzyme(1024)).unwrap_err();
        assert!(matches!(err, CoreError::Pipeline(_)));
        assert!(p.compile_error(&Config::enzyme(1024)).is_none());
    }

    #[test]
    fn compilations_record_pass_timings() {
        let mut p = Prepared::new(by_name("logsum", Scale::Tiny));
        assert!(p.ensure_program(&Config::tapeflow(1024)));
        let names: Vec<_> = p.pass_wall().keys().copied().collect();
        assert_eq!(names, ["layering", "regions", "spad-index", "streams"]);
        assert!(p.pass_wall().values().all(|(runs, _)| *runs == 1));
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!(geomean(&[]).is_nan());
    }
}
