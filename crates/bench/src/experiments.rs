//! One module-level function per paper table/figure.
//!
//! Each experiment returns [`Table`]s whose rows mirror what the paper
//! plots; `EXPERIMENTS.md` records a reference run against the paper's
//! numbers.

use crate::harness::{geomean, sys_for, Config, Prepared, SweepPlanner};
use crate::pool;
use crate::table::{kib, pct, ratio, Table};
use std::collections::{BTreeMap, HashMap};
use std::time::Duration;
use tapeflow_benchmarks::{by_name, Benchmark, Scale, NAMES};
use tapeflow_ir::analysis;
use tapeflow_ir::transform::unroll_loop;
use tapeflow_sim::json::Value;
use tapeflow_sim::{EnergyTable, ReplacementPolicy, SystemConfig};

/// All experiment ids, in paper order, plus the DESIGN.md ablations.
pub const IDS: [&str; 19] = [
    "table2.1",
    "fig1.3",
    "fig2.6",
    "fig2.7",
    "fig2.8",
    "table4.1",
    "table4.2",
    "fig4.1",
    "fig4.2",
    "fig4.3",
    "fig4.4",
    "fig4.5",
    "fig4.6",
    "fig4.7",
    "fig4.8",
    "fig4.9",
    "fig4.10",
    "ablation",
    "regpressure",
];

const E32K: Config = Config::Enzyme { cache_bytes: 32768 };

/// Hot-spot rows folded per configuration entry by
/// [`Lab::json_report_with`] — enough to name the dominant source ops
/// without ballooning the results document.
pub const HOT_SPOT_TOP: usize = 5;

fn t_cfg(cache_bytes: usize) -> Config {
    Config::Tapeflow {
        cache_bytes,
        spad_bytes: 1024,
        double_buffer: true,
        compress: false,
    }
}

/// One unit of simulation work the parallel warm-up fans out:
/// a configuration, the full system it runs on, and whether node times
/// are recorded.
#[derive(Clone, Copy, Debug)]
struct SimItem {
    config: Config,
    sys: SystemConfig,
    record: bool,
}

/// A [`SimItem`] on the default system for its cache size.
fn std_item(config: Config, record: bool) -> SimItem {
    SimItem {
        sys: sys_for(&config),
        config,
        record,
    }
}

/// A derived benchmark some experiment simulates besides the nine
/// registry programs: an unrolled registry benchmark (fig 4.8/4.10) or a
/// sized pathfinder grid (fig 4.9). Variants are first-class
/// [`Prepared`] states in the [`Lab`], built once, warmed by the same
/// parallel plan as the registry sweep and reused across an
/// `experiments all` invocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum VariantSpec {
    /// A registry benchmark with one loop unrolled by `factor`
    /// (factor 1 = the unmodified benchmark).
    Unrolled {
        bench: &'static str,
        loop_name: &'static str,
        factor: u64,
    },
    /// `pathfinder` rebuilt on an explicit grid.
    PathfinderSized { rows: usize, cols: usize },
}

impl VariantSpec {
    /// Builds the variant's benchmark; `Err` carries the note text the
    /// owning table prints (e.g. an unrollability diagnosis).
    fn build(&self, scale: Scale) -> Result<Benchmark, String> {
        match *self {
            VariantSpec::Unrolled {
                bench,
                loop_name,
                factor,
            } => {
                let mut b = by_name(bench, scale);
                if factor > 1 {
                    b.func = unroll_loop(&b.func, loop_name, factor).map_err(|e| e.to_string())?;
                }
                Ok(b)
            }
            VariantSpec::PathfinderSized { rows, cols } => Ok(pathfinder_sized(rows, cols)),
        }
    }
}

/// An experiment's simulation plan: registry configurations to prepare
/// without simulating, registry (config, system, record) triples to
/// simulate across all nine benchmarks, and per-variant triples.
#[derive(Debug, Default)]
struct WarmPlan {
    prep: Vec<Config>,
    items: Vec<SimItem>,
    variants: Vec<(VariantSpec, Vec<SimItem>)>,
}

/// The lab: prepared benchmarks shared across experiments.
#[derive(Debug)]
pub struct Lab {
    /// Input scale for every benchmark.
    pub scale: Scale,
    jobs: usize,
    prepared: Vec<Prepared>,
    /// Derived-benchmark states (unrolled / resized), built on first use
    /// and reused across experiments. `Err` caches a build failure's
    /// note text.
    variants: Vec<(VariantSpec, Result<Prepared, String>)>,
}

impl Lab {
    /// Prepares the full suite at `scale`, serially.
    pub fn new(scale: Scale) -> Self {
        Self::with_jobs(scale, 1)
    }

    /// Prepares the full suite at `scale` using up to `jobs` worker
    /// threads — both here (per-benchmark gradient preparation) and for
    /// every subsequent [`Lab::run`], which pre-simulates the
    /// experiment's configurations in parallel before the (serial,
    /// order-preserving) table construction reads the warm memo.
    /// Results are byte-identical for every `jobs` value.
    pub fn with_jobs(scale: Scale, jobs: usize) -> Self {
        let jobs = jobs.max(1);
        let names: Vec<&'static str> = NAMES.to_vec();
        let prepared =
            pool::map_parallel(&names, jobs, |_, name| Prepared::new(by_name(name, scale)));
        Lab {
            scale,
            jobs,
            prepared,
            variants: Vec::new(),
        }
    }

    /// Worker threads used by this lab.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The [`Prepared`] state behind a derived benchmark, built on first
    /// use and memoized for the lifetime of the lab (so `experiments
    /// all` reuses one state across figures). `Err` is the cached build
    /// failure's note text.
    fn variant_mut(&mut self, spec: VariantSpec) -> &mut Result<Prepared, String> {
        if let Some(i) = self.variants.iter().position(|(s, _)| *s == spec) {
            return &mut self.variants[i].1;
        }
        let built = spec.build(self.scale).map(Prepared::new);
        self.variants.push((spec, built));
        &mut self.variants.last_mut().expect("just pushed").1
    }

    /// Pre-populates the simulation memo for a [`WarmPlan`]: stage 1
    /// builds any missing variant states in parallel, stage 2 prepares
    /// programs in parallel across benchmarks and variants (each needs
    /// `&mut` for its own memo), stage 3 fans simulations out over
    /// read-only `(state, item)` pairs, stage 4 inserts the results
    /// serially in a fixed order. With one job this is a no-op — the
    /// experiment code fills the memo lazily, as before, with
    /// byte-identical results.
    fn warm_items(&mut self, plan: &WarmPlan) {
        if self.jobs <= 1 {
            return;
        }
        let mut prep: Vec<Config> = plan.prep.clone();
        prep.extend(plan.items.iter().map(|it| it.config));
        if prep.is_empty() && plan.variants.is_empty() {
            return;
        }
        // Stage 1: build missing variant benchmarks (gradient included)
        // in parallel, then append in plan order for determinism.
        let missing: Vec<VariantSpec> = plan
            .variants
            .iter()
            .map(|(s, _)| *s)
            .filter(|s| !self.variants.iter().any(|(have, _)| have == s))
            .collect();
        let scale = self.scale;
        let built = pool::map_parallel(&missing, self.jobs, |_, spec| {
            spec.build(scale).map(Prepared::new)
        });
        self.variants.extend(missing.into_iter().zip(built));
        // Stage 2: compile programs + traces (needs &mut per state).
        pool::for_each_mut_parallel(&mut self.prepared, self.jobs, |p| {
            for c in &prep {
                let _ = p.ensure_program(c);
            }
        });
        let variant_items: Vec<(VariantSpec, &[SimItem])> = plan
            .variants
            .iter()
            .map(|(s, its)| (*s, its.as_slice()))
            .collect();
        pool::for_each_mut_parallel(&mut self.variants, self.jobs, |(spec, state)| {
            let Ok(p) = state else { return };
            for (s, items) in &variant_items {
                if s == spec {
                    for it in *items {
                        let _ = p.ensure_program(&it.config);
                    }
                }
            }
        });
        // Stage 3: bucket the remaining work per owning state and
        // record flavor, build one [`SweepPlanner`] per bucket (which
        // groups units by trace identity — one generalized sweep
        // session per trace group, so same-trace configurations replay
        // each other's outcome streams instead of re-running cold), and
        // fan the planners out over the pool. Stage 4 fills the memo
        // serially in a fixed order; reports are byte-identical to the
        // old cold per-item fan-out (the session contract).
        #[derive(Clone, Copy, PartialEq, Eq, Hash)]
        enum Slot {
            Registry(usize),
            Variant(usize),
        }
        let mut work: Vec<(Slot, SimItem)> = (0..self.prepared.len())
            .flat_map(|bi| plan.items.iter().map(move |it| (Slot::Registry(bi), *it)))
            .collect();
        for (spec, items) in &plan.variants {
            if let Some(vi) = self.variants.iter().position(|(s, _)| s == spec) {
                if self.variants[vi].1.is_ok() {
                    work.extend(items.iter().map(|it| (Slot::Variant(vi), *it)));
                }
            }
        }
        let state_of = |slot: &Slot| -> &Prepared {
            match slot {
                Slot::Registry(bi) => &self.prepared[*bi],
                Slot::Variant(vi) => self.variants[*vi].1.as_ref().expect("filtered above"),
            }
        };
        work.retain(|(slot, it)| !state_of(slot).has_sim(&it.config, &it.sys, it.record));
        struct Bucket {
            slot: Slot,
            record: bool,
            /// Indices into `work`, in work order (= planner unit order).
            members: Vec<usize>,
            units: Vec<(Config, SystemConfig)>,
        }
        let mut bucket_of: HashMap<(Slot, bool), usize> = HashMap::new();
        let mut buckets: Vec<Bucket> = Vec::new();
        for (wi, (slot, it)) in work.iter().enumerate() {
            let bi = *bucket_of.entry((*slot, it.record)).or_insert_with(|| {
                buckets.push(Bucket {
                    slot: *slot,
                    record: it.record,
                    members: Vec::new(),
                    units: Vec::new(),
                });
                buckets.len() - 1
            });
            buckets[bi].members.push(wi);
            buckets[bi].units.push((it.config, it.sys));
        }
        let planners: Vec<SweepPlanner> = buckets
            .iter()
            .map(|b| {
                let state = match b.slot {
                    Slot::Registry(bi) => &mut self.prepared[bi],
                    Slot::Variant(vi) => self.variants[vi].1.as_mut().expect("filtered above"),
                };
                SweepPlanner::new(state, &b.units, b.record)
            })
            .collect();
        let per_bucket = pool::map_parallel(&planners, self.jobs, |_, planner| planner.run());
        for (b, reports) in buckets.iter().zip(per_bucket) {
            for (&wi, report) in b.members.iter().zip(reports) {
                let Some(report) = report else { continue };
                let (slot, it) = &work[wi];
                let state = match slot {
                    Slot::Registry(bi) => &mut self.prepared[*bi],
                    Slot::Variant(vi) => self.variants[*vi].1.as_mut().expect("filtered above"),
                };
                state.insert_sim(&it.config, &it.sys, it.record, report);
            }
        }
    }

    /// The simulation plan behind each experiment id: registry
    /// configurations to prepare without simulating, registry (config,
    /// system, record) triples to simulate, and derived-benchmark
    /// variants (fig4.8–4.10's unrolled/resized states) with their own
    /// triples — all of which parallelize like the rest of the sweep.
    fn warm_plan(id: &str) -> WarmPlan {
        fn plain(prep: Vec<Config>, items: Vec<SimItem>) -> WarmPlan {
            WarmPlan {
                prep,
                items,
                variants: Vec::new(),
            }
        }
        let fifo_8k = {
            let mut sys = SystemConfig::with_cache_bytes(8192);
            sys.cache.policy = ReplacementPolicy::Fifo;
            sys
        };
        match id {
            "fig1.3" | "fig2.6" | "regpressure" => plain(vec![E32K], vec![]),
            "fig2.7" | "fig2.8" => plain(vec![], vec![std_item(E32K, true)]),
            "table4.1" => plain(vec![E32K, t_cfg(32768)], vec![]),
            "fig4.1" => plain(
                vec![],
                vec![std_item(E32K, false), std_item(t_cfg(32768), false)],
            ),
            "fig4.2" => {
                let mut items: Vec<SimItem> = [1024usize, 2048, 8192, 32768, 131072]
                    .into_iter()
                    .map(|c| std_item(Config::enzyme(c), false))
                    .collect();
                items.push(std_item(t_cfg(1024), false));
                items.push(std_item(t_cfg(32768), false));
                plain(vec![], items)
            }
            "fig4.3" => plain(
                vec![],
                vec![
                    std_item(Config::enzyme(4096), false),
                    std_item(Config::AosOnCache { cache_bytes: 4096 }, false),
                ],
            ),
            "fig4.4" | "fig4.5" => plain(
                vec![],
                vec![std_item(E32K, false), std_item(t_cfg(2048), false)],
            ),
            "fig4.6" => {
                let configs = [
                    Config::enzyme(1024),
                    Config::enzyme(8192),
                    Config::enzyme(32768),
                    Config::enzyme(131072),
                    t_cfg(1024),
                    t_cfg(2048),
                    t_cfg(32768),
                ];
                plain(
                    vec![],
                    configs.iter().map(|c| std_item(*c, false)).collect(),
                )
            }
            "fig4.7" => {
                let mut items = vec![std_item(E32K, false)];
                for spad_bytes in [64usize, 128, 256, 512, 1024, 2048] {
                    items.push(std_item(
                        Config::Tapeflow {
                            cache_bytes: 32768,
                            spad_bytes,
                            double_buffer: true,
                            compress: false,
                        },
                        false,
                    ));
                }
                plain(vec![], items)
            }
            "fig4.8" => {
                let items: Vec<SimItem> = [128usize, 256, 512, 1024, 2048]
                    .into_iter()
                    .map(|s| {
                        std_item(
                            Config::Tapeflow {
                                cache_bytes: 32768,
                                spad_bytes: s,
                                double_buffer: true,
                                compress: false,
                            },
                            false,
                        )
                    })
                    .collect();
                WarmPlan {
                    prep: vec![],
                    items: vec![],
                    variants: [1u64, 2, 4]
                        .into_iter()
                        .map(|factor| {
                            (
                                VariantSpec::Unrolled {
                                    bench: "somier",
                                    loop_name: "z",
                                    factor,
                                },
                                items.clone(),
                            )
                        })
                        .collect(),
                }
            }
            "fig4.9" => WarmPlan {
                prep: vec![],
                items: vec![],
                variants: fig4_9_grids()
                    .into_iter()
                    .map(|(_, spec)| {
                        (
                            spec,
                            vec![std_item(E32K, false), std_item(t_cfg(32768), false)],
                        )
                    })
                    .collect(),
            },
            "fig4.10" => WarmPlan {
                prep: vec![],
                items: vec![],
                variants: [1u64, 2, 4, 8]
                    .into_iter()
                    .map(|factor| {
                        (
                            VariantSpec::Unrolled {
                                bench: "pathfinder",
                                loop_name: "c",
                                factor,
                            },
                            vec![std_item(E32K, false), std_item(t_cfg(32768), false)],
                        )
                    })
                    .collect(),
            },
            "ablation" => plain(
                vec![],
                vec![
                    std_item(t_cfg(32768), false),
                    std_item(Config::tapeflow_compressed(32768), false),
                    std_item(
                        Config::Tapeflow {
                            cache_bytes: 32768,
                            spad_bytes: 1024,
                            double_buffer: false,
                            compress: false,
                        },
                        false,
                    ),
                    std_item(Config::enzyme(8192), false),
                    SimItem {
                        config: Config::enzyme(8192),
                        sys: fifo_8k,
                        record: false,
                    },
                ],
            ),
            _ => WarmPlan::default(),
        }
    }

    /// Runs one experiment by id.
    ///
    /// # Panics
    ///
    /// Panics on an unknown id; see [`IDS`].
    pub fn run(&mut self, id: &str) -> Vec<Table> {
        let plan = Self::warm_plan(id);
        self.warm_items(&plan);
        match id {
            "table2.1" => vec![table2_1()],
            "fig1.3" => vec![self.fig1_3()],
            "fig2.6" => vec![self.fig2_6()],
            "fig2.7" => vec![self.fig2_7()],
            "fig2.8" => vec![self.fig2_8()],
            "table4.1" => vec![self.table4_1()],
            "table4.2" => vec![table4_2()],
            "fig4.1" => vec![self.fig4_1()],
            "fig4.2" => vec![self.fig4_2()],
            "fig4.3" => vec![self.fig4_3()],
            "fig4.4" => vec![self.fig4_4()],
            "fig4.5" => vec![self.fig4_5()],
            "fig4.6" => vec![self.fig4_6()],
            "fig4.7" => vec![self.fig4_7()],
            "fig4.8" => vec![self.fig4_8()],
            "fig4.9" => vec![self.fig4_9()],
            "fig4.10" => vec![self.fig4_10()],
            "ablation" => self.ablations(),
            "regpressure" => vec![self.regpressure()],
            other => panic!("unknown experiment {other:?} (see IDS)"),
        }
    }

    // ---- Chapter 2: characterization ---------------------------------------

    /// Figure 1.3: how the gradient function's memory accesses split
    /// across input / output / temp / tape / shadow state, and the
    /// REV-over-FWD expansion.
    fn fig1_3(&mut self) -> Table {
        use tapeflow_ir::ArrayKind::*;
        let mut t = Table::new(
            "Fig 1.3 — state distribution of the gradient function's accesses",
            &[
                "bench",
                "input",
                "output+temp",
                "tape",
                "shadow",
                "grad/fwd accesses",
            ],
        );
        for p in &mut self.prepared {
            // Accesses of the original (FWD-only) function.
            let mut fmem = tapeflow_ir::Memory::for_function(&p.bench.func);
            for i in 0..p.bench.func.arrays().len() {
                fmem.clone_array_from(&p.bench.mem, tapeflow_ir::ArrayId::new(i));
            }
            let ftrace = tapeflow_ir::trace::trace_function(
                &p.bench.func,
                &mut fmem,
                tapeflow_ir::trace::TraceOptions::default(),
            )
            .expect("forward trace");
            let fwd_accesses = analysis::trace_stats(&ftrace).mem_accesses.max(1);
            let grad_func = p.grad.func.clone();
            let tr = p.trace(&E32K);
            let kinds = analysis::accesses_by_array_kind(&grad_func, tr);
            let get = |k| kinds.get(&k).copied().unwrap_or(0);
            let total: u64 = kinds.values().sum();
            t.row(vec![
                p.bench.name.into(),
                pct(get(Input) as f64 / total as f64),
                pct((get(Output) + get(InOut) + get(Temp)) as f64 / total as f64),
                pct(get(Tape) as f64 / total as f64),
                pct(get(Shadow) as f64 / total as f64),
                ratio(total as f64 / fwd_accesses as f64),
            ]);
        }
        t.note("paper: the gradient function multiplies the FWD's accesses 4-5x; tape is 20-40%");
        t
    }

    /// The thesis's register-allocation tool (§1.5): liveness, minimum
    /// spill-free registers and spill counts on the gradient dataflow.
    fn regpressure(&mut self) -> Table {
        let mut t = Table::new(
            "Register pressure of the gradient dataflow (thesis §1.5 tool)",
            &[
                "bench",
                "dyn values",
                "min regs (no spill)",
                "spills@32",
                "spills@64",
            ],
        );
        for p in &mut self.prepared {
            let tr = p
                .try_trace_shared(&E32K)
                .expect("the gradient always traces");
            let r32 = analysis::register_pressure(&p.grad.func, &tr, 32);
            let r64 = analysis::register_pressure(&p.grad.func, &tr, 64);
            t.row(vec![
                p.bench.name.into(),
                r32.values.to_string(),
                r32.max_live.to_string(),
                r32.spills.to_string(),
                r64.spills.to_string(),
            ]);
        }
        t.note("tape values dominate the live set: spilling them is what the cache was doing");
        t
    }

    /// Figure 2.6 (and 1.3): FWD/REV/TAPE edge distribution and working
    /// set of the Enzyme-generated gradient.
    fn fig2_6(&mut self) -> Table {
        let mut t = Table::new(
            "Fig 2.6 — edge distribution and working set (Enzyme baseline)",
            &[
                "bench",
                "fwd edges",
                "rev edges",
                "tape edges",
                "tape %",
                "mem acc",
                "tape acc %",
                "working set",
            ],
        );
        for p in &mut self.prepared {
            let tr = p.trace(&E32K);
            let s = analysis::trace_stats(tr);
            let total = s.total_edges() as f64;
            t.row(vec![
                p.bench.name.into(),
                s.edges[0].to_string(),
                s.edges[1].to_string(),
                s.edges[2].to_string(),
                pct(s.edges[2] as f64 / total),
                s.mem_accesses.to_string(),
                pct(s.tape_access_fraction()),
                kib(s.max_live_bytes),
            ]);
        }
        t.note("paper: tape accesses are 20-40% of memory accesses (Obs 1.1)");
        t
    }

    /// Figure 2.7: average lifetime of tape edges vs FWD edges, in cycles.
    fn fig2_7(&mut self) -> Table {
        let mut t = Table::new(
            "Fig 2.7 — average edge lifetime in cycles (Enzyme_32k)",
            &["bench", "tape avg", "fwd avg", "rev avg", "tape/fwd"],
        );
        for p in &mut self.prepared {
            let times = p
                .sim(&E32K, true)
                .node_finish
                .clone()
                .expect("times recorded");
            let tr = p.trace(&E32K);
            let lt = analysis::edge_lifetimes(tr, &times);
            t.row(vec![
                p.bench.name.into(),
                format!("{:.0}", lt.tape_avg),
                format!("{:.0}", lt.fwd_avg),
                format!("{:.0}", lt.rev_avg),
                ratio(lt.tape_over_fwd()),
            ]);
        }
        t.note("paper: tape values live up to 100x longer than other registers (Obs 1.2)");
        t
    }

    /// Figure 2.8: 5-quantile tape-lifetime distribution.
    fn fig2_8(&mut self) -> Table {
        let mut t = Table::new(
            "Fig 2.8 — tape lifetime distribution, 5 quantiles (Kcycles)",
            &["bench", "q1", "q2", "q3", "q4", "q5 (max)"],
        );
        for p in &mut self.prepared {
            let times = p
                .sim(&E32K, true)
                .node_finish
                .clone()
                .expect("times recorded");
            let tr = p.trace(&E32K);
            let buckets = analysis::tape_lifetime_quantiles(tr, &times, 5);
            let mut row = vec![p.bench.name.to_string()];
            for b in &buckets {
                row.push(format!("{:.1}", b.max_lifetime as f64 / 1000.0));
            }
            t.row(row);
        }
        t.note("mixed short/long reuse across benchmarks defeats any single replacement policy (Obs 1.3)");
        t
    }

    // ---- Chapter 4: evaluation ------------------------------------------------

    /// Table 4.1: benchmark description.
    fn table4_1(&mut self) -> Table {
        let mut t = Table::new(
            "Table 4.1 — benchmark description",
            &[
                "name",
                "class",
                "suite",
                "input params",
                "arrays/loop",
                "work.set",
                "tape bytes",
                "layer count",
            ],
        );
        for p in &mut self.prepared {
            let arrays_per_loop = max_arrays_per_loop(&p.bench);
            let tr = p.trace(&E32K);
            let s = analysis::trace_stats(tr);
            let compiled = p.compiled(&t_cfg(32768));
            let (tape_bytes, layers) =
                (compiled.stats.merged_tape_bytes, compiled.stats.fwd_layers);
            t.row(vec![
                p.bench.name.into(),
                if p.bench.regular {
                    "regular"
                } else {
                    "irregular"
                }
                .into(),
                p.bench.suite.into(),
                p.bench.params.clone(),
                arrays_per_loop.to_string(),
                kib(s.max_live_bytes),
                kib(tape_bytes),
                layers.to_string(),
            ]);
        }
        t
    }

    /// Figure 4.1: speedup and REV hit-rate improvement, Tflow_32k vs
    /// Enzyme_32k.
    fn fig4_1(&mut self) -> Table {
        let mut t = Table::new(
            "Fig 4.1 — Tflow_32k vs Enzyme_32k: speedup and REV hit rate",
            &[
                "bench",
                "speedup",
                "fwd speedup",
                "rev speedup",
                "enzyme rev hit",
                "tflow rev hit",
            ],
        );
        let mut speedups = Vec::new();
        for p in &mut self.prepared {
            let ez = p.sim(&E32K, false).clone();
            let tf = p.sim(&t_cfg(32768), false).clone();
            let sp = tf.speedup_over(&ez);
            speedups.push(sp);
            t.row(vec![
                p.bench.name.into(),
                ratio(sp),
                ratio(ez.fwd_cycles as f64 / tf.fwd_cycles.max(1) as f64),
                ratio(ez.rev_cycles() as f64 / tf.rev_cycles().max(1) as f64),
                pct(ez.cache.rev_hit_rate()),
                pct(tf.cache.rev_hit_rate()),
            ]);
        }
        t.note(format!("geomean speedup {}", ratio(geomean(&speedups))));
        t.note("paper: 1.3-2.5x speedup, REV hit rate improves most on irregular benchmarks");
        t
    }

    /// Figure 4.2: normalized DRAM accesses across cache sizes.
    fn fig4_2(&mut self) -> Table {
        let ladder = [1024usize, 2048, 8192, 32768, 131072];
        let mut headers: Vec<String> = vec!["bench".into()];
        for c in ladder {
            headers.push(Config::enzyme(c).label());
        }
        headers.push("Tflow_1k".into());
        headers.push("Tflow_32k".into());
        let hdr_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
        let mut t = Table::new(
            "Fig 4.2 — DRAM accesses normalized to Enzyme_32k (lower is better)",
            &hdr_refs,
        );
        for p in &mut self.prepared {
            let base = p.sim(&E32K, false).dram_accesses().max(1) as f64;
            let mut row = vec![p.bench.name.to_string()];
            for c in ladder {
                let v = p.sim(&Config::enzyme(c), false).dram_accesses() as f64;
                row.push(format!("{:.2}", v / base));
            }
            for cfg in [t_cfg(1024), t_cfg(32768)] {
                let v = p.sim(&cfg, false).dram_accesses() as f64;
                row.push(format!("{:.2}", v / base));
            }
            t.row(row);
        }
        t.note("paper: up to 14x reduction (mttkrp); regular benchmarks move least");
        t
    }

    /// Figure 4.3: struct-of-arrays (Enzyme) vs array-of-structs (Pass 1
    /// only), both cache-resident, under cache pressure (the regime the
    /// paper's layout argument targets: concurrent tape streams exceeding
    /// the associativity).
    fn fig4_3(&mut self) -> Table {
        let cache = 4096usize;
        let mut t = Table::new(
            "Fig 4.3 — AoS (Pass 1 only) vs SoA layout, both on a pressured 4k cache",
            &["bench", "SoA dram", "AoS dram", "AoS/SoA", "cycles AoS/SoA"],
        );
        let mut ratios = Vec::new();
        for p in &mut self.prepared {
            let soa = p.sim(&Config::enzyme(cache), false).clone();
            let aos = p
                .sim(&Config::AosOnCache { cache_bytes: cache }, false)
                .clone();
            let r = aos.dram_accesses() as f64 / soa.dram_accesses().max(1) as f64;
            ratios.push(r);
            t.row(vec![
                p.bench.name.into(),
                soa.dram_accesses().to_string(),
                aos.dram_accesses().to_string(),
                format!("{r:.2}"),
                format!("{:.2}", aos.cycles as f64 / soa.cycles.max(1) as f64),
            ]);
        }
        t.note(format!("geomean AoS/SoA DRAM {:.2}", geomean(&ratios)));
        t.note("paper: up to 30% less traffic; gains concentrate where many tape arrays stream concurrently");
        t
    }

    /// Figure 4.4: on-chip energy reduction, ISO-perform setup.
    fn fig4_4(&mut self) -> Table {
        let mut t = Table::new(
            "Fig 4.4 — on-chip energy reduction: Enzyme_32k / Tflow_2k (higher is better)",
            &[
                "bench",
                "enzyme pJ",
                "tflow pJ",
                "reduction",
                "iso-perform slowdown",
            ],
        );
        let mut reds = Vec::new();
        for p in &mut self.prepared {
            let ez = p.sim(&E32K, false).clone();
            let tf = p.sim(&t_cfg(2048), false).clone();
            let red = ez.energy.on_chip_pj() / tf.energy.on_chip_pj().max(1.0);
            reds.push(red);
            t.row(vec![
                p.bench.name.into(),
                format!("{:.2e}", ez.energy.on_chip_pj()),
                format!("{:.2e}", tf.energy.on_chip_pj()),
                ratio(red),
                ratio(ez.cycles as f64 / tf.cycles as f64),
            ]);
        }
        t.note(format!("geomean reduction {}", ratio(geomean(&reds))));
        t.note("paper: up to 8.2x on-chip energy reduction at iso performance");
        t
    }

    /// Figure 4.5: normalized on-chip energy with cache-access reduction.
    fn fig4_5(&mut self) -> Table {
        let mut t = Table::new(
            "Fig 4.5 — normalized on-chip energy (Tflow_2k / Enzyme_32k, lower is better)",
            &[
                "bench",
                "norm energy",
                "cache acc reduction",
                "cache pJ",
                "spad pJ",
                "stream pJ",
            ],
        );
        for p in &mut self.prepared {
            let ez = p.sim(&E32K, false).clone();
            let tf = p.sim(&t_cfg(2048), false).clone();
            let norm = tf.energy.on_chip_pj() / ez.energy.on_chip_pj().max(1.0);
            let acc_red = 1.0 - tf.cache.accesses() as f64 / ez.cache.accesses().max(1) as f64;
            t.row(vec![
                p.bench.name.into(),
                format!("{norm:.3}"),
                pct(acc_red),
                format!("{:.2e}", tf.energy.cache_pj),
                format!("{:.2e}", tf.energy.spad_pj),
                format!("{:.2e}", tf.energy.stream_pj),
            ]);
        }
        t.note("paper: e.g. nn offloads 33% of cache accesses; spad costs ~1% of a 32k cache");
        t
    }

    /// Figure 4.6: performance-energy sweep over configurations.
    fn fig4_6(&mut self) -> Table {
        let configs = [
            Config::enzyme(1024),
            Config::enzyme(8192),
            Config::enzyme(32768),
            Config::enzyme(131072),
            t_cfg(1024),
            t_cfg(2048),
            t_cfg(32768),
        ];
        let mut headers = vec!["bench".to_string()];
        for c in &configs {
            headers.push(format!("{} perf|energy", c.label()));
        }
        let hdr_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
        let mut t = Table::new(
            "Fig 4.6 — performance-energy sweep, normalized to Enzyme_1k",
            &hdr_refs,
        );
        for p in &mut self.prepared {
            let base = p.sim(&Config::enzyme(1024), false).clone();
            let mut row = vec![p.bench.name.to_string()];
            for c in &configs {
                let r = p.sim(c, false);
                let perf = base.cycles as f64 / r.cycles.max(1) as f64;
                let energy = r.energy.on_chip_pj() / base.energy.on_chip_pj().max(1.0);
                row.push(format!("{perf:.2}|{energy:.2}"));
            }
            t.row(row);
        }
        t.note("towards high perf and low energy is better (paper's top-left quadrant)");
        t
    }

    /// Figure 4.7: scratchpad size vs normalized performance.
    fn fig4_7(&mut self) -> Table {
        let sizes = [64usize, 128, 256, 512, 1024, 2048];
        let mut headers = vec!["bench".to_string()];
        headers.extend(sizes.iter().map(|s| format!("{s}B")));
        let hdr_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
        let mut t = Table::new(
            "Fig 4.7 — scratchpad size vs speedup over Enzyme_32k",
            &hdr_refs,
        );
        for p in &mut self.prepared {
            let ez = p.sim(&E32K, false).cycles.max(1) as f64;
            let mut row = vec![p.bench.name.to_string()];
            for s in sizes {
                let cfg = Config::Tapeflow {
                    cache_bytes: 32768,
                    spad_bytes: s,
                    double_buffer: true,
                    compress: false,
                };
                match p.try_sim(&cfg, false) {
                    Some(r) => row.push(format!("{:.2}", ez / r.cycles.max(1) as f64)),
                    None => row.push("n/a".into()),
                }
            }
            t.row(row);
        }
        t.note("paper: 64B to 1KB buys 25-50%; gains flatten once layer parallelism saturates");
        t
    }

    /// Figure 4.8: normalized ILP vs scratchpad size across unroll
    /// factors (somier).
    fn fig4_8(&mut self) -> Table {
        let sizes = [128usize, 256, 512, 1024, 2048];
        let unrolls = [1u64, 2, 4];
        let mut headers = vec!["unroll".to_string()];
        headers.extend(sizes.iter().map(|s| format!("{s}B")));
        let hdr_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
        let mut t = Table::new(
            "Fig 4.8 — somier: ILP vs scratchpad size and unroll factor (norm. to u1@128B)",
            &hdr_refs,
        );
        let mut norm = None;
        for u in unrolls {
            let spec = VariantSpec::Unrolled {
                bench: "somier",
                loop_name: "z",
                factor: u,
            };
            let p = match self.variant_mut(spec) {
                Ok(p) => p,
                Err(e) => {
                    t.note(format!("u{u}: skipped ({e})"));
                    continue;
                }
            };
            let mut row = vec![format!("u{u}")];
            for s in sizes {
                let cfg = Config::Tapeflow {
                    cache_bytes: 32768,
                    spad_bytes: s,
                    double_buffer: true,
                    compress: false,
                };
                match p.try_sim(&cfg, false) {
                    Some(r) => {
                        let ilp = r.ilp();
                        let base = *norm.get_or_insert(ilp);
                        row.push(format!("{:.2}", ilp / base));
                    }
                    None => row.push("n/a".into()),
                }
            }
            t.row(row);
        }
        t.note(
            "paper: a small scratchpad caps ILP; bigger buffers unlock it until cache ports bind",
        );
        t
    }

    /// Figure 4.9: working-set size vs DRAM traffic (pathfinder scaled to
    /// 1/2x, 1x, 4x of the 32 KB cache).
    fn fig4_9(&mut self) -> Table {
        let mut t = Table::new(
            "Fig 4.9 — tape working set vs DRAM traffic per access (pathfinder)",
            &[
                "tape/cache",
                "tape bytes",
                "enzyme dram/acc",
                "tflow dram/acc",
                "tflow/enzyme",
            ],
        );
        for (label, spec) in fig4_9_grids() {
            let p = match self.variant_mut(spec) {
                Ok(p) => p,
                Err(e) => {
                    t.note(format!("{label}: skipped ({e})"));
                    continue;
                }
            };
            let tape_bytes = p.grad.tape_elems() * 8;
            let ez = p.sim(&E32K, false).clone();
            let tf = p.sim(&t_cfg(32768), false).clone();
            // Steady-state traffic: exclude the one-time cool-down flush,
            // which charges every resident dirty line regardless of grid
            // size and would mask the crossover the figure is about.
            let ez_line = sys_for(&E32K).cache.line_bytes as u64;
            let tf_line = sys_for(&t_cfg(32768)).cache.line_bytes as u64;
            let ez_total = (ez.cache.accesses() + ez.spad_accesses).max(1);
            let tf_total = (tf.cache.accesses() + tf.spad_accesses).max(1);
            let ez_norm =
                (ez.dram_bytes() - ez.cache.flush_writebacks * ez_line) as f64 / ez_total as f64;
            let tf_norm =
                (tf.dram_bytes() - tf.cache.flush_writebacks * tf_line) as f64 / tf_total as f64;
            t.row(vec![
                label.into(),
                kib(tape_bytes),
                format!("{ez_norm:.2}"),
                format!("{tf_norm:.2}"),
                format!("{:.2}", tf_norm / ez_norm),
            ]);
        }
        t.note("paper: the cache wins on small inputs it fully captures; Tapeflow wins once the tape overflows it");
        t
    }

    /// Figure 4.10: shallow vs deep layer graphs via the unroll factor
    /// (pathfinder).
    fn fig4_10(&mut self) -> Table {
        let mut t = Table::new(
            "Fig 4.10 — pathfinder: unroll factor vs speedup and per-layer parallelism",
            &[
                "unroll",
                "speedup vs Enzyme_32k",
                "norm speedup",
                "ops/layer",
                "norm ops/layer",
            ],
        );
        let mut first: Option<(f64, f64)> = None;
        for u in [1u64, 2, 4, 8] {
            let spec = VariantSpec::Unrolled {
                bench: "pathfinder",
                loop_name: "c",
                factor: u,
            };
            let p = match self.variant_mut(spec) {
                Ok(p) => p,
                Err(e) => {
                    t.note(format!("u{u}: skipped ({e})"));
                    continue;
                }
            };
            let ez = p.sim(&E32K, false).cycles.max(1) as f64;
            let cfg = t_cfg(32768);
            let layers = p.compiled(&cfg).stats.fwd_layers.max(1);
            let tf = p.sim(&cfg, false).clone();
            let speedup = ez / tf.cycles.max(1) as f64;
            let ops_per_layer = (tf.fp_ops + tf.int_ops) as f64 / (2 * layers) as f64;
            let (s0, o0) = *first.get_or_insert((speedup, ops_per_layer));
            t.row(vec![
                format!("u{u}"),
                ratio(speedup),
                format!("{:.2}", speedup / s0),
                format!("{ops_per_layer:.0}"),
                format!("{:.2}", ops_per_layer / o0),
            ]);
        }
        t.note(
            "paper: shallow graphs with wider layers gain up to 2x from more per-layer parallelism",
        );
        t
    }
}

impl Lab {
    /// DESIGN.md's ablations: tape policy, double buffering, replacement
    /// policy.
    fn ablations(&mut self) -> Vec<Table> {
        use tapeflow_autodiff::TapePolicy;
        // (a) Tape policies: tape bytes per policy.
        let mut pol = Table::new(
            "Ablation A — tape policy vs tape size (bytes)",
            &["bench", "Minimal", "Conservative (default)", "All"],
        );
        // Re-differentiating under three policies is the expensive part;
        // it is read-only on `Prepared`, so fan it out per benchmark.
        let all_sizes: Vec<Vec<String>> = pool::map_parallel(&self.prepared, self.jobs, |_, p| {
            [
                TapePolicy::Minimal,
                TapePolicy::Conservative,
                TapePolicy::All,
            ]
            .into_iter()
            .map(|pl| p.bench.gradient_with(pl).stats.tape_bytes.to_string())
            .collect()
        });
        for (p, sizes) in self.prepared.iter().zip(all_sizes) {
            let mut row = vec![p.bench.name.to_string()];
            row.extend(sizes);
            pol.row(row);
        }
        pol.note("Minimal = ideal aliasing (reload inputs); All = operator overloading");

        // (b) Double buffering on/off at the baseline scratchpad.
        let mut db = Table::new(
            "Ablation B — double buffering (cycles, Tflow_32k)",
            &[
                "bench",
                "double-buffered",
                "single-buffered",
                "single/double",
            ],
        );
        for p in &mut self.prepared {
            let on = p.sim(&t_cfg(32768), false).cycles;
            let off_cfg = Config::Tapeflow {
                cache_bytes: 32768,
                spad_bytes: 1024,
                double_buffer: false,
                compress: false,
            };
            let off = match p.try_sim(&off_cfg, false) {
                Some(r) => r.cycles,
                None => {
                    db.row(vec![
                        p.bench.name.into(),
                        on.to_string(),
                        "n/a".into(),
                        "".into(),
                    ]);
                    continue;
                }
            };
            db.row(vec![
                p.bench.name.into(),
                on.to_string(),
                off.to_string(),
                format!("{:.2}", off as f64 / on as f64),
            ]);
        }
        db.note("single buffering doubles the tile but blocks stream/compute overlap");

        // (c) Replacement policy on the Enzyme baseline (Obs 1.3). Goes
        // through the memo — which keys on the full system configuration,
        // so the FIFO run cannot alias the LRU one — and therefore
        // benefits from the parallel warm-up like everything else.
        let mut rp = Table::new(
            "Ablation C — baseline cache replacement policy (cycles, 8k cache)",
            &["bench", "LRU", "FIFO", "FIFO/LRU"],
        );
        for p in &mut self.prepared {
            let mut cycles = Vec::new();
            for policy in [ReplacementPolicy::Lru, ReplacementPolicy::Fifo] {
                let mut sys = SystemConfig::with_cache_bytes(8192);
                sys.cache.policy = policy;
                cycles.push(
                    p.try_sim_with(&Config::enzyme(8192), &sys, false)
                        .expect("enzyme configs always trace")
                        .cycles,
                );
            }
            rp.row(vec![
                p.bench.name.into(),
                cycles[0].to_string(),
                cycles[1].to_string(),
                format!("{:.2}", cycles[1] as f64 / cycles[0] as f64),
            ]);
        }
        rp.note("no policy choice rescues the cache from tape traffic (paper Obs 1.3)");

        // (d) Pass 5 tape compression: delta/width-narrowed tape slots
        // vs the uncompressed build at the paper-baseline configuration.
        let mut tc = Table::new(
            "Ablation D — tape compression (Pass 5, Tflow_32k vs TflowC_32k)",
            &[
                "bench",
                "tape bytes",
                "compressed",
                "elided",
                "narrowed",
                "dram bytes",
                "dram (compressed)",
                "traffic ratio",
            ],
        );
        for p in &mut self.prepared {
            let on_cfg = Config::tapeflow_compressed(32768);
            if !p.ensure_program(&on_cfg) {
                tc.row(vec![p.bench.name.into(), "n/a".into()]);
                continue;
            }
            let enc = p.compiled(&on_cfg).encoding.clone();
            let off = p.sim(&t_cfg(32768), false).dram_bytes();
            let on = p.sim(&on_cfg, false).dram_bytes();
            let (before, after, elided, narrowed) = enc
                .map(|e| {
                    (
                        e.bytes_before,
                        e.bytes_after,
                        e.elided_slots,
                        e.narrowed_slots,
                    )
                })
                .unwrap_or_default();
            tc.row(vec![
                p.bench.name.into(),
                before.to_string(),
                after.to_string(),
                elided.to_string(),
                narrowed.to_string(),
                off.to_string(),
                on.to_string(),
                format!("{:.2}", on as f64 / off.max(1) as f64),
            ]);
        }
        tc.note(
            "input-copy slots rematerialize from REV ordinals; slots with a proven \
             integer or quantized-float range (seeded by declared input ranges, \
             re-proved by value-range analysis) narrow to 1-4 B",
        );
        vec![pol, db, rp, tc]
    }

    /// The canonical per-benchmark configuration sweep reported in the
    /// machine-readable results document (and timed by perfbench's
    /// `sweep` workload, so the host-throughput numbers describe the
    /// sweep CI actually regenerates).
    pub fn json_configs() -> Vec<Config> {
        vec![
            Config::enzyme(1024),
            Config::enzyme(2048),
            Config::enzyme(8192),
            Config::enzyme(32768),
            Config::enzyme(131072),
            t_cfg(1024),
            t_cfg(2048),
            t_cfg(32768),
            Config::tapeflow_compressed(32768),
            Config::AosOnCache { cache_bytes: 4096 },
        ]
    }

    /// Machine-readable results: every benchmark simulated under the
    /// canonical configuration sweep (cycles, hit rates, DRAM traffic,
    /// energy — see [`tapeflow_sim::SimReport::to_json`]). The sweep is
    /// warmed through the parallel pool first; the document itself is
    /// assembled serially in registry order, so its bytes are identical
    /// for any job count.
    pub fn json_report(&mut self) -> Value {
        self.json_report_with(false, false)
    }

    /// [`Lab::json_report`], optionally folding a per-cause stall
    /// breakdown into every feasible configuration entry (`stalls` key,
    /// [`tapeflow_sim::CycleBreakdown::summary_json`]). Breakdowns are a
    /// pure function of the trace and system configuration — all cycle
    /// counters, no wall clock — so the document stays byte-identical
    /// at any `--jobs` count with no `--stable-json` scrubbing.
    ///
    /// `hot_spots` additionally folds the per-benchmark source-level
    /// hot-spot rows (`hot_spots` key, [`crate::attr::rows_json`] of the
    /// [`HOT_SPOT_TOP`] heaviest instructions) into every feasible
    /// entry — also pure cycle counters joined against static IR, so
    /// equally byte-stable.
    pub fn json_report_with(&mut self, stalls: bool, hot_spots: bool) -> Value {
        let configs = Self::json_configs();
        let items: Vec<SimItem> = configs.iter().map(|c| std_item(*c, false)).collect();
        self.warm_items(&WarmPlan {
            prep: vec![],
            items,
            variants: vec![],
        });
        // Stall breakdowns and hot spots re-run each simulation under
        // the attribution probe; prepare every program (warm_items is a
        // no-op with one job), fan the probed runs out over read-only
        // state like the warm-up, and look them up during the serial
        // assembly below.
        let work: Vec<(usize, usize)> = (0..self.prepared.len())
            .flat_map(|bi| (0..configs.len()).map(move |ci| (bi, ci)))
            .collect();
        if stalls || hot_spots {
            for p in &mut self.prepared {
                for c in &configs {
                    let _ = p.ensure_program(c);
                }
            }
        }
        let breakdowns = if stalls {
            let prepared = &self.prepared;
            pool::map_parallel(&work, self.jobs, |_, &(bi, ci)| {
                prepared[bi].stall_breakdown(&configs[ci], &sys_for(&configs[ci]))
            })
        } else {
            Vec::new()
        };
        let spots = if hot_spots {
            let prepared = &self.prepared;
            pool::map_parallel(&work, self.jobs, |_, &(bi, ci)| {
                prepared[bi].hot_spots(&configs[ci], &sys_for(&configs[ci]), HOT_SPOT_TOP)
            })
        } else {
            Vec::new()
        };
        let mut benches = Vec::new();
        for (bi, p) in self.prepared.iter_mut().enumerate() {
            let mut per_config = Vec::new();
            for (ci, c) in configs.iter().enumerate() {
                let mut entry = Value::object();
                entry.set("config", c.label());
                match p.try_sim(c, false) {
                    Some(r) => {
                        entry.set("feasible", true);
                        entry.set("report", r.to_json());
                        if stalls {
                            if let Some(bd) = &breakdowns[bi * configs.len() + ci] {
                                entry.set("stalls", bd.summary_json());
                            }
                        }
                        if hot_spots {
                            if let Some(rows) = &spots[bi * configs.len() + ci] {
                                entry.set(
                                    "hot_spots",
                                    Value::Arr(crate::attr::rows_json(rows, HOT_SPOT_TOP)),
                                );
                            }
                        }
                    }
                    None => {
                        entry.set("feasible", false);
                    }
                }
                per_config.push(entry);
            }
            let mut b = Value::object();
            b.set("name", p.bench.name)
                .set("tape_elems", p.grad.tape_elems())
                .set("compression", compression_json(p))
                .set("lint", lint_json(p))
                .set("configs", Value::Arr(per_config));
            benches.push(b);
        }
        let mut doc = Value::object();
        doc.set("scale", format!("{:?}", self.scale))
            .set("benchmarks", Value::Arr(benches));
        doc
    }

    /// Aggregate per-pass compile wall time across every prepared
    /// benchmark and variant: pass name → (runs, total wall). Key order
    /// is deterministic (BTreeMap); the times themselves are wall clock
    /// and must stay out of result bytes (the experiments binary zeroes
    /// them under `--stable-json`).
    pub fn pass_wall_totals(&self) -> BTreeMap<&'static str, (u64, Duration)> {
        let mut out: BTreeMap<&'static str, (u64, Duration)> = BTreeMap::new();
        let states = self
            .prepared
            .iter()
            .chain(self.variants.iter().filter_map(|(_, r)| r.as_ref().ok()));
        for p in states {
            for (name, (runs, wall)) in p.pass_wall() {
                let slot = out.entry(name).or_insert((0, Duration::ZERO));
                slot.0 += *runs;
                slot.1 += *wall;
            }
        }
        out
    }
}

/// What Pass 5 (`tape-compress`) does to the benchmark's tape at the
/// `TflowC_32k` configuration; `feasible: false` when that build cannot
/// compile.
fn compression_json(p: &mut Prepared) -> Value {
    let mut o = Value::object();
    let cfg = Config::tapeflow_compressed(32768);
    if !p.ensure_program(&cfg) {
        o.set("feasible", false);
        return o;
    }
    o.set("feasible", true);
    match &p.compiled(&cfg).encoding {
        Some(e) => {
            o.set("elided_slots", e.elided_slots)
                .set("narrowed_slots", e.narrowed_slots)
                .set("tape_bytes_before", e.bytes_before)
                .set("tape_bytes_after", e.bytes_after);
        }
        None => {
            o.set("elided_slots", 0usize)
                .set("narrowed_slots", 0usize)
                .set("tape_bytes_before", 0u64)
                .set("tape_bytes_after", 0u64);
        }
    }
    o
}

/// Lint summary for the paper-baseline compilation: error/warning counts
/// plus a per-rule breakdown, deterministically ordered by rule name.
/// `feasible: false` when the 1 KB baseline cannot compile the benchmark.
fn lint_json(p: &mut Prepared) -> Value {
    let mut o = Value::object();
    match p.lint_findings() {
        Some(diags) => {
            let (errors, warnings) = tapeflow_ir::lint::counts(&diags);
            o.set("feasible", true)
                .set("errors", errors)
                .set("warnings", warnings);
            let mut rules: BTreeMap<&'static str, usize> = BTreeMap::new();
            for d in &diags {
                *rules.entry(d.rule).or_insert(0) += 1;
            }
            let mut rv = Value::object();
            for (rule, n) in rules {
                rv.set(rule, n);
            }
            o.set("rules", rv);
        }
        None => {
            o.set("feasible", false);
        }
    }
    o
}

/// Table 2.1: the qualitative framework comparison (static).
fn table2_1() -> Table {
    let mut t = Table::new(
        "Table 2.1 — Tapeflow vs SOTA frameworks (qualitative, from the paper)",
        &[
            "axis",
            "DNN training",
            "DSLs",
            "Diff. libraries",
            "Enzyme",
            "Tapeflow",
        ],
    );
    let rows: [[&str; 6]; 8] = [
        [
            "domain",
            "DNNs/ML",
            "physics/img",
            "dataflow",
            "general",
            "general",
        ],
        [
            "operators",
            "fixed kernels",
            "arbitrary",
            "lib-specific",
            "arbitrary",
            "arbitrary",
        ],
        [
            "access flexibility",
            "low",
            "high",
            "FIFO-only",
            "high",
            "high",
        ],
        [
            "tape allocation",
            "compiler",
            "user",
            "compiler",
            "compiler",
            "compiler",
        ],
        [
            "alloc granularity",
            "tensor",
            "array",
            "element",
            "array",
            "regions",
        ],
        [
            "tape orchestration",
            "varies",
            "implicit",
            "implicit",
            "implicit",
            "explicit",
        ],
        [
            "tape layout",
            "tensors (SoA)",
            "SoA",
            "FIFO",
            "arrays (SoA)",
            "struct (AoS)",
        ],
        [
            "memory hierarchy",
            "flexible",
            "cache",
            "cache",
            "cache",
            "scratchpad",
        ],
    ];
    for r in rows {
        t.row(r.iter().map(|s| s.to_string()).collect());
    }
    t
}

/// Table 4.2: the simulated system configuration.
fn table4_2() -> Table {
    let cfg = SystemConfig::baseline_32k();
    let mut t = Table::new(
        "Table 4.2 — system configuration",
        &["component", "setting"],
    );
    t.row(vec![
        "datapath".into(),
        format!(
            "16 PEs (dual FPU): {} fp/cyc, {} int/cyc; lat alu {} mul {} long {}",
            cfg.pe.fp_issue,
            cfg.pe.int_issue,
            cfg.pe.fp_alu_latency,
            cfg.pe.fp_mul_latency,
            cfg.pe.fp_long_latency
        ),
    ]);
    t.row(vec![
        "cache (baseline)".into(),
        format!(
            "{} KB, {}-way, {} B lines, {} ports, {} MSHRs, hit {} cyc",
            cfg.cache.size_bytes / 1024,
            cfg.cache.assoc,
            cfg.cache.line_bytes,
            cfg.cache.ports,
            cfg.cache.mshrs,
            cfg.cache.hit_latency
        ),
    ]);
    t.row(vec![
        "scratchpad".into(),
        format!(
            "1 KB: {} banks, latency {} cyc",
            cfg.spad.banks, cfg.spad.latency
        ),
    ]);
    t.row(vec![
        "dram".into(),
        format!(
            "{} B/cyc (19.2 GB/s @ 2 GHz), latency {} cyc",
            cfg.dram.bytes_per_cycle, cfg.dram.latency
        ),
    ]);
    let sizes = [1024, 2048, 4096, 8192, 16384, 32768, 65536, 131072];
    let energies: Vec<String> = sizes
        .iter()
        .map(|&s| format!("{}k:{:.0}", s / 1024, EnergyTable::cache_pj(s)))
        .collect();
    t.row(vec!["cache energy (pJ/access)".into(), energies.join(" ")]);
    t.row(vec![
        "spad/stream/dram energy".into(),
        format!(
            "{:.0} pJ/entry, {:.0} pJ/elem, {:.0} pJ/B",
            cfg.energy.spad_pj, cfg.energy.stream_elem_pj, cfg.energy.dram_pj_per_byte
        ),
    ]);
    t
}

/// Max distinct arrays touched by any single loop body (Table 4.1's
/// tensors-per-loop column).
fn max_arrays_per_loop(b: &Benchmark) -> usize {
    use tapeflow_ir::{Op, Stmt};
    fn arrays_in(
        func: &tapeflow_ir::Function,
        stmts: &[Stmt],
        set: &mut Vec<tapeflow_ir::ArrayId>,
    ) {
        for s in stmts {
            match s {
                Stmt::Inst(i) => {
                    if let Op::Load(a) | Op::Store(a) = func.inst(*i).op {
                        if !set.contains(&a) {
                            set.push(a);
                        }
                    }
                }
                Stmt::For { body, .. } => arrays_in(func, body, set),
            }
        }
    }
    fn walk(func: &tapeflow_ir::Function, stmts: &[Stmt], best: &mut usize) {
        for s in stmts {
            if let Stmt::For { body, .. } = s {
                let mut set = Vec::new();
                arrays_in(func, body, &mut set);
                *best = (*best).max(set.len());
                walk(func, body, best);
            }
        }
    }
    let mut best = 0;
    walk(&b.func, &b.func.body, &mut best);
    best
}

fn pathfinder_sized(rows: usize, cols: usize) -> Benchmark {
    tapeflow_benchmarks::pathfinder_sized(rows, cols)
}

/// Fig 4.9's grid sweep: pathfinder scaled so the tape working set is
/// ~0.5x / 1x / 4x of the 32 KB cache (~5 tape slots per grid cell at
/// 8 B each; see pathfinder docs).
fn fig4_9_grids() -> [(&'static str, VariantSpec); 3] {
    [
        ("0.5x", 16 * 1024 / 40),
        ("1x", 32 * 1024 / 40),
        ("4x", 131072 / 40),
    ]
    .map(|(label, cells)| {
        let rows = (cells as f64).sqrt() as usize;
        let cols = cells / rows.max(1);
        (
            label,
            VariantSpec::PathfinderSized {
                rows: rows.max(2),
                cols: cols.max(4),
            },
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_experiment_runs_at_tiny_scale() {
        let mut lab = Lab::new(Scale::Tiny);
        for id in IDS {
            let tables = lab.run(id);
            assert!(!tables.is_empty(), "{id}");
            for t in tables {
                let text = t.render();
                assert!(text.contains("=="), "{id}");
            }
        }
    }

    #[test]
    fn arrays_per_loop_counts() {
        let b = by_name("matdescent", Scale::Tiny);
        // inner loop touches A, x and the row cell; outer adds b and loss.
        assert!(max_arrays_per_loop(&b) >= 3);
    }
}
