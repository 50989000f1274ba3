//! Source-level hot-spot resolution: joining a per-instruction cycle
//! breakdown ([`tapeflow_sim::InstBreakdown`]) against the simulated
//! function's IR and provenance records.
//!
//! The probe layer only knows trace nodes and instruction indices; this
//! module turns those into rows a person can read — which *source* op
//! (via the [`tapeflow_ir::Provenance`] chain the passes maintain), in
//! which tape region and layer, behind which rewrite — and renders them
//! as a hot-spot table, collapsed-stack flamegraph lines
//! (`frames... count`, loadable in speedscope / inferno / flamegraph.pl)
//! and machine-readable JSON. Shared by `tapeflow profile --by-inst` and
//! `experiments --hot-spots`.

use std::collections::BTreeMap;
use tapeflow_ir::{ArrayKind, Function, Op};
use tapeflow_sim::json::Value;
use tapeflow_sim::{InstBreakdown, StallKind};

/// Number of attribution causes (mirrors `StallKind::ALL`).
const KINDS: usize = StallKind::ALL.len();

/// One resolved per-instruction attribution row.
#[derive(Clone, Debug)]
pub struct InstAttr {
    /// Instruction index in the simulated function; `None` for the
    /// probe's unattributed residue (cycles no instruction carries).
    pub inst: Option<usize>,
    /// Label of the instruction's own op (`tape.load`, `fmul`, ...).
    pub op: String,
    /// Originating source-level instruction, when provenance carries one.
    pub source_inst: Option<usize>,
    /// Label of that source op, resolved in the source function.
    pub source_op: Option<String>,
    /// Tape region the instruction was placed in.
    pub region: Option<u32>,
    /// Layer / segment within the region.
    pub layer: Option<u32>,
    /// Pass that created the instruction (`"source"`, `"ad"`, ...).
    pub created_by: &'static str,
    /// Last structural rewrite recorded on the provenance chain.
    pub rewritten_by: Option<&'static str>,
    /// PE-cycles per cause, in [`StallKind::ALL`] order.
    pub units: [u64; KINDS],
    /// Total PE-cycles charged to this instruction.
    pub total: u64,
}

impl InstAttr {
    /// The cause this row spends most PE-cycles on (ties resolve to the
    /// higher-priority cause, i.e. earlier in [`StallKind::ALL`]).
    pub fn top_kind(&self) -> StallKind {
        let mut best = 0;
        for (ki, &u) in self.units.iter().enumerate() {
            if u > self.units[best] {
                best = ki;
            }
        }
        StallKind::ALL[best]
    }

    /// PE-cycles charged to `kind`.
    pub fn get(&self, kind: StallKind) -> u64 {
        self.units[StallKind::ALL.iter().position(|k| *k == kind).unwrap()]
    }
}

/// A short human label for `op` in `f`: cache-backed tape accesses (the
/// Enzyme baseline's `load`/`store` on [`ArrayKind::Tape`] arrays) and
/// the lowered `tape.*` ops all read as `tape.load`/`tape.store`; other
/// array accesses name their array; everything else is the bare
/// mnemonic.
pub fn op_label(f: &Function, op: &Op) -> String {
    match op {
        Op::Load(a) | Op::Store(a) => {
            let d = f.array(*a);
            let what = if matches!(op, Op::Load(_)) {
                "load"
            } else {
                "store"
            };
            if d.kind == ArrayKind::Tape {
                format!("tape.{what}")
            } else {
                format!("{what} {}", d.name)
            }
        }
        Op::TapeLoad { .. } => "tape.load".into(),
        Op::TapeStore { .. } => "tape.store".into(),
        other => other
            .mnemonic()
            .split_whitespace()
            .next()
            .unwrap_or("?")
            .to_string(),
    }
}

/// Joins `bd` against `func`'s IR and provenance into resolved rows,
/// sorted by descending PE-cycles (ties by instruction index, the
/// unattributed row last). Zero rows are dropped. `source` is the
/// function provenance `source` ids index into (the pass chain's
/// starting function); rows whose provenance says `created_by ==
/// "source"` self-reference `func` instead.
pub fn resolve(func: &Function, source: Option<&Function>, bd: &InstBreakdown) -> Vec<InstAttr> {
    let n = bd.insts();
    let mut rows = Vec::new();
    for (i, units) in bd.rows.iter().enumerate() {
        let total: u64 = units.iter().sum();
        if total == 0 {
            continue;
        }
        if i >= n || i >= func.insts().len() {
            rows.push(InstAttr {
                inst: None,
                op: "(unattributed)".into(),
                source_inst: None,
                source_op: None,
                region: None,
                layer: None,
                created_by: "",
                rewritten_by: None,
                units: *units,
                total,
            });
            continue;
        }
        let p = func.provs()[i];
        let sf = if p.created_by == "source" {
            Some(func)
        } else {
            source
        };
        let source_op = p.source.and_then(|sid| {
            sf.and_then(|sf| sf.insts().get(sid.index()))
                .map(|inst| op_label(sf.unwrap(), &inst.op))
        });
        rows.push(InstAttr {
            inst: Some(i),
            op: op_label(func, &func.insts()[i].op),
            source_inst: p.source.map(|s| s.index()),
            source_op,
            region: p.region,
            layer: p.layer,
            created_by: p.created_by,
            rewritten_by: p.rewritten_by,
            units: *units,
            total,
        });
    }
    rows.sort_by(|a, b| {
        b.total.cmp(&a.total).then_with(|| {
            a.inst
                .unwrap_or(usize::MAX)
                .cmp(&b.inst.unwrap_or(usize::MAX))
        })
    });
    rows
}

/// The hot-spot table: the `top` heaviest rows of `rows`, with their
/// share of `budget` (the breakdown's `cycles * PEs`), the tape-miss
/// share, and the dominant cause.
pub fn render_hot_spots(label: &str, rows: &[InstAttr], budget: u64, top: usize) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let shown = rows.len().min(top);
    let _ = writeln!(
        out,
        "=== hot spots: {label} (top {shown} of {} rows, PE-cycles) ===",
        rows.len()
    );
    let _ = writeln!(
        out,
        "{:<5} {:<6} {:<4} {:<4} {:<18} {:<14} {:>12} {:>7} {:>10}  top cause",
        "rank", "inst", "rgn", "lyr", "source", "op", "PE-cycles", "%", "tape-miss"
    );
    for (rank, r) in rows.iter().take(top).enumerate() {
        let inst = r.inst.map_or("-".into(), |i| format!("i{i}"));
        let rgn = r.region.map_or("-".into(), |x| format!("R{x}"));
        let lyr = r.layer.map_or("-".into(), |x| format!("L{x}"));
        let src = r.source_op.as_deref().unwrap_or("-");
        let pct = if budget == 0 {
            0.0
        } else {
            r.total as f64 / budget as f64 * 100.0
        };
        let tape = r.get(StallKind::TapeMissStall);
        let top_kind = r.top_kind();
        let share = r.get(top_kind) as f64 / r.total as f64 * 100.0;
        let _ = writeln!(
            out,
            "{:<5} {inst:<6} {rgn:<4} {lyr:<4} {src:<18} {:<14} {:>12} {pct:>6.1}% {tape:>10}  {} ({share:.0}%)",
            rank + 1,
            r.op,
            r.total,
            top_kind.label(),
        );
    }
    out
}

/// A frame component must not contain the collapsed-stack separators.
fn frame(s: &str) -> String {
    s.replace([' ', ';'], "_")
}

/// Collapsed-stack flamegraph lines (`root;Rr;Ll;source;op count`),
/// aggregated over `rows` and sorted for byte-stable output. Unknown
/// region/layer render as `R*`/`L*`.
pub fn flame_lines(root: &str, rows: &[InstAttr]) -> Vec<String> {
    let mut agg: BTreeMap<String, u64> = BTreeMap::new();
    for r in rows {
        let rgn = r.region.map_or("R*".into(), |x| format!("R{x}"));
        let lyr = r.layer.map_or("L*".into(), |x| format!("L{x}"));
        let src = frame(r.source_op.as_deref().unwrap_or("-"));
        let stack = format!("{};{rgn};{lyr};{src};{}", frame(root), frame(&r.op));
        *agg.entry(stack).or_insert(0) += r.total;
    }
    agg.into_iter().map(|(k, v)| format!("{k} {v}")).collect()
}

/// The `top` heaviest rows as JSON objects (schema: the per-inst section
/// of `tapeflow.cli.profile/v2`). Zero-valued causes are omitted from
/// each row's `stalls` object.
pub fn rows_json(rows: &[InstAttr], top: usize) -> Vec<Value> {
    rows.iter()
        .take(top)
        .map(|r| {
            let mut o = Value::object();
            o.set("inst", r.inst.map_or(Value::Null, Value::from))
                .set("op", r.op.as_str())
                .set(
                    "source_inst",
                    r.source_inst.map_or(Value::Null, Value::from),
                )
                .set(
                    "source_op",
                    r.source_op.as_deref().map_or(Value::Null, Value::from),
                )
                .set(
                    "region",
                    r.region.map_or(Value::Null, |x| Value::from(x as u64)),
                )
                .set(
                    "layer",
                    r.layer.map_or(Value::Null, |x| Value::from(x as u64)),
                )
                .set("created_by", r.created_by)
                .set(
                    "rewritten_by",
                    r.rewritten_by.map_or(Value::Null, Value::from),
                )
                .set("total_pe_cycles", r.total);
            let mut s = Value::object();
            for (ki, k) in StallKind::ALL.iter().enumerate() {
                if r.units[ki] > 0 {
                    s.set(k.key(), r.units[ki]);
                }
            }
            o.set("stalls", s);
            o
        })
        .collect()
}

/// A provenance census of `func`: instruction counts per creating and
/// rewriting pass, plus how many records carry source / region / layer
/// links (the `provenance` section of `tapeflow.cli.profile/v2`).
pub fn provenance_json(func: &Function) -> Value {
    let mut created: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut rewritten: BTreeMap<&'static str, u64> = BTreeMap::new();
    let (mut with_source, mut with_region, mut with_layer) = (0u64, 0u64, 0u64);
    for p in func.provs() {
        *created.entry(p.created_by).or_insert(0) += 1;
        if let Some(rw) = p.rewritten_by {
            *rewritten.entry(rw).or_insert(0) += 1;
        }
        with_source += u64::from(p.source.is_some());
        with_region += u64::from(p.region.is_some());
        with_layer += u64::from(p.layer.is_some());
    }
    let mut c = Value::object();
    for (k, v) in created {
        c.set(k, v);
    }
    let mut rw = Value::object();
    for (k, v) in rewritten {
        rw.set(k, v);
    }
    let mut o = Value::object();
    o.set("insts", func.insts().len())
        .set("created_by", c)
        .set("rewritten_by", rw)
        .set("with_source", with_source)
        .set("with_region", with_region)
        .set("with_layer", with_layer);
    o
}

#[cfg(test)]
mod tests {
    use super::*;
    use tapeflow_ir::trace::{trace_function, TraceOptions};
    use tapeflow_ir::{FunctionBuilder, Memory, Scalar};
    use tapeflow_sim::{
        simulate_prepared_probed, AttributionProbe, PreparedSim, SimOptions, SystemConfig,
    };

    fn probed_rows() -> (Function, Vec<InstAttr>, u64) {
        let mut b = FunctionBuilder::new("t");
        let x = b.array("x", 64, ArrayKind::Input, Scalar::F64);
        let y = b.array("y", 64, ArrayKind::Output, Scalar::F64);
        b.for_loop("i", 0, 64, |b, i| {
            let xi = b.load(x, i);
            let e = b.exp(xi);
            b.store(y, i, e);
        });
        let f = b.finish();
        let mut mem = Memory::for_function(&f);
        mem.set_f64(x, &vec![0.5; 64]);
        let trace = trace_function(&f, &mut mem, TraceOptions::default()).unwrap();
        let mut probe = AttributionProbe::with_inst_map(trace.insts(), f.insts().len());
        simulate_prepared_probed(
            &PreparedSim::new(&trace).unwrap(),
            &SystemConfig::with_cache_bytes(1024),
            &SimOptions::default(),
            &mut probe,
        );
        let (bd, inst_bd) = probe.into_parts();
        let rows = resolve(&f, None, &inst_bd.unwrap());
        (f, rows, bd.total_units())
    }

    #[test]
    fn resolve_names_source_ops_and_orders_by_weight() {
        let (_, rows, budget) = probed_rows();
        assert!(!rows.is_empty());
        assert!(rows.windows(2).all(|w| w[0].total >= w[1].total));
        // Source IR self-stamps: every attributed inst resolves a source op.
        for r in rows.iter().filter(|r| r.inst.is_some()) {
            assert_eq!(r.created_by, "source");
            assert!(r.source_op.is_some(), "row {:?} lost its source", r.inst);
        }
        assert!(rows.iter().any(|r| r.op.starts_with("load ")));
        let total: u64 = rows.iter().map(|r| r.total).sum();
        assert_eq!(total, budget, "rows partition the attribution budget");
    }

    #[test]
    fn flame_lines_are_wellformed_and_conserve_cycles() {
        let (_, rows, budget) = probed_rows();
        let lines = flame_lines("Test", &rows);
        assert!(!lines.is_empty());
        let mut sum = 0u64;
        for l in &lines {
            let (stack, count) = l.rsplit_once(' ').expect("count separator");
            assert_eq!(stack.split(';').count(), 5, "frame depth in {l:?}");
            assert!(stack.split(';').all(|f| !f.is_empty() && !f.contains(' ')));
            sum += count.parse::<u64>().expect("numeric count");
        }
        assert_eq!(sum, budget);
    }

    #[test]
    fn hot_spot_table_and_json_cover_top_rows() {
        let (f, rows, budget) = probed_rows();
        let table = render_hot_spots("Test", &rows, budget, 3);
        assert!(table.contains("hot spots: Test"));
        assert!(table.lines().count() <= 2 + 3);
        let js = rows_json(&rows, 3);
        assert!(js.len() <= 3);
        assert!(js[0].get("stalls").is_some());
        let census = provenance_json(&f);
        assert_eq!(
            census.get("insts").and_then(Value::as_u64),
            Some(f.insts().len() as u64)
        );
    }
}
