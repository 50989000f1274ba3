//! Tiny-scale smoke runs of all three workloads.

use tapeflow_perfbench::{result_line, run, Outcome, RunConfig, Workload, END_TO_END, PER_LAYER};
use tapeflow_sim::json::Value;

fn tiny(workload: Workload, trace: bool, inject_mismatch: bool) -> Outcome {
    run(&RunConfig {
        workload,
        seed: 11,
        seconds: 0.0,
        trace,
        tiny: true,
        inject_mismatch,
    })
}

/// Metrics that depend only on the seed, never on the clock.
fn exact(o: &Outcome) -> Vec<(&'static str, f64)> {
    o.metrics
        .iter()
        .filter(|m| {
            matches!(m.unit, "count" | "bytes")
                || matches!(
                    m.name,
                    "tflow_speedup_geomean"
                        | "tflow_dram_mb"
                        | "tflow_energy_uj"
                        | "tape_kb"
                        | "error_rate"
                )
        })
        .map(|m| (m.name, m.value))
        .collect()
}

#[test]
fn every_metric_prints_with_its_unit() {
    for w in Workload::ALL {
        for (trace, catalogue) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let o = tiny(w, trace, false);
            assert!(o.correct, "{w:?}: {:?}", o.wrong_outputs);
            assert!(o.attempted > 0);
            let got: Vec<_> = o.metrics.iter().map(|m| (m.name, m.unit)).collect();
            assert_eq!(got, catalogue, "{w:?} trace={trace}");
            let line = Value::parse(&result_line(&o)).expect("result line is JSON");
            let Value::Obj(keys) = &line else {
                panic!("result line is not an object")
            };
            let keys: Vec<_> = keys.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let metrics = line.get("metrics").expect("metrics");
            for (name, unit) in catalogue {
                let m = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{name} missing"));
                assert_eq!(m.get("unit").and_then(Value::as_str), Some(*unit));
                let v = m.get("value").and_then(Value::as_f64).expect("numeric");
                assert!(v.is_finite());
                if !trace {
                    assert!(v > 0.0, "{w:?}: end-to-end {name} reads 0");
                }
            }
            assert_eq!(o.trace_doc.is_some(), trace);
        }
    }
}

#[test]
fn seed_determined_metrics_repeat_exactly() {
    for w in Workload::ALL {
        let a = tiny(w, true, false);
        let b = tiny(w, true, false);
        let (ea, eb) = (exact(&a), exact(&b));
        assert!(ea.len() >= 20, "{w:?}: too few exact metrics");
        assert_eq!(ea, eb, "{w:?}");
    }
}

#[test]
fn injected_gradient_mismatch_raises_the_error_rate() {
    for w in [Workload::Cold, Workload::Analyze] {
        let clean = tiny(w, false, false);
        let broken = tiny(w, false, true);
        let rate = |o: &Outcome| o.failed as f64 / o.attempted as f64;
        assert!(
            rate(&broken) > rate(&clean),
            "{w:?}: {} of {} failed with a flipped gradient bit",
            broken.failed,
            broken.attempted
        );
        assert!(!broken.correct, "{w:?}");
        assert!(broken.wrong_outputs.iter().any(|s| s.contains("gradient")));
    }
}

#[test]
fn benchmark_json_names_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = Value::parse(&text).expect("BENCHMARK.json parses");
    let listed = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Value::as_arr)
            .expect(key)
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
                (s("name"), s("unit"))
            })
            .collect()
    };
    let own = |c: &[(&str, &str)]| -> Vec<(String, String)> {
        c.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), own(&END_TO_END));
    assert_eq!(listed("per_layer"), own(&PER_LAYER));
    let workloads: Vec<_> = doc
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    let ours: Vec<_> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);
}
