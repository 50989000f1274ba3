//! End-to-end tests for `tapeflow profile`: the stall-breakdown table is
//! pinned as a golden snapshot (regenerate with `BLESS=1 cargo test
//! --test profile_cli`), and the `--trace-out` Chrome trace must be
//! structurally valid — parseable JSON, complete "X" events, and
//! monotonic timestamps within every (pid, tid) track, which is what
//! chrome://tracing and Perfetto require to render it.
//!
//! `validates_trace_file_from_env` re-runs the same validator against an
//! externally produced file named by `TAPEFLOW_TRACE_VALIDATE`; `ci.sh`
//! uses it to vet the trace its smoke run emits.

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::Command;
use tapeflow::sim::json::Value;

fn target_tmp(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).expect("create target tmpdir");
    dir.join(name)
}

fn run_profile(extra: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_tapeflow"))
        .arg("profile")
        .arg("programs/sumexp.tf")
        .args(["--wrt", "x", "--loss", "loss"])
        .args(extra)
        .output()
        .expect("run tapeflow profile")
}

fn run_profile_pathfinder(extra: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_tapeflow"))
        .arg("profile")
        .arg("programs/pathfinder_mini.tf")
        .args(["--wrt", "w,src", "--loss", "loss"])
        .args(extra)
        .output()
        .expect("run tapeflow profile")
}

/// Runs twice (catching nondeterminism), asserts success, and compares
/// stdout against the golden snapshot at `path` (`BLESS=1` regenerates).
fn assert_golden(path: &str, run: impl Fn() -> std::process::Output) {
    let runs: Vec<String> = (0..2)
        .map(|_| {
            let out = run();
            assert!(
                out.status.success(),
                "profile failed: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            String::from_utf8(out.stdout).expect("utf-8 stdout")
        })
        .collect();
    assert_eq!(runs[0], runs[1], "profile output differs across runs");
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(path, &runs[0]).unwrap();
        return;
    }
    let want = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("{path}: {e} (regenerate with BLESS=1)"));
    assert_eq!(
        runs[0], want,
        "profile table drifted from {path} \
         (intentional? regenerate with BLESS=1 cargo test --test profile_cli)"
    );
}

#[test]
fn profile_sumexp_table_is_golden() {
    assert_golden("tests/golden/profile_sumexp.txt", || run_profile(&[]));
}

#[test]
fn profile_by_inst_sumexp_table_is_golden() {
    assert_golden("tests/golden/profile_by_inst_sumexp.txt", || {
        run_profile(&["--by-inst", "--top", "8"])
    });
}

#[test]
fn profile_by_inst_pathfinder_mini_table_is_golden() {
    assert_golden("tests/golden/profile_by_inst_pathfinder_mini.txt", || {
        run_profile_pathfinder(&["--by-inst", "--top", "8"])
    });
}

/// The paper's headline attribution claim, independent of the golden
/// snapshot: on the irregular pathfinder kernel the hot-spot table must
/// name a tape access whose dominant cost is tape cache misses.
#[test]
fn by_inst_names_tape_access_with_tape_miss_share() {
    let json_path = target_tmp("pathfinder_by_inst.json");
    let out = run_profile_pathfinder(&[
        "--by-inst",
        "--top",
        "10",
        "--json",
        json_path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "profile failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = Value::parse(&std::fs::read_to_string(&json_path).expect("json written"))
        .expect("profile JSON parses");
    assert_eq!(
        doc.get("schema").and_then(Value::as_str),
        Some("tapeflow.cli.profile/v2"),
        "schema"
    );
    let insts = doc
        .get("enzyme")
        .and_then(|v| v.get("insts"))
        .and_then(Value::as_arr)
        .expect("enzyme insts array");
    let tape_miss_key = tapeflow::sim::StallKind::TapeMissStall.key();
    let hit = insts.iter().any(|row| {
        let op = row.get("op").and_then(Value::as_str).unwrap_or("");
        let miss = row
            .get("stalls")
            .and_then(|s| s.get(tape_miss_key))
            .and_then(Value::as_u64)
            .unwrap_or(0);
        op.starts_with("tape.") && miss > 0
    });
    assert!(
        hit,
        "no tape.load/tape.store row with nonzero tape-miss cycles in top 10"
    );
    // Every listed instruction resolves through provenance: a source op
    // for pass-created insts, or a self-referential source line.
    for row in insts {
        assert!(
            row.get("created_by").and_then(Value::as_str).is_some()
                || row.get("op").and_then(Value::as_str) == Some("(unattributed)"),
            "row without provenance: {}",
            row.render()
        );
    }
}

/// The v2 JSON document carries the provenance census and per-inst
/// stall objects that sum exactly to each row's total.
#[test]
fn json_v2_provenance_and_inst_rows_are_consistent() {
    let json_path = target_tmp("sumexp_by_inst.json");
    let out = run_profile(&["--by-inst", "--json", json_path.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "profile failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = Value::parse(&std::fs::read_to_string(&json_path).expect("json written"))
        .expect("profile JSON parses");
    for variant in ["enzyme", "tapeflow"] {
        let v = doc.get(variant).expect("variant section");
        let prov = v.get("provenance").expect("provenance census");
        assert!(
            prov.get("insts").and_then(Value::as_u64).unwrap_or(0) > 0,
            "{variant}: empty provenance census"
        );
        assert!(
            prov.get("created_by").is_some(),
            "{variant}: census misses created_by"
        );
        let insts = v.get("insts").and_then(Value::as_arr).expect("insts rows");
        assert!(!insts.is_empty(), "{variant}: no inst rows");
        let mut prev = u64::MAX;
        for row in insts {
            let total = row
                .get("total_pe_cycles")
                .and_then(Value::as_u64)
                .expect("total_pe_cycles");
            assert!(total <= prev, "{variant}: rows not sorted by cost");
            prev = total;
            let stalls = row.get("stalls").expect("per-row stalls");
            let sum: u64 = tapeflow::sim::StallKind::ALL
                .iter()
                .filter_map(|k| stalls.get(k.key()).and_then(Value::as_u64))
                .sum();
            assert_eq!(sum, total, "{variant}: stall object doesn't sum to total");
        }
    }
    // The tapeflow variant went through the pass pipeline, so its
    // census must attribute instructions to compiler passes.
    let created = doc
        .get("tapeflow")
        .and_then(|v| v.get("provenance"))
        .and_then(|p| p.get("created_by"))
        .expect("tapeflow created_by");
    assert!(
        created.get("streams").and_then(Value::as_u64).unwrap_or(0) > 0,
        "streams pass created no instructions?"
    );
}

#[test]
fn trace_out_emits_a_valid_chrome_trace() {
    let trace_path = target_tmp("profile_sumexp_trace.json");
    let out = run_profile(&["--trace-out", trace_path.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "profile --trace-out failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&trace_path).expect("trace file written");
    let names = validate_chrome_trace(&text);
    // Both variants and every engine kind show up in a sumexp profile.
    for expected in [
        "fp-alu",
        "int",
        "hit",
        "miss",
        "stream-in",
        "stream-out",
        "spad",
    ] {
        assert!(
            names.contains(&expected.to_string()),
            "trace misses {expected:?} events (has: {names:?})"
        );
    }
}

/// A sampled timeline must stay a structurally valid Chrome trace, be
/// byte-identical across runs (fixed windows, not RNG), and actually
/// drop events relative to the full recording.
#[test]
fn sampled_trace_is_deterministic_valid_and_smaller() {
    let full_path = target_tmp("profile_sumexp_full_trace.json");
    let out = run_profile(&["--trace-out", full_path.to_str().unwrap()]);
    assert!(out.status.success());
    let full_len = std::fs::metadata(&full_path).expect("full trace").len();

    let texts: Vec<String> = (0..2)
        .map(|i| {
            let path = target_tmp(&format!("profile_sumexp_sampled_{i}.json"));
            let out = run_profile(&["--trace-out", path.to_str().unwrap(), "--sample", "8"]);
            assert!(
                out.status.success(),
                "sampled profile failed: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let stderr = String::from_utf8_lossy(&out.stderr).to_string();
            assert!(
                stderr.contains("sampled timeline: 1 in 8 windows"),
                "missing sampling note on stderr: {stderr}"
            );
            std::fs::read_to_string(&path).expect("sampled trace written")
        })
        .collect();
    assert_eq!(texts[0], texts[1], "sampled trace differs across runs");
    assert!(
        (texts[0].len() as u64) < full_len,
        "sampling did not shrink the trace ({} vs {full_len} bytes)",
        texts[0].len()
    );
    validate_chrome_trace(&texts[0]);
    // The sampling parameters ride along as an instant event so a
    // viewer (or a later reader) can tell the timeline has holes.
    let doc = Value::parse(&texts[0]).unwrap();
    let has_meta = doc
        .get("traceEvents")
        .and_then(Value::as_arr)
        .unwrap()
        .iter()
        .any(|e| {
            e.get("name").and_then(Value::as_str) == Some("sampling")
                && e.get("args")
                    .and_then(|a| a.get("stride"))
                    .and_then(Value::as_u64)
                    == Some(8)
        });
    assert!(has_meta, "sampled trace misses the sampling metadata event");
}

/// `--flame-out` emits well-formed collapsed stacks: five `;`-separated
/// frames (root;region;layer;source;op), a positive count, and both
/// variants present as roots.
#[test]
fn flame_out_emits_wellformed_collapsed_stacks() {
    let path = target_tmp("profile_sumexp.folded");
    let out = run_profile(&["--flame-out", path.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "profile --flame-out failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&path).expect("folded file written");
    let mut roots: Vec<&str> = Vec::new();
    let mut lines = 0usize;
    for line in text.lines() {
        lines += 1;
        let (stack, count) = line.rsplit_once(' ').expect("`stack count` shape");
        assert!(count.parse::<u64>().expect("numeric count") > 0, "{line}");
        let frames: Vec<&str> = stack.split(';').collect();
        assert_eq!(frames.len(), 5, "stack depth in {line:?}");
        assert!(
            frames.iter().all(|f| !f.is_empty() && !f.contains(' ')),
            "malformed frame in {line:?}"
        );
        if !roots.contains(&frames[0]) {
            roots.push(frames[0]);
        }
    }
    assert!(lines > 0, "empty flamegraph");
    assert_eq!(roots, ["Enzyme", "Tapeflow"], "variant roots");
}

/// An unwritable output path is a structured usage error (exit 2) caught
/// before any simulation runs, not an io panic afterwards.
#[test]
fn unwritable_output_path_is_a_structured_usage_error() {
    for flag in ["--json", "--trace-out", "--flame-out"] {
        let out = run_profile(&[flag, "/nonexistent-tapeflow-dir/out.json"]);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{flag}: expected usage-error exit"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("not writable") && stderr.contains(flag),
            "{flag}: unhelpful error: {stderr}"
        );
        assert!(
            String::from_utf8_lossy(&out.stdout).is_empty(),
            "{flag}: produced output despite the error"
        );
    }
}

/// The simulator has one engine, so `--engine` is not a flag: it is an
/// unknown argument (exit 2) and nothing is simulated.
#[test]
fn removed_engine_flag_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_tapeflow"))
        .args([
            "simulate", "logsum", "--scale", "tiny", "--engine", "legacy",
        ])
        .output()
        .expect("run tapeflow simulate");
    assert_eq!(out.status.code(), Some(2), "expected usage-error exit");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(r#"unknown argument "--engine""#),
        "unhelpful error: {stderr}"
    );
    assert!(
        out.stdout.is_empty(),
        "simulated despite the error: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn removed_bench_host_command_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_tapeflow"))
        .arg("bench-host")
        .output()
        .expect("run tapeflow bench-host");
    assert_eq!(out.status.code(), Some(2), "expected usage-error exit");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(r#"unknown command "bench-host""#),
        "unhelpful error: {stderr}"
    );
    assert!(
        out.stdout.is_empty(),
        "ran despite the error: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn validates_trace_file_from_env() {
    let Some(path) = std::env::var_os("TAPEFLOW_TRACE_VALIDATE") else {
        return;
    };
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e}", path.to_string_lossy()));
    let names = validate_chrome_trace(&text);
    assert!(!names.is_empty(), "trace has no slice events");
}

/// Structural validation of a Chrome trace-event document; returns the
/// distinct "X" (complete-slice) event names found.
fn validate_chrome_trace(text: &str) -> Vec<String> {
    let doc = Value::parse(text).expect("trace JSON parses");
    assert_eq!(
        doc.get("displayTimeUnit").and_then(Value::as_str),
        Some("ns"),
        "displayTimeUnit"
    );
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_arr)
        .expect("traceEvents array");
    assert!(!events.is_empty(), "trace has no events");
    let mut last_ts: HashMap<(u64, u64), u64> = HashMap::new();
    let mut names: Vec<String> = Vec::new();
    let mut slices = 0usize;
    for e in events {
        let ph = e.get("ph").and_then(Value::as_str).expect("event phase");
        let pid = e.get("pid").and_then(Value::as_u64).expect("event pid");
        match ph {
            // Metadata names a process or thread; no timestamp to check.
            "M" => {
                let name = e.get("name").and_then(Value::as_str).expect("meta name");
                assert!(
                    name == "process_name" || name == "thread_name",
                    "unexpected metadata {name:?}"
                );
                assert!(
                    e.get("args").and_then(|a| a.get("name")).is_some(),
                    "metadata without args.name"
                );
            }
            "X" => {
                slices += 1;
                let tid = e.get("tid").and_then(Value::as_u64).expect("slice tid");
                let ts = e.get("ts").and_then(Value::as_u64).expect("slice ts");
                let dur = e.get("dur").and_then(Value::as_u64).expect("slice dur");
                let name = e.get("name").and_then(Value::as_str).expect("slice name");
                assert!(dur >= 1, "zero-width slice {name:?}");
                // Per-track monotonicity: Perfetto tolerates overlaps
                // across tracks, not time running backwards within one.
                let prev = last_ts.entry((pid, tid)).or_insert(0);
                assert!(
                    ts >= *prev,
                    "track ({pid},{tid}): ts {ts} after {prev} — not monotonic"
                );
                *prev = ts;
                if !names.iter().any(|n| n == name) {
                    names.push(name.to_string());
                }
            }
            "i" => {
                assert!(e.get("s").is_some(), "instant event without scope");
                assert!(e.get("ts").and_then(Value::as_u64).is_some(), "instant ts");
            }
            other => panic!("unexpected event phase {other:?}"),
        }
    }
    assert!(slices > 0, "trace has metadata but no slices");
    names
}
