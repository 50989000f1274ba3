#!/usr/bin/env bash
# Repo CI: formatting, lints, and the tier-1 verify (ROADMAP.md).
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (workspace, -D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (workspace, -D warnings) =="
# Broken or private intra-doc links fail the build here.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== tier-1 verify (the whole workspace: see default-members) =="
cargo build --release
cargo test -q

echo "== examples (the four root examples run to completion) =="
# Tier-1 compiles the examples but never runs them. Each drives the
# public API end to end (build, differentiate, compile, trace,
# PreparedSim::new, simulate_prepared) and fails on a broken assertion.
for ex in quickstart mass_spring_training cannonball tape_inspector; do
    cargo run --release --example "$ex" > /dev/null
done

echo "== profile smoke (stall attribution + provenance + chrome trace) =="
# The profile subcommand must run end to end: the invariant-checked
# stall table, source-attributed hot spots, a machine-readable report,
# a collapsed-stack flamegraph, and a Chrome trace that the structural
# validator (tests/profile_cli.rs) accepts — parseable, complete
# slices, monotonic per-track timestamps.
mkdir -p target/ci
cargo run --release --bin tapeflow -- \
    profile programs/sumexp.tf --wrt x --loss loss \
    --by-inst --top 8 \
    --trace-out target/ci/profile_sumexp_trace.json \
    --flame-out target/ci/profile_sumexp.folded \
    --json target/ci/profile_sumexp.json > target/ci/profile_sumexp.txt
# The hot-spot table is pinned: the per-inst rollup must match the
# golden snapshot byte for byte (side-channel notes go to stderr, so
# this stdout is the same as the golden test's invocation).
diff -u tests/golden/profile_by_inst_sumexp.txt target/ci/profile_sumexp.txt
python3 - target/ci/profile_sumexp.json <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "tapeflow.cli.profile/v2", doc.get("schema")
kinds = ("fp_busy", "int_busy", "mshr_stall", "spad_conflict",
         "tape_miss_stall", "cache_miss_stall", "stream_wait",
         "phase_barrier", "idle")
for variant in ("enzyme", "tapeflow"):
    s = doc[variant]["stalls"]
    assert sum(s[k] for k in kinds) == s["cycles"] * s["pes"], variant
    # v2 additions: per-inst rows (each summing exactly to its total)
    # and the provenance census.
    rows = doc[variant]["insts"]
    assert rows, f"{variant}: no inst rows"
    for r in rows:
        assert sum(r["stalls"].values()) == r["total_pe_cycles"], r
    prov = doc[variant]["provenance"]
    assert prov["insts"] > 0 and "created_by" in prov, variant
assert doc["tapeflow"]["provenance"]["created_by"].get("streams", 0) > 0
assert doc["passes"], "per-pass deltas missing"
EOF
# Flamegraph stacks: `root;region;layer;source;op count`, five frames.
python3 - target/ci/profile_sumexp.folded <<'EOF'
import sys
lines = open(sys.argv[1]).read().splitlines()
assert lines, "empty flamegraph"
roots = []
for line in lines:
    stack, count = line.rsplit(" ", 1)
    assert int(count) > 0, line
    frames = stack.split(";")
    assert len(frames) == 5, line
    if frames[0] not in roots:
        roots.append(frames[0])
assert roots == ["Enzyme", "Tapeflow"], roots
EOF
TAPEFLOW_TRACE_VALIDATE=target/ci/profile_sumexp_trace.json \
    cargo test -q --release --test profile_cli validates_trace_file_from_env
# Sampled timelines must also validate (and stay deterministic — the
# dedicated test covers that; here CI vets the emitted artifact).
cargo run --release --bin tapeflow -- \
    profile programs/sumexp.tf --wrt x --loss loss \
    --trace-out target/ci/profile_sumexp_sampled.json --sample 8 > /dev/null
TAPEFLOW_TRACE_VALIDATE=target/ci/profile_sumexp_sampled.json \
    cargo test -q --release --test profile_cli validates_trace_file_from_env

echo "== lint smoke (all registered benchmarks) =="
# Every in-tree benchmark must lint clean at the default config, at tiny
# and at large scale (where the streaming pass emits short last tiles) — any
# error-severity finding makes `tapeflow lint` exit 1 and fails CI under
# `set -e`. The machine-readable report is schema-checked like the
# profile JSON above.
for b in gravity nn logsum matdescent mttkrp somier lenet5 pathfinder mass_spring; do
    cargo run --release --bin tapeflow -- lint "$b" --scale tiny > /dev/null
    cargo run --release --bin tapeflow -- lint "$b" --scale large > /dev/null
done
cargo run --release --bin tapeflow -- \
    lint logsum --scale tiny --json target/ci/lint_logsum.json > /dev/null
python3 - target/ci/lint_logsum.json <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "tapeflow.cli.lint/v2", doc.get("schema")
assert doc["errors"] == 0 and doc["warnings"] == 0, doc
assert isinstance(doc["diagnostics"], list) and not doc["diagnostics"]
for key in ("program", "spad_entries", "spad_banks"):
    assert key in doc, key
ranges = doc["ranges"]
for key in ("bounded_i64", "total_i64", "bounded_f64", "total_f64"):
    assert isinstance(ranges[key], int), key
assert ranges["arrays"], "per-array content ranges missing"
EOF

echo "== dynamic range oracle (all registered benchmarks) =="
# The soundness oracle behind the value-range analysis: every benchmark
# (source and gradient function) runs under the recording interpreter
# and any observed value outside the static ranges makes `lint
# --check-dynamic` exit 1. `--compress-tape` keeps the narrowing
# decisions (and the `unsound-narrow` re-proof) in the checked path.
for b in gravity nn logsum matdescent mttkrp somier lenet5 pathfinder mass_spring; do
    cargo run --release --bin tapeflow -- \
        lint "$b" --scale tiny --compress-tape --check-dynamic \
        --json "target/ci/lint_dyn_$b.json" > /dev/null
done
python3 - target/ci/lint_dyn_*.json <<'EOF'
import json, sys
narrowing = 0
for path in sys.argv[1:]:
    doc = json.load(open(path))
    assert doc["schema"] == "tapeflow.cli.lint/v2", (path, doc.get("schema"))
    assert doc["errors"] == 0, path
    assert doc["dynamic_escapes"] == 0, path
    ranges = doc["ranges"]
    assert ranges["bounded_i64"] > 0, path
    if any(n["encoding"] == "keep" and n["width_bytes"] < 8
           for n in ranges.get("narrowing", [])):
        narrowing += 1
assert narrowing >= 3, f"width narrowing fires on only {narrowing}/9 benchmarks"
EOF

echo "== streams terminal lowering (all registered benchmarks) =="
# Pass 3 is a true terminal lowering: stopping the pipeline at `streams`
# must produce a verified stream-command program for every benchmark
# (the golden tests pin its exact text on the sample programs; this
# sweeps the whole registry). Each benchmark then lints clean — the
# lint smoke above already covers the full pipeline.
for b in gravity nn logsum matdescent mttkrp somier lenet5 pathfinder mass_spring; do
    cargo run --release --bin tapeflow -- \
        compile "$b" --scale tiny \
        --passes opt,ad,regions,layering,streams > /dev/null
done

echo "== cross-pass equivalence (split registry vs canonical pipeline) =="
# The de-fused streams/spad-index passes, assembled by name through the
# typed-artifact registry, must compile to the byte-identical program
# the canonical builder produces — with and without Pass 5. Unknown and
# dependency-violating pass lists must fail with exit 2.
for b in gravity nn logsum matdescent mttkrp somier lenet5 pathfinder mass_spring; do
    cargo run --release --bin tapeflow -- compile "$b" --scale tiny \
        > target/ci/split_default.ir
    cargo run --release --bin tapeflow -- compile "$b" --scale tiny \
        --passes opt,ad,regions,layering,streams,spad-index \
        > target/ci/split_named.ir
    diff -q target/ci/split_default.ir target/ci/split_named.ir
    cargo run --release --bin tapeflow -- compile "$b" --scale tiny --compress-tape \
        > target/ci/split_default.ir
    cargo run --release --bin tapeflow -- compile "$b" --scale tiny \
        --passes opt,ad,regions,layering,value-ranges,tape-compress,streams,spad-index \
        > target/ci/split_named.ir
    diff -q target/ci/split_default.ir target/ci/split_named.ir
done
set +e
cargo run --release --bin tapeflow -- compile logsum --scale tiny \
    --passes opt,ad,frobnicate > /dev/null 2> target/ci/passes_err.txt
rc=$?
set -e
[ "$rc" -eq 2 ] || { echo "unknown pass: expected exit 2, got $rc"; exit 1; }
grep -q 'unknown pass "frobnicate" (registered:' target/ci/passes_err.txt
set +e
cargo run --release --bin tapeflow -- compile logsum --scale tiny \
    --passes opt,ad,regions,spad-index > /dev/null 2> target/ci/passes_err.txt
rc=$?
set -e
[ "$rc" -eq 2 ] || { echo "dependency violation: expected exit 2, got $rc"; exit 1; }
grep -q 'requires `streams-ir`, produced by `streams`' target/ci/passes_err.txt
# `tape-compress` consumes the value-ranges artifact: a pass list that
# omits the analysis must be rejected, not silently un-narrowed.
set +e
cargo run --release --bin tapeflow -- compile logsum --scale tiny \
    --passes opt,ad,regions,layering,tape-compress > /dev/null 2> target/ci/passes_err.txt
rc=$?
set -e
[ "$rc" -eq 2 ] || { echo "missing value-ranges: expected exit 2, got $rc"; exit 1; }
grep -q 'requires `value-ranges`, produced by `value-ranges`' target/ci/passes_err.txt
cargo test -q --release -p tapeflow-bench --test compression

echo "== cross-engine equivalence =="
# The event-driven core vs the scalar per-cycle reference loop, which
# no longer ships and lives only in crates/bench/tests/equivalence/
# oracle.rs: reports, stall attributions, Chrome traces and
# per-instruction ledgers must match byte-for-byte on all nine
# benchmarks, probes must not perturb, and the incremental-resim
# session must derive exactly what a cold run produces.
cargo test -q --release -p tapeflow-bench --test equivalence

echo "== perfbench smoke (Tiny runs of the benchmark workloads) =="
# The repository benchmark (BENCHMARK.json) is a package of its own, so
# tier-1 never builds it. Its smoke tests run `cold`, `sweep` and
# `analyze` at Tiny with their correctness and metric-list checks — the
# only tests that drive trace_function -> PreparedSim::new ->
# simulate_prepared exactly as the benchmark does.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "== bench-host smoke (host-throughput tracking) =="
# One pass of the host-perf sweep: the subcommand must run end to end
# and emit a schema-valid document. Throughput numbers are noisy in CI,
# so only structure and the deterministic cycle totals are asserted —
# the checked-in results/BENCH_host_perf.json records a reference run.
cargo run --release --bin tapeflow -- \
    bench-host --scale tiny --repeats 1 \
    --json target/ci/BENCH_host_perf.json > /dev/null
python3 - target/ci/BENCH_host_perf.json <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "tapeflow.bench.host_perf/v3", doc.get("schema")
host = doc["host"]
assert host["logical_cpus"] > 0 and host["rustc"] and host["jobs"] > 0, host
assert doc["ladder_bytes"] and doc["ladder_bytes"] == sorted(doc["ladder_bytes"], reverse=True)
assert len(doc["benchmarks"]) == 9, len(doc["benchmarks"])
for b in doc["benchmarks"]:
    for sweep in ("cache_ladder", "mixed_sweep"):
        s = b[sweep]
        assert s["configs"] > 0 and s["sim_cycles"] > 0, (b["name"], sweep)
        assert 0 < s["trace_groups"] <= s["configs"], (b["name"], sweep)
        for run in ("session", "cold"):
            e = s["runs"][run]
            assert e["seconds"] > 0 and e["sim_cycles_per_sec"] > 0, (b["name"], sweep, run)
        assert s["speedup"] > 0, (b["name"], sweep)
    assert b["cache_ladder"]["configs"] == len(doc["ladder_bytes"])
    assert b["cache_ladder"]["trace_groups"] == 1, b["name"]
    assert b["mixed_sweep"]["trace_groups"] > 1, b["name"]
assert doc["geomean_ladder_speedup"] > 0 and doc["geomean_mixed_speedup"] > 0
EOF
# The checked-in reference records a real run's throughput; its
# deterministic skeleton (schema, configs, trace groups, cycle totals)
# must match what this tree produces. Compare both sides wall-scrubbed:
# the fresh run via --stable-json, the reference via the same scrub
# applied in flight.
cargo run --release --bin tapeflow -- \
    bench-host --scale tiny --repeats 1 --stable-json \
    --json target/ci/BENCH_host_perf_stable.json > /dev/null
python3 - results/BENCH_host_perf.json target/ci/BENCH_host_perf_stable.json <<'EOF'
import json, sys
ref, fresh = (json.load(open(p)) for p in sys.argv[1:3])
ref["host"] = {"logical_cpus": 0, "rustc": "", "opt_level": "", "jobs": 0}
for b in ref["benchmarks"]:
    for sweep in ("cache_ladder", "mixed_sweep"):
        s = b[sweep]
        s["speedup"] = 0.0
        for e in s["runs"].values():
            e["seconds"] = 0.0
            e["sim_cycles_per_sec"] = 0.0
ref["geomean_ladder_speedup"] = ref["geomean_mixed_speedup"] = 0.0
assert ref == fresh, "results/BENCH_host_perf.json skeleton drifted; re-bless with: " \
    "cargo run --release --bin tapeflow -- bench-host --scale tiny --repeats 15 " \
    "--json results/BENCH_host_perf.json"
EOF
# The subset/parallel/stable path: a two-benchmark run on two workers
# must produce a byte-reproducible document under --stable-json (wall
# and host fields zeroed, deterministic structure identical run to run).
cargo run --release --bin tapeflow -- \
    bench-host --scale tiny --repeats 1 --benchmarks gravity,logsum --jobs 2 \
    --stable-json --json target/ci/BENCH_host_perf_stable_a.json > /dev/null
cargo run --release --bin tapeflow -- \
    bench-host --scale tiny --repeats 1 --benchmarks gravity,logsum --jobs 2 \
    --stable-json --json target/ci/BENCH_host_perf_stable_b.json > /dev/null
diff -q target/ci/BENCH_host_perf_stable_a.json target/ci/BENCH_host_perf_stable_b.json

echo "== experiments regression (tiny scale, stable JSON) =="
# Regenerate the machine-readable results at tiny scale with every
# wall-clock field zeroed and diff against the checked-in reference —
# stall breakdowns, provenance-resolved hot spots and the host-perf
# fold included (the scrub leaves only deterministic structure and
# cycle counters, so the document is byte-stable by construction).
# Catches perf-model / accounting drift that unit tests miss.
cargo run --release -p tapeflow-bench --bin experiments -- \
    all --scale tiny --jobs 2 --stable-json --stall-breakdown --hot-spots \
    --host-perf --json target/ci/BENCH_experiments_tiny.json > /dev/null
if ! diff -u results/BENCH_experiments_tiny.json \
        target/ci/BENCH_experiments_tiny.json > target/ci/experiments.diff; then
    echo "experiments output drifted from results/BENCH_experiments_tiny.json:"
    head -n 60 target/ci/experiments.diff
    echo "(full diff: target/ci/experiments.diff; if the change is intended," \
         "bless it with: cp target/ci/BENCH_experiments_tiny.json" \
         "results/BENCH_experiments_tiny.json)"
    exit 1
fi

echo "== experiments regression (small scale, stable JSON) =="
# The tiny batches above are too small for same-cycle ties between
# nodes the schedule-ordered arena numbers out of trace order, so pin
# the Small schedules too: regenerate the checked-in Small reference
# and compare both sides with every wall-clock field and the job count
# zeroed.
cargo run --release -p tapeflow-bench --bin experiments -- \
    all --scale small --jobs 2 --stable-json \
    --json target/ci/BENCH_experiments_small.json > /dev/null
python3 - results/BENCH_experiments.json target/ci/BENCH_experiments_small.json <<'EOF'
import json, sys
def scrub(v):
    if isinstance(v, dict):
        return {k: 0 if ("seconds" in k or k == "jobs") else scrub(x) for k, x in v.items()}
    if isinstance(v, list):
        return [scrub(x) for x in v]
    return v
ref, fresh = (scrub(json.load(open(p))) for p in sys.argv[1:3])
assert ref == fresh, "Small experiments drifted from results/BENCH_experiments.json; " \
    "if intended, regenerate it with: ./target/release/experiments all " \
    "--csv results --json results/BENCH_experiments.json"
EOF

echo "CI green."
