#!/usr/bin/env bash
# CI gate: strict build, full test suite, then the threaded tests
# again under ThreadSanitizer, then the observability gate, then the
# ingestion-robustness gate, then the columnar-trace gate, then the
# out-of-core gate, then the simulator-core gate, then the serving
# gate, then the argument and benchmark gate.
#
#   1. configure + build with -DSIEVE_WERROR=ON (warnings are errors)
#   2. run the complete ctest suite, including the byte-identity
#      oracles (optimized vs reference, pooled vs serial, memoized
#      simulation vs uncached) and, alone (RUN_SERIAL), the
#      test_perf_floors timing floors in thread CPU time
#   3. rebuild with -DSIEVE_SANITIZE=thread and run the
#      concurrency-sensitive tests (thread pool, experiment context,
#      suite runner, perf oracles, sim cache) under TSan
#   4. observability gate: run one suite bench with --trace-out and
#      --metrics-out, validate both files through the tool's own
#      parsers (`sieve trace-summary`, `sieve metrics-diff`), and
#      diff the stable counters between --jobs 1, 4, and 8 — the
#      determinism contract of DESIGN.md §7
#   5. robustness gate: rebuild the fault-injection harness under
#      ASan+UBSan and run `sieve fuzz-ingest --smoke` plus the
#      fault-injection/round-trip tests there; then check that the
#      `ingest.errors.*` and `suite.quarantined` stable counters are
#      --jobs-invariant through `sieve metrics-diff` (DESIGN.md §9)
#   6. columnar-trace gate: the round-trip/hibernation property tests
#      under ASan+UBSan (encode/decode, tier eviction, blob fuzz),
#      then `sieve trace-stats` at --jobs 1 and 8 — stdout must be
#      byte-identical and the trace.* stable counters must be
#      --jobs-invariant (DESIGN.md §10)
#   7. out-of-core gate: the mmap/shard-store/streaming property
#      tests under ASan+UBSan, then the DESIGN.md §11 contracts on a
#      real workload: `sieve evaluate --stream` must be byte-identical
#      to the resident report at --jobs 1, 4, and 8 with the
#      ingest.stream.* / store.shard.* stable counters
#      --jobs-invariant, `sieve trace --stream` must export the same
#      trace files, shard-stats must be run-to-run deterministic, and
#      a 10x-scale synthetic workload must complete a streaming
#      evaluation under a small --ingest-budget-mb
#   8. telemetry + run-ledger gate: test_telemetry under TSan and
#      ASan+UBSan; a suite bench at --jobs 1, 4, and 8 with the
#      telemetry sampler on vs off — suite stdout must be
#      byte-identical and the stable counters unchanged (the sampler
#      only reads); the trace must carry >= 4 counter tracks through
#      `trace-summary --counters`; the run ledger must validate under
#      `runs list --strict` and round-trip its counters through
#      `metrics-diff`; and `runs regress` must exit 0 on an identical
#      repeat but 1 on an injected >= 10% p95/footprint bump
#   9. simulator-core gate: test_sim_core (timing wheel, open-addressed
#      MSHR parity, engine parity, PKP determinism, zero steady-state
#      allocations) under TSan and ASan+UBSan; `sieve simulate` on a
#      real trace batch with SIEVE_SIM_ENGINE pinned to the event core
#      and then to the retained reference oracle — the report (minus
#      the wall-clock column) byte-identical and every stable counter
#      (gpusim.* included) unchanged at --jobs 1, 4, and 8 (DESIGN.md
#      §13); and a reference-then-event ledger pair through `sieve
#      runs regress` at the step-8 bounds
#  10. serving gate: test_serve + test_serve_soak under TSan (the
#      event loop / pool handoff locking discipline, and every
#      response of six concurrent clients bit-equal to the offline
#      RequestRunner), test_serve + test_serve_fuzz under ASan+UBSan
#      (>= 200 seeded protocol mutations per request kind against a
#      live server — zero crashes or silent corruptions); then a live
#      `sieve serve` at --jobs 1, 4, and 8 whose `sieve call`
#      responses must be byte-identical to the offline CLI for
#      evaluate, sample, simulate (minus the wall-clock line), and
#      trace-stats, with SIGTERM draining to exit 0 (DESIGN.md §14)
#  11. argument and benchmark gate: malformed numeric flags
#      (`--theta abc`, `--theta 0.4x`) must exit 1 with a usage
#      message, never a signal and never a silent prefix parse; then
#      the repository benchmark's own tests (`perfbench/run.py test`)
#
# Build trees: build-ci/ (strict), build-tsan/ and build-asan/
# (sanitized), kept separate from the developer's build/ so CI never
# clobbers it.
# Usage: scripts/ci.sh [jobs]   (default: nproc)
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${1:-$(nproc)}"

echo "=== 1/11: strict build (WERROR) ==="
cmake -B build-ci -S . -DSIEVE_WERROR=ON -DCMAKE_BUILD_TYPE=Release
cmake --build build-ci -j "$JOBS"

echo "=== 2/11: test suite ==="
ctest --test-dir build-ci --output-on-failure -j "$JOBS"

echo "=== 3/11: threaded tests under TSan ==="
cmake -B build-tsan -S . -DSIEVE_SANITIZE=thread \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build-tsan -j "$JOBS" --target \
    test_thread_pool test_experiment test_suite_runner
cmake --build build-tsan -j "$JOBS" --target \
    test_obs test_perf_oracle test_sim_cache

# Death tests fork, which TSan dislikes; skip them under the
# sanitizer — they run in step 2.
./build-tsan/tests/test_thread_pool
./build-tsan/tests/test_experiment
./build-tsan/tests/test_suite_runner --gtest_filter='-*DeathTest*'
./build-tsan/tests/test_obs
./build-tsan/tests/test_perf_oracle
./build-tsan/tests/test_sim_cache

echo "=== 4/11: observability gate ==="
OBS_DIR=build-ci/obs-gate
rm -rf "$OBS_DIR" && mkdir -p "$OBS_DIR"

# One real suite bench, fully instrumented, at three job counts.
./build-ci/bench/bench_fig3_accuracy gru gst --jobs 1 \
    --trace-out "$OBS_DIR/trace_j1.json" \
    --metrics-out "$OBS_DIR/metrics_j1.json" > /dev/null
./build-ci/bench/bench_fig3_accuracy gru gst --jobs 4 \
    --metrics-out "$OBS_DIR/metrics_j4.json" > /dev/null
./build-ci/bench/bench_fig3_accuracy gru gst --jobs 8 \
    --metrics-out "$OBS_DIR/metrics_j8.json" > /dev/null

# The trace must parse back through the tool's own aggregator (it
# exits non-zero on schema violations or an empty trace).
./build-ci/tools/sieve trace-summary "$OBS_DIR/trace_j1.json" > /dev/null
echo "obs: trace schema OK"

# Stable counters must be --jobs-invariant (metrics-diff exits 1 and
# prints every differing counter otherwise).
./build-ci/tools/sieve metrics-diff \
    "$OBS_DIR/metrics_j1.json" "$OBS_DIR/metrics_j4.json"
./build-ci/tools/sieve metrics-diff \
    "$OBS_DIR/metrics_j1.json" "$OBS_DIR/metrics_j8.json"
echo "obs: stable counters --jobs-invariant"

echo "=== 5/11: ingestion-robustness gate (ASan+UBSan) ==="
cmake -B build-asan -S . -DSIEVE_SANITIZE=address,undefined \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build-asan -j "$JOBS" --target \
    sieve test_fault_injection test_ingest_roundtrip

# The seeded corruptor sweep and the round-trip properties, with
# memory and UB errors fatal.
./build-asan/tests/test_fault_injection
./build-asan/tests/test_ingest_roundtrip
./build-asan/tools/sieve fuzz-ingest --smoke

ROB_DIR=build-ci/robust-gate
rm -rf "$ROB_DIR" && mkdir -p "$ROB_DIR"

# ingest.errors.* must be --jobs-invariant: the fuzz sweep parses an
# identical corpus at 1 and 8 workers, so the error counters of the
# two runs must match exactly.
./build-ci/tools/sieve fuzz-ingest --smoke --jobs 1 \
    --metrics-out "$ROB_DIR/fuzz_j1.json" > /dev/null
./build-ci/tools/sieve fuzz-ingest --smoke --jobs 8 \
    --metrics-out "$ROB_DIR/fuzz_j8.json" > /dev/null
./build-ci/tools/sieve metrics-diff \
    "$ROB_DIR/fuzz_j1.json" "$ROB_DIR/fuzz_j8.json"
echo "robust: ingest.errors.* --jobs-invariant"

# suite.quarantined must be --jobs-invariant too: simulate a trace
# batch with one deliberately corrupted member — the run exits 1
# (quarantine is an error) but the counters must not depend on the
# worker count.
./build-ci/tools/sieve trace gru --out "$ROB_DIR/traces" > /dev/null
first_trace=$(ls "$ROB_DIR"/traces/*.trace | head -1)
printf 'bogus_directive 1 2 3\n' > "$first_trace"
if ./build-ci/tools/sieve simulate "$ROB_DIR"/traces/*.trace \
    --jobs 1 --metrics-out "$ROB_DIR/sim_j1.json" > /dev/null; then
    echo "robust: expected quarantine exit code, got success" >&2
    exit 1
fi
if ./build-ci/tools/sieve simulate "$ROB_DIR"/traces/*.trace \
    --jobs 8 --metrics-out "$ROB_DIR/sim_j8.json" > /dev/null; then
    echo "robust: expected quarantine exit code, got success" >&2
    exit 1
fi
./build-ci/tools/sieve metrics-diff \
    "$ROB_DIR/sim_j1.json" "$ROB_DIR/sim_j8.json"
echo "robust: suite.quarantined --jobs-invariant"

echo "=== 6/11: columnar-trace gate (ASan+UBSan) ==="
cmake --build build-asan -j "$JOBS" --target test_columnar

# Round-trip, tier-eviction, and blob-corruption properties with
# memory and UB errors fatal.
./build-asan/tests/test_columnar

COL_DIR=build-ci/columnar-gate
rm -rf "$COL_DIR" && mkdir -p "$COL_DIR"

# trace-stats walks sampling -> representative traces -> tier pool;
# its report and the trace.* stable counters must not depend on the
# worker count.
./build-ci/tools/sieve trace-stats gru gst --jobs 1 \
    --metrics-out "$COL_DIR/stats_j1.json" > "$COL_DIR/stats_j1.txt"
./build-ci/tools/sieve trace-stats gru gst --jobs 8 \
    --metrics-out "$COL_DIR/stats_j8.json" > "$COL_DIR/stats_j8.txt"
cmp "$COL_DIR/stats_j1.txt" "$COL_DIR/stats_j8.txt"
./build-ci/tools/sieve metrics-diff \
    "$COL_DIR/stats_j1.json" "$COL_DIR/stats_j8.json"
echo "columnar: trace-stats output and trace.* --jobs-invariant"

echo "=== 7/11: out-of-core gate (ASan+UBSan) ==="
cmake --build build-asan -j "$JOBS" --target \
    test_io test_shard_store test_streaming

# mmap reader bounds, shard-store round-trip/corruption sweeps, and
# the streaming byte-identity properties with memory and UB errors
# fatal.
./build-asan/tests/test_io
./build-asan/tests/test_shard_store
./build-asan/tests/test_streaming

OOC_DIR=build-ci/ooc-gate
rm -rf "$OOC_DIR" && mkdir -p "$OOC_DIR"

# Streaming evaluation must reproduce the resident report bitwise on
# a real workload, at any worker count, under a tiny window budget —
# and the ingest.stream.* / store.shard.* stable counters must be
# --jobs-invariant (DESIGN.md §11).
./build-ci/tools/sieve export gru --out "$OOC_DIR/gru.swl" > /dev/null
./build-ci/tools/sieve evaluate "$OOC_DIR/gru.swl" \
    > "$OOC_DIR/eval_resident.txt"
for j in 1 4 8; do
    ./build-ci/tools/sieve evaluate "$OOC_DIR/gru.swl" --stream \
        --ingest-budget-mb 4 --jobs "$j" \
        --metrics-out "$OOC_DIR/eval_j$j.json" \
        > "$OOC_DIR/eval_j$j.txt"
    cmp "$OOC_DIR/eval_resident.txt" "$OOC_DIR/eval_j$j.txt"
done
./build-ci/tools/sieve metrics-diff \
    "$OOC_DIR/eval_j1.json" "$OOC_DIR/eval_j4.json"
./build-ci/tools/sieve metrics-diff \
    "$OOC_DIR/eval_j1.json" "$OOC_DIR/eval_j8.json"
echo "ooc: streaming evaluate byte-identical and --jobs-invariant"

# The streamed trace export must produce the same files (names and
# bytes) as the resident export.
./build-ci/tools/sieve trace "$OOC_DIR/gru.swl" \
    --out "$OOC_DIR/traces_resident" > /dev/null
./build-ci/tools/sieve trace "$OOC_DIR/gru.swl" --stream \
    --ingest-budget-mb 4 --out "$OOC_DIR/traces_stream" > /dev/null
diff -r "$OOC_DIR/traces_resident" "$OOC_DIR/traces_stream"
echo "ooc: streamed trace export byte-identical"

# shard-stats walks sampling -> digests -> on-disk shard store; its
# census and the store.shard.* counters must be deterministic across
# repeat runs over the same inputs.
./build-ci/tools/sieve shard-stats gru gst --content-seeded --csv \
    --dir "$OOC_DIR/store_a" \
    --metrics-out "$OOC_DIR/shard_a.json" > "$OOC_DIR/shard_a.txt"
./build-ci/tools/sieve shard-stats gru gst --content-seeded --csv \
    --dir "$OOC_DIR/store_b" \
    --metrics-out "$OOC_DIR/shard_b.json" > "$OOC_DIR/shard_b.txt"
cmp "$OOC_DIR/shard_a.txt" "$OOC_DIR/shard_b.txt"
./build-ci/tools/sieve metrics-diff \
    "$OOC_DIR/shard_a.json" "$OOC_DIR/shard_b.json"
echo "ooc: shard-stats deterministic"

# Bounded-memory smoke: a 10x-scale synthetic workload (240k
# invocations, ~10x the largest Table I entry) must stream through a
# 32 MiB window without ever holding the workload resident.
./build-ci/tools/sieve export nst --cap 240000 \
    --out "$OOC_DIR/nst10x.swl" > /dev/null
./build-ci/tools/sieve evaluate "$OOC_DIR/nst10x.swl" --stream \
    --ingest-budget-mb 32 --jobs 8 > /dev/null
echo "ooc: 10x workload streamed under a 32 MiB window"

echo "=== 8/11: telemetry + run-ledger gate ==="
cmake --build build-tsan -j "$JOBS" --target test_telemetry
./build-tsan/tests/test_telemetry
cmake --build build-asan -j "$JOBS" --target test_telemetry
./build-asan/tests/test_telemetry

TEL_DIR=build-ci/telemetry-gate
rm -rf "$TEL_DIR" && mkdir -p "$TEL_DIR"

# The sampler only reads: with telemetry on, the suite stdout and
# the stable counters must be byte-for-byte what they are with it
# off, at every job count (DESIGN.md §12).
for j in 1 4 8; do
    ./build-ci/bench/bench_fig3_accuracy gru gst --jobs "$j" \
        --metrics-out "$TEL_DIR/metrics_off_j$j.json" \
        > "$TEL_DIR/out_off_j$j.txt"
    ./build-ci/bench/bench_fig3_accuracy gru gst --jobs "$j" \
        --telemetry --telemetry-interval-ms 5 \
        --trace-out "$TEL_DIR/trace_on_j$j.json" \
        --metrics-out "$TEL_DIR/metrics_on_j$j.json" \
        --ledger "$TEL_DIR/runs.jsonl" \
        > "$TEL_DIR/out_on_j$j.txt"
    cmp "$TEL_DIR/out_off_j$j.txt" "$TEL_DIR/out_on_j$j.txt"
    ./build-ci/tools/sieve metrics-diff \
        "$TEL_DIR/metrics_off_j$j.json" "$TEL_DIR/metrics_on_j$j.json"
done
./build-ci/tools/sieve metrics-diff \
    "$TEL_DIR/metrics_on_j1.json" "$TEL_DIR/metrics_on_j8.json"
echo "telemetry: stdout and stable counters unchanged at jobs 1/4/8"

# The timeline must be loadable: >= 4 counter tracks (the built-in
# /proc probes plus the pool gauge) through the tool's own parser.
tracks=$(./build-ci/tools/sieve trace-summary \
    "$TEL_DIR/trace_on_j8.json" --counters --csv | tail -n +2 | wc -l)
if [ "$tracks" -lt 4 ]; then
    echo "telemetry: expected >= 4 counter tracks, got $tracks" >&2
    exit 1
fi
echo "telemetry: $tracks counter tracks in the trace"

# Ledger schema: every appended manifest must parse back (--strict
# exits 1 on any skipped line), and the manifest's counters must
# round-trip through metrics-diff against the real metrics export.
./build-ci/tools/sieve runs list --strict \
    --ledger "$TEL_DIR/runs.jsonl" > /dev/null
./build-ci/tools/sieve runs show -1 --counters-json \
    --ledger "$TEL_DIR/runs.jsonl" > "$TEL_DIR/last_counters.json"
./build-ci/tools/sieve metrics-diff \
    "$TEL_DIR/last_counters.json" "$TEL_DIR/metrics_on_j8.json"
echo "telemetry: ledger manifests validate and match the metrics export"

# Regression watchdog. A crafted ledger makes the verdicts exact: an
# identical repeat is clean at the default (tight) thresholds, and a
# sed-injected p95 or peak-RSS bump beyond 10% must exit non-zero.
last=$(tail -1 "$TEL_DIR/runs.jsonl")
printf '%s\n%s\n' "$last" "$last" > "$TEL_DIR/crafted.jsonl"
./build-ci/tools/sieve runs regress \
    --ledger "$TEL_DIR/crafted.jsonl" > /dev/null
printf '%s\n' "$last" \
    | sed -E 's/"p95":[0-9.e+-]+/"p95":99999999999/g' \
    >> "$TEL_DIR/crafted.jsonl"
if ./build-ci/tools/sieve runs regress \
    --ledger "$TEL_DIR/crafted.jsonl" > /dev/null; then
    echo "regress: injected p95 bump not detected" >&2
    exit 1
fi
printf '%s\n%s\n' "$last" "$last" > "$TEL_DIR/crafted.jsonl"
printf '%s\n' "$last" \
    | sed -E 's/"max_rss_kb":[0-9]+/"max_rss_kb":99999999/' \
    >> "$TEL_DIR/crafted.jsonl"
if ./build-ci/tools/sieve runs regress \
    --ledger "$TEL_DIR/crafted.jsonl" > /dev/null; then
    echo "regress: injected footprint bump not detected" >&2
    exit 1
fi

# And on the real ledger: a genuine repeat run. This suite records
# only two pool tasks, and whether the big per-workload task runs on
# a worker (recorded) or is caller-stolen (not) is scheduling — so
# p95 legitimately swings orders of magnitude between repeats and is
# effectively waived here; what the real repeat *must* hold exactly
# is the stable counters, plus peak RSS within a generous bound.
# The tight-threshold latency verdicts are covered by the crafted
# ledger above and by test_telemetry.
./build-ci/bench/bench_fig3_accuracy gru gst --jobs 8 \
    --ledger "$TEL_DIR/runs.jsonl" \
    --metrics-out "$TEL_DIR/metrics_repeat_j8.json" > /dev/null
./build-ci/tools/sieve runs regress --ledger "$TEL_DIR/runs.jsonl" \
    --max-latency-pct 10000000 --max-footprint-pct 200
echo "telemetry: regression watchdog verdicts correct"

echo "=== 9/11: simulator-core gate ==="
cmake --build build-tsan -j "$JOBS" --target test_sim_core
./build-tsan/tests/test_sim_core
cmake --build build-asan -j "$JOBS" --target test_sim_core
./build-asan/tests/test_sim_core

SIM_DIR=build-ci/simcore-gate
rm -rf "$SIM_DIR" && mkdir -p "$SIM_DIR"

# Engine equivalence on a real trace batch: with the scheduling core
# pinned to the event engine and then to the retained tick-everything
# oracle, the per-trace report (minus the volatile wall-clock column)
# must be byte-identical and every stable counter — the gpusim.*
# family included — unchanged, at several pool widths (DESIGN.md §13).
./build-ci/tools/sieve trace gru --out "$SIM_DIR/traces" > /dev/null
for j in 1 4 8; do
    SIEVE_SIM_ENGINE=event \
        ./build-ci/tools/sieve simulate "$SIM_DIR"/traces/*.trace \
        --jobs "$j" --metrics-out "$SIM_DIR/metrics_event_j$j.json" \
        | sed -E -e 's/[0-9]+\.[0-9]+ s[[:space:]]*$//' -e '/^batch wall time /d' \
        > "$SIM_DIR/out_event_j$j.txt"
    SIEVE_SIM_ENGINE=reference \
        ./build-ci/tools/sieve simulate "$SIM_DIR"/traces/*.trace \
        --jobs "$j" --metrics-out "$SIM_DIR/metrics_reference_j$j.json" \
        | sed -E -e 's/[0-9]+\.[0-9]+ s[[:space:]]*$//' -e '/^batch wall time /d' \
        > "$SIM_DIR/out_reference_j$j.txt"
    cmp "$SIM_DIR/out_event_j$j.txt" "$SIM_DIR/out_reference_j$j.txt"
    ./build-ci/tools/sieve metrics-diff \
        "$SIM_DIR/metrics_event_j$j.json" \
        "$SIM_DIR/metrics_reference_j$j.json"
done
echo "simcore: engines byte-identical at jobs 1/4/8"

# Ledger pair around the engine swap: the oracle run is the baseline,
# the event-core run is the candidate — `runs regress` then holds the
# gpusim.* stable counters exactly and bounds the footprint, with
# latency waived for the same scheduling-noise reason as step 8.
SIEVE_SIM_ENGINE=reference \
    ./build-ci/tools/sieve simulate "$SIM_DIR"/traces/*.trace \
    --jobs 8 --ledger "$SIM_DIR/runs.jsonl" > /dev/null
SIEVE_SIM_ENGINE=event \
    ./build-ci/tools/sieve simulate "$SIM_DIR"/traces/*.trace \
    --jobs 8 --ledger "$SIM_DIR/runs.jsonl" > /dev/null
./build-ci/tools/sieve runs regress --ledger "$SIM_DIR/runs.jsonl" \
    --max-latency-pct 10000000 --max-footprint-pct 200
echo "simcore: event engine holds the reference ledger bounds"

echo "=== 10/11: serving gate ==="
cmake --build build-tsan -j "$JOBS" --target test_serve test_serve_soak
./build-tsan/tests/test_serve
./build-tsan/tests/test_serve_soak
cmake --build build-asan -j "$JOBS" --target test_serve test_serve_fuzz
./build-asan/tests/test_serve
./build-asan/tests/test_serve_fuzz

SRV_DIR=build-ci/serve-gate
rm -rf "$SRV_DIR" && mkdir -p "$SRV_DIR"

# Live-daemon byte identity: whatever sieved serves must be exactly
# what the offline CLI prints, at several pool widths (DESIGN.md
# §14). The simulate comparison strips only the volatile wall-clock
# line the CLI appends after the shared table.
./build-ci/tools/sieve trace bfs_ny --out "$SRV_DIR/traces" > /dev/null
first_trace=$(ls "$SRV_DIR"/traces/*.trace | head -1)
./build-ci/tools/sieve evaluate bfs_ny --method sieve --arch ampere \
    --theta 0.4 > "$SRV_DIR/eval_cli.txt"
(cd "$SRV_DIR" && ../../build-ci/tools/sieve sample bfs_ny \
    --method sieve --theta 0.4 -o sample_cli.csv > /dev/null)
./build-ci/tools/sieve simulate "$first_trace" \
    | sed '/^wall time /d' > "$SRV_DIR/sim_cli.txt"

for j in 1 4 8; do
    SOCK="$SRV_DIR/sieved_j$j.sock"
    ./build-ci/tools/sieve serve --socket "$SOCK" --jobs "$j" \
        2> "$SRV_DIR/serve_j$j.log" &
    SRV_PID=$!
    ready=0
    for _ in $(seq 1 100); do
        if ./build-ci/tools/sieve call ping ready --socket "$SOCK" \
            > /dev/null 2>&1; then
            ready=1
            break
        fi
        sleep 0.1
    done
    if [ "$ready" -ne 1 ]; then
        echo "serve: daemon at --jobs $j never became ready" >&2
        exit 1
    fi

    ./build-ci/tools/sieve call evaluate bfs_ny sieve ampere 0.4 0 \
        --socket "$SOCK" > "$SRV_DIR/eval_served_j$j.txt"
    cmp "$SRV_DIR/eval_cli.txt" "$SRV_DIR/eval_served_j$j.txt"
    ./build-ci/tools/sieve call sample bfs_ny sieve 0.4 0 \
        --socket "$SOCK" > "$SRV_DIR/sample_served_j$j.csv"
    cmp "$SRV_DIR/sample_cli.csv" "$SRV_DIR/sample_served_j$j.csv"
    ./build-ci/tools/sieve call simulate ampere 0 "$first_trace" \
        --socket "$SOCK" > "$SRV_DIR/sim_served_j$j.txt"
    cmp "$SRV_DIR/sim_cli.txt" "$SRV_DIR/sim_served_j$j.txt"
    ./build-ci/tools/sieve call trace-stats 0.4 32 0 0 bfs_ny \
        --socket "$SOCK" > "$SRV_DIR/ts_served_j$j.csv"
    ./build-ci/tools/sieve trace-stats bfs_ny --csv --jobs "$j" \
        > "$SRV_DIR/ts_cli_j$j.csv"
    cmp "$SRV_DIR/ts_cli_j$j.csv" "$SRV_DIR/ts_served_j$j.csv"

    # Graceful drain: SIGTERM must finish in-flight work and exit 0.
    kill -TERM "$SRV_PID"
    wait "$SRV_PID"
done
echo "serve: responses byte-identical to the CLI at jobs 1/4/8"

echo "=== 11/11: argument errors and benchmark tests ==="
ARG_DIR=build-ci/arg-gate
rm -rf "$ARG_DIR" && mkdir -p "$ARG_DIR"
# Each malformed value must be refused with exit code 1 (a usage
# error through fatal()), not a signal (134 = uncaught exception) and
# not a run on a prefix of the value.
for bad in "evaluate gru --theta abc" "sample gru --theta 0.4x" \
    "evaluate gru --jobs -1"; do
    set +e
    # shellcheck disable=SC2086
    (cd "$ARG_DIR" && ../tools/sieve $bad) > /dev/null \
        2> "$ARG_DIR/stderr.txt"
    status=$?
    set -e
    if [ "$status" -ne 1 ] || ! grep -q "usage:" "$ARG_DIR/stderr.txt"; then
        echo "args: 'sieve $bad' exited $status, expected 1 with usage" >&2
        cat "$ARG_DIR/stderr.txt" >&2
        exit 1
    fi
done
echo "args: malformed numeric flags are usage errors"

python3 perfbench/run.py test
echo "bench: perfbench tests passed"

echo
echo "ci: all gates passed"
