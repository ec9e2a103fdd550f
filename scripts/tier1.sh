#!/usr/bin/env bash
# Tier-1 verification: full build (compiler warnings are errors) + ctest,
# then the concurrency tests again under ThreadSanitizer
# (SENT_SANITIZE=thread), an ASan+UBSan pass over the failure-surface,
# simulator-digest and OCSVM tests, a bad-flag-value usage check, a chaos
# smoke run so the injected-fault paths are exercised on every verify, the
# ML kernel floor (micro_perf), the interpreter-throughput gate (ext_sim),
# the benchmark package's tests plus a traced smoke (perfbench/), and the
# reachability gate (no src/ function that no production binary reaches).
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"

# The default tree builds with warnings as errors, so a new compiler
# warning fails tier-1 instead of scrolling past in the build output. The
# sanitizer trees below keep the plain flags.
cmake -B build -S . -DCMAKE_COMPILE_WARNING_AS_ERROR=ON
cmake --build build -j "${JOBS}"
ctest --test-dir build --output-on-failure -j "${JOBS}"

# ThreadSanitizer pass over the concurrency layer. Only the concurrency
# test binaries are built in this tree; they are run directly (gtest
# binaries are standalone) to keep the TSan pass cheap. obs_test joins the
# pass because the metrics shards are the newest lock-free surface: its
# merge-determinism tests hammer one registry from many threads.
cmake -B build-tsan -S . -DSENT_SANITIZE=thread
cmake --build build-tsan -j "${JOBS}" \
  --target thread_pool_test campaign_test worker_pool_test obs_test \
  stream_test stream_parity_test corpus_test ml_test
./build-tsan/tests/thread_pool_test
./build-tsan/tests/campaign_test
# The amortized campaign engine (DESIGN.md §15): worker-local arenas and
# chunked seed claiming are the newest concurrency surface; the
# warm-vs-cold parity battery runs under TSan so a race in the reset
# path cannot hide behind determinism.
./build-tsan/tests/worker_pool_test
./build-tsan/tests/obs_test
# The streaming ingest layer shares the pool/obs-shard surface; its chaos
# determinism test replays the same hostile storm at --jobs 1 and 4, so
# TSan sees the detector math and metric shards race-free under load.
./build-tsan/tests/stream_test
./build-tsan/tests/stream_parity_test --gtest_filter='*Chaos*'
# The corpus sweep fans seeds over worker-local arenas and writes per-seed
# outcome slots concurrently; its jobs-parity test runs under TSan so a
# race in the slot writes or arena recycling cannot hide behind the
# byte-identical aggregation.
./build-tsan/tests/corpus_test --gtest_filter='*Jobs*'
# The OCSVM's pooled path: the Gram build's column tiles and
# decision_batch()'s rows fanned over pools of 1, 2 and 4 workers must
# match the inline results bit for bit, race-free.
./build-tsan/tests/ml_test --gtest_filter='Ocsvm.PoolScoresMatchInline'

# ASan+UBSan pass over the failure surface: fault injection, lenient trace
# salvage (including the seeded byte-mutation fuzz battery), campaign
# isolation, the anatomizer property battery, and the golden Fig. 5
# reruns push on exactly the code where memory and UB bugs would hide
# (salvaged prefixes, perturbed byte streams, exceptions unwinding across
# pool workers).
cmake -B build-asan -S . -DSENT_SANITIZE=address,undefined
cmake --build build-asan -j "${JOBS}" \
  --target fault_test serialize_test campaign_test worker_pool_test \
  journal_test cli_test \
  obs_test interval_property_test golden_fig5_test sim_test bytecode_test \
  stream_test stream_parity_test corpus_test \
  eval_metrics_test ml_test ocsvm_reference_test net_test sim_digest_test \
  apps_test ctp_app_test trickle_test
./build-asan/tests/fault_test
./build-asan/tests/serialize_test
./build-asan/tests/campaign_test
# World reset + buffer recycling under ASan/UBSan: reused slots, recycled
# trace buffers and reset-after-watchdog-unwind are exactly where
# lifetime bugs would hide (DESIGN.md §15).
./build-asan/tests/worker_pool_test
# journal_test joins the ASan pass for the durability layer (DESIGN.md
# §13): the journal-recovery byte-mutation fuzz battery, torn/failed
# commit chaos, and the fork+SIGKILL crash-resume test all run sanitized.
./build-asan/tests/journal_test
./build-asan/tests/cli_test
./build-asan/tests/obs_test
./build-asan/tests/interval_property_test
./build-asan/tests/golden_fig5_test
# The interpreter core and event engine under ASan/UBSan: the slab slots
# and the deferred-inline path are exactly where lifetime bugs would hide
# (closures moved out of slots mid-flight, spilled wake-ups, operand-pool
# pointers).
./build-asan/tests/sim_test
./build-asan/tests/bytecode_test
# The step lanes' tournament tree and the channel's bit rows are index
# arithmetic (DESIGN.md §12.4): the simulator digest fixture (81-node grid,
# Fig-5 demo configurations and fault batteries included) and the channel
# battery (node ids past one 64-bit word) run sanitized, so a row or leaf
# index off by one word cannot hide behind a matching trace.
./build-asan/tests/sim_digest_test
./build-asan/tests/net_test
# The case-study apps under ASan/UBSan: each app's program builder picks
# its bug from the mutation enum, and its host closures capture app state
# by reference, so a closure outliving its app or reading a field the
# selected program never set would hide here.
./build-asan/tests/apps_test
./build-asan/tests/ctp_app_test
./build-asan/tests/trickle_test
# The streaming ingest surface (DESIGN.md §14): the frame-decoder fuzz
# battery, quarantine/eviction paths, and the batch≡streaming parity suite
# all run sanitized — hostile bytes and salvage-after-poison are exactly
# where out-of-bounds reads would hide.
./build-asan/tests/stream_test
./build-asan/tests/stream_parity_test
# The corpus generator and metric layer sanitized: mutation-hook builds,
# trace-derived label derivation over recycled arena buffers, and the
# hand-fixture metric battery (DESIGN.md §16).
./build-asan/tests/corpus_test
./build-asan/tests/eval_metrics_test
# The OCSVM reads its Gram through a row -> class index over the distinct
# feature rows (DESIGN.md §10): the detector battery, the identical-rows
# tie check, the blocked-vs-per-element and pooled-vs-inline Gram checks
# and the parity suite against the naive oracle (duplicated-row shapes
# included) run sanitized, so an index past the U x U Gram or the hash
# table cannot hide behind a passing score.
./build-asan/tests/ml_test
./build-asan/tests/ocsvm_reference_test

# Count flags are read as non-negative integers: a negative count is a
# usage error (exit 2), never a wrapped size_t that crashes the binary.
# Counts whose consumer needs at least one are read as positive integers,
# so 0 is a usage error too, not a crash or a failed precondition. Numeric
# flags are read as finite numbers (NaN would switch a gate's floor off),
# scales as positive ones, intensities and floors as non-negative ones,
# probabilities inside [0, 1], and durations as 1 to 2^64-1 clock cycles
# (1e300 s used to overflow the cast to cycles). ext_campaign reads every
# flag before it picks a mode, so a flag of another mode is checked too.
for cmd in "bench/fig5a_data_pollution --rows -1" "bench/ext_chaos --runs -1" \
  "bench/ext_campaign --runs -2" "bench/ext_fleet --streams -1" \
  "bench/ext_localization --top-k -1" "bench/ext_fleet --streams 0" \
  "bench/ext_campaign --runs 0" "bench/ext_campaign --top-k 0 --runs 2" \
  "bench/ext_chaos --runs 0" "bench/ext_chaos --top-k 0 --runs 2" \
  "bench/ext_corpus --top-k 0 --variants smoke --seeds 1" \
  "bench/ext_localization --top-k 0" \
  "bench/fig5b_packet_loss --run-seconds nan" \
  "bench/fig5c_ctp_heartbeat --run-seconds inf" \
  "bench/ext_corpus --run-scale -1 --variants smoke --seeds 1" \
  "bench/fig5b_packet_loss --mean-interval-ms 0" \
  "examples/network_playground --loss 2" "bench/ext_sim --min-mips abc" \
  "bench/ext_chaos --faults -1" "bench/ext_fleet --chaos nan" \
  "bench/ablation_granularity --window-ms nan" \
  "bench/fig5b_packet_loss --mean-interval-ms -5" "bench/ext_sim --reps 0" \
  "bench/ext_campaign --min-efficiency nan" "bench/ext_sim --min-mips nan" \
  "bench/ext_campaign --runs 1 --reps 1 --warmup 0 --cycle-budget abc" \
  "bench/ext_campaign --case II --runs 1 --journal build/bad.journal --warmup abc" \
  "bench/fig5b_packet_loss --run-seconds 1e300" \
  "bench/ablation_granularity --window-ms 1e300"; do
  set +e
  ./build/${cmd} > /dev/null 2>&1
  STATUS=$?
  set -e
  if [ "${STATUS}" -ne 2 ]; then
    echo "bad flag value: '${cmd}' exited ${STATUS}, expected 2" >&2
    exit 1
  fi
done

# Chaos smoke: a small fault-intensity grid end to end. Exits nonzero on
# any process abort, nondeterminism across thread counts, or a clean row
# that fails to reproduce the no-harness baseline.
./build/bench/ext_chaos --runs 4 --jobs 2 --json build/BENCH_chaos_smoke.json

# Fleet-ingest soak smoke (DESIGN.md §14): multi-stream chaos through the
# streaming service. ext_fleet exits nonzero on batch≡streaming parity
# divergence, on any logical difference between serial and parallel
# detector math, or when peak retained bytes exceed the stream-volume
# bound (the RSS-growth gate). The deterministic metrics sections must
# also be byte-identical between --jobs 1 and --jobs 2 invocations.
./build/bench/ext_fleet --streams 4 --run-seconds 1.5 --chaos 2 --jobs 1 \
  --metrics build/metrics_fleet_j1.json --json build/BENCH_fleet_smoke.json
./build/bench/ext_fleet --streams 4 --run-seconds 1.5 --chaos 2 --jobs 2 \
  --metrics build/metrics_fleet_j2.json --json build/BENCH_fleet_smoke.json
cmp build/metrics_fleet_j1.json build/metrics_fleet_j2.json

# Observability smoke: --metrics must emit parseable JSON with the promised
# top-level sections, and the deterministic sections must be byte-identical
# between --jobs 1 and --jobs 2 campaigns of the same workload.
./build/bench/ext_campaign --runs 4 --jobs 1 \
  --metrics build/metrics_j1.json --json build/BENCH_campaign_smoke.json
./build/bench/ext_campaign --runs 4 --jobs 2 \
  --metrics build/metrics_j2.json --json build/BENCH_campaign_smoke.json
python3 - <<'EOF'
import json
snap = json.load(open("build/metrics_j1.json"))
for key in ("version", "counters", "gauges", "histograms"):
    assert key in snap, f"metrics snapshot missing {key!r}"
assert snap["counters"].get("campaign.runs", 0) > 0, "no campaign runs recorded"
EOF
cmp build/metrics_j1.json build/metrics_j2.json

# Scaling regression gate (DESIGN.md §15.5): a reduced chaos campaign
# through the amortized engine, serial vs --jobs 2. ext_campaign --scale
# exits nonzero on any stats or obs-snapshot divergence between the two
# legs, when the serial leg's snapshot did not count all 200 runs, or when
# parallel efficiency
# (speedup / min(jobs, hardware cores)) drops below the floor — 0.55
# tolerates single-core containers and scheduler noise while still
# catching a reintroduced hot-path lock, which lands far below it.
./build/bench/ext_campaign --scale 200 --jobs 2 --reps 2 --warmup 8 \
  --min-efficiency 0.55 --stats-out build/scale_stats \
  --json build/BENCH_scale_smoke.json
# The deterministic stats JSON must be byte-identical across schedules.
cmp build/scale_stats.serial.json build/scale_stats.parallel.json
rm -f build/scale_stats.serial.json build/scale_stats.parallel.json

# Phase tables (DESIGN.md §11): every leg of the grid and scale smokes
# splits its campaign.run time into setup / simulate / trace round trip /
# analyze plus a residual, from the obs phase scopes. Each row must be
# >= 0 (a negative row means overlapping or double-counted scopes) and
# the rows must sum to the leg's campaign.run total.
python3 - <<'EOF'
import json
ROWS = ("setup", "simulate", "trace_round_trip", "analyze", "residual")
def check(where, phases):
    assert phases["runs"] > 0, f"{where}: no campaign.run scope timed"
    values = [phases[f"{row}_ms_per_run"] for row in ROWS]
    assert min(values) >= 0, f"{where}: negative phase row in {phases}"
    total = phases["run_ms_per_run"]
    assert abs(sum(values) - total) <= 1e-3 * total + 1e-6, \
        f"{where}: rows sum to {sum(values)}, campaign.run is {total}"
grid = json.load(open("build/BENCH_campaign_smoke.json"))
for case in grid["cases"]:
    for leg in ("serial_phases", "parallel_phases"):
        check(f"{case['name']} {leg}", case[leg])
scale = json.load(open("build/BENCH_scale_smoke.json"))
for leg in ("serial_phases", "parallel_phases"):
    check(f"scale {leg}", scale[leg])
EOF

# Crash-resume smoke (DESIGN.md §13): run a journaled campaign that
# SIGKILLs itself mid-flight (--kill-after), resume it, and require the
# resumed stats JSON to be byte-identical to an uninterrupted run's — at a
# different --jobs than the killed attempt, since resume must be
# schedule-independent. The killed child must die by signal (exit 137),
# not complete.
rm -f build/crash.journal build/stats_clean.journal \
  build/stats_resumed.json build/stats_clean.json
set +e
./build/bench/ext_campaign --case II --runs 8 --jobs 2 \
  --journal build/crash.journal \
  --kill-after 3 --json build/stats_killed.json > /dev/null 2>&1
KILLED_STATUS=$?
set -e
if [ "${KILLED_STATUS}" -ne 137 ]; then
  echo "crash-resume smoke: expected SIGKILL exit 137, got ${KILLED_STATUS}" >&2
  exit 1
fi
./build/bench/ext_campaign --case II --runs 8 --jobs 4 \
  --journal build/crash.journal \
  --resume --json build/stats_resumed.json
./build/bench/ext_campaign --case II --runs 8 --jobs 1 \
  --journal build/stats_clean.journal \
  --json build/stats_clean.json
cmp build/stats_resumed.json build/stats_clean.json
rm -f build/crash.journal build/stats_clean.journal

# ML kernel floor: the quick grid times the blocked Gram build against a
# per-element build (one kernel_eval per entry) on i.i.d. rows and on 33
# distinct rows repeated to l = 1137 (the pooled Fig. 5(a) shape), and
# exits nonzero unless the blocked build is at least 2x faster on the
# largest i.i.d. entry (it measures 5-6x; a per-element loop in its place
# reads ~1x). Numerical parity is not checked here: ctest and the ASan
# pass run it (ml_test: blocked vs per-element Gram within 1e-10 and the
# distinct-row cell count; ocsvm_reference_test: the detector against
# the naive oracle).
./build/bench/micro_perf --quick --ml-json build/BENCH_ml.json
test -s build/BENCH_ml.json

# Corpus-evaluation smoke (DESIGN.md §16): a reduced corpus x detector
# sweep at --jobs 1 and --jobs 2; the deterministic metrics JSON must be
# byte-identical across schedules (the driver's own --selfcheck-jobs is
# disabled here because the cmp below IS the check, at smoke scale).
./build/bench/ext_corpus --variants smoke --seeds 2 --run-scale 0.25 \
  --selfcheck-jobs 0 --jobs 1 --json build/BENCH_corpus_j1.json
./build/bench/ext_corpus --variants smoke --seeds 2 --run-scale 0.25 \
  --selfcheck-jobs 0 --jobs 2 --json build/BENCH_corpus_j2.json
cmp build/BENCH_corpus_j1.json build/BENCH_corpus_j2.json
rm -f build/BENCH_corpus_j1.json build/BENCH_corpus_j2.json

# Interpreter-throughput gate: the simulator on the three Fig-5 cases.
# ext_sim exits nonzero if any case's virtual-MIPS drops below the floor,
# set well under the recorded numbers (BENCH_sim.json) to absorb machine
# noise. Output identity is sim_digest_test's job, and a fused-dispatch
# regression is caught deterministically by its sim.fused_steps floor
# (SimTraffic).
./build/bench/ext_sim --reps 3 --min-mips 50 \
  --json build/BENCH_sim_smoke.json
test -s build/BENCH_sim_smoke.json

# Benchmark package (BENCHMARK.json, perfbench/README.md): its own build
# tree and tests, then a short traced smoke of each workload. Traced mode
# rebuilds every seeded run from the layers' public calls — run_case1..3
# on the benchmark's own WorldArena, and for chaos-II the trace codec's
# stream wrappers — and exits non-zero unless each rebuilt run matches the
# program's runner, which builds its worlds on the runner's arena and
# round-trips through the codec's single-buffer entry points into
# recycled arena buffers. sentbench refuses debug and sanitizer builds and
# needs 2 hardware threads.
cmake -S perfbench -B .bench_build
cmake --build .bench_build -j "${JOBS}"
ctest --test-dir .bench_build --output-on-failure
for workload in chaos-II clean-III pooled-I; do
  .bench_build/sentbench --workload "${workload}" --seconds 2 --trace 1
done

# Reachability gate: an -O0 --gc-sections build of the bench drivers,
# examples and sentbench in build-reach/; fails on an out-of-line src/
# function that none of them reaches unless scripts/reachability.allow
# names it with a reason, and on a stale allowlist line.
scripts/reachability.sh

echo "tier-1 OK (incl. TSan concurrency/obs/stream/worker-pool/corpus/ocsvm-pool + ASan/UBSan fault-surface/property/golden/sim-digest/net/apps/stream/worker-pool/corpus/ocsvm + chaos + fleet soak + obs + scaling gate + phase tables + corpus sweep parity + ML kernel floor + vMIPS gate + perfbench tests and traced smokes + reachability gate)"
