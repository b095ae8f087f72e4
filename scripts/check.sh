#!/usr/bin/env bash
# One-stop verification: configure, build (the parad library is
# warnings-as-errors, see src/CMakeLists.txt) and run the full test suite —
# including the gradient-plan API tests, the golden remark-dump test and the
# golden virtual outputs of five figure benches (GoldenBench.*).
# CI (.github/workflows/ci.yml) runs exactly this script.
#
#   BUILD_DIR=out ./scripts/check.sh   # override the build directory
#   SANITIZE=1 ./scripts/check.sh      # ASan+UBSan (+ float-cast-overflow)
#                                      # build (separate build dir)
#   TSAN=1 ./scripts/check.sh          # ThreadSanitizer build, concurrency
#                                      # suites only (serve pipeline, cache
#                                      # hammers, engine table, program
#                                      # cache, psim rank fibers)
#   CHAOS=1 ./scripts/check.sh         # widened fault-injection chaos sweep
#   SCALE=1 ./scripts/check.sh         # 4096-virtual-rank weak-scaling smoke
#   SERVE=1 ./scripts/check.sh         # serving-layer suite + mixed-traffic
#                                      # throughput smoke (incl. one
#                                      # fault-injected batch)
#   SOAK=1 ./scripts/check.sh          # multi-threaded serving soak under
#                                      # ThreadSanitizer: widened mixed
#                                      # hot/cold/faulted/expired traffic at
#                                      # several times queue capacity
#   CODEGEN=1 ./scripts/check.sh       # whole suite under the codegen engine
#                                      # + dispatch-throughput criterion check
#   DURABLE=1 ./scripts/check.sh       # widened durable-checkpoint lane:
#                                      # disk-fault chaos (iofail/torn/
#                                      # iocorrupt x kill) + restart-resume
#                                      # sweeps + durable columns of the
#                                      # checkpoint bench. Composes with
#                                      # SANITIZE=1 (runs in the ASan dir)
#   BENCH=1 ./scripts/check.sh         # the repository benchmark's
#                                      # correctness gate only: perfbench
#                                      # self-test, then a short run of each
#                                      # BENCHMARK.json workload (oracles +
#                                      # exact-count fingerprint)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build}
JOBS=$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)

CMAKE_ARGS=()
if [[ "${SANITIZE:-0}" == "1" ]]; then
  BUILD_DIR=${BUILD_DIR}-asan
  CMAKE_ARGS+=(-DPARAD_SANITIZE=ON)
  export ASAN_OPTIONS=${ASAN_OPTIONS:-detect_leaks=1}
  export UBSAN_OPTIONS=${UBSAN_OPTIONS:-print_stacktrace=1}
fi

if [[ "${TSAN:-0}" == "1" ]]; then
  # ThreadSanitizer lane: a separate build dir, restricted to the suites that
  # exercise real host-thread concurrency (the serving pipeline, the
  # program-cache and codegen-artifact hammers, the engine table and its
  # default-engine slot) or fiber switches (the psim suites run multi-rank
  # machines, whose ranks are fibers on a per-run carrier thread), plus the
  # program-cache suite, whose per-run closure memo is per-thread state that
  # concurrent serve workers each touch. The full suite under TSan would
  # mostly re-measure single-threaded VM code at ~10x slowdown.
  BUILD_DIR=${BUILD_DIR}-tsan
  CMAKE_ARGS+=(-DPARAD_SANITIZE=thread)
  export TSAN_OPTIONS=${TSAN_OPTIONS:-halt_on_error=1}
  cmake -B "$BUILD_DIR" -S . "${CMAKE_ARGS[@]}"
  cmake --build "$BUILD_DIR" -j "$JOBS"
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS" \
    -R '^(Serve|ServeQueue|BoundedQueue|CacheConcurrency|BackendRegistry|ExecCache|Psim|PsimModel)\.'
  exit 0
fi

if [[ "${SOAK:-0}" == "1" ]]; then
  # Soak lane: the ThreadSanitizer build of the serving pipeline, but running
  # the mixed-traffic storm (tests/test_soak.cpp) with PARAD_SOAK=1 widened
  # iteration counts — 4 client threads bursting hot/cold/faulted/expired/
  # poisoned requests at several times queue capacity with deadlines, retries,
  # rate limits, the circuit breaker and registry eviction all armed. The
  # robustness suite rides along so single-feature races surface with a small
  # reproducer before the storm's noisy interleavings do.
  BUILD_DIR=${BUILD_DIR}-tsan
  CMAKE_ARGS+=(-DPARAD_SANITIZE=thread)
  export TSAN_OPTIONS=${TSAN_OPTIONS:-halt_on_error=1}
  cmake -B "$BUILD_DIR" -S . "${CMAKE_ARGS[@]}"
  cmake --build "$BUILD_DIR" -j "$JOBS"
  PARAD_SOAK=1 ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS" \
    -R '^(ServeSoak|ServeRobust|BoundedQueue)\.'
  exit 0
fi

if [[ "${BENCH:-0}" == "1" ]]; then
  # Benchmark lane: perfbench builds its own copy of the library (under
  # $CARGO_TARGET_DIR, default .bench_build). The self-test must flag one
  # perturbed gradient element per workload; each short run must verify every
  # op against its oracle and match perfbench/fingerprint.json (IR inst
  # counts, lowered bytes, virtual ns, plan counts). run.py exits non-zero
  # otherwise. Timings are not gated here.
  python3 perfbench/run.py --self-test
  for workload in $(python3 -c 'import json
print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))'); do
    python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 5 \
      --trace 0
  done
  exit 0
fi

cmake -B "$BUILD_DIR" -S . "${CMAKE_ARGS[@]}"
cmake --build "$BUILD_DIR" -j "$JOBS"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"

# Listing a micro-benchmark's cases must not measure: each listing runs in a
# fresh directory, which must hold no BENCH_*.json afterwards.
bench_bin="$BUILD_DIR/bench"
[[ "$bench_bin" == /* ]] || bench_bin="$PWD/$bench_bin"
list_dir=$(mktemp -d)
for name in micro_ad_ops micro_chaos micro_ckpt micro_interp micro_scale \
            serve_throughput; do
  (cd "$list_dir" && "$bench_bin/$name" --benchmark_list_tests >/dev/null)
  if compgen -G "$list_dir/BENCH_*.json" >/dev/null; then
    echo "check.sh: $name --benchmark_list_tests wrote a BENCH_*.json" >&2
    rm -rf "$list_dir"
    exit 1
  fi
done
rm -rf "$list_dir"

if [[ "${CHAOS:-0}" == "1" ]]; then
  # Expanded (seed x drop-rate) chaos sweep and (seed x kill-rate x engine)
  # rank-crash/recovery sweep over the MPI apps, plus the whole suite re-run
  # with a process-wide PARAD_FAULTS plan: every test must produce identical
  # values while the fabric drops/dups/delays messages. (Faults.* and
  # Checkpoint.* establish their own fault-free baselines, so they are
  # excluded from the env-plan pass and run with the widened sweeps instead.)
  PARAD_CHAOS=1 "$BUILD_DIR"/tests/parad_tests \
    --gtest_filter='Faults.*:Checkpoint.*'
  PARAD_FAULTS='seed=9,drop=0.1,dup=0.05,delay=0.2' \
    ctest --test-dir "$BUILD_DIR" -E '^(Faults|Checkpoint)\.' \
    --output-on-failure -j "$JOBS"
fi

if [[ "${CODEGEN:-0}" == "1" ]]; then
  # The whole suite executed by the native codegen backend (every engine is
  # bit-identical by contract, so nothing but wall time may change), against
  # a private artifact directory so runs can't poison each other's caches.
  # Then the dispatch micro-benchmark with the codegen lane enabled: the JSON
  # gains codegen_* rows and the measured codegen-over-exec ratio (reported,
  # not gated). The artifact directory must be absolute: ctest runs the tests
  # from $BUILD_DIR/tests, which would resolve a relative one below it.
  codegen_dir="$BUILD_DIR/codegen-cache"
  [[ "$codegen_dir" == /* ]] || codegen_dir="$PWD/$codegen_dir"
  PARAD_ENGINE=codegen \
  PARAD_CODEGEN_DIR="$codegen_dir" \
    ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"
  (cd "$BUILD_DIR" && PARAD_BENCH_CODEGEN=1 bench/micro_interp \
    --benchmark_filter='^$')
fi

if [[ "${DURABLE:-0}" == "1" ]]; then
  # Durable-checkpoint lane (DESIGN.md §16): the Durable.* suite with the
  # widened chaos seed set — restart-resume on all three engines, the seeded
  # disk-fault sweeps (write failures, torn installs, read bit-flips crossed
  # with rank kills), the adversarial deserialize corpus (which the ASan
  # composition memory-checks), and the serve warm-retry/restart tests. Then
  # the checkpoint bench with its durable-write-overhead and
  # warm-resume-vs-cold-replay columns enabled.
  PARAD_CHAOS=1 "$BUILD_DIR"/tests/parad_tests \
    --gtest_filter='Durable.*:Checkpoint.*'
  (cd "$BUILD_DIR" && PARAD_BENCH_DURABLE=1 bench/micro_ckpt \
    --benchmark_filter='^$')
fi

if [[ "${SERVE:-0}" == "1" ]]; then
  # Serving-layer lane: the full serve/cache-concurrency suite plus the
  # mixed-traffic throughput bench in smoke mode (small request counts, the
  # >=2x gate relaxed, but the fault-injected batch and its isolation
  # invariants enforced — the bench exits non-zero on any violation).
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS" \
    -R '^(Serve|ServeQueue|CacheConcurrency)\.'
  (cd "$BUILD_DIR" && PARAD_SERVE_SMOKE=1 bench/serve_throughput \
    --benchmark_filter='^$')
fi

if [[ "${SCALE:-0}" == "1" ]]; then
  # Weak-scaling smoke: drive the fabric/scheduler core from 64 up to 4096
  # virtual ranks (bench/micro_scale.cpp). The binary exits non-zero unless
  # per-rank simulator state stays flat and wall time per simulated step
  # fits well under quadratic — the scale regressions this repo guards.
  (cd "$BUILD_DIR" && bench/micro_scale --benchmark_filter='^$')
  # The figure benches grow SCALE-gated rows past their default sweeps
  # (fig10: threads beyond the modeled core count). fig8's 512-4096-rank
  # LULESH rows also honor SCALE=1 but are too heavy for this smoke lane.
  (cd "$BUILD_DIR" && SCALE=1 bench/fig10_omp_weak)
fi
