#!/usr/bin/env bash
# CI driver: one job per invocation, mirroring .github/workflows/ci.yml.
#
#   ci/run_ci.sh release      Fault-site, env-knob and reachability
#                             guards (check_fault_sites.sh,
#                             check_env_knobs.sh, check_reachable.sh),
#                             Release build (warnings-as-errors), full
#                             ctest suite, the end-to-end serving smoke,
#                             benchmarks, the check_bench.py plan-vs-tape
#                             regression gate, and the bench-artifacts
#                             bundle.
#   ci/run_ci.sh asan-ubsan   Address+UB sanitizer build, tier1 tests
#                             plus the chaos suite (fault-injection
#                             paths are exactly where lifetime bugs
#                             hide, so they run under ASan).
#   ci/run_ci.sh tsan         ThreadSanitizer build, tier1 tests plus the
#                             chaos suite (fault-injection exercises the
#                             swap/shed paths where races hide) with
#                             EXPLAINTI_NUM_THREADS=4 so every parallel
#                             region actually fans out under TSan.
#
# Run locally exactly as CI does: each job uses its own build directory,
# so jobs can run back-to-back without reconfiguring. Set
# EXPLAINTI_CCACHE=ON in the environment (CI does) to compile through
# ccache; the flag is forwarded to CMake and ignored when ccache is not
# installed.

set -euo pipefail

JOB="${1:-release}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="${CI_PARALLEL_JOBS:-$(nproc)}"
# Per-test wall-clock cap: a hung test fails loudly instead of eating the
# job-level timeout-minutes budget in silence.
CTEST_TIMEOUT="${CI_CTEST_TIMEOUT:-300}"

configure_and_build() {
  local build_dir="$1"
  shift
  cmake -B "$build_dir" -S "$ROOT" -DEXPLAINTI_WERROR=ON \
    -DEXPLAINTI_CCACHE="${EXPLAINTI_CCACHE:-OFF}" "$@"
  cmake --build "$build_dir" -j "$JOBS"
}

report_ccache() {
  if [ "${EXPLAINTI_CCACHE:-OFF}" = "ON" ] && command -v ccache >/dev/null; then
    echo "ccache statistics:"
    ccache -s
  fi
}

case "$JOB" in
  release)
    # Fault-site guard: every FAULT_POINT/ShouldInject site planted in
    # src/ must be armed by at least one test, so no recovery path ships
    # that nothing exercises.
    "$ROOT/ci/check_fault_sites.sh"
    # Env-knob guard: src/ may read only the allow-listed environment
    # variables, so no untested env mode ships.
    "$ROOT/ci/check_env_knobs.sh"
    # Reachability guard: every library function must be kept by a bench,
    # an example or explainti_e2e when linked with --gc-sections at -O0,
    # or be a root named with its reason in ci/reachable_allowlist.txt,
    # so no code ships that only tests call.
    "$ROOT/ci/check_reachable.sh"
    BUILD="$ROOT/build-ci-release"
    configure_and_build "$BUILD" -DCMAKE_BUILD_TYPE=Release
    (cd "$BUILD" && ctest --output-on-failure --timeout "$CTEST_TIMEOUT" \
       -j "$JOBS")
    # End-to-end serving smoke: every BENCHMARK.json workload for one
    # round through InferenceServer, each response checked bit-exactly
    # against the tape oracle, plus a self-test that a corrupted reference
    # is caught. This guards the one serving path end to end.
    python3 "$ROOT/bench/e2e/run.py" --smoke
    # Scaling benchmark doubles as a determinism gate (checksums must
    # match across 1/2/4 threads); keep its JSON as a CI artifact.
    (cd "$BUILD" && ./bench/bench_parallel_scaling)
    echo "BENCH_parallel.json:"
    cat "$BUILD/BENCH_parallel.json"
    # Serving benchmark: tape vs no-grad per-call latency and allocation
    # counts, plus the session-vs-tape matrix. It hard-fails if the
    # session's outputs are not bit-identical to the tape or a warmed-up
    # fast path misses the arena.
    (cd "$BUILD" && ./bench/bench_inference_session)
    echo "BENCH_inference.json:"
    cat "$BUILD/BENCH_inference.json"
    # Bench-regression gate: the session must not fall behind the tape
    # (p50 within tolerance, never more allocations) and the raw encoder
    # Serve must stay allocation-free after warm-up.
    python3 "$ROOT/ci/check_bench.py" "$BUILD/BENCH_inference.json"
    # Embedding-store benchmark: sharded search, rebuilds under a pinned
    # reader, and the persisted-store roundtrip (which hard-fails inside
    # the binary if a reloaded store is not bit-identical). check_bench.py
    # re-gates recall@10, roundtrip identity, and the zero-allocation
    # steady state.
    (cd "$BUILD" && ./bench/bench_embedding_store)
    echo "BENCH_store.json:"
    cat "$BUILD/BENCH_store.json"
    python3 "$ROOT/ci/check_bench.py" "$BUILD/BENCH_store.json"
    # Serving benchmark: open-loop Poisson load against the
    # micro-batching InferenceServer vs the sequential baseline. On
    # >=4-thread hosts it hard-fails unless batched throughput beats
    # sequential by 1.5x at the highest offered load; everywhere it
    # hard-fails if the queue ever exceeded its bound.
    (cd "$BUILD" && ./bench/bench_online_simulation)
    echo "BENCH_serving.json:"
    cat "$BUILD/BENCH_serving.json"
    # The serving gate reads the host metadata embedded in the JSON: on
    # >=4-thread hosts it enforces the 1.5x batched speedup, elsewhere it
    # prints an explicit SKIPPED line instead of silently passing.
    python3 "$ROOT/ci/check_bench.py" "$BUILD/BENCH_serving.json"
    # Table-QA benchmark: teacher-path answers vs the direct-prediction
    # oracle (must be exact), surrogate-vs-teacher agreement on both
    # corpora, cascade latency/escalation at three thresholds, the
    # allocation-free surrogate scoring path, and composed-justification
    # judge coverage. check_bench.py gates agreement floors, escalation
    # monotonicity, the exactly-0 alloc count, and (on >=4-thread hosts)
    # the 2x surrogate scoring advantage.
    (cd "$BUILD" && ./bench/bench_qa)
    echo "BENCH_qa.json:"
    cat "$BUILD/BENCH_qa.json"
    python3 "$ROOT/ci/check_bench.py" "$BUILD/BENCH_qa.json"
    # Consolidate every benchmark JSON into one artifact bundle. The
    # release artifacts are incomplete without all of them, so a missing
    # file fails the job rather than silently uploading a partial set.
    BUNDLE="$BUILD/bench-artifacts"
    rm -rf "$BUNDLE"
    mkdir -p "$BUNDLE"
    for bench_json in BENCH_parallel.json BENCH_inference.json \
                      BENCH_store.json BENCH_serving.json \
                      BENCH_qa.json; do
      if [ ! -f "$BUILD/$bench_json" ]; then
        echo "$bench_json missing from release artifacts" >&2
        exit 1
      fi
      cp "$BUILD/$bench_json" "$BUNDLE/"
    done
    echo "bench-artifacts bundle:"
    ls -l "$BUNDLE"
    ;;
  asan-ubsan)
    BUILD="$ROOT/build-ci-asan"
    configure_and_build "$BUILD" \
      -DCMAKE_BUILD_TYPE=Debug -DEXPLAINTI_SANITIZE=address,undefined
    (cd "$BUILD" && \
     ASAN_OPTIONS=halt_on_error=1:detect_leaks=1 \
     UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
     ctest -L 'tier1|chaos' --output-on-failure --timeout "$CTEST_TIMEOUT" \
       -j "$JOBS")
    ;;
  tsan)
    BUILD="$ROOT/build-ci-tsan"
    configure_and_build "$BUILD" \
      -DCMAKE_BUILD_TYPE=Debug -DEXPLAINTI_SANITIZE=thread
    (cd "$BUILD" && \
     EXPLAINTI_NUM_THREADS=4 \
     TSAN_OPTIONS=halt_on_error=1:second_deadlock_stack=1 \
     ctest -L 'tier1|chaos' --output-on-failure --timeout "$CTEST_TIMEOUT" \
       -j "$JOBS")
    ;;
  *)
    echo "unknown CI job: $JOB (expected release, asan-ubsan, or tsan)" >&2
    exit 2
    ;;
esac

report_ccache
echo "ci job '$JOB' passed"
