#!/usr/bin/env bash
# Full correctness gate: format check, clang-tidy, the ctest suite under a
# plain Release build and under each sanitizer, and the benchmark's own
# tests.
#
#   tools/check_all.sh                 # run every stage
#   tools/check_all.sh format tidy     # just the static stages
#   tools/check_all.sh address thread  # just those sanitizer suites
#   tools/check_all.sh bench           # just the benchmark's tests
#
# Stages: format, tidy, release, obs-off, address, undefined, thread,
# tsa, serve, fuzz-smoke, bench.
# Stages whose tooling is unavailable (no clang-format / clang-tidy /
# clang++ on PATH) are reported as SKIPPED and do not fail the gate;
# sanitizer and test stages always run and must pass.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$repo_root"

jobs="$(nproc 2>/dev/null || echo 2)"
suppressions="$repo_root/tools/sanitizer-suppressions.txt"
# Every suite in tests/serve_test.cpp, for builds where only that target
# (plus its ctest discovery stub) exists.
serve_tests='EncodingCache|ServeOptions|OnlineProtocol|Serving'
serve_tests+='|PredictionService|BatchedPrediction'
stages=("$@")
if [ ${#stages[@]} -eq 0 ]; then
  stages=(format tidy release obs-off address undefined thread tsa serve
          fuzz-smoke bench)
fi

declare -a results=()
note() { printf '\n== %s ==\n' "$*"; }
record() { results+=("$1"); }

run_suite() {  # run_suite <name> <sanitize-value>
  local name="$1" sanitize="$2"
  local build_dir="build-check-$name"
  note "configure+build+ctest: $name (PRIONN_SANITIZE=$sanitize)"
  cmake -B "$build_dir" -S . \
    -DCMAKE_BUILD_TYPE=Release \
    -DPRIONN_SANITIZE="$sanitize" >/dev/null
  cmake --build "$build_dir" -j "$jobs"
  # The suppressions file is the single ledger for tolerated findings;
  # halt_on_error keeps ASan/TSan failures from being reported-and-ignored.
  env \
    ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" \
    UBSAN_OPTIONS="print_stacktrace=1" \
    LSAN_OPTIONS="suppressions=$suppressions" \
    TSAN_OPTIONS="halt_on_error=1:suppressions=$suppressions" \
    ctest --test-dir "$build_dir" --output-on-failure -j "$jobs"
  record "PASS  $name"
}

for stage in "${stages[@]}"; do
  case "$stage" in
    format)
      if command -v clang-format >/dev/null 2>&1; then
        note "clang-format --dry-run"
        git ls-files '*.cpp' '*.hpp' |
          xargs clang-format --dry-run --Werror
        record "PASS  format"
      else
        record "SKIP  format (clang-format not on PATH)"
      fi
      ;;
    tidy)
      if command -v clang-tidy >/dev/null 2>&1; then
        note "clang-tidy build (PRIONN_TIDY=ON)"
        cmake -B build-check-tidy -S . \
          -DCMAKE_BUILD_TYPE=Release -DPRIONN_TIDY=ON >/dev/null
        cmake --build build-check-tidy -j "$jobs"
        record "PASS  tidy"
      else
        record "SKIP  tidy (clang-tidy not on PATH)"
      fi
      ;;
    release)   run_suite release off ;;
    obs-off)
      # Telemetry compiled out: the obs classes still build and their
      # tests still pass, but every instrumentation call site is gone.
      note "configure+build+ctest: obs-off (PRIONN_OBS=OFF)"
      cmake -B build-check-obs-off -S . \
        -DCMAKE_BUILD_TYPE=Release \
        -DPRIONN_OBS=OFF >/dev/null
      cmake --build build-check-obs-off -j "$jobs"
      ctest --test-dir build-check-obs-off --output-on-failure -j "$jobs"
      record "PASS  obs-off"
      ;;
    address)   run_suite asan address ;;
    undefined) run_suite ubsan undefined ;;
    thread)    run_suite tsan thread ;;
    tsa)
      # Thread-safety analysis (clang capability attributes): compile-only
      # gate — a -Wthread-safety diagnostic is a locking bug.
      if command -v clang++ >/dev/null 2>&1; then
        note "thread-safety analysis build (PRIONN_TSA=ON, clang)"
        cmake -B build-check-tsa -S . \
          -DCMAKE_BUILD_TYPE=Release \
          -DCMAKE_CXX_COMPILER=clang++ \
          -DPRIONN_TSA=ON >/dev/null
        cmake --build build-check-tsa -j "$jobs"
        record "PASS  tsa"
      else
        record "SKIP  tsa (clang++ not on PATH)"
      fi
      ;;
    serve)
      # Serving subsystem gate, both halves: the PredictionService
      # concurrency tests under TSan (submit/retrain/swap races), then
      # the unsanitized micro_serve binary whose exit status enforces
      # bit-exact replay, concurrent throughput >= deterministic, and the
      # 2x retrain p99 ceiling. The 'thread' and 'release' stages cover these tests
      # too; this stage is the quick loop for serving-path changes.
      note "serve: PredictionService tests under TSan"
      cmake -B build-check-serve-tsan -S . \
        -DCMAKE_BUILD_TYPE=Release \
        -DPRIONN_SANITIZE=thread >/dev/null
      cmake --build build-check-serve-tsan -j "$jobs" --target serve_test
      env TSAN_OPTIONS="halt_on_error=1:suppressions=$suppressions" \
        ctest --test-dir build-check-serve-tsan --output-on-failure \
          --no-tests=error -j "$jobs" -R "$serve_tests"
      note "serve: micro_serve gate (unsanitized)"
      cmake -B build-check-serve -S . \
        -DCMAKE_BUILD_TYPE=Release \
        -DPRIONN_SANITIZE=off >/dev/null
      cmake --build build-check-serve -j "$jobs" --target micro_serve
      ctest --test-dir build-check-serve --output-on-failure \
        --no-tests=error -R micro_serve
      record "PASS  serve"
      ;;
    fuzz-smoke)
      # Bounded coverage-guided run of every libFuzzer harness under
      # ASan+UBSan, seeded from the committed corpora. ~60s per harness:
      # a smoke pass that catches shallow regressions, not a campaign.
      if command -v clang++ >/dev/null 2>&1; then
        note "fuzz smoke (PRIONN_FUZZ=ON, clang, ${FUZZ_SMOKE_SECONDS:-60}s/harness)"
        cmake -B build-check-fuzz -S . \
          -DCMAKE_BUILD_TYPE=Release \
          -DCMAKE_CXX_COMPILER=clang++ \
          -DPRIONN_FUZZ=ON >/dev/null
        cmake --build build-check-fuzz -j "$jobs"
        mkdir -p build-check-fuzz/fuzz-artifacts
        for target in build-check-fuzz/fuzz/fuzz_*; do
          name="$(basename "$target")"
          [ "$name" = "fuzz_regression" ] && continue
          corpus="fuzz/corpus/${name#fuzz_}"
          # Scratch working corpus: libFuzzer writes new inputs into its
          # first corpus dir, and the committed seeds must stay pristine.
          scratch="build-check-fuzz/corpus-work/${name#fuzz_}"
          rm -rf "$scratch" && mkdir -p "$scratch"
          cp "$corpus"/* "$scratch"/
          note "fuzz smoke: $name"
          env ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" \
              UBSAN_OPTIONS="print_stacktrace=1" \
              LSAN_OPTIONS="suppressions=$suppressions" \
            "$target" -max_total_time="${FUZZ_SMOKE_SECONDS:-60}" \
              -dict=fuzz/prionn.dict -print_final_stats=1 \
              -artifact_prefix=build-check-fuzz/fuzz-artifacts/ \
              "$scratch"
        done
        record "PASS  fuzz-smoke"
      else
        record "SKIP  fuzz-smoke (clang++ not on PATH)"
      fi
      ;;
    bench)
      # The benchmark's own tests (perfbench/test.py): metric and
      # BENCHMARK.json consistency, plus a tiny run of every workload,
      # untraced and traced, whose reference-arithmetic check compares
      # the library's GEMM and layer kernels against plain loops.
      note "bench: python3 perfbench/test.py"
      python3 perfbench/test.py
      record "PASS  bench"
      ;;
    *)
      echo "unknown stage: $stage" >&2
      echo "stages: format tidy release obs-off address undefined thread" \
           "tsa serve fuzz-smoke bench" >&2
      exit 2
      ;;
  esac
done

note "summary"
printf '%s\n' "${results[@]}"
