#!/usr/bin/env bash
# Full local gate: build + test the default and sanitize presets, run
# the concurrent-sweep suites (ExpSweep*) and the seeded fault-plan fuzz
# loop (FaultFuzz*, >=50 randomized plans) under ThreadSanitizer, smoke
# the hvc_run → hvc_report telemetry pipeline end to end, run the
# static-analysis stage (hvc_lint + clang-tidy when installed), and check
# the paper benchmark's result digests.
#
#   scripts/check.sh            # everything
#   scripts/check.sh default    # just the default preset
#   scripts/check.sh sanitize   # just the sanitizer preset
#   scripts/check.sh tsan       # just the tsan stage
#   scripts/check.sh report     # just the hvc_report smoke
#   scripts/check.sh lint       # just the static-analysis stage
#   scripts/check.sh perf       # just the hvc_perf regression smoke
#   scripts/check.sh diffsim    # just the differential sim-core oracle
#   scripts/check.sh paperbench # just the paper-benchmark digest check
set -euo pipefail

cd "$(dirname "$0")/.."

presets=("${@:-default sanitize}")
# Word-split the default list when invoked with no arguments.
if [ $# -eq 0 ]; then
  presets=(default sanitize tsan report lint perf diffsim paperbench)
fi

for preset in "${presets[@]}"; do
  echo "==== preset: ${preset} ===="
  if [ "${preset}" = "tsan" ]; then
    # Only the concurrency tests and the fault fuzz loop run under tsan;
    # build just their binaries (gtest_discover_tests would otherwise
    # inject <target>_NOT_BUILT failures for every unbuilt test target).
    cmake --preset "${preset}"
    cmake --build --preset "${preset}" -j "$(nproc)" \
      --target exp_test telemetry_test property_test
    ctest --preset "${preset}"
  elif [ "${preset}" = "report" ]; then
    # End-to-end report smoke covering every hvc_report mode:
    #  1. hvc_run + telemetry/audit/trace -> default render, --trace,
    #     --merged (Chrome trace with telemetry + audit + lifecycle).
    #  2. hvc_sweep over the city smoke (spans enabled) -> cohort and
    #     capacity tables, --capacity JSON export, and --explain (the
    #     critical-path waterfall; every unit must pass its exact-sum
    #     check against the measured PLT/chunk latency).
    cmake --preset default
    cmake --build --preset default -j "$(nproc)" \
      --target hvc_run hvc_sweep hvc_report
    out="$(mktemp -d)"
    build/tools/hvc_run scenarios/fig2_video_telemetry.json \
      --out "${out}/f2t" --trace "${out}/f2t.lifecycle.json" >/dev/null
    build/tools/hvc_report "${out}/f2t" \
      --trace "${out}/f2t.lifecycle.json" \
      --merged "${out}/f2t.merged.json" >"${out}/report.txt"
    grep -q "dchannel:small-object" "${out}/report.txt"
    grep -q "== telemetry ==" "${out}/report.txt"
    test -s "${out}/f2t.merged.json"

    build/tools/hvc_sweep scenarios/city_cell_smoke.json -j 2 \
      --out "${out}/city" >/dev/null
    build/tools/hvc_report "${out}/city" \
      --capacity "${out}/city.capacity.json" \
      --merged "${out}/city.merged.json" >"${out}/city_report.txt"
    grep -q "cohort" "${out}/city_report.txt"
    test -s "${out}/city.capacity.json"
    test -s "${out}/city.run0.spans.jsonl"
    build/tools/hvc_report "${out}/city" --explain >"${out}/city_explain.txt"
    grep -q "components sum to" "${out}/city_explain.txt"
    if grep -q "MISMATCH" "${out}/city_explain.txt"; then
      echo "span attribution mismatch:" >&2
      grep "MISMATCH" "${out}/city_explain.txt" >&2
      exit 1
    fi
    rm -rf "${out}"
    echo "hvc_report smoke OK"
  elif [ "${preset}" = "perf" ]; then
    # Hot-path perf regression smoke: quick-mode hvc_perf vs the
    # committed BENCH_hotpath.json baseline. The tolerance is generous
    # (90% slowdown allowed) because shared/CI machines are noisy and
    # quick mode uses reduced scales — the gate catches order-of-
    # magnitude regressions (accidental O(n^2), debug logging in a hot
    # loop), not single-digit drift. Full-fidelity numbers come from
    # `hvc_perf` (no --quick) on a quiet pinned machine.
    cmake --preset default
    cmake --build --preset default -j "$(nproc)" --target hvc_perf
    out="$(mktemp -d)"
    build/tools/hvc_perf --quick --out "${out}/BENCH_hotpath.json" \
      --baseline BENCH_hotpath.json --check --tolerance 0.9
    rm -rf "${out}"
    echo "hvc_perf smoke OK"
  elif [ "${preset}" = "diffsim" ]; then
    # Differential sim-core oracle (tests/diffsim_test): every scenario
    # file and a 50-seed fuzzed fault corpus must produce byte-identical
    # artifacts under the calendar queue vs the reference binary heap,
    # packet pool on vs off. The suite flips the switches in-process via
    # the test overrides; on top, prove the *environment* escape hatches
    # reach the same code: a city smoke sweep under HVC_REFERENCE_QUEUE=1
    # HVC_PACKET_POOL=0 must be byte-identical to the default run.
    cmake --preset default
    cmake --build --preset default -j "$(nproc)" \
      --target diffsim_test hvc_sweep
    build/tests/diffsim_test
    out="$(mktemp -d)"
    build/tools/hvc_sweep scenarios/city_cell_smoke.json -j 2 \
      --out "${out}/default" >/dev/null
    HVC_REFERENCE_QUEUE=1 HVC_PACKET_POOL=0 \
      build/tools/hvc_sweep scenarios/city_cell_smoke.json -j 2 \
      --out "${out}/ref" >/dev/null
    for f in "${out}"/default.*; do
      cmp "$f" "${out}/ref.${f##*/default.}"
    done
    rm -rf "${out}"
    echo "diffsim oracle OK"
  elif [ "${preset}" = "paperbench" ]; then
    # Paper benchmark (paperbench/): its own tests, then short untraced
    # passes of all four workloads: bulk_cca (Fig. 1a/1b, transport/CCA)
    # and city_pop (flow-level city cell) at the held-out seed 7, and the
    # trace-driven web_plt (Table 1) and video_rt (Fig. 2) at seed 7 and
    # at the default seed 42, so both seeds' 5G schedules are checked.
    # Every grid point's simulated outputs must match
    # paperbench/digests.txt, which the last stdout line reports as
    # "correct": true.
    python3 -m unittest discover -s paperbench/tests
    for run in bulk_cca:7 city_pop:7 web_plt:7 web_plt:42 video_rt:7 \
        video_rt:42; do
      workload="${run%%:*}"
      seed="${run##*:}"
      result="$(python3 paperbench/run.py --workload "${workload}" \
        --seed "${seed}" --seconds 3 --trace 0 | tail -n 1)"
      echo "${result}"
      case "${result}" in
        *'"correct": true'*)
          echo "paperbench ${workload} seed ${seed} digests OK" ;;
        *) echo "paperbench: ${workload} seed ${seed} outputs do not" \
             "match the digests" >&2
           exit 1 ;;
      esac
    done
  elif [ "${preset}" = "lint" ]; then
    # Static analysis. Three gates:
    #  1. R6 header self-sufficiency — the lint build preset's
    #     hvc_header_check target compiles every header under src/,
    #     bench/ and paperbench/ alone, in parallel and incrementally.
    #  2. tools/hvc_lint — the repo's determinism/simulation-safety rules:
    #     per-file R1–R5, R7, R8 plus the semantic passes R9–R11 (worker
    #     races, unordered-taint dataflow, hot-path allocation gating; see
    #     src/lint/lint.hpp) in one full-tree pass over every C++ root.
    #     Writes a SARIF report next to the build tree. Always runs.
    #  3. clang-tidy over compile_commands.json — generic C++ hygiene
    #     (.clang-tidy). Runs only when clang-tidy is installed; the
    #     build image does not ship LLVM, so absence is a skip, not a
    #     failure.
    cmake --preset lint
    cmake --build --preset lint -j "$(nproc)"
    build-lint/tools/hvc_lint --sarif build-lint/hvc_lint.sarif \
      src tools bench examples paperbench
    test -s build-lint/hvc_lint.sarif
    echo "hvc_lint OK"
    if command -v clang-tidy >/dev/null 2>&1; then
      # Lint the compiled sources under src/ and tools/ (bench/tests
      # would need gtest/benchmark headers resolvable to clang).
      mapfile -t tidy_sources < <(git ls-files 'src/**/*.cpp' 'tools/*.cpp')
      clang-tidy -p build-lint --quiet "${tidy_sources[@]}"
      echo "clang-tidy OK"
    else
      echo "clang-tidy not installed; skipping (hvc_lint gate still ran)"
    fi
  else
    cmake --preset "${preset}"
    cmake --build --preset "${preset}" -j "$(nproc)"
    ctest --preset "${preset}"
  fi
done

echo "All checks passed."
