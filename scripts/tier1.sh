#!/usr/bin/env bash
# Tier-1 gate: the plain build + full ctest pass that every PR must keep
# green, the same suite built Release (optimized builds raise warnings the
# default RelWithDebInfo build does not, and PARC_WERROR makes them errors),
# plus a ThreadSanitizer pass over the concurrency-bearing suites
# (scheduler, ptask runtime, conc collections, net pool, serving stack,
# flow channels) —
# the code where a data race is a correctness bug, not a flake — and an
# AddressSanitizer(+UBSan) pass
# over the full test suite, which is what keeps the TaskCell/slab recycling
# and the obs trace buffers honest about lifetimes.
#
# Usage: scripts/tier1.sh [build-dir-prefix]
#        scripts/tier1.sh --label <ctest-label> [build-dir-prefix]
#
# The --label form is the fast inner-loop path: plain build + only the
# suites carrying that ctest label (e.g. `--label pj` for the Pyjama
# suites), skipping the sanitizer passes.
set -euo pipefail

cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--label" ]]; then
  LABEL="${2:?usage: tier1.sh --label <ctest-label> [build-dir-prefix]}"
  PREFIX="${3:-build}"
  echo "== tier-1 fast path: label '${LABEL}' =="
  cmake -B "${PREFIX}" -S . >/dev/null
  cmake --build "${PREFIX}" -j"$(nproc)"
  ctest --test-dir "${PREFIX}" --output-on-failure -j2 -L "${LABEL}"
  exit 0
fi

PREFIX="${1:-build}"

echo "== tier-1: plain build + full ctest =="
cmake -B "${PREFIX}" -S . >/dev/null
cmake --build "${PREFIX}" -j"$(nproc)"
ctest --test-dir "${PREFIX}" --output-on-failure -j2

echo "== tier-1: Release build + full ctest =="
cmake -B "${PREFIX}-release" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "${PREFIX}-release" -j"$(nproc)"
ctest --test-dir "${PREFIX}-release" --output-on-failure -j2

echo "== tier-1: ThreadSanitizer (sched / ptask / conc suites) =="
TSAN_SUITES=(
  sched_deque_test sched_pool_test sched_task_cell_test sched_mpsc_test
  sched_stats_test sched_completion_test sched_task_graph_test
  sched_locality_test sched_shard_test
  obs_trace_test obs_roundtrip_test obs_model_test
  ptask_test ptask_multi_test ptask_pipeline_test ptask_graph_test
  pj_sync_test pj_nested_test pj_nested_stress_test pj_places_test
  conc_collections_test conc_tasksafe_test conc_cow_test
  net_test serve_test serve_fault_test flow_test
)
cmake -B "${PREFIX}-tsan" -S . -DPARC_SANITIZE=thread \
  -DPARC_BUILD_BENCH=OFF -DPARC_BUILD_EXAMPLES=OFF >/dev/null
cmake --build "${PREFIX}-tsan" -j"$(nproc)" --target "${TSAN_SUITES[@]}"

fail=0
for t in "${TSAN_SUITES[@]}"; do
  # TSan reports do not always fail the exit code (e.g. under gtest's
  # exception guards), so grep the output as well.
  if out=$("${PREFIX}-tsan/tests/${t}" 2>&1) \
      && ! grep -qE "ThreadSanitizer|FAILED" <<<"${out}"; then
    echo "tsan ${t}: PASS"
  else
    echo "tsan ${t}: FAIL"
    grep -E "WARNING: ThreadSanitizer|SUMMARY|FAILED" <<<"${out}" | head -10
    fail=1
  fi
done

if [[ "${fail}" -ne 0 ]]; then
  echo "tier-1: TSAN FAILURES"
  exit 1
fi

echo "== tier-1: AddressSanitizer (full test suite) =="
cmake -B "${PREFIX}-asan" -S . -DPARC_SANITIZE=address \
  -DPARC_BUILD_BENCH=OFF -DPARC_BUILD_EXAMPLES=OFF >/dev/null
cmake --build "${PREFIX}-asan" -j"$(nproc)"
# halt_on_error makes any ASan/UBSan report fail the test's exit code, so
# ctest itself is the gate (no output grepping needed as with TSan).
ASAN_OPTIONS=halt_on_error=1 UBSAN_OPTIONS=halt_on_error=1 \
  ctest --test-dir "${PREFIX}-asan" --output-on-failure -j2

echo "tier-1: ALL GREEN"
