#!/usr/bin/env bash
# Tier-1 verification: the full build + ctest suite, then a sanitizer
# build of the parallel-driver determinism tests — the shared read-only
# MatchContext fan-out must be data-race free (tsan) and leak/UB free
# (asan/ubsan) — plus the batched-kernel bit-identity tests (StepProbBatch,
# TopKBatch, PropertyTable build determinism), the ANN candidate-
# generation suite (IVF probe parity, sampled-recall fallback), the
# common suite (the token-Jaccard kernel and its inline-to-heap spill),
# the per-tuple root batch (MatchRoots against per-pair Match, whose
# run builder indexes a de-duplicated descendant union, plus a cancel
# landing inside it, serial and BSP), the property-row arena (spans across
# arena growth, compaction, the snapshot golden) and the crash-restore
# cases (an in-place restore frees the old fragment's arena while the
# per-fragment teardown threads free the others) under the same sanitizer.
# Usage: tools/run_tier1.sh [sanitizer] [build-dir] [san-build-dir]
#   sanitizer: tsan (default) | asan | ubsan | none
set -euo pipefail

cd "$(dirname "$0")/.."
SAN="${1:-tsan}"
BUILD_DIR="${2:-build}"
SAN_DIR="${3:-build-${SAN}}"

case "$SAN" in
  tsan)  HER_SANITIZE=thread ;;
  asan)  HER_SANITIZE=address ;;
  ubsan) HER_SANITIZE=undefined ;;
  none)  HER_SANITIZE="" ;;
  *)
    echo "usage: tools/run_tier1.sh [tsan|asan|ubsan|none] [build-dir]" >&2
    exit 64
    ;;
esac

cmake -B "$BUILD_DIR" -S .
cmake --build "$BUILD_DIR" -j
(cd "$BUILD_DIR" && ctest --output-on-failure -j)

if [ -n "$HER_SANITIZE" ]; then
  echo "=== ${SAN} (-DHER_SANITIZE=${HER_SANITIZE}): parallel driver + kernel tests ==="
  cmake -B "$SAN_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DHER_SANITIZE="$HER_SANITIZE"
  cmake --build "$SAN_DIR" -j --target parallel_driver_test ml_test \
    sim_test property_test persist_test ann_test flat_table_test \
    partition_test serve_test common_test core_test fault_tolerance_test
  "$SAN_DIR/tests/parallel_driver_test"
  # String kernels (token-Jaccard against its set definition, including
  # inputs past the inline token buffer, and the WordTokenRows buffer
  # against it), ParallelFor, status, hashing.
  "$SAN_DIR/tests/common_test"
  # Partitioner invariants + wire-codec corruption suite (the UB target
  # for the varint-delta frame decoder).
  "$SAN_DIR/tests/partition_test"
  # Flat-table oracle + concurrent sharded-memo stress (the TSan target
  # for the open-addressing memo tables).
  "$SAN_DIR/tests/flat_table_test"
  "$SAN_DIR/tests/ann_test"
  "$SAN_DIR/tests/ml_test" \
    --gtest_filter='LstmTest.StepProbBatch*:MlpTest.PredictBatch*'
  # h_v matrix kernels (Jaccard's per-thread token rows, the blocked
  # embedding tiles) and the interned token-overlap M_rho against their
  # scalar definitions.
  "$SAN_DIR/tests/sim_test" \
    --gtest_filter='LstmPraRankerTest.*:JaccardVertexScorerTest.*:EmbeddingVertexScorerTest.*:VertexScorerTest.*:TokenOverlapPathScorerTest.*'
  "$SAN_DIR/tests/property_test" \
    --gtest_filter='PropertyTableTest.*:PropertyArenaTest.*'
  # Per-tuple root batch: MatchRoots equals per-pair Match (both scorer
  # stacks), and a cancel inside it leaves a sound, convergent Pi; the
  # in-place edits of the reverse dependency index against its definition.
  "$SAN_DIR/tests/core_test" \
    --gtest_filter='MatchRootsTest.*:ParaMatchTest.DependencyIndexMatchesWitnesses'
  # Crash arm: restore in place from the boundary capture, then the
  # per-fragment teardown.
  "$SAN_DIR/tests/fault_tolerance_test" \
    --gtest_filter='DeadlineTest.CancelInsideMatchRoots*:*FaultMatrixTest.*crash*:FaultInjectionTest.OneWorkerCrashRecoversInPlace'
  # Durable snapshot/checkpoint suite, including the fragment-state
  # save -> load -> save round trip; WarmStartTest trains twice and is
  # covered by plain ctest above, so it is skipped under the sanitizer.
  "$SAN_DIR/tests/persist_test" --gtest_filter='-WarmStartTest.*'
  # Serving-layer WAL corruption matrix (truncation at every byte, bit
  # flips, torn tails) — the UB/overflow target for the frame decoder.
  # The server suites train systems and are covered by plain ctest above.
  "$SAN_DIR/tests/serve_test" --gtest_filter='WalTest.*'
  echo "tier-1 OK (ctest + ${SAN} parallel driver + kernel tests)"
else
  echo "tier-1 OK (ctest, sanitizer skipped)"
fi
