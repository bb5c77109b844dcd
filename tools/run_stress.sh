#!/usr/bin/env bash
# Fault-injection stress run: the crash/duplicate fault matrix + deadline
# tests, the BSP kill-and-resume contract and the definition-level oracle
# sweep under ThreadSanitizer, with rotating seeds.
# Every graph seed in fault_tolerance_test and the lost-fragment-section
# resume test is offset by HER_STRESS_SEED, and the oracle sweep moves to
# the seed window HER_STRESS_SEED selects, so consecutive runs cover
# fresh — but fully deterministic and replayable — fault schedules: to
# reproduce a CI failure locally, re-run with the seed CI printed.
#
# Usage: tools/run_stress.sh [seed] [rounds] [build-dir]
#   seed:      base seed offset (default 0; CI passes the run number)
#   rounds:    how many consecutive offsets to run (default 1)
#   build-dir: TSan build directory (default build-stress)
set -euo pipefail

cd "$(dirname "$0")/.."
SEED="${1:-0}"
ROUNDS="${2:-1}"
BUILD_DIR="${3:-build-stress}"

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DHER_SANITIZE=thread
cmake --build "$BUILD_DIR" -j --target fault_tolerance_test parallel_test \
  serve_test faultfs_test persist_test oracle_test

for ((i = 0; i < ROUNDS; ++i)); do
  offset=$((SEED + i))
  echo "=== stress round $((i + 1))/${ROUNDS}: HER_STRESS_SEED=${offset} ==="
  HER_STRESS_SEED="$offset" "$BUILD_DIR/tests/fault_tolerance_test"
  # Storage-layer chaos under the same rotating seed: the probabilistic
  # FaultFs schedules (checkpoint write faults, fsync gates) shift each
  # round while the op-indexed crash matrices stay pinned.
  HER_STRESS_SEED="$offset" "$BUILD_DIR/tests/faultfs_test"
  # Resume contract under the same seed: an intact checkpoint resumes and
  # a checkpoint with any one fragment section missing or damaged starts
  # cold, both to the uninterrupted Pi.
  HER_STRESS_SEED="$offset" "$BUILD_DIR/tests/persist_test" \
    --gtest_filter='KillResumeTest.*'
  # Every serial, BSP and ANN path against the maximum match relation on
  # this round's seed window; misses print one replay line each.
  HER_STRESS_SEED="$offset" "$BUILD_DIR/tests/oracle_test" \
    --gtest_filter='OracleTest.EveryPath*'
done
# The fault-free parallel suite under the same TSan build: the injection
# probes must not have introduced races on the clean path either.
"$BUILD_DIR/tests/parallel_test"
# Serving-layer fault path under the same TSan build: poisoned-op
# quarantine decisions must replay deterministically across a crash, and
# a checkpoint racing concurrent submits must be TSan-clean.
"$BUILD_DIR/tests/serve_test" \
  --gtest_filter='ServeFaultTest.*:ServeRecoveryTest.*:ServeConcurrencyTest.*'

echo "stress OK (seeds ${SEED}..$((SEED + ROUNDS - 1)), tsan-clean)"
