#!/usr/bin/env bash
# Full local check:
#
#   1. analyzers (scripts/lint.py): first the --self-test, which replays the
#      seeded-violation fixtures in scripts/lint_fixtures/ through every
#      rule (a lint that stops firing is worse than no lint), then the tree
#      lint itself — secret-taint, untrusted-taint, [[nodiscard]] markers,
#      freshness-gate ordering, retry taxonomy, and lock-rank hygiene
#   2. Release build with -Werror + full ctest (includes the negative-compile
#      harness of tests/compile_fail/ and the lockdep suite, which self-skips
#      its violation tests in Release where APQA_LOCKDEP is off), then the
#      crypto suites (and the AbsRelaxFold / AbsSignFold oracles, the
#      subgroup-admission and serde suites, the pinned fault-injection
#      verdicts, the pinned VO bytes and the CtLanes lane-kernel suite)
#      again under APQA_FORCE_PORTABLE=1 so the portable
#      Montgomery/no-accel arm and the scalar subgroup check of the runtime
#      dispatch stay covered, then
#      a duplicate-(bench,row) and unit gate over the checked-in
#      BENCH_*.json files,
#      and a build (no run) of the perfbench/ service benchmark into
#      build/perfbench so an src/ API change that breaks it fails here
#   3. clang-format diff + clang-tidy on the crypto layer (skipped with a
#      notice when the clang tools are not installed — the default
#      toolchain here is GCC)
#   4. UBSan build of the crypto stack (curve / msm / pairing / abs / ct,
#      whose ct_check_test holds the CtLanes eight-lane multiply suite /
#      subgroup admission) and of the hostile-input decoders, whose count
#      clamps all run through one ByteReader::GetList (serde / fault
#      injection / grid tree)
#   5. ASan build of the hostile-bytes suite (serde / fault injection / fuzz)
#   6. TSan build of the thread pool and the parallel SP/ADS paths (the
#      ParallelPathTest suite, PooledRelaxBytesMatchSerial included); TSan
#      auto-enables APQA_LOCKDEP, so this stage also runs the lockdep suite
#      (rank-violation detection + the service rank-order regression) with
#      an explicit timeout, plus the crash-recovery/failover suite
#      (recovery_test: seeded disk-fault chaos, durable-server restart,
#      byzantine-replica quarantine) whose server drain/snapshot and
#      failover paths are the newest thread-shaped code in the tree
#   7. MSan constant-time oracle (tests/ct_check_test.cc with poisoned
#      secrets) — clang-only; skipped with a notice under GCC, where the
#      trace-equivalence tests in ct_check_test (already run in step 2)
#      cover the same ladders
#   8. perf smoke: one fast-mode run of bench_pairing_micro with the JSON
#      sink enabled; fails if the expected rows never reach the file, if
#      whole-VO batched verification is not at least 2x the retained
#      per-signature path (range_vo_verify_batched <= 0.5x
#      range_vo_verify_serial), or if a range VO's one pairing product has
#      more than 7 Miller pairs (range_vo_pairs); then one fast-mode run of
#      bench_msm_micro
#      that must emit the mont_mul_{portable,accel,chained} and
#      fp_{add,sub}_{portable,accel} kernel rows, the mont_kernel_bitmatch
#      and fp_addsub_bitmatch differential rows (the bench aborts on any
#      accel/portable representation mismatch, so each row doubles as an
#      oracle), the g1_{wnaf,mul_glv,fixed_base}, g2_wnaf,
#      ct_mul_{g1,g2} and ct_fixed_base_{g1,g2} scalar-mult rows, the
#      g{1,2}_subgroup_check, g1_subgroup_check_x8 and ifma_lanes_active
#      rows, the eight-lane ct_mul_{g1,g2}_x8 / ct_fixed_base_{g1,g2}_x8
#      rows and the abs_relax_len10 / abs_sign_dnf
#      rows, and whose constant-pattern GLV ladder is within 2x of the
#      variable-time GLV wNAF (ct_mul_g1 <= 2.0x g1_mul_glv), whose
#      constant-pattern fixed-base walk costs at most 0.6x that ladder
#      (ct_fixed_base_g1 <= 0.6x ct_mul_g1) and whose G2 psi subgroup check
#      stays below a G2 scalar multiplication
#      (g2_subgroup_check <= 0.6x g2_wnaf), and, when the accelerated
#      kernels are active, whose asm Fp add beats the portable one
#      (fp_add_accel <= 0.8x fp_add_portable), and, when the IFMA lanes are
#      active, whose eight-point G1 subgroup pass costs at most 0.7x the
#      scalar check per point (g1_subgroup_check_x8 <= 0.7x
#      g1_subgroup_check) and whose eight-lane G1 and G2 ladders and
#      fixed-base walks cost at most half their scalar rows per multiply
#      (ct_mul_g1_x8 <= 0.5x ct_mul_g1, ct_fixed_base_g1_x8 <= 0.5x
#      ct_fixed_base_g1, ct_mul_g2_x8 <= 0.5x ct_mul_g2,
#      ct_fixed_base_g2_x8 <= 0.5x ct_fixed_base_g2); then one fast-mode
#      run of
#      bench_net_service that must emit the
#      update_latency_vs_batch_{1,16,256} maintenance rows, the
#      update_{value_only,policy_change}_batch_16 batch-shape rows and the
#      recovery_time_vs_wal_len_{4,16,64} crash-recovery rows into a
#      temporary JSON file (deleted afterwards; the checked-in
#      BENCH_update.json is a full-mode capture), and whose value-only
#      batch costs at most half the policy-change batch
#      (update_value_only_batch_16 <= 0.5x update_policy_change_batch_16)
#   9. paper shape: one fast-mode run of bench_fig7_range; at an 8% range
#      the AP2G tree must cost no more than Basic on SP CPU, user CPU and
#      VO size (Fig 7's claim, gated as a shape rather than a time)
#  10. paper shape: one fast-mode run each of bench_fig11_join and
#      bench_fig15_duplicates, gated on their deterministic rows only (VO
#      size and ABS.Relax calls per VO): at a 5% join range AP2G is at or
#      below Basic (Fig 11), and at a 20% duplicate range non-ZK is at or
#      below ZK, which is at or below Basic (Fig 15)
#  11. parallel speedup: one fast-mode run of bench_fig13_parallel (1 and 4
#      threads at an 8% range); unless its 4-thread row is contended (the
#      threads did not get the cores), the pooled SP must be at least 2x
#      faster on 4 threads than on one (speedup_t4 >= 2.0); a contended row
#      skips the gate with a notice
#
# Usage: scripts/check.sh [--quick|--skip-sanitize]
#   --quick          analyzers + Release build + ctest only
#   --skip-sanitize  like --quick, kept for compatibility
set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=0
case "${1:-}" in
  --quick|--skip-sanitize) QUICK=1 ;;
esac

echo "=== analyzers (lint self-test + tree lint) ==="
python3 scripts/lint.py --self-test
python3 scripts/lint.py

echo "=== build (Release) ==="
cmake -B build -S . -DAPQA_WERROR=ON >/dev/null
cmake --build build -j

echo "=== build (perfbench service benchmark; built, not run) ==="
# perfbench/ compiles src/ into its own tree. Building it here makes an src/
# API change that breaks the benchmark fail this check instead of the
# benchmark run.
cmake -S perfbench -B build/perfbench -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build/perfbench -j --target service_bench >/dev/null

echo "=== ctest ==="
(cd build && ctest --output-on-failure -j "$(nproc)")

echo "=== ctest (forced-portable kernels) ==="
# APQA_FORCE_PORTABLE=1 pins the portable CIOS multiply and re-runs the
# crypto suites, so the fallback arm of the runtime dispatch (non-BMI2/ADX
# hosts) stays covered even on machines where the accelerated kernel is
# what normally executes. The bitmatch differential inside field_test then
# proves the two arms agree representation-for-representation, and the
# AbsRelaxFold / AbsSignFold oracles re-check ABS.Relax and ABS.Sign
# byte-for-byte on the portable arm. The same switch turns off the
# eight-lane IFMA subgroup kernel, so the admission oracles, the serde
# suites and the pinned fault-injection verdicts re-run on the scalar
# subgroup test: both arms must give the same verdict on every input. It
# also turns off the eight-lane constant-pattern G1 multiplies, so
# CtMulBatch runs every ABS sign and relax multiply on the scalar ladders:
# the CtLanes batch oracle and every PinnedVoTest must then hold on that
# arm too (the same bytes whichever kernel ran).
(cd build && APQA_FORCE_PORTABLE=1 ctest --output-on-failure -j "$(nproc)" \
  -R '^(BigInt|FieldConstants|Fp|Fr|Glv|G1|G2|Pairing|Msm|FixedBase|Batch|MixedAdd|MultiPairing|Ct|CtLanes|AbsRelaxFold|AbsSignFold|SubgroupAdmission|AdmissionPrecedence|[A-Za-z]*Serde|FaultInjectionTest\.MutationVerdictsArePinned|PinnedVoTest)')

echo "=== bench sink hygiene (checked-in BENCH_*.json) ==="
# The JSON trajectory files must hold exactly one section per bench run:
# bench_util.h compacts repeated runs in place, and this gate keeps a
# stray hand-edit or an old binary from re-introducing duplicate
# (bench, row) pairs. Every row must also say what its value is: "ms" for
# times, "x" for speedup ratios, "count" for counts, "KiB" for sizes.
python3 - BENCH_*.json <<'EOF'
import json, sys
bad = 0
for path in sys.argv[1:]:
    seen = set()
    with open(path) as f:
        for n, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            r = json.loads(line)
            key = (r["bench"], r["row"])
            if key in seen:
                print(f"{path}:{n}: duplicate row {key}", file=sys.stderr)
                bad = 1
            seen.add(key)
            if (r.get("unit") not in ("ms", "x", "count", "KiB")
                    or "value" not in r):
                print(f"{path}:{n}: row {key} lacks a value with a known unit",
                      file=sys.stderr)
                bad = 1
sys.exit(bad)
EOF

if [[ "$QUICK" == 1 ]]; then
  echo "=== quick mode: sanitizer and clang-tool stages skipped ==="
  exit 0
fi

echo "=== clang-format / clang-tidy ==="
if command -v clang-format >/dev/null 2>&1; then
  # Diff-only: fails if the tree is not formatted.
  find src tests bench -name '*.cc' -o -name '*.h' | \
    xargs clang-format --dry-run -Werror
else
  echo "clang-format not installed; skipping format check"
fi
if command -v clang-tidy >/dev/null 2>&1; then
  cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  clang-tidy -p build --quiet src/crypto/*.cc src/abs/*.cc src/cpabe/*.cc
else
  echo "clang-tidy not installed; skipping tidy pass"
fi

echo "=== build (UBSan) ==="
cmake -B build-ubsan -S . -DAPQA_SANITIZE=undefined >/dev/null
cmake --build build-ubsan -j --target \
  curve_test msm_test pairing_test abs_test ct_check_test \
  serde_test subgroup_admission_test fault_injection_test grid_tree_test

echo "=== crypto and hostile-input tests under UBSan ==="
for t in curve_test msm_test pairing_test abs_test ct_check_test \
    serde_test subgroup_admission_test fault_injection_test grid_tree_test; do
  echo "--- $t ---"
  ./build-ubsan/tests/"$t" --gtest_brief=1
done

echo "=== build (ASan) ==="
cmake -B build-asan -S . -DAPQA_SANITIZE=address >/dev/null
cmake --build build-asan -j --target \
  fault_injection_test serde_test fuzz_vo_deserialize

echo "=== hostile-input tests under ASan ==="
./build-asan/tests/serde_test --gtest_brief=1
./build-asan/tests/fault_injection_test --gtest_brief=1
./build-asan/tests/fuzz_vo_deserialize

echo "=== build (TSan) ==="
cmake -B build-tsan -S . -DAPQA_SANITIZE=thread >/dev/null
cmake --build build-tsan -j --target \
  thread_pool_test core_test net_test lockdep_test recovery_test

echo "=== threaded paths under TSan ==="
# TSan configures APQA_LOCKDEP=ON, so every RankedMutex acquisition is
# rank-checked here; the lockdep suite exercises the validator itself plus
# the e2e server/client/update rank-order regression. Driven through ctest
# for the explicit per-test TIMEOUT (a lockdep abort that wedges a session
# thread must fail the stage, not hang it).
(cd build-tsan && TSAN_OPTIONS=halt_on_error=1 ctest \
  -R 'Lockdep(Test|DeathTest|ServiceTest)\.' \
  --timeout 300 --output-on-failure)
TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/thread_pool_test \
  --gtest_brief=1
# ParallelPathTest.* includes PooledRelaxBytesMatchSerial: the relax
# stage's batch units fan out over the pool while every draw stays serial.
TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/core_test \
  --gtest_filter='ParallelPathTest.*' --gtest_brief=1
# The query service is the most thread-shaped code in the tree: session
# threads, a bounded pool, chaos-injected retries, drain-then-stop. The
# update/query interleaving chaos test runs separately below.
TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/net_test \
  --gtest_filter='-UpdateChaosTest.*' --gtest_brief=1
# Dynamic-maintenance interleavings: a DO pushes epoch advances while
# queries are in flight over fault-injected transports. Driven through
# ctest so the explicit per-test TIMEOUT (tests/CMakeLists.txt, 300 s for
# net_test) kills a TSan-induced deadlock instead of wedging the stage;
# --timeout backstops any test that escaped property discovery.
(cd build-tsan && TSAN_OPTIONS=halt_on_error=1 ctest \
  -R 'UpdateChaosTest\.ConcurrentUpdatesAndQueriesStayCoherent' \
  --timeout 300 --output-on-failure)
# Crash recovery + failover: the drain-then-final-snapshot path in
# SpServer::Stop, journal-before-ack under sp_mu_, concurrent Stop()
# callers, and the circuit-breaker/quarantine state machine all hold locks
# across threads — exactly what TSan (and the lockdep shim it enables) is
# for. Driven through ctest for the explicit per-test timeout: a recovery
# that wedges mid-replay must fail the stage, not hang it.
(cd build-tsan && TSAN_OPTIONS=halt_on_error=1 ctest \
  -R '(JournalTest|FaultyFileTest|SpStateStoreTest|CrashRecoveryChaosTest|DurableServerTest|FailoverTest)\.' \
  --timeout 300 --output-on-failure)

echo "=== constant-time oracle (MSan) ==="
if command -v clang++ >/dev/null 2>&1; then
  cmake -B build-msan -S . -DAPQA_SANITIZE=memory \
    -DCMAKE_CXX_COMPILER=clang++ >/dev/null
  cmake --build build-msan -j --target ct_check_test
  ./build-msan/tests/ct_check_test --gtest_brief=1
else
  echo "clang++ not installed; MSan CtPoison oracle skipped" \
       "(trace-equivalence tests in ct_check_test already ran)"
fi

echo "=== perf smoke (bench_pairing_micro, fast mode) ==="
cmake --build build -j --target bench_pairing_micro >/dev/null
PERF_JSON=$(mktemp /tmp/BENCH_pairing_smoke.XXXXXX.json)
rm -f "$PERF_JSON"
APQA_BENCH_FAST=1 APQA_BENCH_JSON="$PERF_JSON" \
  ./build/bench/bench_pairing_micro >/dev/null
for row in pairing_prepared abs_verify_prepared_len12 abs_verify_attest \
           range_vo_verify_serial range_vo_verify_batched \
           abs_batch_verify_n8 batch_bisect_tamper_1 point_vo_verify \
           range_vo_pairs; do
  if ! grep -q "\"row\":\"$row\"" "$PERF_JSON"; then
    echo "perf smoke: row '$row' missing from $PERF_JSON" >&2
    exit 1
  fi
done
# Whole-VO batching must beat the retained per-signature path by >= 2x even
# in the fast configuration (the full bench measures >= ~9x; the loose gate
# keeps the smoke robust to noisy single-iteration timings). A VO's one
# pairing product has at most 7 Miller pairs (A, B, a0, h, h0 and two
# message-side pairs); pairing each role against its own base gives one
# pair per role on top. A count, so this gate cannot flake.
python3 - "$PERF_JSON" <<'EOF'
import json, sys
rows = {}
with open(sys.argv[1]) as f:
    for line in f:
        r = json.loads(line)
        rows[r["row"]] = r["value"]  # last write wins
serial, batched = rows["range_vo_verify_serial"], rows["range_vo_verify_batched"]
if batched > 0.5 * serial:
    sys.exit(f"perf smoke: batched {batched:.1f} ms > 0.5 * serial {serial:.1f} ms")
print(f"perf smoke: batched {batched:.1f} ms vs serial {serial:.1f} ms "
      f"({serial / batched:.1f}x)")
pairs = rows["range_vo_pairs"]
if pairs > 7:
    sys.exit(f"perf smoke: range_vo_pairs {pairs:.0f} > 7")
print(f"perf smoke: range VO verifies with one product of {pairs:.0f} pairs")
EOF
rm -f "$PERF_JSON"

echo "=== perf smoke (bench_msm_micro kernel rows, fast mode) ==="
cmake --build build -j --target bench_msm_micro >/dev/null
MSM_JSON=$(mktemp /tmp/BENCH_msm_smoke.XXXXXX.json)
rm -f "$MSM_JSON"
APQA_BENCH_FAST=1 APQA_BENCH_JSON="$MSM_JSON" \
  ./build/bench/bench_msm_micro >/dev/null
# mont_kernel_bitmatch only reaches the file if the accel/portable sweep
# found zero representation mismatches (the bench aborts otherwise), so a
# missing row is a failed differential, not just a missing measurement.
for row in mont_mul_portable mont_mul_accel mont_mul_chained \
           mont_kernel_bitmatch fp_add_portable fp_add_accel fp_sub_portable fp_sub_accel \
           fp_addsub_bitmatch accel_kernels_active \
           g1_wnaf g1_mul_glv g1_fixed_base ct_mul_g1 ct_mul_g2 g2_wnaf \
           ct_fixed_base_g1 ct_fixed_base_g2 \
           g1_subgroup_check g2_subgroup_check abs_relax_len10 \
           ifma_lanes_active g1_subgroup_check_x8 \
           ct_mul_g1_x8 ct_fixed_base_g1_x8 ct_mul_g2_x8 ct_fixed_base_g2_x8 \
           abs_sign_dnf; do
  if ! grep -q "\"row\":\"$row\"" "$MSM_JSON"; then
    echo "perf smoke: row '$row' missing from $MSM_JSON" >&2
    exit 1
  fi
done
# The constant-pattern GLV ladder must stay within 2x of the variable-time
# GLV wNAF on the same scalars (measured 1.0-1.5x; the 256-doubling ladder
# it replaced measured 2.4-2.9x). The constant-pattern fixed-base walk
# (signed radix-2^6 windows, one masked read and one mixed complete addition
# per pick, no doublings) must cost at most 0.6x the variable-base ladder on
# the same scalars (measured ~0.32x). The G2 psi subgroup check (one 64-bit
# [|z|] chain) must cost at most 0.6x a G2 GLV scalar multiplication
# (measured 0.20-0.42x on a loaded 4-vCPU host; the 128-bit lambda-wNAF
# check it replaced measured 0.59-0.80x, so the gate trips on most runs of
# the old check while leaving headroom for host noise). When the asm
# kernels are dispatched (accel_kernels_active == 1), a chained Fp add must
# cost at most 0.8x the portable u128 loop (measured 0.40-0.50x on a 4-vCPU
# x86-64 VM; on hosts without BMI2/ADX both rows time the portable loop and
# the gate is skipped). When the eight-lane IFMA subgroup kernel runs
# (ifma_lanes_active == 1), a G1 check in groups of eight must cost at most
# 0.7x the scalar check per point (measured 0.13-0.16x); otherwise both rows
# time the scalar test and the gate is skipped. With the lanes on, a G1 or
# G2 ladder or fixed-base walk in a CtMulBatch group of eight must cost at
# most half its scalar row per multiply (measured ~0.17x and ~0.16x on G1,
# ~0.20x and ~0.19x on G2); with them off both rows time the scalar
# kernels and the gate is skipped.
python3 - "$MSM_JSON" <<'EOF'
import json, sys
rows = {}
with open(sys.argv[1]) as f:
    for line in f:
        r = json.loads(line)
        rows[r["row"]] = r["value"]  # last write wins
ct, glv = rows["ct_mul_g1"], rows["g1_mul_glv"]
if ct > 2.0 * glv:
    sys.exit(f"perf smoke: ct_mul_g1 {ct:.3f} ms > 2 * g1_mul_glv {glv:.3f} ms")
print(f"perf smoke: ct_mul_g1 {ct:.3f} ms vs g1_mul_glv {glv:.3f} ms "
      f"({ct / glv:.2f}x)")
fixed = rows["ct_fixed_base_g1"]
if fixed > 0.6 * ct:
    sys.exit(f"perf smoke: ct_fixed_base_g1 {fixed:.3f} ms > 0.6 * ct_mul_g1 "
             f"{ct:.3f} ms")
print(f"perf smoke: ct_fixed_base_g1 {fixed:.3f} ms vs ct_mul_g1 {ct:.3f} ms "
      f"({fixed / ct:.2f}x)")
sub, wnaf = rows["g2_subgroup_check"], rows["g2_wnaf"]
if sub > 0.6 * wnaf:
    sys.exit(f"perf smoke: g2_subgroup_check {sub:.3f} ms > 0.6 * g2_wnaf "
             f"{wnaf:.3f} ms")
print(f"perf smoke: g2_subgroup_check {sub:.3f} ms vs g2_wnaf {wnaf:.3f} ms "
      f"({sub / wnaf:.2f}x)")
add, add_p = rows["fp_add_accel"], rows["fp_add_portable"]
if rows["accel_kernels_active"] != 1:
    print("perf smoke: accel kernels inactive; fp_add gate skipped")
elif add > 0.8 * add_p:
    sys.exit(f"perf smoke: fp_add_accel {add:.3f} ms > 0.8 * fp_add_portable "
             f"{add_p:.3f} ms")
else:
    print(f"perf smoke: fp_add_accel {add:.3f} ms vs fp_add_portable "
          f"{add_p:.3f} ms ({add / add_p:.2f}x)")
x8, g1 = rows["g1_subgroup_check_x8"], rows["g1_subgroup_check"]
if rows["ifma_lanes_active"] != 1:
    print("perf smoke: IFMA lanes inactive; g1_subgroup_check_x8 gate skipped")
elif x8 > 0.7 * g1:
    sys.exit(f"perf smoke: g1_subgroup_check_x8 {x8:.3f} ms > 0.7 * "
             f"g1_subgroup_check {g1:.3f} ms")
else:
    print(f"perf smoke: g1_subgroup_check_x8 {x8:.3f} ms vs g1_subgroup_check "
          f"{g1:.3f} ms ({x8 / g1:.2f}x)")
for lanes, scalar in (("ct_mul_g1_x8", "ct_mul_g1"),
                      ("ct_fixed_base_g1_x8", "ct_fixed_base_g1"),
                      ("ct_mul_g2_x8", "ct_mul_g2"),
                      ("ct_fixed_base_g2_x8", "ct_fixed_base_g2")):
    x8, one = rows[lanes], rows[scalar]
    if rows["ifma_lanes_active"] != 1:
        print(f"perf smoke: IFMA lanes inactive; {lanes} gate skipped")
    elif x8 > 0.5 * one:
        sys.exit(f"perf smoke: {lanes} {x8:.3f} ms > 0.5 * {scalar} "
                 f"{one:.3f} ms")
    else:
        print(f"perf smoke: {lanes} {x8:.3f} ms vs {scalar} {one:.3f} ms "
              f"({x8 / one:.2f}x)")
EOF
rm -f "$MSM_JSON"

echo "=== perf smoke (bench_net_service update rows, fast mode) ==="
cmake --build build -j --target bench_net_service >/dev/null
UPDATE_JSON=$(mktemp /tmp/BENCH_update.XXXXXX.json)
rm -f "$UPDATE_JSON"
APQA_BENCH_FAST=1 APQA_BENCH_QUERIES=1 APQA_BENCH_JSON="$UPDATE_JSON" \
  ./build/bench/bench_net_service >/dev/null
for row in update_latency_vs_batch_1 update_latency_vs_batch_16 \
           update_latency_vs_batch_256 update_value_only_batch_16 \
           update_policy_change_batch_16 recovery_time_vs_wal_len_4 \
           recovery_time_vs_wal_len_16 recovery_time_vs_wal_len_64; do
  if ! grep -q "\"bench\":\"update\",\"row\":\"$row\"" "$UPDATE_JSON"; then
    echo "perf smoke: row '$row' missing from $UPDATE_JSON" >&2
    exit 1
  fi
done
# A value-only batch re-signs only its leaves; a batch that changes every
# ancestor's OR-policy re-signs the whole root-ward path. The value-only
# row must cost at most half the policy-change row (measured 0.29-0.38x on
# a 4-vCPU x86-64 VM; re-signing every ancestor regardless measures ~1x).
python3 - "$UPDATE_JSON" <<'EOF'
import json, sys
rows = {}
with open(sys.argv[1]) as f:
    for line in f:
        r = json.loads(line)
        rows[r["row"]] = r["value"]  # last write wins
vo, pc = rows["update_value_only_batch_16"], rows["update_policy_change_batch_16"]
if vo > 0.5 * pc:
    sys.exit(f"perf smoke: update_value_only_batch_16 {vo:.1f} ms > 0.5 * "
             f"update_policy_change_batch_16 {pc:.1f} ms")
print(f"perf smoke: value-only update {vo:.1f} ms vs policy change {pc:.1f} ms "
      f"({vo / pc:.2f}x)")
EOF
rm -f "$UPDATE_JSON"

echo "=== paper shape (bench_fig7_range, fast mode) ==="
# Fig 7's claim as a shape, not an absolute time: at an 8% range the AP2G
# tree costs at most what Basic (one equality proof per cell) costs on SP
# CPU, user CPU and VO size (measured ~0.3x, ~0.4x and ~0.3x on a 4-vCPU
# x86-64 VM). The checked-in BENCH_paper.json is a full-mode capture.
cmake --build build -j --target bench_fig7_range >/dev/null
FIG7_JSON=$(mktemp /tmp/BENCH_paper_smoke.XXXXXX.json)
rm -f "$FIG7_JSON"
APQA_BENCH_FAST=1 APQA_BENCH_JSON="$FIG7_JSON" \
  ./build/bench/bench_fig7_range >/dev/null
python3 - "$FIG7_JSON" <<'EOF'
import json, sys
rows = {}
with open(sys.argv[1]) as f:
    for line in f:
        r = json.loads(line)
        rows[r["row"]] = r["value"]  # last write wins
for metric in ("sp_ms", "user_ms", "vo_kb", "relaxations"):
    for scheme in ("basic", "ap2g"):
        if f"{scheme}_{metric}_sel8" not in rows:
            sys.exit(f"fig7 shape: row {scheme}_{metric}_sel8 missing")
for metric in ("sp_ms", "user_ms", "vo_kb"):
    basic, tree = rows[f"basic_{metric}_sel8"], rows[f"ap2g_{metric}_sel8"]
    if tree > basic:
        sys.exit(f"fig7 shape: ap2g_{metric}_sel8 {tree:.1f} > "
                 f"basic_{metric}_sel8 {basic:.1f}")
    print(f"fig7 shape: {metric} at 8%: AP2G {tree:.1f} vs Basic {basic:.1f} "
          f"({tree / basic:.2f}x)")
EOF
rm -f "$FIG7_JSON"

echo "=== paper shape (bench_fig11_join, bench_fig15_duplicates, fast mode) ==="
# VO size and relaxations per VO depend only on the seeds, so these shapes
# hold exactly run to run; the time rows are recorded, not gated.
cmake --build build -j --target bench_fig11_join bench_fig15_duplicates \
  >/dev/null
SHAPE_JSON=$(mktemp /tmp/BENCH_paper_smoke.XXXXXX.json)
rm -f "$SHAPE_JSON"
APQA_BENCH_FAST=1 APQA_BENCH_JSON="$SHAPE_JSON" \
  ./build/bench/bench_fig11_join >/dev/null
APQA_BENCH_FAST=1 APQA_BENCH_JSON="$SHAPE_JSON" \
  ./build/bench/bench_fig15_duplicates >/dev/null
python3 - "$SHAPE_JSON" <<'EOF'
import json, sys
rows = {}
with open(sys.argv[1]) as f:
    for line in f:
        r = json.loads(line)
        rows[(r["bench"], r["row"])] = r["value"]
# (bench, selectivity suffix, schemes whose values must not decrease)
shapes = [("fig11_join", "sel5", ("ap2g", "basic")),
          ("fig15_duplicates", "sel20", ("nonzk", "zk", "basic"))]
for bench, sel, order in shapes:
    for metric in ("vo_kb", "relaxations"):
        values = []
        for scheme in order:
            row = f"{scheme}_{metric}_{sel}"
            if (bench, row) not in rows:
                sys.exit(f"{bench} shape: row {row} missing")
            values.append(rows[(bench, row)])
        for i in range(len(order) - 1):
            if values[i] > values[i + 1]:
                sys.exit(f"{bench} shape: {order[i]}_{metric}_{sel} "
                         f"{values[i]:.2f} > {order[i + 1]}_{metric}_{sel} "
                         f"{values[i + 1]:.2f}")
        print(f"{bench} shape: {metric} at {sel}: " +
              " <= ".join(f"{s} {v:.2f}" for s, v in zip(order, values)))
EOF
rm -f "$SHAPE_JSON"

echo "=== parallel speedup (bench_fig13_parallel, fast mode) ==="
# The pooled relax stage fans a VO's CtMulBatch units out over the SP's
# threads. On 4 threads an 8% range query must run at least 2x faster than
# on one (the full-mode capture reads ~2.7x on a 4-vCPU x86-64 VM; the
# serial plan/finish stage bounds it). The gate only reads a row whose
# threads ran: a contended row (CPU/wall below half of min(threads, cores))
# measures the host, so it is skipped with a notice.
cmake --build build -j --target bench_fig13_parallel >/dev/null
FIG13_JSON=$(mktemp /tmp/BENCH_paper_smoke.XXXXXX.json)
rm -f "$FIG13_JSON"
APQA_BENCH_FAST=1 APQA_BENCH_JSON="$FIG13_JSON" \
  ./build/bench/bench_fig13_parallel >/dev/null
python3 - "$FIG13_JSON" <<'EOF'
import json, sys
rows = {}
with open(sys.argv[1]) as f:
    for line in f:
        r = json.loads(line)
        rows[r["row"]] = r["value"]  # last write wins
for row in ("sp_ms_t1", "sp_ms_t4", "speedup_t4", "contended_t4"):
    if row not in rows:
        sys.exit(f"fig13 speedup: row {row} missing")
speedup = rows["speedup_t4"]
if rows["contended_t4"] != 0:
    print(f"fig13 speedup: 4-thread row contended (speedup {speedup:.2f}x); "
          "gate skipped")
elif speedup < 2.0:
    sys.exit(f"fig13 speedup: speedup_t4 {speedup:.2f}x < 2.0x "
             f"(sp_ms_t1 {rows['sp_ms_t1']:.1f} ms, "
             f"sp_ms_t4 {rows['sp_ms_t4']:.1f} ms)")
else:
    print(f"fig13 speedup: 4 threads {rows['sp_ms_t4']:.1f} ms vs 1 thread "
          f"{rows['sp_ms_t1']:.1f} ms ({speedup:.2f}x)")
EOF
rm -f "$FIG13_JSON"

echo "=== all checks passed ==="
