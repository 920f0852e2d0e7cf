#!/usr/bin/env bash
# CI entrypoint, tiered:
#   0. lint       — scripts/lint.sh (determinism/zero-alloc rules + self-test)
#   1. build+test — plain build, full ctest
#   2. sanitizers — ASan+UBSan full suite, TSan over the suites that spawn threads
#   3. analyzers  — scripts/analyze.sh --tidy-only when clang-tidy exists
#   4. smoke      — scenario runs with byte-identity determinism checks
#   5. repro      — scripts/repro.sh asserts the paper's headline claims
# Set CHECK_SKIP_SANITIZERS=1 to skip tier 2 (e.g. on machines without
# libasan); CHECK_SKIP_REPRO=1 to skip tier 5 (it simulates several minutes
# of scenario time).
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 2)"

echo "--- lint tier: determinism/zero-alloc rules"
./scripts/lint.sh

cmake -B build -S .
cmake --build build -j"${JOBS}"
(cd build && ctest --output-on-failure -j"${JOBS}")

if [[ "${CHECK_SKIP_SANITIZERS:-0}" != "1" ]]; then
  echo "--- ASan+UBSan test pass"
  cmake -B build-asan -S . -DBUNDLER_SANITIZE=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-asan -j"${JOBS}"
  (cd build-asan && ctest --output-on-failure -j"${JOBS}")
  # The SACK scoreboard and its users manage raw ring storage; run their
  # suites explicitly so an accidental ctest filter can never skip them
  # under the sanitizers.
  (cd build-asan && ctest --output-on-failure --no-tests=error -R \
    'sack_scoreboard_test|tcp_recovery_test|transport_test')

  echo "--- TSan pass: every suite that spawns threads"
  # runner: the TrialRunner worker pool; obs: trace capture under the pool.
  TSAN_SUITES='runner_test|obs_test'
  cmake -B build-tsan -S . -DBUNDLER_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-tsan -j"${JOBS}" --target runner_test obs_test
  (cd build-tsan && ctest --output-on-failure --no-tests=error -R "${TSAN_SUITES}")
fi

if command -v clang-tidy >/dev/null 2>&1; then
  echo "--- analyzer tier: clang-tidy over changed files"
  ./scripts/analyze.sh --tidy-only
else
  echo "--- analyzer tier: clang-tidy not installed, skipping"
fi

echo "--- topology construction smoke: --dump-topology for every scenario"
for scenario in $(./build/bundler_run --list-names); do
  ./build/bundler_run --dump-topology "${scenario}" > /dev/null
  echo "  ${scenario}: topology OK"
done

# Result files carry one wall-clock "runtime" line (events/sec metadata) that
# is legitimately nondeterministic; strip it before byte-comparing runs.
stable() { grep -v '"runtime"' "$1" | grep -v '^# runtime '; }

echo "--- smoke scenario: link_flap (1 trial — exercises zero-rate park/unpark)"
./build/bundler_run --scenario link_flap --trials 1 --threads 2 \
  --out build/smoke_flap_t2 --quiet
./build/bundler_run --scenario link_flap --trials 1 --threads 4 \
  --out build/smoke_flap_t4 --quiet > /dev/null
cmp <(stable build/smoke_flap_t2/link_flap.json) \
    <(stable build/smoke_flap_t4/link_flap.json)

echo "--- smoke scenario: fig09_fct (2 trials, 2 threads)"
./build/bundler_run --scenario fig09_fct --trials 2 --threads 2 \
  --out build/smoke_t2 --quiet

echo "--- determinism: same seeds on 4 threads must match byte-for-byte"
./build/bundler_run --scenario fig09_fct --trials 2 --threads 4 \
  --out build/smoke_t4 --quiet > /dev/null
cmp <(stable build/smoke_t2/fig09_fct.json) <(stable build/smoke_t4/fig09_fct.json)
cmp <(stable build/smoke_t2/fig09_fct.csv) <(stable build/smoke_t4/fig09_fct.csv)

echo "--- determinism: fat_tree_incast at --threads 1 vs 4 must be byte-identical"
./build/bundler_run --scenario fat_tree_incast --trials 2 --threads 1 \
  --out build/smoke_ft_t1 --quiet
./build/bundler_run --scenario fat_tree_incast --trials 2 --threads 4 \
  --out build/smoke_ft_t4 --quiet > /dev/null
cmp <(stable build/smoke_ft_t1/fat_tree_incast.json) \
    <(stable build/smoke_ft_t4/fat_tree_incast.json)
cmp <(stable build/smoke_ft_t1/fat_tree_incast.csv) \
    <(stable build/smoke_ft_t4/fat_tree_incast.csv)

echo "--- determinism: fig07_multipath_observe at --threads 1 vs 4 must be byte-identical"
./build/bundler_run --scenario fig07_multipath_observe --threads 1 \
  --out build/smoke_mp_t1 --quiet > /dev/null
./build/bundler_run --scenario fig07_multipath_observe --threads 4 \
  --out build/smoke_mp_t4 --quiet > /dev/null
cmp <(stable build/smoke_mp_t1/fig07_multipath_observe.json) \
    <(stable build/smoke_mp_t4/fig07_multipath_observe.json)
cmp <(stable build/smoke_mp_t1/fig07_multipath_observe.csv) \
    <(stable build/smoke_mp_t4/fig07_multipath_observe.csv)

echo "--- peak RSS: the runtime line measures bundler_run, not its launcher"
# Launch from a python parent that first holds 150 MB resident: a high-water
# mark inherited across exec would report at least that much.
python3 - <<'EOF'
import json, subprocess
blob = bytes(range(256)) * (150 * 4096)  # 150 MB, every page written
with open("/proc/self/status") as f:
    rss_mb = next(int(l.split()[1]) for l in f if l.startswith("VmRSS:")) / 1024
assert rss_mb >= 100, f"launcher holds only {rss_mb:.0f} MB"
subprocess.run(["./build/bundler_run", "--scenario", "fat_tree_incast", "--trials", "1",
                "--out", "build/smoke_rss", "--quiet"], check=True,
               stdout=subprocess.DEVNULL)
with open("build/smoke_rss/fat_tree_incast.json") as f:
    peak = json.load(f)["runtime"]["peak_rss_mb"]
assert 0 < peak < 100, f"peak_rss_mb {peak:.1f} under a {rss_mb:.0f} MB launcher"
print(f"  peak_rss_mb {peak:.1f} under a {rss_mb:.0f} MB launcher")
EOF

echo "--- golden byte-identity: the sendbox must reproduce the pinned figures"
# tests/golden/ holds fig09/fig10/fig13 outputs of the one sendbox data
# plane (BundleController + SiteEgress + SendboxManager): same seeds, same
# JSON and CSV, forever. Regenerate the pins ONLY for an intentional,
# explained behavior change.
for scenario in fig09_fct fig10_cross_traffic fig13_competing_bundles; do
  ./build/bundler_run --scenario "${scenario}" --trials 1 \
    --out build/smoke_golden --quiet > /dev/null
  cmp <(stable "build/smoke_golden/${scenario}.json") \
      <(stable "tests/golden/${scenario}.json")
  cmp <(stable "build/smoke_golden/${scenario}.csv") \
      <(stable "tests/golden/${scenario}.csv")
  echo "  ${scenario}: golden OK"
done

echo "--- smoke scenario: cdn_edge_flash_crowd (multi-tenant admission + isolation)"
# 200+ tenant bundles through one SendboxManager: admission must reject the
# over-budget tail with explicit counters, the per-bundle queue counters
# must add up to the per-tenant ones, and the run must stay byte-identical
# across worker threads.
./build/bundler_run --scenario cdn_edge_flash_crowd --trials 1 \
  --out build/smoke_cdn --quiet
./build/bundler_run --scenario cdn_edge_flash_crowd --trials 1 --threads 4 \
  --out build/smoke_cdn_t4 --quiet > /dev/null
cmp <(stable build/smoke_cdn/cdn_edge_flash_crowd.json) \
    <(stable build/smoke_cdn_t4/cdn_edge_flash_crowd.json)
cmp <(stable build/smoke_cdn/cdn_edge_flash_crowd.csv) \
    <(stable build/smoke_cdn_t4/cdn_edge_flash_crowd.csv)
python3 - build/smoke_cdn/cdn_edge_flash_crowd.json <<'EOF'
import json, sys
cells = json.load(open(sys.argv[1]))["cells"]
managed = next(c for c in cells if c["variant"] == "managed")
s = {k: v["mean"] for k, v in managed["scalars"].items()}
assert s["admitted"] >= 200, s
assert s["rejected"] >= 1, s
assert s["ctr.admit.s1.rejected_budget"] == s["rejected"], s
print(f"  admission: {s['admitted']:.0f} admitted, "
      f"{s['rejected']:.0f} rejected (budget), counters agree")
# Conservation between levels: every admitted bundle publishes its queue,
# and the per-bundle queue counters sum to the per-tenant ones.
def total(prefix, suffix):
    return sum(v for k, v in s.items()
               if k.startswith(prefix) and k.endswith(suffix))
queues = sum(1 for k in s
             if k.startswith("ctr.qdisc.sendbox.") and k.endswith(".enq_pkts"))
assert queues == s["admitted"], (queues, s["admitted"])
for bundle_key, tenant_key in (("enq_pkts", "enq_pkts"),
                               ("drop_pkts", "drop_pkts"),
                               ("deq_pkts", "tx_pkts")):
    per_bundle = total("ctr.qdisc.sendbox.", "." + bundle_key)
    per_tenant = total("ctr.tenant.", "." + tenant_key)
    assert per_bundle == per_tenant, (bundle_key, per_bundle, per_tenant)
    print(f"  conservation: sum qdisc.sendbox.*.{bundle_key} = "
          f"sum tenant.*.{tenant_key} = {per_bundle:.0f}")
EOF

echo "--- smoke scenario: feedback_blackout (faulted control loop + watchdog)"
# A faulted run must stay byte-identical across thread counts: the
# injector draws RNG only for targeted packets in arrival order, which the
# determinism contract fixes.
./build/bundler_run --scenario feedback_blackout --trials 1 --threads 2 \
  --out build/smoke_fault_t2 --quiet
./build/bundler_run --scenario feedback_blackout --trials 1 --threads 4 \
  --out build/smoke_fault_t4 --quiet > /dev/null
cmp <(stable build/smoke_fault_t2/feedback_blackout.json) \
    <(stable build/smoke_fault_t4/feedback_blackout.json)

echo "--- traced scenario: fig02_queue_shift with the flight recorder armed"
./build/bundler_run --scenario fig02_queue_shift --trace all --threads 2 \
  --out build/smoke_trace_t2 --quiet
./build/bundler_run --scenario fig02_queue_shift --trace all --threads 4 \
  --out build/smoke_trace_t4 --quiet > /dev/null
TRACE=build/smoke_trace_t2/fig02_queue_shift.trace.jsonl
test -s "${TRACE}"

echo "--- trace JSONL schema: every line is a typed record with mandatory keys"
awk '
  /^\{"type":"trial","signature":".+"\}$/ { trials++; next }
  /^\{"type":"component","id":[0-9]+,"kind":"[a-z_]+","name":".*"\}$/ { next }
  /^\{"type":"record","t_ns":-?[0-9]+,"cat":"[a-z]+","ev":"[a-z_]+","comp":[0-9]+,"a":[0-9]+,"b":[0-9]+,"c":[0-9]+\}$/ { records++; next }
  /^\{"type":"trace_end","records":[0-9]+,"dropped":[0-9]+\}$/ { ends++; next }
  { print "check.sh: FAIL — bad trace line " NR ": " $0; exit 1 }
  END {
    if (trials < 1 || records < 1 || trials != ends) {
      print "check.sh: FAIL — trace missing sections (trials=" trials \
            " records=" records " trace_ends=" ends ")"
      exit 1
    }
  }
' "${TRACE}"

echo "--- trace determinism: byte-identical at --threads 2 vs 4"
cmp "${TRACE}" build/smoke_trace_t4/fig02_queue_shift.trace.jsonl

if [[ "${CHECK_SKIP_REPRO:-0}" != "1" ]]; then
  echo "--- repro tier: headline claims as asserted ranges"
  ./scripts/repro.sh
else
  echo "--- repro tier: skipped (CHECK_SKIP_REPRO=1)"
fi

echo "check.sh: OK"
