#!/usr/bin/env bash
# Reproduction ratchet (check.sh tier 5): runs the headline scenarios on
# fixed seeds and asserts the paper's claims — and this repo's robustness
# claims on top of them — as ranges. Every run is byte-deterministic for a
# given seed, so the ranges are regression pins with slack for intentional
# retuning, not statistical confidence intervals:
#
#   fig10  — robust elasticity exits: phase-2 passthrough_frac >= 0.9 (the
#            pinned bundler sits at ~0.42) and the phase-3 FCT gap closed to
#            within 5% of status quo (pinned: ~+20%).
#   blackout — feedback watchdog lifecycle on a 5 s feedback blackout:
#            degrade within ~watchdog_timeout, 3-5 exponential probes,
#            re-sync within one epoch of recovery, during-fault FCT within
#            15% of status quo and p99 far below it.
#   asym   — the ~8 Mbit/s reverse-path collapse threshold survived: the
#            watchdog arm tracks status-quo FCTs at every swept rate while
#            the unprotected bundler collapses, with recovery time measured.
#   fig16  — >= 50% median self-inflicted RTT cut on every WAN path (the
#            paper reports 57%).
#   fig09  — the headline FCT claim: Bundler+SFQ cuts the median slowdown to
#            <= 0.75x status quo, lands within 15% of the in-network-FQ
#            upper bound, and FIFO-only bundling (no in-bundle FQ) stays
#            WORSE than status quo — the scheduling, not the tunnel, is the
#            win.
#   fig13  — pooled fairness across competing bundles: at both offered-load
#            splits each bundle's pooled median slowdown beats its status-quo
#            counterpart and neither bundle is starved (pooled medians over
#            the scenario's 5 seeds; single seeds legitimately wobble).
#   tenant — multi-tenant isolation (cdn_edge_flash_crowd): under a 10x
#            flash crowd on one tenant, no admitted victim tenant's FCT p50
#            degrades more than 1.2x vs its calm baseline, while the
#            unmanaged site degrades >= 3x; admission rejects the
#            over-budget tail with explicit counters.
#   figures — every other figure and table the paper quotes a number for
#            (Figs. 2, 5-7, 10-12, 14-16, §7.2, §7.4, §7.6): each headline
#            is pinned as a range around the value this repo measures, with
#            the paper's number in the label. Where the two disagree (e.g.
#            Fig. 6 at ~62% vs 80%, Fig. 14's BBR beating status quo) the
#            range pins the measured value, so a change in either direction
#            shows up here; README "Reproduced figures" lists the gaps.
#
# Simulates several minutes of scenario time; check.sh skips it with
# CHECK_SKIP_REPRO=1.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 2)"
RUN=./build/bundler_run
OUT=build/repro
mkdir -p "${OUT}"

for scenario in fig10_cross_traffic fig10_warm_restart feedback_blackout \
                asym_reverse_sweep fig16_wan fig09_fct cdn_edge_flash_crowd; do
  echo "repro.sh: running ${scenario}"
  "${RUN}" --scenario "${scenario}" --trials 1 --threads "${JOBS}" \
    --out "${OUT}" --quiet > /dev/null
done
# fig13's fairness claim is defined over pooled seeds (a single seed can
# legitimately starve one bundle); run its full 5-seed default.
echo "repro.sh: running fig13_competing_bundles (5 seeds, pooled)"
"${RUN}" --scenario fig13_competing_bundles --trials 5 --threads "${JOBS}" \
  --out "${OUT}" --quiet > /dev/null
for scenario in fig02_queue_shift fig05_rate_estimate fig07_multipath_observe \
                multipath_threshold fig11_web_cross_sweep fig12_elastic_cross_sweep \
                fig14_sendbox_cc fig15_proxy sec72_other_policies sec74_endhost_cc; do
  echo "repro.sh: running ${scenario}"
  "${RUN}" --scenario "${scenario}" --trials 1 --threads "${JOBS}" \
    --out "${OUT}" --quiet > /dev/null
done

python3 - "${OUT}" <<'EOF'
import json, sys

out = sys.argv[1]
failures = []

def cells(name):
    with open(f"{out}/{name}.json") as f:
        return json.load(f)["cells"]

def scalar(cell, key):
    return cell["scalars"][key]["mean"]

def pick(cs, variant, **params):
    for c in cs:
        if c["variant"] == variant and all(
            c["params"].get(k) == v for k, v in params.items()):
            return c
    raise KeyError(f"{variant} {params}")

def check(label, ok, detail):
    print(f"  {'ok  ' if ok else 'FAIL'} {label}: {detail}")
    if not ok:
        failures.append(label)

# --- fig10: robust elasticity exits close the phase-3 gap -------------------
f10 = cells("fig10_cross_traffic")
f10w = cells("fig10_warm_restart")
sq = pick(f10, "status_quo")
pinned = pick(f10, "bundler")
robust = pick(f10w, "bundler_robust")
frac = scalar(robust, "phase2_passthrough_frac")
check("fig10 robust passthrough_frac >= 0.9", frac >= 0.9, f"{frac:.3f}")
pinned_frac = scalar(pinned, "phase2_passthrough_frac")
check("fig10 pinned variant keeps the historical flaps (frac <= 0.6)",
      pinned_frac <= 0.6, f"{pinned_frac:.3f}")
r3, s3 = scalar(robust, "short_fct_phase3_ms_p50"), scalar(sq, "short_fct_phase3_ms_p50")
check("fig10 robust phase-3 FCT p50 within 5% of status quo",
      r3 <= 1.05 * s3, f"{r3:.1f} vs {s3:.1f} ms ({r3 / s3:.3f}x)")
r2t, s2t = scalar(robust, "bundle_tput_phase2_mbps"), scalar(sq, "bundle_tput_phase2_mbps")
check("fig10 robust phase-2 throughput >= 95% of status quo",
      r2t >= 0.95 * s2t, f"{r2t:.1f} vs {s2t:.1f} Mbit/s")

# --- feedback_blackout: watchdog lifecycle on a 5 s feedback blackout -------
fb = cells("feedback_blackout")
sq = pick(fb, "status_quo")
wd = pick(fb, "bundler_watchdog")
w50, s50 = scalar(wd, "short_fct_fault_ms_p50"), scalar(sq, "short_fct_fault_ms_p50")
check("blackout during-fault FCT p50 within 15% of status quo",
      w50 <= 1.15 * s50, f"{w50:.1f} vs {s50:.1f} ms")
w99, s99 = scalar(wd, "short_fct_fault_ms_p99"), scalar(sq, "short_fct_fault_ms_p99")
check("blackout during-fault FCT p99 at least 2x better than status quo",
      w99 <= 0.5 * s99, f"{w99:.1f} vs {s99:.1f} ms")
lat = scalar(wd, "wd_degrade_latency_ms")
check("blackout degrade latency ~watchdog_timeout (450-700 ms)",
      450 <= lat <= 700, f"{lat:.0f} ms")
res = scalar(wd, "wd_resync_latency_ms")
check("blackout re-sync within one epoch of recovery (<= 120 ms)",
      res <= 120, f"{res:.0f} ms")
probes = scalar(wd, "wd_probes")
check("blackout probe count matches exponential backoff (3-5)",
      3 <= probes <= 5, f"{probes:.0f}")
check("blackout watchdog recovered by end of run",
      scalar(wd, "wd_degraded_at_end") == 0,
      f"degraded_at_end={scalar(wd, 'wd_degraded_at_end'):.0f}")

# --- asym_reverse_sweep: collapse threshold survived ------------------------
asym = cells("asym_reverse_sweep")
rates = sorted({c["params"]["reverse_mbps"] for c in asym})
worst = max(
    scalar(pick(asym, "bundler_watchdog", reverse_mbps=r), "short_fct_ms_p50")
    / scalar(pick(asym, "status_quo", reverse_mbps=r), "short_fct_ms_p50")
    for r in rates)
check("asym watchdog arm FCT p50 within 25% of status quo at every rate",
      worst <= 1.25, f"worst ratio {worst:.3f}x over {rates}")
b8 = scalar(pick(asym, "bundler", reverse_mbps=8), "short_fct_ms_p50")
s8 = scalar(pick(asym, "status_quo", reverse_mbps=8), "short_fct_ms_p50")
check("asym unprotected bundler still collapses at 8 Mbit/s (threat model)",
      b8 >= 1.5 * s8, f"{b8:.0f} vs {s8:.0f} ms")
w8 = pick(asym, "bundler_watchdog", reverse_mbps=8)
check("asym watchdog completes >= 95% of status-quo requests at 8 Mbit/s",
      scalar(w8, "requests_completed")
      >= 0.95 * scalar(pick(asym, "status_quo", reverse_mbps=8), "requests_completed"),
      f"{scalar(w8, 'requests_completed'):.0f}")
check("asym watchdog measured a recovery at 8 Mbit/s",
      scalar(w8, "wd_degrades") >= 1 and scalar(w8, "wd_mean_recovery_ms") > 0,
      f"degrades={scalar(w8, 'wd_degrades'):.0f} "
      f"mean_recovery={scalar(w8, 'wd_mean_recovery_ms'):.0f} ms")

# --- fig16: median self-inflicted RTT cut (paper: 57%) ----------------------
f16 = cells("fig16_wan")
paths = sorted({c["params"]["path"] for c in f16})
cuts = []
for p in paths:
    sq50 = scalar(pick(f16, "status_quo", path=p), "rtt_ms_p50")
    b50 = scalar(pick(f16, "bundler", path=p), "rtt_ms_p50")
    cuts.append(1 - b50 / sq50)
check("fig16 median RTT cut >= 50% on every path (paper: 57%)",
      min(cuts) >= 0.50,
      " ".join(f"path{p}:{100 * c:.0f}%" for p, c in zip(paths, cuts)))

# --- fig09: headline FCT claim and the scheduling-is-the-win control --------
f09 = cells("fig09_fct")
sq = scalar(pick(f09, "status_quo"), "median_slowdown_all")
sfq = scalar(pick(f09, "bundler_sfq"), "median_slowdown_all")
fifo = scalar(pick(f09, "bundler_fifo"), "median_slowdown_all")
innet = scalar(pick(f09, "in_network"), "median_slowdown_all")
check("fig09 Bundler+SFQ median slowdown <= 0.75x status quo",
      sfq <= 0.75 * sq, f"{sfq:.3f} vs {sq:.3f} ({sfq / sq:.3f}x)")
check("fig09 Bundler+SFQ within 15% of the in-network-FQ bound",
      sfq <= 1.15 * innet, f"{sfq:.3f} vs {innet:.3f} ({sfq / innet:.3f}x)")
check("fig09 FIFO-only bundling stays worse than status quo",
      fifo >= 1.2 * sq, f"{fifo:.3f} vs {sq:.3f} ({fifo / sq:.3f}x)")
sq99 = scalar(pick(f09, "status_quo"), "p99_slowdown_all")
sfq99 = scalar(pick(f09, "bundler_sfq"), "p99_slowdown_all")
check("fig09 Bundler+SFQ p99 slowdown at least 4x better than status quo",
      sfq99 <= 0.25 * sq99, f"{sfq99:.2f} vs {sq99:.2f}")

# --- fig13: pooled fairness across competing bundles ------------------------
f13 = cells("fig13_competing_bundles")
def pooled(cell, key):
    return cell["samples"][key]["median"]
for load0 in (42, 56):
    b = pick(f13, "bundler", load0_mbps=load0)
    s = pick(f13, "status_quo", load0_mbps=load0)
    for bundle in (0, 1):
        bm = pooled(b, f"slowdown_b{bundle}")
        sm = pooled(s, f"slowdown_b{bundle}")
        check(f"fig13 split {load0}:{84 - load0} bundle {bundle} pooled median "
              f"slowdown beats status quo",
              bm <= 0.9 * sm, f"{bm:.2f} vs {sm:.2f}")
    t0, t1 = pooled(b, "tput_mbps_pooled_b0"), pooled(b, "tput_mbps_pooled_b1")
    check(f"fig13 split {load0}:{84 - load0} neither bundle starved "
          f"(pooled tput >= 25 Mbit/s, ratio <= 1.6)",
          min(t0, t1) >= 25 and max(t0, t1) / min(t0, t1) <= 1.6,
          f"{t0:.1f} / {t1:.1f} Mbit/s")

# --- tenant isolation: cdn_edge_flash_crowd ---------------------------------
cdn = cells("cdn_edge_flash_crowd")
mng = pick(cdn, "managed")
squo = pick(cdn, "status_quo")
iso_m = scalar(mng, "victim_iso_p50_ratio_max")
iso_s = scalar(squo, "victim_iso_p50_ratio_max")
check("tenant isolation: worst admitted victim FCT p50 ratio <= 1.2x under "
      "a 10x flash crowd", iso_m <= 1.2, f"{iso_m:.3f}x")
check("tenant isolation: the unmanaged site degrades >= 3x (the contrast)",
      iso_s >= 3.0, f"{iso_s:.3f}x")
check("tenant admission: full declared population admitted up to budget",
      scalar(mng, "admitted") >= 200 and scalar(mng, "rejected") >= 1,
      f"admitted={scalar(mng, 'admitted'):.0f} rejected={scalar(mng, 'rejected'):.0f}")
check("tenant admission: rejection counters attribute every rejection",
      scalar(mng, "ctr.admit.s1.rejected_budget")
      + scalar(mng, "ctr.admit.s1.rejected_cap") == scalar(mng, "rejected"),
      f"budget={scalar(mng, 'ctr.admit.s1.rejected_budget'):.0f} "
      f"cap={scalar(mng, 'ctr.admit.s1.rejected_cap'):.0f}")

# --- figure headlines: measured values pinned as ranges ---------------------
def pin(label, value, lo, hi, fmt="{:.3f}"):
    check(f"{label} in [{lo:g}, {hi:g}]", lo <= value <= hi, fmt.format(value))

def smed(cell, key):
    return cell["samples"][key]["median"]

f02 = cells("fig02_queue_shift")
sq, bd = pick(f02, "status_quo"), pick(f02, "bundler")
pin("fig02 status-quo bottleneck queue, ms (paper: the queue sits at the bottleneck)",
    scalar(sq, "bottleneck_delay_mean_ms"), 55, 95, "{:.1f}")
pin("fig02 status-quo edge queue, ms (paper: the edge sits idle)",
    scalar(sq, "edge_delay_mean_ms"), 0, 1, "{:.1f}")
pin("fig02 Bundler bottleneck queue, ms (paper: the bottleneck drains)",
    scalar(bd, "bottleneck_delay_mean_ms"), 0, 10, "{:.1f}")
pin("fig02 Bundler sendbox queue, ms (paper: the queue shifts to the sendbox)",
    scalar(bd, "edge_delay_mean_ms"), 290, 480, "{:.1f}")

f05 = cells("fig05_rate_estimate")
def pooled_frac(frac_key, n_key):
    n = sum(scalar(c, n_key) for c in f05)
    return sum(scalar(c, frac_key) * scalar(c, n_key) for c in f05) / n
pin("fig05 receive-rate estimates within 4 Mbit/s (paper: 80%)",
    pooled_frac("rate_within_4_frac", "rate_samples"), 0.65, 0.78)
pin("fig06 RTT estimates within 1.2 ms (paper: 80%)",
    pooled_frac("rtt_within_1p2_frac", "rtt_samples"), 0.55, 0.68)

f07 = cells("fig07_multipath_observe")[0]
pin("fig07 out-of-order fraction on 4 imbalanced paths (paper: >= 20%, threshold 5%)",
    scalar(f07, "ooo_frac"), 0.50, 0.75)
pin("fig07 observed RTT p05, ms (paper: the shortest path's RTT)",
    scalar(f07, "rtt_p05_ms"), 38, 45, "{:.1f}")
pin("fig07 observed RTT p95, ms (paper: RTTs span the paths)",
    scalar(f07, "rtt_p95_ms"), 180, 270, "{:.1f}")

mpt = cells("multipath_threshold")
single = max(scalar(c, "ooo_frac") for c in mpt if c["params"]["paths"] == 1)
multi = min(scalar(c, "ooo_frac") for c in mpt if c["params"]["paths"] > 1)
pin("sec7.6 max single-path out-of-order fraction (paper: 0.4%)", single, 0, 0.01)
pin("sec7.6 min multipath out-of-order fraction (paper: 20%)", multi, 0.09, 0.18)
check("sec7.6 a 5% threshold classifies every configuration (paper: yes)",
      single < 0.05 < multi, f"{single:.4f} < 0.05 < {multi:.4f}")

f10 = cells("fig10_cross_traffic")
sq, bd = pick(f10, "status_quo"), pick(f10, "bundler")
ratio1 = smed(bd, "short_fct_phase1_ms") / smed(sq, "short_fct_phase1_ms")
ratio2 = smed(bd, "short_fct_phase2_ms") / smed(sq, "short_fct_phase2_ms")
pin("fig10 phase-1 short-flow FCT p50, Bundler / status quo (paper: Bundler wins)",
    ratio1, 0.5, 0.8)
pin("fig10 phase-2 short-flow FCT p50, Bundler / status quo (paper: ~1.12x)",
    ratio2, 1.0, 1.3)

f11 = cells("fig11_web_cross_sweep")
def f11med(variant, cross):
    return smed(pick(f11, variant, cross_mbps=cross), "slowdown_all")
pin("fig11 status-quo median slowdown rise, 42 vs 6 Mbit/s cross (paper: steady rise)",
    f11med("status_quo", 42) / f11med("status_quo", 6), 1.4, 2.0)
pin("fig11 Bundler/Nimbus median slowdown at 42 Mbit/s cross (paper: stays low)",
    f11med("bundler_nimbus", 42), 1.5, 2.2)
pin("fig11 Bundler/Copa median slowdown at 42 Mbit/s cross (paper: stays low)",
    f11med("bundler_copa", 42), 2.6, 4.0)

f12 = cells("fig12_elastic_cross_sweep")
flows = sorted({c["params"]["competing_flows"] for c in f12})
cuts = [1 - scalar(pick(f12, "bundler", competing_flows=n), "bundle_tput_mbps")
        / scalar(pick(f12, "status_quo", competing_flows=n), "bundle_tput_mbps")
        for n in flows]
pin("fig12 mean bundle throughput cut vs status quo (paper: 18%)",
    sum(cuts) / len(cuts), 0.20, 0.34)

f14 = cells("fig14_sendbox_cc")
sq14 = scalar(pick(f14, "status_quo"), "median_slowdown_all")
for variant, paper in (("bundler_copa", "beats status quo"),
                       ("bundler_basic_delay", "~ Copa"),
                       ("bundler_bbr", "slightly worse than status quo")):
    pin(f"fig14 {variant} median slowdown / status quo (paper: {paper})",
        scalar(pick(f14, variant), "median_slowdown_all") / sq14, 0.55, 0.85)

f15 = cells("fig15_proxy")
for bucket, lo, hi, paper in (("small", 0.95, 1.05, "no change"),
                              ("medium", 0.55, 0.8, "proxy helps"),
                              ("large", 0.8, 1.0, "proxy helps")):
    pin(f"fig15 {bucket}-flow median slowdown, proxy / Bundler (paper: {paper})",
        smed(pick(f15, "bundler_proxy"), f"slowdown_{bucket}")
        / smed(pick(f15, "bundler"), f"slowdown_{bucket}"), lo, hi)

f16 = cells("fig16_wan")
def f16tput(variant):
    return sum(scalar(c, "bulk_goodput_mbps") for c in f16 if c["variant"] == variant)
pin("fig16 Bundler bulk throughput change vs status quo (paper: within 1%)",
    f16tput("bundler") / f16tput("status_quo") - 1, -0.12, -0.04)

s72 = cells("sec72_other_policies")
def queue_cut(key):
    # RTT above the 50 ms propagation floor, as the paper quotes it.
    base = scalar(pick(s72, "pingpong_status_quo"), key) - 50
    return 1 - (scalar(pick(s72, "pingpong_bundler_fq_codel"), key) - 50) / base
pin("sec7.2 FQ-CoDel median queueing-delay cut (paper: 97%)", queue_cut("rtt_ms_p50"),
    0.9, 1.0)
pin("sec7.2 FQ-CoDel p99 queueing-delay cut (paper: 89%)", queue_cut("rtt_ms_p99"),
    0.55, 0.8)
pin("sec7.2 strict priority high-class median slowdown cut (paper: 65%)",
    1 - scalar(pick(s72, "prio_bundler"), "median_slowdown_high")
    / scalar(pick(s72, "prio_status_quo"), "median_slowdown_high"), 0.28, 0.46)

s74 = cells("sec74_endhost_cc")
for host, lo, hi, paper in (("bbr", 0.42, 0.58, "58%"), ("reno", 0.25, 0.42, "similar"),
                            ("cubic", 0.25, 0.42, "similar")):
    pin(f"sec7.4 {host} endhosts: Bundler median slowdown cut (paper: {paper})",
        1 - scalar(pick(s74, f"{host}_bundler"), "median_slowdown_all")
        / scalar(pick(s74, f"{host}_status_quo"), "median_slowdown_all"), lo, hi)

if failures:
    print(f"repro.sh: FAIL — {len(failures)} claim(s) out of range")
    sys.exit(1)
EOF

echo "repro.sh: OK"
