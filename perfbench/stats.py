"""Statistics and metric definitions for the perfbench benchmark.

Everything here is a pure function of the harness's raw JSON (timings per
plan repetition, isolated layer replays, spans) and of the scenario summary
JSON that ``runner::ToJson`` produced, so it is unit-tested on fixtures in
``tests/``. run.py does the I/O.
"""
import re
import statistics

# End-to-end metrics (tracing off): name -> unit. Directions and bounds live
# in BENCHMARK.json; README.md explains each one.
END_TO_END_UNITS = {
    "wall_s": "s",
    "trial_s_p50": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "pass_frac": "ratio",
    "fct_p50_ratio": "ratio",
    "fct_p99_ratio": "ratio",
}

# Per-layer metrics (traced run): name -> unit.
PER_LAYER_UNITS = {
    "sim.events": "count",
    "sim.events_per_s": "1/s",
    "sim.heap_max": "count",
    "sim.schedule_dispatch_ns": "ns",
    "sim.allocs_per_event": "ratio",
    "topo.build_s": "s",
    "net.tx_pkts": "count",
    "net.ns_per_pkt": "ns",
    "qdisc.ops": "count",
    "qdisc.drop_frac": "ratio",
    "qdisc.sfq_ns_per_op": "ns",
    "qdisc.drr_ns_per_op": "ns",
    "qdisc.fifo_ns_per_op": "ns",
    "transport.retx_frac": "ratio",
    "transport.rtos": "count",
    "bundler.sendbox_ns_per_pkt": "ns",
    "bundler.managed_ns_per_pkt": "ns",
    "bundler.site_egress_ns_per_op": "ns",
    "bundler.ctl_updates": "count",
    "bundler.nimbus_evals": "count",
    "bundler.nimbus_eval_ns": "ns",
    "bundler.passthrough_frac": "ratio",
    "runner.trial_s_max": "s",
    "runner.pool_busy_frac": "ratio",
    "runner.aggregate_s": "s",
    "obs.records_per_event": "ratio",
    "obs.trace_overhead_frac": "ratio",
    "ledger.unexplained_frac": "ratio",
}

# End-to-end times are reported in reference seconds: host seconds times
# REF_CALIB_S / (median calibration sample of the run), i.e. seconds on a
# host where one calibration sample takes 20 ms. The calibration is fixed
# work in the harness, sampled between repetitions, so this cancels the
# shared host's speed drift between runs and leaves changes to the
# simulator; see README.md.
REF_CALIB_S = 0.020
TIME_METRICS = ("wall_s", "trial_s_p50", "setup_s")

# Which arms each workload's FCT ratios compare, on which sample metric.
FCT_ARMS = {
    "web_fct": ("bundler_sfq", "status_quo", "slowdown_all"),
    "cdn_edge": ("managed", "status_quo", "agg_fct_ms"),
    "cross_sweep": ("bundler_copa", "status_quo", "slowdown_all"),
}


# ---- basic statistics -----------------------------------------------------

def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, _, q3 = quartiles(values)
    return (q3 - q1) / median(values)


def tail_percentile(n, candidates=(50, 90, 95, 99, 99.9)):
    """Highest candidate percentile with at least ten samples beyond it.

    Returns None when not even the median has ten samples above it.
    """
    best = None
    for p in candidates:
        if n * (100 - p) / 100 >= 10 - 1e-9:  # 100 - 99.9 is not exact
            best = p
    return best


def percentile(values, p):
    """Linear-interpolation percentile (p in [0, 100])."""
    xs = sorted(values)
    if len(xs) == 1:
        return xs[0]
    pos = (len(xs) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


# ---- scenario summary helpers ---------------------------------------------

def scalar(cell, key, default=0.0):
    s = cell["scalars"].get(key)
    return default if s is None else s["mean"]


def matching(cell, pattern):
    """Values of the cell's scalars whose names fully match `pattern`."""
    rx = re.compile(pattern)
    return [s["mean"] for k, s in cell["scalars"].items() if rx.fullmatch(k)]


def sum_scalars(cell, pattern):
    return sum(matching(cell, pattern))


def pick(cells, variant, params=None):
    for c in cells:
        if c["variant"] == variant and (params is None or c["params"] == params):
            return c
    raise KeyError(f"no cell {variant} {params}")


def fct_ratios(workload, summary):
    """(p50 ratio, p99 ratio) of the workload's bundler arm over status quo.

    For a sweep, each sweep point gives one ratio and the median over the
    points is reported.
    """
    arm, base, metric = FCT_ARMS[workload]
    r50, r99 = [], []
    for cell in summary["cells"]:
        if cell["variant"] != arm:
            continue
        ref = pick(summary["cells"], base, cell["params"])
        a, b = cell["samples"][metric], ref["samples"][metric]
        r50.append(a["median"] / b["median"])
        r99.append(a["p99"] / b["p99"])
    if not r50:
        raise KeyError(f"{workload}: no {arm} cells")
    return median(r50), median(r99)


def coverage_gaps(summary):
    """Indices of cells (one trial each) lacking sim.events_dispatched or ctr.*."""
    gaps = []
    for i, cell in enumerate(summary["cells"]):
        keys = cell["scalars"]
        if "sim.events_dispatched" not in keys or not any(k.startswith("ctr.") for k in keys):
            gaps.append(i)
    return gaps


def repro_claims(workload, summary):
    """The scripts/repro.sh claims that apply to this workload's scenario.

    Returns a list of (label, ok, detail).
    """
    cells = summary["cells"]
    out = []
    if workload == "web_fct":
        sq = scalar(pick(cells, "status_quo"), "median_slowdown_all")
        sfq = scalar(pick(cells, "bundler_sfq"), "median_slowdown_all")
        fifo = scalar(pick(cells, "bundler_fifo"), "median_slowdown_all")
        out.append(("fig09 Bundler+SFQ median slowdown <= 0.75x status quo",
                    sfq <= 0.75 * sq, f"{sfq:.3f} vs {sq:.3f}"))
        out.append(("fig09 FIFO-only bundling >= 1.2x status quo",
                    fifo >= 1.2 * sq, f"{fifo:.3f} vs {sq:.3f}"))
    elif workload == "cdn_edge":
        m = pick(cells, "managed")
        iso = scalar(m, "victim_iso_p50_ratio_max")
        admitted, rejected = scalar(m, "admitted"), scalar(m, "rejected")
        out.append(("cdn isolation: worst victim FCT p50 ratio <= 1.2x",
                    iso <= 1.2, f"{iso:.3f}x"))
        out.append(("cdn admission: 200 admitted, 8 rejected",
                    admitted == 200 and rejected == 8,
                    f"admitted={admitted:.0f} rejected={rejected:.0f}"))
    else:
        # fig11 has no repro.sh claim; every cell must complete requests.
        done = [scalar(c, "requests_completed") for c in cells]
        out.append(("fig11 every cell completes requests", min(done) > 0,
                    f"min requests_completed={min(done):.0f}"))
    return out


# ---- layer accounting -------------------------------------------------------

def qdisc_kind(variant, instance):
    """Discipline behind a ctr.qdisc.<instance>.* counter in these scenarios."""
    if instance.startswith("sendbox."):
        return "fifo" if variant == "bundler_fifo" else "sfq"
    if instance == "bottleneck" and variant == "in_network":
        return "drr"
    return "fifo"


def qdisc_ops_by_kind(summary):
    ops = {"sfq": 0.0, "drr": 0.0, "fifo": 0.0}
    rx = re.compile(r"ctr\.qdisc\.(.+)\.(enq_pkts|deq_pkts)")
    for cell in summary["cells"]:
        for k, s in cell["scalars"].items():
            m = rx.fullmatch(k)
            if m:
                ops[qdisc_kind(cell["variant"], m.group(1))] += s["mean"]
    return ops


def ledger_unexplained(terms, trial_seconds):
    """1 - sum(ops * ns_per_op) / trial wall.

    terms: iterable of (ops, ns_per_op); trial_seconds: summed trial wall.
    """
    explained_s = sum(ops * ns for ops, ns in terms) * 1e-9
    return 1.0 - explained_s / trial_seconds


def self_times(spans):
    """Self time per span name, in seconds.

    A span's self time is its duration minus the union of its children's
    intervals (children may overlap when trials run in parallel).
    """
    children = {}
    for i, s in enumerate(spans):
        children.setdefault(s["parent"], []).append(i)
    out = {}
    for i, s in enumerate(spans):
        covered, cur_start, cur_end = 0.0, None, None
        for lo, hi in sorted((spans[c]["start_ns"], spans[c]["end_ns"])
                             for c in children.get(i, [])):
            lo, hi = max(lo, s["start_ns"]), min(hi, s["end_ns"])
            if hi <= lo:
                continue
            if cur_end is None or lo > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = lo, hi
            else:
                cur_end = max(cur_end, hi)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[s["name"]] = out.get(s["name"], 0.0) + (s["end_ns"] - s["start_ns"] - covered) * 1e-9
    return out


def per_trial_median(reps):
    """Median time of each plan slot across reps."""
    return [median(col) for col in zip(*(r["trial_s"] for r in reps))]


# ---- metric reduction -------------------------------------------------------

def output_check(workload, raw, summary):
    """Counts trials attempted and failed; returns (attempted, failed, checks).

    Every trial a repetition ran must produce the same one-trial summary
    digest as in the first repetition; a trial that does not, fails. A
    repro claim that does not hold fails every trial run, and a coverage
    gap fails that trial wherever it ran.
    """
    checks = []
    bad = set(coverage_gaps(summary))
    checks.append(("coverage: every trial has sim.events_dispatched and ctr.*",
                   not bad, f"trials lacking them: {sorted(bad)}"))
    claims = repro_claims(workload, summary)
    checks.extend(claims)
    if not all(ok for _, ok, _ in claims):
        bad = set(range(len(raw["trial_labels"])))
    reference = raw["reps"][0]["trial_digests"]
    attempted = failed = mismatched = 0
    for rep in raw["reps"]:
        for i, digest in enumerate(rep["trial_digests"]):
            if not digest:
                continue  # not in this repetition's plan
            attempted += 1
            mismatched += digest != reference[i]
            failed += digest != reference[i] or i in bad
    checks.append(("simulated output identical across reps, roles and thread counts",
                   mismatched == 0, f"{mismatched} trial(s) differ from the first repetition"))
    return attempted, failed, checks


def reference_scale(raw):
    """Factor from this run's host seconds to reference seconds."""
    return REF_CALIB_S / median(raw["calib_s"])


def measured_reps(raw, scale=1.0):
    """The timed repetitions, with their times multiplied by `scale`."""
    return [dict(r, wall_s=r["wall_s"] * scale, trial_s=[t * scale for t in r["trial_s"]])
            for r in raw["reps"] if r["role"] == "measure"]


def end_to_end(workload, raw, summary, attempted, failed, reference=True):
    """End-to-end metrics; TIME_METRICS in reference seconds unless
    `reference` is False (then in this host's seconds)."""
    scale = reference_scale(raw) if reference else 1.0
    measured = measured_reps(raw, scale)
    p50, p99 = fct_ratios(workload, summary)
    return {
        "wall_s": median([r["wall_s"] for r in measured]),
        "trial_s_p50": median(per_trial_median(measured)),
        # Smallest per-repetition peak: arenas kept from earlier repetitions
        # and which trials overlap on a pool only ever add to it.
        "peak_rss_mb": min(r["peak_rss_mb"] for r in measured),
        "setup_s": median(raw["setup_s"]) * scale,
        "pass_frac": 1.0 - failed / attempted,
        "fct_p50_ratio": p50,
        "fct_p99_ratio": p99,
    }


def wall_difference_ns_per_pkt(summary, trial_s, arm, base, pkt_pattern):
    """(arm - base trial wall, same seed and params) per arm packet, in ns."""
    extra_s, pkts = 0.0, 0.0
    for i, cell in enumerate(summary["cells"]):
        if cell["variant"] != arm:
            continue
        j = next(k for k, c in enumerate(summary["cells"])
                 if c["variant"] == base and c["params"] == cell["params"])
        extra_s += trial_s[i] - trial_s[j]
        pkts += sum_scalars(cell, pkt_pattern)
    return extra_s * 1e9 / pkts if pkts else 0.0


def per_layer(workload, raw, summary):
    """Per-layer metrics, in this host's units (no calibration scaling)."""
    measured = measured_reps(raw)
    traced = [r for r in raw["reps"] if r["role"] == "traced"]
    layers = raw["layers"]
    cells = summary["cells"]
    trial_s = per_trial_median(measured)
    total_trial_s = sum(trial_s)

    events = sum(scalar(c, "sim.events_dispatched") for c in cells)
    tx_pkts = sum(sum_scalars(c, r"ctr\.link\..+\.tx_pkts") for c in cells)
    enq = sum(sum_scalars(c, r"ctr\.qdisc\..+\.enq_pkts") for c in cells)
    drops = sum(sum_scalars(c, r"ctr\.qdisc\..+\.drop_pkts") for c in cells)
    qops = qdisc_ops_by_kind(summary)
    tenant_enq = sum(sum_scalars(c, r"ctr\.tenant\..+\.enq_pkts") for c in cells)
    nimbus_evals = sum(sum_scalars(c, r"ctr\.nimbus\..+\.evals") for c in cells)
    allocs = sum(median(col) for col in zip(*(r["trial_allocs"] for r in measured)))
    # Mean over the bundler arms' sendboxes.
    passthrough = [v for c in cells
                   for v in matching(c, r"ctr\.sendbox\..+\.passthrough_frac")]

    sendbox_ns = managed_ns = 0.0
    if workload in ("web_fct", "cross_sweep"):
        arm = FCT_ARMS[workload][0]
        sendbox_ns = wall_difference_ns_per_pkt(summary, trial_s, arm, "status_quo",
                                                r"ctr\.qdisc\.sendbox\..+\.enq_pkts")
    if workload == "cdn_edge":
        managed_ns = wall_difference_ns_per_pkt(summary, trial_s, "managed",
                                                "status_quo", r"ctr\.tenant\..+\.enq_pkts")

    ledger_terms = [
        (events, layers["sim.schedule_dispatch_ns"]),
        (qops["sfq"], layers["qdisc.sfq_ns_per_op"]),
        (qops["drr"], layers["qdisc.drr_ns_per_op"]),
        (qops["fifo"], layers["qdisc.fifo_ns_per_op"]),
        (tenant_enq, layers["bundler.site_egress_ns_per_op"]),
        (nimbus_evals, layers["bundler.nimbus_eval_ns"]),
    ]
    busy = [sum(r["trial_s"]) / (r["wall_s"] * r["threads"]) for r in measured]
    overhead = [t["wall_s"] / u["wall_s"] - 1.0 for u, t in zip(measured, traced)]
    return {
        "sim.events": events,
        "sim.events_per_s": events / total_trial_s,
        "sim.heap_max": max(scalar(c, "sim.queue_max_heap") for c in cells),
        "sim.schedule_dispatch_ns": layers["sim.schedule_dispatch_ns"],
        "sim.allocs_per_event": allocs / events,
        "topo.build_s": median(raw["topo_build_s"]),
        "net.tx_pkts": tx_pkts,
        "net.ns_per_pkt": total_trial_s * 1e9 / tx_pkts,
        "qdisc.ops": sum(qops.values()),
        "qdisc.drop_frac": drops / (enq + drops) if enq + drops else 0.0,
        "qdisc.sfq_ns_per_op": layers["qdisc.sfq_ns_per_op"],
        "qdisc.drr_ns_per_op": layers["qdisc.drr_ns_per_op"],
        "qdisc.fifo_ns_per_op": layers["qdisc.fifo_ns_per_op"],
        "transport.retx_frac": sum(scalar(c, "ctr.tcp.retransmits") for c in cells) / tx_pkts,
        "transport.rtos": sum(scalar(c, "ctr.tcp.rtos") for c in cells),
        "bundler.sendbox_ns_per_pkt": sendbox_ns,
        "bundler.managed_ns_per_pkt": managed_ns,
        "bundler.site_egress_ns_per_op": layers["bundler.site_egress_ns_per_op"],
        "bundler.ctl_updates": sum(sum_scalars(c, r"ctr\.sendbox\..+\.rate_updates")
                                   for c in cells),
        "bundler.nimbus_evals": nimbus_evals,
        "bundler.nimbus_eval_ns": layers["bundler.nimbus_eval_ns"],
        "bundler.passthrough_frac": statistics.fmean(passthrough) if passthrough else 0.0,
        "runner.trial_s_max": max(trial_s),
        "runner.pool_busy_frac": median(busy),
        "runner.aggregate_s": median([r["aggregate_s"] for r in measured]),
        "obs.records_per_event": median([r["trace_records"] for r in traced]) / events,
        "obs.trace_overhead_frac": median(overhead),
        "ledger.unexplained_frac": ledger_unexplained(ledger_terms, total_trial_s),
    }
