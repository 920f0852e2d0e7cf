#!/usr/bin/env python3
"""Repository benchmark: builds the harness from source and runs one workload.

    python3 perfbench/run.py --workload web_fct --seed 1 --seconds 30 --trace 0

Run from the repository root. --trace 0 reports the end-to-end metrics with
tracing off; --trace 1 reports the per-layer metrics from a traced run. The
last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {value, unit}}}.
A human-readable report goes to standard error, and the full record
(fingerprint, output digest, checks, self time per span, raw spans) is
written under <build dir>/results/. See perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402

WORKLOADS = ("web_fct", "cdn_edge", "cross_sweep")
BUILD_TIMEOUT_S = 800
HARNESS_SLACK_S = 120  # harness budget beyond --seconds


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def jobs():
    return max(1, min(len(os.sched_getaffinity(0)), 4))


def run(cmd, timeout):
    """Runs cmd in its own process group; on timeout the whole group (make,
    compilers) is killed and reaped before the error propagates."""
    with subprocess.Popen(cmd, stdout=sys.stderr, start_new_session=True) as proc:
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
    if code != 0:
        raise subprocess.CalledProcessError(code, cmd)


def build(root, build_dir):
    """Configures (once) and builds the harness; returns its path."""
    src = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run(["cmake", "-S", src, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            BUILD_TIMEOUT_S)
    run(["cmake", "--build", build_dir, "-j", str(jobs()), "--target", "perfbench_harness"],
        BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "perfbench_harness")


def source_digest(root):
    """sha256 over the simulator and benchmark sources, in path order."""
    h = hashlib.sha256()
    paths = []
    for top in ("src", "perfbench"):
        for d, _, files in os.walk(os.path.join(root, top)):
            paths += [os.path.join(d, f) for f in files if f.endswith((".cc", ".h", ".py", ".txt"))]
    for p in sorted(paths):
        h.update(os.path.relpath(p, root).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def fingerprint(root, raw):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "compiler": raw["compiler"],
        "build_type": raw["build_type"],
        "git_sha": sha,
        "source_sha256": source_digest(root),
        "runner_threads": raw["threads"],
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "runner", "scenario.h")):
        log("perfbench: run from the repository root (src/ not found)")
        return 2
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    try:
        harness = build(root, build_dir)
    except (subprocess.SubprocessError, OSError) as e:
        log(f"perfbench: build failed: {e}")
        return 1

    results = os.path.join(build_dir, "results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    cmd = [harness, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--threads", str(jobs()), "--out", stem + ".raw.json"]
    try:
        run(cmd, args.seconds + HARNESS_SLACK_S)
    except (subprocess.SubprocessError, OSError) as e:
        log(f"perfbench: harness failed: {e}")
        return 1
    with open(stem + ".raw.json") as f:
        raw = json.load(f)
    with open(stem + ".raw.json.summary.json") as f:
        summary = json.load(f)

    attempted, failed, checks = stats.output_check(args.workload, raw, summary)
    host = {}
    if args.trace == 0:
        values = stats.end_to_end(args.workload, raw, summary, attempted, failed)
        host = stats.end_to_end(args.workload, raw, summary, attempted, failed, reference=False)
        host = {k: host[k] for k in stats.TIME_METRICS}
        units = stats.END_TO_END_UNITS
    else:
        values = stats.per_layer(args.workload, raw, summary)
        units = stats.PER_LAYER_UNITS
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}

    measured = stats.measured_reps(raw)
    trial_s = [t for r in measured for t in r["trial_s"]]
    walls = [r["wall_s"] for r in measured]
    tail = stats.tail_percentile(len(trial_s))
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "fingerprint": fingerprint(root, raw),
        "output_digest": raw["reps"][0]["digest"],
        "checks": [{"check": c, "ok": ok, "detail": d} for c, ok, d in checks],
        "metrics": metrics,
        "host_seconds": host,
        "host_wall_spread": stats.spread(walls) if len(walls) > 1 else None,
        "calib_s": raw["calib_s"],
        "trial_s": {"n": len(trial_s), "median": stats.median(trial_s),
                    "tail_percentile": tail,
                    "tail": stats.percentile(trial_s, tail) if tail else None},
        "reps": [{k: r[k] for k in ("role", "threads", "wall_s", "digest")} for r in raw["reps"]],
        "self_time_s": stats.self_times(raw["spans"]),
    }
    with open(stem + ".report.json", "w") as f:
        json.dump(report, f, indent=1)
    with open(stem + ".spans.json", "w") as f:
        json.dump(raw["spans"], f)

    fp = report["fingerprint"]
    log(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: {fp['cpu_model']}, "
        f"nproc={fp['nproc']}, {fp['compiler']} {fp['build_type']}, "
        f"threads={fp['runner_threads']}, digest={report['output_digest']}")
    for c in report["checks"]:
        log(f"  {'ok  ' if c['ok'] else 'FAIL'} {c['check']}: {c['detail']}")
    for k, m in metrics.items():
        log(f"  {k:32s} {m['value']:.6g} {m['unit']}")
    for name, s in sorted(report["self_time_s"].items(), key=lambda kv: -kv[1]):
        log(f"  self {name:27s} {s:.4f} s")
    log(f"  report: {stem}.report.json")

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
