#!/usr/bin/env python3
"""Campaign benchmark for dtann: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the library, dtannd and the
benchmark driver from source into .bench_build/ (Release), runs the
driver, checks the result digests committed in perfbench/digests.json
when the seed has one, and prints one JSON object as the last line of
stdout: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end metrics of BENCHMARK.json, with
--trace 1 the per-layer ones. The line before it is the environment
stamp.

    --record-digest   store this run's digest for (workload, seed)
                      in perfbench/digests.json instead of checking it

Exit codes: 0 result printed, 2 the library sources or a build is
missing (nothing printed).
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "work")
TRACES = os.path.join(ROOT, ".bench_build", "traces")
DIGESTS = os.path.join(HERE, "digests.json")
WORKLOADS = ("retrain_spatial", "mitigate_systolic", "operator_sweep",
             "daemon_jobs")
DRIVER_TIMEOUT_S = 170


def die(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configure and build once per checkout; later runs are no-ops."""
    for needed in ("src/CMakeLists.txt", "tools/dtannd.cc"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            die("library source %s not found; run from a dtann checkout"
                % needed)
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j",
                      str(os.cpu_count() or 1), "--target",
                      "perfbench_driver", "dtannd"])
        for step in steps:
            # Build output goes to stderr: stdout carries the result.
            if subprocess.run(step, stdout=sys.stderr).returncode != 0:
                die("build step failed: " + " ".join(step))


def run_driver(args, work, trace_out):
    cmd = [os.path.join(BUILD, "perfbench_driver"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", work, "--dtannd", os.path.join(BUILD, "dtannd"),
           "--trace-out", trace_out]
    log_path = os.path.join(work, "driver.log")
    with open(log_path, "w") as log:
        # Own process group, so a timeout also takes down any dtannd
        # the driver spawned.
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=log,
                                text=True, start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=DRIVER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return None, "driver timed out after %d s" % DRIVER_TIMEOUT_S
    if proc.returncode != 0:
        with open(log_path) as log:
            tail = log.read()[-2000:]
        return None, "driver exited %d: %s" % (proc.returncode, tail)
    return json.loads(out.strip().splitlines()[-1]), None


# Sim counters that depend on the batch lane width (DTANN_LANES and
# the CPU's ISA); the digest leaves them out so it holds on any host.
LANE_DEPENDENT = {"batch_sweeps", "batch_lane_slots", "batch_gate_sweeps",
                  "lane_occupancy"}


def strip_lane_dependent(doc):
    if isinstance(doc, dict):
        return {k: strip_lane_dependent(v) for k, v in doc.items()
                if k not in LANE_DEPENDENT}
    if isinstance(doc, list):
        return [strip_lane_dependent(v) for v in doc]
    return doc


def check_digest(args, material):
    """Compare (or record) the run's results+sim digest."""
    canonical = []
    for line in material.splitlines():
        key, _, doc = line.partition("=")
        try:
            doc = strip_lane_dependent(json.loads(doc))
        except ValueError:
            return "digest material does not parse: " + line[:80]
        canonical.append(key + "=" + json.dumps(doc, sort_keys=True))
    digest = hashlib.sha256("\n".join(canonical).encode()).hexdigest()
    table = {}
    if os.path.exists(DIGESTS):
        with open(DIGESTS) as f:
            table = json.load(f)
    entry = table.setdefault(args.workload, {})
    key = str(args.seed)
    if args.record_digest:
        entry[key] = digest
        with open(DIGESTS, "w") as f:
            json.dump(table, f, indent=2, sort_keys=True)
            f.write("\n")
        return None
    if key in entry and entry[key] != digest:
        return "results digest %s differs from the committed %s" % (
            digest[:16], entry[key][:16])
    return None


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-digest", action="store_true")
    args = p.parse_args()

    build()
    for d in (WORK, TRACES):
        os.makedirs(d, exist_ok=True)
    work = tempfile.mkdtemp(prefix="%s-%d-" % (args.workload, args.seed),
                            dir=WORK)
    trace_out = os.path.join(
        TRACES, "%s-%d.jsonl" % (args.workload, args.seed)) \
        if args.trace else ""
    try:
        report, error = run_driver(args, work, trace_out)
        material = ""
        digest_path = os.path.join(work, "digest.txt")
        if os.path.exists(digest_path):
            with open(digest_path) as f:
                material = f.read()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if report is None:
        report = {"attempted": 1, "failed": 1, "errors": [error],
                  "metrics": {}, "stamp": {}}
    else:
        mismatch = check_digest(args, material) if material else \
            "run produced no digest material"
        if mismatch:
            report["failed"] += 1
            report["errors"].append(mismatch)
    bench = os.path.join(ROOT, "BENCHMARK.json")
    if report["metrics"] and os.path.exists(bench):
        with open(bench) as f:
            names = [m["name"] for m in
                     json.load(f)["per_layer" if args.trace else "end_to_end"]]
        missing = [n for n in names if n not in report["metrics"]]
        if missing:
            report["failed"] += 1
            report["errors"].append("metrics missing: " + ", ".join(missing))
        report["metrics"] = {n: report["metrics"][n] for n in names
                             if n in report["metrics"]}
    report["stamp"]["error_rate"] = \
        report["failed"] / max(1, report["attempted"])
    for e in report["errors"]:
        print("perfbench: check failed: " + e, file=sys.stderr)
    print("stamp: " + json.dumps(report["stamp"], sort_keys=True))
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": max(1, report["attempted"]),
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))


if __name__ == "__main__":
    main()
