#!/usr/bin/env python3
"""Builds and runs the PolyInject benchmark, or compares two ledgers.

Run one workload (from the root of a checkout):

    python3 perfbench/run.py --workload compile_cold --seed 0 --seconds 20 --trace 0

builds perfbench/ (which compiles the library from src/) into
.bench_build/perfbench, then runs it. The last line of standard output is
the JSON result; the exit status is 0 only when every output was correct.
--ledger FILE also writes the result as a ledger.

Check that two traced runs of this commit do identical work:

    python3 perfbench/run.py --workload compile_cold --seed 0 --seconds 20 --self-check

Compare two ledgers (for example the committed perfbench/ledger/ baseline
against a new run):

    python3 perfbench/run.py --compare OLD.json NEW.json

Every work count must match exactly, and every end-to-end metric may
worsen by at most its bound in BENCHMARK.json; exit status 1 reports a
changed count or an end-to-end metric beyond its bound. Per-layer times
have no bound of their own: each is shown against the bound of
op_p50_ms, the latency the layers add up to, for information only.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
# A run's set-up and checks take at most this long beyond its --seconds;
# a run that takes longer is stopped and fails.
RUN_SLACK_S = 140
TIME_UNITS = {"s", "ms", "us"}


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no PolyInject sources at %s/src; run from a full checkout" % ROOT)
        return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return None
    return os.path.join(BUILD, "perfbench")


def run(binary, args, seconds):
    """Runs the benchmark binary with library tracing and fault injection
    forced off; \\returns its exit status."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("POLYINJECT_TRACE", "POLYINJECT_FAILPOINTS")}
    timeout = seconds + RUN_SLACK_S
    try:
        return subprocess.run([binary] + args + ["--root", ROOT], env=env,
                              timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        log("benchmark did not finish within %d s" % timeout)
        return 1


def load(path):
    with open(path) as f:
        ledger = json.load(f)
    if ledger.get("format") != "perfbench-ledger v1":
        raise ValueError("%s is not a perfbench ledger" % path)
    return ledger


def bounds():
    """{metric: (bound, better)} from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}


def compare(old_path, new_path):
    old, new = load(old_path), load(new_path)
    for path, ledger in ((old_path, old), (new_path, new)):
        if ledger.get("correct") is not True:
            log("%s comes from a run whose outputs were not correct" % path)
            return 1
    for key in ("workload", "seed", "trace"):
        if old[key] != new[key]:
            log("ledgers differ in %s: %r vs %r" % (key, old[key], new[key]))
            return 2
    e2e = bounds()
    layer_bound = e2e["op_p50_ms"][0]
    bad = 0
    print("%-34s %16s %16s  %s" % ("metric", "old", "new", "verdict"))
    for name in sorted(set(old["metrics"]) | set(new["metrics"])):
        if name not in old["metrics"] or name not in new["metrics"]:
            print("%-34s %16s %16s  ADDED/REMOVED" % (
                name, old["metrics"].get(name, {}).get("value", "-"),
                new["metrics"].get(name, {}).get("value", "-")))
            bad += 1
            continue
        a, b = old["metrics"][name]["value"], new["metrics"][name]["value"]
        unit = new["metrics"][name]["unit"]
        if unit == "count":
            verdict = "same" if a == b else "CHANGED by %+d" % (b - a)
            bad += a != b
        elif name in e2e or unit in TIME_UNITS:
            bound, better = e2e.get(name, (layer_bound, "lower"))
            change = (b - a) / abs(a) if a else (0.0 if a == b else 1.0)
            worse = change if better == "lower" else -change
            verdict = "%+.1f%% (bound %.0f%%)" % (100 * change, 100 * bound)
            if worse > bound:
                verdict += " WORSE" if name in e2e else " worse (layer)"
                bad += name in e2e
        else:
            verdict = "same" if a == b else "%+.4g" % (b - a)
        print("%-34s %16.6g %16.6g  %s" % (name, a, b, verdict))
    print("%s: %d finding(s)" % ("FAIL" if bad else "OK", bad))
    return 1 if bad else 0


def self_check(binary, args, seconds):
    """Two traced runs of one commit must do identical work."""
    ledgers = [os.path.join(BUILD, "self-check-%d.json" % i) for i in (1, 2)]
    for path in ledgers:
        status = run(binary, args + ["--trace", "1", "--ledger", path],
                     seconds)
        if status:
            return status
    counts = [{k: v["value"] for k, v in load(p)["metrics"].items()
               if v["unit"] == "count"} for p in ledgers]
    changed = sorted(k for k in set(counts[0]) | set(counts[1])
                     if counts[0].get(k) != counts[1].get(k))
    for name in changed:
        log("count %s differs: %s vs %s" % (
            name, counts[0].get(name), counts[1].get(name)))
    log("self-check %s: %d counts compared" % (
        "FAILED" if changed else "passed", len(counts[0])))
    return 1 if changed else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    p.add_argument("--self-check", action="store_true")
    p.add_argument("--workload")
    p.add_argument("--seed")
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace")
    p.add_argument("--ledger")
    a = p.parse_args()
    if a.compare:
        return compare(*a.compare)
    if not (a.workload and a.seed and a.seconds and (a.trace or a.self_check)):
        p.error("--workload, --seed, --seconds and --trace are required")
    binary = build()
    if not binary:
        return 1
    args = ["--workload", a.workload, "--seed", a.seed, "--seconds",
            str(a.seconds)]
    if a.self_check:
        return self_check(binary, args, a.seconds)
    args += ["--trace", a.trace]
    if a.ledger:
        args += ["--ledger", os.path.abspath(a.ledger)]
    return run(binary, args, a.seconds)


if __name__ == "__main__":
    sys.exit(main())
