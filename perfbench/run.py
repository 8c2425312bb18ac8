#!/usr/bin/env python3
"""End-to-end benchmark of pmjoin (see perfbench/README.md).

Run one workload (builds the benchmark from source first):

    python3 perfbench/run.py --workload road_sc --seed 1 --seconds 30 --trace 0

prints every metric with its unit, then, as the last line, one JSON object
with the keys correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones. The
exit code is non-zero on any wrong answer. --seed also takes "default" or
"heldout" (the seed kept back for re-checking a claim).

Other modes:

    --record FILE        also append the full result (context included)
                         to FILE, one JSON line per run
    --compare A B        compare two files of recorded runs: quartiles,
                         pairs won and a verdict per workload and metric
    --self-test          tiny run of every workload: checks the traced
                         replay and that every metric is emitted
    --write-digests      re-record the pinned answer digests (first cycle
                         of the stream) of the default and held-out seeds
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "pmjoin_perfbench")
DIGESTS = os.path.join(HERE, "digests.json")

DEFAULT_SEED = 1
HELDOUT_SEED = 7919
WORKLOADS = ("road_sc", "dna_sc", "serve_mixed")
# Context fields two compared sets of runs must share.
CONTEXT_KEYS = ("simd", "compiler", "build_type", "nproc", "backend")
RUN_TIMEOUT_S = 170
# Modeled metrics repeat exactly for a seed. With the same seeds on both
# sides, --compare pairs them seed by seed instead of judging them against
# their spread across seeds (which is what BENCHMARK.json's bound covers).
EXACT_METRICS = ("modeled_s", "pages_read")
EXACT_TOLERANCE = 0.01


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_spec():
    """BENCHMARK.json, or None when it is not beside this directory."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f)


def build():
    """Configures (once) and builds the benchmark; False on failure."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log("perfbench: build step failed: " + " ".join(step))
            return False
    return True


def run_binary(workload, seed, seconds, trace, tiny=False):
    """Runs one workload; returns (exit code, parsed result or None)."""
    scratch = os.path.join(BUILD_ROOT, "perfbench-scratch",
                           "%s-%d" % (workload, os.getpid()))
    spans_dir = os.path.join(BUILD_ROOT, "perfbench-spans")
    os.makedirs(scratch, exist_ok=True)
    os.makedirs(spans_dir, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--scratch", scratch]
    if trace:
        cmd += ["--spans", os.path.join(spans_dir, "%s-%d.jsonl" % (workload, seed))]
    if tiny:
        cmd.append("--tiny")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: %s timed out" % workload)
        return 1, None
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    try:
        return done.returncode, json.loads(lines[-1])
    except (IndexError, ValueError):
        log(done.stdout[-2000:])
        return done.returncode or 1, None


def check_pinned(result):
    """Every answer pinned for this seed (the stream's first cycle, which
    every run completes) must be reproduced under the same query key.
    Returns the pinned keys that are missing or answered differently."""
    if not os.path.exists(DIGESTS):
        return []
    with open(DIGESTS) as f:
        pinned = json.load(f).get(result["workload"], {}).get(str(result["seed"]), {})
    return sorted(k for k, v in pinned.items() if result["digests"].get(k) != v)


def print_report(result):
    ctx = result["context"]
    print("perfbench %s seed=%s trace=%s  [simd=%s %s %s nproc=%s backend=%s]" % (
        result["workload"], result["seed"], result["trace"], ctx["simd"],
        ctx["compiler"], ctx["build_type"], ctx["nproc"], ctx["backend"]))
    for name, m in result["metrics"].items():
        print("  %-26s %14.6g %s" % (name, m["value"], m["unit"]))
    for name, value in sorted(result["samples"].items()):
        print("  sample %-40s %.6g" % (name, value))
    for note in result["notes"]:
        print("  note: " + note)
    print("  correct=%s attempted=%d failed=%d" % (
        result["correct"], result["attempted"], result["failed"]))


def resolve_seed(text):
    return {"default": DEFAULT_SEED, "heldout": HELDOUT_SEED}.get(text, text)


def cmd_run(args):
    seed = resolve_seed(args.seed)
    if not str(seed).isdigit():
        log("perfbench: --seed must be a number, 'default' or 'heldout'")
        return 2
    if args.workload not in WORKLOADS:
        log("perfbench: unknown workload %r (want one of %s)"
            % (args.workload, ", ".join(WORKLOADS)))
        return 2
    spec = load_spec()
    if spec is None or not build():
        log("perfbench: cannot build the benchmark here")
        return 2
    code, result = run_binary(args.workload, int(seed), args.seconds, args.trace)
    if result is None:
        return code or 1
    differing = check_pinned(result)
    if differing:
        result["notes"].append("pinned answer missing or different: "
                               + ", ".join(differing))
        result["correct"] = False
        result["failed"] = result["attempted"]
    print_report(result)
    if args.record:
        with open(args.record, "a") as f:
            f.write(json.dumps(result) + "\n")
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    metrics = {n: result["metrics"][n] for n in names if n in result["metrics"]}
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if result["correct"] and code == 0 else 1


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a, b, better, bound):
    """Section 8 of the choosing-metrics guide, for set b (change) against
    set a (parent)."""
    sign = 1 if better == "higher" else -1
    a1, am, a3 = quartiles(a)
    _, bm, _ = quartiles(b)
    pairs = list(zip(a, b))
    won = sum(1 for x, y in pairs if sign * (y - x) > 0)
    share = won / len(pairs) if pairs else 0.0
    if share >= 0.9 and abs(bm - am) > (a3 - a1):
        return "better", share
    spread = (a3 - a1) / am if am else float("inf")
    all_better = all(sign * (y - x) > 0 for x in a for y in b)
    if spread > bound and not all_better:
        return "unresolved", share
    if sign * (bm - am) < -bound * abs(am):
        return "worse", share
    return "within bound", share


def exact_verdict(a, b, better):
    """For metrics that repeat exactly per seed, compared seed by seed:
    worse when any seed's value worsens by more than EXACT_TOLERANCE."""
    sign = 1 if better == "higher" else -1
    changes = [sign * (y - x) / abs(x) if x else 0.0 for x, y in zip(a, b)]
    share = sum(1 for c in changes if c > 0) / len(changes)
    if min(changes) < -EXACT_TOLERANCE:
        return "worse", share
    if all(c > 0 for c in changes):
        return "better", share
    if all(c == 0 for c in changes):
        return "unchanged", share
    return "within bound", share


def load_records(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def cmd_compare(path_a, path_b):
    spec = load_spec()
    metrics = spec["end_to_end"]
    runs_a = [r for r in load_records(path_a) if r["trace"] == 0]
    runs_b = [r for r in load_records(path_b) if r["trace"] == 0]
    regressions = 0
    header = "%-12s %-14s %10s %10s %10s | %10s %10s %10s | %6s %6s %6s %5s  %s" % (
        "workload", "metric", "A.q1", "A.med", "A.q3", "B.q1", "B.med", "B.q3",
        "A.sprd", "B.sprd", "bound", "won", "verdict")
    print(header)
    for workload in WORKLOADS:
        a_runs = [r for r in runs_a if r["workload"] == workload]
        b_runs = [r for r in runs_b if r["workload"] == workload]
        if not a_runs or not b_runs:
            continue
        contexts = [{json.dumps({k: r["context"][k] for k in CONTEXT_KEYS},
                                sort_keys=True) for r in runs}
                    for runs in (a_runs, b_runs)]
        if contexts[0] != contexts[1] or len(contexts[0]) != 1:
            print("WARNING: %s: run contexts differ: %s vs %s" % (
                workload, sorted(contexts[0]), sorted(contexts[1])))
        same_seeds = sorted(r["seed"] for r in a_runs) == sorted(r["seed"] for r in b_runs)
        if not same_seeds:
            print("WARNING: %s: the two sets ran different seeds" % workload)
        a_runs.sort(key=lambda r: r["seed"])
        b_runs.sort(key=lambda r: r["seed"])
        failed = sum(r["failed"] for r in a_runs + b_runs)
        if failed:
            print("WARNING: %s: %d failed queries in these runs" % (workload, failed))
        for m in metrics:
            a = [r["metrics"][m["name"]]["value"] for r in a_runs]
            b = [r["metrics"][m["name"]]["value"] for r in b_runs]
            a1, am, a3 = quartiles(a)
            b1, bm, b3 = quartiles(b)
            if same_seeds and m["name"] in EXACT_METRICS:
                result, share = exact_verdict(a, b, m["better"])
            else:
                result, share = verdict(a, b, m["better"], m["bound"])
            regressions += result == "worse"
            print("%-12s %-14s %10.4g %10.4g %10.4g | %10.4g %10.4g %10.4g | "
                  "%6.3f %6.3f %6.3f %5.2f  %s" % (
                      workload, m["name"], a1, am, a3, b1, bm, b3,
                      (a3 - a1) / am if am else 0, (b3 - b1) / bm if bm else 0,
                      m["bound"], share, result))
    return 1 if regressions else 0


def cmd_self_test():
    spec = load_spec()
    if spec is None or not build():
        return 2
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    want[0]["fail_ratio"] = "fraction"
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, result = run_binary(workload, DEFAULT_SEED, 1, trace, tiny=True)
            where = "%s trace=%d" % (workload, trace)
            if result is None or code != 0 or not result["correct"]:
                problems.append("%s: run failed (%s)" % (
                    where, result and result["notes"]))
                continue
            if trace and result["samples"].get("replay_mismatches", 1) != 0:
                problems.append(where + ": replay differs from the entry point")
            for name, unit in want[trace].items():
                got = result["metrics"].get(name)
                if got is None or got["unit"] != unit:
                    problems.append("%s: metric %s missing or not in %s" % (
                        where, name, unit))
            log("self-test %s: %d queries, %d metrics" % (
                where, result["attempted"], len(result["metrics"])))
    for p in problems:
        print("FAIL " + p)
    print("self-test: " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


def cmd_write_digests():
    if not build():
        return 2
    pinned = {}
    for workload in WORKLOADS:
        for seed in (DEFAULT_SEED, HELDOUT_SEED):
            # A 1 s stream stops after its first cycle (or the first query
            # past 1 s), so the pins are queries every run asks.
            code, result = run_binary(workload, seed, 1, 0)
            if result is None or code != 0 or not result["correct"]:
                log("perfbench: %s seed %d failed; digests not written" % (workload, seed))
                return 1
            pinned.setdefault(workload, {})[str(seed)] = result["digests"]
    with open(DIGESTS, "w") as f:
        json.dump(pinned, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", default="default")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--write-digests", action="store_true")
    args = parser.parse_args()
    if args.compare:
        return cmd_compare(*args.compare)
    if args.self_test:
        return cmd_self_test()
    if args.write_digests:
        return cmd_write_digests()
    if not args.workload:
        parser.error("--workload is required")
    return cmd_run(args)


if __name__ == "__main__":
    start = time.time()
    code = main()
    log("perfbench: done in %.1f s" % (time.time() - start))
    sys.exit(code)
