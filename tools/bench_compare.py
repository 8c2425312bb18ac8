#!/usr/bin/env python3
"""Compare a kernel-benchmark run against a committed baseline.

Reads the artifact emitted by `bench_kernels --json` — either the current
pmjoin.run_report.v1 object (table rows under its "rows" array) or the
legacy JSON Lines stream — from a baseline file and a current run,
matches rows of the known tables by (table, label), and compares each
table's throughput metric:

    distance_kernels   terms_s_tiled   (tiled-kernel throughput)
    knn_join           records_s       (kNN-join engine throughput,
                                        pm_knn and brute-force rows)

Labels or metrics present in only one file are skipped with a warning, so
a baseline regenerated under an older schema keeps comparing on the rows
it has.

The check is deliberately loose: CI runners are noisy, so only a
catastrophic regression — current throughput below baseline / THRESHOLD
(default 2.0x) — fails. Everything else, including labels present in
only one file, is reported but tolerated. This makes the bench-smoke CI
job a tripwire for "the kernels fell off a cliff" (e.g. vectorization
silently disabled), not a perf gate.

Usage: tools/bench_compare.py BASELINE.json CURRENT.json [--threshold X]
Exits non-zero iff any label regressed by more than the threshold.
"""

import argparse
import json
import os
import sys

# Headline metric per table ("higher is better"; the ratio test below
# flags drops); rows of other tables are ignored.
TABLE_METRICS = {
    "distance_kernels": "terms_s_tiled",
    "knn_join": "records_s",
}


def load_rows(path):
    """Returns {(table, label): row} for data rows of the known tables.

    Accepts both artifact formats: a pmjoin.run_report.v1 object (rows in
    its "rows" array) and the legacy JSON Lines stream (one object per
    line). A pmjoin.server_report.v1 (the multi-query aggregate emitted
    by pmjoin_server) is recognized but carries no kernel rows — naming
    that mistake beats a confusing line-by-line parse failure."""
    with open(path, encoding="utf-8") as f:
        text = f.read()

    def collect(records):
        rows = {}
        for row in records:
            if not isinstance(row, dict):
                continue
            if row.get("table") not in TABLE_METRICS or "label" not in row:
                continue
            rows[(row["table"], row["label"])] = row
        return rows

    try:
        obj = json.loads(text)
    except json.JSONDecodeError:
        obj = None
    if isinstance(obj, dict):
        schema = str(obj.get("schema", ""))
        if schema.startswith("pmjoin.server_report"):
            print(f"{path}: {schema} is a server report; it aggregates "
                  "join queries, not kernel benchmark rows",
                  file=sys.stderr)
            return {}
        if schema.startswith("pmjoin.run_report"):
            return collect(obj.get("rows", []))

    records = []
    for lineno, line in enumerate(text.split("\n"), 1):
        line = line.strip()
        if not line:
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as err:
            print(f"{path}:{lineno}: skipping unparseable line ({err})",
                  file=sys.stderr)
    return collect(records)


def sort_key(key):
    """Distance-kernel labels group by dimension ("L2/d16" -> "d16");
    other tables sort by plain label."""
    table, label = key
    if table == "distance_kernels" and "/" in label:
        return (table, label.split("/")[1], label)
    return (table, label)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("baseline", help="committed baseline JSONL")
    parser.add_argument("current", help="JSONL from the current run")
    parser.add_argument("--threshold", type=float, default=2.0,
                        help="fail if baseline/current exceeds this "
                        "(default: 2.0)")
    args = parser.parse_args()

    # A missing input is an operator error (stale path, baseline never
    # committed, bench run skipped) — explain it instead of tracebacking.
    for role, path in (("baseline", args.baseline), ("current", args.current)):
        if not os.path.exists(path):
            print(f"error: {role} file '{path}' does not exist"
                  + ("; regenerate it with `bench_kernels --json` and "
                     "commit it" if role == "baseline" else
                     "; run `bench_kernels --json` first"),
                  file=sys.stderr)
            return 2

    base = load_rows(args.baseline)
    curr = load_rows(args.current)
    if not base:
        print(f"error: no benchmark rows in {args.baseline}",
              file=sys.stderr)
        return 2
    if not curr:
        print(f"error: no benchmark rows in {args.current}",
              file=sys.stderr)
        return 2

    regressions = []
    print(f"{'table':<18} {'label':<10} {'baseline':>12} {'current':>12} "
          f"{'ratio':>7}")
    for key in sorted(base, key=sort_key):
        table, label = key
        metric = TABLE_METRICS[table]
        if key not in curr:
            print(f"{table:<18} {label:<10} "
                  f"{'(missing in current run)':>33}")
            continue
        if metric not in base[key]:
            print(f"{table:<18} {label:<10} warning: {metric} missing in "
                  "baseline; skipped")
            continue
        if metric not in curr[key]:
            print(f"{table:<18} {label:<10} warning: {metric} missing in "
                  "current run; skipped")
            continue
        b = float(base[key][metric])
        c = float(curr[key][metric])
        ratio = b / c if c > 0 else float("inf")
        flag = "  << REGRESSION" if ratio > args.threshold else ""
        print(f"{table:<18} {label:<10} {b:>12.4g} {c:>12.4g} "
              f"{ratio:>7.2f}{flag}")
        if ratio > args.threshold:
            regressions.append((f"{table}/{label}", ratio))
    for table, label in sorted(set(curr) - set(base)):
        print(f"{table:<18} {label:<10} {'(new label, no baseline)':>33}")

    if regressions:
        names = ", ".join(f"{l} ({r:.1f}x)" for l, r in regressions)
        print(f"\nbench_compare: throughput regressed more than "
              f"{args.threshold}x vs baseline: {names}", file=sys.stderr)
        return 1
    print(f"\nbench_compare: OK ({len(base)} labels, threshold "
          f"{args.threshold}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
