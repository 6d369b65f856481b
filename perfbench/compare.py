#!/usr/bin/env python3
"""Compares benchmark records written by `run.py --out`.

    python3 perfbench/compare.py --base a1.json a2.json --new b1.json b2.json

Records are grouped by workload. Within a workload every record, base and
new alike, must carry the same host and build fingerprint (fingerprint.py);
otherwise the comparison is refused with exit code 2 and the differing
fields are named. For each end-to-end metric the script prints both medians
and quartile spreads and marks the metric REGRESSED when the new median is
worse than the base median by more than the metric's bound in
BENCHMARK.json (exit code 1).
"""
import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import fingerprint  # noqa: E402


def load(paths):
    records = []
    for path in paths:
        with open(path) as f:
            rec = json.load(f)
        rec["source"] = path
        records.append(rec)
    return records


def spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def compare(base, new, benchmark):
    """Returns (report lines, regressed metric names). Raises
    fingerprint.FingerprintMismatch when a workload mixes fingerprints."""
    lines, regressed = [], []
    for workload in sorted({r["workload"] for r in base + new}):
        b = [r for r in base if r["workload"] == workload]
        n = [r for r in new if r["workload"] == workload]
        if not b or not n:
            lines.append(f"{workload}: only on one side, skipped")
            continue
        fingerprint.require_comparable(b + n)
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            bv = [r["end_to_end"][name] for r in b]
            nv = [r["end_to_end"][name] for r in n]
            bm, nm = statistics.median(bv), statistics.median(nv)
            change = (nm - bm) / bm if bm else 0.0
            worse = change if metric["better"] == "lower" else -change
            flag = "REGRESSED" if worse > metric["bound"] else "ok"
            if flag == "REGRESSED":
                regressed.append(f"{workload}/{name}")
            lines.append(
                f"{workload:11} {name:16} base {bm:.6g} (spread {spread(bv):.3f}, "
                f"{len(bv)} runs)  new {nm:.6g} (spread {spread(nv):.3f}, {len(nv)} runs)  "
                f"{change:+.2%} {metric['unit']}  bound {metric['bound']:.0%}  {flag}")
    return lines, regressed


def main(argv=None):
    p = argparse.ArgumentParser(prog="perfbench/compare.py", allow_abbrev=False)
    p.add_argument("--base", nargs="+", required=True)
    p.add_argument("--new", nargs="+", required=True)
    p.add_argument("--benchmark", default=os.path.join(os.path.dirname(HERE),
                                                       "BENCHMARK.json"))
    args = p.parse_args(argv)
    with open(args.benchmark) as f:
        benchmark = json.load(f)
    try:
        lines, regressed = compare(load(args.base), load(args.new), benchmark)
    except fingerprint.FingerprintMismatch as e:
        print(f"compare: {e}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
