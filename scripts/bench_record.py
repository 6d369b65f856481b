#!/usr/bin/env python3
"""Record or gate the perf trajectory (BENCH_6.json / BENCH_7.json).

Runs the `bench_micro_perf` event-core cases (scheduler dispatch, pooled
network send, batched async gossip) with google-benchmark JSON output and
folds each case into three numbers:

    events_per_sec    items/sec as reported by the bench
    ns_per_event      1e9 / events_per_sec
    allocs_per_event  heap allocations per event, from the bench
                      binary's counting allocator (global operator new)

--million additionally runs the `bench_million` sharded-engine bench (it
prints its own JSON case document on stdout) and folds its cases —
events_per_sec / ns_per_event plus the memory-plan bytes_per_node — into
the same trajectory. Cases recorded with "gated": false (the full
n = 1,000,000 run) are kept in the baseline for the record but are NOT
required to be re-measured by a --check run, so CI's quick pass never
pays the full-scale wall time.

Default mode writes the folded measurements to --out (BENCH_6.json), the
perf trajectory future PRs regress against:

    python3 scripts/bench_record.py --bench build/bench/bench_micro_perf \
        --million build/bench/bench_million

--check additionally gates the fresh run against a checked-in baseline
and exits 1 when any case's ns_per_event regresses more than --tolerance
(default 0.25 = 25%), when a case that was allocation-free in the
baseline starts allocating (strict: the zero-allocation claim is the
point of the event core, so any nonzero count is a failure, not a
percentage), or when a case's bytes_per_node grows more than 5% (the
memory plan is a contract, not a suggestion). Faster-than-baseline runs
always pass:

    python3 scripts/bench_record.py --bench build/bench/bench_micro_perf \
        --million build/bench/bench_million \
        --check results/BENCH_6.json --out BENCH_6.json

--serve switches to the live-service trajectory (BENCH_7.json): it runs
`repload --bench` (which spins up its own store + TCP server and prints a
{"cases": ...} document) instead of the google-benchmark binaries, and
gates ns_per_op the same way. Serve cases additionally carry hard
*floors*: a case recording floor_lookups_per_sec must sustain at least
that absolute rate regardless of what the baseline measured — the 1M
lookups/s serving claim is gated as a floor, not a relative tolerance.
A case recording overhead_frac (the observed-vs-plain throughput loss of
the observability plane) must stay within the 2% budget:

    python3 scripts/bench_record.py --serve build/tools/repload \
        --check results/BENCH_7.json --out BENCH_7.json

--simd switches to the SIMD-kernel trajectory (BENCH_8.json): it runs the
scalar/SIMD bench pairs in bench_micro_perf (BM_GossipStep*,
BM_ResidualSweep*) and folds each pair into one case carrying the
dispatched SIMD level, both rates, and speedup_vs_scalar. The gossip-step
case records floor_speedup: 4.0 — a --check run fails unless the vector
kernels hold at least 4x over the honest scalar oracle, as an absolute
floor like the serve-path lookup rate. Only VectorGossip dispatches, so
--simd takes no --million (the sharded engine has one code path; its
events/s is gated in BENCH_6):

    python3 scripts/bench_record.py --simd \
        --bench build/bench/bench_micro_perf \
        --check results/BENCH_8.json --out BENCH_8.json

A missing or malformed baseline fails with a one-line diagnosis (exit 1),
never a stack trace, so a CI misconfiguration reads as what it is. A
--check run also fails loudly when the fresh run measures a case the
baseline has never seen: a new bench case must be recorded into the
trajectory file in the same PR, not silently skipped until someone
notices it was never gated.

Exit status: 0 on success, 1 on a regression or I/O error (so CI can use
it as a perf gate). No third-party deps.
"""

import argparse
import json
import subprocess
import sys

# The event-core cases recorded in BENCH_5.json. Names must match the
# google-benchmark registrations in bench/bench_micro_perf.cpp.
CASES = (
    "BM_SchedulerScheduleRun/1024",
    "BM_SchedulerScheduleCancel/1024",
    "BM_NetworkSendPooled",
    "BM_AsyncGossipConverge/1",
    "BM_AsyncGossipConverge/0",
)
FILTER = "|".join(dict.fromkeys(n.split("/")[0] for n in CASES))

# The scalar/SIMD pairs recorded in BENCH_8.json: (case, scalar bench,
# simd bench, hard speedup floor or None). The gossip-step pair composes
# only the streaming mul/add kernels, so lane width is the whole story and
# 4x is gated as an absolute floor; the division-bound residual sweep is
# recorded without a floor.
SIMD_PAIRS = (
    ("BM_GossipStep", "BM_GossipStepScalar", "BM_GossipStepSimd", 4.0),
    ("BM_ResidualSweep", "BM_ResidualSweepScalar", "BM_ResidualSweepSimd",
     None),
)
SIMD_FILTER = "|".join(dict.fromkeys(
    n.split("/")[0] for pair in SIMD_PAIRS for n in pair[1:3]))


def run_bench(bench, min_time, repetitions, bench_filter=FILTER,
              aggregates_only=True):
    cmd = [
        bench,
        f"--benchmark_filter=^({bench_filter})",
        f"--benchmark_min_time={min_time}",
        "--benchmark_format=json",
    ]
    if repetitions > 1:
        cmd.append(f"--benchmark_repetitions={repetitions}")
        if aggregates_only:
            cmd.append("--benchmark_report_aggregates_only=true")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    except OSError as exc:
        raise SystemExit(f"bench_record: cannot run {bench}: {exc}")
    except subprocess.CalledProcessError as exc:
        sys.stderr.write(exc.stderr)
        raise SystemExit(f"bench_record: {bench} exited {exc.returncode}")
    return json.loads(proc.stdout)


def fold(report, repetitions):
    """google-benchmark JSON -> {case: {events_per_sec, ns_per_event, ...}}."""
    cases = {}
    for row in report.get("benchmarks", ()):
        name = row.get("name", "")
        base = row.get("run_name", name)
        if repetitions > 1 and row.get("aggregate_name") != "median":
            continue
        if base not in CASES:
            continue
        items = row.get("items_per_second")
        if not items or items <= 0:
            raise SystemExit(f"bench_record: case {base} reported no "
                             "items_per_second (bench out of date?)")
        cases[base] = {
            "events_per_sec": items,
            "ns_per_event": 1e9 / items,
            "allocs_per_event": row.get("allocs_per_event", None),
        }
    missing = [c for c in CASES if c not in cases]
    if missing:
        raise SystemExit(f"bench_record: missing cases: {', '.join(missing)}")
    return cases


def run_million(bench):
    """Run bench_million and return its {case: metrics} dict."""
    try:
        proc = subprocess.run([bench], capture_output=True, text=True,
                              check=True)
    except OSError as exc:
        raise SystemExit(f"bench_record: cannot run {bench}: {exc}")
    except subprocess.CalledProcessError as exc:
        sys.stderr.write(exc.stderr)
        raise SystemExit(f"bench_record: {bench} exited {exc.returncode}")
    sys.stderr.write(proc.stderr)
    try:
        doc = json.loads(proc.stdout)
    except ValueError as exc:
        raise SystemExit(f"bench_record: {bench} emitted bad JSON: {exc}")
    cases = doc.get("cases", {})
    if not cases:
        raise SystemExit(f"bench_record: {bench} reported no cases")
    return cases


def fold_simd(report):
    """google-benchmark JSON -> one case per scalar/SIMD pair.

    Takes the best (max items/s) repetition per bench, not the median:
    the speedup floor is a capability gate, and on a shared box noise
    only ever subtracts from a capability measurement — the fastest
    repetition is the least contaminated one, for scalar and SIMD alike.
    """
    rows = {}
    for row in report.get("benchmarks", ()):
        base = row.get("run_name", row.get("name", ""))
        if row.get("run_type") == "aggregate":
            continue
        best = rows.get(base)
        if best is None or (row.get("items_per_second") or 0.0) > \
                (best.get("items_per_second") or 0.0):
            rows[base] = row
    cases = {}
    for name, scalar_name, simd_name, floor in SIMD_PAIRS:
        missing = [b for b in (scalar_name, simd_name) if b not in rows]
        if missing:
            raise SystemExit(
                f"bench_record: missing SIMD cases: {', '.join(missing)} "
                "(bench out of date?)")
        scalar_rate = rows[scalar_name].get("items_per_second")
        simd_rate = rows[simd_name].get("items_per_second")
        if not scalar_rate or not simd_rate:
            raise SystemExit(f"bench_record: pair {name} reported no "
                             "items_per_second")
        case = {
            "simd": rows[simd_name].get("label", "unknown"),
            "events_per_sec": simd_rate,
            "events_per_sec_scalar": scalar_rate,
            "ns_per_event": 1e9 / simd_rate,
            "speedup_vs_scalar": simd_rate / scalar_rate,
        }
        if floor is not None:
            case["floor_speedup"] = floor
        cases[name] = case
    return cases


def load_baseline(path):
    """Reads and validates a baseline; clear one-line failures, no traces."""
    try:
        with open(path, encoding="utf-8") as fh:
            baseline = json.load(fh)
    except OSError as exc:
        raise SystemExit(
            f"bench_record: cannot read baseline {path}: {exc.strerror or exc}"
            " — check the path, or record one first with bench_record.py")
    except ValueError as exc:
        raise SystemExit(
            f"bench_record: baseline {path} is not valid JSON ({exc}) — "
            "the file is corrupt; regenerate it with bench_record.py")
    if not isinstance(baseline, dict) or \
            not isinstance(baseline.get("cases"), dict) or \
            not baseline["cases"]:
        raise SystemExit(
            f"bench_record: baseline {path} is malformed — expected an "
            "object with a non-empty 'cases' map (schema gossiptrust-bench-*)"
            "; regenerate it with bench_record.py")
    for name, case in baseline["cases"].items():
        if not isinstance(case, dict):
            raise SystemExit(
                f"bench_record: baseline {path} is malformed — case "
                f"'{name}' is not an object; regenerate the baseline")
    return baseline


def case_ns(case):
    """Per-op cost of a case: ns_per_event (event core) or ns_per_op
    (serve cases); None when the case carries neither."""
    for key in ("ns_per_event", "ns_per_op"):
        v = case.get(key)
        if isinstance(v, (int, float)) and v > 0:
            return v
    return None


def check(fresh, baseline_path, tolerance):
    baseline = load_baseline(baseline_path)
    failures = []
    for name, base in baseline["cases"].items():
        now = fresh.get(name)
        if now is None:
            if base.get("gated") is False:
                print(f"skipped (ungated): {name} — kept for the record, "
                      "not re-measured")
                continue
            failures.append(f"{name}: present in baseline but not measured")
            continue
        base_ns, now_ns = case_ns(base), case_ns(now)
        if base_ns is None:
            failures.append(f"{name}: baseline carries no ns_per_event / "
                            "ns_per_op — malformed baseline, regenerate it")
            continue
        if now_ns is None:
            failures.append(f"{name}: fresh run reported no per-op cost")
            continue
        limit = base_ns * (1.0 + tolerance)
        if now_ns > limit:
            failures.append(
                f"{name}: ns/op {now_ns:.1f} > "
                f"{limit:.1f} (baseline {base_ns:.1f} "
                f"+{tolerance:.0%})")
        # Absolute floors (serve cases): the recorded floor must hold no
        # matter what the baseline measured — a hard capability gate.
        floor = base.get("floor_lookups_per_sec")
        now_rate = now.get("lookups_per_sec")
        if isinstance(floor, (int, float)) and floor > 0:
            if not isinstance(now_rate, (int, float)) or now_rate < floor:
                failures.append(
                    f"{name}: lookups/s "
                    f"{now_rate if now_rate is not None else 'missing'} "
                    f"below the hard floor {floor:.3e}")
        # SIMD speedup floor (BENCH_8 cases): the vector kernels must hold
        # this multiple over the scalar oracle no matter what the baseline
        # happened to measure — lane width is a capability, not a trend.
        floor_sp = base.get("floor_speedup")
        now_sp = now.get("speedup_vs_scalar")
        if isinstance(floor_sp, (int, float)) and floor_sp > 0:
            if not isinstance(now_sp, (int, float)) or now_sp < floor_sp:
                failures.append(
                    f"{name}: SIMD speedup "
                    f"{f'{now_sp:.2f}x' if isinstance(now_sp, (int, float)) else 'missing'} "
                    f"below the hard floor {floor_sp:g}x "
                    f"(level {now.get('simd', 'unknown')})")
        # Observability overhead (serve cases): the observed in-process case
        # records the fraction of throughput lost to frame timing + hot-path
        # recording. The budget is 2% — more means the metrics plane leaked
        # into the fast path.
        now_overhead = now.get("overhead_frac")
        if isinstance(now_overhead, (int, float)) and now_overhead > 0.02:
            failures.append(
                f"{name}: observability overhead {now_overhead:.1%} exceeds "
                "the 2% budget")
        base_allocs = base.get("allocs_per_event")
        now_allocs = now.get("allocs_per_event")
        if base_allocs == 0 and now_allocs is not None and now_allocs > 0:
            failures.append(
                f"{name}: was allocation-free, now "
                f"{now_allocs:g} allocs/event")
        base_bpn = base.get("bytes_per_node")
        now_bpn = now.get("bytes_per_node")
        if base_bpn and now_bpn and now_bpn > base_bpn * 1.05:
            failures.append(
                f"{name}: bytes/node {now_bpn:.1f} > "
                f"{base_bpn * 1.05:.1f} (baseline {base_bpn:.1f} +5%)")
    # The reverse direction must be loud too: a case the fresh run measured
    # that the baseline has never seen means a bench was added without
    # recording it into the trajectory file — it would never be gated.
    extras = sorted(n for n in fresh if n not in baseline["cases"])
    if extras:
        failures.append(
            f"cases measured but missing from baseline {baseline_path}: "
            f"{', '.join(extras)} — re-record the baseline in this PR")
    for line in failures:
        print(f"REGRESSION {line}")
    if not failures:
        print(f"perf gate passed: {len(baseline.get('cases', {}))} cases "
              f"within +{tolerance:.0%} of {baseline_path}")
    return not failures


def run_serve(bench, seconds):
    """Run `repload --bench` and return its {case: metrics} dict."""
    cmd = [bench, "--bench", "--bench-seconds", str(seconds)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    except OSError as exc:
        raise SystemExit(f"bench_record: cannot run {bench}: {exc}")
    except subprocess.CalledProcessError as exc:
        sys.stderr.write(exc.stderr)
        raise SystemExit(f"bench_record: {bench} exited {exc.returncode}")
    sys.stderr.write(proc.stderr)
    try:
        doc = json.loads(proc.stdout)
    except ValueError as exc:
        raise SystemExit(f"bench_record: {bench} emitted bad JSON: {exc}")
    cases = doc.get("cases", {})
    if not cases:
        raise SystemExit(f"bench_record: {bench} reported no cases")
    return cases


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bench", default="build/bench/bench_micro_perf",
                    help="path to the bench_micro_perf binary")
    ap.add_argument("--million", metavar="BENCH_MILLION",
                    help="also run this bench_million binary and fold its "
                         "sharded-engine cases into the trajectory")
    ap.add_argument("--serve", metavar="REPLOAD",
                    help="record the live-service trajectory instead: run "
                         "this repload binary with --bench (BENCH_7.json)")
    ap.add_argument("--simd", action="store_true",
                    help="record the SIMD-kernel trajectory instead: run the "
                         "scalar/SIMD bench pairs (BENCH_8.json)")
    ap.add_argument("--serve-seconds", type=float, default=1.0,
                    help="--bench-seconds per serve case (default 1.0)")
    ap.add_argument("--out", default="BENCH_6.json",
                    help="where to write the folded measurements")
    ap.add_argument("--check", metavar="BASELINE",
                    help="gate the fresh run against this baseline JSON")
    ap.add_argument("--tolerance", type=float, default=0.25,
                    help="allowed ns/event regression fraction (default 0.25)")
    ap.add_argument("--min-time", default="0.2",
                    help="--benchmark_min_time per case (default 0.2)")
    ap.add_argument("--repetitions", type=int, default=3,
                    help="benchmark repetitions; the median is recorded "
                         "(default 3, use 1 for a quick look)")
    args = ap.parse_args()
    if args.simd and args.million:
        ap.error("--simd takes no --million: the sharded engine does not "
                 "dispatch SIMD; gate bench_million in BENCH_6 instead")

    if args.simd:
        report = run_bench(args.bench, args.min_time, args.repetitions,
                           bench_filter=SIMD_FILTER, aggregates_only=False)
        cases = fold_simd(report)
        if args.out == "BENCH_6.json":  # default --out follows the mode
            args.out = "BENCH_8.json"
        doc = {
            "schema": "gossiptrust-bench-8",
            "bench": "bench_micro_perf scalar/SIMD pairs",
            "units": {"ns_per_event": "nanoseconds (SIMD level)",
                      "events_per_sec": "items/s at the dispatched level",
                      "events_per_sec_scalar": "items/s, forced scalar",
                      "speedup_vs_scalar": "events_per_sec ratio",
                      "floor_speedup":
                          "hard minimum speedup gated by --check"},
            "cases": cases,
        }
    elif args.serve:
        cases = run_serve(args.serve, args.serve_seconds)
        if args.out == "BENCH_6.json":  # default --out follows the mode
            args.out = "BENCH_7.json"
        doc = {
            "schema": "gossiptrust-bench-7",
            "bench": "repload --bench (live reputation service)",
            "units": {"ns_per_op": "nanoseconds per served operation",
                      "lookups_per_sec": "reputation keys served per second",
                      "ops_per_sec": "keys + ingests per second",
                      "p50_us": "client round-trip microseconds",
                      "floor_lookups_per_sec":
                          "hard minimum rate gated by --check",
                      "overhead_frac":
                          "throughput lost to observability recording "
                          "(gated at 2% by --check)"},
            "cases": cases,
        }
    else:
        report = run_bench(args.bench, args.min_time, args.repetitions)
        cases = fold(report, args.repetitions)
        if args.million:
            cases.update(run_million(args.million))
        doc = {
            "schema": "gossiptrust-bench-6",
            "bench": "bench_micro_perf + bench_million",
            "units": {"ns_per_event": "nanoseconds",
                      "events_per_sec": "items/s",
                      "allocs_per_event": "heap allocations per event",
                      "bytes_per_node": "resident bytes per node "
                                        "(SoA state + CSR + Bloom store)"},
            "cases": cases,
        }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for name, c in sorted(cases.items()):
        rate = c.get("events_per_sec", c.get("ops_per_sec", 0.0))
        if c.get("speedup_vs_scalar") is not None:
            extra = (f"{c.get('simd', '?')} "
                     f"{c['speedup_vs_scalar']:.2f}x vs scalar")
        elif c.get("bytes_per_node") is not None:
            extra = f"bytes/node {c['bytes_per_node']:.1f}"
        elif c.get("p99_us") is not None:
            extra = f"p99 {c['p99_us']:.1f} us"
        else:
            allocs = c.get("allocs_per_event")
            extra = ("allocs/ev "
                     f"{'n/a' if allocs is None else format(allocs, 'g')}")
        print(f"{name:36s} {rate:>14.3e} ev/s "
              f"{case_ns(c) or 0.0:>10.1f} ns/ev  {extra}")
    print(f"wrote {args.out}")

    if args.check is not None and not check(cases, args.check, args.tolerance):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
