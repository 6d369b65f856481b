#!/usr/bin/env python3
"""The repository benchmark: one command per workload, every metric by name.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 40 --trace 0

Run it from the repository root. The first run configures and builds
perfbench/CMakeLists.txt (the library, the shipped repserved daemon and the
perfbench_cpp binary) into $CARGO_TARGET_DIR, or .bench_build when unset.
With --trace 0 the last stdout line is the JSON result with every
end-to-end metric; with --trace 1 it carries every per-layer metric (see
README.md). Output checks run in both modes: a failed check counts toward
`failed` and makes the exit code 1. Bad arguments exit 2 before any work.
"""
import argparse
import json
import os
import selectors
import signal
import socket
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import fingerprint  # noqa: E402
import pbstats  # noqa: E402

WORKLOADS = ["paper", "sharded_t1"]

# (name, unit) in BENCHMARK.json order; every workload reports every one.
END_TO_END = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("latency_p50_ms", "ms"),
    ("fresh_p50_ms", "ms"),
    ("rounds", "rounds"),
    ("wire_bytes_per_node", "B"),
]

# Per-layer metrics of the traced run. Every traced run measures every layer
# (README.md, "Per-layer metrics"): the workload's own from its problems,
# the other problem workload's from a short side pass, and the service's
# from a repserved session.
PER_LAYER = [
    ("fail_frac", "ratio"),
    ("latency_samples", "count"),
    ("agg_err", "ratio"),
    ("trust.normalize_s", "s"),
    ("trust.nnz", "count"),
    ("core.cycles", "count"),
    ("core.self_s", "s"),
    ("core.degraded_cycles", "count"),
    ("core.fold_s", "s"),
    ("gossip.steps_per_cycle", "count"),
    ("gossip.send_s", "s"),
    ("gossip.bookkeeping_s", "s"),
    ("gossip.readout_s", "s"),
    ("gossip.ns_per_triplet", "ns"),
    ("gossip.active_triplets", "count"),
    ("gossip.zero_skip_frac", "ratio"),
    ("graph.build_s", "s"),
    ("graph.csr_bytes", "B"),
    ("bloom.build_s", "s"),
    ("bloom.store_bytes", "B"),
    ("sharded.init_s", "s"),
    ("sharded.events", "count"),
    ("sharded.windows", "count"),
    ("sharded.pushes", "count"),
    ("sharded.deliveries", "count"),
    ("sharded.ns_per_event", "ns"),
    ("sharded.events_per_window", "count"),
    ("sharded.scaling_eff", "ratio"),
    ("sharded.unmatched_frac", "ratio"),
    ("sharded.state_bytes", "B"),
    ("sharded.mass_gap", "ratio"),
    ("sharded.err", "ratio"),
    ("serve.setup_s", "s"),
    ("serve.peak_rss_mb", "MB"),
    ("serve.lookup_samples", "count"),
    ("serve.lookup_p50_us", "us"),
    ("serve.lookup_p99_us", "us"),
    ("serve.fresh_samples", "count"),
    ("serve.fresh_p50_ms", "ms"),
    ("serve.fresh_p99_ms", "ms"),
    ("serve.publish_us", "us"),
    ("serve.lookup_ns", "ns"),
    ("serve.frame_us", "us"),
    ("serve.drain_us", "us"),
    ("serve.server_batch_p99_us", "us"),
    ("serve.refolds", "count"),
    ("serve.fold_s", "s"),
    ("serve.bp_pauses", "count"),
    ("serve.limbo_max", "count"),
    ("gen.late_p99_us", "us"),
    ("trace.latency_p50_ms", "ms"),
    ("trace.fresh_p50_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
]

SERVE_N = 512  # perfbench_cpp kServeN: the client draws keys below it
SERVE_REFOLD = 200
SETUP_REPEATS = 5  # serve: daemon start-ups timed per run
SERVE_SECONDS = 20  # serve: load window cap, so a traced run ends within 180 s
SIDE_PROBLEMS = 4  # problems of the side pass (at least the 3 of the scaling pass)


class BenchError(Exception):
    """A failure that ends the run without a result line."""


def whole_number(lo, hi):
    def parse(text):
        if not text.isdigit():
            raise argparse.ArgumentTypeError(f"expected a whole number, got {text!r}")
        value = int(text)
        if not lo <= value <= hi:
            raise argparse.ArgumentTypeError(f"{value} is outside [{lo}, {hi}]")
        return value
    return parse


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", allow_abbrev=False,
                                description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=whole_number(0, 2**63 - 1))
    p.add_argument("--seconds", required=True, type=whole_number(1, 600))
    p.add_argument("--trace", required=True, type=whole_number(0, 1))
    p.add_argument("--out", help="also write the full record (fingerprint, "
                                 "metrics, sample counts) to this JSON file")
    return p.parse_args(argv)


# --- build ------------------------------------------------------------------

def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures (once) and builds the benchmark targets; returns the
    build directory. cmake's own output goes to stderr."""
    for need in ("src/CMakeLists.txt", "tools/repserved.cpp"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            raise BenchError(f"{need} not found under {ROOT}: run from a full "
                             "checkout of the repository")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # The compiler's temporary files go to the build tree, not /tmp, so the
    # benchmark writes only inside its checkout.
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = {**os.environ, "TMPDIR": tmp}
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench_cpp", "repserved",
                  "-j", jobs])
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode
        except OSError as e:
            raise BenchError(f"cannot run {cmd[0]}: {e}")
        if rc != 0:
            raise BenchError(f"build step failed ({rc}): {' '.join(cmd)}")
    return out


# --- child processes ----------------------------------------------------------

class RssSampler(threading.Thread):
    """Samples a process's VmRSS every 10 ms. The reported figure is the
    median over whole seconds of each second's peak: the allocator's
    momentary spikes (glibc returns and re-maps the gossip buffers at
    unpredictable moments) do not decide a run, a lasting rise does."""

    def __init__(self, pid):
        super().__init__(daemon=True)
        self.path = f"/proc/{pid}/status"
        self.samples = []  # (seconds since start, KiB)
        self.done = threading.Event()
        self.start()

    def run(self):
        t0 = time.perf_counter()
        while not self.done.is_set():
            try:
                with open(self.path) as f:
                    kb = next((int(l.split()[1]) for l in f if l.startswith("VmRSS:")), None)
            except (OSError, ValueError):
                kb = None
            if kb:
                self.samples.append((time.perf_counter() - t0, kb))
            self.done.wait(0.01)

    def stop(self):
        """Stops sampling; returns the RSS figure in MiB (0 if no sample)."""
        self.done.set()
        self.join()
        return pbstats.rss_figure(self.samples) / 1024.0


def run_child(argv, sample_rss=False):
    """Runs argv to completion; returns (exit code, parsed JSON stdout
    lines, RssSampler figure in MiB or 0 when not sampled)."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
    sampler = RssSampler(proc.pid) if sample_rss else None
    try:
        out = proc.stdout.read()
    finally:
        rss = sampler.stop() if sampler else 0.0
        proc.wait()
        proc.stdout.close()
    lines = [json.loads(l) for l in out.splitlines() if l.startswith("{")]
    return proc.returncode, lines, rss


class Daemon:
    """One repserved process: spawned, timed to its "listening" line,
    stopped with SIGTERM and reaped."""

    def __init__(self, exe, seed, seconds):
        argv = [exe, "--port", "0", "--n", str(SERVE_N), "--refold", str(SERVE_REFOLD),
                "--seed", str(seed), "--metrics-interval", "0", "--slow-frame-us", "0",
                "--max-seconds", str(2 * seconds + 120)]
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL, text=True)
        sel = selectors.DefaultSelector()
        sel.register(self.proc.stdout, selectors.EVENT_READ)
        ready = sel.select(timeout=120)
        sel.close()
        line = self.proc.stdout.readline() if ready else ""
        self.setup_s = time.perf_counter() - t0
        if "listening on" not in line:
            self.stop()
            raise BenchError(f"repserved did not start: {line.strip()!r}")
        self.port = int(line.split("listening on", 1)[1].split()[0].rsplit(":", 1)[1])

    def stop(self):
        """SIGTERM and reap."""
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGTERM)
            self.proc.wait()
            self.proc.stdout.close()


# --- workloads ------------------------------------------------------------------

def counted(problems):
    """The fixed problem prefix every run of a seed solves: count metrics
    are taken over it, so they repeat exactly for a seed."""
    return [p for p in problems if p["counted"]]


def timed(problems):
    """Problems whose timings count: problem 0 of a pass warms the caches
    and the allocator, so only its checks and counts are used."""
    return [p for p in problems if p["index"] > 0]


def med(rows, key):
    return pbstats.median([p[key] for p in rows])


def pass_metrics(problems):
    """End-to-end figures of one pass, except the RSS figure."""
    rows, fixed = timed(problems), counted(problems)
    return {
        "setup_s": med(rows, "setup_s"),
        "latency_p50_ms": med(rows, "latency_s") * 1e3,
        "fresh_p50_ms": med(rows, "fresh_s") * 1e3,
        "rounds": pbstats.interquartile_mean([p["rounds"] for p in fixed]),
        "wire_bytes_per_node": pbstats.interquartile_mean(
            [p["wire_bytes_per_node"] for p in fixed]),
    }, len(rows)


def paper_layers(traced, _lines):
    fixed = counted(traced)
    return {
        "agg_err": med(fixed, "agg_err"),
        "trust.normalize_s": med(timed(traced), "normalize_s"),
        "trust.nnz": med(fixed, "nnz"),
        "core.cycles": med(fixed, "cycles"),
        "core.self_s": pbstats.median([p["latency_s"] - p["send_s"] - p["bookkeeping_s"]
                                       - p["readout_s"] for p in timed(traced)]),
        "core.degraded_cycles": sum(p["degraded_cycles"] for p in traced),
        "gossip.steps_per_cycle": pbstats.median([p["rounds"] / p["cycles"] for p in fixed]),
        "gossip.send_s": med(timed(traced), "send_s"),
        "gossip.bookkeeping_s": med(timed(traced), "bookkeeping_s"),
        "gossip.readout_s": med(timed(traced), "readout_s"),
        "gossip.ns_per_triplet": pbstats.median(
            [p["send_s"] / p["triplets"] * 1e9 for p in timed(traced)]),
        "gossip.active_triplets": med(fixed, "active_triplets"),
        "gossip.zero_skip_frac": pbstats.median(
            [p["zero_skipped"] / (p["zero_skipped"] + p["triplets"]) for p in fixed]),
    }


def sharded_layers(traced, lines):
    fixed = counted(traced)
    bloom = [l for l in lines if l["kind"] == "bloom"][0]
    scaling = [l for l in lines if l["kind"] == "scaling"]
    one_thread = [p for p in traced if p["index"] < len(scaling)]
    return {
        "graph.build_s": med(timed(traced), "graph_build_s"),
        "graph.csr_bytes": med(fixed, "csr_bytes"),
        "bloom.build_s": bloom["build_s"],
        "bloom.store_bytes": bloom["store_bytes"],
        "sharded.init_s": med(timed(traced), "init_s"),
        "sharded.events": med(fixed, "events"),
        "sharded.windows": med(fixed, "windows"),
        "sharded.pushes": med(fixed, "pushes"),
        "sharded.deliveries": med(fixed, "deliveries"),
        "sharded.ns_per_event": pbstats.median(
            [p["latency_s"] / p["events"] * 1e9 for p in timed(traced)]),
        "sharded.events_per_window": pbstats.median(
            [p["events"] / p["windows"] for p in fixed]),
        "sharded.scaling_eff": med(one_thread, "latency_s") / (2.0 * med(scaling, "latency_s")),
        "sharded.unmatched_frac": pbstats.median(
            [p["triplets_unmatched"] / p["triplets_sent"] for p in fixed]),
        "sharded.state_bytes": med(fixed, "state_bytes"),
        "sharded.mass_gap": max(p["mass_gap"] for p in traced),
        "sharded.err": med(fixed, "err"),
    }


LAYERS = {"paper": paper_layers, "sharded": sharded_layers}
SUBCOMMAND = {"paper": "paper", "sharded_t1": "sharded"}


class Outcome:
    """Checks and metrics accumulated over one benchmark run."""

    def __init__(self):
        self.attempted, self.failed, self.why = 0, 0, []
        self.e2e, self.layers = {}, {}
        self.samples = 0  # timed problems behind each end-to-end median

    def check(self, ok, why):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.why.append(why)


def solve_problems(out, exe, args, sub, trace_dir, side=False):
    """Runs `perfbench_cpp <sub>` and records its output checks in `out`.
    The main pass runs for --seconds with the run's --trace and is sampled
    for RSS; a side pass solves SIDE_PROBLEMS problems traced. Returns
    (output lines, RSS figure in MiB)."""
    argv = [exe, sub, "--seed", str(args.seed)]
    if side:
        argv += ["--seconds", "0", "--trace", "1", "--problems", str(SIDE_PROBLEMS)]
    else:
        argv += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        name = f"{args.workload}-{args.seed}" + (f".{sub}-side" if side else "")
        argv += ["--spans", os.path.join(trace_dir, name + ".spans.json")]
    rc, lines, rss = run_child(argv, sample_rss=not side)
    if rc != 0 or not lines:
        raise BenchError(f"perfbench_cpp {sub} exited {rc}")
    for l in lines:
        if "ok" in l:
            out.check(l["ok"], f"{sub} problem {l['index']}: {l['why'].strip()}")
    return lines, rss


def problems_of(lines, pass_):
    return [l for l in lines if l["kind"] == "problem" and l["pass"] == pass_]


def problem_workload(out, exe, args, sub, trace_dir):
    lines, rss = solve_problems(out, exe, args, sub, trace_dir)
    untraced = problems_of(lines, 0)
    out.e2e, n = pass_metrics(untraced)
    out.e2e["peak_rss_mb"] = rss
    out.samples = n
    if args.trace:
        traced = problems_of(lines, 1)
        t_e2e, t_n = pass_metrics(traced)
        # Each traced solve ran right after its untraced twin on the same input.
        twin = {p["index"]: p["latency_s"] for p in timed(untraced)}
        out.layers.update(LAYERS[sub](traced, lines))
        out.layers.update({
            "latency_samples": t_n,
            "trace.latency_p50_ms": t_e2e["latency_p50_ms"],
            "trace.fresh_p50_ms": t_e2e["fresh_p50_ms"],
            "trace.overhead_frac": pbstats.median(
                [p["latency_s"] / twin[p["index"]] for p in timed(traced)]) - 1.0,
        })


def side_pass(out, exe, args, sub, trace_dir):
    """The layers of the other problem workload, from SIDE_PROBLEMS traced
    solves, so that a traced run reports every layer as measured."""
    lines, _ = solve_problems(out, exe, args, sub, trace_dir, side=True)
    out.layers.update(LAYERS[sub](problems_of(lines, 1), lines))


# --- serve session (traced runs) ---------------------------------------------------

def serve_load(exe, daemon, args, records):
    """One open-loop load window against `daemon`; returns the client line,
    the record columns and the daemon's RssSampler figure."""
    sampler = RssSampler(daemon.proc.pid)
    seconds = min(args.seconds, SERVE_SECONDS)
    rc, lines, _ = run_child([exe, "serve-client", "--port", str(daemon.port),
                              "--seed", str(args.seed), "--seconds", str(seconds),
                              "--records", records])
    rss = sampler.stop()
    client = [l for l in lines if l["kind"] == "client"]
    if not client or not os.path.isfile(records):
        raise BenchError(f"serve-client exited {rc} without a result")
    cols = pbstats.read_records(records)
    os.unlink(records)
    return client[0], cols, rss


def serve_numbers(out, client, cols):
    """Latency, freshness and failure accounting of one load window."""
    op, _, due, sent, recv, value = cols

    def rows(kind):
        return [i for i, o in enumerate(op) if o == kind]

    batches, ingests = rows(pbstats.OP_BATCH), rows(pbstats.OP_INGEST)
    health = [(recv[i], value[i]) for i in rows(pbstats.OP_HEALTH) if value[i] >= 0]
    lookup_ns, late_ns = pbstats.open_loop_latencies(
        [(due[i], sent[i], recv[i]) for i in batches if value[i] == 0])
    late_ns += [sent[i] - due[i] for i in ingests]
    acked = [(due[i], value[i]) for i in ingests if value[i] >= 0]
    fresh_ns, invisible = pbstats.freshness(acked, health)
    # Every request of every opcode is an operation; value < 0 marks a reply
    # that failed a check or never came.
    bad = sum(1 for v in value if v < 0) + invisible
    out.attempted += len(op)
    out.failed += bad
    if bad:
        out.why.append(f"serve: {bad} failed requests ({invisible} ingests never "
                       f"visible, {client['misses']} lookup misses)")
    out.check(not client["why"], f"serve: {client['why'].strip()}")
    if not lookup_ns or not fresh_ns:
        raise BenchError("serve load produced no answered lookups or visible ingests")
    return lookup_ns, fresh_ns, late_ns


def loopback_tcp():
    """Whether a TCP connection to 127.0.0.1 can be made. A sandbox whose
    network namespace keeps its loopback interface down lets repserved bind
    and print its "listening" line, but refuses every connection to it."""
    with socket.socket() as server, socket.socket() as client:
        try:
            server.bind(("127.0.0.1", 0))
            server.listen(1)
            client.settimeout(5)
            client.connect(server.getsockname())
            return True
        except OSError:
            return False


# Serve metrics that only the load window over TCP can measure.
LOAD_METRICS = ("serve.peak_rss_mb", "serve.lookup_samples", "serve.lookup_p50_us",
                "serve.lookup_p99_us", "serve.fresh_samples", "serve.fresh_p50_ms",
                "serve.fresh_p99_ms", "serve.server_batch_p99_us", "serve.refolds",
                "serve.fold_s", "serve.bp_pauses", "serve.limbo_max", "gen.late_p99_us")


def load_window(out, exe, daemon, args, records):
    """Drives `daemon` for one load window; returns the LOAD_METRICS."""
    client, cols, rss = serve_load(exe, daemon, args, records)
    lookup_ns, fresh_ns, late_ns = serve_numbers(out, client, cols)
    return {
        "serve.peak_rss_mb": rss,
        "serve.lookup_samples": len(lookup_ns),
        "serve.lookup_p50_us": pbstats.median(lookup_ns) / 1e3,
        "serve.lookup_p99_us": pbstats.tail(lookup_ns, cap=99.0)[1] / 1e3,
        "serve.fresh_samples": len(fresh_ns),
        "serve.fresh_p50_ms": pbstats.median(fresh_ns) / 1e6,
        "serve.fresh_p99_ms": pbstats.tail(fresh_ns, cap=99.0)[1] / 1e6,
        "serve.server_batch_p99_us": client["server_batch_p99_us"],
        "serve.refolds": client["refolds"],
        "serve.fold_s": client["fold_s"],
        "serve.bp_pauses": client["bp_pauses"],
        "serve.limbo_max": client["limbo_max"],
        "gen.late_p99_us": pbstats.tail(late_ns, cap=99.0)[1] / 1e3,
    }


def serve_session(out, exe_dir, args, trace_dir):
    """Starts repserved SETUP_REPEATS times (timing each start-up), drives
    the last one with the open-loop client, then times the serve layer
    in-process. Adds the serve.* per-layer metrics to `out`. Without TCP
    over loopback the load window is skipped, said so on stderr, and its
    metrics read 0."""
    exe = os.path.join(exe_dir, "perfbench_cpp")
    records = os.path.join(trace_dir, f"serve-{args.seed}-{os.getpid()}.rec")
    setups, daemon = [], None
    load = dict.fromkeys(LOAD_METRICS, 0)
    try:
        for _ in range(SETUP_REPEATS):
            if daemon:
                daemon.stop()
            daemon = Daemon(os.path.join(exe_dir, "repserved"), args.seed, args.seconds)
            setups.append(daemon.setup_s)
        if loopback_tcp():
            load = load_window(out, exe, daemon, args, records)
        else:
            print("perfbench: no TCP connection to 127.0.0.1 can be made here; the "
                  "repserved load window is skipped and its metrics read 0", file=sys.stderr)
    finally:
        if daemon:
            daemon.stop()
        if os.path.exists(records):
            os.unlink(records)
    rc, lines, _ = run_child([exe, "serve-probe", "--seed", str(args.seed)])
    probe = [l for l in lines if l["kind"] == "serve_probe"]
    if rc != 0 or not probe:
        raise BenchError(f"serve-probe exited {rc}")
    probe = probe[0]
    out.check(probe["ok"], "serve probe: in-process replies were wrong")
    out.layers.update(load)
    out.layers.update({
        "serve.setup_s": pbstats.median(setups),
        "core.fold_s": probe["fold_s"],
        "serve.publish_us": probe["publish_us"],
        "serve.lookup_ns": probe["lookup_ns"],
        "serve.frame_us": probe["frame_us"],
        "serve.drain_us": probe["drain_us"],
    })


def run_workload(args, exe_dir, trace_dir):
    exe = os.path.join(exe_dir, "perfbench_cpp")
    out = Outcome()
    sub = SUBCOMMAND[args.workload]
    problem_workload(out, exe, args, sub, trace_dir)
    if args.trace:
        side_pass(out, exe, args, "sharded" if sub == "paper" else "paper", trace_dir)
        serve_session(out, exe_dir, args, trace_dir)
    return out


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        exe_dir = build()
        trace_dir = os.path.join(exe_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        rc, info, _ = run_child([os.path.join(exe_dir, "perfbench_cpp"), "info"])
        if rc != 0 or not info:
            raise BenchError("perfbench_cpp info failed")
        fp = fingerprint.collect(ROOT, info[0])
        out = run_workload(args, exe_dir, trace_dir)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    if args.trace:
        out.layers["fail_frac"] = out.failed / out.attempted
        values = {name: out.layers.get(name, 0) for name, _ in PER_LAYER}
        names = PER_LAYER
    else:
        values, names = out.e2e, END_TO_END
    for name, unit in END_TO_END:
        samples = (f" (median of {out.samples} problems)"
                   if name.endswith("_ms") or name == "setup_s" else "")
        print(f"{args.workload} {name:>20} = {out.e2e[name]:.6g} {unit}{samples}")
    for line in out.why:
        print(f"check failed: {line}")
    print("fingerprint " + json.dumps(fp, sort_keys=True))
    result = {"correct": out.failed == 0, "attempted": out.attempted, "failed": out.failed,
              "metrics": {name: {"value": values[name], "unit": unit} for name, unit in names}}
    if args.out:
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "fingerprint": fp, "samples": out.samples,
                  "end_to_end": out.e2e, "result": result}
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0 if out.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
