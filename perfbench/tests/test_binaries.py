"""Behaviour that needs the built binaries: same-seed, traced-vs-untraced
and one-vs-two-thread determinism of the count metrics, and strict
argument handling. The first run builds the
benchmark (run.build), which takes a few minutes on a cold tree."""
import functools
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, HERE)

import run  # noqa: E402

PAPER_COUNTS = ("rounds", "wire_bytes_per_node", "triplets", "cycles", "nnz", "agg_err")
SHARDED_COUNTS = ("rounds", "wire_bytes_per_node", "events", "windows", "pushes",
                  "deliveries", "err")


@functools.lru_cache(maxsize=None)
def traced_run(exe, sub, seed):
    """Lines of a `--trace 1 --seconds 0` run: the minimum problem count,
    each solved untraced (pass 0) and traced (pass 1)."""
    out = subprocess.run([exe, sub, "--seed", str(seed), "--seconds", "0", "--trace", "1"],
                         capture_output=True, text=True, check=True)
    return [json.loads(l) for l in out.stdout.splitlines()]


def rows(lines, kind="problem", pass_=None):
    return {l["index"]: l for l in lines
            if l["kind"] == kind and (pass_ is None or l["pass"] == pass_)}


class BinaryTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.exe = os.path.join(run.build(), "perfbench_cpp")

    def assert_same_counts(self, a, b, keys):
        self.assertTrue(a)
        self.assertEqual(sorted(a), sorted(b))
        for i in a:
            for key in keys:
                self.assertEqual(a[i][key], b[i][key], f"problem {i} {key}")

    def test_paper_counts_repeat_for_a_seed_and_under_tracing(self):
        a = traced_run(self.exe, "paper", 7)
        b = traced_run.__wrapped__(self.exe, "paper", 7)
        self.assert_same_counts(rows(a, pass_=0), rows(b, pass_=0), PAPER_COUNTS)
        self.assert_same_counts(rows(a, pass_=0), rows(a, pass_=1), PAPER_COUNTS)
        self.assertTrue(all(p["ok"] and p["counted"] for p in rows(a).values()))

    def test_sharded_counts_repeat_for_a_seed_under_tracing_and_across_threads(self):
        a = traced_run(self.exe, "sharded", 7)
        b = traced_run.__wrapped__(self.exe, "sharded", 7)
        self.assert_same_counts(rows(a, pass_=0), rows(b, pass_=0), SHARDED_COUNTS)
        self.assert_same_counts(rows(a, pass_=0), rows(a, pass_=1), SHARDED_COUNTS)
        # The scaling pass re-solves problems 0..2 on two threads.
        scaling = rows(a, kind="scaling")
        traced = {i: p for i, p in rows(a, pass_=1).items() if i in scaling}
        self.assertEqual(sorted(scaling), [0, 1, 2])
        self.assert_same_counts(traced, scaling, SHARDED_COUNTS)
        self.assertTrue(all(p["ok"] for p in rows(a).values()))

    def test_seed_changes_the_inputs(self):
        a = rows(traced_run(self.exe, "paper", 7), pass_=0)
        b = rows(traced_run(self.exe, "paper", 8), pass_=0)
        self.assertNotEqual([p["triplets"] for p in a.values()],
                            [p["triplets"] for p in b.values()])

    def test_problems_flag_sets_the_problem_count(self):
        out = subprocess.run([self.exe, "paper", "--seed", "7", "--seconds", "0", "--trace", "1",
                              "--problems", "2"], capture_output=True, text=True, check=True)
        lines = [json.loads(l) for l in out.stdout.splitlines()]
        self.assertEqual(sorted((l["index"], l["pass"]) for l in lines),
                         [(0, 0), (0, 1), (1, 0), (1, 1)])
        self.assertTrue(all(l["counted"] and l["ok"] for l in lines))

    def test_binary_rejects_bad_arguments(self):
        for bad in (["paper", "--seed", "x1", "--seconds", "0", "--trace", "0"],
                    ["paper", "--seed", "1", "--seconds", "0", "--trace", "2"],
                    ["paper", "--seed", "1", "--quick", "1"],
                    ["sharded", "--seed", "1", "--seconds", "0", "--trace", "0",
                     "--threads", "2"],
                    ["paper", "--seed", "1", "--seconds", "0", "--trace", "0",
                     "--problems", "0"]):
            out = subprocess.run([self.exe, *bad], capture_output=True, text=True)
            self.assertEqual(out.returncode, 2, bad)
            self.assertTrue(out.stderr.startswith("perfbench_cpp:"), out.stderr)
            self.assertEqual(out.stdout, "")

    def test_run_py_rejects_bad_arguments(self):
        for bad in (["--workload", "papr", "--seed", "1", "--seconds", "1", "--trace", "0"],
                    ["--workload", "paper", "--seed", "-1", "--seconds", "1", "--trace", "0"],
                    ["--workload", "paper", "--seed", "1", "--seconds", "1.5", "--trace", "0"],
                    ["--workload", "paper", "--seed", "1", "--seconds", "1", "--trace", "yes"],
                    ["--workload", "paper", "--seed", "1", "--seconds", "1", "--trace", "0",
                     "--quick"],
                    ["--work", "paper", "--seed", "1", "--seconds", "1", "--trace", "0"]):
            out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *bad],
                                 capture_output=True, text=True)
            self.assertEqual(out.returncode, 2, bad)
            self.assertEqual(out.stdout, "")


class BenchmarkJsonTest(unittest.TestCase):
    def test_names_and_units_match_run_py(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
            bench = json.load(f)
        self.assertEqual([(m["name"], m["unit"]) for m in bench["end_to_end"]], run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in bench["per_layer"]], run.PER_LAYER)
        self.assertEqual([w["name"] for w in bench["workloads"]], run.WORKLOADS)


if __name__ == "__main__":
    unittest.main()
