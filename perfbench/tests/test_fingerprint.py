"""The compare step refuses results whose fingerprints differ."""
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import compare  # noqa: E402
import fingerprint  # noqa: E402

FP = {"cpu_model": "Xeon", "nproc": 4, "isa": ["avx2"], "compiler": "gcc 12.2.0",
      "build_type": "Release", "simd": "avx2", "threads": [1, 2], "gt_env": {},
      "commit": "aaaa"}
BENCH = {"end_to_end": [{"name": "latency_p50_ms", "unit": "ms", "better": "lower",
                         "bound": 0.1}]}


def record(value, **fp):
    return {"workload": "paper", "fingerprint": dict(FP, **fp),
            "end_to_end": {"latency_p50_ms": value}}


class FingerprintTest(unittest.TestCase):
    def test_different_host_is_refused_with_the_field_named(self):
        with self.assertRaises(fingerprint.FingerprintMismatch) as ctx:
            compare.compare([record(1.0)], [record(1.0, nproc=8)], BENCH)
        self.assertIn("nproc: 4 vs 8", str(ctx.exception))

    def test_gt_env_variable_makes_results_incomparable(self):
        with self.assertRaises(fingerprint.FingerprintMismatch):
            compare.compare([record(1.0)], [record(1.0, gt_env={"GT_SIMD": "off"})], BENCH)

    def test_commit_alone_may_differ(self):
        lines, regressed = compare.compare([record(1.0)], [record(1.05, commit="bbbb")], BENCH)
        self.assertEqual(regressed, [])
        self.assertIn("ok", lines[0])

    def test_regression_beyond_the_bound_is_flagged(self):
        _, regressed = compare.compare([record(1.0)], [record(1.2)], BENCH)
        self.assertEqual(regressed, ["paper/latency_p50_ms"])

    def test_command_line_exits_2_on_mismatch(self):
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for i, rec in enumerate([record(1.0), record(1.0, simd="scalar")]):
                paths.append(os.path.join(tmp, f"r{i}.json"))
                with open(paths[-1], "w") as f:
                    json.dump(rec, f)
            bench = os.path.join(tmp, "BENCHMARK.json")
            with open(bench, "w") as f:
                json.dump(BENCH, f)
            code = compare.main(["--base", paths[0], "--new", paths[1], "--benchmark", bench])
        self.assertEqual(code, 2)


if __name__ == "__main__":
    unittest.main()
