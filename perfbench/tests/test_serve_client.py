"""The serve checks fail a run on a bad daemon reply: perfbench_cpp
serve-client runs against fake_repserved (tests/fake_repserved.cpp), which
answers every request well-formed except, on request, a HEALTH reply whose
published_epoch goes backwards. The steady mode is the control: the same
client and accounting pass it."""
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, HERE)

import pbstats  # noqa: E402
import run  # noqa: E402


class ServeClientTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        out = run.build()
        subprocess.run(["cmake", "--build", out, "--target", "fake_repserved"],
                       stdout=subprocess.DEVNULL, check=True)
        cls.exe = os.path.join(out, "perfbench_cpp")
        cls.fake = os.path.join(out, "fake_repserved")

    def drive(self, health):
        """One 1 s load window against the fake; returns (client exit code,
        Outcome after run.serve_numbers)."""
        fake = subprocess.Popen([self.fake, "--health", health], stdout=subprocess.PIPE,
                                text=True)
        try:
            line = fake.stdout.readline()
            port = line.rsplit(":", 1)[1].strip()
            with tempfile.TemporaryDirectory() as tmp:
                records = os.path.join(tmp, "serve.rec")
                rc, lines, _ = run.run_child([self.exe, "serve-client", "--port", port,
                                              "--seed", "1", "--seconds", "1",
                                              "--records", records])
                cols = pbstats.read_records(records)
        finally:
            fake.wait(timeout=60)
            fake.stdout.close()
        client = [l for l in lines if l["kind"] == "client"][0]
        out = run.Outcome()
        run.serve_numbers(out, client, cols)
        return rc, client, out

    def test_steady_daemon_passes(self):
        rc, client, out = self.drive("steady")
        self.assertEqual(rc, 0, client["why"])
        self.assertEqual(out.failed, 0, out.why)
        self.assertGreater(out.attempted, 20000)

    def test_regressing_health_epoch_fails_the_run(self):
        rc, client, out = self.drive("regress")
        self.assertEqual(rc, 1)
        self.assertIn("HEALTH published_epoch went backwards 1 times", client["why"])
        self.assertGreaterEqual(out.failed, 2)  # the reply itself and the run check
        self.assertTrue(any("published_epoch went backwards" in w for w in out.why))


if __name__ == "__main__":
    unittest.main()
