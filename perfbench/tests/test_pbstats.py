"""Accounting rules behind every reported number.

    python3 -m unittest discover perfbench/tests
"""
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import pbstats  # noqa: E402

MS = 1_000_000  # nanoseconds


class TailTest(unittest.TestCase):
    def test_highest_rung_with_ten_samples_beyond(self):
        pct, value, count = pbstats.tail(list(range(1, 1001)))
        self.assertEqual((pct, value, count), (99.0, 990, 1000))
        self.assertEqual(pbstats.beyond(1000, 99.0), 10)
        self.assertEqual(pbstats.beyond(1000, 99.9), 1)

    def test_one_sample_short_drops_a_rung(self):
        pct, _, count = pbstats.tail(list(range(999)))
        self.assertEqual((pct, count), (90.0, 999))

    def test_cap_limits_the_rung(self):
        values = list(range(100_000))
        self.assertEqual(pbstats.tail(values)[0], 99.99)
        self.assertEqual(pbstats.tail(values, cap=99.0)[0], 99.0)

    def test_too_few_samples_report_only_the_count(self):
        self.assertEqual(pbstats.tail(list(range(19))), (None, None, 19))
        self.assertEqual(pbstats.tail(list(range(20)))[0], 50.0)


class InterquartileMeanTest(unittest.TestCase):
    def test_drops_a_quarter_at_each_end(self):
        self.assertEqual(pbstats.interquartile_mean([1000, 1, 2, 3, 4, 5, 6, -1000]), 3.5)

    def test_fewer_than_four_samples_are_all_kept(self):
        self.assertEqual(pbstats.interquartile_mean([1, 2, 6]), 3.0)
        with self.assertRaises(ValueError):
            pbstats.interquartile_mean([])


class OpenLoopTest(unittest.TestCase):
    def test_stalled_reply_charges_the_requests_queued_behind_it(self):
        # Requests due every 1 ms, each answered 50 us after it is due,
        # except that the reply to request 0 stalls until 10.05 ms: the
        # FIFO connection delivers requests 1..9 right behind it.
        due = [i * MS for i in range(20)]
        stall_end = 10 * MS + 50_000
        recv = [max(d + 50_000, stall_end) if i < 10 else d + 50_000
                for i, d in enumerate(due)]
        latencies, lateness = pbstats.open_loop_latencies(zip(due, due, recv))
        self.assertEqual(latencies[0], stall_end)
        self.assertEqual(latencies[9], stall_end - 9 * MS)
        self.assertEqual(latencies[10:], [50_000] * 10)
        self.assertEqual(lateness, [0] * 20)
        # Half the requests waited on the stall, so the median shows it.
        self.assertGreater(pbstats.median(latencies), 50_000)

    def test_late_generator_is_charged_from_the_due_time(self):
        latencies, lateness = pbstats.open_loop_latencies([(0, 5 * MS, 5 * MS + 50_000)])
        self.assertEqual(latencies, [5 * MS + 50_000])
        self.assertEqual(lateness, [5 * MS])

    def test_unanswered_requests_have_no_latency(self):
        latencies, lateness = pbstats.open_loop_latencies([(0, 0, 0), (MS, MS, MS + 1)])
        self.assertEqual(latencies, [1])
        self.assertEqual(len(lateness), 2)


class FreshnessTest(unittest.TestCase):
    def test_first_health_reply_covering_the_ack(self):
        ingests = [(0, 1), (1, 2), (2, 3)]
        health = [(10, 0), (20, 2), (30, 2), (40, 3)]
        self.assertEqual(pbstats.freshness(ingests, health), ([20, 19, 38], 0))

    def test_never_visible_ingest_is_counted(self):
        fresh, invisible = pbstats.freshness([(0, 1), (5, 3)], [(10, 2)])
        self.assertEqual((fresh, invisible), ([10], 1))


class RssFigureTest(unittest.TestCase):
    def test_one_spike_does_not_decide_the_figure(self):
        samples = [(t / 10, 100) for t in range(35)]
        samples[12] = (1.2, 900)  # one momentary spike in second 1
        self.assertEqual(pbstats.rss_figure(samples), 100)

    def test_lasting_rise_moves_the_figure(self):
        samples = [(t / 10, 100 if t < 10 else 200) for t in range(35)]
        self.assertEqual(pbstats.rss_figure(samples), 200)

    def test_short_run_reports_its_peak(self):
        self.assertEqual(pbstats.rss_figure([(0.0, 5), (0.5, 7)]), 7)


if __name__ == "__main__":
    unittest.main()
