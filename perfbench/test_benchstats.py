"""Unit tests for the benchmark's own arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import benchstats as bs  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_interpolates_between_ranks(self):
        v = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        self.assertAlmostEqual(bs.percentile(v, 50), 5.5)
        self.assertAlmostEqual(bs.percentile(v, 0), 1)
        self.assertAlmostEqual(bs.percentile(v, 100), 10)
        self.assertAlmostEqual(bs.percentile(v, 95), 9.55)

    def test_order_does_not_matter(self):
        self.assertEqual(bs.percentile([5, 1, 3], 50),
                         bs.percentile([1, 3, 5], 50))

    def test_single_and_empty(self):
        self.assertEqual(bs.percentile([7], 95), 7)
        with self.assertRaises(ValueError):
            bs.percentile([], 50)


class TailRuleTest(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        self.assertIsNone(bs.tail_percentile(19))
        self.assertEqual(bs.tail_percentile(20), 50)
        self.assertEqual(bs.tail_percentile(100), 90)
        self.assertEqual(bs.tail_percentile(199), 90)
        self.assertEqual(bs.tail_percentile(200), 95)
        self.assertEqual(bs.tail_percentile(999), 95)
        self.assertEqual(bs.tail_percentile(1000), 99)
        self.assertEqual(bs.tail_percentile(10000), 99.9)

    def test_p95_needs_two_hundred_samples(self):
        self.assertFalse(bs.supports(199, 95))
        self.assertTrue(bs.supports(200, 95))
        self.assertTrue(bs.supports(5000, 95))


class SelfTimeTest(unittest.TestCase):
    def test_subtracts_children(self):
        self.assertEqual(bs.self_time(100, [10, 20, 30]), 40)

    def test_never_negative(self):
        self.assertEqual(bs.self_time(100, [60, 50]), 0)
        self.assertEqual(bs.self_time(0, [1]), 0)

    def test_absent_children_ignored(self):
        # -1 marks a span that did not happen (no prediction yet).
        self.assertEqual(bs.self_time(100, [-1, 25]), 75)


class DueLatencyTest(unittest.TestCase):
    def test_measured_from_due_not_send(self):
        # Due at 10, sent late at 15, answered at 40: the request waited 30.
        self.assertEqual(bs.due_latency(10, 40), 30)

    def test_missing_response(self):
        self.assertIsNone(bs.due_latency(10, -1))
        self.assertIsNone(bs.due_latency(10, None))
        self.assertEqual(bs.latencies_from_due([(0, 5), (10, -1)], 999),
                         [5, 999])

    def test_stall_charges_queued_requests(self):
        # Requests due every 10 units; a stall holds all replies until 100.
        rows = [(0, 100), (10, 100), (20, 100)]
        self.assertEqual(bs.latencies_from_due(rows, None), [100, 90, 80])


class DigestTest(unittest.TestCase):
    def test_stable_and_sensitive(self):
        d = bs.digest(1234, 1, "0.75")
        self.assertEqual(d, bs.digest(1234, True, "0.75"))
        self.assertEqual(len(d), bs.DIGEST_WIDTH)
        self.assertNotEqual(d, bs.digest(1235, 1, "0.75"))
        self.assertNotEqual(d, bs.digest(1234, 0, "0.75"))
        self.assertNotEqual(d, bs.digest(1234, 1, "0.75000000000000011"))

    def test_compare(self):
        golden = {0: [bs.digest(1, 0, "0"), bs.digest(2, 0, "0")]}
        ok = {0: [(0, bs.digest(1, 0, "0")), (1, bs.digest(2, 0, "0"))]}
        self.assertEqual(bs.compare_digests(ok, golden), 0)
        wrong = {0: [(0, bs.digest(1, 0, "0")), (1, bs.digest(3, 0, "0"))]}
        self.assertEqual(bs.compare_digests(wrong, golden), 1)

    def test_uncovered_positions_fail(self):
        golden = {0: [bs.digest(1, 0, "0")]}
        self.assertEqual(bs.compare_digests({0: [(1, "00000000")]}, golden), 1)
        self.assertEqual(bs.compare_digests({5: [(0, "00000000")]}, golden), 1)

    def test_split(self):
        packed = bs.digest(1, 0, "0") + bs.digest(2, 0, "0")
        self.assertEqual(bs.split_digests(packed),
                         [bs.digest(1, 0, "0"), bs.digest(2, 0, "0")])


class HelpersTest(unittest.TestCase):
    def test_lane_median_geomean(self):
        self.assertAlmostEqual(bs.geomean([1, 100]), 10)
        # One lane: its plain median.
        self.assertAlmostEqual(bs.lane_median_geomean({0: [3, 1, 2]}), 2)
        # Lanes far apart: a pooled median would sit on one lane's values.
        self.assertAlmostEqual(
            bs.lane_median_geomean({0: [1, 1, 1], 1: [100, 100]}), 10)

    def test_last_tenth(self):
        self.assertEqual(bs.last_tenth(list(range(100))), list(range(90, 100)))
        self.assertEqual(bs.last_tenth([1, 2, 3]), [3])


if __name__ == "__main__":
    unittest.main()
