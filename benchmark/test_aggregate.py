"""Tests for the benchmark's own aggregation (benchmark/aggregate.py).

    python3 -m unittest discover -s benchmark -p 'test_*.py'
"""

import math
import os
import random
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from aggregate import (OpCounts, median_rate, percentile,  # noqa: E402
                       span_self_times, tail_count, window_percentile)


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        xs = list(range(1, 101))  # 1..100
        self.assertEqual(percentile(xs, 0.50), 50)
        self.assertEqual(percentile(xs, 0.99), 99)
        self.assertEqual(percentile(xs, 1.0), 100)
        self.assertEqual(percentile([7], 0.99), 7)

    def test_order_does_not_matter(self):
        xs = list(range(1000))
        shuffled = xs[:]
        random.Random(3).shuffle(shuffled)
        self.assertEqual(percentile(xs, 0.99), percentile(shuffled, 0.99))

    def test_ten_samples_beyond_p99_need_a_thousand(self):
        # The serve workloads insist on >= 10 samples beyond the p99.
        self.assertEqual(tail_count([float(i) for i in range(1000)], 0.99), 10)
        self.assertEqual(tail_count([float(i) for i in range(999)], 0.99), 9)
        self.assertGreaterEqual(tail_count(list(range(2500)), 0.99), 10)

    def test_ties_are_not_beyond(self):
        xs = [1.0] * 985 + [5.0] * 15
        self.assertEqual(percentile(xs, 0.99), 5.0)
        self.assertEqual(tail_count(xs, 0.99), 0)
        xs = [1.0] * 995 + [5.0] * 5
        self.assertEqual(percentile(xs, 0.99), 1.0)
        self.assertEqual(tail_count(xs, 0.99), 5)

    def test_failures_count_as_missing_every_limit(self):
        # run.py books a failed request at a latency above any limit.
        xs = [1.0] * 980 + [math.inf] * 20
        self.assertEqual(percentile(xs, 0.99), math.inf)
        self.assertEqual(percentile(xs, 0.50), 1.0)

    def test_rejects_empty_and_bad_quantiles(self):
        with self.assertRaises(ValueError):
            percentile([], 0.5)
        with self.assertRaises(ValueError):
            percentile([1], 0)


class MedianRateTest(unittest.TestCase):
    def test_one_slow_window_does_not_move_the_rate(self):
        done = [w + i / 100 for w in range(10) for i in range(100)]
        done = [t for t in done if not 3 <= t < 4 or t < 3.2]  # stall
        self.assertEqual(median_rate(done, 10.0), 100)
        self.assertLess(len(done) / 10.0, 100)

    def test_partial_last_window_is_ignored(self):
        done = [w + i / 50 for w in range(3) for i in range(50)] + [3.1] * 7
        self.assertEqual(median_rate(done, 3.5), 50)

    def test_short_runs_use_the_overall_rate(self):
        self.assertEqual(median_rate([0.1, 0.2, 0.3], 1.5), 2.0)


class WindowPercentileTest(unittest.TestCase):
    def test_median_of_the_window_medians(self):
        # Windows 0..4 hold 1..99 ms plus w; their nearest-rank p50s are
        # 50 + w, and the median of those is the middle window's.
        done, lat = [], []
        for w in range(5):
            for i in range(1, 100):
                done.append(w + i / 100)
                lat.append(i + w)
        self.assertEqual(window_percentile(done, lat, 5.0, 0.5), 52)

    def test_a_slow_stretch_moves_only_its_windows(self):
        done = [w + i / 10 for w in range(10) for i in range(10)]
        lat = [30.0 if 6 <= t < 9 else 10.0 for t in done]
        self.assertEqual(window_percentile(done, lat, 10.0, 0.5), 10.0)
        self.assertEqual(percentile(lat, 0.5), 10.0)
        lat = [30.0 if t >= 4 else 10.0 for t in done]
        self.assertEqual(window_percentile(done, lat, 10.0, 0.5), 30.0)

    def test_empty_and_partial_windows_are_ignored(self):
        done = [0.5, 0.6, 2.5, 2.6, 3.2]
        lat = [1.0, 3.0, 5.0, 7.0, 100.0]
        # Window 1 is empty; 3.2 lies past the whole windows of 3.1 s.
        self.assertEqual(window_percentile(done, lat, 3.1, 0.5), 3.0)

    def test_a_run_shorter_than_a_window_has_one(self):
        self.assertEqual(window_percentile([0.1, 0.2, 0.9], [3, 1, 2],
                                           0.5, 0.5), 2)


def span(name, ts, dur, tid=0):
    return {"name": name, "ph": "X", "ts": ts, "dur": dur, "pid": 1,
            "tid": tid}


class SpanSelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted(self):
        events = [span("compress", 0, 100), span("compress.prewarm", 10, 30),
                  span("compress.score", 50, 40),
                  span("compress.score.candidate", 55, 10),
                  span("compress.score.candidate", 70, 15)]
        self_us = span_self_times(events)
        self.assertEqual(self_us["compress"], 30)
        self.assertEqual(self_us["compress.prewarm"], 30)
        self.assertEqual(self_us["compress.score"], 15)
        self.assertEqual(self_us["compress.score.candidate"], 25)
        self.assertEqual(sum(self_us.values()), 100)

    def test_other_threads_are_not_children(self):
        events = [span("compress", 0, 100, tid=0),
                  span("compress.closure.shard", 10, 50, tid=1)]
        self_us = span_self_times(events)
        self.assertEqual(self_us["compress"], 100)
        self.assertEqual(self_us["compress.closure.shard"], 50)

    def test_siblings_and_equal_starts(self):
        # A child that starts with its parent is still nested in it, and a
        # span starting exactly where another ends is its sibling.
        events = [span("b", 0, 10), span("a", 0, 40), span("c", 40, 5)]
        self_us = span_self_times(events)
        self.assertEqual(self_us, {"a": 30, "b": 10, "c": 5})

    def test_ignores_non_complete_events(self):
        events = [{"name": "m", "ph": "M", "ts": 0}, span("x", 0, 7)]
        self.assertEqual(span_self_times(events), {"x": 7})


class OpCountsTest(unittest.TestCase):
    def test_fail_share_base_is_every_kind(self):
        ops = OpCounts()
        ops.add("solve", True, 90)
        ops.add("solve", False, 5)
        ops.add("connect", True, 4)
        ops.add("connect", False, 1)
        self.assertEqual(ops.attempted(), 100)
        self.assertEqual(ops.failed(), 6)
        self.assertAlmostEqual(ops.fail_share(), 0.06)
        self.assertEqual(ops.as_dict()["solve"],
                         {"attempted": 95, "succeeded": 90, "failed": 5})

    def test_no_operations_is_no_failure(self):
        self.assertEqual(OpCounts().fail_share(), 0.0)


if __name__ == "__main__":
    unittest.main()
