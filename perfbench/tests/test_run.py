"""Tests for the repeat-mode summary in perfbench/run.py."""

import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import run  # noqa: E402  (perfbench/run.py)


class SummarizeTest(unittest.TestCase):
    def test_median_and_quartiles_match_statistics_quantiles(self):
        values = [float(v) for v in range(1, 11)]
        s = run.summarize(values)
        self.assertEqual(s["median"], 5.5)
        self.assertAlmostEqual(s["q1"], 2.75)
        self.assertAlmostEqual(s["q3"], 8.25)
        self.assertAlmostEqual(s["spread"], 1.0)
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertEqual((s["q1"], s["q3"]), (q1, q3))

    def test_identical_values_have_no_spread(self):
        s = run.summarize([2.0] * 10)
        self.assertEqual(s["median"], 2.0)
        self.assertEqual(s["spread"], 0.0)

    def test_order_does_not_matter(self):
        values = [3.0, 9.0, 1.0, 4.0, 7.0, 2.0, 8.0, 6.0, 5.0, 10.0]
        self.assertEqual(run.summarize(values),
                         run.summarize(sorted(values)))

    def test_zero_median_has_infinite_spread(self):
        self.assertEqual(run.summarize([0.0, 0.0, 0.0])["spread"],
                         float("inf"))


if __name__ == "__main__":
    unittest.main()
