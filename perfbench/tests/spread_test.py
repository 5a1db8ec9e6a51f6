#!/usr/bin/env python3
"""Tests of the spread rule in spread.py: the interquartile range over the
median, with the quartiles of statistics.quantiles(values, n=4).

    python3 perfbench/tests/spread_test.py
"""
import math
import os
import sys
import unittest

sys.dont_write_bytecode = True  # importing spread leaves no cache
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import spread  # noqa: E402


class SpreadTest(unittest.TestCase):
    def test_ten_values(self):
        # Quartiles of 1..10 are 2.75 and 8.25, the median 5.5.
        med, sp = spread.spread(list(range(10, 0, -1)))
        self.assertEqual(med, 5.5)
        self.assertAlmostEqual(sp, (8.25 - 2.75) / 5.5)

    def test_skewed_values(self):
        # Quartiles 10.5 and 16.5: the outlier pulls the upper one only.
        med, sp = spread.spread([20, 12, 10, 13, 11])
        self.assertEqual(med, 12)
        self.assertAlmostEqual(sp, (16.5 - 10.5) / 12)

    def test_two_values_extrapolate(self):
        # With two values the quartiles lie outside them: 0.75 and 2.25.
        med, sp = spread.spread([2.0, 1.0])
        self.assertEqual(med, 1.5)
        self.assertAlmostEqual(sp, 1.0)

    def test_equal_values_have_no_spread(self):
        self.assertEqual(spread.spread([3.0] * 10), (3.0, 0.0))

    def test_negative_median_gives_positive_spread(self):
        med, sp = spread.spread([-1.0, -2.0, -3.0, -4.0, -5.0])
        self.assertEqual(med, -3.0)
        self.assertAlmostEqual(sp, 1.0)

    def test_undefined_cases(self):
        self.assertTrue(math.isnan(spread.spread([4.0])[1]))
        self.assertTrue(math.isnan(spread.spread([0.0, 0.0, 0.0])[1]))


if __name__ == "__main__":
    unittest.main()
