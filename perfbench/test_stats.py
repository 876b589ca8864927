"""Self-check of the benchmark's arithmetic on hand-built inputs.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest

import stats


class NearestRank(unittest.TestCase):
    def test_sample(self):
        values = [15, 20, 35, 40, 50]  # shuffled below: order must not matter
        shuffled = [40, 15, 50, 20, 35]
        self.assertEqual(stats.nearest_rank(shuffled, 0.05), 15)
        self.assertEqual(stats.nearest_rank(values, 0.30), 20)  # ceil(1.5) = 2
        self.assertEqual(stats.nearest_rank(values, 0.40), 20)  # exactly rank 2
        self.assertEqual(stats.nearest_rank(values, 0.50), 35)  # ceil(2.5) = 3
        self.assertEqual(stats.nearest_rank(values, 0.90), 50)
        self.assertEqual(stats.nearest_rank(values, 1.00), 50)

    def test_p90_of_ten_is_the_ninth(self):
        self.assertEqual(stats.nearest_rank(list(range(1, 11)), 0.9), 9)

    def test_empty_sample_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.nearest_rank([], 0.5)

    def test_histogram_matches_expanded_sample(self):
        hist = [0, 7, 2, 0, 1]  # seven 1s, two 2s, one 4
        sample = [1] * 7 + [2] * 2 + [4]
        for p in (0.1, 0.5, 0.7, 0.71, 0.8, 0.9, 0.91, 1.0):
            self.assertEqual(stats.nearest_rank_hist(hist, p),
                             stats.nearest_rank(sample, p), p)
        self.assertEqual(stats.nearest_rank_hist([0, 0], 0.5), 0)


class SelfTime(unittest.TestCase):
    def span(self, id_, parent, start, end, layer):
        return {"id": id_, "parent": parent, "start": start, "end": end,
                "layer": layer, "name": f"s{id_}"}

    def test_children_overlapping_and_spilling(self):
        spans = [
            self.span(0, -1, 0, 100, "bench"),
            self.span(1, 0, 10, 40, "core"),    # children 1 and 2 overlap:
            self.span(2, 0, 30, 50, "core"),    # union 10..50 = 40
            self.span(3, 1, 15, 25, "plan"),    # grandchild: only 1 loses it
            self.span(4, 0, 90, 120, "comm"),   # spills past its parent
        ]
        own = stats.self_times(spans)
        self.assertEqual(own[0], 100 - 40 - 10)
        self.assertEqual(own[1], 30 - 10)
        self.assertEqual(own[2], 20)
        self.assertEqual(own[3], 10)
        self.assertEqual(own[4], 30)
        by_layer = stats.self_time_by(spans, "layer")
        self.assertEqual(by_layer, {"bench": 50, "core": 40, "plan": 10, "comm": 30})

    def test_union_of_intervals(self):
        self.assertEqual(stats.covered_length([]), 0)
        self.assertEqual(stats.covered_length([(5, 7), (0, 2), (1, 3), (7, 8)]), 6)


class Spread(unittest.TestCase):
    def test_quartile_distance_over_median(self):
        # statistics.quantiles(n=4) on 1..9 gives q1 = 2.5, q3 = 7.5.
        self.assertAlmostEqual(stats.spread(list(range(1, 10))), 5 / 5)
        self.assertEqual(stats.spread([3.0] * 10), 0.0)

    def test_geomean(self):
        self.assertAlmostEqual(stats.geomean([1, 4, 16]), 4.0)


if __name__ == "__main__":
    unittest.main()
