"""Unit tests for perfbench/stats.py.

    python3 -m unittest discover -s perfbench/tests -v
"""
import copy
import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
import stats  # noqa: E402


def load_fixture(name):
    with open(os.path.join(HERE, "fixtures", name)) as f:
        return json.load(f)


def cell(variant, scalars, samples=None):
    return {"variant": variant, "params": {}, "trials": 1,
            "scalars": {k: {"n": 1, "mean": v} for k, v in scalars.items()},
            "samples": samples or {}}


class BasicStatsTest(unittest.TestCase):
    def test_median_and_quartiles(self):
        values = list(range(1, 11))
        self.assertEqual(stats.median(values), 5.5)
        # statistics.quantiles' default (exclusive) method on 1..10.
        self.assertEqual(stats.quartiles(values), (2.75, 5.5, 8.25))
        self.assertAlmostEqual(stats.spread(values), (8.25 - 2.75) / 5.5)

    def test_spread_is_zero_for_repeated_values(self):
        self.assertEqual(stats.spread([0.42] * 10), 0.0)

    def test_tail_percentile_needs_ten_samples_beyond(self):
        self.assertIsNone(stats.tail_percentile(19))
        self.assertEqual(stats.tail_percentile(20), 50)
        self.assertEqual(stats.tail_percentile(99), 50)
        self.assertEqual(stats.tail_percentile(100), 90)
        self.assertEqual(stats.tail_percentile(200), 95)
        self.assertEqual(stats.tail_percentile(999), 95)
        self.assertEqual(stats.tail_percentile(1000), 99)
        self.assertEqual(stats.tail_percentile(10000), 99.9)

    def test_percentile_interpolates(self):
        self.assertEqual(stats.percentile([4, 1, 3, 2], 50), 2.5)
        self.assertEqual(stats.percentile([4, 1, 3, 2], 100), 4)
        self.assertEqual(stats.percentile([7], 99), 7)


class LedgerTest(unittest.TestCase):
    def test_unexplained_fraction(self):
        # 1e6 ops at 100 ns + 2e6 ops at 50 ns = 0.2 s of a 1 s trial.
        self.assertAlmostEqual(
            stats.ledger_unexplained([(1e6, 100.0), (2e6, 50.0)], 1.0), 0.8)

    def test_fully_explained_and_overstated(self):
        self.assertAlmostEqual(stats.ledger_unexplained([(1e9, 1.0)], 1.0), 0.0)
        self.assertAlmostEqual(stats.ledger_unexplained([(2e9, 1.0)], 1.0), -1.0)

    def test_self_time_subtracts_union_of_children(self):
        spans = [
            {"name": "plan", "start_ns": 0, "end_ns": 100, "parent": -1},
            {"name": "trial_fn", "start_ns": 10, "end_ns": 30, "parent": 0},
            {"name": "trial_fn", "start_ns": 20, "end_ns": 50, "parent": 0},  # overlaps
            {"name": "aggregate", "start_ns": 90, "end_ns": 120, "parent": 0},  # clipped
        ]
        self_s = stats.self_times(spans)
        self.assertAlmostEqual(self_s["plan"], 50e-9)
        self.assertAlmostEqual(self_s["trial_fn"], 50e-9)
        self.assertAlmostEqual(self_s["aggregate"], 30e-9)

    def test_qdisc_kind(self):
        self.assertEqual(stats.qdisc_kind("bundler_sfq", "sendbox.s1-s2"), "sfq")
        self.assertEqual(stats.qdisc_kind("bundler_fifo", "sendbox.s1-s2"), "fifo")
        self.assertEqual(stats.qdisc_kind("in_network", "bottleneck"), "drr")
        self.assertEqual(stats.qdisc_kind("status_quo", "bottleneck"), "fifo")

    def test_qdisc_ops_by_kind_on_fixture(self):
        ops = stats.qdisc_ops_by_kind(load_fixture("sweep_summary.json"))
        self.assertEqual(ops, {"sfq": 1400.0, "drr": 0.0, "fifo": 180.0})


class SummaryTest(unittest.TestCase):
    def setUp(self):
        self.summary = load_fixture("sweep_summary.json")

    def test_fct_ratios_take_median_over_sweep_points(self):
        p50, p99 = stats.fct_ratios("cross_sweep", self.summary)
        # Per point: p50 1/2 and 3/4; p99 5/20 and 10/40.
        self.assertAlmostEqual(p50, (0.5 + 0.75) / 2)
        self.assertAlmostEqual(p99, 0.25)

    def test_fct_ratios_single_point(self):
        summary = {"cells": [
            cell("status_quo", {}, {"agg_fct_ms": {"median": 40.0, "p99": 100.0}}),
            cell("managed", {}, {"agg_fct_ms": {"median": 10.0, "p99": 250.0}}),
        ]}
        self.assertEqual(stats.fct_ratios("cdn_edge", summary), (0.25, 2.5))

    def test_coverage_gaps(self):
        # The last cell has no sim.events_dispatched.
        self.assertEqual(stats.coverage_gaps(self.summary), [3])

    def test_sweep_claim_fails_on_a_cell_without_requests(self):
        (label, ok, _), = stats.repro_claims("cross_sweep", self.summary)
        self.assertFalse(ok, label)

    def test_fig09_claims(self):
        summary = {"cells": [
            cell("status_quo", {"median_slowdown_all": 2.0}),
            cell("bundler_sfq", {"median_slowdown_all": 1.1}),
            cell("bundler_fifo", {"median_slowdown_all": 5.0}),
        ]}
        self.assertTrue(all(ok for _, ok, _ in stats.repro_claims("web_fct", summary)))
        summary["cells"][1]["scalars"]["median_slowdown_all"]["mean"] = 1.6
        oks = [ok for _, ok, _ in stats.repro_claims("web_fct", summary)]
        self.assertEqual(oks, [False, True])

    def test_cdn_claims_need_exact_admission(self):
        summary = {"cells": [cell("managed", {"victim_iso_p50_ratio_max": 1.05,
                                              "admitted": 200, "rejected": 8})]}
        self.assertTrue(all(ok for _, ok, _ in stats.repro_claims("cdn_edge", summary)))
        summary["cells"][0]["scalars"]["rejected"]["mean"] = 7
        self.assertFalse(all(ok for _, ok, _ in stats.repro_claims("cdn_edge", summary)))


class OutputCheckTest(unittest.TestCase):
    def setUp(self):
        summary = load_fixture("sweep_summary.json")
        # Make the fixture pass its checks.
        summary["cells"][3]["scalars"]["requests_completed"]["mean"] = 60
        summary["cells"][3]["scalars"]["sim.events_dispatched"] = {"n": 1, "mean": 9000}
        self.summary = summary
        full = ["d0", "d1", "d2", "d3"]
        # Two full repetitions and a partial check repetition of two trials.
        self.raw = {"trial_labels": ["a", "b", "c", "d"],
                    "reps": [{"trial_digests": list(full)}, {"trial_digests": list(full)},
                             {"trial_digests": ["", "d1", "", "d3"]}]}

    def test_all_pass(self):
        attempted, failed, checks = stats.output_check("cross_sweep", self.raw, self.summary)
        self.assertEqual((attempted, failed), (10, 0))
        self.assertTrue(all(ok for _, ok, _ in checks))

    def test_digest_mismatch_fails_that_trial(self):
        raw = copy.deepcopy(self.raw)
        raw["reps"][2]["trial_digests"][3] = "xx"
        attempted, failed, checks = stats.output_check("cross_sweep", raw, self.summary)
        self.assertEqual((attempted, failed), (10, 1))
        self.assertFalse(checks[-1][1])

    def test_coverage_gap_fails_that_trial_wherever_it_ran(self):
        del self.summary["cells"][1]["scalars"]["sim.events_dispatched"]
        attempted, failed, _ = stats.output_check("cross_sweep", self.raw, self.summary)
        self.assertEqual((attempted, failed), (10, 3))

    def test_failed_claim_fails_every_trial(self):
        self.summary["cells"][0]["scalars"]["requests_completed"]["mean"] = 0
        attempted, failed, _ = stats.output_check("cross_sweep", self.raw, self.summary)
        self.assertEqual((attempted, failed), (10, 10))


if __name__ == "__main__":
    unittest.main()
