"""Tests for the cell benchmark's own arithmetic.

    python3 -m unittest discover -s cellbench -p 'test_*.py'
"""

import argparse
import unittest

import metrics
import run


def rounds(**columns):
    """Column arrays for round_rows; unspecified counters are zero."""
    n = len(next(iter(columns.values())))
    base = {k: [0] * n for k in metrics.COUNTERS}
    base.update({"quorum_met": [1] * n, "round_ms": [1.0] * n,
                 "bytes_uplink": [0] * n, "trained_samples": [0] * n})
    base.update(columns)
    return base


class TailPercentileTest(unittest.TestCase):
    def test_picks_highest_percentile_with_ten_beyond(self):
        values = list(range(1, 101))  # 1..100
        value, q, n, beyond = metrics.tail_percentile(values)
        self.assertEqual((q, n), (90.0, 100))
        self.assertEqual(value, 90)
        self.assertEqual(beyond, 10)
        self.assertGreaterEqual(sum(v > value for v in values), 10)

    def test_forty_samples_fall_back_to_p75(self):
        value, q, n, beyond = metrics.tail_percentile(list(range(40)))
        self.assertEqual((q, n, beyond), (75.0, 40, 10))
        self.assertEqual(value, 29)

    def test_thirty_nine_samples_give_the_median(self):
        _, q, n, beyond = metrics.tail_percentile(list(range(39)))
        self.assertEqual((q, n), (50.0, 39))
        self.assertGreaterEqual(beyond, 10)

    def test_order_does_not_matter(self):
        values = [5.0, 1.0, 4.0] * 20
        self.assertEqual(metrics.tail_percentile(values),
                         metrics.tail_percentile(sorted(values)))

    def test_too_few_samples_raise(self):
        with self.assertRaises(ValueError):
            metrics.tail_percentile([1.0] * 19)

    def test_large_run_reaches_p99(self):
        _, q, _, beyond = metrics.tail_percentile(list(range(1000)))
        self.assertEqual((q, beyond), (99.0, 10))


class AccountingTest(unittest.TestCase):
    def test_failed_share_from_round_stats(self):
        rows = metrics.round_rows(rounds(
            sampled=[100, 100], aggregated=[70, 80], dropped=[10, 10],
            unavailable=[15, 5], crashed=[3, 2], rejected=[2, 3]))
        self.assertAlmostEqual(metrics.updates_failed_share(rows), 50 / 200)
        for row in rows:
            self.assertIsNone(metrics.check_round_accounting(row))

    def test_silo_rounds_fail_nothing(self):
        rows = metrics.round_rows(rounds(sampled=[10] * 3, aggregated=[10] * 3))
        self.assertEqual(metrics.updates_failed_share(rows), 0.0)
        self.assertEqual(metrics.useful_update_ratio(rows), 1.0)

    def test_unbalanced_round_is_reported(self):
        row = metrics.round_rows(rounds(sampled=[10], aggregated=[8],
                                        dropped=[1]))[0]
        self.assertIn("!= sampled", metrics.check_round_accounting(row))

    def test_missed_quorum_is_reported(self):
        row = metrics.round_rows(rounds(sampled=[10], aggregated=[0],
                                        dropped=[10], quorum_met=[0]))[0]
        self.assertIn("quorum", metrics.check_round_accounting(row))

    def test_useful_ratio_counts_crashes_as_wasted_training(self):
        rows = metrics.round_rows(rounds(
            sampled=[100], aggregated=[80], dropped=[10], crashed=[10]))
        self.assertAlmostEqual(metrics.useful_update_ratio(rows), 80 / 90)


class IdleShareTest(unittest.TestCase):
    def test_balanced_schedule_is_not_idle(self):
        self.assertAlmostEqual(metrics.idle_share([5.0] * 8, threads=4), 0.0)

    def test_ten_equal_parties_on_four_workers(self):
        # Ten one-party chunks: two workers take three parties, two take two.
        self.assertAlmostEqual(metrics.schedule_makespan([1.0] * 10, 4), 3.0)
        self.assertAlmostEqual(metrics.idle_share([1.0] * 10, 4),
                               1 - 10 / 12)

    def test_one_slow_party_sets_the_makespan(self):
        tasks = [10.0, 1.0, 1.0, 1.0]
        self.assertAlmostEqual(metrics.schedule_makespan(tasks, 4), 10.0)
        self.assertAlmostEqual(metrics.idle_share(tasks, 4), 1 - 13 / 40)

    def test_greedy_dispatch_in_chunk_order(self):
        # Worker 0 takes 4, workers 1 and 2 take 1 each and come back for
        # the next chunks: 1+2 and 1+2; the makespan is 4.
        tasks = [4.0, 1.0, 1.0, 2.0, 2.0]
        self.assertAlmostEqual(metrics.schedule_makespan(tasks, 3), 4.0)

    def test_many_tasks_are_chunked(self):
        # 100 tasks on 4 threads: 16 chunks of 7 (the last of 2).
        tasks = [1.0] * 100
        self.assertAlmostEqual(metrics.schedule_makespan(tasks, 4), 28.0)

    def test_empty_round(self):
        self.assertEqual(metrics.idle_share([], 4), 0.0)


class UnitTest(unittest.TestCase):
    def test_conversions(self):
        self.assertEqual(metrics.ms_to_s(1500.0), 1.5)
        self.assertEqual(metrics.bytes_to_mb(2_480_240), 2.48024)
        self.assertAlmostEqual(metrics.kib_to_mb(1000), 1.024)
        self.assertAlmostEqual(metrics.per_second(500, 250.0), 2000.0)

    def test_quartile_summary(self):
        summary = metrics.quartile_summary([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
        self.assertEqual(summary["median"], 5.5)
        self.assertAlmostEqual(summary["spread"],
                               (summary["q3"] - summary["q1"]) / 5.5)


class EndToEndTest(unittest.TestCase):
    def raw(self):
        cell = {"setup_s": 1.0, "cell_s": 10.0, "final_accuracy": 0.5,
                "eval_ms": [3.0, 5.0],
                "rounds": rounds(round_ms=[float(i) for i in range(1, 41)],
                                 sampled=[10] * 40, aggregated=[10] * 40,
                                 bytes_uplink=[2_000_000] * 40,
                                 trained_samples=[100] * 40)}
        other = dict(cell, setup_s=3.0, final_accuracy=0.7)
        return {"cells": [cell, other], "extra_setup_s": [2.5, 0.5, 4.0],
                "max_rss_kb": 1000}

    def test_metrics_and_units(self):
        values, details = metrics.end_to_end(self.raw())
        # Median over the cells' setups and the extra ones: 0.5 1 2.5 3 4.
        self.assertEqual(values["setup_s"], (2.5, "s"))
        self.assertEqual(values["round_ms_p50"], (20.5, "ms"))
        self.assertEqual(details["round_ms_tail"],
                         {"percentile": 75.0, "n": 80, "beyond": 20})
        self.assertEqual(values["uplink_mb_per_round"], (2.0, "MB"))
        self.assertAlmostEqual(values["final_accuracy"][0], 0.6)
        self.assertEqual(values["updates_aggregated_share"], (1.0, "fraction"))
        # Median per-round rate: 100 samples in 20.5 ms (rounds 20 and 21).
        self.assertAlmostEqual(values["train_samples_per_s"][0],
                               (100 / 0.020 + 100 / 0.021) / 2)
        self.assertAlmostEqual(values["peak_rss_mb"][0], 1.024)


    def test_run_too_short_for_a_tail_leaves_it_out(self):
        raw = self.raw()
        raw["cells"] = [dict(raw["cells"][0], rounds=rounds(
            round_ms=[1.0] * 14, sampled=[10] * 14, aggregated=[10] * 14,
            bytes_uplink=[0] * 14, trained_samples=[100] * 14))]
        values, details = metrics.end_to_end(raw)
        self.assertNotIn("round_ms_tail", values)
        self.assertIn("fewer than 10", details["round_ms_tail"])


class PerLayerTest(unittest.TestCase):
    CATALOG = [{"name": n, "unit": u} for n, u in (
        ("fl.train_ms_per_party", "ms"), ("fl.train_share", "fraction"),
        ("fl.serial_share", "fraction"),
        ("fl.round_unaccounted_share", "fraction"),
        ("fl.server_cell_share", "fraction"),
        ("fl.idle_share", "fraction"), ("fl.sampled", "count"),
        ("tensor.gemm_peak_share", "fraction"),
        ("trace.overhead_share", "fraction"),
        ("fl.robust_ms_per_round", "ms"), ("fl.encode_us_per_update", "us"))]

    def raw(self, workload="silo-cnn"):
        cell = {"cell_s": 10.0, "ckpt_ms": [], "rounds": rounds(
            round_ms=[100.0, 200.0], sampled=[4, 4], aggregated=[4, 4])}
        return {
            "workload": workload,
            "threads": 2,
            "cells": [dict(cell, cell_s=9.0),
                      dict(cell, cell_s=10.5, ckpt_ms=[500.0, 700.0]),
                      dict(cell, cell_s=11.0)],
            "layers": {
                "fl.train_ms_per_party": [3.0, 1.0, 2.0],
                "tensor.gemm_gflops": [10.0],
                "tensor.gemm_peak_gflops": [40.0],
                "replays": [{"round": 1, "train_wall_ms": 150.0,
                             "serial_ms": 30.0,
                             "task_ms": [40.0, 40.0, 40.0, 40.0]}]}}

    def test_shares_overhead_and_zero_fill(self):
        out = {k: v for k, (v, _) in
               metrics.per_layer(self.raw(), self.CATALOG).items()}
        self.assertEqual(out["fl.train_ms_per_party"], 2.0)
        self.assertAlmostEqual(out["fl.train_share"], 0.75)
        self.assertAlmostEqual(out["fl.serial_share"], 0.15)
        self.assertAlmostEqual(out["fl.round_unaccounted_share"], 0.10)
        # Two rounds of 30 ms serial work and 1.2 s of checkpoints in 10.5 s.
        self.assertAlmostEqual(out["fl.server_cell_share"], 1.26 / 10.5)
        self.assertAlmostEqual(out["fl.idle_share"], 0.0)
        self.assertEqual(out["fl.sampled"], 4)
        self.assertAlmostEqual(out["tensor.gemm_peak_share"], 0.25)
        # Traced 10.5 s against the mean of the untraced 9 s and 11 s.
        self.assertAlmostEqual(out["trace.overhead_share"], 0.05)
        # No robust rule and no codec on silo-cnn: those metrics read 0.
        self.assertEqual(out["fl.robust_ms_per_round"], 0.0)
        self.assertEqual(out["fl.encode_us_per_update"], 0.0)

    def test_missing_applicable_metric_is_left_out(self):
        # device-robust runs the codec and the robust rule, so their absence
        # is not filled in; run.py reports the missing names.
        out = metrics.per_layer(self.raw("device-robust"), self.CATALOG)
        self.assertNotIn("fl.robust_ms_per_round", out)
        self.assertNotIn("fl.encode_us_per_update", out)
        self.assertIn("fl.train_share", out)

    def test_every_workload_has_a_table(self):
        for name in ("silo-cnn", "silo-resnet", "device-robust"):
            self.assertIn(name, metrics.NOT_APPLICABLE)


class OutputCheckTest(unittest.TestCase):
    EXPECTED = {"silo-cnn": {"7": {"accuracy": 0.5, "checksum": "00ff"},
                             "8": {"accuracy": 0.25, "checksum": "0abc"}}}

    def cell(self, draw=7, checksum="00ff", accuracy=0.5):
        return {"draw": draw, "final_accuracy": accuracy,
                "checksum": checksum, "eval_ms": [1.0], "ckpt_ms": [],
                "ckpt_failed": 0,
                "rounds": rounds(sampled=[10], aggregated=[10])}

    def raw(self, *cells):
        return {"build_type": "Release", "rounds_per_cell": 1,
                "cells": list(cells) or [self.cell()]}

    def check(self, raw):
        args = argparse.Namespace(workload="silo-cnn", seed=3, trace=0)
        return run.check(raw, args, self.EXPECTED)

    def test_recorded_values_pass(self):
        raw = self.raw(self.cell(), self.cell(8, "0abc", 0.25))
        self.assertEqual(self.check(raw), ([], 4, 0))

    def test_checksum_mismatch_fails(self):
        errors = self.check(self.raw(self.cell(checksum="00fe")))[0]
        self.assertEqual(len(errors), 1)
        self.assertIn("checksum", errors[0])

    def test_accuracy_mismatch_fails(self):
        self.assertTrue(self.check(self.raw(self.cell(accuracy=0.25)))[0])

    def test_unrecorded_draw_fails(self):
        errors = self.check(self.raw(self.cell(), self.cell(draw=9)))[0]
        self.assertEqual(len(errors), 1)
        self.assertTrue(errors[0].startswith(run.UNRECORDED))

    def test_unrecorded_workload_fails(self):
        args = argparse.Namespace(workload="silo-resnet", seed=3, trace=0)
        errors = run.check(self.raw(), args, self.EXPECTED)[0]
        self.assertTrue(errors[0].startswith(run.UNRECORDED))

    def test_every_cell_of_a_long_run_is_checked(self):
        cells = [self.cell(), self.cell(8, "0abc", 0.25),
                 self.cell(checksum="ffff")]
        errors = self.check(self.raw(*cells))[0]
        self.assertEqual(len(errors), 1)
        self.assertIn("cell 2", errors[0])

    def test_debug_build_fails(self):
        raw = dict(self.raw(), build_type="Debug")
        self.assertIn("non-Release", self.check(raw)[0][0])


if __name__ == "__main__":
    unittest.main()
