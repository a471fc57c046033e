#!/usr/bin/env python3
"""Tests of the benchmark runner: python3 perfbench/test_run.py

The unit tests feed run.py's checks hand-made cell records. The last
test builds the benchmark and runs table2_silent on a second seed.
"""

import json
import os
import re
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")

# EXPERIMENTS.md's measured Table II column (seed 1, quick preset), the
# six per-node receive-rate rows in run.PAPER_TABLE2 order.
EXPERIMENTS_TABLE2 = (2.708, 2.708, 13.602, 0.146, 12.656, 2.415)


def cell(label, **overrides):
    c = {
        "label": label, "nodes": 648, "shards": 1, "window_us": 5000.0,
        "topology_s": 0.001, "routing_s": 0.01, "spec_build_s": 0.0, "construct_s": 0.01,
        "run_s": 1.0, "teardown_s": 0.001, "construct_bytes": 1 << 20,
        "hotspot_rcv_gbps": 2.7, "non_hotspot_rcv_gbps": 2.7, "all_rcv_gbps": 2.7,
        "total_throughput_gbps": 1750.0, "fecn_marked": 0, "cnps_sent": 0,
        "becn_received": 0, "delivered_bytes": 10, "delivered_packets": 10, "events": 100,
        "events_by_kind": [0, 40, 10, 40, 10, 0, 0],
        "workload": {"ran": False, "completed": False, "messages_completed": 0,
                     "messages_total": 0, "makespan_us": -1},
        "counters": {},
    }
    c.update(overrides)
    return c


def table2_rep(**hotspot_on):
    return {"wall_s": 8.0, "peak_rss_mib": 29.0, "cells": [
        cell("no_hotspots_cc_off"),
        cell("no_hotspots_cc_on"),
        cell("hotspots_cc_off", hotspot_rcv_gbps=13.6, non_hotspot_rcv_gbps=0.15),
        cell("hotspots_cc_on", **dict({"hotspot_rcv_gbps": 12.7, "non_hotspot_rcv_gbps": 2.4},
                                      **hotspot_on)),
    ]}


class MetricNames(unittest.TestCase):
    def test_names_and_units(self):
        for units in (run.END_TO_END_UNITS, run.PER_LAYER_UNITS):
            for name, unit in units.items():
                self.assertTrue(NAME.fullmatch(name), name)
                self.assertTrue(unit, name)

    def test_benchmark_json_matches_run_py(self):
        path = os.path.join(run.ROOT, "BENCHMARK.json")
        with open(path) as f:
            bench = json.load(f)
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]},
                         run.END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]},
                         run.PER_LAYER_UNITS)
        self.assertEqual({w["name"] for w in bench["workloads"]}, set(run.WORKLOAD_THREADS))


class Table2Error(unittest.TestCase):
    def test_recomputes_from_experiments_columns(self):
        self.assertEqual(round(run.table2_err_gbps(EXPERIMENTS_TABLE2), 3), 0.138)


class HostScaling(unittest.TestCase):
    def test_times_scale_by_reference_and_rss_does_not(self):
        rep = dict(table2_rep(), setup_samples_s=[0.04, 0.05, 0.06])
        factor = run.host_factor([run.REFERENCE_NOMINAL_S * 2] * 3)
        metrics = run.end_to_end([rep, None], factor)
        self.assertAlmostEqual(metrics["wall_s"]["value"], 4.0)
        self.assertAlmostEqual(metrics["setup_s"]["value"], 0.025)
        self.assertEqual(metrics["peak_rss_mib"]["value"], 29.0)


class FailureAccounting(unittest.TestCase):
    def test_clean_set_has_no_failures(self):
        self.assertEqual(run.account("table2_silent", [table2_rep(), table2_rep()], 4), (8, 0))

    def test_rate_above_sink_cap_fails_its_cell(self):
        bad = table2_rep(hotspot_rcv_gbps=13.7)
        self.assertEqual(run.account("table2_silent", [table2_rep(), bad], 4), (8, 1))

    def test_weak_cc_lift_fails(self):
        bad = table2_rep(non_hotspot_rcv_gbps=0.5)
        self.assertEqual(run.account("table2_silent", [bad], 4), (4, 1))

    def test_crashed_repetition_fails_every_cell(self):
        self.assertEqual(run.account("table2_silent", [table2_rep(), None], 4), (8, 4))

    def test_differing_exact_counts_fail(self):
        odd = table2_rep(events=101)
        reps = [table2_rep(), table2_rep(), odd]
        self.assertEqual(run.account("table2_silent", reps, 4), (12, 1))

    def test_incomplete_workload_fails(self):
        w = {"ran": True, "completed": False, "messages_completed": 9, "messages_total": 10,
             "makespan_us": -1}
        rep = {"wall_s": 1.0, "peak_rss_mib": 1.0, "cells": [cell("all_to_all", workload=w)]}
        self.assertEqual(run.account("a2a_648", [rep], 1), (1, 1))


class SecondSeed(unittest.TestCase):
    def test_table2_on_seed_2(self):
        proc = subprocess.run(
            [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", "table2_silent",
             "--seed", "2", "--seconds", "1", "--trace", "0"],
            cwd=run.ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        self.assertEqual(proc.returncode, 0)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), set(run.END_TO_END_UNITS))


if __name__ == "__main__":
    unittest.main()
