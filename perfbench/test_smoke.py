#!/usr/bin/env python3
"""The benchmark's own test: every workload at tiny size, untraced and traced.

    python3 perfbench/test_smoke.py

Asserts that each run's correctness checks pass, that it prints exactly the
metrics BENCHMARK.json declares (with their units), that the layers a
workload calls are measured, that quality repeats for one seed, and that
run.py refuses to run without the library sources.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("perfbench", "run.py")

WORKLOADS = ("align", "topk_local", "topk_sharded", "delta_ingest")
# The layers each workload calls, which must read above 0; every other
# declared layer reads 0 on that workload.
LAYERS = {
    "align": {"embed.gcn_s", "text.semantic_s", "la.string_s",
              "fusion.fuse_s", "matching.decide_s", "serve.export_s"},
    "topk_local": {"ann.train_s", "serve.load_s", "serve.scan_p50_ms",
                   "serve.cache_hit_ratio", "serve.ann_used_ratio",
                   "serve.ann_shortlist_mean"},
    "topk_sharded": {"ann.train_s", "router.start_s", "serve.scan_p50_ms",
                     "router.overhead_p50_ms"},
    "delta_ingest": {"delta.append_ms", "delta.repair_ms", "delta.verify_ms",
                     "delta.publish_ms", "delta.load_ms", "delta.dirty_rows",
                     "delta.dirty_struct_entities", "serve.reload_ms",
                     "serve.load_s"},
}
# Router failure counters: 0 in a healthy run of topk_sharded.
COUNTERS = {"router.degraded", "router.failovers"}


def run(workload, trace, seed=7, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        timeout=600)
    return proc


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class SmokeTest(unittest.TestCase):
    def check(self, workload, trace):
        proc = run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stdout)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"], proc.stdout)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        kind = "per_layer" if trace else "end_to_end"
        units = {m["name"]: m["unit"] for m in spec()[kind]}
        self.assertEqual(set(result["metrics"]), set(units))
        for name, metric in result["metrics"].items():
            self.assertEqual(metric["unit"], units[name], name)
            self.assertIsInstance(metric["value"], (int, float), name)
        return result["metrics"]

    def test_untraced_runs_print_every_end_to_end_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                metrics = self.check(workload, 0)
                for name, metric in metrics.items():
                    self.assertGreater(metric["value"], 0, name)

    def test_traced_runs_measure_the_layers_they_call(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                metrics = self.check(workload, 1)
                for name in LAYERS[workload]:
                    self.assertGreater(metrics[name]["value"], 0, name)

    def test_quality_repeats_for_one_seed(self):
        first = self.check("align", 0)
        second = self.check("align", 0)
        self.assertEqual(first["quality"]["value"],
                         second["quality"]["value"])

    def test_every_declared_layer_belongs_to_a_workload(self):
        s = spec()
        overhead = {"trace_overhead." + m["name"] for m in s["end_to_end"]}
        self.assertEqual({m["name"] for m in s["per_layer"]},
                         set().union(*LAYERS.values()) | overhead
                         | COUNTERS)
        self.assertEqual([w["name"] for w in s["workloads"]],
                         list(WORKLOADS))

    def test_refuses_without_library_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(os.path.join(ROOT, "perfbench"),
                            os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run("align", 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
