"""The benchmark's own tests.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The manifest checks are instant. TestCommand runs the command once per
`--trace` mode on its cheapest workload (about two minutes with the build
already done) and checks that it prints exactly the declared metrics.
"""

import json
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import campaign  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def manifest():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class TestManifest(unittest.TestCase):
    def test_keys_and_sizes(self):
        m = manifest()
        self.assertEqual(set(m), {"command", "paths", "run_seconds",
                                  "workloads", "end_to_end", "per_layer"})
        self.assertTrue(2 <= len(m["workloads"]) <= 8)
        self.assertTrue(1 <= len(m["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(m["per_layer"]) <= 128)
        self.assertIsInstance(m["run_seconds"], int)
        self.assertTrue(1 <= m["run_seconds"] <= 60)
        self.assertLessEqual(len((ROOT / "BENCHMARK.json").read_bytes()),
                             64 * 1024)

    def test_names_units_and_bounds(self):
        m = manifest()
        names = [w["name"] for w in m["workloads"]]
        for w in m["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertTrue(0 < len(w["why"]) <= 200 and "\n" not in w["why"])
        for metric in m["end_to_end"]:
            self.assertEqual(set(metric), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < metric["bound"] <= 0.25, metric)
        for metric in m["per_layer"]:
            self.assertEqual(set(metric), {"name", "unit", "better"})
        for metric in m["end_to_end"] + m["per_layer"]:
            self.assertRegex(metric["unit"], UNIT)
            self.assertIn(metric["better"], ("lower", "higher"))
            names.append(metric["name"])
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))

    def test_setup_s_has_the_largest_bound(self):
        e2e = {x["name"]: x for x in manifest()["end_to_end"]}
        self.assertEqual(e2e["setup_s"]["unit"], "s")
        self.assertEqual(e2e["setup_s"]["better"], "lower")
        self.assertEqual(e2e["setup_s"]["bound"],
                         max(x["bound"] for x in e2e.values()))

    def test_workloads_and_paths(self):
        m = manifest()
        self.assertEqual([w["name"] for w in m["workloads"]],
                         list(run.WORKLOADS))
        self.assertEqual(m["command"], ["python3", "perfbench/run.py"])
        for path in m["paths"]:
            self.assertRegex(path, r"^[A-Za-z0-9_./-]{1,200}$")
            self.assertTrue((ROOT / path).is_dir())


def span(id_, parent, name, begin, end, lane=0):
    return {"name": name, "pid": lane,
            "args": {"id": id_, "parent": parent,
                     "wall_begin_ns": begin, "wall_end_ns": end}}


def traced(spans, exit_ns):
    return campaign.Result(wall_s=exit_ns * 1e-9, launch_ns=0,
                           exit_ns=exit_ns, peak_rss_mb=1, shards=[],
                           metrics={}, report={}, spans=spans)


class TestLayers(unittest.TestCase):
    def test_self_times_close_on_the_traced_wall(self):
        spans = [
            span(1, 0, "campaign.batch", 10, 60),
            span(2, 1, "fuzz.baseline", 12, 58),
            span(3, 2, "round", 14, 56),
            span(4, 3, "round.snapshot_before", 15, 20),
            span(5, 3, "round.measure", 20, 50),
            span(6, 0, "campaign.batch", 62, 70),
            span(7, 0, "campaign.finalize", 72, 90),
            span(8, 7, "oracle.flag", 80, 85),
        ]
        buckets, total = layers.split(traced(spans, 100))
        ns = {k: round(v * 1e9) for k, v in buckets.items()}
        self.assertEqual(ns["setup"], 10)
        self.assertEqual(ns["sim"], 30)
        self.assertEqual(ns["observer_snapshot"], 5)
        self.assertEqual(ns["observer_overhead"], 42 - 35)
        self.assertEqual(ns["fuzzer"], (50 - 46) + (46 - 42) + 8)
        self.assertEqual(ns["exchange_wait"], 0)  # one lane: no exchange
        self.assertEqual(ns["finalize"], 13)
        self.assertEqual(ns["oracle_flag"], 5)
        self.assertEqual(ns["persist"], 10)
        self.assertEqual(ns["unattributed"], 2 + 2)  # gaps after batches 1 and 2
        self.assertAlmostEqual(total, 100e-9)

    def test_shard_gaps_up_to_finalize_are_exchange_wait(self):
        spans = [
            span(1, 0, "campaign.batch", 10, 40, lane=0),
            span(2, 0, "campaign.batch", 45, 70, lane=0),
            span(3, 0, "campaign.finalize", 80, 90, lane=0),
            span(1, 0, "campaign.batch", 12, 44, lane=1),
            span(2, 0, "campaign.batch", 44, 78, lane=1),
            span(3, 0, "campaign.finalize", 80, 95, lane=1),
        ]
        buckets, total = layers.split(traced(spans, 100))
        ns = {k: round(v * 1e9) for k, v in buckets.items()}
        self.assertEqual(ns["exchange_wait"], (5 + 10) + (0 + 2))
        self.assertEqual(ns["setup"], 10 + 12)
        self.assertEqual(ns["persist"], 5)
        self.assertEqual(ns["unattributed"], 0)
        self.assertAlmostEqual(total, (90 + 95 + 5) * 1e-9)


class TestReport(unittest.TestCase):
    def test_parse_report_blocks(self):
        text = ("# TORPEDO campaign report\n# batches=1\n\n"
                "== finding: socket ==\n"
                "cause: repeated kernel modprobe (new)\n"
                "symptoms: fuzz-core-utilization-low\n"
                'violation: {"heuristic":"x"}\n'
                "r0 = socket(0x2, 0x1, 0x0)\n\n"
                "== crash ==\n"
                "message: sentry panic: boom\n"
                "reproduced: yes\n"
                "shard: 1\n"
                "sync()\nclose(0x3)\n\n")
        path = ROOT / ".bench_build" / "test_report.txt"
        path.parent.mkdir(exist_ok=True)
        path.write_text(text)
        try:
            report = campaign.parse_report(path)
        finally:
            path.unlink()
        self.assertEqual(report["causes"], ["repeated kernel modprobe"])
        self.assertEqual(report["crashes"], ["sentry panic: boom"])
        self.assertEqual(report["programs"],
                         ["r0 = socket(0x2, 0x1, 0x0)\n", "sync()\nclose(0x3)\n"])


def invoke(cwd, trace, workload="gvisor-seq"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=900)


class TestCommand(unittest.TestCase):
    def test_prints_exactly_the_declared_metrics(self):
        m = manifest()
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = invoke(ROOT, trace)
            self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            self.assertEqual(set(result), RESULT_KEYS)
            self.assertIs(result["correct"], True)
            self.assertEqual(result["failed"], 0)
            self.assertGreaterEqual(result["attempted"], 1)
            declared = {x["name"]: x["unit"] for x in m[section]}
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            self.assertEqual(printed, declared)

    def test_fails_without_the_sources(self):
        bare = ROOT / ".bench_build" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = invoke(bare, 0)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
