"""Self-tests of the benchmark's definition and output schema.

    python3 -m unittest discover -s perfbench/tests -p 'test_*.py'
    (or: python3 perfbench/run.py --selftest, which also runs the C++ checks)

Checks that BENCHMARK.json keeps the benchmark contract, that every metric
the benchmark defines appears with its unit on the workloads it belongs to,
that run.py builds each mode's metric set exactly, and that the runner
refuses to produce a result without the engine sources.
"""

import json
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
import run  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SPEC = json.loads((BENCH_DIR / "spec.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
STOCK, DURABLE, ZIPF = ("stock_q4_shed", "keyed_tumbling_durable",
                        "zipf_mp_overlap16")

# Every metric the benchmark reports: unit and the workloads it is defined on.
EXPECTED = {
    "throughput_eps": ("events/s", "all"),
    "setup_s": ("s", "all"),
    "peak_rss_mb": ("MiB", "all"),
    "latency_p50_us": ("us", [STOCK, DURABLE]),
    "latency_p99_us": ("us", [STOCK, DURABLE]),
    "fn_pct": ("%", [STOCK]),
    "fp_pct": ("%", [STOCK]),
    "recovery_s": ("s", [DURABLE]),
    "error_rate": ("ratio", "all"),
    "runtime.router.push_ns_per_event": ("ns", "all"),
    "runtime.router.stall_s": ("s", "all"),
    "runtime.ring.mean_depth": ("events", "all"),
    "runtime.ring.peak_depth": ("events", "all"),
    "runtime.shard.busy_fraction_max": ("ratio", "all"),
    "runtime.shard.events_max_over_mean": ("ratio", "all"),
    "runtime.lanes.push_ns_per_event": ("ns", [ZIPF]),
    "runtime.finish_s": ("s", "all"),
    "runtime.shard.serial_eps": ("events/s", "all"),
    "cep.window.ns_per_event": ("ns", "all"),
    "cep.window.memberships_per_event": ("count", "all"),
    "cep.matcher.ns_per_kept": ("ns", "all"),
    "cep.matcher.kept_per_event": ("count", "all"),
    "cep.matcher.matches": ("count", "all"),
    "core.shedder.ns_per_membership": ("ns", [STOCK]),
    "core.shedder.drop_ratio": ("ratio", [STOCK]),
    "core.model.train_s": ("s", [STOCK]),
    "durability.wal.append_ns_per_event": ("ns", [DURABLE]),
    "durability.wal.bytes_per_event": ("bytes", [DURABLE]),
    "durability.checkpoint.pause_ms_p50": ("ms", [DURABLE]),
    "durability.checkpoint.pause_ms_max": ("ms", [DURABLE]),
    "durability.snapshot.bytes": ("bytes", [DURABLE]),
    "durability.recovery.replayed_events": ("events", [DURABLE]),
    "durability.recovery.replay_eps": ("events/s", [DURABLE]),
    "gen.lag_p99_us": ("us", [STOCK, DURABLE]),
    "gen.lag_max_us": ("us", [STOCK, DURABLE]),
    "trace.unattributed_frac": ("ratio", "all"),
    "trace.overhead_frac": ("ratio", "all"),
}

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class ContractTest(unittest.TestCase):
    def test_top_level_keys(self):
        self.assertEqual(set(BENCH), {"command", "paths", "run_seconds",
                                      "workloads", "end_to_end", "per_layer"})
        self.assertLessEqual(len((ROOT / "BENCHMARK.json").read_bytes()), 65536)

    def test_command_and_paths(self):
        self.assertEqual(BENCH["command"], ["python3", "perfbench/run.py"])
        self.assertTrue(1 <= len(BENCH["paths"]) <= 16)
        for p in BENCH["paths"]:
            self.assertRegex(p, r"^[A-Za-z0-9_./-]{1,200}$")
            self.assertFalse(p.startswith("/") or ".." in p.split("/"))
            self.assertTrue((ROOT / p).is_dir())

    def test_run_seconds_and_workloads(self):
        self.assertIsInstance(BENCH["run_seconds"], int)
        self.assertTrue(1 <= BENCH["run_seconds"] <= 60)
        self.assertTrue(2 <= len(BENCH["workloads"]) <= 8)
        for w in BENCH["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertRegex(w["name"], NAME)
            self.assertTrue(0 < len(w["why"]) <= 200 and "\n" not in w["why"])

    def test_metric_entries(self):
        names = []
        for m in BENCH["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m)
            names.append(m["name"])
        for m in BENCH["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            names.append(m["name"])
        for m in BENCH["end_to_end"] + BENCH["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        self.assertEqual(len(names), len(set(names)), "a name is used twice")
        self.assertTrue(1 <= len(BENCH["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(BENCH["per_layer"]) <= 128)

    def test_setup_s_has_the_largest_bound(self):
        e2e = {m["name"]: m for m in BENCH["end_to_end"]}
        self.assertEqual((e2e["setup_s"]["unit"], e2e["setup_s"]["better"]),
                         ("s", "lower"))
        self.assertEqual(e2e["setup_s"]["bound"],
                         max(m["bound"] for m in BENCH["end_to_end"]))


class SchemaTest(unittest.TestCase):
    def test_every_metric_with_its_unit_and_workloads(self):
        self.assertEqual(set(SPEC["metrics"]), set(EXPECTED))
        declared = {m["name"]: m["unit"]
                    for m in BENCH["end_to_end"] + BENCH["per_layer"]}
        self.assertEqual(set(declared), set(EXPECTED))
        for name, (unit, workloads) in EXPECTED.items():
            self.assertEqual(SPEC["metrics"][name]["unit"], unit, name)
            self.assertEqual(declared[name], unit, name)
            self.assertEqual(SPEC["metrics"][name]["workloads"], workloads, name)

    def test_gated_metrics_exist_on_every_workload(self):
        for m in BENCH["end_to_end"]:
            self.assertEqual(SPEC["metrics"][m["name"]]["kind"], "end_to_end")
            self.assertEqual(SPEC["metrics"][m["name"]]["workloads"], "all")
        for m in BENCH["per_layer"]:
            self.assertNotEqual(SPEC["metrics"][m["name"]]["kind"], "end_to_end")

    def test_per_layer_targets(self):
        e2e_names = {n for n, m in SPEC["metrics"].items()
                     if m["kind"].startswith("end_to_end")}
        for name, m in SPEC["metrics"].items():
            if m["kind"] != "per_layer":
                continue
            self.assertIn("moves", m, name)
            if m["moves"] is not None:
                self.assertIn(m["moves"], e2e_names, name)
                self.assertTrue(m["on"], name)
            for w in m["on"]:
                self.assertIn(w, WORKLOADS, name)

    def test_open_loop_rates_are_fixed(self):
        self.assertEqual(set(SPEC["workloads"]), set(WORKLOADS))
        for w in (STOCK, DURABLE):
            self.assertGreater(SPEC["workloads"][w]["open_loop_rate_eps"], 0)
        self.assertIsNone(SPEC["workloads"][ZIPF]["open_loop_rate_eps"])


def raw_output(workload, trace):
    """A fake workload result carrying every metric defined on `workload`."""
    kinds = ("per_layer", "end_to_end_ungated") if trace else (
        "end_to_end", "end_to_end_ungated")
    return {n: {"value": 1.5, "unit": m["unit"]}
            for n, m in SPEC["metrics"].items()
            if m["kind"] in kinds and run.applies(m, workload)}


class AssembleTest(unittest.TestCase):
    def test_each_mode_reports_exactly_its_metric_set(self):
        for w in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                metrics, _, problems = run.assemble(raw_output(w, trace), BENCH,
                                                    SPEC, w, trace)
                self.assertEqual(problems, [], (w, trace))
                self.assertEqual(list(metrics), [m["name"] for m in BENCH[key]])
                for m in BENCH[key]:
                    self.assertEqual(metrics[m["name"]]["unit"], m["unit"])

    def test_metrics_of_other_workloads_read_zero(self):
        metrics, _, _ = run.assemble(raw_output(ZIPF, 1), BENCH, SPEC, ZIPF, 1)
        self.assertEqual(metrics["core.shedder.drop_ratio"]["value"], 0)
        self.assertEqual(metrics["runtime.lanes.push_ns_per_event"]["value"], 1.5)

    def test_missing_or_mis_united_metric_is_a_problem(self):
        raw = raw_output(STOCK, 0)
        del raw["setup_s"]
        raw["throughput_eps"]["unit"] = "1/s"
        _, extra, problems = run.assemble(raw, BENCH, SPEC, STOCK, 0)
        self.assertEqual(len(problems), 2)
        self.assertIn("fn_pct", extra)  # printed by name, not in the result


class NoSourcesTest(unittest.TestCase):
    def test_refuses_without_engine_sources(self):
        # A directory holding only BENCHMARK.json and the benchmark itself.
        bare = ROOT / ".bench_out" / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(BENCH_DIR, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            p = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", STOCK,
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=170)
            self.assertNotEqual(p.returncode, 0)
            self.assertNotIn('"correct"', p.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
