"""Tests of perfbench/run.py's own logic: BENCHMARK.json validity and the
checks applied to the benchmark binary's result.

    python3 -m unittest discover -s perfbench/tests
"""

import copy
import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import run  # noqa: E402


def committed_spec():
    return json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())


class SpecTest(unittest.TestCase):
    def test_committed_benchmark_json_is_valid(self):
        self.assertEqual(run.spec_errors(committed_spec()), [])

    def test_metric_names(self):
        for good in ("setup_s", "flow.stage_blocked_frac.merge0", "9x",
                     "a" * 64):
            self.assertRegex(good, run.NAME_RE)
        for bad in ("", "_lead", ".lead", "has space", "slash/name",
                    "a" * 65, "p99%"):
            self.assertNotRegex(bad, run.NAME_RE)

    def test_bad_names_units_and_bounds_are_reported(self):
        cases = [
            ("end_to_end", 0, "name", "bad name!"),
            ("end_to_end", 1, "unit", "megabytes per run"),
            ("end_to_end", 1, "bound", 0.3),
            ("end_to_end", 1, "better", "smaller"),
            ("per_layer", 0, "name", "x" * 65),
        ]
        for section, index, key, value in cases:
            spec = committed_spec()
            spec[section][index][key] = value
            self.assertNotEqual(run.spec_errors(spec), [], (section, key))

    def test_duplicate_names_and_missing_setup_are_reported(self):
        spec = committed_spec()
        spec["per_layer"].append(copy.deepcopy(spec["per_layer"][0]))
        self.assertTrue(any("more than once" in e
                            for e in run.spec_errors(spec)))
        spec = committed_spec()
        spec["end_to_end"] = [m for m in spec["end_to_end"]
                              if m["name"] != "setup_s"]
        self.assertTrue(any("setup_s" in e for e in run.spec_errors(spec)))

    def test_command_and_paths_stay_inside_the_checkout(self):
        for key, value in (("command", ["python3", "/abs/run.py"]),
                           ("command", ["python3", "../run.py"]),
                           ("paths", ["../elsewhere"]),
                           ("run_seconds", 61),
                           ("workloads", [{"name": "only", "why": "one"}])):
            spec = committed_spec()
            spec[key] = value
            self.assertNotEqual(run.spec_errors(spec), [], key)


class ResultTest(unittest.TestCase):
    EXPECTED = {"setup_s": "s", "throughput_per_s": "1/s"}

    def result(self, **values):
        return {"metrics": {k: {"value": v, "unit": self.EXPECTED.get(k, "s")}
                            for k, v in values.items()}}

    def test_complete_result_passes(self):
        r = self.result(setup_s=0.5, throughput_per_s=1e6)
        self.assertEqual(run.result_errors(r, self.EXPECTED, True), [])

    def test_missing_extra_and_zero_metrics_are_reported(self):
        self.assertTrue(run.result_errors(self.result(setup_s=0.5),
                                          self.EXPECTED, True))
        self.assertTrue(run.result_errors(
            self.result(setup_s=0.5, throughput_per_s=1.0, other=1.0),
            self.EXPECTED, True))
        self.assertTrue(run.result_errors(
            self.result(setup_s=0.0, throughput_per_s=1.0),
            self.EXPECTED, True))
        # Per-layer metrics may be 0 (a workload that never hits the cache).
        self.assertEqual(run.result_errors(
            self.result(setup_s=0.0, throughput_per_s=1.0),
            self.EXPECTED, False), [])

    def test_unit_mismatch_and_non_finite_are_reported(self):
        r = self.result(setup_s=0.5, throughput_per_s=float("nan"))
        r["metrics"]["setup_s"]["unit"] = "ms"
        errs = run.result_errors(r, self.EXPECTED, True)
        self.assertEqual(len(errs), 2)


if __name__ == "__main__":
    unittest.main()
