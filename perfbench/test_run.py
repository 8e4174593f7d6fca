"""Tests for run.py's result-line parsing.

    python3 -m unittest perfbench/test_run.py     (from the repository root)
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

EXPECTED = [("setup_s", "s"), ("ops_per_s", "1/s")]


def line(**overrides):
    result = {
        "correct": True,
        "attempted": 10,
        "failed": 0,
        "metrics": {
            "setup_s": {"value": 0.25, "unit": "s"},
            "ops_per_s": {"value": 1234.5, "unit": "1/s"},
        },
    }
    result.update(overrides)
    return json.dumps(result)


class ParseResult(unittest.TestCase):
    def test_valid(self):
        r = run.parse_result(line(), EXPECTED)
        self.assertEqual(r["metrics"]["ops_per_s"]["value"], 1234.5)

    def test_every_digit_survives(self):
        text = line().replace("1234.5", "0.10000000000000001")
        r = run.parse_result(text, EXPECTED)
        self.assertEqual(r["metrics"]["ops_per_s"]["value"], 0.1)

    def test_rejects(self):
        bad = [
            "not json",
            line(extra=1),
            line(correct="yes"),
            line(attempted=0),
            line(failed=-1),
            line(attempted=1.5),
            line(metrics={"setup_s": {"value": 1, "unit": "s"}}),
            line(metrics={"setup_s": {"value": 1, "unit": "ms"},
                          "ops_per_s": {"value": 1, "unit": "1/s"}}),
            line(metrics={"setup_s": {"value": "1", "unit": "s"},
                          "ops_per_s": {"value": 1, "unit": "1/s"}}),
            line(metrics={"setup_s": {"value": 1, "unit": "s", "n": 3},
                          "ops_per_s": {"value": 1, "unit": "1/s"}}),
            line().replace("1234.5", "NaN"),
        ]
        for text in bad:
            with self.assertRaises(run.Malformed, msg=text):
                run.parse_result(text, EXPECTED)

    def test_combine_prefixes_and_sums(self):
        a = run.parse_result(line(), EXPECTED)
        b = run.parse_result(line(correct=False, failed=2), EXPECTED)
        c = run.combine([("serve", a), ("grid", b)])
        self.assertFalse(c["correct"])
        self.assertEqual((c["attempted"], c["failed"]), (20, 2))
        self.assertIn("grid.setup_s", c["metrics"])


class BenchmarkFile(unittest.TestCase):
    def test_modes_and_setup_bound(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        e2e = run.expected_metrics(bench, 0)
        self.assertIn(("setup_s", "s"), e2e)
        bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        names = [n for n, _ in e2e + run.expected_metrics(bench, 1)]
        self.assertEqual(len(names), len(set(names)))
        self.assertEqual([w["name"] for w in bench["workloads"]], run.WORKLOADS)


if __name__ == "__main__":
    unittest.main()
