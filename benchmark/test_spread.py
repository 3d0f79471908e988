"""Self-tests of the benchmark's Python side.

    python3 -m unittest discover -s benchmark -p 'test_*.py'
"""

import json
import os
import re
import statistics
import unittest

import spread

HERE = os.path.dirname(os.path.abspath(__file__))


def declared(const):
    """(name, unit) pairs of a metric list in src/metrics.rs."""
    with open(os.path.join(HERE, "src", "metrics.rs")) as f:
        src = f.read()
    block = src[src.index(f"pub const {const}"):]
    block = block[: block.index("];")]
    return re.findall(r'\("([^"]+)", "([^"]+)"\)', block)


class QuartileSpread(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [10.0, 12.0, 11.0, 13.0, 9.0, 10.5, 11.5, 12.5, 9.5, 10.0]
        q1, _, q3 = statistics.quantiles(values, n=4)
        med, sp = spread.spread(values)
        self.assertEqual(med, statistics.median(values))
        self.assertAlmostEqual(sp, (q3 - q1) / med)

    def test_known_values(self):
        # Exclusive method: quartiles of 1..9 are 2.5 and 7.5.
        med, sp = spread.spread([float(x) for x in range(1, 10)])
        self.assertEqual(med, 5.0)
        self.assertAlmostEqual(sp, 1.0)

    def test_constant_values_have_no_spread(self):
        self.assertEqual(spread.spread([3.0, 3.0, 3.0]), (3.0, 0.0))


class ResultLine(unittest.TestCase):
    def test_takes_the_last_line(self):
        out = "note x\n" + json.dumps(
            {"correct": True, "attempted": 3, "failed": 0, "metrics": {}})
        self.assertEqual(spread.parse_result(out)["attempted"], 3)

    def test_rejects_extra_keys(self):
        with self.assertRaises(ValueError):
            spread.parse_result(json.dumps(
                {"correct": True, "attempted": 1, "failed": 0, "metrics": {}, "x": 1}))

    def test_seed_ranges(self):
        self.assertEqual(spread.parse_seeds("1-3,7"), [1, 2, 3, 7])


class BenchmarkFile(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            self.bench = json.load(f)

    def test_metrics_match_what_the_program_prints(self):
        for key, const in (("end_to_end", "END_TO_END"), ("per_layer", "PER_LAYER")):
            listed = [(m["name"], m["unit"]) for m in self.bench[key]]
            self.assertEqual(listed, declared(const), key)

    def test_setup_bound_is_the_largest(self):
        bounds = {m["name"]: m["bound"] for m in self.bench["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))

    def test_workloads_match_the_program(self):
        with open(os.path.join(HERE, "src", "main.rs")) as f:
            main = f.read()
        names = [w["name"] for w in self.bench["workloads"]]
        self.assertIn("const WORKLOADS: &[&str] = &[" + ", ".join(
            f'"{n}"' for n in names) + "];", main)


if __name__ == "__main__":
    unittest.main()
