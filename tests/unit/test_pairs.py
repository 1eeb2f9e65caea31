"""Unit tests: the paired-measurement tool's statistics and verdict."""

import importlib.util
import json
from pathlib import Path

import pytest

_PAIRS = Path(__file__).resolve().parents[2] / "benchmarks" / "pairs.py"


@pytest.fixture(scope="module")
def pairs():
    spec = importlib.util.spec_from_file_location("pairs", _PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestQuartiles:
    def test_odd_and_even_series(self, pairs):
        assert pairs.quartiles([5.0, 1.0, 3.0, 2.0, 4.0]) == (2.0, 3.0, 4.0)
        assert pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)

    def test_one_value_is_its_own_quartiles(self, pairs):
        assert pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


class TestSignTest:
    def test_all_wins_of_ten(self, pairs):
        assert pairs.sign_test_p(10, 0) == pytest.approx(2 / 1024)

    def test_symmetric_and_capped_at_one(self, pairs):
        assert pairs.sign_test_p(3, 7) == pairs.sign_test_p(7, 3)
        assert pairs.sign_test_p(5, 5) == 1.0
        assert pairs.sign_test_p(0, 0) == 1.0


class TestVerdict:
    PARENT = [100.0, 104.0, 98.0, 102.0, 101.0, 99.0, 103.0, 97.0, 100.0, 102.0]

    def test_a_clear_drop_in_a_lower_is_better_metric_is_a_gain(self, pairs):
        change = [value * 0.85 for value in self.PARENT]
        row = pairs.compare_series(self.PARENT, change, "lower")
        assert (row["wins"], row["losses"], row["ties"]) == (10, 0, 0)
        assert row["verdict"] == "gain"
        assert row["median_change"] == pytest.approx(-0.15)

    def test_direction_comes_from_better(self, pairs):
        change = [value * 0.85 for value in self.PARENT]
        assert pairs.compare_series(self.PARENT, change, "higher")["verdict"] == "loss"
        assert pairs.compare_series(change, self.PARENT, "higher")["verdict"] == "gain"

    def test_nine_of_ten_wins_is_enough_eight_is_not(self, pairs):
        change = [value * 0.85 for value in self.PARENT]
        nine = change[:9] + [self.PARENT[9] + 1]
        assert pairs.compare_series(self.PARENT, nine, "lower")["verdict"] == "gain"
        eight = change[:8] + [self.PARENT[8] + 1, self.PARENT[9] + 1]
        row = pairs.compare_series(self.PARENT, eight, "lower")
        assert (row["wins"], row["losses"]) == (8, 2)
        assert row["verdict"] == "none"

    def test_ties_count_for_neither_side(self, pairs):
        change = [value - 10 for value in self.PARENT[:9]] + [self.PARENT[9]]
        row = pairs.compare_series(self.PARENT, change, "lower")
        assert (row["wins"], row["losses"], row["ties"]) == (9, 0, 1)
        assert row["verdict"] == "gain"

    def test_every_pair_won_by_less_than_the_parents_spread_is_no_gain(self, pairs):
        parent = [100.0, 120.0, 80.0, 110.0, 90.0, 130.0, 70.0, 105.0, 95.0, 100.0]
        change = [value - 1 for value in parent]
        row = pairs.compare_series(parent, change, "lower")
        assert row["wins"] == 10
        assert row["parent"]["iqr"] > 1
        assert row["verdict"] == "none"

    def test_mismatched_or_empty_series_are_refused(self, pairs):
        with pytest.raises(ValueError):
            pairs.compare_series([1.0, 2.0], [1.0], "lower")
        with pytest.raises(ValueError):
            pairs.compare_series([], [], "lower")
        with pytest.raises(ValueError):
            pairs.compare_series([1.0], [1.0], "faster")


class TestSummary:
    def test_every_metric_both_sides_report_with_its_direction(self, pairs):
        runs = {
            "parent": [{"tps": 100.0, "cpu_us_per_txn": 10.0, "only_parent": 1.0}] * 3,
            "change": [{"tps": 120.0, "cpu_us_per_txn": 8.0}] * 3,
        }
        summary = pairs.summarise(
            runs, ["tps", "cpu_us_per_txn", "only_parent"], {"tps": "higher"}
        )
        assert set(summary) == {"tps", "cpu_us_per_txn"}
        assert summary["tps"]["verdict"] == "gain"
        assert summary["cpu_us_per_txn"]["verdict"] == "gain"  # "lower" by default

    def test_directions_are_read_from_the_benchmark_spec(self, pairs):
        better = pairs.directions(_PAIRS.parents[1])
        spec = json.loads((_PAIRS.parents[1] / "BENCHMARK.json").read_text())
        for metric in spec["end_to_end"]:
            assert better[metric["name"]] == metric["better"]
        assert better["tps"] == "higher" and better["cpu_us_per_txn"] == "lower"
