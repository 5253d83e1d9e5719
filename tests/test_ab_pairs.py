"""The verdicts of scripts/ab_pairs.py on fixed numbers."""

import importlib.util
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "ab_pairs.py"
_spec = importlib.util.spec_from_file_location("ab_pairs", _SCRIPT)
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)

# Ten parent runs of a rate: median 2.5, quartiles 2.4125 and 2.575.
PARENT = [2.3, 2.4, 2.5, 2.6, 2.5, 2.4, 2.6, 2.5, 2.7, 2.45]


def test_quartiles_and_wins_count_pairs_and_ties():
    assert ab_pairs.quartiles(PARENT) == pytest.approx((2.4125, 2.575))
    higher = [p + 0.5 for p in PARENT]
    assert ab_pairs.pairs_won(PARENT, higher, lower_is_better=False) == 10
    assert ab_pairs.pairs_won(PARENT, higher, lower_is_better=True) == 0
    # Equal values win for neither side.
    assert ab_pairs.pairs_won(PARENT, PARENT, lower_is_better=False) == 0


def test_gain_needs_nine_tenths_of_the_pairs():
    change = [p + 0.5 for p in PARENT]
    assert ab_pairs.gain_holds(PARENT, change, lower_is_better=False)
    # One lost pair of ten still holds; two do not.
    one_lost = [2.2] + change[1:]
    assert ab_pairs.pairs_won(PARENT, one_lost, lower_is_better=False) == 9
    assert ab_pairs.gain_holds(PARENT, one_lost, lower_is_better=False)
    two_lost = [2.2, 2.3] + change[2:]
    assert not ab_pairs.gain_holds(PARENT, two_lost, lower_is_better=False)


def test_gain_needs_a_median_gap_wider_than_the_parents_iqr():
    # Every pair won, but the medians differ by 0.1 against an IQR of 0.1625.
    change = [p + 0.1 for p in PARENT]
    assert ab_pairs.pairs_won(PARENT, change, lower_is_better=False) == 10
    assert not ab_pairs.gain_holds(PARENT, change, lower_is_better=False)
    # For a time, lower is better: the same numbers read the other way.
    times = [1 / p for p in PARENT]
    faster = [1 / (p + 0.5) for p in PARENT]
    assert ab_pairs.gain_holds(times, faster, lower_is_better=True)
    assert not ab_pairs.gain_holds(faster, times, lower_is_better=True)


def test_the_bound_is_a_fraction_of_the_parents_median():
    assert ab_pairs.within_bound([1.0, 1.0], [1.25, 1.25], lower_is_better=True, bound=0.25)
    assert not ab_pairs.within_bound([1.0, 1.0], [1.26, 1.26], lower_is_better=True, bound=0.25)
    assert ab_pairs.within_bound([4.0, 4.0], [3.0, 3.0], lower_is_better=False, bound=0.25)
    assert not ab_pairs.within_bound([4.0, 4.0], [2.9, 2.9], lower_is_better=False, bound=0.25)


def runs(rates, failed=0, correct=True):
    """Benchmark results as perfbench/run.py prints them, one per rate."""
    return [{"correct": correct, "attempted": 100, "failed": failed,
             "metrics": {"analyses_per_s": {"value": rate}}} for rate in rates]


RATE = [{"name": "analyses_per_s", "better": "higher", "bound": 0.25}]


def gain_column(parent_runs, change_runs):
    return ab_pairs.report_lines(RATE, parent_runs, change_runs)[1].split()[-1]


def test_no_gain_when_the_change_fails_more_or_reads_incorrect():
    faster = [p + 0.5 for p in PARENT]
    assert gain_column(runs(PARENT), runs(faster)) == "yes"
    # The same rates, but one change run failed an operation or read incorrect.
    one_failed = runs(faster)
    one_failed[3].update(failed=1, correct=False)
    assert gain_column(runs(PARENT), one_failed) == "no"
    assert not ab_pairs.runs_sound(runs(PARENT), one_failed)
    # A larger failed share than the parent's, though every run read correct.
    assert not ab_pairs.runs_sound(runs(PARENT, failed=1), runs(faster, failed=2))
    assert gain_column(runs(PARENT, failed=1), runs(faster, failed=2)) == "no"
    # An equal or smaller failed share keeps the gain.
    assert ab_pairs.runs_sound(runs(PARENT, failed=2), runs(faster, failed=1))
    assert gain_column(runs(PARENT, failed=1), runs(faster, failed=1)) == "yes"
