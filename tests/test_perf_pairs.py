"""The pair statistics of ``tools/perf_pairs.py``: the win count, the
no-regression bound and whether noisy parent runs resolve it, and the gain
rule with its floor of ten pairs."""

import importlib.util
from pathlib import Path

import pytest

# the tool is a script outside the package, so it loads by path
_PATH = Path(__file__).resolve().parent.parent / "tools" / "perf_pairs.py"
_SPEC = importlib.util.spec_from_file_location("perf_pairs", _PATH)
perf_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(perf_pairs)
summarize = perf_pairs.summarize


def test_ties_count_for_neither_side():
    s = summarize([1.0, 2.0, 3.0, 4.0], [1.0, 1.5, 3.0, 4.5], "lower", 0.25)
    assert s["wins"] == 1 and s["pairs"] == 4


@pytest.mark.parametrize("better, factor", [("lower", 0.5), ("higher", 2.0)])
def test_a_clear_gain_on_ten_pairs_holds_in_either_direction(better, factor):
    parent = [1.0 + i / 1000 for i in range(10)]
    change = [value * factor for value in parent]
    s = summarize(parent, change, better, 0.25)
    assert s["wins"] == 10 and s["within_bound"] and s["claim_holds"]
    worse = summarize(parent, [value / factor for value in parent], better, 0.25)
    assert worse["wins"] == 0 and not worse["within_bound"] and not worse["claim_holds"]


@pytest.mark.parametrize("better, edge, past", [("lower", 1.25, 1.2500001),
                                                ("higher", 0.75, 0.7499999)])
def test_a_median_at_the_bound_is_within_it(better, edge, past):
    parent = [1.0] * 10
    assert summarize(parent, [edge] * 10, better, 0.25)["within_bound"]
    assert not summarize(parent, [past] * 10, better, 0.25)["within_bound"]


def test_no_gain_is_claimed_on_fewer_than_ten_pairs():
    parent = [1.0 + i / 1000 for i in range(10)]
    change = [value / 2 for value in parent]
    assert summarize(parent, change, "lower", 0.25)["claim_holds"]
    for pairs in (5, 9):
        s = summarize(parent[:pairs], change[:pairs], "lower", 0.25)
        assert s["wins"] == pairs and not s["claim_holds"]


def test_parent_runs_wider_than_the_bound_leave_the_bound_unresolved():
    # parent quartiles 1.0625 and 1.5 about a median of 1.25: a spread of 35%
    parent = [1.0, 1.0, 1.0, 1.25, 1.25, 1.25, 1.5, 1.5, 1.5, 1.5]
    flat = summarize(parent, parent[::-1], "lower", 0.25)
    assert flat["within_bound"] and not flat["resolved"]
    assert summarize(parent, parent, "lower", 0.5)["resolved"]  # a bound wider than the spread
    # unless every change run beats every parent run
    better = summarize(parent, [0.9] * 10, "lower", 0.25)
    assert better["within_bound"] and better["resolved"]
    overlap = summarize(parent, [0.9] * 9 + [1.0], "lower", 0.25)
    assert not overlap["resolved"]
    higher = summarize(parent, [1.6] * 10, "higher", 0.25)
    assert higher["within_bound"] and higher["resolved"]
