"""Tests of the helpers in tools/bench_pairs.py, tools/src_lines.py,
tools/peak_memory.py, tools/draw_cost.py, tools/start_study.py and
tools/import_cost.py and of the benchmark's hooks in perfbench/tracing.py,
loaded by path (neither directory is a package)."""

import itertools

import pytest

from bdar import inference
from conftest import load_script

bench_pairs = load_script("tools/bench_pairs.py")
src_lines = load_script("tools/src_lines.py")
peak_memory = load_script("tools/peak_memory.py")
draw_cost = load_script("tools/draw_cost.py")
start_study = load_script("tools/start_study.py")
import_cost = load_script("tools/import_cost.py")


def _pair(parent, change, first="parent"):
    def outcome(value):
        return {"metrics": {} if value is None else {"pass_s": {"value": value}}}

    return {"first": first, "parent": outcome(parent), "change": outcome(change)}


def test_parse_seeds_mixes_ranges_and_single_seeds():
    assert bench_pairs.parse_seeds("1-3,8") == [1, 2, 3, 8]
    assert bench_pairs.parse_seeds("5") == [5]


def test_summary_of_one_and_of_four_values():
    assert bench_pairs.summary([0.5]) == {"median": 0.5, "q1": 0.5, "q3": 0.5}
    assert bench_pairs.summary([4.0, 1.0, 3.0, 2.0]) == {"median": 2.5, "q1": 1.75, "q3": 3.25}
    assert bench_pairs.summary([]) == {"median": None, "q1": None, "q3": None}


@pytest.mark.parametrize("better, wins", [("lower", 1), ("higher", 2)])
def test_compare_counts_wins_drops_missing_and_ignores_ties(better, wins):
    # (parent, change): one lower and two higher changes, a tie, and two
    # pairs with a side missing; the change runs first in the second pair
    # and in the tie
    pairs = [_pair(2.0, 1.0), _pair(1.0, 3.0, "change"), _pair(1.0, 4.0), _pair(2.0, 2.0, "change"),
             _pair(None, 1.0), _pair(1.0, None)]
    out = bench_pairs.compare(pairs, bench_pairs.metric("pass_s"), better)
    # wins with the parent first, then with the change first
    by_first = {"lower": (1, 0), "higher": (1, 1)}[better]
    assert out == {
        "better": better,
        "parent": bench_pairs.summary([2.0, 1.0, 1.0, 2.0]),
        "change": bench_pairs.summary([1.0, 3.0, 4.0, 2.0]),
        "change_better_pairs": wins,
        "pairs": 4,
        "by_first": {"parent": {"change_better_pairs": by_first[0], "pairs": 2},
                     "change": {"change_better_pairs": by_first[1], "pairs": 2}},
    }


# ten parent values 10.0, 10.1, ..., 10.9: median 10.45, quartile distance 0.45
_PARENT = [10.0 + 0.1 * k for k in range(10)]


@pytest.mark.parametrize("better, change, want", [
    # every pair won, the medians 0.5 apart
    ("lower", [p - 0.5 for p in _PARENT], "gain"),
    ("higher", [p + 0.5 for p in _PARENT], "gain"),
    # 9 won and a tie, the medians 0.5 apart
    ("lower", [_PARENT[0]] + [p - 0.6 for p in _PARENT[1:]], "gain"),
    # 8 won and two ties, the medians 0.8 apart: ties count for neither side
    ("lower", _PARENT[:2] + [p - 1.0 for p in _PARENT[2:]], "within_bound"),
    # every pair won, but the medians only 0.1 apart
    ("lower", [p - 0.1 for p in _PARENT], "within_bound"),
    # the change's median 2.7 worse, the bound 0.25 * 10.45 = 2.6125
    ("lower", [p + 2.7 for p in _PARENT], "worse"),
    ("higher", [p - 2.7 for p in _PARENT], "worse"),
    ("lower", [p + 2.5 for p in _PARENT], "within_bound"),
    ("lower", [None] * 10, "unresolved"),
])
def test_verdict_follows_the_acceptance_rule(better, change, want):
    pairs = [_pair(a, b) for a, b in zip(_PARENT, change)]
    result = bench_pairs.compare(pairs, bench_pairs.metric("pass_s"), better)
    assert bench_pairs.verdict(result, 0.25) == want


def test_verdict_is_unresolved_where_the_parent_spreads_wider_than_the_bound():
    # parent 10..19: quartile distance 4.5 against the bound's 0.25 * 14.5
    parent = [10.0 + k for k in range(10)]
    result = bench_pairs.compare([_pair(a, a + 0.1) for a in parent], bench_pairs.metric("pass_s"), "lower")
    assert bench_pairs.verdict(result, 0.25) == "unresolved"
    # the same pairs won by more than the quartile distance are a gain
    result = bench_pairs.compare([_pair(a, a - 5.0) for a in parent], bench_pairs.metric("pass_s"), "lower")
    assert bench_pairs.verdict(result, 0.25) == "gain"


def test_count_mismatches_names_counts_that_differ_or_are_missing():
    def outcome(**values):
        units = {"evals": "count", "cells": "count", "spans": "count", "self_s": "s", "calls": "count"}
        return {"metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()}}

    parent = outcome(evals=781.0, cells=0.0, spans=2405.0, self_s=0.5, calls=3.0)
    # a time that moved is no count; a count one side lacks is a mismatch
    change = outcome(evals=780.0, cells=0.0, spans=2405.0, self_s=0.4)
    assert bench_pairs.count_mismatches(parent, change) == ["calls", "evals"]
    assert bench_pairs.count_mismatches(parent, parent) == []
    assert bench_pairs.count_mismatches(parent, {"error": "exit code 1"}) is None


@pytest.mark.parametrize("seeds, warned", [("1-3", True), ("1-4", False)])
def test_bench_pairs_warns_of_an_odd_number_of_seeds(tmp_path, capsys, seeds, warned):
    # the missing checkouts end the run after the warning, before any benchmark
    code = bench_pairs.main(["--parent", str(tmp_path), "--change", str(tmp_path), "--workload", "w",
                             "--seeds", seeds, "--seconds", "1", "--output", str(tmp_path / "out.json")])
    assert code == 2
    assert ("warning: 3 seeds" in capsys.readouterr().err) is warned


_MODULE = '''"""A module docstring
over two lines."""

import math  # a trailing comment counts as code


# a comment-only line
def area(r):
    """One-line docstring."""

    text = """a string that is no docstring
    spans two lines"""
    return (math.pi
            * r ** 2), text


class Shape:
    """A class docstring."""
    sides = 0
'''


def test_src_lines_counts_only_code():
    # import, def, text (2 lines), return (2 lines), class, sides
    assert src_lines.code_lines(_MODULE) == 8


def test_src_lines_table_of_two_trees():
    out = src_lines.table([{"a.py": 10, "b.py": 4}, {"a.py": 7, "c.py": 2}], ["old", "new"])
    rows = [line.split() for line in out.splitlines()]
    assert rows == [
        ["module", "old", "new", "diff"],
        ["a.py", "10", "7", "-3"],
        ["b.py", "4", "0", "-4"],
        ["c.py", "0", "2", "+2"],
        ["total", "14", "9", "-5"],
    ]


def test_peak_memory_reports_every_operation(capsys):
    steps = 500
    assert peak_memory.main(["--steps", str(steps)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[0] == ["operation", "peak_bytes", "bytes_per_step"]
    names = [row[0] for row in rows[1:]]
    assert names == ["simulate", "transition_counts", "conditional_loglik", "forecast", "exact_forecast_pmf"]
    peaks = {row[0]: int(row[1]) for row in rows[1:]}
    # simulate's peak holds at least its output, two int8 states per step
    assert peaks["simulate"] >= 2 * steps
    assert all(float(row[2]) == pytest.approx(int(row[1]) / steps, abs=0.005) for row in rows[1:])


def test_draw_cost_reports_every_figure_per_d(capsys):
    argv = ["--d", "3", "10", "--draws", "2000", "--steps", "500", "--paths", "300", "--repeats", "2"]
    assert draw_cost.main(argv) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[0] == ["d", "random_ms", "innovation_ms", "mechanism_ms", "simulate_ms", "forecast_ms",
                       "innovation_crossed", "mechanism_crossed"]
    assert [row[0] for row in rows[1:]] == ["3", "10"]
    for row in rows[1:]:
        times, shares = [float(x) for x in row[1:6]], [float(x) for x in row[6:]]
        assert all(t > 0.0 for t in times)
        # each of the n cells' steps lies inside at most one of 64 n buckets
        assert all(0.0 <= share <= 1 / 64 for share in shares)


def test_start_study_reports_every_recipe_subset(capsys, monkeypatch):
    monkeypatch.setattr(start_study, "LENGTHS", {})  # the bundled series only
    assert start_study.main([]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    recipes = inference._ALL_RECIPES
    assert rows[0] == ["datasets", "1", "fits", "10", "m5_sub_fit", "mild,strong"]
    assert rows[1] == ["recipes", "worst_loss", "worst_rel", "over_tol", "m1-m5", "runs", "worst_fit"]
    subsets = rows[2:2 + 2 ** len(recipes) - 1]
    assert {frozenset(row[0].split(",")) for row in subsets} == {
        frozenset(c) for k in range(1, len(recipes) + 1) for c in itertools.combinations(recipes, k)
    }
    # every fit from all five recipes, M5's sub-fit from "mild" and
    # "strong": 3, 4, 5, 5 and 5 + 2 + 1 L-BFGS-B runs per family
    assert subsets[0][:6] == [",".join(recipes), "0.00e+00", "0.00e+00", "0", "0,0,0,0,0", "50"]
    for row in subsets:
        by_variant = [int(n) for n in row[4].split(",")]
        assert float(row[1]) >= 0.0 and len(row) == 7
        assert len(by_variant) == 5 and sum(by_variant) == int(row[3]) <= 10
    variants = rows[2 + len(subsets):]
    assert variants[0] == ["variant", "default", "worst_loss", "over_tol", "runs"]
    # a bundled compare makes 19 L-BFGS-B runs per family; a fit of M5
    # alone also makes its M2 sub-fit's two runs
    assert [(row[0], row[1], row[3], row[4]) for row in variants[1:-1]] == [
        ("m1", "mild", "0", "2"),
        ("m2", "mild,strong", "0", "4"),
        ("m3", ",".join(recipes), "0", "10"),
        ("m4", ",".join(recipes), "0", "10"),
        ("m5", ",".join(recipes), "0", "16"),
    ]
    assert variants[-1][0] == "nested_gap" and variants[-1][2].startswith("bundled/")


def test_import_cost_reports_every_stage_and_no_scipy_before_the_fit(capsys):
    assert import_cost.main(["--repeats", "1"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[:2] == [["repeats", "1"], ["stage", "wall_s", "maxrss_mb", "scipy_modules"]]
    assert [row[0] for row in rows[2:]] == ["import", "evaluate", "fit"]
    assert all(float(row[1]) > 0.0 and float(row[2]) > 0.0 for row in rows[2:])
    scipy_modules = [int(row[3]) for row in rows[2:]]
    assert scipy_modules[:2] == [0, 0] and scipy_modules[2] > 0


def test_every_benchmark_hook_finds_its_target():
    # a renamed or deleted name that perfbench/tracing.py hooks would make
    # its per-layer metrics absent from the benchmark
    tracing = load_script("perfbench/tracing.py")
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert tracer.missing == set()
