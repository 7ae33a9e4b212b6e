"""The summary that scripts/bench_pairs.py writes, on synthetic run records."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "wall_s", "better": "lower", "bound": 0.25},
    {"name": "ok_frac", "better": "higher", "bound": 0.01},
]


def records(parent_walls, change_walls):
    runs = []
    for pair, (p, c) in enumerate(zip(parent_walls, change_walls)):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            wall = p if side == "parent" else c
            runs.append({"side": side, "seed": 300 + pair, "pair": pair, "first": order[0],
                         "correct": True, "attempted": 4, "failed": 0,
                         "wall_s": wall, "ok_frac": 1.0})
    return runs


def test_parse_seeds():
    assert bench_pairs.parse_seeds("301-303,307") == [301, 302, 303, 307]


def test_summary_medians_quartiles_wins_and_ties():
    parent = [1.0, 1.2, 1.1, 1.4, 1.3]
    change = [0.8, 0.9, 1.1, 0.7, 1.0]  # pair 2 ties
    s = bench_pairs.summarise(records(parent, change), METRICS)
    assert s["pairs"] == 5 and s["seeds"] == [300, 301, 302, 303, 304]
    wall = s["metrics"]["wall_s"]
    # linear interpolation over the sorted values 1.0 .. 1.4
    assert wall["parent"] == pytest.approx({"q1": 1.1, "median": 1.2, "q3": 1.3})
    assert wall["change"]["median"] == pytest.approx(0.9)
    assert wall["change_wins"] == 4 and wall["ties"] == 1
    assert wall["median_change_rel"] == pytest.approx(-0.25)
    assert wall["parent_iqr"] == pytest.approx(0.2)
    assert wall["worse_than_bound"] is False
    ok = s["metrics"]["ok_frac"]
    assert ok["change_wins"] == 0 and ok["ties"] == 5 and ok["median_change_rel"] == 0.0


def test_worse_than_bound_follows_the_metric_direction():
    s = bench_pairs.summarise(records([1.0, 1.0, 1.0], [1.3, 1.3, 1.3]), METRICS)
    assert s["metrics"]["wall_s"]["worse_than_bound"] is True
    slower = [dict(r, ok_frac=0.9) if r["side"] == "change" else r for r in records([1.0], [1.0])]
    assert bench_pairs.summarise(slower, METRICS)["metrics"]["ok_frac"]["worse_than_bound"] is True


def test_claim_needs_nine_tenths_of_pairs_and_a_gap_over_the_parent_iqr():
    parent = [1.0 + 0.01 * i for i in range(10)]
    summary = {"w": bench_pairs.summarise(records(parent, [0.8] * 10), METRICS)}
    assert bench_pairs.claim(summary, "w", "wall_s")["met"] is True
    # eight wins of ten is too few
    summary = {"w": bench_pairs.summarise(records(parent, [0.8] * 8 + [2.0] * 2), METRICS)}
    c = bench_pairs.claim(summary, "w", "wall_s")
    assert c["change_wins"] == 8 and c["met"] is False
    # every pair won, but by less than the parent's spread
    summary = {"w": bench_pairs.summarise(records(parent, [p - 0.001 for p in parent]), METRICS)}
    c = bench_pairs.claim(summary, "w", "wall_s")
    assert c["change_wins"] == 10 and c["met"] is False


def test_an_unfinished_pair_is_left_out():
    runs = records([1.0, 1.1], [0.9, 1.0])[:3]
    s = bench_pairs.summarise(runs, METRICS)
    assert s["pairs"] == 1 and len(s["runs"]) == 3


def test_claim_is_not_met_when_the_change_fails_a_larger_share_of_operations():
    parent = [1.0 + 0.01 * i for i in range(10)]
    runs = records(parent, [0.8] * 10)
    summary = {"w": bench_pairs.summarise(runs, METRICS)}
    assert summary["w"]["failed_share"] == {"parent": 0.0, "change": 0.0}
    assert bench_pairs.claim(summary, "w", "wall_s")["met"] is True
    # one failed operation of the change's 40 sinks a claim that wins every pair
    runs[1] = dict(runs[1], failed=1)
    assert runs[1]["side"] == "change"
    summary = {"w": bench_pairs.summarise(runs, METRICS)}
    assert summary["w"]["failed_share"] == {"parent": 0.0, "change": 1 / 40}
    c = bench_pairs.claim(summary, "w", "wall_s")
    assert c["change_wins"] == 10 and c["met"] is False


def test_a_parent_spread_wider_than_the_bound_leaves_the_metric_unresolved():
    # a parent IQR of 0.4 over a median of 1.0 exceeds wall_s's bound of 0.25
    parent = [0.7, 1.3, 0.8, 1.2, 1.0]
    s = bench_pairs.summarise(records(parent, [1.0, 1.1, 0.9, 1.0, 1.0]), METRICS)
    assert s["metrics"]["wall_s"]["parent_iqr"] == pytest.approx(0.4)
    assert s["metrics"]["wall_s"]["unresolved"] is True
    # ... unless every change run beats every parent run
    s = bench_pairs.summarise(records(parent, [0.6, 0.5, 0.6, 0.4, 0.5]), METRICS)
    assert s["metrics"]["wall_s"]["unresolved"] is False
    # a spread within the bound resolves the metric
    s = bench_pairs.summarise(records([1.0, 1.1, 0.9, 1.0, 1.0], parent), METRICS)
    assert s["metrics"]["wall_s"]["unresolved"] is False
