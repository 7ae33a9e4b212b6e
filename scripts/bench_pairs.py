#!/usr/bin/env python3
"""Alternating parent/change benchmark pairs, summarised per workload.

Runs the benchmark command that ``BENCHMARK.json`` (read from the change
checkout) declares, ``python3 perfbench/run.py``, with ``--workload W --seed S
--seconds N --trace 0`` in each of two checkout directories, one new process
per run.  Pair i uses seed ``seeds[i]`` on both sides; the parent runs first
in even pairs and the change in odd ones.  The last line a run prints is its
JSON result; every end-to-end metric the benchmark declares is taken from it.
Beside them each run keeps ``raw_median_s``, the raw median of its timed
passes from its ``timing pass:`` line, summarised like ``wall_s`` and under
its bound: the normalised ``wall_s`` divides by a calibration that can move
when the timed operation's allocations change, the raw median cannot.

The output file holds an ``end_to_end`` block, keyed by workload: the raw
runs, each side's share of failed operations over the pairs, and per metric
each side's median and quartiles (linear interpolation, as numpy's default),
the change's wins and ties over the pairs, the relative change of the
medians, the parent's interquartile range, the metric's bound, whether the
change's median is worse than the parent's by more than it, and whether the
metric is unresolved: the parent's interquartile range exceeds the bound
relative to its median, and not every change run beats every parent run.
With ``--claim W:METRIC`` it also holds a ``claim`` block: met when the change
wins at least nine tenths of the pairs, the medians differ by more than the
parent's interquartile range, and the change failed no larger share of its
operations than the parent.  The file is rewritten after every pair.

``setup_s`` times the interpreter from spawn, so a checkout that imports
from cached bytecode starts faster than one that compiles.  Every run is
made with ``PYTHONDONTWRITEBYTECODE=1``, and the script refuses to start,
naming the directories, while either checkout holds a ``__pycache__`` under
``src/`` or ``perfbench/``; it deletes nothing.

Usage:
    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload sweep-wide \\
        --seeds 301-310 --claim sweep-wide:wall_s --out bench_pairs.json
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path


def parse_seeds(text: str) -> list:
    """'301-303,307' -> [301, 302, 303, 307]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


#: the raw median of the timed passes, from the line perfbench prints for them
RAW_MEDIAN = re.compile(r"^timing pass: n=\d+ raw median (\S+) s", re.MULTILINE)


def raw_median(stdout: str) -> float:
    """The raw pass median a benchmark run printed."""
    found = RAW_MEDIAN.search(stdout)
    if found is None:
        raise RuntimeError("no 'timing pass:' line in the benchmark's output")
    return float(found.group(1))


def bytecode_caches(checkout: Path) -> list:
    """The ``__pycache__`` directories under a checkout's src/ and perfbench/,
    whose bytecode would speed that side's set-up."""
    return sorted(d for top in ("src", "perfbench") for d in (checkout / top).rglob("__pycache__"))


def run_once(command, checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark process in ``checkout``; its final JSON line, parsed,
    with its raw pass median as ``raw_median_s``."""
    cmd = [*command, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True,
                          check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {done.returncode}: "
                           f"{done.stderr.strip()[-400:]}")
    return dict(json.loads(lines[-1]), raw_median_s=raw_median(done.stdout))


def quartiles(values) -> dict:
    values = sorted(values)
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": med, "q3": q3}


def summarise(runs, metrics) -> dict:
    """The per-workload summary of one workload's runs.

    ``runs`` are run records (``side``, ``pair``, ``seed``, ``attempted``,
    ``failed`` and one value per metric); ``metrics`` are BENCHMARK.json's
    end-to-end entries.
    """
    by_pair = {}
    for r in runs:
        by_pair.setdefault(r["pair"], {})[r["side"]] = r
    pairs = [by_pair[i] for i in sorted(by_pair) if len(by_pair[i]) == 2]
    out = {"pairs": len(pairs), "seeds": [p["parent"]["seed"] for p in pairs],
           "runs": runs, "failed_share": {}, "metrics": {}}
    if not pairs:
        return out
    for side in ("parent", "change"):
        attempted = sum(p[side]["attempted"] for p in pairs)
        out["failed_share"][side] = sum(p[side]["failed"] for p in pairs) / attempted
    for m in metrics:
        name, sign = m["name"], (1.0 if m["better"] == "higher" else -1.0)
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        diffs = [sign * (c - p) for p, c in zip(parent, change)]
        qp, qc = quartiles(parent), quartiles(change)
        rel = (qc["median"] - qp["median"]) / qp["median"] if qp["median"] else 0.0
        iqr = qp["q3"] - qp["q1"]
        separated = min(sign * c for c in change) > max(sign * p for p in parent)
        out["metrics"][name] = {
            "parent": qp,
            "change": qc,
            "change_wins": sum(d > 0 for d in diffs),
            "ties": sum(d == 0 for d in diffs),
            "median_change_rel": rel,
            "parent_iqr": iqr,
            "bound": m["bound"],
            "worse_than_bound": -sign * rel > m["bound"],
            "unresolved": iqr > m["bound"] * abs(qp["median"]) and not separated,
        }
    return out


def claim(summary: dict, workload: str, metric: str) -> dict:
    """The gain rule: at least 9/10 of the pairs won, a median gap wider than
    the parent's interquartile range, and no larger share of failed
    operations than the parent's."""
    s = summary[workload]["metrics"][metric]
    pairs = summary[workload]["pairs"]
    failed = summary[workload]["failed_share"]
    gap = abs(s["change"]["median"] - s["parent"]["median"])
    return {
        "workload": workload,
        "metric": metric,
        "pairs": pairs,
        "change_wins": s["change_wins"],
        "parent_median": s["parent"]["median"],
        "change_median": s["change"]["median"],
        "median_change_rel": s["median_change_rel"],
        "parent_iqr": s["parent_iqr"],
        "failed_share": failed,
        "met": (10 * s["change_wins"] >= 9 * pairs and gap > s["parent_iqr"]
                and failed["change"] <= failed["parent"]),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", action="append", required=True,
                    help="workload name; repeat for several")
    ap.add_argument("--seeds", required=True, type=parse_seeds,
                    help="one seed per pair, e.g. 301-310")
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--claim", default=None, help="WORKLOAD:METRIC the change claims a gain on")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    caches = bytecode_caches(args.parent) + bytecode_caches(args.change)
    if caches:
        print("compiled bytecode would time one checkout's set-up apart from the other's; "
              "remove these and rerun:", *caches, sep="\n  ", file=sys.stderr)
        return 2

    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    names = [m["name"] for m in bench["end_to_end"]]
    wall = next(m for m in bench["end_to_end"] if m["name"] == "wall_s")
    metrics = bench["end_to_end"] + [dict(wall, name="raw_median_s")]
    claimed = args.claim.split(":") if args.claim else None
    sides = {"parent": args.parent, "change": args.change}
    doc = {"end_to_end": {}}
    for workload in args.workload:
        runs = []
        for pair, seed in enumerate(args.seeds):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                res = run_once(bench["command"], sides[side], workload, seed, args.seconds)
                rec = {"side": side, "seed": seed, "pair": pair, "first": order[0],
                       "correct": res["correct"], "attempted": res["attempted"],
                       "failed": res["failed"]}
                rec.update({n: res["metrics"][n]["value"] for n in names})
                rec["raw_median_s"] = res["raw_median_s"]
                runs.append(rec)
                print(f"{workload} pair {pair} seed {seed} {side}: wall_s {rec['wall_s']:.4g}",
                      file=sys.stderr)
            doc["end_to_end"][workload] = summarise(runs, metrics)
            if claimed and claimed[0] in doc["end_to_end"]:
                doc["claim"] = claim(doc["end_to_end"], *claimed)
            args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
