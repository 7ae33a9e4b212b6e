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

``--setup-probes N`` also times, per workload, N alternating fresh
``perfbench/run.py --setup-probe`` processes a side (probe i at seed
``seeds[i]``, cycled, or 0), raw: spawn to ready, as perfbench's ``setup_s``
times them but with no calibration.  Each workload's ``setup_probes`` block
holds the raw seconds and the comparison (each side's median and quartiles,
wins and ties, the relative change of the medians, the parent's
interquartile range), beside the pairs' normalised ``setup_s``.

``--tier1 N`` alternates N parent and change runs of the tier-1 command,
``python -m pytest -q --continue-on-collection-errors`` with ``src`` on
``PYTHONPATH``, each with ``--junitxml`` (the pass, fail, error, skip and
xfail counts) and ``--durations=0 --durations-min=0`` (each test's setup and
call seconds).  The ``tier1`` block holds the runs and the comparison of the
whole run's wall time, of each acceptance test's setup (a module fixture's
set-up is booked to the first test that uses it) and of criterion 2's call.

``--experiment-default N`` alternates N parent and change runs of a default
``adam-abc experiment`` (``python -m adamabc.cli experiment --out TMP`` with
``src`` on ``PYTHONPATH``), each in a fresh process writing into a fresh
temporary directory.  The ``experiment_default`` block holds each run's wall
seconds, spawn to exit, and their comparison.

Usage:
    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload sweep-wide \\
        --seeds 301-310 --claim sweep-wide:wall_s --out bench_pairs.json
    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --tier1 1 --out tier1.json
    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --experiment-default 10 \\
        --out experiment.json
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
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


def setup_probe(command, checkout: Path, workload: str, seed: int) -> float:
    """Raw seconds from spawning one ``--setup-probe`` process in ``checkout``
    to its workload being ready: the CLOCK_MONOTONIC reading it prints last,
    less the one taken just before the spawn."""
    cmd = [*command, "--setup-probe", "--workload", workload, "--seed", str(seed)]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    t0 = time.monotonic_ns()
    done = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True,
                          check=False)
    if done.returncode != 0 or not done.stdout.split():
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {done.returncode}: "
                           f"{done.stderr.strip()[-400:]}")
    return (int(done.stdout.split()[-1]) - t0) / 1e9


#: the tier-1 command, run in a checkout with its src/ first on PYTHONPATH
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]

#: one line of pytest's ``--durations`` report: seconds, phase, test id
DURATION = re.compile(r"^\s*(\d+(?:\.\d+)?)s (setup|call|teardown)\s+(\S.*?)\s*$", re.MULTILINE)


def parse_junit(text: str) -> dict:
    """The outcome counts of a pytest ``--junitxml`` report: a test case with
    a failure or error element failed or errored, one with a skipped element
    of type pytest.xfail is an xfail, any other skipped element a skip, and
    the rest passed."""
    counts = dict.fromkeys(("tests", "passed", "failed", "errors", "skipped", "xfailed"), 0)
    for case in ET.fromstring(text).iter("testcase"):
        counts["tests"] += 1
        if case.find("failure") is not None:
            counts["failed"] += 1
        elif case.find("error") is not None:
            counts["errors"] += 1
        elif (skip := case.find("skipped")) is not None:
            counts["xfailed" if skip.get("type") == "pytest.xfail" else "skipped"] += 1
        else:
            counts["passed"] += 1
    return counts


def parse_durations(stdout: str) -> dict:
    """{phase: {test id: seconds}} from pytest's ``--durations`` report."""
    out = {"setup": {}, "call": {}, "teardown": {}}
    for seconds, phase, test in DURATION.findall(stdout):
        out[phase][test] = float(seconds)
    return out


def src_env() -> dict:
    """The environment of a run that imports a checkout's package: its
    ``src`` first on PYTHONPATH, and no bytecode written."""
    return dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                PYTHONPATH=os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")])))


def run_tier1(checkout: Path) -> dict:
    """One tier-1 run in ``checkout``: its wall time, exit code, outcome
    counts and per-test setup and call seconds."""
    env = src_env()
    with tempfile.TemporaryDirectory() as tmp:
        xml = Path(tmp) / "junit.xml"
        cmd = [*TIER1, f"--junitxml={xml}", "--durations=0", "--durations-min=0"]
        t0 = time.perf_counter()
        done = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True,
                              check=False)
        wall = time.perf_counter() - t0
        if done.returncode not in (0, 1) or not xml.exists():
            raise RuntimeError(f"tier-1 in {checkout} exited {done.returncode}: "
                               f"{(done.stdout + done.stderr).strip()[-400:]}")
        counts = parse_junit(xml.read_text())
    acceptance = {phase: {test[len(ACCEPTANCE):]: sec for test, sec in times.items()
                          if test.startswith(ACCEPTANCE)}
                  for phase, times in parse_durations(done.stdout).items()}
    return {"wall_s": wall, "exit_code": done.returncode, "counts": counts,
            "setup_s": acceptance["setup"], "call_s": acceptance["call"]}


#: a default experiment, run in a checkout with its src/ first on PYTHONPATH
EXPERIMENT = [sys.executable, "-m", "adamabc.cli", "experiment"]


def run_experiment_default(checkout: Path) -> float:
    """Wall seconds of one default ``adam-abc experiment`` in a fresh process
    in ``checkout``, spawn to exit, writing into a fresh temporary directory."""
    with tempfile.TemporaryDirectory() as tmp:
        cmd = [*EXPERIMENT, "--out", tmp]
        t0 = time.perf_counter()
        done = subprocess.run(cmd, cwd=checkout, env=src_env(), capture_output=True, text=True,
                              check=False)
        wall = time.perf_counter() - t0
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {done.returncode}: "
                           f"{done.stderr.strip()[-400:]}")
    return wall


#: a run keeps the acceptance tests' times: each one's setup, which books the
#: module fixtures' sweeps to the first test that uses them, and its call
ACCEPTANCE = "tests/test_acceptance.py::"
CRITERION_2 = "test_criterion_02_oracle_soundness"


def paired(runs) -> list:
    """{side: run} for every pair both sides of which have run, in pair order."""
    by_pair = {}
    for r in runs:
        by_pair.setdefault(r["pair"], {})[r["side"]] = r
    return [by_pair[i] for i in sorted(by_pair) if len(by_pair[i]) == 2]


def tier1_summary(runs) -> dict:
    """The tier-1 block: its runs, and the paired comparison of the wall
    time, of every acceptance test's setup and of criterion 2's call."""
    pairs = paired(runs)
    figures = {"wall_s": lambda r: r["wall_s"],
               "call_s." + CRITERION_2: lambda r: r["call_s"].get(CRITERION_2)}
    for t in sorted({t for r in runs for t in r["setup_s"]}):
        figures["setup_s." + t] = lambda r, t=t: r["setup_s"].get(t)
    out = {"pairs": len(pairs), "runs": runs, "metrics": {}}
    for name, read in figures.items():
        values = [(read(p["parent"]), read(p["change"])) for p in pairs]
        if pairs and all(v is not None for pc in values for v in pc):
            out["metrics"][name] = compare(*zip(*values))
    return out


def quartiles(values) -> dict:
    values = sorted(values)
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": med, "q3": q3}


def compare(parent, change, better: str = "lower") -> dict:
    """Paired values of one metric, parent[i] against change[i]: each side's
    median and quartiles, the change's wins and ties, the relative change of
    the medians and the parent's interquartile range."""
    sign = 1.0 if better == "higher" else -1.0
    diffs = [sign * (c - p) for p, c in zip(parent, change)]
    qp, qc = quartiles(parent), quartiles(change)
    return {
        "parent": qp,
        "change": qc,
        "change_wins": sum(d > 0 for d in diffs),
        "ties": sum(d == 0 for d in diffs),
        "median_change_rel": (qc["median"] - qp["median"]) / qp["median"] if qp["median"] else 0.0,
        "parent_iqr": qp["q3"] - qp["q1"],
    }


def summarise(runs, metrics) -> dict:
    """The per-workload summary of one workload's runs.

    ``runs`` are run records (``side``, ``pair``, ``seed``, ``attempted``,
    ``failed`` and one value per metric); ``metrics`` are BENCHMARK.json's
    end-to-end entries.
    """
    pairs = paired(runs)
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
        c = compare(parent, change, m["better"])
        separated = min(sign * c for c in change) > max(sign * p for p in parent)
        out["metrics"][name] = dict(
            c,
            bound=m["bound"],
            worse_than_bound=-sign * c["median_change_rel"] > m["bound"],
            unresolved=c["parent_iqr"] > m["bound"] * abs(c["parent"]["median"])
            and not separated,
        )
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
    ap.add_argument("--workload", action="append", default=[],
                    help="workload name; repeat for several")
    ap.add_argument("--seeds", type=parse_seeds, default=[],
                    help="one seed per pair, e.g. 301-310")
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--claim", default=None, help="WORKLOAD:METRIC the change claims a gain on")
    ap.add_argument("--setup-probes", type=int, default=0, metavar="N",
                    help="also time N raw set-up probes a side per workload")
    ap.add_argument("--tier1", type=int, default=0, metavar="N",
                    help="also run N tier-1 pairs")
    ap.add_argument("--experiment-default", type=int, default=0, metavar="N",
                    help="also time N default experiment processes a side")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    if (not (args.workload and (args.seeds or args.setup_probes)) and not args.tier1
            and not args.experiment_default):
        ap.error("nothing to run: give --workload with --seeds or --setup-probes, --tier1 "
                 "or --experiment-default")
    caches = bytecode_caches(args.parent) + bytecode_caches(args.change)
    if caches:
        print("compiled bytecode would time one checkout's set-up apart from the other's; "
              "remove these and rerun:", *caches, sep="\n  ", file=sys.stderr)
        return 2

    if args.workload:
        bench = json.loads((args.change / "BENCHMARK.json").read_text())
        names = [m["name"] for m in bench["end_to_end"]]
        wall = next(m for m in bench["end_to_end"] if m["name"] == "wall_s")
        metrics = bench["end_to_end"] + [dict(wall, name="raw_median_s")]
    claimed = args.claim.split(":") if args.claim else None
    sides = {"parent": args.parent, "change": args.change}

    def order(pair):  # the parent first in even pairs, the change in odd ones
        return ("parent", "change") if pair % 2 == 0 else ("change", "parent")

    doc = {"end_to_end": {}}
    for workload in args.workload:
        runs = []
        for pair, seed in enumerate(args.seeds):
            for side in order(pair):
                res = run_once(bench["command"], sides[side], workload, seed, args.seconds)
                rec = {"side": side, "seed": seed, "pair": pair, "first": order(pair)[0],
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
        if args.setup_probes:
            raw = {"parent": [], "change": []}
            for i in range(args.setup_probes):
                seed = args.seeds[i % len(args.seeds)] if args.seeds else 0
                for side in order(i):
                    raw[side].append(setup_probe(bench["command"], sides[side], workload, seed))
            block = doc["end_to_end"].setdefault(workload, {})
            block["setup_probes"] = dict(compare(raw["parent"], raw["change"]), raw_s=raw)
            args.out.write_text(json.dumps(doc, indent=1) + "\n")
    if args.tier1:
        runs = []
        for pair in range(args.tier1):
            for side in order(pair):
                res = run_tier1(sides[side])
                runs.append(dict(res, side=side, pair=pair, first=order(pair)[0]))
                print(f"tier-1 pair {pair} {side}: {res['wall_s']:.1f} s {res['counts']}",
                      file=sys.stderr)
                doc["tier1"] = tier1_summary(runs)
                args.out.write_text(json.dumps(doc, indent=1) + "\n")
    if args.experiment_default:
        raw = {"parent": [], "change": []}
        for i in range(args.experiment_default):
            for side in order(i):
                raw[side].append(run_experiment_default(sides[side]))
                print(f"experiment pair {i} {side}: {raw[side][-1]:.3f} s", file=sys.stderr)
        doc["experiment_default"] = dict(compare(raw["parent"], raw["change"]), raw_s=raw)
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
