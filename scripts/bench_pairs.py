#!/usr/bin/env python3
"""Alternating parent/change runs in fresh processes, compared pair by pair.

One runner starts every run as a new process in one of two checkouts: with
``PYTHONDONTWRITEBYTECODE=1``, with the checkout's ``src`` first on
``PYTHONPATH`` when the run imports the package, timed by CLOCK_MONOTONIC
from just before the spawn to just after the exit, and stopped by a
``RuntimeError`` naming the command, checkout, exit code and output tail when
it exits with a code its measurement does not accept.  Runs come in pairs,
one a side; pair i runs the parent first when i is even, and the output file
is rewritten after every pair.  A figure is compared over the pairs both
sides of which have run: each side's median and quartiles (linear
interpolation, as numpy's default), the change's wins and ties, the relative
change of the medians and the parent's interquartile range.

``setup_s`` times the interpreter from spawn, so a checkout that imports from
cached bytecode starts faster than one that compiles: the script refuses to
start, naming them, while either checkout holds a ``__pycache__`` under
``src/`` or ``perfbench/``.  It deletes nothing.

The measurements, each a block of the output file:

- ``--workload W --seeds S`` (``end_to_end``, keyed by workload): the command
  ``BENCHMARK.json`` declares (read from the change checkout), with
  ``--workload W --seed S --seconds N --trace 0``, N its ``run_seconds``;
  pair i runs seed ``seeds[i]``.  The figures are every end-to-end metric,
  from the JSON result the run prints last, and ``raw_median_s``, the raw
  median of its timed passes (its ``timing pass:`` line), held to
  ``wall_s``'s bound: the normalised ``wall_s`` divides by a calibration that
  can move when the timed operation's allocations change.  Beside the runs
  and each side's share of failed operations, each metric's comparison gives
  its bound, whether the change's median is worse than the parent's by more,
  and whether it is unresolved: the parent's interquartile range exceeds the
  bound relative to its median, and not every change run beats every parent
  run.  ``--claim W:METRIC`` adds a ``claim`` block, met when the change wins
  at least nine tenths of the pairs, the medians differ by more than the
  parent's interquartile range, and the change failed no larger share of
  its operations than the parent.
- ``--setup-probes N`` (``setup_probes`` in each workload's block): N pairs of
  ``--setup-probe`` runs of that command (probe i at seed ``seeds[i]``,
  cycled, or 0).  The figure is the raw seconds from spawn to the ready stamp
  a probe prints last: perfbench's ``setup_s`` with no calibration.
- ``--tier1 N`` (``tier1``): N pairs of ``python -m pytest -q
  --continue-on-collection-errors`` with ``--junitxml`` (the outcome counts)
  and ``--durations=0 --durations-min=0``.  The figures are the run's wall
  time, each acceptance test's setup (a module fixture's set-up is booked to
  the first test that uses it) and criterion 2's call.
- ``--experiment-default N`` (``experiment_default``): N pairs of ``python -m
  adamabc.cli experiment --out TMP``, each into a fresh temporary directory.
  The figure is its wall time.

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
from functools import partial
from itertools import cycle, islice
from operator import itemgetter
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


def run(cmd, checkout: Path, *, src: bool = False, codes=(0,)):
    """``cmd`` in a new process in ``checkout``, writing no bytecode, with
    the checkout's ``src`` first on PYTHONPATH when ``src`` is set.  Returns
    the finished process, the CLOCK_MONOTONIC nanoseconds read just before
    its spawn and its wall seconds, spawn to exit."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    if src:
        env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))
    t0 = time.monotonic_ns()
    done = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True,
                          check=False)
    wall = (time.monotonic_ns() - t0) / 1e9
    if done.returncode not in codes:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {done.returncode}: "
                           f"{(done.stdout + done.stderr).strip()[-400:]}")
    return done, t0, wall


def benchmark_run(bench: dict, workload: str, checkout: Path, seed: int) -> dict:
    """One benchmark run: its verdict, operation counts, end-to-end metrics
    and raw pass median."""
    done, _, _ = run([*bench["command"], "--workload", workload, "--seed", str(seed),
                      "--seconds", str(bench["run_seconds"]), "--trace", "0"], checkout)
    res = json.loads(done.stdout.strip().splitlines()[-1])
    return {"correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
            **{m["name"]: res["metrics"][m["name"]]["value"] for m in bench["end_to_end"]},
            "raw_median_s": raw_median(done.stdout)}


def setup_probe(command, workload: str, checkout: Path, seed: int) -> dict:
    """Raw seconds from spawning one ``--setup-probe`` process to its
    workload being ready: the CLOCK_MONOTONIC reading it prints last, less
    the one taken just before the spawn."""
    done, t0, _ = run([*command, "--setup-probe", "--workload", workload, "--seed", str(seed)],
                      checkout)
    return {"ready_s": (int(done.stdout.split()[-1]) - t0) / 1e9}


#: the tier-1 command, run in a checkout with its src/ first on PYTHONPATH
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]

#: one line of pytest's ``--durations`` report: seconds, phase, test id
DURATION = re.compile(r"^\s*(\d+(?:\.\d+)?)s (setup|call|teardown)\s+(\S.*?)\s*$", re.MULTILINE)

#: a run keeps the acceptance tests' times: each one's setup, which books the
#: module fixtures' sweeps to the first test that uses them, and its call
ACCEPTANCE = "tests/test_acceptance.py::"
CRITERION_2 = "test_criterion_02_oracle_soundness"


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


def tier1_run(checkout: Path) -> dict:
    """One tier-1 run, which may fail tests (exit 1): its wall time, exit
    code, outcome counts and the acceptance tests' setup and call seconds."""
    with tempfile.TemporaryDirectory() as tmp:
        xml = Path(tmp) / "junit.xml"
        done, _, wall = run([*TIER1, f"--junitxml={xml}", "--durations=0", "--durations-min=0"],
                            checkout, src=True, codes=(0, 1))
        counts = parse_junit(xml.read_text())
    acceptance = {phase: {test[len(ACCEPTANCE):]: sec for test, sec in times.items()
                          if test.startswith(ACCEPTANCE)}
                  for phase, times in parse_durations(done.stdout).items()}
    return {"wall_s": wall, "exit_code": done.returncode, "counts": counts,
            "setup_s": acceptance["setup"], "call_s": acceptance["call"]}


#: a default experiment, run in a checkout with its src/ first on PYTHONPATH
EXPERIMENT = [sys.executable, "-m", "adamabc.cli", "experiment"]


def experiment_run(checkout: Path) -> dict:
    """Wall seconds of one default ``adam-abc experiment`` writing into a
    fresh temporary directory."""
    with tempfile.TemporaryDirectory() as tmp:
        _, _, wall = run([*EXPERIMENT, "--out", tmp], checkout, src=True)
    return {"wall_s": wall}


def paired(runs, figures) -> tuple:
    """The pairs both sides of which have run, as {side: run} in pair order,
    and for each figure (name: the function that reads it from a run) the
    parent's and the change's values over those pairs.  A figure that some
    paired run lacks (reads None) is left out."""
    by_pair = {}
    for r in runs:
        by_pair.setdefault(r["pair"], {})[r["side"]] = r
    pairs = [by_pair[i] for i in sorted(by_pair) if len(by_pair[i]) == 2]
    values = {}
    for name, read in figures.items():
        parent, change = [read(p["parent"]) for p in pairs], [read(p["change"]) for p in pairs]
        if pairs and None not in parent + change:
            values[name] = (parent, change)
    return pairs, values


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
    pairs, values = paired(runs, {m["name"]: itemgetter(m["name"]) for m in metrics})
    out = {"pairs": len(pairs), "seeds": [p["parent"]["seed"] for p in pairs],
           "runs": runs, "failed_share": {}, "metrics": {}}
    if not pairs:
        return out
    for side in ("parent", "change"):
        attempted = sum(p[side]["attempted"] for p in pairs)
        out["failed_share"][side] = sum(p[side]["failed"] for p in pairs) / attempted
    for m in metrics:
        name, sign = m["name"], (1.0 if m["better"] == "higher" else -1.0)
        parent, change = values[name]
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


def tier1_summary(runs) -> dict:
    """The tier-1 block: its runs, and the paired comparison of the wall
    time, of every acceptance test's setup and of criterion 2's call."""
    figures = {"wall_s": itemgetter("wall_s"),
               "call_s." + CRITERION_2: lambda r: r["call_s"].get(CRITERION_2)}
    for t in sorted({t for r in runs for t in r["setup_s"]}):
        figures["setup_s." + t] = lambda r, t=t: r["setup_s"].get(t)
    pairs, values = paired(runs, figures)
    return {"pairs": len(pairs), "runs": runs,
            "metrics": {name: compare(*pc) for name, pc in values.items()}}


def raw_summary(runs, figure: str) -> dict:
    """The paired comparison of one figure, with each side's values in pair
    order as ``raw_s``."""
    _, values = paired(runs, {figure: itemgetter(figure)})
    parent, change = values[figure]
    return dict(compare(parent, change), raw_s={"parent": parent, "change": change})


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
    if args.workload:
        bench = json.loads((args.change / "BENCHMARK.json").read_text())
        wall = next(m for m in bench["end_to_end"] if m["name"] == "wall_s")
        metrics = bench["end_to_end"] + [dict(wall, name="raw_median_s")]
    claimed, colon, metric = (args.claim or "").partition(":")
    if args.claim:
        if not colon:
            ap.error(f"--claim takes WORKLOAD:METRIC, got {args.claim!r}")
        if claimed not in args.workload:
            ap.error(f"--claim names workload {claimed!r}, which no --workload gives")
        if metric not in {m["name"] for m in metrics}:
            ap.error(f"--claim names metric {metric!r}, which is neither an end-to-end metric "
                     "of BENCHMARK.json nor raw_median_s")
    caches = bytecode_caches(args.parent) + bytecode_caches(args.change)
    if caches:
        print("compiled bytecode would time one checkout's set-up apart from the other's; "
              "remove these and rerun:", *caches, sep="\n  ", file=sys.stderr)
        return 2

    checkouts = {"parent": args.parent, "change": args.change}
    doc = {"end_to_end": {}}
    blocks = doc["end_to_end"]

    def alternate(label, inputs, measure, refresh):
        """One pair of ``measure(checkout, **inputs[i])`` runs per pair i,
        each run recorded with its side, inputs, pair and first side; after
        each pair ``refresh(runs)`` updates its block and the file is
        rewritten."""
        runs = []
        for i, given in enumerate(inputs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                print(label, "pair", i, side, *given.values(), file=sys.stderr)
                runs.append({"side": side, **given, "pair": i, "first": order[0],
                             **measure(checkouts[side], **given)})
            refresh(runs)
            args.out.write_text(json.dumps(doc, indent=1) + "\n")

    for w in args.workload:
        def pairs_done(runs, w=w):
            blocks[w] = summarise(runs, metrics)
            if w == claimed:
                doc["claim"] = claim(blocks, claimed, metric)

        def probes_done(runs, w=w):
            blocks.setdefault(w, {})["setup_probes"] = raw_summary(runs, "ready_s")

        alternate(w, [{"seed": s} for s in args.seeds], partial(benchmark_run, bench, w),
                  pairs_done)
        alternate(f"{w} setup probe",
                  [{"seed": s} for s in islice(cycle(args.seeds or [0]), args.setup_probes)],
                  partial(setup_probe, bench["command"], w), probes_done)
    alternate("tier-1", [{}] * args.tier1, tier1_run,
              lambda runs: doc.update(tier1=tier1_summary(runs)))
    alternate("experiment", [{}] * args.experiment_default, experiment_run,
              lambda runs: doc.update(experiment_default=raw_summary(runs, "wall_s")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
