"""The summary that scripts/bench_pairs.py writes, on synthetic run records."""

import importlib.util
import json
import os
import subprocess
import sys
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


def test_the_raw_pass_median_is_read_from_its_timing_line_and_summarised():
    stdout = (
        "timing setup: n=1 raw median 0.2 s min 0.2 max 0.2; normalised median 0.3 s\n"
        "timing pass: n=9 raw median 0.593412 s min 0.5 max 0.7; normalised median 0.746 s\n"
        "timing untraced pass: n=3 raw median 0.61 s min 0.6 max 0.62; normalised median 0.8 s\n"
    )
    assert bench_pairs.raw_median(stdout) == 0.593412
    with pytest.raises(RuntimeError, match="timing pass"):
        bench_pairs.raw_median(stdout.splitlines()[0])
    raw = {"name": "raw_median_s", "better": "lower", "bound": 0.25}
    runs = [dict(r, raw_median_s=r["wall_s"] / 2) for r in records([1.0, 1.2, 1.1], [1.0] * 3)]
    s = bench_pairs.summarise(runs, METRICS + [raw])
    assert s["metrics"]["raw_median_s"]["parent"]["median"] == pytest.approx(0.55)
    assert s["metrics"]["raw_median_s"]["change_wins"] == 2


def test_runs_start_only_when_neither_checkout_holds_bytecode_caches(tmp_path, monkeypatch,
                                                                     capsys):
    parent, change, out = tmp_path / "parent", tmp_path / "change", tmp_path / "pairs.json"
    for checkout in (parent, change):
        (checkout / "src" / "adamabc").mkdir(parents=True)
        (checkout / "perfbench").mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps(
        {"command": ["python3", "perfbench/run.py"], "run_seconds": 25, "end_to_end": METRICS}))
    started = []

    def fake_run(cmd, cwd, env, **kw):
        started.append((cwd, env.get("PYTHONDONTWRITEBYTECODE")))
        result = {"correct": True, "attempted": 4, "failed": 0,
                  "metrics": {"wall_s": {"value": 1.0}, "ok_frac": {"value": 1.0}}}
        stdout = f"timing pass: n=3 raw median 0.5 s\n{json.dumps(result)}\n"
        return subprocess.CompletedProcess(cmd, 0, stdout, "")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    argv = [str(parent), str(change), "--workload", "w", "--seeds", "1", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    assert started == [(parent, "1"), (change, "1")] and out.exists()

    out.unlink()
    started.clear()
    for cache in (parent / "src" / "adamabc" / "__pycache__", change / "perfbench" / "__pycache__"):
        cache.mkdir()
        assert bench_pairs.main(argv) == 2
        assert str(cache) in capsys.readouterr().err
        assert started == [] and not out.exists() and cache.is_dir()


JUNIT = """<?xml version="1.0" encoding="utf-8"?>
<testsuites name="pytest tests"><testsuite name="pytest" errors="1" failures="1" skipped="2"
 tests="6" time="12.5">
<testcase classname="tests.test_a" name="test_pass" time="0.1"/>
<testcase classname="tests.test_a" name="test_fail" time="0.2"><failure message="no"/></testcase>
<testcase classname="tests.test_a" name="test_error" time="0.0"><error message="x"/></testcase>
<testcase classname="tests.test_a" name="test_xfail" time="0.3">
 <skipped type="pytest.xfail" message="known"/></testcase>
<testcase classname="tests.test_a" name="test_skip" time="0.0">
 <skipped type="pytest.skip" message="off"/></testcase>
<testcase classname="tests.test_acceptance" name="test_criterion_02_oracle_soundness"
 time="0.8"/>
</testsuite></testsuites>
"""


def durations(setup_4a, call_2):
    return ("=== slowest durations ===\n"
            f"{setup_4a:.2f}s setup    tests/test_acceptance.py::"
            "test_criterion_04a_rate_slope_delta_positive\n"
            f"{call_2:.2f}s call     tests/test_acceptance.py::test_criterion_02_oracle_soundness\n"
            "0.01s call     tests/test_a.py::test_pass[1-2]\n"
            "0.00s teardown tests/test_a.py::test_pass[1-2]\n"
            "1 passed in 1.00s\n")


def test_tier1_counts_and_times_are_read_from_junit_xml_and_durations():
    assert bench_pairs.parse_junit(JUNIT) == {"tests": 6, "passed": 2, "failed": 1, "errors": 1,
                                              "skipped": 1, "xfailed": 1}
    phases = bench_pairs.parse_durations(durations(34.7, 0.83))
    assert phases["setup"] == {
        "tests/test_acceptance.py::test_criterion_04a_rate_slope_delta_positive": 34.7}
    assert phases["call"] == {"tests/test_acceptance.py::test_criterion_02_oracle_soundness": 0.83,
                              "tests/test_a.py::test_pass[1-2]": 0.01}
    assert phases["teardown"] == {"tests/test_a.py::test_pass[1-2]": 0.0}


def test_tier1_pairs_alternate_and_compare_wall_setup_and_call(tmp_path, monkeypatch):
    parent, change, out = tmp_path / "parent", tmp_path / "change", tmp_path / "tier1.json"
    for checkout in (parent, change):
        checkout.mkdir()
    started = []

    def fake_run(cmd, cwd, env, **kw):  # no pytest is started: the reports are written here
        side = "parent" if cwd == parent else "change"
        path = env["PYTHONPATH"].split(os.pathsep)[0]
        started.append((side, env["PYTHONDONTWRITEBYTECODE"], path))
        xml = next(a for a in cmd if a.startswith("--junitxml=")).split("=", 1)[1]
        Path(xml).write_text(JUNIT)
        slow = 2.0 if side == "parent" else 1.0
        return subprocess.CompletedProcess(cmd, 1, durations(30.0 * slow, 0.8 * slow), "")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    assert bench_pairs.main([str(parent), str(change), "--tier1", "2", "--out", str(out)]) == 0
    assert started == [("parent", "1", "src"), ("change", "1", "src"),
                       ("change", "1", "src"), ("parent", "1", "src")]
    tier1 = json.loads(out.read_text())["tier1"]
    assert tier1["pairs"] == 2
    assert [r["first"] for r in tier1["runs"]] == ["parent", "parent", "change", "change"]
    assert all(r["exit_code"] == 1 and r["counts"]["xfailed"] == 1 for r in tier1["runs"])
    m = tier1["metrics"]
    assert set(m) == {"wall_s", "call_s.test_criterion_02_oracle_soundness",
                      "setup_s.test_criterion_04a_rate_slope_delta_positive"}
    setup = m["setup_s.test_criterion_04a_rate_slope_delta_positive"]
    assert setup["parent"]["median"] == 60.0 and setup["change"]["median"] == 30.0
    assert setup["change_wins"] == 2 and setup["median_change_rel"] == pytest.approx(-0.5)
    assert m["call_s.test_criterion_02_oracle_soundness"]["change_wins"] == 2


STUB_RUN = """import sys, time
args = sys.argv[1:]
assert args[:3] == ["--setup-probe", "--workload", "w"], args
print("set up", args[4])
print(time.monotonic_ns() + {delay_ns})
"""


def test_setup_probes_time_fresh_stub_processes_raw(tmp_path):
    parent, change, out = tmp_path / "parent", tmp_path / "change", tmp_path / "probes.json"
    # the parent stub's ready stamp reads 1 s late, so no run sleeps
    for checkout, delay_ns in ((parent, 10**9), (change, 0)):
        (checkout / "perfbench").mkdir(parents=True)
        (checkout / "perfbench" / "run.py").write_text(STUB_RUN.format(delay_ns=delay_ns))
    (change / "BENCHMARK.json").write_text(json.dumps(
        {"command": [sys.executable, "perfbench/run.py"], "run_seconds": 25,
         "end_to_end": METRICS}))
    argv = [str(parent), str(change), "--workload", "w", "--setup-probes", "3", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    probes = json.loads(out.read_text())["end_to_end"]["w"]["setup_probes"]
    assert [len(probes["raw_s"][side]) for side in ("parent", "change")] == [3, 3]
    # spawn to ready: at least the parent stub's 1 s stamp offset, every probe
    assert min(probes["raw_s"]["parent"]) >= 1.0 > 0.0 < min(probes["raw_s"]["change"])
    assert probes["change_wins"] == 3 and probes["median_change_rel"] < 0
    assert probes["parent"]["median"] == sorted(probes["raw_s"]["parent"])[1]


STUB_CLI = """import os, sys, time
args = sys.argv[1:]
assert args[:2] == ["experiment", "--out"] and os.path.isdir(args[2]), args
assert os.environ["PYTHONPATH"].split(os.pathsep)[0] == "src", os.environ["PYTHONPATH"]
assert os.environ["PYTHONDONTWRITEBYTECODE"] == "1"
time.sleep({delay})
"""


def test_default_experiments_time_fresh_stub_processes(tmp_path):
    parent, change, out = tmp_path / "parent", tmp_path / "change", tmp_path / "exp.json"
    for checkout, delay in ((parent, 1.0), (change, 0.0)):
        (checkout / "src" / "adamabc").mkdir(parents=True)
        (checkout / "src" / "adamabc" / "__init__.py").write_text("")
        (checkout / "src" / "adamabc" / "cli.py").write_text(STUB_CLI.format(delay=delay))
    argv = [str(parent), str(change), "--experiment-default", "2", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    exp = json.loads(out.read_text())["experiment_default"]
    assert [len(exp["raw_s"][side]) for side in ("parent", "change")] == [2, 2]
    # spawn to exit: at least the parent stub's 1 s sleep, every run
    assert min(exp["raw_s"]["parent"]) >= 1.0 > 0.0 < min(exp["raw_s"]["change"])
    assert exp["change_wins"] == 2 and exp["median_change_rel"] < 0
    # a failing run stops the script
    (change / "src" / "adamabc" / "cli.py").write_text("import sys; sys.exit(3)")
    with pytest.raises(RuntimeError, match="exited 3"):
        bench_pairs.main(argv)


def test_a_claim_is_checked_before_the_first_run(tmp_path, monkeypatch, capsys):
    parent, change, out = tmp_path / "parent", tmp_path / "change", tmp_path / "claim.json"
    for checkout in (parent, change):
        checkout.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps(
        {"command": ["python3", "perfbench/run.py"], "run_seconds": 25, "end_to_end": METRICS}))
    started = []

    def fake_run(cmd, cwd, env, **kw):
        started.append(cwd)
        result = {"correct": True, "attempted": 4, "failed": 0,
                  "metrics": {"wall_s": {"value": 1.0}, "ok_frac": {"value": 1.0}}}
        return subprocess.CompletedProcess(cmd, 0, f"timing pass: n=3 raw median 0.5 s\n"
                                                    f"{json.dumps(result)}\n", "")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    argv = [str(parent), str(change), "--workload", "w", "--seeds", "1", "--out", str(out)]
    # no colon, a workload no --workload gives, and a metric BENCHMARK.json does not declare
    for bad, named in (("w", "WORKLOAD:METRIC"), ("v:wall_s", "'v'"), ("w:wall", "'wall'")):
        with pytest.raises(SystemExit) as refused:
            bench_pairs.main([*argv, "--claim", bad])
        assert refused.value.code == 2 and named in capsys.readouterr().err
        assert started == [] and not out.exists()
    # the raw pass median is a metric a claim may name
    assert bench_pairs.main([*argv, "--claim", "w:raw_median_s"]) == 0
    assert json.loads(out.read_text())["claim"]["metric"] == "raw_median_s"


def test_a_run_with_nothing_to_do_is_refused(tmp_path):
    with pytest.raises(SystemExit):
        bench_pairs.main([str(tmp_path), str(tmp_path), "--workload", "w",
                          "--out", str(tmp_path / "x.json")])
