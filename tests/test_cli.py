"""Config parsing, CSV/JSON emission, manifests, exit codes, reruns."""

import argparse
import hashlib
import json
import os
from datetime import datetime

import numpy as np
import pytest

from adamabc import __version__
from adamabc.cli import (
    ParseError,
    TRACE_COLUMNS,
    _fmt,
    _resolve,
    _SCHEMA,
    _write_text,
    main,
    parse_config,
    serialize_config,
    trace_csv,
)
from adamabc.core import ConstraintViolation, HyperParams, beta2_at, eta_at
from adamabc.experiments import ExperimentConfig, ProblemSpec, default_checkpoints
from adamabc.optimizer import run_trajectory
from adamabc.problems import RNG_ALGORITHM


def ns(**kw) -> argparse.Namespace:
    base = dict(config="", out=None, seeds=None, threads=None, checkpoints=None)
    base.update(kw)
    return argparse.Namespace(**base)


# ---------------------------------------------------------------- config text


def test_empty_config_yields_all_defaults():
    cfg = parse_config("")
    assert cfg.problem == ProblemSpec(kind="noisy_quadratic")
    assert cfg.h == HyperParams(dim=10)
    assert cfg.T == 1024
    assert cfg.seeds == (0, 1, 2)
    assert cfg.checkpoints == default_checkpoints(1024)
    assert cfg.probes == ("rate",)
    assert cfg.out_dir is None
    assert cfg.threads == 1
    assert cfg.epsilon_last is None
    assert cfg.suite == ("noisy_quadratic", "least_squares", "logistic")
    assert cfg.inject_fault == ""


def test_flat_text_parsing_with_comments_and_overrides():
    cfg = parse_config(
        """
        # run shape
        T = 64
        seeds = 4, 5, 6
        problem = least_squares
        d = 5
        delta = 0.5
        gamma = 1.5
        epsilon_last = 0.25
        """
    )
    assert cfg.T == 64
    assert cfg.seeds == (4, 5, 6)
    assert cfg.problem.kind == "least_squares"
    assert cfg.h.delta == 0.5 and cfg.h.gamma == 1.5 and cfg.h.dim == 5
    assert cfg.epsilon_last == 0.25
    assert cfg.checkpoints == default_checkpoints(64)


def test_json_config_equivalent_to_flat_text():
    cfg = parse_config('{"T": 64, "seeds": [4, 5], "probes": ["rate", "summability"]}')
    assert cfg.T == 64
    assert cfg.seeds == (4, 5)
    assert cfg.probes == ("rate", "summability")


def test_config_file_path_is_read(tmp_path):
    f = tmp_path / "run.cfg"
    f.write_text("T = 32\nseeds = 9\n")
    cfg = parse_config(str(f))
    assert cfg.T == 32 and cfg.seeds == (9,)


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("bogus_key = 1", "line 1: unknown key 'bogus_key'"),
        ("T = 8\nT = 9", "line 2: duplicate key 'T'"),
        ("what is this", "line 1: expected 'key = value'"),
        ("T = eleven", "line 1: bad value for key 'T'"),
        ('{"T": 8,,}', "invalid JSON config"),
        ('{"bogus_key": 1}', "unknown key 'bogus_key'"),
    ],
)
def test_parse_errors_name_the_line_and_key(text, fragment):
    with pytest.raises(ParseError) as exc:
        parse_config(text)
    assert fragment in str(exc.value)


def test_json_payload_must_be_an_object():
    from adamabc.cli import _entries_from_json

    with pytest.raises(ParseError, match="must be an object"):
        _entries_from_json("[1, 2]")


def test_constraint_violations_surface_from_parse():
    with pytest.raises(ConstraintViolation, match="gamma"):
        parse_config("gamma = 2.0\ndelta = 0.0")
    with pytest.raises(ConstraintViolation, match="checkpoints"):
        parse_config("T = 16\ncheckpoints = 1, 32")


def test_serialize_round_trips_and_covers_every_key():
    cfg = parse_config(
        "T = 100\nseeds = 3,1\nproblem = logistic\nd = 7\nn = 40\nreg = 0.125\n"
        "beta1 = 0.35\nalpha0 = 0.3\ngamma = 1.1\ndelta = 0.05\nmu = 1e-10\n"
        "probes = rate,sgd_anchor\nthreads = 2\nepsilon_l1 = 0.07\n"
        "checkpoints = 1,10,100\nsuite = logistic\ninject_fault = lipschitz_tenth"
    )
    text = serialize_config(cfg)
    for key in _SCHEMA:
        assert any(line.startswith(f"{key} = ") for line in text.splitlines()), key
    assert parse_config(text) == cfg


def test_fmt_round_trips_doubles():
    assert _fmt(3) == "3"
    assert _fmt(np.int64(5)) == "5"
    for x in (0.1, 1.0 / 3.0, 1e-17, 123456.789, 2.0**-52):
        assert float(_fmt(x)) == x


# ---------------------------------------------------------------- overrides


def test_resolve_applies_cli_overrides():
    cfg = _resolve(ns(config="T = 16", seeds="7,8", checkpoints="2,4,16"))
    assert cfg.seeds == (7, 8)
    assert cfg.checkpoints == (2, 4, 16)


def test_resolve_threads_env_fallback_and_override(monkeypatch):
    monkeypatch.setenv("ADAM_ABC_THREADS", "3")
    assert _resolve(ns()).threads == 3
    assert _resolve(ns(threads=1)).threads == 1  # flag beats environment
    monkeypatch.setenv("ADAM_ABC_THREADS", "lots")
    with pytest.raises(ParseError, match="ADAM_ABC_THREADS: bad value 'lots'"):
        _resolve(ns())


def test_main_rejects_bad_usage_and_bad_config(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])  # a subcommand is required
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["conjure"])
    assert exc.value.code == 2
    assert main(["trace", "--config", "gamma = 9"]) == 2
    assert "config error" in capsys.readouterr().err
    # a --config path that doesn't exist is treated as inline text
    assert main(["trace", "--config", "/no/such/file.cfg"]) == 2
    assert "expected 'key = value'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, fragment",
    [
        # raised by the problem build inside the sweep
        ("problem = least_squares\nd = 10\nn = 3", "need n >= d"),
        ("sigma = 1e200", "sigma^2 * d must be finite"),
        # raised by the probe's hypothesis gate before the sweep runs
        ("probes = rate,last_iterate\ngamma = 1.0", "gamma > 1 and delta > 0"),
        # rejected by validate_config
        ("probes = last_iterate\nepsilon_last = 0", "epsilon_last must be finite and > 0"),
        ("probes = l1\nepsilon_l1 = -1", "epsilon_l1 must be finite and > 0"),
    ],
)
def test_config_errors_exit_2_with_one_line(tmp_path, capsys, text, fragment):
    argv = ["experiment", "--config", f"T = 64\n{text}", "--out", str(tmp_path / "x")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1, err
    assert fragment in err


@pytest.mark.parametrize("probes", ["rate,last_iterate", "summability,l1"])
def test_hypothesis_gate_exits_2_before_any_sweep(tmp_path, monkeypatch, capsys, probes):
    import adamabc.experiments as E

    def no_sweep(*args, **kwargs):
        raise AssertionError("swept before the hypothesis gate")

    monkeypatch.setattr(E, "run_sweep", no_sweep)
    argv = ["experiment", "--config", f"T = 64\nprobes = {probes}\ngamma = 1.0",
            "--out", str(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1, err
    assert "probe requires gamma > 1 and delta > 0 (got gamma=1.0, delta=0.25)" in err


def test_non_finite_sweep_exits_1_with_one_line_and_no_report(tmp_path, capsys):
    # sigma^2 * d is finite, but the running S_total overflows within 32 steps
    cfg = "sigma = 1e153\nT = 256\nseeds = 0,1\nprobes = rate,moment"
    assert main(["experiment", "--config", cfg, "--out", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "non-finite sweep: seed 0, checkpoint t=32, series S_total\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_problem_build_error_in_trace_exits_2(tmp_path, capsys):
    argv = ["trace", "--config", "sigma = 1e200", "--seeds", "0", "--out", str(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1, err


# ---------------------------------------------------------------- trace command


def test_trace_csv_shape_and_column_mapping(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["trace", "--config", "T = 10", "--seeds", "5", "--out", str(out)])
    assert rc == 0
    path = out / "trace_seed5.csv"
    assert str(path) in capsys.readouterr().out
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(TRACE_COLUMNS)
    assert len(lines) == 11  # header + one row per step

    tr = run_trajectory(ProblemSpec(kind="noisy_quadratic").build(), HyperParams(dim=10), 10, 5)
    for row in lines[1:]:
        cells = row.split(",")
        assert len(cells) == len(TRACE_COLUMNS)
        t = int(cells[0])
        expect = {
            "f_w": tr.f_w[t - 1],
            "grad_norm_sq": tr.grad_norm_sq[t - 1],
            "f_u": tr.f_u[t - 1],
            "eta_t": eta_at(t, tr.h),
            "beta2_t": beta2_at(t, tr.h),
            "min_margin_prop2": tr.margin2[t],
            "sum_eta_v": tr.eta_v[t].sum(),
            "S_total": tr.S_total[t],
            "sigma_v": tr.sigma_v[t],
            "delta_sum": tr.delta[t - 1].sum(),
            "zeta_sum": tr.zeta[t - 1],
            "fhat": tr.fhat[t - 1],
            "lambda_phi4": tr.lambda4[t - 1],
            "pi_hat": tr.pi.values[t],
            "m1": tr.m1[t - 1],
        }
        for col, val in expect.items():
            assert float(cells[TRACE_COLUMNS.index(col)]) == float(val), (t, col)


def test_trace_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["trace", "--config", "T = 200", "--seeds", "3", "--out", str(out)]) == 0
    assert (a / "trace_seed3.csv").read_bytes() == (b / "trace_seed3.csv").read_bytes()


def test_trace_checkpoint_subsampling(tmp_path):
    out = tmp_path / "run"
    rc = main(
        ["trace", "--config", "T = 64", "--seeds", "0", "--checkpoints", "2,4,8", "--out", str(out)]
    )
    assert rc == 0
    lines = (out / "trace_seed0.csv").read_text().splitlines()
    assert [r.split(",")[0] for r in lines[1:]] == ["2", "4", "8"]


def test_trace_requires_exactly_one_seed(capsys):
    assert main(["trace", "--config", "T = 8", "--seeds", "0,1"]) == 2
    assert "exactly one seed" in capsys.readouterr().err


def test_trace_csv_rejects_rows_outside_horizon(trace2k):
    with pytest.raises(ConstraintViolation, match="outside"):
        trace_csv(trace2k, rows=[0])
    with pytest.raises(ConstraintViolation, match="outside"):
        trace_csv(trace2k, rows=[trace2k.T + 1])


def test_unwritable_out_dir_is_a_config_error(tmp_path, capsys):
    blocker = tmp_path / "file.txt"
    blocker.write_text("x")
    bad = str(blocker / "sub")  # a path through a regular file cannot be made
    for argv in (
        ["trace", "--config", "T = 8", "--seeds", "0", "--out", bad],
        ["experiment", "--config", "T = 8", "--out", bad],
        ["verify", "--config", "T = 8\nseeds = 0\nsuite = noisy_quadratic", "--out", bad],
    ):
        assert main(argv) == 2, argv[0]
        assert "config error" in capsys.readouterr().err


def test_failed_write_keeps_previous_artifact_and_leaves_no_temp_file(tmp_path, monkeypatch):
    import adamabc.cli as C

    info = _write_text(str(tmp_path), "report.json", "old\n")
    assert info["bytes"] == 4 and (tmp_path / "report.json").read_bytes() == b"old\n"

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(C.os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        _write_text(str(tmp_path), "report.json", "new\n")
    assert (tmp_path / "report.json").read_bytes() == b"old\n"
    assert os.listdir(tmp_path) == ["report.json"]


# ---------------------------------------------------------------- experiment command


EXP_CFG = "T = 64\nseeds = 0,1,2,3\nprobes = rate,summability"


def test_experiment_writes_series_report_and_manifest(tmp_path, capsys):
    out = tmp_path / "exp"
    rc = main(["experiment", "--config", EXP_CFG, "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "probe rate:" in stdout and "probe summability:" in stdout
    assert f"wrote 4 files to {out}" in stdout

    names = sorted(os.listdir(out))
    assert names == ["manifest.json", "report.json", "series_rate.csv", "series_summability.csv"]

    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "pass"
    assert report["code_version"] == __version__
    assert report["rng_algorithm"] == RNG_ALGORITHM
    assert set(report["probes"]) == {"rate", "summability"}
    # undersized run: verdicts must be informational, never silently green
    assert report["probes"]["rate"]["verdicts"]["rate_slope"]["status"] == "informational"

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["T"] == 64
    assert manifest["code_version"] == __version__
    datetime.fromisoformat(manifest["started"])  # valid timestamp
    listed = {a["path"] for a in manifest["artifacts"]}
    assert listed == {"report.json", "series_rate.csv", "series_summability.csv"}
    for a in manifest["artifacts"]:
        data = (out / a["path"]).read_bytes()
        assert hashlib.sha256(data).hexdigest() == a["sha256"]
        assert len(data) == a["bytes"]


def test_experiment_rerun_reproduces_every_artifact_byte_for_byte(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["experiment", "--config", EXP_CFG, "--out", str(out)]) == 0
    for name in ("report.json", "series_rate.csv", "series_summability.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_experiment_series_csv_matches_report_stats(tmp_path):
    out = tmp_path / "exp"
    main(["experiment", "--config", EXP_CFG, "--out", str(out)])
    report = json.loads((out / "report.json").read_text())
    lines = (out / "series_rate.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header[0] == "checkpoint"
    assert "avg_gsq_mean" in header and "last_grad_q90" in header
    rows = [ln.split(",") for ln in lines[1:]]
    cps = report["probes"]["rate"]["checkpoints"]
    assert [int(r[0]) for r in rows] == cps
    col = header.index("avg_gsq_mean")
    want = report["probes"]["rate"]["stats"]["avg_gsq"]["mean"]
    got = [float(r[col]) for r in rows]
    assert got == pytest.approx(want, rel=1e-15)


def test_experiment_failure_sets_exit_code(tmp_path, capsys):
    cfg = "T = 256\nseeds = 0,1\nprobes = last_iterate\nepsilon_last = 1e-12"
    rc = main(["experiment", "--config", cfg, "--out", str(tmp_path / "f")])
    assert rc == 1
    out = capsys.readouterr().out
    assert "probe last_iterate: fail" in out
    report = json.loads((tmp_path / "f" / "report.json").read_text())
    assert report["status"] == "fail"


def test_experiment_with_no_probes_is_a_config_error(tmp_path, capsys):
    rc = main(["experiment", "--config", "T = 8\nprobes =", "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "no probes enabled" in capsys.readouterr().err


# ---------------------------------------------------------------- verify command


VERIFY_CFG = "T = 64\nseeds = 0\nsuite = noisy_quadratic"


def test_verify_passes_and_emits_json_verdict(tmp_path, capsys):
    out = tmp_path / "v"
    rc = main(["verify", "--config", VERIFY_CFG, "--out", str(out)])
    captured = capsys.readouterr().out
    assert rc == 0
    verdict = json.loads(captured)
    assert verdict["status"] == "pass"
    assert verdict["failing"] == []
    assert set(verdict["checks"]) == {"noisy_quadratic", "global"}
    names = {c["name"] for c in verdict["checks"]["noisy_quadratic"]}
    assert {"rate-monotone", "second-moment-floor", "taylor-step", "gap-telescoping",
            "finite-difference-gradcheck", "gradient-energy-bound",
            "oracle-unbiasedness", "oracle-second-moment", "branching-descent"} <= names
    assert verdict["checks"]["global"][0]["name"] == "sum-exchange-bounds"
    disk = json.loads((out / "verify.json").read_text())
    assert disk == verdict


def test_verify_builds_each_trajectory_once(tmp_path, monkeypatch, capsys):
    import adamabc.cli as C

    cfg = "T = 64\nseeds = 2,0\nsuite = noisy_quadratic,logistic"
    real_run, real_descent = C.run_trajectory, C.check_descent_expectation
    real_stacked = C.run_trajectories
    calls = []

    def counting(p, h, T, seeds, *args):
        calls.append((p.name, tuple(seeds)))
        return real_stacked(p, h, T, seeds, *args)

    monkeypatch.setattr(C, "run_trajectories", counting)
    monkeypatch.setattr(C, "run_trajectory", None)  # verify records no lone run
    main(["verify", "--config", cfg, "--out", str(tmp_path / "reused")])
    # one stacked recording of every seed per suite problem
    assert calls == [("noisy_quadratic", (2, 0)), ("logistic", (2, 0))]

    # lone runs of every seed, with the descent check on a freshly built
    # first-seed trajectory, write the same bytes
    def lone_runs(p, h, T, seeds):
        return (real_run(p, h, T, seed) for seed in seeds)

    def on_fresh_trace(p, trace, *args):
        return real_descent(p, real_run(p, trace.h, trace.T, trace.seed), *args)

    monkeypatch.setattr(C, "run_trajectories", lone_runs)
    monkeypatch.setattr(C, "check_descent_expectation", on_fresh_trace)
    main(["verify", "--config", cfg, "--out", str(tmp_path / "fresh")])
    capsys.readouterr()
    reused = (tmp_path / "reused" / "verify.json").read_bytes()
    assert reused == (tmp_path / "fresh" / "verify.json").read_bytes()


def test_verify_fault_fixture_exercises_the_failure_path(capsys):
    cfg = VERIFY_CFG + "\ninject_fault = lipschitz_tenth"
    rc = main(["verify", "--config", cfg])
    assert rc == 1
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["status"] == "fail"
    assert "taylor-step [noisy_quadratic]" in verdict["failing"]
    assert verdict["fault_fixture"] == "lipschitz_tenth"


def test_verify_empty_suite_is_a_config_error(capsys):
    rc = main(["verify", "--config", "T = 8\nsuite ="])
    assert rc == 2
    assert "empty problem suite" in capsys.readouterr().err


# ---------------------------------------------------------------- list-problems


def test_list_problems_prints_certified_constants(capsys):
    assert main(["list-problems"]) == 0
    out = capsys.readouterr().out
    for name in ("noisy_quadratic", "least_squares", "logistic"):
        assert name in out
    assert "L_f=" in out and "f_star=" in out and "C=" in out
