"""Config parsing, CSV/JSON emission, manifests, exit codes, reruns."""

import argparse
import dataclasses
import hashlib
import json
import os
import warnings
from datetime import datetime, timedelta

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


def test_every_config_field_is_the_target_of_exactly_one_key():
    # h.dim is the one field without a key of its own: d sets it
    fields = [f"problem.{f.name}" for f in dataclasses.fields(ProblemSpec)]
    fields += [f"h.{f.name}" for f in dataclasses.fields(HyperParams) if f.name != "dim"]
    fields += [f.name for f in dataclasses.fields(ExperimentConfig)
               if f.name not in ("problem", "h")]
    targets = [target for _, _, target in _SCHEMA.values()]
    assert sorted(targets) == sorted(fields)


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


def test_resolve_threads_flag_overrides_the_config():
    assert _resolve(ns(config="threads = 3")).threads == 3
    assert _resolve(ns(config="threads = 3", threads=1)).threads == 1
    with pytest.raises(ConstraintViolation, match="threads must be >= 1"):
        _resolve(ns(threads=0))


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
        ("eig_min = 0", "eigenvalues must be positive, got 1 of 10 <= 0 (smallest 0.0)"),
        ("eig_min = -1\neig_max = -0.5\nd = 30", "got 30 of 30 <= 0 (smallest -1.0)"),
        # raised by the probe's hypothesis gate before the sweep runs
        ("probes = rate,last_iterate\ngamma = 1.0", "gamma > 1 and delta > 0"),
        # rejected by validate_config
        ("probes = last_iterate\nepsilon_last = 0", "epsilon_last must be finite and > 0"),
        ("probes = l1\nepsilon_l1 = -1", "epsilon_l1 must be finite and > 0"),
        # every moment verdict reads the final decade [T/10, T]
        ("probes = moment\nseeds = 0,1\ncheckpoints = 1,2,3,4",
         "moment probe needs a checkpoint in the final decade [6.4, 64]"),
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


@pytest.mark.parametrize("args", [
    ["--config", "T = 1\nprobes = rate,summability"],
    ["--config", "T = 100\nprobes = summability", "--checkpoints", "100"],
    # l1's strictly-decreasing verdict would pass on one value
    ["--config", "T = 64\nprobes = l1", "--checkpoints", "64"],
])
def test_single_checkpoint_summability_exits_2_before_any_sweep(tmp_path, monkeypatch, capsys, args):
    import adamabc.experiments as E

    sweeps = []
    real_sweep = E.run_sweep

    def counting(*a, **k):
        sweeps.append(a)
        return real_sweep(*a, **k)

    monkeypatch.setattr(E, "run_sweep", counting)
    assert main(["experiment", *args, "--out", str(tmp_path)]) == 2
    label = "L1" if "l1" in args[1] else "summability"
    assert capsys.readouterr().err == f"config error: {label} probe needs >= 2 checkpoints, got 1\n"
    assert sweeps == []


# logistic is left out: its exact gradient is a BLAS matmul whose rounding
# depends on the row count, so its bytes move with the seed split
LEAST_SQUARES = "problem = least_squares\nd = 5\nn = 50\ndata_seed = 7"


@pytest.mark.parametrize("problem, seeds", [
    ("problem = noisy_quadratic", "0,1,2,3,4,5,6"),
    (LEAST_SQUARES, "0,1,2,3,4,5,6"),
    pytest.param(LEAST_SQUARES, "0,1,2", marks=pytest.mark.xfail(strict=True, reason=(
        "at --threads 3 each worker holds one row, and a one-row least-squares matmul "
        "rounds differently from a three-row one (row-count-independent exact gradients "
        "are ROADMAP item 3)"))),
])
def test_experiment_bytes_do_not_depend_on_threads(tmp_path, problem, seeds):
    cfg = f"{problem}\nT = 700\nseeds = {seeds}\nprobes = rate,summability,moment,l1"
    runs = {}
    for threads in (1, 3):
        out = tmp_path / f"threads{threads}"
        code = main(["experiment", "--config", cfg, "--threads", str(threads), "--out", str(out)])
        runs[threads] = code, out
    (code1, out1), (code3, out3) = runs[1], runs[3]
    assert code1 == code3
    series = sorted(f.name for f in out1.glob("series_*.csv"))
    assert series == sorted(f.name for f in out3.glob("series_*.csv")) and len(series) == 4
    for name in series:
        assert (out1 / name).read_bytes() == (out3 / name).read_bytes(), name
    # the config echoes (the run's and each probe's) are the only difference
    text1, text3 = ((o / "report.json").read_text() for o in (out1, out3))
    assert text1.count('"threads": 1,') == text3.count('"threads": 3,') == 5
    assert text3.replace('"threads": 3,', '"threads": 1,') == text1


def test_non_finite_sweep_exits_1_with_one_line_and_no_report(tmp_path, capsys):
    # sigma^2 * d is finite, but the running S_total overflows within 32 steps
    cfg = "sigma = 1e153\nT = 256\nseeds = 0,1\nprobes = rate,moment"
    assert main(["experiment", "--config", cfg, "--out", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "non-finite sweep: seed 0, checkpoint t=32, series S_total\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, text", [
    ("experiment", "sigma = 1e153\nT = 256\nseeds = 0,1\nprobes = rate,moment"),
    # v = 0.25 makes the first rate gap negative
    ("trace", "v = 0.25\nT = 16\nseeds = 0"),
    ("verify", "v = 0.25\nT = 16\nseeds = 0\nsuite = noisy_quadratic"),
])
def test_failed_run_removes_only_the_empty_directories_it_made(tmp_path, capsys, command, text):
    # made/sub: both directories are the run's; kept and kept/sub: only sub is
    made, kept = tmp_path / "made", tmp_path / "kept"
    kept.mkdir()
    for out in (made / "sub", kept, kept / "sub"):
        assert main([command, "--config", text, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and not err.startswith("config error"), err
    assert not made.exists()
    assert kept.is_dir() and list(kept.iterdir()) == []


def test_failed_run_with_dot_components_in_out_removes_what_it_made(tmp_path, monkeypatch,
                                                                    capsys):
    # the walk sees the path makedirs sees: NEW/../x makes both NEW and x, and
    # a "." or ".." component names a directory the run did not make
    monkeypatch.chdir(tmp_path)
    (tmp_path / "kept").mkdir()
    for out in ("NEW/../x", "kept/NEW/../../y/", "./kept/./z"):
        assert main(["trace", "--config", "v = 0.25\nT = 16\nseeds = 0", "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("negative rate gap") and err.count("\n") == 1, err
    assert [p.name for p in tmp_path.iterdir()] == ["kept"]
    assert list((tmp_path / "kept").iterdir()) == []


def test_problem_build_error_in_trace_exits_2(tmp_path, capsys):
    argv = ["trace", "--config", "sigma = 1e200", "--seeds", "0", "--out", str(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("T", [0, -3])
@pytest.mark.parametrize("command", ["experiment", "verify", "trace"])
def test_nonpositive_horizon_exits_2_with_one_line(tmp_path, capsys, command, T):
    out = tmp_path / "out"
    argv = [command, "--config", f"T = {T}", "--seeds", "0", "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"config error: T must be >= 1, got {T}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["experiment", "verify", "trace"])
@pytest.mark.parametrize("args, message", [
    (["--seeds", "-1"], "seeds must be >= 0, got -1"),
    (["--config", "problem = least_squares\nd = 5\ndata_seed = -1", "--seeds", "0"],
     "data_seed must be >= 0, got -1"),
])
def test_negative_seed_exits_2_with_one_line(tmp_path, capsys, command, args, message):
    out = tmp_path / "out"
    assert main([command, *args, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command, text", [
    # a probe's hypothesis gate and its checkpoint gate
    ("experiment", "probes = rate,last_iterate\ngamma = 1.0"),
    ("experiment", "T = 1\nprobes = summability"),
    # the problem build
    ("experiment", "problem = least_squares\nd = 5\nn = 3"),
    ("trace", "problem = least_squares\nd = 5\nn = 3"),
    ("trace", "eig_min = -1"),
    ("trace", "problem = logistic\nd = 30\nn = 20\nreg = 0"),  # |w*| outside its ball
    # each command's own checks (trace's seed count: test_trace_requires_exactly_one_seed)
    ("verify", "suite ="),
    ("verify", "T = 1"),
    ("experiment", "probes ="),
])
def test_config_error_creates_no_output_directory(tmp_path, capsys, command, text):
    out = tmp_path / "out"
    assert main([command, "--config", text, "--seeds", "0", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1, err
    assert not out.exists()


@pytest.mark.parametrize("command", ["experiment", "verify", "trace"])
@pytest.mark.parametrize("text, message", [
    # a NaN passes every range test, and an infinite mu, v or eigenvalue passes its own
    ("gamma = nan", "gamma must be finite, got nan"),
    ("v = inf", "v must be finite, got inf"),
    ("mu = inf", "mu must be finite, got inf"),
    ("eig_max = inf", "eig_max must be finite, got inf"),
    ("eig_min = nan", "eig_min must be finite, got nan"),
    # verify builds no config problem, so the build's own sigma check is not enough
    ("sigma = inf", "sigma must be finite, got inf"),
    ("problem = logistic\nreg = nan", "reg must be finite, got nan"),
    # a repeated entry would run the same work twice
    ("probes = rate,rate", "probes must be distinct, got rate,rate"),
    ("suite = noisy_quadratic,noisy_quadratic",
     "suite must be distinct, got noisy_quadratic,noisy_quadratic"),
])
def test_non_finite_or_repeated_config_value_exits_2_with_one_line(
        tmp_path, capsys, command, text, message):
    out = tmp_path / "out"
    assert main([command, "--config", text, "--seeds", "0", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["verify", "trace"])
def test_negative_rate_gap_exits_1_with_one_line_and_no_artifact(tmp_path, capsys, command):
    # with v = 0.25 the synthetic pre-run rate v / alpha1 lies below eta_{v_1}
    cfg = "v = 0.25\nT = 64\nsuite = noisy_quadratic"
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--seeds", "0", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "negative rate gap: seed 0, Delta_{t=1,i=0} = -4.238820e-01 materially negative\n"
    )
    assert captured.out == ""
    assert not out.exists()  # the directory this run made is removed again


def test_non_finite_trace_exits_1_with_one_line_and_no_csv(tmp_path, capsys):
    # S_total and fhat overflow from t = 1; warnings are errors here, so an
    # overflow warning escaping the guard would fail the run
    argv = ["trace", "--config", "sigma = 1e153\nT = 64", "--seeds", "0", "--out", str(tmp_path)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == "non-finite trace: seed 0, step t=1, column fhat\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


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
    # only the flag selects rows: the checkpoints key leaves every step in
    rc = main(
        ["trace", "--config", "T = 64\ncheckpoints = 2,4,8", "--seeds", "0", "--out", str(out)]
    )
    assert rc == 0
    lines = (out / "trace_seed0.csv").read_text().splitlines()
    assert [r.split(",")[0] for r in lines[1:]] == [str(t) for t in range(1, 65)]


def test_trace_requires_exactly_one_seed(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["trace", "--config", "T = 8", "--seeds", "0,1", "--out", str(out)]) == 2
    assert "exactly one seed" in capsys.readouterr().err
    assert not out.exists()


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


def test_experiment_solves_the_logistic_problem_once(tmp_path, monkeypatch, capsys):
    import adamabc.problems as P

    solves, real = [], P._solve_logistic
    monkeypatch.setattr(P, "_solve_logistic", lambda *a: solves.append(a) or real(*a))
    ProblemSpec.build.cache_clear()
    cfg = "problem = logistic\nT = 64\nseeds = 0,1\nprobes = moment,sgd_anchor"
    assert main(["experiment", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert len(solves) == 1


def test_experiment_with_no_probes_is_a_config_error(tmp_path, capsys):
    rc = main(["experiment", "--config", "T = 8\nprobes =", "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "no probes enabled" in capsys.readouterr().err


# ---------------------------------------------------------------- manifests


# experiment's manifest: test_experiment_writes_series_report_and_manifest
@pytest.mark.parametrize("command, args, listed", [
    ("trace", ["--config", "T = 16", "--seeds", "4"], ["trace_seed4.csv"]),
    ("verify", ["--config", "T = 16\nseeds = 0\nsuite = least_squares"], ["verify.json"]),
])
def test_trace_and_verify_write_a_manifest_of_their_artifacts(tmp_path, capsys, command, args,
                                                              listed):
    assert main([command, *args, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert sorted(os.listdir(tmp_path)) == sorted(listed + ["manifest.json"])
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert list(manifest) == ["config", "code_version", "rng_algorithm", "started", "artifacts"]
    assert manifest["code_version"] == __version__ and manifest["rng_algorithm"] == RNG_ALGORITHM
    assert [a["path"] for a in manifest["artifacts"]] == listed
    for a in manifest["artifacts"]:
        data = (tmp_path / a["path"]).read_bytes()
        assert hashlib.sha256(data).hexdigest() == a["sha256"]
        assert len(data) == a["bytes"]


@pytest.mark.parametrize("command, runner, args", [
    ("experiment", "run_probes", ["--config", EXP_CFG]),
    ("trace", "run_trajectory", ["--config", "T = 16", "--seeds", "4"]),
    ("verify", "run_trajectories", ["--config", "T = 16\nseeds = 0\nsuite = least_squares"]),
])
def test_manifest_start_is_stamped_before_the_run(tmp_path, monkeypatch, capsys,
                                                  command, runner, args):
    import adamabc.cli as C

    events = []

    class Clock:
        @staticmethod
        def now(tz=None):
            events.append("clock")
            return datetime(2000, 1, 1, tzinfo=tz) + timedelta(seconds=len(events))

    def recording(real):
        def run(*a, **k):
            events.append("run")
            return real(*a, **k)
        return run

    monkeypatch.setattr(C, "datetime", Clock)
    monkeypatch.setattr(C, runner, recording(getattr(C, runner)))
    assert main([command, *args, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert events == ["clock", "run"]
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["started"] == "2000-01-01T00:00:01+00:00"


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


def test_verify_writes_to_the_config_out_dir_unless_out_is_given(tmp_path, capsys):
    cfg_dir, out_dir = tmp_path / "cfg", tmp_path / "out"
    cfg = f"{VERIFY_CFG}\nout_dir = {cfg_dir}"
    assert main(["verify", "--config", cfg]) == 0
    assert sorted(os.listdir(cfg_dir)) == ["manifest.json", "verify.json"]
    assert main(["verify", "--config", cfg, "--out", str(out_dir)]) == 0
    assert sorted(os.listdir(out_dir)) == ["manifest.json", "verify.json"]
    assert (out_dir / "verify.json").read_bytes() == (cfg_dir / "verify.json").read_bytes()


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


def test_verify_fails_a_non_finite_margin_in_strict_json(tmp_path, capsys):
    cfg = "v = 1e308\nT = 64\nseeds = 0\nsuite = noisy_quadratic"

    def strict(token):
        raise AssertionError(f"non-strict JSON token {token}")

    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warning reaches stderr
        assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    verdict = json.loads(captured.out, parse_constant=strict)
    assert json.loads((tmp_path / "verify.json").read_text(), parse_constant=strict) == verdict
    checks = {c["name"]: c for c in verdict["checks"]["noisy_quadratic"]}
    for name in ("rate-monotone", "gap-telescoping", "energy-growth-phi1", "energy-growth-phi4"):
        assert checks[name]["status"] == "fail", name
        assert checks[name]["worst_margin"] is None
        assert checks[name]["note"] == "non-finite margin nan"
        assert f"{name} [noisy_quadratic]" in verdict["failing"]


def test_verify_empty_suite_is_a_config_error(capsys):
    rc = main(["verify", "--config", "T = 8\nsuite ="])
    assert rc == 2
    assert "empty problem suite" in capsys.readouterr().err


def test_verify_T1_is_a_config_error_before_any_recording(monkeypatch, capsys):
    import adamabc.cli as C

    def no_recording(*args, **kwargs):
        raise AssertionError("recorded before the config check")

    monkeypatch.setattr(C, "run_trajectories", no_recording)
    assert main(["verify", "--config", "T = 1"]) == 2
    assert capsys.readouterr().err == "config error: the descent check needs T >= 2, got T = 1\n"


# ---------------------------------------------------------------- list-problems


def test_list_problems_prints_certified_constants(capsys):
    assert main(["list-problems"]) == 0
    out = capsys.readouterr().out
    for name in ("noisy_quadratic", "least_squares", "logistic"):
        assert name in out
    assert "L_f=" in out and "f_star=" in out and "C=" in out
