"""The lockstep seed-sweep engine, fitting helpers, and the probe reports."""

import json
import math

import numpy as np
import pytest

from adamabc.core import ConstraintViolation, HyperParams, eta_at
from adamabc.experiments import (
    DegenerateFit,
    ExperimentConfig,
    ExperimentReport,
    FROZEN_THRESHOLDS,
    HorizonTooShort,
    InsufficientSeeds,
    PROBE_NAMES,
    ProblemSpec,
    default_checkpoints,
    fit_loglog_slope,
    last_iterate_experiment,
    moment_probe,
    rate_experiment,
    run_probes,
    run_sweep,
    summability_probe,
)
from adamabc.instrumentation import geometric_tail_rowsums
from adamabc.optimizer import run_trajectory
from adamabc.problems import oracle_sample, rng_stream

SPECS = {
    "noisy_quadratic": ProblemSpec(kind="noisy_quadratic", d=10),
    "least_squares": ProblemSpec(kind="least_squares", d=5, data_seed=7),
    "logistic": ProblemSpec(kind="logistic", d=10, data_seed=3),
}


def cfg_for(kind, T, seeds, h=None, **kw) -> ExperimentConfig:
    spec = SPECS[kind]
    h = h or HyperParams(dim=spec.d)
    return ExperimentConfig(
        problem=spec, h=h, T=T, seeds=tuple(seeds),
        checkpoints=default_checkpoints(T), **kw,
    )


# ---------------------------------------------------------------- sweep engine


@pytest.mark.parametrize("kind", list(SPECS))
def test_stacked_sweep_matches_single_runs(kind):
    # T = 4100 crosses the oracle prefetch block boundary at 4096
    T, seeds = 4100, (3, 11)
    cfg = cfg_for(kind, T, seeds)
    res = run_sweep(cfg, collect_dsum=True)
    p = cfg.problem.build()
    cps = np.asarray(cfg.checkpoints)
    exact_bitwise = kind != "logistic"  # BLAS matmul kernels differ by operand
    # shape there, so the exact-gradient statistics wiggle in the last ulp

    for si, seed in enumerate(seeds):
        tr = run_trajectory(p, cfg.h, T=T, seed=seed)
        gn = tr.grad_norm_sq
        # the iterates themselves are bitwise reproductions on every problem
        assert np.array_equal(res["final_W"][si], tr.W[-1])
        assert np.array_equal(res["S_total"][si], tr.S_total[cps])
        assert np.array_equal(res["sigma_v"][si], tr.sigma_v[cps])
        assert np.array_equal(res["dsum"][si], tr.delta.sum(axis=1))
        sup_sv = np.maximum.accumulate(tr.sigma_v)[cps]
        assert np.array_equal(res["sup_sigma_v"][si], sup_sv)

        acc = 0.0
        e_acc = 0.0
        avg_ref = np.empty(T)
        eta_ref = np.empty(T)
        for t in range(1, T + 1):  # sequential python-float reference
            acc += gn[t - 1]
            e_acc += eta_at(t, cfg.h) * gn[t - 1]
            avg_ref[t - 1] = acc / t
            eta_ref[t - 1] = e_acc
        pairs = [
            (res["avg_gsq"][si], avg_ref[cps - 1]),
            (res["eta_gsq_sum"][si], eta_ref[cps - 1]),
            (res["last_grad"][si], np.sqrt(gn[cps - 1])),
            (res["sup_grad"][si], np.maximum.accumulate(np.sqrt(gn[:T]))[cps - 1]),
        ]
        for got, ref in pairs:
            if exact_bitwise:
                assert np.array_equal(got, ref)
            else:
                np.testing.assert_allclose(got, ref, rtol=1e-12)


def test_sweep_sorts_seeds_and_thread_split_is_equivalent():
    for kind in ("noisy_quadratic", "logistic"):
        a = run_sweep(cfg_for(kind, 300, (0, 1, 2, 5), threads=1), collect_dsum=True)
        b = run_sweep(cfg_for(kind, 300, (5, 0, 2, 1), threads=2), collect_dsum=True)
        assert list(a["seeds"]) == list(b["seeds"]) == [0, 1, 2, 5]
        for k in a:
            if kind == "noisy_quadratic":
                assert np.array_equal(a[k], b[k]), k
            else:
                np.testing.assert_allclose(a[k], b[k], rtol=1e-12)


@pytest.mark.parametrize("kind", list(SPECS))
def test_sweep_sgd_rule_matches_sequential_reference(kind):
    # T = 4100 crosses the oracle prefetch block boundary at 4096
    T, seeds = 4100, (3, 11)
    cfg = cfg_for(kind, T, seeds)
    res = run_sweep(cfg, rule="sgd")
    p = cfg.problem.build()
    for si, seed in enumerate(seeds):
        rng = rng_stream("trajectory", seed, "oracle")
        w = np.ones(p.dim)
        for t in range(1, T + 1):
            w = w - t**-0.5 * oracle_sample(p, w, rng)
        assert np.all(np.isfinite(w))
        assert np.array_equal(res["final_W"][si], w)


def test_sweep_rejects_unknown_rule():
    with pytest.raises(ValueError, match="unknown update rule"):
        run_sweep(cfg_for("noisy_quadratic", 4, (0,)), rule="bogus")


def test_problem_spec_build_rejects_unknown_kind():
    with pytest.raises(ConstraintViolation, match="unknown problem kind"):
        ProblemSpec(kind="rosenbrock").build()


# ---------------------------------------------------------------- config checks


def test_default_checkpoints():
    assert default_checkpoints(1024) == tuple(2**k for k in range(11))
    assert default_checkpoints(1000) == tuple(2**k for k in range(10)) + (1000,)
    assert default_checkpoints(1) == (1,)
    assert default_checkpoints(3) == (1, 2, 3)


@pytest.mark.parametrize(
    "kw, fragment",
    [
        (dict(T=0), "T must be"),
        (dict(seeds=()), "seeds"),
        (dict(seeds=(1, 1)), "seeds"),
        (dict(checkpoints=()), "checkpoints"),
        (dict(checkpoints=(4, 2)), "strictly increasing"),
        (dict(checkpoints=(1, 4096)), "lie in"),
        (dict(probes=("rate", "telepathy")), "unknown probe"),
        (dict(threads=0), "threads"),
        (dict(h=HyperParams(dim=3)), "dimension"),
        (dict(suite=("noisy_quadratic", "mystery")), "unknown problem kind"),
        (dict(inject_fault="chaos_monkey"), "unknown fault fixture"),
        (dict(epsilon_last=0.0), "epsilon_last must be finite and > 0"),
        (dict(epsilon_last=-1.0), "epsilon_last must be finite and > 0"),
        (dict(epsilon_last=float("inf")), "epsilon_last must be finite and > 0"),
        (dict(epsilon_l1=0.0), "epsilon_l1 must be finite and > 0"),
        (dict(epsilon_l1=float("nan")), "epsilon_l1 must be finite and > 0"),
    ],
)
def test_validate_config_rejections(kw, fragment):
    base = dict(
        problem=SPECS["noisy_quadratic"],
        h=HyperParams(dim=10),
        T=64,
        seeds=(0, 1),
        checkpoints=default_checkpoints(64),
    )
    base.update(kw)
    with pytest.raises(ConstraintViolation, match=fragment):
        run_sweep(ExperimentConfig(**base))


def test_config_serialization_uses_plain_lists():
    cfg = cfg_for("noisy_quadratic", 8, (0, 1), probes=("rate", "l1"))
    d = cfg.as_dict()
    assert d["seeds"] == [0, 1]
    assert d["probes"] == ["rate", "l1"]
    assert d["suite"] == list(("noisy_quadratic", "least_squares", "logistic"))
    json.dumps(d)  # nothing numpy-typed may leak into the config dict


# ---------------------------------------------------------------- fit helpers


def test_fit_recovers_exact_power_laws():
    xs = np.geomspace(1.0, 1e4, 24)
    slope, stderr, r2 = fit_loglog_slope([(x, 3.0 * x**2) for x in xs], (1.0, 1e4))
    assert slope == pytest.approx(2.0, abs=1e-12)
    assert r2 > 0.999999
    slope, _, _ = fit_loglog_slope([(x, 5.0 / math.sqrt(x)) for x in xs], (1.0, 1e4))
    assert slope == pytest.approx(-0.5, abs=1e-12)


def test_fit_confidence_interval_covers_noisy_truth():
    rng = np.random.default_rng(5)
    xs = np.geomspace(10.0, 1e4, 30)
    ys = xs**-0.5 * np.exp(rng.normal(0.0, 0.1, size=30))
    slope, stderr, r2 = fit_loglog_slope(list(zip(xs, ys)), (10.0, 1e4))
    assert abs(slope - (-0.5)) <= 2.0 * stderr
    assert stderr > 0.0


def test_fit_respects_the_range_filter():
    xs = np.geomspace(1.0, 1e4, 24)
    pts = [(x, x**-1.0 if x < 100 else x**-0.25) for x in xs]
    slope, _, _ = fit_loglog_slope(pts, (100.0, 1e4))
    assert slope == pytest.approx(-0.25, abs=1e-9)


def test_fit_degenerate_cases():
    with pytest.raises(DegenerateFit, match="inside fit range"):
        fit_loglog_slope([(1.0, 1.0), (2.0, 1.0), (3.0, 1.0)], (1.0, 10.0))
    with pytest.raises(DegenerateFit, match="duplicate x"):
        fit_loglog_slope([(1.0, 1.0), (1.0, 2.0), (2.0, 1.0), (3.0, 1.0)], (1.0, 10.0))
    with pytest.raises(DegenerateFit, match="positive"):
        fit_loglog_slope([(1.0, 1.0), (2.0, -1.0), (3.0, 1.0), (4.0, 1.0)], (1.0, 10.0))


def test_geometric_tail_hand_value():
    out = geometric_tail_rowsums(np.array([[1.0, 2.0, 3.0]]), 0.5)
    assert np.array_equal(out, [[1.0 + 1.0 + 0.75, 2.0 + 1.5, 3.0]])


def test_geometric_tail_q_zero_returns_independent_copy():
    rows = np.array([[1.0, 2.0]])
    out = geometric_tail_rowsums(rows, 0.0)
    assert np.array_equal(out, rows)
    out[0, 0] = 99.0
    assert rows[0, 0] == 1.0


def test_geometric_tail_fft_path_matches_direct():
    rng = np.random.default_rng(2)
    q = 0.9
    T = 20_000  # T * (tau+1) > 2^22 forces the fft path
    tau = min(int(math.floor(math.log(1e-12) / math.log(q))), T - 1)
    assert T * (tau + 1) > 1 << 22
    rows = rng.uniform(0.0, 1.0, size=(2, T))
    out = geometric_tail_rowsums(rows, q)
    kernel = q ** np.arange(tau + 1)
    padded = np.concatenate([rows, np.zeros((2, tau))], axis=1)
    ref = np.stack([np.correlate(padded[s], kernel, mode="valid") for s in range(2)])
    np.testing.assert_allclose(out, ref, rtol=1e-9, atol=1e-12)
    assert np.all(out >= 0.0)


# ---------------------------------------------------------------- probe gating


def test_rate_probe_scale_gates_raise_when_enforced():
    with pytest.raises(InsufficientSeeds, match=">= 20 seeds"):
        rate_experiment(cfg_for("noisy_quadratic", 1 << 14, (0, 1)))
    with pytest.raises(HorizonTooShort, match="2\\^14"):
        rate_experiment(cfg_for("noisy_quadratic", 512, tuple(range(20))))


def test_rate_probe_below_scale_is_informational():
    rep = rate_experiment(cfg_for("noisy_quadratic", 512, (0, 1, 2)), enforce_scale=False)
    assert rep.verdicts["rate_slope"]["status"] == "informational"
    assert any("below acceptance scale" in n for n in rep.notes)
    assert rep.status == "pass"  # informational verdicts never fail a report
    json.dumps(rep.as_dict(), allow_nan=False)


def test_rate_probe_delta_zero_single_checkpoint_is_informational():
    # T = 1: the only checkpoint is t = 1 where ln(1) = 0 leaves no ratio data
    h = HyperParams(gamma=1.5, delta=0.0, dim=10)
    rep = rate_experiment(cfg_for("noisy_quadratic", 1, (0, 1), h=h), enforce_scale=False)
    v = rep.verdicts["log_rate_ratio"]
    assert v["status"] == "informational"
    assert any("no final-decade checkpoints past t = 1" in n for n in rep.notes)
    json.dumps(rep.as_dict(), allow_nan=False)  # nan ratios serialized as null


def test_rate_probe_delta_zero_reports_ratio_series():
    h = HyperParams(gamma=1.5, delta=0.0, dim=10)
    rep = rate_experiment(cfg_for("noisy_quadratic", 2048, (0, 1, 2)), enforce_scale=False)
    rep0 = rate_experiment(cfg_for("noisy_quadratic", 2048, (0, 1, 2), h=h), enforce_scale=False)
    assert "log_rate_ratio" in rep0.per_seed
    assert "rate_slope" in rep.verdicts and "log_rate_ratio" not in rep.verdicts
    assert "log_rate_ratio" in rep0.verdicts and "rate_slope" not in rep0.verdicts


def test_last_iterate_probe_requires_the_hypotheses():
    h_bad = HyperParams(gamma=1.0, delta=0.0, dim=10)
    with pytest.raises(ConstraintViolation, match="gamma > 1 and delta > 0"):
        last_iterate_experiment(cfg_for("noisy_quadratic", 64, (0,), h=h_bad))
    # the hypothesis gate is not a size gate: enforce_scale cannot waive it
    with pytest.raises(ConstraintViolation):
        last_iterate_experiment(
            cfg_for("noisy_quadratic", 64, (0,), h=h_bad), enforce_scale=False
        )


def test_last_iterate_threshold_override_and_provenance():
    loose = last_iterate_experiment(cfg_for("noisy_quadratic", 256, (0, 1), epsilon_last=10.0))
    v = loose.verdicts["last_iterate_below_eps"]
    assert v["status"] == "pass"
    assert v["threshold"] == 10.0
    assert v["provenance"] == "epsilon_last from config"
    strict = last_iterate_experiment(cfg_for("noisy_quadratic", 256, (0, 1), epsilon_last=1e-12))
    assert strict.verdicts["last_iterate_below_eps"]["status"] == "fail"
    assert strict.status == "fail"
    default = last_iterate_experiment(cfg_for("noisy_quadratic", 256, (0, 1)))
    assert (
        default.verdicts["last_iterate_below_eps"]["threshold"]
        == FROZEN_THRESHOLDS["last_iterate_eps"]["value"]
    )
    assert "pilot" in default.verdicts["last_iterate_below_eps"]["provenance"]


def test_summability_probe_is_informational_outside_hypotheses():
    h0 = HyperParams(gamma=1.5, delta=0.0, dim=10)
    rep = summability_probe(cfg_for("noisy_quadratic", 1024, (0, 1), h=h0))
    v = rep.verdicts["final_increment_below_1pct"]
    assert v["status"] == "informational"
    assert any("informational only" in n for n in rep.notes)
    rep2 = summability_probe(cfg_for("noisy_quadratic", 1024, (0, 1)))
    assert rep2.verdicts["final_increment_below_1pct"]["status"] in ("pass", "fail")


def test_moment_probe_needs_gap_sums():
    cfg = cfg_for("noisy_quadratic", 64, tuple(range(50)))
    plain = run_sweep(cfg)  # no collect_dsum
    with pytest.raises(ValueError, match="collect_dsum"):
        moment_probe(cfg, _shared=plain)
    with pytest.raises(InsufficientSeeds, match=">= 50"):
        moment_probe(cfg_for("noisy_quadratic", 64, (0, 1)))


def test_moment_probe_small_scale_mechanics():
    cfg = cfg_for("noisy_quadratic", 256, tuple(range(50)))
    rep = moment_probe(cfg)
    for p_mom in (1, 2, 3):
        assert f"pi_inv_moment_p{p_mom}_stable" in rep.verdicts
    assert "S34_growth" in rep.verdicts  # delta > 0 in the default pair
    assert rep.verdicts["sup_sigma_v_constant"]["status"] in ("pass", "fail")
    json.dumps(rep.as_dict(), allow_nan=False)


def test_run_probes_shares_one_sweep_and_keys_reports_by_probe(monkeypatch):
    import adamabc.experiments as E

    calls = []
    real = E.run_sweep

    def counting(cfg, rule="adam", collect_dsum=False):
        calls.append((rule, collect_dsum))
        return real(cfg, rule, collect_dsum)

    monkeypatch.setattr(E, "run_sweep", counting)
    cfg = cfg_for(
        "noisy_quadratic", 512, tuple(range(4)),
        probes=("rate", "summability", "sgd_anchor"),
    )
    reports = E.run_probes(cfg, enforce_scale=False)
    assert set(reports) == {"rate", "summability", "sgd_anchor"}
    # one shared main sweep plus one separate sgd-rule sweep
    assert sorted(calls) == [("adam", False), ("sgd", False)]
    assert reports["sgd_anchor"].verdicts["anchor"]["status"] == "informational"
    assert any("anchor" in n for n in reports["sgd_anchor"].notes)


@pytest.mark.parametrize(
    "spoil, message",
    [
        # the first checkpoint with a non-finite statistic wins, then the first seed
        ({"avg_gsq": (0, 6), "sup_grad": (1, 5), "S_total": (0, 5)},
         "seed 4, checkpoint t=32, series S_total"),
        ({"final_W": (1, 3)}, "seed 9, checkpoint t=64, series final_W"),
    ],
)
def test_sweep_guard_names_the_first_non_finite_value(monkeypatch, spoil, message):
    import adamabc.experiments as E

    real = E._sweep_seeds

    def spoiled(*args):
        out = real(*args)
        for name, at in spoil.items():
            out[name][at] = np.nan
        return out

    cfg = cfg_for("noisy_quadratic", 64, (9, 4))  # checkpoints 1, 2, 4, ..., 64
    run_sweep(cfg)  # finite: the guard lets it through
    monkeypatch.setattr(E, "_sweep_seeds", spoiled)
    with pytest.raises(E.NonFiniteSweep, match=f"^non-finite sweep: {message}$"):
        run_sweep(cfg)


def test_report_status_aggregation():
    rep = ExperimentReport(probe="x", config={}, checkpoints=[1])
    rep.verdicts["a"] = {"status": "pass"}
    rep.verdicts["b"] = {"status": "informational"}
    assert rep.status == "pass"
    rep.verdicts["c"] = {"status": "fail"}
    assert rep.status == "fail"


def test_probe_name_registry_is_closed():
    assert PROBE_NAMES == ("rate", "last_iterate", "l1", "summability", "moment", "sgd_anchor")
    from adamabc.experiments import PROBES

    assert set(PROBES) == set(PROBE_NAMES)
