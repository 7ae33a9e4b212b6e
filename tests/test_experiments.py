"""The lockstep seed-sweep engine, fitting helpers, and the probe reports."""

import importlib.util
import json
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from adamabc.cli import parse_config
from adamabc.core import ConstraintViolation, HyperParams, eta_at
from adamabc.experiments import (
    ACCEPTANCE_PLAN,
    DegenerateFit,
    ExperimentConfig,
    ExperimentReport,
    FROZEN_THRESHOLDS,
    GATES,
    HorizonTooShort,
    InsufficientSeeds,
    PROBE_NAMES,
    PROBES,
    ProblemSpec,
    SUB,
    _stats,
    _sweep_seeds,
    default_checkpoints,
    fit_loglog_slope,
    run_probes,
    run_sweep,
)
from adamabc.instrumentation import NegativeGap, _tail_rows, log_pi_series
import adamabc.experiments as E
import adamabc.optimizer as O
from adamabc.optimizer import run_steps, run_trajectory
from adamabc.problems import grad_batch, oracle_sample, rng_stream
from reference import geometric_tail_whole, log_pi_whole, sweep_per_step

ROOT = Path(__file__).resolve().parents[1]
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
    # T = 4100 crosses oracle prefetch blocks (16 of 256 steps on the quadratic,
    # one of 2560 on the data problems) and ends on a short block and sub-block
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


@pytest.mark.parametrize("kind", list(SPECS))
@pytest.mark.parametrize("rows", [1, 3, 20])
@pytest.mark.parametrize("rule", ["adam", "sgd"])
def test_sweep_sub_blocks_match_the_per_step_reference(kind, rows, rule):
    # checkpoints on both sides of the first sub-block edges and of the
    # quadratic's prefetch block edge (4096 = 16 blocks of 256 draws)
    T, seeds = 4100, tuple(range(rows))
    cps = (1, SUB - 1, SUB, SUB + 1, 2 * SUB, 4095, 4096, 4097, 4100)
    cfg = ExperimentConfig(problem=SPECS[kind], h=HyperParams(dim=SPECS[kind].d), T=T,
                           seeds=seeds, checkpoints=cps)
    dsum = rule == "adam"
    got = run_sweep(cfg, rule=rule, collect_dsum=dsum)
    ref = sweep_per_step(cfg.problem.build(), cfg.h, T, seeds, cps, rule, dsum)
    assert set(got) == set(ref) | {"seeds"}
    for name, value in ref.items():
        assert got[name].tobytes() == value.tobytes(), name


@pytest.mark.parametrize("kind", list(SPECS))
@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("rule", ["adam", "sgd"])
def test_a_sweep_forms_each_read_set_bitwise(kind, rows, rule):
    # each probe's series, each series alone and their union, formed alone,
    # against the sweep that forms every series, which matches the per-step
    # reference; T = 4100 ends on a short block and on a short sub-block, and
    # the checkpoints lie on both sides of sub-block and prefetch block edges
    # (2560 steps of row indices, 4096 = 16 blocks of the quadratic's 256)
    T, seeds = 4100, tuple(range(rows))
    cps = (1, 2, SUB - 1, SUB, SUB + 1, 2 * SUB, 2559, 2560, 2561, 4095, 4096, 4097, 4100)
    cfg = ExperimentConfig(problem=SPECS[kind], h=HyperParams(dim=SPECS[kind].d), T=T,
                           seeds=seeds, checkpoints=cps)
    dsum = rule == "adam"  # an SGD sweep has no rate gaps
    full = run_sweep(cfg, rule=rule, collect_dsum=dsum)
    ref = sweep_per_step(cfg.problem.build(), cfg.h, T, seeds, cps, rule, dsum)
    for name, value in ref.items():
        assert full[name].tobytes() == value.tobytes(), name
    union = tuple(name for name in E._SERIES if dsum or name != "dsum")
    for reads in {*(tuple(n for n in r if n in union) for r in E._READS.values()), union,
                  *((name,) for name in E.SWEEP_SERIES)}:
        got = run_sweep(cfg, rule=rule, reads=reads)
        assert set(got) == set(reads) | {"final_W", "seeds"}, reads
        for name, value in got.items():
            assert value.tobytes() == full[name].tobytes(), (reads, name)


@pytest.mark.parametrize("kind", list(SPECS))
def test_draws_do_not_depend_on_the_prefetch_block(monkeypatch, kind):
    # BLOCK bytes a row: 32, 32, 256 and 4096 steps of the d = 10 quadratic's
    # noise, 32, 320, 2560 and 40960 of a data problem's row indices.  T = 2600
    # ends on a short block at every size and on an 8-step sub-block.
    spec = SPECS[kind]
    p, h = spec.build(), HyperParams(dim=spec.d)
    T, seeds = 2600, (0, 4, 9)
    runs = []
    for block in (8 * SUB, 80 * SUB, 20480, 80 * 4096):
        monkeypatch.setattr(O, "BLOCK", block)
        traces = [[getattr(tr, a).tobytes() for a in ("W", "G", "M", "V", "eta_v")]
                  for tr in O.run_trajectories(p, h, T, seeds)]
        sweep = _sweep_seeds(p, h, T, seeds, default_checkpoints(T), reads=E._SERIES)
        runs.append((traces, {name: a.tobytes() for name, a in sweep.items()}))
    assert runs[0] == runs[1] == runs[2] == runs[3]


def test_draw_blocks_are_sized_in_bytes():
    # whole sub-blocks: 256 steps of d = 10 noise, 2560 of row indices
    assert [O._block_steps(SPECS[k].build()) for k in SPECS] == [256, 2560, 2560]
    assert O._block_steps(ProblemSpec(kind="noisy_quadratic", d=5).build()) == 512
    assert O._block_steps(ProblemSpec(kind="noisy_quadratic", d=100).build()) == SUB


@pytest.mark.parametrize("kind", list(SPECS))
def test_sweep_exact_gradient_equals_grad_batch_slab_by_slab(kind):
    # a checkpoint at every step; T = 4100 ends on a short sub-block of 4 steps
    T, seeds = 4100, (0, 5, 7)
    cfg = replace(cfg_for(kind, T, seeds), checkpoints=tuple(range(1, T + 1)))
    res = run_sweep(cfg)
    p = cfg.problem.build()
    gn = np.empty((len(seeds), T))
    for t0, k, ring in run_steps(p, cfg.h, T, seeds):
        for i in range(k):
            g = grad_batch(p, ring.W[i])  # one (S, d) slab, fresh buffers
            gn[:, t0 + i] = np.sqrt(np.einsum("sd,sd->s", g, g))
    assert res["last_grad"].tobytes() == gn.tobytes()
    assert res["sup_grad"].tobytes() == np.maximum.accumulate(gn, axis=1).tobytes()


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
    # T = 4100 crosses oracle prefetch blocks (16 of 256 steps on the quadratic,
    # one of 2560 on the data problems) and ends on a short block and sub-block
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


@pytest.mark.parametrize("ask", [dict(collect_dsum=True), dict(reads=("avg_gsq", "dsum"))])
def test_an_sgd_sweep_refuses_gap_sums_before_any_step(monkeypatch, ask):
    # the SGD rule has no rate gaps, so there is no dsum to return
    def no_step(*args, **kwargs):
        raise AssertionError("a step ran")

    monkeypatch.setattr(E, "run_steps", no_step)
    with pytest.raises(ValueError, match="no rate gaps"):
        run_sweep(cfg_for("noisy_quadratic", 64, (0, 1)), rule="sgd", **ask)


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
        (dict(probes=("rate", "rate")), "probes must be distinct, got rate,rate"),
        (dict(suite=("logistic", "logistic")), "suite must be distinct"),
        (dict(problem=replace(SPECS["noisy_quadratic"], eig_max=math.inf)), "eig_max must be finite"),
        (dict(problem=replace(SPECS["logistic"], reg=math.nan)), "reg must be finite"),
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


def tail_sums(rows, q):
    """Every row's tail sums from ``_tail_rows``, stacked."""
    return np.stack(list(_tail_rows(rows, q)))


def test_geometric_tail_hand_value():
    out = tail_sums(np.array([[1.0, 2.0, 3.0]]), 0.5)
    assert np.array_equal(out, [[1.0 + 1.0 + 0.75, 2.0 + 1.5, 3.0]])


def test_geometric_tail_q_zero_returns_independent_copy():
    rows = np.array([[1.0, 2.0]])
    out = next(_tail_rows(rows, 0.0))
    assert np.array_equal(out, rows[0])
    out[0] = 99.0
    assert rows[0, 0] == 1.0


def test_geometric_tail_fft_path_matches_direct():
    rng = np.random.default_rng(2)
    q = 0.9
    T = 20_000  # T * (tau+1) > 2^22 forces the fft path
    tau = min(int(math.floor(math.log(1e-12) / math.log(q))), T - 1)
    assert T * (tau + 1) > 1 << 22
    rows = rng.uniform(0.0, 1.0, size=(2, T))
    out = tail_sums(rows, q)
    kernel = q ** np.arange(tau + 1)
    padded = np.concatenate([rows, np.zeros((2, tau))], axis=1)
    ref = np.stack([np.correlate(padded[s], kernel, mode="valid") for s in range(2)])
    np.testing.assert_allclose(out, ref, rtol=1e-9, atol=1e-12)
    assert np.all(out >= 0.0)


# sqrt(0.9) keeps 525 tail weights: T = 7989 is the last direct-path horizon
Q_TAIL = math.sqrt(0.9)


@pytest.mark.parametrize("q, T", [(Q_TAIL, 7989), (Q_TAIL, 7990), (0.0, 7990)])
@pytest.mark.parametrize("S", [1, 3])
def test_row_by_row_tail_sums_equal_the_whole_array_ones(q, T, S):
    rows = np.random.default_rng(T + S).uniform(0.0, 1e-3, size=(S, T))
    assert np.array_equal(tail_sums(rows, q), geometric_tail_whole(rows, q))


@pytest.fixture(scope="module")
def quad_dsum():
    """20 seeds of real quadratic gap sums, one step past the last direct-path
    horizon; numpy sums a contiguous column in pairs only from 8 rows on."""
    cfg = cfg_for("noisy_quadratic", 7990, tuple(range(20)))
    return cfg, run_sweep(cfg, collect_dsum=True)["dsum"]


@pytest.mark.parametrize("T", [7989, 7990])
def test_log_pi_checkpoints_equal_the_dense_series_columns(quad_dsum, T):
    cfg, dsum = quad_dsum
    dsum = dsum[:, :T]
    cert = cfg.problem.build().certificate
    cols = np.asarray(default_checkpoints(T)) - 1
    got = log_pi_series(dsum, cfg.h, cert, cols)
    want = log_pi_whole(dsum, cfg.h, cert)[:, cols]
    assert np.array_equal(got, want)
    # a seed mean sums a column-major (S, n) stack in another order than a
    # C-order one; the report's stats must keep the dense selection's order
    assert json.dumps(_stats(got)) == json.dumps(_stats(want))


def test_log_pi_series_holds_one_row_at_a_time():
    # the whole-array FFT path held (S, nfft) spectra and three dense (S, T)
    # series; one row's transforms and the (S, n) result must be all now
    S, T = 20, 1 << 15
    dsum = np.random.default_rng(5).uniform(0.0, 1e-3, size=(S, T))
    cols = np.asarray(default_checkpoints(T)) - 1
    cert = SPECS["noisy_quadratic"].build().certificate
    nfft = 1 << (T + 525).bit_length()
    tracemalloc.start()
    try:
        log_pi_series(dsum, HyperParams(), cert, cols)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * nfft * 16 + S * len(cols) * 8, peak


# ---------------------------------------------------------------- probe gating


def test_rate_probe_scale_gates_raise_when_enforced():
    with pytest.raises(InsufficientSeeds, match=">= 20 seeds"):
        run_probes(cfg_for("noisy_quadratic", 1 << 14, (0, 1)))
    with pytest.raises(HorizonTooShort, match="2\\^14"):
        run_probes(cfg_for("noisy_quadratic", 512, tuple(range(20))))


def test_rate_probe_below_scale_is_informational():
    rep = run_probes(cfg_for("noisy_quadratic", 512, (0, 1, 2)), enforce_scale=False)["rate"]
    assert rep.verdicts["rate_slope"]["status"] == "informational"
    assert any("below acceptance scale" in n for n in rep.notes)
    assert rep.status == "pass"  # informational verdicts never fail a report
    json.dumps(rep.as_dict(), allow_nan=False)


def test_rate_probe_delta_zero_single_checkpoint_is_informational():
    # T = 1: the only checkpoint is t = 1 where ln(1) = 0 leaves no ratio data
    h = HyperParams(gamma=1.5, delta=0.0, dim=10)
    rep = run_probes(cfg_for("noisy_quadratic", 1, (0, 1), h=h), enforce_scale=False)["rate"]
    v = rep.verdicts["log_rate_ratio"]
    assert v["status"] == "informational"
    assert any("no final-decade checkpoints past t = 1" in n for n in rep.notes)
    json.dumps(rep.as_dict(), allow_nan=False)  # nan ratios serialized as null


def test_rate_probe_delta_zero_reports_ratio_series():
    h = HyperParams(gamma=1.5, delta=0.0, dim=10)
    rep = run_probes(cfg_for("noisy_quadratic", 2048, (0, 1, 2)), enforce_scale=False)["rate"]
    rep0 = run_probes(cfg_for("noisy_quadratic", 2048, (0, 1, 2), h=h), enforce_scale=False)["rate"]
    assert "log_rate_ratio" in rep0.per_seed
    assert "rate_slope" in rep.verdicts and "log_rate_ratio" not in rep.verdicts
    assert "log_rate_ratio" in rep0.verdicts and "rate_slope" not in rep0.verdicts


def test_last_iterate_probe_requires_the_hypotheses():
    h_bad = HyperParams(gamma=1.0, delta=0.0, dim=10)
    cfg = cfg_for("noisy_quadratic", 64, (0,), h=h_bad, probes=("last_iterate",))
    with pytest.raises(ConstraintViolation, match="gamma > 1 and delta > 0"):
        run_probes(cfg)
    # the hypothesis gate is not a size gate: enforce_scale cannot waive it
    with pytest.raises(ConstraintViolation):
        run_probes(cfg, enforce_scale=False)


def test_last_iterate_threshold_override_and_provenance():
    cfg = cfg_for("noisy_quadratic", 256, (0, 1), probes=("last_iterate",))
    loose = run_probes(replace(cfg, epsilon_last=10.0))["last_iterate"]
    v = loose.verdicts["last_iterate_below_eps"]
    assert v["status"] == "pass"
    assert v["threshold"] == 10.0
    assert v["provenance"] == "epsilon_last from config"
    strict = run_probes(replace(cfg, epsilon_last=1e-12))["last_iterate"]
    assert strict.verdicts["last_iterate_below_eps"]["status"] == "fail"
    assert strict.status == "fail"
    default = run_probes(cfg)["last_iterate"]
    assert (
        default.verdicts["last_iterate_below_eps"]["threshold"]
        == FROZEN_THRESHOLDS["last_iterate_eps"]["value"]
    )
    assert "pilot" in default.verdicts["last_iterate_below_eps"]["provenance"]


def test_summability_probe_is_informational_outside_hypotheses():
    h0 = HyperParams(gamma=1.5, delta=0.0, dim=10)
    cfg = cfg_for("noisy_quadratic", 1024, (0, 1), probes=("summability",))
    rep = run_probes(replace(cfg, h=h0))["summability"]
    v = rep.verdicts["final_increment_below_1pct"]
    assert v["status"] == "informational"
    assert any("informational only" in n for n in rep.notes)
    rep2 = run_probes(cfg)["summability"]
    assert rep2.verdicts["final_increment_below_1pct"]["status"] in ("pass", "fail")


def test_summability_probe_needs_two_checkpoints():
    # a single checkpoint leaves no final increment: refused before the sweep
    cfg = cfg_for("noisy_quadratic", 64, (0, 1), probes=("summability",))
    with pytest.raises(ConstraintViolation, match="needs >= 2 checkpoints, got 1"):
        run_probes(replace(cfg, checkpoints=(64,)))


def test_moment_probe_needs_gap_sums():
    with pytest.raises(InsufficientSeeds, match=">= 50"):
        run_probes(cfg_for("noisy_quadratic", 64, (0, 1), probes=("moment",)))


def test_moment_probe_small_scale_mechanics():
    cfg = cfg_for("noisy_quadratic", 256, tuple(range(50)), probes=("moment",))
    rep = run_probes(cfg)["moment"]
    for p_mom in (1, 2, 3):
        assert f"pi_inv_moment_p{p_mom}_stable" in rep.verdicts
    assert "S34_growth" in rep.verdicts  # delta > 0 in the default pair
    assert rep.verdicts["sup_sigma_v_constant"]["status"] in ("pass", "fail")
    json.dumps(rep.as_dict(), allow_nan=False)


def test_run_probes_shares_one_sweep_and_keys_reports_by_probe(monkeypatch):
    calls = []
    real = E.run_sweep

    def counting(cfg, rule="adam", collect_dsum=False, *, reads=None):
        calls.append((rule, collect_dsum, reads))
        return real(cfg, rule, collect_dsum, reads=reads)

    monkeypatch.setattr(E, "run_sweep", counting)
    # one shared Adam sweep forming the union of its probes' series, the gap
    # sums only when moment reads them, plus one separate sgd-rule sweep
    sgd = ("sgd", False, ("avg_gsq", "last_grad"))
    for probes, sweeps in [
        (("rate", "summability", "sgd_anchor"),
         [("adam", False, ("avg_gsq", "last_grad", "eta_gsq_sum")), sgd]),
        (("moment", "sgd_anchor"),
         [("adam", False, ("S_total", "sigma_v", "sup_sigma_v", "dsum")), sgd]),
        (("l1", "last_iterate", "sgd_anchor"), [("adam", False, ("last_grad", "sup_grad")), sgd]),
    ]:
        calls.clear()
        reports = E.run_probes(cfg_for("noisy_quadratic", 512, tuple(range(4)), probes=probes),
                               enforce_scale=False)
        assert list(reports) == list(probes)
        assert calls == sweeps
        assert reports["sgd_anchor"].verdicts["anchor"]["status"] == "informational"
        assert any("anchor" in n for n in reports["sgd_anchor"].notes)


@pytest.mark.parametrize("h, probes", [
    (HyperParams(dim=10), PROBE_NAMES),
    # outside the hypotheses: the ratio verdict and the informational branches
    (HyperParams(dim=10, gamma=1.0, delta=0.0), ("rate", "summability", "moment", "sgd_anchor")),
])
def test_every_verdict_has_one_key_order(h, probes):
    cfg = cfg_for("noisy_quadratic", 256, (0, 1), h=h, probes=probes)
    for probe, rep in run_probes(cfg, enforce_scale=False).items():
        assert rep.verdicts, probe
        for name, v in rep.verdicts.items():
            keys = list(v)
            assert keys[:2] == ["status", "observed"] and keys[-1] == "provenance", (name, keys)
            assert set(keys[2:-1]) <= {"threshold", "target", "tolerance"}, (name, keys)
            assert v["status"] in ("pass", "fail", "informational"), (name, v["status"])


class _NoSweep(Exception):
    pass


@pytest.mark.parametrize("probes, h", [
    (("rate",), HyperParams(dim=10)),
    (("moment",), HyperParams(dim=10)),
    (("summability", "moment"), HyperParams(dim=10, delta=0.1, gamma=1.2)),
])
def test_too_few_fit_points_raise_before_any_sweep(monkeypatch, probes, h):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        raise _NoSweep

    monkeypatch.setattr(E, "run_sweep", counting)
    # one checkpoint inside the final decade [1638.4, 16384]: the slope fit
    # needs four, and the gate says so before the sweep, as the fit would after
    cfg = replace(cfg_for("noisy_quadratic", 16384, tuple(range(50)), h=h, probes=probes),
                  checkpoints=(1, 2, 4, 8, 16384))
    message = r"^only 1 points inside fit range \[1638\.4, 16384\.0\]$"
    with pytest.raises(DegenerateFit, match=message):
        run_probes(cfg)
    assert calls == []
    # delta = 0 fits no slope, and below acceptance scale a skipped fit is noted
    for cfg, enforce in ((replace(cfg, h=replace(h, delta=0.0, gamma=1.5)), True), (cfg, False)):
        with pytest.raises(_NoSweep):
            run_probes(cfg, enforce_scale=enforce)
    assert len(calls) == 2


@pytest.mark.parametrize("threads", [1, 2])
def test_a_sweep_that_reads_gaps_raises_the_traces_negative_gap(threads):
    # v = 0.6: the synthetic pre-run rate v / alpha1 lies below seed 4's first
    # rate; seeds 0, 1 and 3 pass, and with two workers seeds 0, 1 are one part
    h = HyperParams(dim=10, v=0.6)
    with pytest.raises(NegativeGap) as lone:
        run_trajectory(SPECS["noisy_quadratic"].build(), h, 64, 4)
    assert "seed 4, Delta_{t=1," in str(lone.value)
    cfg = cfg_for("noisy_quadratic", 64, (0, 1, 3, 4), h=h, threads=threads)
    # every Adam sweep checks its gaps, whether or not the moment probe sums them
    for probes in (("rate", "moment"), ("rate",)):
        with pytest.raises(NegativeGap) as swept:
            run_probes(replace(cfg, probes=probes), enforce_scale=False)
        assert str(swept.value) == str(lone.value)
    # an SGD sweep forms no rates
    assert run_probes(replace(cfg, probes=("sgd_anchor",)), enforce_scale=False)["sgd_anchor"]


def test_every_probe_has_one_gate_entry():
    assert list(GATES) == list(PROBES)


def test_probes_only_reduce_the_sweep_they_are_given(monkeypatch):
    cfg = cfg_for("noisy_quadratic", 256, tuple(range(4)))  # below every acceptance scale
    sweeps = {"adam": run_sweep(cfg, collect_dsum=True), "sgd": run_sweep(cfg, rule="sgd")}

    def no_sweep(*args, **kwargs):
        raise AssertionError("a probe ran its own sweep")

    monkeypatch.setattr(E, "run_sweep", no_sweep)
    for probe, fn in PROBES.items():
        rep = fn(cfg, sweeps["sgd" if probe == "sgd_anchor" else "adam"])
        assert rep.probe == probe
        assert not any("below acceptance scale" in n for n in rep.notes)


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


@pytest.mark.parametrize(
    "probes, T, n_seeds, exc",
    [
        (("rate",), 64, 2, InsufficientSeeds),
        (("summability", "rate"), 64, 20, HorizonTooShort),
        (("l1",), 1 << 14, 50, InsufficientSeeds),
        (("moment",), 64, 2, InsufficientSeeds),
    ],
)
def test_run_probes_checks_scale_gates_before_any_sweep(monkeypatch, probes, T, n_seeds, exc):
    calls = []
    monkeypatch.setattr(E, "run_sweep", lambda *a, **kw: calls.append(a))
    with pytest.raises(exc):
        E.run_probes(cfg_for("noisy_quadratic", T, range(n_seeds), probes=probes))
    assert calls == []


class _SweepReached(Exception):
    pass


@pytest.mark.parametrize("name", list(ACCEPTANCE_PLAN))
def test_acceptance_plan_passes_every_gate(monkeypatch, name):
    def sentinel(*args, **kwargs):
        raise _SweepReached

    monkeypatch.setattr(E, "run_sweep", sentinel)
    with pytest.raises(_SweepReached):
        E.run_probes(ACCEPTANCE_PLAN[name])


# ---------------------------------------------------------------- acceptance plan


@pytest.mark.parametrize(
    "name, text",
    [
        ("rate_ratio_gamma1.0", "T = 1048576\nseeds = {}\ndelta = 0.0\ngamma = 1.0\nprobes = rate"),
        ("moment_logistic",
         "problem = logistic\nT = 262144\nseeds = {}\ndelta = 0.5\ngamma = 1.5\nprobes = moment"),
    ],
)
def test_plan_entries_equal_their_flat_text_configs(name, text):
    cfg = ACCEPTANCE_PLAN[name]
    seeds = ",".join(str(s) for s in range(len(cfg.seeds)))
    assert parse_config(text.format(seeds)) == cfg


def _pilot_shape(cfg) -> dict:
    return {
        "kind": cfg.problem.kind, "T": cfg.T, "seeds": len(cfg.seeds),
        "delta": cfg.h.delta, "gamma": cfg.h.gamma, "probes": list(cfg.probes),
    }


def test_pilot_json_records_the_acceptance_plan():
    pilot = json.loads((ROOT / "pilot.json").read_text())
    assert list(pilot) == list(ACCEPTANCE_PLAN)
    for name, cfg in ACCEPTANCE_PLAN.items():
        assert pilot[name]["config"] == _pilot_shape(cfg), name
        assert list(pilot[name]["probes"]) == list(cfg.probes), name


def test_pilot_script_writes_one_entry_per_plan_name(monkeypatch, tmp_path):
    spec = importlib.util.spec_from_file_location(
        "convergence_pilot", ROOT / "scripts" / "run_convergence_pilot.py"
    )
    pilot = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pilot)
    seen = []

    def stub(cfg):
        seen.append(cfg)
        rep = ExperimentReport(probe="stub", config=cfg.as_dict(), checkpoints=[1])
        rep.verdicts["v"] = {"status": "pass", "observed": math.inf, "threshold": 1.0}
        return {probe: rep for probe in cfg.probes}

    monkeypatch.setattr(pilot, "run_probes", stub)
    out = tmp_path / "pilot.json"
    assert pilot.main(["--out", str(out), "--threads", "2"]) == 0
    doc = json.loads(out.read_text())
    assert list(doc) == list(ACCEPTANCE_PLAN)
    assert all(cfg.threads == 2 for cfg in seen)
    for name, cfg in ACCEPTANCE_PLAN.items():
        assert doc[name]["config"] == _pilot_shape(cfg)
        for probe in cfg.probes:
            assert doc[name]["probes"][probe] == {
                "status": "pass", "verdicts": {"v": {"status": "pass", "observed": None}}, "fits": {},
            }


def test_report_status_aggregation():
    rep = ExperimentReport(probe="x", config={}, checkpoints=[1])
    rep.verdicts["a"] = {"status": "pass"}
    rep.verdicts["b"] = {"status": "informational"}
    assert rep.status == "pass"
    rep.verdicts["c"] = {"status": "fail"}
    assert rep.status == "fail"


def test_probe_name_registry_is_closed():
    assert PROBE_NAMES == ("rate", "last_iterate", "l1", "summability", "moment", "sgd_anchor")
    assert set(PROBES) == set(PROBE_NAMES)
