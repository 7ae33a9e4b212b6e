"""Checkers must pass on honest runs and flip on targeted corruptions."""

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

import adamabc.verify as V
from adamabc.core import HyperParams, with_dim
from adamabc.optimizer import run_trajectory
from adamabc.problems import (
    ROW_CHUNK,
    grad,
    grad_batch,
    make_noisy_quadratic,
    rng_stream,
)
from adamabc.verify import (
    CheckResult,
    IncompleteTrace,
    check_descent_expectation,
    check_exchange,
    check_grad_bound,
    check_momentum_bound,
    check_oracle_soundness,
    check_properties,
    check_taylor_step,
    check_telescoping,
    check_vital1_pathwise,
    descent_constants,
    _result,
    _worst,
    gradcheck,
    merge_results,
    run_trace_checks,
    sample_points,
)
from reference import descent_whole, exchange_per_instance, gradcheck_per_point

EXPECTED_CHECKS = [
    "rate-monotone",
    "second-moment-floor",
    "momentum-square-decay",
    "value-bridge",
    "taylor-step",
    "gap-telescoping",
    "momentum-energy-bound",
    "energy-growth-phi1",
    "energy-growth-phi4",
]


# ---------------------------------------------------------------- honest traces


@pytest.fixture(scope="module")
def short_traces(suite):
    return {
        p.name: run_trajectory(p, HyperParams(dim=p.dim), T=400, seed=1) for p in suite
    }


def test_full_check_suite_passes_on_every_problem(short_traces):
    for name, tr in short_traces.items():
        results = run_trace_checks(tr)
        assert [r.name for r in results] == EXPECTED_CHECKS
        failing = [r.name for r in results if r.status != "pass"]
        assert failing == [], f"{name}: {failing}"


def test_momentum_decay_margin_is_exactly_zero_without_momentum(quad10):
    # with beta1 = 0 both sides of the decay display are the same floats
    h = HyperParams(beta1=0.0, dim=10)
    tr = run_trajectory(quad10, h, T=100, seed=0)
    r = next(
        x for x in check_properties(tr)
        if x.name == "momentum-square-decay"
    )
    assert r.status == "pass"
    assert r.worst_margin == 0.0


# ---------------------------------------------------------------- tampered traces


def test_floor_check_flags_a_deflated_second_moment(trace2k):
    V = trace2k.V.copy()
    V[5, 3] /= 10.0
    bad = dataclasses.replace(trace2k, V=V)
    results = {r.name: r for r in check_properties(bad)}
    r = results["second-moment-floor"]
    assert r.status == "fail"
    assert r.location == (trace2k.seed, 6, 3)  # exactly the corrupted entry
    for other in ("rate-monotone", "momentum-square-decay", "value-bridge"):
        assert results[other].status == "pass"


def test_taylor_check_flags_an_understated_smoothness_constant(trace2k):
    honest = check_taylor_step(trace2k, trace2k.certificate)
    assert honest.status == "pass"
    lied = dataclasses.replace(trace2k.certificate, L_f=trace2k.certificate.L_f / 10.0)
    r = check_taylor_step(trace2k, lied)
    assert r.status == "fail"
    assert r.worst_margin < -1e-8


def test_energy_growth_uses_the_stored_increment_series(trace2k):
    zeros = np.zeros(trace2k.T)
    r1 = check_vital1_pathwise(dataclasses.replace(trace2k, lambda1=zeros), 1)
    assert r1.status == "fail"  # without the increments the phi=1 bound breaks
    assert r1.location[1] == 1
    # at phi = 4 the normalization is so strong the base term alone covers it
    r4 = check_vital1_pathwise(dataclasses.replace(trace2k, lambda4=zeros), 4)
    assert r4.status == "pass"


def test_incomplete_trace_is_rejected(trace2k):
    G = trace2k.G.copy()
    G[7, 0] = float("nan")
    bad = dataclasses.replace(trace2k, G=G)
    with pytest.raises(IncompleteTrace, match="non-finite"):
        check_telescoping(bad)
    with pytest.raises(IncompleteTrace):
        check_momentum_bound(bad)


# ---------------------------------------------------------------- sampled checks


def test_sample_points_centers_on_the_minimizer(suite):
    for p in suite:
        W = sample_points(p, 64, rng_stream("sp", 0, "points"))
        assert W.shape == (64, p.dim)
        anchor = getattr(p, "w_star", None)
        if anchor is None:
            anchor = np.zeros(p.dim)
        # radii span 10^-2 .. 10^0.5, so everything stays in a moderate ball
        assert np.max(np.linalg.norm(W - anchor, axis=1)) < 10.0 ** 0.5 * 8.0


def test_gradient_energy_bound_holds_and_flags_a_wrong_floor(suite):
    for p in suite:
        r = check_grad_bound(p, 200, rng_stream("gb", 0, "points"))
        assert r.status == "pass", p.name
    q = suite[0]
    lied = dataclasses.replace(
        q, certificate=dataclasses.replace(q.certificate, f_star=q.certificate.f_star + 1.0)
    )
    r = check_grad_bound(lied, 200, rng_stream("gb", 0, "points"))
    assert r.status == "fail"


def test_finite_difference_gradcheck_passes_and_detects_scaling(suite, monkeypatch):
    for p in suite:
        r = gradcheck(p, 50, rng_stream("fd", 0, "points"))
        assert r.status == "pass", p.name
        assert r.worst_margin > 0.0
    import adamabc.verify as V

    true_grad_batch = grad_batch
    monkeypatch.setattr(V, "grad_batch", lambda p, W, ws=None: 1.01 * true_grad_batch(p, W, ws))
    r = V.gradcheck(suite[0], 10, rng_stream("fd", 0, "points"))
    assert r.status == "fail"


def test_oracle_soundness_on_every_problem(suite):
    for p in suite:
        out = check_oracle_soundness(p, 5, 20_000, rng_stream("os", 0, "branch"))
        names = [r.name for r in out]
        assert names == ["oracle-unbiasedness", "oracle-second-moment"]
        for r in out:
            assert r.status == "pass", (p.name, r.name, r.worst_margin)
            assert "4-SE budget" in r.note


def test_oracle_soundness_flags_a_biased_oracle(quad10, monkeypatch):
    import adamabc.verify as V

    from adamabc.problems import branch_samples as real_branch

    def biased(p, w, K, rng):
        return real_branch(p, w, K, rng) + 0.5  # constant bias, far beyond 4 SE

    monkeypatch.setattr(V, "branch_samples", biased)
    out = V.check_oracle_soundness(quad10, 5, 20_000, rng_stream("os", 1, "branch"))
    assert any(r.status == "fail" for r in out)


# ---------------------------------------------------------------- argument errors


def test_oracle_soundness_rejects_too_few_draws_or_points(quad10):
    # K = 1 leaves the 4-SE budget undefined (a 0/0 standard deviation)
    with pytest.raises(ValueError, match="K must be >= 2, got 1"):
        check_oracle_soundness(quad10, 2, 1, rng_stream("os", 0, "branch"))
    with pytest.raises(ValueError, match="num_points must be >= 1, got 0"):
        check_oracle_soundness(quad10, 0, 100, rng_stream("os", 0, "branch"))


def test_gradcheck_rejects_zero_points(quad10):
    with pytest.raises(ValueError, match="num_points must be >= 1, got 0"):
        gradcheck(quad10, 0, rng_stream("fd", 0, "points"))


def test_grad_bound_rejects_zero_points(quad10):
    with pytest.raises(ValueError, match="num_points must be >= 1, got 0"):
        check_grad_bound(quad10, 0, rng_stream("gb", 0, "points"))


def test_exchange_rejects_zero_instances():
    with pytest.raises(ValueError, match="num_instances must be >= 1, got 0"):
        check_exchange(0, rng_stream("ex", 0, "misc"))


def test_oracle_soundness_holds_one_point_of_samples_at_a_time(suite):
    # numpy reports its buffers to tracemalloc; the (K, d) samples of one point
    # are the only array of that size alive, every other temporary is a
    # (ROW_CHUNK, d) chunk or a (K,) series
    p = next(q for q in suite if q.name == "logistic")
    K = 100_000
    tracemalloc.start()
    try:
        check_oracle_soundness(p, 2, K, rng_stream("os-mem", 0, "branch"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * K * p.dim * 8, peak


def test_exchange_inequalities_hold_and_match_brute_force():
    r = check_exchange(1_000, rng_stream("ex", 0, "misc"))
    assert r.status == "pass"
    assert r.worst_margin >= 0.0
    # independent O(n^2) evaluation of both sides on fresh instances
    rng = np.random.default_rng(123)
    for _ in range(25):
        n = int(rng.integers(2, 40))
        mu = float(rng.uniform(0.1, 0.95))
        sigma = mu * float(rng.uniform(0.02, 0.9))
        psi = 10.0 ** rng.uniform(-3.0, 3.0, size=n)
        inner = sum(
            mu ** (n - 1 - i) * sum(sigma ** (i - j) * psi[j] for j in range(i + 1))
            for i in range(n)
        )
        lower = sum(mu ** (n - 1 - i) * psi[i] for i in range(n))
        upper = lower / (1.0 - sigma / mu)
        assert lower < inner <= upper * (1.0 + 1e-9)


@pytest.mark.parametrize("kind", [0, 1, 2], ids=["noisy_quadratic", "least_squares", "logistic"])
def test_chunked_gradcheck_is_the_per_point_check(suite, kind):
    # chunks of ``per`` points: one chunk short, full, one over, and several
    p = suite[kind]
    per = ROW_CHUNK // (2 * p.dim)
    for num_points in (1, per - 1, per, per + 1, 1000):
        for seed in (0, 1):
            got = gradcheck(p, num_points, rng_stream("fd-chunks", seed, "points"))
            ref = gradcheck_per_point(p, num_points, rng_stream("fd-chunks", seed, "points"))
            assert got.as_dict() == ref.as_dict(), (num_points, seed)


@pytest.mark.parametrize("num_instances", [1, 2, ROW_CHUNK // 8 + 1, 1000])
def test_lockstep_exchange_is_the_per_instance_check(num_instances):
    for seed in (0, 1):
        got = check_exchange(num_instances, rng_stream("ex-lockstep", seed, "misc"))
        ref = exchange_per_instance(num_instances, rng_stream("ex-lockstep", seed, "misc"))
        assert got.as_dict() == ref.as_dict(), seed


def _nan_on_third_call(fn):
    calls = []

    def patched(*args):
        calls.append(None)
        out = fn(*args)
        return out * np.nan if len(calls) == 3 else out

    return patched


def _nan_in_third_row(fn):
    def patched(*args):
        out = fn(*args).copy()
        out[2] = np.nan
        return out

    return patched


class _NanPsiOnThirdInstance:
    """An rng whose third instance of check_exchange draws an all-NaN psi."""

    def __init__(self, rng):
        self.rng, self.vectors = rng, 0

    def integers(self, *args, **kwargs):
        return self.rng.integers(*args, **kwargs)

    def uniform(self, *args, size=None):
        out = self.rng.uniform(*args, size=size)
        if size is not None:
            self.vectors += 1
            if self.vectors == 3:
                out[:] = np.nan
        return out


def test_a_nan_margin_at_one_point_is_located_and_fails(suite, monkeypatch):
    import adamabc.verify as V

    nan_note = "non-finite margin nan"
    monkeypatch.setattr(V, "grad_batch", _nan_in_third_row(grad_batch))
    r = V.gradcheck(suite[0], 10, rng_stream("fd", 0, "points"))
    assert (r.status, r.location, r.note) == ("fail", (None, 2, None), nan_note)

    monkeypatch.setattr(V, "grad", _nan_on_third_call(grad))
    unbiased, second = V.check_oracle_soundness(suite[0], 5, 2_000, rng_stream("os", 0, "branch"))
    for r, location in ((unbiased, (None, 2, 0)), (second, (None, 2, None))):
        assert (r.status, r.location) == ("fail", location), r.name
        assert r.note == f"{nan_note}; K=2000, 4-SE budget"

    r = check_exchange(10, _NanPsiOnThirdInstance(rng_stream("ex", 0, "misc")))
    assert (r.status, r.location) == ("fail", (None, 2, 0))
    assert r.note.startswith(f"{nan_note}; location i: instance index")


# ---------------------------------------------------------------- descent check


def test_descent_constants_formulas():
    cert = dataclasses.replace(
        make_noisy_quadratic([2.0], sigma=1.0).certificate
    )  # L=2, A=0, B=1, C=1
    cs = descent_constants(cert, HyperParams(beta1=0.5))
    assert cs["L"] == 2.0
    assert cs["C1"] == (0.0 + 2.0 * 2.0 * 1.0) * 3.0 / 2.0  # 6
    assert cs["C2"] == 0.25 * 4.0 / (2.0 * 0.25) + 2.0 * 1.0  # 4
    assert cs["kappa"] == 6.0 * 0.25 / (2.0 * 0.25)  # 3


def test_descent_holds_exactly_without_noise(quad10_noiseless, h10):
    tr = run_trajectory(quad10_noiseless, h10, T=512, seed=0)
    cps = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512]
    r = check_descent_expectation(
        quad10_noiseless, tr, cps, 1_000, rng_stream("d", 0, "branch")
    )
    assert r.status == "pass"
    assert r.worst_margin == pytest.approx(0.05, abs=1e-12)  # 10/10 minus 0.95
    assert "10/10 checkpoints" in r.note


def test_descent_holds_statistically_with_noise(quad10, trace2k):
    cps = [1, 2, 4, 8, 16, 32, 64, 128]
    r = check_descent_expectation(quad10, trace2k, cps, 10_000, rng_stream("d2", 0, "branch"))
    assert r.status == "pass"
    assert "8/8 checkpoints" in r.note


def test_descent_with_tiny_k_is_informational_only(quad10, trace2k):
    r = check_descent_expectation(quad10, trace2k, [1, 2], 2, rng_stream("d3", 0, "branch"))
    assert r.status == "pass"  # tolerance widens to infinity
    assert math.isinf(r.tolerance)
    assert "informational only" in r.note


def test_informational_descent_result_is_strict_json(quad10, trace2k):
    def strict(token):
        raise AssertionError(f"non-strict JSON token {token}")

    r = check_descent_expectation(quad10, trace2k, [1, 2, 4], 500, rng_stream("d5", 0, "branch"))
    assert math.isinf(r.tolerance)
    d = json.loads(json.dumps(r.as_dict()), parse_constant=strict)
    assert d["tolerance"] is None and d["worst_margin"] == r.worst_margin


def test_descent_input_validation(quad10, trace2k):
    rng = rng_stream("d4", 0, "branch")
    with pytest.raises(ValueError, match="K must be >= 2"):
        check_descent_expectation(quad10, trace2k, [1], 1, rng)
    with pytest.raises(ValueError, match="at least one checkpoint"):
        check_descent_expectation(quad10, trace2k, [], 10, rng)
    with pytest.raises(ValueError, match="outside"):
        check_descent_expectation(quad10, trace2k, [0, 5], 10, rng)
    with pytest.raises(ValueError, match="outside"):
        check_descent_expectation(quad10, trace2k, [trace2k.T + 1], 10, rng)


@pytest.mark.parametrize("kind", ["noisy_quadratic", "least_squares", "logistic"])
def test_streamed_descent_check_equals_the_whole_k_check(suite, kind, monkeypatch):
    # K around the chunk size: a short chunk, one whole chunk, a lone row after
    # one, two chunks and a ragged tail
    p = next(q for q in suite if q.name == kind)
    trace = run_trajectory(p, with_dim(HyperParams(), p.dim), T=300, seed=0)
    cps = [1, 2, 50, 299]
    seen, real = [], V._mean_budget
    monkeypatch.setattr(V, "_mean_budget", lambda X: seen.append(X.copy()) or real(X))
    C = ROW_CHUNK
    for K in (C - 1, C, C + 1, 2 * C + 5):
        seen.clear()
        r = check_descent_expectation(p, trace, cps, K, rng_stream("stream", K, "branch"))
        want, Xs = descent_whole(p, trace, cps, K, rng_stream("stream", K, "branch"))
        assert r == want, K
        for t, got, X in zip(cps, seen, Xs):
            # the regrouped sum rounds within an ulp or so of its largest term:
            # X itself on the quadratic, f^(u_t) where the data problems' X is
            # a small difference of terms that size
            scale = 1.0 + np.abs(X)
            if kind != "noisy_quadratic":
                scale += abs(float(trace.fhat[t - 1]))
            assert np.all(np.abs(got - X) <= 1e-15 * scale), (K, t)


def test_descent_check_holds_one_chunk_of_branches_at_a_time(quad10, trace2k):
    # numpy reports its buffers to tracemalloc: about a dozen (ROW_CHUNK, d)
    # chunk arrays and a few (K,) series, against 14 (K, d) arrays (94.7 MiB
    # at this K) when every branch was held at once
    K = 100_000
    tracemalloc.start()
    try:
        check_descent_expectation(quad10, trace2k, [1, 1000], K, rng_stream("d-mem", 0, "branch"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * ROW_CHUNK * quad10.dim * 8 + 4 * K * 8, peak


# ---------------------------------------------------------------- result algebra


def _cr(name, margin, note=""):
    return CheckResult(
        name=name,
        status="fail" if margin < 0 else "pass",
        worst_margin=margin,
        location=(0, 1, None),
        tolerance=0.0,
        note=note,
    )


def test_merge_results_keeps_worst_margin_and_first_seen_order():
    merged = merge_results(
        [
            _cr("b", 0.5, note="first"),
            _cr("a", 1.0),
            _cr("b", -0.1),  # worse, should replace, inheriting the old note
            _cr("a", 2.0),  # better, ignored
        ]
    )
    assert [r.name for r in merged] == ["b", "a"]
    assert merged[0].worst_margin == -0.1
    assert merged[0].status == "fail"
    assert merged[0].note == "first"  # fallback when the replacement has none
    assert merged[1].worst_margin == 1.0


def test_merge_results_is_idempotent(short_traces):
    rs = []
    for tr in short_traces.values():
        rs.extend(run_trace_checks(tr))
    once = merge_results(rs)
    twice = merge_results(once)
    assert once == twice
    assert [r.name for r in once] == EXPECTED_CHECKS


def test_check_result_serialization_round_trip():
    r = _cr("x", -0.25, note="n")
    d = r.as_dict()
    assert d == {
        "name": "x",
        "status": "fail",
        "worst_margin": -0.25,
        "location": [0, 1, None],
        "tolerance": 0.0,
        "note": "n",
    }


@pytest.mark.parametrize("rel, location", [
    (np.array([0.5, np.nan, -1.0, np.nan]), (7, 2, None)),
    (np.array([[0.5, 0.1], [-1.0, np.nan], [np.nan, 0.2]]), (7, 2, 1)),
])
def test_worst_locates_the_first_nan_margin_as_argmin_does(rel, location):
    # np.argmin returns the first NaN in flat order; the location counts steps from 1
    r = _worst("x", rel, 1e-9, 7, first=1)
    assert r.location == location
    assert r.status == "fail" and r.worst_margin == -math.inf
    assert r.note == "non-finite margin nan"


@pytest.mark.parametrize("margin", [math.nan, math.inf, -math.inf])
def test_non_finite_margin_fails_and_serializes_as_strict_json(margin):
    r = _result("x", margin, 0.0, (0, 1, None), note="n")
    assert r.status == "fail" and r.worst_margin == -math.inf
    assert r.note == f"non-finite margin {margin}; n"
    d = r.as_dict()
    assert d["worst_margin"] is None
    json.dumps(d, allow_nan=False)
    # merged after a finite failure of the same check, it stays the worst case
    assert merge_results([_cr("x", -0.5), r]) == [r]
    # an infinite tolerance passes every finite margin, not a non-finite one
    assert _result("x", margin, math.inf, (0, 1, None)).status == "fail"
