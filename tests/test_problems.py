"""Objectives, stochastic gradient oracles, and their published constants."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from adamabc.core import DimensionMismatch
from adamabc.problems import (
    ConstraintViolation,
    EmptySpectrum,
    SingularSystem,
    _least_squares_from_data,
    _sigmoid,
    branch_samples,
    default_suite,
    grad,
    grad_batch,
    loss,
    loss_batch,
    make_least_squares,
    make_logistic,
    make_noisy_quadratic,
    oracle_rows,
    oracle_sample,
    rng_stream,
)
from reference import (
    logistic_grad_batch,
    logistic_loss_batch,
    logistic_oracle_rows,
    sigmoid_branchwise,
)

# ---------------------------------------------------------------- rng streams


def test_rng_stream_is_deterministic():
    a = rng_stream("exp-a", 3, "data").standard_normal(8)
    b = rng_stream("exp-a", 3, "data").standard_normal(8)
    assert np.array_equal(a, b)


def test_rng_stream_separates_purpose_seed_and_experiment():
    base = rng_stream("exp-a", 3, "data").standard_normal(8)
    for other in (
        rng_stream("exp-a", 3, "oracle"),
        rng_stream("exp-a", 4, "data"),
        rng_stream("exp-b", 3, "data"),
    ):
        assert not np.array_equal(base, other.standard_normal(8))


def test_rng_stream_rejects_unknown_purpose():
    with pytest.raises(ValueError, match="unknown rng purpose"):
        rng_stream("exp-a", 0, "noise")


# ---------------------------------------------------------------- noisy quadratic


def test_quadratic_certificate_constants():
    p = make_noisy_quadratic(np.linspace(1.0, 4.0, 10), sigma=1.0)
    c = p.certificate
    assert p.dim == 10
    assert c.L_f == 4.0
    assert c.f_star == 0.0
    assert c.A == 0.0
    assert c.B == 1.0
    assert c.C == 10.0  # sigma^2 * d


def test_quadratic_loss_and_grad_closed_form():
    eigs = np.array([1.0, 3.0])
    p = make_noisy_quadratic(eigs, sigma=0.0)
    w = np.array([2.0, -1.0])
    assert loss(p, w) == pytest.approx(0.5 * (1 * 4 + 3 * 1), abs=0.0)
    assert np.array_equal(grad(p, w), eigs * w)


def test_quadratic_rejects_bad_spectrum():
    with pytest.raises(EmptySpectrum):
        make_noisy_quadratic([], sigma=1.0)
    with pytest.raises(ConstraintViolation):
        make_noisy_quadratic([1.0, 0.0], sigma=1.0)
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ConstraintViolation, match="eigenvalues must be finite"):
            make_noisy_quadratic([1.0, bad], sigma=1.0)
    with pytest.raises(ConstraintViolation):
        make_noisy_quadratic([1.0], sigma=-0.5)


@pytest.mark.parametrize("sigma", [float("inf"), float("nan"), 1e200, 1e154])
def test_quadratic_rejects_non_finite_noise(sigma):
    # 1e154: sigma^2 is finite but sigma^2 * d is not, so C would be inf
    with pytest.raises(ConstraintViolation, match="must be finite"):
        make_noisy_quadratic(np.ones(10), sigma=sigma)


def test_quadratic_noiseless_oracle_is_exact_gradient_without_rng_draws():
    p = make_noisy_quadratic([1.0, 2.0], sigma=0.0)
    w = np.array([1.0, 1.0])
    rng = np.random.default_rng(0)
    state0 = rng.bit_generator.state
    S = branch_samples(p, w, 5, rng)
    assert rng.bit_generator.state == state0  # no entropy consumed
    assert np.array_equal(S, np.tile(grad(p, w), (5, 1)))
    S[0, 0] = 99.0  # returned array must be writable (a copy, not a view)


def test_quadratic_oracle_mean_matches_gradient():
    p = make_noisy_quadratic(np.linspace(1.0, 4.0, 10), sigma=1.0)
    w = np.full(10, 2.0)
    S = branch_samples(p, w, 200_000, rng_stream("oracle-mean", 0, "branch"))
    err = np.abs(S.mean(axis=0) - grad(p, w))
    se = S.std(axis=0, ddof=1) / np.sqrt(S.shape[0])
    assert np.all(err <= 4.0 * se + 1e-12)


# ---------------------------------------------------------------- least squares


def test_least_squares_hand_oracle():
    rows = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    targets = np.array([1.0, 2.0, 2.0])
    p = _least_squares_from_data(rows, targets)
    c = p.certificate
    # normal equations: (A^T A / n) w = A^T y / n with n = 3
    assert np.allclose(p.w_star, [2.0 / 3.0, 5.0 / 3.0], atol=1e-14)
    assert c.f_star == pytest.approx(1.0 / 18.0, abs=1e-16)
    assert c.L_f == pytest.approx(1.0, abs=1e-14)  # top eigenvalue of [[2,1],[1,2]]/3
    assert c.A == pytest.approx(8.0, abs=1e-12)  # 4 * max row norm^2
    assert c.B == 0.0
    assert c.C == pytest.approx(8.0 / 27.0, abs=1e-14)
    g_at_star = grad(p, p.w_star)
    assert np.linalg.norm(g_at_star) < 1e-13


def test_least_squares_rejects_rank_deficient_rows():
    rows = np.array([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(SingularSystem):
        _least_squares_from_data(rows, np.array([1.0, 1.0]))


def test_least_squares_factory_is_deterministic_and_validates_shape():
    p1 = make_least_squares(50, 5, seed=7)
    p2 = make_least_squares(50, 5, seed=7)
    assert np.array_equal(p1.rows, p2.rows)
    assert np.array_equal(p1.targets, p2.targets)
    assert p1.dim == 5
    with pytest.raises(ConstraintViolation):
        make_least_squares(3, 5, seed=0)  # n < d


# ---------------------------------------------------------------- logistic


def test_logistic_certificate_and_labels():
    p = make_logistic(100, 10, seed=3)
    c = p.certificate
    assert set(np.unique(p.labels)) <= {-1.0, 1.0}
    assert c.A == 0.0 and c.B == 0.0
    lam_max = np.linalg.eigvalsh(p.rows.T @ p.rows / p.rows.shape[0]).max()
    assert c.L_f == pytest.approx(0.25 * lam_max + p.reg, rel=1e-12)
    max_row = np.sqrt((p.rows**2).sum(axis=1)).max()
    assert c.C == pytest.approx((max_row + p.reg * 100.0) ** 2, rel=1e-12)
    # the solver must have actually reached the regularized optimum
    assert np.linalg.norm(grad(p, p.w_star)) < 1e-9
    assert c.f_star == pytest.approx(loss(p, p.w_star), rel=1e-12)


def test_logistic_rejects_nonsign_labels_and_bad_reg():
    p = make_logistic(30, 4, seed=0)
    from adamabc.problems import _logistic_from_data

    with pytest.raises(ConstraintViolation):
        _logistic_from_data(p.rows, np.zeros(30), reg=0.05)
    with pytest.raises(ConstraintViolation):
        make_logistic(30, 4, seed=0, reg=-1.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ConstraintViolation, match="reg must be finite and >= 0"):
            make_logistic(30, 4, seed=0, reg=bad)


def test_logistic_loss_is_the_loss_batch_row(suite):
    p = suite[2]
    for w in 3.0 * np.random.default_rng(4).standard_normal((200, p.dim)):
        assert loss(p, w) == loss_batch(p, w[None])[0]
    assert p.certificate.f_star == loss_batch(p, p.w_star[None])[0]


def test_newton_solve_converges_past_the_loss_rounding():
    # here |grad|^2 falls below the rounding of f before |grad| reaches 1e-12,
    # so comparing values of f cannot judge the last Newton steps
    p = make_logistic(60, 3, 4)
    assert np.linalg.norm(grad(p, p.w_star)) <= 1e-12


def test_logistic_minimizer_outside_the_certified_ball_is_rejected():
    # separable data without a ridge term: the infimum 0 is not attained
    with pytest.raises(ConstraintViolation, match=r"\|w\*\| = 178.6 lies outside the certified "
                                                  r"ball R = 100"):
        make_logistic(20, 30, 0, reg=0.0)


# ---------------------------------------------------------------- shared surface


def test_default_suite_composition(suite):
    assert [p.name for p in suite] == ["noisy_quadratic", "least_squares", "logistic"]
    assert [p.dim for p in suite] == [10, 5, 10]


def test_batch_evaluators_match_single_point(suite):
    rng = np.random.default_rng(11)
    for p in suite:
        W = rng.standard_normal((6, p.dim))
        fb = loss_batch(p, W)
        gb = grad_batch(p, W)
        for k in range(6):
            assert fb[k] == pytest.approx(loss(p, W[k]), rel=1e-13)
            np.testing.assert_allclose(gb[k], grad(p, W[k]), rtol=1e-13, atol=1e-15)


def test_sigmoid_matches_branchwise_reference():
    rng = np.random.default_rng(0)
    x = np.concatenate([
        rng.standard_normal(4989) * 10.0 ** rng.integers(-3, 4, 4989),
        [0.0, -0.0, 1e-300, -1e-300, 745.0, -745.0, 800.0, -800.0, np.inf, -np.inf, np.nan],
    ])
    got, want = _sigmoid(x), sigmoid_branchwise(x)
    assert np.array_equal(got, want, equal_nan=True)
    num = ~np.isnan(want)  # a NaN's sign bit carries nothing
    assert np.array_equal(np.signbit(got[num]), np.signbit(want[num]))
    assert np.array_equal(_sigmoid(x.reshape(50, 100)), want.reshape(50, 100), equal_nan=True)


@pytest.mark.parametrize("scale", [0.0, 1.0, 1e3])
def test_folded_logistic_kernels_match_the_labelled_formulas(suite, scale):
    # scale 0 is w = 0 (every logit exactly 0); at 1e3 most |z| exceed 745,
    # where exp underflows and the sigmoid saturates
    p = suite[2]
    rng = np.random.default_rng(3)
    for S in (1, 2, 20, 100):
        W = scale * rng.standard_normal((S, p.dim))
        if scale == 1e3:
            assert np.mean(np.abs(W @ p.rows.T) > 745.0) > 0.5
        draws = rng.integers(0, p.rows.shape[0], size=S)
        assert np.array_equal(loss_batch(p, W), logistic_loss_batch(p, W))
        assert np.array_equal(grad_batch(p, W), logistic_grad_batch(p, W))
        assert np.array_equal(oracle_rows(p, W, draws), logistic_oracle_rows(p, W, draws))


@pytest.mark.parametrize("kind", [0, 1, 2], ids=["noisy_quadratic", "least_squares", "logistic"])
def test_stacked_grad_batch_is_bitwise_per_slab(suite, kind):
    p = suite[kind]
    rng = np.random.default_rng(kind)
    for S in (1, 2, 3, 20, 50, 100):
        for k in (1, 7, 32):
            # a leading slice of a ring buffer, as the sweep passes it
            W = rng.standard_normal((k + 1, S, p.dim))[:k]
            stacked = grad_batch(p, W)
            assert stacked.shape == W.shape
            for j in range(k):
                assert np.array_equal(stacked[j], grad_batch(p, W[j])), (S, k, j)


def test_grad_batch_rejects_vectors_and_wrong_widths(suite):
    for p in suite:
        with pytest.raises(DimensionMismatch):
            grad_batch(p, np.zeros(p.dim))
        with pytest.raises(DimensionMismatch):
            grad_batch(p, np.zeros((3, p.dim + 1)))
        with pytest.raises(DimensionMismatch):
            grad_batch(p, np.zeros((2, 3, p.dim - 1)))


def test_oracle_sample_equals_first_branch_draw(suite):
    for p in suite:
        w = np.linspace(-1.0, 1.0, p.dim)
        one = oracle_sample(p, w, rng_stream("pair", 5, "oracle"))
        many = branch_samples(p, w, 1, rng_stream("pair", 5, "oracle"))
        assert np.array_equal(one, many[0])


def test_branch_samples_consume_the_stream_in_batch_order(suite):
    # K draws from one generator must equal the stacked K=1 draws from a
    # stream advanced identically — i.e. sampling is vectorized over a single
    # contiguous block, not re-keyed per row.
    for p in suite:
        w = np.linspace(-1.0, 1.0, p.dim)
        S = branch_samples(p, w, 4, rng_stream("order", 9, "branch"))
        assert S.shape == (4, p.dim)
        assert np.all(np.isfinite(S))


def test_dimension_mismatch_raised_everywhere(suite):
    for p in suite:
        bad = np.zeros(p.dim + 1)
        with pytest.raises(DimensionMismatch):
            loss(p, bad)
        with pytest.raises(DimensionMismatch):
            grad(p, bad)
        with pytest.raises(DimensionMismatch):
            loss_batch(p, np.zeros((3, p.dim + 1)))
        with pytest.raises(DimensionMismatch):
            branch_samples(p, bad, 2, np.random.default_rng(0))


def test_problem_arrays_are_readonly(suite):
    for p in suite:
        for field in ("eigenvalues", "rows", "targets", "labels", "w_star", "signed_rows"):
            a = getattr(p, field, None)
            if a is not None:
                with pytest.raises(ValueError):
                    a[...] = 0.0


@given(st.integers(0, 2**32 - 1))
def test_sampled_oracle_is_finite(seed):
    p = make_noisy_quadratic([1.0, 4.0], sigma=1.0)
    g = oracle_sample(p, np.array([0.5, -0.5]), np.random.default_rng(seed))
    assert np.all(np.isfinite(g))
