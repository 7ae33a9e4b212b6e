"""The uncorrected-Adam step and trajectory assembly."""

import dataclasses
import math

import numpy as np
import pytest

from adamabc.core import ConstraintViolation, DimensionMismatch, HyperParams
from adamabc.optimizer import (
    NonFiniteGradient,
    adam_init,
    adam_step,
    run_trajectories,
    run_trajectory,
)
from adamabc.problems import make_noisy_quadratic

H1 = HyperParams(beta1=0.0, alpha0=0.5, gamma=1.25, delta=0.25, mu=0.0, v=1.0, dim=1)


def test_init_state_values():
    s = adam_init(np.array([1.0, -2.0]), HyperParams(v=3.0, dim=2))
    assert s.t == 0
    assert np.array_equal(s.w, [1.0, -2.0])
    assert np.array_equal(s.m, [0.0, 0.0])
    assert np.array_equal(s.v_vec, [3.0, 3.0])
    with pytest.raises(DimensionMismatch):
        adam_init(np.zeros(3), HyperParams(dim=2))


def test_single_step_hand_computed():
    # t=1: beta2 = 1 - alpha0 = 0.5, eta = 1; g = 2 from w = 1:
    #   v1 = 0.5*1 + 0.5*4 = 2.5,  m1 = 2,  w2 = 1 - 2/sqrt(2.5)
    s0 = adam_init(np.array([1.0]), H1)
    s1 = adam_step(s0, np.array([2.0]), H1)
    assert s1.t == 1
    assert s1.v_vec[0] == 2.5
    assert s1.m[0] == 2.0
    assert s1.w[0] == 1.0 - 2.0 / math.sqrt(2.5)
    assert s1.w[0] == -0.26491106406735176  # frozen double


def test_second_step_uses_power_law_decay():
    # t=2: beta2 = 1 - 2^-1.25, eta = 2^-0.75; constant gradient 2
    s1 = adam_step(adam_init(np.array([1.0]), H1), np.array([2.0]), H1)
    s2 = adam_step(s1, np.array([2.0]), H1)
    b2 = 1.0 - 2.0**-1.25
    v2 = b2 * 2.5 + (1.0 - b2) * 4.0
    assert s2.v_vec[0] == v2
    assert s2.w[0] == s1.w[0] - (2.0**-0.75) * 2.0 / math.sqrt(v2)


def test_step_never_mutates_input_state():
    s0 = adam_init(np.array([1.0]), H1)
    adam_step(s0, np.array([2.0]), H1)
    assert s0.w[0] == 1.0 and s0.m[0] == 0.0 and s0.v_vec[0] == 1.0
    with pytest.raises(ValueError):
        s0.w[0] = 5.0  # readonly arrays


def test_momentum_geometric_accumulation():
    h = HyperParams(beta1=0.9, dim=1)
    s = adam_init(np.zeros(1), h)
    c = 3.0
    for t in range(1, 40):
        s = adam_step(s, np.array([c]), h)
        expected = (1.0 - 0.9**t) * c
        assert s.m[0] == pytest.approx(expected, rel=1e-12)


def test_beta1_zero_copies_gradient_into_momentum():
    h = HyperParams(beta1=0.0, dim=3)
    s = adam_init(np.zeros(3), h)
    g = np.array([0.3, -1.7, 2.2])
    s = adam_step(s, g, h)
    assert np.array_equal(s.m, g)


def test_step_rejects_bad_gradients():
    s0 = adam_init(np.zeros(2), HyperParams(dim=2))
    with pytest.raises(DimensionMismatch):
        adam_step(s0, np.zeros(3), HyperParams(dim=2))
    with pytest.raises(NonFiniteGradient):
        adam_step(s0, np.array([1.0, float("nan")]), HyperParams(dim=2))
    with pytest.raises(NonFiniteGradient):
        adam_step(s0, np.array([1.0, float("inf")]), HyperParams(dim=2))


# ---------------------------------------------------------------- trajectories


@pytest.mark.parametrize("kind", ["noisy_quadratic", "least_squares", "logistic"])
@pytest.mark.parametrize("w1", [None, "spread"])
def test_trajectory_matches_manual_composition(suite, kind, w1):
    # T = 4100 crosses the 4096-draw prefetch block of the recording loop
    from adamabc.problems import oracle_sample, rng_stream

    p = next(q for q in suite if q.name == kind)
    h = HyperParams(dim=p.dim)
    start = np.ones(p.dim) if w1 is None else np.linspace(-0.5, 1.5, p.dim)
    T = 4100
    tr = run_trajectory(p, h, T=T, seed=42, w1=None if w1 is None else start)
    rng = rng_stream("trajectory", 42, "oracle")
    s = adam_init(start, h)
    assert np.array_equal(tr.W[0], s.w)
    for k in range(T):
        g = oracle_sample(p, s.w, rng)
        s = adam_step(s, g, h)
        assert np.array_equal(tr.G[k], g)
        assert np.array_equal(tr.W[k + 1], s.w)
        assert np.array_equal(tr.M[k], s.m)
        assert np.array_equal(tr.V[k], s.v_vec)


@pytest.mark.parametrize("kind", ["noisy_quadratic", "least_squares", "logistic"])
def test_stacked_recording_matches_lone_runs(suite, kind):
    # T = 4100 crosses the 4096-draw prefetch block of the recording loop
    p = next(q for q in suite if q.name == kind)
    h = HyperParams(dim=p.dim)
    seeds = (3, 11, 12)
    stacked = list(run_trajectories(p, h, 4100, seeds))
    assert [tr.seed for tr in stacked] == list(seeds)
    for tr in stacked:
        lone = run_trajectory(p, h, 4100, tr.seed)
        for f in dataclasses.fields(tr):
            a, b = getattr(tr, f.name), getattr(lone, f.name)
            if isinstance(a, np.ndarray):
                assert a.flags.c_contiguous, f.name
                assert np.array_equal(a, b), f.name
        assert np.array_equal(tr.pi.values, lone.pi.values)
        assert np.array_equal(tr.pi.dbar_realized, lone.pi.dbar_realized)


def test_trajectory_replay_is_bitwise(quad10, h10):
    a = run_trajectory(quad10, h10, T=300, seed=7)
    b = run_trajectory(quad10, h10, T=300, seed=7)
    assert np.array_equal(a.W, b.W)
    assert np.array_equal(a.G, b.G)
    c = run_trajectory(quad10, h10, T=300, seed=8)
    assert not np.array_equal(a.G, c.G)


def test_trajectory_converges_noiseless(quad10_noiseless, h10):
    tr = run_trajectory(quad10_noiseless, h10, T=10_000, seed=0)
    gfinal = np.linalg.norm(quad10_noiseless.eigenvalues * tr.W[-1])
    assert gfinal < 1e-3


def test_zero_start_is_fixed_point_without_noise(quad10_noiseless, h10):
    tr = run_trajectory(quad10_noiseless, h10, T=50, seed=0, w1=np.zeros(10))
    assert np.array_equal(tr.W, np.zeros((51, 10)))


def test_beta1_zero_momentum_equals_gradients(quad10):
    h = HyperParams(beta1=0.0, dim=10)
    tr = run_trajectory(quad10, h, T=100, seed=3)
    assert np.array_equal(tr.M, tr.G)


def test_trajectory_input_validation(quad10):
    with pytest.raises(ValueError, match="T must be >= 1"):
        run_trajectory(quad10, HyperParams(dim=10), T=0, seed=0)
    with pytest.raises(ConstraintViolation, match="mu"):
        run_trajectory(quad10, HyperParams(mu=0.0, dim=10), T=5, seed=0)
    with pytest.raises(ConstraintViolation, match="gamma"):
        run_trajectory(quad10, HyperParams(gamma=2.0, delta=0.0, dim=10), T=5, seed=0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_nonfinite_oracle_reports_failing_step():
    # the factory rejects an infinite sigma, so the oracle is built around it
    p = dataclasses.replace(make_noisy_quadratic([1.0, 2.0], sigma=1.0), sigma=float("inf"))
    with pytest.raises(NonFiniteGradient, match="step 1:"):
        run_trajectory(p, HyperParams(dim=2), T=3, seed=0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_nonfinite_gradient_mid_block_stops_at_its_step(monkeypatch, quad10, h10):
    import adamabc.optimizer as O

    real = O.oracle_rows
    calls = []

    def faulty(p, W, draws):
        calls.append(None)
        g = real(p, W, draws)
        if len(calls) == 4100:
            g[0, 3] = np.nan
        return g

    monkeypatch.setattr(O, "oracle_rows", faulty)
    with pytest.raises(NonFiniteGradient, match=r"^step 4100: non-finite gradient component at t=4100$"):
        run_trajectory(quad10, h10, T=5000, seed=0)
    assert len(calls) == 4100


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_stacked_nonfinite_gradient_names_its_seed(monkeypatch, quad10, h10):
    import adamabc.optimizer as O

    real = O.oracle_rows
    calls = []

    def faulty(p, W, draws):
        calls.append(None)
        g = real(p, W, draws)
        if len(calls) == 4100:
            g[1, 3] = np.inf
        return g

    monkeypatch.setattr(O, "oracle_rows", faulty)
    match = r"^seed 11, step 4100: non-finite gradient component at t=4100$"
    with pytest.raises(NonFiniteGradient, match=match):
        next(run_trajectories(quad10, h10, 5000, (3, 11, 12)))
    assert len(calls) == 4100
