"""The uncorrected-Adam step and trajectory assembly."""

import dataclasses
import math

import numpy as np
import pytest

from adamabc.core import ConstraintViolation, DimensionMismatch, HyperParams, beta2_at, eta_at
from adamabc.optimizer import (
    SUB,
    NonFiniteGradient,
    _given,
    _slot,
    adam_init,
    adam_rows,
    adam_step,
    prefetch_draws,
    rates,
    run_steps,
    run_trajectories,
    run_trajectory,
)
from adamabc.instrumentation import synthetic_eta_v0
from adamabc.problems import make_noisy_quadratic, oracle_draws, oracle_kernel, rng_stream
from reference import adam_rows_unstacked

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


def _stacked_case(S, d, seed=5):
    rng = np.random.default_rng(seed)
    w, m, g = rng.standard_normal((3, S, d)) * 10.0 ** rng.integers(-8, 8, (3, S, d))
    v = rng.random((S, d)) * 10.0 ** rng.integers(-8, 8, (S, d))
    return w, m, v, g


def _gg(g):
    gg = np.empty((2,) + g.shape)
    gg[0] = g
    return gg


def _step(coefs, x, gg, rate, out):
    """One ``adam_rows`` step of the state stack x against its given gradient stack."""
    assert adam_rows(_given, [_slot(coefs, x, np.empty_like(x), None, gg, rate, out)]) == 1


def test_adam_rows_with_coefficient_arrays_matches_the_scalar_call():
    # an array holding the same double multiplies and divides bitwise like the scalar
    S, d = 7, 5
    h = HyperParams(dim=d)
    w, m, v, g = _stacked_case(S, d)
    x = np.stack((w, m, v))
    b2, eta = beta2_at(7, h), eta_at(7, h)
    bc = (np.reshape((h.beta1, b2), (2, 1, 1)), np.reshape((1.0 - h.beta1, 1.0 - b2), (2, 1, 1)))

    def full(c):
        return np.broadcast_to(c, (2, S, d)).copy()

    def fresh():
        return np.empty((S, d)), np.empty((2, S, d)), np.empty((S, d))

    scalar, columns, views = fresh(), fresh(), fresh()
    _step(bc, x.copy(), _gg(g), (eta, h.mu), scalar)
    _step(tuple(map(full, bc)), x.copy(), _gg(g), (np.full((S, d), eta), np.full((S, d), h.mu)),
          columns)
    # as the stepping loop passes them: the step size as a 0-d view of a column
    column = np.array([eta])
    _step(tuple(map(full, bc)), x.copy(), _gg(g), (column[0, ...], np.full((S, d), h.mu)), views)
    # the update's formula, one numpy expression per line
    v_ref = b2 * v + (1.0 - b2) * (g * g)
    m_ref = h.beta1 * m + (1.0 - h.beta1) * g
    w_ref = w - eta / (np.sqrt(v_ref) + h.mu) * m_ref
    e_ref = rates(eta, v_ref, h.mu)
    for case in (scalar, columns, views):
        (w_out, mv_out, e_out) = case
        for a, ref in zip((w_out, mv_out[0], mv_out[1], e_out), (w_ref, m_ref, v_ref, e_ref)):
            assert a.tobytes() == ref.tobytes()
    assert x.tobytes() == np.stack((w, m, v)).tobytes()  # the state is only read
    # the rates written into the scratch itself, as adam_step passes them: the
    # scratch then takes eta_v' * m' over them
    gg = _gg(g)
    w_out, mv_out = np.empty((S, d)), np.empty((2, S, d))
    _step(bc, x.copy(), gg, (eta, h.mu), (w_out, mv_out, gg[1]))
    for a, ref in zip((w_out, mv_out[0], mv_out[1], gg[1]),
                      (w_ref, m_ref, v_ref, e_ref * m_ref)):
        assert a.tobytes() == ref.tobytes()
    # in place, over the state itself
    x_in = x.copy()
    _step(bc, x_in, _gg(g), (eta, h.mu), (x_in[0], x_in[1:], np.empty((S, d))))
    for a, ref in zip(x_in, (w_ref, m_ref, v_ref)):
        assert a.tobytes() == ref.tobytes()
    # keeping no moments, as the branch step does: one broadcast state row,
    # m' through w', v' through eta_v'
    for r in range(S):
        x_row = np.stack((w[r], m[r], v[r]))[:, None]
        WE = np.empty((2, S, d))
        _step(bc, x_row, _gg(g), (eta, h.mu), (WE[0], WE, WE[1]))
        v_r = b2 * v[r] + (1.0 - b2) * (g * g)
        m_r = h.beta1 * m[r] + (1.0 - h.beta1) * g
        assert WE[0].tobytes() == (w[r] - eta / (np.sqrt(v_r) + h.mu) * m_r).tobytes()
        assert WE[1].tobytes() == rates(eta, v_r, h.mu).tobytes()


@pytest.mark.parametrize("rows", [1, 3, 20])
def test_stacked_step_is_the_seven_ufunc_step(rows):
    # the stacked [w; m; v] update against the separate m and v formulas, ufunc
    # by ufunc: with the gradient given, and formed by the quadratic's kernel
    # from the product's linear term kappa * w
    d = 10
    h = HyperParams(dim=d)
    w, m, v, g = _stacked_case(rows, d, seed=rows)
    kappa = np.tile(np.linspace(1.0, 4.0, d), (rows, 1))
    noise = g - kappa * w
    for t in (1, 2, 7, 4097):
        b2, eta = beta2_at(t, h), eta_at(t, h)
        # the coefficients as the stepping loop fills them: full columns
        B, C = np.empty((3, rows, d)), np.empty((2, rows, d))
        B[0], B[1], B[2], C[0] = kappa, h.beta1, b2, 1.0 - h.beta1
        np.subtract(1.0, B[2], out=C[1])
        for lo, oracle, drawn, grad in ((1, _given, None, g),
                                        (0, oracle_kernel(make_noisy_quadratic([1.0], 1.0)).kernel,
                                         noise, kappa * w + noise)):
            ref = [np.empty((rows, d)) for _ in range(4)]
            adam_rows_unstacked(w, m, v, grad, (b2, 1.0 - b2, eta),
                                (h.beta1, 1.0 - h.beta1, h.mu), ref, np.empty((rows, d)))
            x, gg = np.stack((w, m, v)), _gg(g if lo else np.empty_like(g))
            w_out, mv_out, e_out = np.empty((rows, d)), np.empty((2, rows, d)), np.empty((rows, d))
            slot = _slot((B[lo:], C), x, np.empty_like(x), drawn, gg,
                         (np.array([eta])[0, ...], np.full((rows, d), h.mu)),
                         (w_out, mv_out, e_out))
            assert adam_rows(oracle, [slot]) == 1
            assert gg[0].tobytes() == grad.tobytes()
            for a, b in zip((w_out, mv_out[0], mv_out[1], e_out), ref):
                assert a.tobytes() == b.tobytes(), (t, lo)


def test_the_rings_rates_are_the_updates_rates(quad10, h10):
    # E[0] starts at the pre-run rate and carries the last rates of the sub-block
    # before; E[i + 1] is step i's eta_v, bitwise the rates of its V and eta
    T, seeds = 70, (0, 1, 2)
    prev = np.tile(synthetic_eta_v0(h10), (len(seeds), 1))
    for t0, k, ring in run_steps(quad10, h10, T, seeds):
        assert ring.E.shape == (SUB + 1, len(seeds), 10)
        assert ring.E[0].tobytes() == prev.tobytes()
        want = rates(ring.eta[:k, None, None], ring.V[:k], h10.mu)
        assert ring.E[1 : k + 1].tobytes() == want.tobytes()
        prev = ring.E[k].copy()
    assert t0 + k == T


def test_run_steps_owns_one_bounded_ring(quad10, h10):
    T, seeds = 4100, (0, 1, 2)
    rings, done = set(), 0
    for t0, k, ring in run_steps(quad10, h10, T, seeds):
        assert (t0, k) == (done, min(SUB, T - done))
        done += k
        assert ring.W.shape == (SUB + 1, len(seeds), 10)
        assert max(len(a) for a in ring) <= SUB + 1
        rings.add(tuple(id(a) for a in ring))
    assert done == T and len(rings) == 1


@pytest.mark.parametrize("take", [251, 256])
@pytest.mark.parametrize("kind", [0, 1, 2], ids=["noisy_quadratic", "least_squares", "logistic"])
def test_prefetch_draws_equal_each_seeds_own_draws(suite, kind, take):
    p, seeds = suite[kind], (0, 4, 9)
    rngs = [rng_stream("trajectory", s, "oracle") for s in seeds]
    first = prefetch_draws(p, take, rngs)
    kept = first.copy()
    # a later, shorter block goes into the same buffer through the returned view
    second = prefetch_draws(p, 37, rngs, out=first)
    assert np.shares_memory(first, second)
    assert kept.shape[:2] == (take, 3) and second.shape[:2] == (37, 3)
    for r, seed in enumerate(seeds):
        rng = rng_stream("trajectory", seed, "oracle")
        assert kept[:, r].tobytes() == oracle_draws(p, take, rng).tobytes()
        assert second[:, r].tobytes() == oracle_draws(p, 37, rng).tobytes()


def test_prefetch_draws_of_a_noiseless_oracle_are_none(quad10_noiseless):
    rngs = [rng_stream("trajectory", s, "oracle") for s in (0, 1)]
    assert prefetch_draws(quad10_noiseless, 256, rngs) is None


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
def test_trajectory_matches_manual_composition(suite, kind):
    from adamabc.problems import oracle_sample, rng_stream

    p = next(q for q in suite if q.name == kind)
    h = HyperParams(dim=p.dim)
    rng = rng_stream("trajectory", 42, "oracle")
    s = adam_init(np.ones(p.dim), h)  # every run starts at ones
    ref = {"W": [s.w], "G": [], "M": [], "V": []}
    for _ in range(4100):
        g = oracle_sample(p, s.w, rng)
        s = adam_step(s, g, h)
        for name, a in zip("WGMV", (s.w, g, s.m, s.v_vec)):
            ref[name].append(a)
    # horizons on both sides of the 32-step ring's first edge, and one that
    # crosses prefetch blocks
    for T in (1, 31, 32, 33, 4100):
        tr = run_trajectory(p, h, T=T, seed=42)
        assert np.array_equal(tr.W, ref["W"][: T + 1]), T
        for name in "GMV":
            assert np.array_equal(getattr(tr, name), ref[name][:T]), (T, name)


@pytest.mark.parametrize("kind", ["noisy_quadratic", "least_squares", "logistic"])
def test_stacked_recording_matches_lone_runs(suite, kind):
    # T = 4100 crosses prefetch blocks of the recording loop
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
    from adamabc.problems import oracle_sample, rng_stream

    s, rng = adam_init(np.zeros(10), h10), rng_stream("trajectory", 0, "oracle")
    for _ in range(50):
        s = adam_step(s, oracle_sample(quad10_noiseless, s.w, rng), h10)
        assert np.array_equal(s.w, np.zeros(10)) and np.array_equal(s.m, np.zeros(10))
    assert s.t == 50


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

    real = O.oracle_kernel
    calls = []

    def faulty_kernel(p):
        o = real(p)

        def kernel(kw, W, drawn, out):
            calls.append(None)
            g = o.kernel(kw, W, drawn, out)
            if len(calls) == 4100:
                g[0, 3] = np.nan
            return g

        return o._replace(kernel=kernel)

    monkeypatch.setattr(O, "oracle_kernel", faulty_kernel)
    with pytest.raises(NonFiniteGradient, match=r"^step 4100: non-finite gradient component at t=4100$"):
        run_trajectory(quad10, h10, T=5000, seed=0)
    assert len(calls) == 4100


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_stacked_nonfinite_gradient_names_its_seed(monkeypatch, quad10, h10):
    import adamabc.optimizer as O

    real = O.oracle_kernel
    calls = []

    def faulty_kernel(p):
        o = real(p)

        def kernel(kw, W, drawn, out):
            calls.append(None)
            g = o.kernel(kw, W, drawn, out)
            if len(calls) == 4100:
                g[1, 3] = np.inf
            return g

        return o._replace(kernel=kernel)

    monkeypatch.setattr(O, "oracle_kernel", faulty_kernel)
    match = r"^seed 11, step 4100: non-finite gradient component at t=4100$"
    with pytest.raises(NonFiniteGradient, match=match):
        next(run_trajectories(quad10, h10, 5000, (3, 11, 12)))
    assert len(calls) == 4100
