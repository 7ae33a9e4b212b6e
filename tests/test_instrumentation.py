"""Derived series: auxiliary iterates, gaps, energies, the product surrogate."""

import math

import numpy as np
import pytest

from adamabc.core import HyperParams, eta_at, with_dim
from adamabc.instrumentation import (
    NegativeGap,
    PiHatSeries,
    _branch_arrays,
    _mean_sd,
    branch_conditional,
    build_trace,
    eta_v_at_state,
    pi_hat,
    synthetic_eta_v0,
)
from adamabc.optimizer import AdamState, adam_init, adam_step, rates, run_trajectory
from adamabc.problems import make_noisy_quadratic, rng_stream
from reference import (
    accumulate_S,
    delta_gap,
    lambda_phi,
    lyapunov_fhat,
    m_term1,
    u_aux,
    zeta_sum,
)

H = HyperParams()  # beta1=0.9 alpha0=0.5 gamma=1.25 delta=0.25 mu=1e-8 v=1


# ---------------------------------------------------------------- reference formulas


def test_u_aux_hand_values():
    assert u_aux(np.array([1.0]), np.array([0.0]), 0.5)[0] == 2.0
    assert u_aux(np.array([0.0]), np.array([1.0]), 0.5)[0] == -1.0
    w = np.array([0.3, -0.7])
    assert np.array_equal(u_aux(w, np.array([9.0, 9.0]), 0.0), w)


def test_synthetic_rate_row():
    out = synthetic_eta_v0(HyperParams(alpha0=0.5, v=1.0, dim=3))
    assert np.array_equal(out, [2.0, 2.0, 2.0])
    out = synthetic_eta_v0(HyperParams(alpha0=0.25, v=2.0, dim=1))
    assert out[0] == 8.0  # v / min(alpha0, 1-alpha0)


def test_delta_gap_accepts_and_rejects():
    prev = np.array([2.0, 1.0])
    assert np.array_equal(delta_gap(prev, np.array([1.5, 1.0])), [0.5, 0.0])
    # a tiny negative component within tolerance is clipped into the gap as-is
    tiny = np.array([2.0 + 1e-13, 1.0])
    d = delta_gap(prev, tiny)
    assert d[0] == pytest.approx(-1e-13, abs=1e-15)


def test_energy_accumulator():
    S = accumulate_S(np.array([1.0, 1.0]), np.array([2.0, 3.0]))
    assert np.array_equal(S, [5.0, 10.0])


def test_zeta_sum_hand_value():
    assert zeta_sum(np.array([1.0, 2.0]), np.array([1.0, 1.0])) == 3.0


def test_lyapunov_value_hand_value():
    assert lyapunov_fhat(1.0, 0.5, np.array([1.0, 0.5]), 1.0) == 2.0
    assert lyapunov_fhat(3.0, 3.0, np.zeros(2), 10.0) == 0.0


def test_lambda_phi_hand_value():
    assert lambda_phi(np.array([2.0]), 4.0, 1, 1.0) == 1.0  # 4 / (2 * 2)
    assert lambda_phi(np.array([2.0]), 4.0, 1, 4.0) == pytest.approx(4.0 / 32.0, abs=0.0)


def test_martingale_term_hand_value():
    out = m_term1(np.array([1.0, 1.0]), np.array([2.0, 1.0]), np.array([0.0, 0.0]))
    assert out == 5.0  # 1*2*2 + 1*1*1
    # an unbiased draw equal to the true gradient zeroes the term
    gw = np.array([0.4, -0.2])
    assert m_term1(np.ones(2), gw, gw) == 0.0


# ---------------------------------------------------------------- product surrogate


def test_pi_hat_no_gaps_means_no_contraction():
    s = pi_hat(np.zeros((10, 3)), H, (4.0, 0.0, 1.0, 10.0))
    assert np.array_equal(s.values, np.ones(11))
    assert np.array_equal(s.dbar_realized, np.zeros(10))


def test_pi_hat_two_step_hand_value():
    # beta1 = 0 and A = B = 0 give weight exactly 1 and no geometric tail
    h0 = HyperParams(beta1=0.0)
    s = pi_hat(np.array([[0.5], [0.25]]), h0, (1.0, 0.0, 0.0, 1.0))
    assert np.array_equal(s.dbar_realized, [0.5, 0.25])
    assert s.values[0] == 1.0
    assert s.values[1] == 1.0 / 1.5
    assert s.values[2] == (1.0 / 1.5) * (1.0 / 1.25)


def test_pi_hat_is_a_product_of_unit_interval_factors():
    rng = np.random.default_rng(0)
    deltas = rng.uniform(0.0, 0.1, size=(200, 4))
    s = pi_hat(deltas, H, (1.0, 0.0, 0.0, 1.0))  # A = B = 0: factor weight 1
    assert isinstance(s, PiHatSeries)
    assert s.values.shape == (201,)
    assert s.values[0] == 1.0
    assert np.all(s.values[1:] <= s.values[:-1])
    assert np.all(s.values > 0.0)
    # large factor weights may legitimately underflow the running product to
    # zero in double precision; it must still never go negative or non-monotone
    s2 = pi_hat(deltas, H, (4.0, 0.0, 1.0, 10.0))
    assert np.all(s2.values >= 0.0)
    assert np.all(s2.values[1:] <= s2.values[:-1])


def test_pi_hat_tail_sums_match_direct_convolution():
    rng = np.random.default_rng(1)
    T = 50
    deltas = rng.uniform(0.0, 0.2, size=(T, 2))
    h = HyperParams(beta1=0.81)  # q = 0.9
    s = pi_hat(deltas, h, (2.0, 1.0, 1.0, 1.0))
    q = math.sqrt(h.beta1)
    tau_max = min(int(math.floor(math.log(1e-12) / math.log(q))), T - 1)
    row = deltas.sum(axis=1)
    ref = np.array(
        [
            sum(q**j * row[k + j] for j in range(tau_max + 1) if k + j < T)
            for k in range(T)
        ]
    )
    np.testing.assert_allclose(s.dbar_realized, ref, rtol=1e-12)
    # total mass is bounded by the geometric series closed form
    assert s.dbar_realized.sum() <= row.sum() / (1.0 - q) * (1.0 + 1e-12)


# ---------------------------------------------------------------- branch sampling


def test_branch_estimates_are_exact_without_noise():
    p = make_noisy_quadratic([1.0, 2.0], sigma=0.0)
    h = HyperParams(dim=2)
    s = adam_init(np.array([1.0, -1.0]), h)
    est = branch_conditional(p, s, h, K=8, rng=np.random.default_rng(0))
    assert est.t == 1 and est.K == 8
    assert est.se_m1 == 0.0 and est.se_f_u_next == 0.0
    assert np.all(est.se_delta == 0.0)
    assert est.cond_mean_m1 == 0.0  # branches equal the true gradient


def test_branch_standard_error_scales_like_sqrt_k(quad10, h10, trace2k):
    s = trace2k.state_before(5)
    est_small = branch_conditional(quad10, s, h10, 400, rng_stream("se", 0, "branch"))
    est_big = branch_conditional(quad10, s, h10, 1600, rng_stream("se", 1, "branch"))
    ratio = est_big.se_f_u_next / est_small.se_f_u_next
    assert 0.4 < ratio < 0.6  # doubling-in-sqrt(K): expect about 1/2
    # unbiasedness: the branch mean of M_{t,1} sits within its own 4-SE band of 0
    assert abs(est_big.cond_mean_m1) <= 4.0 * est_big.se_m1


@pytest.mark.parametrize("kind", ["noisy_quadratic", "least_squares", "logistic"])
def test_branch_rows_are_bitwise_adam_steps(suite, kind):
    # every branch row is the one Adam update applied to that row's draw
    p = next(q for q in suite if q.name == kind)
    h = with_dim(H, p.dim)
    s = run_trajectory(p, h, T=6, seed=0).state_before(6)
    ba = _branch_arrays(p, s, h, 16, rng_stream("branch-rows", 0, "branch"))
    for k in range(16):
        nxt = adam_step(s, ba["G"][k], h)
        for key, want in (("W", nxt.w), ("M", nxt.m), ("V", nxt.v_vec)):
            assert ba[key][k].tobytes() == want.tobytes(), (key, k)
        eta_v = rates(eta_at(s.t + 1, h), ba["V"][k], h.mu)
        assert ba["eta_v"][k].tobytes() == eta_v.tobytes(), k


@pytest.mark.parametrize("shape", [(100_000, 10), (20_000, 5), (100_000,), (7, 3), (2,)])
def test_mean_sd_is_bitwise_numpys_mean_and_std(shape):
    x = 1.0 + 3.0 * np.random.default_rng(len(shape) + shape[0]).standard_normal(shape)
    mean, sd = _mean_sd(x)
    for got, ref in ((mean, x.mean(axis=0)), (sd, x.std(axis=0, ddof=1))):
        assert np.shape(got) == np.shape(ref)
        assert got.tobytes() == ref.tobytes()


def test_branch_requires_at_least_two_draws(quad10, h10):
    s = adam_init(np.ones(10), h10)
    with pytest.raises(ValueError, match="K must be >= 2"):
        branch_conditional(quad10, s, h10, 1, np.random.default_rng(0))


def test_eta_v_at_state_synthetic_at_zero(h10):
    s = adam_init(np.ones(10), h10)
    assert np.array_equal(eta_v_at_state(s, h10), synthetic_eta_v0(h10))


def test_eta_v_at_state_matches_definition():
    h = HyperParams(mu=1e-8, dim=2)
    v = np.array([4.0, 9.0])
    s = AdamState(t=5, w=np.zeros(2), m=np.zeros(2), v_vec=v)
    out = eta_v_at_state(s, h)
    np.testing.assert_allclose(out, eta_at(5, h) / (np.array([2.0, 3.0]) + 1e-8), rtol=0)


# ---------------------------------------------------------------- trace assembly


def test_trace_shapes_and_index_conventions(trace2k):
    tr = trace2k
    T, d = tr.T, tr.dim
    assert tr.W.shape == (T + 1, d)
    assert tr.G.shape == tr.M.shape == tr.V.shape == (T, d)
    assert tr.eta_v.shape == tr.S.shape == tr.u.shape == (T + 1, d)
    for name in ("S_total", "sigma_v", "margin2", "f_w", "f_u", "fhat", "grad_norm_sq"):
        assert getattr(tr, name).shape == (T + 1,)
    for name in ("zeta", "lambda1", "lambda4", "m1"):
        assert getattr(tr, name).shape == (T,)
    assert tr.pi.values.shape == (T + 1,)


def test_trace_synthetic_rows(trace2k):
    tr = trace2k
    assert np.array_equal(tr.eta_v[0], synthetic_eta_v0(tr.h))
    assert np.array_equal(tr.S[0], np.full(tr.dim, tr.h.v))
    assert tr.sigma_v[0] == tr.dim * tr.h.v
    assert tr.margin2[0] == tr.h.v * 0.5  # v * (1 - alpha1) at alpha0 = 1/2
    assert np.array_equal(tr.u[0], tr.W[0])


def test_trace_cumulative_energy_matches_sequential_accumulation(trace2k):
    tr = trace2k
    S = np.full(tr.dim, tr.h.v)
    for k in range(tr.T):
        S = accumulate_S(S, tr.G[k])
        assert np.array_equal(tr.S[k + 1], S)  # bitwise: same addition order


def test_trace_rows_match_scalar_helpers(trace2k):
    tr = trace2k
    for t in (1, 2, 17, 1000, tr.T):
        assert tr.zeta[t - 1] == pytest.approx(
            zeta_sum(tr.eta_v[t - 1], tr.grad_w[t - 1]), rel=1e-12
        )
        assert tr.m1[t - 1] == pytest.approx(
            m_term1(tr.eta_v[t - 1], tr.grad_w[t - 1], tr.G[t - 1]), rel=1e-12
        )
        assert tr.lambda1[t - 1] == pytest.approx(
            lambda_phi(tr.G[t - 1], float(tr.S_total[t - 1]), t, 1.0), rel=1e-13
        )
        assert tr.lambda4[t - 1] == pytest.approx(
            lambda_phi(tr.G[t - 1], float(tr.S_total[t - 1]), t, 4.0), rel=1e-13
        )
        assert tr.fhat[t - 1] == pytest.approx(
            lyapunov_fhat(
                float(tr.f_u[t - 1]),
                tr.certificate.f_star,
                tr.eta_v[t - 1],
                tr.certificate.C,
            ),
            rel=1e-12,
        )


def test_trace_auxiliary_iterate_identity(trace2k):
    tr = trace2k
    b1 = tr.h.beta1
    for k in (1, 5, 2000):
        ref = u_aux(tr.W[k], tr.W[k - 1], b1)
        np.testing.assert_allclose(tr.u[k], ref, rtol=1e-15)


def test_trace_u_equals_w_without_momentum(quad10):
    h = HyperParams(beta1=0.0, dim=10)
    tr = run_trajectory(quad10, h, T=50, seed=1)
    assert np.array_equal(tr.u, tr.W)
    assert np.array_equal(tr.M, tr.G)


def test_trace_state_before_round_trips(trace2k):
    tr = trace2k
    s1 = tr.state_before(1)
    assert s1.t == 0
    assert np.array_equal(s1.m, np.zeros(tr.dim))
    assert np.array_equal(s1.v_vec, np.full(tr.dim, tr.h.v))
    s9 = tr.state_before(9)
    assert s9.t == 8
    assert np.array_equal(s9.w, tr.W[8])
    assert np.array_equal(s9.m, tr.M[7])
    assert np.array_equal(s9.v_vec, tr.V[7])
    for bad in (0, tr.T + 1):
        with pytest.raises(IndexError):
            tr.state_before(bad)


def test_trace_arrays_are_readonly(trace2k):
    for name in ("W", "G", "eta_v", "delta", "S", "fhat", "m1"):
        with pytest.raises(ValueError):
            getattr(trace2k, name)[...] = 0.0


def test_trace_gaps_are_nonnegative_and_telescope(trace2k):
    tr = trace2k
    assert np.all(tr.delta >= -1e-12 * tr.eta_v[:-1].max())
    lhs = tr.delta.sum(axis=0)
    rhs = tr.eta_v[0] - tr.eta_v[-1]
    np.testing.assert_allclose(lhs, rhs, rtol=1e-10)


def _schedule(T, h):
    return [eta_at(t, h) for t in range(1, T + 1)]


def test_build_trace_rejects_inconsistent_shapes(quad10, h10):
    T, d = 4, 10
    W = np.ones((T + 1, d))
    G = np.ones((T, d))
    eta = _schedule(T, h10)
    with pytest.raises(ValueError, match="inconsistent raw shapes"):
        build_trace(quad10, h10, W, G, np.ones((T + 1, d)), np.ones((T, d)), eta)
    with pytest.raises(ValueError, match="inconsistent raw shapes"):
        build_trace(quad10, h10, np.ones((T, d)), G, np.ones((T, d)), np.ones((T, d)), eta)


def test_recorded_step_sizes_give_the_recomputed_trace(quad10, h10):
    # run_trajectories hands build_trace the step sizes run_steps filled:
    # the scalar schedule, to the bit
    tr = run_trajectory(quad10, h10, T=300, seed=4)
    fresh = build_trace(quad10, h10, tr.W, tr.G, tr.M, tr.V, _schedule(300, h10), seed=4)
    for name in ("eta_v", "delta", "fhat", "zeta", "m1"):
        assert np.array_equal(getattr(tr, name), getattr(fresh, name)), name
    assert np.array_equal(tr.pi.values, fresh.pi.values)
    with pytest.raises(ValueError, match=r"eta shape \(299,\) != \(300,\)"):
        build_trace(quad10, h10, tr.W, tr.G, tr.M, tr.V, np.ones(299))


def test_build_trace_flags_rate_inversion():
    # v collapsing from 1.0 to 0.09 makes eta_v rise: a materially negative gap
    p = make_noisy_quadratic([1.0], sigma=0.0)
    h = HyperParams(beta1=0.0, dim=1)
    W = np.array([[1.0], [0.5], [0.25]])
    G = np.array([[1.0], [0.5]])
    M = G.copy()
    V = np.array([[1.0], [0.09]])
    with pytest.raises(NegativeGap, match=r"Delta_\{t=2,i=0\}"):
        build_trace(p, h, W, G, M, V, _schedule(2, h))
