"""Auxiliary series computed alongside a trajectory.

Everything the convergence analysis talks about — the momentum-corrected
auxiliary iterate u_t, the rate gaps Delta_t, cumulative gradient energy
S_{t,i}, the Lyapunov value fhat(u_t), the normalized energy ratios
Lambda_{phi,t}, the realized product surrogate PiHat, and the martingale
term M_{t,1} — is derived offline from the raw arrays (w, g, m, v) of a run.

Index conventions used throughout (T steps, iterates w_1..w_{T+1}):

* by iterate, length T+1, index k:  W[k] = w_{k+1}, u[k] = u_{k+1},
  eta_v[k] = eta_{v_k} (row 0 is the synthetic eta_{v_0} = v/alpha1),
  S[k] = S_k (row 0 is v), S_total[k], sigma_v[k], f_w[k], grad_w[k],
  f_u[k], fhat[k] = fhat(u_{k+1}).
* by step, length T, index t-1:  G, M, V, delta (Delta_t), zeta (zeta(t)),
  lambda1/lambda4 (Lambda_{phi,t}), m1 (M_{t,1}).

All instrumentation is observational: nothing here touches optimizer state
or the trajectory's rng stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import HyperParams, alpha1, beta2_at, eta_at
from .problems import (
    Problem,
    ProblemCertificate,
    branch_samples,
    grad,
    grad_batch,
    loss_batch,
)
from .optimizer import AdamState, rates


class NegativeGap(ValueError):
    """A rate gap eta_{v_{t-1}} - eta_{v_t} came out materially negative."""


# ---------------------------------------------------------------------------
# the synthetic pre-run rate


def synthetic_eta_v0(h: HyperParams) -> np.ndarray:
    """The defined pre-run rate vector eta_{v_0} = (v / alpha1) * ones."""
    return np.full(h.dim, h.v / alpha1(h))


def aux_iterate(w_next, w, h: HyperParams):
    """The momentum-corrected iterate u_{t+1} = (w_{t+1} - beta1 * w_t) / (1 - beta1)."""
    return (w_next - h.beta1 * w) / (1.0 - h.beta1)


# ---------------------------------------------------------------------------
# the product surrogate


@dataclass(frozen=True)
class PiHatSeries:
    """Realized, tail-truncated version of the contraction product.

    values[t] = PiHat_t for t = 0..horizon, with PiHat_0 = 1 and each factor
    (1 + (D1/(1-sqrt(beta1)) + 1) * dbar_realized[k-1])^(-1) in (0, 1].
    dbar_realized[k-1] is the realized geometric tail sum
    sum_i sum_{t=k}^{cut} sqrt(beta1)^(t-k) * Delta_{t,i}; the true quantity
    is an infinite-horizon conditional expectation, so every consumer labels
    results built from this series as a surrogate.
    """

    horizon: int
    tail_cut: float
    values: np.ndarray  # (horizon+1,)
    dbar_realized: np.ndarray  # (horizon,)


def geometric_tail_rowsums(rows: np.ndarray, q: float, tail_cut: float = 1e-12) -> np.ndarray:
    """For each row r and step k: sum_{u>=0} q^u * r[k+u], truncated at q^u <
    tail_cut and at the row end.  q = 0 returns the rows unchanged."""
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    S, T = rows.shape
    if q == 0.0:
        return rows.copy()
    tau = min(int(math.floor(math.log(tail_cut) / math.log(q))), T - 1)
    kernel = q ** np.arange(tau + 1, dtype=np.float64)
    if T * (tau + 1) <= 1 << 22:  # small: direct sliding dot
        padded = np.concatenate([rows, np.zeros((S, tau))], axis=1)
        out = np.empty((S, T))
        for s in range(S):
            out[s] = np.correlate(padded[s], kernel, mode="valid")
        return out
    nfft = 1 << (T + tau + 1).bit_length()
    Kf = np.fft.rfft(kernel[::-1], nfft)
    Rf = np.fft.rfft(rows, nfft, axis=1)
    conv = np.fft.irfft(Rf * Kf, nfft, axis=1)
    return np.maximum(conv[:, tau : tau + T], 0.0)


def _factor_weight(L_f: float, A: float, B: float, q: float) -> float:
    """D1/(1-q) + 1 with D1 = 2/(1-q) * (A + 2*L_f*B) * (L_f+1), q = sqrt(beta1)."""
    D1 = 2.0 / (1.0 - q) * (A + 2.0 * L_f * B) * (L_f + 1.0)
    return D1 / (1.0 - q) + 1.0


def pi_hat(deltas, h: HyperParams, constants, tail_cut: float = 1e-12) -> PiHatSeries:
    """Build the PiHat series from the per-step gap vectors.

    ``constants`` is the tuple (L_f, A, B, C); see ``_factor_weight``.
    Geometric weights sqrt(beta1)^(t-k) are dropped once below tail_cut (and
    the tail always stops at the end of the trace).  With beta1 = 0 the tail
    collapses and dbar_realized[k-1] = sum_i Delta_{k,i} exactly.  Traces with
    T * (tail length) > 2^22 get their tail sums from the FFT path of
    ``geometric_tail_rowsums``.  The running product stays a plain cumprod:
    the trace CSV's pi_hat column holds its bytes.
    """
    D = np.atleast_2d(np.asarray(deltas, dtype=np.float64))
    L_f, A, B, C = (float(x) for x in constants)
    q = math.sqrt(h.beta1)
    # the tail sums of the per-step gap totals sum_i Delta_{t,i}
    dbar = geometric_tail_rowsums(D.sum(axis=1), q, tail_cut)[0]
    factors = 1.0 / (1.0 + _factor_weight(L_f, A, B, q) * dbar)
    values = np.concatenate([[1.0], np.cumprod(factors)])
    return PiHatSeries(horizon=D.shape[0], tail_cut=tail_cut, values=values, dbar_realized=dbar)


def log_pi_series(dsum: np.ndarray, h: HyperParams, cert: ProblemCertificate) -> np.ndarray:
    """ln PiHat_t per row per step, computed in the log domain.

    ``dsum`` holds one row of per-step gap sums sum_i Delta_{t,i} per seed.
    """
    q = math.sqrt(h.beta1)
    dbar = geometric_tail_rowsums(dsum, q)
    return -np.cumsum(np.log1p(_factor_weight(cert.L_f, cert.A, cert.B, q) * dbar), axis=1)


# ---------------------------------------------------------------------------
# branch sampling at a fixed state


@dataclass(frozen=True)
class BranchEstimate:
    """Monte-Carlo conditional means at one step, with standard errors."""

    t: int
    K: int
    cond_mean_m1: float
    cond_mean_delta: np.ndarray
    cond_mean_f_u_next: float
    se_m1: float
    se_delta: np.ndarray
    se_f_u_next: float


def eta_v_at_state(s: AdamState, h: HyperParams) -> np.ndarray:
    """eta_{v_t} for the state's own t (synthetic value at t = 0)."""
    if s.t == 0:
        return synthetic_eta_v0(h)
    return rates(eta_at(s.t, h), s.v_vec, h)


def _branch_arrays(p: Problem, s: AdamState, h: HyperParams, K: int, rng) -> dict:
    """K hypothetical one-step continuations from state s (w_t fixed).

    Returns the stacked branch arrays used by both branch_conditional and the
    descent-expectation check: gradients G (K,d), second moments V, momenta M,
    rates eta_v, next iterates W, gaps delta, plus the shared eta_v_prev and
    the exact gradient at w_t.
    """
    tau = s.t + 1
    Gb = branch_samples(p, s.w, K, rng)
    b2 = beta2_at(tau, h)
    # Not optimizer.adam_rows: ((1 - b2) * Gb) * Gb rounds differently from
    # (1 - b2) * (Gb * Gb), so switching would change the bytes of the
    # branch-based verdicts in verify.json.
    Vb = b2 * s.v_vec + (1.0 - b2) * Gb * Gb
    Mb = h.beta1 * s.m + (1.0 - h.beta1) * Gb
    eta_vb = rates(eta_at(tau, h), Vb, h)
    Wb = s.w - eta_vb * Mb
    eta_v_prev = eta_v_at_state(s, h)
    return {
        "tau": tau,
        "G": Gb,
        "V": Vb,
        "M": Mb,
        "eta_v": eta_vb,
        "W": Wb,
        "delta": eta_v_prev - eta_vb,
        "eta_v_prev": eta_v_prev,
        "grad_w": grad(p, s.w),
    }


def _mean_se(x: np.ndarray, axis=0):
    K = x.shape[axis]
    return x.mean(axis=axis), x.std(axis=axis, ddof=1) / math.sqrt(K)


def branch_conditional(p: Problem, s: AdamState, h: HyperParams, K: int, rng) -> BranchEstimate:
    """Estimate conditional means at step t = s.t + 1 by K gradient branches.

    Each branch applies one hypothetical update from the same state; reported
    are the branch means and standard errors of M_{t,1}, Delta_t, and
    f(u_{t+1}).  The caller supplies a dedicated rng, so the main trajectory
    stream is untouched.
    """
    if K < 2:
        raise ValueError(f"K must be >= 2, got {K}")
    ba = _branch_arrays(p, s, h, K, rng)
    gw = ba["grad_w"]
    m1_b = (ba["eta_v_prev"] * gw * (gw - ba["G"])).sum(axis=1)
    f_u_b = loss_batch(p, aux_iterate(ba["W"], s.w, h))
    m1_mean, m1_se = _mean_se(m1_b)
    d_mean, d_se = _mean_se(ba["delta"])
    f_mean, f_se = _mean_se(f_u_b)
    return BranchEstimate(
        t=ba["tau"],
        K=K,
        cond_mean_m1=float(m1_mean),
        cond_mean_delta=d_mean,
        cond_mean_f_u_next=float(f_mean),
        se_m1=float(m1_se),
        se_delta=d_se,
        se_f_u_next=float(f_se),
    )


# ---------------------------------------------------------------------------
# full-trace assembly


@dataclass(frozen=True)
class TheoryTrace:
    """A finished run plus every derived series, ready for checking/export."""

    problem: Problem
    certificate: ProblemCertificate
    h: HyperParams
    T: int
    W: np.ndarray  # (T+1, d) iterates w_1..w_{T+1}
    G: np.ndarray  # (T, d) oracle draws
    M: np.ndarray  # (T, d) momenta m_1..m_T
    V: np.ndarray  # (T, d) second moments v_1..v_T
    eta_v: np.ndarray  # (T+1, d); row 0 synthetic
    delta: np.ndarray  # (T, d)
    S: np.ndarray  # (T+1, d)
    S_total: np.ndarray  # (T+1,)
    sigma_v: np.ndarray  # (T+1,)
    margin2: np.ndarray  # (T+1,) min_i (t^gamma * v_{t,i} - alpha1 * S_{t,i})
    u: np.ndarray  # (T+1, d)
    f_w: np.ndarray  # (T+1,)
    grad_w: np.ndarray  # (T+1, d)
    grad_norm_sq: np.ndarray  # (T+1,)
    f_u: np.ndarray  # (T+1,)
    fhat: np.ndarray  # (T+1,)
    zeta: np.ndarray  # (T,)
    lambda1: np.ndarray  # (T,)
    lambda4: np.ndarray  # (T,)
    m1: np.ndarray  # (T,)
    pi: PiHatSeries
    seed: int | None = None

    @property
    def dim(self) -> int:
        return self.W.shape[1]

    def state_before(self, t: int) -> AdamState:
        """Reconstruct the AdamState holding w_t, i.e. just before step t."""
        if not 1 <= t <= self.T:
            raise IndexError(f"step {t} outside 1..{self.T}")
        d = self.dim
        if t == 1:
            m = np.zeros(d)
            v = np.full(d, self.h.v)
        else:
            m = self.M[t - 2]
            v = self.V[t - 2]
        return AdamState(t=t - 1, w=self.W[t - 1], m=np.asarray(m), v_vec=np.asarray(v))


def build_trace(p: Problem, h: HyperParams, W, G, M, V, seed=None) -> TheoryTrace:
    """Derive every auxiliary series from the raw arrays of a finished run."""
    W = np.asarray(W, dtype=np.float64)
    G = np.asarray(G, dtype=np.float64)
    M = np.asarray(M, dtype=np.float64)
    V = np.asarray(V, dtype=np.float64)
    T, d = G.shape
    if W.shape != (T + 1, d) or M.shape != (T, d) or V.shape != (T, d):
        raise ValueError(
            f"inconsistent raw shapes W={W.shape} G={G.shape} M={M.shape} V={V.shape}"
        )
    cert = p.certificate

    steps = np.arange(1, T + 1, dtype=np.float64)
    # scalar eta_at per step, so trace rates match the update arithmetic bitwise
    eta_sched = np.array([eta_at(t, h) for t in range(1, T + 1)])

    eta_v = np.empty((T + 1, d))
    eta_v[0] = synthetic_eta_v0(h)
    eta_v[1:] = rates(eta_sched[:, None], V, h)

    delta = eta_v[:-1] - eta_v[1:]
    scale = np.max(np.abs(eta_v[:-1]), axis=1)
    bad = delta < (-1e-12 * scale)[:, None]
    if np.any(bad):
        t_bad, i_bad = np.argwhere(bad)[0]
        raise NegativeGap(
            f"Delta_{{t={t_bad + 1},i={i_bad}}} = {delta[t_bad, i_bad]:.6e} materially negative"
        )

    # cumulative sum seeded with the v row: S_t = S_{t-1} + g_t^2, added left
    # to right per coordinate, the order the seed sweep's running sum uses
    S = np.cumsum(np.vstack([np.full((1, d), h.v), G * G]), axis=0)
    S_total = S.sum(axis=1)
    sigma_v = np.concatenate([[d * h.v], V.sum(axis=1)])

    a1 = alpha1(h)
    margin2 = np.empty(T + 1)
    margin2[0] = h.v * (1.0 - a1)
    margin2[1:] = np.min(steps[:, None] ** h.gamma * V - a1 * S[1:], axis=1)

    u = np.empty_like(W)
    u[0] = W[0]
    u[1:] = aux_iterate(W[1:], W[:-1], h)

    f_w = loss_batch(p, W)
    grad_w = grad_batch(p, W)
    grad_norm_sq = np.einsum("ij,ij->i", grad_w, grad_w)
    f_u = loss_batch(p, u)
    fhat = f_u - cert.f_star + cert.C * eta_v.sum(axis=1)

    zeta = np.einsum("ij,ij->i", eta_v[:-1], grad_w[:-1] ** 2)
    gsq = np.einsum("ij,ij->i", G, G)
    lambda1 = gsq / ((steps + 1.0) * np.sqrt(S_total[:-1]))
    lambda4 = gsq / ((steps + 1.0) ** 4 * np.sqrt(S_total[:-1]))
    m1 = np.einsum("ij,ij->i", eta_v[:-1] * grad_w[:-1], grad_w[:-1] - G)

    pi = pi_hat(delta, h, (cert.L_f, cert.A, cert.B, cert.C))

    arrays = dict(
        W=W, G=G, M=M, V=V, eta_v=eta_v, delta=delta, S=S, S_total=S_total,
        sigma_v=sigma_v, margin2=margin2, u=u, f_w=f_w, grad_w=grad_w,
        grad_norm_sq=grad_norm_sq, f_u=f_u, fhat=fhat, zeta=zeta,
        lambda1=lambda1, lambda4=lambda4, m1=m1,
    )
    for a in arrays.values():
        a.setflags(write=False)
    return TheoryTrace(
        problem=p, certificate=cert, h=h, T=T, pi=pi,
        seed=None if seed is None else int(seed), **arrays
    )
