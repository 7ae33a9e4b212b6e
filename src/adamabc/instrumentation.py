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
from .optimizer import AdamState, eta_v_of


class NegativeGap(ValueError):
    """A rate gap eta_{v_{t-1}} - eta_{v_t} came out materially negative."""


# ---------------------------------------------------------------------------
# pointwise operations


def u_aux(w_t, w_prev, beta1: float) -> np.ndarray:
    """Momentum-corrected auxiliary iterate (w_t - beta1*w_prev)/(1 - beta1).

    At t = 1 there is no previous iterate and u_1 = w_1 by definition (m_0 = 0);
    callers handle that base case.
    """
    if not 0.0 <= beta1 < 1.0:
        raise ValueError(f"beta1 must be in [0, 1), got {beta1}")
    w_t = np.asarray(w_t, dtype=np.float64)
    w_prev = np.asarray(w_prev, dtype=np.float64)
    return (w_t - beta1 * w_prev) / (1.0 - beta1)


def synthetic_eta_v0(h: HyperParams) -> np.ndarray:
    """The defined pre-run rate vector eta_{v_0} = (v / alpha1) * ones."""
    return np.full(h.dim, h.v / alpha1(h))


def delta_gap(eta_v_prev, eta_v_cur, h: HyperParams) -> np.ndarray:
    """Componentwise rate gap Delta_t = eta_{v_{t-1}} - eta_{v_t}, >= 0.

    At t = 1 the caller passes the synthetic eta_{v_0} (see synthetic_eta_v0).
    A component below -1e-12 * max|eta_v_prev| means the monotone-rate
    guarantee was violated and raises NegativeGap.
    """
    prev = np.asarray(eta_v_prev, dtype=np.float64)
    cur = np.asarray(eta_v_cur, dtype=np.float64)
    if prev.shape != cur.shape:
        raise ValueError(f"shape mismatch {prev.shape} vs {cur.shape}")
    d = prev - cur
    scale = float(np.max(np.abs(prev))) if prev.size else 0.0
    if np.any(d < -1e-12 * scale):
        i = int(np.argmin(d))
        raise NegativeGap(f"gap component {i} = {d[i]:.6e} < -1e-12*scale (scale={scale:.6e})")
    return d


def accumulate_S(S_prev, g) -> np.ndarray:
    """S_t = S_{t-1} + g*g (componentwise cumulative gradient energy)."""
    S_prev = np.asarray(S_prev, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    return S_prev + g * g


def zeta_sum(eta_v_prev, grad_w) -> float:
    """sum_i eta_{v_{t-1},i} * (grad_i f(w_t))^2 — the descent-direction energy."""
    eta = np.asarray(eta_v_prev, dtype=np.float64)
    gw = np.asarray(grad_w, dtype=np.float64)
    if eta.shape != gw.shape:
        raise ValueError(f"shape mismatch {eta.shape} vs {gw.shape}")
    return float(np.sum(eta * gw * gw))


def lyapunov_fhat(f_u: float, f_star: float, eta_v_prev, C: float) -> float:
    """fhat(u_t) = f(u_t) - f* + C * sum_i eta_{v_{t-1},i}."""
    return float(f_u) - float(f_star) + float(C) * float(np.sum(eta_v_prev))


def lambda_phi(g, S_prev_total: float, t: int, phi: float) -> float:
    """Lambda_{phi,t} = |g_t|^2 / ((t+1)^phi * sqrt(S_{t-1}))."""
    if S_prev_total <= 0:
        raise ValueError(f"S_prev_total must be > 0, got {S_prev_total}")
    g = np.asarray(g, dtype=np.float64)
    return float(g @ g) / ((t + 1.0) ** phi * math.sqrt(S_prev_total))


def m_term1(eta_v_prev, grad_w, g) -> float:
    """M_{t,1} = sum_i eta_{v_{t-1},i} * grad_i f(w_t) * (grad_i f(w_t) - g_{t,i})."""
    eta = np.asarray(eta_v_prev, dtype=np.float64)
    gw = np.asarray(grad_w, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    if not (eta.shape == gw.shape == g.shape):
        raise ValueError(f"shape mismatch {eta.shape}/{gw.shape}/{g.shape}")
    return float(np.sum(eta * gw * (gw - g)))


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


def pi_hat(deltas, h: HyperParams, constants, tail_cut: float = 1e-12) -> PiHatSeries:
    """Build the PiHat series from the per-step gap vectors.

    ``constants`` is the tuple (L_f, A, B, C); the factor weight is
    D1/(1-sqrt(beta1)) + 1 with D1 = 2/(1-sqrt(beta1)) * (A + 2*L_f*B) * (L_f+1).
    Geometric weights sqrt(beta1)^(t-k) are dropped once below tail_cut (and
    the tail always stops at the end of the trace).  With beta1 = 0 the tail
    collapses and dbar_realized[k-1] = sum_i Delta_{k,i} exactly.
    """
    D = np.atleast_2d(np.asarray(deltas, dtype=np.float64))
    T = D.shape[0]
    L_f, A, B, C = (float(x) for x in constants)
    q = math.sqrt(h.beta1)
    row = D.sum(axis=1)  # sum_i Delta_{t,i}, one entry per step
    if q == 0.0:
        dbar = row.copy()
    else:
        tau_max = int(math.floor(math.log(tail_cut) / math.log(q)))
        tau_max = min(tau_max, T - 1)
        kernel = q ** np.arange(tau_max + 1, dtype=np.float64)
        padded = np.concatenate([row, np.zeros(tau_max)])
        dbar = np.correlate(padded, kernel, mode="valid")
    D1 = 2.0 / (1.0 - q) * (A + 2.0 * L_f * B) * (L_f + 1.0)
    weight = D1 / (1.0 - q) + 1.0
    factors = 1.0 / (1.0 + weight * dbar)
    values = np.concatenate([[1.0], np.cumprod(factors)])
    return PiHatSeries(horizon=T, tail_cut=tail_cut, values=values, dbar_realized=dbar)


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
    return eta_v_of(s.v_vec, s.t, h)


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
    eta_vb = eta_at(tau, h) / (np.sqrt(Vb) + h.mu)
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
    mean = x.mean(axis=axis)
    if K < 2:
        return mean, np.zeros_like(mean)
    return mean, x.std(axis=axis, ddof=1) / math.sqrt(K)


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
    u_next = (ba["W"] - h.beta1 * s.w) / (1.0 - h.beta1)
    f_u_b = loss_batch(p, u_next)
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
class StepDiagnostics:
    """Everything the analysis attaches to one step t (see module docstring)."""

    t: int
    eta_v: np.ndarray
    delta: np.ndarray
    S_row: np.ndarray
    S_total: float
    sigma_v: float
    u: np.ndarray
    zeta_sum: float
    fhat: float
    lambda_phi: float  # the phi = 4 instance
    m1: float


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
    def problem_name(self) -> str:
        return self.problem.name

    @property
    def dim(self) -> int:
        return self.W.shape[1]

    def step(self, t: int) -> StepDiagnostics:
        """Diagnostics for step t in 1..T."""
        if not 1 <= t <= self.T:
            raise IndexError(f"step {t} outside 1..{self.T}")
        return StepDiagnostics(
            t=t,
            eta_v=self.eta_v[t],
            delta=self.delta[t - 1],
            S_row=self.S[t],
            S_total=float(self.S_total[t]),
            sigma_v=float(self.sigma_v[t]),
            u=self.u[t - 1],
            zeta_sum=float(self.zeta[t - 1]),
            fhat=float(self.fhat[t - 1]),
            lambda_phi=float(self.lambda4[t - 1]),
            m1=float(self.m1[t - 1]),
        )

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
    eta_v[1:] = eta_sched[:, None] / (np.sqrt(V) + h.mu)

    delta = eta_v[:-1] - eta_v[1:]
    scale = np.max(np.abs(eta_v[:-1]), axis=1)
    bad = delta < (-1e-12 * scale)[:, None]
    if np.any(bad):
        t_bad, i_bad = np.argwhere(bad)[0]
        raise NegativeGap(
            f"Delta_{{t={t_bad + 1},i={i_bad}}} = {delta[t_bad, i_bad]:.6e} materially negative"
        )

    # cumulative sum seeded with the v row reproduces accumulate_S's
    # left-to-right addition order exactly
    S = np.cumsum(np.vstack([np.full((1, d), h.v), G * G]), axis=0)
    S_total = S.sum(axis=1)
    sigma_v = np.concatenate([[d * h.v], V.sum(axis=1)])

    a1 = alpha1(h)
    margin2 = np.empty(T + 1)
    margin2[0] = h.v * (1.0 - a1)
    margin2[1:] = np.min(steps[:, None] ** h.gamma * V - a1 * S[1:], axis=1)

    u = np.empty_like(W)
    u[0] = W[0]
    u[1:] = (W[1:] - h.beta1 * W[:-1]) / (1.0 - h.beta1)

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
