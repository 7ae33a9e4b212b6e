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

from .core import HyperParams, alpha1, eta_at
from .problems import (
    ROW_CHUNK,
    Problem,
    ProblemCertificate,
    branch_samples,
    grad,
    grad_batch,
    loss_batch,
)
from .optimizer import AdamState, _step_given, adam_init, rates, synthetic_eta_v0


class NegativeGap(ValueError):
    """A rate gap eta_{v_{t-1}} - eta_{v_t} came out materially negative."""


def _require_gaps(delta, eta_prev, seeds, t0: int = 0) -> None:
    """Raise NegativeGap at the first (t, seed, i), in that order, where a
    gap of the (k, S, d) stack ``delta`` (steps t0 + 1 .. t0 + k, one row per
    seed) lies below -1e-12 * max_i |eta_{v_{t-1},i}|, read from the same
    place in ``eta_prev``."""
    if delta.min() >= 0.0:  # the usual case, no gap below zero (nor a NaN): one pass
        return
    bad = delta < (-1e-12 * np.max(np.abs(eta_prev), axis=2))[..., None]
    if np.any(bad):
        t, r, i = np.argwhere(bad)[0]
        raise NegativeGap(
            f"negative rate gap: seed {seeds[r]}, Delta_{{t={t0 + t + 1},i={i}}} = "
            f"{delta[t, r, i]:.6e} materially negative"
        )


def aux_iterate(w_next, w, h: HyperParams):
    """The momentum-corrected iterate u_{t+1} = (w_{t+1} - beta1 * w_t) / (1 - beta1)."""
    return (w_next - h.beta1 * w) / (1.0 - h.beta1)


# ---------------------------------------------------------------------------
# the product surrogate

#: geometric weights sqrt(beta1)^(t-k) below this are dropped from tail sums
TAIL_CUT = 1e-12


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
    values: np.ndarray  # (horizon+1,)
    dbar_realized: np.ndarray  # (horizon,)


def _tail_rows(rows: np.ndarray, q: float):
    """Yield, row by row, each (S, T) row's geometric tail sums as a new (T,)
    array: sum_{u>=0} q^u * r[k+u] at step k, truncated at q^u < TAIL_CUT and
    at the row end.  q = 0 yields a copy of each row.

    The kernel, and on the FFT path (T * (tail length) > 2^22) its spectrum,
    are built once; each row is then transformed alone, so the working set is
    one row's, whatever S.
    """
    T = rows.shape[1]
    if q == 0.0:
        yield from (row.copy() for row in rows)
        return
    tau = min(int(math.floor(math.log(TAIL_CUT) / math.log(q))), T - 1)
    kernel = q ** np.arange(tau + 1, dtype=np.float64)
    if T * (tau + 1) <= 1 << 22:  # small: direct sliding dot
        padded = np.zeros(T + tau)
        for row in rows:
            padded[:T] = row
            yield np.correlate(padded, kernel, mode="valid")
        return
    nfft = 1 << (T + tau + 1).bit_length()
    Kf = np.fft.rfft(kernel[::-1], nfft)
    for row in rows:
        Rf = np.fft.rfft(row, nfft)
        Rf *= Kf
        yield np.maximum(np.fft.irfft(Rf, nfft)[tau : tau + T], 0.0)


def _factor_weight(L_f: float, A: float, B: float, q: float) -> float:
    """D1/(1-q) + 1 with D1 = 2/(1-q) * (A + 2*L_f*B) * (L_f+1), q = sqrt(beta1)."""
    D1 = 2.0 / (1.0 - q) * (A + 2.0 * L_f * B) * (L_f + 1.0)
    return D1 / (1.0 - q) + 1.0


def pi_hat(deltas, h: HyperParams, constants) -> PiHatSeries:
    """Build the PiHat series from the per-step gap vectors.

    ``constants`` is the tuple (L_f, A, B, C); see ``_factor_weight``.
    Geometric weights sqrt(beta1)^(t-k) are dropped once below TAIL_CUT (and
    the tail always stops at the end of the trace).  With beta1 = 0 the tail
    collapses and dbar_realized[k-1] = sum_i Delta_{k,i} exactly.  The tail
    sums are ``_tail_rows`` of the trace's one row of gap totals, from its
    FFT path when T * (tail length) > 2^22; ``log_pi_series`` runs the same
    per-row transforms.  The running product stays a plain cumprod:
    the trace CSV's pi_hat column holds its bytes.
    """
    D = np.asarray(deltas, dtype=np.float64)
    if D.ndim != 2 or min(D.shape) < 1:
        raise ValueError(f"deltas must be (T >= 1, d >= 1), got shape {D.shape}")
    L_f, A, B, C = (float(x) for x in constants)
    q = math.sqrt(h.beta1)
    # the tail sums of the per-step gap totals sum_i Delta_{t,i}
    dbar = next(_tail_rows(D.sum(axis=1)[None], q))
    factors = 1.0 / (1.0 + _factor_weight(L_f, A, B, q) * dbar)
    values = np.concatenate([[1.0], np.cumprod(factors)])
    return PiHatSeries(horizon=D.shape[0], values=values, dbar_realized=dbar)


def log_pi_series(
    dsum: np.ndarray, h: HyperParams, cert: ProblemCertificate, cols
) -> np.ndarray:
    """ln PiHat_t per row at the steps ``cols`` (0-based, so PiHat_{cols + 1}),
    computed in the log domain.

    ``dsum`` holds one row of per-step gap sums sum_i Delta_{t,i} per seed.
    Each row's tail sums are reduced in place as soon as they are made
    (weight, log1p, cumsum) and only ``cols`` is kept, negated: the working
    set is one row, not (S, T).  The result is column-major, the
    layout a column selection of a dense (S, T) series has, so reductions
    over seeds sum in the same order.
    """
    q = math.sqrt(h.beta1)
    weight = _factor_weight(cert.L_f, cert.A, cert.B, q)
    out = np.empty((len(cols), len(dsum))).T
    for s, dbar in enumerate(_tail_rows(dsum, q)):
        dbar *= weight
        np.log1p(dbar, out=dbar)
        np.cumsum(dbar, out=dbar)
        np.negative(dbar[cols], out=out[s])
    return out


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
    return rates(eta_at(s.t, h), s.v_vec, h.mu)


def _branch_step(p: Problem, s: AdamState, h: HyperParams, K: int, rng):
    """K hypothetical one-step continuations from state s (w_t fixed).

    Returns the draws G (K, d) from ``branch_samples``, the iterates W that
    ``adam_rows`` steps the state to against them and their rates E,
    eta_{v_{t+1}}: each row is bitwise ``adam_step`` of its draw.  The
    state's [w; m; v] is one (3, 1, d) stack that broadcasts over the
    branches.  No caller reads the new moments, so [m'; v'] go through the
    (2, K, d) stack of W and E, and the draws sit in a (2, K, d) stack over
    the update's scratch: the step holds four (K, d) arrays, scratch included.
    """
    tau = s.t + 1
    GG = np.empty((2, K, h.dim))
    branch_samples(p, s.w, K, rng, out=GG[0])
    WE = np.empty_like(GG)  # after the draws, whose own buffers are freed by then
    _step_given(np.stack((s.w, s.m, s.v_vec))[:, None], GG, h, tau, (WE[0], WE, WE[1]))
    return GG[0], WE[0], WE[1]


def _carried(ufunc, stack: np.ndarray, k: int, out=None) -> np.ndarray:
    """``ufunc`` over rows 0 .. k of a carry stack: the running value after its
    k-th term.  Row 0 holds the value before a block of terms, rows 1 .. k the
    terms; written back to row 0, the result carries into the next block.

    On a C-contiguous stack of two or more columns every row is combined into
    the running value in row order, so a sum is bitwise its step-by-step
    value however the steps are blocked.  A sum runs through ``np.einsum``'s
    one-operand kernel, rows outer and columns inner: the same additions as
    ``np.add.reduce`` over axis 0, at a fraction of its per-row cost.  One
    column is summed pairwise by either kernel, so a lone one is padded.
    """
    if ufunc is np.add:
        return np.einsum("i...->...", stack[: k + 1], out=out)
    return ufunc.reduce(stack[: k + 1], 0, out=out)


def _mean_sd(x: np.ndarray):
    """``x.mean(0)`` and ``x.std(0, ddof=1)``, bitwise.

    A C-contiguous (K, d >= 2) stack is summed in row order by ``_carried``,
    as numpy sums it: its mean over all K rows, which allocates one row, and
    its squared deviations ``ROW_CHUNK`` rows at a time, never building the
    (K, d) deviations.  Other inputs, which numpy sums pairwise and no
    chunking reproduces, go to numpy's own mean and std.
    """
    K = x.shape[0]
    if not (x.ndim == 2 and x.shape[1] >= 2 and x.flags.c_contiguous):
        return x.mean(0), x.std(0, ddof=1)
    mean = _carried(np.add, x, K - 1)
    np.true_divide(mean, K, mean)
    buf, sd = np.empty((min(K, ROW_CHUNK) + 1, x.shape[1])), np.zeros_like(mean)
    for s in range(0, K, ROW_CHUNK):
        dev = buf[1 : min(ROW_CHUNK, K - s) + 1]
        np.multiply(np.subtract(x[s : s + len(dev)], mean, dev), dev, dev)
        buf[0] = sd
        _carried(np.add, buf, len(dev), out=sd)
    np.true_divide(sd, K - 1, sd)
    np.sqrt(sd, sd)
    return mean, sd


def branch_conditional(p: Problem, s: AdamState, h: HyperParams, K: int, rng) -> BranchEstimate:
    """Estimate conditional means at step t = s.t + 1 by K gradient branches.

    Each branch applies one hypothetical update from the same state; reported
    are the branch means and standard errors of M_{t,1}, Delta_t, and
    f(u_{t+1}).  The caller supplies a dedicated rng, so the main trajectory
    stream is untouched.
    """
    if K < 2:
        raise ValueError(f"K must be >= 2, got {K}")
    eta_v_prev, gw = eta_v_at_state(s, h), grad(p, s.w)
    G, W, E = _branch_step(p, s, h, K, rng)
    # eta_v_prev * gw * (gw - G) in one (K, d) temporary, then the draws'
    # (2, K, d) stack is freed before the temporaries below
    x = np.subtract(gw, G)
    m1_b = np.multiply(eta_v_prev * gw, x, x).sum(axis=1)
    del G, x
    f_u_b = loss_batch(p, aux_iterate(W, s.w, h))
    m1_mean, m1_sd = _mean_sd(m1_b)
    d_mean, d_sd = _mean_sd(eta_v_prev - E)
    f_mean, f_sd = _mean_sd(f_u_b)
    rk = math.sqrt(K)
    return BranchEstimate(
        t=s.t + 1,
        K=K,
        cond_mean_m1=float(m1_mean),
        cond_mean_delta=d_mean,
        cond_mean_f_u_next=float(f_mean),
        se_m1=float(m1_sd / rk),
        se_delta=d_sd / rk,
        se_f_u_next=float(f_sd / rk),
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
        """Reconstruct the AdamState holding w_t, i.e. just before step t:
        ``adam_init`` at w_1 for t = 1, else the trace's rows (views)."""
        if not 1 <= t <= self.T:
            raise IndexError(f"step {t} outside 1..{self.T}")
        if t == 1:
            return adam_init(self.W[0], self.h)
        return AdamState(t=t - 1, w=self.W[t - 1], m=self.M[t - 2], v_vec=self.V[t - 2])


def build_trace(p: Problem, h: HyperParams, W, G, M, V, eta, seed=None) -> TheoryTrace:
    """Derive every auxiliary series from the raw arrays of a finished run.

    ``eta`` holds the step sizes eta_1 .. eta_T as the run used them (the
    buffer ``run_steps`` fills, scalar ``eta_at`` per step), so the trace's
    rates match the update arithmetic bitwise.
    """
    W = np.asarray(W, dtype=np.float64)
    G = np.asarray(G, dtype=np.float64)
    M = np.asarray(M, dtype=np.float64)
    V = np.asarray(V, dtype=np.float64)
    T, d = G.shape
    if W.shape != (T + 1, d) or M.shape != (T, d) or V.shape != (T, d):
        raise ValueError(
            f"inconsistent raw shapes W={W.shape} G={G.shape} M={M.shape} V={V.shape}"
        )
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    cert = p.certificate

    steps = np.arange(1, T + 1, dtype=np.float64)
    eta_sched = np.asarray(eta, dtype=np.float64)
    if eta_sched.shape != (T,):
        raise ValueError(f"eta shape {eta_sched.shape} != ({T},)")

    eta_v = np.empty((T + 1, d))
    eta_v[0] = synthetic_eta_v0(h)
    rates(eta_sched[:, None], V, h.mu, out=eta_v[1:])

    delta = eta_v[:-1] - eta_v[1:]
    _require_gaps(delta[:, None], eta_v[:-1, None], [seed])

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
