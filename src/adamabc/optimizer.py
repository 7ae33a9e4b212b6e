"""Adam with time-varying second-moment averaging.

The update, per step tau = completed-steps + 1:

    v' = beta2_tau * v + (1 - beta2_tau) * g*g
    m' = beta1 * m + (1 - beta1) * g
    eta_v = eta_tau / (sqrt(v') + mu)        (componentwise)
    w' = w - eta_v * m'

No bias correction anywhere; mu sits outside the square root.  ``adam_rows``
is the only implementation: it updates a stacked (rows, d) state in place and
serves the lockstep seed sweep (one row per seed), the recording loop of
``run_trajectory`` (one row, written straight into the trace arrays) and
``adam_step``.  ``adam_step`` keeps states immutable: it never mutates its
inputs, so replaying a step from a saved state reproduces the original output
bitwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DimensionMismatch, HyperParams, beta2_at, eta_at, validate_hyperparams
from .problems import Problem, oracle_draws, oracle_rows, rng_stream

#: oracle draws prefetched per block, per row; blocked draws consume the
#: stream exactly as single draws do
BLOCK = 4096


class NonFiniteGradient(ValueError):
    """A gradient sample contained NaN or +/-inf; traces must be gap-free."""


def _ro(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=np.float64, copy=True)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class AdamState:
    """Snapshot after ``t`` completed steps: iterate w, moments m and v_vec."""

    t: int
    w: np.ndarray
    m: np.ndarray
    v_vec: np.ndarray


def adam_init(w1, h: HyperParams) -> AdamState:
    """State at t = 0: m = 0 and v_vec = h.v * ones, iterate at w1."""
    w1 = np.asarray(w1, dtype=np.float64)
    if w1.shape != (h.dim,):
        raise DimensionMismatch(f"w1 shape {w1.shape} != ({h.dim},)")
    return AdamState(t=0, w=_ro(w1), m=_ro(np.zeros(h.dim)), v_vec=_ro(np.full(h.dim, h.v)))


def adam_rows(w, m, v, g, g2, b2: float, eta: float, h: HyperParams, out=None) -> np.ndarray:
    """One update of a stacked (rows, d) state; returns the rates eta_v.

    ``g2`` is ``g * g``, an input because the seed sweep also accumulates it.
    ``b2`` and ``eta`` are the step's scalar schedule values.  The new state
    is written into ``out = (w', m', v')``, or over ``w, m, v`` themselves
    when ``out`` is None.  Gradients are not checked here: callers that take
    them from outside check them first.
    """
    w_out, m_out, v_out = (w, m, v) if out is None else out
    np.multiply(b2, v, out=v_out)
    v_out += (1.0 - b2) * g2
    np.multiply(h.beta1, m, out=m_out)
    m_out += (1.0 - h.beta1) * g
    eta_v = eta / (np.sqrt(v_out) + h.mu)
    np.subtract(w, eta_v * m_out, out=w_out)
    return eta_v


def adam_step(s: AdamState, g, h: HyperParams) -> AdamState:
    """One update; returns the new state, leaving ``s`` untouched."""
    g = np.asarray(g, dtype=np.float64)
    if g.shape != s.w.shape:
        raise DimensionMismatch(f"gradient shape {g.shape} != state shape {s.w.shape}")
    if not np.all(np.isfinite(g)):
        raise NonFiniteGradient(f"non-finite gradient component at t={s.t + 1}")
    tau = s.t + 1
    w, m, v = (np.empty_like(g) for _ in range(3))
    adam_rows(s.w, s.m, s.v_vec, g, g * g, beta2_at(tau, h), eta_at(tau, h), h, out=(w, m, v))
    for a in (w, m, v):
        a.setflags(write=False)
    return AdamState(t=tau, w=w, m=m, v_vec=v)


def run_trajectory(p: Problem, h: HyperParams, T: int, seed: int, w1=None):
    """Run T Adam steps on problem ``p`` and return the assembled TheoryTrace.

    The oracle stream is keyed by ("trajectory", seed, "oracle"), so identical
    inputs give bitwise-identical traces.  This is the recording mode of the
    stacked step: one row, oracle draws prefetched in blocks of ``BLOCK``, and
    each step written in place into its row of the trace arrays.  A
    non-finite gradient stops the run at its step with NonFiniteGradient.

    The trace stores w_1 .. w_{T+1}: the loop that performs T updates ends one
    iterate past the last gradient, and callers pick the convention they need.
    """
    validate_hyperparams(h)
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    d = h.dim
    s0 = adam_init(np.ones(d) if w1 is None else w1, h)
    W = np.empty((T + 1, d))
    G = np.empty((T, d))
    M = np.empty((T, d))
    V = np.empty((T, d))
    W[0] = s0.w
    rng = rng_stream("trajectory", seed, "oracle")

    # (1, d) row views: step k reads W[k] and the previous moments and
    # writes G[k], W[k + 1], M[k], V[k]
    Wr, Gr, Mr, Vr = (a.reshape(len(a), 1, d) for a in (W, G, M, V))
    m, v = s0.m[None], s0.v_vec[None]
    for k in range(T):
        tau = k + 1
        j = k % BLOCK
        if j == 0:
            draws = oracle_draws(p, min(BLOCK, T - k), rng)
        g = oracle_rows(p, Wr[k], None if draws is None else draws[j : j + 1])
        # Python floats: cheaper than a numpy reduction over one short row
        if not all(map(math.isfinite, g[0].tolist())):
            raise NonFiniteGradient(f"step {tau}: non-finite gradient component at t={tau}")
        Gr[k] = g
        b2, eta = beta2_at(tau, h), eta_at(tau, h)
        adam_rows(Wr[k], m, v, g, g * g, b2, eta, h, out=(Wr[k + 1], Mr[k], Vr[k]))
        m, v = Mr[k], Vr[k]

    from .instrumentation import build_trace  # deferred: instrumentation imports optimizer

    return build_trace(p, h, W, G, M, V, seed=seed)
