"""Adam with time-varying second-moment averaging.

The update, per step tau = completed-steps + 1:

    v' = beta2_tau * v + (1 - beta2_tau) * g*g
    m' = beta1 * m + (1 - beta1) * g
    eta_v = eta_tau / (sqrt(v') + mu)        (componentwise)
    w' = w - eta_v * m'

No bias correction anywhere; mu sits outside the square root.  ``adam_rows``
is the only implementation: it updates a stacked (rows, d) state in place and
serves the lockstep seed sweep (one row per seed), the recording loop of
``run_trajectories`` (one row per seed, written straight into the trace
arrays; ``run_trajectory`` is its one-seed case) and ``adam_step``.
``adam_step`` keeps states immutable: it never mutates its inputs, so
replaying a step from a saved state reproduces the original output bitwise.
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


def rates(eta, v, h: HyperParams):
    """The per-coordinate rates eta_v = eta / (sqrt(v) + mu)."""
    return eta / (np.sqrt(v) + h.mu)


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
    eta_v = rates(eta, v_out, h)
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


def prefetch_draws(p: Problem, take: int, rngs, out=None):
    """The next ``take`` oracle draws of every row: ``block[j, r]`` is row r's
    draw for the j-th step, taken from ``rngs[r]`` in stream order.

    Written into ``out[:take]`` when given, so a loop reuses one buffer for
    all its blocks.  None when the oracle draws nothing (noiseless quadratic).
    """
    block = None
    for r, rng in enumerate(rngs):
        draws = oracle_draws(p, take, rng)
        if draws is None:
            return None
        if block is None:
            shape = (take, len(rngs)) + draws.shape[1:]
            block = np.empty(shape, draws.dtype) if out is None else out[:take]
        block[:, r] = draws
    return block


def run_trajectories(p: Problem, h: HyperParams, T: int, seeds, w1=None):
    """Run T Adam steps from w1 for every seed at once; yield one TheoryTrace
    per seed, in the order of ``seeds``.

    Seed s's oracle stream is keyed by ("trajectory", s, "oracle"), so
    identical inputs give bitwise-identical traces.  This is the recording
    mode of the stacked step: the seeds advance in lockstep as the rows of
    step-major (T+1, S, d) / (T, S, d) arrays, oracle draws are prefetched in
    blocks of ``BLOCK``, and each step is written in place into the trace
    arrays.  Every row only meets its own data, so each trace is bitwise the
    one a lone run gives.  A non-finite gradient stops the run at its step
    with NonFiniteGradient.  Traces are built one at a time as they are
    consumed, each on a contiguous copy of its seed's rows.

    The trace stores w_1 .. w_{T+1}: the loop that performs T updates ends one
    iterate past the last gradient, and callers pick the convention they need.
    """
    validate_hyperparams(h)
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    seeds = list(seeds)
    S, d = len(seeds), h.dim
    s0 = adam_init(np.ones(d) if w1 is None else w1, h)
    W = np.empty((T + 1, S, d))
    G = np.empty((T, S, d))
    M = np.empty((T, S, d))
    V = np.empty((T, S, d))
    W[0] = s0.w
    rngs = [rng_stream("trajectory", s, "oracle") for s in seeds]

    # step k reads W[k] and the previous moments and writes G[k], W[k + 1],
    # M[k], V[k]; the initial moments are one row broadcast over the seeds
    m, v = s0.m[None], s0.v_vec[None]
    block = None
    for k in range(T):
        tau = k + 1
        j = k % BLOCK
        if j == 0:
            block = prefetch_draws(p, min(BLOCK, T - k), rngs, out=block)
        g = oracle_rows(p, W[k], None if block is None else block[j])
        # Python floats: cheaper than a numpy reduction over a few short rows
        if not all(map(math.isfinite, g.ravel().tolist())):
            raise NonFiniteGradient(_non_finite_message(g, seeds, tau))
        G[k] = g
        b2, eta = beta2_at(tau, h), eta_at(tau, h)
        adam_rows(W[k], m, v, g, g * g, b2, eta, h, out=(W[k + 1], M[k], V[k]))
        m, v = M[k], V[k]

    from .instrumentation import build_trace  # deferred: instrumentation imports optimizer

    for r, seed in enumerate(seeds):
        rows = (np.ascontiguousarray(a[:, r]) for a in (W, G, M, V))
        yield build_trace(p, h, *rows, seed=seed)


def _non_finite_message(g, seeds, tau: int) -> str:
    where = f"step {tau}: non-finite gradient component at t={tau}"
    if len(seeds) == 1:
        return where
    r = int(np.argmin(np.isfinite(g).all(axis=1)))
    return f"seed {seeds[r]}, {where}"


def run_trajectory(p: Problem, h: HyperParams, T: int, seed: int, w1=None):
    """Run T Adam steps on problem ``p`` and return the assembled TheoryTrace:
    the one-seed case of ``run_trajectories``."""
    return next(run_trajectories(p, h, T, [seed], w1))
