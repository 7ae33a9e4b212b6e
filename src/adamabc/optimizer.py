"""Adam with time-varying second-moment averaging.

The update, per step tau = completed-steps + 1:

    v' = beta2_tau * v + (1 - beta2_tau) * g*g
    m' = beta1 * m + (1 - beta1) * g
    eta_v = eta_tau / (sqrt(v') + mu)        (componentwise)
    w' = w - eta_v * m'

No bias correction anywhere; mu sits outside the square root.  ``adam_rows``
is the only implementation, on a stacked (rows, d) state.  ``run_steps`` is
the one stepping loop; its consumers are the recording of ``run_trajectories``
(``run_trajectory`` is its one-seed case) and the seed sweep of
``experiments``.  ``adam_step`` keeps states immutable: it never mutates its
inputs, so replaying a step from a saved state reproduces the output bitwise.
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


def adam_rows(w, m, v, g, b2: float, eta: float, h: HyperParams, out=None) -> np.ndarray:
    """One update of a stacked (rows, d) state; returns the rates eta_v.

    ``b2`` and ``eta`` are the step's scalar schedule values.  The new state
    is written into ``out = (w', m', v')``, or over ``w, m, v`` themselves
    when ``out`` is None.  Gradients are not checked here: callers that take
    them from outside check them first.
    """
    w_out, m_out, v_out = (w, m, v) if out is None else out
    np.multiply(b2, v, out=v_out)
    v_out += (1.0 - b2) * (g * g)
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
    adam_rows(s.w, s.m, s.v_vec, g, beta2_at(tau, h), eta_at(tau, h), h, out=(w, m, v))
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


def run_steps(p: Problem, h: HyperParams, T: int, seeds, W, G, M, V, eta,
              rule: str = "adam", check: bool = False):
    """Advance one row per seed T steps in lockstep: the one stepping loop.

    The caller supplies step-major buffers: W (n + 1, S, d) with the start
    iterates in W[0], G, M, V (n, S, d) and eta (n, ...).  Step j of a block
    reads W[j] and writes G[j], W[j + 1], M[j], V[j] and its scalar rate
    eta[j]; a list G keeps each sample array itself, and a list M may repeat
    one array.  When the buffers fill, and after step T, the loop yields
    ``(t0, k)``: the block holds steps t0 + 1 .. t0 + k.  The next block
    starts from W[n], so buffers of n < T steps are a ring.  Row r draws from
    the ("trajectory", seeds[r], "oracle") stream, ``BLOCK`` steps at a time,
    and only meets its own data, so it is bitwise a lone run.  ``rule="sgd"``
    steps w - t^(-1/2) g and leaves M and V alone.  With ``check``, a
    non-finite gradient stops the loop at its step with NonFiniteGradient.
    """
    if rule not in ("adam", "sgd"):
        raise ValueError(f"unknown update rule {rule!r}")
    n = len(G)
    rngs = [rng_stream("trajectory", s, "oracle") for s in seeds]
    # the initial moments are one row broadcast over the seeds
    m, v = np.zeros((1, h.dim)), np.full((1, h.dim), h.v)
    block = None
    for k in range(T):
        tau, j = k + 1, k % n
        if j == 0 and k:
            W[0] = W[n]
        if k % BLOCK == 0:
            block = prefetch_draws(p, min(BLOCK, T - k), rngs, out=block)
        g = oracle_rows(p, W[j], None if block is None else block[k % BLOCK])
        # Python floats: cheaper than a numpy reduction over a few short rows
        if check and not all(map(math.isfinite, g.ravel().tolist())):
            raise NonFiniteGradient(_non_finite_message(g, seeds, tau))
        G[j] = g
        eta[j] = eta_t = eta_at(tau, h)
        if rule == "adam":
            adam_rows(W[j], m, v, g, beta2_at(tau, h), eta_t, h, out=(W[j + 1], M[j], V[j]))
            m, v = M[j], V[j]
        else:
            np.subtract(W[j], tau**-0.5 * g, out=W[j + 1])
        if j == n - 1 or tau == T:
            yield tau - j - 1, j + 1


def run_trajectories(p: Problem, h: HyperParams, T: int, seeds, w1=None):
    """Run T Adam steps from w1 for every seed at once; yield one TheoryTrace
    per seed, in the order of ``seeds``.

    The recording mode of ``run_steps``: its buffers are the whole step-major
    (T+1, S, d) / (T, S, d) trace arrays plus the (T,) step sizes, which
    ``build_trace`` reuses, and a non-finite gradient stops the run at its
    step with NonFiniteGradient.  Each trace is bitwise the one a
    lone run gives, and is built as it is consumed, on a contiguous copy of
    its seed's rows.

    The trace stores w_1 .. w_{T+1}: the loop that performs T updates ends one
    iterate past the last gradient, and callers pick the convention they need.
    """
    validate_hyperparams(h)
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    seeds = list(seeds)
    S, d = len(seeds), h.dim
    W = np.empty((T + 1, S, d))
    W[0] = adam_init(np.ones(d) if w1 is None else w1, h).w
    G, M, V = (np.empty((T, S, d)) for _ in range(3))
    eta = np.empty(T)
    for _ in run_steps(p, h, T, seeds, W, G, M, V, eta, check=True):
        pass

    from .instrumentation import build_trace  # deferred: instrumentation imports optimizer

    for r, seed in enumerate(seeds):
        rows = (np.ascontiguousarray(a[:, r]) for a in (W, G, M, V))
        yield build_trace(p, h, *rows, seed=seed, eta=eta)


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
