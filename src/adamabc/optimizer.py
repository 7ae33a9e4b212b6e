"""Adam with time-varying second-moment averaging.

The update, per step tau = completed-steps + 1:

    v' = beta2_tau * v + (1 - beta2_tau) * g*g
    m' = beta1 * m + (1 - beta1) * g
    eta_v = eta_tau / (sqrt(v') + mu)        (componentwise)
    w' = w - eta_v * m'

No bias correction anywhere; mu sits outside the square root.  Every run
starts at w_1 = ones with m = 0 and v = h.v.  ``adam_rows``
is the only implementation, on a stacked (rows, d) state; it allocates
nothing.  ``run_steps`` is the one stepping loop, on a ring of ``SUB`` steps
that it owns; its consumers are the recording of ``run_trajectories``
(``run_trajectory`` is its one-seed case), which copies each sub-block out,
and the seed sweep of ``experiments``, which reduces it.  ``adam_step`` keeps
states immutable: it never mutates its inputs, so replaying a step from a
saved state reproduces the output bitwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import DimensionMismatch, HyperParams, beta2_at, eta_at, validate_hyperparams
from .problems import Problem, oracle_draws, oracle_rows, rng_stream

#: oracle draws prefetched per block, per row; blocked draws consume the
#: stream exactly as single draws do
BLOCK = 4096

#: steps per sub-block: the length of the ring ``run_steps`` owns (divides BLOCK)
SUB = 32


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


def rates(eta, v, mu, out=None):
    """The per-coordinate rates eta_v = eta / (sqrt(v) + mu), written into
    ``out`` when given."""
    r = np.sqrt(v, out)
    np.add(r, mu, r)
    return np.true_divide(eta, r, r)


def adam_rows(w, m, v, g, sched, consts, out, tmp) -> None:
    """One update of a stacked (rows, d) state, allocating nothing.

    ``sched = (b2, 1 - b2, eta)`` are the step's schedule values and
    ``consts = (beta1, 1 - beta1, mu)`` the run's constants: scalars, or
    arrays shaped like g that hold the same doubles (a product or quotient
    with such an array is bitwise the scalar one).  The new state is written
    into ``out = (w', m', v')``, which may be ``(w, m, v)`` themselves; every
    intermediate goes through ``tmp``, one more array shaped like g.
    Gradients are not checked here: callers that take them from outside
    check them first.
    """
    b2, c2, eta = sched
    b1, c1, mu = consts
    w_out, m_out, v_out = out
    np.multiply(g, g, tmp)
    np.multiply(c2, tmp, tmp)
    np.multiply(b2, v, v_out)
    np.add(v_out, tmp, v_out)
    np.multiply(c1, g, tmp)
    np.multiply(b1, m, m_out)
    np.add(m_out, tmp, m_out)
    rates(eta, v_out, mu, tmp)
    np.multiply(tmp, m_out, tmp)
    np.subtract(w, tmp, w_out)


def adam_step(s: AdamState, g, h: HyperParams) -> AdamState:
    """One update; returns the new state, leaving ``s`` untouched."""
    g = np.asarray(g, dtype=np.float64)
    if g.shape != s.w.shape:
        raise DimensionMismatch(f"gradient shape {g.shape} != state shape {s.w.shape}")
    if not np.all(np.isfinite(g)):
        raise NonFiniteGradient(f"non-finite gradient component at t={s.t + 1}")
    tau = s.t + 1
    b2 = beta2_at(tau, h)
    w, m, v, tmp = (np.empty_like(g) for _ in range(4))
    adam_rows(s.w, s.m, s.v_vec, g, (b2, 1.0 - b2, eta_at(tau, h)),
              (h.beta1, 1.0 - h.beta1, h.mu), (w, m, v), tmp)
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


class Ring(NamedTuple):
    """The buffers ``run_steps`` owns, step-major: W (SUB + 1, S, d) with the
    sub-block's start iterates in W[0], G, M, V (SUB, S, d) and eta (SUB,)."""

    W: np.ndarray
    G: np.ndarray
    M: np.ndarray
    V: np.ndarray
    eta: np.ndarray


def run_steps(p: Problem, h: HyperParams, T: int, seeds, rule: str = "adam",
              check: bool = False):
    """Advance one row per seed T steps in lockstep: the one stepping loop.

    The loop owns a ``Ring`` of ``SUB`` steps and yields ``(t0, k, ring)``
    after each sub-block: the ring then holds steps t0 + 1 .. t0 + k, step i
    reading W[i] and writing G[i], W[i + 1], M[i], V[i] and its step size
    eta[i].  The next sub-block overwrites it, starting from W[k], so a
    consumer copies or reduces what it needs before it resumes the loop.
    Every row starts at ones with m = 0 and v = h.v, draws
    from the ("trajectory", seeds[r], "oracle") stream, ``BLOCK`` steps at a
    time, and only meets its own data, so it is bitwise a lone run.
    ``rule="sgd"`` steps w - t^(-1/2) g and leaves M unset and V at h.v.
    With ``check``, a non-finite gradient stops the loop at its step with
    NonFiniteGradient.
    """
    if rule not in ("adam", "sgd"):
        raise ValueError(f"unknown update rule {rule!r}")
    adam = rule == "adam"
    S, d = len(seeds), h.dim
    rngs = [rng_stream("trajectory", s, "oracle") for s in seeds]
    G, M = np.empty((SUB, S, d)), np.empty((SUB, S, d))
    ring = Ring(np.empty((SUB + 1, S, d)), G, M, np.full((SUB, S, d), h.v), np.empty(SUB))
    ring.W[0] = 1.0
    # The schedule is broadcast into (SUB, S, d) columns once per sub-block and
    # the constants into (S, d) arrays once per run, so every per-step ufunc
    # runs array by array, into a ring slot or into tmp.  Slot views are bound
    # once per run.
    B2, C2, ETA = (np.empty((SUB, S, d)) for _ in range(3))
    consts = tuple(np.full((S, d), c) for c in (h.beta1, 1.0 - h.beta1, h.mu))
    tmp = np.empty((S, d))
    outs = zip(ring.W[1:], ring.M, ring.V)
    slots = list(zip(ring.W, ring.G, zip(B2, C2, ETA), outs))  # step i: w, g, sched, out
    m, v = np.zeros((S, d)), np.full((S, d), h.v)
    block = None
    for t0 in range(0, T, SUB):
        k = min(SUB, T - t0)
        if t0:
            ring.W[0] = ring.W[SUB]  # only the last sub-block is short
        if t0 % BLOCK == 0:
            block = prefetch_draws(p, min(BLOCK, T - t0), rngs, out=block)
        draws = [None] * k if block is None else block[t0 % BLOCK : t0 % BLOCK + k]
        taus = range(t0 + 1, t0 + k + 1)
        ring.eta[:k] = [eta_at(t, h) for t in taus]
        if adam:
            b2 = np.array([beta2_at(t, h) for t in taus])
            B2[:k] = b2[:, None, None]
            np.subtract(1.0, B2[:k], out=C2[:k])
            ETA[:k] = ring.eta[:k, None, None]
        for i, ((w, g, sched, out), dr) in enumerate(zip(slots, draws)):
            oracle_rows(p, w, dr, g)
            # Python floats: cheaper than a numpy reduction over a few short rows
            if check and not all(map(math.isfinite, g.ravel().tolist())):
                raise NonFiniteGradient(_non_finite_message(g, seeds, t0 + i + 1))
            if adam:
                adam_rows(w, m, v, g, sched, consts, out, tmp)
                _, m, v = out
            else:
                np.multiply((t0 + i + 1) ** -0.5, g, tmp)
                np.subtract(w, tmp, out[0])
        yield t0, k, ring


def run_trajectories(p: Problem, h: HyperParams, T: int, seeds):
    """Run T Adam steps from ones for every seed at once; yield one TheoryTrace
    per seed, in the order of ``seeds``.

    The recording mode of ``run_steps``: each sub-block of its ring is copied
    into the step-major (T+1, S, d) / (T, S, d) trace arrays and the (T,) step
    sizes, which ``build_trace`` reuses, and a non-finite gradient stops the
    run at its step with NonFiniteGradient.  Each trace is bitwise the one a
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
    W[0] = 1.0
    G, M, V = (np.empty((T, S, d)) for _ in range(3))
    eta = np.empty(T)
    for t0, k, ring in run_steps(p, h, T, seeds, check=True):
        steps = slice(t0, t0 + k)
        W[t0 + 1 : t0 + k + 1] = ring.W[1 : k + 1]
        G[steps], M[steps], V[steps], eta[steps] = ring.G[:k], ring.M[:k], ring.V[:k], ring.eta[:k]

    from .instrumentation import build_trace  # deferred: instrumentation imports optimizer

    for r, seed in enumerate(seeds):
        rows = (np.ascontiguousarray(a[:, r]) for a in (W, G, M, V))
        yield build_trace(p, h, *rows, eta, seed=seed)


def _non_finite_message(g, seeds, tau: int) -> str:
    where = f"step {tau}: non-finite gradient component at t={tau}"
    if len(seeds) == 1:
        return where
    r = int(np.argmin(np.isfinite(g).all(axis=1)))
    return f"seed {seeds[r]}, {where}"


def run_trajectory(p: Problem, h: HyperParams, T: int, seed: int):
    """Run T Adam steps on problem ``p`` and return the assembled TheoryTrace:
    the one-seed case of ``run_trajectories``."""
    return next(run_trajectories(p, h, T, [seed]))
