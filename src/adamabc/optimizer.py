"""Adam with time-varying second-moment averaging.

The update, per step tau = completed-steps + 1:

    v' = beta2_tau * v + (1 - beta2_tau) * g*g
    m' = beta1 * m + (1 - beta1) * g
    eta_v = eta_tau / (sqrt(v') + mu)        (componentwise)
    w' = w - eta_v * m'

No bias correction anywhere; mu sits outside the square root.  Every run
starts at w_1 = ones with m = 0 and v = h.v.  ``adam_rows`` is the only
implementation, on a state whose moments are stacked as [m; v] with the
gradient as [g; g*g], each (2, rows, d), so one ufunc forms both moments'
products and one their sums; it allocates nothing and hands its rates eta_v
to the caller.  ``run_steps`` is the one stepping loop, on a ring of ``SUB``
steps that it owns; its consumers are the recording of ``run_trajectories``
(``run_trajectory`` is its one-seed case), which copies each sub-block out,
and the seed sweep of ``experiments``, which reduces it and reads its rate
gaps from the ring.  ``adam_step`` keeps states immutable: it never mutates
its inputs, so replaying a step from a saved state reproduces the output
bitwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    DimensionMismatch,
    HyperParams,
    alpha1,
    beta2_at,
    beta2_steps,
    eta_at,
    eta_steps,
    validate_hyperparams,
)
from .problems import NoisyQuadratic, Problem, oracle_draws, oracle_rows, rng_stream, rows_view

#: bytes of oracle draws prefetched per row and block: 256 steps of the d = 10
#: quadratic's noise (80 bytes a step), 2560 of a data problem's row indices
#: (8 bytes a step), so the buffer's size does not grow with the horizon.
#: Blocked draws consume the stream exactly as single draws do, so no byte
#: depends on this size.
BLOCK = 20480

#: steps per sub-block: the length of the ring ``run_steps`` owns; every draw
#: block is a whole number of sub-blocks
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


def adam_rows(w, mv, gg, coefs, rate, out, tmp) -> None:
    """One update of a (rows, d) state whose moments are stacked, allocating
    nothing.

    ``mv`` is the (2, rows, d) stack [m; v].  The stack [g; scratch] comes as
    ``gg = _split(stack)``, the stack with views of its halves, and takes g*g,
    then eta_v' * m', in its scratch half.  ``coefs = (b, c)`` hold
    [beta1; b2] and [1 - beta1; 1 - b2] for the step's b2, and
    ``rate = (eta, mu)``: scalars, or arrays that broadcast and hold the same
    doubles (a product or quotient with such an array is bitwise the scalar
    one).  Four ufuncs form both moments, each product the same IEEE
    operation as in the formula on its own, each sum the same operands.
    Full-shape coefficient arrays keep numpy on its fast loop, and halves
    formed once by the caller spare each step the indexing, which costs
    about a third of a ufunc.
    The new state and its rates are written into
    ``out = (w', _split(mv'), eta_v')``; ``tmp`` is shaped like ``b * mv``.
    mv' may be mv, w' may be w, and eta_v' may be tmp[1] or v'; a caller
    that keeps no new moments may pass m' as w' and v' as eta_v': m' is read
    before w' is written, and the rates take v''s square root in place.  A
    state broadcast from one row, as in the branch step, passes a (2, 1, d)
    mv and tmp against (2, K, d) stacks.
    Gradients are not checked here: callers that take them from outside
    check them first.
    """
    b, c = coefs
    eta, mu = rate
    G, g, scratch = gg
    w_out, (mv_out, m_out, v_out), e_out = out
    np.multiply(g, g, scratch)
    np.multiply(b, mv, tmp)
    np.multiply(c, G, mv_out)
    np.add(tmp, mv_out, mv_out)
    rates(eta, v_out, mu, e_out)
    np.multiply(e_out, m_out, scratch)
    np.subtract(w, scratch, w_out)


def _split(stack):
    """A (2, ...) stack with views of its two halves, as ``adam_rows`` takes it."""
    return stack, stack[0], stack[1]


def _step_coefs(h: HyperParams, b2, ndim: int = 1):
    """A step's stacked coefficients ([beta1; b2], [1 - beta1; 1 - b2]),
    shaped to broadcast against a (2, ...) stack of ``ndim`` more axes."""
    shape = (2,) + (1,) * ndim
    return np.reshape((h.beta1, b2), shape), np.reshape((1.0 - h.beta1, 1.0 - b2), shape)


def adam_step(s: AdamState, g, h: HyperParams) -> AdamState:
    """One update; returns the new state, leaving ``s`` untouched."""
    g = np.asarray(g, dtype=np.float64)
    if g.shape != s.w.shape:
        raise DimensionMismatch(f"gradient shape {g.shape} != state shape {s.w.shape}")
    if not np.all(np.isfinite(g)):
        raise NonFiniteGradient(f"non-finite gradient component at t={s.t + 1}")
    tau = s.t + 1
    w, mv, gg = np.empty_like(g), np.stack((s.m, s.v_vec)), np.stack((g, g))
    tmp = np.empty_like(mv)
    adam_rows(s.w, mv, _split(gg), _step_coefs(h, beta2_at(tau, h)), (eta_at(tau, h), h.mu),
              (w, _split(mv), tmp[1]), tmp)
    for a in (w, mv):
        a.setflags(write=False)
    return AdamState(t=tau, w=w, m=mv[0], v_vec=mv[1])


def prefetch_draws(p: Problem, take: int, rngs, out=None):
    """The next ``take`` oracle draws of every row: ``block[j, r]`` is row r's
    draw for the j-th step, taken from ``rngs[r]`` in stream order.

    The draws live in a seed-major (rows, take, ...) buffer, each row's drawn
    in place by ``oracle_draws``; the block is its step-major view.  Given a
    block this returned earlier as ``out``, the draws go into the first
    ``take`` steps of its buffer, so a loop reuses one buffer for all its
    blocks.  None when the oracle draws nothing (noiseless quadratic).
    """
    buf = None if out is None else out.swapaxes(0, 1)[:, :take]
    for r, rng in enumerate(rngs):
        draws = oracle_draws(p, take, rng, None if buf is None else buf[r])
        if draws is None:
            return None
        if buf is None:  # the first row of a fresh buffer sizes it
            buf = np.empty((len(rngs),) + draws.shape, draws.dtype)
            buf[0] = draws
    return buf.swapaxes(0, 1)


class Ring(NamedTuple):
    """The buffers ``run_steps`` owns, step-major: W and E (SUB + 1, S, d)
    with the sub-block's start iterates in W[0] and their rates eta_{v_t} in
    E[0] (the pre-run rate v / alpha1 before the first step), the moment
    stacks MV (SUB + 1, 2, S, d) with the start moments [m; v] in MV[0], the
    gradient stacks GG (SUB, 2, S, d), whose GG[:, 1] is the update's
    scratch, and eta (SUB,).  G, M and V are views of the stacks, one row per
    step."""

    W: np.ndarray
    GG: np.ndarray
    MV: np.ndarray
    eta: np.ndarray
    E: np.ndarray

    @property
    def G(self) -> np.ndarray:
        return self.GG[:, 0]

    @property
    def M(self) -> np.ndarray:
        return self.MV[1:, 0]

    @property
    def V(self) -> np.ndarray:
        return self.MV[1:, 1]


def _block_steps(p: Problem) -> int:
    """Steps of draws per prefetched block: ``BLOCK`` bytes a row, in whole
    sub-blocks, at least one."""
    per_step = 8 * p.dim if isinstance(p, NoisyQuadratic) else 8  # noise or a row index
    return max(SUB, BLOCK // per_step // SUB * SUB)


def run_steps(p: Problem, h: HyperParams, T: int, seeds, rule: str = "adam",
              check: bool = False):
    """Advance one row per seed T steps in lockstep: the one stepping loop.

    The loop owns a ``Ring`` of ``SUB`` steps and yields ``(t0, k, ring)``
    after each sub-block: the ring then holds steps t0 + 1 .. t0 + k, step i
    reading W[i] and MV[i] and writing G[i], W[i + 1], MV[i + 1] (so M[i] and
    V[i]), its step size eta[i] and its rates E[i + 1], the ones
    ``adam_rows`` forms.  The next sub-block overwrites it, starting from
    W[k], MV[k] and E[k], so a consumer copies or reduces what it needs
    before it resumes the loop.
    Every row starts at ones with m = 0 and v = h.v, draws from the
    ("trajectory", seeds[r], "oracle") stream a block of ``BLOCK`` bytes at a
    time, and only meets its own data, so it is bitwise a lone run.
    Per-run shapes are built once: the draws go into one seed-major
    (S, steps, ...) ``prefetch_draws`` buffer, so its size does not grow with
    T, and each of its sub-blocks is copied into one step-major
    (SUB, S, ...) buffer before its steps; the oracle writes g into GG[i, 0]
    on ``rows_view(p, S)`` (the quadratic's eigenvalues tiled to the rows).
    The coefficients [beta1; beta2_t] and [1 - beta1; 1 - beta2_t] are
    full (SUB, 2, S, d) columns, whose beta2 halves are written once per
    sub-block; mu, ``tmp`` and the slot views are built once per run.
    ``rule="sgd"`` steps w - t^(-1/2) g, leaves M at 0, V at h.v and E at
    v / alpha1.
    With ``check``, a non-finite gradient stops the loop at its step with
    NonFiniteGradient.
    """
    if rule not in ("adam", "sgd"):
        raise ValueError(f"unknown update rule {rule!r}")
    adam = rule == "adam"
    S, d = len(seeds), h.dim
    rngs = [rng_stream("trajectory", s, "oracle") for s in seeds]
    p_rows = rows_view(p, S)
    ring = Ring(np.empty((SUB + 1, S, d)), np.empty((SUB, 2, S, d)),
                np.zeros((SUB + 1, 2, S, d)), np.empty(SUB),
                np.full((SUB + 1, S, d), h.v / alpha1(h)))
    ring.W[0], ring.MV[:, 1] = 1.0, h.v
    # A step reads its step size as a 0-d view, which a ufunc takes about as
    # cheaply as a full array and far more cheaply than a Python float, and its
    # coefficients as full slices: broadcast operands take numpy's slower
    # general loop.  So every per-step ufunc runs array by array, into a ring
    # slot or into tmp.
    B, C = np.empty((SUB, 2, S, d)), np.empty((SUB, 2, S, d))
    B[:, 0], C[:, 0] = h.beta1, 1.0 - h.beta1
    mu, tmp = np.full((S, d), h.mu), np.empty((2, S, d))
    rates_in = [(ring.eta[i, ...], mu) for i in range(SUB)]
    outs = zip(ring.W[1:], map(_split, ring.MV[1:]), ring.E[1:])
    # step i: w, mv, gg, coefs, rate, out
    slots = list(zip(ring.W, ring.MV, map(_split, ring.GG), zip(B, C), rates_in, outs))
    steps = _block_steps(p)
    block = D = None
    draws = [None] * SUB  # each step's draws, as views bound once
    for t0 in range(0, T, SUB):
        k = min(SUB, T - t0)
        if t0:  # only the last sub-block is short
            ring.W[0], ring.MV[0], ring.E[0] = ring.W[SUB], ring.MV[SUB], ring.E[SUB]
        if t0 % steps == 0:
            block = prefetch_draws(p, min(steps, T - t0), rngs, out=block)
        if block is not None:
            # each step then reads one contiguous slab, not S rows strided across
            # the block: the copy costs less than the strided reads
            if D is None:
                D = np.empty((SUB,) + block.shape[1:], block.dtype)
                draws = list(D)
            D[:k] = block[t0 % steps : t0 % steps + k]
        taus = range(t0 + 1, t0 + k + 1)
        ring.eta[:k] = eta_steps(taus, h)
        if adam:
            b2 = np.reshape(beta2_steps(taus, h), (k, 1, 1))
            B[:k, 1], C[:k, 1] = b2, np.subtract(1.0, b2)
        for i, (w, mv, gg, coefs, rate, out), dr in zip(range(k), slots, draws):
            g = oracle_rows(p_rows, w, dr, gg[1])
            # Python floats: cheaper than a numpy reduction over a few short rows
            if check and not all(map(math.isfinite, g.ravel().tolist())):
                raise NonFiniteGradient(_non_finite_message(g, seeds, t0 + i + 1))
            if adam:
                adam_rows(w, mv, gg, coefs, rate, out, tmp)
            else:
                np.multiply((t0 + i + 1) ** -0.5, g, gg[2])
                np.subtract(w, gg[2], out[0])
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
