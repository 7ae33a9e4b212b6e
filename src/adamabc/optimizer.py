"""Adam with time-varying second-moment averaging.

The update, per step tau = completed-steps + 1:

    v' = beta2_tau * v + (1 - beta2_tau) * g*g
    m' = beta1 * m + (1 - beta1) * g
    eta_v = eta_tau / (sqrt(v') + mu)        (componentwise)
    w' = w - eta_v * m'

No bias correction anywhere; mu sits outside the square root.  Every run
starts at w_1 = ones with m = 0 and v = h.v.  ``adam_rows`` is the only
implementation, and the sub-block is its unit of Python work: it steps a
list of slots in one frame, each step a state stack [w; m; v] whose one
ufunc product with a coefficient column [kappa; beta1; beta2_tau] also
forms the oracle's linear term kappa * w, one call to the oracle's kernel,
and eight ufuncs on the stacks [m; v] and [g; g*g]; it allocates nothing
and hands its rates eta_v to the caller.  ``run_steps`` is the one stepping
loop, on a ring of ``SUB`` steps that it owns, for Adam and SGD on every
problem kind; its consumers are the recording of ``run_trajectories``
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
from .problems import Problem, _frozen, oracle_draws, oracle_kernel, rng_stream

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


@dataclass(frozen=True)
class AdamState:
    """Snapshot after ``t`` completed steps: iterate w, moments m and v_vec."""

    t: int
    w: np.ndarray
    m: np.ndarray
    v_vec: np.ndarray


def synthetic_eta_v0(h: HyperParams) -> np.ndarray:
    """The defined pre-run rate vector eta_{v_0} = (v / alpha1) * ones."""
    return np.full(h.dim, h.v / alpha1(h))


def adam_init(w1, h: HyperParams) -> AdamState:
    """State at t = 0: m = 0 and v_vec = h.v * ones, iterate at w1."""
    w1 = np.asarray(w1, dtype=np.float64)
    if w1.shape != (h.dim,):
        raise DimensionMismatch(f"w1 shape {w1.shape} != ({h.dim},)")
    return AdamState(t=0, w=_frozen(w1), m=_frozen(np.zeros(h.dim)),
                     v_vec=_frozen(np.full(h.dim, h.v)))


def rates(eta, v, mu, out=None):
    """The per-coordinate rates eta_v = eta / (sqrt(v) + mu), written into
    ``out`` when given."""
    r = np.sqrt(v, out)
    np.add(r, mu, r)
    return np.true_divide(eta, r, r)


def adam_rows(oracle, slots, check: bool = False) -> int:
    """Step ``slots`` in order in one Python frame: the only statement of
    the update, allocating nothing.

    Each slot holds one step's views, as ``_slot`` builds them.  A step
    forms, with one ufunc, the product of its coefficient column and its
    state stack [w; m; v]: [kappa * w; beta1 * m; b2 * v], where kappa is
    the oracle's linear coefficient (``problems.Oracle``), or [beta1 * m;
    b2 * v] when there is none.  Its one Python call,
    ``oracle(kw, w, drawn, g)``, then writes the gradient g from kw = kappa
    * w into the slot's gradient stack [g; scratch], and eight ufuncs form

        [m'; v'] = [1 - beta1; 1 - b2] * [g; g*g] + [beta1 * m; b2 * v]
        eta_v' = eta / (sqrt(v') + mu),   w' = w - eta_v' * m'

    each product the same IEEE operation as in the formula on its own, each
    sum the same operands (IEEE addition commutes), the rates ``rates``'s
    three ufuncs inline.  ``eta`` and ``mu`` are scalars, or arrays that
    broadcast and hold the same doubles (a product or quotient with such an
    array is bitwise the scalar one); full-shape coefficients keep numpy on
    its fast loop, and views formed once by the caller spare each step the
    indexing.
    Returns the number of steps taken: every slot's, or with ``check`` the
    index of the first whose gradient is non-finite, which is left
    unstepped.  Gradients are not checked otherwise: callers that take them
    from outside check them first.
    """
    # local names: looked up as np attributes, a 20-row step's ufuncs cost 3% more
    multiply, add, sqrt, divide, subtract = (
        np.multiply, np.add, np.sqrt, np.true_divide, np.subtract)
    for i, (b, x, px, kw, w, drawn, g, sq, c, gg, pmv, mv, m, v, eta, mu, e, w_out) in (
            enumerate(slots)):
        multiply(b, x, px)
        oracle(kw, w, drawn, g)
        # Python floats: cheaper than a numpy reduction over a few short rows
        if check and not all(map(math.isfinite, g.ravel().tolist())):
            return i
        multiply(g, g, sq)
        multiply(c, gg, mv)
        add(pmv, mv, mv)
        sqrt(v, e)
        add(e, mu, e)
        divide(eta, e, e)
        multiply(e, m, sq)
        subtract(w, sq, w_out)
    return len(slots)


def _slot(coefs, x, prod, drawn, gg, rate, out, sq=None) -> tuple:
    """One step's views, as ``adam_rows`` takes them.

    ``x`` is the state stack [w; m; v] and ``prod`` a buffer shaped like it;
    ``coefs = (b, c)`` hold the product's coefficient column, [kappa; beta1;
    b2], or [beta1; b2] without a linear term, and [1 - beta1; 1 - b2];
    ``drawn`` is what the oracle reads for the step; ``gg`` the gradient
    stack [g; scratch]; ``rate = (eta, mu)``.  The step writes
    ``out = (w', [m'; v'], eta_v')``: [m'; v'] may be x's own moments (the
    product has read them), w' may be w, and eta_v' may be the scratch or v'.
    A caller that keeps no new moments may pass m' as w' and v' as eta_v':
    m' is read before w' is written, and the rates take v''s square root in
    place.  ``sq``, gg's scratch half unless given, takes g*g and then
    eta_v' * m'.  A state broadcast from one row, as in the branch step, is
    a (3, 1, d) stack against (2, K, d) gradients.
    """
    b, c = coefs
    w_out, mv, e = out
    lo = len(x) - len(b)
    return (b, x[lo:], prod[lo:], None if lo else prod[0], x[0], drawn, gg[0],
            gg[1] if sq is None else sq, c, gg, prod[1:], mv, mv[0], mv[1], *rate, e, w_out)


def _given(kw, w, drawn, g) -> None:
    """The oracle of a step whose caller wrote its gradient into the slot."""


def _step_given(x, gg, h: HyperParams, tau: int, out) -> None:
    """Step tau of the state stack x = [w; m; v] against the gradient in gg
    = [g; scratch], its caller's: one ``adam_rows`` slot, writing
    ``out = (w', [m'; v'], eta_v')`` as ``_slot`` allows."""
    b2 = beta2_at(tau, h)
    shape = (2,) + (1,) * (x.ndim - 1)  # [beta1; b2] against x's [m; v]
    coefs = np.reshape((h.beta1, b2), shape), np.reshape((1.0 - h.beta1, 1.0 - b2), shape)
    adam_rows(_given, [_slot(coefs, x, np.empty_like(x), None, gg, (eta_at(tau, h), h.mu), out)])


def adam_step(s: AdamState, g, h: HyperParams) -> AdamState:
    """One update; returns the new state, leaving ``s`` untouched."""
    g = np.asarray(g, dtype=np.float64)
    if g.shape != s.w.shape:
        raise DimensionMismatch(f"gradient shape {g.shape} != state shape {s.w.shape}")
    if not np.all(np.isfinite(g)):
        raise NonFiniteGradient(f"non-finite gradient component at t={s.t + 1}")
    tau = s.t + 1
    x, gg = np.stack((s.w, s.m, s.v_vec)), np.stack((g, g))
    _step_given(x, gg, h, tau, (x[0], x[1:], gg[1]))  # the new state over the copy of the old
    x.setflags(write=False)
    return AdamState(t=tau, w=x[0], m=x[1], v_vec=x[2])


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
    """The buffers ``run_steps`` owns, step-major: the state stacks X
    (SUB + 1, 3, S, d), each slot [w; m; v], with the sub-block's start state
    in X[0]; the rates E (SUB + 1, S, d), with the start state's eta_{v_t} in
    E[0] (``synthetic_eta_v0`` before the first step); the gradient
    stacks GG (SUB, 2, S, d), whose GG[:, 1] is the update's scratch; and the
    step sizes eta (SUB,).  W and MV are views of X, a slot per state; G, M
    and V are views of the stacks, one row per step."""

    X: np.ndarray
    GG: np.ndarray
    eta: np.ndarray
    E: np.ndarray

    @property
    def W(self) -> np.ndarray:
        return self.X[:, 0]

    @property
    def MV(self) -> np.ndarray:
        return self.X[:, 1:]

    @property
    def G(self) -> np.ndarray:
        return self.GG[:, 0]

    @property
    def M(self) -> np.ndarray:
        return self.X[1:, 1]

    @property
    def V(self) -> np.ndarray:
        return self.X[1:, 2]


def _block_steps(p: Problem) -> int:
    """Steps of draws per prefetched block: ``BLOCK`` bytes a row, in whole
    sub-blocks, at least one."""
    per_step = 8 if oracle_kernel(p).tables else 8 * p.dim  # a row index or the noise
    return max(SUB, BLOCK // per_step // SUB * SUB)


def run_steps(p: Problem, h: HyperParams, T: int, seeds, rule: str = "adam",
              check: bool = False):
    """Advance one row per seed T steps in lockstep: the one stepping loop.

    The loop owns a ``Ring`` of ``SUB`` steps and yields ``(t0, k, ring)``
    after each sub-block: the ring then holds steps t0 + 1 .. t0 + k, step i
    reading X[i] and writing G[i], X[i + 1] (so W[i + 1], M[i] and V[i]),
    its step size eta[i] and its rates E[i + 1], the ones ``adam_rows``
    forms.  The next sub-block overwrites it, starting from X[k] and E[k],
    so a consumer copies or reduces what it needs before it resumes the loop.
    Every row starts at ones with m = 0 and v = h.v, draws from the
    ("trajectory", seeds[r], "oracle") stream a block of ``BLOCK`` bytes at a
    time, and only meets its own data, so it is bitwise a lone run.
    Per-run shapes are built once: the draws go into one seed-major
    (S, steps, ...) ``prefetch_draws`` buffer, so its size does not grow with
    T.  Before its steps, each sub-block copies its noise into a step-major
    (SUB, S, d) buffer, or gathers the data rows (and least-squares targets)
    its row indices draw into (SUB, S, ...) buffers, so each step reads one
    contiguous slab.  A sub-block is one ``adam_rows`` call over the ring's
    slots, views built once a run: per step one ufunc forms
    [kappa * w; beta1 * m; beta2_t * v] from the full (SUB, 3, S, d)
    coefficient column [kappa; beta1; beta2_t] (the oracle's linear
    coefficient kappa, broadcast into it once a run: the eigenvalues, the
    logistic reg; least squares has none, and its steps multiply the
    [m; v] half only), and one call to the oracle's kernel writes g into
    G[i], in buffers the loop owns.  beta2_t and its complement are written
    once per sub-block.
    ``rule="sgd"`` steps w - t^(-1/2) g on the same loop, as this update with
    beta1 = beta2_t = 0 on a second moment held at 1 (the gradient stacks'
    scratch halves), mu = 0 and eta = t^(-1/2): m' = g, v' = 1 and
    eta_v' = t^(-1/2), with [m'; v'] and eta_v' written to a stack of its
    own, so M stays at 0, V at h.v and E at ``synthetic_eta_v0``.
    With ``check``, a non-finite gradient stops the loop at its step with
    NonFiniteGradient.
    """
    if rule not in ("adam", "sgd"):
        raise ValueError(f"unknown update rule {rule!r}")
    adam = rule == "adam"
    S, d = len(seeds), h.dim
    rngs = [rng_stream("trajectory", s, "oracle") for s in seeds]
    orc = oracle_kernel(p)
    ring = Ring(np.zeros((SUB + 1, 3, S, d)), np.empty((SUB, 2, S, d)), np.empty(SUB),
                np.tile(synthetic_eta_v0(h), (SUB + 1, S, 1)))
    ring.W[0], ring.X[:, 2] = 1.0, h.v
    # A step reads its step size as a 0-d view, which a ufunc takes about as
    # cheaply as a full array and far more cheaply than a Python float, and its
    # coefficients as full slices: broadcast operands take numpy's slower
    # general loop.  So every per-step ufunc runs array by array, into a ring
    # slot or into a buffer built once.
    K, C = np.empty((SUB, 3, S, d)), np.empty((SUB, 2, S, d))
    lo = int(orc.kappa is None)
    if not lo:
        K[:, 0] = orc.kappa
    if adam:
        K[:, 1], C[:, 0] = h.beta1, 1.0 - h.beta1
        lr, mu = ring.eta, np.full((S, d), h.mu)
        outs = [(ring.W[i + 1], ring.MV[i + 1], ring.E[i + 1], None) for i in range(SUB)]
    else:  # SGD, as the docstring says: m' = g, v' = 1 and eta_v' = t^(-1/2)
        K[:, 1:], C[:], ring.GG[:, 1] = 0.0, 1.0, 1.0
        lr, mu, J = np.empty(SUB), np.zeros((S, d)), np.empty((2, S, d))
        outs = [(ring.W[i + 1], J, J[1], J[1]) for i in range(SUB)]
    steps = _block_steps(p)
    block = prefetch_draws(p, min(steps, T), rngs)  # None when the oracle draws nothing
    if orc.tables:
        gathered = [np.empty((SUB, S) + t.shape[1:]) for t in orc.tables]
        drawn = [orc.drawn(*rows) for rows in zip(*gathered)]
    else:  # the quadratic's noise, if it draws any
        D = None if block is None else np.empty((SUB, S, d))
        drawn = [None] * SUB if D is None else list(D)
    P = np.empty((3, S, d))
    slots = [_slot((K[i, lo:], C[i]), ring.X[i], P, drawn[i], ring.GG[i], (lr[i, ...], mu),
                   out[:3], out[3]) for i, out in enumerate(outs)]
    for t0 in range(0, T, SUB):
        k = min(SUB, T - t0)
        if t0:  # only the last sub-block is short
            ring.X[0], ring.E[0] = ring.X[SUB], ring.E[SUB]
            if t0 % steps == 0:
                block = prefetch_draws(p, min(steps, T - t0), rngs, out=block)
        if block is not None:
            these = block[t0 % steps : t0 % steps + k]
            if orc.tables:
                # the default mode="raise" gathers through a buffer; indices
                # drawn in [0, n) leave "clip" nothing to clip
                for table, rows in zip(orc.tables, gathered):
                    np.take(table, these, axis=0, out=rows[:k], mode="clip")
            else:  # the copy costs less than reading S rows strided across the block
                D[:k] = these
        taus = range(t0 + 1, t0 + k + 1)
        ring.eta[:k] = eta_steps(taus, h)
        if adam:
            b2 = np.reshape(beta2_steps(taus, h), (k, 1, 1))
            K[:k, 2], C[:k, 1] = b2, np.subtract(1.0, b2)
        else:
            lr[:k] = [t**-0.5 for t in taus]
        done = adam_rows(orc.kernel, slots[:k], check)
        if done < k:
            raise NonFiniteGradient(_non_finite_message(ring.G[done], seeds, t0 + done + 1))
        yield t0, k, ring


def run_trajectories(p: Problem, h: HyperParams, T: int, seeds):
    """Run T Adam steps from ones for every seed at once; yield one TheoryTrace
    per seed, in the order of ``seeds``.

    The recording mode of ``run_steps``: each sub-block of its ring, start
    state included (so w_1 is the loop's), is copied into the step-major
    (T+1, S, d) / (T, S, d) trace arrays and the (T,) step sizes, which
    ``build_trace`` reuses, and a non-finite gradient stops the run at its
    step with NonFiniteGradient.  Each trace is bitwise the one a lone run
    gives, and is built as it is consumed, on a contiguous copy of its
    seed's rows.

    The trace stores w_1 .. w_{T+1}: the loop that performs T updates ends one
    iterate past the last gradient, and callers pick the convention they need.
    """
    validate_hyperparams(h)
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    seeds = list(seeds)
    S, d = len(seeds), h.dim
    W = np.empty((T + 1, S, d))
    G, M, V = (np.empty((T, S, d)) for _ in range(3))
    eta = np.empty(T)
    for t0, k, ring in run_steps(p, h, T, seeds, check=True):
        steps = slice(t0, t0 + k)
        W[t0 : t0 + k + 1] = ring.W[: k + 1]
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
