"""Stochastic test objectives with machine-certified oracle constants.

Each problem carries a certificate (L_f, f_star, A, B, C) such that

* the gradient of the loss is L_f-Lipschitz,
* the loss is bounded below by f_star,
* the single-draw stochastic gradient g at any point w is unbiased and obeys
  E[|g|^2] <= A*(f(w) - f_star) + B*|grad f(w)|^2 + C.

Three instances cover the interesting regimes: a noisy quadratic (B = 1,
additive Gaussian noise, the tight case), subsampled least squares (A > 0,
multiplicative noise), and regularized logistic regression on synthetic data
(A = B = 0, almost-surely bounded gradients on a documented ball).

Kernels: ``loss_batch``, ``grad_batch`` and ``oracle_rows`` evaluate many
rows at once.  The logistic ones work on ``signed_rows = -y * a``: with
y = +/-1 every sign flip is exact, so folding the labels in moves no bit.
``loss_batch`` and ``grad_batch`` also take (..., k, d) stacks, one gemm or
gemv per (k, d) slab and each row's sums in the same order, so a slab is
bitwise its own 2-D call; ``grad_batch`` runs in a ``grad_workspace`` a
loop may keep for all its calls.
``oracle_rows`` runs each kind's one oracle kernel (``oracle_kernel``): the
gradient from the product kappa * w with the oracle's linear coefficient,
which the stepping loop broadcasts over its rows and forms in the same
ufunc as its moments' decay products, and from the step's draws, which the
loop gathers a sub-block at a time into buffers it owns.  ``oracle_draws``
draws into a caller's buffer.  ``branch_samples`` forms each distinct
gradient at its fixed w once, through ``oracle_rows``, and fills its
(K, dim) result from it ``ROW_CHUNK`` rows at a time, so its memory is the
result plus an m-row table (one row for the quadratic) and one chunk's
row indices.

Randomness: one documented, versioned algorithm (see RNG_ALGORITHM).  Streams
are keyed by (experiment id, seed, purpose) so that branch sampling, data
generation, and trajectory noise never share or perturb each other's state.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .core import ConstraintViolation, DimensionMismatch

# ---------------------------------------------------------------------------
# rng streams


RNG_ALGORITHM = "pcg64/seedseq-keyed-v1"

_PURPOSES = {
    "data": 0,  # synthetic dataset generation inside problem factories
    "oracle": 1,  # the main trajectory's gradient noise
    "branch": 2,  # branched conditional-expectation sampling
    "points": 3,  # random evaluation points for certificate checks
    "misc": 4,
}


def rng_stream(experiment_id: str, seed: int, purpose: str) -> np.random.Generator:
    """Deterministic, disjoint generator keyed by (experiment_id, seed, purpose).

    The key material is: entropy = first 16 bytes of
    sha256("{RNG_ALGORITHM}:{experiment_id}"), spawn_key = (seed, purpose code),
    fed to numpy's SeedSequence over the PCG64 bit generator.  Identical keys
    give identical streams on every platform numpy supports.
    """
    if purpose not in _PURPOSES:
        raise ValueError(f"unknown rng purpose {purpose!r} (known: {sorted(_PURPOSES)})")
    digest = hashlib.sha256(f"{RNG_ALGORITHM}:{experiment_id}".encode()).digest()
    entropy = int.from_bytes(digest[:16], "big")
    ss = np.random.SeedSequence(entropy=entropy, spawn_key=(int(seed), _PURPOSES[purpose]))
    return np.random.Generator(np.random.PCG64(ss))


# ---------------------------------------------------------------------------
# problem types


class EmptySpectrum(ValueError):
    """The quadratic was given no eigenvalues."""


class SingularSystem(ValueError):
    """Normal equations too ill-conditioned to certify a least-squares solution."""


@dataclass(frozen=True)
class ProblemCertificate:
    """Analytically derived constants for one problem instance.

    The description records how each constant was obtained, including any
    domain restriction (e.g. the iterate-norm ball for the logistic bound).
    """

    L_f: float
    f_star: float
    A: float
    B: float
    C: float
    description: str


@dataclass(frozen=True)
class Problem:
    name: str
    dim: int
    certificate: ProblemCertificate


def _frozen(a) -> np.ndarray:
    """A read-only, C-contiguous float64 copy of ``a``: always a copy, so no
    caller's array aliases a problem's or a state's, and none can move it."""
    a = np.array(a, dtype=np.float64, order="C")
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class NoisyQuadratic(Problem):
    eigenvalues: np.ndarray  # (d,), all > 0
    sigma: float


@dataclass(frozen=True)
class LeastSquares(Problem):
    rows: np.ndarray  # (n, d)
    targets: np.ndarray  # (n,)
    w_star: np.ndarray  # (d,) exact normal-equations solution
    hess: np.ndarray  # (d, d) = rows.T @ rows / n
    lin: np.ndarray  # (d,)   = rows.T @ targets / n


@dataclass(frozen=True)
class Logistic(Problem):
    rows: np.ndarray  # (n, d)
    labels: np.ndarray  # (n,) in {-1, +1}
    reg: float
    radius: float  # iterate-norm ball on which the certificate's C is valid
    w_star: np.ndarray
    signed_rows: np.ndarray  # (n, d) = -labels[:, None] * rows: row i . w = -y_i * (a_i . w)


# ---------------------------------------------------------------------------
# factories


def make_noisy_quadratic(eigenvalues, sigma: float) -> NoisyQuadratic:
    """f(w) = 1/2 * sum_i lam_i w_i^2, oracle g = grad + N(0, sigma^2 I).

    Certificate: L_f = max lam, f* = 0, A = 0, B = 1, C = sigma^2 * d.  The
    second-moment bound is an identity here (E|g|^2 = |grad|^2 + sigma^2 d),
    so the ABC residual is exactly zero in expectation.
    """
    eigs = np.asarray(eigenvalues, dtype=np.float64).ravel()
    if eigs.size == 0:
        raise EmptySpectrum("need at least one eigenvalue")
    if not np.all(np.isfinite(eigs)):
        raise ConstraintViolation(f"eigenvalues must be finite, got {eigs[~np.isfinite(eigs)][0]}")
    if np.any(eigs <= 0):
        raise ConstraintViolation(f"eigenvalues must be positive, got {np.sum(eigs <= 0)} of "
                                  f"{eigs.size} <= 0 (smallest {float(eigs.min())!r})")
    if sigma < 0:
        raise ConstraintViolation(f"sigma must be >= 0, got {sigma}")
    d = eigs.size
    # a float product, not sigma ** 2, which raises OverflowError
    if not math.isfinite(float(sigma) * float(sigma) * d):
        raise ConstraintViolation(f"sigma^2 * d must be finite, got sigma = {sigma}, d = {d}")
    cert = ProblemCertificate(
        L_f=float(eigs.max()),
        f_star=0.0,
        A=0.0,
        B=1.0,
        C=float(sigma) ** 2 * d,
        description=(
            "diagonal quadratic: L_f = max eigenvalue (exact Lipschitz constant of "
            "the linear gradient); f* = 0 attained at the origin; additive Gaussian "
            "oracle noise gives E|g|^2 = |grad|^2 + sigma^2*d, i.e. A=0, B=1, "
            "C = sigma^2*d with equality"
        ),
    )
    return NoisyQuadratic(
        name="noisy_quadratic", dim=d, certificate=cert, eigenvalues=_frozen(eigs), sigma=float(sigma)
    )


def _least_squares_from_data(rows, targets) -> LeastSquares:
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    targets = np.asarray(targets, dtype=np.float64).ravel()
    n, d = rows.shape
    if targets.shape != (n,):
        raise DimensionMismatch(f"targets shape {targets.shape} != ({n},)")
    hess = rows.T @ rows / n
    lin = rows.T @ targets / n
    lam = np.linalg.eigvalsh(hess)
    if lam[0] <= 0 or lam[-1] / lam[0] > 1e12:
        cond = lam[-1] / lam[0] if lam[0] > 0 else float("inf")
        raise SingularSystem(
            f"normal equations condition estimate {cond:.3e} exceeds 1e12"
        )
    w_star = np.linalg.solve(hess, lin)
    resid = rows @ w_star - targets
    row_sq = np.einsum("ij,ij->i", rows, rows)
    f_star = 0.5 * float(resid @ resid) / n
    A = 4.0 * float(row_sq.max())
    C = 2.0 * float(np.mean(row_sq * resid**2))
    cert = ProblemCertificate(
        L_f=float(lam[-1]),
        f_star=f_star,
        A=A,
        B=0.0,
        C=C,
        description=(
            "subsampled least squares: L_f = largest eigenvalue of (1/n) sum a_i a_i^T; "
            "f* from the exact normal-equations solution; expected-smoothness constants "
            "A = 4*max_i|a_i|^2, B = 0, C = 2*(1/n) sum_i |a_i|^2 r_i*^2 where r* is the "
            "residual at the solution (so C = 2 * mean per-row gradient energy at w*)"
        ),
    )
    return LeastSquares(
        name="least_squares",
        dim=d,
        certificate=cert,
        rows=_frozen(rows),
        targets=_frozen(targets),
        w_star=_frozen(w_star),
        hess=_frozen(hess),
        lin=_frozen(lin),
    )


def make_least_squares(n: int, d: int, seed: int) -> LeastSquares:
    """Random non-interpolating least squares with one-row subsampling oracle."""
    if not (n >= d >= 1):
        raise ConstraintViolation(f"need n >= d >= 1, got n={n}, d={d}")
    rng = rng_stream(f"make_least_squares(n={n},d={d})", seed, "data")
    rows = rng.standard_normal((n, d))
    w_true = rng.standard_normal(d)
    targets = rows @ w_true + 0.5 * rng.standard_normal(n)
    return _least_squares_from_data(rows, targets)


def _sigmoid(x: np.ndarray, e=None, num=None, pos=None) -> np.ndarray:
    """1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) otherwise.

    exp(-|x|) is the exponential each branch needs and never overflows, so
    both branches are evaluated elementwise without masked gathers.  The
    numerator max(e, x >= 0) is 1 where x >= 0 (there e <= 1) and e elsewhere
    (NaN stays NaN); the denominator is formed in e's own buffer.  The buffers
    ``e``, ``num`` (returned) and the sign mask ``pos`` are fresh when None;
    ``e`` may be x itself, whose signs are read first, as in the exact
    gradient and the oracle's kernel.
    """
    pos = np.greater_equal(x, 0, out=pos)
    e = np.abs(x, out=e)
    np.negative(e, out=e)
    np.exp(e, out=e)
    num = np.maximum(e, pos, out=num)
    e += 1.0
    num /= e
    return num


def _logistic_loss(signed_rows, reg, W):
    """Regularized logistic loss at the rows of W, (k, d) or a stack
    (..., k, d), on ``signed_rows``."""
    data = np.mean(np.logaddexp(0.0, W @ signed_rows.T), axis=-1)
    return data + 0.5 * reg * np.einsum("...ij,...ij->...i", W, W)


def _logistic_workspace(n: int, lead, d: int) -> tuple:
    """Fresh buffers for ``_logistic_grad`` on n rows at W of shape lead + (d,):
    logits, numerators and sign mask shaped lead + (n,), output and a
    temporary shaped like W."""
    z, w = (*lead, n), (*lead, d)
    return np.empty(z), np.empty(z), np.empty(z, bool), np.empty(w), np.empty(w)


def _logistic_grad(signed_rows, reg, W, ws):
    """Its gradient at the rows of W, (k, d) or a stack (..., k, d), formed in
    the ``_logistic_workspace`` ws and returned in its output buffer:
    (sigmoid(W @ signed_rows.T) @ signed_rows) / n + reg * W."""
    n = signed_rows.shape[0]
    Z, P, pos, out, tmp = ws
    _sigmoid(np.matmul(W, signed_rows.T, out=Z), Z, P, pos)
    np.true_divide(np.matmul(P, signed_rows, out=out), n, out=out)
    return np.add(out, np.multiply(reg, W, out=tmp), out=out)


def _solve_logistic(signed_rows, reg):
    """Damped Newton on the problem's own loss and gradient kernels, with w
    as one (1, d) row; stops at |grad| <= 1e-12."""
    n, d = signed_rows.shape
    w, ws = np.zeros((1, d)), _logistic_workspace(n, (1,), d)
    f = _logistic_loss(signed_rows, reg, w)[0]
    for _ in range(200):
        g = _logistic_grad(signed_rows, reg, w, ws)[0]
        gn = float(np.linalg.norm(g))
        if gn <= 1e-12:
            return w[0], gn
        p = _sigmoid(w @ signed_rows.T)[0]
        H = (signed_rows.T * (p * (1.0 - p))) @ signed_rows / n + reg * np.eye(d)
        try:
            step = np.linalg.solve(H, g)
        except np.linalg.LinAlgError as e:  # e.g. one row and reg = 0
            raise ConstraintViolation("logistic solver failed to certify the minimum: "
                                      "singular Newton system") from e
        # near w* the predicted decrease g.step / 2 falls below the rounding of
        # f, where comparing values of f judges nothing: take the full step
        tiny = g @ step < 1e-14 * f
        alpha = 1.0
        while alpha > 1e-8:
            w_new = w - alpha * step
            f_new = _logistic_loss(signed_rows, reg, w_new)[0]
            if f_new <= f or tiny:
                break
            alpha *= 0.5
        w, f = w_new, f_new
    return w[0], float(np.linalg.norm(_logistic_grad(signed_rows, reg, w, ws)))


def _logistic_from_data(rows, labels, reg: float, radius: float = 100.0) -> Logistic:
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    labels = np.asarray(labels, dtype=np.float64).ravel()
    n, d = rows.shape
    if labels.shape != (n,) or not np.all(np.abs(labels) == 1.0):
        raise ConstraintViolation("labels must be a length-n vector of +/-1")
    if not (math.isfinite(reg) and reg >= 0):
        raise ConstraintViolation(f"reg must be finite and >= 0, got {reg}")
    max_row = float(np.sqrt(np.einsum("ij,ij->i", rows, rows).max()))
    bound = max_row + reg * radius
    # a float product, not bound ** 2, which raises OverflowError
    if not math.isfinite(bound * bound):
        raise ConstraintViolation("C = (max_i|a_i| + reg*R)^2 must be finite, "
                                  f"got reg = {reg}")
    signed_rows = -labels[:, None] * rows
    w_star, gn = _solve_logistic(signed_rows, reg)
    if not gn <= 1e-10:  # a NaN norm certifies nothing
        raise ConstraintViolation(
            f"logistic solver failed to certify the minimum: |grad| = {gn:.3e} > 1e-10"
        )
    w_norm = float(np.linalg.norm(w_star))
    if w_norm > radius:  # e.g. separable data without reg: the infimum is not attained
        raise ConstraintViolation(
            f"logistic minimizer |w*| = {w_norm:.4g} lies outside the certified ball R = {radius:g}"
        )
    lam_max = float(np.linalg.eigvalsh(rows.T @ rows / n)[-1])
    f_star = float(_logistic_loss(signed_rows, reg, w_star[None])[0])
    cert = ProblemCertificate(
        L_f=0.25 * lam_max + reg,
        f_star=f_star,
        A=0.0,
        B=0.0,
        C=bound ** 2,
        description=(
            "regularized logistic regression: L_f = (1/4)*lambda_max((1/n) sum a_i a_i^T) "
            f"+ reg (sigmoid curvature <= 1/4); f* certified by a damped Newton solve to "
            f"gradient norm {gn:.2e} <= 1e-10; per-sample gradient norm <= max_i|a_i| + "
            f"reg*|w| <= {max_row:.6g} + reg*R, so A = B = 0 and "
            f"C = (max_i|a_i| + reg*R)^2 is an almost-sure bound valid on the ball "
            f"|w| <= R = {radius:g} (all suite trajectories and test points stay well inside)"
        ),
    )
    return Logistic(
        name="logistic",
        dim=d,
        certificate=cert,
        rows=_frozen(rows),
        labels=_frozen(labels),
        reg=float(reg),
        radius=float(radius),
        w_star=_frozen(w_star),
        signed_rows=_frozen(signed_rows),
    )


def make_logistic(n: int, d: int, seed: int, reg: float = 0.05) -> Logistic:
    """Synthetic near-separable data with 10% label noise, ridge term reg."""
    if n < 1 or d < 1:
        raise ConstraintViolation(f"need n >= 1 and d >= 1, got n={n}, d={d}")
    rng = rng_stream(f"make_logistic(n={n},d={d})", seed, "data")
    rows = rng.standard_normal((n, d))
    w_true = rng.standard_normal(d)
    nrm = np.linalg.norm(w_true)
    if nrm > 0:
        w_true = w_true * (3.0 / nrm)
    margin = rows @ w_true
    labels = np.where(margin >= 0, 1.0, -1.0)
    flip = rng.random(n) < 0.1
    labels = np.where(flip, -labels, labels)
    return _logistic_from_data(rows, labels, reg)


# ---------------------------------------------------------------------------
# loss / gradient / oracle


def _check_dim(p: Problem, w: np.ndarray) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (p.dim,):
        raise DimensionMismatch(f"{p.name}: expected vector of shape ({p.dim},), got {w.shape}")
    return w


def _check_rows(p: Problem, W: np.ndarray) -> np.ndarray:
    W = np.asarray(W, dtype=np.float64)
    if W.ndim < 2 or W.shape[-1] != p.dim:
        raise DimensionMismatch(f"{p.name}: expected (..., k, {p.dim}), got {W.shape}")
    return W


def loss(p: Problem, w) -> float:
    """Deterministic objective value f(w)."""
    w = _check_dim(p, w)
    if isinstance(p, NoisyQuadratic):
        return 0.5 * float(p.eigenvalues @ (w * w))
    if isinstance(p, LeastSquares):
        r = p.rows @ w - p.targets
        return 0.5 * float(r @ r) / p.rows.shape[0]
    if isinstance(p, Logistic):
        return float(_logistic_loss(p.signed_rows, p.reg, w[None])[0])
    raise TypeError(f"unknown problem type {type(p).__name__}")


def grad(p: Problem, w) -> np.ndarray:
    """Exact analytic gradient of ``loss``: one row of ``grad_batch``."""
    return grad_batch(p, _check_dim(p, w)[None])[0]


def loss_batch(p: Problem, W: np.ndarray) -> np.ndarray:
    """Vectorized ``loss`` over the rows of W -> W.shape[:-1].

    W is (k, dim) or a stack (..., k, dim), as for ``grad_batch``: each
    (k, dim) slab goes through the same gemm or gemv as a lone 2-D call and
    each row's sums run in the same order, so every slab of a stack is
    bitwise that slab's own ``loss_batch``.
    """
    W = _check_rows(p, W)
    if isinstance(p, NoisyQuadratic):
        return 0.5 * (W * W) @ p.eigenvalues
    if isinstance(p, LeastSquares):
        R = W @ p.rows.T - p.targets
        return 0.5 * np.einsum("...ij,...ij->...i", R, R) / p.rows.shape[0]
    if isinstance(p, Logistic):
        return _logistic_loss(p.signed_rows, p.reg, W)
    raise TypeError(f"unknown problem type {type(p).__name__}")


def grad_workspace(p: Problem, lead: tuple) -> tuple:
    """Fresh buffers for ``grad_batch`` at W of shape lead + (dim,); the
    gradient is written into the one shaped like W."""
    if isinstance(p, Logistic):
        return _logistic_workspace(p.signed_rows.shape[0], lead, p.dim)
    return (np.empty((*lead, p.dim)),)


def grad_batch(p: Problem, W: np.ndarray, ws=None) -> np.ndarray:
    """Vectorized ``grad`` over the rows of W -> same shape as W.

    W is (k, dim) or a stack (..., k, dim).  A stacked matmul issues the same
    gemm per (k, dim) slab as a lone 2-D call, so every slab of a stack is
    bitwise that slab's own ``grad_batch``.  The gradient is formed in ``ws``,
    a ``grad_workspace(p, W.shape[:-1])``, fresh when None; a loop that keeps
    one gets back a view of its output buffer, overwritten by the next call.
    """
    W = _check_rows(p, W)
    if ws is None:
        ws = grad_workspace(p, W.shape[:-1])
    if isinstance(p, NoisyQuadratic):
        return np.multiply(W, p.eigenvalues, out=ws[0])
    if isinstance(p, LeastSquares):
        return np.subtract(np.matmul(W, p.hess.T, out=ws[0]), p.lin, out=ws[0])
    if isinstance(p, Logistic):
        return _logistic_grad(p.signed_rows, p.reg, W, ws)
    raise TypeError(f"unknown problem type {type(p).__name__}")


def oracle_draws(p: Problem, K: int, rng: np.random.Generator, out=None):
    """The randomness of K oracle draws, taken from ``rng`` in stream order.

    The additive noise sigma * N(0, I) of shape (K, dim) for the noisy
    quadratic (None when it is noiseless: no entropy is consumed), row
    indices of shape (K,) for the data problems.  Drawing a block of K
    consumes the stream exactly as K single draws do, so callers may prefetch
    draws for many steps at once.  Written into ``out`` (float64 or int64,
    shaped as above) when given: the noise is drawn there and scaled in place.
    """
    if isinstance(p, NoisyQuadratic):
        if p.sigma == 0.0:
            return None
        noise = rng.standard_normal((K, p.dim), out=out)
        return np.multiply(p.sigma, noise, noise)
    if isinstance(p, (LeastSquares, Logistic)):
        rows = rng.integers(0, p.rows.shape[0], size=K)
        if out is None:
            return rows
        out[...] = rows
        return out
    raise TypeError(f"unknown problem type {type(p).__name__}")


def _quadratic_oracle(kw, W, noise, out):
    """kappa * w + noise, kappa the eigenvalues; without noise kappa * w
    itself, copied, since kw + 0.0 would turn a -0.0 into +0.0."""
    if noise is not None:
        return np.add(kw, noise, out)
    if out is None:
        return kw
    np.copyto(out, kw)
    return out


def _least_squares_oracle(kw, W, drawn, out):
    """(a . w - b) * a for each row's drawn data row a and target b."""
    a, b, z, zcol = drawn
    np.einsum("kd,kd->k", a, W, out=z)
    np.subtract(z, b, z)
    return np.multiply(a, zcol, out)


def _logistic_oracle(kw, W, drawn, out):
    """sigmoid(a . w) * a + reg * w for each row's drawn signed row a, the
    sigmoid ``_sigmoid``'s in the buffers of ``drawn``, z's own among them."""
    a, z, num, pos, ncol = drawn
    _sigmoid(np.einsum("kd,kd->k", a, W, out=z), z, num, pos)
    g = np.multiply(ncol, a, out)
    return np.add(g, kw, g)


def _least_squares_drawn(a, b):
    z = np.empty(a.shape[:-1])
    return a, b, z, z[..., None]


def _logistic_drawn(a):
    z, num = np.empty(a.shape[:-1]), np.empty(a.shape[:-1])
    return a, z, num, np.empty(z.shape, bool), num[..., None]


class Oracle(NamedTuple):
    """A problem's oracle as its kernel takes it.

    ``kernel(kw, W, drawn, out)`` writes the gradients at the (K, dim) rows W
    into ``out`` (fresh when None) and returns them.  ``kw`` is the product
    kappa * W with the oracle's linear coefficient ``kappa``: the
    eigenvalues, the logistic ``reg``, or None for least squares, which has
    none (kw is then None).  IEEE addition commutes, so adding kw after the
    rest of the gradient is bitwise adding it before.  ``drawn`` is the
    quadratic's noise (None when noiseless) or, for the data problems, what
    ``drawn(*gathered)`` makes of the rows of ``tables`` the draws index,
    gathered to one per row of W (the least-squares rows and targets, the
    logistic signed rows): those rows and the kernel's buffers.
    """

    kappa: np.ndarray | float | None
    kernel: Callable
    tables: tuple
    drawn: Callable | None


def oracle_kernel(p: Problem) -> Oracle:
    """The ``Oracle`` of ``p``."""
    if isinstance(p, NoisyQuadratic):
        return Oracle(p.eigenvalues, _quadratic_oracle, (), None)
    if isinstance(p, LeastSquares):
        return Oracle(None, _least_squares_oracle, (p.rows, p.targets), _least_squares_drawn)
    if isinstance(p, Logistic):
        return Oracle(p.reg, _logistic_oracle, (p.signed_rows,), _logistic_drawn)
    raise TypeError(f"unknown problem type {type(p).__name__}")


def oracle_rows(p: Problem, W: np.ndarray, draws, out=None) -> np.ndarray:
    """Stochastic gradients at the rows of W (shape (K, dim)) from ``draws``.

    ``draws`` holds one ``oracle_draws`` row per row of W; for the noisy
    quadratic W may also be a single row shared by all draws.  The gradients
    are written into ``out`` (shaped like W) when given.  The arithmetic is
    the ``Oracle`` kernel's, which the stepping loop runs on the rows its
    ring gathers.  Rowwise dots go through one einsum kernel on contiguous
    (K, dim) operands, so a row rounds the same whether it is evaluated alone
    or stacked with others.
    """
    o = oracle_kernel(p)
    kw = None if o.kappa is None else np.multiply(o.kappa, W)
    if o.tables:
        draws = o.drawn(*(t[draws] for t in o.tables))
    return o.kernel(kw, W, draws, out)


#: rows ``branch_samples`` draws and fills at a time (320 KB at dim 10);
#: the descent check's branches and ``instrumentation._mean_sd``'s deviation
#: pass go in chunks of the same size
ROW_CHUNK = 4096


def branch_samples(p: Problem, w, K: int, rng: np.random.Generator, out=None) -> np.ndarray:
    """K independent oracle draws at fixed w, stacked as (K, dim).

    Each row is distributed exactly like one ``oracle_sample`` draw, and is
    bitwise that draw.  The result is allocated once (or is ``out``, a
    C-contiguous (K, dim) array) and filled ``ROW_CHUNK`` rows at a time.
    At a fixed w the oracle takes few distinct values, and each is formed
    once: the quadratic's noiseless gradient row, to which each chunk's
    noise, drawn straight into its rows, is added; or the data problems' m
    per-row gradients, one table that each chunk's row indices gather from.
    So the memory is the result, the m-row table and one chunk's indices
    whatever K is.  The bytes are those of one K-row block: normal and
    bounded-integer draws use up the stream the same way however they are
    blocked, ``oracle_rows`` works row by row, and IEEE addition commutes.
    """
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    w = _check_dim(p, w)
    G = np.empty((K, p.dim)) if out is None else out
    if isinstance(p, NoisyQuadratic):
        row = oracle_rows(p, w[None], None)
        for s in range(0, K, ROW_CHUNK):
            g = G[s : s + ROW_CHUNK]
            if oracle_draws(p, len(g), rng, g) is None:
                g[...] = row
            else:
                g += row
        return G
    m = p.rows.shape[0]
    table = oracle_rows(p, np.tile(w, (m, 1)), np.arange(m))
    for s in range(0, K, ROW_CHUNK):
        g = G[s : s + ROW_CHUNK]
        # the default mode="raise" gathers through a buffer; indices drawn
        # in [0, m) leave "clip" nothing to clip
        np.take(table, oracle_draws(p, len(g), rng), axis=0, out=g, mode="clip")
    return G


def oracle_sample(p: Problem, w, rng: np.random.Generator) -> np.ndarray:
    """One stochastic gradient with conditional mean grad(p, w): one
    ``oracle_rows`` row, bitwise ``branch_samples(p, w, 1, rng)[0]``."""
    w = _check_dim(p, w)
    return oracle_rows(p, w[None], oracle_draws(p, 1, rng))[0]


def default_suite() -> list[Problem]:
    """The three-problem verification suite at its standard sizes."""
    return [
        make_noisy_quadratic(np.linspace(1.0, 4.0, 10), sigma=1.0),
        make_least_squares(50, 5, seed=7),
        make_logistic(100, 10, seed=3),
    ]
