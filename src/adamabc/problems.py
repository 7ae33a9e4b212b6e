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
``grad_batch`` also takes (k, S, d) stacks, one gemm per (S, d) slab.
``oracle_rows`` writes into a caller's slot when given one, as the stepping
loop's ring does.

Randomness: one documented, versioned algorithm (see RNG_ALGORITHM).  Streams
are keyed by (experiment id, seed, purpose) so that branch sampling, data
generation, and trajectory noise never share or perturb each other's state.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

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


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(np.asarray(a, dtype=np.float64))
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


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) otherwise.

    exp(-|x|) is the exponential each branch needs and never overflows, so
    both branches are evaluated elementwise without masked gathers.  The
    numerator max(e, x >= 0) is 1 where x >= 0 (there e <= 1) and e elsewhere
    (NaN stays NaN); the denominator is formed in e's own buffer.
    """
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    num = np.maximum(e, x >= 0)
    e += 1.0
    num /= e
    return num


def _logistic_loss(signed_rows, reg, W):
    """Regularized logistic loss at the rows of W (k, d), on ``signed_rows``."""
    data = np.mean(np.logaddexp(0.0, W @ signed_rows.T), axis=1)
    return data + 0.5 * reg * np.einsum("ij,ij->i", W, W)


def _logistic_grad(signed_rows, reg, W):
    """Its gradient at the rows of W, (k, d) or a stack (..., k, d)."""
    P = _sigmoid(W @ signed_rows.T)
    return P @ signed_rows / signed_rows.shape[0] + reg * W


def _solve_logistic(signed_rows, reg):
    """Damped Newton on the problem's own loss and gradient kernels, with w
    as one (1, d) row; stops at |grad| <= 1e-12."""
    n, d = signed_rows.shape
    w = np.zeros((1, d))
    f = _logistic_loss(signed_rows, reg, w)[0]
    for _ in range(200):
        g = _logistic_grad(signed_rows, reg, w)[0]
        gn = float(np.linalg.norm(g))
        if gn <= 1e-12:
            return w[0], gn
        p = _sigmoid(w @ signed_rows.T)[0]
        H = (signed_rows.T * (p * (1.0 - p))) @ signed_rows / n + reg * np.eye(d)
        step = np.linalg.solve(H, g)
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
    return w[0], float(np.linalg.norm(_logistic_grad(signed_rows, reg, w)))


def _logistic_from_data(rows, labels, reg: float, radius: float = 100.0) -> Logistic:
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    labels = np.asarray(labels, dtype=np.float64).ravel()
    n, d = rows.shape
    if labels.shape != (n,) or not np.all(np.abs(labels) == 1.0):
        raise ConstraintViolation("labels must be a length-n vector of +/-1")
    if not (math.isfinite(reg) and reg >= 0):
        raise ConstraintViolation(f"reg must be finite and >= 0, got {reg}")
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
    max_row = float(np.sqrt(np.einsum("ij,ij->i", rows, rows).max()))
    f_star = float(_logistic_loss(signed_rows, reg, w_star[None])[0])
    cert = ProblemCertificate(
        L_f=0.25 * lam_max + reg,
        f_star=f_star,
        A=0.0,
        B=0.0,
        C=(max_row + reg * radius) ** 2,
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
    """Vectorized ``loss`` over the rows of W (shape (k, dim)) -> (k,)."""
    W = np.asarray(W, dtype=np.float64)
    if W.ndim != 2 or W.shape[1] != p.dim:
        raise DimensionMismatch(f"{p.name}: expected (k, {p.dim}), got {W.shape}")
    if isinstance(p, NoisyQuadratic):
        return 0.5 * (W * W) @ p.eigenvalues
    if isinstance(p, LeastSquares):
        R = W @ p.rows.T - p.targets
        return 0.5 * np.einsum("ij,ij->i", R, R) / p.rows.shape[0]
    if isinstance(p, Logistic):
        return _logistic_loss(p.signed_rows, p.reg, W)
    raise TypeError(f"unknown problem type {type(p).__name__}")


def grad_batch(p: Problem, W: np.ndarray) -> np.ndarray:
    """Vectorized ``grad`` over the rows of W -> same shape as W.

    W is (k, dim) or a stack (..., k, dim).  A stacked matmul issues the same
    gemm per (k, dim) slab as a lone 2-D call, so every slab of a stack is
    bitwise that slab's own ``grad_batch``.
    """
    W = np.asarray(W, dtype=np.float64)
    if W.ndim < 2 or W.shape[-1] != p.dim:
        raise DimensionMismatch(f"{p.name}: expected (..., k, {p.dim}), got {W.shape}")
    if isinstance(p, NoisyQuadratic):
        return W * p.eigenvalues
    if isinstance(p, LeastSquares):
        return W @ p.hess.T - p.lin
    if isinstance(p, Logistic):
        return _logistic_grad(p.signed_rows, p.reg, W)
    raise TypeError(f"unknown problem type {type(p).__name__}")


def oracle_draws(p: Problem, K: int, rng: np.random.Generator):
    """The randomness of K oracle draws, taken from ``rng`` in stream order.

    The additive noise sigma * N(0, I) of shape (K, dim) for the noisy
    quadratic (None when it is noiseless: no entropy is consumed), row
    indices of shape (K,) for the data problems.  Drawing a block of K
    consumes the stream exactly as K single draws do, so callers may prefetch
    draws for many steps at once.
    """
    if isinstance(p, NoisyQuadratic):
        if p.sigma == 0.0:
            return None
        noise = rng.standard_normal((K, p.dim))
        return np.multiply(p.sigma, noise, noise)
    if isinstance(p, (LeastSquares, Logistic)):
        return rng.integers(0, p.rows.shape[0], size=K)
    raise TypeError(f"unknown problem type {type(p).__name__}")


def oracle_rows(p: Problem, W: np.ndarray, draws, out=None) -> np.ndarray:
    """Stochastic gradients at the rows of W (shape (K, dim)) from ``draws``.

    ``draws`` holds one ``oracle_draws`` row per row of W; for the noisy
    quadratic W may also be a single row shared by all draws.  The gradients
    are written into ``out`` (shaped like W) when given; the quadratic's
    ``eig * W + draws`` then allocates nothing.  Rowwise dots go through one
    einsum kernel on contiguous (K, dim) operands, so a row rounds the same
    whether it is evaluated alone or stacked with others.
    """
    if isinstance(p, NoisyQuadratic):
        g = np.multiply(p.eigenvalues, W, out)
        return g if draws is None else np.add(g, draws, out)
    if isinstance(p, LeastSquares):
        a = p.rows[draws]
        return np.multiply(a, (np.einsum("kd,kd->k", a, W) - p.targets[draws])[:, None], out)
    a = p.signed_rows[draws]
    g = np.multiply(_sigmoid(np.einsum("kd,kd->k", a, W))[:, None], a, out)
    g += p.reg * W
    return g


def branch_samples(p: Problem, w, K: int, rng: np.random.Generator) -> np.ndarray:
    """K independent oracle draws at fixed w, stacked as (K, dim).

    Each row is distributed exactly like one ``oracle_sample`` draw; drawing a
    batch consumes the stream in the same order as K single draws.
    """
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    w = _check_dim(p, w)
    draws = oracle_draws(p, K, rng)
    if isinstance(p, NoisyQuadratic) and draws is not None:
        # additive noise: one gradient row broadcasts over the K draws
        return oracle_rows(p, w[None], draws)
    return oracle_rows(p, np.tile(w, (K, 1)), draws)


def oracle_sample(p: Problem, w, rng: np.random.Generator) -> np.ndarray:
    """One stochastic gradient with conditional mean grad(p, w)."""
    return branch_samples(p, w, 1, rng)[0]


def default_suite() -> list[Problem]:
    """The three-problem verification suite at its standard sizes."""
    return [
        make_noisy_quadratic(np.linspace(1.0, 4.0, 10), sigma=1.0),
        make_least_squares(50, 5, seed=7),
        make_logistic(100, 10, seed=3),
    ]
