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

Randomness: one documented, versioned algorithm (see RNG_ALGORITHM).  Streams
are keyed by (experiment id, seed, purpose) so that branch sampling, data
generation, and trajectory noise never share or perturb each other's state.
"""

from __future__ import annotations

import hashlib
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


# ---------------------------------------------------------------------------
# factories


def make_noisy_quadratic(eigenvalues, sigma: float, seed: int = 0) -> NoisyQuadratic:
    """f(w) = 1/2 * sum_i lam_i w_i^2, oracle g = grad + N(0, sigma^2 I).

    Certificate: L_f = max lam, f* = 0, A = 0, B = 1, C = sigma^2 * d.  The
    second-moment bound is an identity here (E|g|^2 = |grad|^2 + sigma^2 d),
    so the ABC residual is exactly zero in expectation.
    """
    eigs = np.asarray(eigenvalues, dtype=np.float64).ravel()
    if eigs.size == 0:
        raise EmptySpectrum("need at least one eigenvalue")
    if np.any(eigs <= 0):
        raise ConstraintViolation(f"eigenvalues must be positive, got {eigs}")
    if sigma < 0:
        raise ConstraintViolation(f"sigma must be >= 0, got {sigma}")
    d = eigs.size
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
    both branches are evaluated elementwise without masked gathers.
    """
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def _logistic_loss_raw(rows, labels, reg, w):
    z = rows @ w
    return float(np.mean(np.logaddexp(0.0, -labels * z))) + 0.5 * reg * float(w @ w)


def _logistic_grad_raw(rows, labels, reg, w):
    z = rows @ w
    p = _sigmoid(-labels * z)
    return -(rows.T @ (labels * p)) / rows.shape[0] + reg * w


def _solve_logistic(rows, labels, reg, tol=1e-12, max_iter=200):
    """Damped Newton on the regularized logistic loss; stops at |grad| <= tol."""
    n, d = rows.shape
    w = np.zeros(d)
    f = _logistic_loss_raw(rows, labels, reg, w)
    for _ in range(max_iter):
        g = _logistic_grad_raw(rows, labels, reg, w)
        gn = float(np.linalg.norm(g))
        if gn <= tol:
            return w, gn
        z = rows @ w
        p = _sigmoid(-labels * z)
        dd = p * (1.0 - p)
        H = (rows.T * dd) @ rows / n + reg * np.eye(d)
        step = np.linalg.solve(H, g)
        alpha = 1.0
        while alpha > 1e-8:
            w_new = w - alpha * step
            f_new = _logistic_loss_raw(rows, labels, reg, w_new)
            if f_new <= f:
                break
            alpha *= 0.5
        w, f = w_new, f_new
    g = _logistic_grad_raw(rows, labels, reg, w)
    return w, float(np.linalg.norm(g))


def _logistic_from_data(rows, labels, reg: float, radius: float = 100.0) -> Logistic:
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    labels = np.asarray(labels, dtype=np.float64).ravel()
    n, d = rows.shape
    if labels.shape != (n,) or not np.all(np.abs(labels) == 1.0):
        raise ConstraintViolation("labels must be a length-n vector of +/-1")
    if reg < 0:
        raise ConstraintViolation(f"reg must be >= 0, got {reg}")
    w_star, gn = _solve_logistic(rows, labels, reg)
    if gn > 1e-10:
        raise ConstraintViolation(
            f"logistic solver failed to certify the minimum: |grad| = {gn:.3e} > 1e-10"
        )
    lam_max = float(np.linalg.eigvalsh(rows.T @ rows / n)[-1])
    max_row = float(np.sqrt(np.einsum("ij,ij->i", rows, rows).max()))
    f_star = _logistic_loss_raw(rows, labels, reg, w_star)
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
        return _logistic_loss_raw(p.rows, p.labels, p.reg, w)
    raise TypeError(f"unknown problem type {type(p).__name__}")


def grad(p: Problem, w) -> np.ndarray:
    """Exact analytic gradient of ``loss``."""
    w = _check_dim(p, w)
    if isinstance(p, NoisyQuadratic):
        return p.eigenvalues * w
    if isinstance(p, LeastSquares):
        return p.hess @ w - p.lin
    if isinstance(p, Logistic):
        return _logistic_grad_raw(p.rows, p.labels, p.reg, w)
    raise TypeError(f"unknown problem type {type(p).__name__}")


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
        Z = W @ p.rows.T
        data = np.mean(np.logaddexp(0.0, -p.labels * Z), axis=1)
        return data + 0.5 * p.reg * np.einsum("ij,ij->i", W, W)
    raise TypeError(f"unknown problem type {type(p).__name__}")


def grad_batch(p: Problem, W: np.ndarray) -> np.ndarray:
    """Vectorized ``grad`` over the rows of W -> same shape as W."""
    W = np.asarray(W, dtype=np.float64)
    if W.ndim != 2 or W.shape[1] != p.dim:
        raise DimensionMismatch(f"{p.name}: expected (k, {p.dim}), got {W.shape}")
    if isinstance(p, NoisyQuadratic):
        return W * p.eigenvalues
    if isinstance(p, LeastSquares):
        return W @ p.hess.T - p.lin
    if isinstance(p, Logistic):
        Z = W @ p.rows.T
        P = _sigmoid(-p.labels * Z)
        return -(P * p.labels) @ p.rows / p.rows.shape[0] + p.reg * W
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
        return p.sigma * rng.standard_normal((K, p.dim)) if p.sigma != 0.0 else None
    if isinstance(p, (LeastSquares, Logistic)):
        return rng.integers(0, p.rows.shape[0], size=K)
    raise TypeError(f"unknown problem type {type(p).__name__}")


def oracle_rows(p: Problem, W: np.ndarray, draws) -> np.ndarray:
    """Stochastic gradients at the rows of W (shape (K, dim)) from ``draws``.

    ``draws`` holds one ``oracle_draws`` row per row of W; for the noisy
    quadratic W may also be a single row shared by all draws.  Rowwise dots
    go through one einsum kernel on contiguous (K, dim) operands, so a row
    rounds the same whether it is evaluated alone or stacked with others.
    """
    if isinstance(p, NoisyQuadratic):
        g = p.eigenvalues * W
        return g if draws is None else g + draws
    a = p.rows[draws]
    z = np.einsum("kd,kd->k", a, W)
    if isinstance(p, LeastSquares):
        return a * (z - p.targets[draws])[:, None]
    y = p.labels[draws]
    return -(y * _sigmoid(-y * z))[:, None] * a + p.reg * W


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


def default_suite(data_seed: int = 7) -> list[Problem]:
    """The three-problem verification suite at its standard sizes."""
    return [
        make_noisy_quadratic(np.linspace(1.0, 4.0, 10), sigma=1.0),
        make_least_squares(50, 5, seed=data_seed),
        make_logistic(100, 10, seed=3),
    ]
