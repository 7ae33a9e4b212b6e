"""Hyperparameters and the step-size / second-moment-decay schedules.

The optimizer is Adam without bias correction, driven by two scalar schedules:

* ``beta2_at(t)``  — second-moment decay: 1 − alpha0 at t = 1, then 1 − 1/t**gamma;
* ``eta_at(t)``    — step size 1/t**(1/2 + delta).

Admissible exponents are coupled: delta lies in [0, 1/2] and gamma in
[1, 2*delta + 1] (the power-rate band), except that delta = 0 additionally
admits gamma anywhere in [1, 2) — the slow-step regime whose running-average
rate carries log factors instead of a power.  ``alpha1`` = min(1 − alpha0,
alpha0) is the positive constant that lower-bounds the effective weight the
recursion puts on each squared gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace


class ConstraintViolation(ValueError):
    """A hyperparameter (or hyperparameter combination) is out of range."""


class DimensionMismatch(ValueError):
    """A vector's length does not match the declared dimension."""


@dataclass(frozen=True)
class HyperParams:
    """All schedule and algorithm constants.

    beta1   first-moment (momentum) decay, in [0, 1)
    alpha0  weight on the first squared gradient, in (0, 1) strictly
    gamma   second-moment decay exponent, in [1, 2*delta + 1]
            (delta = 0 also admits gamma in [1, 2), the log-rate band)
    delta   step-size decay offset, in [0, 1/2]
    mu      denominator smoothing term, > 0
    v       initial second-moment fill, > 0
    dim     parameter dimension
    """

    beta1: float = 0.9
    alpha0: float = 0.5
    gamma: float = 1.25
    delta: float = 0.25
    mu: float = 1e-8
    v: float = 1.0
    dim: int = 1


def validate_hyperparams(h: HyperParams) -> HyperParams:
    """Return ``h`` unchanged iff every constraint holds.

    Raises ConstraintViolation naming the violated bound otherwise.
    Idempotent: validating a validated value is a no-op.
    """
    for name in ("beta1", "alpha0", "gamma", "delta", "mu", "v"):
        # a NaN fails no range test below, and an infinite mu or v passes one
        if not math.isfinite(getattr(h, name)):
            raise ConstraintViolation(f"{name} must be finite, got {getattr(h, name)}")
    if not 0.0 <= h.beta1 < 1.0:
        raise ConstraintViolation(f"beta1 must satisfy 0 <= beta1 < 1, got {h.beta1}")
    if not 0.0 < h.alpha0 < 1.0:
        raise ConstraintViolation(
            f"alpha0 must satisfy 0 < alpha0 < 1 strictly, got {h.alpha0}"
        )
    if not 0.0 <= h.delta <= 0.5:
        raise ConstraintViolation(f"delta must satisfy 0 <= delta <= 1/2, got {h.delta}")
    if h.gamma < 1.0:
        raise ConstraintViolation(f"gamma < 1 (got {h.gamma})")
    if h.gamma > 2.0 * h.delta + 1.0 and not (h.delta == 0.0 and h.gamma < 2.0):
        raise ConstraintViolation(
            f"gamma > 2*delta+1 (gamma={h.gamma}, delta={h.delta}); "
            "only delta = 0 relaxes this, to gamma in [1, 2)"
        )
    if not h.mu > 0.0:
        raise ConstraintViolation(f"mu must be > 0, got {h.mu}")
    if not h.v > 0.0:
        raise ConstraintViolation(f"v must be > 0, got {h.v}")
    if not (isinstance(h.dim, int) and h.dim >= 1):
        raise ConstraintViolation(f"dim must be a positive integer, got {h.dim!r}")
    return h


def beta2_at(t: int, h: HyperParams) -> float:
    """Second-moment decay at step t >= 1: 1 − alpha0 at t=1, else 1 − 1/t**gamma.

    Powers are evaluated in double precision (exp(gamma·ln t) under the hood);
    agreement across platforms is at the 1-ulp scale, not bit-exact.
    """
    if t < 1:
        raise ValueError(f"step index must be >= 1, got {t}")
    if t == 1:
        return 1.0 - h.alpha0
    return 1.0 - float(t) ** (-h.gamma)


def eta_at(t: int, h: HyperParams) -> float:
    """Step size 1/t**(1/2 + delta); strictly decreasing in t."""
    if t < 1:
        raise ValueError(f"step index must be >= 1, got {t}")
    return float(t) ** (-(0.5 + h.delta))


def alpha1(h: HyperParams) -> float:
    """min(1 − alpha0, alpha0) — positive for alpha0 in (0,1)."""
    return min(1.0 - h.alpha0, h.alpha0)


def with_dim(h: HyperParams, dim: int) -> HyperParams:
    """Copy of ``h`` with the dimension replaced (convenience for problem binding)."""
    return replace(h, dim=dim)
