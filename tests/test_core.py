"""Schedule values, the hyperparameter validator, and the coupled exponent band."""

import dataclasses
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from adamabc.core import (
    ConstraintViolation,
    HyperParams,
    alpha1,
    beta2_at,
    eta_at,
    validate_hyperparams,
    with_dim,
)


def h(**kw) -> HyperParams:
    return HyperParams(**kw)


# ---------------------------------------------------------------- validator


@pytest.mark.parametrize(
    "gamma, delta",
    [
        (1.25, 0.25),  # default pair, interior of the band
        (1.0, 0.0),
        (1.5, 0.0),  # delta = 0 relaxation
        (1.999, 0.0),  # just inside the relaxed band
        (2.0, 0.5),  # gamma == 2*delta + 1 exactly
        (1.2, 0.1),  # gamma == 2*delta + 1 up to float rounding
        (1.0, 0.5),
    ],
)
def test_admissible_exponent_pairs(gamma, delta):
    hp = h(gamma=gamma, delta=delta)
    assert validate_hyperparams(hp) is hp


@pytest.mark.parametrize(
    "gamma, delta",
    [
        (2.0, 0.0),  # relaxed band is half-open: gamma < 2 required
        (2.5, 0.0),
        (1.5, 0.1),  # above 2*delta + 1 with delta > 0
        (1.51, 0.25),
        (0.9, 0.0),  # below 1 is always out
        (0.5, 0.5),
    ],
)
def test_inadmissible_exponent_pairs(gamma, delta):
    with pytest.raises(ConstraintViolation, match="gamma"):
        validate_hyperparams(h(gamma=gamma, delta=delta))


@pytest.mark.parametrize(
    "kw, fragment",
    [
        (dict(beta1=1.0), "beta1"),
        (dict(beta1=-0.1), "beta1"),
        (dict(alpha0=0.0), "alpha0"),
        (dict(alpha0=1.0), "alpha0"),
        (dict(delta=0.6), "delta"),
        (dict(delta=-0.01), "delta"),
        (dict(mu=0.0), "mu"),
        (dict(mu=-1e-8), "mu"),
        (dict(v=0.0), "v"),
        (dict(dim=0), "dim"),
        # a NaN fails no range test, and an infinite mu or v passes its one
        (dict(gamma=float("nan")), "gamma must be finite, got nan"),
        (dict(beta1=float("nan")), "beta1 must be finite"),
        (dict(mu=float("inf")), "mu must be finite, got inf"),
        (dict(v=float("inf")), "v must be finite, got inf"),
    ],
)
def test_scalar_bounds_rejected_with_named_message(kw, fragment):
    with pytest.raises(ConstraintViolation, match=fragment):
        validate_hyperparams(h(**kw))


def test_validator_accepts_beta1_zero_and_is_idempotent():
    hp = h(beta1=0.0)
    assert validate_hyperparams(validate_hyperparams(hp)) is hp


def test_hyperparams_frozen():
    hp = h()
    with pytest.raises(dataclasses.FrozenInstanceError):
        hp.gamma = 2.0


def test_with_dim_replaces_only_dim():
    hp = h(beta1=0.3, dim=1)
    hp10 = with_dim(hp, 10)
    assert hp10.dim == 10
    assert hp10.beta1 == 0.3
    assert hp.dim == 1  # original untouched


# ---------------------------------------------------------------- schedule values


def test_beta2_pin_values():
    assert beta2_at(1, h(alpha0=0.5)) == 0.5
    assert beta2_at(1, h(alpha0=0.25)) == 0.75
    assert beta2_at(2, h(gamma=1.0)) == 0.5
    assert beta2_at(100, h(gamma=1.5, delta=0.25)) == 1.0 - 100.0**-1.5
    assert beta2_at(100, h(gamma=1.5, delta=0.25)) == pytest.approx(0.999, abs=1e-12)


def test_eta_pin_values():
    assert eta_at(1, h(delta=0.25)) == 1.0
    assert eta_at(4, h(delta=0.0)) == 0.5
    assert eta_at(10, h(delta=0.5)) == pytest.approx(0.1, abs=1e-15)
    assert eta_at(16, h(delta=0.25)) == pytest.approx(16.0**-0.75, abs=0.0)


@pytest.mark.parametrize("t", [0, -1, -100])
def test_step_index_below_one_rejected(t):
    with pytest.raises(ValueError, match=">= 1"):
        beta2_at(t, h())
    with pytest.raises(ValueError, match=">= 1"):
        eta_at(t, h())


def test_alpha1_is_min_of_alpha0_and_complement():
    assert alpha1(h(alpha0=0.5)) == 0.5
    assert alpha1(h(alpha0=0.2)) == 0.2
    assert alpha1(h(alpha0=0.8)) == pytest.approx(0.2, abs=1e-16)


# ---------------------------------------------------------------- properties


admissible = st.builds(
    lambda b1, a0, d, frac: HyperParams(
        beta1=b1,
        alpha0=a0,
        delta=d,
        gamma=1.0 + frac * (2.0 * d if d > 0 else 0.999),
    ),
    b1=st.floats(0.0, 0.99),
    a0=st.floats(0.01, 0.99),
    d=st.floats(0.0, 0.5),
    frac=st.floats(0.0, 1.0),
)


@given(admissible)
def test_admissible_builds_pass_validation(hp):
    assert validate_hyperparams(hp) is hp


@given(admissible, st.integers(1, 10_000))
def test_schedules_stay_in_range(hp, t):
    b = beta2_at(t, hp)
    e = eta_at(t, hp)
    assert 0.0 < b < 1.0
    assert 0.0 < e <= 1.0
    if t > 1:
        assert e < eta_at(t - 1, hp)  # strictly decreasing
        if t > 2:
            assert b > beta2_at(t - 1, hp)  # strictly increasing past t = 2


@given(admissible, st.integers(2, 100_000))
def test_step_to_decay_coupling(hp, t):
    # eta_t <= eta_{t-1} * sqrt(beta2_t) for every t >= 2: this is the scalar
    # inequality that makes the realized per-coordinate step non-increasing
    # along the recursion (v_t >= beta2_t * v_{t-1} pointwise).
    lhs = eta_at(t, hp)
    rhs = eta_at(t - 1, hp) * math.sqrt(beta2_at(t, hp))
    assert lhs <= rhs * (1.0 + 1e-12)
