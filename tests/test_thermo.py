from __future__ import annotations

import math

import mpmath as mp
import pytest
from hypothesis import given, strategies as st

from qreset import (
    Environment,
    ThermoDomainError,
    entropy,
    equilibrium_population,
    thermal_ratio,
)

mp.mp.dps = 40


def test_environment_rejects_nonpositive_temperature():
    with pytest.raises(ThermoDomainError):
        Environment(temperature_K=0.0)
    with pytest.raises(ThermoDomainError):
        Environment(temperature_K=-0.01)


def test_environment_rejects_an_int_beyond_the_float_range():
    # math.isfinite would raise OverflowError on it, not the named error.
    with pytest.raises(ThermoDomainError, match="temperature must be finite and > 0"):
        Environment(10**400)


def test_thermal_ratio_values():
    env = Environment(0.010)
    assert thermal_ratio(0.0, env) == 0.0
    assert thermal_ratio(5.0, env) == pytest.approx(23.996215, rel=1e-12)
    assert thermal_ratio(2.0, env) == pytest.approx(9.598486, rel=1e-12)


def test_thermal_ratio_scaling():
    env1 = Environment(0.010)
    env2 = Environment(0.020)
    assert thermal_ratio(4.0, env1) == pytest.approx(2.0 * thermal_ratio(2.0, env1))
    assert thermal_ratio(4.0, env2) == pytest.approx(0.5 * thermal_ratio(4.0, env1))


def test_thermal_ratio_rejects_negative_frequency():
    with pytest.raises(ThermoDomainError):
        thermal_ratio(-1.0, Environment(0.010))


def test_equilibrium_population_domain():
    with pytest.raises(ThermoDomainError, match="requires x >= 0, got -1.0"):
        equilibrium_population(-1.0)


def test_equilibrium_population_frozen_values():
    assert equilibrium_population(0.0) == 0.5
    env = Environment(0.010)
    assert equilibrium_population(thermal_ratio(2.0, env)) == pytest.approx(
        6.7826754680152955e-05, rel=1e-12
    )
    assert equilibrium_population(thermal_ratio(5.0, env)) == pytest.approx(
        3.7894505042489748e-11, rel=1e-12
    )


def test_equilibrium_population_underflows_cleanly():
    assert equilibrium_population(1e5) == 0.0
    assert equilibrium_population(700.0) >= 0.0


@given(st.floats(min_value=1e-3, max_value=300.0))
def test_equilibrium_population_matches_tanh_form(x):
    expected = float(mp.mpf("0.5") * (1 - mp.tanh(mp.mpf(x) / 2)))
    assert equilibrium_population(x) == pytest.approx(expected, rel=1e-12)


@given(st.floats(min_value=0.0, max_value=300.0), st.floats(min_value=1e-4, max_value=10.0))
def test_equilibrium_population_strictly_decreasing(x, dx):
    assert equilibrium_population(x + dx) < equilibrium_population(x)


def test_entropy_frozen_values():
    assert entropy(0.5) == pytest.approx(-math.log(2.0), rel=1e-15)
    assert entropy(0.0) == 0.0
    assert entropy(1.0) == 0.0
    assert entropy(1e-5) == pytest.approx(-1.2512920464953562e-04, rel=1e-12)


@given(st.floats(min_value=0.0, max_value=1.0))
def test_entropy_symmetry_and_range(p):
    # ``1.0 - p`` alone can round; after this round trip p and q are exact
    # complements (p + q == 1 in floating point).
    q = 1.0 - p
    p = 1.0 - q
    s = entropy(p)
    assert s == pytest.approx(entropy(q), abs=1e-15)
    assert -math.log(2.0) - 1e-15 <= s <= 0.0


def test_entropy_domain():
    with pytest.raises(ThermoDomainError):
        entropy(-1e-9)
    with pytest.raises(ThermoDomainError):
        entropy(1.0 + 1e-9)
