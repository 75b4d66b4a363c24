"""Unit conventions and thermal-environment functions.

Conventions used throughout the package:

* frequencies are cyclic and measured in GHz (``f = omega / 2 pi``),
* times in microseconds, rates in inverse microseconds,
* energies are dimensionless multiples of ``k_B T`` (obtained by weighting
  populations with the thermal ratio ``hbar omega / k_B T``).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

__all__ = [
    "H_OVER_KB_K_PER_GHZ",
    "RAD_PER_US_PER_GHZ",
    "LN2",
    "Environment",
    "ThermoDomainError",
    "thermal_ratio",
    "equilibrium_population",
    "entropy",
]

# h/k_B expressed in kelvin per GHz of cyclic frequency, so that
# hbar*omega/(k_B*T) = H_OVER_KB_K_PER_GHZ * f[GHz] / T[K].
H_OVER_KB_K_PER_GHZ = 0.04799243

# 1 GHz of cyclic frequency in angular units of 1/us.
RAD_PER_US_PER_GHZ = 2.0e3 * math.pi

LN2 = math.log(2.0)
_FLOAT_MAX = sys.float_info.max  # range checks compare with it: isfinite raises on a huge int


class ThermoDomainError(ValueError):
    """Raised when a thermal function is evaluated outside its domain."""


@dataclass(frozen=True)
class Environment:
    """Thermal environment at a fixed temperature.

    Parameters
    ----------
    temperature_K:
        Environment temperature in kelvin, strictly positive.  Zero is
        rejected so that thermal ratios and equilibrium populations
        stay finite-valued; use a microkelvin-scale proxy for the
        zero-temperature limit.

    ``ratio_per_ghz``, the thermal ratio per GHz of cyclic frequency, is a
    plain attribute set at construction (read at every refresh), so ``replace()``
    sets it anew and ``==`` and ``hash`` ignore it.
    """

    temperature_K: float

    def __post_init__(self) -> None:
        if not 0.0 < self.temperature_K <= _FLOAT_MAX:
            raise ThermoDomainError(
                f"temperature must be finite and > 0, got {self.temperature_K!r}"
            )
        object.__setattr__(self, "ratio_per_ghz", H_OVER_KB_K_PER_GHZ / self.temperature_K)


def thermal_ratio(f_ghz: float, env: Environment) -> float:
    """Return ``x = hbar*omega/(k_B*T)`` for a cyclic frequency in GHz."""
    if f_ghz < 0.0:
        raise ThermoDomainError(f"frequency must be >= 0, got {f_ghz!r}")
    return env.ratio_per_ghz * f_ghz


def equilibrium_population(x: float) -> float:
    """Thermal excited-state population ``p_eq = 1/(e^x + 1)`` for ``x >= 0``.

    Uses the overflow-safe form ``e^-x / (1 + e^-x)``, valid for any
    non-negative argument; underflows cleanly to 0 in the deep quantum
    regime instead of overflowing.
    """
    if x < 0.0:
        raise ThermoDomainError(f"equilibrium population requires x >= 0, got {x!r}")
    e = math.exp(-x)
    return e / (1.0 + e)


def entropy(p_e: float) -> float:
    """Binary entropy ``S/k_B = p ln p + (1-p) ln(1-p)`` (non-positive).

    The endpoint values ``p in {0, 1}`` return exactly 0 by the usual
    limit convention.
    """
    if not 0.0 <= p_e <= 1.0:
        raise ThermoDomainError(f"population must lie in [0, 1], got {p_e!r}")
    if p_e == 0.0 or p_e == 1.0:
        return 0.0
    return p_e * math.log(p_e) + (1.0 - p_e) * math.log1p(-p_e)
