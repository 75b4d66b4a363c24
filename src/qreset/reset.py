"""Full reset pipeline: restoring run, timing, and the work ledger.

Energies are accumulated dimensionlessly in units of ``k_B T`` by
weighting populations with the thermal ratio of the instantaneous
frequency.  The qubit energy is ``x * (p_e - 1/2)`` (symmetric two-level
convention), so work is done only while the frequency moves: during the
two switches and, for a time-varying restoring control, during the
restore stage.  The per-segment work integral is accumulated in closed
form (frequency constant per segment), which keeps the ledger identity
``W - dF = W_ex`` tight to round-off.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .dynamics import IntegrationError, Numerics, QubitState, Trajectory, integrate_restore
from .spectra import ControlBounds, SpectrumModel, coherence_time
from .thermo import LN2, Environment, entropy, equilibrium_population, thermal_ratio

__all__ = [
    "THERMO_LENGTH_CONST",
    "AchievabilityError",
    "IntegrationLimitError",
    "WorkLedger",
    "ResetReport",
    "epsilon_min",
    "run_reset",
    "work_ledger",
    "constant_control_work_approx",
    "thermodynamic_length_bound",
    "report_to_dict",
]

# Constant-rate lower-bound coefficient for the extra work, consumed as a
# given comparison curve: W_TL/(k_B T) = 1.4204 / (T_reset/T1).
THERMO_LENGTH_CONST = 1.4204


class AchievabilityError(ValueError):
    """Requested precision is below the thermal floor of the window."""


class IntegrationLimitError(IntegrationError):
    """The restoring run hit a step or time limit before reaching precision."""

    def __init__(self, message: str, trajectory: Trajectory) -> None:
        super().__init__(message)
        self.trajectory = trajectory


@dataclass(frozen=True)
class WorkLedger:
    """Work decomposition in k_B T units and entropy change in k_B units."""

    W_sw1: float
    W_st: float
    W_sw2: float
    W: float
    dU: float
    dS: float
    dF: float
    W_ex: float


@dataclass(frozen=True)
class ResetReport:
    """Headline outputs of one switch-restore-switch run.

    Times are in microseconds, works in units of ``k_B T`` (the ``_norm``
    fields additionally divide by ln 2), entropy in units of ``k_B``.
    ``T1`` and ``W_TL_norm`` are infinite when the rate vanishes at the
    computation frequency.
    """

    tau_st: float
    T1: float
    tau_st_over_T1: float
    T_reset: float
    W_sw1: float
    W_st: float
    W_sw2: float
    W: float
    dU: float
    dS: float
    dF: float
    W_ex: float
    W_ex_norm: float
    W_TL_norm: float
    epsilon_min: float

    @property
    def t1_infinite(self) -> bool:
        return math.isinf(self.T1)


def epsilon_min(bounds: ControlBounds, env: Environment) -> float:
    """Smallest achievable reset precision: the thermal floor at the top of the window."""
    return equilibrium_population(thermal_ratio(bounds.f_max_ghz, env))


def _require_achievable(bounds: ControlBounds, env: Environment) -> float:
    """``epsilon_min``; raises ``AchievabilityError`` unless epsilon lies above it."""
    eps_floor = epsilon_min(bounds, env)
    if bounds.epsilon <= eps_floor:
        raise AchievabilityError(
            f"epsilon={bounds.epsilon!r} is not achievable: the thermal floor at"
            f" f_max={bounds.f_max_ghz!r} GHz is epsilon_min={eps_floor!r}"
        )
    return eps_floor


def _require_precision(trajectory: Trajectory, what: str) -> None:
    """Raise ``IntegrationLimitError`` unless ``what`` stopped on reaching precision."""
    if trajectory.termination != "precision":
        raise IntegrationLimitError(
            f"{what} terminated by {trajectory.termination!r} at"
            f" t={trajectory.tau_st_us!r} us without reaching precision",
            trajectory,
        )


def work_ledger(
    trajectory: Trajectory, bounds: ControlBounds, env: Environment
) -> WorkLedger:
    """Assemble the work decomposition from a precision-terminated trajectory."""
    if trajectory.n_samples == 0:
        raise ValueError("trajectory has no samples")
    if trajectory.termination != "precision":
        raise ValueError(
            f"work ledger requires a precision-terminated trajectory, got"
            f" {trajectory.termination!r}"
        )
    x_cp = thermal_ratio(bounds.f_cp_ghz, env)
    f, p_e = trajectory.f_ghz, trajectory.p_e
    below = f < 0.0
    if below.any():
        thermal_ratio(float(f[below.argmax()]), env)  # raises for the first negative f
    ratio = env.ratio_per_ghz

    # Exact per-segment restore-stage integral of x * rate * (p_e - p_eq) dt:
    # the frequency is constant on each segment, so it equals -x * dp_e with
    # x = ratio * f. cumsum adds strictly left to right, from a leading +0.0.
    terms = np.zeros(p_e.size)
    np.multiply(f[:-1], ratio, out=terms[1:])
    terms[1:] *= p_e[:-1] - p_e[1:]
    integral = np.cumsum(terms, out=terms)[-1].item()

    pe0, pe_end = p_e[0].item(), p_e[-1].item()
    x0, x_end = ratio * f[0].item(), ratio * f[-1].item()

    w_sw1 = (x0 - x_cp) * (pe0 - 0.5)
    w_st = x_end * (pe_end - 0.5) - x0 * (pe0 - 0.5) + integral
    w_sw2 = (x_cp - x_end) * (pe_end - 0.5)
    w = w_sw1 + w_st + w_sw2
    d_u = x_cp * (pe_end - pe0)
    d_s = entropy(pe0) - entropy(pe_end)
    d_f = d_u - d_s
    w_ex = integral + d_s
    return WorkLedger(
        W_sw1=w_sw1, W_st=w_st, W_sw2=w_sw2, W=w, dU=d_u, dS=d_s, dF=d_f, W_ex=w_ex
    )


def constant_control_work_approx(f_st_ghz: float, env: Environment) -> float:
    """Small-precision extra work under constant control, in k_B T units."""
    if not f_st_ghz > 0.0:
        raise ValueError(f"restoring frequency must be > 0, got {f_st_ghz!r}")
    return 0.5 * thermal_ratio(f_st_ghz, env) - LN2


def thermodynamic_length_bound(t_reset_over_t1: float) -> float:
    """Constant-rate lower bound on the extra work, in k_B T units."""
    if not t_reset_over_t1 > 0.0:
        raise ValueError(
            f"normalized reset time must be > 0, got {t_reset_over_t1!r}"
        )
    return THERMO_LENGTH_CONST / t_reset_over_t1


def run_reset(
    model: SpectrumModel,
    env: Environment,
    bounds: ControlBounds,
    law,
    numerics: Numerics = Numerics(),
) -> tuple[ResetReport, Trajectory]:
    """Run one reset from the maximum-entropy state and assemble the report."""
    eps_floor = _require_achievable(bounds, env)
    trajectory = integrate_restore(
        QubitState(0.5, 0.0, 0.0), law, model, env, bounds, numerics
    )
    _require_precision(trajectory, "restoring run")
    ledger = work_ledger(trajectory, bounds, env)
    t1 = coherence_time(model, bounds, rate_cap=numerics.rate_cap_per_us).t1_us
    tau = trajectory.tau_st_us
    ratio = tau / t1 if math.isfinite(t1) else 0.0
    t_reset = tau + 2.0 * bounds.tau_sw_us
    reset_ratio = t_reset / t1 if math.isfinite(t1) else 0.0
    w_tl_norm = (
        thermodynamic_length_bound(reset_ratio) / LN2 if reset_ratio > 0.0 else math.inf
    )
    report = ResetReport(
        tau_st=tau,
        T1=t1,
        tau_st_over_T1=ratio,
        T_reset=t_reset,
        **asdict(ledger),
        W_ex_norm=ledger.W_ex / LN2,
        W_TL_norm=w_tl_norm,
        epsilon_min=eps_floor,
    )
    return report, trajectory


def report_to_dict(report: ResetReport) -> dict:
    """Flat dict with the documented field names; infinities map to None."""
    out: dict[str, float | None] = {}
    for f in fields(ResetReport):
        value = getattr(report, f.name)
        out[f.name] = None if isinstance(value, float) and math.isinf(value) else value
    return out
