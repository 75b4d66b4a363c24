"""Open-loop robustness of a recorded reset protocol.

A baseline optimal run is recorded once; deviated initial states or
control times are then propagated under the *unmodified* schedule, as an
experiment without feedback would.  The schedule is piecewise constant,
so the propagation is done in closed form: a ``Baseline`` composes the
exact segment maps once, from the recorded rows themselves, so the
replay holds exactly the frequency, rate and equilibrium population the
run held.  A deviated control time needs one ``searchsorted`` plus one
partial segment (past the recorded end, the last frequency is held).

Initial-state errors are suppressed by the accumulated decoherence
factor (populations by eta, coherences by sqrt(eta), since coherences
decay at half the population rate), and the final state is scored with
the two-level Uhlmann fidelity against the reset target diag(1-eps, eps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TextIO

import numpy as np

from .dynamics import (
    Numerics,
    QubitState,
    Trajectory,
    _advance,
    decoherence_factor,
    integrate_restore,
    staircase_integral,
)
from .reset import _require_achievable, _require_precision
from .spectra import ControlBounds, SpectrumModel, _column_rows, _write_rows
from .thermo import Environment, RAD_PER_US_PER_GHZ

__all__ = [
    "PopulationDeviation",
    "CoherenceDeviation",
    "ControlTimeDeviation",
    "DeviationSpec",
    "DeviationResult",
    "Baseline",
    "make_baseline",
    "run_deviation",
    "fidelity",
    "SensitivityReport",
    "sensitivity_report",
    "SweepCurve",
    "fidelity_sweep",
]


@dataclass(frozen=True)
class PopulationDeviation:
    """Initial state diag(p, 1-p) instead of the maximum-entropy p=1/2."""

    p: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"population must lie in [0, 1], got {self.p!r}")


@dataclass(frozen=True)
class CoherenceDeviation:
    """Initial coherence of magnitude |c| <= 1/2 on top of the p=1/2 state."""

    c_abs: float
    c_phase: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.c_abs <= 0.5:
            raise ValueError(
                f"|c| must lie in [0, 0.5] for a positive state, got {self.c_abs!r}"
            )
        if not math.isfinite(self.c_phase):
            raise ValueError(f"coherence phase must be finite, got {self.c_phase!r}")


@dataclass(frozen=True)
class ControlTimeDeviation:
    """Run the recorded schedule for tau + delta_tau instead of tau."""

    delta_tau_us: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.delta_tau_us):
            raise ValueError(f"delta_tau must be finite, got {self.delta_tau_us!r}")


DeviationSpec = PopulationDeviation | CoherenceDeviation | ControlTimeDeviation


@dataclass(frozen=True)
class DeviationResult:
    final_state: QubitState
    fidelity: float
    trajectory: Trajectory


class Baseline:
    """A recorded optimal run, replayed open loop from its own rows.

    Rows ``0..n-2`` of the trajectory are the segments the run held, and
    their exact constant-control maps are composed once, here.  On segment
    k the population map ``p -> p_eq_k + (p - p_eq_k) d_k``,
    ``d_k = exp(-rate_k dt_k)``, is affine.  With
    ``Lambda_k = sum_{j<k} rate_j dt_j`` and
    ``Theta_k = sum_{j<k} 2 pi f_j dt_j``, the state at breakpoint k reached
    from ``(p0, c0)`` at t=0 is ``p_e = exp(-Lambda_k) p0 + B_k`` and
    ``c = c0 exp(-Lambda_k / 2 - i Theta_k)``, where ``B_k`` is the
    population reached from p0=0.
    """

    def __init__(self, trajectory: Trajectory) -> None:
        self.trajectory = trajectory
        held = slice(0, max(trajectory.n_samples - 1, 1))
        self._t_us = trajectory.t_us[held]
        self._f_ghz = trajectory.f_ghz[held]
        self._rate_per_us = trajectory.rate_per_us[held]
        self._p_eq = trajectory.p_eq[held]

        lam = staircase_integral(self._t_us, self._rate_per_us)
        self._decay = np.exp(-lam)
        self._amp = np.exp(-0.5 * lam)
        # ~1e4 segments sum to ~1e4 rad, which np.cumsum gets wrong by ~1e-8 rad:
        # TwoSum recovers each addition's rounding error, and their sum is added.
        turn = RAD_PER_US_PER_GHZ * self._f_ghz[:-1] * np.diff(self._t_us)
        total = np.cumsum(turn)
        before = np.append(0.0, total)[:-1]
        added = total - before
        error = (before - (total - added)) + (turn - added)
        theta = np.append(0.0, total + np.cumsum(error))
        self._cos = np.cos(theta)
        self._sin = np.sin(theta)
        segment_decay = np.exp(-self._rate_per_us[:-1] * np.diff(self._t_us))
        offset = [0.0]
        for p_eq, d in zip(self._p_eq[:-1].tolist(), segment_decay.tolist()):
            offset.append(p_eq + (offset[-1] - p_eq) * d)
        self._offset = np.array(offset)

    @property
    def tau_st_us(self) -> float:
        return self.trajectory.tau_st_us

    def propagate(self, initial: QubitState, t_final_us: float) -> Trajectory:
        """Exact open-loop trajectory from ``initial`` up to ``t_final_us``.

        Rows are the breakpoints before ``t_final_us`` plus a terminal row,
        which holds the frequency in force at ``t_final_us``.
        """
        if not (math.isfinite(t_final_us) and t_final_us >= 0.0):
            raise ValueError(f"t_final_us must be finite and >= 0, got {t_final_us!r}")
        rows = int(np.searchsorted(self._t_us, t_final_us, side="left"))
        k = int(np.searchsorted(self._t_us, t_final_us, side="right")) - 1
        p0, r0, i0 = initial.p_e, initial.p_r, initial.p_i
        p_e = self._decay[: k + 1] * p0 + self._offset[: k + 1]
        amp, cos, sin = self._amp[: k + 1], self._cos[: k + 1], self._sin[: k + 1]
        p_r = amp * (r0 * cos + i0 * sin)
        p_i = amp * (i0 * cos - r0 * sin)
        rate, p_eq, f = float(self._rate_per_us[k]), float(self._p_eq[k]), float(self._f_ghz[k])
        dt = t_final_us - float(self._t_us[k])
        end = _advance(float(p_e[k]), float(p_r[k]), float(p_i[k]), rate, p_eq, f, dt)
        held = (self._t_us, self._f_ghz, p_e, p_r, p_i, self._rate_per_us, self._p_eq)
        terminal = (t_final_us, f, *end, rate, p_eq)
        columns = (np.append(col[:rows], last) for col, last in zip(held, terminal))
        return Trajectory(
            *columns, tau_st_us=t_final_us, termination="horizon", epsilon=self.trajectory.epsilon
        )


def make_baseline(
    model: SpectrumModel,
    env: Environment,
    bounds: ControlBounds,
    law,
    numerics: Numerics = Numerics(),
) -> Baseline:
    _require_achievable(bounds, env)
    trajectory = integrate_restore(
        QubitState(0.5, 0.0, 0.0), law, model, env, bounds, numerics
    )
    _require_precision(trajectory, "baseline run")
    return Baseline(trajectory)


def fidelity(state: QubitState, epsilon: float) -> float:
    """Uhlmann fidelity of a qubit state against the target diag(1-eps, eps).

    Uses the two-level closed form
    ``F = Tr(rho sigma) + 2 sqrt(det rho det sigma)``.
    """
    if not 0.0 < epsilon < 0.5:
        raise ValueError(f"epsilon must lie in (0, 0.5), got {epsilon!r}")
    p = state.p_e
    det_rho = p * (1.0 - p) - (state.p_r**2 + state.p_i**2)
    if det_rho < -1.0e-12:
        raise ValueError(f"state violates positivity: det rho = {det_rho!r}")
    det_rho = max(det_rho, 0.0)
    det_sigma = epsilon * (1.0 - epsilon)
    overlap = (1.0 - epsilon) * (1.0 - p) + epsilon * p
    return overlap + 2.0 * math.sqrt(det_rho * det_sigma)


def _initial_state(spec: DeviationSpec, tau_st_us: float) -> tuple[QubitState, float]:
    if isinstance(spec, PopulationDeviation):
        return QubitState(spec.p, 0.0, 0.0), tau_st_us
    if isinstance(spec, CoherenceDeviation):
        return (
            QubitState(
                0.5,
                spec.c_abs * math.cos(spec.c_phase),
                spec.c_abs * math.sin(spec.c_phase),
            ),
            tau_st_us,
        )
    if isinstance(spec, ControlTimeDeviation):
        t_f = tau_st_us + spec.delta_tau_us
        if t_f < 0.0:
            raise ValueError(
                f"delta_tau={spec.delta_tau_us!r} rewinds past the protocol start"
            )
        return QubitState(0.5, 0.0, 0.0), t_f
    raise TypeError(f"unknown deviation spec {spec!r}")


def run_deviation(spec: DeviationSpec, baseline: Baseline) -> DeviationResult:
    """Propagate a deviated initial condition under the recorded schedule (exact)."""
    initial, t_f = _initial_state(spec, baseline.tau_st_us)
    trajectory = baseline.propagate(initial, t_f)
    final = trajectory.terminal_state
    return DeviationResult(
        final_state=final,
        fidelity=fidelity(final, trajectory.epsilon),
        trajectory=trajectory,
    )


# sensitivity_report's central differences: p_e and |c| steps, and dtau / tau.
SENSITIVITY_DP = 1.0e-3
SENSITIVITY_DC = 1.0e-3
SENSITIVITY_DTAU_FRAC = 1.0e-3


@dataclass(frozen=True)
class SensitivityReport:
    """Finite-difference sensitivities against closed-form predictions.

    The population channel is compared against the decoherence factor at
    the final time.  The coherence channel decays at half the population
    rate, so the dynamics predict sqrt(eta); the difference against an
    eta-scaling prediction is reported alongside for reference.
    """

    eta_terminal: float
    population_fd: float
    population_rel_diff: float
    coherence_fd: float
    coherence_sqrt_eta: float
    coherence_rel_diff_vs_sqrt_eta: float
    coherence_rel_diff_vs_eta: float
    control_time_fd: float
    control_time_predicted: float
    control_time_rel_diff: float


def sensitivity_report(baseline: Baseline) -> SensitivityReport:
    tau = baseline.tau_st_us
    eps = baseline.trajectory.epsilon
    eta = decoherence_factor(baseline.trajectory).at_terminal

    hi = run_deviation(PopulationDeviation(0.5 + SENSITIVITY_DP), baseline).final_state.p_e
    lo = run_deviation(PopulationDeviation(0.5 - SENSITIVITY_DP), baseline).final_state.p_e
    pop_fd = (hi - lo) / (2.0 * SENSITIVITY_DP)
    pop_rel = abs(pop_fd - eta) / eta

    c0 = 0.25
    chi = run_deviation(CoherenceDeviation(c0 + SENSITIVITY_DC), baseline).final_state.coherence_abs
    clo = run_deviation(CoherenceDeviation(c0 - SENSITIVITY_DC), baseline).final_state.coherence_abs
    coh_fd = (chi - clo) / (2.0 * SENSITIVITY_DC)
    sqrt_eta = math.sqrt(eta)
    coh_rel_sqrt = abs(coh_fd - sqrt_eta) / sqrt_eta
    coh_rel_eta = abs(coh_fd - eta) / eta

    dtau = SENSITIVITY_DTAU_FRAC * tau
    rate_term = float(baseline.trajectory.rate_per_us[-1])
    pe_plus = run_deviation(ControlTimeDeviation(+dtau), baseline).final_state.p_e
    pe_minus = run_deviation(ControlTimeDeviation(-dtau), baseline).final_state.p_e
    ct_fd = abs(pe_plus - pe_minus) / (2.0 * rate_term * dtau)
    ct_pred = eps  # eps * eta(delta_tau) at delta_tau -> 0
    ct_rel = abs(ct_fd - ct_pred) / ct_pred

    return SensitivityReport(
        eta_terminal=eta,
        population_fd=pop_fd,
        population_rel_diff=pop_rel,
        coherence_fd=coh_fd,
        coherence_sqrt_eta=sqrt_eta,
        coherence_rel_diff_vs_sqrt_eta=coh_rel_sqrt,
        coherence_rel_diff_vs_eta=coh_rel_eta,
        control_time_fd=ct_fd,
        control_time_predicted=ct_pred,
        control_time_rel_diff=ct_rel,
    )


@dataclass(frozen=True)
class SweepCurve:
    axis: str
    deviation: np.ndarray
    fidelity: np.ndarray
    final_p_e: np.ndarray
    final_coh_abs: np.ndarray

    def to_csv(self, stream: TextIO) -> None:
        cols = (self.deviation, self.fidelity, self.final_p_e, self.final_coh_abs)
        _write_rows(stream, "deviation_value,fidelity,final_p_e,final_coh_abs", _column_rows(cols))


_AXES = ("population", "coherence", "control_time")


def fidelity_sweep(baseline: Baseline, axis: str, n_points: int) -> SweepCurve:
    """Sweep one deviation axis over its full admissible range.

    Axes: initial population over [0, 1]; initial coherence magnitude
    over [0, 0.5]; control-time offset over [-tau/2, +5 tau].
    """
    if axis not in _AXES:
        raise ValueError(f"axis must be one of {_AXES}, got {axis!r}")
    if n_points < 2:
        raise ValueError(f"need at least 2 points, got {n_points}")
    tau = baseline.tau_st_us
    if axis == "population":
        values = np.linspace(0.0, 1.0, n_points)
        specs = [PopulationDeviation(float(v)) for v in values]
    elif axis == "coherence":
        values = np.linspace(0.0, 0.5, n_points)
        specs = [CoherenceDeviation(float(v)) for v in values]
    else:
        values = np.linspace(-0.5 * tau, 5.0 * tau, n_points)
        specs = [ControlTimeDeviation(float(v)) for v in values]

    fid = np.empty(n_points)
    pes = np.empty(n_points)
    cohs = np.empty(n_points)
    for k, spec in enumerate(specs):
        result = run_deviation(spec, baseline)
        fid[k] = result.fidelity
        pes[k] = result.final_state.p_e
        cohs[k] = result.final_state.coherence_abs
    return SweepCurve(
        axis=axis, deviation=values, fidelity=fid, final_p_e=pes, final_coh_abs=cohs
    )
