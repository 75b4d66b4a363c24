"""Qubit state evolution under piecewise-constant frequency control.

The population obeys ``dp_e/dt = -rate(f) * (p_e - p_eq(f))`` and the
coherence decays at half the rate while rotating at the (angular) qubit
frequency.  For a frequency held constant over a step the solution is
exact, so the integrator is an exponential stepper: accuracy is limited
only by how often the control is refreshed, never by the stiffness of
the rate (which spans many orders of magnitude across spectra).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Protocol, TextIO

import numpy as np

from .spectra import DEFAULT_GRID_POINTS, DEFAULT_RATE_CAP, Protected, _column_rows
from .spectra import ControlBounds, SpectrumModel, coherence_time, rate_fn, _write_rows
from .thermo import Environment, RAD_PER_US_PER_GHZ, equilibrium_population, thermal_ratio

__all__ = [
    "QubitState",
    "Numerics",
    "Trajectory",
    "DecoherenceFactor",
    "IntegrationError",
    "NoDescentError",
    "InfiniteRateError",
    "integrate_restore",
    "decoherence_factor",
]

_POSITIVITY_TOL = 1.0e-12
MAX_GRID_POINTS = 1_000_000  # the largest scan grid allowed, 250 times the default


class IntegrationError(RuntimeError):
    """Integration failed (limits exceeded or state invariants violated)."""


class NoDescentError(IntegrationError):
    """The control law cannot decrease the population toward the target."""


class InfiniteRateError(IntegrationError):
    """The rate at the control frequency is infinite (an uncapped pole)."""


@dataclass(frozen=True)
class QubitState:
    """Excited population and the real/imaginary coherence of a 2x2 density matrix."""

    p_e: float
    p_r: float = 0.0
    p_i: float = 0.0

    def __post_init__(self) -> None:
        if not -_POSITIVITY_TOL <= self.p_e <= 1.0 + _POSITIVITY_TOL:
            raise ValueError(f"p_e must lie in [0, 1], got {self.p_e!r}")
        if not (math.isfinite(self.p_r) and math.isfinite(self.p_i)):
            raise ValueError(f"coherence must be finite, got ({self.p_r!r}, {self.p_i!r})")
        radius = self.p_r * self.p_r + self.p_i * self.p_i
        if radius > self.p_e * (1.0 - self.p_e) + _POSITIVITY_TOL:
            raise ValueError(
                "coherence violates density-matrix positivity: "
                f"|c|^2={radius!r} > p_e(1-p_e)={self.p_e * (1.0 - self.p_e)!r}"
            )

    @property
    def coherence_abs(self) -> float:
        return math.hypot(self.p_r, self.p_i)


@dataclass(frozen=True)
class Numerics:
    """Integrator and scan settings.

    ``step_log_bound`` caps the per-step decay of ``ln(p_e - p_eq)``;
    ``control_drift_ghz`` caps how far the control may move per step
    (default: 1/16 of the scan-grid resolution).
    """

    grid_points: int = DEFAULT_GRID_POINTS
    step_log_bound: float = 0.05
    rate_cap_per_us: float | None = DEFAULT_RATE_CAP
    control_drift_ghz: float | None = None
    step_limit: int = 10_000_000
    time_limit_t1: float = 1.0e4

    def __post_init__(self) -> None:
        for name in ("step_log_bound", "rate_cap_per_us", "control_drift_ghz", "time_limit_t1"):
            value = getattr(self, name)
            if value is None and name in ("rate_cap_per_us", "control_drift_ghz"):
                continue
            if value is None or not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"numerics.{name} must be finite and > 0, got {value!r}")
        for name in ("grid_points", "step_limit"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"numerics.{name} must be an integer, got {value!r}")
        if not 3 <= self.grid_points <= MAX_GRID_POINTS:
            raise ValueError(
                f"numerics.grid_points must be in [3, {MAX_GRID_POINTS}], got {self.grid_points!r}"
            )
        if not self.step_limit >= 1:
            raise ValueError(f"numerics.step_limit must be >= 1, got {self.step_limit!r}")

    def drift_cap(self, bounds: ControlBounds) -> float:
        if self.control_drift_ghz is not None:
            return self.control_drift_ghz
        span = bounds.f_max_ghz - bounds.f_min_ghz
        return span / (self.grid_points - 1) / 16.0


class ControlRuntime(Protocol):
    """Per-trajectory control state produced by a law's ``bind``.

    ``held_ghz`` is the frequency held for the whole run when the law
    fixes it in advance, and ``None`` otherwise.
    """

    held_ghz: float | None

    def frequency(self, p_e: float, t_us: float, f_anchor: float | None) -> float: ...

    def next_transition_after(self, t_us: float) -> float | None: ...


class ControlLawProtocol(Protocol):
    def bind(
        self,
        model: SpectrumModel,
        env: Environment,
        bounds: ControlBounds,
        numerics: Numerics,
    ) -> ControlRuntime: ...


@dataclass(frozen=True)
class Trajectory:
    """Sampled restoring trajectory.

    Samples are taken at the start of every constant-control segment plus
    one terminal row; the frequency in row k is held on
    ``[t[k], t[k+1])``, and the terminal row repeats the frequency that
    was held into the final time.  Each column is frozen into a read-only
    float array (an ndarray in place): a trajectory's ledger, costate and
    later replays read them.
    """

    t_us: np.ndarray
    f_ghz: np.ndarray
    p_e: np.ndarray
    p_r: np.ndarray
    p_i: np.ndarray
    rate_per_us: np.ndarray
    p_eq: np.ndarray
    tau_st_us: float
    termination: str
    epsilon: float

    def __post_init__(self) -> None:
        for field in fields(self)[:7]:
            column = np.asarray(getattr(self, field.name), dtype=float)
            column.setflags(write=False)
            object.__setattr__(self, field.name, column)

    @property
    def terminal_state(self) -> QubitState:
        return QubitState(float(self.p_e[-1]), float(self.p_r[-1]), float(self.p_i[-1]))

    @property
    def n_samples(self) -> int:
        return int(self.t_us.size)

    def schedule(self) -> tuple[tuple[float, float], ...]:
        """Control breakpoints (t, f) reproducing this trajectory's segments."""
        held = max(self.n_samples - 1, 1)
        return tuple(zip(self.t_us[:held].tolist(), self.f_ghz[:held].tolist()))

    def cumulative_rate_integral(self) -> np.ndarray:
        """Exact accumulated rate ``sum_k rate_k dt_k`` at every sample time."""
        return staircase_integral(self.t_us, self.rate_per_us)

    def to_csv(self, stream: TextIO, schedule: TextIO | None = None) -> None:
        """Write the rows; ``schedule`` gets ``schedule()``'s table from the same text."""
        cols = (self.t_us, self.f_ghz, self.p_e, self.p_r, self.p_i, self.rate_per_us, self.p_eq)
        lead = None if schedule is None else (schedule, max(self.n_samples - 1, 1))
        _write_rows(stream, "t_us,f_GHz,p_e,p_r,p_i,rate_per_us,p_eq", _column_rows(cols), lead)


def staircase_integral(t_us: np.ndarray, rate_per_us: np.ndarray) -> np.ndarray:
    """Cumulative integral of a rate held at ``rate_per_us[k]`` on ``[t_k, t_{k+1})``.

    The executed protocol is piecewise constant, so this staircase sum is
    the exact accumulated rate, and linear interpolation between samples
    is exact inside a segment.
    """
    return np.concatenate([[0.0], np.cumsum(rate_per_us[:-1] * np.diff(t_us))])


def _advance(
    p_e: float,
    p_r: float,
    p_i: float,
    rate: float,
    p_eq: float,
    f_ghz: float,
    dt_us: float,
) -> tuple[float, float, float]:
    """Exact solution of the constant-control equations over one step."""
    decay = math.exp(-rate * dt_us)
    p_e2 = p_eq + (p_e - p_eq) * decay
    amp = math.exp(-0.5 * rate * dt_us)
    theta = RAD_PER_US_PER_GHZ * f_ghz * dt_us
    c, s = math.cos(theta), math.sin(theta)
    p_r2 = amp * (p_r * c + p_i * s)
    p_i2 = amp * (p_i * c - p_r * s)
    return p_e2, p_r2, p_i2


def integrate_restore(
    initial: QubitState,
    law: ControlLawProtocol,
    model: SpectrumModel,
    env: Environment,
    bounds: ControlBounds,
    numerics: Numerics = Numerics(),
    *,
    t_final: float | None = None,
) -> Trajectory:
    """Integrate the restoring dynamics under a control law.

    With ``t_final=None`` the run terminates when the population crosses
    the reset precision ``bounds.epsilon`` (located in closed form within
    the final segment); otherwise it runs open loop up to ``t_final``
    exactly.  That mode serves ``t_final`` callers and is the stepper
    reference that ``tests/helpers.stepper_replay`` checks the closed-form
    replay of ``robustness.Baseline`` against.

    The step size is adapted so that ``ln(p_e - p_eq)`` changes by at
    most ``numerics.step_log_bound`` per step and the control frequency
    moves by at most the drift cap per step.

    With no rate cap, a protected spectrum whose pole lies in the window
    raises ``InfiniteRateError`` before the first step: the rate-seeking
    laws settle on the pole, and a scan sees its infinite rate only if a
    grid point lands exactly on it.
    """
    eps = bounds.epsilon
    precision_mode = t_final is None
    if precision_mode and initial.p_e <= eps:
        raise ValueError(f"initial p_e={initial.p_e!r} must exceed epsilon={eps!r}")
    if (
        numerics.rate_cap_per_us is None
        and isinstance(model, Protected)
        and bounds.f_min_ghz <= model.f_r_ghz <= bounds.f_max_ghz
    ):
        raise InfiniteRateError(
            f"the rate is infinite at the protected pole f_r={model.f_r_ghz!r} GHz,"
            f" inside the control window [{bounds.f_min_ghz!r}, {bounds.f_max_ghz!r}]"
            " GHz, with no rate cap: the state would jump to equilibrium in zero time"
        )

    runtime = law.bind(model, env, bounds, numerics)
    drift_cap = numerics.drift_cap(bounds)
    rate_at = rate_fn(model, numerics.rate_cap_per_us)
    ratio_c = env.ratio_per_ghz
    if precision_mode and runtime.held_ghz is not None:
        floor = equilibrium_population(thermal_ratio(runtime.held_ghz, env))
        if floor >= eps:
            raise NoDescentError(
                f"control holds f={runtime.held_ghz!r} GHz, whose thermal floor"
                f" p_eq={floor!r} is not below epsilon={eps!r}; the precision"
                " target is unreachable"
            )
    # One stop time: the horizon of an open-loop run, else the time limit.
    if precision_mode:
        t1 = coherence_time(model, bounds, rate_cap=numerics.rate_cap_per_us).t1_us
        t_stop = numerics.time_limit_t1 * t1 if math.isfinite(t1) else math.inf
    else:
        t_stop = t_final

    # One sample per row: the seven Trajectory columns, in order.
    samples: list[float] = []
    pe, pr, pi = initial.p_e, initial.p_r, initial.p_i
    t = 0.0
    steps = 0
    dt_drift_hint = math.inf
    f = runtime.frequency(pe, t, None)

    while True:
        rate = rate_at(f)
        if rate == math.inf:
            raise InfiniteRateError(
                f"rate at f={f!r} GHz is infinite with no rate cap: the state"
                " would jump to equilibrium in zero time"
            )
        e = math.exp(-ratio_c * f)
        peq = e / (1.0 + e)
        gap = pe - peq
        samples += (t, f, pe, pr, pi, rate, peq)

        # The horizon outranks the step limit, which outranks the time limit.
        at_stop = t >= t_stop
        if steps >= numerics.step_limit and (precision_mode or not at_stop):
            termination, tau = "step_limit", t
            break
        if at_stop:
            termination, tau = ("time_limit" if precision_mode else "horizon"), t
            break
        if precision_mode and gap <= 0.0:
            raise NoDescentError(
                f"control law chose f={f!r} GHz with p_eq={peq!r} >= p_e={pe!r};"
                " the precision target is unreachable from here"
            )

        t_bp = runtime.next_transition_after(t)
        dt_free = numerics.step_log_bound / rate if rate > 0.0 else math.inf
        dt_free = min(dt_free, dt_drift_hint)

        # Terminal crossing within the upcoming segment, in closed form.
        if precision_mode and rate > 0.0 and peq < eps:
            dt_cross = math.log(gap / (eps - peq)) / rate
            if (
                dt_cross <= dt_free
                and (t_bp is None or t + dt_cross <= t_bp)
                and t + dt_cross <= t_stop
            ):
                _, pr, pi = _advance(pe, pr, pi, rate, peq, f, dt_cross)
                pe = eps
                tau = t + dt_cross
                samples += (tau, f, pe, pr, pi, rate, peq)
                termination = "precision"
                break

        # Pick the step; scheduled transitions and the stop time are landed
        # on exactly and are exempt from drift control.
        dt, snap_to = dt_free, None
        if t_bp is not None and t_bp > t and t_bp - t <= dt:
            dt, snap_to = t_bp - t, t_bp
        if t_stop - t <= dt:
            dt, snap_to = t_stop - t, t_stop
        if not math.isfinite(dt):
            raise NoDescentError(
                f"rate at f={f!r} GHz is zero with no time limit or transition"
                " ahead: the state can never move"
            )
        dt = max(dt, 1.0e-18)

        if snap_to is not None:
            pe, pr, pi = _advance(pe, pr, pi, rate, peq, f, dt)
            t = snap_to
            steps += 1
            # A refresh is anchored at the frequency of the previous segment.
            f = runtime.frequency(pe, t, f)
            continue

        # Free step: shrink it if the control would move too fast.  A move
        # that does not shrink with dt is not step-driven (e.g. a hop
        # across a capped plateau) and is accepted as-is.
        retries = 0
        df_prev = math.inf
        while True:
            pe2, pr2, pi2 = _advance(pe, pr, pi, rate, peq, f, dt)
            f_probe = runtime.frequency(pe2, t + dt, f)
            df = abs(f_probe - f)
            if df <= 2.0 * drift_cap or retries >= 60 or df >= 0.9 * df_prev:
                break
            df_prev = df
            dt *= max(0.25, 0.8 * drift_cap / df)
            retries += 1

        # The accepted probe is the refresh at the new state.
        pe, pr, pi, t, f = pe2, pr2, pi2, t + dt, f_probe
        steps += 1
        dt_floor = 1.0e-3 * (numerics.step_log_bound / rate) if rate > 0.0 else dt
        if df > 0.0:
            dt_drift_hint = max(min(dt * drift_cap / df, dt * 2.0), dt_floor)
        else:
            dt_drift_hint = dt_drift_hint * 2.0

    columns = np.reshape(samples, (-1, 7)).T
    return Trajectory(*columns, tau_st_us=tau, termination=termination, epsilon=eps)


class DecoherenceFactor:
    """Accumulated decoherence suppression ``eta(t) = exp(-int_0^t rate ds)``."""

    def __init__(self, t_us: np.ndarray, cum_rate: np.ndarray) -> None:
        self._t = t_us
        self._cum = cum_rate

    def __call__(self, t_us: float) -> float:
        if t_us <= self._t[0]:
            return 1.0
        if t_us >= self._t[-1]:
            return math.exp(-float(self._cum[-1]))
        return math.exp(-float(np.interp(t_us, self._t, self._cum)))

    @property
    def at_terminal(self) -> float:
        return math.exp(-float(self._cum[-1]))


def decoherence_factor(trajectory: Trajectory) -> DecoherenceFactor:
    """Build ``eta(t)`` from a trajectory's recorded piecewise-constant rates."""
    if trajectory.n_samples == 0:
        raise ValueError("trajectory has no samples")
    return DecoherenceFactor(trajectory.t_us, trajectory.cumulative_rate_integral())
