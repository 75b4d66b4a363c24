"""Qubit state evolution under piecewise-constant frequency control.

The population obeys ``dp_e/dt = -rate(f) * (p_e - p_eq(f))``, decoupled
from the coherence.  A reset starts incoherent, so the feedback stepper
carries ``p_e`` only (``robustness.Baseline`` replays coherent states).
For a frequency held constant over a step the solution is exact, so the
integrator is an exponential stepper: accuracy is limited only by how
often the control is refreshed, never by the stiffness of the rate.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, fields
from struct import Struct
from typing import Callable, Protocol, TextIO

import numpy as np

from .spectra import DEFAULT_GRID_POINTS, DEFAULT_RATE_CAP, _write_columns
from .spectra import ControlBounds, SpectrumModel, coherence_time, rate_fn
from .thermo import Environment, _FLOAT_MAX
from .thermo import equilibrium_population, thermal_ratio

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
        if not (-_FLOAT_MAX <= self.p_r <= _FLOAT_MAX and -_FLOAT_MAX <= self.p_i <= _FLOAT_MAX):
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

    ``step_log_bound``, in (0, 1], caps the per-step decay of ``ln(p_e - p_eq)``;
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
            number = isinstance(value, (int, float)) and not isinstance(value, bool)
            if not (number and 0.0 < value <= _FLOAT_MAX):
                raise ValueError(f"numerics.{name} must be finite and > 0, got {value!r}")
        for name in ("grid_points", "step_limit"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"numerics.{name} must be an integer, got {value!r}")
        # Steps of more than one e-fold gave a wrong tau_st with no error.
        if not self.step_log_bound <= 1.0:
            raise ValueError(
                f"numerics.step_log_bound must lie in (0, 1], got {self.step_log_bound!r}"
            )
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
    fixes it in advance, and ``None`` otherwise; ``next_transition_after``
    is ``None`` when the runtime has no scheduled transitions, and else
    returns the first transition strictly after its argument, or ``None``.
    ``rate_cap_per_us`` is the cap its frequencies are chosen under, which
    the stepper's rates take: ``None`` where no cap can bind.
    """

    held_ghz: float | None
    rate_cap_per_us: float | None
    next_transition_after: Callable[[float], float | None] | None

    def frequency(self, p_e: float, t_us: float, f_anchor: float | None) -> float: ...


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
    was held into the final time.  Each column is a read-only float array
    that the ledger, costate and replays read; a stepped run's ``p_r`` and
    ``p_i`` are one shared column of ``+0.0``.
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
        _write_columns(stream, "t_us,f_GHz,p_e,p_r,p_i,rate_per_us,p_eq", cols, lead)


def staircase_integral(t_us: np.ndarray, rate_per_us: np.ndarray) -> np.ndarray:
    """Cumulative integral of a rate held at ``rate_per_us[k]`` on ``[t_k, t_{k+1})``.

    The executed protocol is piecewise constant, so this staircase sum is
    the exact accumulated rate, and linear interpolation between samples
    is exact inside a segment.  The sum is taken in the one buffer it returns.
    """
    out = np.zeros(max(t_us.size, 1))
    np.multiply(rate_per_us[:-1], np.diff(t_us), out=out[1:])
    np.cumsum(out[1:], out=out[1:])
    return out


def integrate_restore(
    initial: QubitState,
    law: ControlLawProtocol,
    model: SpectrumModel,
    env: Environment,
    bounds: ControlBounds,
    numerics: Numerics = Numerics(),
) -> Trajectory:
    """Integrate the restoring dynamics under a control law to the precision.

    The run terminates when the population crosses the reset precision
    ``bounds.epsilon`` (located in closed form within the final segment),
    or at the step or time limit.  It steps ``p_e`` only: a coherent state
    is replayed under a recorded protocol by ``robustness.Baseline``.

    The step size is adapted so that ``ln(p_e - p_eq)`` changes by at
    most ``numerics.step_log_bound`` per step and the control frequency
    moves by at most the drift cap per step.
    """
    eps = bounds.epsilon
    if initial.p_e <= eps:
        raise ValueError(f"initial p_e={initial.p_e!r} must exceed epsilon={eps!r}")
    if initial.p_r or initial.p_i:
        raise ValueError(
            f"initial coherence ({initial.p_r!r}, {initial.p_i!r}) must be zero: the"
            " stepper carries p_e only; robustness.Baseline replays a coherent state"
        )

    runtime = law.bind(model, env, bounds, numerics)
    drift_cap = numerics.drift_cap(bounds)
    rate_at = rate_fn(model, runtime.rate_cap_per_us)
    ratio_c = env.ratio_per_ghz
    # Looked up once per run: the loop below runs once per sample. Its
    # conditional expressions keep min/max/abs's ties and NaN results.
    refresh, next_transition = runtime.frequency, runtime.next_transition_after
    exp, log, inf, reach, shrink = math.exp, math.log, math.inf, 2.0 * drift_cap, 0.8 * drift_cap
    step_limit, log_bound = numerics.step_limit, numerics.step_log_bound
    # dt_free <= log_bound / rate, so no crossing lies within a step where
    # gap >= 1.01 e^log_bound (eps - p_eq): its log is skipped there.
    no_cross = 1.01 * math.exp(log_bound)
    if runtime.held_ghz is not None:
        floor = equilibrium_population(thermal_ratio(runtime.held_ghz, env))
        if floor >= eps:
            raise NoDescentError(
                f"control holds f={runtime.held_ghz!r} GHz, whose thermal floor"
                f" p_eq={floor!r} is not below epsilon={eps!r}; the precision"
                " target is unreachable"
            )
    t1 = coherence_time(model, bounds, rate_cap=numerics.rate_cap_per_us).t1_us
    t_stop = numerics.time_limit_t1 * t1 if math.isfinite(t1) else math.inf

    # One float64 buffer, a packed row (t, f, p_e, rate, p_eq) per sample,
    # so no Python float outlives its step.
    samples = array("d")
    record, row = samples.frombytes, Struct("5d").pack
    pe = initial.p_e
    t = 0.0
    steps = 0
    dt_drift_hint = inf
    f = refresh(pe, t, None)

    while True:
        rate = rate_at(f)
        if rate == inf:
            raise InfiniteRateError(
                f"rate at f={f!r} GHz is infinite with no rate cap: the state"
                " would jump to equilibrium in zero time"
            )
        e = exp(-ratio_c * f)
        peq = e / (1.0 + e)
        gap = pe - peq
        record(row(t, f, pe, rate, peq))

        if steps >= step_limit:
            termination, tau = "step_limit", t
            break
        if t >= t_stop:
            termination, tau = "time_limit", t
            break
        # A segment may heat only where a scheduled transition lies ahead.
        t_bp = None if next_transition is None else next_transition(t)
        if gap <= 0.0 and t_bp is None:
            raise NoDescentError(
                f"control law chose f={f!r} GHz with p_eq={peq!r} >= p_e={pe!r};"
                " the precision target is unreachable from here"
            )
        if rate > 0.0:
            dt_log = log_bound / rate
            dt_free = dt_drift_hint if dt_drift_hint < dt_log else dt_log
            # Terminal crossing within the upcoming segment, in closed form.
            if peq < eps and gap < no_cross * (eps - peq):
                dt_cross = log(gap / (eps - peq)) / rate
                if (
                    dt_cross <= dt_free
                    and (t_bp is None or t + dt_cross <= t_bp)
                    and t + dt_cross <= t_stop
                ):
                    tau = t + dt_cross
                    record(row(tau, f, eps, rate, peq))
                    termination = "precision"
                    break
        else:  # no log bound; the drift hint is never NaN
            dt_log, dt_free = inf, dt_drift_hint

        # Pick the step; scheduled transitions and the time limit are landed
        # on exactly and are exempt from drift control.
        dt, snap_to = dt_free, None
        if t_bp is not None and t_bp - t <= dt:
            dt, snap_to = t_bp - t, t_bp
        if t_stop - t <= dt:
            dt, snap_to = t_stop - t, t_stop
        if not -inf < dt < inf:
            raise NoDescentError(
                f"rate at f={f!r} GHz is zero with no time limit or transition"
                " ahead: the state can never move"
            )
        dt = dt if dt > 1.0e-18 else 1.0e-18

        if snap_to is not None:
            pe = peq + gap * exp(-rate * dt)
            t = snap_to
            steps += 1
            # A refresh is anchored at the frequency of the previous segment.
            f = refresh(pe, t, f)
            continue

        # Free step: shrink it if the control would move too fast.  A move
        # that does not shrink with dt is not step-driven (e.g. a hop
        # across a capped plateau) and is accepted as-is.
        retries = 0
        df_prev = inf
        while True:
            pe = peq + gap * exp(-rate * dt)
            f_probe = refresh(pe, t + dt, f)
            df = f_probe - f if f_probe > f else f - f_probe
            if df <= reach or retries >= 60 or df >= 0.9 * df_prev:
                break
            df_prev, cut = df, shrink / df
            dt *= cut if cut > 0.25 else 0.25
            retries += 1

        # The accepted probe is the refresh at the new state.
        t, f = t + dt, f_probe
        steps += 1
        if df > 0.0:
            hint, doubled = dt * drift_cap / df, dt * 2.0
            hint = doubled if doubled < hint else hint
            dt_floor = 1.0e-3 * dt_log if rate > 0.0 else dt
            dt_drift_hint = dt_floor if dt_floor > hint else hint
        else:
            dt_drift_hint = dt_drift_hint * 2.0

    t_us, f_ghz, p_e, rate_per_us, p_eq = np.frombuffer(samples).reshape(-1, 5).T
    zero = np.broadcast_to(0.0, t_us.size)  # one stride-0 column, no buffer
    columns = (t_us, f_ghz, p_e, zero, zero, rate_per_us, p_eq)
    return Trajectory(*columns, tau_st_us=tau, termination=termination, epsilon=eps)


class DecoherenceFactor:
    """Accumulated decoherence suppression ``eta(t) = exp(-int_0^t rate ds)``."""

    def __init__(self, t_us: np.ndarray, cum_rate: np.ndarray) -> None:
        self._t = t_us
        self._cum = cum_rate

    def __call__(self, t_us: float) -> float:
        if math.isnan(t_us):
            raise ValueError(f"eta(t) needs a time, got t_us={t_us!r}")
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
