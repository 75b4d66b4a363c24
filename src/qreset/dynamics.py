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
from typing import Protocol, TextIO

import numpy as np

from .spectra import DEFAULT_GRID_POINTS, DEFAULT_RATE_CAP, _write_columns
from .spectra import ControlBounds, SpectrumModel, coherence_time, rate_fn
from .thermo import Environment, _FLOAT_MAX

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
# Failures that both of integrate_restore's loops raise, formatted with the row's values.
_INFINITE_RATE = (
    "rate at f={!r} GHz is infinite with no rate cap: the state"
    " would jump to equilibrium in zero time"
)
_NO_DESCENT = (
    "control law chose f={!r} GHz with p_eq={!r} >= p_e={!r};"
    " the precision target is unreachable from here"
)
_NEVER_MOVES = (
    "rate at f={!r} GHz is zero with no time limit or transition ahead: the state can never move"
)


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

    ``step_log_bound``, in (0, 1], caps a feedback step's decay of ``ln(p_e - p_eq)``;
    ``control_drift_ghz`` caps how far its control may move per step
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
    """A bound feedback law: ``frequency(p_e, t_us, f_anchor)`` is its refresh.

    A refresh is anchored at the previous segment's frequency (``None`` at
    a run's first).  The stepper's rates take ``rate_cap_per_us``, the cap
    the frequencies are chosen under: ``None`` where no cap can bind.
    """

    rate_cap_per_us: float | None

    def frequency(self, p_e: float, t_us: float, f_anchor: float | None) -> float: ...


class ControlLawProtocol(Protocol):
    """A control law; ``bind`` fixes it to one problem before a run.

    A feedback law binds to a ``ControlRuntime``, an open-loop law to its
    ``(t_us, f_GHz)`` breakpoints from t=0 and the rate cap it holds them
    under, which ``integrate_restore`` steps exactly, one step each.
    """

    def bind(
        self,
        model: SpectrumModel,
        env: Environment,
        bounds: ControlBounds,
        numerics: Numerics,
    ) -> ControlRuntime | tuple[tuple[tuple[float, float], ...], float | None]: ...


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
        sizes = {field.name: getattr(self, field.name).size for field in fields(self)[:7]}
        if len(set(sizes.values())) > 1:
            raise ValueError(f"trajectory columns differ in length: {sizes}")

    @property
    def terminal_state(self) -> QubitState:
        if self.n_samples == 0:
            raise ValueError("trajectory has no samples")
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
    An open-loop law takes one exact step per breakpoint; a feedback law's
    steps change ``ln(p_e - p_eq)`` by at most ``numerics.step_log_bound``
    and the control frequency by at most the drift cap.
    """
    eps = bounds.epsilon
    if initial.p_e <= eps:
        raise ValueError(f"initial p_e={initial.p_e!r} must exceed epsilon={eps!r}")
    if initial.p_r or initial.p_i:
        raise ValueError(
            f"initial coherence ({initial.p_r!r}, {initial.p_i!r}) must be zero: the"
            " stepper carries p_e only; robustness.Baseline replays a coherent state"
        )

    bound = law.bind(model, env, bounds, numerics)
    t1 = coherence_time(model, bounds, rate_cap=numerics.rate_cap_per_us).t1_us
    t_stop = numerics.time_limit_t1 * t1 if math.isfinite(t1) else math.inf
    # One float64 buffer of packed (t, f, p_e, rate, p_eq) rows: no Python float outlives its step.
    rows = array("d")
    run = _step_schedule if isinstance(bound, tuple) else _step_feedback
    termination, tau = run(rows.frombytes, initial.p_e, bound, model, env, bounds, numerics, t_stop)

    t_us, f_ghz, p_e, rate_per_us, p_eq = np.frombuffer(rows).reshape(-1, 5).T
    zero = np.broadcast_to(0.0, t_us.size)  # one stride-0 column, no buffer
    columns = (t_us, f_ghz, p_e, zero, zero, rate_per_us, p_eq)
    return Trajectory(*columns, tau_st_us=tau, termination=termination, epsilon=eps)


def _step_schedule(record, pe, bound, model, env, bounds, numerics, t_stop):
    """Hold each breakpoint's frequency up to the next in one exact step: ``(termination, tau)``.

    Only the last segment, held until the crossing, must descend with its
    thermal floor below epsilon: an earlier one may heat.
    """
    (breakpoints, cap), eps, row, inf = bound, bounds.epsilon, Struct("5d").pack, math.inf
    rate_at, ends = rate_fn(model, cap), [t for t, _ in breakpoints[1:]] + [inf]
    k, t, steps = 0, 0.0, 0
    while True:
        f, t_next = breakpoints[k][1], ends[k]
        rate = rate_at(f)
        if rate == inf:
            raise InfiniteRateError(_INFINITE_RATE.format(f))
        e = math.exp(-env.ratio_per_ghz * f)
        peq = e / (1.0 + e)
        gap = pe - peq
        record(row(t, f, pe, rate, peq))

        if steps >= numerics.step_limit:
            return "step_limit", t
        if t >= t_stop:
            return "time_limit", t
        if t_next == inf and gap <= 0.0:
            raise NoDescentError(_NO_DESCENT.format(f, peq, pe))
        if t_next == inf and peq >= eps:
            raise NoDescentError(
                f"control holds f={f!r} GHz, whose thermal floor p_eq={peq!r}"
                f" is not below epsilon={eps!r}; the precision target is unreachable"
            )
        t_end = t_next if t_next < t_stop else t_stop
        pe_end = peq + gap * math.exp(-rate * (t_end - t))
        if pe_end <= eps and peq < eps:  # the first segment to reach eps: solve for the crossing
            tau = t + math.log(gap / (eps - peq)) / rate
            if tau == inf:
                raise NoDescentError(f"rate at f={f!r} GHz is too small: tau_st overflows")
            record(row(tau, f, eps, rate, peq))
            return "precision", tau
        if t_end == inf:
            raise NoDescentError(_NEVER_MOVES.format(f))
        pe, t, steps, k = pe_end, t_end, steps + 1, k + (t_end == t_next)


def _step_feedback(record, pe, runtime, model, env, bounds, numerics, t_stop):
    """Step a feedback law's refreshes, recording the rows; returns ``(termination, tau)``."""
    eps, ratio_c, drift_cap = bounds.epsilon, env.ratio_per_ghz, numerics.drift_cap(bounds)
    rate_at = rate_fn(model, runtime.rate_cap_per_us)
    # Looked up once per run: the loop below runs once per sample. Its
    # conditional expressions keep min/max/abs's ties and NaN results.
    refresh, row = runtime.frequency, Struct("5d").pack
    exp, inf, reach, shrink = math.exp, math.inf, 2.0 * drift_cap, 0.8 * drift_cap
    step_limit, log_bound = numerics.step_limit, numerics.step_log_bound
    t, steps, dt_drift_hint = 0.0, 0, inf
    f = refresh(pe, t, None)

    while True:
        rate = rate_at(f)
        if rate == inf:
            raise InfiniteRateError(_INFINITE_RATE.format(f))
        e = exp(-ratio_c * f)
        peq = e / (1.0 + e)
        gap = pe - peq
        record(row(t, f, pe, rate, peq))

        if steps >= step_limit:
            return "step_limit", t
        if t >= t_stop:
            return "time_limit", t
        if gap <= 0.0:
            raise NoDescentError(_NO_DESCENT.format(f, peq, pe))
        dt_log = log_bound / rate if rate > 0.0 else inf  # none at zero rate: dt is the hint
        dt = dt_drift_hint if dt_drift_hint < dt_log else dt_log

        # The time limit is landed on exactly and is exempt from drift control.
        snap = t_stop - t <= dt
        if snap:
            dt = t_stop - t
        if not -inf < dt < inf:
            raise NoDescentError(_NEVER_MOVES.format(f))
        dt = dt if dt > 1.0e-18 else 1.0e-18
        pe_end = peq + gap * exp(-rate * dt)
        # The step taken reaches eps, floored or not: the crossing lies in it.
        if pe_end <= eps and peq < eps:
            tau = t + math.log(gap / (eps - peq)) / rate
            record(row(tau, f, eps, rate, peq))
            return "precision", tau
        if snap:
            pe, t, steps = pe_end, t_stop, steps + 1
            # A refresh is anchored at the frequency of the previous segment.
            f = refresh(pe, t, f)
            continue

        # Free step: shrink it if the control would move too fast.  A move
        # that does not shrink with dt is not step-driven (e.g. a hop
        # across a capped plateau) and is accepted as-is.  Most first probes pass.
        f_probe = refresh(pe_end, t + dt, f)
        df = f_probe - f if f_probe > f else f - f_probe
        if not df <= reach:
            retries, df_prev = 0, inf
            while not (df <= reach or retries >= 60 or df >= 0.9 * df_prev):
                df_prev, cut = df, shrink / df
                dt *= cut if cut > 0.25 else 0.25
                retries += 1
                pe_end = peq + gap * exp(-rate * dt)
                f_probe = refresh(pe_end, t + dt, f)
                df = f_probe - f if f_probe > f else f - f_probe

        # The accepted probe is the refresh at the new state.
        pe, t, f = pe_end, t + dt, f_probe
        steps += 1
        if df > 0.0:
            hint, doubled = dt * drift_cap / df, dt * 2.0
            hint = doubled if doubled < hint else hint
            dt_floor = 1.0e-3 * dt_log if rate > 0.0 else dt
            dt_drift_hint = dt_floor if dt_floor > hint else hint
        else:
            dt_drift_hint = dt_drift_hint * 2.0


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
