"""Time-local optimal control of the restoring frequency.

The time-optimal problem is autonomous and first order, so the optimal
frequency is the pointwise maximizer of
``J(f) = rate(f) * (p_e - p_eq(f))``, clipped to the control window: the
first factor is the restoring speed, the second the distance to the
restoring target.  In the low-temperature limit the target term drops
out and the law degenerates to holding the argmax of the rate.

Two refresh policies are provided.  ``mode="global"`` rescans the whole
window at every refresh, which is the literal pointwise optimum.
``mode="tracked"`` (the default) follows the continuous extremal branch
by a local search from the previous frequency, or from one extrapolated
along the branch, starting from the rate argmax.  For single-peaked
spectra the two coincide.  They differ only when two near-degenerate
maxima straddle the window (the filter-dip rate is flat to a few 1e-5
across its edges): the tracked branch reproduces the published control
shapes and work costs, while the global mode jumps basins and ends 4.3e-3
sooner (jqf at the 10 mK defaults: 98.766 against 99.190 us).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Iterable, TextIO

import numpy as np

from .dynamics import ControlRuntime, InfiniteRateError, IntegrationError, NoDescentError
from .dynamics import Numerics, Trajectory
from .spectra import (
    ControlBounds,
    DEFAULT_GRID_POINTS,
    DEFAULT_RATE_CAP,
    Protected,
    SpectrumModel,
    TableParseError,
    Tabulated,
    argmax_rate,
    eval_rate,
    rate_fn,
    _cap_edge,
    _golden_max,
    _read_rows,
    _scan_max,
    _window_grid,
    _write_columns,
)
from .thermo import Environment, equilibrium_population, thermal_ratio

__all__ = [
    "TimeLocalOptimal",
    "ConstantAtPeak",
    "FixedSchedule",
    "NoDescentError",
    "DegenerateTransversalityError",
    "ScheduleWindowError",
    "RefreshLimitError",
    "CostateTrajectory",
    "PmpReport",
    "optimal_frequency",
    "costate_along",
    "verify_pmp",
    "schedule_to_csv",
    "schedule_from_csv",
]

REFINE_TOL_GHZ = 1.0e-9
# The tracked refresh searches a window this wide on each side of the
# previous frequency, to this tolerance, which is also its plateau probe.
# Without a cap it first takes parabolic steps on a stencil of this first
# half-width, two default drift caps: wider ones bias the vertex past tol/2.
TRACK_WINDOW_GHZ = 0.02
TRACK_TOL_GHZ = 1.0e-7
TRACK_STENCIL_GHZ = 2.0e-4
_HALF_TOL, _MIN_STENCIL = 0.5 * TRACK_TOL_GHZ, TRACK_STENCIL_GHZ / 16.0  # step stop, stencil floor
_PARABOLIC_ROUNDS, _LATER_ROUNDS = range(64), range(63)  # built once: all, or after round 1
_NEG_INF, _INF = -math.inf, math.inf  # a finite near lies between, read per tracked refresh
# verify_pmp probes every sample time against this many window
# frequencies, with these tolerances.
PMP_ALT_FREQUENCIES = 33
PMP_MINIMALITY_TOL = 1.0e-6
PMP_HAMILTONIAN_TOL = 1.0e-3


class DegenerateTransversalityError(RuntimeError):
    """Terminal rate times terminal gap vanishes; the costate is undefined."""


class ScheduleWindowError(ValueError):
    """A fixed schedule holds a frequency that is non-finite or outside the window."""


class RefreshLimitError(IntegrationError):
    """The tracked refresh moved its search window too often without settling."""


def _objective(
    model: SpectrumModel,
    env: Environment,
    rate_cap: float | None,
    p_e: float,
) -> Callable[[float], float]:
    """Float ``J(f) = rate(f) * (p_e - p_eq(f))`` as one function; grids use ``_grid_terms``."""
    # Default values, not closure cells: one tuple per refresh instead of four or five cells.
    if rate_cap is None:  # no cap, no comparison: the capped J's float wherever raw < cap
        def j(f, raw=model.rate_kernel, c=env.ratio_per_ghz, p_e=p_e, exp=math.exp):
            e = exp(-c * f)
            return raw(f) * (p_e - e / (1.0 + e))

        return j

    def j(f, raw=model.rate_kernel, cap=rate_cap, c=env.ratio_per_ghz, p_e=p_e, exp=math.exp):
        e = exp(-c * f)
        r = raw(f)
        return (cap if r > cap else r) * (p_e - e / (1.0 + e))

    return j


def _grid_terms(model: SpectrumModel, env: Environment, rate_cap: float | None, fs: np.ndarray):
    """``(fs, capped rates, p_eq)`` on a grid: J's factors there that do not depend on p_e."""
    e = np.exp(-env.ratio_per_ghz * fs)
    return fs, eval_rate(model, fs, rate_cap), e / (1.0 + e)


def _plateau_right_edge(
    raw: Callable[[float], float], on: float, hi: float, cap: float, tol: float
) -> float:
    """Right edge of the capped plateau through ``on``, or ``hi`` if it reaches that far.

    Assumes raw(on) >= cap.  Probes one ``tol`` step right first, so an
    edge already at ``on`` costs one evaluation.
    """
    off = on + tol if on + tol < hi else hi
    if raw(off) >= cap:
        if raw(hi) >= cap:
            return hi
        on, off = off, hi
    return _cap_edge(raw, off, on, cap, tol)


def optimal_frequency(
    p_e: float,
    model: SpectrumModel,
    env: Environment,
    bounds: ControlBounds,
    *,
    grid_points: int = DEFAULT_GRID_POINTS,
    rate_cap: float | None = DEFAULT_RATE_CAP,
    near: float | None = None,
    grid: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> float:
    """Frequency maximizing the restoring objective for the current population.

    With ``near=None`` the whole window is scanned: J on the
    ``_window_grid`` (from ``grid``, these arguments' ``_grid_terms``
    there, if given) picks the bracket that golden section refines, ties
    toward smaller f, and the scan never leaves the window.
    Passing the previous frequency, or a prediction of the optimum, as
    ``near`` instead refines the local maximum of the same objective
    around it, which is how the tracked law follows a continuous extremal
    branch: by parabolic steps from ``near`` without a cap (the first stencil
    is clamped by the domain only; a first step below half the tolerance
    returns ``near`` itself, so a good prediction costs one stencil; after a
    step the stencil is never narrower than 1/16 of the first, where its
    curvature would be round-off), else by golden section in a moving window.

    On a capped plateau ``J = cap * (p_e - p_eq(f))`` is flat to
    round-off, but ``p_eq`` falls with f, so the tracked refresh returns
    the plateau's right edge, a point whose raw rate still reaches the
    cap.  Raises ``ValueError`` for a non-finite ``near``, and
    ``RefreshLimitError`` if the search window moves 2048 times without
    settling.
    """
    if not 0.0 < p_e <= 1.0:
        raise ValueError(f"p_e must lie in (0, 1], got {p_e!r}")
    j = _objective(model, env, rate_cap, p_e)

    if near is None:
        fs, rates, q = grid or _grid_terms(model, env, rate_cap, _window_grid(bounds, grid_points))
        cap_j = p_e * rate_cap if rate_cap is not None else None
        f_best, v_best, _ = _scan_max(j, fs, rates * (p_e - q), cap_j, REFINE_TOL_GHZ)
        if v_best <= 0.0:
            raise NoDescentError(
                f"objective non-positive over the whole window at p_e={p_e!r};"
                " precision unreachable"
            )
        return f_best

    if not _NEG_INF < near < _INF:
        raise ValueError(f"near must be a finite frequency, got {near!r}")
    # Per-refresh work, so conditional expressions stand in for min/max/abs.
    f_lo, f_hi = bounds.f_min_ghz, bounds.f_max_ghz
    f = f_hi if near > f_hi else f_lo if near < f_lo else near
    if rate_cap is None:
        rounds = ()  # the parabolic rounds still to run: none after a break
        if isinstance(model, Tabulated):  # J has a kink at each node: stay between two
            lo = f - TRACK_WINDOW_GHZ if f - TRACK_WINDOW_GHZ > f_lo else f_lo
            hi = f + TRACK_WINDOW_GHZ if f + TRACK_WINDOW_GHZ < f_hi else f_hi
            i, nodes = bisect_right(model.points, (f, math.inf)), model.points
            lo, hi = max(lo, nodes[i - 1][0]), min(hi, nodes[min(i, len(nodes) - 1)][0])
            x, width, jx, rounds = f, TRACK_STENCIL_GHZ, None, _PARABOLIC_ROUNDS
        else:  # round 1 of the loop below: only f_lo and f_hi can clamp the first stencil
            h = f - f_lo if f - f_lo < TRACK_STENCIL_GHZ else TRACK_STENCIL_GHZ
            h = f_hi - f if f_hi - f < h else h
            if h >= TRACK_TOL_GHZ:
                jx, ja, jb = j(f), j(f - h), j(f + h)
                curvature = ja - 2.0 * jx + jb
                if curvature < 0.0:
                    step = 0.5 * h * (ja - jb) / curvature
                    if abs(step) <= _HALF_TOL or abs(step) <= h * math.ulp(jx) / -curvature:
                        return f
                    width = 2.0 * step if step > 0.0 else -2.0 * step
                    x, jx, width = f + step, None, width if width > _MIN_STENCIL else _MIN_STENCIL
                    lo = f - TRACK_WINDOW_GHZ if f - TRACK_WINDOW_GHZ > f_lo else f_lo
                    hi = f + TRACK_WINDOW_GHZ if f + TRACK_WINDOW_GHZ < f_hi else f_hi
                    rounds = _LATER_ROUNDS
        for _ in rounds:  # then, as on every break, the window loop below
            h = x - lo if x - lo < width else width
            h = hi - x if hi - x < h else h
            if not h >= TRACK_TOL_GHZ:
                break
            jx = j(x) if jx is None else jx
            ja, jb = j(x - h), j(x + h)
            curvature = ja - 2.0 * jx + jb
            if not curvature < 0.0:
                break
            step = 0.5 * h * (ja - jb) / curvature
            # Done within tolerance or round-off, on a stencil no wider than the first.
            if abs(step) <= _HALF_TOL or abs(step) <= h * math.ulp(jx) / -curvature:
                if h <= TRACK_STENCIL_GHZ:
                    return x
                width = TRACK_STENCIL_GHZ
                continue
            width = 2.0 * step if step > 0.0 else -2.0 * step
            x, jx, width = x + step, None, width if width > _MIN_STENCIL else _MIN_STENCIL
    tol, window = TRACK_TOL_GHZ, TRACK_WINDOW_GHZ
    raw = None if rate_cap is None else model.rate_kernel
    past_edge = None  # an anchor whose plateau J rises past: search instead
    for _ in range(2048):
        lo = f - window if f - window > f_lo else f_lo
        hi = f + window if f + window < f_hi else f_hi
        # Fast path: pinned at a window-boundary that is a domain bound.
        if lo == f_lo and f - f_lo <= tol and j(f_lo) >= j(f_lo + tol):
            return f_lo
        if hi == f_hi and f_hi - f <= tol and j(f_hi) >= j(f_hi - tol):
            return f_hi
        # Anchored on a plateau, or the golden result on one or one step
        # past its right kink: that plateau's right edge.
        anchored = raw is not None and f != past_edge and raw(f) >= rate_cap
        if anchored:
            on = f
        else:
            f_new, _ = _golden_max(j, lo, hi, tol)
            if f_new <= lo + 2.0 * tol and lo > f_lo:
                f = lo
                continue
            if f_new >= hi - 2.0 * tol and hi < f_hi:
                f = hi
                continue
            if raw is None:
                return f_new
            on = f_new if raw(f_new) >= rate_cap else f_new - tol
            if raw(on) < rate_cap:
                return f_new
        edge = _plateau_right_edge(raw, on, hi, rate_cap, tol)
        if edge == hi < f_hi:
            f = hi
            continue
        if anchored and j(edge) < j(edge + tol if edge + tol < f_hi else f_hi):
            past_edge = f
            continue
        return edge
    raise RefreshLimitError(
        f"tracked refresh from near={near!r} GHz moved its {TRACK_WINDOW_GHZ!r} GHz"
        f" window 2048 times without settling (last at f={f!r} GHz)"
    )


def _check_pole(model: SpectrumModel, bounds: ControlBounds, numerics: Numerics) -> None:
    """Refuse an uncapped pole in the window, where a rate-seeking law would settle."""
    if numerics.rate_cap_per_us is None and isinstance(model, Protected):
        if bounds.f_min_ghz <= model.f_r_ghz <= bounds.f_max_ghz:
            raise InfiniteRateError(
                f"the rate is infinite at the protected pole f_r={model.f_r_ghz!r} GHz, inside"
                f" the control window [{bounds.f_min_ghz!r}, {bounds.f_max_ghz!r}] GHz, with no"
                " rate cap: the state would jump to equilibrium in zero time"
            )


@dataclass(frozen=True)
class TimeLocalOptimal:
    """State-feedback law refreshing the optimal frequency at every step."""

    mode: str = "tracked"

    def __post_init__(self) -> None:
        if self.mode not in ("tracked", "global"):
            raise ValueError(f"mode must be 'tracked' or 'global', got {self.mode!r}")

    def bind(
        self,
        model: SpectrumModel,
        env: Environment,
        bounds: ControlBounds,
        numerics: Numerics,
    ) -> ControlRuntime:
        _check_pole(model, bounds, numerics)
        refresh = _tracked_refresh if self.mode == "tracked" else _global_refresh
        # One optimal_frequency call and one _objective J per refresh: the bench tracer counts both.
        frequency, cap = refresh(model, env, bounds, numerics)
        return SimpleNamespace(frequency=frequency, rate_cap_per_us=cap)


def _global_refresh(model, env, bounds, numerics):
    """Refresh scanning the window, and its cap; its scans share one grid's _grid_terms."""
    grid_points, cap = numerics.grid_points, numerics.rate_cap_per_us
    grid = _grid_terms(model, env, cap, _window_grid(bounds, grid_points))

    def frequency(p_e: float, t_us: float, f_anchor: float | None) -> float:
        return optimal_frequency(p_e, model, env, bounds, rate_cap=cap, grid=grid)

    return frequency, cap


def _tracked_refresh(model, env, bounds, numerics):
    """Refresh along the extremal branch from the rate argmax, scanned once here, and its cap."""
    f_lo, f_hi = bounds.f_min_ghz, bounds.f_max_ghz
    reach = 2.0 * numerics.drift_cap(bounds)
    cap = numerics.rate_cap_per_us
    start = argmax_rate(model, bounds, grid_points=numerics.grid_points, rate_cap=cap)
    # rate_cap, the cap the refresh applies, is left out where the start scan
    # finds the rate below it across the window, and with it the plateau
    # checks: every refresh then takes the cheaper parabolic steps, and the
    # stepper's rate evaluator, also given rate_cap, is the bare kernel.
    rate_cap = cap if start.cap_hit else None
    # Those uncapped refreshes start from a prediction: f*(p_e) is smooth,
    # so (p_e, f) of the last three refreshes that corrected their start
    # extrapolate it, and one stencil usually accepts the guess.  An
    # accepted guess is known only to the tolerance, so it is not kept;
    # a window bound (mix and jqf start pinned at 2 GHz) clears them.
    # Not on a tabulated spectrum, whose J kinks at every node.  The history
    # is the last n of (p0, f0), (p1, f1), (p2, f2), and its fit is redone
    # only when it changes: on benchmark seed 0, 5,286 of 56,234 refreshes
    # of robustness, 2,833 of 4,562 of calibrate's coarse runs.
    predicts = rate_cap is None and not isinstance(model, Tabulated)
    n, p0, f0, p1, f1, p2, f2, d21, d210 = 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0

    def frequency(p_e: float, t_us: float, f_anchor: float | None) -> float:
        nonlocal n, p0, f0, p1, f1, p2, f2, d21, d210
        near = start.f_ghz if f_anchor is None else f_anchor  # None at a run's first refresh
        if n == 3:
            guess = f2 + (p_e - p2) * (d21 + (p_e - p1) * d210)
            if f_lo < guess < f_hi and -reach <= guess - near <= reach:
                near = guess
        f = optimal_frequency(p_e, model, env, bounds, rate_cap=rate_cap, near=near)
        if predicts:
            if f == f_lo or f == f_hi:
                n = 0
            elif f != near:
                # Keep the last two entries whose p_e differs from this one, then append it.
                if n and p2 != p_e:
                    if n > 1 and p1 != p_e:
                        p0, f0, n = p1, f1, 3
                    else:
                        n = 2
                    p1, f1 = p2, f2
                else:  # empty, or p2 == p_e, so p1 != p_e: live entries differ in p_e
                    n = 2 if n > 1 else 1
                p2, f2 = p_e, f
                if n == 3:
                    d21 = (f2 - f1) / (p2 - p1)
                    d210 = (d21 - (f1 - f0) / (p1 - p0)) / (p2 - p0)
        return f

    return frequency, rate_cap


@dataclass(frozen=True)
class ConstantAtPeak:
    """Hold the rate argmax for the whole restoring stage."""

    def bind(
        self,
        model: SpectrumModel,
        env: Environment,
        bounds: ControlBounds,
        numerics: Numerics,
    ) -> tuple[tuple[tuple[float, float], ...], float | None]:
        _check_pole(model, bounds, numerics)
        cap = numerics.rate_cap_per_us
        f = argmax_rate(model, bounds, grid_points=numerics.grid_points, rate_cap=cap).f_ghz
        return ((0.0, f),), cap


@dataclass(frozen=True)
class FixedSchedule:
    """Replay a piecewise-constant schedule of (t_us, f_GHz) breakpoints.

    The frequency of breakpoint k is held on ``[t_k, t_{k+1})``; the last
    frequency is held indefinitely, which is what extending a recorded
    protocol past its end means physically.
    """

    breakpoints: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.breakpoints:
            raise ValueError("schedule needs at least one breakpoint")
        prev = -math.inf
        for t, _ in self.breakpoints:
            if not prev < t < math.inf:
                raise ValueError(
                    f"breakpoint times must be finite and strictly increasing, got t={t!r}"
                )
            prev = t
        if self.breakpoints[0][0] != 0.0:
            raise ValueError("schedule must start at t=0")

    def check_window(self, bounds: ControlBounds) -> None:
        """Raise ``ScheduleWindowError`` unless every frequency lies in the window."""
        for t, f in self.breakpoints:
            if not bounds.f_min_ghz <= f <= bounds.f_max_ghz:
                raise ScheduleWindowError(
                    f"schedule frequency {f!r} GHz at t={t!r} us is outside the"
                    f" control window [{bounds.f_min_ghz!r}, {bounds.f_max_ghz!r}] GHz"
                )

    def bind(
        self,
        model: SpectrumModel,
        env: Environment,
        bounds: ControlBounds,
        numerics: Numerics,
    ) -> tuple[tuple[tuple[float, float], ...], float | None]:
        self.check_window(bounds)
        return self.breakpoints, numerics.rate_cap_per_us


def schedule_to_csv(schedule: Iterable[tuple[float, float]], stream: TextIO) -> None:
    _write_columns(stream, "t_us,f_GHz", list(zip(*schedule)))


def schedule_from_csv(stream: TextIO) -> FixedSchedule:
    """Parse ``t_us,f_GHz`` rows; errors name the offending line."""
    rows = _read_rows(stream, "t_us,f_ghz", TableParseError)
    return FixedSchedule(tuple((t, f) for _, t, f in rows))


@dataclass(frozen=True)
class CostateTrajectory:
    """Pontryagin costate and control Hamiltonian along a trajectory."""

    t_us: np.ndarray
    costate: np.ndarray
    hamiltonian: np.ndarray

    @property
    def min_costate(self) -> float:
        return float(np.min(self.costate))

    @property
    def max_abs_hamiltonian(self) -> float:
        return float(np.max(np.abs(self.hamiltonian)))


def costate_along(
    trajectory: Trajectory, model: SpectrumModel, env: Environment
) -> CostateTrajectory:
    """Reconstruct the costate backward from the transversality condition.

    The terminal value is fixed by the free-final-time condition
    (the control Hamiltonian vanishes at the final time), and the costate
    propagates backward multiplicatively through the accumulated rate
    integral, so its sign is preserved along the whole trajectory.
    """
    if trajectory.n_samples == 0:
        raise ValueError("trajectory has no samples")
    if trajectory.termination != "precision":
        raise ValueError(
            f"costate requires a precision-terminated trajectory, got"
            f" {trajectory.termination!r}"
        )
    rate_term = float(trajectory.rate_per_us[-1])
    gap_term = float(trajectory.p_e[-1] - trajectory.p_eq[-1])
    denom = rate_term * gap_term
    if denom == 0.0 or not math.isfinite(denom):
        raise DegenerateTransversalityError(
            f"terminal rate*gap = {denom!r}; transversality cannot fix the costate"
        )
    lam_term = 1.0 / denom
    cum = trajectory.cumulative_rate_integral()
    lam = lam_term * np.exp(-(cum[-1] - cum))
    gaps = trajectory.p_e - trajectory.p_eq
    ham = 1.0 - lam * trajectory.rate_per_us * gaps
    ham[-1] = 0.0  # transversality defines the terminal costate
    return CostateTrajectory(t_us=trajectory.t_us, costate=lam, hamiltonian=ham)


@dataclass(frozen=True)
class PmpReport:
    """Checks of the Pontryagin necessary conditions along a trajectory."""

    max_abs_hamiltonian: float
    hamiltonian_ok: bool
    min_costate: float
    costate_positive: bool
    worst_minimality_violation: float
    pointwise_minimal: bool
    n_probed_times: int
    n_alt_frequencies: int
    violation_t_us: float
    violation_f_ghz: float

    @property
    def all_ok(self) -> bool:
        return self.hamiltonian_ok and self.costate_positive and self.pointwise_minimal


def verify_pmp(
    trajectory: Trajectory,
    model: SpectrumModel,
    env: Environment,
    bounds: ControlBounds,
    *,
    rate_cap: float | None = DEFAULT_RATE_CAP,
) -> PmpReport:
    """Check costate positivity, Hamiltonian smallness and pointwise minimality.

    The costate is ``costate_along(trajectory, model, env)``.  Minimality
    is probed at every sample time against ``PMP_ALT_FREQUENCIES``
    alternatives spanning the window: the Hamiltonian at the chosen
    frequency must not exceed any alternative by more than
    ``PMP_MINIMALITY_TOL``.  The first largest violation, times outer and
    frequencies inner, is reported.  ``rate_cap`` must be the run's cap.
    """
    costate = costate_along(trajectory, model, env)
    alts = _window_grid(bounds, PMP_ALT_FREQUENCIES).tolist()
    # Scalar kernel calls: a grid call may differ from them by an ulp.
    alt_rates = np.array(list(map(rate_fn(model, rate_cap), alts)))
    alt_peqs = np.array([equilibrium_population(thermal_ratio(f, env)) for f in alts])

    # H - (1 - lam * rate * (p_e - p_eq)), one alternative's column at a time, in place.
    violations = costate.costate[:, None] * alt_rates
    pe, h = trajectory.p_e, costate.hamiltonian
    for col, peq in zip(violations.T, alt_peqs):
        col *= pe - peq
        np.subtract(1.0, col, out=col)
        np.subtract(h, col, out=col)
    k, i = np.unravel_index(np.argmax(violations), violations.shape)
    worst = float(violations[k, i])
    max_h = costate.max_abs_hamiltonian
    min_lam = costate.min_costate
    return PmpReport(
        max_abs_hamiltonian=max_h,
        hamiltonian_ok=max_h < PMP_HAMILTONIAN_TOL,
        min_costate=min_lam,
        costate_positive=min_lam > 0.0,
        worst_minimality_violation=worst,
        pointwise_minimal=worst <= PMP_MINIMALITY_TOL,
        n_probed_times=trajectory.n_samples,
        n_alt_frequencies=PMP_ALT_FREQUENCIES,
        violation_t_us=float(trajectory.t_us[k]),
        violation_f_ghz=alts[i],
    )
