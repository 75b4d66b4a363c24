"""Decoherence-rate spectra and the control window they are scanned over.

Four built-in spectral models cover the common superconducting-qubit
environments (a resonator-induced Lorentzian peak, a filtered
"protected" line with a pole inside the tuning window, a mixed
flux/dielectric/Purcell background, and a giant-atom filter dip), plus
a tabulated variant for measured data.

Rates are returned in 1/us.  Frequency arguments are cyclic GHz; the
dimensional formulas (Lorentzian, protected, filter dip) are evaluated
with angular quantities internally, while the mixed model uses its
published raw-number convention directly.

Each spectrum has one rate kernel, written as elementwise arithmetic, so
the same code evaluates a single float or a whole ``ndarray`` grid.  It
is built once per model (``rate_kernel``, cached) with the constants
folded in the formula's own left-to-right order, so hoisting them
changes no bit; it neither caps nor checks f > 0.  The capped evaluators
from ``rate_fn``, which the integrator and the tracked control refresh
call millions of times, take floats only; ``eval_rate`` is the one
capped-grid evaluator.  Every window scan evaluates one
``_window_grid`` (``np.linspace`` over the window) in one call, and
``_scan_max`` refines the values its caller computed there.
numpy's vectorized ``exp`` and ``pow`` may differ from the C library's
by an ulp, so a grid value can differ from the scalar value at the same
frequency by that much; the scans use the grid only to pick an index.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Callable, NamedTuple, TextIO, TypeVar, Union

import numpy as np

from .thermo import RAD_PER_US_PER_GHZ, _FLOAT_MAX

__all__ = [
    "DEFAULT_RATE_CAP",
    "DEFAULT_GRID_POINTS",
    "Lorentzian",
    "Protected",
    "Mixed",
    "JQF",
    "Tabulated",
    "SpectrumModel",
    "ControlBounds",
    "SpectrumError",
    "SpectrumRangeError",
    "SpectrumParseError",
    "ArgmaxResult",
    "CoherenceTime",
    "GuidelineReport",
    "eval_rate",
    "argmax_rate",
    "coherence_time",
    "guideline_report",
    "load_tabulated",
    "dump_tabulated",
]

# Rates above this value (1/us) are clipped; keeps scans over poles finite
# and deterministic.  Configurable per call.
DEFAULT_RATE_CAP = 1.0e6

DEFAULT_GRID_POINTS = 4001

# Bracket width at which the rate argmax's golden-section refinement stops, in GHz.
ARGMAX_TOL_GHZ = 1.0e-6

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
WRITE_BLOCK_ROWS = 512  # a table's rows per write: few writes, never a long run's whole text


class SpectrumError(ValueError):
    """Invalid spectrum parameters."""


class SpectrumRangeError(SpectrumError):
    """Evaluation outside a tabulated spectrum's domain."""


class TableParseError(ValueError):
    """Malformed two-column CSV input (a tabulated spectrum or a schedule)."""

    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class SpectrumParseError(TableParseError, SpectrumError):
    """Malformed tabulated-spectrum input."""


# A frequency argument and the rate it gives: a float, or an ndarray grid
# evaluated elementwise.
FloatOrArray = TypeVar("FloatOrArray", float, np.ndarray)
RateKernel = Callable[[FloatOrArray], FloatOrArray]


class _Model:
    """A spectrum model: every field finite and > 0, picklable with its kernel.

    ``Tabulated`` checks its table instead.  The cached kernel is a
    closure, so pickling drops it and it is rebuilt on use.
    """

    def __post_init__(self) -> None:
        _require_positive(**{f.name: getattr(self, f.name) for f in fields(self)})

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "rate_kernel"}


def _require_positive(**values: float) -> None:
    for name, value in values.items():
        if not 0.0 < value <= _FLOAT_MAX:
            raise SpectrumError(f"{name} must be finite and > 0, got {value!r}")


@dataclass(frozen=True)
class Lorentzian(_Model):
    """Resonator-induced Lorentzian peak: coupling g, linewidth kappa, center f_r."""

    g_ghz: float = 0.107
    kappa_ghz: float = 0.044
    f_r_ghz: float = 5.4

    @cached_property
    def rate_kernel(self) -> RateKernel:
        half = 0.5 * self.kappa_ghz
        half2 = half * half
        peak = RAD_PER_US_PER_GHZ * self.g_ghz * self.g_ghz / self.kappa_ghz
        f_r = self.f_r_ghz
        return lambda f: peak * (half2 / ((f - f_r) ** 2 + half2))


@dataclass(frozen=True)
class Protected(_Model):
    """Filtered line with a zero at f_f and a pole at f_r (both in the GHz window)."""

    kappa_ghz: float = 0.005
    g_ghz: float = 0.150
    f_f_ghz: float = 5.0
    f_r_ghz: float = 6.5

    @cached_property
    def rate_kernel(self) -> RateKernel:
        ff2 = self.f_f_ghz * self.f_f_ghz
        fr2 = self.f_r_ghz * self.f_r_ghz
        scale = 4.0 * self.kappa_ghz * self.g_ghz**2 * self.f_r_ghz**3
        span2 = (fr2 - ff2) ** 2

        def rate(f: FloatOrArray) -> FloatOrArray:
            f2 = f * f
            try:
                num = scale * (ff2 - f2) ** 2
                return RAD_PER_US_PER_GHZ * num / (f * span2 * (fr2 - f2) ** 2)
            except ZeroDivisionError:
                # A float exactly at the pole.  A grid divides to IEEE inf there;
                # eval_rate silences numpy's divide warning with np.errstate.
                return math.inf

        return rate


@dataclass(frozen=True)
class Mixed(_Model):
    """Flux + dielectric + Purcell + residual background of a tunable flux qubit.

    Coefficients follow the published raw-number convention: frequencies
    enter as plain 2pi-GHz numerics and the sum is already a rate in 1/us.
    """

    c_phi: float = 0.5
    c_q: float = 0.001
    c_purcell: float = 0.08
    f_r_ghz: float = 8.27
    kappa_ghz: float = 0.0015
    c_other: float = 0.02

    @cached_property
    def rate_kernel(self) -> RateKernel:
        c_phi, c_q, c_other, f_r = self.c_phi, self.c_q, self.c_other, self.f_r_ghz
        k2 = self.kappa_ghz**2
        purcell = self.c_purcell * k2
        return lambda f: (
            c_phi / f**0.9 + c_q * f + purcell / ((f - f_r) ** 2 + k2) + c_other
        )


@dataclass(frozen=True)
class JQF(_Model):
    """Giant-atom filter: bare decay time tau0, filtered decay time tau, dip at f_0."""

    tau0_us: float = 9.1
    tau_us: float = 98.0
    four_kappa_j_ghz: float = 0.0508
    f_0_ghz: float = 5.011

    @cached_property
    def rate_kernel(self) -> RateKernel:
        w2 = self.four_kappa_j_ghz * self.four_kappa_j_ghz
        tau0, tau, f_0 = self.tau0_us, self.tau_us, self.f_0_ghz
        return lambda f: 1.0 / (tau0 + tau * (w2 / ((f - f_0) ** 2 + w2)))


@dataclass(frozen=True)
class Tabulated(_Model):
    """Piecewise-linear spectrum through strictly increasing (f_GHz, rate_1/us) points."""

    points: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if len(self.points) < 2:
            raise SpectrumError("tabulated spectrum needs at least 2 points")
        prev_f = -math.inf
        for f, rate in self.points:
            if not (-_FLOAT_MAX <= f <= _FLOAT_MAX and -_FLOAT_MAX <= rate <= _FLOAT_MAX):
                raise SpectrumError(f"non-finite table entry ({f!r}, {rate!r})")
            if f <= prev_f:
                raise SpectrumError("tabulated frequencies must be strictly increasing")
            if rate < 0.0:
                raise SpectrumError(f"negative rate {rate!r} at f={f!r}")
            prev_f = f

    @property
    def f_min_ghz(self) -> float:
        return self.points[0][0]

    @property
    def f_max_ghz(self) -> float:
        return self.points[-1][0]

    @cached_property
    def rate_kernel(self) -> RateKernel:
        f_min, f_max = self.f_min_ghz, self.f_max_ghz
        fs, rates = (np.array(column) for column in zip(*self.points))

        def rate(f: FloatOrArray) -> FloatOrArray:
            grid = isinstance(f, np.ndarray)
            lo, hi = (float(f.min()), float(f.max())) if grid else (f, f)
            if not (f_min <= lo and hi <= f_max):
                where = f"[{lo!r}, {hi!r}]" if grid else repr(f)
                raise SpectrumRangeError(
                    f"f={where} outside tabulated domain [{f_min!r}, {f_max!r}]"
                )
            r = np.interp(f, fs, rates)
            return r if grid else float(r)

        return rate


SpectrumModel = Union[Lorentzian, Protected, Mixed, JQF, Tabulated]


@dataclass(frozen=True)
class ControlBounds:
    """Tuning window around the computation frequency, plus protocol constants.

    ``f_cp`` is the computation frequency, the window is
    ``[f_cp - delta_f, f_cp + delta_f]``, ``tau_sw`` the fixed duration of
    each frequency switch and ``epsilon`` the target terminal excited
    population.
    """

    f_cp_ghz: float = 5.0
    delta_f_ghz: float = 3.0
    tau_sw_us: float = 0.010
    epsilon: float = 1.0e-5

    def __post_init__(self) -> None:
        _require_positive(
            f_cp=self.f_cp_ghz, delta_f=self.delta_f_ghz, tau_sw=self.tau_sw_us
        )
        if not (0.0 < self.epsilon < 0.5):
            raise SpectrumError(f"epsilon must lie in (0, 0.5), got {self.epsilon!r}")
        # The window's ends: plain attributes, read at every refresh, which
        # replace() sets anew and == and hash ignore.
        object.__setattr__(self, "f_min_ghz", self.f_cp_ghz - self.delta_f_ghz)
        object.__setattr__(self, "f_max_ghz", self.f_cp_ghz + self.delta_f_ghz)
        if self.f_min_ghz <= 0.0:
            raise SpectrumError(
                f"lower frequency bound must be > 0, got {self.f_min_ghz!r}"
            )


def eval_rate(
    model: SpectrumModel,
    f_ghz: FloatOrArray,
    rate_cap: float | None = DEFAULT_RATE_CAP,
) -> FloatOrArray:
    """Evaluate the decoherence rate at a cyclic frequency, in 1/us.

    ``f_ghz`` is a float or an ndarray grid; a grid gives an ndarray of
    rates.  ``rate_cap`` clips singular spectra (the protected model has
    a pole inside the default window); pass ``None`` for the raw value.
    """
    try:
        raw = model.rate_kernel
    except AttributeError:
        raise TypeError(f"unknown spectrum model {model!r}") from None
    if isinstance(f_ghz, np.ndarray):
        if not np.all(f_ghz > 0.0):
            raise SpectrumError("frequencies must be > 0")
        with np.errstate(divide="ignore", over="ignore"):
            return raw(f_ghz) if rate_cap is None else np.minimum(raw(f_ghz), rate_cap)
    if not f_ghz > 0.0:
        raise SpectrumError(f"frequency must be > 0, got {f_ghz!r}")
    return rate_fn(model, rate_cap)(f_ghz)


def rate_fn(model: SpectrumModel, rate_cap: float | None = DEFAULT_RATE_CAP) -> RateKernel:
    """The model's bound rate kernel with the cap applied (hot-loop form).

    Skips ``eval_rate``'s checks; callers must stay at f > 0 and inside
    any tabulated domain.  With a cap it takes floats only; grids go
    through ``eval_rate``.
    """
    raw = model.rate_kernel
    if rate_cap is None:
        return raw

    def capped(f: float) -> float:
        r = raw(f)
        return rate_cap if r > rate_cap else r

    return capped


class ArgmaxResult(NamedTuple):
    f_ghz: float
    rate_per_us: float
    cap_hit: bool


class CoherenceTime(NamedTuple):
    t1_us: float
    infinite: bool


def _golden_max(
    fn: Callable[[float], float], a: float, b: float, tol: float
) -> tuple[float, float]:
    """Golden-section maximization on [a, b]; deterministic, leftward-biased ties."""
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc = fn(c)
    fd = fn(d)
    while (b - a) > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = fn(d)
    mid = 0.5 * (a + b)
    return mid, fn(mid)


def _cap_edge(
    fn: Callable[[float], float], off: float, on: float, cap: float, tol: float
) -> float:
    """Edge of a capped plateau between ``off`` and ``on``, located by bisection.

    Assumes fn(off) < cap <= fn(on); either may be the larger.  Returns a
    point within ``tol`` of the crossing with fn >= cap: the leftmost
    plateau point when ``off < on``, the rightmost when ``on < off``.
    """
    while abs(on - off) > tol:
        mid = 0.5 * (on + off)
        if fn(mid) >= cap:
            on = mid
        else:
            off = mid
    return on


def _window_grid(bounds: ControlBounds, grid_points: int) -> np.ndarray:
    """The window's scan grid: ``np.linspace`` over it, both ends exact."""
    if grid_points < 3:
        raise SpectrumError(f"grid needs >= 3 points, got {grid_points}")
    return np.linspace(bounds.f_min_ghz, bounds.f_max_ghz, grid_points)


def _scan_max(
    fn: Callable[[float], float],
    fs: np.ndarray,
    vals: np.ndarray,
    cap: float | None,
    tol: float,
) -> tuple[float, float, bool]:
    """Golden refinement of a grid scan, ties broken toward smaller f.

    ``vals`` are the caller's values of ``fn`` on ``fs``, a
    ``_window_grid``; ``fn`` evaluates single points.  Returns (f*,
    value*, cap_hit).  A maximum on a capped plateau with exact value
    ties returns the plateau's left edge.
    """
    best = int(np.argmax(vals))  # the first maximum: ties toward smaller f
    # The grid only picks the index and its bracket, whose ends are the
    # window's; the value is the scalar one, so the refinement below
    # compares like with like.
    f_best = float(fs[best])
    v_best = fn(f_best)
    a, b = float(fs[max(best - 1, 0)]), float(fs[min(best + 1, len(fs) - 1)])
    if cap is not None and v_best >= cap:
        # Exact ties across the capped plateau: honor the smaller-f tie-break
        # by bisecting for the plateau's left edge.  Grid values never exceed
        # the cap and ``best`` is the first maximum, so the grid point to its
        # left is below the cap.
        edge = _cap_edge(fn, a, f_best, cap, tol) if best > 0 else f_best
        return edge, v_best, True

    if fn(a) == v_best and fn(b) == v_best:
        # Flat neighborhood (constant spectrum): keep the leftmost grid argmax.
        return f_best, v_best, False
    f_ref, v_ref = _golden_max(fn, a, b, tol)
    if cap is not None and v_ref >= cap:
        # Refinement climbed onto a capped plateau narrower than the grid
        # spacing; every grid value was below the cap, so fn(a) < cap.
        return _cap_edge(fn, a, f_ref, cap, tol), v_ref, True
    if v_ref > v_best or (v_ref == v_best and f_ref < f_best):
        f_best, v_best = f_ref, v_ref
    return f_best, v_best, False


def argmax_rate(
    model: SpectrumModel,
    bounds: ControlBounds,
    *,
    grid_points: int = DEFAULT_GRID_POINTS,
    rate_cap: float | None = DEFAULT_RATE_CAP,
) -> ArgmaxResult:
    """Maximize the (capped) rate over the control window.

    Dense grid scan followed by golden-section refinement in the best
    bracket; deterministic for a fixed grid, ties toward smaller f.
    """
    fs = _window_grid(bounds, grid_points)
    vals = eval_rate(model, fs, rate_cap)
    fn = lambda x: eval_rate(model, x, rate_cap)  # noqa: E731
    return ArgmaxResult(*_scan_max(fn, fs, vals, rate_cap, ARGMAX_TOL_GHZ))


def coherence_time(
    model: SpectrumModel,
    bounds: ControlBounds,
    *,
    rate_cap: float | None = DEFAULT_RATE_CAP,
) -> CoherenceTime:
    """T1 at the computation frequency; flagged infinite when the rate is zero."""
    rate = eval_rate(model, bounds.f_cp_ghz, rate_cap)
    if rate == 0.0:
        return CoherenceTime(math.inf, True)
    return CoherenceTime(1.0 / rate, False)


@dataclass(frozen=True)
class GuidelineReport:
    """Spectral-design indicators over a control window.

    ``contrast`` is the rate at the computation frequency over the rate at
    the restoring frequency (small is good); ``trend_slope`` the
    least-squares linear trend of the rate across the window (an
    increasing trend avoids the speed-versus-target trade-off).
    """

    contrast: float
    rate_at_f_cp: float
    restoring_f_ghz: float
    rate_at_restoring: float
    trend_slope: float
    trend_sign: int
    cap_hit: bool
    notes: tuple[str, ...]


def guideline_report(
    model: SpectrumModel,
    bounds: ControlBounds,
    *,
    grid_points: int = DEFAULT_GRID_POINTS,
    rate_cap: float | None = DEFAULT_RATE_CAP,
) -> GuidelineReport:
    best = argmax_rate(model, bounds, grid_points=grid_points, rate_cap=rate_cap)
    rate_cp = eval_rate(model, bounds.f_cp_ghz, rate_cap)
    contrast = rate_cp / best.rate_per_us if best.rate_per_us > 0.0 else math.inf

    fs = _window_grid(bounds, grid_points)
    mean_f = bounds.f_min_ghz + 0.5 * (bounds.f_max_ghz - bounds.f_min_ghz)
    df = fs - mean_f
    slope = float(df @ eval_rate(model, fs, rate_cap) / (df @ df))
    sign = 0 if slope == 0.0 else (1 if slope > 0.0 else -1)

    notes: list[str] = []
    if isinstance(model, Mixed):
        notes.append(
            "mixed model evaluated with raw 2pi-GHz numerics per its published"
            " unit convention"
        )
    if rate_cp == 0.0:
        notes.append("zero rate at the computation frequency: coherence time infinite")
    if best.cap_hit:
        notes.append(f"scan hit the rate cap ({rate_cap!r}/us); peak value is capped")
    return GuidelineReport(
        contrast=contrast,
        rate_at_f_cp=rate_cp,
        restoring_f_ghz=best.f_ghz,
        rate_at_restoring=best.rate_per_us,
        trend_slope=slope,
        trend_sign=sign,
        cap_hit=best.cap_hit,
        notes=tuple(notes),
    )


def _read_rows(source: str | TextIO, header: str, error: type[TableParseError]):
    """Yield ``(line number, x, y)`` for each row of a two-column CSV table.

    Blank lines and a first-line ``header`` (lower-cased, spaces removed)
    are skipped; ``error`` names the line of a malformed row.
    """
    stream = io.StringIO(source) if isinstance(source, str) else source
    for line_no, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line or (line_no == 1 and line.lower().replace(" ", "") == header):
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise error(line_no, f"expected 2 comma-separated fields, got {len(parts)}")
        try:
            x, y = float(parts[0]), float(parts[1])
        except ValueError:
            raise error(line_no, f"not numeric: {line!r}") from None
        yield line_no, x, y


def _column_cells(column) -> list[str]:
    """A column's cells as text: a float64 array at once, else one cell at a time."""
    if isinstance(column, np.ndarray) and column.dtype == np.float64:
        return list(map(repr, column.tolist()))
    return [c if isinstance(c, str) else repr(float(c)) for c in column]


def _constant_cell(column) -> str | None:
    """The one cell text of a float64 array whose values share one bit pattern, else None."""
    if isinstance(column, np.ndarray) and column.dtype == np.float64 and column.size:
        bits = column.view(np.int64)
        if (bits == bits[0]).all():
            return repr(float(column[0]))
    return None


def _write_columns(stream: TextIO, header: str, columns, lead=None) -> None:
    """Write ``header``, then one comma-separated line per row of equal-length ``columns``.

    A ``str`` cell is written as given; any other cell as
    ``repr(float(cell))``, which ``float`` and ``_read_rows`` read back
    exactly.  ``repr`` is most of the cost, so the cells are formatted a
    column of a block of ``WRITE_BLOCK_ROWS`` rows at a time, a float64
    array whose values all have the same bits (a stepped run's coherence,
    a constant law's frequency) once per table, and ``lead``, a
    ``(stream, n)`` pair, gets the table's first two columns, header and
    first ``n`` rows, from the same text.
    """
    stream.write(header + "\n")
    out, n = lead or (None, 0)
    if out is not None:
        out.write(",".join(header.split(",")[:2]) + "\n")
    rows = len(columns[0]) if columns else 0
    constant = [_constant_cell(col) for col in columns]
    for i in range(0, rows, WRITE_BLOCK_ROWS):
        m = min(WRITE_BLOCK_ROWS, rows - i)
        cells = [
            [c] * m if c else _column_cells(col[i : i + m]) for col, c in zip(columns, constant)
        ]
        stream.write("\n".join(map(",".join, zip(*cells))) + "\n")
        if n > i:
            held = zip(cells[0][: n - i], cells[1][: n - i])
            out.write("\n".join(map(",".join, held)) + "\n")


def load_tabulated(source: str | TextIO) -> Tabulated:
    """Parse a tabulated spectrum from ``f_GHz,rate_per_us`` rows; errors name the line."""
    points: list[tuple[float, float]] = []
    for line_no, f, rate in _read_rows(source, "f_ghz,rate_per_us", SpectrumParseError):
        if not math.isfinite(f) or not math.isfinite(rate):
            raise SpectrumParseError(line_no, f"non-finite value: {f!r},{rate!r}")
        if rate < 0.0:
            raise SpectrumParseError(line_no, f"negative rate {rate!r}")
        if points and f <= points[-1][0]:
            raise SpectrumParseError(line_no, f"frequency {f!r} not strictly increasing")
        points.append((f, rate))
    if len(points) < 2:
        raise SpectrumParseError(0, "need at least 2 data rows")
    return Tabulated(tuple(points))


def dump_tabulated(model: Tabulated) -> str:
    """Serialize a tabulated spectrum; round-trips exactly through load_tabulated."""
    buffer = io.StringIO()
    _write_columns(buffer, "f_GHz,rate_per_us", list(zip(*model.points)))
    return buffer.getvalue()
