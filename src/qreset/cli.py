"""Command-line reproduction harness.

Commands::

    qreset run                  one scenario -> report.json + trajectory.csv
    qreset figure fig2|fig3a|fig3b|fig4   plot-ready CSV data
    qreset sweep                one scenario swept along one numeric field
    qreset calibrate-temperature  best-fit environment temperature
    qreset spectra              rate tables for the built-in spectra

Scenario configs are described in ``qreset.scenario``.  Outputs are
deterministic: identical configs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict, astuple, dataclass, fields, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .control import schedule_to_csv  # noqa: F401  (bench/tracer.py wraps this name)
from .dynamics import MAX_GRID_POINTS, IntegrationError, Numerics, Trajectory
from .reset import (
    AchievabilityError,
    ResetReport,
    report_to_dict,
    run_reset,
    thermodynamic_length_bound,
)
from .robustness import fidelity_sweep, make_baseline
from .scenario import (
    BUILTIN_SCENARIO_NAMES,
    PAPER_W_EX_NORM_TARGETS,
    ConfigError,
    Scenario,
    _SPECTRUM_CLASSES,
    _SPECTRUM_KINDS,
    builtin_scenario,
    load_scenario,
    scenario_hash,
)
from .spectra import ControlBounds, SpectrumError, eval_rate, _window_grid, _write_columns
from .thermo import LN2

__all__ = [
    "CalibrationResult",
    "calibrate_temperature",
    "main",
    "console_main",
]


_REPORT_HEADER = ",".join(f.name for f in fields(ResetReport))


def _write_json(path: Path, data) -> None:
    path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")


def _write_csv(path: Path, header: str, columns) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        _write_columns(fh, header, columns)


def _run_dir(out_dir: Path, scenario: Scenario) -> Path:
    return out_dir / f"{scenario.name}-{scenario_hash(scenario)}"


def _execute(
    scenario: Scenario, base_dir: Path | None = None
) -> tuple[ResetReport, Trajectory]:
    model, env, bounds, law, numerics = scenario.build(base_dir)
    return run_reset(model, env, bounds, law, numerics)


# ----------------------------------------------------------------------------
# run
# ----------------------------------------------------------------------------


def cmd_run(args: argparse.Namespace) -> int:
    scenario, base_dir = _resolve_scenario(args)
    scenario = replace(scenario, numerics=_override_numerics(scenario.numerics, args))
    out_dir = Path(args.out)
    report, trajectory = _execute(scenario, base_dir)
    run_dir = _run_dir(out_dir, scenario)
    run_dir.mkdir(parents=True, exist_ok=True)
    _write_json(run_dir / "config.json", scenario.to_dict())
    if args.format == "csv":
        _write_csv(run_dir / "report.csv", _REPORT_HEADER, [[v] for v in astuple(report)])
    else:
        _write_json(run_dir / "report.json", report_to_dict(report))
    with open(run_dir / "trajectory.csv", "w", encoding="utf-8") as fh:
        with open(run_dir / "schedule.csv", "w", encoding="utf-8") as schedule:
            trajectory.to_csv(fh, schedule)
    print(
        f"{scenario.name}: tau_st_us={report.tau_st!r}"
        f" tau_st_over_T1={report.tau_st_over_T1!r}"
        f" W_ex_norm={report.W_ex_norm!r}"
    )
    return 0


def _resolve_scenario(args: argparse.Namespace) -> tuple[Scenario, Path | None]:
    """The scenario and the directory its relative paths resolve against."""
    if getattr(args, "config", None):
        path = Path(args.config)
        return load_scenario(path), path.resolve().parent
    if getattr(args, "scenario", None):
        return builtin_scenario(args.scenario), None
    raise ConfigError("either --config PATH or --scenario NAME is required")


def _override_numerics(numerics: Numerics, args: argparse.Namespace) -> Numerics:
    """``numerics`` with the ``--grid``/``--cap`` values that were given, validated."""
    changes = {}
    if args.grid is not None:
        changes["grid_points"] = args.grid
    if args.cap is not None:
        changes["rate_cap_per_us"] = args.cap
    try:
        return replace(numerics, **changes)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


# ----------------------------------------------------------------------------
# figure
# ----------------------------------------------------------------------------

_FIG4_POINTS = {"population": 41, "coherence": 21, "control_time": 31}


def _figure_scenarios(args: argparse.Namespace) -> tuple[list[Scenario], Path | None]:
    """The four figure scenarios and the directory their relative paths resolve against."""
    if getattr(args, "config_dir", None):
        base = Path(args.config_dir).resolve()
        return [load_scenario(base / f"{k}.json") for k in _SPECTRUM_KINDS], base
    return [builtin_scenario(n) for n in BUILTIN_SCENARIO_NAMES], None


def cmd_figure(args: argparse.Namespace) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    scenarios, base_dir = _figure_scenarios(args)
    # Files and rows are named by the config kind, not by the spectrum:
    # --config-dir configs may share one tabulated spectrum.
    keyed = list(zip(_SPECTRUM_KINDS, scenarios))
    which = args.which

    if which == "fig2":
        for key, scenario in keyed:
            model, env, bounds, law, numerics = scenario.build(base_dir)
            _, traj = run_reset(model, env, bounds, law, numerics)
            control = (traj.t_us, traj.p_e, traj.f_ghz)
            _write_csv(out_dir / f"fig2_control_{key}.csv", "t_us,p_e,f_GHz", control)
            grid = _window_grid(bounds, 1201)
            spectrum = (grid, eval_rate(model, grid, numerics.rate_cap_per_us))
            _write_csv(out_dir / f"fig2_spectrum_{key}.csv", "f_GHz,rate_per_us", spectrum)
            del traj, control  # released before the next run records its rows
        return 0

    # T1 is infinite for prot, where t / T1 and T_reset / T1 read 0.0.
    if which == "fig3a":
        terminals = []
        for key, scenario in keyed:
            report, traj = _execute(scenario, base_dir)
            idx = _decimate_indices(traj.n_samples, 2000)
            t_us = traj.t_us[idx]
            columns = (t_us, t_us / report.T1, traj.p_e[idx])
            _write_csv(out_dir / f"fig3a_{key}.csv", "t_us,t_over_T1,p_e", columns)
            terminals.append((key, traj.t_us[-1], report.tau_st_over_T1, traj.p_e[-1]))
            del traj
        header = "spectrum,t_us,t_over_T1,p_e"
        _write_csv(out_dir / "fig3a_terminals.csv", header, list(zip(*terminals)))
        return 0

    if which == "fig3b":
        points = []
        for key, scenario in keyed:
            report = _execute(scenario, base_dir)[0]
            flag = str(report.t1_infinite).lower()
            points.append((key, report.T_reset / report.T1, report.W_ex_norm, flag))
        header = "spectrum,T_reset_over_T1,W_ex_norm,t1_infinite"
        _write_csv(out_dir / "fig3b_points.csv", header, list(zip(*points)))
        xs = np.logspace(-3, 1, 121)
        bound = (xs, [thermodynamic_length_bound(x) / LN2 for x in xs.tolist()])
        _write_csv(out_dir / "fig3b_bound.csv", "T_reset_over_T1,W_TL_norm", bound)
        return 0

    if which == "fig4":
        for key, scenario in keyed:
            model, env, bounds, law, numerics = scenario.build(base_dir)
            baseline = make_baseline(model, env, bounds, law, numerics)
            for axis, n_points in _FIG4_POINTS.items():
                curve = fidelity_sweep(baseline, axis, n_points)
                with open(out_dir / f"fig4_{key}_{axis}.csv", "w", encoding="utf-8") as fh:
                    curve.to_csv(fh)
            del baseline
        return 0

    raise ConfigError(f"unknown figure {which!r}")


def _decimate_indices(n: int, max_rows: int) -> list[int]:
    if n <= max_rows:
        return list(range(n))
    # The stride exceeds 1, so the rounded indices rise strictly and end at n - 1.
    stride = (n - 1) / (max_rows - 1)
    return [round(i * stride) for i in range(max_rows)]


# ----------------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------------

_SWEEPABLE = ("temperature_K", "epsilon", "f_cp_GHz", "delta_f_GHz", "tau_sw_us")


def parse_axis(spec: str) -> tuple[str, float, float, int]:
    try:
        name, rng = spec.split("=", 1)
        start_s, stop_s, n_s = rng.split(":")
        start, stop, n = float(start_s), float(stop_s), int(n_s)
    except ValueError:
        raise ConfigError(
            f"axis must look like 'field=start:stop:n', got {spec!r}"
        ) from None
    # Checked before np.linspace allocates the axis.
    if not 1 <= n <= MAX_GRID_POINTS:
        raise ConfigError(f"axis needs 1 <= n <= {MAX_GRID_POINTS} points, got {n}")
    if name not in _SWEEPABLE:
        raise ConfigError(f"unknown sweep field {name!r}; valid: {_SWEEPABLE}")
    return name, start, stop, n


def cmd_sweep(args: argparse.Namespace) -> int:
    scenario, base_dir = _resolve_scenario(args)
    name, start, stop, n = parse_axis(args.axis)
    values = [start] if n == 1 else list(np.linspace(start, stop, n))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for value in values:
        report = _execute(replace(scenario, **{name: float(value)}), base_dir)[0]
        rows.append((value, *astuple(report)))
    path = out_dir / f"sweep_{scenario.name}_{name}.csv"
    _write_csv(path, f"{name},{_REPORT_HEADER}", list(zip(*rows)))
    print(f"wrote {path}")
    return 0


# ----------------------------------------------------------------------------
# calibrate-temperature
# ----------------------------------------------------------------------------

# Coarser but much faster settings for the calibration runs; the W values
# they produce agree with the default numerics to ~1e-3 relative.
CALIBRATION_NUMERICS = Numerics(grid_points=2001, control_drift_ghz=3.0e-3)
# The search stops once a predicted step is at most this long; a fit this
# near a bracket end is reported as lying outside the bracket.
CALIBRATION_TOL_K = 1.0e-6
# The default search bracket (t_lo_K, t_hi_K) of calibrate_temperature and --t-lo/--t-hi.
CALIBRATION_BRACKET_K = (0.005, 0.020)
# Steps after which a search that has not settled is an error.
_CALIBRATION_MAX_STEPS = 20


@dataclass(frozen=True)
class CalibrationResult:
    best_temperature_K: float
    sse: float
    computed: dict[str, float]
    targets: dict[str, float]
    residuals: dict[str, float]


def calibrate_temperature(
    targets: Mapping[str, float],
    *,
    t_lo_K: float = CALIBRATION_BRACKET_K[0],
    t_hi_K: float = CALIBRATION_BRACKET_K[1],
) -> CalibrationResult:
    """Best-fit environment temperature against target W_ex/(k_B T ln 2) values.

    Minimizes the sum of squared relative errors over the named built-in
    spectra by secant Gauss-Newton steps in u = 1/T on the ratios
    ``W_k / target_k`` within ``[t_lo_K, t_hi_K]``: a 1/T-law step from the
    midpoint, then the best fit along the line through the lowest-error
    temperature and the last one run, bisecting inside the bracket of worse
    temperatures when a step does not lower the error.  It stops once a step
    would move at most 1e-6 K and reports the lowest-error temperature from
    the memo: 3 or 4 temperatures on [5, 20] mK, one run per target at each.
    A fit within 1e-6 K of either end, a computed value that is not positive,
    a step that moves no ratio and 20 unsettled steps raise ``ConfigError``.
    """
    unknown = set(targets) - set(_SPECTRUM_KINDS)
    if unknown:
        raise ConfigError(f"unknown spectra in targets: {sorted(unknown)}")
    if not targets:
        raise ConfigError("at least one target is required")
    for key, value in targets.items():
        if not (math.isfinite(value) and value > 0.0):
            raise ConfigError(f"target for {key!r} must be finite and > 0, got {value!r}")
    if not (math.isfinite(t_hi_K) and 0.0 < t_lo_K < t_hi_K):
        raise ConfigError(
            f"temperature bracket needs finite 0 < t_lo_K < t_hi_K,"
            f" got [{t_lo_K!r}, {t_hi_K!r}]"
        )

    computed_cache: dict[float, dict[str, float]] = {}

    def computed_at(temperature: float) -> dict[str, float]:
        if temperature not in computed_cache:
            out = {}
            for key in targets:
                scenario = Scenario(
                    name=key,
                    spectrum=key,
                    temperature_K=temperature,
                    numerics=CALIBRATION_NUMERICS,
                )
                report = _execute(scenario)[0]
                out[key] = report.W_ex_norm
            computed_cache[temperature] = out
        return computed_cache[temperature]

    def ratios_at(temperature: float) -> list[float]:
        values = computed_at(temperature)
        ratios = [values[k] / targets[k] for k in targets]
        if not all(w > 0.0 for w in ratios):
            raise ConfigError(
                f"computed W_ex_norm at {temperature!r} K is not positive: {values!r}"
            )
        return ratios

    def clamp(temperature: float) -> float:
        return min(max(temperature, t_lo_K), t_hi_K)

    def law_step(temperature: float, ratios: list[float]) -> float:
        # The T that fits best if every W_ex_norm scales as 1/T.
        return clamp(temperature * sum(w * w for w in ratios) / sum(ratios))

    def sse_of(ratios: list[float]) -> float:
        return sum((w - 1.0) ** 2 for w in ratios)

    # best_t is the lowest-error temperature run; lo and hi are the nearest
    # temperatures run below and above it, none of which fits better.
    best_t = 0.5 * (t_lo_K + t_hi_K)
    w_best = ratios_at(best_t)
    t_next = law_step(best_t, w_best)
    lo, hi = -math.inf, math.inf
    for step in range(_CALIBRATION_MAX_STEPS):
        if abs(t_next - best_t) <= CALIBRATION_TOL_K:
            break
        w_next = ratios_at(t_next)
        du = 1.0 / t_next - 1.0 / best_t
        slopes = [(a - b) / du for a, b in zip(w_next, w_best)]
        norm = sum(b * b for b in slopes)
        if norm == 0.0:
            raise ConfigError(
                f"no computed W_ex_norm changes between {best_t!r} and {t_next!r} K"
            )
        u = 1.0 / t_next + sum(b * (1.0 - w) for b, w in zip(slopes, w_next)) / norm
        t_fit = clamp(1.0 / u) if u > 0.0 else t_hi_K
        if step == 0 and abs(t_fit - t_next) <= CALIBRATION_TOL_K:
            # A line millikelvins long cannot certify a fit: for conflicting
            # targets it can stop ~0.1 mK short.  Take a second 1/T-law step.
            t_fit = law_step(t_next, w_next)
        worse = t_next
        if sse_of(w_next) < sse_of(w_best):
            worse, best_t, w_best = best_t, t_next, w_next
        lo, hi = (worse, hi) if worse < best_t else (lo, worse)
        if not lo < t_fit < hi:
            # An overshoot, or a step below the resolution of the computed
            # values (jqf's jitter by ~1e-5 relative): bisect.
            t_fit = 0.5 * (best_t + (lo if t_fit <= lo else hi))
        t_next = t_fit
    else:
        raise ConfigError(
            f"temperature search did not settle in {_CALIBRATION_MAX_STEPS} steps;"
            f" best at {best_t!r} K, next at {t_next!r} K"
        )
    if min(best_t - t_lo_K, t_hi_K - best_t) <= CALIBRATION_TOL_K:
        raise ConfigError(
            f"best-fit temperature {best_t!r} K lies at the edge of the search"
            f" bracket [{t_lo_K!r}, {t_hi_K!r}] K; the fit is outside it"
        )
    computed = computed_at(best_t)
    residuals = {k: (computed[k] - targets[k]) / targets[k] for k in targets}
    sse = sum(r * r for r in residuals.values())
    return CalibrationResult(
        best_temperature_K=best_t,
        sse=sse,
        computed=computed,
        targets=dict(targets),
        residuals=residuals,
    )


def cmd_calibrate(args: argparse.Namespace) -> int:
    out = Path(args.out) if args.out else None
    if out is not None and (out.is_dir() or not out.parent.is_dir()):
        # Checked before the search, which would otherwise run to the end first.
        raise ConfigError(f"--out must name a file in an existing directory, got {args.out!r}")
    try:
        raw = [float(x) for x in args.targets.split(",")]
    except ValueError:
        raise ConfigError(f"--targets must be numbers, got {args.targets!r}") from None
    if len(raw) != 4:
        raise ConfigError(
            f"--targets needs four comma-separated values (lz,prot,mix,jqf),"
            f" got {len(raw)}"
        )
    targets = dict(zip(_SPECTRUM_KINDS, raw))
    result = calibrate_temperature(targets, t_lo_K=args.t_lo, t_hi_K=args.t_hi)
    print(f"best-fit temperature: {result.best_temperature_K * 1e3:.4f} mK")
    for key in _SPECTRUM_KINDS:
        print(
            f"  {key}: computed={result.computed[key]:.4f}"
            f" target={result.targets[key]:.4f}"
            f" residual={result.residuals[key] * 100.0:+.2f}%"
        )
    if out is not None:
        _write_json(out, asdict(result))
    return 0


# ----------------------------------------------------------------------------
# spectra tables
# ----------------------------------------------------------------------------


def cmd_spectra(args: argparse.Namespace) -> int:
    bounds = ControlBounds()
    numerics = _override_numerics(Numerics(grid_points=601), args)
    fs = _window_grid(bounds, numerics.grid_points)
    cap = numerics.rate_cap_per_us
    rates = [eval_rate(_SPECTRUM_CLASSES[k](), fs, cap) for k in _SPECTRUM_KINDS]
    header = "f_GHz," + ",".join(_SPECTRUM_KINDS)
    columns = (fs, *rates)
    if args.out:
        _write_csv(Path(args.out), header, columns)
        print(f"wrote {args.out}")
    else:
        _write_columns(sys.stdout, header, columns)
    return 0


# ----------------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qreset",
        description="Time-optimal reset protocols for frequency-tunable qubits",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one scenario")
    run.add_argument("--config", help="scenario JSON path")
    run.add_argument("--scenario", help=f"builtin name, one of {BUILTIN_SCENARIO_NAMES}")
    run.add_argument("--out", default="out", help="output directory")
    run.add_argument("--grid", type=int, help="override scan grid points")
    run.add_argument("--cap", type=float, help="override rate cap (1/us)")
    run.add_argument("--format", choices=("json", "csv"), default="json")
    run.set_defaults(func=cmd_run)

    fig = sub.add_parser("figure", help="emit plot-ready CSV data")
    fig.add_argument("which", choices=("fig2", "fig3a", "fig3b", "fig4"))
    fig.add_argument("--config-dir", help="directory with lz/prot/mix/jqf.json overrides")
    fig.add_argument("--out", default="figures", help="output directory")
    fig.set_defaults(func=cmd_figure)

    sweep = sub.add_parser("sweep", help="sweep one scenario field")
    sweep.add_argument("axis", help="field=start:stop:n")
    sweep.add_argument("--config", help="scenario JSON path")
    sweep.add_argument("--scenario", help="builtin scenario name")
    sweep.add_argument("--out", default="out", help="output directory")
    sweep.set_defaults(func=cmd_sweep)

    cal = sub.add_parser(
        "calibrate-temperature", help="fit the environment temperature"
    )
    cal.add_argument(
        "--targets",
        default=",".join(repr(PAPER_W_EX_NORM_TARGETS[k]) for k in _SPECTRUM_KINDS),
        help="four W_ex/(kT ln2) targets: lz,prot,mix,jqf",
    )
    t_lo, t_hi = CALIBRATION_BRACKET_K
    cal.add_argument("--t-lo", type=float, default=t_lo, help="search floor (K)")
    cal.add_argument("--t-hi", type=float, default=t_hi, help="search ceiling (K)")
    cal.add_argument("--out", help="optional JSON result path")
    cal.set_defaults(func=cmd_calibrate)

    spec = sub.add_parser("spectra", help="print rate tables for the builtin spectra")
    spec.add_argument("--grid", type=int, help="table rows (default 601)")
    spec.add_argument("--cap", type=float, help="rate cap (1/us)")
    spec.add_argument("--out", help="optional output CSV path")
    spec.set_defaults(func=cmd_spectra)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``main``'s parser, built once: parsing changes no parser without an ``append`` default."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, SpectrumError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except (AchievabilityError, IntegrationError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:  # a finite but huge parameter in a rate kernel
        print(f"numerical failure: float overflow: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
