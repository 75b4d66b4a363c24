"""Independent oracles shared by the test modules.

These deliberately avoid the package's integration and scan machinery:
closed-form chained exponentials for piecewise-constant dynamics, a
plain dense scan for maximization, the scalar-loop grid scan that
``_scan_max`` replaced (it shares only the package's refinement helpers,
which that change left as they were), the ``(model, f)`` rate
formulas and control objective that the bound rate kernels replaced, and
the tracked refresh as it was before it learned the capped plateau's
right edge, the Python double loop that scored ``verify_pmp``'s
probes before it became one numpy pass, and the table writer's per-cell
rule from before it wrote in blocks and formatted each cell once.  Two
references wrap package internals that only tests use: one exact
constant-control step, and the adaptive stepper replaying a recorded
schedule, which the closed-form robustness replay is checked against.
"""

from __future__ import annotations

import math
import random

import numpy as np

from qreset import (
    JQF,
    ControlBounds,
    Environment,
    FixedSchedule,
    Lorentzian,
    Mixed,
    Numerics,
    Protected,
    QubitState,
    SpectrumModel,
    Tabulated,
    Trajectory,
    costate_along,
    equilibrium_population,
    eval_rate,
    integrate_restore,
    thermal_ratio,
)
import qreset.control
from qreset.dynamics import _advance
from qreset.spectra import _cap_edge, _golden_max
from qreset.thermo import RAD_PER_US_PER_GHZ

# One model of each spectrum kind; the tabulated one has a node at the
# protected pole's frequency, 6.5 GHz.
KERNEL_MODELS = {
    "lz": Lorentzian(),
    "prot": Protected(),
    "mix": Mixed(),
    "jqf": JQF(),
    "tab": Tabulated(((2.0, 0.5), (3.7, 2.25), (6.5, 0.125), (8.0, 1.5))),
}


def chained_exponential_population(
    p0: float,
    segments: list[tuple[float, float]],
    model: SpectrumModel,
    env: Environment,
    rate_cap: float | None = 1.0e6,
) -> float:
    """Exact population after a sequence of (f_GHz, dt_us) segments."""
    p = p0
    for f, dt in segments:
        rate = eval_rate(model, f, rate_cap)
        p_eq = equilibrium_population(thermal_ratio(f, env))
        p = p_eq + (p - p_eq) * math.exp(-rate * dt)
    return p


def step_constant(
    state: QubitState,
    f_ghz: float,
    dt_us: float,
    model: SpectrumModel,
    env: Environment,
    *,
    rate_cap: float | None = None,
) -> QubitState:
    """Advance the state by ``dt_us`` at a fixed control frequency."""
    rate = eval_rate(model, f_ghz, rate_cap)
    p_eq = equilibrium_population(thermal_ratio(f_ghz, env))
    return QubitState(*_advance(state.p_e, state.p_r, state.p_i, rate, p_eq, f_ghz, dt_us))


def stepper_replay(
    trajectory: Trajectory,
    initial: QubitState,
    t_final_us: float,
    model: SpectrumModel,
    env: Environment,
    bounds: ControlBounds,
    numerics: Numerics = Numerics(),
) -> Trajectory:
    """Re-integrate a recorded run's schedule with the adaptive stepper up to ``t_final_us``."""
    schedule = FixedSchedule(trajectory.schedule())
    return integrate_restore(
        initial, schedule, model, env, bounds, numerics, t_final=t_final_us
    )


def brute_force_argmax(fn, lo: float, hi: float, n: int) -> tuple[float, float]:
    """Dense-grid argmax with leftward tie-breaking."""
    best_f, best_v = lo, fn(lo)
    for i in range(1, n):
        f = lo + (hi - lo) * i / (n - 1)
        v = fn(f)
        if v > best_v:
            best_f, best_v = f, v
    return best_f, best_v


def scan_max_scalar_reference(fn, f_lo, f_hi, grid_points, cap, tol):
    """The scalar-loop grid scan that ``_scan_max`` vectorized, kept as an oracle."""
    step = (f_hi - f_lo) / (grid_points - 1)
    fs = [f_lo + i * step for i in range(grid_points - 1)] + [f_hi]
    vals = [fn(f) for f in fs]
    best = 0
    for i in range(1, len(vals)):
        if vals[i] > vals[best]:
            best = i
    f_best, v_best = fs[best], vals[best]
    if cap is not None and v_best >= cap:
        left = best
        while left > 0 and vals[left - 1] >= cap:
            left -= 1
        if left == best and best > 0:
            edge = _cap_edge(fn, fs[best - 1], f_best, cap, tol)
        elif left > 0:
            edge = _cap_edge(fn, fs[left - 1], fs[left], cap, tol)
        else:
            edge = fs[0]
        return edge, v_best, True
    a = fs[best - 1] if best > 0 else fs[0]
    b = fs[best + 1] if best < len(fs) - 1 else fs[-1]
    if fn(a) == v_best and fn(b) == v_best:
        return f_best, v_best, False
    f_ref, v_ref = _golden_max(fn, a, b, tol)
    if cap is not None and v_ref >= cap:
        return _cap_edge(fn, a, f_ref, cap, tol), v_ref, True
    if v_ref > v_best or (v_ref == v_best and f_ref < f_best):
        f_best, v_best = f_ref, v_ref
    return f_best, v_best, False


def _ref_lorentzian(model, f):
    half = 0.5 * model.kappa_ghz
    shape = half * half / ((f - model.f_r_ghz) ** 2 + half * half)
    peak = RAD_PER_US_PER_GHZ * model.g_ghz * model.g_ghz / model.kappa_ghz
    return peak * shape


def _ref_protected(model, f):
    ff2 = model.f_f_ghz * model.f_f_ghz
    fr2 = model.f_r_ghz * model.f_r_ghz
    f2 = f * f
    num = 4.0 * model.kappa_ghz * model.g_ghz**2 * model.f_r_ghz**3 * (ff2 - f2) ** 2
    den = f * (fr2 - ff2) ** 2 * (fr2 - f2) ** 2
    try:
        return RAD_PER_US_PER_GHZ * num / den
    except ZeroDivisionError:
        return math.inf


def _ref_mixed(model, f):
    purcell = (
        model.c_purcell
        * model.kappa_ghz**2
        / ((f - model.f_r_ghz) ** 2 + model.kappa_ghz**2)
    )
    return model.c_phi / f**0.9 + model.c_q * f + purcell + model.c_other


def _ref_jqf(model, f):
    w2 = model.four_kappa_j_ghz * model.four_kappa_j_ghz
    shape = w2 / ((f - model.f_0_ghz) ** 2 + w2)
    return 1.0 / (model.tau0_us + model.tau_us * shape)


def _ref_tabulated(model, f):
    fs, rates = zip(*model.points)
    rate = np.interp(f, np.array(fs), np.array(rates))
    return rate if isinstance(f, np.ndarray) else float(rate)


_REF_RATES = {
    Lorentzian: _ref_lorentzian,
    Protected: _ref_protected,
    Mixed: _ref_mixed,
    JQF: _ref_jqf,
    Tabulated: _ref_tabulated,
}


def reference_rate(model: SpectrumModel, f, rate_cap: float | None = 1.0e6):
    """Rate from the full ``(model, f)`` formula, every constant recomputed per call.

    Takes a float or an ndarray grid (the caller silences numpy's divide
    warning at the protected pole) and caps like ``eval_rate``.
    """
    rate = _REF_RATES[type(model)](model, f)
    if rate_cap is None:
        return rate
    if isinstance(f, np.ndarray):
        return np.minimum(rate, rate_cap)
    return rate_cap if rate > rate_cap else rate


def reference_objective(model: SpectrumModel, env: Environment, rate_cap, p_e: float):
    """Scalar control objective ``reference_rate(f) * (p_e - p_eq(f))``.

    Same signature as ``qreset.control._objective``, so a test can
    substitute it there and rerun the integrator.
    """
    c = env.ratio_per_ghz

    def j(f: float) -> float:
        e = math.exp(-c * f)
        return reference_rate(model, f, rate_cap) * (p_e - e / (1.0 + e))

    return j


def reference_optimal_frequency(
    p_e,
    model,
    env,
    bounds,
    *,
    grid_points=4001,
    rate_cap=1.0e6,
    near=None,
    grid=None,
    window_ghz=0.02,
    refine_tol_ghz=1.0e-7,
    stencil_ghz=2.0e-4,
):
    """The tracked branch of ``qreset.control.optimal_frequency`` without the plateau rule.

    Accepts its signature, so a test can substitute it there for tracked
    runs on the built-in analytic spectra; ``grid_points`` and ``grid``
    are ignored, and the window, tolerance and stencil defaults are the
    package's constants.  Parabolic steps from ``near`` come first; the window loop
    of golden sections is the fallback.  The objective is looked up on
    ``qreset.control`` at call time, as the package does.
    """
    j = qreset.control._objective(model, env, rate_cap, p_e)
    f_lo, f_hi = bounds.f_min_ghz, bounds.f_max_ghz
    f = min(max(near, f_lo), f_hi)
    lo = max(f_lo, f - window_ghz)
    hi = min(f_hi, f + window_ghz)
    x, width, jx = f, stencil_ghz, None
    for _ in range(64):
        h = min(width, x - lo, hi - x)
        if not h >= refine_tol_ghz:
            break
        if jx is None:
            jx = j(x)
        ja, jb = j(x - h), j(x + h)
        curvature = ja - 2.0 * jx + jb
        if not curvature < 0.0:
            break
        step = h * (ja - jb) / (2.0 * curvature)
        noise = h * math.ulp(jx) / -curvature
        if abs(step) <= refine_tol_ghz / 2.0 or abs(step) <= noise:
            if h <= stencil_ghz:
                return x
            width = stencil_ghz
        else:
            x, jx, width = x + step, None, max(2.0 * abs(step), stencil_ghz / 16.0)
    probe = max(refine_tol_ghz, 1.0e-7)
    for _ in range(2048):
        lo = max(f_lo, f - window_ghz)
        hi = min(f_hi, f + window_ghz)
        if lo == f_lo and f - f_lo <= probe and j(f_lo) >= j(f_lo + probe):
            return f_lo
        if hi == f_hi and f_hi - f <= probe and j(f_hi) >= j(f_hi - probe):
            return f_hi
        f_new, _ = _golden_max(j, lo, hi, refine_tol_ghz)
        if f_new <= lo + 2.0 * refine_tol_ghz and lo > f_lo:
            f = lo
            continue
        if f_new >= hi - 2.0 * refine_tol_ghz and hi < f_hi:
            f = hi
            continue
        return min(max(f_new, f_lo), f_hi)
    return f


def verify_pmp_loop_reference(trajectory, model, env, bounds, *, rate_cap=1.0e6):
    """``verify_pmp`` with its probes scored one (time, frequency) pair at a time.

    Same probe times, alternatives and products as the package; the
    strict ``>`` keeps the first maximum, times outer and frequencies inner.
    """
    c = qreset.control
    costate = costate_along(trajectory, model, env)
    n = trajectory.n_samples
    if n <= c.PMP_PROBE_TIMES:
        indices = list(range(n))
    else:
        indices = sorted(random.Random(c.PMP_SEED).sample(range(n), c.PMP_PROBE_TIMES))
    span = bounds.f_max_ghz - bounds.f_min_ghz
    alts = [
        bounds.f_min_ghz + i * span / (c.PMP_ALT_FREQUENCIES - 1)
        for i in range(c.PMP_ALT_FREQUENCIES)
    ]
    alt_rates = [eval_rate(model, f, rate_cap) for f in alts]
    alt_peqs = [equilibrium_population(thermal_ratio(f, env)) for f in alts]
    worst, worst_t, worst_f = -math.inf, float(trajectory.t_us[0]), alts[0]
    for k in indices:
        lam = float(costate.costate[k])
        pe = float(trajectory.p_e[k])
        h_chosen = float(costate.hamiltonian[k])
        for f, r, peq in zip(alts, alt_rates, alt_peqs):
            violation = h_chosen - (1.0 - lam * r * (pe - peq))
            if violation > worst:
                worst, worst_t, worst_f = violation, float(trajectory.t_us[k]), f
    max_h = costate.max_abs_hamiltonian
    min_lam = costate.min_costate
    return c.PmpReport(
        max_abs_hamiltonian=max_h,
        hamiltonian_ok=max_h < c.PMP_HAMILTONIAN_TOL,
        min_costate=min_lam,
        costate_positive=min_lam > 0.0,
        worst_minimality_violation=worst,
        pointwise_minimal=worst <= c.PMP_MINIMALITY_TOL,
        n_probed_times=len(indices),
        n_alt_frequencies=c.PMP_ALT_FREQUENCIES,
        violation_t_us=worst_t,
        violation_f_ghz=worst_f,
    )


def reference_table(header: str, rows) -> str:
    """A CSV table as the writer's per-cell rule gives it, one row at a time."""
    cell = lambda c: c if isinstance(c, str) else repr(float(c))  # noqa: E731
    return header + "\n" + "".join(",".join(map(cell, row)) + "\n" for row in rows)
