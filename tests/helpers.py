"""Independent oracles shared by the test modules.

These deliberately avoid the package's integration and scan machinery:
closed-form chained exponentials for piecewise-constant dynamics, the
tracked law as a quadrature over ``p_e``, a plain dense scan for
maximization, the scalar-loop grid scan that
``_scan_max`` replaced (it shares only the package's refinement helpers,
which that change left as they were), the ``(model, f)`` rate
formulas and control objective that the bound rate kernels replaced, and
the tracked refresh as it was before it learned the capped plateau's
right edge, the Python double loop that scored ``verify_pmp``'s
probes before it became one numpy pass, and the table writer's per-cell
rule from before it wrote in blocks and formatted each cell once.  The
stepper loop and the tracked runtime are kept as they were before their
builtin calls and per-refresh predictor fit went, and the work ledger's
restore integral and the robustness baseline's offset recurrence as the
Python-float loops they were before they read float64 columns, and the
baseline's other composed maps and the accumulated rate as the plain numpy
expressions they were before each was filled in place, all for a
bit-for-bit comparison.  The stepper copy keeps the open-loop mode to a
fixed time (``t_final``) that the package's stepper no longer has: the
closed-form robustness replay is checked against it.  One reference wraps
a package internal that only tests use: one exact constant-control step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from qreset import (
    JQF,
    LN2,
    ControlBounds,
    Environment,
    FixedSchedule,
    InfiniteRateError,
    Lorentzian,
    Mixed,
    NoDescentError,
    Numerics,
    Protected,
    QubitState,
    SpectrumModel,
    Tabulated,
    TimeLocalOptimal,
    Trajectory,
    WorkLedger,
    argmax_rate,
    coherence_time,
    costate_along,
    entropy,
    equilibrium_population,
    eval_rate,
    integrate_restore,
    thermal_ratio,
)
import qreset.control
from qreset.control import _grid_terms
from qreset.dynamics import ControlLawProtocol
from qreset.robustness import _advance
from qreset.spectra import _cap_edge, _golden_max, _window_grid, rate_fn
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
    """Re-integrate a recorded run's schedule with the reference stepper up to ``t_final_us``."""
    schedule = FixedSchedule(trajectory.schedule())
    return reference_integrate_restore(
        initial, schedule, model, env, bounds, numerics, t_final=t_final_us
    )


def _held_arc(rate: float, p_eq: float, x: float, p_hi: float, p_lo: float):
    """``(duration, int x dp, ln eta)`` of ``p_e`` falling from ``p_hi`` to ``p_lo`` at one f."""
    log_gap = math.log((p_hi - p_eq) / (p_lo - p_eq))
    return log_gap / rate, x * (p_hi - p_lo), -log_gap


def _restore_totals(tau: float, work: float, ln_eta: float, epsilon: float):
    """``(tau_st, W_ex_norm, eta(tau))`` of a restore from ``p_e = 1/2`` to ``epsilon``."""
    w_ex = work + entropy(0.5) - entropy(epsilon)
    return tau, w_ex / LN2, math.exp(ln_eta)


def held_restore_oracle(f_ghz: float, model, env, bounds, rate_cap: float | None = 1.0e6):
    """``(tau_st, W_ex_norm, eta(tau))`` of a restore that holds ``f_ghz`` throughout.

    One segment in closed form, as the tracked law runs on lz and prot.
    """
    e = math.exp(-env.ratio_per_ghz * f_ghz)
    rate = reference_rate(model, f_ghz, rate_cap)
    arc = _held_arc(rate, e / (1.0 + e), env.ratio_per_ghz * f_ghz, 0.5, bounds.epsilon)
    return _restore_totals(*arc, bounds.epsilon)


def tracked_branch_oracle(model, env, bounds, *, nodes: int = 1025, lag_ghz: float = 0.0):
    """``(tau_st, W_ex_norm, eta(tau))`` of the tracked law by quadrature in ``p_e``.

    The time-local law depends on ``p_e`` only, so a restore is a 1-D
    integral over ``p`` from ``epsilon`` to 1/2: ``tau = int dp / J*(p)``,
    ``W_ex = int x(f*(p)) dp + dS`` and ``ln eta = -int dp / (p - p_eq(f*))``.
    For a law pinned at the window's lower edge (mix and jqf), ``f*`` stays
    there down to where ``dJ/df`` changes sign, ``p_dep = q + r q'/r'``
    (``q = p_eq``, ``q' = -c q (1 - q)``, ``r'`` by one complex step,
    exact to round-off for these kernels; Squire & Trapp, SIAM Rev. 40,
    1998).  That arc is one closed-form segment.  Below it, stationarity
    gives the branch explicitly, ``p(f) = q + r q'/r'``, and ``f*`` at each
    of ``nodes`` points uniform in ``ln p`` is its root, followed from the
    previous node by bracketed regula falsi; composite Simpson sums the
    three integrands there.  No maximizer and no stepper is involved.
    The uncapped kernel is used: the cap does not bind on this branch.

    ``lag_ghz`` evaluates the branch integrands that far below ``f*``
    (never below the window): a left-point stepper's held frequency trails
    the branch by at most one step's move.
    """
    kernel, c, f_lo, eps = model.rate_kernel, env.ratio_per_ghz, bounds.f_min_ghz, bounds.epsilon

    def p_eq(f: float) -> float:
        e = math.exp(-c * f)
        return e / (1.0 + e)

    def branch_p(f: float) -> float:
        z = kernel(f + 1.0e-20j)
        q = p_eq(f)
        return q - z.real * c * q * (1.0 - q) / (z.imag / 1.0e-20)

    p_dep = branch_p(f_lo)
    if not eps < p_dep < 0.5:
        raise ValueError(f"no departure from the window edge in (epsilon, 1/2): p_dep={p_dep!r}")
    tau, work, ln_eta = _held_arc(kernel(f_lo), p_eq(f_lo), c * f_lo, 0.5, p_dep)

    us = np.linspace(math.log(p_dep), math.log(eps), nodes)
    terms = np.empty((3, nodes))
    f, step = f_lo, 1.0e-3
    for k, u in enumerate(us):
        p = math.exp(u)
        if k:  # root of branch_p(f) = p above the previous node, where branch_p > p
            a, ga = f, branch_p(f) - p
            b = a + step
            while (gb := branch_p(b) - p) > 0.0:
                a, ga, b = b, gb, b + 2.0 * (b - a)
            side = 0
            for _ in range(100):
                m = (a * gb - b * ga) / (gb - ga)
                gm = branch_p(m) - p
                if gm > 0.0:
                    a, ga = m, gm
                    gb, side = (0.5 * gb if side > 0 else gb), 1  # Illinois: halve the stuck end
                elif gm < 0.0:
                    b, gb = m, gm
                    ga, side = (0.5 * ga if side < 0 else ga), -1
                if gm == 0.0 or b - a <= 1.0e-13:
                    break
            else:
                raise RuntimeError(f"no branch frequency found at p={p!r}")
            step = max(m - f, 1.0e-6)
            f = m
        held = max(f - lag_ghz, f_lo)
        gap = p - p_eq(held)
        terms[:, k] = p / (kernel(held) * gap), p * c * held, p / gap
    weights = np.full(nodes, 2.0)
    weights[1::2], weights[0], weights[-1] = 4.0, 1.0, 1.0
    d_tau, d_work, d_ln = terms @ weights * ((us[0] - us[-1]) / (nodes - 1) / 3.0)
    return _restore_totals(tau + d_tau, work + d_work, ln_eta - d_ln, eps)


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

    Every sample time is probed, against the package's alternatives with
    its products; the strict ``>`` keeps the first maximum, times outer
    and frequencies inner.
    """
    c = qreset.control
    costate = costate_along(trajectory, model, env)
    span = bounds.f_max_ghz - bounds.f_min_ghz
    alts = [
        bounds.f_min_ghz + i * span / (c.PMP_ALT_FREQUENCIES - 1)
        for i in range(c.PMP_ALT_FREQUENCIES)
    ]
    alt_rates = [eval_rate(model, f, rate_cap) for f in alts]
    alt_peqs = [equilibrium_population(thermal_ratio(f, env)) for f in alts]
    worst, worst_t, worst_f = -math.inf, float(trajectory.t_us[0]), alts[0]
    for k in range(trajectory.n_samples):
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
        n_probed_times=trajectory.n_samples,
        n_alt_frequencies=c.PMP_ALT_FREQUENCIES,
        violation_t_us=worst_t,
        violation_f_ghz=worst_f,
    )


def reference_table(header: str, rows) -> str:
    """A CSV table as the writer's per-cell rule gives it, one row at a time."""
    cell = lambda c: c if isinstance(c, str) else repr(float(c))  # noqa: E731
    return header + "\n" + "".join(",".join(map(cell, row)) + "\n" for row in rows)


def reference_integrate_restore(
    initial: QubitState,
    law: ControlLawProtocol,
    model: SpectrumModel,
    env: Environment,
    bounds: ControlBounds,
    numerics: Numerics = Numerics(),
    *,
    t_final: float | None = None,
) -> Trajectory:
    """``qreset.integrate_restore`` as it was with builtin calls in its loop.

    A verbatim copy of the stepper from before it traded ``min``/``max``/
    ``abs``/``math.isfinite`` for conditional expressions, skipped the
    crossing ``log`` far from the target and lost its ``t_final`` mode;
    ``integrate_restore`` must match its precision runs bit for bit.  With
    ``t_final`` it runs open loop up to that time exactly, ending with
    termination ``"horizon"``.  Bind ``ReferenceTimeLocalOptimal`` as
    ``law`` for the tracked runtime of that version too.
    """
    eps = bounds.epsilon
    precision_mode = t_final is None
    if not (precision_mode or (math.isfinite(t_final) and t_final >= 0.0)):
        raise ValueError(f"t_final must be finite and >= 0, got {t_final!r}")
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
    # Looked up once per run: the loop below runs once per sample.
    refresh, next_transition, exp = runtime.frequency, runtime.next_transition_after, math.exp
    step_limit, log_bound = numerics.step_limit, numerics.step_log_bound
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
    f = refresh(pe, t, None)

    while True:
        rate = rate_at(f)
        if rate == math.inf:
            raise InfiniteRateError(
                f"rate at f={f!r} GHz is infinite with no rate cap: the state"
                " would jump to equilibrium in zero time"
            )
        e = exp(-ratio_c * f)
        peq = e / (1.0 + e)
        gap = pe - peq
        samples += (t, f, pe, pr, pi, rate, peq)

        # The horizon outranks the step limit, which outranks the time limit.
        at_stop = t >= t_stop
        if steps >= step_limit and (precision_mode or not at_stop):
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

        t_bp = next_transition(t)
        dt_free = log_bound / rate if rate > 0.0 else math.inf
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
            f = refresh(pe, t, f)
            continue

        # Free step: shrink it if the control would move too fast.  A move
        # that does not shrink with dt is not step-driven (e.g. a hop
        # across a capped plateau) and is accepted as-is.
        retries = 0
        df_prev = math.inf
        while True:
            pe2, pr2, pi2 = _advance(pe, pr, pi, rate, peq, f, dt)
            f_probe = refresh(pe2, t + dt, f)
            df = abs(f_probe - f)
            if df <= 2.0 * drift_cap or retries >= 60 or df >= 0.9 * df_prev:
                break
            df_prev = df
            dt *= max(0.25, 0.8 * drift_cap / df)
            retries += 1

        # The accepted probe is the refresh at the new state.
        pe, pr, pi, t, f = pe2, pr2, pi2, t + dt, f_probe
        steps += 1
        dt_floor = 1.0e-3 * (log_bound / rate) if rate > 0.0 else dt
        if df > 0.0:
            dt_drift_hint = max(min(dt * drift_cap / df, dt * 2.0), dt_floor)
        else:
            dt_drift_hint = dt_drift_hint * 2.0

    columns = np.reshape(samples, (-1, 7)).T
    return Trajectory(*columns, tau_st_us=tau, termination=termination, epsilon=eps)


class ReferenceTimeLocalRuntime:
    """``control._TimeLocalRuntime`` as it was, refitting its predictor at every refresh.

    Verbatim, but for two changes: ``optimal_frequency`` is looked up on
    ``qreset.control`` at call time, so that a test can count its calls,
    and it declares the numerics' cap as the ``rate_cap_per_us`` that
    ``integrate_restore`` reads, so the stepper's rates stay capped.
    """

    def __init__(
        self,
        law: TimeLocalOptimal,
        model: SpectrumModel,
        env: Environment,
        bounds: ControlBounds,
        numerics: Numerics,
    ) -> None:
        self._problem = (model, env, bounds)
        self._f_lo, self._f_hi = bounds.f_min_ghz, bounds.f_max_ghz
        self._grid_points = numerics.grid_points
        self._cap = self.rate_cap_per_us = numerics.rate_cap_per_us
        self._tracked = law.mode == "tracked"
        # The cap the tracked refresh applies.  Where the start scan finds
        # the rate below it across the window it cannot bind, so it is left
        # out, and with it the plateau checks, so that every refresh takes
        # the cheaper parabolic steps.
        self._tracked_cap = numerics.rate_cap_per_us
        # Those uncapped refreshes start from a prediction: f*(p_e) is smooth,
        # so (p_e, f) of the last three refreshes that corrected their start
        # extrapolate it, and one stencil usually accepts the guess.  An
        # accepted guess is known only to the tolerance, so it is not kept;
        # a window bound (mix and jqf start pinned at 2 GHz) clears them.
        # Not on a tabulated spectrum, whose J kinks at every node.
        self._history: list[tuple[float, float]] = []
        self._predicts = not isinstance(model, Tabulated)
        self._reach = 2.0 * numerics.drift_cap(bounds)
        # Every global refresh scans one grid, so its _grid_terms are taken once.
        self._grid = None
        if not self._tracked:
            fs = _window_grid(bounds, numerics.grid_points)
            self._grid = _grid_terms(model, env, numerics.rate_cap_per_us, fs)

    held_ghz = None

    def frequency(self, p_e: float, t_us: float, f_anchor: float | None) -> float:
        grid_points = self._grid_points
        if not self._tracked:
            return qreset.control.optimal_frequency(
                p_e, *self._problem, grid_points=grid_points, rate_cap=self._cap, grid=self._grid
            )
        if f_anchor is None:  # the run's first refresh starts from the rate argmax
            model, _, bounds = self._problem
            start = argmax_rate(model, bounds, grid_points=grid_points, rate_cap=self._cap)
            f_anchor = start.f_ghz
            if not start.cap_hit:
                self._tracked_cap = None
        near, rate_cap = f_anchor, self._tracked_cap
        predicts = rate_cap is None and self._predicts
        history = self._history
        if predicts and len(history) == 3:
            (p0, f0), (p1, f1), (p2, f2) = history
            d21 = (f2 - f1) / (p2 - p1)
            d210 = (d21 - (f1 - f0) / (p1 - p0)) / (p2 - p0)
            guess = f2 + (p_e - p2) * (d21 + (p_e - p1) * d210)
            if self._f_lo < guess < self._f_hi and abs(guess - near) <= self._reach:
                near = guess
        f = qreset.control.optimal_frequency(p_e, *self._problem, rate_cap=rate_cap, near=near)
        if predicts:
            if f == self._f_lo or f == self._f_hi:
                history.clear()
            elif f != near:
                history[:] = [h for h in history[-2:] if h[0] != p_e]
                history.append((p_e, f))
        return f

    def next_transition_after(self, t_us: float) -> float | None:
        return None


@dataclass(frozen=True)
class ReferenceTimeLocalOptimal:
    """``TimeLocalOptimal`` bound to ``ReferenceTimeLocalRuntime``."""

    mode: str = "tracked"

    def bind(self, model, env, bounds, numerics) -> ReferenceTimeLocalRuntime:
        return ReferenceTimeLocalRuntime(self, model, env, bounds, numerics)


def reference_work_ledger(
    trajectory: Trajectory, bounds: ControlBounds, env: Environment
) -> WorkLedger:
    """``qreset.work_ledger`` as it was, summing the restore integral in a Python loop.

    A verbatim copy of the ledger from before it took the integral as a
    ``np.cumsum`` of the float64 columns; ``work_ledger`` must match it bit
    for bit, signed zeros included.
    """
    if trajectory.termination != "precision":
        raise ValueError(
            f"work ledger requires a precision-terminated trajectory, got"
            f" {trajectory.termination!r}"
        )
    x_cp = thermal_ratio(bounds.f_cp_ghz, env)
    xs = [thermal_ratio(f, env) for f in trajectory.f_ghz.tolist()]
    pe = trajectory.p_e.tolist()

    # Exact per-segment restore-stage integral of x * rate * (p_e - p_eq) dt:
    # the frequency is constant on each segment, so it equals -x * dp_e.
    integral = 0.0
    for x, pe_k, pe_next in zip(xs, pe, pe[1:]):
        integral += x * (pe_k - pe_next)

    pe0, pe_end = pe[0], pe[-1]
    x0, x_end = xs[0], xs[-1]

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


def reference_baseline_offsets(trajectory: Trajectory) -> np.ndarray:
    """``Baseline._offset`` as it was built, appending Python floats to a list.

    The recurrence is verbatim from before it ran as a generator over
    ``memoryview``s into ``np.fromiter``; the slicing and segment decays are
    ``Baseline.__init__``'s own.
    """
    held = slice(0, max(trajectory.n_samples - 1, 1))
    t_us, rate_per_us = trajectory.t_us[held], trajectory.rate_per_us[held]
    segment_decay = np.exp(-rate_per_us[:-1] * np.diff(t_us))
    offset = [0.0]
    for p_eq, d in zip(trajectory.p_eq[held][:-1].tolist(), segment_decay.tolist()):
        offset.append(p_eq + (offset[-1] - p_eq) * d)
    return np.array(offset)


def reference_baseline_maps(trajectory: Trajectory) -> dict[str, np.ndarray]:
    """``Baseline``'s composed maps and ``cumulative_rate_integral()``, by name.

    Each is the plain numpy expression, verbatim from before the maps were
    filled in place: the accumulated rate as a ``np.concatenate``d staircase,
    the phase by ``np.append``ed TwoSum terms, and the offsets over
    ``np.exp(-rate[:-1] * np.diff(t))`` by ``reference_baseline_offsets``.
    """

    def staircase(t_us, rate_per_us):
        return np.concatenate([[0.0], np.cumsum(rate_per_us[:-1] * np.diff(t_us))])

    held = slice(0, max(trajectory.n_samples - 1, 1))
    t_us, f_ghz = trajectory.t_us[held], trajectory.f_ghz[held]
    lam = staircase(t_us, trajectory.rate_per_us[held])
    turn = RAD_PER_US_PER_GHZ * f_ghz[:-1] * np.diff(t_us)
    total = np.cumsum(turn)
    before = np.append(0.0, total)[:-1]
    added = total - before
    error = (before - (total - added)) + (turn - added)
    theta = np.append(0.0, total + np.cumsum(error))
    return {
        "_decay": np.exp(-lam),
        "_amp": np.exp(-0.5 * lam),
        "_cos": np.cos(theta),
        "_sin": np.sin(theta),
        "_offset": reference_baseline_offsets(trajectory),
        "cumulative_rate_integral": staircase(trajectory.t_us, trajectory.rate_per_us),
    }


def same_float(a: float, b: float) -> bool:
    """Equal as IEEE doubles, with a zero's sign counted: ``-0.0`` differs from ``0.0``."""
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


# Trajectories on which the float64-column ledger and baseline maps are
# held to their references: the four defaults, the mix default's schedule
# replayed by FixedSchedule, zero_restore_trajectory() and a one-row run.
FLOAT_COLUMN_CASES = ("lz", "prot", "mix", "jqf", "mix-schedule", "zero-restore", "one-row")


def empty_trajectory() -> Trajectory:
    """A precision-terminated trajectory with no rows."""
    names = ("t_us", "f_ghz", "p_e", "p_r", "p_i", "rate_per_us", "p_eq")
    return Trajectory(
        **dict.fromkeys(names, []), tau_st_us=0.0, termination="precision", epsilon=1.0e-5
    )


def zero_restore_trajectory() -> Trajectory:
    """Two precision rows whose one restore term ``x_0 (p_e0 - p_e1)`` is ``-0.0``.

    ``f = (-0.0, 0.0)`` gives ``x_0 = -0.0`` while ``p_e`` falls from 0.4, and
    ``W_st = x_1 (p_e1 - 1/2) - x_0 (p_e0 - 1/2) + integral = -0.0 + integral``
    shows the sum's sign: ``+0.0`` when it starts from ``+0.0``, as a loop
    does, ``-0.0`` when it starts from its first term.
    """
    return Trajectory(
        t_us=[0.0, 1.0], f_ghz=[-0.0, 0.0], p_e=[0.4, 1.0e-5], p_r=[0.0, 0.0], p_i=[0.0, 0.0],
        rate_per_us=[1.0, 1.0], p_eq=[0.5, 0.5], tau_st_us=1.0, termination="precision",
        epsilon=1.0e-5,
    )


def float_column_case(case: str, default_runs, models, env, bounds) -> Trajectory:
    """The trajectory of one of ``FLOAT_COLUMN_CASES``."""
    if case == "zero-restore":
        return zero_restore_trajectory()
    if case == "one-row":
        # Already below epsilon at t=0: one row, no segment held.
        return Trajectory(
            t_us=[0.0], f_ghz=[5.0], p_e=[1.0e-6], p_r=[0.0], p_i=[0.0], rate_per_us=[2.0],
            p_eq=[0.0], tau_st_us=0.0, termination="precision", epsilon=1.0e-5,
        )
    if case == "mix-schedule":
        law = FixedSchedule(default_runs["mix"][1].schedule())
        return integrate_restore(QubitState(0.5), law, models["mix"], env, bounds)
    return default_runs[case][1]
