"""Independent oracles shared by the test modules.

These deliberately avoid the package's integration and scan machinery:
closed-form chained exponentials for piecewise-constant dynamics, a
plain dense scan for maximization, and the scalar-loop grid scan that
``_scan_max`` replaced (it shares only the package's refinement helpers,
which that change left as they were).
"""

from __future__ import annotations

import math

from qreset import (
    JQF,
    Environment,
    Lorentzian,
    Mixed,
    Protected,
    SpectrumModel,
    Tabulated,
    equilibrium_population,
    eval_rate,
    thermal_ratio,
)
from qreset.spectra import _golden_max, _leftmost_cap_edge

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
            edge = _leftmost_cap_edge(fn, fs[best - 1], f_best, cap, tol)
        elif left > 0:
            edge = _leftmost_cap_edge(fn, fs[left - 1], fs[left], cap, tol)
        else:
            edge = fs[0]
        return edge, v_best, True
    a = fs[best - 1] if best > 0 else fs[0]
    b = fs[best + 1] if best < len(fs) - 1 else fs[-1]
    if fn(a) == v_best and fn(b) == v_best:
        return f_best, v_best, False
    f_ref, v_ref = _golden_max(fn, a, b, tol)
    if cap is not None and v_ref >= cap:
        return _leftmost_cap_edge(fn, a, f_ref, cap, tol), v_ref, True
    if v_ref > v_best or (v_ref == v_best and f_ref < f_best):
        f_best, v_best = f_ref, v_ref
    return f_best, v_best, False
