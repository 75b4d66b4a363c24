from __future__ import annotations

import dataclasses
import io
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qreset import (
    ControlBounds,
    Environment,
    JQF,
    Lorentzian,
    Mixed,
    Protected,
    SpectrumError,
    SpectrumParseError,
    SpectrumRangeError,
    Tabulated,
    argmax_rate,
    coherence_time,
    dump_tabulated,
    eval_rate,
    guideline_report,
    load_tabulated,
)
from qreset.spectra import ARGMAX_TOL_GHZ, _scan_max, rate_fn
from helpers import (
    KERNEL_MODELS,
    brute_force_argmax,
    reference_rate,
    scan_max_scalar_reference,
)

LZ_PEAK = 2.0e3 * math.pi * 0.107**2 / 0.044  # 1634.913... 1/us


def test_lorentzian_peak_value():
    assert eval_rate(Lorentzian(), 5.4) == pytest.approx(LZ_PEAK, rel=1e-12)


def test_protected_zero_at_filter_frequency():
    assert eval_rate(Protected(), 5.0) == 0.0


def test_jqf_dip_value():
    assert eval_rate(JQF(), 5.011) == pytest.approx(1.0 / 107.1, rel=1e-12)


def test_mixed_rate_at_f_cp():
    expected = 0.5 / 5.0**0.9 + 0.005 + 0.08 * 0.0015**2 / (3.27**2 + 0.0015**2) + 0.02
    assert eval_rate(Mixed(), 5.0) == pytest.approx(expected, rel=1e-12)


def test_rate_cap_applies_at_pole():
    prot = Protected()
    assert eval_rate(prot, 6.5, rate_cap=1.0e6) == 1.0e6
    assert math.isinf(eval_rate(prot, 6.5, rate_cap=None))
    assert eval_rate(prot, 6.5, rate_cap=123.0) == 123.0


@given(st.floats(min_value=2.0, max_value=8.0))
def test_rates_nonnegative_over_window(f):
    for model in (Lorentzian(), Protected(), Mixed(), JQF()):
        assert eval_rate(model, f) >= 0.0


@given(st.floats(min_value=0.0, max_value=2.5))
def test_lorentzian_symmetry(d):
    lz = Lorentzian()
    left = eval_rate(lz, 5.4 - d, rate_cap=None)
    right = eval_rate(lz, 5.4 + d, rate_cap=None)
    assert left == pytest.approx(right, rel=1e-12)


@given(st.floats(min_value=0.3, max_value=12.0))
def test_jqf_rate_bounded(f):
    rate = eval_rate(JQF(), f)
    assert 1.0 / 107.1 - 1e-15 <= rate <= 1.0 / 9.1 + 1e-15


def test_protected_single_zero_and_divergence():
    prot = Protected()
    # Only zero in (0, f_r) sits at the filter frequency.
    for f in (3.0, 4.0, 4.9, 5.1, 6.0):
        assert eval_rate(prot, f, rate_cap=None) > 0.0
    assert eval_rate(prot, 5.0, rate_cap=None) == 0.0
    # Uncapped rate grows without bound approaching the pole from both sides.
    assert eval_rate(prot, 6.5 - 1e-6, rate_cap=None) > 1e9
    assert eval_rate(prot, 6.5 + 1e-6, rate_cap=None) > 1e9


def test_parameter_validation():
    with pytest.raises(SpectrumError):
        Lorentzian(g_ghz=-0.1)
    with pytest.raises(SpectrumError):
        JQF(tau0_us=0.0)
    with pytest.raises(SpectrumError):
        Tabulated(((2.0, 1.0),))
    with pytest.raises(SpectrumError):
        Tabulated(((2.0, 1.0), (2.0, 2.0)))
    with pytest.raises(SpectrumError):
        Tabulated(((2.0, 1.0), (3.0, -0.5)))


@pytest.mark.parametrize(
    "value", [0.0, -1.0, math.nan, math.inf, pytest.param(10**400, id="int-beyond-float")]
)
@pytest.mark.parametrize(
    "model, name",
    [(m, f.name) for m in (Lorentzian, Protected, Mixed, JQF) for f in dataclasses.fields(m)],
    ids=lambda v: v if isinstance(v, str) else v.__name__,
)
def test_invalid_parameter_names_its_field(model, name, value):
    # The field name is also the scenario's spectrum_params key.
    with pytest.raises(SpectrumError, match=rf"^{name} must be finite and > 0, got {value!r}$"):
        model(**{name: value})


@pytest.mark.parametrize(
    "field, name", [("f_cp_ghz", "f_cp"), ("delta_f_ghz", "delta_f"), ("tau_sw_us", "tau_sw")]
)
def test_control_bounds_rejects_an_int_beyond_the_float_range(field, name):
    # math.isfinite would raise OverflowError on such an int, naming no field.
    with pytest.raises(SpectrumError, match=f"^{name} must be finite and > 0"):
        ControlBounds(**{field: 10**400})


def test_control_bounds_validation():
    b = ControlBounds()
    assert b.f_min_ghz == 2.0
    assert b.f_max_ghz == 8.0
    with pytest.raises(SpectrumError):
        ControlBounds(f_cp_ghz=2.0, delta_f_ghz=3.0)  # window reaches f <= 0
    with pytest.raises(SpectrumError):
        ControlBounds(epsilon=0.7)


def test_cached_window_and_thermal_ratio_follow_replace_and_stay_out_of_eq():
    # f_min_ghz, f_max_ghz and ratio_per_ghz are plain attributes set at
    # construction; replace() builds a fresh instance, and == and hash see
    # fields only.
    window = ControlBounds()
    assert (window.f_min_ghz, window.f_max_ghz) == (2.0, 8.0)
    moved = dataclasses.replace(window, f_cp_ghz=6.0, delta_f_ghz=2.5)
    assert (moved.f_min_ghz, moved.f_max_ghz) == (3.5, 8.5)
    unread = ControlBounds()
    assert {"f_min_ghz": 2.0, "f_max_ghz": 8.0}.items() <= vars(unread).items()
    assert window == unread and hash(window) == hash(unread)

    env = Environment(0.010)
    assert env.ratio_per_ghz == 0.04799243 / 0.010
    warmer = dataclasses.replace(env, temperature_K=0.020)
    assert warmer.ratio_per_ghz == 0.04799243 / 0.020
    unread = Environment(0.010)
    assert vars(unread)["ratio_per_ghz"] == 0.04799243 / 0.010
    assert env == unread and hash(env) == hash(unread)
    assert warmer != env


def test_argmax_lorentzian_at_peak(bounds):
    result = argmax_rate(Lorentzian(), bounds)
    assert result.f_ghz == pytest.approx(5.4, abs=2e-6)
    assert result.rate_per_us == pytest.approx(LZ_PEAK, rel=1e-9)
    assert not result.cap_hit


def test_argmax_mixed_at_lower_bound(bounds):
    result = argmax_rate(Mixed(), bounds)
    assert result.f_ghz == 2.0


def test_argmax_jqf_at_lower_bound(bounds):
    # The two window edges are nearly degenerate; the lower one is farther
    # from the filter dip and wins by a few 1e-5 relative.
    result = argmax_rate(JQF(), bounds)
    assert result.f_ghz == 2.0
    assert result.rate_per_us > eval_rate(JQF(), 8.0)


def test_argmax_protected_capped_plateau_left_edge(bounds):
    result = argmax_rate(Protected(), bounds)
    assert result.cap_hit
    assert result.rate_per_us == 1.0e6
    assert abs(result.f_ghz - 6.5) < 1.5e-3  # within grid resolution of the pole
    assert result.f_ghz < 6.5  # smaller-f tie break picks the left plateau edge
    # The reported edge is where the rate first reaches the cap.
    assert eval_rate(Protected(), result.f_ghz + 1e-7) == 1.0e6
    assert eval_rate(Protected(), result.f_ghz - 1e-5) < 1.0e6


def test_argmax_matches_brute_force_scan(bounds):
    # Independent dense scan at 10x grid density, away from capped poles.
    for model in (Lorentzian(), Mixed(), JQF()):
        result = argmax_rate(model, bounds)
        f_bf, v_bf = brute_force_argmax(
            lambda f: eval_rate(model, f), bounds.f_min_ghz, bounds.f_max_ghz, 40001
        )
        assert result.rate_per_us >= v_bf * (1.0 - 1e-6)


def test_argmax_constant_ties_toward_smaller_f(bounds):
    flat = Tabulated(((2.0, 1.0), (8.0, 1.0)))
    result = argmax_rate(flat, bounds)
    assert result.f_ghz == 2.0
    assert result.rate_per_us == 1.0


def test_argmax_tent_interior(bounds):
    tent = Tabulated(((2.0, 0.1), (5.0, 2.0), (8.0, 0.1)))
    result = argmax_rate(tent, bounds)
    assert result.f_ghz == pytest.approx(5.0, abs=2e-6)
    assert result.rate_per_us == pytest.approx(2.0, rel=1e-9)


def test_coherence_time_values(bounds):
    assert coherence_time(Lorentzian(), bounds).t1_us == pytest.approx(
        0.20281105842637889, rel=1e-12
    )
    assert coherence_time(Mixed(), bounds).t1_us == pytest.approx(
        7.0194200820487874, rel=1e-12
    )
    # At the filter center the JQF decay time is tau0 + tau.
    at_dip = ControlBounds(f_cp_ghz=5.011)
    assert coherence_time(JQF(), at_dip).t1_us == pytest.approx(107.1, rel=1e-12)


def test_coherence_time_infinite_flag(bounds):
    ct = coherence_time(Protected(), bounds)
    assert ct.infinite
    assert math.isinf(ct.t1_us)


def test_guideline_contrasts(bounds):
    lz = guideline_report(Lorentzian(), bounds)
    assert lz.contrast == pytest.approx(3.0159e-3, rel=1e-3)
    jqf = guideline_report(JQF(), bounds)
    assert 0.085 <= jqf.contrast <= 0.1
    prot = guideline_report(Protected(), bounds)
    assert prot.contrast == 0.0
    assert prot.cap_hit


def test_guideline_trend_sign(bounds):
    rising = Tabulated(((2.0, 0.1), (8.0, 1.0)))
    falling = Tabulated(((2.0, 1.0), (8.0, 0.1)))
    assert guideline_report(rising, bounds).trend_sign == 1
    assert guideline_report(falling, bounds).trend_sign == -1
    assert guideline_report(Mixed(), bounds).trend_sign == -1


def test_guideline_mixed_unit_note(bounds):
    report = guideline_report(Mixed(), bounds)
    assert any("unit convention" in note for note in report.notes)


def test_tabulated_interpolation_and_range():
    tab = Tabulated(((2.0, 1.0), (4.0, 3.0)))
    assert eval_rate(tab, 2.0) == 1.0
    assert eval_rate(tab, 4.0) == 3.0
    assert eval_rate(tab, 3.0) == pytest.approx(2.0, rel=1e-15)
    with pytest.raises(SpectrumRangeError):
        eval_rate(tab, 1.5)
    with pytest.raises(SpectrumRangeError):
        eval_rate(tab, 4.5)


@pytest.mark.parametrize(
    "points",
    [((1.0, 10**400), (2.0, 1.0)), ((1.0, 1.0), (10**400, 1.0))],
    ids=["rate", "frequency"],
)
def test_tabulated_rejects_an_int_beyond_the_float_range(points):
    # math.isfinite would raise OverflowError on such an int.
    with pytest.raises(SpectrumError, match="^non-finite table entry"):
        Tabulated(points)


def test_load_tabulated_basic(bounds):
    tab = load_tabulated("2,1.0\n8,1.0\n")
    assert argmax_rate(tab, bounds).f_ghz == 2.0


def test_load_tabulated_header_and_stream():
    tab = load_tabulated(io.StringIO("f_GHz,rate_per_us\n2,0.5\n5,2.5\n8,0.1\n"))
    assert tab.points[1] == (5.0, 2.5)


def test_load_tabulated_roundtrip():
    original = Tabulated(((2.0, 0.123456789012345), (5.5, 2.5), (8.0, 0.25)))
    again = load_tabulated(dump_tabulated(original))
    assert again.points == original.points


def test_load_tabulated_errors_name_lines():
    with pytest.raises(SpectrumParseError) as err:
        load_tabulated("2,1.0\nbad,row\n")
    assert err.value.line_no == 2
    with pytest.raises(SpectrumParseError) as err:
        load_tabulated("2,1.0\n1.5,2.0\n")
    assert err.value.line_no == 2
    with pytest.raises(SpectrumParseError) as err:
        load_tabulated("2,1.0\n3,-0.5\n")
    assert err.value.line_no == 2
    with pytest.raises(SpectrumParseError, match="non-finite value") as err:
        load_tabulated("2,1.0\n3,nan\n8,1.0\n")
    assert err.value.line_no == 2
    with pytest.raises(SpectrumParseError):
        load_tabulated("2,1.0\n")


def _close_to_ulps(got: float, want: float, ulps: int) -> bool:
    return got == want or abs(got - want) <= ulps * math.ulp(want)


@settings(max_examples=100, deadline=None)
@given(
    kind=st.sampled_from(sorted(KERNEL_MODELS)),
    cap=st.sampled_from([None, 1.0e6, 1.0]),
    fs=st.lists(st.floats(min_value=2.0, max_value=8.0), min_size=1, max_size=40),
)
def test_array_kernel_matches_scalar_kernel(kind, cap, fs):
    # The grid evaluator against both float entry points, on a random
    # in-window grid that also holds the protected pole f_r = 6.5 GHz
    # exactly and the window edges.
    model = KERNEL_MODELS[kind]
    grid = np.array(fs + [2.0, 6.5, 8.0])
    evaluate = rate_fn(model, cap)
    from_eval_rate = eval_rate(model, grid, cap)
    assert isinstance(from_eval_rate, np.ndarray)
    for f, got in zip(grid.tolist(), from_eval_rate.tolist()):
        want = eval_rate(model, f, cap)
        assert evaluate(f) == want
        assert _close_to_ulps(got, want, 4), (f, got, want)


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(sorted(KERNEL_MODELS)),
    cap=st.sampled_from([None, 1.0e6, 1.0]),
    f=st.floats(min_value=2.0, max_value=8.0),
)
def test_bound_kernel_equals_full_formula_exactly(kind, cap, f):
    # Hoisting the model-only constants keeps every IEEE operation, so the
    # bound kernel equals the full formula bit for bit: at a random point,
    # at the window edges, at the protected pole (inf uncapped) and just
    # beside it (over the cap), on floats and on a grid.
    model = KERNEL_MODELS[kind]
    evaluate = rate_fn(model, cap)
    points = [f, 2.0, 6.5, 6.5 + 1e-9, 8.0]
    for x in points:
        want = reference_rate(model, x, cap)
        assert evaluate(x) == want, (x, evaluate(x), want)
        assert eval_rate(model, x, cap) == want
    grid = np.array(points)
    with np.errstate(divide="ignore"):
        assert np.array_equal(eval_rate(model, grid, cap), reference_rate(model, grid, cap))


def test_rate_kernel_is_bound_once_per_model():
    model = Protected()
    assert model.rate_kernel is model.rate_kernel
    assert rate_fn(model, None) is model.rate_kernel
    # Another model with other constants gets its own kernel.
    other = Protected(g_ghz=0.3)
    assert other.rate_kernel is not model.rate_kernel
    assert other.rate_kernel(5.5) == 4.0 * model.rate_kernel(5.5)
    assert other == Protected(g_ghz=0.3) and hash(other) == hash(Protected(g_ghz=0.3))


@pytest.mark.parametrize("kind", sorted(KERNEL_MODELS))
def test_model_with_a_bound_kernel_still_pickles(kind):
    model = KERNEL_MODELS[kind]
    want = eval_rate(model, 5.5)  # binds and caches the kernel
    again = pickle.loads(pickle.dumps(model))
    assert again == model
    assert eval_rate(again, 5.5) == want


def test_unknown_model_is_a_type_error():
    with pytest.raises(TypeError, match="unknown spectrum model"):
        eval_rate(object(), 5.0)


def test_scalar_kernels_return_python_floats():
    for model in KERNEL_MODELS.values():
        assert type(eval_rate(model, 5.0)) is float
        assert type(rate_fn(model)(5.0)) is float


@pytest.mark.parametrize("size", [1, 3])
def test_capped_rate_fn_returns_an_array_for_any_grid_size(size):
    # A one-element array compares to the cap without raising; the capped
    # grid evaluator still returns an array, capped at the pole.
    grid = np.full(size, 6.5)
    rates = eval_rate(Protected(), grid)
    assert isinstance(rates, np.ndarray)
    assert np.array_equal(rates, np.full(size, 1.0e6))


@pytest.mark.parametrize("f_ghz", [0.0, -1.0, math.nan])
def test_scalar_eval_rate_checks_the_domain(f_ghz):
    with pytest.raises(SpectrumError, match="frequency must be > 0"):
        eval_rate(Lorentzian(), f_ghz)


def test_array_eval_rate_checks_the_domain():
    for bad in (0.0, math.nan):
        with pytest.raises(SpectrumError):
            eval_rate(Lorentzian(), np.array([1.0, bad]))
    with pytest.raises(SpectrumRangeError):
        eval_rate(KERNEL_MODELS["tab"], np.array([2.0, 8.5]))


@pytest.mark.parametrize(
    "kind, grid_points",
    [
        *(pytest.param(kind, 4001, id=kind) for kind in ("lz", "prot", "mix", "jqf", "tab")),
        # No grid point reaches the capped plateau around the protected pole;
        # the refinement climbs onto it.
        pytest.param("prot", 1000, id="prot-plateau-between-grid-points"),
    ],
)
def test_scan_max_matches_scalar_loop_on_rate(kind, grid_points, bounds):
    model = KERNEL_MODELS[kind]
    fs = np.linspace(bounds.f_min_ghz, bounds.f_max_ghz, grid_points)
    fn = lambda f: eval_rate(model, f)  # noqa: E731
    got = _scan_max(fn, fs, eval_rate(model, fs), 1.0e6, ARGMAX_TOL_GHZ)
    args = (bounds.f_min_ghz, bounds.f_max_ghz, grid_points, 1.0e6, ARGMAX_TOL_GHZ)
    assert got == scan_max_scalar_reference(fn, *args)
    assert all(type(x) in (float, bool) for x in got)
    assert argmax_rate(model, bounds, grid_points=grid_points) == got


@pytest.mark.parametrize("kind", ["lz", "prot", "mix", "jqf"])
def test_guideline_slope_matches_scalar_loop(kind, bounds):
    # The trend is now a numpy dot product; the loop it replaced sums in
    # another order, so the two agree to n * eps of the summed magnitudes.
    model = KERNEL_MODELS[kind]
    n = 4001
    step = (bounds.f_max_ghz - bounds.f_min_ghz) / (n - 1)
    mean_f = bounds.f_min_ghz + 0.5 * (bounds.f_max_ghz - bounds.f_min_ghz)
    num = den = magnitude = 0.0
    for i in range(n):
        df = bounds.f_min_ghz + i * step - mean_f
        term = df * eval_rate(model, bounds.f_min_ghz + i * step)
        num += term
        den += df * df
        magnitude += abs(term)
    got = guideline_report(model, bounds, grid_points=n).trend_slope
    assert abs(got - num / den) <= n * 2.0**-52 * magnitude / den
