from __future__ import annotations

import dataclasses
import io
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qreset import (
    ConstantAtPeak,
    ControlBounds,
    DegenerateTransversalityError,
    Environment,
    FixedSchedule,
    IntegrationError,
    JQF,
    Lorentzian,
    Mixed,
    NoDescentError,
    Numerics,
    Protected,
    QubitState,
    RefreshLimitError,
    ScheduleWindowError,
    SpectrumError,
    Tabulated,
    TimeLocalOptimal,
    Trajectory,
    argmax_rate,
    costate_along,
    equilibrium_population,
    eval_rate,
    integrate_restore,
    optimal_frequency,
    run_reset,
    schedule_from_csv,
    schedule_to_csv,
    thermal_ratio,
    verify_pmp,
)
import qreset.control
from qreset.cli import CALIBRATION_NUMERICS
from qreset.scenario import builtin_scenario
from qreset.control import TRACK_TOL_GHZ, TRACK_WINDOW_GHZ, _grid_terms, _objective
from qreset.spectra import ARGMAX_TOL_GHZ, _golden_max, _scan_max
from helpers import (
    KERNEL_MODELS,
    ReferenceTimeLocalOptimal,
    empty_trajectory,
    reference_objective,
    reference_optimal_frequency,
    reference_rate,
    scan_max_scalar_reference,
    verify_pmp_loop_reference,
)


@pytest.mark.parametrize("p_e", [0.0, 1.5, math.nan])
def test_optimal_frequency_rejects_populations_outside_its_domain(p_e, env10, bounds):
    with pytest.raises(ValueError, match="p_e must lie in"):
        optimal_frequency(p_e, Lorentzian(), env10, bounds)


@pytest.mark.parametrize("rate_cap", [1.0e6, None])
@pytest.mark.parametrize("near", [math.nan, math.inf, -math.inf])
def test_tracked_refresh_rejects_a_non_finite_near(near, rate_cap, env10, bounds):
    # A NaN start returned a plausible 2.000000034 GHz (mix) or 6.5008 GHz
    # (prot), and an infinite one was clamped to a window bound in silence.
    for model in (Mixed(), Protected()):
        with pytest.raises(ValueError, match="near must be a finite frequency"):
            optimal_frequency(1e-3, model, env10, bounds, rate_cap=rate_cap, near=near)


def test_global_refresh_below_every_floor_raises_no_descent(env10, bounds):
    # p_e = 1e-20 lies below p_eq at every window frequency, so the
    # objective is negative across the whole scan.
    with pytest.raises(NoDescentError, match="non-positive over the whole window"):
        optimal_frequency(1e-20, Lorentzian(), env10, bounds)


def test_global_lorentzian_tracks_rate_peak(env10, bounds):
    # Thermal term negligible at 10 mK: the objective peaks with the rate.
    for p_e in (0.5, 0.1, 1e-3):
        assert optimal_frequency(p_e, Lorentzian(), env10, bounds) == pytest.approx(
            5.4, abs=1e-5
        )


def test_tracked_jqf_starts_at_lower_bound(env10, bounds):
    anchor = argmax_rate(JQF(), bounds).f_ghz
    assert anchor == 2.0
    assert optimal_frequency(0.4, JQF(), env10, bounds, near=anchor) == 2.0


def test_tracked_jqf_interior_near_precision(env10, bounds):
    # Just above the precision target the extremal branch has lifted off
    # the lower bound: the rate there cannot finish against the thermal
    # floor, so the branch trades speed for a lower restoring target.
    anchor = argmax_rate(JQF(), bounds).f_ghz
    f = optimal_frequency(1.05e-5, JQF(), env10, bounds, near=anchor)
    assert f > 2.0
    assert 3.0 < f < 4.0
    p_eq = equilibrium_population(thermal_ratio(f, env10))
    assert p_eq < 1.05e-5


def test_global_jqf_prefers_upper_basin(env10, bounds):
    # The two window edges differ in rate by only a few 1e-5 relative, so
    # the global pointwise argmax crosses the filter dip to the upper edge
    # where the thermal floor is negligible.
    assert optimal_frequency(0.4, JQF(), env10, bounds) == pytest.approx(8.0, abs=1e-9)


def test_tracked_equals_global_for_single_peaked_spectra(env10, bounds):
    for model in (Lorentzian(), Mixed()):
        anchor = argmax_rate(model, bounds).f_ghz
        f_prev = anchor
        for p_e in (0.5, 0.2, 0.05, 1e-2, 1e-3, 1e-4, 2e-5):
            f_tracked = optimal_frequency(p_e, model, env10, bounds, near=f_prev)
            f_global = optimal_frequency(p_e, model, env10, bounds)
            assert f_tracked == pytest.approx(f_global, abs=1e-3)
            f_prev = f_tracked
    # From 2.1 GHz above the Lorentzian peak the search window walks down to it.
    f_down = optimal_frequency(0.4, Lorentzian(), env10, bounds, near=7.5)
    assert f_down == pytest.approx(optimal_frequency(0.4, Lorentzian(), env10, bounds), abs=1e-6)


@settings(max_examples=25, deadline=None)
@given(p_e=st.floats(min_value=2e-5, max_value=1.0))
def test_clipping_identity(p_e):
    env = Environment(0.010)
    bounds = ControlBounds()
    for model in (Mixed(), JQF()):
        f = optimal_frequency(p_e, model, env, bounds)
        assert bounds.f_min_ghz <= f <= bounds.f_max_ghz


def test_monotone_objective_reduces_to_f_max():
    # Constant rate leaves only the restoring-target term; test at a
    # temperature where p_eq differences are resolvable in double
    # precision all the way to the upper bound.
    flat = Tabulated(((2.0, 1.0), (8.0, 1.0)))
    env = Environment(0.300)
    bounds = ControlBounds(epsilon=0.3)
    p_floor = equilibrium_population(thermal_ratio(8.0, env))
    for p_e in (0.5, 0.4, 0.3):
        assert p_e > p_floor
        assert optimal_frequency(p_e, flat, env, bounds) == pytest.approx(8.0, abs=1e-9)
    # A tracked refresh pinned at the upper bound of a rising spectrum stays there.
    rising = Tabulated(((1.0, 0.5), (9.0, 5.0)))
    assert optimal_frequency(0.4, rising, Environment(0.010), ControlBounds(), near=8.0) == 8.0


def test_argmax_invariance_under_rate_scaling(env10, bounds):
    tent = Tabulated(((2.0, 0.1), (5.0, 2.0), (8.0, 0.1)))
    scaled = Tabulated(((2.0, 0.37), (5.0, 7.4), (8.0, 0.37)))
    for p_e in (0.5, 1e-3):
        f1 = optimal_frequency(p_e, tent, env10, bounds)
        f2 = optimal_frequency(p_e, scaled, env10, bounds)
        assert f1 == pytest.approx(f2, abs=1e-6)


def test_constant_restore_frequencies(bounds):
    assert argmax_rate(Lorentzian(), bounds).f_ghz == pytest.approx(5.4, abs=2e-6)
    assert argmax_rate(Mixed(), bounds).f_ghz == 2.0
    f_prot = argmax_rate(Protected(), bounds).f_ghz
    assert abs(f_prot - 6.5) < 1.5e-3


def test_costate_constant_rate_closed_form():
    flat = Tabulated(((2.0, 1.0), (8.0, 1.0)))
    cold = Environment(1e-6)
    bounds = ControlBounds(epsilon=1e-5)
    trajectory = integrate_restore(QubitState(0.5), ConstantAtPeak(), flat, cold, bounds)
    costate = costate_along(trajectory, flat, cold)
    tau = trajectory.tau_st_us
    lam_tau = float(costate.costate[-1])
    assert lam_tau == pytest.approx(1.0 / 1e-5, rel=1e-12)  # 1/(rate * eps)
    for k in range(0, trajectory.n_samples, 20):
        t = float(trajectory.t_us[k])
        expected = lam_tau * math.exp(-(tau - t))
        assert float(costate.costate[k]) == pytest.approx(expected, rel=1e-8)
    assert float(costate.hamiltonian[-1]) == 0.0


def test_costate_requires_precision_termination():
    flat = Tabulated(((2.0, 1.0), (8.0, 1.0)))
    cold = Environment(1e-6)
    bounds = ControlBounds(epsilon=1e-5)
    trajectory = integrate_restore(
        QubitState(0.5), ConstantAtPeak(), flat, cold, bounds, Numerics(step_limit=5)
    )
    assert trajectory.termination == "step_limit"
    with pytest.raises(ValueError):
        costate_along(trajectory, flat, cold)


def test_costate_rejects_an_empty_trajectory():
    with pytest.raises(ValueError, match="trajectory has no samples"):
        costate_along(empty_trajectory(), Lorentzian(), Environment(0.010))


def test_costate_rejects_a_zero_terminal_rate():
    # A precision row with no rate leaves transversality nothing to fix
    # the costate with.
    trajectory = Trajectory(
        t_us=[0.0, 1.0], f_ghz=[5.0, 5.0], p_e=[0.5, 1.0e-5], p_r=[0.0] * 2, p_i=[0.0] * 2,
        rate_per_us=[1.0, 0.0], p_eq=[0.0] * 2,
        tau_st_us=1.0, termination="precision", epsilon=1.0e-5,
    )
    with pytest.raises(DegenerateTransversalityError, match=r"terminal rate\*gap = 0\.0;"):
        costate_along(trajectory, Lorentzian(), Environment(0.010))


def test_costate_positive_on_default_scenarios(models, env10, default_runs):
    for name, (report, trajectory) in default_runs.items():
        costate = costate_along(trajectory, models[name], env10)
        assert costate.min_costate > 0.0


def test_pmp_passes_on_lorentzian(models, env10, bounds, default_runs):
    _, trajectory = default_runs["lz"]
    report = verify_pmp(trajectory, models["lz"], env10, bounds)
    assert report.all_ok
    assert report.max_abs_hamiltonian < 1e-3


def test_pmp_flags_suboptimal_fixed_schedule(models, env10, bounds):
    # Deliberately hold the computation frequency: the relaxation crawls
    # and every probe finds a much better alternative.
    pinned = FixedSchedule(((0.0, bounds.f_cp_ghz),))
    trajectory = integrate_restore(
        QubitState(0.5), pinned, models["lz"], env10, bounds
    )
    report = verify_pmp(trajectory, models["lz"], env10, bounds)
    assert not report.pointwise_minimal
    assert report.worst_minimality_violation > 1.0


def test_pmp_constant_at_peak_lorentzian_passes(models, env10, bounds):
    report_run, trajectory = run_reset(
        models["lz"], env10, bounds, ConstantAtPeak(), Numerics()
    )
    report = verify_pmp(trajectory, models["lz"], env10, bounds)
    assert report.all_ok


def test_pmp_constant_at_peak_jqf_fails_near_terminal(bounds):
    # Cool enough that pinning the rate argmax can still finish, but the
    # thermal floor there makes the final approach badly suboptimal.
    env = Environment(0.008)
    model = JQF()
    _, trajectory = run_reset(model, env, bounds, ConstantAtPeak(), Numerics())
    report = verify_pmp(trajectory, model, env, bounds)
    assert not report.pointwise_minimal
    assert report.violation_t_us > 0.5 * trajectory.tau_st_us


def test_pmp_probes_every_sample_of_a_short_run(models, env10, bounds):
    # A coarse step bound leaves fewer samples than PMP_PROBE_TIMES.
    _, trajectory = run_reset(
        models["lz"], env10, bounds, TimeLocalOptimal(), Numerics(step_log_bound=0.5)
    )
    assert trajectory.n_samples == 23
    report = verify_pmp(trajectory, models["lz"], env10, bounds)
    assert report.n_probed_times == 23
    assert report.all_ok


def test_pmp_equals_the_loop_reference(models, env10, bounds, default_runs):
    # The numpy pass forms the loop's products in the loop's order and keeps
    # its first-maximum tie rule, so every field agrees exactly.
    pinned = integrate_restore(
        QubitState(0.5), FixedSchedule(((0.0, bounds.f_cp_ghz),)), models["lz"], env10, bounds
    )
    _, short = run_reset(
        models["lz"], env10, bounds, TimeLocalOptimal(), Numerics(step_log_bound=0.5)
    )
    runs = [(models[k], t) for k, (_, t) in default_runs.items()]
    for model, trajectory in [*runs, (models["lz"], pinned), (models["lz"], short)]:
        expected = verify_pmp_loop_reference(trajectory, model, env10, bounds)
        assert verify_pmp(trajectory, model, env10, bounds) == expected


def test_schedule_csv_roundtrip():
    schedule = FixedSchedule(((0.0, 2.0), (1.5, 6.25), (3.25, 4.0)))
    buffer = io.StringIO()
    schedule_to_csv(schedule.breakpoints, buffer)
    buffer.seek(0)
    again = schedule_from_csv(buffer)
    assert again.breakpoints == schedule.breakpoints


def test_fixed_schedule_validation():
    with pytest.raises(ValueError):
        FixedSchedule(())
    with pytest.raises(ValueError):
        FixedSchedule(((1.0, 5.0),))  # must start at zero
    with pytest.raises(ValueError):
        FixedSchedule(((0.0, 5.0), (0.0, 6.0)))
    for t_bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite and strictly increasing"):
            FixedSchedule(((0.0, 5.0), (t_bad, 2.0), (0.5, 5.0)))


@pytest.mark.parametrize("f_bad", [50.0, 1.0, math.nan, math.inf])
def test_fixed_schedule_rejects_frequencies_outside_window(f_bad, env10, bounds):
    schedule = FixedSchedule(((0.0, 5.0), (1.0, f_bad)))
    with pytest.raises(ScheduleWindowError):
        schedule.bind(Lorentzian(), env10, bounds, Numerics())
    loaded = schedule_from_csv(io.StringIO(f"t_us,f_GHz\n0.0,5.0\n1.0,{f_bad!r}\n"))
    with pytest.raises(ScheduleWindowError):
        integrate_restore(QubitState(0.5), loaded, Lorentzian(), env10, bounds)


def test_time_local_mode_validation():
    with pytest.raises(ValueError):
        TimeLocalOptimal(mode="greedy")


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(sorted(KERNEL_MODELS)),
    p_e=st.floats(min_value=1e-5, max_value=1.0),
    fs=st.lists(st.floats(min_value=2.0, max_value=8.0), min_size=1, max_size=40),
)
def test_objective_accepts_a_grid(kind, p_e, fs):
    # On a grid J is the product of _grid_terms, as the global scan takes
    # it.  numpy's exp may differ from math.exp by an ulp; measured against
    # the size of the terms, it agrees with the scalar objective to a few
    # ulps.  The larger term of J = rate * (p_e - p_eq) is rate * p_eq
    # where the thermal population exceeds p_e.
    model = KERNEL_MODELS[kind]
    env = Environment(0.010)
    j = _objective(model, env, 1.0e6, p_e)
    grid = np.array(fs + [6.5])
    _, rates, q = _grid_terms(model, env, 1.0e6, grid)
    values = rates * (p_e - q)
    for f, got in zip(grid.tolist(), values.tolist()):
        want = j(f)
        p_eq = equilibrium_population(env.ratio_per_ghz * f)
        scale = eval_rate(model, f, 1.0e6) * max(p_e, p_eq)
        assert abs(got - want) <= 4 * math.ulp(scale), (f, got, want)


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(sorted(KERNEL_MODELS)),
    cap=st.sampled_from([None, 1.0e6]),
    p_e=st.floats(min_value=1e-6, max_value=1.0),
    f=st.floats(min_value=2.0, max_value=8.0),
)
def test_fused_objective_equals_rate_times_gap_exactly(kind, cap, p_e, f):
    model = KERNEL_MODELS[kind]
    env = Environment(0.010)
    j = _objective(model, env, cap, p_e)
    c = env.ratio_per_ghz
    for x in (f, 6.5, 6.5 + 1e-9):
        e = math.exp(-c * x)
        want = reference_rate(model, x, cap) * (p_e - e / (1.0 + e))
        assert j(x) == want, (x, j(x), want)


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(["lz", "mix", "jqf", "tab"]),
    cap=st.sampled_from([1.0e6, 1.0]),
    p_e=st.floats(min_value=1e-6, max_value=0.5, exclude_min=True),
    f=st.floats(min_value=2.0, max_value=8.0),
)
def test_uncapped_objective_is_the_capped_one_below_the_cap(kind, cap, p_e, f):
    # The tracked refresh drops the cap, and with it J's comparison, where
    # the start scan finds the rate below it: wherever the raw rate is below
    # the cap, the uncapped J must be the capped one, bit for bit.
    model = KERNEL_MODELS[kind]
    assume(model.rate_kernel(f) < cap)
    env = Environment(0.010)
    capped, uncapped = _objective(model, env, cap, p_e), _objective(model, env, None, p_e)
    assert uncapped(f).hex() == capped(f).hex()


@pytest.mark.parametrize("kind, temperature_K", [("prot", 0.01003), ("mix", 0.010)])
def test_fused_objective_reproduces_reference_trajectory(
    kind, temperature_K, bounds, monkeypatch
):
    # The tracked refresh compares J values to round-off (the golden section
    # on mix; on the protected spectrum's capped plateau at 10.03 mK, the
    # check that J falls past the plateau's right edge), so any change in J
    # would move the trajectory.
    # Both runs share one process and one libm, so the comparison is exact.
    model = KERNEL_MODELS[kind]
    env = Environment(temperature_K)
    numerics = Numerics(step_limit=3000)

    def run():
        return integrate_restore(
            QubitState(0.5), TimeLocalOptimal(), model, env, bounds, numerics
        )

    fused = run()
    monkeypatch.setattr(qreset.control, "_objective", reference_objective)
    reference = run()
    assert fused.n_samples == reference.n_samples > 100
    assert (fused.termination, fused.tau_st_us) == (reference.termination, reference.tau_st_us)
    for name in ("t_us", "f_ghz", "p_e", "p_r", "p_i", "rate_per_us", "p_eq"):
        assert np.array_equal(getattr(fused, name), getattr(reference, name)), name


@pytest.mark.parametrize("temperature_K", [0.0095, 0.010, 0.01002, 0.01003, 0.0105])
def test_tracked_protected_holds_the_plateau_right_edge(temperature_K, bounds):
    # On the capped plateau J = cap * (p_e - p_eq(f)) is flat to round-off
    # while p_eq falls with f: the refresh settles on the plateau's right
    # edge, with the held rate exactly the cap, instead of hopping between
    # round-off maxima (10.02 and 10.03 mK used to take about 49,500 steps).
    model = Protected()
    trajectory = integrate_restore(
        QubitState(0.5), TimeLocalOptimal(), model, Environment(temperature_K), bounds
    )
    assert trajectory.termination == "precision"
    assert trajectory.n_samples <= 300
    assert np.all(trajectory.rate_per_us == 1.0e6)
    for f in np.unique(trajectory.f_ghz).tolist():
        assert model.rate_kernel(f + 2.0e-7) < 1.0e6


@settings(max_examples=40, deadline=None)
@given(
    temperature_mK=st.floats(min_value=9.0, max_value=11.0),
    log_eps=st.floats(min_value=math.log(3.0e-6), max_value=math.log(3.0e-5)),
)
def test_tracked_protected_reaches_precision_in_few_steps(temperature_mK, log_eps):
    bounds = ControlBounds(epsilon=math.exp(log_eps))
    trajectory = integrate_restore(
        QubitState(0.5),
        TimeLocalOptimal(),
        Protected(),
        Environment(temperature_mK * 1.0e-3),
        bounds,
        Numerics(step_limit=400),
    )
    assert trajectory.termination == "precision"


TENT = Tabulated(((2.0, 0.25), (5.2, 3.0), (8.0, 0.5)))


@pytest.mark.parametrize(
    "model, cap",
    [
        (Lorentzian(), 1.0e6),
        (Protected(), 1.0e6),  # the pole's capped plateau
        (Protected(), 1.0e3),  # a plateau several grid points wide
        (Mixed(), 1.0e6),
        (JQF(), 1.0e6),
        (TENT, 1.0e6),
        (Lorentzian(), None),
    ],
    ids=["lz", "prot", "prot-wide", "mix", "jqf", "tent", "lz-uncapped"],
)
def test_global_runtime_grid_matches_the_refresh_without_it(model, cap, env10, bounds):
    # The bound global law takes the scan grid's capped rates and p_eq once;
    # each refresh must still return exactly the frequency the full scan does.
    numerics = Numerics(rate_cap_per_us=cap)
    runtime = TimeLocalOptimal(mode="global").bind(model, env10, bounds, numerics)
    for p_e in np.geomspace(bounds.epsilon * 1.001, 0.5, 50).tolist():
        want = optimal_frequency(p_e, model, env10, bounds, rate_cap=cap, near=None)
        assert runtime.frequency(p_e, 0.0, None) == want, p_e


@pytest.mark.parametrize("name, mode", [("jqf-default", "tracked"), ("lz-default", "global")])
def test_live_loop_gives_the_same_run_with_the_reference_runtime(name, mode):
    # The stepper skips next_transition_after where a runtime sets it to None
    # and calls it otherwise: the reference runtime, which keeps the method,
    # must give the bound law's floats.
    scenario = dataclasses.replace(builtin_scenario(name), control_mode=mode)
    model, env, bounds, law, numerics = scenario.build()
    assert law.bind(model, env, bounds, numerics).next_transition_after is None
    current = integrate_restore(QubitState(0.5), law, model, env, bounds, numerics)
    reference_law = ReferenceTimeLocalOptimal(mode)
    reference = integrate_restore(QubitState(0.5), reference_law, model, env, bounds, numerics)
    assert (current.termination, current.tau_st_us) == (reference.termination, reference.tau_st_us)
    for column in ("t_us", "f_ghz", "p_e", "p_r", "p_i", "rate_per_us", "p_eq"):
        assert np.array_equal(getattr(current, column), getattr(reference, column)), column


def test_tracked_predictor_matches_its_reference_when_populations_repeat():
    # No loop case corrects two refreshes at one p_e, so the history's
    # same-p_e drop is driven here: seeded refreshes at five populations,
    # each anchored at an earlier result, also clear the history at the
    # 2 GHz bound and drop the oldest of three entries.
    model, env, bounds, _, numerics = builtin_scenario("jqf-default").build()
    live = TimeLocalOptimal().bind(model, env, bounds, numerics).frequency
    reference = ReferenceTimeLocalOptimal().bind(model, env, bounds, numerics).frequency
    f = live(0.5, 0.0, None)
    assert f == reference(0.5, 0.0, None)
    rng, anchors = random.Random(0), [f]
    for _ in range(120):
        p_e, f_anchor = rng.choice([0.5, 0.1, 0.01, 0.003, 0.001]), rng.choice(anchors)
        f = live(p_e, 0.0, f_anchor)
        assert f == reference(p_e, 0.0, f_anchor), (p_e, f_anchor)
        anchors.append(f)


@pytest.mark.parametrize("kind", ["lz", "mix", "jqf"])
def test_uncapped_tracked_runs_match_the_refresh_without_plateau_rule(
    kind, env10, bounds, monkeypatch
):
    # These rates stay below the cap across the window, so the start scan
    # leaves the cap, and with it the plateau checks, out of the refresh:
    # every refresh evaluates the rate kernel exactly where the refresh
    # without them did, and no more often.
    model = type(KERNEL_MODELS[kind])()
    kernel = model.rate_kernel
    calls = [0]

    def counted(f):
        calls[0] += 1
        return kernel(f)

    model.__dict__["rate_kernel"] = counted  # the cached_property's slot

    def run():
        calls[0] = 0
        trajectory = integrate_restore(
            QubitState(0.5), TimeLocalOptimal(), model, env10, bounds
        )
        return trajectory, calls[0]

    current, current_calls = run()
    monkeypatch.setattr(qreset.control, "optimal_frequency", reference_optimal_frequency)
    reference, reference_calls = run()
    assert current_calls == reference_calls
    assert current.n_samples == reference.n_samples
    assert (current.termination, current.tau_st_us) == (reference.termination, reference.tau_st_us)
    for name in ("t_us", "f_ghz", "p_e", "p_r", "p_i", "rate_per_us", "p_eq"):
        assert np.array_equal(getattr(current, name), getattr(reference, name)), name


@pytest.mark.parametrize(
    "name, mode",
    [
        ("jqf-default", "tracked"),
        ("lz-default", "global"),
        ("mix-default", "tracked"),
        ("prot-default", "tracked"),  # capped: the plateau path, no predictor
    ],
)
def test_each_refresh_is_one_optimal_frequency_call_with_its_objective(name, mode, monkeypatch):
    # bench/tracer.py counts refreshes as calls of control.optimal_frequency,
    # looked up in control's globals, tells tracked from global by the near=
    # keyword, and counts objective evaluations through the closures that
    # control._objective builds.  A refresh that routed around either would
    # read as no refreshes or no evaluations.
    scenario = dataclasses.replace(builtin_scenario(name), control_mode=mode)
    model, env, bounds, law, numerics = scenario.build()
    nears, built = [], [0]
    refresh, objective = qreset.control.optimal_frequency, qreset.control._objective

    def counted_refresh(*args, **kwargs):
        nears.append(kwargs.get("near"))
        return refresh(*args, **kwargs)

    def counted_objective(*args, **kwargs):
        built[0] += 1
        return objective(*args, **kwargs)

    monkeypatch.setattr(qreset.control, "optimal_frequency", counted_refresh)
    monkeypatch.setattr(qreset.control, "_objective", counted_objective)
    per_call = []

    class Counting:
        def bind(self, *args):
            runtime = law.bind(*args)
            frequency = runtime.frequency

            def counted(*call):
                before = len(nears), built[0]
                f = frequency(*call)
                per_call.append((len(nears) - before[0], built[0] - before[1]))
                return f

            runtime.frequency = counted
            return runtime

    trajectory = integrate_restore(QubitState(0.5), Counting(), model, env, bounds, numerics)
    assert trajectory.termination == "precision"
    assert len(per_call) >= trajectory.n_samples - 1
    assert set(per_call) == {(1, 1)}
    if mode == "tracked":
        assert None not in nears
    else:
        assert set(nears) == {None}


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["lz", "mix", "jqf", "tab"]),
    log_p_e=st.floats(min_value=math.log(1.05e-5), max_value=math.log(0.5)),
    offset=st.floats(min_value=-2.0e-3, max_value=2.0e-3),
)
def test_tracked_refresh_lands_on_the_golden_maximum(kind, log_p_e, offset):
    # From an anchor within 2e-3 GHz of the optimum, the refresh reaches the
    # maximum that golden section finds over the same window to 1e-9 GHz.
    # The tabulated optimum is a node, where J has a kink.  Where J is flat
    # to round-off (jqf: J''h^2 is an ulp at h ~ 1.5e-7 GHz), golden's
    # result moves by that much too; there the refresh's J must be within
    # 4 ulp of golden's.
    model = KERNEL_MODELS[kind]
    env, bounds = Environment(0.010), ControlBounds()
    f_lo, f_hi = bounds.f_min_ghz, bounds.f_max_ghz
    p_e = math.exp(log_p_e)
    j = _objective(model, env, None, p_e)
    # jqf's tracked branch stays below its filter dip.
    fs = np.linspace(f_lo, 5.0 if kind == "jqf" else f_hi, 6001)
    k = int(np.argmax([j(f) for f in fs.tolist()]))
    f_star, _ = _golden_max(j, fs[max(k - 1, 0)], fs[min(k + 1, fs.size - 1)], 1e-9)
    near = min(max(f_star + offset, f_lo), f_hi)
    lo, hi = max(f_lo, near - TRACK_WINDOW_GHZ), min(f_hi, near + TRACK_WINDOW_GHZ)
    f_golden, j_golden = _golden_max(j, lo, hi, 1e-9)
    f = optimal_frequency(p_e, model, env, bounds, rate_cap=None, near=near)
    assert abs(f - f_golden) <= TRACK_TOL_GHZ or j(f) >= j_golden - 4.0 * math.ulp(j_golden)


@pytest.mark.parametrize(
    "kind, numerics, most",
    [
        pytest.param("lz", Numerics(), 3, id="lz-3"),
        pytest.param("prot", Numerics(), 2, id="prot-2"),
        pytest.param("mix", Numerics(), 4, id="mix-4"),
        pytest.param("jqf", Numerics(), 4, id="jqf-4"),
        pytest.param("mix", CALIBRATION_NUMERICS, 7, id="mix-calibration-7"),
        pytest.param("jqf", CALIBRATION_NUMERICS, 7, id="jqf-calibration-7"),
    ],
)
def test_tracked_refresh_objective_evaluations(
    kind, numerics, most, env10, bounds, monkeypatch
):
    # Each refresh builds one objective closure; count its calls.  lz's
    # first parabolic step is below the tolerance, so every refresh costs
    # one stencil and returns its anchor, the start scan's argmax.  prot
    # holds its capped plateau's right edge.  mix and jqf start from the
    # predicted frequency, which one stencil usually accepts (measured 3.3
    # on average at the default drift cap, 5.0 and 5.9 at calibration's).
    model = type(KERNEL_MODELS[kind])()
    calls = []

    def counted_objective(*args):
        j = _objective(*args)
        calls.append(0)

        def counted(f):
            calls[-1] += 1
            return j(f)

        return counted

    monkeypatch.setattr(qreset.control, "_objective", counted_objective)
    trajectory = integrate_restore(
        QubitState(0.5), TimeLocalOptimal(), model, env10, bounds, numerics
    )
    assert trajectory.termination == "precision"
    if kind in ("lz", "prot"):
        assert max(calls) <= most
    else:
        assert sum(calls) / len(calls) <= most
    if kind == "lz":
        anchor = argmax_rate(model, bounds).f_ghz
        assert np.unique(trajectory.f_ghz).tolist() == [anchor]
        assert anchor == pytest.approx(5.4, abs=1e-6)


@pytest.mark.parametrize("kind", ["mix", "jqf"])
def test_predicted_refreshes_land_on_the_golden_maximum(kind, default_runs):
    # A refresh that accepts its predicted frequency keeps the guarantee of
    # test_tracked_refresh_lands_on_the_golden_maximum: at seeded rows of
    # the default run, the held frequency is golden section's maximum of J
    # at that row's p_e over the search window around it, or J there is
    # within 4 ulp of golden's.  The terminal row repeats the last held
    # frequency at epsilon, where no refresh ran.
    _, trajectory = default_runs[kind]
    model, env, bounds = KERNEL_MODELS[kind], Environment(0.010), ControlBounds()
    rows = random.Random(0).sample(range(trajectory.n_samples - 1), 64)
    for k in rows:
        f, p_e = float(trajectory.f_ghz[k]), float(trajectory.p_e[k])
        j = _objective(model, env, None, p_e)
        lo = max(bounds.f_min_ghz, f - TRACK_WINDOW_GHZ)
        hi = min(bounds.f_max_ghz, f + TRACK_WINDOW_GHZ)
        f_golden, j_golden = _golden_max(j, lo, hi, 1e-9)
        assert abs(f - f_golden) <= TRACK_TOL_GHZ or j(f) >= j_golden - 4.0 * math.ulp(
            j_golden
        ), (k, f, f_golden)


def test_tabulated_tracked_refresh_anchors_on_the_previous_frequency(monkeypatch):
    # J kinks at every node of a tabulated spectrum, so its refresh takes no
    # predicted guess: every refresh is anchored on the frequency held over
    # the step it probes, the first on the start scan's argmax.  On this
    # tent at 20 mK the tracked frequency moves off the peak node.
    model = Tabulated(((2.0, 0.1), (5.0, 2.0), (8.0, 0.1)))
    env, bounds = Environment(0.020), ControlBounds()
    nears = []

    def recorded(*args, near=None, **kwargs):
        nears.append(near)
        return optimal_frequency(*args, near=near, **kwargs)

    monkeypatch.setattr(qreset.control, "optimal_frequency", recorded)
    trajectory = integrate_restore(QubitState(0.5), TimeLocalOptimal(), model, env, bounds)
    assert trajectory.termination == "precision"
    assert np.unique(trajectory.f_ghz).size > 1000
    assert nears[0] == argmax_rate(model, bounds).f_ghz
    # The last held segment ends in the closed-form crossing, unprobed.
    probed = [f for f, _ in itertools.groupby(trajectory.f_ghz[:-2].tolist())]
    assert [f for f, _ in itertools.groupby(nears[1:])] == probed


@pytest.mark.parametrize("kind", ["lz", "prot", "jqf"])
def test_tracked_law_scans_its_start_once_at_bind(kind, env10, bounds, monkeypatch):
    # The rate argmax is scanned when the law is bound, not in a refresh:
    # unanchored refreshes of one bound law all start from that one scan.
    model, calls, nears = KERNEL_MODELS[kind], [], []

    def counted(*args, **kwargs):
        calls.append(args)
        return argmax_rate(*args, **kwargs)

    def recorded(*args, near=None, **kwargs):
        nears.append(near)
        return optimal_frequency(*args, near=near, **kwargs)

    monkeypatch.setattr(qreset.control, "argmax_rate", counted)
    monkeypatch.setattr(qreset.control, "optimal_frequency", recorded)
    runtime = TimeLocalOptimal().bind(model, env10, bounds, Numerics())
    assert len(calls) == 1 and nears == []
    f = runtime.frequency(0.5, 0.0, None)
    assert runtime.frequency(0.5, 0.0, None) == f
    assert len(calls) == 1
    assert nears == [argmax_rate(model, bounds).f_ghz] * 2


@pytest.mark.parametrize(
    "near, temperature_K, p_e, cap",
    [
        *(
            pytest.param(near, 0.010, 1.0e-3, 1.0e6, id=repr(near))
            for near in (6.4992, 6.5, 6.5008, 6.501)
        ),
        # A plateau wider than the search window: the window moves right
        # until the plateau ends inside it.
        pytest.param(6.5, 0.010, 0.4, 1.0e3, id="wider-than-window"),
        # Anchored on the plateau, but J still rises one step past its
        # right edge: the refresh searches from the anchor instead.
        pytest.param(6.500743, 0.02516543, 4.144744e-6, 1554.487, id="past-edge"),
    ],
)
def test_direct_tracked_refresh_returns_the_plateau_right_edge(
    near, temperature_K, p_e, cap, bounds
):
    # Called directly with a cap, the refresh always applies the plateau
    # rule, from an anchor on the plateau or just past it.
    model = Protected()
    env = Environment(temperature_K)
    f = optimal_frequency(p_e, model, env, bounds, rate_cap=cap, near=near)
    assert model.rate_kernel(f) >= cap
    assert model.rate_kernel(f + 2.0e-7) < cap


def test_tracked_refresh_fails_loudly_when_its_window_never_settles(
    env10, bounds, monkeypatch
):
    # A 1e-5 GHz window 2.9 GHz below the Lorentzian peak would have to
    # move about 290,000 times to climb there.
    assert issubclass(RefreshLimitError, IntegrationError)
    monkeypatch.setattr(qreset.control, "TRACK_WINDOW_GHZ", 1.0e-5)
    with pytest.raises(RefreshLimitError, match="2048 times"):
        optimal_frequency(0.5, Lorentzian(), env10, bounds, near=2.5)


def test_parabolic_refresh_rechecks_a_wide_stencil_at_the_first_width(bounds, monkeypatch):
    # A parabolic step longer than half the first stencil widens the next
    # one; when that wide stencil accepts its point, the refresh re-checks
    # it on the first width before returning.  This lz refresh does so, and
    # probes J where the reference refresh does.
    model, env = Lorentzian(), Environment(9.52733840972433e-3)
    p_e, near = 4.8723014383320145e-5, 5.399872931279832
    probes = []

    def recorded(*args):
        j = _objective(*args)
        return lambda f: probes.append(f) or j(f)

    monkeypatch.setattr(qreset.control, "_objective", recorded)
    f = optimal_frequency(p_e, model, env, bounds, rate_cap=None, near=near)
    n = len(probes)
    assert f == reference_optimal_frequency(p_e, model, env, bounds, rate_cap=None, near=near)
    assert probes[:n] == probes[n:]
    j = _objective(model, env, None, p_e)
    f_golden, _ = _golden_max(j, near - TRACK_WINDOW_GHZ, near + TRACK_WINDOW_GHZ, 1e-9)
    assert abs(f - f_golden) <= TRACK_TOL_GHZ


@pytest.mark.parametrize(
    "p_e, near, want",
    [
        (0.3, 5.0, 2.0),
        (0.3, 5.011, 7.999999966985729),
        (0.3, 5.02, 8.0),
        (1.0e-3, 5.0, 2.851316089530373),
        (1.0e-3, 5.011, 7.999999966985729),
        (1.0e-3, 5.02, 8.0),
    ],
)
def test_parabolic_refresh_leaves_a_non_concave_stencil(p_e, near, want):
    # Near jqf's 5.011 GHz dip J is not concave, so the parabolic steps
    # stop and the window search climbs out of the dip; the refresh equals
    # the reference's, bit for bit.
    model, env, bounds = JQF(), Environment(0.010), ControlBounds()
    f = optimal_frequency(p_e, model, env, bounds, rate_cap=None, near=near)
    assert f == reference_optimal_frequency(p_e, model, env, bounds, rate_cap=None, near=near)
    assert f == want


@pytest.mark.parametrize("grid_points", [2, 0, -1])
def test_window_scans_reject_grids_below_three_points(grid_points, env10, bounds, monkeypatch):
    # Checked before the grid is allocated (np.linspace would raise its own
    # ValueError at -1 and return an empty grid at 0).
    def no_grid(*args, **kwargs):
        raise AssertionError("grid allocated")

    monkeypatch.setattr(np, "linspace", no_grid)
    with pytest.raises(SpectrumError, match="grid needs >= 3 points"):
        argmax_rate(Lorentzian(), bounds, grid_points=grid_points)
    with pytest.raises(SpectrumError, match="grid needs >= 3 points"):
        optimal_frequency(0.5, Lorentzian(), env10, bounds, grid_points=grid_points)


@pytest.mark.parametrize("kind", ["lz", "prot", "mix", "jqf"])
def test_global_scan_matches_scalar_loop(kind, env10, bounds):
    # The scan refines J's grid values as the global refresh takes them.
    model = KERNEL_MODELS[kind]
    fs = np.linspace(bounds.f_min_ghz, bounds.f_max_ghz, 4001)
    _, rates, q = _grid_terms(model, env10, 1.0e6, fs)
    for p_e in (0.5, 1e-2, 3e-4, 2e-5):
        j = _objective(model, env10, 1.0e6, p_e)
        got = _scan_max(j, fs, rates * (p_e - q), p_e * 1.0e6, ARGMAX_TOL_GHZ)
        args = (bounds.f_min_ghz, bounds.f_max_ghz, 4001, p_e * 1.0e6, ARGMAX_TOL_GHZ)
        assert got == scan_max_scalar_reference(j, *args)


def test_constant_law_below_its_floor_fails_fast(env10):
    # The mixed spectrum's rate peaks at 2 GHz, where p_eq ~ 6.8e-5 at
    # 10 mK: constant control relaxes toward that floor and never reaches
    # epsilon = 1e-5, so the run must fail before its first step.
    bounds = ControlBounds(epsilon=1e-5)
    with pytest.raises(NoDescentError, match="thermal floor"):
        integrate_restore(QubitState(0.5), ConstantAtPeak(), Mixed(), env10, bounds)
    with pytest.raises(NoDescentError):
        run_reset(Mixed(), env10, bounds, ConstantAtPeak(), Numerics())
    # Constant control binds a one-breakpoint schedule, which holds its
    # frequency and so is checked against its floor the same way.
    held = FixedSchedule(((0.0, 2.0),))
    assert held.bind(Mixed(), env10, bounds, Numerics()).held_ghz == 2.0
    with pytest.raises(NoDescentError, match="thermal floor"):
        integrate_restore(QubitState(0.5), held, Mixed(), env10, bounds)
