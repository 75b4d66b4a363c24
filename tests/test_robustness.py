from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qreset import (
    AchievabilityError,
    Baseline,
    CoherenceDeviation,
    ControlBounds,
    ControlTimeDeviation,
    Environment,
    FixedSchedule,
    PopulationDeviation,
    QubitState,
    Tabulated,
    TimeLocalOptimal,
    Trajectory,
    decoherence_factor,
    fidelity,
    fidelity_sweep,
    make_baseline,
    run_deviation,
    sensitivity_report,
)
from qreset.cli import _FIG4_POINTS
from qreset.robustness import _advance, _initial_state
from helpers import (
    FLOAT_COLUMN_CASES,
    chained_exponential_population,
    empty_trajectory,
    float_column_case,
    reference_baseline_maps,
    reference_integrate_restore,
    stepper_replay,
)

EPS = 1.0e-5


def test_fidelity_identical_state():
    assert fidelity(QubitState(EPS), EPS) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_swapped_populations():
    expected = 4.0 * EPS * (1.0 - EPS)
    assert fidelity(QubitState(1.0 - EPS), EPS) == pytest.approx(expected, rel=1e-9)


def test_fidelity_pure_superposition():
    # det rho = 0 for the pure |+> state, leaving only the overlap term.
    assert fidelity(QubitState(0.5, 0.5, 0.0), EPS) == pytest.approx(0.5, abs=1e-12)


@settings(max_examples=80)
@given(
    p_e=st.floats(min_value=0.0, max_value=1.0),
    coh_frac=st.floats(min_value=0.0, max_value=1.0),
    phase=st.floats(min_value=0.0, max_value=2.0 * math.pi),
)
def test_fidelity_bounded(p_e, coh_frac, phase):
    radius = coh_frac * math.sqrt(p_e * (1.0 - p_e))
    state = QubitState(p_e, radius * math.cos(phase), radius * math.sin(phase))
    f = fidelity(state, EPS)
    assert 0.0 <= f <= 1.0 + 1e-12


def test_deviation_spec_validation():
    with pytest.raises(ValueError):
        PopulationDeviation(1.2)
    with pytest.raises(ValueError):
        CoherenceDeviation(0.51)


@pytest.mark.parametrize(
    "make",
    [
        lambda: ControlTimeDeviation(math.nan),
        lambda: ControlTimeDeviation(math.inf),
        lambda: CoherenceDeviation(0.25, c_phase=math.nan),
        lambda: CoherenceDeviation(0.25, c_phase=math.inf),
        lambda: QubitState(0.5, math.nan, 0.0),
        lambda: QubitState(0.5, 0.0, math.nan),
    ],
    ids=["delta_tau-nan", "delta_tau-inf", "c_phase-nan", "c_phase-inf", "p_r-nan", "p_i-nan"],
)
def test_non_finite_deviation_rejected(make):
    with pytest.raises(ValueError):
        make()


def _oracle_cases(baseline):
    """Deviations on every axis, with control times at the awkward places."""
    tau = baseline.tau_st_us
    t = baseline.trajectory.t_us
    j = int(np.searchsorted(t, 0.25 * tau))
    mid_segment = 0.5 * (t[j] + t[j + 1]) - tau
    k = int(np.searchsorted(t, 0.75 * tau))
    on_breakpoint = t[k] - tau
    assert tau + on_breakpoint == t[k]
    return [
        PopulationDeviation(0.0),
        PopulationDeviation(1.0),
        *(CoherenceDeviation(0.5, phase) for phase in (0.0, 1.1, math.pi)),
        ControlTimeDeviation(mid_segment),
        ControlTimeDeviation(on_breakpoint),
        ControlTimeDeviation(-0.5 * tau),
        ControlTimeDeviation(2.0 * tau),
    ]


def test_make_baseline_rejects_an_unachievable_epsilon(models, env10, monkeypatch):
    # The same floor check as run_reset, before the baseline's first step.
    def no_step(*args, **kwargs):
        raise AssertionError("integrate_restore called")

    monkeypatch.setattr("qreset.robustness.integrate_restore", no_step)
    bounds = ControlBounds(epsilon=1e-18)
    for model in models.values():
        with pytest.raises(AchievabilityError, match="not achievable.*epsilon_min="):
            make_baseline(model, env10, bounds, TimeLocalOptimal())


def test_closed_form_replay_matches_stepper(baselines, models, env10, bounds):
    for name, baseline in baselines.items():
        for spec in _oracle_cases(baseline):
            result = run_deviation(spec, baseline)
            reference = stepper_replay(
                baseline.trajectory,
                *_initial_state(spec, baseline.tau_st_us),
                models[name],
                env10,
                bounds,
            )
            got, want = result.final_state, reference.terminal_state
            assert got.p_e == pytest.approx(want.p_e, rel=1e-12, abs=0.0), (name, spec)
            assert got.coherence_abs == pytest.approx(
                want.coherence_abs, rel=1e-12, abs=0.0
            ), (name, spec)
            # The phase sums to ~1e4 rad over ~1e4 segments on both paths, so
            # rounding leaves ~1e-9 of |c| in the components.
            phase_tol = 1e-8 * want.coherence_abs
            assert abs(got.p_r - want.p_r) <= phase_tol, (name, spec)
            assert abs(got.p_i - want.p_i) <= phase_tol, (name, spec)
            trajectory = result.trajectory
            assert trajectory.termination == "horizon"
            assert trajectory.t_us[-1] == reference.t_us[-1]
            assert np.all(np.diff(trajectory.t_us) > 0.0)


_TAB = Tabulated(((2.0, 0.5), (5.0, 3.0), (8.0, 1.2)))
_ENV = Environment(0.010)
_BOUNDS = ControlBounds()


def _segments_until(segments, t_end):
    """The (f, dt) segments run up to ``t_end``, holding the last one past its end."""
    out, start = [], 0.0
    for i, (f, dt) in enumerate(segments):
        span = t_end - start if i == len(segments) - 1 else min(dt, t_end - start)
        if span > 0.0:
            out.append((f, span))
        start += dt
        if start >= t_end:
            break
    return out


@settings(max_examples=60, deadline=None)
@given(
    segments=st.lists(
        st.tuples(st.floats(min_value=2.0, max_value=8.0), st.floats(min_value=0.01, max_value=1.0)),
        min_size=1,
        max_size=6,
    ),
    p0=st.floats(min_value=0.0, max_value=1.0),
    horizon=st.floats(min_value=0.0, max_value=1.5),
)
def test_closed_form_replay_matches_chained_exponentials(segments, p0, horizon):
    times = [0.0]
    for _, dt in segments[:-1]:
        times.append(times[-1] + dt)
    schedule = FixedSchedule(tuple(zip(times, (f for f, _ in segments))))
    tau = times[-1] + segments[-1][1]
    trajectory = reference_integrate_restore(
        QubitState(0.5), schedule, _TAB, _ENV, _BOUNDS, t_final=tau
    )
    baseline = Baseline(trajectory)

    result = run_deviation(PopulationDeviation(p0), baseline)
    expected = chained_exponential_population(p0, segments, _TAB, _ENV)
    assert result.final_state.p_e == pytest.approx(expected, rel=1e-12, abs=1e-300)

    delta = (horizon - 1.0) * tau
    result = run_deviation(ControlTimeDeviation(delta), baseline)
    expected = chained_exponential_population(
        0.5, _segments_until(segments, tau + delta), _TAB, _ENV
    )
    assert result.final_state.p_e == pytest.approx(expected, rel=1e-12, abs=1e-300)


def test_replay_reproduces_baseline(baselines, models, env10, bounds):
    for name, baseline in baselines.items():
        trajectory = baseline.trajectory
        replay = stepper_replay(
            trajectory, QubitState(0.5), baseline.tau_st_us, models[name], env10, bounds
        )
        assert replay.termination == "horizon"
        drift = abs(replay.terminal_state.p_e - trajectory.terminal_state.p_e)
        assert drift < 1e-9


def test_closed_form_replay_returns_the_recorded_rows(baselines):
    # Undeviated, the closed form holds exactly the segments the run held:
    # its rows before the terminal one are the recorded t, f, rate and p_eq.
    for name, baseline in baselines.items():
        recorded = baseline.trajectory
        replay = run_deviation(PopulationDeviation(0.5), baseline).trajectory
        assert replay.n_samples == recorded.n_samples, name
        for column in ("t_us", "f_ghz", "rate_per_us", "p_eq"):
            got, want = getattr(replay, column)[:-1], getattr(recorded, column)[:-1]
            assert np.array_equal(got, want), (name, column)
        np.testing.assert_allclose(replay.p_e[:-1], recorded.p_e[:-1], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("case", FLOAT_COLUMN_CASES)
def test_offsets_match_their_list_reference_bit_for_bit(case, default_runs, models, env10, bounds):
    # The offset recurrence reads the columns through memoryviews into
    # np.fromiter; the list of Python floats it replaced must give every entry.
    # The other maps and the accumulated rate are filled in place by the same
    # IEEE operations, in the same order, as the plain expressions they replaced.
    trajectory = float_column_case(case, default_runs, models, env10, bounds)
    baseline = Baseline(trajectory)
    maps = ("_decay", "_amp", "_cos", "_sin", "_offset")
    current = {name: getattr(baseline, name) for name in maps}
    current["cumulative_rate_integral"] = trajectory.cumulative_rate_integral()
    reference = reference_baseline_maps(trajectory)
    assert current.keys() == reference.keys()
    for name, value in current.items():
        assert value.dtype == reference[name].dtype and value.shape == reference[name].shape, name
        assert value.tobytes() == reference[name].tobytes(), name


def test_baseline_rejects_an_empty_trajectory():
    with pytest.raises(ValueError, match="trajectory has no samples"):
        Baseline(empty_trajectory())


@pytest.mark.parametrize(
    "column", ["t_us", "f_ghz", "p_e", "p_r", "p_i", "rate_per_us", "p_eq"]
)
def test_run_and_replay_columns_are_read_only(column, baselines):
    # The ledger, the costate and every later replay read these columns, so
    # a write into any trajectory, a run, a replay or one built by hand from
    # lists, fails instead of changing them.
    baseline = baselines["lz"]
    replay = run_deviation(PopulationDeviation(0.4), baseline).trajectory
    names = ("t_us", "f_ghz", "p_e", "p_r", "p_i", "rate_per_us", "p_eq")
    by_hand = Trajectory(
        **{name: [0.0, 1.0] for name in names}, tau_st_us=1.0, termination="horizon", epsilon=EPS
    )
    assert getattr(by_hand, column).dtype == np.float64
    for trajectory in (baseline.trajectory, replay, by_hand):
        with pytest.raises(ValueError, match="read-only"):
            getattr(trajectory, column)[:] = 0.0


def test_run_deviation_rejects_an_unknown_spec(baselines):
    with pytest.raises(TypeError, match="unknown deviation spec 0.5"):
        run_deviation(0.5, baselines["lz"])


@pytest.mark.parametrize("t_final_us", [-1.0, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry", ["propagate", "state_at"])
def test_propagate_rejects_an_invalid_end_time(entry, t_final_us, baselines):
    with pytest.raises(ValueError, match=f"t_final_us must be finite and >= 0, got {t_final_us!r}"):
        getattr(baselines["lz"], entry)(QubitState(0.5), t_final_us)


def _elementwise_end_state(baseline, initial, t_final_us):
    # The end state as the replay's columns compute it: the composed maps
    # taken elementwise up to the segment in force, then one partial segment.
    k = int(np.searchsorted(baseline._t_us, t_final_us, side="right")) - 1
    p0, r0, i0 = initial.p_e, initial.p_r, initial.p_i
    p_e = baseline._decay[: k + 1] * p0 + baseline._offset[: k + 1]
    amp, cos, sin = baseline._amp[: k + 1], baseline._cos[: k + 1], baseline._sin[: k + 1]
    p_r = amp * (r0 * cos + i0 * sin)
    p_i = amp * (i0 * cos - r0 * sin)
    held = (baseline._rate_per_us[k], baseline._p_eq[k], baseline._f_ghz[k])
    dt = t_final_us - float(baseline._t_us[k])
    start = (float(p_e[k]), float(p_r[k]), float(p_i[k]))
    return QubitState(*_advance(*start, *map(float, held), dt))


def _end_state_specs(baseline):
    # Every point of the three fig4 axes, and control times that end on a
    # breakpoint, inside a segment, past the last recorded row and at t=0.
    tau = baseline.tau_st_us
    points = _FIG4_POINTS
    specs = [PopulationDeviation(p) for p in np.linspace(0.0, 1.0, points["population"]).tolist()]
    specs += [CoherenceDeviation(c) for c in np.linspace(0.0, 0.5, points["coherence"]).tolist()]
    deltas = np.linspace(-0.5 * tau, 5.0 * tau, points["control_time"]).tolist()
    t = baseline.trajectory.t_us
    mid = t.size // 2
    on_breakpoint, inside = float(t[-2]) - tau, 0.5 * float(t[mid] + t[mid + 1]) - tau
    assert tau + on_breakpoint == t[-2] and t[mid] < tau + inside < t[mid + 1]
    deltas += [on_breakpoint, inside, tau, -tau]
    return specs + [ControlTimeDeviation(d) for d in deltas]


def test_end_state_is_the_replay_terminal_row_bit_for_bit(baselines):
    names = ("t_us", "f_ghz", "p_e", "p_r", "p_i", "rate_per_us", "p_eq")
    for name, baseline in baselines.items():
        for spec in _end_state_specs(baseline):
            initial, t_f = _initial_state(spec, baseline.tau_st_us)
            replay = baseline.propagate(initial, t_f)
            result = run_deviation(spec, baseline)
            assert result.final_state == replay.terminal_state, (name, spec)
            elementwise = _elementwise_end_state(baseline, initial, t_f)
            assert result.final_state == elementwise, (name, spec)
            assert result.fidelity == fidelity(replay.terminal_state, replay.epsilon), (name, spec)
            built = result.trajectory
            assert built is result.trajectory
            for column in names:
                assert np.array_equal(getattr(built, column), getattr(replay, column)), (name, spec)
            for field in ("tau_st_us", "termination", "epsilon"):
                assert getattr(built, field) == getattr(replay, field), (name, spec)


def test_sweeps_and_sensitivities_build_no_replay_rows(baselines, monkeypatch):
    # fig4 and the sensitivity report read only end states, so they run
    # without a single propagate call.
    def no_rows(self, initial, t_final_us):
        raise AssertionError("a sweep built a replay's rows")

    monkeypatch.setattr(Baseline, "propagate", no_rows)
    baseline = baselines["jqf"]
    for axis, n_points in _FIG4_POINTS.items():
        assert fidelity_sweep(baseline, axis, n_points).fidelity.size == n_points
    assert sensitivity_report(baseline).population_rel_diff < 1e-4


def test_no_deviation_reaches_target(baselines):
    for name, baseline in baselines.items():
        result = run_deviation(PopulationDeviation(0.5), baseline)
        assert result.fidelity >= 1.0 - 2.0 * EPS


def test_full_population_deviation(baselines):
    baseline = baselines["lz"]
    result = run_deviation(PopulationDeviation(1.0), baseline)
    assert result.final_state.p_e <= 2.0 * EPS
    assert result.fidelity > 0.9999


def test_full_coherence_deviation(baselines):
    baseline = baselines["lz"]
    for phase in (0.0, 1.1, math.pi):
        result = run_deviation(CoherenceDeviation(0.5, phase), baseline)
        assert result.final_state.coherence_abs <= 0.5 * math.sqrt(2.0 * EPS) * 1.001
        assert result.fidelity > 0.999


def test_control_time_rewind_bound(baselines):
    baseline = baselines["lz"]
    with pytest.raises(ValueError):
        run_deviation(ControlTimeDeviation(-2.0 * baseline.tau_st_us), baseline)


def test_population_sensitivity_matches_eta(baselines):
    for name in ("lz", "mix"):
        report = sensitivity_report(baselines[name])
        assert report.population_rel_diff < 1e-4


def test_coherence_sensitivity_follows_half_rate(baselines):
    # The dynamics damp coherences at half the population rate, so the
    # finite-difference slope follows sqrt(eta); an eta-scaling reading is
    # off by 1/sqrt(eta), i.e. by orders of magnitude, and the report
    # carries that disagreement explicitly.
    report = sensitivity_report(baselines["lz"])
    assert report.coherence_rel_diff_vs_sqrt_eta < 1e-4
    assert report.coherence_rel_diff_vs_eta > 10.0


def test_control_time_sensitivity_scale(baselines):
    for name in ("lz", "prot"):
        report = sensitivity_report(baselines[name])
        assert report.control_time_rel_diff < 0.01


def test_population_sweep_fidelity_floor(baselines):
    curve = fidelity_sweep(baselines["lz"], "population", 21)
    assert curve.fidelity.min() > 0.9999
    assert curve.deviation[0] == 0.0 and curve.deviation[-1] == 1.0


def test_coherence_sweep_endpoint_ordering(baselines):
    curve = fidelity_sweep(baselines["lz"], "coherence", 11)
    assert curve.fidelity[0] >= curve.fidelity[-1]
    assert np.all(curve.fidelity > 0.999)


def test_control_time_sweep_forward_errors_order_epsilon(baselines):
    baseline = baselines["lz"]
    curve = fidelity_sweep(baseline, "control_time", 12)
    forward = curve.deviation >= 0.0
    assert np.all(np.abs(curve.final_p_e[forward] - EPS) <= 1.5 * EPS)
    assert np.all(curve.fidelity[forward] > 0.9999)
    # Rewinding half the protocol leaves the state visibly unreset.
    assert curve.final_p_e[0] > 100.0 * EPS


def test_sweep_axis_validation(baselines):
    with pytest.raises(ValueError):
        fidelity_sweep(baselines["lz"], "detuning", 5)
    with pytest.raises(ValueError):
        fidelity_sweep(baselines["lz"], "population", 1)


def test_eta_suppresses_population_errors(baselines):
    # Terminal population error ~ |p - 1/2| * eta(tau) for every channel.
    baseline = baselines["jqf"]
    eta = decoherence_factor(baseline.trajectory).at_terminal
    for p in (0.0, 0.25, 0.75, 1.0):
        result = run_deviation(PopulationDeviation(p), baseline)
        predicted = abs(p - 0.5) * eta
        observed = abs(result.final_state.p_e - baseline.trajectory.terminal_state.p_e)
        # The replay is affine in p0 with slope eta(tau); the thermal floor
        # only shifts the offset.
        assert observed == pytest.approx(predicted, rel=1e-9)
