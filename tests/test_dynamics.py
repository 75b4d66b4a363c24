from __future__ import annotations

import dataclasses
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qreset import (
    ConstantAtPeak,
    ControlBounds,
    Environment,
    FixedSchedule,
    InfiniteRateError,
    Lorentzian,
    NoDescentError,
    Numerics,
    Protected,
    QubitState,
    Tabulated,
    TimeLocalOptimal,
    Trajectory,
    decoherence_factor,
    equilibrium_population,
    eval_rate,
    integrate_restore,
    schedule_to_csv,
    thermal_ratio,
)
from helpers import chained_exponential_population, reference_table, step_constant
from qreset.spectra import WRITE_BLOCK_ROWS

FLAT = Tabulated(((2.0, 1.0), (8.0, 1.0)))
SILENT = Tabulated(((2.0, 0.0), (8.0, 0.0)))
COLD = Environment(1e-6)


def test_qubit_state_invariants():
    QubitState(0.5, 0.5, 0.0)  # boundary of positivity is allowed
    with pytest.raises(ValueError):
        QubitState(1.2)
    with pytest.raises(ValueError):
        QubitState(-0.1)
    with pytest.raises(ValueError):
        QubitState(0.3, 0.5, 0.3)


def test_step_half_life():
    state = step_constant(QubitState(0.5), 5.0, math.log(2.0), FLAT, COLD)
    assert state.p_e == pytest.approx(0.25, rel=1e-14)


def test_step_fixed_point():
    env = Environment(0.010)
    p_eq = equilibrium_population(thermal_ratio(2.0, env))
    state = step_constant(QubitState(p_eq), 2.0, 123.4, FLAT, env)
    assert state.p_e == pytest.approx(p_eq, rel=1e-14)


def test_step_pure_rotation():
    # Quarter turn at zero rate: theta = 2pi*1e3 * f * dt = pi/2.
    dt = 1.0 / (4.0e3 * 2.5)
    state = step_constant(QubitState(0.5, 0.1, 0.0), 2.5, dt, SILENT, COLD)
    assert state.p_r == pytest.approx(0.0, abs=1e-15)
    assert state.p_i == pytest.approx(-0.1, rel=1e-12)
    assert state.p_e == 0.5


@settings(max_examples=60)
@given(
    p_e=st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
    coh_frac=st.floats(min_value=0.0, max_value=1.0),
    phase=st.floats(min_value=0.0, max_value=2.0 * math.pi),
    dt=st.floats(min_value=1e-6, max_value=10.0),
)
def test_step_preserves_invariants(p_e, coh_frac, phase, dt):
    env = Environment(0.010)
    radius = coh_frac * math.sqrt(p_e * (1.0 - p_e))
    state = QubitState(p_e, radius * math.cos(phase), radius * math.sin(phase))
    after = step_constant(state, 3.0, dt, FLAT, env)
    p_eq = equilibrium_population(thermal_ratio(3.0, env))
    lo, hi = min(p_e, p_eq), max(p_e, p_eq)
    assert lo - 1e-15 <= after.p_e <= hi + 1e-15
    assert after.coherence_abs <= state.coherence_abs + 1e-15


def test_constant_rate_crossing_time():
    bounds = ControlBounds(epsilon=1e-5)
    trajectory = integrate_restore(
        QubitState(0.5), ConstantAtPeak(), FLAT, COLD, bounds
    )
    expected = math.log(0.5 / 1e-5)  # rate is 1/us
    assert trajectory.termination == "precision"
    assert trajectory.tau_st_us == pytest.approx(expected, rel=1e-6)
    assert trajectory.terminal_state.p_e == 1e-5


def test_immediate_crossing():
    bounds = ControlBounds(epsilon=1e-5)
    trajectory = integrate_restore(
        QubitState(1.01e-5), ConstantAtPeak(), FLAT, COLD, bounds
    )
    assert trajectory.n_samples == 2
    assert trajectory.tau_st_us < 0.011  # ln(1.01) / 1


def test_initial_below_epsilon_rejected():
    bounds = ControlBounds(epsilon=1e-3)
    with pytest.raises(ValueError):
        integrate_restore(QubitState(1e-4), ConstantAtPeak(), FLAT, COLD, bounds)


def test_three_segment_chained_exponential_oracle():
    tab = Tabulated(((2.0, 0.5), (5.0, 3.0), (8.0, 1.2)))
    env = Environment(0.010)
    bounds = ControlBounds(epsilon=1e-7)
    segments = [(3.0, 1.0), (6.5, 1.5), (4.0, 1.5)]
    schedule = FixedSchedule(((0.0, 3.0), (1.0, 6.5), (2.5, 4.0)))
    trajectory = integrate_restore(
        QubitState(0.5), schedule, tab, env, bounds, t_final=4.0
    )
    # Exact at every breakpoint and at the horizon.
    t_checks = [1.0, 2.5, 4.0]
    for i, t in enumerate(t_checks):
        expected = chained_exponential_population(
            0.5, segments[: i + 1] if t < 4.0 else segments, tab, env
        )
        k = int(np.searchsorted(trajectory.t_us, t))
        assert trajectory.t_us[k] == t
        assert trajectory.p_e[k] == pytest.approx(expected, rel=1e-10)


def test_trajectory_sampling_contract(default_runs):
    for name, (report, trajectory) in default_runs.items():
        ts = trajectory.t_us
        assert ts[0] == 0.0
        assert np.all(np.diff(ts) > 0.0)
        eps = trajectory.epsilon
        assert eps * (1.0 - 1e-6) <= trajectory.p_e[-1] <= eps
        assert trajectory.termination == "precision"
        # Population decreases monotonically whenever above the local target.
        assert np.all(np.diff(trajectory.p_e) < 0.0)


def test_step_halving_leaves_tau_unchanged(models, env10, bounds, default_runs):
    law = TimeLocalOptimal()
    fine = Numerics(step_log_bound=0.025)
    for name in ("lz", "prot", "mix", "jqf"):
        tau_ref = default_runs[name][1].tau_st_us
        trajectory = integrate_restore(
            QubitState(0.5), law, models[name], env10, bounds, fine
        )
        assert trajectory.tau_st_us == pytest.approx(tau_ref, rel=1e-6)


def test_decoherence_factor_constant_rate():
    bounds = ControlBounds(epsilon=1e-5)
    trajectory = integrate_restore(QubitState(0.5), ConstantAtPeak(), FLAT, COLD, bounds)
    eta = decoherence_factor(trajectory)
    assert eta(0.0) == 1.0
    for t in (0.1, 1.0, 5.0):
        assert eta(t) == pytest.approx(math.exp(-t), rel=1e-9)


def test_decoherence_factor_exact_inside_segments():
    # The accumulated rate is the exact staircase sum, so eta is exact at
    # breakpoints and, by linear interpolation, anywhere inside a segment.
    tab = Tabulated(((2.0, 0.5), (5.0, 3.0), (8.0, 1.2)))
    schedule = FixedSchedule(((0.0, 3.0), (1.0, 6.5), (2.5, 4.0)))
    trajectory = integrate_restore(
        QubitState(0.5), schedule, tab, COLD, ControlBounds(epsilon=1e-7), t_final=4.0
    )
    r0, r1, r2 = (eval_rate(tab, f) for f in (3.0, 6.5, 4.0))
    eta = decoherence_factor(trajectory)
    for t, integral in (
        (0.5, 0.5 * r0),
        (1.0, r0),
        (1.75, r0 + 0.75 * r1),
        (2.5, r0 + 1.5 * r1),
        (4.0, r0 + 1.5 * r1 + 1.5 * r2),
    ):
        assert eta(t) == pytest.approx(math.exp(-integral), rel=1e-12)


def test_decoherence_factor_terminal_value(default_runs):
    # With a negligible thermal floor the population ratio equals eta, so
    # restoring from 1/2 to eps accumulates eta(tau) = 2 eps; the thermal
    # floor only lowers it.
    for name, (report, trajectory) in default_runs.items():
        eta = decoherence_factor(trajectory).at_terminal
        two_eps = 2.0 * trajectory.epsilon
        assert eta < two_eps
        if name in ("lz", "prot"):
            assert eta == pytest.approx(two_eps, rel=1e-3)


def test_decoherence_factor_non_increasing(default_runs):
    _, trajectory = default_runs["jqf"]
    eta = decoherence_factor(trajectory)
    ts = np.linspace(0.0, trajectory.tau_st_us, 50)
    values = [eta(float(t)) for t in ts]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_trajectory_fields_cannot_be_reassigned():
    # A run's record is one value: eta, the costate, the ledger and the
    # replay all read the rows it was built with.
    trajectory = integrate_restore(QubitState(0.5), ConstantAtPeak(), FLAT, COLD, ControlBounds())
    with pytest.raises(dataclasses.FrozenInstanceError):
        trajectory.rate_per_us = 2.0 * trajectory.rate_per_us


def test_no_descent_error():
    # Starting below the thermal floor of the chosen frequency, relaxation
    # raises the population, so the precision target is unreachable.
    env = Environment(0.300)
    bounds = ControlBounds(epsilon=1e-5)
    floor = equilibrium_population(thermal_ratio(2.0, env))
    assert floor > 0.3
    with pytest.raises(NoDescentError):
        integrate_restore(QubitState(0.3), ConstantAtPeak(), FLAT, env, bounds)


def test_no_descent_mid_run(env10):
    # The schedule switches at 7 ns from the lz peak to 2 GHz.  There p_e has
    # fallen to 5.35e-6, below p_eq(2 GHz) = 6.78e-5, so the run raises at
    # the breakpoint instead of relaxing back up.
    schedule = FixedSchedule(((0.0, 5.4), (0.007, 2.0)))
    bounds = ControlBounds(epsilon=1e-7)
    with pytest.raises(NoDescentError, match=r"f=2\.0 GHz with p_eq=.* >= p_e="):
        integrate_restore(QubitState(0.5), schedule, Lorentzian(), env10, bounds)


@pytest.mark.parametrize("grid_points", [4001, 4000, 1000])
@pytest.mark.parametrize(
    "law",
    [TimeLocalOptimal(), TimeLocalOptimal(mode="global"), ConstantAtPeak()],
    ids=["tracked", "global", "constant"],
)
def test_uncapped_pole_raises_instead_of_crossing_in_zero_time(
    law, grid_points, env10, bounds
):
    # Without a cap every law settles on the protected pole, where the rate
    # is inf; the crossing time would come out as ~0 and look like success.
    # Only the 4001-point grid has a point exactly on the pole at 6.5 GHz;
    # the others must fail as well.
    numerics = Numerics(grid_points=grid_points, rate_cap_per_us=None)
    with pytest.raises(InfiniteRateError, match="infinite"):
        integrate_restore(QubitState(0.5), law, Protected(), env10, bounds, numerics)


def test_uncapped_protected_runs_when_its_pole_is_outside_the_window(env10):
    # The pole check asks the model: with the window below f_r = 6.5 GHz the
    # uncapped rate is finite everywhere the control can go.
    bounds = ControlBounds(f_cp_ghz=4.0, delta_f_ghz=2.0)
    numerics = Numerics(rate_cap_per_us=None)
    trajectory = integrate_restore(
        QubitState(0.5), ConstantAtPeak(), Protected(), env10, bounds, numerics
    )
    assert trajectory.termination == "precision"


def test_zero_rate_spectrum_raises_no_descent(env10, bounds):
    # Zero rate everywhere: T1 is infinite, so there is no time limit, and
    # the state can never move.
    silent = Tabulated(((1.0, 0.0), (9.0, 0.0)))
    with pytest.raises(NoDescentError, match="never move"):
        integrate_restore(QubitState(0.5), TimeLocalOptimal(), silent, env10, bounds)


def test_step_limit_termination(env10):
    bounds = ControlBounds(epsilon=1e-5)
    numerics = Numerics(step_limit=5)
    trajectory = integrate_restore(
        QubitState(0.5), ConstantAtPeak(), FLAT, COLD, bounds, numerics
    )
    assert trajectory.termination == "step_limit"
    assert trajectory.n_samples == 6


def test_time_limit_termination():
    bounds = ControlBounds(epsilon=1e-5)
    numerics = Numerics(time_limit_t1=1.0)  # limit = T1 = 1 us << tau_st
    trajectory = integrate_restore(
        QubitState(0.5), ConstantAtPeak(), FLAT, COLD, bounds, numerics
    )
    assert trajectory.termination == "time_limit"
    assert trajectory.t_us[-1] == pytest.approx(1.0)


_B = WRITE_BLOCK_ROWS


@pytest.mark.parametrize("n", [1, 2, _B - 1, _B, _B + 1, 2 * _B + 1])
def test_trajectory_and_schedule_tables_match_the_per_cell_rule(n):
    # Each cell is formatted once, a block of rows at a time, for both
    # tables; the bytes must be the per-cell rule's on either side of a
    # block boundary, including cells whose repr is not a plain decimal.
    rng = np.random.default_rng(n)
    odd = [-0.0, 1e-05, 1e16, math.inf, 0.0, 5e-324]
    columns = [rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.integers(-20, 20, n) for _ in range(7)]
    for k, column in enumerate(columns):
        column[: len(odd)] = np.roll(odd, k)[: min(n, len(odd))]
    names = ("t_us", "f_ghz", "p_e", "p_r", "p_i", "rate_per_us", "p_eq")
    trajectory = Trajectory(
        **dict(zip(names, columns)), tau_st_us=1.0, termination="precision", epsilon=1e-5
    )
    table, schedule = io.StringIO(), io.StringIO()
    trajectory.to_csv(table, schedule)
    rows = list(zip(*(column.tolist() for column in columns)))
    held = max(n - 1, 1)
    assert table.getvalue() == reference_table("t_us,f_GHz,p_e,p_r,p_i,rate_per_us,p_eq", rows)
    assert schedule.getvalue() == reference_table("t_us,f_GHz", [r[:2] for r in rows[:held]])
    lines = table.getvalue().splitlines()
    assert schedule.getvalue().splitlines() == [
        ",".join(line.split(",")[:2]) for line in lines[: held + 1]
    ]
    alone, replayable = io.StringIO(), io.StringIO()
    trajectory.to_csv(alone)
    schedule_to_csv(trajectory.schedule(), replayable)
    assert (alone.getvalue(), replayable.getvalue()) == (table.getvalue(), schedule.getvalue())


def test_trajectory_csv_export(default_runs):
    _, trajectory = default_runs["lz"]
    buffer = io.StringIO()
    trajectory.to_csv(buffer)
    lines = buffer.getvalue().splitlines()
    assert lines[0] == "t_us,f_GHz,p_e,p_r,p_i,rate_per_us,p_eq"
    assert len(lines) == trajectory.n_samples + 1
    table = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    assert table[0, 0] == 0.0
    assert table[0, 2] == 0.5
    columns = (
        trajectory.t_us,
        trajectory.f_ghz,
        trajectory.p_e,
        trajectory.p_r,
        trajectory.p_i,
        trajectory.rate_per_us,
        trajectory.p_eq,
    )
    for k, column in enumerate(columns):
        assert np.array_equal(table[:, k], column)


@pytest.mark.parametrize(
    "field, value",
    [
        ("step_log_bound", 0.0),
        ("step_log_bound", math.nan),
        ("step_log_bound", -0.05),
        ("time_limit_t1", 0.0),
        ("time_limit_t1", math.inf),
        ("control_drift_ghz", 0.0),
        ("control_drift_ghz", math.nan),
        ("rate_cap_per_us", -1.0),
        ("rate_cap_per_us", math.inf),
        ("grid_points", 2),
        ("grid_points", 4001.0),
        ("grid_points", True),
        ("step_limit", 0),
        ("step_limit", 2.5),
        ("step_limit", True),
        ("step_log_bound", None),
        ("time_limit_t1", None),
    ],
)
def test_numerics_rejects_invalid_settings(field, value):
    with pytest.raises(ValueError, match=field):
        Numerics(**{field: value})


def test_numerics_accepts_unset_optionals():
    numerics = Numerics(rate_cap_per_us=None, control_drift_ghz=None, grid_points=3, step_limit=1)
    assert numerics.rate_cap_per_us is None and numerics.control_drift_ghz is None
