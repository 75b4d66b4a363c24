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
    Mixed,
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
    run_reset,
    schedule_to_csv,
    thermal_ratio,
)
import qreset.cli
import qreset.control
import qreset.dynamics
from qreset.scenario import builtin_scenario
from helpers import (
    ReferenceTimeLocalOptimal,
    chained_exponential_population,
    empty_trajectory,
    reference_integrate_restore,
    reference_open_loop,
    reference_table,
    step_constant,
)
from qreset.spectra import WRITE_BLOCK_ROWS, _constant_cell, _write_columns

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


@pytest.mark.parametrize("coherence", [(10**400, 0.0), (0.0, 10**400)], ids=["p_r", "p_i"])
def test_qubit_state_rejects_an_int_beyond_the_float_range(coherence):
    # math.isfinite would raise OverflowError on such an int.
    with pytest.raises(ValueError, match="^coherence must be finite"):
        QubitState(0.5, *coherence)


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


@pytest.mark.parametrize("coherence", [(0.1, 0.0), (0.0, 0.1)])
@pytest.mark.parametrize(
    "law", [TimeLocalOptimal(), FixedSchedule(((0.0, 5.4), (1.0, 5.0)))], ids=["tracked", "schedule"]
)
def test_a_coherent_start_is_rejected(law, coherence, models, env10, bounds):
    # The stepper carries p_e only; a coherent state is Baseline's to replay.
    with pytest.raises(ValueError, match=r"^initial coherence \(0\.\d, 0\.\d\) must be zero"):
        integrate_restore(QubitState(0.5, *coherence), law, models["lz"], env10, bounds)


def test_three_segment_chained_exponential_oracle():
    tab = Tabulated(((2.0, 0.5), (5.0, 3.0), (8.0, 1.2)))
    env = Environment(0.010)
    bounds = ControlBounds(epsilon=1e-7)
    segments = [(3.0, 1.0), (6.5, 1.5), (4.0, 1.5)]
    # The breakpoint at 4.0 us ends the third segment well above the precision.
    schedule = FixedSchedule(((0.0, 3.0), (1.0, 6.5), (2.5, 4.0), (4.0, 4.0)))
    trajectory = integrate_restore(QubitState(0.5), schedule, tab, env, bounds)
    # Exact at every breakpoint.
    for i, t in enumerate([1.0, 2.5, 4.0]):
        expected = chained_exponential_population(0.5, segments[: i + 1], tab, env)
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


def test_decoherence_factor_rejects_an_empty_trajectory():
    with pytest.raises(ValueError, match="trajectory has no samples"):
        decoherence_factor(empty_trajectory())


def test_decoherence_factor_rejects_a_nan_time():
    trajectory = integrate_restore(QubitState(0.5), ConstantAtPeak(), FLAT, COLD, ControlBounds())
    with pytest.raises(ValueError, match="t_us=nan"):
        decoherence_factor(trajectory)(math.nan)


def test_decoherence_factor_exact_inside_segments():
    # The accumulated rate is the exact staircase sum, so eta is exact at
    # breakpoints and, by linear interpolation, anywhere inside a segment.
    tab = Tabulated(((2.0, 0.5), (5.0, 3.0), (8.0, 1.2)))
    schedule = FixedSchedule(((0.0, 3.0), (1.0, 6.5), (2.5, 4.0), (4.0, 4.0)))
    trajectory = integrate_restore(
        QubitState(0.5), schedule, tab, COLD, ControlBounds(epsilon=1e-7)
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


def test_trajectory_rejects_ragged_columns():
    # Three rows with a two-row f_ghz once gave work_ledger a ledger (W_ex = 11.30).
    three = [0.0, 1.0, 2.0]
    columns = dict.fromkeys(("t_us", "p_e", "p_r", "p_i", "rate_per_us", "p_eq"), three)
    message = r"^trajectory columns differ in length: \{'t_us': 3, 'f_ghz': 2, 'p_e': 3, "
    with pytest.raises(ValueError, match=message):
        Trajectory(
            **columns, f_ghz=[5.0, 5.0], tau_st_us=2.0, termination="precision", epsilon=1e-5
        )


def test_terminal_state_of_an_empty_trajectory_names_the_cause():
    with pytest.raises(ValueError, match="^trajectory has no samples$"):
        empty_trajectory().terminal_state


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


_HEATING = ((0.0, 8.0), (90.0, 2.0), (91.0, 8.0))


def test_a_segment_before_a_cooler_breakpoint_may_heat(env10):
    # At 90 us p_e = 3.95e-5 lies below p_eq(2 GHz) = 6.78e-5: the held
    # microsecond heats the qubit, and the 8 GHz segment after it cools it.
    # One exact step per breakpoint, then the crossing in closed form.
    bounds = ControlBounds(epsilon=1e-5)
    report, trajectory = run_reset(Mixed(), env10, bounds, FixedSchedule(_HEATING), Numerics())
    assert trajectory.termination == "precision"
    p_91 = chained_exponential_population(0.5, [(8.0, 90.0), (2.0, 1.0)], Mixed(), env10)
    rate, p_eq = eval_rate(Mixed(), 8.0, 1.0e6), equilibrium_population(thermal_ratio(8.0, env10))
    assert report.tau_st == 91.0 + math.log((p_91 - p_eq) / (1e-5 - p_eq)) / rate
    assert repr(report.tau_st) == "105.6744249560616" and trajectory.n_samples == 4
    heated = trajectory.p_e[(trajectory.t_us >= 90.0) & (trajectory.t_us <= 91.0)]
    assert heated[0] < trajectory.p_eq[trajectory.t_us == 90.0][0]
    assert np.all(np.diff(heated) > 0.0) and heated[-1] > 4.6e-5
    assert report.W - report.dF == pytest.approx(report.W_ex, rel=1e-12)


def test_a_heating_last_segment_still_raises_no_descent(env10):
    schedule = FixedSchedule(_HEATING[:2])
    bounds = ControlBounds(epsilon=1e-5)
    with pytest.raises(NoDescentError, match=r"f=2\.0 GHz with p_eq=.* >= p_e="):
        integrate_restore(QubitState(0.5), schedule, Mixed(), env10, bounds)


@pytest.mark.parametrize("f_ghz, tau", [(5.4, "221.69225562191352"), (7.5, "6.2413911322966")])
def test_uncapped_schedule_away_from_the_pole_equals_the_capped_run(f_ghz, tau, env10):
    # A schedule holds only its own frequencies, where the cap cannot bind.
    schedule, bounds = FixedSchedule(((0.0, f_ghz),)), ControlBounds(epsilon=1e-5)
    uncapped, capped = (
        integrate_restore(QubitState(0.5), schedule, Protected(), env10, bounds, numerics)
        for numerics in (Numerics(rate_cap_per_us=None), Numerics())
    )
    assert uncapped.termination == "precision" and repr(uncapped.tau_st_us) == tau
    # One held step: the pins are the closed-form crossing of that frequency.
    rate = eval_rate(Protected(), f_ghz, None)
    p_eq = equilibrium_population(thermal_ratio(f_ghz, env10))
    assert uncapped.tau_st_us == math.log((0.5 - p_eq) / (1e-5 - p_eq)) / rate
    assert uncapped.n_samples == 2
    for field in dataclasses.fields(Trajectory):
        a, b = getattr(uncapped, field.name), getattr(capped, field.name)
        assert (a.tobytes() == b.tobytes()) if isinstance(a, np.ndarray) else a == b


def test_uncapped_schedule_holding_the_pole_raises_in_the_loop(env10):
    schedule, bounds = FixedSchedule(((0.0, 6.5),)), ControlBounds(epsilon=1e-5)
    numerics = Numerics(rate_cap_per_us=None)
    with pytest.raises(InfiniteRateError, match=r"rate at f=6\.5 GHz is infinite"):
        integrate_restore(QubitState(0.5), schedule, Protected(), env10, bounds, numerics)


@pytest.mark.parametrize("grid_points", [4001, 4000, 1000])
@pytest.mark.parametrize(
    "law",
    [TimeLocalOptimal(), TimeLocalOptimal(mode="global"), ConstantAtPeak()],
    ids=["tracked", "global", "constant"],
)
def test_uncapped_pole_raises_instead_of_crossing_in_zero_time(
    law, grid_points, env10, bounds
):
    # Without a cap every rate-seeking law settles on the protected pole, where the rate
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
    # One step per breakpoint: eight of them, well above the precision, stop at the fifth step.
    bounds = ControlBounds(epsilon=1e-5)
    numerics = Numerics(step_limit=5)
    schedule = FixedSchedule(tuple((0.5 * k, 3.0) for k in range(8)))
    trajectory = integrate_restore(QubitState(0.5), schedule, FLAT, COLD, bounds, numerics)
    assert trajectory.termination == "step_limit"
    assert trajectory.n_samples == 6
    assert trajectory.t_us.tolist() == [0.0, 0.5, 1.0, 1.5, 2.0, 2.5]


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


@pytest.mark.parametrize("n", [0, 1, _B + 1])
def test_row_tables_match_the_per_cell_rule(n):
    # Row callers transpose their rows into the column writer.  Only a
    # float64 array is formatted a column at a time; a str cell is written
    # as given and any other cell (int, np.float64, bool, float32) as
    # repr(float(cell)).  Zero rows leave the header alone.
    rng = np.random.default_rng(n)
    rows = [
        (f"s{k}", k - 3, np.float64(x), bool(k % 2), np.float32(x), x)
        for k, x in enumerate((rng.uniform(-1.0, 1.0, n) * 1e-7).tolist())
    ]
    header = "name,count,value,flag,single,plain"
    expected = reference_table(header, rows)
    assert expected.count("\n") == n + 1
    for columns in (list(zip(*rows)), [np.asarray(column) for column in zip(*rows)]):
        table = io.StringIO()
        _write_columns(table, header, columns)
        assert table.getvalue() == expected
    empty = io.StringIO()
    schedule_to_csv([], empty)
    assert empty.getvalue() == "t_us,f_GHz\n"


_ODD_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 0.1]


def _bits(x: float) -> int:
    return int(np.array([x]).view(np.int64)[0])


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([0, 1, _B - 1, _B, _B + 1, 2 * _B + 1]),
    kinds=st.lists(
        st.sampled_from(["constant", "one-off", "varying", "str", "int", "float32", "list"]),
        min_size=2,
        max_size=6,
    ),
    value=st.one_of(st.sampled_from(_ODD_FLOATS), st.floats()),
    with_lead=st.booleans(),
    data=st.data(),
)
def test_constant_columns_match_the_per_cell_rule(n, kinds, value, with_lead, data):
    # A float64 array whose values all have one bit pattern is formatted
    # once per table; one row with other bits (+0.0 against -0.0 too), a
    # str column or a non-float64 column keeps the per-cell path.  Either
    # way the bytes are the per-cell rule's, the lead stream's included.
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    other = data.draw(
        st.one_of(st.sampled_from(_ODD_FLOATS), st.floats()).filter(
            lambda x: _bits(x) != _bits(value)
        )
    )
    columns = []
    for kind in kinds:
        column = np.full(n, value)
        if kind == "one-off" and n:
            column[data.draw(st.integers(0, n - 1))] = other
        elif kind == "varying":
            column = rng.standard_normal(n)
        elif kind == "str":
            column = ["s"] * n
        elif kind == "int":
            column = np.full(n, 7)
        elif kind == "float32":
            column = np.full(n, 0.5, dtype=np.float32)
        elif kind == "list":
            column = [value] * n
        columns.append(column)
        if kind in ("constant", "one-off", "varying") and n:
            single = n == 1 or kind == "constant"
            assert _constant_cell(column) == (repr(float(column[0])) if single else None)
        else:
            assert _constant_cell(column) is None
    header = ",".join(f"c{k}" for k in range(len(columns)))
    rows = list(zip(*columns))
    held = data.draw(st.integers(0, n)) if with_lead else 0
    table, lead = io.StringIO(), io.StringIO()
    _write_columns(table, header, columns, (lead, held) if with_lead else None)
    assert table.getvalue() == reference_table(header, rows)
    if with_lead:
        assert lead.getvalue() == reference_table("c0,c1", [r[:2] for r in rows[:held]])
    else:
        assert lead.getvalue() == ""


@pytest.mark.parametrize("held, other", [(0.0, -0.0), (-0.0, 0.0)])
def test_a_signed_zero_in_one_row_keeps_the_per_cell_path(held, other):
    # +0.0 == -0.0 as floats, but their bits and their text differ.
    column = np.full(2 * _B + 1, held)
    column[_B] = other
    assert _constant_cell(column) is None
    table = io.StringIO()
    _write_columns(table, "z", [column])
    assert table.getvalue() == reference_table("z", [(x,) for x in column.tolist()])


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
        ("step_log_bound", 1.5),  # more than one e-fold of the gap per step
        ("step_log_bound", 800.0),
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
        ("step_log_bound", True),
        ("time_limit_t1", True),
        ("control_drift_ghz", True),
        ("rate_cap_per_us", True),
        ("step_log_bound", "0.05"),
    ],
)
def test_numerics_rejects_invalid_settings(field, value):
    with pytest.raises(ValueError, match=field):
        Numerics(**{field: value})


@pytest.mark.parametrize(
    "field", ["step_log_bound", "rate_cap_per_us", "control_drift_ghz", "time_limit_t1"]
)
def test_numerics_rejects_an_int_beyond_the_float_range(field):
    # math.isfinite would raise OverflowError on such an int, naming no field.
    with pytest.raises(ValueError, match=f"^numerics.{field} must be finite and > 0"):
        Numerics(**{field: 10**400})


def test_numerics_accepts_unset_optionals():
    numerics = Numerics(rate_cap_per_us=None, control_drift_ghz=None, grid_points=3, step_limit=1)
    assert numerics.rate_cap_per_us is None and numerics.control_drift_ghz is None


# Scenario changes of each loop case's variant; "tent" is not a scenario.
# jqf-20mK follows the slow branch (tau_st 149.3 us against 98.8 us global)
# at 21,991 samples, clear of both window bounds, and refits its predictor
# about 2,000 times.  At the calibration's coarse numerics most refreshes
# correct their guess, so "cal" renews the predictor's history at most
# refreshes.
_LOOP_VARIANTS = {
    "tracked": {},
    "schedule": {},
    "global": {"control_mode": "global"},
    "constant": {"control": "constant"},
    "10.03mK": {"temperature_K": 0.01003},
    "20mK": {"temperature_K": 0.020},
    "cal": {"numerics": qreset.cli.CALIBRATION_NUMERICS},
}


def _loop_case(case: str):
    """``(initial, law, model, env, bounds, numerics)`` of one named loop case."""
    kind, _, variant = case.partition("-")
    initial = QubitState(0.5)
    if kind == "tent":  # tracked at 20 mK on a three-node tabulated tent
        tent, env = Tabulated(((1.5, 0.1), (4.0, 2.0), (8.5, 0.2))), Environment(0.020)
        return initial, TimeLocalOptimal(), tent, env, ControlBounds(), Numerics()
    scenario = dataclasses.replace(builtin_scenario(f"{kind}-default"), **_LOOP_VARIANTS[variant])
    model, env, bounds, law, numerics = scenario.build()
    if variant == "schedule":
        recorded = integrate_restore(initial, law, model, env, bounds, numerics)
        law = FixedSchedule(recorded.schedule())
    return initial, law, model, env, bounds, numerics


@pytest.mark.parametrize(
    "case",
    [
        "lz-tracked", "prot-tracked", "mix-tracked", "jqf-tracked", "prot-10.03mK",
        "lz-global", "prot-global", "jqf-global", "lz-constant", "prot-constant",
        "tent-20mK", "mix-schedule", "jqf-20mK", "mix-cal", "jqf-cal",
    ],
)
def test_loop_matches_its_builtin_calling_reference_bit_for_bit(case, monkeypatch):
    # The stepper and the tracked runtime lost their builtin calls, skip the
    # crossing log far from the target and refit the predictor only when its
    # history changes; the copies from before must give the same floats
    # through the same refreshes and objectives.  An open-loop law takes one
    # exact step per breakpoint instead, the chained exponentials of
    # reference_open_loop.  The references record Python floats, the loop
    # one float64 buffer.
    initial, law, model, env, bounds, numerics = _loop_case(case)
    calls = {"optimal_frequency": 0, "_objective": 0}
    for name in calls:
        original = getattr(qreset.control, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(qreset.control, name, counted)

    def run(integrate, law):
        calls.update(dict.fromkeys(calls, 0))
        trajectory = integrate(initial, law, model, env, bounds, numerics)
        return trajectory, dict(calls)

    current, current_calls = run(integrate_restore, law)
    if isinstance(law, TimeLocalOptimal):
        reference, reference_calls = run(
            reference_integrate_restore, ReferenceTimeLocalOptimal(law.mode)
        )
    else:
        reference, reference_calls = run(reference_open_loop, law)
    assert current_calls == reference_calls
    assert (current.termination, current.tau_st_us) == (reference.termination, reference.tau_st_us)
    for name in ("t_us", "f_ghz", "p_e", "p_r", "p_i", "rate_per_us", "p_eq"):
        assert np.array_equal(getattr(current, name), getattr(reference, name)), name
    assert current.termination == "precision"


def test_a_capped_run_records_its_cap_on_the_plateau(default_runs, models, env10, bounds):
    # prot's start scan hits the cap, so the tracked runtime declares it and
    # the stepper caps every rate: the plateau rows read the cap itself.
    numerics, model = Numerics(), models["prot"]
    cap = numerics.rate_cap_per_us
    for law in (TimeLocalOptimal(), TimeLocalOptimal("global")):
        assert law.bind(model, env10, bounds, numerics).rate_cap_per_us == cap
    assert ConstantAtPeak().bind(model, env10, bounds, numerics)[1] == cap
    trajectory = default_runs["prot"][1]
    rates = trajectory.rate_per_us.tolist()
    plateau = [r for f, r in zip(trajectory.f_ghz.tolist(), rates) if model.rate_kernel(f) >= cap]
    assert max(rates) <= cap
    assert plateau and set(plateau) == {cap}


@pytest.mark.parametrize("name", ["lz", "mix", "jqf"])
def test_an_uncapped_tracked_run_records_the_capped_rate(name, default_runs, models, env10, bounds):
    # Their start scans find the rate below the cap across the window, so the
    # tracked runtime declares no cap and the stepper calls the bare kernel:
    # each recorded rate is still the capped scalar rate, bit for bit.
    numerics, model = Numerics(), models[name]
    assert TimeLocalOptimal().bind(model, env10, bounds, numerics).rate_cap_per_us is None
    trajectory = default_runs[name][1]
    capped = [eval_rate(model, f, numerics.rate_cap_per_us) for f in trajectory.f_ghz.tolist()]
    assert [r.hex() for r in trajectory.rate_per_us.tolist()] == [r.hex() for r in capped]


@pytest.mark.parametrize("name", ["lz", "prot", "jqf"])
def test_the_stepper_builds_one_rate_evaluator_and_calls_it_once_per_step(
    name, models, env10, bounds, monkeypatch
):
    # bench/tracer.py counts dynamics.rate_evals as calls of the evaluator
    # that dynamics.rate_fn returns: one per run, whether capped or not, and
    # one call per sample but the terminal one, which repeats the last rate.
    built, calls, rate_fn = [0], [0], qreset.dynamics.rate_fn

    def counted_rate_fn(*args):
        built[0] += 1
        evaluate = rate_fn(*args)

        def counted(f):
            calls[0] += 1
            return evaluate(f)

        return counted

    monkeypatch.setattr(qreset.dynamics, "rate_fn", counted_rate_fn)
    law, model = TimeLocalOptimal(), models[name]
    trajectory = integrate_restore(QubitState(0.5), law, model, env10, bounds, Numerics())
    assert trajectory.termination == "precision"
    assert (built[0], calls[0]) == (1, trajectory.n_samples - 1)
