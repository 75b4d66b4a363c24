from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from qreset import (
    AchievabilityError,
    Baseline,
    ControlBounds,
    Environment,
    FixedSchedule,
    IntegrationError,
    IntegrationLimitError,
    LN2,
    Numerics,
    QubitState,
    Tabulated,
    ThermoDomainError,
    TimeLocalOptimal,
    Trajectory,
    WorkLedger,
    constant_control_work_approx,
    decoherence_factor,
    epsilon_min,
    report_to_dict,
    run_reset,
    thermodynamic_length_bound,
    work_ledger,
)
from qreset.cli import main
from qreset.control import TRACK_TOL_GHZ
from helpers import (
    FLOAT_COLUMN_CASES,
    empty_trajectory,
    float_column_case,
    held_restore_oracle,
    reference_work_ledger,
    same_float,
    tracked_branch_oracle,
)


def test_reset_time_composition(default_runs, bounds):
    for name, (report, _) in default_runs.items():
        assert report.T_reset == report.tau_st + 2.0 * bounds.tau_sw_us


def test_protected_headline_reset_time(default_runs):
    report, _ = default_runs["prot"]
    assert report.t1_infinite
    assert report.tau_st_over_T1 == 0.0
    assert 0.019 <= report.T_reset <= 0.021  # us


def test_lorentzian_normalized_duration(default_runs):
    report, _ = default_runs["lz"]
    assert report.tau_st_over_T1 == pytest.approx(0.0326311, rel=1e-4)


def test_ledger_closure(default_runs):
    for name, (report, _) in default_runs.items():
        assert report.W - report.dF == pytest.approx(report.W_ex, rel=1e-9)


@pytest.mark.parametrize("name", ["lz", "prot", "mix", "jqf"])
def test_tracked_law_matches_its_quadrature_oracle(name, default_runs, models, env10, bounds):
    # The oracles integrate the tracked law over p_e with no stepper;
    # tau_st, W_ex_norm and eta(tau) of the default run are held to them.
    report, trajectory = default_runs[name]
    model, numerics = models[name], Numerics()
    got = (report.tau_st, report.W_ex_norm, decoherence_factor(trajectory).at_terminal)
    if name in ("lz", "prot"):
        # The law holds its first refresh for the whole run, so the oracle is
        # one closed-form segment, which the stepper's exact exponentials give
        # but for round-off over about 220 steps: 1e-12 (measured 2e-14).
        f0 = TimeLocalOptimal().bind(model, env10, bounds, numerics).frequency(0.5, 0.0, None)
        assert np.all(trajectory.f_ghz == f0)
        want = held_restore_oracle(f0, model, env10, bounds, numerics.rate_cap_per_us)
        assert got == pytest.approx(want, rel=1.0e-12, abs=0.0)
        return
    # mix and jqf: each segment holds the refresh at its start, so the held
    # frequency trails the branch by at most one step's move, 2 drift caps,
    # and leads it by at most the refresh tolerance.  x(f) and 1/(p - p_eq(f))
    # are monotone in that offset, and 1/J(f) grows either side of zero
    # offset, where J peaks (by 3e-15 at the tolerance end), so each quantity
    # lies between the oracle at the two offsets; 1e-10 covers that and the
    # Simpson error at 1,025 nodes (1.2e-11 for jqf W_ex_norm, against 16,385).  The stepper reads tau_st +1.0e-9 (mix) and
    # +5.6e-11 (jqf), W_ex_norm -4.6e-8 and -8.5e-6, and eta(tau) -7.3e-5 and
    # -3.0e-6 from the oracle at zero offset, inside brackets 1.2e-8, 6.7e-10,
    # 1.9e-7, 3.4e-5, 2.9e-4 and 1.2e-5 wide.
    offsets = (-TRACK_TOL_GHZ, 2.0 * numerics.drift_cap(bounds))
    ends = [tracked_branch_oracle(model, env10, bounds, lag_ghz=lag) for lag in offsets]
    for quantity, value, a, b in zip(("tau_st", "W_ex_norm", "eta"), got, *ends):
        assert min(a, b) * (1.0 - 1.0e-10) <= value <= max(a, b) * (1.0 + 1.0e-10), quantity


def test_switch_work_vanishes_at_half(default_runs):
    # Starting exactly at p_e = 1/2 the first switch moves no energy.
    for name, (report, _) in default_runs.items():
        assert report.W_sw1 == 0.0


def test_work_stage_zero_under_constant_control(default_runs):
    # No frequency motion during the restore stage means no restore work.
    report, _ = default_runs["lz"]
    assert report.W_st == pytest.approx(0.0, abs=1e-12)


def test_work_ledger_requires_precision(default_runs, env10, bounds):
    trajectory = Baseline(default_runs["lz"][1]).propagate(QubitState(0.5), 1e-4)
    assert trajectory.termination == "horizon"
    with pytest.raises(ValueError):
        work_ledger(trajectory, bounds, env10)


def test_work_ledger_rejects_an_empty_trajectory(env10, bounds):
    with pytest.raises(ValueError, match="trajectory has no samples"):
        work_ledger(empty_trajectory(), bounds, env10)


@pytest.mark.parametrize("case", FLOAT_COLUMN_CASES)
def test_ledger_matches_its_python_loop_reference_bit_for_bit(
    case, default_runs, models, env10, bounds
):
    # The restore integral is a np.cumsum over the float64 columns; the loop
    # over Python floats it replaced must give every field, signed zeros included.
    trajectory = float_column_case(case, default_runs, models, env10, bounds)
    current = work_ledger(trajectory, bounds, env10)
    reference = reference_work_ledger(trajectory, bounds, env10)
    for field in dataclasses.fields(WorkLedger):
        value, expected = getattr(current, field.name), getattr(reference, field.name)
        assert type(value) is float and same_float(value, expected), (field.name, value, expected)
    if case == "zero-restore":
        assert math.copysign(1.0, current.W_st) == 1.0


def test_ledger_rejects_a_negative_frequency_as_its_reference_does(env10, bounds):
    # The first negative frequency is named, whatever its row.
    trajectory = Trajectory(
        t_us=[0.0, 1.0, 2.0], f_ghz=[5.0, -1.0, -2.0], p_e=[0.5, 0.1, 1.0e-5],
        p_r=[0.0] * 3, p_i=[0.0] * 3, rate_per_us=[1.0] * 3, p_eq=[0.0] * 3,
        tau_st_us=2.0, termination="precision", epsilon=1.0e-5,
    )
    messages = []
    for ledger in (work_ledger, reference_work_ledger):
        with pytest.raises(ThermoDomainError, match="got -1.0$") as info:
            ledger(trajectory, bounds, env10)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


def test_constant_rate_work_matches_approximation(env10):
    # Constant-rate spectrum, constant control at the top of the window,
    # tight precision: the full ledger collapses to the closed form.
    flat = Tabulated(((2.0, 1.0), (8.0, 1.0)))
    bounds = ControlBounds(epsilon=1e-8)
    schedule = FixedSchedule(((0.0, 8.0),))
    report, trajectory = run_reset(flat, env10, bounds, schedule, Numerics())
    assert float(trajectory.f_ghz[0]) == 8.0
    approx = constant_control_work_approx(8.0, env10)
    assert report.W_ex == pytest.approx(approx, rel=0.01)
    assert report.W_ex == pytest.approx(approx, rel=1e-5)  # actually far tighter


@pytest.mark.parametrize("f_st_ghz", [0.0, -1.0, math.nan])
def test_constant_control_work_approx_rejects_a_non_positive_frequency(f_st_ghz, env10):
    with pytest.raises(ValueError, match="restoring frequency must be > 0"):
        constant_control_work_approx(f_st_ghz, env10)


def test_constant_control_work_approx_values():
    env96 = Environment(0.0096)
    assert constant_control_work_approx(5.4, env96) / LN2 == pytest.approx(
        18.4733114641, rel=1e-9
    )
    # Cross-check against the published prot value at the same temperature.
    assert constant_control_work_approx(6.5, env96) / LN2 == pytest.approx(
        22.51, rel=5e-3
    )
    # Cancellation point: thermal ratio of 2 ln 2 makes the approximation vanish.
    temp = 0.04799243 * 3.0 / (2.0 * LN2)
    assert constant_control_work_approx(3.0, Environment(temp)) == pytest.approx(
        0.0, abs=1e-12
    )


def test_epsilon_independence_of_extra_work(models, env10):
    law = TimeLocalOptimal()
    w = {}
    for eps in (1e-5, 5e-6):
        report, _ = run_reset(
            models["lz"], env10, ControlBounds(epsilon=eps), law, Numerics()
        )
        w[eps] = report.W_ex
    assert abs(w[5e-6] - w[1e-5]) / w[1e-5] < 1e-3


def test_work_integral_sample_density_convergence(models, env10, bounds, default_runs):
    # Doubling the sample density (halved step bounds) must not move the
    # work integral at the 1e-4 level.
    coarse = default_runs["mix"][0].W_ex
    fine_numerics = Numerics(step_log_bound=0.025, control_drift_ghz=4.6875e-5)
    report, _ = run_reset(models["mix"], env10, bounds, TimeLocalOptimal(), fine_numerics)
    assert report.W_ex == pytest.approx(coarse, rel=1e-4)


def test_thermodynamic_length_bound_values():
    assert thermodynamic_length_bound(1.4204) == pytest.approx(1.0, rel=1e-12)
    assert thermodynamic_length_bound(0.1) == pytest.approx(14.204, rel=1e-12)
    with pytest.raises(ValueError):
        thermodynamic_length_bound(0.0)


def test_bound_comparison(default_runs):
    # The filtered spectrum beats the constant-rate bound outright; the
    # plain Lorentzian beats it when normalized by the restoring stage
    # alone (its total reset time is dominated by the fixed switches).
    prot, _ = default_runs["prot"]
    assert math.isinf(prot.W_TL_norm)
    assert 0.0 < prot.W_ex_norm < prot.W_TL_norm

    lz, _ = default_runs["lz"]
    bound_restoring = thermodynamic_length_bound(lz.tau_st_over_T1) / LN2
    assert lz.W_ex_norm < bound_restoring
    # At the default 10 ns switch duration the full-reset-time bound is
    # tighter than the achieved extra work.
    assert lz.W_ex_norm > lz.W_TL_norm


def test_achievability_error_names_floor(models):
    env = Environment(0.300)
    bounds = ControlBounds(epsilon=1e-5)
    floor = epsilon_min(bounds, env)
    assert floor > 1e-5
    with pytest.raises(AchievabilityError) as err:
        run_reset(models["lz"], env, bounds, TimeLocalOptimal(), Numerics())
    assert "epsilon_min" in str(err.value)
    assert repr(floor) in str(err.value)


def test_integration_limit_is_a_numerical_failure(models, env10, bounds):
    # The CLI maps every IntegrationError to exit 2; the limit error is one.
    numerics = Numerics(step_limit=10)
    with pytest.raises(IntegrationError, match="terminated by 'step_limit'") as err:
        run_reset(models["lz"], env10, bounds, TimeLocalOptimal(), numerics)
    assert isinstance(err.value, IntegrationLimitError)
    assert err.value.trajectory.termination == "step_limit"


def test_report_serialization(default_runs, tmp_path):
    expected_fields = [
        "tau_st",
        "T1",
        "tau_st_over_T1",
        "T_reset",
        "W_sw1",
        "W_st",
        "W_sw2",
        "W",
        "dU",
        "dS",
        "dF",
        "W_ex",
        "W_ex_norm",
        "W_TL_norm",
        "epsilon_min",
    ]
    for name, (report, _) in default_runs.items():
        assert list(report_to_dict(report)) == expected_fields
    prot = report_to_dict(default_runs["prot"][0])
    assert prot["T1"] is None
    assert prot["W_TL_norm"] is None
    # `qreset run --format csv` writes the same fields, and every cell reads
    # back as the report's value.
    for name in ("lz", "prot"):
        argv = ["run", "--scenario", f"{name}-default", "--format", "csv", "--out", str(tmp_path)]
        assert main(argv) == 0
        (path,) = tmp_path.glob(f"{name}-default-*/report.csv")
        header, row = path.read_text(encoding="utf-8").splitlines()
        assert header.split(",") == expected_fields
        cells = dict(zip(expected_fields, row.split(",")))
        report = default_runs[name][0]
        assert all(float(cells[f]) == getattr(report, f) for f in expected_fields)
    assert cells["T1"] == cells["W_TL_norm"] == "inf"


def test_entropy_sign_convention(default_runs):
    # Entropy reduction is negative in this convention and close to -ln 2.
    for name, (report, _) in default_runs.items():
        assert report.dS == pytest.approx(-LN2, rel=2e-4)
        assert report.dS > -LN2
