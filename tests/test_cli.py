from __future__ import annotations

import json
import math
from dataclasses import asdict, replace
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from qreset import (
    ConfigError,
    Environment,
    Numerics,
    Scenario,
    builtin_scenario,
    calibrate_temperature,
    run_reset,
)
from qreset.cli import (
    BUILTIN_SCENARIO_NAMES,
    CALIBRATION_NUMERICS,
    CalibrationResult,
    PAPER_W_EX_NORM_TARGETS,
    main,
    parse_axis,
    scenario_hash,
)

# Independent copy of the published spectrum parameters; the builtin
# scenarios must encode exactly these.
EXPECTED_SPECTRUM_PARAMS = {
    "lz": {"g_ghz": 0.107, "kappa_ghz": 0.044, "f_r_ghz": 5.4},
    "prot": {"kappa_ghz": 0.005, "g_ghz": 0.150, "f_f_ghz": 5.0, "f_r_ghz": 6.5},
    "mix": {
        "c_phi": 0.5,
        "c_q": 0.001,
        "c_purcell": 0.08,
        "f_r_ghz": 8.27,
        "kappa_ghz": 0.0015,
        "c_other": 0.02,
    },
    "jqf": {"tau0_us": 9.1, "tau_us": 98.0, "four_kappa_j_ghz": 0.0508, "f_0_ghz": 5.011},
}

EXPECTED_DEFAULTS = {
    "temperature_K": 0.010,
    "f_cp_GHz": 5.0,
    "delta_f_GHz": 3.0,
    "tau_sw_us": 0.010,
    "epsilon": 1.0e-5,
}


def test_builtin_scenarios_encode_published_parameters():
    for name in BUILTIN_SCENARIO_NAMES:
        scenario = builtin_scenario(name)
        key = scenario.spectrum
        model = scenario.build_model()
        for field_name, value in EXPECTED_SPECTRUM_PARAMS[key].items():
            assert getattr(model, field_name) == value, (name, field_name)
        for field_name, value in EXPECTED_DEFAULTS.items():
            assert getattr(scenario, field_name) == value


def test_builtin_unknown_name():
    with pytest.raises(ConfigError):
        builtin_scenario("lz")  # must use the -default suffix form
    with pytest.raises(ConfigError):
        builtin_scenario("xyz-default")


def test_scenario_dict_roundtrip():
    scenario = Scenario(
        name="custom",
        spectrum="jqf",
        spectrum_params={"tau0_us": 10.0},
        temperature_K=0.009,
        numerics=Numerics(grid_points=1001),
        control_mode="global",
    )
    again = Scenario.from_dict(scenario.to_dict())
    assert again == scenario
    assert scenario_hash(again) == scenario_hash(scenario)


def test_scenario_unknown_keys_rejected():
    with pytest.raises(ConfigError):
        Scenario.from_dict({"spectrum": "lz", "temprature_K": 0.01})
    with pytest.raises(ConfigError):
        Scenario.from_dict({"spectrum": "lz", "numerics": {"grid": 100}})
    with pytest.raises(ConfigError):
        Scenario.from_dict({"spectrum": "lz", "spectrum_params": {"g": 0.1}}).build_model()
    with pytest.raises(ConfigError):
        Scenario.from_dict({"name": "x"})  # missing spectrum


BUILTIN_HASHES = {
    "lz-default": "d3eb1a58161f",
    "prot-default": "a25204f88614",
    "mix-default": "4ee9b8af4f8b",
    "jqf-default": "b518e33d75e0",
}

LZ_DEFAULT_CONFIG_JSON = """\
{
  "name": "lz-default",
  "spectrum": "lz",
  "spectrum_params": {},
  "temperature_K": 0.01,
  "f_cp_GHz": 5.0,
  "delta_f_GHz": 3.0,
  "tau_sw_us": 0.01,
  "epsilon": 1e-05,
  "control": "time_local",
  "numerics": {
    "grid_points": 4001,
    "step_log_bound": 0.05,
    "rate_cap_per_us": 1000000.0,
    "control_drift_ghz": null,
    "step_limit": 10000000,
    "time_limit_t1": 10000.0,
    "control_mode": "tracked"
  }
}
"""


def test_builtin_scenario_hashes_are_stable():
    # Run directories are named by these hashes; a config-layout change
    # that moves one would orphan every existing output directory.
    assert {n: scenario_hash(builtin_scenario(n)) for n in BUILTIN_SCENARIO_NAMES} == (
        BUILTIN_HASHES
    )


def test_cmd_run_writes_the_config_contract(tmp_path):
    assert main(["run", "--scenario", "lz-default", "--out", str(tmp_path)]) == 0
    run_dir = tmp_path / f"lz-default-{BUILTIN_HASHES['lz-default']}"
    assert (run_dir / "config.json").read_text(encoding="utf-8") == LZ_DEFAULT_CONFIG_JSON


def test_build_returns_the_scenario_numerics():
    scenario = replace(builtin_scenario("jqf-default"), numerics=Numerics(grid_points=1001))
    assert scenario.build()[4] is scenario.numerics


def test_control_mode_lives_under_numerics(tmp_path, capsys):
    with pytest.raises(ConfigError, match="unknown scenario key"):
        Scenario.from_dict({"spectrum": "lz", "control_mode": "global"})
    scenario = Scenario.from_dict({"spectrum": "lz", "numerics": {"control_mode": "global"}})
    assert scenario.build_law().mode == "global"
    config = tmp_path / "c.json"
    config.write_text(
        json.dumps({"spectrum": "lz", "numerics": {"control_mode": "fast"}}), encoding="utf-8"
    )
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
    assert "configuration error: numerics.control_mode" in capsys.readouterr().err


def test_tabulated_spectrum_must_cover_the_window(tmp_path):
    table = tmp_path / "narrow.csv"
    table.write_text("f_GHz,rate_per_us\n3,1.0\n7,1.0\n", encoding="utf-8")
    scenario = Scenario(name="narrow", spectrum=f"tabulated:{table}")
    with pytest.raises(ConfigError, match=r"\[3\.0, 7\.0\].*\[2\.0, 8\.0\]"):
        scenario.build()


def test_scenario_control_variants(tmp_path):
    assert builtin_scenario("lz-default").build_law() is not None
    constant = replace(builtin_scenario("lz-default"), control="constant")
    assert constant.build_law() is not None
    sched_file = tmp_path / "s.csv"
    sched_file.write_text("t_us,f_GHz\n0.0,5.4\n", encoding="utf-8")
    sched = replace(builtin_scenario("lz-default"), control=f"schedule:{sched_file}")
    law = sched.build_law()
    assert law.breakpoints == ((0.0, 5.4),)
    with pytest.raises(ConfigError):
        replace(builtin_scenario("lz-default"), control="pid").build_law()


def test_cmd_run_outputs_and_determinism(tmp_path, capsys):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--scenario", "lz-default", "--out", str(out1)]) == 0
    assert main(["run", "--scenario", "lz-default", "--out", str(out2)]) == 0
    captured = capsys.readouterr().out.splitlines()
    assert captured[0].startswith("lz-default: tau_st_us=")
    run_dirs = list(out1.iterdir())
    assert len(run_dirs) == 1
    produced = sorted(p.name for p in run_dirs[0].iterdir())
    assert produced == ["config.json", "report.json", "schedule.csv", "trajectory.csv"]
    for fname in produced:
        a = (list(out1.iterdir())[0] / fname).read_bytes()
        b = (list(out2.iterdir())[0] / fname).read_bytes()
        assert a == b, f"{fname} not byte-identical across runs"
    report = json.loads((run_dirs[0] / "report.json").read_text())
    assert report["tau_st"] == pytest.approx(0.0066179, rel=1e-3)


def test_cmd_run_tabulated_spectrum_config(tmp_path, capsys):
    table = tmp_path / "flat.csv"
    table.write_text("f_GHz,rate_per_us\n2,1.0\n8,1.0\n", encoding="utf-8")
    config = tmp_path / "tab.json"
    config.write_text(
        json.dumps(
            {
                "name": "flat",
                "spectrum": "tabulated:flat.csv",
                "temperature_K": 1e-6,
                "control": "constant",
            }
        ),
        encoding="utf-8",
    )
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 0
    summary = capsys.readouterr().out
    # Constant unit rate: tau_st = ln(0.5/eps) = 10.8198 us.
    assert "tau_st_us=10.81977" in summary


@pytest.mark.parametrize(
    "config, message",
    [
        ({"spectrum": "lz", "oops": 1}, "unknown scenario key"),
        ({"spectrum": 5}, "spectrum must be a string, got 5"),
        ({"spectrum": "lz", "control": 5}, "control must be a string"),
        ({"spectrum": "lz", "name": 3}, "name must be a string"),
        ({"spectrum": "lz", "temperature_K": "cold"}, "temperature_K must be a number"),
        ({"spectrum": "lz", "temperature_K": None}, "temperature_K must be a number"),
        ({"spectrum": "lz", "temperature_K": True}, "temperature_K must be a number"),
        ({"spectrum": "lz", "epsilon": "small"}, "epsilon must be a number"),
        (
            {"spectrum": "lz", "spectrum_params": {"g_ghz": "x"}},
            "spectrum_params.g_ghz must be a number",
        ),
    ],
    ids=[
        "unknown-key",
        "spectrum-int",
        "control-int",
        "name-int",
        "temperature-str",
        "temperature-null",
        "temperature-bool",
        "epsilon-str",
        "param-str",
    ],
)
def test_cmd_run_config_error_exit_code(tmp_path, capsys, config, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(config), encoding="utf-8")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize(
    "rows, message",
    [
        ("0.0,5.4\n0.001,50.0\n", "outside the control window"),
        ("0.0,5.4\n0.001,nan\n", "outside the control window"),
        ("0.0,5.4\n0.0,6.0\n", "strictly increasing"),
        ("0.0,5.4\nnan,2.0\n0.5,5.4\n", "finite and strictly increasing, got t=nan"),
        ("0.0,5.4\nabc,2.0\n", "line 3: not numeric"),
        ("0.0,5.4\n1.0\n", "line 3: expected 2 comma-separated fields"),
    ],
)
def test_cmd_run_bad_schedule_exit_code(tmp_path, capsys, rows, message):
    sched = tmp_path / "s.csv"
    sched.write_text("t_us,f_GHz\n" + rows, encoding="utf-8")
    config = tmp_path / "c.json"
    config.write_text(
        json.dumps({"spectrum": "lz", "control": f"schedule:{sched}"}), encoding="utf-8"
    )
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
    assert message in capsys.readouterr().err


def test_cmd_run_malformed_tabulated_spectrum_names_the_line(tmp_path, capsys):
    (tmp_path / "bad.csv").write_text("f_GHz,rate_per_us\n2,1.0\n8;1.0\n", encoding="utf-8")
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"spectrum": "tabulated:bad.csv"}), encoding="utf-8")
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: invalid tabulated spectrum ")
    assert "line 3: expected 2 comma-separated fields" in err


@pytest.mark.parametrize("spectrum, rows", [("lz", 218), ("mix", 10_979)])
def test_cmd_run_replays_its_own_schedule(tmp_path, spectrum, rows):
    # A run's schedule.csv, read back as the control of a second run,
    # reproduces the first run: its precision time, its work ledger and its
    # rows, each breakpoint of the schedule refreshed on landing.
    first = tmp_path / "first"
    assert main(["run", "--scenario", f"{spectrum}-default", "--out", str(first)]) == 0
    (recorded,) = first.glob("*/schedule.csv")
    config = tmp_path / "replay.json"
    config.write_text(
        json.dumps({"spectrum": spectrum, "control": f"schedule:{recorded}"}), encoding="utf-8"
    )
    replayed = tmp_path / "replayed"
    assert main(["run", "--config", str(config), "--out", str(replayed)]) == 0
    reports = [json.loads(next(out.glob("*/report.json")).read_text()) for out in (first, replayed)]
    assert reports[1]["tau_st"] == pytest.approx(reports[0]["tau_st"], rel=1e-12, abs=0.0)
    assert reports[1]["W_ex_norm"] == reports[0]["W_ex_norm"]
    for out in (first, replayed):
        table = next(out.glob("*/trajectory.csv")).read_text().splitlines()
        assert len(table) == 1 + rows  # the header, then one line per sample


@pytest.mark.parametrize("command", ["run", "fig4"])
def test_cmd_step_limit_exit_code(tmp_path, capsys, command):
    # A run and a fig4 baseline that stop on the step limit are numerical
    # failures: exit 2 with one stderr line.
    for key in ("lz", "prot", "mix", "jqf"):
        (tmp_path / f"{key}.json").write_text(
            json.dumps({"spectrum": key, "numerics": {"step_limit": 10}}), encoding="utf-8"
        )
    if command == "run":
        argv = ["run", "--config", str(tmp_path / "lz.json")]
    else:
        argv = ["figure", "fig4", "--config-dir", str(tmp_path)]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ")
    assert "terminated by 'step_limit'" in err
    assert err.count("\n") == 1


def test_cmd_figure_fig4_unachievable_epsilon_fails_before_any_step(
    tmp_path, capsys, monkeypatch
):
    # fig4's baselines hold run's precision contract: an epsilon below the
    # thermal floor (2.1e-17 at 10 mK) fails before the first step, not
    # after running to the time limit.
    def no_step(*args, **kwargs):
        raise AssertionError("integrate_restore called")

    monkeypatch.setattr("qreset.robustness.integrate_restore", no_step)
    for key in ("lz", "prot", "mix", "jqf"):
        (tmp_path / f"{key}.json").write_text(
            json.dumps({"spectrum": key, "epsilon": 1e-18}), encoding="utf-8"
        )
    out = tmp_path / "out"
    assert main(["figure", "fig4", "--config-dir", str(tmp_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: epsilon=1e-18 is not achievable")
    assert err.count("\n") == 1
    assert list(out.glob("fig4_*.csv")) == []


def test_cmd_run_achievability_exit_code(tmp_path, capsys):
    config = tmp_path / "hot.json"
    config.write_text(
        json.dumps({"spectrum": "lz", "temperature_K": 0.300}), encoding="utf-8"
    )
    assert main(["run", "--config", str(config), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "epsilon_min" in err


@pytest.mark.parametrize(
    "numerics",
    [
        {"step_log_bound": 0},
        {"step_log_bound": math.nan},
        {"grid_points": 2},
        {"step_limit": 0},
        {"rate_cap_per_us": -1.0},
        {"control_drift_ghz": 0.0},
        {"time_limit_t1": "long"},
        {"time_limit_t1": None},
        {"step_log_bound": None},
        {"grid_points": 40.5},
        {"step_limit": True},
        # Rejected before the scan grid is allocated.
        {"grid_points": 100_000_000_000},
    ],
)
def test_cmd_run_invalid_numerics_exit_code(tmp_path, capsys, numerics):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"spectrum": "lz", "numerics": numerics}), encoding="utf-8")
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: numerics.") and err.count("\n") == 1


def test_cmd_run_invalid_rate_cap_names_its_config_key(tmp_path, capsys):
    config = tmp_path / "c.json"
    config.write_text(
        json.dumps({"spectrum": "lz", "numerics": {"rate_cap_per_us": -1}}),
        encoding="utf-8",
    )
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
    assert "numerics.rate_cap_per_us must be finite and > 0" in capsys.readouterr().err


@pytest.mark.parametrize("grid_points", [4001, 4000, 1000])
@pytest.mark.parametrize("control", ["time_local", "constant"])
def test_cmd_run_uncapped_pole_exit_code(tmp_path, capsys, control, grid_points):
    # Only the 4001-point scan lands on the pole; the others found a huge
    # finite rate there and reported tau_st ~ 1e-14 us with exit 0.
    config = tmp_path / "prot.json"
    numerics = {"rate_cap_per_us": None, "grid_points": grid_points}
    config.write_text(
        json.dumps({"spectrum": "prot", "control": control, "numerics": numerics}),
        encoding="utf-8",
    )
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and "infinite" in err
    assert err.count("\n") == 1


def test_cmd_run_zero_rate_spectrum_exit_code(tmp_path, capsys):
    table = tmp_path / "silent.csv"
    table.write_text("f_GHz,rate_per_us\n1,0.0\n9,0.0\n", encoding="utf-8")
    config = tmp_path / "silent.json"
    config.write_text(
        json.dumps({"name": "silent", "spectrum": "tabulated:silent.csv"}),
        encoding="utf-8",
    )
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert "never move" in capsys.readouterr().err


def test_cmd_run_invalid_grid_override_exit_code(tmp_path, capsys):
    argv = ["run", "--scenario", "lz-default", "--grid", "2", "--out", str(tmp_path)]
    assert main(argv) == 1
    assert "grid_points" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value, key",
    [("--grid", "2", "grid_points"), ("--cap", "-1", "rate_cap_per_us")],
)
def test_cmd_run_invalid_override_names_its_config_key(tmp_path, capsys, flag, value, key):
    argv = ["run", "--scenario", "lz-default", flag, value, "--out", str(tmp_path)]
    assert main(argv) == 1
    assert f"configuration error: numerics.{key} " in capsys.readouterr().err


def test_cmd_run_constant_law_below_floor_exit_code(tmp_path, capsys):
    config = tmp_path / "mix.json"
    config.write_text(
        json.dumps({"spectrum": "mix", "control": "constant", "epsilon": 1e-5}),
        encoding="utf-8",
    )
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert "thermal floor" in capsys.readouterr().err


def test_parse_axis():
    assert parse_axis("epsilon=1e-6:1e-4:9") == ("epsilon", 1e-6, 1e-4, 9)
    with pytest.raises(ConfigError):
        parse_axis("epsilon=1:2")
    with pytest.raises(ConfigError):
        parse_axis("flux=1:2:3")
    # Rejected before np.linspace would allocate the axis (745 GiB).
    with pytest.raises(ConfigError, match="n <= 1000000"):
        parse_axis("epsilon=1e-6:1e-4:100000000000")


def test_cmd_sweep_degenerate_matches_run(tmp_path):
    assert (
        main(
            [
                "sweep",
                "epsilon=1e-5:1e-5:1",
                "--scenario",
                "lz-default",
                "--out",
                str(tmp_path),
            ]
        )
        == 0
    )
    csv_path = tmp_path / "sweep_lz-default_epsilon.csv"
    header, row = csv_path.read_text().splitlines()
    values = dict(zip(header.split(","), row.split(",")))
    scenario = builtin_scenario("lz-default")
    report, _ = run_reset(*scenario.build())
    assert float(values["epsilon"]) == 1e-5
    assert float(values["tau_st"]) == report.tau_st
    assert float(values["W_ex_norm"]) == report.W_ex_norm


def test_cmd_sweep_epsilon_log_growth(tmp_path):
    assert (
        main(
            [
                "sweep",
                "epsilon=1e-6:1e-4:3",
                "--scenario",
                "lz-default",
                "--out",
                str(tmp_path),
            ]
        )
        == 0
    )
    lines = (tmp_path / "sweep_lz-default_epsilon.csv").read_text().splitlines()
    header = lines[0].split(",")
    taus = [float(line.split(",")[header.index("tau_st")]) for line in lines[1:]]
    epss = [float(line.split(",")[0]) for line in lines[1:]]
    # Constant-rate closed form: tau ~ ln(0.5/eps) / rate.
    for eps, tau in zip(epss, taus):
        assert tau == pytest.approx(taus[0] * math.log(0.5 / eps) / math.log(0.5 / epss[0]), rel=1e-3)


def test_cmd_sweep_temperature_monotone_work(tmp_path):
    assert (
        main(
            [
                "sweep",
                "temperature_K=0.008:0.012:3",
                "--scenario",
                "lz-default",
                "--out",
                str(tmp_path),
            ]
        )
        == 0
    )
    lines = (tmp_path / "sweep_lz-default_temperature_K.csv").read_text().splitlines()
    header = lines[0].split(",")
    w = [float(line.split(",")[header.index("W_ex_norm")]) for line in lines[1:]]
    assert w[0] > w[1] > w[2]


def test_cmd_sweep_unknown_field(tmp_path, capsys):
    assert (
        main(["sweep", "flux=0:1:3", "--scenario", "lz-default", "--out", str(tmp_path)])
        == 1
    )
    assert "unknown sweep field" in capsys.readouterr().err


def test_cmd_figure_fig2(tmp_path):
    assert main(["figure", "fig2", "--out", str(tmp_path)]) == 0
    control = (tmp_path / "fig2_control_lz.csv").read_text().splitlines()
    assert control[0] == "t_us,p_e,f_GHz"
    freqs = [float(line.split(",")[2]) for line in control[1:]]
    assert all(abs(f - 5.4) < 1.5e-3 for f in freqs)
    shape = (tmp_path / "fig2_spectrum_jqf.csv").read_text().splitlines()
    assert shape[0] == "f_GHz,rate_per_us"
    assert len(shape) == 1202


def test_cmd_figure_fig3a(tmp_path):
    assert main(["figure", "fig3a", "--out", str(tmp_path)]) == 0
    terminals = (tmp_path / "fig3a_terminals.csv").read_text().splitlines()
    assert terminals[0] == "spectrum,t_us,t_over_T1,p_e"
    assert len(terminals) == 5
    for line in terminals[1:]:
        p_e = float(line.split(",")[3])
        assert 1e-5 * (1.0 - 1e-6) <= p_e <= 1e-5


def test_cmd_figure_fig3b(tmp_path):
    assert main(["figure", "fig3b", "--out", str(tmp_path)]) == 0
    points = (tmp_path / "fig3b_points.csv").read_text().splitlines()
    assert len(points) == 5  # header + exactly one point per spectrum
    bound = (tmp_path / "fig3b_bound.csv").read_text().splitlines()
    assert len(bound) - 1 >= 100
    row = dict(zip(points[0].split(","), points[2].split(",")))
    assert row["spectrum"] == "prot"
    assert row["t1_infinite"] == "true"


def test_cmd_figure_fig4_with_config_dir(tmp_path):
    config_dir = tmp_path / "configs"
    config_dir.mkdir()
    for key in ("lz", "prot", "mix", "jqf"):
        (config_dir / f"{key}.json").write_text(
            json.dumps(
                {
                    "name": key,
                    "spectrum": key,
                    "numerics": {"grid_points": 1001, "control_drift_ghz": 0.006},
                }
            ),
            encoding="utf-8",
        )
    out = tmp_path / "fig4"
    assert main(["figure", "fig4", "--config-dir", str(config_dir), "--out", str(out)]) == 0
    files = sorted(p.name for p in out.iterdir())
    assert len(files) == 12
    pop = (out / "fig4_lz_population.csv").read_text().splitlines()
    assert pop[0] == "deviation_value,fidelity,final_p_e,final_coh_abs"
    assert len(pop) == 42
    fid = [float(line.split(",")[1]) for line in pop[1:]]
    assert min(fid) > 0.9999


def _tent_config_dir(tmp_path: Path) -> Path:
    """A --config-dir whose four configs share one relative tabulated spectrum."""
    config_dir = tmp_path / "configs"
    config_dir.mkdir()
    (config_dir / "tent.csv").write_text(
        "f_GHz,rate_per_us\n1.5,0.1\n4.0,2.0\n8.5,0.2\n", encoding="utf-8"
    )
    for key in ("lz", "prot", "mix", "jqf"):
        (config_dir / f"{key}.json").write_text(
            json.dumps({"name": key, "spectrum": "tabulated:tent.csv"}), encoding="utf-8"
        )
    return config_dir


def test_cmd_figure_config_dir_resolves_relative_paths(tmp_path, monkeypatch):
    # As with `run --config`, a relative `tabulated:` path in a --config-dir
    # config is read from that directory, not from the working directory.
    _tent_config_dir(tmp_path)
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    argv = ["figure", "fig3b", "--config-dir", "../configs", "--out", "figures"]
    assert main(argv) == 0
    points = (elsewhere / "figures" / "fig3b_points.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in points[1:]] == ["lz", "prot", "mix", "jqf"]
    assert len(set(line.split(",", 1)[1] for line in points[1:])) == 1


@pytest.mark.parametrize("which", ["fig2", "fig3a", "fig4"])
def test_cmd_figure_names_files_and_rows_by_config_kind(tmp_path, which):
    # Four configs sharing one tabulated spectrum give four files (and four
    # terminal rows), named by config, not one file overwritten four times.
    config_dir = _tent_config_dir(tmp_path)
    out = tmp_path / "figures"
    assert main(["figure", which, "--config-dir", str(config_dir), "--out", str(out)]) == 0
    kinds = ("lz", "prot", "mix", "jqf")
    names = {
        "fig2": [f"fig2_{part}_{k}.csv" for k in kinds for part in ("control", "spectrum")],
        "fig3a": [f"fig3a_{k}.csv" for k in kinds] + ["fig3a_terminals.csv"],
        "fig4": [
            f"fig4_{k}_{axis}.csv"
            for k in kinds
            for axis in ("population", "coherence", "control_time")
        ],
    }[which]
    assert sorted(p.name for p in out.iterdir()) == sorted(names)
    if which == "fig3a":
        terminals = (out / "fig3a_terminals.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in terminals[1:]] == list(kinds)


def test_cmd_spectra_table(tmp_path):
    out = tmp_path / "rates.csv"
    assert main(["spectra", "--grid", "7", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "f_GHz,lz,prot,mix,jqf"
    assert len(lines) == 8


@pytest.mark.parametrize(
    "flag, value, key",
    [
        ("--grid", "0", "grid_points"),
        ("--grid", "2", "grid_points"),
        ("--cap", "0", "rate_cap_per_us"),
        ("--cap", "-1", "rate_cap_per_us"),
    ],
)
def test_cmd_spectra_invalid_override_names_its_config_key(
    tmp_path, capsys, flag, value, key
):
    out = tmp_path / "rates.csv"
    assert main(["spectra", flag, value, "--out", str(out)]) == 1
    assert f"configuration error: numerics.{key} " in capsys.readouterr().err
    assert not out.exists()


def test_calibration_scaled_targets_halve_temperature():
    base = calibrate_temperature({"lz": PAPER_W_EX_NORM_TARGETS["lz"]}, t_lo_K=0.003)
    doubled = calibrate_temperature(
        {"lz": 2.0 * PAPER_W_EX_NORM_TARGETS["lz"]}, t_lo_K=0.003
    )
    ratio = doubled.best_temperature_K / base.best_temperature_K
    assert 0.45 <= ratio <= 0.55


def test_calibration_single_spectrum_consistency():
    # The prot value alone pins nearly the same temperature as the lz one;
    # the full four-target fit is checked in the acceptance suite.
    prot_only = calibrate_temperature({"prot": PAPER_W_EX_NORM_TARGETS["prot"]})
    lz_only = calibrate_temperature({"lz": PAPER_W_EX_NORM_TARGETS["lz"]})
    diff = abs(prot_only.best_temperature_K - lz_only.best_temperature_K)
    assert diff / lz_only.best_temperature_K < 0.02


def _calibration_w_ex_norm(key, temperature_K):
    scenario = Scenario(
        name=key, spectrum=key, temperature_K=temperature_K, numerics=CALIBRATION_NUMERICS
    )
    return run_reset(*scenario.build())[0].W_ex_norm


def _record_runs(monkeypatch, w_ex_norm=None):
    """Record the temperature of every calibration run, in order.

    With ``w_ex_norm`` a run reports ``w_ex_norm(T)`` instead of running.
    """
    temperatures = []

    def recorded(model, env, *args, **kwargs):
        temperatures.append(env.temperature_K)
        if w_ex_norm is None:
            return run_reset(model, env, *args, **kwargs)
        return SimpleNamespace(W_ex_norm=w_ex_norm(env.temperature_K)), None

    monkeypatch.setattr("qreset.cli.run_reset", recorded)
    return temperatures


def test_calibration_run_count(monkeypatch):
    # Every temperature the search visits costs one run per target.  lz is
    # linear in 1/T, so after the midpoint and the 1/T-law step one secant
    # step lands on the fit: 3 temperatures on [5, 20] mK.  The search
    # reports its lowest-error temperature, here the last it ran, which the
    # report reuses instead of running it again.
    temperatures = _record_runs(monkeypatch)
    result = calibrate_temperature({"lz": PAPER_W_EX_NORM_TARGETS["lz"]})
    assert len(temperatures) == len(set(temperatures)) == 3
    assert temperatures[0] == 0.0125
    assert result.best_temperature_K == temperatures[-1]


def test_calibration_returns_a_fitting_midpoint_after_one_temperature(monkeypatch):
    targets = {key: _calibration_w_ex_norm(key, 0.0125) for key in ("lz", "prot")}
    temperatures = _record_runs(monkeypatch)
    result = calibrate_temperature(targets)
    assert temperatures == [0.0125, 0.0125]
    assert result.best_temperature_K == 0.0125
    assert result.sse == 0.0


def test_calibration_fails_when_no_residual_moves_with_temperature(monkeypatch):
    # A constant W at twice the target: the 1/T-law step goes to the upper
    # end, and the secant slope between the two temperatures is zero.
    temperatures = _record_runs(monkeypatch, lambda t: 2.0)
    with pytest.raises(ConfigError, match=r"changes between 0\.0125 and 0\.02 K"):
        calibrate_temperature({"lz": 1.0})
    assert temperatures == [0.0125, 0.02]


def test_calibration_fails_when_the_search_does_not_settle(monkeypatch):
    # W = 10 + 1e-5 (1/T - 1/(8 mK))^3 meets its target with zero slope, where
    # secant steps only shrink by a constant factor: every step lowers the
    # error, yet after 20 of them the next one is still longer than 1e-6 K.
    temperatures = _record_runs(monkeypatch, lambda t: 10.0 + 1.0e-5 * (1.0 / t - 125.0) ** 3)
    with pytest.raises(ConfigError, match=r"did not settle in 20 steps; best at 0\.0080"):
        calibrate_temperature({"lz": 10.0})
    assert len(temperatures) == 21


def test_calibration_fails_on_a_non_positive_computed_value(monkeypatch):
    _record_runs(monkeypatch, lambda t: 0.0)
    with pytest.raises(ConfigError, match=r"computed W_ex_norm at 0\.0125 K is not positive"):
        calibrate_temperature({"lz": 1.0})


def test_calibration_rejects_bad_targets():
    with pytest.raises(ConfigError):
        calibrate_temperature({"xyz": 1.0})
    with pytest.raises(ConfigError):
        calibrate_temperature({})
    with pytest.raises(ConfigError):
        calibrate_temperature({"lz": -1.0})
    for value in (math.inf, math.nan):
        with pytest.raises(ConfigError, match="must be finite and > 0"):
            calibrate_temperature({"lz": value})


def test_cmd_calibrate_non_numeric_targets_exit_code(capsys):
    assert main(["calibrate-temperature", "--targets", "a,b,c,d"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: --targets must be numbers")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "t_lo, t_hi",
    [
        (0.02, 0.005),
        (0.01, 0.01),
        (0.0, 0.02),
        (-0.005, 0.02),
        (0.005, math.inf),
        (math.nan, 0.02),
        (0.005, math.nan),
    ],
)
def test_calibration_rejects_bad_brackets(t_lo, t_hi):
    with pytest.raises(ConfigError, match="t_lo_K < t_hi_K"):
        calibrate_temperature({"lz": PAPER_W_EX_NORM_TARGETS["lz"]}, t_lo_K=t_lo, t_hi_K=t_hi)


@pytest.mark.parametrize("scale", [3.0, 1.0 / 3.0], ids=["below-t_lo", "above-t_hi"])
def test_calibration_fails_at_a_bracket_edge(scale):
    # Three times the lz target needs about 3 mK, a third of it about 29 mK:
    # the search ends within its tolerance of an edge instead of at a fit.
    with pytest.raises(ConfigError, match=r"edge of the search bracket \[0\.005, 0\.02\] K"):
        calibrate_temperature({"lz": scale * PAPER_W_EX_NORM_TARGETS["lz"]})


def test_cmd_calibrate_bracket_edge_exit_code(tmp_path, capsys):
    out = tmp_path / "calibration.json"
    argv = ["calibrate-temperature", "--t-lo", "0.012", "--t-hi", "0.02", "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    # The fit, about 9.6 mK, lies below the bracket: the clamped search ends
    # on its lower end.
    assert err.startswith("configuration error: best-fit temperature 0.012 K lies at the edge")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("out", ["nodir/x.json", "."], ids=["missing-dir", "a-dir"])
def test_cmd_calibrate_unwritable_out_fails_before_any_run(
    tmp_path, capsys, monkeypatch, out
):
    calls = []
    monkeypatch.setattr("qreset.cli.run_reset", lambda *a, **k: calls.append(a))
    assert main(["calibrate-temperature", "--out", str(tmp_path / out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: --out must name a file in an existing directory")
    assert err.count("\n") == 1
    assert calls == []


def test_cmd_spectra_unwritable_out_is_one_error_line(tmp_path, capsys):
    out = tmp_path / "nodir" / "rates.csv"
    assert main(["spectra", "--grid", "5", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("i/o error: ") and "nodir" in err
    assert err.count("\n") == 1


def test_cmd_calibrate_reversed_bracket_exit_code(tmp_path, capsys):
    out = tmp_path / "calibration.json"
    argv = ["calibrate-temperature", "--t-lo", "0.02", "--t-hi", "0.005", "--out", str(out)]
    assert main(argv) == 1
    assert "configuration error: temperature bracket" in capsys.readouterr().err
    assert not out.exists()


def test_cmd_calibrate_prints_and_writes_the_result(tmp_path, capsys, monkeypatch):
    keys = ("lz", "prot", "mix", "jqf")
    result = CalibrationResult(
        best_temperature_K=0.0101234,
        sse=0.0125,
        computed=dict(zip(keys, (2.0, 0.5, 4.0, 6.0))),
        targets=dict(zip(keys, (2.1, 0.5, 3.9, 6.3))),
        residuals=dict(zip(keys, (-0.05, 0.0, 0.025, -0.0475))),
    )
    calls = []

    def fake(targets, *, t_lo_K, t_hi_K):
        calls.append((targets, t_lo_K, t_hi_K))
        return result

    monkeypatch.setattr("qreset.cli.calibrate_temperature", fake)
    out = tmp_path / "calibration.json"
    argv = ["calibrate-temperature", "--targets", "2.1,0.5,3.9,6.3", "--t-lo", "0.006",
            "--t-hi", "0.018", "--out", str(out)]
    assert main(argv) == 0
    assert calls == [(result.targets, 0.006, 0.018)]
    assert capsys.readouterr().out.splitlines() == [
        "best-fit temperature: 10.1234 mK",
        "  lz: computed=2.0000 target=2.1000 residual=-5.00%",
        "  prot: computed=0.5000 target=0.5000 residual=+0.00%",
        "  mix: computed=4.0000 target=3.9000 residual=+2.50%",
        "  jqf: computed=6.0000 target=6.3000 residual=-4.75%",
    ]
    assert json.loads(out.read_text(encoding="utf-8")) == asdict(result)


def test_cmd_calibrate_has_no_scan_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["calibrate-temperature", "--n-scan", "0"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --n-scan" in capsys.readouterr().err


CALIBRATION_GRID_K = [0.005 + 0.001 * k for k in range(16)]
# A grid temperature this close to the fit may fit as well: the search stops
# within 1e-6 K of the minimum, and jqf's W_ex_norm jitters by ~1e-5 relative
# between nearby temperatures, which for conflicting targets moves the error
# as much as ~15 uK of detuning does.
FIT_RESOLUTION_K = 2.0e-5


@pytest.fixture(scope="module")
def calibration_grid():
    """W_ex_norm of each spectrum at calibration numerics on CALIBRATION_GRID_K."""
    return [
        {key: _calibration_w_ex_norm(key, t) for key in PAPER_W_EX_NORM_TARGETS}
        for t in CALIBRATION_GRID_K
    ]


def _grid_sse(grid, targets):
    return [sum(((row[k] - t) / t) ** 2 for k, t in targets.items()) for row in grid]


CALIBRATION_CASES = {
    **{
        f"x{scale}": {k: scale * t for k, t in PAPER_W_EX_NORM_TARGETS.items()}
        for scale in (0.98, 1.0, 1.02)
    },
    "lz": {"lz": PAPER_W_EX_NORM_TARGETS["lz"]},
}


def test_calibration_error_has_a_single_minimum(calibration_grid):
    # The Gauss-Newton search starts at the bracket midpoint and follows the
    # residuals downhill, which finds the minimum only if the error falls and
    # then rises across the bracket.  Check that shape on the grid.
    for name, targets in CALIBRATION_CASES.items():
        errors = _grid_sse(calibration_grid, targets)
        rising = [b > a for a, b in zip(errors, errors[1:])]
        first_rise = rising.index(True) if True in rising else len(rising)
        assert all(rising[first_rise:]), (name, errors)


@pytest.mark.parametrize("name", sorted(CALIBRATION_CASES))
def test_calibration_beats_every_grid_temperature(calibration_grid, name):
    targets = CALIBRATION_CASES[name]
    result = calibrate_temperature(targets)
    assert result.sse <= min(_grid_sse(calibration_grid, targets))


@settings(max_examples=10, deadline=None)
@given(
    scales=st.fixed_dictionaries(
        {key: st.floats(min_value=0.9, max_value=1.1) for key in PAPER_W_EX_NORM_TARGETS}
    ),
    keys=st.sets(st.sampled_from(sorted(PAPER_W_EX_NORM_TARGETS)), min_size=1),
)
def test_calibration_beats_every_grid_temperature_for_scaled_targets(
    calibration_grid, scales, keys
):
    targets = {k: scales[k] * PAPER_W_EX_NORM_TARGETS[k] for k in sorted(keys)}
    result = calibrate_temperature(targets)
    errors = _grid_sse(calibration_grid, targets)
    assert result.sse <= min(
        error
        for t, error in zip(CALIBRATION_GRID_K, errors)
        if abs(t - result.best_temperature_K) > FIT_RESOLUTION_K
    )
