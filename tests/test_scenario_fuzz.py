"""Scenario fuzzer: every `qreset run` config ends in finite, ordered outputs
or in one named line on stderr.

The configs are drawn from a seeded ``random.Random``, so the suite stays
deterministic. Each built-in spectrum field is left at its default, scaled
by ``10^U(-1, 1)`` or ``10^U(-8, 8)``, or set to an edge value; the law is
tracked, global, constant or a one-row schedule, which holds a kernel's
singular point, a window edge or a random frequency; the numerics vary.
"""

from __future__ import annotations

import csv
import json
import math
import random
import warnings
from dataclasses import fields

import pytest

from qreset import JQF, Lorentzian, Mixed, Protected
from qreset.cli import main

SPECTRA = {"lz": Lorentzian, "prot": Protected, "mix": Mixed, "jqf": JQF}
EDGE_VALUES = (0.0, -1.0, 1e-300, 1e300, 5e-324)
# The lz and prot peaks, the jqf dip and the default window's edges.
SCHEDULE_FREQUENCIES = (5.4, 6.5, 5.011, 2.0, 8.0)
# With T1 infinite the report writes null for T1 and the TL work.
NULL_WHERE_T1_INFINITE = {"T1", "W_TL_norm"}


def _field_value(rng: random.Random, default: float) -> float | None:
    """A spectrum field's value, or None to leave it at its default."""
    kind = rng.random()
    if kind < 0.35:
        return None
    if kind < 0.6:
        return default * 10.0 ** rng.uniform(-1.0, 1.0)
    if kind < 0.8:
        return default * 10.0 ** rng.uniform(-8.0, 8.0)
    return rng.choice(EDGE_VALUES)


def fuzz_config(rng: random.Random) -> tuple[dict, float | None]:
    """One scenario config and the frequency its schedule holds (None: no schedule)."""
    spectrum = rng.choice(sorted(SPECTRA))
    params = {}
    for f in fields(SPECTRA[spectrum]):
        value = _field_value(rng, f.default)
        if value is not None:
            params[f.name] = value
    numerics: dict = {"step_limit": 3000}
    if rng.random() < 0.5:
        numerics["rate_cap_per_us"] = rng.choice((None, 1e300, 10.0 ** rng.uniform(0.0, 8.0)))
    if rng.random() < 0.5:
        numerics["grid_points"] = rng.choice((3, rng.randint(3, 5000)))
    if rng.random() < 0.5:
        numerics["step_log_bound"] = 10.0 ** rng.uniform(-3.0, 0.0)
    if rng.random() < 0.5:
        numerics["control_drift_ghz"] = rng.choice((None, 10.0 ** rng.uniform(-6.0, -1.0)))
    config = {"spectrum": spectrum, "spectrum_params": params, "numerics": numerics}
    law = rng.choice(("tracked", "global", "constant", "schedule"))
    held = None
    if law in ("tracked", "global"):
        numerics["control_mode"] = law
    elif law == "constant":
        config["control"] = "constant"
    else:
        held = rng.choice((*SCHEDULE_FREQUENCIES, rng.uniform(2.0, 8.0)))
        config["control"] = "schedule:hold.csv"
    return config, held


def check_run(config: dict, held: float | None, tmp_path, capsys) -> int:
    """Run one config through ``main`` and check its exit, stderr and outputs."""
    tmp_path.mkdir()
    (tmp_path / "hold.csv").write_text(f"t_us,f_GHz\n0,{held!r}\n", encoding="utf-8")
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["run", "--config", str(tmp_path / "config.json"), "--out", str(out)])
    err = capsys.readouterr().err
    assert code in (0, 1, 2), config
    if code != 0:
        assert err.count("\n") == 1 and err.endswith("\n"), (config, err)
        return code
    assert err == "", (config, err)
    (run_dir,) = out.iterdir()
    report = json.loads((run_dir / "report.json").read_text(encoding="utf-8"))
    for key, value in report.items():
        if value is None:
            assert report["T1"] is None and key in NULL_WHERE_T1_INFINITE, (config, key)
        else:
            assert math.isfinite(value), (config, key, value)
    tau_st, t_reset = report["tau_st"], report["T_reset"]
    # >=, not >: at tau_st near 1e300 us adding the two switch times rounds away.
    assert tau_st > 0.0 and t_reset >= tau_st, (config, report)
    assert report["W"] - report["dF"] == pytest.approx(report["W_ex"], rel=1e-9), (config, report)
    with open(run_dir / "trajectory.csv", encoding="utf-8", newline="") as fh:
        rows = [(float(row["t_us"]), float(row["p_e"])) for row in csv.DictReader(fh)]
    assert all(a[0] < b[0] for a, b in zip(rows, rows[1:])), config
    assert all(0.0 < p_e <= 1.0 for _, p_e in rows), config
    return code


def test_every_fuzzed_config_runs_clean_or_fails_in_one_line(tmp_path, capsys):
    rng = random.Random(0)
    codes = []
    for i in range(200):
        config, held = fuzz_config(rng)
        codes.append(check_run(config, held, tmp_path / str(i), capsys))
    # The draw reaches every exit, so none of the checks above is vacuous.
    assert {0, 1, 2} <= set(codes)
