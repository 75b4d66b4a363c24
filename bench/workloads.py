"""Seeded inputs, command batches and output checks for the three workloads.

Each workload is a batch of ``qreset`` command lines.  The inputs are
drawn from ``--seed`` in antithetic pairs: a point drawn at ``u`` in the
unit interval is paired with one at ``1 - u``.  Every point keeps the
stated marginal distribution, while the batch cost, which grows
monotonically with temperature and precision, varies far less from one
seed to the next than it would for independent draws.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("reset", "robustness", "calibrate")

SPECTRA = ("lz", "prot", "mix", "jqf")
LAWS = ("tracked", "global", "constant")

# (spectrum, law) combinations run at every seed-drawn point of `reset`.
# mix/global (56 s) and jqf/constant (fails after 2.25M steps) are left
# out for run length; prot/tracked runs at fixed points instead (below).
# See README.md, "Known slow cases".
RESET_KINDS = (
    ("lz", "tracked"),
    ("mix", "tracked"),
    ("jqf", "tracked"),
    ("lz", "global"),
    ("prot", "global"),
    ("jqf", "global"),
    ("lz", "constant"),
    ("prot", "constant"),
)
# prot/tracked takes 200-260 steps at most (T, eps) but 10k-94k steps at
# about a quarter of them, scattered without pattern.  Drawn per seed, that
# lottery would dominate the spread of `reset`; run at fixed points, the
# slow case is measured on every seed: 10 mK takes 231 steps, 10.03 mK
# 49,498.
PROT_TRACKED_FIXED_K = (0.010, 0.01003)
# The fig4 prot baseline stays at the regular 10 mK: a slow baseline would
# multiply the cost of its 93 replays on one seed in five.
FIG4_PROT_K = 0.010
T_RANGE_K = (0.009, 0.011)
EPS_RANGE = (3.0e-6, 3.0e-5)

FIG4_ROWS = {"population": 41, "coherence": 21, "control_time": 31}

# Published W_ex/(k_B T ln 2) targets (lz, prot, mix, jqf); each is scaled
# by a seed-drawn factor.
PAPER_TARGETS = (18.53, 22.51, 6.24, 6.37)
TARGET_SCALE = (0.98, 1.02)

LEDGER_TOL = 1.0e-9
REPORT_REF_TOL = 1.0e-4
FIG4_REF_TOL = 1.0e-4
FIG4_MIN_POPULATION_FIDELITY = 0.9999
CALIBRATION_REF_TOL = 1.0e-3


@dataclass(frozen=True)
class Command:
    """One ``qreset`` invocation and what its outcome should be."""

    name: str
    argv: tuple[str, ...]
    out: Path
    kind: str  # "run", "fig4" or "calibrate"
    spectrum: str | None = None
    law: str | None = None
    expect_rc: int = 0


@dataclass
class Outcome:
    """Output check of one command: errors plus accuracy figures."""

    errors: list[str]
    ledger_closure: float = 0.0
    tau_rel_err: float | None = None
    w_ex_norm_rel_err: float | None = None


def _lerp(lo: float, hi: float, u: float) -> float:
    return lo + (hi - lo) * u


def _log_lerp(lo: float, hi: float, u: float) -> float:
    return math.exp(_lerp(math.log(lo), math.log(hi), u))


def _write_json(path: Path, data: dict) -> None:
    path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")


def build(workload: str, seed: int, work: Path) -> list[Command]:
    """Draw the workload's inputs from ``seed`` and write its config files."""
    rng = random.Random(f"{workload}:{seed}")
    cfg = work / "configs"
    cfg.mkdir(parents=True)
    out = work / "out"
    if workload == "reset":
        return _build_reset(rng, cfg, out)
    if workload == "robustness":
        return _build_robustness(rng, cfg, out)
    if workload == "calibrate":
        return _build_calibrate(rng, out)
    raise ValueError(f"unknown workload {workload!r}")


def _build_reset(rng: random.Random, cfg: Path, out: Path) -> list[Command]:
    u, v = rng.random(), rng.random()
    points = [(u, v), (1.0 - u, 1.0 - v)]
    commands = []
    for i, (u, v) in enumerate(points):
        temperature = _lerp(*T_RANGE_K, u)
        epsilon = _log_lerp(*EPS_RANGE, v)
        for spectrum, law in RESET_KINDS:
            name = f"p{i}-{spectrum}-{law}"
            scenario = {
                "name": name,
                "spectrum": spectrum,
                "temperature_K": temperature,
                "epsilon": epsilon,
                "control": "constant" if law == "constant" else "time_local",
            }
            if law == "global":
                scenario["numerics"] = {"control_mode": "global"}
            commands.append(_run_command(name, scenario, cfg, out, spectrum, law, 0))
    for i, temperature in enumerate(PROT_TRACKED_FIXED_K):
        name = f"fixed{i}-prot-tracked"
        scenario = {"name": name, "spectrum": "prot", "temperature_K": temperature}
        commands.append(_run_command(name, scenario, cfg, out, "prot", "tracked", 0))
    # Known numerical failure: the rate argmax of the mixed spectrum sits at
    # 2 GHz, where p_eq ~ 7e-5 exceeds epsilon, so constant control runs to
    # the time limit and the CLI exits 2.
    failing = {
        "name": "xfail-mix-constant",
        "spectrum": "mix",
        "temperature_K": 0.010,
        "epsilon": 1.0e-5,
        "control": "constant",
    }
    commands.append(
        _run_command(failing["name"], failing, cfg, out, "mix", "constant", 2)
    )
    return commands


def _run_command(
    name: str, scenario: dict, cfg: Path, out: Path, spectrum: str, law: str, rc: int
) -> Command:
    path = cfg / f"{name}.json"
    _write_json(path, scenario)
    target = out / name
    return Command(
        name=name,
        argv=("run", "--config", str(path), "--out", str(target)),
        out=target,
        kind="run",
        spectrum=spectrum,
        law=law,
        expect_rc=rc,
    )


def _build_robustness(rng: random.Random, cfg: Path, out: Path) -> list[Command]:
    u = rng.random()
    commands = []
    for i, u in enumerate((u, 1.0 - u)):
        name = f"fig4-{i}"
        config_dir = cfg / name
        config_dir.mkdir()
        temperature = _lerp(*T_RANGE_K, u)
        for spectrum in SPECTRA:
            t_k = FIG4_PROT_K if spectrum == "prot" else temperature
            _write_json(
                config_dir / f"{spectrum}.json",
                {"name": spectrum, "spectrum": spectrum, "temperature_K": t_k},
            )
        target = out / name
        commands.append(
            Command(
                name=name,
                argv=("figure", "fig4", "--config-dir", str(config_dir), "--out", str(target)),
                out=target,
                kind="fig4",
            )
        )
    return commands


def _build_calibrate(rng: random.Random, out: Path) -> list[Command]:
    targets = [t * _lerp(*TARGET_SCALE, rng.random()) for t in PAPER_TARGETS]
    target = out / "calibration.json"
    return [
        Command(
            name="calibrate",
            argv=(
                "calibrate-temperature",
                "--targets",
                ",".join(repr(t) for t in targets),
                "--out",
                str(target),
            ),
            out=target,
            kind="calibrate",
        )
    ]


# ----------------------------------------------------------------------------
# outputs
# ----------------------------------------------------------------------------


def observe(command: Command):
    """The figures of a command's output that are compared to the reference."""
    if command.kind == "run":
        report = _read_report(command.out)
        return [report["tau_st"], report["W_ex_norm"]]
    if command.kind == "fig4":
        return {
            f"{spectrum}_{axis}": [r["final_p_e"] for r in _read_fig4(command.out, spectrum, axis)]
            for spectrum in SPECTRA
            for axis in FIG4_ROWS
        }
    data = json.loads(command.out.read_text(encoding="utf-8"))
    return data["best_temperature_K"]


def _read_report(out: Path) -> dict:
    found = sorted(out.glob("*/report.json"))
    if len(found) != 1:
        raise ValueError(f"expected one report.json under {out}, found {len(found)}")
    return json.loads(found[0].read_text(encoding="utf-8"))


def _read_fig4(out: Path, spectrum: str, axis: str) -> list[dict]:
    with open(out / f"fig4_{spectrum}_{axis}.csv", encoding="utf-8", newline="") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def _rel(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref) if ref != 0.0 else abs(value)


def check(command: Command, rc: int, reference) -> Outcome:
    """Check a command's exit code and outputs; ``reference`` may be None."""
    if rc != command.expect_rc:
        return Outcome([f"{command.name}: exit code {rc}, expected {command.expect_rc}"])
    if rc != 0:
        return Outcome([])
    try:
        if command.kind == "run":
            return _check_run(command, reference)
        if command.kind == "fig4":
            return _check_fig4(command, reference)
        return _check_calibrate(command, reference)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return Outcome([f"{command.name}: unreadable output: {exc!r}"])


def _check_run(command: Command, reference) -> Outcome:
    report = _read_report(command.out)
    errors = []
    closure = _rel(report["W"] - report["dF"], report["W_ex"])
    if not closure <= LEDGER_TOL:
        errors.append(f"{command.name}: ledger W - dF = W_ex open by {closure!r} relative")
    if not (report["tau_st"] > 0.0 and math.isfinite(report["W_ex_norm"])):
        errors.append(f"{command.name}: implausible report {report!r}")
    outcome = Outcome(errors, ledger_closure=closure)
    if reference is not None:
        ref_tau, ref_w = reference
        outcome.tau_rel_err = _rel(report["tau_st"], ref_tau)
        outcome.w_ex_norm_rel_err = _rel(report["W_ex_norm"], ref_w)
        for label, err in (("tau_st", outcome.tau_rel_err), ("W_ex_norm", outcome.w_ex_norm_rel_err)):
            if not err <= REPORT_REF_TOL:
                errors.append(f"{command.name}: {label} off the reference by {err!r} relative")
    return outcome


def _check_fig4(command: Command, reference) -> Outcome:
    errors = []
    for spectrum in SPECTRA:
        for axis, n_rows in FIG4_ROWS.items():
            key = f"{spectrum}_{axis}"
            rows = _read_fig4(command.out, spectrum, axis)
            if len(rows) != n_rows:
                errors.append(f"{command.name}/{key}: {len(rows)} rows, expected {n_rows}")
                continue
            if axis == "population":
                worst = min(r["fidelity"] for r in rows)
                if not worst > FIG4_MIN_POPULATION_FIDELITY:
                    errors.append(f"{command.name}/{key}: fidelity {worst!r} <= 0.9999")
            if reference is None:
                continue
            for row, ref in zip(rows, reference[key]):
                if not _rel(row["final_p_e"], ref) <= FIG4_REF_TOL:
                    errors.append(
                        f"{command.name}/{key}: final_p_e {row['final_p_e']!r}"
                        f" off the reference {ref!r}"
                    )
                    break
    return Outcome(errors)


def _check_calibrate(command: Command, reference) -> Outcome:
    data = json.loads(command.out.read_text(encoding="utf-8"))
    best = data["best_temperature_K"]
    errors = []
    if not 0.005 < best < 0.020:
        errors.append(f"{command.name}: best temperature {best!r} K at the scan edge")
    for key in SPECTRA:
        expected = (data["computed"][key] - data["targets"][key]) / data["targets"][key]
        if not abs(data["residuals"][key] - expected) <= 1.0e-12:
            errors.append(f"{command.name}: residual for {key} is inconsistent")
    if reference is not None and not _rel(best, reference) <= CALIBRATION_REF_TOL:
        errors.append(f"{command.name}: best temperature {best!r} off the reference {reference!r}")
    return Outcome(errors)
