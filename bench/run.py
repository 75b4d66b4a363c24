"""Benchmark of the qreset command line.

Usage, from the repository root::

    python3 bench/run.py --workload reset|robustness|calibrate \
        --seed N --seconds S --trace 0|1

Every command of a workload runs in this one process through
``qreset.cli.main(argv)``, one after another (a closed loop with one
client; no subprocesses, no threads).  A run sets up several times and
then repeats the workload's batch while ``--seconds`` allows, always at
least once.  With ``--trace 0`` it prints the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` it alternates untraced and traced
passes and prints the per-layer metrics.  The last line of standard
output is the result object; see README.md for the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from tracer import RESET_COMBOS, TraceError, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
REFERENCE = HERE / "reference.json"

SETUPS = 9
QRESET_MODULES = ("cli", "control", "dynamics", "reset", "robustness", "spectra")
WARMUP = ("run", "--scenario", "lz-default")


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def _loop_s(n: int) -> float:
    """Time ``n`` calls of a fixed float closure whose results are kept.

    The loop imitates the interpreter work of the package's hot path
    (closure calls, ``math.exp``, float arithmetic, list appends) without
    calling the package.  Over 100 s of drifting host speed its time
    tracked that of small ``run_reset`` calls with a log-log slope of
    0.99; a plain ``sqrt`` loop slowed only 1/1.6 as much as they did.
    """
    exp = math.exp
    out = []

    def j(f: float) -> float:
        e = exp(-0.4 * f)
        return f * (0.3 - e / (1.0 + e))

    t0 = time.perf_counter()
    for i in range(n):
        out.append(j(2.0 + i * 1.0e-3))
    return time.perf_counter() - t0


def host_probe_ms() -> float:
    """The host probe reported as ``host.probe_ms``: 20k loop iterations."""
    return _loop_s(20_000) * 1e3


class HostClock:
    """Elapsed time of a block, raw and normalised to a reference host speed.

    The speed of the shared host drifts by +-20% within seconds, with CPU
    time equal to wall time, so raw times of identical work spread more
    than any useful bound.  While the block runs, a wall-clock interval
    timer interrupts it every ``PERIOD_S`` to time a short fixed loop
    (about 0.1 ms, under 1% of the block).  With ``p`` the loop time at
    each sample, ``raw * mean(REF_LOOP_S / p)`` estimates how long the
    block would take on a host running the loop in ``REF_LOOP_S``.
    """

    PERIOD_S = 0.02
    LOOPS = 800
    REF_LOOP_S = 1.5e-4

    def __enter__(self) -> "HostClock":
        self.samples = [_loop_s(self.LOOPS)]
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self.t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.raw_s = time.perf_counter() - self.t0
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(_loop_s(self.LOOPS))
        self.norm_s = self.raw_s * statistics.fmean(self.REF_LOOP_S / p for p in self.samples)

    def _sample(self, signum, frame) -> None:
        self.samples.append(_loop_s(self.LOOPS))


def call_quietly(main, argv: list[str]) -> tuple[int | str, str]:
    """Run one CLI command with its output captured; returns (exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except Exception:  # a command that crashes is counted as failed
            return "exception", err.getvalue() + traceback.format_exc()
    return rc, err.getvalue()


def set_up(workload: str, seed: int, work: Path):
    """Import qreset afresh, write the seed's inputs and run one warm-up command."""
    for name in [n for n in sys.modules if n == "qreset" or n.startswith("qreset.")]:
        del sys.modules[name]
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    modules = {name: importlib.import_module(f"qreset.{name}") for name in QRESET_MODULES}
    origin = Path(modules["cli"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise BenchError(f"qreset was imported from {origin}, not from {SRC}")
    commands = workloads.build(workload, seed, work)
    rc, err = call_quietly(modules["cli"].main, [*WARMUP, "--out", str(work / "warmup")])
    if rc != 0:
        raise BenchError(f"warm-up command failed ({rc}): {err}")
    return modules, commands


@dataclass
class Pass:
    wall_s: float
    norm_s: float
    command_s: list[float]
    outcomes: list[workloads.Outcome]
    probes_ms: list[float]
    tracer: Tracer | None = None
    counts: dict[str, int] = field(default_factory=dict)
    times: dict[str, float] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if o.errors)


def run_pass(modules, commands, references, tracer: Tracer | None = None) -> Pass:
    out = commands[0].out.parent
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    main = modules["cli"].main
    probes = [host_probe_ms()]
    rcs, errs, command_s = [], [], []
    with tracer or contextlib.nullcontext(), HostClock() as clock:
        if tracer:
            main = tracer.wrap_main(main)
        for command in commands:
            t0 = time.perf_counter()
            rc, err = call_quietly(main, list(command.argv))
            command_s.append(time.perf_counter() - t0)
            rcs.append(rc)
            errs.append(err)
    probes.append(host_probe_ms())
    outcomes = []
    for command, rc, err in zip(commands, rcs, errs):
        outcome = workloads.check(command, rc, references.get(command.name))
        if outcome.errors:
            print("\n".join(outcome.errors), file=sys.stderr)
            if rc != command.expect_rc and err:
                print(err, file=sys.stderr)
        outcomes.append(outcome)
    result = Pass(clock.raw_s, clock.norm_s, command_s, outcomes, probes, tracer)
    if tracer is not None:
        result.counts, result.times = tracer.summarize()
    return result


def law_seconds(commands, p: Pass, law: str) -> float:
    return sum(t for c, t in zip(commands, p.command_s) if c.kind == "run" and c.law == law)


def end_to_end(
    setups: list[HostClock], passes: list[Pass], peak_rss_mb: float, attempted: int, failed: int
) -> dict[str, float]:
    return {
        "setup_s": statistics.median(c.norm_s for c in setups),
        "batch_s": statistics.median(p.norm_s for p in passes),
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": (attempted - failed) / attempted,
    }


def per_layer(
    workload: str, commands, setups: list[HostClock], plain: list[Pass], traced: list[Pass]
) -> dict[str, float]:
    first = traced[0]
    for p in traced[1:]:
        if p.counts != first.counts:
            raise TraceError("counts differ between two traced passes of the same inputs")
    first.tracer.require(workload, first.counts)
    counts = first.counts
    metrics: dict[str, float] = {}
    for key in (
        "control.refreshes", "control.tracked_refreshes", "control.objective_evals",
        "control.global_refreshes", "spectra.argmax_calls", "spectra.scan_evals",
        "dynamics.steps", "dynamics.drift_retries", "dynamics.rate_evals",
        "robustness.baselines", "robustness.replays", "robustness.replay_steps",
        "cli.commands", "cli.calibrate_runs",
    ):
        metrics[key] = counts.get(key, 0)
    tracked = counts.get("control.tracked_refreshes", 0)
    metrics["control.evals_per_refresh"] = (
        counts.get("control.tracked_objective_evals", 0) / tracked if tracked else 0.0
    )
    time_keys = [
        "control.refresh_s", "control.global_refresh_s", "spectra.argmax_s",
        "dynamics.integrate_s", "dynamics.self_s", "robustness.baseline_s",
        "robustness.replay_s", "robustness.sweep_s", "reset.run_reset_s",
        "reset.ledger_s", "cli.build_s", "cli.write_s",
    ] + [f"reset.run_reset_s.{combo}" for combo in RESET_COMBOS]
    for key in time_keys:
        metrics[key] = statistics.median(p.times.get(key, 0.0) for p in traced)

    checked = [o for p in plain + traced for o in p.outcomes]
    tau_errs = [o.tau_rel_err for o in checked if o.tau_rel_err is not None]
    w_errs = [o.w_ex_norm_rel_err for o in checked if o.w_ex_norm_rel_err is not None]
    metrics["reset.ref_compared"] = len(tau_errs) // len(plain + traced)
    metrics["reset.tau_rel_err_max"] = max(tau_errs, default=0.0)
    metrics["reset.w_ex_norm_rel_err_max"] = max(w_errs, default=0.0)
    metrics["reset.ledger_closure_max"] = max((o.ledger_closure for o in checked), default=0.0)

    metrics["tracked_reset_s"] = statistics.median(law_seconds(commands, p, "tracked") for p in plain)
    metrics["global_reset_s"] = statistics.median(law_seconds(commands, p, "global") for p in plain)
    metrics["host.probe_ms"] = statistics.median(x for p in plain + traced for x in p.probes_ms)
    metrics["host.wall_s"] = statistics.median(p.wall_s for p in plain)
    metrics["host.setup_s"] = statistics.median(c.raw_s for c in setups)
    metrics["trace.overhead_frac"] = (
        statistics.median(p.norm_s for p in traced) / statistics.median(p.norm_s for p in plain) - 1.0
    )
    return metrics


def load_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description="qreset benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qreset" / "cli.py").is_file():
        print(f"error: no qreset sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = load_spec()
    references = json.loads(REFERENCE.read_text(encoding="utf-8"))
    references = references.get(args.workload, {}).get(str(args.seed), {})
    if not references:
        print(f"note: no reference outputs for seed {args.seed}; invariant checks only", file=sys.stderr)
    work = WORK / f"{args.workload}-{args.seed}"

    setups = []
    for _ in range(SETUPS):
        with HostClock() as clock:
            modules, commands = set_up(args.workload, args.seed, work)
        setups.append(clock)

    plain: list[Pass] = []
    traced: list[Pass] = []
    start = time.perf_counter()
    while True:  # repeat while one more round still fits in --seconds
        t0 = time.perf_counter()
        plain.append(run_pass(modules, commands, references))
        if len(plain) == 1:
            # Peak memory of set-up plus one pass: later passes only add
            # allocator noise that depends on how many passes fit.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace:
            traced.append(run_pass(modules, commands, references, Tracer(modules)))
        now = time.perf_counter()
        if now - start + (now - t0) > args.seconds:
            break

    passes = plain + traced
    attempted = sum(len(p.outcomes) for p in passes)
    failed = sum(p.failed for p in passes)
    if args.trace:
        metrics = per_layer(args.workload, commands, setups, plain, traced)
        for i, p in enumerate(traced):
            p.tracer.write(work / "trace.csv", i, append=i > 0)
        units = spec["per_layer"]
    else:
        metrics = end_to_end(setups, plain, peak_rss_mb, attempted, failed)
        units = spec["end_to_end"]
    if set(metrics) != set(units):
        raise BenchError(f"metrics and BENCHMARK.json disagree: {sorted(set(metrics) ^ set(units))}")

    numpy = sys.modules["numpy"]
    print(
        f"host: python {platform.python_version()} numpy {numpy.__version__}"
        f" nproc {os.cpu_count()} loadavg {' '.join(f'{x:.2f}' for x in os.getloadavg())}"
        f" probe_ms {statistics.median(x for p in passes for x in p.probes_ms):.2f}"
        f" passes {len(plain)}+{len(traced)}"
    )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, TraceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(3)
