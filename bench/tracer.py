"""Outside-in tracing of one pass of a workload.

The tracer replaces the package's functions at the module attributes
where the package looks them up (``qreset.control.optimal_frequency``
is called through ``qreset.control``'s globals, ``integrate_restore``
through ``qreset.reset``'s and ``qreset.robustness``'s, and so on), so
every call is seen without any change to the package.  Layer
boundaries become spans ``(id, parent, name, start, end, tag)`` kept in
memory; hot inner calls (objective, rate and scan evaluations) only bump
counters, because a span there would cost more than the call.
``qreset.thermo`` is not wrapped for the same reason: its time counts
inside ``reset.ledger_s`` and ``dynamics.self_s``.
"""

from __future__ import annotations

import itertools
import time
from collections import defaultdict
from pathlib import Path

from workloads import LAWS, SPECTRA

_SPECTRUM_KEYS = {"Lorentzian": "lz", "Protected": "prot", "Mixed": "mix", "JQF": "jqf"}
RESET_COMBOS = tuple(f"{sp}.{law}" for sp in SPECTRA for law in LAWS)

# Counters that must be non-zero after a traced pass of each workload, so
# that a refactor that bypasses a wrapper fails loudly instead of zeroing
# a layer.
MUST_FIRE = {
    "reset": (
        "control.refreshes",
        "control.global_refreshes",
        "control.objective_evals",
        "spectra.argmax_calls",
        "spectra.scan_evals",
        "dynamics.steps",
        "dynamics.drift_retries",
        "dynamics.rate_evals",
        "reset.runs",
        "reset.ledgers",
        "cli.commands",
        "cli.builds",
        "cli.writes",
    ),
    "robustness": (
        "control.refreshes",
        "spectra.argmax_calls",
        "dynamics.steps",
        "dynamics.rate_evals",
        "robustness.baselines",
        "robustness.sweeps",
        "robustness.replays",
        "robustness.replay_steps",
        "cli.commands",
        "cli.builds",
        "cli.writes",
    ),
    "calibrate": (
        "control.refreshes",
        "control.objective_evals",
        "spectra.argmax_calls",
        "spectra.scan_evals",
        "dynamics.steps",
        "dynamics.rate_evals",
        "reset.runs",
        "reset.ledgers",
        "cli.commands",
        "cli.calibrate_runs",
        "cli.writes",
    ),
}


class TraceError(RuntimeError):
    """A wrapper saw no calls where the workload must reach it."""


class Tracer:
    """Installs the wrappers for one pass and turns the record into metrics."""

    def __init__(self, qreset_modules: dict) -> None:
        self.m = qreset_modules
        self.spans: list[tuple] = []
        self._stack = [0]
        self._ids = itertools.count(1)
        self._objective = [0]
        self._rate = [0]
        self._scan = [0]
        self._refresh_evals = {"tracked": 0, "global": 0}
        self._saved: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------

    def __enter__(self) -> "Tracer":
        m = self.m
        cli, control, dynamics, reset, robustness, spectra = (
            m["cli"], m["control"], m["dynamics"], m["reset"], m["robustness"], m["spectra"]
        )
        self._patch(control, "optimal_frequency", self._refresh(control.optimal_frequency))
        self._patch(control, "_objective", self._counted_factory(control._objective, self._objective))
        self._patch(control, "rate_fn", self._counted_factory(control.rate_fn, self._rate))
        self._patch(dynamics, "rate_fn", self._counted_factory(dynamics.rate_fn, self._rate))
        self._patch(spectra, "eval_rate", self._counted(spectra.eval_rate, self._rate))
        self._patch(control, "argmax_rate", self._span("spectra.argmax", control.argmax_rate))
        self._patch(spectra, "_scan_max", self._scan_counted(spectra._scan_max))
        self._patch(control, "_scan_max", self._scan_counted(control._scan_max))
        for module in (reset, robustness):
            self._patch(
                module,
                "integrate_restore",
                self._span("dynamics.integrate", module.integrate_restore, _integrate_tag),
            )
        self._patch(reset, "work_ledger", self._span("reset.ledger", reset.work_ledger))
        self._patch(cli, "run_reset", self._span("reset.run_reset", cli.run_reset, _reset_tag))
        self._patch(cli, "make_baseline", self._span("robustness.baseline", cli.make_baseline))
        self._patch(cli, "fidelity_sweep", self._span("robustness.sweep", cli.fidelity_sweep))
        self._patch(
            robustness,
            "run_deviation",
            self._span("robustness.replay", robustness.run_deviation, _replay_tag),
        )
        self._patch(cli, "load_scenario", self._span("cli.build", cli.load_scenario))
        self._patch(cli.Scenario, "build", self._span("cli.build", cli.Scenario.build))
        for owner, attr in (
            (cli, "_write_json"),
            (cli, "schedule_to_csv"),
            (dynamics.Trajectory, "to_csv"),
            (robustness.SweepCurve, "to_csv"),
        ):
            self._patch(owner, attr, self._span("cli.write", getattr(owner, attr)))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    # -- wrappers ------------------------------------------------------------

    def wrap_main(self, main):
        """``main`` with each CLI command as the root span of its subtree."""
        return self._span("cli.command", main, lambda a, k, r: a[0][0])

    def _span(self, name: str, fn, tag=None):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter

        def wrapped(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, name, t0, t1, tag(args, kwargs, result) if tag else None))

        return wrapped

    def _refresh(self, fn):
        """Span around one control refresh, tagged tracked/global with its objective evals."""
        objective = self._objective
        inner = self._span("control.refresh", fn, lambda a, k, r: k.get("near") is None)

        def wrapped(*args, **kwargs):
            before = objective[0]
            try:
                return inner(*args, **kwargs)
            finally:
                kind = "tracked" if kwargs.get("near") is not None else "global"
                self._refresh_evals[kind] += objective[0] - before

        return wrapped

    @staticmethod
    def _counted(fn, cell: list):
        def wrapped(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapped

    @staticmethod
    def _counted_factory(factory, cell: list):
        """Wrap a function that returns an evaluator so each evaluation is counted."""

        def make(*args, **kwargs):
            evaluate = factory(*args, **kwargs)

            def counted(f):
                cell[0] += 1
                return evaluate(f)

            return counted

        return make

    def _scan_counted(self, scan):
        cell = self._scan

        def wrapped(fn, *args, **kwargs):
            def counted(f):
                cell[0] += 1
                return fn(f)

            return scan(counted, *args, **kwargs)

        return wrapped

    # -- summary -------------------------------------------------------------

    def summarize(self) -> tuple[dict[str, int], dict[str, float]]:
        """Counts (which repeat exactly) and times, from the spans and counters."""
        calibrate_ids = {
            sid for sid, _, name, _, _, tag in self.spans
            if name == "cli.command" and tag == "calibrate-temperature"
        }
        child_s: dict[int, float] = defaultdict(float)
        refreshes_under: dict[int, int] = defaultdict(int)
        for sid, parent, name, t0, t1, tag in self.spans:
            child_s[parent] += t1 - t0
            if name == "control.refresh":
                refreshes_under[parent] += 1

        c: dict[str, int] = defaultdict(int)
        s: dict[str, float] = defaultdict(float)
        for sid, parent, name, t0, t1, tag in self.spans:
            dur = t1 - t0
            if name == "control.refresh":
                c["control.refreshes"] += 1
                s["control.refresh_s"] += dur
                if tag:
                    c["control.global_refreshes"] += 1
                    s["control.global_refresh_s"] += dur
            elif name == "spectra.argmax":
                c["spectra.argmax_calls"] += 1
                s["spectra.argmax_s"] += dur
            elif name == "dynamics.integrate":
                s["dynamics.integrate_s"] += dur
                s["dynamics.self_s"] += dur - child_s[sid]
                if tag is not None:
                    samples, precision, time_local = tag
                    c["dynamics.steps"] += samples - 1
                    if precision and time_local:
                        # Every refresh inside a closed-loop run is the
                        # initial one, one probe per free step (samples - 2
                        # of them) or a drift retry.
                        retries = refreshes_under[sid] - samples + 1
                        if retries < 0:
                            raise TraceError(f"negative drift-retry count {retries}")
                        c["dynamics.drift_retries"] += retries
            elif name == "robustness.baseline":
                c["robustness.baselines"] += 1
                s["robustness.baseline_s"] += dur
            elif name == "robustness.replay":
                c["robustness.replays"] += 1
                s["robustness.replay_s"] += dur
                if tag is not None:
                    c["robustness.replay_steps"] += tag - 1
            elif name == "robustness.sweep":
                c["robustness.sweeps"] += 1
                s["robustness.sweep_s"] += dur
            elif name == "reset.run_reset":
                c["reset.runs"] += 1
                s["reset.run_reset_s"] += dur
                s[f"reset.run_reset_s.{tag}"] += dur
                if parent in calibrate_ids:
                    c["cli.calibrate_runs"] += 1
            elif name == "reset.ledger":
                c["reset.ledgers"] += 1
                s["reset.ledger_s"] += dur
            elif name == "cli.command":
                c["cli.commands"] += 1
            elif name == "cli.build":
                c["cli.builds"] += 1
                s["cli.build_s"] += dur
            elif name == "cli.write":
                c["cli.writes"] += 1
                s["cli.write_s"] += dur
        c["control.objective_evals"] = self._objective[0]
        c["control.tracked_refreshes"] = c["control.refreshes"] - c["control.global_refreshes"]
        c["control.tracked_objective_evals"] = self._refresh_evals["tracked"]
        c["spectra.scan_evals"] = self._scan[0]
        c["dynamics.rate_evals"] = self._rate[0]
        return dict(c), dict(s)

    def require(self, workload: str, counts: dict[str, int]) -> None:
        silent = [k for k in MUST_FIRE[workload] if not counts.get(k)]
        if silent:
            raise TraceError(f"no calls seen on {workload} for: {', '.join(silent)}")

    def write(self, path: Path, pass_index: int, append: bool) -> None:
        """Write the spans as CSV; times are seconds from the pass's first span."""
        t_ref = min((s[3] for s in self.spans), default=0.0)
        with open(path, "a" if append else "w", encoding="utf-8") as fh:
            if not append:
                fh.write("pass,id,parent,name,start_s,end_s,tag\n")
            for sid, parent, name, t0, t1, tag in self.spans:
                fh.write(f"{pass_index},{sid},{parent},{name},{t0 - t_ref:.9f},{t1 - t_ref:.9f},{_csv_tag(tag)}\n")


def _csv_tag(tag) -> str:
    if tag is None:
        return ""
    if isinstance(tag, tuple):
        return "/".join(str(x) for x in tag)
    return str(tag)


def _integrate_tag(args, kwargs, trajectory):
    if trajectory is None:
        return None
    law = args[1]
    time_local = type(law).__name__ == "TimeLocalOptimal"
    return (trajectory.n_samples, trajectory.termination == "precision", time_local)


def _replay_tag(args, kwargs, result):
    return None if result is None else result.trajectory.n_samples


def _reset_tag(args, kwargs, result) -> str:
    model, law = args[0], args[3]
    spectrum = _SPECTRUM_KEYS.get(type(model).__name__, type(model).__name__)
    kind = type(law).__name__
    if kind == "TimeLocalOptimal":
        law_key = law.mode
    elif kind == "ConstantAtPeak":
        law_key = "constant"
    else:
        law_key = kind
    return f"{spectrum}.{law_key}"

