"""The benchmark tracer's contract with the package.

``bench/tracer.py`` wraps package functions by name, and a name that has
gone raises ``KeyError`` when a traced pass starts.  Entering and leaving
the tracer on freshly imported modules, with no workload run, finds that
in the suite instead of in a traced benchmark run.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
QRESET_MODULES = ("cli", "control", "dynamics", "reset", "robustness", "spectra")


def test_tracer_wraps_only_names_the_package_has(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    for name in [n for n in sys.modules if n == "qreset" or n.startswith("qreset.")]:
        monkeypatch.delitem(sys.modules, name)  # put back at teardown
    modules = {name: importlib.import_module(f"qreset.{name}") for name in QRESET_MODULES}
    tracer = importlib.import_module("tracer")
    before = {name: dict(vars(module)) for name, module in modules.items()}
    with tracer.Tracer(modules):  # KeyError here names a wrapped name that has gone
        cli = modules["cli"]
        assert cli.schedule_to_csv is not before["cli"]["schedule_to_csv"]
    for name, module in modules.items():
        assert vars(module) == before[name], name
