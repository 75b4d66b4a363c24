"""The package namespace: each module's ``__all__``, re-exported as it is."""

from __future__ import annotations

import types

import qreset
from qreset import cli, control, dynamics, reset, robustness, scenario, spectra, thermo

MODULES = (thermo, spectra, dynamics, control, reset, robustness, scenario)
CLI_NAMES = ("CalibrationResult", "calibrate_temperature")


def test_public_names_are_the_modules_all_lists():
    public = {name for name in vars(qreset) if not name.startswith("_")}
    submodules = {m.__name__.rpartition(".")[2] for m in (*MODULES, cli)}
    exported = set(CLI_NAMES).union(*(m.__all__ for m in MODULES))
    assert public == exported | submodules
    for name in submodules:
        assert isinstance(getattr(qreset, name), types.ModuleType), name
    for module in MODULES:
        for name in module.__all__:
            assert getattr(qreset, name) is getattr(module, name), name
    for name in CLI_NAMES:
        assert getattr(qreset, name) is getattr(cli, name)
    # The entry points stay in qreset.cli.
    assert not hasattr(qreset, "main") and not hasattr(qreset, "console_main")
