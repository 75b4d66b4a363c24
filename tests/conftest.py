from __future__ import annotations

import pytest

from qreset import (
    Baseline,
    ControlBounds,
    Environment,
    JQF,
    Lorentzian,
    Mixed,
    Numerics,
    Protected,
    TimeLocalOptimal,
    run_reset,
)

SPECTRA = {
    "lz": Lorentzian,
    "prot": Protected,
    "mix": Mixed,
    "jqf": JQF,
}


@pytest.fixture(scope="session")
def env10() -> Environment:
    return Environment(temperature_K=0.010)


@pytest.fixture(scope="session")
def bounds() -> ControlBounds:
    return ControlBounds()


@pytest.fixture(scope="session")
def models() -> dict:
    return {name: cls() for name, cls in SPECTRA.items()}


@pytest.fixture(scope="session")
def default_runs(models, env10, bounds) -> dict:
    """The four built-in scenarios at the 10 mK default, tracked law."""
    law = TimeLocalOptimal()
    out = {}
    for name, model in models.items():
        out[name] = run_reset(model, env10, bounds, law, Numerics())
    return out


@pytest.fixture(scope="session")
def baselines(default_runs) -> dict:
    """Robustness baselines built from the already-computed default runs."""
    return {name: Baseline(trajectory) for name, (_, trajectory) in default_runs.items()}
