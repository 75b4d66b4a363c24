"""Traced memory per recorded sample of a long run, layer by layer.

Each bound is on the ``tracemalloc`` peak over one call, less the traced
memory before it, divided by the trajectory's row count, on mix-default
(10,979 rows) and jqf-default (16,699 rows).  A feedback run records five
float64 columns, 40 bytes per row, and shares one stride-0 view of ``+0.0``
as ``p_r`` and ``p_i``; what a layer holds beyond that while it runs is what
these bounds cap.

- ``integrate_restore``: at most 44 B.  It measures the recorded rows
  while the run records them.  With every sample kept as seven Python floats
  in one list it peaked at 282-286 B, and packed into float64 blocks of
  1,024 rows at 117-128 B (the blocks, their concatenation and one block's
  list of floats).  Recorded straight into one float64 buffer, whose
  columns are views, it peaked at 57 B with seven columns, at 49 B with
  five and an allocated zero column, and at 41 B with the zero column a
  stride-0 view: the rows and the buffer's growth headroom.
- ``work_ledger``: at most 20 B.  It measures the ledger's temporaries.
  Copying ``x`` and ``p_e`` into lists of Python floats took 72-73 B; three
  float64 temporaries took 24-25 B, and the restore terms and the ``p_e``
  drop, with no ``x`` column, take 17 B.
- ``Baseline(trajectory)``: at most 56 B.  It measures the composed maps
  and their temporaries.  The offset recurrence over ``tolist`` copies
  peaked at 192-193 B; over ``memoryview``s into ``np.fromiter``, 112 B.
  With each map filled in place, it holds the five maps it keeps (40 B)
  and one temporary: 48 B.
- ``make_baseline``: at most 100 B.  It measures the run and the maps it
  composes: 161 B with the maps' plain numpy expressions, 89 B in place.
"""

from __future__ import annotations

import tracemalloc

import pytest

from qreset import Baseline, QubitState, integrate_restore, make_baseline, work_ledger
from qreset.scenario import builtin_scenario

BYTES_PER_ROW_BOUND = {
    "integrate_restore": 44, "work_ledger": 20, "Baseline": 56, "make_baseline": 100
}


def _traced_peak(call):
    """``(call(), peak traced bytes above the memory traced when it started)``."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()


@pytest.fixture(scope="module")
def bytes_per_row() -> dict:
    out = {}
    for name in ("mix-default", "jqf-default"):
        model, env, bounds, law, numerics = builtin_scenario(name).build()
        run = lambda: integrate_restore(QubitState(0.5), law, model, env, bounds, numerics)  # noqa: E731
        trajectory, peak = _traced_peak(run)
        rows = trajectory.n_samples
        out[name, "integrate_restore"] = peak / rows
        out[name, "work_ledger"] = _traced_peak(lambda: work_ledger(trajectory, bounds, env))[1] / rows
        out[name, "Baseline"] = _traced_peak(lambda: Baseline(trajectory))[1] / rows
        built = lambda: make_baseline(model, env, bounds, law, numerics)  # noqa: E731
        out[name, "make_baseline"] = _traced_peak(built)[1] / rows
    return out


@pytest.mark.parametrize("layer", list(BYTES_PER_ROW_BOUND))
@pytest.mark.parametrize("scenario", ["mix-default", "jqf-default"])
def test_a_long_run_peaks_within_its_bytes_per_row_bound(scenario, layer, bytes_per_row):
    assert bytes_per_row[scenario, layer] <= BYTES_PER_ROW_BOUND[layer]
