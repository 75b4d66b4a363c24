"""Record the reference outputs that `run.py` checks on the shipped seeds.

Usage, from the repository root::

    python3 bench/record_reference.py

Runs one untraced pass of every workload for seeds 0-15 and writes
``bench/reference.json``: per command, ``[tau_st, W_ex_norm]`` of a reset
run, the ``final_p_e`` column of every fig4 CSV, or the calibrated
temperature.  Values are kept to 9 significant digits, well inside the
1e-4 (1e-3 for calibration) relative tolerances they are checked at.
Re-record only in a change that is allowed to move these outputs, and
say so.
"""

from __future__ import annotations

import json
import sys

import run
import workloads

SEEDS = range(16)


def _rounded(value):
    if isinstance(value, float):
        return float(f"{value:.9g}")
    if isinstance(value, list):
        return [_rounded(v) for v in value]
    if isinstance(value, dict):
        return {k: _rounded(v) for k, v in value.items()}
    return value


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    blocks = []
    for workload in workloads.WORKLOADS:
        rows = []
        for seed in SEEDS:
            modules, commands = run.set_up(workload, seed, run.WORK / f"{workload}-{seed}")
            result = run.run_pass(modules, commands, {})
            if result.failed:
                print(f"{workload} seed {seed}: output checks failed", file=sys.stderr)
                return 1
            observed = {c.name: _rounded(workloads.observe(c)) for c in commands if c.expect_rc == 0}
            rows.append(f'  "{seed}": {json.dumps(observed, separators=(",", ":"))}')
            print(f"{workload} seed {seed}: {result.wall_s:.1f} s", file=sys.stderr)
        blocks.append(f' "{workload}": {{\n' + ",\n".join(rows) + "\n }")
    run.REFERENCE.write_text("{\n" + ",\n".join(blocks) + "\n}\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
