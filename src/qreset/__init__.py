"""Time-optimal reset protocols for frequency-tunable qubits.

A qubit relaxing through a frequency-structured environment can be reset
by switching to a strongly damped frequency, letting it restore, and
switching back.  This package computes the time-optimal restoring
control under window constraints, the resulting reset times and
thermodynamic work ledger, and the robustness of the recorded protocol
to initial-state and timing errors.

Each module's ``__all__`` is its public API, re-exported here.
"""

from .thermo import *
from .spectra import *
from .dynamics import *
from .control import *
from .reset import *
from .robustness import *
from .scenario import *
from .cli import CalibrationResult, calibrate_temperature

__version__ = "0.1.0"
