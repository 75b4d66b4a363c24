"""Time-optimal reset protocols for frequency-tunable qubits.

A qubit relaxing through a frequency-structured environment can be reset
by switching to a strongly damped frequency, letting it restore, and
switching back.  This package computes the time-optimal restoring
control under window constraints, the resulting reset times and
thermodynamic work ledger, and the robustness of the recorded protocol
to initial-state and timing errors.
"""

from .thermo import (
    Environment,
    H_OVER_KB_K_PER_GHZ,
    LN2,
    RAD_PER_US_PER_GHZ,
    ThermoDomainError,
    entropy,
    equilibrium_population,
    occupation,
    thermal_ratio,
)
from .spectra import (
    JQF,
    ArgmaxResult,
    CoherenceTime,
    ControlBounds,
    DEFAULT_GRID_POINTS,
    DEFAULT_RATE_CAP,
    GuidelineReport,
    Lorentzian,
    Mixed,
    Protected,
    SpectrumError,
    SpectrumModel,
    SpectrumParseError,
    SpectrumRangeError,
    Tabulated,
    argmax_rate,
    coherence_time,
    dump_tabulated,
    eval_rate,
    guideline_report,
    load_tabulated,
)
from .dynamics import (
    DecoherenceFactor,
    InfiniteRateError,
    IntegrationError,
    NoDescentError,
    Numerics,
    QubitState,
    Trajectory,
    decoherence_factor,
    integrate_restore,
)
from .control import (
    ConstantAtPeak,
    ControlLaw,
    CostateTrajectory,
    DegenerateTransversalityError,
    FixedSchedule,
    PmpReport,
    RefreshLimitError,
    ScheduleWindowError,
    TimeLocalOptimal,
    constant_restore_frequency,
    costate_along,
    optimal_frequency,
    schedule_from_csv,
    schedule_to_csv,
    verify_pmp,
)
from .reset import (
    AchievabilityError,
    IntegrationLimitError,
    ResetReport,
    THERMO_LENGTH_CONST,
    WorkLedger,
    constant_control_work_approx,
    epsilon_min,
    report_to_dict,
    run_reset,
    thermodynamic_length_bound,
    work_ledger,
)
from .robustness import (
    Baseline,
    CoherenceDeviation,
    ControlTimeDeviation,
    DeviationResult,
    DeviationSpec,
    PopulationDeviation,
    SensitivityReport,
    SweepCurve,
    fidelity,
    fidelity_sweep,
    make_baseline,
    run_deviation,
    sensitivity_report,
)
from .scenario import (
    BUILTIN_SCENARIO_NAMES,
    ConfigError,
    PAPER_W_EX_NORM_TARGETS,
    Scenario,
    builtin_scenario,
    load_scenario,
    scenario_hash,
)
from .cli import CalibrationResult, calibrate_temperature

__version__ = "0.1.0"
