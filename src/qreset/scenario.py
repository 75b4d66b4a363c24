"""Scenario configs: one fully specified reset run and its JSON form.

Scenarios are flat JSON objects with an optional nested ``numerics``
object holding the ``Numerics`` fields plus ``control_mode``; unknown
keys are errors, not warnings, because silent typos in physics
parameters are the main reproduction hazard.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Callable, Mapping, TextIO

from .control import (
    ConstantAtPeak,
    FixedSchedule,
    ScheduleWindowError,
    TimeLocalOptimal,
    schedule_from_csv,
)
from .dynamics import Numerics
from .spectra import (
    JQF,
    ControlBounds,
    Lorentzian,
    Mixed,
    Protected,
    SpectrumError,
    SpectrumModel,
    Tabulated,
    load_tabulated,
)
from .thermo import Environment

# hashlib maps OpenSSL (3.6 MB resident); the built-in SHA-256 gives the same digest.
try:
    from _sha2 import sha256
except ImportError:  # Python 3.11 and earlier
    try:
        from _sha256 import sha256
    except ImportError:  # an interpreter built without its own hashes
        from hashlib import sha256

__all__ = [
    "ConfigError",
    "Scenario",
    "BUILTIN_SCENARIO_NAMES",
    "PAPER_W_EX_NORM_TARGETS",
    "builtin_scenario",
    "load_scenario",
    "scenario_hash",
]


class ConfigError(ValueError):
    """Invalid scenario configuration."""


_SPECTRUM_CLASSES = {"lz": Lorentzian, "prot": Protected, "mix": Mixed, "jqf": JQF}

_SPECTRUM_KINDS = tuple(_SPECTRUM_CLASSES)

BUILTIN_SCENARIO_NAMES = tuple(f"{kind}-default" for kind in _SPECTRUM_KINDS)

# Published normalized extra-work values for the four built-in spectra,
# used as default calibration targets.
PAPER_W_EX_NORM_TARGETS = {"lz": 18.53, "prot": 22.51, "mix": 6.24, "jqf": 6.37}


@dataclass(frozen=True)
class Scenario:
    """One fully specified reset run."""

    name: str
    spectrum: str = "lz"
    spectrum_params: Mapping[str, float] = field(default_factory=dict)
    temperature_K: float = 0.010
    f_cp_GHz: float = ControlBounds.f_cp_ghz
    delta_f_GHz: float = ControlBounds.delta_f_ghz
    tau_sw_us: float = ControlBounds.tau_sw_us
    epsilon: float = ControlBounds.epsilon
    control: str = "time_local"
    numerics: Numerics = field(default_factory=Numerics)
    control_mode: str = "tracked"  # JSON key numerics.control_mode

    def __post_init__(self) -> None:
        if self.control_mode not in ("tracked", "global"):
            raise ConfigError(
                f"numerics.control_mode must be 'tracked' or 'global',"
                f" got {self.control_mode!r}"
            )

    def to_dict(self) -> dict:
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["spectrum_params"] = dict(self.spectrum_params)
        data["numerics"] = {**asdict(self.numerics), "control_mode": data.pop("control_mode")}
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "Scenario":
        if not isinstance(data, Mapping):
            raise ConfigError(f"scenario must be a JSON object, got {type(data).__name__}")
        known = {f.name for f in fields(cls)} - {"control_mode"}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown scenario key(s): {sorted(unknown)}")
        payload = dict(data)
        num_data = payload.pop("numerics", {})
        if not isinstance(num_data, Mapping):
            raise ConfigError("numerics must be a JSON object")
        num_data = dict(num_data)
        num_unknown = set(num_data) - {f.name for f in fields(Numerics)} - {"control_mode"}
        if num_unknown:
            raise ConfigError(f"unknown numerics key(s): {sorted(num_unknown)}")
        # Numerics checks its own fields, naming each ``numerics.<field>``.
        annotations = {f.name: f.type for f in fields(cls)}
        for key, value in payload.items():
            _check_json_type(key, value, annotations.get(key))
        if "control_mode" in num_data:
            payload["control_mode"] = num_data.pop("control_mode")
        params = payload.pop("spectrum_params", {})
        if not isinstance(params, Mapping):
            raise ConfigError("spectrum_params must be a JSON object")
        for key, value in params.items():
            _check_json_type(f"spectrum_params.{key}", value, "float")
        # JSON integers have no size limit; past a float's, the checks behind overflow.
        for where, values in (("", payload), ("spectrum_params.", params), ("numerics.", num_data)):
            for key, value in values.items():
                if isinstance(value, int) and abs(value) > sys.float_info.max:
                    raise ConfigError(f"{where}{key} must fit in a float, got a larger integer")
        if "spectrum" not in payload:
            raise ConfigError("scenario is missing the 'spectrum' key")
        if "name" not in payload:
            payload["name"] = payload["spectrum"]
        try:
            numerics = Numerics(**num_data)
            return cls(spectrum_params=dict(params), numerics=numerics, **payload)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from None

    def build_model(self, base_dir: Path | None = None) -> SpectrumModel:
        kind = self.spectrum
        if kind.startswith("tabulated:"):
            if self.spectrum_params:
                raise ConfigError("spectrum_params not applicable to tabulated spectra")
            return _read_table(kind, base_dir, "tabulated spectrum", load_tabulated)
        if kind not in _SPECTRUM_KINDS:
            raise ConfigError(
                f"spectrum must be one of {_SPECTRUM_KINDS} or 'tabulated:<path>',"
                f" got {kind!r}"
            )
        cls = _SPECTRUM_CLASSES[kind]
        valid = {f.name for f in fields(cls)}
        unknown = set(self.spectrum_params) - valid
        if unknown:
            raise ConfigError(
                f"unknown {kind} spectrum parameter(s): {sorted(unknown)};"
                f" valid: {sorted(valid)}"
            )
        try:
            return cls(**self.spectrum_params)
        except SpectrumError as exc:  # it names the field, which is the config key
            raise ConfigError(f"spectrum_params.{exc}") from None

    def build_law(self, base_dir: Path | None = None):
        if self.control == "time_local":
            return TimeLocalOptimal(mode=self.control_mode)
        if self.control == "constant":
            return ConstantAtPeak()
        if self.control.startswith("schedule:"):
            return _read_table(self.control, base_dir, "schedule", schedule_from_csv)
        raise ConfigError(
            f"control must be 'time_local', 'constant' or 'schedule:<path>',"
            f" got {self.control!r}"
        )

    def build(self, base_dir: Path | None = None):
        model = self.build_model(base_dir)
        try:
            env = Environment(temperature_K=self.temperature_K)
            bounds = ControlBounds(
                f_cp_ghz=self.f_cp_GHz,
                delta_f_ghz=self.delta_f_GHz,
                tau_sw_us=self.tau_sw_us,
                epsilon=self.epsilon,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if isinstance(model, Tabulated) and not (
            model.f_min_ghz <= bounds.f_min_ghz and bounds.f_max_ghz <= model.f_max_ghz
        ):
            raise ConfigError(
                f"tabulated spectrum spans [{model.f_min_ghz!r}, {model.f_max_ghz!r}] GHz,"
                f" which does not cover the control window"
                f" [{bounds.f_min_ghz!r}, {bounds.f_max_ghz!r}] GHz"
            )
        law = self.build_law(base_dir)
        if isinstance(law, FixedSchedule):
            try:
                law.check_window(bounds)
            except ScheduleWindowError as exc:
                raise ConfigError(str(exc)) from None
        return model, env, bounds, law, self.numerics


# The JSON values each field annotation accepts; a bool is not a number.
_JSON_TYPES = {
    "str": ((str,), "a string"),
    "float": ((int, float), "a number"),
}


def _check_json_type(key: str, value, annotation: str | None) -> None:
    """Raise ``ConfigError`` naming ``key`` unless ``value`` fits its annotation."""
    if annotation not in _JSON_TYPES:
        return
    types, what = _JSON_TYPES[annotation]
    if isinstance(value, bool) or not isinstance(value, types):
        raise ConfigError(f"{key} must be {what}, got {value!r}")


def _read_table(spec: str, base_dir: Path | None, what: str, parse: Callable[[TextIO], object]):
    """Parse the file named after ``kind:`` in ``spec``, relative to ``base_dir``.

    An unreadable file or a parse error becomes a ``ConfigError``.
    """
    path = Path(spec.split(":", 1)[1])
    if base_dir is not None and not path.is_absolute():
        path = base_dir / path
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what}: {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"invalid {what} {path}: {exc}") from None


def builtin_scenario(name: str) -> Scenario:
    if name not in BUILTIN_SCENARIO_NAMES:
        raise ConfigError(
            f"unknown builtin scenario {name!r}; valid: {BUILTIN_SCENARIO_NAMES}"
        )
    return Scenario(name=name, spectrum=name.removesuffix("-default"))


def load_scenario(path: Path) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except ValueError as exc:  # bad JSON, bad UTF-8 or an integer past Python's digit limit
        raise ConfigError(f"invalid JSON in {path}: {exc}") from None
    return Scenario.from_dict(data)


def scenario_hash(scenario: Scenario) -> str:
    canonical = json.dumps(scenario.to_dict(), sort_keys=True, separators=(",", ":"))
    return sha256(canonical.encode()).hexdigest()[:12]
