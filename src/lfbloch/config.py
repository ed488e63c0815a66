"""Scenario and sweep files: strict JSON with field-path diagnostics.

A scenario file describes one simulation in scaled units (rates in
gamma_a units, times in 1/gamma_a):

.. code-block:: json

    {
      "model": "A",
      "emitter": {"delta_a": 0.0, "eps_a": 0.0, "gamma_a": 1.0},
      "ell": [1.4, 0.0],
      "drive": {"kind": "off"},
      "initial": {"s": [0.0, 0.0], "w": 1.0},
      "integration": {"span": 6.0, "tol": 1e-10, "points": 1201},
      "fit": {"observable": "w_plus_1"},
      "output": {"trajectory": "decay.csv"}
    }

Complex numbers are written as [re, im] (a bare number means a real
value).  Model "A" takes either "ell" directly or a "host" section the
factor is computed from; models "B" and "both" require "host".  Unknown
keys anywhere are rejected with the offending path.  An optional
"gaussian_units" section gives emitter/host number density (cm^-3),
dipole moment (statC cm), and angular frequency (rad/s); the
corresponding coupling strengths and rates are then derived instead of
being written in scaled units, and all rates are rescaled so that
gamma_a = 1.

A sweep file varies one parameter across a list or range of values:

.. code-block:: json

    {
      "parameter": "host.eps_b",
      "values": [0.0, 5.0, 10.0],
      "reduction": "population_rate_model_a",
      "base": { ... scenario ... },
      "overrides": [{"host": {"delta_b": 20.0}}, ...]
    }
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass

import numpy as np

from lfbloch.dynamics import (
    DriveEnvelope,
    EmitterParams,
    IntegrationSpec,
    SystemState,
)
from lfbloch.medium import (
    GaussianInputs,
    HostSpecies,
    local_field_factor,
    ndd_strength,
    radiative_rate,
)

__all__ = [
    "ConfigError",
    "FitSpec",
    "OutputSpec",
    "ScenarioConfig",
    "SweepSpec",
    "load_scenario",
    "load_sweep",
    "parse_scenario",
    "parse_sweep",
]

MODELS = ("A", "B", "both")
REDUCTIONS = ("population_rate_model_a", "coherence_rate_model_b")

_DRIVE_KEYS = {"kind", "amplitude", "t_on", "t_off"}
_SWEPT_FIELDS = {
    "emitter": {"delta_a", "eps_a", "gamma_a"},
    "host": {"delta_b", "eps_b", "gamma_b"},
    "drive": {"amplitude", "t_on", "t_off"},
    "initial": {"s", "w", "beta"},
    "integration": {"span", "tol", "points"},
}


class ConfigError(ValueError):
    """A scenario or sweep file failed validation; the message names the
    offending field path."""


# ---------------------------------------------------------------------------
# low-level JSON field helpers
# ---------------------------------------------------------------------------

def _require_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object, got "
                          f"{type(value).__name__}")
    return value


def _reject_unknown(d: dict, allowed, path: str) -> None:
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        raise ConfigError(
            f"{path}.{unknown[0]}: unknown key (allowed: "
            f"{', '.join(sorted(allowed))})"
        )


def _real(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    return float(value)


def _complex(value, path: str) -> complex:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(value)
    if (isinstance(value, list) and len(value) == 2
            and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                    for v in value)):
        return complex(value[0], value[1])
    raise ConfigError(f"{path}: expected a number or [re, im] pair, "
                      f"got {value!r}")


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return value


def _string(value, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{path}: expected a string, got {value!r}")
    return value


def _rebuild(factory, path: str, /, **kwargs):
    """Construct a domain dataclass, rewriting its ValueError with path."""
    try:
        return factory(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# scenario sections
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FitSpec:
    """Which observable to fit and over which window (None = automatic)."""

    observable: str = "w_plus_1"
    window: tuple[float, float] | None = None


@dataclass(frozen=True)
class OutputSpec:
    """Where the trajectory CSV goes (None = default path)."""

    trajectory: str | None = None


@dataclass(frozen=True)
class ScenarioConfig:
    """One validated simulation scenario.

    host and ell are mutually exclusive handles on the medium: model "A"
    takes either, models "B" and "both" need the explicit host.
    """

    model: str
    emitter: EmitterParams
    host: HostSpecies | None
    ell: complex | None
    initial: SystemState
    integration: IntegrationSpec
    fit: FitSpec
    output: OutputSpec

    def resolved_ell(self) -> complex:
        """The local-field factor, from ell or computed from the host."""
        if self.ell is not None:
            return self.ell
        return local_field_factor(self.host).ell


def _parse_drive(raw, path: str) -> DriveEnvelope:
    raw = _require_mapping(raw, path)
    _reject_unknown(raw, _DRIVE_KEYS, path)
    kwargs = {}
    if "kind" in raw:
        kwargs["kind"] = _string(raw["kind"], f"{path}.kind")
    if "amplitude" in raw:
        kwargs["amplitude"] = _complex(raw["amplitude"], f"{path}.amplitude")
    if "t_on" in raw:
        kwargs["t_on"] = _real(raw["t_on"], f"{path}.t_on")
    if "t_off" in raw:
        kwargs["t_off"] = _real(raw["t_off"], f"{path}.t_off")
    return _rebuild(DriveEnvelope, path, **kwargs)


def _parse_gaussian(raw, path: str) -> GaussianInputs:
    raw = _require_mapping(raw, path)
    keys = {"number_density", "dipole_moment", "angular_frequency"}
    _reject_unknown(raw, keys, path)
    missing = sorted(keys - set(raw))
    if missing:
        raise ConfigError(f"{path}.{missing[0]}: required key missing")
    return _rebuild(
        GaussianInputs, path,
        number_density=_real(raw["number_density"], f"{path}.number_density"),
        dipole_moment=_real(raw["dipole_moment"], f"{path}.dipole_moment"),
        angular_frequency=_real(raw["angular_frequency"],
                                f"{path}.angular_frequency"),
    )


def parse_scenario(raw: dict, source: str = "scenario") -> ScenarioConfig:
    """Validate a scenario dictionary into a ScenarioConfig.

    Every module-level invariant is re-checked by constructing the
    domain dataclasses; any violation is reported as ConfigError with
    the field path (e.g. "scenario.host.eps_b: ...").
    """
    raw = _require_mapping(raw, source)
    _reject_unknown(raw, {"model", "emitter", "host", "ell", "drive",
                          "initial", "integration", "fit", "output",
                          "gaussian_units"}, source)

    for key in ("model", "emitter", "initial", "integration"):
        if key not in raw:
            raise ConfigError(f"{source}.{key}: required key missing")
    model = _string(raw["model"], f"{source}.model")
    if model not in MODELS:
        raise ConfigError(f"{source}.model: expected one of "
                          f"{', '.join(MODELS)}, got {model!r}")

    # optional Gaussian-units section: derive scaled rates at load
    gaussian_emitter = gaussian_host = None
    if "gaussian_units" in raw:
        g = _require_mapping(raw["gaussian_units"],
                             f"{source}.gaussian_units")
        _reject_unknown(g, {"emitter", "host"}, f"{source}.gaussian_units")
        if "emitter" in g:
            gaussian_emitter = _parse_gaussian(
                g["emitter"], f"{source}.gaussian_units.emitter")
        if "host" in g:
            gaussian_host = _parse_gaussian(
                g["host"], f"{source}.gaussian_units.host")
        if gaussian_emitter is None and gaussian_host is not None:
            raise ConfigError(
                f"{source}.gaussian_units.host: requires the "
                f"gaussian_units.emitter section (the emitter's radiative "
                f"rate sets the time unit)"
            )

    # emitter
    em_raw = _require_mapping(raw["emitter"], f"{source}.emitter")
    _reject_unknown(em_raw, {"delta_a", "eps_a", "gamma_a"},
                    f"{source}.emitter")
    em_kwargs = {}
    for key in ("delta_a", "eps_a", "gamma_a"):
        if key in em_raw:
            em_kwargs[key] = _real(em_raw[key], f"{source}.emitter.{key}")
    if gaussian_emitter is not None:
        for key in ("eps_a", "gamma_a"):
            if key in em_kwargs:
                raise ConfigError(
                    f"{source}.emitter.{key}: already derived from "
                    f"gaussian_units.emitter; remove one of the two"
                )
        gamma_phys = radiative_rate(gaussian_emitter)
        if gamma_phys <= 0.0:
            raise ConfigError(
                f"{source}.gaussian_units.emitter: radiative rate is zero "
                f"(dipole_moment must be positive to set the time unit)"
            )
        em_kwargs["eps_a"] = ndd_strength(gaussian_emitter) / gamma_phys
        em_kwargs["gamma_a"] = 1.0
    drive = _parse_drive(raw.get("drive", {}), f"{source}.drive")
    emitter = _rebuild(EmitterParams, f"{source}.emitter",
                       drive=drive, **em_kwargs)

    # host and/or ell
    host = None
    if "host" in raw:
        host_raw = _require_mapping(raw["host"], f"{source}.host")
        _reject_unknown(host_raw, {"delta_b", "eps_b", "gamma_b"},
                        f"{source}.host")
        host_kwargs = {}
        for key in ("delta_b", "eps_b", "gamma_b"):
            if key in host_raw:
                host_kwargs[key] = _real(host_raw[key],
                                         f"{source}.host.{key}")
        if gaussian_host is not None:
            for key in ("eps_b", "gamma_b"):
                if key in host_kwargs:
                    raise ConfigError(
                        f"{source}.host.{key}: already derived from "
                        f"gaussian_units.host; remove one of the two"
                    )
            gamma_phys = radiative_rate(gaussian_emitter)
            host_kwargs["eps_b"] = ndd_strength(gaussian_host) / gamma_phys
            host_kwargs["gamma_b"] = (radiative_rate(gaussian_host)
                                      / gamma_phys)
        missing = sorted({"delta_b", "eps_b", "gamma_b"}
                         - set(host_kwargs))
        if missing:
            raise ConfigError(f"{source}.host.{missing[0]}: "
                              f"required key missing")
        host = _rebuild(HostSpecies, f"{source}.host", **host_kwargs)
    elif gaussian_host is not None:
        raise ConfigError(f"{source}.gaussian_units.host: requires a host "
                          f"section carrying delta_b")

    ell = None
    if "ell" in raw:
        ell = _complex(raw["ell"], f"{source}.ell")

    if model == "A":
        if (host is None) == (ell is None):
            raise ConfigError(
                f"{source}: model A needs exactly one of 'ell' or 'host' "
                f"(got {'both' if host is not None else 'neither'})"
            )
    else:
        if host is None:
            raise ConfigError(f"{source}.host: required for model {model}")
        if ell is not None:
            raise ConfigError(
                f"{source}.ell: forbidden for model {model}; the factor "
                f"is computed from the host"
            )

    # initial state
    init_raw = _require_mapping(raw["initial"], f"{source}.initial")
    _reject_unknown(init_raw, {"s", "w", "beta"}, f"{source}.initial")
    if "w" not in init_raw:
        raise ConfigError(f"{source}.initial.w: required key missing")
    s0 = _complex(init_raw.get("s", 0.0), f"{source}.initial.s")
    w0 = _real(init_raw["w"], f"{source}.initial.w")
    beta0 = None
    if "beta" in init_raw:
        beta0 = _complex(init_raw["beta"], f"{source}.initial.beta")
    if model == "A":
        if beta0 is not None:
            raise ConfigError(f"{source}.initial.beta: forbidden for "
                              f"model A")
    elif beta0 is None:
        beta0 = 0j
    initial = SystemState(s=s0, w=w0, beta=beta0)

    # integration
    path = f"{source}.integration"
    integ_raw = _require_mapping(raw["integration"], path)
    _reject_unknown(integ_raw, {"span", "tol", "points"}, path)
    if "span" not in integ_raw:
        raise ConfigError(f"{path}.span: required key missing")
    integ_kwargs = {}
    for key, read in (("span", _real), ("tol", _real), ("points", _integer)):
        if key in integ_raw:
            integ_kwargs[key] = read(integ_raw[key], f"{path}.{key}")
    integration = _rebuild(IntegrationSpec, path, **integ_kwargs)

    # fit
    fit_kwargs = {}
    if "fit" in raw:
        fit_raw = _require_mapping(raw["fit"], f"{source}.fit")
        _reject_unknown(fit_raw, {"observable", "window"}, f"{source}.fit")
        if "observable" in fit_raw:
            obs = _string(fit_raw["observable"], f"{source}.fit.observable")
            if obs not in ("w_plus_1", "abs_s"):
                raise ConfigError(f"{source}.fit.observable: expected "
                                  f"'w_plus_1' or 'abs_s', got {obs!r}")
            fit_kwargs["observable"] = obs
        if "window" in fit_raw:
            win = fit_raw["window"]
            if (not isinstance(win, list) or len(win) != 2):
                raise ConfigError(f"{source}.fit.window: expected "
                                  f"[start, end], got {win!r}")
            a = _real(win[0], f"{source}.fit.window")
            b = _real(win[1], f"{source}.fit.window")
            if not a < b:
                raise ConfigError(f"{source}.fit.window: start must be "
                                  f"below end, got [{a!r}, {b!r}]")
            fit_kwargs["window"] = (a, b)
    fit = FitSpec(**fit_kwargs)

    # output
    out_kwargs = {}
    if "output" in raw:
        out_raw = _require_mapping(raw["output"], f"{source}.output")
        _reject_unknown(out_raw, {"trajectory"}, f"{source}.output")
        if "trajectory" in out_raw:
            out_kwargs["trajectory"] = _string(out_raw["trajectory"],
                                               f"{source}.output.trajectory")
    output = OutputSpec(**out_kwargs)

    return ScenarioConfig(model=model, emitter=emitter, host=host, ell=ell,
                          initial=initial, integration=integration,
                          fit=fit, output=output)


def load_scenario(path: str) -> ScenarioConfig:
    """Read and validate a scenario JSON file."""
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    return parse_scenario(raw, source="scenario")


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepSpec:
    """One swept parameter over explicit values with per-point overrides.

    base_raw keeps the unparsed base scenario so each point can be
    rebuilt (override-merged, value applied, revalidated) independently.
    """

    parameter: str
    values: tuple
    reduction: str
    base: ScenarioConfig
    base_raw: dict
    overrides: tuple | None

    def point_raw(self, index: int) -> dict:
        """The raw scenario dictionary for one sweep point.

        Only the dictionaries that the override and the swept field
        change are copied; the others are shared with ``base_raw`` and
        the overrides, which stay as they are.
        """
        raw = self.base_raw
        if self.overrides is not None:
            raw = _merged(raw, self.overrides[index])
        else:
            raw = dict(raw)
        value = self.values[index]
        if self.parameter == "ell":
            raw["ell"] = [value.real, value.imag] \
                if isinstance(value, complex) else value
        else:
            section, field = self.parameter.split(".", 1)
            # an override that makes the section no object leaves it for
            # parse_scenario to reject
            if isinstance(raw[section], dict):
                raw[section] = {**raw[section], field: value}
        return raw


def _merged(target: dict, patch: dict) -> dict:
    """target with patch merged into it, key by key down every level
    where both hold a dictionary; neither is changed."""
    out = dict(target)
    for key, value in patch.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merged(out[key], value)
        else:
            out[key] = value
    return out


def _validate_parameter_path(parameter: str, base_raw: dict,
                             source: str) -> None:
    if parameter == "ell":
        return
    parts = parameter.split(".")
    if len(parts) != 2 or parts[0] not in _SWEPT_FIELDS \
            or parts[1] not in _SWEPT_FIELDS[parts[0]]:
        known = ["ell"] + [f"{sec}.{field}"
                           for sec, fields in sorted(_SWEPT_FIELDS.items())
                           for field in sorted(fields)]
        raise ConfigError(
            f"{source}.parameter: {parameter!r} does not name a swept "
            f"field (known: {', '.join(known)})"
        )
    if parts[0] not in base_raw:
        raise ConfigError(
            f"{source}.parameter: section {parts[0]!r} is not present in "
            f"the base scenario"
        )


def parse_sweep(raw: dict, source: str = "sweep") -> SweepSpec:
    """Validate a sweep dictionary into a SweepSpec."""
    raw = _require_mapping(raw, source)
    _reject_unknown(raw, {"parameter", "values", "range", "reduction",
                          "base", "overrides"}, source)
    for key in ("parameter", "base"):
        if key not in raw:
            raise ConfigError(f"{source}.{key}: required key missing")

    parameter = _string(raw["parameter"], f"{source}.parameter")
    reduction = _string(raw.get("reduction", REDUCTIONS[0]),
                        f"{source}.reduction")
    if reduction not in REDUCTIONS:
        raise ConfigError(f"{source}.reduction: expected one of "
                          f"{', '.join(REDUCTIONS)}, got {reduction!r}")

    if ("values" in raw) == ("range" in raw):
        raise ConfigError(f"{source}: exactly one of 'values' or 'range' "
                          f"is required")
    if "values" in raw:
        seq = raw["values"]
        if not isinstance(seq, list) or not seq:
            raise ConfigError(f"{source}.values: expected a non-empty "
                              f"list, got {seq!r}")
        read = (_complex if parameter == "ell"
                else _integer if parameter == "integration.points"
                else _real)
        values = tuple(read(v, f"{source}.values[{i}]")
                       for i, v in enumerate(seq))
    else:
        rng = _require_mapping(raw["range"], f"{source}.range")
        _reject_unknown(rng, {"start", "stop", "count"}, f"{source}.range")
        for key in ("start", "stop", "count"):
            if key not in rng:
                raise ConfigError(f"{source}.range.{key}: required key "
                                  f"missing")
        count = _integer(rng["count"], f"{source}.range.count")
        if count < 1:
            raise ConfigError(f"{source}.range.count: must be >= 1, "
                              f"got {count}")
        values = tuple(np.linspace(_real(rng["start"], f"{source}.range"),
                                   _real(rng["stop"], f"{source}.range"),
                                   count).tolist())
        if parameter == "integration.points":
            # whole grid sizes become ints; any other value fails per point
            values = tuple(int(v) if v.is_integer() else v for v in values)

    base_raw = _require_mapping(raw["base"], f"{source}.base")
    base = parse_scenario(base_raw, source=f"{source}.base")
    _validate_parameter_path(parameter, base_raw, source)

    overrides = None
    if "overrides" in raw:
        ov = raw["overrides"]
        if not isinstance(ov, list):
            raise ConfigError(f"{source}.overrides: expected a list, "
                              f"got {ov!r}")
        if len(ov) != len(values):
            raise ConfigError(
                f"{source}.overrides: length {len(ov)} does not match "
                f"{len(values)} sweep values"
            )
        overrides = tuple(_require_mapping(o, f"{source}.overrides[{i}]")
                          for i, o in enumerate(ov))

    expected_model = "A" if reduction == "population_rate_model_a" else "B"
    if base.model != expected_model:
        raise ConfigError(
            f"{source}.base.model: reduction {reduction!r} requires model "
            f"{expected_model!r}, got {base.model!r}"
        )

    return SweepSpec(parameter=parameter, values=values, reduction=reduction,
                     base=base, base_raw=copy.deepcopy(base_raw),
                     overrides=overrides)


def load_sweep(path: str) -> SweepSpec:
    """Read and validate a sweep JSON file."""
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    return parse_sweep(raw, source="sweep")
