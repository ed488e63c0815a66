"""Scenario and sweep files: strict JSON with field-path diagnostics.

README ("Scenario files") gives both formats.  Every error is a
ConfigError whose message names the offending field path, such as
"scenario.host.eps_b: ...".  ``_TABLE`` is the one list of the keys of
both files: the object, unknown-key, missing-key and type checks of
every section, and the fields that a sweep may vary, all come from it.
The rules that tie fields together are code in ``parse_scenario`` and
``parse_sweep``.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from lfbloch.dynamics import (DriveEnvelope, EmitterParams, IntegrationSpec,
                              SystemState)
from lfbloch.medium import (GaussianInputs, HostSpecies, local_field_factor,
                            ndd_strength, radiative_rate)

__all__ = ["ConfigError", "FitSpec", "OutputSpec", "ScenarioConfig",
           "SweepSpec", "load_scenario", "load_sweep", "parse_scenario",
           "parse_sweep"]

# each reduction of a sweep: the model of its base scenario, and the
# fields (sections, or section.key) that its run sets itself
REDUCTIONS = {
    "population_rate_model_a": ("A", "drive initial integration.span"),
    "coherence_rate_model_b": ("B", "drive initial integration.span "
                                    "integration.points")}


class ConfigError(ValueError):
    """A scenario or sweep file failed validation; the message names the
    offending field path."""


def _mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object, got "
                          f"{type(value).__name__}")
    return value


def _typed(types, noun: str, convert=None):
    """The reader of a value of one of types (a bool is of none)."""
    def read(value, path: str):
        if isinstance(value, bool) or not isinstance(value, types):
            raise ConfigError(f"{path}: expected {noun}, got {value!r}")
        return value if convert is None else convert(value)
    return read


_real = _typed((int, float), "a number", float)
_integer = _typed(int, "an integer")
_string = _typed(str, "a string")


def _complex(value, path: str) -> complex:
    pair = value if isinstance(value, list) and len(value) == 2 else [value, 0]
    try:
        return complex(_real(pair[0], path), _real(pair[1], path))
    except ConfigError:
        raise ConfigError(f"{path}: expected a number or [re, im] pair, "
                          f"got {value!r}") from None


def _one_of(*options: str, expected: str = ""):
    """The reader of a string that must be one of options."""
    expected = expected or "one of " + ", ".join(options)

    def read(value, path: str) -> str:
        if value not in options:
            _string(value, path)
            raise ConfigError(f"{path}: expected {expected}, got {value!r}")
        return value
    return read


def _window(value, path: str) -> tuple[float, float]:
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(f"{path}: expected [start, end], got {value!r}")
    start, end = _real(value[0], path), _real(value[1], path)
    if not start < end:
        raise ConfigError(f"{path}: start must be below end, "
                          f"got [{start!r}, {end!r}]")
    if not (math.isfinite(start) and math.isfinite(end)):
        raise ConfigError(f"{path}: bounds must be finite, "
                          f"got [{start!r}, {end!r}]")
    return start, end


def _gaussian(value, path: str) -> GaussianInputs:
    # of several missing keys, the first in alphabetical order is named
    return _rebuild(GaussianInputs, path,
                    **_section(value, "gaussian", path, missing=min))


def _rebuild(factory, path: str, /, **kwargs):
    """Construct a domain dataclass, rewriting its ValueError with path."""
    try:
        return factory(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


# Every key of both files: rows of (section, keys, reader, required,
# sweep).  A reader takes a JSON value and its field path; None leaves
# the value to the section's code.  sweep reads the values of a sweep
# over the key (None: not sweepable).  A section reads its keys, and
# checks that the required ones are present, in the order listed.
_TABLE = (
    ("scenario", "model", _one_of("A", "B", "both"), True, None),
    ("scenario", "emitter initial integration", None, True, None),
    ("scenario", "gaussian_units drive host", None, False, None),
    ("scenario", "ell", None, False, _complex),
    ("scenario", "fit output", None, False, None),
    ("gaussian_units", "emitter host", _gaussian, False, None),
    ("gaussian", "number_density dipole_moment angular_frequency", _real,
     True, None),
    ("emitter", "delta_a eps_a gamma_a", _real, False, _real),
    ("drive", "kind", _string, False, None),
    # a sweep over a complex field other than ell takes real values
    ("drive", "amplitude", _complex, False, _real),
    ("drive", "t_on t_off", _real, False, _real),
    ("host", "delta_b eps_b gamma_b", _real, True, _real),
    ("initial", "s", _complex, False, _real),
    ("initial", "w", _real, True, _real),
    ("initial", "beta", _complex, False, _real),
    ("integration", "span", _real, True, _real),
    ("integration", "tol", _real, False, _real),
    ("integration", "points", _integer, False, _integer),
    ("fit", "observable",
     _one_of("w_plus_1", "abs_s", expected="'w_plus_1' or 'abs_s'"),
     False, None),
    ("fit", "window", _window, False, None),
    ("output", "trajectory", _string, False, None),
    ("sweep", "parameter", _string, True, None),
    ("sweep", "values range", None, False, None),
    ("sweep", "reduction", _one_of(*REDUCTIONS), False, None),
    ("sweep", "base", None, True, None),
    ("sweep", "overrides", None, False, None),
    # start and stop are read after count, under the range's own path
    ("range", "start stop", None, True, None),
    ("range", "count", _integer, True, None),
)


def _sections(table) -> dict[str, tuple[set, dict, list]]:
    """Each section of table as its keys, its required keys (a dict, in
    order) and the (key, reader) pairs of its keys that have a reader."""
    sections: dict[str, tuple[set, dict, list]] = {}
    for section, keys, read, required, _ in table:
        known, needed, reads = sections.setdefault(section, (set(), {}, []))
        for key in keys.split():
            known.add(key)
            if required:
                needed[key] = None
            if read is not None:
                reads.append((key, read))
    return sections


_SECTIONS = _sections(_TABLE)
# the reader of each sweepable field's values, by its name in a sweep
_SWEPT = {key if section == "scenario" else f"{section}.{key}": sweep
          for section, keys, _, _, sweep in _TABLE if sweep is not None
          for key in keys.split()}


def _require(present, section: str, path: str, missing=itemgetter(0)):
    """Reject the required keys of section that present lacks, naming the
    one that missing picks from them (by default the first)."""
    absent = [key for key in _SECTIONS[section][1] if key not in present]
    if absent:
        raise ConfigError(f"{path}.{missing(absent)}: required key missing")


def _section(raw, section: str, path: str, missing=itemgetter(0)) -> dict:
    """The values of a section's keys that have a reader, read in order,
    after the checks that every section shares, in this order: an object,
    no unknown key, no required key missing (None: not checked here)."""
    known, required, reads = _SECTIONS[section]
    if not known.issuperset(_mapping(raw, path)):
        raise ConfigError(f"{path}.{min(set(raw) - known)}: unknown key "
                          f"(allowed: {', '.join(sorted(known))})")
    if missing is not None and not raw.keys() >= required.keys():
        _require(raw, section, path, missing)
    values = {}
    for key, read in reads:
        if key in raw:
            values[key] = read(raw[key], f"{path}.{key}")
    return values


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
    """One validated simulation scenario.  host and ell are exclusive
    handles on the medium: model "A" takes either, "B" and "both" the host.
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


def parse_scenario(raw: dict, source: str = "scenario") -> ScenarioConfig:
    """Validate a scenario dictionary into a ScenarioConfig; the domain
    dataclasses re-check their invariants, reported with the path."""
    model = _section(raw, "scenario", source)["model"]

    def part(key: str) -> dict:
        return _section(raw[key], key, f"{source}.{key}")

    def reject_written(values: dict, keys, origin: str) -> None:
        for key in keys:
            if key in values:
                raise ConfigError(f"{source}.{origin}.{key}: already derived "
                                  f"from gaussian_units.{origin}; remove one "
                                  f"of the two")

    # optional Gaussian-units section: derive scaled rates at load
    gaussian = part("gaussian_units") if "gaussian_units" in raw else {}
    if "host" in gaussian and "emitter" not in gaussian:
        raise ConfigError(f"{source}.gaussian_units.host: requires the "
                          f"gaussian_units.emitter section (the emitter's "
                          f"radiative rate sets the time unit)")
    emitter = part("emitter")
    if "emitter" in gaussian:
        reject_written(emitter, ("eps_a", "gamma_a"), "emitter")
        gamma_phys = radiative_rate(gaussian["emitter"])
        if gamma_phys <= 0.0:
            raise ConfigError(f"{source}.gaussian_units.emitter: radiative "
                              f"rate is zero (dipole_moment must be "
                              f"positive to set the time unit)")
        emitter["eps_a"] = ndd_strength(gaussian["emitter"]) / gamma_phys
        emitter["gamma_a"] = 1.0
    drive = _rebuild(DriveEnvelope, f"{source}.drive", **part("drive")) \
        if "drive" in raw else DriveEnvelope()
    emitter = _rebuild(EmitterParams, f"{source}.emitter", drive=drive,
                       **emitter)

    # the host's keys are required once the gaussian units derived theirs
    host = None
    if "host" in raw:
        path = f"{source}.host"
        values = _section(raw["host"], "host", path, missing=None)
        if "host" in gaussian:
            reject_written(values, ("eps_b", "gamma_b"), "host")
            # gamma_phys is the emitter's rate, which this section requires
            values["eps_b"] = ndd_strength(gaussian["host"]) / gamma_phys
            values["gamma_b"] = radiative_rate(gaussian["host"]) / gamma_phys
        _require(values, "host", path)
        host = _rebuild(HostSpecies, path, **values)
    elif "host" in gaussian:
        raise ConfigError(f"{source}.gaussian_units.host: requires a host "
                          f"section carrying delta_b")

    ell = _complex(raw["ell"], f"{source}.ell") if "ell" in raw else None
    if model == "A":
        if (host is None) == (ell is None):
            raise ConfigError(f"{source}: model A needs exactly one of "
                              f"'ell' or 'host' (got "
                              f"{'both' if host is not None else 'neither'})")
    elif host is None:
        raise ConfigError(f"{source}.host: required for model {model}")
    elif ell is not None:
        raise ConfigError(f"{source}.ell: forbidden for model {model}; the "
                          f"factor is computed from the host")

    values = part("initial")
    if model == "A" and "beta" in values:
        raise ConfigError(f"{source}.initial.beta: forbidden for model A")
    beta = values.get("beta", None if model == "A" else 0j)
    initial = _rebuild(SystemState, f"{source}.initial",
                       s=values.get("s", 0j), w=values["w"], beta=beta)
    integration = _rebuild(IntegrationSpec, f"{source}.integration",
                           **part("integration"))
    fit = FitSpec(**part("fit")) if "fit" in raw else FitSpec()
    output = OutputSpec(**part("output")) if "output" in raw else OutputSpec()
    return ScenarioConfig(model=model, emitter=emitter, host=host, ell=ell,
                          initial=initial, integration=integration,
                          fit=fit, output=output)


@dataclass(frozen=True)
class SweepSpec:
    """One swept parameter over explicit values with per-point overrides;
    base_raw keeps the unparsed base scenario, from which each point is
    rebuilt (override merged, value applied) and parsed on its own
    (``parse_sweep`` parses the base once, to validate it)."""

    parameter: str
    values: tuple
    reduction: str
    base_raw: dict
    overrides: tuple | None

    def point_raw(self, index: int) -> dict:
        """The raw scenario dictionary for one sweep point.  Only the
        dictionaries that the override and the swept value change are
        copied; ``base_raw`` and the overrides stay as they are."""
        raw = _merged(self.base_raw,
                      self.overrides[index] if self.overrides else {})
        value = self.values[index]
        if isinstance(value, complex):
            value = [value.real, value.imag]
        section, _, key = self.parameter.rpartition(".")
        if not section:
            raw[key] = value
        # a section that an override made no object is left to the parse
        elif isinstance(raw[section], dict):
            raw[section] = {**raw[section], key: value}
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


def parse_sweep(raw: dict, source: str = "sweep") -> SweepSpec:
    """Validate a sweep dictionary into a SweepSpec."""
    fields = _section(raw, "sweep", source)
    parameter = fields["parameter"]
    reduction = fields.get("reduction", "population_rate_model_a")
    if ("values" in raw) == ("range" in raw):
        raise ConfigError(f"{source}: exactly one of 'values' or 'range' "
                          f"is required")
    # the base parses before an unknown parameter, whose values are reals
    read = _SWEPT.get(parameter, _real)
    if "values" in raw:
        values = raw["values"]
        if not isinstance(values, list) or not values:
            raise ConfigError(f"{source}.values: expected a non-empty "
                              f"list, got {values!r}")
        values = tuple(read(v, f"{source}.values[{i}]")
                       for i, v in enumerate(values))
    else:
        path = f"{source}.range"
        count = _section(raw["range"], "range", path)["count"]
        if count < 1:
            raise ConfigError(f"{path}.count: must be >= 1, got {count}")
        try:
            values = tuple(np.linspace(_real(raw["range"]["start"], path),
                                       _real(raw["range"]["stop"], path),
                                       count).tolist())
        except MemoryError:
            raise ConfigError(f"{path}.count: {count} values do not fit "
                              f"in memory") from None
        if read is _integer:
            # whole grid sizes become ints; any other value fails per point
            values = tuple(int(v) if v.is_integer() else v for v in values)

    base = parse_scenario(raw["base"], source=f"{source}.base")
    if parameter not in _SWEPT:
        known = sorted(_SWEPT, key=lambda name: ("." in name, name))
        raise ConfigError(f"{source}.parameter: {parameter!r} does not name "
                          f"a swept field (known: {', '.join(known)})")
    # an override only merges keys, so no point can add what the base
    # lacks: the swept field's section, or ell itself (which a model-A
    # base with a host, or any model-B base, does not hold)
    section = parameter.rpartition(".")[0]
    if (section or parameter) not in raw["base"]:
        what = f"section {section!r}" if section else repr(parameter)
        raise ConfigError(f"{source}.parameter: {what} is not present in "
                          f"the base scenario")

    overrides = None
    if "overrides" in raw:
        overrides = raw["overrides"]
        if not isinstance(overrides, list):
            raise ConfigError(f"{source}.overrides: expected a list, "
                              f"got {overrides!r}")
        if len(overrides) != len(values):
            raise ConfigError(f"{source}.overrides: length "
                              f"{len(overrides)} does not match "
                              f"{len(values)} sweep values")
        overrides = tuple(_mapping(o, f"{source}.overrides[{i}]")
                          for i, o in enumerate(overrides))

    model, fixed = REDUCTIONS[reduction]
    if base.model != model:
        raise ConfigError(f"{source}.base.model: reduction {reduction!r} "
                          f"requires model {model!r}, got {base.model!r}")
    sets = f"(it sets {fixed.replace(' ', ', ')})"
    if not {parameter, section}.isdisjoint(fixed.split()):
        raise ConfigError(f"{source}.parameter: reduction {reduction!r} sets "
                          f"{parameter!r} itself, so a sweep over it varies "
                          f"nothing {sets}")
    # nor may an override set them, or another model: the reduction
    # would ignore it.  A section that an override makes no object is
    # left to the point's parse
    for i, override in enumerate(overrides or ()):
        path = f"{source}.overrides[{i}]"
        if override.get("model", model) != model:
            raise ConfigError(f"{path}.model: reduction {reduction!r} "
                              f"requires model {model!r}, got "
                              f"{override['model']!r}")
        for name, value in override.items():
            for key in value if isinstance(value, dict) else ():
                if not {name, f"{name}.{key}"}.isdisjoint(fixed.split()):
                    raise ConfigError(
                        f"{path}.{name}.{key}: reduction {reduction!r} sets "
                        f"'{name}.{key}' itself, so an override of it "
                        f"changes nothing {sets}")
    return SweepSpec(parameter=parameter, values=values, reduction=reduction,
                     base_raw=copy.deepcopy(raw["base"]), overrides=overrides)


def _load(path: str, parse, source: str):
    """Read the file at path as strict JSON, without the NaN and Infinity
    that Python's json accepts, numbers past the float range or a key
    repeated in an object (json keeps the last), and validate it with
    parse."""
    def not_json(token: str):
        raise ValueError(f"{token} is not a JSON value")

    def unique(pairs: list) -> dict:
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ValueError(f"duplicate key {key!r}")
            obj[key] = value
        return obj

    def finite(number):
        def read(token: str):
            if not math.isfinite(float(token)):  # inf past the float range
                raise ValueError(f"{token} is outside the float range")
            return number(token)
        return read

    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh, object_pairs_hook=unique,
                            parse_constant=not_json,
                            parse_float=finite(float), parse_int=finite(int))
        except ValueError as exc:  # also text that is not UTF-8
            raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    return parse(raw, source=source)


def load_scenario(path: str) -> ScenarioConfig:
    """Read and validate a scenario JSON file."""
    return _load(path, parse_scenario, "scenario")


def load_sweep(path: str) -> SweepSpec:
    """Read and validate a sweep JSON file."""
    return _load(path, parse_sweep, "sweep")
