"""Tests for scenario/sweep file parsing and validation."""

import copy
import json
import math

import pytest

from lfbloch.config import (
    ConfigError,
    ScenarioConfig,
    load_scenario,
    load_sweep,
    parse_scenario,
    parse_sweep,
)
from lfbloch.medium import GaussianInputs, ndd_strength, radiative_rate


def decay_scenario() -> dict:
    return {
        "model": "A",
        "emitter": {"delta_a": 0.0, "eps_a": 0.0, "gamma_a": 1.0},
        "ell": [1.4, 0.0],
        "initial": {"s": [0.0, 0.0], "w": 1.0},
        "integration": {"span": 6.0, "tol": 1e-10, "points": 1201},
    }


def microscopic_scenario() -> dict:
    return {
        "model": "B",
        "emitter": {"delta_a": 0.0, "eps_a": 0.0, "gamma_a": 1.0},
        "host": {"delta_b": 10.0, "eps_b": 10.0, "gamma_b": 4.0},
        "drive": {"kind": "pulse", "amplitude": [0.5, 0.1], "t_on": 1.0,
                  "t_off": 4.0},
        "initial": {"s": [1e-3, 0.0], "w": -0.999998, "beta": [0.0, 0.0]},
        "integration": {"span": 9.0},
        "fit": {"observable": "abs_s", "window": [2.7, 8.0]},
        "output": {"trajectory": "weak.csv"},
    }


class TestScenarioParsing:
    def test_effective_model_parses(self):
        cfg = parse_scenario(decay_scenario())
        assert cfg.model == "A"
        assert cfg.ell == 1.4 + 0j
        assert cfg.host is None
        assert cfg.initial.beta is None

    def test_microscopic_model_parses(self):
        cfg = parse_scenario(microscopic_scenario())
        assert cfg.model == "B"
        assert cfg.host.eps_b == 10.0
        assert cfg.emitter.drive.kind == "pulse"
        assert cfg.initial.beta == 0j
        assert cfg.fit.observable == "abs_s"
        assert cfg.fit.window == (2.7, 8.0)
        assert cfg.output.trajectory == "weak.csv"

    def test_resolved_ell(self):
        assert parse_scenario(decay_scenario()).resolved_ell() == 1.4 + 0j
        cfg = parse_scenario(microscopic_scenario())
        ell = cfg.resolved_ell()
        assert ell == pytest.approx(1.495049504950495 - 0.04950495049504951j)

    def test_scalar_and_pair_complex_forms(self):
        raw = decay_scenario()
        raw["initial"]["s"] = 0.25
        raw["ell"] = 1.4
        cfg = parse_scenario(raw)
        assert cfg.initial.s == 0.25 + 0j
        assert cfg.ell == 1.4 + 0j
        raw["initial"]["s"] = [0.1, -0.2]
        assert parse_scenario(raw).initial.s == 0.1 - 0.2j

    def test_unknown_keys_rejected_with_path(self):
        cases = [
            ({"bogus": 1}, "scenario.bogus"),
            ({"emitter": {"delta_a": 0.0, "rabi": 2.0}}, "emitter.rabi"),
            ({"drive": {"kind": "off", "shape": "box"}}, "drive.shape"),
            ({"initial": {"w": 1.0, "extra": 0}}, "initial.extra"),
            ({"integration": {"span": 1.0, "dt": 0.1}}, "integration.dt"),
            ({"fit": {"smoothing": 3}}, "fit.smoothing"),
            ({"output": {"plot": "x.png"}}, "output.plot"),
        ]
        for patch, needle in cases:
            raw = decay_scenario()
            raw.update(patch)
            with pytest.raises(ConfigError, match=needle.replace(".", "\\.")):
                parse_scenario(raw)

    def test_missing_required_keys(self):
        for key in ("model", "emitter", "initial", "integration"):
            raw = decay_scenario()
            del raw[key]
            with pytest.raises(ConfigError, match=key):
                parse_scenario(raw)

    def test_model_a_needs_exactly_one_medium_handle(self):
        raw = decay_scenario()
        raw["host"] = {"delta_b": 10.0, "eps_b": 10.0, "gamma_b": 4.0}
        with pytest.raises(ConfigError, match="exactly one"):
            parse_scenario(raw)
        del raw["host"]
        del raw["ell"]
        with pytest.raises(ConfigError, match="exactly one"):
            parse_scenario(raw)

    def test_model_b_needs_host_and_rejects_ell(self):
        raw = microscopic_scenario()
        del raw["host"]
        with pytest.raises(ConfigError, match="host"):
            parse_scenario(raw)
        raw = microscopic_scenario()
        raw["ell"] = [1.4, 0.0]
        with pytest.raises(ConfigError, match="ell"):
            parse_scenario(raw)

    def test_beta_rules_per_model(self):
        raw = decay_scenario()
        raw["initial"]["beta"] = [0.0, 0.0]
        with pytest.raises(ConfigError, match="beta"):
            parse_scenario(raw)
        raw = microscopic_scenario()
        del raw["initial"]["beta"]
        assert parse_scenario(raw).initial.beta == 0j

    def test_domain_invariants_rechecked_with_path(self):
        raw = decay_scenario()
        raw["emitter"]["gamma_a"] = -1.0
        with pytest.raises(ConfigError, match="scenario.emitter"):
            parse_scenario(raw)
        raw = microscopic_scenario()
        raw["host"]["eps_b"] = -5.0
        with pytest.raises(ConfigError, match="scenario.host"):
            parse_scenario(raw)
        raw = decay_scenario()
        raw["ell"] = [-1.0, 0.0]
        raw["model"] = "A"
        # Re(ell) <= 0 is caught when the CLI builds EffectiveParams,
        # not at config time (model B sweeps may pass through it)
        parse_scenario(raw)

    def test_integration_bounds(self):
        for patch, needle in [
            ({"span": -1.0}, "span"),
            ({"span": 1.0, "tol": 1e-3}, "tol"),
            ({"span": 1.0, "tol": 1e-13}, "tol"),
            ({"span": 1.0, "points": 1}, "points"),
        ]:
            raw = decay_scenario()
            raw["integration"] = patch
            with pytest.raises(ConfigError, match=needle):
                parse_scenario(raw)

    def test_fit_window_ordering(self):
        raw = decay_scenario()
        raw["fit"] = {"window": [3.0, 1.0]}
        with pytest.raises(ConfigError, match="window"):
            parse_scenario(raw)

    def test_non_numeric_field_rejected(self):
        raw = decay_scenario()
        raw["emitter"]["delta_a"] = "fast"
        with pytest.raises(ConfigError, match="delta_a"):
            parse_scenario(raw)

    def test_unknown_model_rejected(self):
        raw = decay_scenario()
        raw["model"] = "C"
        with pytest.raises(ConfigError, match="model"):
            parse_scenario(raw)


class TestGaussianUnits:
    EMITTER_G = {"number_density": 1e18, "dipole_moment": 1e-18,
                 "angular_frequency": 2.5e15}
    HOST_G = {"number_density": 5e18, "dipole_moment": 2e-18,
              "angular_frequency": 2.5e15}

    def gaussian_scenario(self) -> dict:
        return {
            "model": "B",
            "emitter": {"delta_a": 0.0},
            "host": {"delta_b": 10.0},
            "gaussian_units": {"emitter": self.EMITTER_G,
                               "host": self.HOST_G},
            "initial": {"s": [1e-3, 0.0], "w": -0.999998, "beta": [0.0, 0.0]},
            "integration": {"span": 9.0},
        }

    def test_rates_derived_and_rescaled(self):
        cfg = parse_scenario(self.gaussian_scenario())
        g_em = GaussianInputs(**self.EMITTER_G)
        g_host = GaussianInputs(**self.HOST_G)
        gamma_phys = radiative_rate(g_em)
        assert cfg.emitter.gamma_a == 1.0
        assert cfg.emitter.eps_a == ndd_strength(g_em) / gamma_phys
        assert cfg.host.eps_b == ndd_strength(g_host) / gamma_phys
        assert cfg.host.gamma_b == radiative_rate(g_host) / gamma_phys
        assert cfg.host.delta_b == 10.0

    def test_conflicting_scaled_fields_rejected(self):
        raw = self.gaussian_scenario()
        raw["emitter"]["eps_a"] = 3.0
        with pytest.raises(ConfigError, match="eps_a"):
            parse_scenario(raw)
        raw = self.gaussian_scenario()
        raw["host"]["gamma_b"] = 4.0
        with pytest.raises(ConfigError, match="gamma_b"):
            parse_scenario(raw)

    def test_host_conversion_requires_emitter_section(self):
        raw = self.gaussian_scenario()
        del raw["gaussian_units"]["emitter"]
        with pytest.raises(ConfigError, match="emitter"):
            parse_scenario(raw)

    def test_gaussian_host_requires_host_section(self):
        raw = self.gaussian_scenario()
        del raw["host"]
        raw["model"] = "A"
        raw["ell"] = [1.4, 0.0]
        with pytest.raises(ConfigError, match="host"):
            parse_scenario(raw)


class TestScenarioFiles:
    def test_load_scenario(self, tmp_path):
        path = tmp_path / "decay.json"
        path.write_text(json.dumps(decay_scenario()))
        cfg = load_scenario(str(path))
        assert isinstance(cfg, ScenarioConfig)
        assert cfg.integration.span == 6.0

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_scenario(str(path))


def eps_b_sweep() -> dict:
    return {
        "parameter": "host.eps_b",
        "values": [0.0, 5.0, 10.0],
        "reduction": "population_rate_model_a",
        "base": {
            "model": "A",
            "emitter": {"delta_a": 0.0, "eps_a": 0.0, "gamma_a": 1.0},
            "host": {"delta_b": 20.0, "eps_b": 0.0, "gamma_b": 4.0},
            "initial": {"s": [0.0, 0.0], "w": 1.0},
            "integration": {"span": 8.0, "tol": 1e-10, "points": 1601},
        },
        "overrides": [
            {"host": {"delta_b": 20.0}},
            {"host": {"delta_b": 15.0}},
            {"host": {"delta_b": 10.0}},
        ],
    }


class TestSweepParsing:
    def test_sweep_points_apply_value_and_override(self):
        spec = parse_sweep(eps_b_sweep())
        assert spec.values == (0.0, 5.0, 10.0)
        point = spec.point_raw(1)
        assert point["host"] == {"delta_b": 15.0, "eps_b": 5.0,
                                 "gamma_b": 4.0}
        for i in range(3):
            cfg = parse_scenario(spec.point_raw(i))
            assert cfg.host.eps_b == spec.values[i]

    def test_swept_value_wins_over_override(self):
        raw = eps_b_sweep()
        raw["overrides"][1]["host"]["eps_b"] = 99.0
        spec = parse_sweep(raw)
        assert spec.point_raw(1)["host"]["eps_b"] == 5.0

    def test_range_form(self):
        raw = eps_b_sweep()
        del raw["values"]
        del raw["overrides"]
        raw["range"] = {"start": 0.0, "stop": 10.0, "count": 5}
        spec = parse_sweep(raw)
        assert spec.values == (0.0, 2.5, 5.0, 7.5, 10.0)

    def test_values_xor_range(self):
        raw = eps_b_sweep()
        raw["range"] = {"start": 0.0, "stop": 1.0, "count": 2}
        with pytest.raises(ConfigError, match="values.*range|range.*values"):
            parse_sweep(raw)
        del raw["values"]
        del raw["range"]
        del raw["overrides"]
        with pytest.raises(ConfigError):
            parse_sweep(raw)

    def test_empty_values_rejected(self):
        raw = eps_b_sweep()
        raw["values"] = []
        del raw["overrides"]
        with pytest.raises(ConfigError, match="values"):
            parse_sweep(raw)

    def test_unknown_parameter_path(self):
        raw = eps_b_sweep()
        raw["parameter"] = "host.color"
        with pytest.raises(ConfigError, match="does not name"):
            parse_sweep(raw)

    def test_parameter_section_must_exist_in_base(self):
        raw = eps_b_sweep()
        raw["parameter"] = "drive.amplitude"
        del raw["overrides"]
        with pytest.raises(ConfigError, match="not present"):
            parse_sweep(raw)

    def test_override_length_mismatch(self):
        raw = eps_b_sweep()
        raw["overrides"] = raw["overrides"][:2]
        with pytest.raises(ConfigError, match="length"):
            parse_sweep(raw)

    def test_reduction_model_compatibility(self):
        raw = eps_b_sweep()
        raw["reduction"] = "coherence_rate_model_b"
        with pytest.raises(ConfigError, match="model"):
            parse_sweep(raw)
        raw = eps_b_sweep()
        raw["reduction"] = "lineshape"
        with pytest.raises(ConfigError, match="reduction"):
            parse_sweep(raw)

    def test_ell_sweep_accepts_complex_values(self):
        raw = {
            "parameter": "ell",
            "values": [[1.0, 0.0], [1.4, -0.1]],
            "reduction": "population_rate_model_a",
            "base": decay_scenario(),
        }
        spec = parse_sweep(raw)
        assert spec.values == (1.0 + 0j, 1.4 - 0.1j)
        assert spec.point_raw(1)["ell"] == [1.4, -0.1]

    # (override of a point, its ConfigError); the point's swept value is
    # 5.0, but -3.0 for the first
    BROKEN_POINTS = [
        ({"host": {"delta_b": 20.0}},
         "point[0].host: eps_b must be >= 0, got -3.0"),
        ({"host": {"color": 1.0}},
         "point[1].host.color: unknown key (allowed: delta_b, eps_b, "
         "gamma_b)"),
        ({"host": {"delta_b": "x"}},
         "point[2].host.delta_b: expected a number, got 'x'"),
        ({"host": {"delta_b": None}},
         "point[3].host.delta_b: expected a number, got None"),
        ({"integration": 5},
         "point[4].integration: expected an object, got int"),
        ({"integration": {"points": 801.5}},
         "point[5].integration.points: expected an integer, got 801.5"),
        ({"integration": {"tol": 1.0}},
         "point[6].integration: tol must lie in [1e-12, 0.0001], got 1.0"),
        ({"integration": {"span": -1.0}},
         "point[7].integration: span must be positive and finite, "
         "got -1.0"),
        ({"colour": 1},
         "point[8].colour: unknown key (allowed: drive, ell, emitter, fit, "
         "gaussian_units, host, initial, integration, model, output)"),
        ({"ell": [1.4, 0.0]},
         "point[9]: model A needs exactly one of 'ell' or 'host' "
         "(got both)"),
        ({"emitter": {"gamma_a": -1.0}},
         "point[10].emitter: gamma_a must be >= 0, got -1.0"),
        ({"emitter": {"drive": {"kind": "pulse"}}},
         "point[11].emitter.drive: unknown key (allowed: delta_a, eps_a, "
         "gamma_a)"),
        ({"drive": {"kind": "laser"}},
         "point[12].drive: drive kind must be one of ('off', 'constant', "
         "'pulse'), got 'laser'"),
        ({"initial": {"beta": [0.0, 0.0]}},
         "point[13].initial.beta: forbidden for model A"),
        # the swept section replaced by no object (a TypeError once)
        ({"host": 5}, "point[14].host: expected an object, got int"),
        ({"host": [1.0]}, "point[15].host: expected an object, got list"),
    ]

    def test_broken_point_messages_are_pinned(self):
        raw = eps_b_sweep()
        raw["values"] = [-3.0] + [5.0] * (len(self.BROKEN_POINTS) - 1)
        raw["overrides"] = [override for override, _ in self.BROKEN_POINTS]
        spec = parse_sweep(raw)
        for i, (_, message) in enumerate(self.BROKEN_POINTS):
            with pytest.raises(ConfigError) as info:
                parse_scenario(spec.point_raw(i), source=f"point[{i}]")
            assert str(info.value) == message
        # building the points left the base and the overrides untouched
        assert spec.base_raw == eps_b_sweep()["base"]
        assert list(spec.overrides) == [o for o, _ in self.BROKEN_POINTS]

    def test_load_sweep(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(eps_b_sweep()))
        spec = load_sweep(str(path))
        assert spec.reduction == "population_rate_model_a"
        assert math.isclose(spec.base.integration.tol, 1e-10)


DROP = object()  # a key that _patched removes


def _patched(raw, patch: dict):
    """A deep copy of raw with each dotted key of patch set to its value,
    or removed where the value is DROP."""
    raw = copy.deepcopy(raw)
    for dotted, value in patch.items():
        *parents, key = dotted.split(".")
        target = raw
        for parent in parents:
            target = target[parent]
        if value is DROP:
            del target[key]
        else:
            target[key] = value
    return raw


def _ids(cases):
    return [f"{i}-" + "+".join(map(str, case[1])) for i, case in
            enumerate(cases)]


class TestMessagePins:
    """Whole ConfigError messages of a corpus of broken scenarios and
    sweeps, compared as strings.

    A case names its base ("A" decay_scenario, "B" microscopic_scenario,
    "G" the Gaussian-units scenario, "S" eps_b_sweep, "list" a JSON list
    where an object belongs) and a patch of dotted keys.  The cases with
    two faults pin the order of the checks: the message names the fault
    that the first check finds.
    """

    BASES = {
        "A": decay_scenario,
        "B": microscopic_scenario,
        "G": lambda: TestGaussianUnits().gaussian_scenario(),
        "S": lambda: eps_b_sweep(),
        "list": list,
    }

    SCENARIO = [
        ("list", {},
         "scenario: expected an object, got list"),
        ("A", {"model": 5},
         "scenario.model: expected a string, got 5"),
        ("A", {"model": "C"},
         "scenario.model: expected one of A, B, both, got 'C'"),
        ("A", {"model": DROP},
         "scenario.model: required key missing"),
        ("A", {"emitter": DROP},
         "scenario.emitter: required key missing"),
        ("A", {"initial": DROP},
         "scenario.initial: required key missing"),
        ("A", {"integration": DROP},
         "scenario.integration: required key missing"),
        ("A", {"bogus": 1},
         "scenario.bogus: unknown key (allowed: drive, ell, emitter, fit, "
         "gaussian_units, host, initial, integration, model, output)"),
        ("A", {"emitter": 5},
         "scenario.emitter: expected an object, got int"),
        ("A", {"emitter": []},
         "scenario.emitter: expected an object, got list"),
        ("B", {"host": "x"},
         "scenario.host: expected an object, got str"),
        ("A", {"ell": "x"},
         "scenario.ell: expected a number or [re, im] pair, got 'x'"),
        ("A", {"ell": [1.0]},
         "scenario.ell: expected a number or [re, im] pair, got [1.0]"),
        ("A", {"ell": [1.0, True]},
         "scenario.ell: expected a number or [re, im] pair, got [1.0, True]"),
        ("A", {"drive": 5},
         "scenario.drive: expected an object, got int"),
        ("A", {"initial": None},
         "scenario.initial: expected an object, got NoneType"),
        ("A", {"integration": 1.5},
         "scenario.integration: expected an object, got float"),
        ("A", {"fit": []},
         "scenario.fit: expected an object, got list"),
        ("A", {"output": "x"},
         "scenario.output: expected an object, got str"),
        ("A", {"gaussian_units": 1},
         "scenario.gaussian_units: expected an object, got int"),
        ("A", {"emitter.delta_a": "x"},
         "scenario.emitter.delta_a: expected a number, got 'x'"),
        ("A", {"emitter.eps_a": None},
         "scenario.emitter.eps_a: expected a number, got None"),
        ("A", {"emitter.gamma_a": True},
         "scenario.emitter.gamma_a: expected a number, got True"),
        ("A", {"emitter.rabi": 2.0},
         "scenario.emitter.rabi: unknown key (allowed: delta_a, eps_a, "
         "gamma_a)"),
        ("A", {"emitter.eps_a": -1.0},
         "scenario.emitter: eps_a must be >= 0, got -1.0"),
        ("A", {"emitter.gamma_a": -1.0},
         "scenario.emitter: gamma_a must be >= 0, got -1.0"),
        ("A", {"emitter.delta_a": math.inf},
         "scenario.emitter: delta_a must be finite, got inf"),
        ("B", {"host.delta_b": "x"},
         "scenario.host.delta_b: expected a number, got 'x'"),
        ("B", {"host.eps_b": [1]},
         "scenario.host.eps_b: expected a number, got [1]"),
        ("B", {"host.gamma_b": False},
         "scenario.host.gamma_b: expected a number, got False"),
        ("B", {"host.delta_b": DROP},
         "scenario.host.delta_b: required key missing"),
        ("B", {"host.eps_b": DROP},
         "scenario.host.eps_b: required key missing"),
        ("B", {"host.gamma_b": DROP},
         "scenario.host.gamma_b: required key missing"),
        ("B", {"host.color": 1},
         "scenario.host.color: unknown key (allowed: delta_b, eps_b, "
         "gamma_b)"),
        ("B", {"host.eps_b": -5.0},
         "scenario.host: eps_b must be >= 0, got -5.0"),
        ("B", {"host.gamma_b": -1.0},
         "scenario.host: gamma_b must be >= 0, got -1.0"),
        ("B", {"host": {"delta_b": -10.0, "eps_b": 10.0, "gamma_b": 0.0}},
         "scenario.host: host pole denominator delta_b + eps_b + "
         "i*gamma_b/2 is zero"),
        ("B", {"drive.kind": 1},
         "scenario.drive.kind: expected a string, got 1"),
        ("B", {"drive.kind": "laser"},
         "scenario.drive: drive kind must be one of ('off', 'constant', "
         "'pulse'), got 'laser'"),
        ("B", {"drive.amplitude": "x"},
         "scenario.drive.amplitude: expected a number or [re, im] pair, got "
         "'x'"),
        ("B", {"drive.amplitude": [1, 2, 3]},
         "scenario.drive.amplitude: expected a number or [re, im] pair, got "
         "[1, 2, 3]"),
        ("B", {"drive.amplitude": math.inf},
         "scenario.drive: drive amplitude must be finite, got (inf+0j)"),
        ("B", {"drive.t_on": "x"},
         "scenario.drive.t_on: expected a number, got 'x'"),
        ("B", {"drive.t_off": None},
         "scenario.drive.t_off: expected a number, got None"),
        ("B", {"drive.shape": "box"},
         "scenario.drive.shape: unknown key (allowed: amplitude, kind, "
         "t_off, t_on)"),
        ("B", {"drive.t_on": 5.0},
         "scenario.drive: pulse window requires t_on < t_off, got [5.0, "
         "4.0]"),
        ("B", {"initial.s": "x"},
         "scenario.initial.s: expected a number or [re, im] pair, got 'x'"),
        ("B", {"initial.w": "x"},
         "scenario.initial.w: expected a number, got 'x'"),
        ("B", {"initial.beta": [1]},
         "scenario.initial.beta: expected a number or [re, im] pair, got "
         "[1]"),
        ("B", {"initial.w": DROP},
         "scenario.initial.w: required key missing"),
        ("B", {"initial.extra": 0},
         "scenario.initial.extra: unknown key (allowed: beta, s, w)"),
        ("A", {"initial.beta": [0.0, 0.0]},
         "scenario.initial.beta: forbidden for model A"),
        ("A", {"integration.span": "x"},
         "scenario.integration.span: expected a number, got 'x'"),
        ("A", {"integration.tol": "x"},
         "scenario.integration.tol: expected a number, got 'x'"),
        ("A", {"integration.points": 801.5},
         "scenario.integration.points: expected an integer, got 801.5"),
        ("A", {"integration.points": True},
         "scenario.integration.points: expected an integer, got True"),
        ("A", {"integration.span": DROP},
         "scenario.integration.span: required key missing"),
        ("A", {"integration.dt": 0.1},
         "scenario.integration.dt: unknown key (allowed: points, span, tol)"),
        ("A", {"integration.span": -1.0},
         "scenario.integration: span must be positive and finite, got -1.0"),
        ("A", {"integration.span": math.inf},
         "scenario.integration: span must be positive and finite, got inf"),
        ("A", {"integration.tol": 0.001},
         "scenario.integration: tol must lie in [1e-12, 0.0001], got 0.001"),
        ("A", {"integration.tol": 1e-13},
         "scenario.integration: tol must lie in [1e-12, 0.0001], got 1e-13"),
        ("A", {"integration.points": 1},
         "scenario.integration: points must be >= 2, got 1"),
        ("A", {"fit": {"observable": 1}},
         "scenario.fit.observable: expected a string, got 1"),
        ("A", {"fit": {"observable": "w"}},
         "scenario.fit.observable: expected 'w_plus_1' or 'abs_s', got 'w'"),
        ("A", {"fit": {"window": 1.0}},
         "scenario.fit.window: expected [start, end], got 1.0"),
        ("A", {"fit": {"window": [1.0, 2.0, 3.0]}},
         "scenario.fit.window: expected [start, end], got [1.0, 2.0, 3.0]"),
        ("A", {"fit": {"window": ["a", 2.0]}},
         "scenario.fit.window: expected a number, got 'a'"),
        ("A", {"fit": {"window": [1.0, "b"]}},
         "scenario.fit.window: expected a number, got 'b'"),
        ("A", {"fit": {"window": [3.0, 1.0]}},
         "scenario.fit.window: start must be below end, got [3.0, 1.0]"),
        ("A", {"fit": {"window": [1.0, 1.0]}},
         "scenario.fit.window: start must be below end, got [1.0, 1.0]"),
        ("A", {"fit": {"smoothing": 3}},
         "scenario.fit.smoothing: unknown key (allowed: observable, window)"),
        ("A", {"output": {"trajectory": 5}},
         "scenario.output.trajectory: expected a string, got 5"),
        ("A", {"output": {"plot": "x.png"}},
         "scenario.output.plot: unknown key (allowed: trajectory)"),
        ("A", {"host": {"delta_b": 10.0, "eps_b": 10.0, "gamma_b": 4.0}},
         "scenario: model A needs exactly one of 'ell' or 'host' (got both)"),
        ("A", {"ell": DROP},
         "scenario: model A needs exactly one of 'ell' or 'host' (got "
         "neither)"),
        ("B", {"host": DROP},
         "scenario.host: required for model B"),
        ("B", {"model": "both", "host": DROP},
         "scenario.host: required for model both"),
        ("B", {"ell": [1.4, 0.0]},
         "scenario.ell: forbidden for model B; the factor is computed from "
         "the host"),
        ("G", {"gaussian_units.emitter.number_density": "x"},
         "scenario.gaussian_units.emitter.number_density: expected a "
         "number, got 'x'"),
        ("G", {"gaussian_units.emitter.dipole_moment": "x"},
         "scenario.gaussian_units.emitter.dipole_moment: expected a number, "
         "got 'x'"),
        ("G", {"gaussian_units.host.angular_frequency": "x"},
         "scenario.gaussian_units.host.angular_frequency: expected a "
         "number, got 'x'"),
        ("G", {"gaussian_units.emitter.number_density": DROP},
         "scenario.gaussian_units.emitter.number_density: required key "
         "missing"),
        ("G", {"gaussian_units.emitter.dipole_moment": DROP},
         "scenario.gaussian_units.emitter.dipole_moment: required key "
         "missing"),
        ("G", {"gaussian_units.host.angular_frequency": DROP},
         "scenario.gaussian_units.host.angular_frequency: required key "
         "missing"),
        ("G", {"gaussian_units.emitter.extra": 1},
         "scenario.gaussian_units.emitter.extra: unknown key (allowed: "
         "angular_frequency, dipole_moment, number_density)"),
        ("G", {"gaussian_units.emitter": 5},
         "scenario.gaussian_units.emitter: expected an object, got int"),
        ("G", {"gaussian_units.host": [1]},
         "scenario.gaussian_units.host: expected an object, got list"),
        ("G", {"gaussian_units.bogus": {}},
         "scenario.gaussian_units.bogus: unknown key (allowed: emitter, "
         "host)"),
        ("G", {"gaussian_units.emitter.number_density": -1.0},
         "scenario.gaussian_units.emitter: number_density must be >= 0, got "
         "-1.0"),
        ("G", {"gaussian_units.host.angular_frequency": 0.0},
         "scenario.gaussian_units.host: angular_frequency must be > 0, got "
         "0.0"),
        ("G", {"gaussian_units.emitter.dipole_moment": 0.0},
         "scenario.gaussian_units.emitter: radiative rate is zero "
         "(dipole_moment must be positive to set the time unit)"),
        ("G", {"emitter.eps_a": 3.0},
         "scenario.emitter.eps_a: already derived from "
         "gaussian_units.emitter; remove one of the two"),
        ("G", {"emitter.gamma_a": 1.0},
         "scenario.emitter.gamma_a: already derived from "
         "gaussian_units.emitter; remove one of the two"),
        ("G", {"host.eps_b": 1.0},
         "scenario.host.eps_b: already derived from gaussian_units.host; "
         "remove one of the two"),
        ("G", {"host.gamma_b": 4.0},
         "scenario.host.gamma_b: already derived from gaussian_units.host; "
         "remove one of the two"),
        ("G", {"gaussian_units.emitter": DROP},
         "scenario.gaussian_units.host: requires the gaussian_units.emitter "
         "section (the emitter's radiative rate sets the time unit)"),
        ("G", {"host": DROP, "model": "A", "ell": [1.4, 0.0]},
         "scenario.gaussian_units.host: requires a host section carrying "
         "delta_b"),
        ("G", {"host.delta_b": DROP},
         "scenario.host.delta_b: required key missing"),
        # two faults each: the first check names its fault
        ("B", {"host.eps_b": "x", "host.delta_b": DROP},
         "scenario.host.eps_b: expected a number, got 'x'"),
        ("A", {"integration": {"tol": "x"}},
         "scenario.integration.span: required key missing"),
        ("A", {"bogus": 1, "model": DROP},
         "scenario.bogus: unknown key (allowed: drive, ell, emitter, fit, "
         "gaussian_units, host, initial, integration, model, output)"),
        ("A", {"model": DROP, "emitter": DROP},
         "scenario.model: required key missing"),
        ("A", {"initial": DROP, "integration": DROP},
         "scenario.initial: required key missing"),
        ("A", {"model": "C", "emitter": DROP},
         "scenario.emitter: required key missing"),
        ("A", {"zeta": 1, "alpha": 1},
         "scenario.alpha: unknown key (allowed: drive, ell, emitter, fit, "
         "gaussian_units, host, initial, integration, model, output)"),
        ("A", {"emitter.delta_a": "x", "emitter.gamma_a": "y"},
         "scenario.emitter.delta_a: expected a number, got 'x'"),
        ("A", {"emitter.gamma_a": -1.0, "drive": {"kind": "laser"}},
         "scenario.drive: drive kind must be one of ('off', 'constant', "
         "'pulse'), got 'laser'"),
        ("A", {"emitter.delta_a": "x", "drive": {"kind": 5}},
         "scenario.emitter.delta_a: expected a number, got 'x'"),
        ("A",
         {"host": {"delta_b": 10.0, "eps_b": "x", "gamma_b": 4.0}, "ell": "y"},
         "scenario.host.eps_b: expected a number, got 'x'"),
        ("A",
         {"host": {"delta_b": 10.0, "eps_b": -1.0, "gamma_b": 4.0},
          "ell": "y"},
         "scenario.host: eps_b must be >= 0, got -1.0"),
        ("A", {"fit": {"observable": "q", "window": "w"}},
         "scenario.fit.observable: expected 'w_plus_1' or 'abs_s', got 'q'"),
        ("A", {"integration.span": -1.0, "fit": {"window": [3.0, 1.0]}},
         "scenario.integration: span must be positive and finite, got -1.0"),
        ("A", {"initial.beta": "x"},
         "scenario.initial.beta: expected a number or [re, im] pair, got "
         "'x'"),
        ("A",
         {"host": {"delta_b": 10.0, "eps_b": 10.0, "gamma_b": 4.0},
          "initial.beta": [0.0, 0.0]},
         "scenario: model A needs exactly one of 'ell' or 'host' (got both)"),
        ("B", {"initial": {"s": "x"}},
         "scenario.initial.w: required key missing"),
        ("B", {"initial.s": "x", "initial.w": "y"},
         "scenario.initial.s: expected a number or [re, im] pair, got 'x'"),
        ("B", {"ell": "x", "host": DROP},
         "scenario.ell: expected a number or [re, im] pair, got 'x'"),
        ("B", {"drive.kind": "laser", "host.eps_b": "x"},
         "scenario.drive: drive kind must be one of ('off', 'constant', "
         "'pulse'), got 'laser'"),
        ("B", {"initial.w": "x", "integration.span": "y"},
         "scenario.initial.w: expected a number, got 'x'"),
        ("G",
         {"gaussian_units.emitter.number_density": DROP,
          "gaussian_units.emitter.dipole_moment": "x"},
         "scenario.gaussian_units.emitter.number_density: required key "
         "missing"),
        ("G", {"gaussian_units.emitter": {}},
         "scenario.gaussian_units.emitter.angular_frequency: required key "
         "missing"),
        ("G",
         {"gaussian_units.emitter.number_density": "x",
          "gaussian_units.emitter.angular_frequency": "y"},
         "scenario.gaussian_units.emitter.number_density: expected a "
         "number, got 'x'"),
        ("G",
         {"gaussian_units.emitter.number_density": -1.0,
          "gaussian_units.host.number_density": "x"},
         "scenario.gaussian_units.emitter: number_density must be >= 0, got "
         "-1.0"),
        ("G", {"host.eps_b": 1.0, "host.delta_b": DROP},
         "scenario.host.eps_b: already derived from gaussian_units.host; "
         "remove one of the two"),
        ("G",
         {"emitter.eps_a": 1.0, "gaussian_units.emitter.dipole_moment": 0.0},
         "scenario.emitter.eps_a: already derived from "
         "gaussian_units.emitter; remove one of the two"),
        ("G",
         {"emitter.delta_a": "x", "gaussian_units.emitter.dipole_moment": 0.0},
         "scenario.emitter.delta_a: expected a number, got 'x'"),
        ("G", {"gaussian_units.emitter": DROP, "emitter.delta_a": "x"},
         "scenario.gaussian_units.host: requires the gaussian_units.emitter "
         "section (the emitter's radiative rate sets the time unit)"),
        # a window bound that is not finite (a dict caller's float)
        ("A", {"fit": {"window": [0.1, math.inf]}},
         "scenario.fit.window: bounds must be finite, got [0.1, inf]"),
        ("A", {"fit": {"window": [-math.inf, 1.0]}},
         "scenario.fit.window: bounds must be finite, got [-inf, 1.0]"),
    ]
    SWEEP = [
        ("list", {},
         "sweep: expected an object, got list"),
        ("S", {"parameter": 5},
         "sweep.parameter: expected a string, got 5"),
        ("S", {"parameter": DROP},
         "sweep.parameter: required key missing"),
        ("S", {"base": DROP},
         "sweep.base: required key missing"),
        ("S", {"bogus": 1},
         "sweep.bogus: unknown key (allowed: base, overrides, parameter, "
         "range, reduction, values)"),
        ("S", {"parameter": "host.color"},
         "sweep.parameter: 'host.color' does not name a swept field (known: "
         "ell, drive.amplitude, drive.t_off, drive.t_on, emitter.delta_a, "
         "emitter.eps_a, emitter.gamma_a, host.delta_b, host.eps_b, "
         "host.gamma_b, initial.beta, initial.s, initial.w, "
         "integration.points, integration.span, integration.tol)"),
        ("S", {"parameter": "host.eps_b.x"},
         "sweep.parameter: 'host.eps_b.x' does not name a swept field "
         "(known: ell, drive.amplitude, drive.t_off, drive.t_on, "
         "emitter.delta_a, emitter.eps_a, emitter.gamma_a, host.delta_b, "
         "host.eps_b, host.gamma_b, initial.beta, initial.s, initial.w, "
         "integration.points, integration.span, integration.tol)"),
        ("S", {"parameter": "color"},
         "sweep.parameter: 'color' does not name a swept field (known: ell, "
         "drive.amplitude, drive.t_off, drive.t_on, emitter.delta_a, "
         "emitter.eps_a, emitter.gamma_a, host.delta_b, host.eps_b, "
         "host.gamma_b, initial.beta, initial.s, initial.w, "
         "integration.points, integration.span, integration.tol)"),
        ("S", {"parameter": "fit.window"},
         "sweep.parameter: 'fit.window' does not name a swept field (known: "
         "ell, drive.amplitude, drive.t_off, drive.t_on, emitter.delta_a, "
         "emitter.eps_a, emitter.gamma_a, host.delta_b, host.eps_b, "
         "host.gamma_b, initial.beta, initial.s, initial.w, "
         "integration.points, integration.span, integration.tol)"),
        ("S", {"parameter": "drive.amplitude", "overrides": DROP},
         "sweep.parameter: section 'drive' is not present in the base "
         "scenario"),
        ("S", {"values": 5, "overrides": DROP},
         "sweep.values: expected a non-empty list, got 5"),
        ("S", {"values": [], "overrides": DROP},
         "sweep.values: expected a non-empty list, got []"),
        ("S", {"values": [0.0, "x", 1.0]},
         "sweep.values[1]: expected a number, got 'x'"),
        ("S", {"values": [True, 1.0, 2.0]},
         "sweep.values[0]: expected a number, got True"),
        ("S", {"parameter": "ell", "values": [[1.0, 0.0], "x", 1.0]},
         "sweep.values[1]: expected a number or [re, im] pair, got 'x'"),
        ("S",
         {"parameter": "integration.points", "values": [801, 801.5, 1601]},
         "sweep.values[1]: expected an integer, got 801.5"),
        ("S", {"parameter": "initial.s", "values": [[1.0, 0.0], 0.0, 0.0]},
         "sweep.values[0]: expected a number, got [1.0, 0.0]"),
        ("S",
         {"parameter": "drive.amplitude", "values": [[0.5, 0.1], 1.0, 2.0]},
         "sweep.values[0]: expected a number, got [0.5, 0.1]"),
        ("S", {"range": {"start": 0.0, "stop": 1.0, "count": 3}},
         "sweep: exactly one of 'values' or 'range' is required"),
        ("S", {"values": DROP},
         "sweep: exactly one of 'values' or 'range' is required"),
        ("S", {"values": DROP, "overrides": DROP, "range": 5},
         "sweep.range: expected an object, got int"),
        ("S",
         {"values": DROP,
          "overrides": DROP,
          "range": {"start": 0.0, "stop": 1.0}},
         "sweep.range.count: required key missing"),
        ("S",
         {"values": DROP,
          "overrides": DROP,
          "range": {"start": 0.0, "count": 2}},
         "sweep.range.stop: required key missing"),
        ("S",
         {"values": DROP,
          "overrides": DROP,
          "range": {"stop": 1.0, "count": 2}},
         "sweep.range.start: required key missing"),
        ("S",
         {"values": DROP,
          "overrides": DROP,
          "range": {"start": 0.0, "stop": 1.0, "count": 0}},
         "sweep.range.count: must be >= 1, got 0"),
        ("S",
         {"values": DROP,
          "overrides": DROP,
          "range": {"start": 0.0, "stop": 1.0, "count": "x"}},
         "sweep.range.count: expected an integer, got 'x'"),
        ("S",
         {"values": DROP,
          "overrides": DROP,
          "range": {"start": 0.0, "stop": 1.0, "count": 2.5}},
         "sweep.range.count: expected an integer, got 2.5"),
        ("S",
         {"values": DROP,
          "overrides": DROP,
          "range": {"start": "x", "stop": 1.0, "count": 2}},
         "sweep.range: expected a number, got 'x'"),
        ("S",
         {"values": DROP,
          "overrides": DROP,
          "range": {"start": 0.0, "stop": None, "count": 2}},
         "sweep.range: expected a number, got None"),
        ("S",
         {"values": DROP,
          "overrides": DROP,
          "range": {"start": 0.0, "stop": 1.0, "count": 2, "step": 1}},
         "sweep.range.step: unknown key (allowed: count, start, stop)"),
        ("S", {"overrides": 5},
         "sweep.overrides: expected a list, got 5"),
        ("S", {"overrides": [{}, {}]},
         "sweep.overrides: length 2 does not match 3 sweep values"),
        ("S", {"overrides": [{}, 5, {}]},
         "sweep.overrides[1]: expected an object, got int"),
        ("S", {"reduction": 5},
         "sweep.reduction: expected a string, got 5"),
        ("S", {"reduction": "lineshape"},
         "sweep.reduction: expected one of population_rate_model_a, "
         "coherence_rate_model_b, got 'lineshape'"),
        ("S", {"reduction": "coherence_rate_model_b"},
         "sweep.base.model: reduction 'coherence_rate_model_b' requires "
         "model 'B', got 'A'"),
        ("S", {"base.model": "B"},
         "sweep.base.model: reduction 'population_rate_model_a' requires "
         "model 'A', got 'B'"),
        ("S", {"base": 5},
         "sweep.base: expected an object, got int"),
        ("S", {"base.emitter.delta_a": "x"},
         "sweep.base.emitter.delta_a: expected a number, got 'x'"),
        ("S", {"base.bogus": 1},
         "sweep.base.bogus: unknown key (allowed: drive, ell, emitter, fit, "
         "gaussian_units, host, initial, integration, model, output)"),
        # two faults each: the first check names its fault
        ("S", {"parameter": DROP, "base": DROP},
         "sweep.parameter: required key missing"),
        ("S", {"bogus": 1, "parameter": DROP},
         "sweep.bogus: unknown key (allowed: base, overrides, parameter, "
         "range, reduction, values)"),
        ("S",
         {"reduction": "x", "range": {"start": 0.0, "stop": 1.0, "count": 3}},
         "sweep.reduction: expected one of population_rate_model_a, "
         "coherence_rate_model_b, got 'x'"),
        ("S", {"parameter": "host.color", "base.emitter.delta_a": "x"},
         "sweep.base.emitter.delta_a: expected a number, got 'x'"),
        ("S", {"overrides": [{}, {}], "reduction": "coherence_rate_model_b"},
         "sweep.overrides: length 2 does not match 3 sweep values"),
        ("S", {"values": [0.0, "x", 1.0], "base": DROP},
         "sweep.base: required key missing"),
        ("S", {"values": [0.0, "x", 1.0], "base": 5},
         "sweep.values[1]: expected a number, got 'x'"),
        ("S", {"parameter": "color", "values": ["x", 0.0, 0.0]},
         "sweep.values[0]: expected a number, got 'x'"),
        ("S", {"parameter": 5, "reduction": 5},
         "sweep.parameter: expected a string, got 5"),
        ("S", {"values": DROP, "overrides": DROP, "range": {}},
         "sweep.range.start: required key missing"),
        ("S",
         {"values": DROP,
          "overrides": DROP,
          "range": {"stop": 1.0, "count": "x"}},
         "sweep.range.start: required key missing"),
        ("S",
         {"values": DROP,
          "overrides": DROP,
          "range": {"start": "x", "stop": 1.0, "count": "y"}},
         "sweep.range.count: expected an integer, got 'y'"),
        ("S",
         {"values": DROP,
          "overrides": DROP,
          "range": {"start": "x", "stop": 1.0, "count": 0}},
         "sweep.range.count: must be >= 1, got 0"),
        ("S",
         {"values": DROP,
          "overrides": DROP,
          "range": {"start": "x", "stop": "y", "count": 2}},
         "sweep.range: expected a number, got 'x'"),
        ("S", {"overrides": [{}, 5], "base.model": "B"},
         "sweep.overrides: length 2 does not match 3 sweep values"),
        ("S",
         {"parameter": "drive.t_on", "base.model": "B", "overrides": DROP},
         "sweep.parameter: section 'drive' is not present in the base "
         "scenario"),
        # a field that the reduction sets itself: whole sections, single
        # keys, and a key that only the model-B reduction sets
        ("S", {"parameter": "initial.w"},
         "sweep.parameter: reduction 'population_rate_model_a' sets "
         "'initial.w' itself, so a sweep over it varies nothing (it sets "
         "drive, initial, integration.span)"),
        ("S", {"parameter": "integration.span"},
         "sweep.parameter: reduction 'population_rate_model_a' sets "
         "'integration.span' itself, so a sweep over it varies nothing (it "
         "sets drive, initial, integration.span)"),
        ("S",
         {"parameter": "integration.points",
          "values": [801, 1601, 3201],
          "reduction": "coherence_rate_model_b",
          "base.model": "B"},
         "sweep.parameter: reduction 'coherence_rate_model_b' sets "
         "'integration.points' itself, so a sweep over it varies nothing "
         "(it sets drive, initial, integration.span, integration.points)"),
        # it is the last check: the others name their faults first
        ("S", {"parameter": "initial.w", "base.model": "B"},
         "sweep.base.model: reduction 'population_rate_model_a' requires "
         "model 'A', got 'B'"),
        ("S", {"parameter": "initial.w", "overrides": [{}, {}]},
         "sweep.overrides: length 2 does not match 3 sweep values"),
        ("S", {"parameter": "initial.w", "values": [1.0, "x", 0.0]},
         "sweep.values[1]: expected a number, got 'x'"),
        # a sweep over ell itself needs ell in its base: a model-A base
        # with a host and a model-B base hold none, and no override can
        # add it
        ("S", {"parameter": "ell", "values": [[1.4, 0.0], [1.2, 0.0]],
               "overrides": DROP},
         "sweep.parameter: 'ell' is not present in the base scenario"),
        ("S",
         {"parameter": "ell",
          "values": [[1.4, 0.0], [1.2, 0.0]],
          "overrides": DROP,
          "reduction": "coherence_rate_model_b",
          "base.model": "B"},
         "sweep.parameter: 'ell' is not present in the base scenario"),
    ]
    # (index, patch of eps_b_sweep, message): the point as the sweep
    # command parses it
    POINTS = [
        (1,
         {"parameter": "integration.points",
          "values": DROP,
          "overrides": DROP,
          "range": {"start": 801, "stop": 802, "count": 3}},
         "point[1].integration.points: expected an integer, got 801.5"),
        (0,
         {"parameter": "emitter.eps_a",
          "overrides": [{"ell": [1.4, 0.0]}, {}],
          "values": [0.0, 1.0]},
         "point[0]: model A needs exactly one of 'ell' or 'host' (got both)"),
        (0, {"parameter": "emitter.gamma_a", "values": [-1.0, 1.0, 1.0]},
         "point[0].emitter: gamma_a must be >= 0, got -1.0"),
        (1, {"parameter": "integration.tol", "values": [1e-10, 1.0, 1e-10]},
         "point[1].integration: tol must lie in [1e-12, 0.0001], got 1.0"),
        (1,
         {"parameter": "emitter.eps_a", "overrides": [{}, {"emitter": 5}, {}]},
         "point[1].emitter: expected an object, got int"),
        (2,
         {"overrides": [{}, {}, {"host": {"delta_b": -10.0, "gamma_b": 0.0}}],
          "values": [0.0, 5.0, 10.0]},
         "point[2].host: host pole denominator delta_b + eps_b + "
         "i*gamma_b/2 is zero"),
    ]

    @pytest.mark.parametrize("base, patch, message", SCENARIO,
                             ids=_ids(SCENARIO))
    def test_scenario(self, base, patch, message):
        with pytest.raises(ConfigError) as info:
            parse_scenario(_patched(self.BASES[base](), patch))
        assert str(info.value) == message

    @pytest.mark.parametrize("base, patch, message", SWEEP, ids=_ids(SWEEP))
    def test_sweep(self, base, patch, message):
        with pytest.raises(ConfigError) as info:
            parse_sweep(_patched(self.BASES[base](), patch))
        assert str(info.value) == message

    @pytest.mark.parametrize("index, patch, message", POINTS,
                             ids=_ids(POINTS))
    def test_sweep_point(self, index, patch, message):
        spec = parse_sweep(_patched(eps_b_sweep(), patch))
        with pytest.raises(ConfigError) as info:
            parse_scenario(spec.point_raw(index), source=f"point[{index}]")
        assert str(info.value) == message

    @pytest.mark.parametrize("load", [load_scenario, load_sweep])
    def test_invalid_json_file(self, tmp_path, load):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError) as info:
            load(str(path))
        assert str(info.value) == (
            f"{path}: not valid JSON (Expecting property name enclosed in "
            f"double quotes: line 1 column 2 (char 1))")

    # the JSON text of each file, with a token that is not JSON
    TOKENS = [("NaN", '"initial": {"w": NaN}'),
              ("Infinity", '"ell": [Infinity, 0]'),
              ("-Infinity", '"fit": {"window": [0.1, -Infinity]}')]

    @pytest.mark.parametrize("load", [load_scenario, load_sweep])
    @pytest.mark.parametrize("token, text", TOKENS,
                             ids=[token for token, _ in TOKENS])
    def test_non_json_token_in_file(self, tmp_path, load, token, text):
        path = tmp_path / "token.json"
        path.write_text('{"model": "A", ' + text + '}')
        with pytest.raises(ConfigError) as info:
            load(str(path))
        assert str(info.value) == (
            f"{path}: not valid JSON ({token} is not a JSON value)")

    # the JSON text of each file, with a number whose float overflows
    PAST_FLOATS = [("1e999", '"initial": {"w": 1e999}'),
                   ("-1e999", '"ell": [-1e999, 0]'),
                   ("1" + "0" * 330,
                    '"integration": {"span": 1' + "0" * 330 + '}')]

    @pytest.mark.parametrize("load", [load_scenario, load_sweep])
    @pytest.mark.parametrize("token, text", PAST_FLOATS,
                             ids=["1e999", "-1e999", "integer"])
    def test_number_past_the_float_range_in_file(self, tmp_path, load,
                                                  token, text):
        path = tmp_path / "huge.json"
        path.write_text('{"model": "A", ' + text + '}')
        with pytest.raises(ConfigError) as info:
            load(str(path))
        assert str(info.value) == (
            f"{path}: not valid JSON ({token} is outside the float range)")

    def test_file_not_utf8(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"model": "\xe9"}')
        with pytest.raises(ConfigError) as info:
            load_scenario(str(path))
        assert str(info.value) == (
            f"{path}: not valid JSON ('utf-8' codec can't decode byte 0xe9 "
            f"in position 11: invalid continuation byte)")
