"""Tests for scenario/sweep file parsing and validation."""

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

    def test_load_sweep(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(eps_b_sweep()))
        spec = load_sweep(str(path))
        assert spec.reduction == "population_rate_model_a"
        assert math.isclose(spec.base.integration.tol, 1e-10)
