"""Seeded input generator for the benchmark workloads.

Every workload's inputs are a pure function of (workload, seed):
the program under test receives only the files written here and the
command-line arguments the benchmark passes.  Continuous parameters are
drawn by stratified (Latin-hypercube) sampling, so that each seed covers
the whole parameter box and the total work of a job varies little from
seed to seed.  Uses the standard library only.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

WORKLOADS = ("sweep_a", "verify_kappa", "simulate_cli")

# the size of each workload's job
SIZE = {"sweep_points": 256, "host_pairs": 2,
        "kappas": [1, 2, 4, 8, 16, 32, 48],
        "files_per_combo": 12, "grid": (801, 8001)}

MODELS = ("A", "B", "both")
DRIVES = ("off", "constant", "pulse")
# simulate_cli parameters that set a run's step count (each correlates
# with a run's right-hand-side evaluations by 0.3-0.7), drawn stratified
# within each (model, drive) pair.  Drawn independently, all but span
# made the job's total spread by 0.044 (quartile distance over median)
# over seeds 11-20; stratified, it spreads by 0.020 over seeds 1-20.
STRATIFIED = {"span": (3.0, 8.0), "delta_a": (-2.0, 2.0),
              "delta_b": (2.0, 8.0), "gamma_b": (1.0, 4.0),
              "amplitude_re": (0.2, 2.0)}


def _strata(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """n draws from [lo, hi], one per equal-width stratum, shuffled."""
    values = [lo + (hi - lo) * (i + rng.random()) / n for i in range(n)]
    rng.shuffle(values)
    return values


def _sweep_a(rng: random.Random, size: dict) -> dict:
    n = size["sweep_points"]
    eps_b = sorted(_strata(rng, n, 0.0, 20.0))
    delta_b = _strata(rng, n, 5.0, 30.0)
    gamma_b = _strata(rng, n, 1.0, 8.0)
    sweep = {
        "parameter": "host.eps_b",
        "values": eps_b,
        "overrides": [{"host": {"delta_b": d, "gamma_b": g}}
                      for d, g in zip(delta_b, gamma_b)],
        "reduction": "population_rate_model_a",
        "base": {
            "model": "A",
            "emitter": {"delta_a": 0.0, "eps_a": 0.0, "gamma_a": 1.0},
            "host": {"delta_b": 20.0, "eps_b": 0.0, "gamma_b": 4.0},
            "initial": {"s": [0.0, 0.0], "w": 1.0},
            "integration": {"span": 8.0, "tol": 1e-10, "points": 1601},
        },
    }
    return {"files": {"sweep.json": sweep},
            "manifest": {"sweep": "sweep.json", "points": n}}


def _verify_kappa(rng: random.Random, size: dict) -> dict:
    # 48*|alpha| <= 48*|20 + 3i| < 1000 keeps every run under the
    # integrator's stiffness cap.  Hosts come in antithetic pairs (x and
    # lo + hi - x in every coordinate), each pair from its own stratum of
    # the lower half, so the total step count barely depends on the seed.
    box = {"delta_b": (6.0, 12.0), "eps_b": (6.0, 8.0), "gamma_b": (2.0, 6.0)}
    pairs = size["host_pairs"]
    u = {k: _strata(rng, pairs, 0.0, 0.5) for k in box}
    hosts = []
    for j in range(pairs):
        hosts += [{k: lo + u[k][j] * (hi - lo) for k, (lo, hi) in box.items()},
                  {k: hi - u[k][j] * (hi - lo) for k, (lo, hi) in box.items()}]
    spec = {"emitter": {"delta_a": 0.0, "eps_a": 0.0, "gamma_a": 1.0},
            "hosts": hosts, "kappas": size["kappas"]}
    return {"files": {"kappa_hosts.json": spec},
            "manifest": {"hosts": "kappa_hosts.json"}}


def _complex_pair(rng: random.Random, re: tuple, im: tuple) -> list[float]:
    return [rng.uniform(*re), rng.uniform(*im)]


def _scenario(rng: random.Random, model: str, drive: str, points: int,
              drawn: dict, use_ell: bool) -> dict:
    span = drawn["span"]
    w = rng.uniform(-1.0, 1.0)
    r = 0.45 * math.sqrt(1.0 - w * w) * rng.random()
    phi = rng.uniform(0.0, 2.0 * math.pi)
    scenario = {
        "model": model,
        "emitter": {"delta_a": drawn["delta_a"],
                    "eps_a": rng.uniform(0.0, 1.0), "gamma_a": 1.0},
        "initial": {"s": [r * math.cos(phi), r * math.sin(phi)], "w": w},
        "integration": {"span": span, "tol": 1e-8, "points": points},
    }
    if use_ell:
        scenario["ell"] = _complex_pair(rng, (1.0, 2.0), (-0.3, 0.0))
    else:
        scenario["host"] = {"delta_b": drawn["delta_b"],
                            "eps_b": rng.uniform(0.0, 4.0),
                            "gamma_b": drawn["gamma_b"]}
    if model != "A":
        scenario["initial"]["beta"] = _complex_pair(rng, (-0.1, 0.1),
                                                    (-0.1, 0.1))
    # the drive sits at the top level: parse_scenario rejects emitter.drive
    amplitude = [drawn["amplitude_re"], rng.uniform(-0.5, 0.5)]
    if drive == "constant":
        scenario["drive"] = {"kind": "constant", "amplitude": amplitude}
    elif drive == "pulse":
        t_on = rng.uniform(0.5, 0.3 * span)
        scenario["drive"] = {"kind": "pulse", "amplitude": amplitude,
                             "t_on": t_on,
                             "t_off": t_on + rng.uniform(0.2, 0.5) * span}
    else:
        scenario["drive"] = {"kind": "off"}
    return scenario


def _simulate_cli(rng: random.Random, size: dict) -> dict:
    per_combo = size["files_per_combo"]
    lo, hi = size["grid"]
    plan = []
    for model in MODELS:
        for drive in DRIVES:
            # log-uniform: every decade of grid size gets equal weight
            grids = [math.exp(x) for x in
                     _strata(rng, per_combo, math.log(lo), math.log(hi + 1))]
            strata = {k: _strata(rng, per_combo, *box)
                      for k, box in STRATIFIED.items()}
            for j, g in enumerate(grids):
                plan.append((model, drive, int(g),
                             {k: v[j] for k, v in strata.items()},
                             model == "A" and j % 2 == 0))
    rng.shuffle(plan)
    files, runs = {}, []
    for i, (model, drive, points, drawn, use_ell) in enumerate(plan):
        name = f"scenario_{i:03d}.json"
        files[name] = _scenario(rng, model, drive, points, drawn, use_ell)
        runs.append({"config": name, "output": f"sim_{i:03d}.csv",
                     "model": model, "points": points})
    return {"files": files, "manifest": {"runs": runs}}


_GENERATORS = {"sweep_a": _sweep_a, "verify_kappa": _verify_kappa,
               "simulate_cli": _simulate_cli}


def write_inputs(workload: str, seed: int, directory: Path) -> dict:
    """Write the workload's input files into ``directory``.

    Returns the manifest (also written as ``manifest.json``) that tells
    the job which files to run and what output to expect.  Paths in the
    manifest are relative to ``directory``.
    """
    rng = random.Random(f"{workload}:{seed}")
    built = _GENERATORS[workload](rng, SIZE)
    for name, content in built["files"].items():
        (directory / name).write_text(json.dumps(content, indent=1) + "\n",
                                      encoding="utf-8")
    manifest = {"workload": workload, "seed": seed, **built["manifest"]}
    (directory / "manifest.json").write_text(json.dumps(manifest) + "\n",
                                             encoding="utf-8")
    return manifest
