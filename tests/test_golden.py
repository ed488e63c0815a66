"""Golden bytes of every CLI subcommand on the shipped ``configs/*.json``.

Each run's stdout, and the trajectory CSV where one is written, is pinned
by its sha256; ``factor``, ``simulate`` and ``verify`` are pinned in
both their ``--json`` and their text form.  A change meant to leave the
numbers alone (a refactor, a removal) must leave every hash here
unchanged; a change that moves a number on purpose updates the hash and
says why.  The hashes were recorded with Python 3.11 and numpy 2.4 on
an x86-64 CPU with AVX-512, where OpenBLAS picks its SkylakeX kernel.
The bytes depend on that kernel, not only on the build: on the same
numpy, ``OPENBLAS_CORETYPE=Haswell`` moves the trajectory CSVs and the
stdout of ``simulate_decay``, ``simulate_pulse_both`` and
``simulate_weak_excitation`` and the stdout of ``verify``, in both the
JSON and the text form, and ``Sandybridge`` moves ``sweep`` too
(ROADMAP item 1).  They move through the integrator's BLAS products
(its stage sums and dense output); the fits take no BLAS or LAPACK
call, and ``tests/test_verify.py::TestFitBits`` pins their bits.

Runs happen inside ``tmp_path`` with relative ``--output`` names, so the
paths echoed in the JSON reports are the same on every machine.
"""

import hashlib
import json
from pathlib import Path

import pytest

from lfbloch.cli import main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _factor_argv() -> list[str]:
    host = json.loads((CONFIGS / "weak_excitation.json")
                      .read_text(encoding="utf-8"))["host"]
    return ["factor", "--delta-b", str(host["delta_b"]),
            "--eps-b", str(host["eps_b"]),
            "--gamma-b", str(host["gamma_b"])]


# name -> (argv, files written into the working directory)
RUNS = {
    "factor": ([*_factor_argv(), "--json"], ()),
    "factor_text": (_factor_argv(), ()),
    "compare": (["compare"], ()),
    "simulate_decay": (["simulate", str(CONFIGS / "decay.json"), "--json",
                        "--output", "decay.csv"], ("decay.csv",)),
    "simulate_weak_excitation": (["simulate",
                                  str(CONFIGS / "weak_excitation.json"),
                                  "--json", "--output",
                                  "weak_excitation.csv"],
                                 ("weak_excitation.csv",)),
    "simulate_decay_text": (["simulate", str(CONFIGS / "decay.json"),
                             "--output", "decay.csv"], ("decay.csv",)),
    "simulate_weak_excitation_text": (["simulate",
                                       str(CONFIGS / "weak_excitation.json"),
                                       "--output", "weak_excitation.csv"],
                                      ("weak_excitation.csv",)),
    "simulate_pulse_both": (["simulate", str(CONFIGS / "pulse_both.json"),
                             "--json", "--output", "pulse_both.csv"],
                            ("pulse_both_A.csv", "pulse_both_B.csv")),
    "simulate_pulse_both_text": (["simulate",
                                  str(CONFIGS / "pulse_both.json"),
                                  "--output", "pulse_both.csv"],
                                 ("pulse_both_A.csv", "pulse_both_B.csv")),
    "sweep": (["sweep", str(CONFIGS / "sweep_host_density.json")], ()),
    "verify": (["verify", "--json"], ()),
    "verify_text": (["verify"], ()),
}

# Every hash of an integrated output moved once when Dormand-Prince
# 8(5,3) replaced 5(4) (the step counts of each run are in CHANGES.md)
# The hashes of outputs that print a fitted rate or shift to all its
# digits moved once more when the fits' line went from np.polyfit to the
# centred closed form (the old and new values are in CHANGES.md)
GOLDEN = {
    "compare": {
        "stdout":
            "c38c09a54c901bc8c318fe4a8c049e28615eb0a17512ffc7ab6f4b0be33e062c",
    },
    "factor": {
        "stdout":
            "d6853f04a5b6c472c7040ca988ab82a0ae2bfb56e2fe6e4fd43ff3b4a336ba60",
    },
    "factor_text": {
        "stdout":
            "6db063311f609d841c350d95b93353a690205d3ddd5f36684c9aca94df630096",
    },
    "simulate_decay": {
        "stdout":
            "3a62b1be459fc613e7d015a55f4a3395d6e2cdfdbe3be9c30c4a8f349129467c",
        "decay.csv":
            "ded84cac1dafdd016503c65e99d079c10c7fe494bf8804d3bb9de72ca5e646ce",
    },
    "simulate_decay_text": {
        "stdout":
            "2f90c813e1c171e364f9ae74af21dd7b8f0de7b907522d6daae570d3a0e31a95",
        "decay.csv":
            "ded84cac1dafdd016503c65e99d079c10c7fe494bf8804d3bb9de72ca5e646ce",
    },
    "simulate_weak_excitation": {
        "stdout":
            "0ed4a552ceeacc8ced4fb193e406922e54869cf8694bc3dbfd0ccc15707f1a84",
        "weak_excitation.csv":
            "92eb0c3dbbdb3786f5db738bf9a71cac94a18f25d5b952c4097b9ee3bd6dfc4b",
    },
    "simulate_weak_excitation_text": {
        "stdout":
            "2c911334096c3355c7ac446fc6a92c6d2d0dc4a709c6615442155ee09a23c0b6",
        "weak_excitation.csv":
            "92eb0c3dbbdb3786f5db738bf9a71cac94a18f25d5b952c4097b9ee3bd6dfc4b",
    },
    "simulate_pulse_both": {
        "stdout":
            "45f0a173c34c37e55ac518fd3e7784ae053645955581a7104c582856862c1934",
        "pulse_both_A.csv":
            "54bbc3d26464a2d519cccb85e1e10acb3bbf5b2784d14e3c9143985b27aa697a",
        "pulse_both_B.csv":
            "4553394bc173327a83289d3c180f08d6affdf94ea01b5a03dfce349811ea39b1",
    },
    "simulate_pulse_both_text": {
        "stdout":
            "6117a201c857d3556f0f415c6561887676c3d11942b26f1ba43d0311bd4bb4c2",
        "pulse_both_A.csv":
            "54bbc3d26464a2d519cccb85e1e10acb3bbf5b2784d14e3c9143985b27aa697a",
        "pulse_both_B.csv":
            "4553394bc173327a83289d3c180f08d6affdf94ea01b5a03dfce349811ea39b1",
    },
    "sweep": {
        "stdout":
            "4e01c88e388e63d730bf231b774d08cadd842dbe6f33908a4ae6b7126c65639a",
    },
    "verify": {
        "stdout":
            "377dd1291290e767e492387ffcbe664e79996255623102005bf0b68431956347",
    },
    "verify_text": {
        "stdout":
            "e3fbdad2d9bb23dd06882ed688de6a6909d9d1c35619c99a93e400d07222f258",
    },
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_cli_output_bytes_pinned(name, tmp_path, monkeypatch, capsys):
    argv, files = RUNS[name]
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    got = {"stdout": _sha(capsys.readouterr().out.encode("utf-8"))}
    for fname in files:
        got[fname] = _sha((tmp_path / fname).read_bytes())
    assert got == GOLDEN[name]
