"""Golden bytes of every CLI subcommand on the shipped ``configs/*.json``.

Each run's stdout, and the trajectory CSV where one is written, is pinned
by its sha256; ``factor``, ``simulate`` and ``verify`` are pinned in
both their ``--json`` and their text form.  A change meant to leave the
numbers alone (a refactor, a removal) must leave every hash here
unchanged; a change that moves a number on purpose updates the hash and
says why.  The hashes were recorded with Python 3.11 and numpy 2.4 on
an x86-64 CPU with AVX-512, where OpenBLAS picks its SkylakeX kernel.
The bytes still depend on that kernel, not only on the build: on the
same numpy, ``OPENBLAS_CORETYPE=Haswell`` moves the model-B CSVs
(``weak_excitation.csv`` and ``pulse_both_B.csv``, so the runs of
``simulate_weak_excitation`` and ``simulate_pulse_both`` in both forms)
and the JSON stdout of ``verify``, and ``Sandybridge`` moves every
``simulate`` and ``verify`` run, both forms (ROADMAP item 2).  They
move through dense output's BLAS products and the exponential method's.
``sweep_model_b``, a model-B sweep whose Dormand-Prince batch narrows
through ``FLOAT_ROWS`` and whose two fastest host poles (eps_b 60 and
80) lie above ``EXPONENTIAL_POLE``, moves under Haswell, in those two
exponential-method rows alone, and keeps its bytes under Sandybridge.
The stage sums take no BLAS call (``TestFloatBits`` in
``tests/test_ode.py`` pins their order), nor do the fits (``TestFitBits``
in ``tests/test_verify.py``).  CI reports these hashes under the Haswell
kernel without gating on them ("Goldens under the Haswell kernel").
Once dense output and the exponential method take no BLAS order
(ROADMAP items 2 and 3), they join the gating step "Bits under other
BLAS kernels", which runs the tests marked ``@pytest.mark.bits`` under
Haswell and Sandybridge, by taking that marker.

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
    "sweep_model_b": (["sweep", str(CONFIGS / "sweep_model_b.json")], ()),
    "verify": (["verify", "--json"], ()),
    "verify_text": (["verify"], ()),
}

# Every hash of an integrated output moved once when Dormand-Prince
# 8(5,3) replaced 5(4) (the step counts of each run are in CHANGES.md)
# The hashes of outputs that print a fitted rate or shift to all its
# digits moved once more when the fits' line went from np.polyfit to the
# centred closed form (the old and new values are in CHANGES.md)
# Every hash of an integrated output moved once more when the stage
# sums went from BLAS to one fixed order, left to right from +0.0 (step
# counts unchanged; the old and new values are in CHANGES.md)
# The verify and sweep_model_b hashes moved when a Dormand-Prince accept
# right after a rejection stopped growing the step, as scipy's DOP853
# (the exponential method's rows kept their bytes; the old and new
# values are in CHANGES.md)
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
            "a0eb1f83ba1355dd1cc0b3a7ce259eef4fcccccfd27f93c9f860ae440bbb121f",
        "decay.csv":
            "1861c8580cffffa16c3423db2b640312cd4dada4b4c666aab5c1484f837e3476",
    },
    "simulate_decay_text": {
        "stdout":
            "acbe60d2f0c61fedd8910906d731ff3d1fb7c5b4a7ddccf189254d7cc2fc6cdb",
        "decay.csv":
            "1861c8580cffffa16c3423db2b640312cd4dada4b4c666aab5c1484f837e3476",
    },
    "simulate_weak_excitation": {
        "stdout":
            "234d6baf2df5af9f0e2fac7cc8aaa437d2b34d00fd7c1a83cd23aa4c90317041",
        "weak_excitation.csv":
            "9381e804154aca64b56ac28001b0be717504cfa43e17c6efa194cf10b0f5b7cf",
    },
    "simulate_weak_excitation_text": {
        "stdout":
            "c217ca4eb075ac3f841ed534e708abebfb8797f0fb68dcf79e3e389f78fe92bf",
        "weak_excitation.csv":
            "9381e804154aca64b56ac28001b0be717504cfa43e17c6efa194cf10b0f5b7cf",
    },
    "simulate_pulse_both": {
        "stdout":
            "5fe63ade2e51202af0895615bd5226473641e33c2148f42983bccf2e7c1df855",
        "pulse_both_A.csv":
            "54c46a916b5f0468b4ae6bc894c9cfa256993a7d155aa62cbe952ed4e7cd3546",
        "pulse_both_B.csv":
            "ffd35f4d6393f9dc7ccf93e8c3afb874c08ec58b55a1b958e0176e9eb28a7a83",
    },
    "simulate_pulse_both_text": {
        "stdout":
            "5f04ab1a5053399f9748ff710b75ff60be1eb05df3d863147527c1042d9249d6",
        "pulse_both_A.csv":
            "54c46a916b5f0468b4ae6bc894c9cfa256993a7d155aa62cbe952ed4e7cd3546",
        "pulse_both_B.csv":
            "ffd35f4d6393f9dc7ccf93e8c3afb874c08ec58b55a1b958e0176e9eb28a7a83",
    },
    "sweep": {
        "stdout":
            "fb8169e269d4fe74d644296c801d303cfd34ceeef385e58218f5d03ae568f15b",
    },
    "sweep_model_b": {
        "stdout":
            "98753d2f8bba17799d9bab766010020f9692536666fe9a9b8611fd09e84fb6a7",
    },
    "verify": {
        "stdout":
            "162328868346682f6328e114cfd689efb096bada2fcfe682c16a10a7d6a1b381",
    },
    "verify_text": {
        "stdout":
            "612184e405fb1da96e28054dbbe8ed913358a6ad8d49dea5fb51e32695986bf1",
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
