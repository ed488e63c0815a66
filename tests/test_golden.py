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
JSON and the text form (ROADMAP item 1).

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
            "32b964f1cee40da35aafc15f8b55d300945948e86e25c260e03f4c5f9e54a8ba",
        "decay.csv":
            "e774679399e2f0db9c0f1aef37f95aacd20b286e77aec2f85d5a8c76ae81925c",
    },
    "simulate_decay_text": {
        "stdout":
            "38776ca44b7dfd1b3388c910ddd5330d431e1aa431d20b6f3be8d1ef77da8f42",
        "decay.csv":
            "e774679399e2f0db9c0f1aef37f95aacd20b286e77aec2f85d5a8c76ae81925c",
    },
    "simulate_weak_excitation": {
        "stdout":
            "daa3fec5efcbb484bce97df9f7c243108579a6fcc95503bf7f1df3e8afb12231",
        "weak_excitation.csv":
            "c8748a135122f911eeb72601c25bf178faa1e5be233eec83a9e8342d66d48019",
    },
    "simulate_weak_excitation_text": {
        "stdout":
            "3d0fb98693259ec87bb197ed1d82875aef06ed354d39d8f569aaa5f8c2e2a70d",
        "weak_excitation.csv":
            "c8748a135122f911eeb72601c25bf178faa1e5be233eec83a9e8342d66d48019",
    },
    "simulate_pulse_both": {
        "stdout":
            "60652f6b493ed69d36acbdf710dc2ff84597125949eb2f149451ef008e0ff741",
        "pulse_both_A.csv":
            "2985176a2a6a1050af434bd89adcc0d9482cb1a1dbb1f319557b0260dcc0cc2b",
        "pulse_both_B.csv":
            "1280bc4406b2fdcdd6e5df28e62155769b1a43c635c6188be20d85ed31cb71cc",
    },
    "simulate_pulse_both_text": {
        "stdout":
            "c8a3798e83fa42d353af5c8f188f3be1216e7903ac0024ac4b127b7149c932d1",
        "pulse_both_A.csv":
            "2985176a2a6a1050af434bd89adcc0d9482cb1a1dbb1f319557b0260dcc0cc2b",
        "pulse_both_B.csv":
            "1280bc4406b2fdcdd6e5df28e62155769b1a43c635c6188be20d85ed31cb71cc",
    },
    "sweep": {
        "stdout":
            "3d6cded301f7c9b021673b11bf65009168bc4e2d9cf557def64d33ec179cd962",
    },
    # the battery's kappa = 4 and 8 runs moved to the exponential method
    "verify": {
        "stdout":
            "be67037124c51ec3ca035990e63d85e72a2bda59247c4def0c044850bc3f201e",
    },
    "verify_text": {
        "stdout":
            "c24518c22d4412f9f678a5ee8e5cc632dfb95b3c63d8a2abe55ad947c21878e8",
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
