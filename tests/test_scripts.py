"""Smoke tests for the scripts under ``scripts/``."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_convergence_table_prints_one_row_per_kappa(capsys):
    _load("convergence_table").main()
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("ell = ")
    assert lines[1].split()[0] == "kappa"
    rows = [line.split() for line in lines[2:]]
    assert [float(row[0]) for row in rows] == [1.0, 2.0, 4.0, 8.0]
    # the error ratio column sits near 2 (O(1/kappa) convergence)
    assert all(1.9 < float(row[2]) < 2.1 for row in rows[1:])
