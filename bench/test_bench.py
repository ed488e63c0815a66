"""Self-test of the benchmark at tiny size.

Run from the root of a checkout: ``python3 -m pytest bench/test_bench.py``.
It checks that every metric named in ``BENCHMARK.json`` is printed with
its unit on every workload, that the correctness checks reject corrupted
outputs, and that the tracer survives a traced name going away.
"""

from __future__ import annotations

import csv
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
TINY = {"sweep_points": 6, "host_pairs": 1, "kappas": [1, 2, 4],
        "files_per_combo": 1, "grid": (801, 1601)}


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload; the children read sizes from the manifest."""
    monkeypatch.setattr(inputs, "SIZE", TINY)


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170,
                          check=False)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_every_metric_printed_with_unit(workload, trace, tiny, capsys):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)])
    out = capsys.readouterr()
    assert code == 0, out.out + out.err
    *lines, last = out.out.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert any(line.strip().startswith(f"{m['name']} = ")
                   and line.endswith(f" {m['unit']}") for line in lines)
    if trace:
        # layer self times sum to no more than the traced wall time
        assert result["metrics"]["trace.unattributed_s"]["value"] >= 0.0


def _sweep_csv(tmp_path) -> tuple[str, int]:
    import lfbloch.cli
    manifest = inputs.write_inputs("sweep_a", 5, tmp_path)
    out = tmp_path / "sweep.csv"
    code = lfbloch.cli.main(["sweep", str(tmp_path / manifest["sweep"]),
                             "--output", str(out)])
    assert code == 0
    return out.read_text("utf-8"), manifest["points"]


def test_sweep_check_rejects_perturbed_gamma_fit(tmp_path, tiny):
    text, points = _sweep_csv(tmp_path)
    assert checks.sweep_a(0, text, points) == (points, [])
    rows = list(csv.reader(io.StringIO(text)))
    rows[2][3] = repr(float(rows[2][3]) * (1.0 + 1e-5))
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    attempted, failures = checks.sweep_a(0, buf.getvalue(), points)
    assert attempted == points and len(failures) == 1
    rows[3][5] = "StepSizeUnderflowError: too stiff"
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    assert len(checks.sweep_a(0, buf.getvalue(), points)[1]) == 2
    assert len(checks.sweep_a(2, text, points)[1]) == points


def test_convergence_check_needs_first_order_scaling():
    kappas = [1.0, 2.0, 4.0, 8.0]
    assert checks.convergence(kappas, [1.0 / k for k in kappas], 1e-4) \
        == (4, [])
    _, failures = checks.convergence(kappas, [1.0 / k**2 for k in kappas],
                                     1e-4)
    assert len(failures) == 3
    _, failures = checks.convergence(kappas, [1.0 / k for k in kappas], 0.1)
    assert len(failures) == 1


def test_battery_check_rejects_a_failed_check():
    report = {"passed": True, "checks": [
        {"name": f"c{i}", "passed": True, "detail": ""} for i in range(7)]}
    assert checks.battery(0, json.dumps(report)) == (7, [])
    report["checks"][4]["passed"] = False
    assert len(checks.battery(4, json.dumps(report))[1]) == 1
    assert len(checks.battery(0, "not json")[1]) == 7


def test_simulate_check_rejects_header_and_row_count(tmp_path):
    path = tmp_path / "run.csv"
    header = ",".join(checks.TRAJECTORY_HEADER)
    path.write_text(header + "\n0,0,0,1,,\n1,0,0,1,,\n", "utf-8")
    assert checks.simulate_cli(0, "{}", [str(path)], 2) == (1, [])
    assert len(checks.simulate_cli(0, "{}", [str(path)], 3)[1]) == 1
    assert len(checks.simulate_cli(0, "{", [str(path)], 2)[1]) == 1
    assert len(checks.simulate_cli(3, "{}", [str(path)], 2)[1]) == 1
    path.write_text("t,re_s,im_s,w\n0,0,0,1\n1,0,0,1\n", "utf-8")
    assert len(checks.simulate_cli(0, "{}", [str(path)], 2)[1]) == 1


def test_inputs_depend_only_on_the_seed(tmp_path):
    for seed, sub in ((7, "a"), (7, "b"), (8, "c")):
        (tmp_path / sub).mkdir()
        inputs.write_inputs("simulate_cli", seed, tmp_path / sub)

    def files(sub):
        return {p.name: p.read_bytes() for p in (tmp_path / sub).iterdir()
                if p.name != "manifest.json"}

    assert files("a") == files("b")
    assert files("a") != files("c")


def test_tracer_reports_a_missing_name_as_null(monkeypatch):
    import lfbloch.cli  # noqa: F401 - the tracer patches loaded modules
    import lfbloch.dynamics
    monkeypatch.delattr(lfbloch.dynamics, "effective_rhs")
    probe = tracer.Tracer()
    probe.install()
    probe.uninstall()
    assert probe.missing == ["lfbloch.dynamics.effective_rhs"]
    metrics = tracer.layer_metrics([], probe.missing, 1.0)
    assert metrics["dynamics.rhs_calls"] is None
    assert metrics["dynamics.rhs_us_per_call"] is None
    assert metrics["ode.solve_calls"] == 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "sweep_a", "--seed", "1", "--seconds", "1",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_median_calls_takes_each_calls_median():
    jobs = [{"t": [0.3, 0.1, 0.5]}, {"t": [0.2, 0.4, 0.6]},
            {"t": [0.1, 0.2, 0.7]}]
    assert run.median_calls(jobs, "t") == [0.2, 0.2, 0.6]
    with pytest.raises(run.BenchError):
        run.median_calls(jobs + [{"t": [0.1]}], "t")


def test_sampler_scales_to_the_reference_speed():
    sampler = speed.Sampler()
    # samples twice as slow as the reference: the host runs at half speed
    sampler.starts = [0.0, 1.0, 2.0]
    sampler.durations = [2 * speed.REF_S] * 3
    own = 1.5 - 2 * (2 * speed.REF_S)   # the samples at 1.0 and 2.0
    assert sampler.own_s(0.5, 2.0) == pytest.approx(own)
    assert sampler.ref_s(0.5, 2.0) == pytest.approx(own / 2)
    # no sample near the interval: the nearest on each side are used
    assert sampler.ref_s(0.4, 0.6) == pytest.approx(0.1)
