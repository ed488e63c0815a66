"""One benchmark job, run in a fresh interpreter by ``run.py``.

Usage: ``python3 bench/child.py WORKDIR --trace 0|1`` with ``src`` on
PYTHONPATH.  The child imports ``lfbloch.cli``, loads the generated
inputs named by ``WORKDIR/manifest.json`` and prints ``ready``: the
parent times set-up up to that line.  It then runs the workload's job,
timing each call into the program, checks every output, and prints one
JSON line with the job's figures.  Untraced, only ``ode.solve`` is
wrapped, to count right-hand-side evaluations, and a ``speed.Sampler``
runs, so that each call's time can be scaled to the reference host
speed; with ``--trace 1`` the tracer is installed instead and the spans
are written to ``WORKDIR/spans.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import signal
import sys
import time
from pathlib import Path

import checks
import speed
import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent
TIME_LIMIT_S = 150   # a hung job dies by SIGALRM instead of hanging the run


class Job:
    """Times each top-level call into the program and tallies checks."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.intervals: list[tuple[float, float]] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.out_bytes = 0

    def call(self, fn):
        """Run one call; return (value, captured stdout, error or None)."""
        buf = io.StringIO()
        error = value = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                value = fn()
        except Exception as exc:  # noqa: BLE001 - a raised exception is a failed item
            error = f"{type(exc).__name__}: {exc}"
        self.intervals.append((t0, time.perf_counter()))
        out = buf.getvalue()
        self.out_bytes += len(out.encode())
        return value, out, error

    def tally(self, attempted: int, failures: list[str]) -> None:
        self.attempted += attempted
        self.failures += failures

    def file_text(self, path: Path) -> str:
        if not path.exists():
            return ""
        self.out_bytes += path.stat().st_size
        return path.read_text(encoding="utf-8")


# --- sweep_a ---------------------------------------------------------------

def setup_sweep_a(lfbloch, workdir, manifest):
    path = str(workdir / manifest["sweep"])
    lfbloch.config.load_sweep(path)
    return path


def run_sweep_a(lfbloch, job, manifest, path):
    out = job.workdir / "sweep.csv"
    code, _, error = job.call(
        lambda: lfbloch.cli.main(["sweep", path, "--output", str(out)]))
    job.tally(*checks.sweep_a(error or code, job.file_text(out),
                              manifest["points"]))
    out.unlink(missing_ok=True)


# --- verify_kappa ----------------------------------------------------------

def setup_verify_kappa(lfbloch, workdir, manifest):
    spec = json.loads((workdir / manifest["hosts"]).read_text("utf-8"))
    emitter = lfbloch.dynamics.EmitterParams(**spec["emitter"])
    params = [lfbloch.dynamics.MicroscopicParams(
        emitter=emitter, host=lfbloch.medium.HostSpecies(**host))
        for host in spec["hosts"]]
    return params, [float(k) for k in spec["kappas"]]


def run_verify_kappa(lfbloch, job, manifest, loaded):
    params, kappas = loaded
    code, out, error = job.call(lambda: lfbloch.cli.main(["verify", "--json"]))
    if error:
        job.tally(checks.BATTERY_CHECKS, [error] * checks.BATTERY_CHECKS)
    else:
        job.tally(*checks.battery(code, out))
    for p in params:
        rows, _, error = job.call(
            lambda p=p: lfbloch.verify.convergence_study(p, kappas))
        if error or not rows:
            job.tally(len(kappas), [error or "no rows"] * len(kappas))
        else:
            job.tally(*checks.convergence(
                kappas, [r.eigenvalue_error for r in rows],
                rows[-1].fitted_rate_error))


# --- simulate_cli ----------------------------------------------------------

def setup_simulate_cli(lfbloch, workdir, manifest):
    for run in manifest["runs"]:
        lfbloch.config.load_scenario(str(workdir / run["config"]))
    return None


def run_simulate_cli(lfbloch, job, manifest, _):
    for run in manifest["runs"]:
        out = job.workdir / run["output"]
        if run["model"] == "both":
            csvs = [out.with_name(f"{out.stem}_{m}{out.suffix}")
                    for m in ("A", "B")]
        else:
            csvs = [out]
        argv = ["simulate", str(job.workdir / run["config"]),
                "--output", str(out), "--json"]
        code, text, error = job.call(lambda: lfbloch.cli.main(argv))
        for path in csvs:
            if path.exists():
                job.out_bytes += path.stat().st_size
        job.tally(*checks.simulate_cli(error or code, text,
                                       [str(p) for p in csvs], run["points"]))
        for path in csvs:
            path.unlink(missing_ok=True)


JOBS = {
    "sweep_a": (setup_sweep_a, run_sweep_a),
    "verify_kappa": (setup_verify_kappa, run_verify_kappa),
    "simulate_cli": (setup_simulate_cli, run_simulate_cli),
}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workdir", type=Path)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.alarm(TIME_LIMIT_S)

    import lfbloch
    import lfbloch.cli
    if not Path(lfbloch.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"lfbloch imported from {lfbloch.__file__}, not from the "
              f"checkout's src/", file=sys.stderr)
        return 2
    manifest = json.loads((args.workdir / "manifest.json").read_text("utf-8"))
    setup, run = JOBS[manifest["workload"]]
    loaded = setup(lfbloch, args.workdir, manifest)
    print("ready", flush=True)

    probe = tracing.Tracer() if args.trace else tracing.RhsCounter()
    sampler = None if args.trace else speed.Sampler()
    job = Job(args.workdir)
    probe.install()
    if sampler:
        sampler.start()
    try:
        run(lfbloch, job, manifest, loaded)
    finally:
        if sampler:
            sampler.stop()
        probe.uninstall()

    if sampler:
        calls = [sampler.own_s(*iv) for iv in job.intervals]
        ref_calls = [sampler.ref_s(*iv) for iv in job.intervals]
        host_speed = speed.speed(sampler.durations)
    else:
        calls = [t1 - t0 for t0, t1 in job.intervals]
        ref_calls = host_speed = None
    result = {
        "wall_s": sum(calls),
        "calls": calls,
        "ref_calls": ref_calls,
        "host_speed": host_speed,
        "attempted": job.attempted,
        "failures": job.failures,
        "out_bytes": job.out_bytes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    if args.trace:
        spans_path = args.workdir / "spans.json"
        probe.write(spans_path)
        result["spans"] = str(spans_path)
    else:
        result["rhs_evals"] = probe.rhs_evals
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
