"""The lfbloch benchmark: one seeded workload, checked and measured.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload sweep_a --seed 1 --seconds 30 --trace 0

Workloads (see ``BENCHMARK.json`` and ``bench/plan.json`` for why each
one exists): ``sweep_a``, ``verify_kappa`` and ``simulate_cli``.

The runner writes the workload's inputs for ``--seed`` into a scratch
directory under ``.bench_work/`` and then runs the job in fresh child
interpreters (``bench/child.py``), one at a time.  The number of jobs
follows from ``--seconds`` and a fixed nominal job time per workload
(``JOB_S``), not from how fast the jobs run, so that every commit is
timed over the same number of jobs.  End-to-end times are medians over
the jobs of times scaled to a fixed reference host speed (``speed.py``),
because the host's own speed swings by 2x within seconds.  Each child
imports ``lfbloch`` from ``src/`` of this checkout.  With ``--trace 0``
every child is untraced and the end-to-end metrics are reported; with
``--trace 1`` untraced and traced children alternate and the per-layer
metrics are reported, including the tracing overhead.

Human-readable lines come first, one metric per line; the last line is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  Exit
code 0 when every output was correct, 1 when a check failed (the result
is still printed), 2 when the benchmark could not run (no result).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
MIN_JOBS = 3          # untraced jobs per --trace 0 run, at the least
MIN_PAIRS = 2         # untraced/traced pairs per --trace 1 run, at the least
# Nominal time of one untraced job (child start included) per workload at
# the reference host speed of speed.py, measured at the commit that added
# the benchmark.  A run makes round(seconds / JOB_S) jobs, or
# round(seconds / (TRACED_X * JOB_S)) untraced/traced pairs, so the job
# count, and with it the medians over jobs, is the same on every commit.
JOB_S = {"sweep_a": 2.3, "verify_kappa": 2.8, "simulate_cli": 4.0}
TRACED_X = 2.7        # an untraced plus a traced job, in untraced jobs
BUDGET_X = 2.5        # no new job starts after BUDGET_X * seconds ...
HARD_LIMIT_S = 120.0  # ... nor after this, whatever --seconds says
CHILD_TIMEOUT_S = 170.0

# name -> unit; the order is the order of the printed lines
END_TO_END = {
    "setup_s": "s", "wall_s": "s", "call_s.p50": "s", "call_s.p90": "s",
    "rhs_evals": "count", "peak_rss_mb": "MB",
}
PER_LAYER = {
    "config.calls": "count", "config.self_s": "s",
    "medium.calls": "count", "medium.self_s": "s",
    "dynamics.integrate_calls": "count", "dynamics.integrate_self_s": "s",
    "dynamics.rhs_calls": "count", "dynamics.rhs_self_s": "s",
    "dynamics.rhs_us_per_call": "us",
    "ode.solve_calls": "count", "ode.self_s": "s",
    "ode.self_us_per_step": "us", "ode.steps_accepted": "count",
    "ode.steps_rejected": "count", "ode.accept_ratio": "ratio",
    "ode.samples_per_step": "samples/step",
    "verify.fit_calls": "count", "verify.fit_self_s": "s",
    "verify.eig_calls": "count", "verify.eig_self_s": "s",
    "verify.other_self_s": "s", "verify.battery_s": "s",
    "cli.calls": "count", "cli.self_s": "s", "cli.out_bytes": "bytes",
    "trace.wall_s": "s", "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a wrong program output)."""


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_child(workdir: Path, trace: int) -> dict:
    """One job in a fresh interpreter; adds setup_s to its figures."""
    cmd = [sys.executable, str(HERE / "child.py"), str(workdir),
           "--trace", str(trace)]
    err_path = workdir / "child.err"
    with open(err_path, "w", encoding="utf-8") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                text=True, env=_child_env(), cwd=ROOT)
        try:
            first = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            rest = proc.stdout.read()
            proc.wait(timeout=CHILD_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
    lines = rest.strip().splitlines()
    if proc.returncode != 0 or first.strip() != "ready" or not lines:
        tail = err_path.read_text(encoding="utf-8")[-2000:]
        raise BenchError(f"child exited with {proc.returncode}:\n{tail}")
    result = json.loads(lines[-1])
    result["setup_s"] = setup_s
    return result


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def _p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[-1] \
        if len(values) > 1 else values[0]


def median_calls(jobs: list[dict], key: str) -> list[float]:
    """Each call's median time over the jobs.

    Identical jobs make identical calls into the program.  The calls are
    the benchmark's own (``Job.call`` in ``child.py``), so the figures
    do not depend on how the program is split into functions inside.
    """
    counts = {len(j[key]) for j in jobs}
    if len(counts) != 1:
        raise BenchError(f"identical jobs made different numbers of calls: "
                         f"{sorted(counts)}")
    return [statistics.median(runs) for runs in zip(*(j[key] for j in jobs))]


def job_count(workload: str, seconds: float, trace: int) -> int:
    """Untraced jobs (or untraced/traced pairs) a run makes."""
    if trace:
        return max(MIN_PAIRS, round(seconds / (TRACED_X * JOB_S[workload])))
    return max(MIN_JOBS, round(seconds / JOB_S[workload]))


def _layers(job: dict) -> dict:
    """Per-layer figures of one traced job, from the spans it wrote."""
    spans_path = Path(job["spans"])
    with open(spans_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    spans_path.unlink()
    m = tracer.layer_metrics(doc["spans"], doc["missing"], job["wall_s"])
    m["cli.out_bytes"] = job["out_bytes"]
    return m


def measure(workload: str, seconds: float, trace: int, workdir: Path
            ) -> tuple[dict, int, list[str], list[float], list[dict]]:
    """Run the jobs; return metrics, tallies, host speeds, untraced jobs."""
    modes = [0, 1] if trace else [0]
    wanted = job_count(workload, seconds, trace)
    least = MIN_PAIRS if trace else MIN_JOBS
    budget = min(BUDGET_X * seconds, HARD_LIMIT_S)
    jobs: dict[int, list[dict]] = {0: [], 1: []}
    start = time.perf_counter()
    for n in range(wanted):
        if n >= least and time.perf_counter() - start >= budget:
            break
        for mode in modes:
            job = run_child(workdir, mode)
            if mode:
                job["layers"] = _layers(job)
            jobs[mode].append(job)

    done = jobs[0] + jobs[1]
    attempted = sum(j["attempted"] for j in done)
    failures = [f for j in done for f in j["failures"]]
    rhs = {j["rhs_evals"] for j in jobs[0]}
    if len(rhs) != 1:
        failures.append(f"rhs_evals differs between identical jobs: {rhs}")
    rhs_evals = rhs.pop() if len(rhs) == 1 else None
    host_speed = [j["host_speed"] for j in jobs[0]]

    if not trace:
        calls = median_calls(jobs[0], "ref_calls")
        metrics = {
            # one set-up is too short to scale by the samples near it:
            # the run's median set-up is scaled by its median host speed
            "setup_s": _median([j["setup_s"] for j in jobs[0]])
            * _median(host_speed),
            "wall_s": _median([sum(j["ref_calls"]) for j in jobs[0]]),
            "call_s.p50": statistics.median(calls),
            "call_s.p90": _p90(calls),
            "rhs_evals": rhs_evals,
            "peak_rss_mb": _median([j["peak_rss_mb"] for j in jobs[0]]),
        }
        return metrics, attempted, failures, host_speed, jobs[0]

    layers = [j["layers"] for j in jobs[1]]
    for m in layers:
        traced_rhs = m.pop("trace.rhs_evals")
        if traced_rhs is not None and traced_rhs != rhs_evals:
            failures.append(f"traced job made {traced_rhs} rhs evaluations, "
                            f"untraced {rhs_evals}")
        if m["trace.unattributed_s"] < 0.0:
            failures.append("layer self times exceed the traced wall time")
    metrics = {name: _median([m[name] for m in layers])
               for name in PER_LAYER if name != "trace.overhead_s"}
    # raw times of alternating jobs; untraced wall_s leaves out the sampler
    metrics["trace.overhead_s"] = (_median([j["wall_s"] for j in jobs[1]])
                                   - _median([j["wall_s"] for j in jobs[0]]))
    return metrics, attempted, failures, host_speed, jobs[0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "lfbloch" / "__init__.py").is_file():
        print(f"error: no lfbloch sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        inputs.write_inputs(args.workload, args.seed, workdir)
        metrics, attempted, failures, host_speed, untraced = measure(
            args.workload, args.seconds, args.trace, workdir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    units = PER_LAYER if args.trace else END_TO_END
    failed = len(failures)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    if args.trace:
        print(f"  untraced/traced job pairs = {len(untraced)} (per-layer "
              f"figures are raw medians over the traced jobs)")
    else:
        print(f"  untraced jobs = {len(untraced)} (timings are medians over "
              f"this many jobs, scaled to the reference host speed)")
    for name, unit in units.items():
        print(f"  {name} = {metrics[name]} {unit}")
    print(f"  fail_frac = {failed / attempted if attempted else 1.0} "
          f"({failed} of {attempted} items)")
    print("  waiting: absent (no pool, lock or queue in these runs)")
    print(f"  host speed (ungated, 1 = reference) = median "
          f"{statistics.median(host_speed):.3f}, range "
          f"{min(host_speed):.3f}..{max(host_speed):.3f} over "
          f"{len(host_speed)} jobs")
    print(f"  unscaled (ungated): setup_s median "
          f"{_median([j['setup_s'] for j in untraced]):.4f} s, wall_s median "
          f"{_median([j['wall_s'] for j in untraced]):.4f} s")
    for message in failures[:10]:
        print(f"  FAILED: {message}")
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
