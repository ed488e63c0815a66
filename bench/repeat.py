"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the root of a checkout)::

    python3 bench/repeat.py --seeds 1-10 [--seconds 30] [--workloads a,b]
                            [--out runs.jsonl]

Runs ``bench/run.py`` once per (seed, workload), one at a time, and
alternates the workload order from one seed to the next so that a drift
of host speed does not always land on the same workload.  For every
end-to-end metric it prints the median and the quartile spread
``(q3 - q1) / median`` over the seeds, as ``statistics.quantiles(n=4)``
gives the quartiles, next to the metric's bound from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in bench["workloads"]))
    parser.add_argument("--out", type=Path,
                        help="append every result line to this file")
    args = parser.parse_args()
    workloads = args.workloads.split(",")

    results: dict[str, list[dict]] = {w: [] for w in workloads}
    for i, seed in enumerate(args.seeds):
        for workload in (workloads if i % 2 == 0 else workloads[::-1]):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload",
                   workload, "--seed", str(seed), "--seconds",
                   str(args.seconds)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, check=False)
            elapsed_s = time.perf_counter() - t0
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
                return 1
            result = json.loads(lines[-1])
            results[workload].append(result)
            values = {k: v["value"] for k, v in result["metrics"].items()}
            diagnostics = [line.strip() for line in lines
                           if "(ungated" in line]
            print(f"{workload} seed {seed} ({elapsed_s:.1f} s): "
                  f"{json.dumps(values)}", flush=True)
            if args.out:
                with open(args.out, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps({"workload": workload, "seed": seed,
                                         "elapsed_s": elapsed_s,
                                         "diagnostics": diagnostics,
                                         **result}) + "\n")

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    print(f"{'workload':14} {'metric':12} {'median':>12} {'spread':>8} "
          f"{'bound':>6}")
    worst = 0.0
    for workload, runs in results.items():
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            if len(values) < 2:
                continue
            s = spread(values)
            if name != "setup_s":
                worst = max(worst, s / bound)
            print(f"{workload:14} {name:12} {statistics.median(values):12.6g} "
                  f"{s:8.4f} {bound:6.3f}")
    print(f"largest spread as a share of its bound (setup_s excepted): "
          f"{worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
