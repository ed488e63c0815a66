"""Correctness checks on the outputs of each workload.

Each check takes what the program returned or wrote and gives back
``(attempted, failures)``: the number of items checked and one message
per failed item.  A job fails when any item fails.  Standard library
only, so the self-test can feed the checks corrupted outputs directly.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os

SWEEP_HEADER = ["value", "re_ell", "im_ell", "gamma_fit", "shift", "error"]
TRAJECTORY_HEADER = ["t", "re_s", "im_s", "w", "re_beta", "im_beta"]

SWEEP_RATE_TOL = 1e-6        # |gamma_fit/re_ell - 1|; measured <= 1.1e-9
BATTERY_CHECKS = 7
KAPPA_RATIO_TOL = 0.10       # error ratio vs kappa ratio; measured <= 1%
LARGEST_KAPPA_RATE_TOL = 2e-2  # fitted rate error; measured <= 1.7e-4


def sweep_a(exit_code, csv_text: str, points: int) -> tuple[int, list[str]]:
    """One item per sweep point: no error row, gamma_fit = Re(ell)."""
    if exit_code != 0:
        return points, [f"sweep exited with {exit_code!r}"] * points
    rows = list(csv.reader(io.StringIO(csv_text)))
    if not rows or rows[0] != SWEEP_HEADER:
        return points, [f"sweep header {rows[:1]!r}"] * points
    body = rows[1:]
    failures = []
    if len(body) != points:
        failures += [f"sweep wrote {len(body)} rows, expected {points}"] \
            * max(points - len(body), 1)
    for row in body[:points]:
        if len(row) != len(SWEEP_HEADER) or row[5]:
            failures.append(f"sweep error row {row!r}")
            continue
        try:
            miss = abs(float(row[3]) / float(row[1]) - 1.0)
        except (ValueError, ZeroDivisionError):
            miss = float("nan")
        if not miss <= SWEEP_RATE_TOL:
            failures.append(f"value {row[0]}: gamma_fit/re_ell - 1 = "
                            f"{miss:.3g} > {SWEEP_RATE_TOL:g}")
    return points, failures[:points]


def battery(exit_code, json_text: str) -> tuple[int, list[str]]:
    """One item per battery check; all seven must pass."""
    try:
        report = json.loads(json_text)
        checks = report["checks"]
    except (ValueError, KeyError, TypeError) as exc:
        return BATTERY_CHECKS, [f"verify --json unreadable: {exc}"] \
            * BATTERY_CHECKS
    failures = [f"battery check {c.get('name')!r} failed: {c.get('detail')}"
                for c in checks if c.get("passed") is not True]
    if len(checks) != BATTERY_CHECKS:
        failures.append(f"battery ran {len(checks)} checks, expected "
                        f"{BATTERY_CHECKS}")
    if exit_code != 0 and not failures:
        failures.append(f"verify exited with {exit_code!r}")
    return max(len(checks), BATTERY_CHECKS), failures


def convergence(kappas, eigenvalue_errors, largest_rate_error
                ) -> tuple[int, list[str]]:
    """Error ratios track kappa ratios (O(1/kappa)); the fit converges."""
    failures = []
    for i in range(len(kappas) - 1):
        want = kappas[i + 1] / kappas[i]
        try:
            got = eigenvalue_errors[i] / eigenvalue_errors[i + 1]
        except ZeroDivisionError:
            got = math.inf
        if not abs(got / want - 1.0) <= KAPPA_RATIO_TOL:
            failures.append(f"kappa {kappas[i]:g}->{kappas[i + 1]:g}: error "
                            f"ratio {got:.4g}, kappa ratio {want:.4g}")
    if not largest_rate_error <= LARGEST_KAPPA_RATE_TOL:
        failures.append(f"kappa {kappas[-1]:g}: fitted rate error "
                        f"{largest_rate_error:.3g} > "
                        f"{LARGEST_KAPPA_RATE_TOL:g}")
    return len(kappas), failures


def simulate_cli(exit_code, json_text: str, csv_paths: list[str],
                 points: int) -> tuple[int, list[str]]:
    """One item per call: exit 0, JSON parses, exact header, row count."""
    failures = []
    if exit_code != 0:
        failures.append(f"simulate exited with {exit_code!r}")
    try:
        json.loads(json_text)
    except ValueError as exc:
        failures.append(f"simulate --json unreadable: {exc}")
    for path in csv_paths:
        if not os.path.exists(path):
            failures.append(f"{os.path.basename(path)} not written")
            continue
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        if not rows or rows[0] != TRAJECTORY_HEADER:
            failures.append(f"{os.path.basename(path)} header {rows[:1]!r}")
        elif len(rows) - 1 != points:
            failures.append(f"{os.path.basename(path)} has {len(rows) - 1} "
                            f"rows, expected {points}")
    return 1, ["; ".join(failures)] if failures else []
