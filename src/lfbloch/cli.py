"""Command-line front end: factor, compare, simulate, verify, sweep.

Exit codes: 0 success, 2 validation failure (bad arguments or config,
or an output file that cannot be opened), 3 integrator failure (the CSV
holds only the header and a failure marker line giving the failure time
and cause), 4 verification-check failure.
All numeric output uses 12 significant digits (``NUMBER_FORMAT``), and
identical inputs produce byte-identical output.  Text output formats
one number at a time; the ``simulate`` and ``compare`` tables are
formatted a block of rows at a time by ``lfbloch.csvrows`` (imported on
first use), which writes the same bytes as one ``%``-format per row.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

from lfbloch import __version__
from lfbloch.config import (
    ConfigError,
    ScenarioConfig,
    SweepSpec,
    load_scenario,
    load_sweep,
    parse_scenario,
)
from lfbloch.dynamics import (
    DriveEnvelope,
    EffectiveParams,
    MicroscopicParams,
    SystemState,
    Trajectory,
    integrate,
    integrate_batch,
)
from lfbloch.medium import (
    HostSpecies,
    SingularHostError,
    level_shift,
    local_field_factor,
    rate_comparison,
)
from lfbloch.ode import StepSizeUnderflowError
from lfbloch.verify import (
    FitWindowError,
    SamplingTooCoarseError,
    default_fit_window,
    fit_decay,
    fit_frequency,
    predicted_slow_eigenvalue,
    run_battery,
    slow_eigenvalue,
    weak_excitation_run,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INTEGRATION = 3
EXIT_VERIFY = 4

# rows of one compare table (about 5 MB of CSV); a larger grid would
# be built in memory before the first row is written
COMPARE_MAX_ROWS = 100_000

TRAJECTORY_HEADER = ["t", "re_s", "im_s", "w", "re_beta", "im_beta"]
SWEEP_HEADER = ["value", "re_ell", "im_ell", "gamma_fit", "shift", "error"]
# of every number written: cells through _fmt, and the simulate and
# compare tables through lfbloch.csvrows, which writes the bytes of
# "%.12g" and no other format (tests/test_cli.py pins the two equal)
NUMBER_FORMAT = ".12g"


def _fmt(x: float) -> str:
    """12 significant digits, compact."""
    return format(x, NUMBER_FORMAT)


def _fmt_complex(z: complex) -> str:
    return f"{_fmt(z.real)} {'+' if z.imag >= 0 else '-'} {_fmt(abs(z.imag))}i"


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_VALIDATION


def _unwritable(path: str, exc: OSError) -> int:
    return _fail(f"cannot write {path}: {exc.strerror or exc}")


# ---------------------------------------------------------------------------
# factor
# ---------------------------------------------------------------------------

def cmd_factor(args) -> int:
    try:
        try:
            host = HostSpecies(delta_b=args.delta_b, eps_b=args.eps_b,
                               gamma_b=args.gamma_b)
        except SingularHostError:
            if args.eps_b == 0.0:
                # no host at all: the vacuum limit is well defined
                host = None
            else:
                raise
        if host is None:
            ell, index = 1.0 + 0j, 1.0 + 0j
        else:
            factor = local_field_factor(host)
            ell, index = factor.ell, factor.refractive_index
        shift = level_shift(ell, args.gamma_a)
    except ValueError as exc:
        return _fail(str(exc))

    if args.json:
        print(json.dumps({
            "ell": [ell.real, ell.imag],
            "refractive_index": [index.real, index.imag],
            "re_ell": ell.real,
            "im_ell": ell.imag,
            "level_shift": shift,
            "gamma_a": args.gamma_a,
        }, indent=2))
        return EXIT_OK

    print(f"ell              = {_fmt_complex(ell)}")
    print(f"refractive index = {_fmt_complex(index)}")
    print(f"Re(ell)          = {_fmt(ell.real)}")
    print(f"Im(ell)          = {_fmt(ell.imag)}")
    print(f"level shift      = {_fmt(shift)}  "
          f"(|Im(ell)|*gamma_a/2 at gamma_a = {_fmt(args.gamma_a)})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def cmd_compare(args) -> int:
    for flag, value in (("--n-min", args.n_min), ("--n-max", args.n_max),
                        ("--step", args.step)):
        if not math.isfinite(value):
            return _fail(f"{flag} must be finite, got {value!r}")
    if args.step <= 0.0:
        return _fail(f"--step must be positive, got {args.step!r}")
    if args.n_max < args.n_min:
        return _fail(f"--n-max must be >= --n-min, got "
                     f"{args.n_max!r} < {args.n_min!r}")
    rows_wanted = (args.n_max - args.n_min) / args.step + 1.0
    if rows_wanted > COMPARE_MAX_ROWS:
        return _fail(f"--step {args.step!r} over [{args.n_min!r}, "
                     f"{args.n_max!r}] gives {rows_wanted:.4g} rows; at "
                     f"most {COMPARE_MAX_ROWS} are allowed")
    if args.n_min + args.step == args.n_min:
        return _fail(f"--step {args.step!r} does not advance --n-min "
                     f"{args.n_min!r}: it is below the float spacing there")
    # n_max is a row when it lies within 1e-9 of a step of the grid
    ns = [args.n_min + k * args.step
          for k in range(math.floor(rows_wanted + 1e-9))]
    # n rises with k, and so does its %.12g: a repeat is of neighbours
    printed = ["%.12g" % n for n in ns]
    for k, (a, b) in enumerate(zip(printed, printed[1:])):
        if a == b:
            return _fail(f"--step {args.step!r} is below the 12 significant "
                         f"digits of the table: rows {k} and {k + 1} "
                         f"both print n = {a}")
    try:
        rows = [rate_comparison(n) for n in ns]
    except ValueError as exc:
        return _fail(str(exc))

    from lfbloch.csvrows import format_rows
    cols = np.array([(row.n, row.re_ell, row.virtual_cavity, row.onsager)
                     for row in rows]).T
    text = "n,re_ell,virtual_cavity,onsager\n" \
        + b"".join(format_rows(cols)).decode("ascii")
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            return _unwritable(args.output, exc)
    else:
        sys.stdout.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _write_trajectory_csv(path: str, traj: Trajectory | None,
                          failure: str | None = None) -> None:
    # imported on first use: sweep and verify never build its tables
    from lfbloch.csvrows import format_rows
    with open(path, "wb") as fh:
        fh.write((",".join(TRAJECTORY_HEADER) + "\n").encode())
        if traj is not None:
            s, beta = traj.s, traj.beta
            cols = [traj.times, s.real, s.imag, traj.w]
            end = ",,\n"  # model A leaves the beta columns empty
            if beta is not None:
                cols += [beta.real, beta.imag]
                end = "\n"
            fh.writelines(format_rows(cols, end))
        if failure is not None:
            fh.write(f"# INTEGRATION FAILED: {failure}\n".encode())


def _model_paths(base: str, models: list[str]) -> dict[str, str]:
    if len(models) == 1:
        return {models[0]: base}
    stem, ext = os.path.splitext(base)
    ext = ext or ".csv"
    return {m: f"{stem}_{m}{ext}" for m in models}


def _build_params(cfg: ScenarioConfig, model: str):
    if model == "A":
        return EffectiveParams(emitter=cfg.emitter, ell=cfg.resolved_ell())
    return MicroscopicParams(emitter=cfg.emitter, host=cfg.host)


def _fit_summary(cfg: ScenarioConfig, model: str,
                 params: EffectiveParams | MicroscopicParams,
                 traj: Trajectory) -> dict:
    """Fit the configured observable and compare to the predictions."""
    ell = cfg.resolved_ell()
    gamma_a = cfg.emitter.gamma_a
    lam_pred = predicted_slow_eigenvalue(ell, cfg.emitter)
    out: dict = {
        "predictions": {
            "ell": [ell.real, ell.imag],
            "population_rate": ell.real * gamma_a,
            "coherence_decay": -lam_pred.real,
            "frequency": lam_pred.imag,
        }
    }
    if model == "B":
        lam = slow_eigenvalue(params)
        out["predictions"]["slow_eigenvalue"] = [lam.real, lam.imag]

    observable = cfg.fit.observable
    target = (ell.real * gamma_a if observable == "w_plus_1"
              else -lam_pred.real)
    window = cfg.fit.window
    try:
        if window is None:
            window = default_fit_window(target)
        fit = fit_decay(traj, observable=observable, window=window)
    except ValueError as exc:
        out["fit"] = {"error": str(exc)}
        return out
    out["fit"] = {
        "observable": observable,
        "window": [window[0], window[1]],
        "rate": fit.rate,
        "residual": fit.residual,
    }
    errors = {}
    if target > 0:
        errors["rate_vs_prediction"] = abs(fit.rate - target) / target
    if model == "B" and observable == "abs_s":
        exact = -out["predictions"]["slow_eigenvalue"][0]
        if exact > 0:
            errors["rate_vs_eigenvalue"] = abs(fit.rate - exact) / exact
    out["relative_errors"] = errors
    try:
        freq = fit_frequency(traj, window=window)
        out["fit"]["frequency"] = freq.frequency
        out["fit"]["frequency_residual"] = freq.residual
    except (FitWindowError, SamplingTooCoarseError):
        pass
    return out


def _print_run_summary(model: str, path: str, traj: Trajectory,
                       summary: dict) -> None:
    print(f"model {model}: {len(traj.y)} samples -> {path}")
    print(f"  integrator: {traj.n_accepted} accepted, "
          f"{traj.n_rejected} rejected, {traj.n_rhs} rhs evaluations")
    pred = summary["predictions"]
    print(f"  ell = {_fmt_complex(complex(*pred['ell']))}; predicted "
          f"population rate {_fmt(pred['population_rate'])}, coherence "
          f"decay {_fmt(pred['coherence_decay'])}, frequency "
          f"{_fmt(pred['frequency'])}")
    if "slow_eigenvalue" in pred:
        print(f"  slow eigenvalue (exact) = "
              f"{_fmt_complex(complex(*pred['slow_eigenvalue']))}")
    fit = summary["fit"]
    if "error" in fit:
        print(f"  fit skipped: {fit['error']}")
        return
    print(f"  fit ({fit['observable']} on [{_fmt(fit['window'][0])}, "
          f"{_fmt(fit['window'][1])}]): Gamma_fit = {_fmt(fit['rate'])}")
    for name, value in summary.get("relative_errors", {}).items():
        print(f"    {name.replace('_', ' ')}: {_fmt(value)}")
    if "frequency" in fit:
        print(f"  fitted frequency = {_fmt(fit['frequency'])}")


def cmd_simulate(args) -> int:
    try:
        cfg = load_scenario(args.config)
    except (ConfigError, OSError) as exc:
        return _fail(str(exc))

    models = ["A", "B"] if cfg.model == "both" else [cfg.model]
    base_path = args.output or cfg.output.trajectory or "trajectory.csv"
    paths = _model_paths(base_path, models)

    try:
        params = {m: _build_params(cfg, m) for m in models}
    except ValueError as exc:
        return _fail(str(exc))

    trajectories: dict[str, Trajectory] = {}
    for m in models:
        # model A carries no host amplitude, even in a "both" scenario
        initial = cfg.initial if m == "B" else replace(cfg.initial, beta=None)
        failure = None
        try:
            traj = integrate(params[m], initial, cfg.integration)
        except StepSizeUnderflowError as exc:
            traj, failure = None, str(exc)
        except ValueError as exc:
            return _fail(str(exc))
        except MemoryError:
            return _fail(f"scenario.integration.points: "
                         f"{cfg.integration.points} samples do not fit in "
                         f"memory")
        try:
            _write_trajectory_csv(paths[m], traj, failure)
        except OSError as exc:
            return _unwritable(paths[m], exc)
        if failure is not None:
            print(f"error: model {m} integration failed: {failure}",
                  file=sys.stderr)
            return EXIT_INTEGRATION
        trajectories[m] = traj

    summaries = {m: _fit_summary(cfg, m, params[m], trajectories[m])
                 for m in models}
    report: dict = {"model": cfg.model, "runs": {}}
    for m in models:
        traj = trajectories[m]
        report["runs"][m] = {
            "csv": paths[m],
            "samples": len(traj.y),
            "n_accepted": traj.n_accepted,
            "n_rejected": traj.n_rejected,
            "n_rhs": traj.n_rhs,
            **summaries[m],
        }
    if len(models) == 2:
        ta, tb = trajectories["A"], trajectories["B"]
        ds = ta.s - tb.s  # np.hypot, not np.abs, is bitwise abs(a - b)
        report["cross_model"] = {
            "max_coherence_deviation": float(np.max(np.hypot(ds.real,
                                                             ds.imag))),
            "max_inversion_deviation": float(np.max(np.abs(ta.w - tb.w))),
        }

    if args.json:
        print(json.dumps(report, indent=2))
        return EXIT_OK
    for m in models:
        _print_run_summary(m, paths[m], trajectories[m], summaries[m])
    if "cross_model" in report:
        cross = report["cross_model"]
        print(f"cross-model deviation: max |s_A - s_B| = "
              f"{_fmt(cross['max_coherence_deviation'])}, max |w_A - w_B| "
              f"= {_fmt(cross['max_inversion_deviation'])}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    checks = run_battery()
    all_passed = all(c.passed for c in checks)
    if args.json:
        print(json.dumps({
            "passed": all_passed,
            "checks": [{
                "name": c.name,
                "passed": c.passed,
                "value": None if math.isnan(c.value) else c.value,
                "threshold": c.threshold,
                "detail": c.detail,
            } for c in checks],
        }, indent=2))
    else:
        for c in checks:
            status = " ok " if c.passed else "FAIL"
            value = "nan" if math.isnan(c.value) else _fmt(c.value)
            print(f"[{status}] {c.name}: value {value} vs threshold "
                  f"{_fmt(c.threshold)} - {c.detail}")
        print("all checks passed" if all_passed
              else "verification FAILED")
    return EXIT_OK if all_passed else EXIT_VERIFY


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

# Sweep points integrated per lockstep batch, by reduction: in a larger
# batch a pass's fixed numpy call overhead is shared by more rows, while
# peak memory grows with it (every row's samples stay alive until the
# batch ends).  A batch keeps only the component that its reduction
# reads (_SWEEP_POINTS) and no time arrays: 8 bytes per sample for
# model A (w) and 16 for model B (s).
SWEEP_CHUNK = {"population_rate_model_a": 256, "coherence_rate_model_b": 192}


def _sweep_value(spec: SweepSpec, index: int) -> str:
    value = spec.values[index]
    return _fmt(value) if not isinstance(value, complex) \
        else _fmt_complex(value)


def _sweep_error(spec: SweepSpec, index: int, exc: Exception) -> list[str]:
    # every domain error is a ValueError (config, singular host, fit
    # window, aliasing) or an integrator failure; recorded per point,
    # the run continues
    return [_sweep_value(spec, index), "", "", "", "",
            f"{type(exc).__name__}: {exc}"]


def _population_rate_point(cfg: ScenarioConfig):
    """Model-A decay run of a point, and its reduction to (ell, rate, shift).

    The rate is the population decay fitted from full inversion with the
    drive off; the shift is the level shift of ell.
    """
    ell = cfg.resolved_ell()
    emitter = cfg.emitter
    if emitter.drive != DriveEnvelope():
        emitter = replace(emitter, drive=DriveEnvelope())
    params = EffectiveParams(emitter=emitter, ell=ell)
    rate_guess = ell.real * emitter.gamma_a
    window = default_fit_window(rate_guess)
    run = (params, SystemState(s=0j, w=1.0),
           replace(cfg.integration, span=6.5 / rate_guess))

    def reduce(traj: Trajectory):
        rate = fit_decay(traj, observable="w_plus_1", window=window).rate
        return ell, rate, level_shift(ell, emitter.gamma_a)
    return run, reduce


def _coherence_rate_point(cfg: ScenarioConfig):
    """Model-B weak-excitation run of a point, and its reduction.

    The rate is twice the fitted |s| decay; the shift is the fitted
    coherence frequency less delta_a.
    """
    ell = cfg.resolved_ell()
    run = weak_excitation_run(MicroscopicParams(emitter=cfg.emitter,
                                                host=cfg.host),
                              tol=cfg.integration.tol)

    def reduce(traj: Trajectory):
        lam_pred = predicted_slow_eigenvalue(ell, cfg.emitter)
        window = default_fit_window(-lam_pred.real)
        rate = fit_decay(traj, observable="abs_s", window=window).rate
        shift = fit_frequency(traj, window=window).frequency
        return ell, 2.0 * rate, shift - cfg.emitter.delta_a
    return run, reduce


# each reduction's point, and the components that its reduction reads,
# which are all that its batches keep
_SWEEP_POINTS = {"population_rate_model_a": (_population_rate_point, ("w",)),
                 "coherence_rate_model_b": (_coherence_rate_point, ("s",))}


def _sweep_chunk(spec: SweepSpec, indices: range) -> list[list[str]]:
    """The rows of a run of sweep points, integrated as one batch."""
    point, keep = _SWEEP_POINTS[spec.reduction]
    rows: dict[int, list[str]] = {}
    reducers, runs = [], []
    for index in indices:
        try:
            run, reduce = point(parse_scenario(spec.point_raw(index),
                                               source=f"point[{index}]"))
        except ValueError as exc:
            rows[index] = _sweep_error(spec, index, exc)
            continue
        reducers.append((index, reduce))
        runs.append(run)

    try:
        trajectories = integrate_batch(runs, keep=keep)
    except MemoryError:  # named by the point with the most samples
        k = max(range(len(runs)), key=lambda k: runs[k][2].points)
        raise ConfigError(f"point[{reducers[k][0]}].integration.points: "
                          f"{runs[k][2].points} samples do not fit in "
                          f"memory") from None
    for (index, reduce), traj in zip(reducers, trajectories):
        try:
            if isinstance(traj, Exception):
                raise traj
            ell, gamma_fit, shift = reduce(traj)
        except (ValueError, StepSizeUnderflowError) as exc:
            rows[index] = _sweep_error(spec, index, exc)
            continue
        rows[index] = [_sweep_value(spec, index), _fmt(ell.real),
                       _fmt(ell.imag), _fmt(gamma_fit), _fmt(shift), ""]
    return [rows[index] for index in indices]


def cmd_sweep(args) -> int:
    try:
        spec = load_sweep(args.sweep)
    except (ConfigError, OSError) as exc:
        return _fail(str(exc))

    # opened before the first chunk is integrated, so that a path that
    # cannot be written fails at once
    try:
        fh = open(args.output, "w", newline="", encoding="utf-8") \
            if args.output else sys.stdout
    except OSError as exc:
        return _unwritable(args.output, exc)
    n_points = len(spec.values)
    try:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SWEEP_HEADER)
        chunk = SWEEP_CHUNK[spec.reduction]
        for start in range(0, n_points, chunk):
            writer.writerows(_sweep_chunk(
                spec, range(start, min(start + chunk, n_points))))
    except ConfigError as exc:  # a chunk too large for memory
        return _fail(str(exc))
    finally:
        if args.output:
            fh.close()
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Built once per process: parsing leaves the parser unchanged."""
    parser = argparse.ArgumentParser(
        prog="lfbloch",
        description="Local-field-corrected spontaneous emission: "
                    "factor algebra, Bloch-model simulation, and "
                    "verification of host elimination.",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("factor",
                       help="local-field factor of a host species")
    p.add_argument("--delta-b", type=float, default=0.0,
                   help="host detuning (gamma_a units)")
    p.add_argument("--eps-b", type=float, required=True,
                   help="host NDD coupling strength (gamma_a units)")
    p.add_argument("--gamma-b", type=float, default=0.0,
                   help="host radiative rate (gamma_a units)")
    p.add_argument("--gamma-a", type=float, default=1.0,
                   help="emitter rate used for the level shift")
    p.add_argument("--json", action="store_true",
                   help="machine-readable output")
    p.set_defaults(func=cmd_factor)

    p = sub.add_parser("compare",
                       help="rate-comparison table over real indices n")
    p.add_argument("--n-min", type=float, default=1.0)
    p.add_argument("--n-max", type=float, default=2.0)
    p.add_argument("--step", type=float, default=0.1)
    p.add_argument("--output", help="CSV path (default: stdout)")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("simulate",
                       help="integrate a scenario file to a trajectory CSV")
    p.add_argument("config", help="scenario JSON file")
    p.add_argument("--output",
                   help="trajectory CSV path (overrides the config)")
    p.add_argument("--json", action="store_true",
                   help="JSON summary instead of text")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify",
                       help="run the built-in verification battery")
    p.add_argument("--json", action="store_true",
                   help="machine-readable report")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep",
                       help="sweep one parameter and reduce each point")
    p.add_argument("sweep", help="sweep JSON file")
    p.add_argument("--output", help="CSV path (default: stdout)")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_VALIDATION
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
