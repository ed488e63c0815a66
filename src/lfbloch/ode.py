"""Adaptive embedded Runge-Kutta integrator (Dormand-Prince 5(4)).

Explicit 7-stage FSAL pair: the fifth-order solution is propagated, the
embedded fourth-order solution provides the per-step error estimate, and a
quartic interpolant gives dense output on an arbitrary evaluation grid.
Error control is applied to every real component with the mixed tolerance
scale ``atol + rtol*|y|``.

The run is fully deterministic for identical inputs and reports exact
accepted/rejected step counts.

References
----------
Dormand & Prince, J. Comp. Appl. Math. 6, 19 (1980); Hairer, Norsett &
Wanner, "Solving Ordinary Differential Equations I" (step-size control and
starting-step heuristic); Shampine, Math. Comp. 46, 135 (1986) (dense
output coefficients).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["OdeResult", "StepSizeUnderflowError", "solve"]


class StepSizeUnderflowError(RuntimeError):
    """The controller pushed the step below the floating-point floor."""


# ---------------------------------------------------------------------------
# Dormand-Prince 5(4) tableau
# ---------------------------------------------------------------------------
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0])
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
]
_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
# difference between the 5th- and 4th-order weights, applied to all 7 stages
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200,
               22 / 525, -1 / 40])
# dense-output polynomial coefficients (Shampine): y(t0 + theta*h) =
# y0 + h * K.T @ _P @ [theta, theta^2, theta^3, theta^4]
_P = np.array([
    [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0.0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072],
    [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0.0, -282668133 / 205662961, 2019193451 / 616988883,
     -1453857185 / 822651844],
    [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_ORDER_EXPONENT = -0.2  # 1/(error estimator order + 1)


@dataclass
class OdeResult:
    """Solution samples on the requested grid plus integrator statistics."""

    t: np.ndarray
    y: np.ndarray          # shape (len(t), len(y0))
    y_end: np.ndarray      # state at t_end (for chaining segments)
    n_accepted: int
    n_rejected: int
    n_rhs: int


def _error_norm(err: np.ndarray, scale: np.ndarray) -> float:
    return math.sqrt(float(np.mean((err / scale) ** 2)))


def _initial_step(rhs, t0, y0, f0, t_end, rtol, atol, max_step):
    """Starting-step heuristic of Hairer, Norsett & Wanner (I.4, alg. 4.14)."""
    scale = atol + rtol * np.abs(y0)
    d0 = math.sqrt(float(np.mean((y0 / scale) ** 2)))
    d1 = math.sqrt(float(np.mean((f0 / scale) ** 2)))
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_end - t0, max_step)

    y1 = y0 + h0 * f0
    f1 = rhs(t0 + h0, y1)
    d2 = math.sqrt(float(np.mean(((f1 - f0) / scale) ** 2))) / h0

    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, t_end - t0, max_step), f1


def solve(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    t0: float,
    t_end: float,
    y0: np.ndarray,
    t_eval: np.ndarray,
    rtol: float,
    atol: float,
    max_step: float = math.inf,
) -> OdeResult:
    """Integrate ``dy/dt = rhs(t, y)`` from t0 to t_end.

    Parameters
    ----------
    rhs : callable
        Right-hand side returning an array of the same shape as ``y``.
    t0, t_end : float
        Integration span; ``t_end > t0``.
    y0 : ndarray
        Initial state (real components).
    t_eval : ndarray
        Strictly increasing evaluation grid inside ``[t0, t_end]``.  The
        solution is interpolated onto it with the quartic dense output.
    rtol, atol : float
        Relative/absolute tolerance of the per-step error control.
    max_step : float, optional
        Upper bound on the step size.

    Raises
    ------
    StepSizeUnderflowError
        If error control forces the step below the representable floor:
        the problem is too stiff for this explicit method at the given
        tolerance, or the right-hand side went non-finite (a step whose
        error estimate is NaN or inf is rejected, never accepted).
    ValueError
        For an empty or non-increasing grid, a grid outside the span, or a
        non-positive span.
    """
    y0 = np.asarray(y0, dtype=float)
    t_eval = np.asarray(t_eval, dtype=float)
    if not t_end > t0:
        raise ValueError(f"require t_end > t0, got [{t0!r}, {t_end!r}]")
    if t_eval.size == 0:
        raise ValueError("empty evaluation grid")
    if np.any(np.diff(t_eval) <= 0.0):
        raise ValueError("evaluation grid must be strictly increasing")
    if t_eval[0] < t0 or t_eval[-1] > t_end:
        raise ValueError(
            f"evaluation grid [{t_eval[0]!r}, {t_eval[-1]!r}] outside "
            f"integration span [{t0!r}, {t_end!r}]"
        )

    n = y0.size
    y_out = np.empty((t_eval.size, n))
    i_out = 0
    if t_eval[0] == t0:
        y_out[0] = y0
        i_out = 1

    K = np.empty((7, n))
    t, y = float(t0), y0.copy()
    K[0] = rhs(t, y)
    n_rhs = 1
    h, _ = _initial_step(rhs, t, y, K[0], t_end, rtol, atol, max_step)
    n_rhs += 1
    n_accepted = 0
    n_rejected = 0
    nonfinite = False  # the last rejection had a NaN/inf error estimate

    while t < t_end:
        h = min(h, max_step)
        min_step = 10.0 * abs(np.nextafter(t, math.inf) - t)
        if not h >= min_step:
            if nonfinite or not math.isfinite(h):
                cause = ("the right-hand side went non-finite (NaN or inf) "
                         "and every step past this point was rejected; "
                         "check the parameters and the drive")
            else:
                cause = ("the problem is too stiff for the explicit "
                         "integrator at this tolerance; loosen tol or "
                         "reduce the fastest rate in the system")
            raise StepSizeUnderflowError(
                f"step size underflow at t = {t:.6g} (h = {h:.3g}): {cause}")
        is_last = t + h >= t_end
        if is_last:
            h = t_end - t

        # stage evaluations (k1 carried over from the previous step, FSAL)
        for i in range(1, 6):
            K[i] = rhs(t + _C[i] * h, y + h * (_A[i] @ K[:i]))
        y_new = y + h * (_B @ K[:6])
        K[6] = rhs(t + h, y_new)
        n_rhs += 6

        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        err = _error_norm(h * (_E @ K), scale)

        if not err <= 1.0:
            n_rejected += 1
            nonfinite = not math.isfinite(err)
            h *= _MIN_FACTOR if nonfinite else max(
                _MIN_FACTOR, _SAFETY * err ** _ORDER_EXPONENT)
            continue

        n_accepted += 1
        nonfinite = False
        t_new = t_end if is_last else t + h
        # dense output for grid points inside (t, t_new]
        j = i_out
        while j < t_eval.size and t_eval[j] <= t_new:
            j += 1
        if j > i_out:
            theta = (t_eval[i_out:j] - t) / h
            powers = np.vander(theta, 5, increasing=True)[:, 1:]  # theta^1..4
            y_out[i_out:j] = y + h * (powers @ (_P.T @ K)).reshape(-1, n)
            i_out = j

        K[0] = K[6]
        factor = _MAX_FACTOR if err == 0.0 else min(
            _MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * err ** _ORDER_EXPONENT))
        h *= factor
        t, y = t_new, y_new

    if i_out < t_eval.size:  # grid points at t_end missed by roundoff
        y_out[i_out:] = y
    return OdeResult(t=t_eval, y=y_out, y_end=y, n_accepted=n_accepted,
                     n_rejected=n_rejected, n_rhs=n_rhs)
