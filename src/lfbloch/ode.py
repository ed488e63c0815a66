"""Adaptive embedded Runge-Kutta integrator (Dormand-Prince 5(4)), batched.

Explicit 7-stage FSAL pair: the fifth-order solution is propagated, the
embedded fourth-order solution provides the per-step error estimate, and a
quartic interpolant gives dense output on an arbitrary evaluation grid.
Error control is applied to every real component with the mixed tolerance
scale ``atol + rtol*|y|``.

``solve`` advances a batch of B independent problems ("rows") of the same
size n in lockstep: one pass of the step loop attempts one step of every
unfinished row.  Each row keeps its own time, step size, accept/reject
decision, tolerances, sample grid and counters, and the stage algebra is
arranged so that each row's floating-point operations are exactly those
of the row integrated alone.  A row therefore takes the same steps and
yields the same bits in any batch; a single problem is a batch of one.
A row whose step size underflows stops with its own error while the
other rows go on.

A row is a sequence of pieces, each with its own smooth right-hand side
(say, a drive held constant between pulse edges) that every stage of a
step inside it calls, those at its end included.  The row restarts at
each piece's end as a fresh call would, so one call yields the bits and
counters of one call per piece, chained through ``y_end``.

The forms that keep a row's bits are narrow: stacked ``np.matmul`` of
a tableau row with the (B, i, n) stage slices, element-wise operations
with per-row (B, 1) columns, ``np.add.reduce`` along the row and
``np.sqrt``.  The step-size factor stays on Python floats (numpy's
power differs from CPython's ``**``), and dense output is one
(m, 4) @ (4, n) product per row and step: a (1, 4) @ (4, n) product is
not bitwise a row of an (m, 4) @ (4, n) one, and a stage-major
(7, B*n) product is not bitwise the per-row one either.

The run is fully deterministic for identical inputs and reports exact
accepted/rejected step counts per row.

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
from typing import Callable, Sequence

import numpy as np

__all__ = ["NonFiniteRhsError", "OdeResult", "StepSizeUnderflowError",
           "solve"]


class StepSizeUnderflowError(RuntimeError):
    """The controller pushed the step below the floating-point floor."""


class NonFiniteRhsError(StepSizeUnderflowError):
    """The step underflowed because the right-hand side went non-finite."""


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


_C_FLOAT = _C.tolist()  # stage times are Python-float arithmetic
_P_T = _P.T


@dataclass
class OdeResult:
    """Samples of every row on its grid plus per-row integrator statistics.

    Row b's samples are ``t[offsets[b]:offsets[b + 1]]`` and the same rows
    of ``y`` (see :meth:`row`).  ``errors[b]`` is None, or the
    StepSizeUnderflowError that stopped row b: its samples past the
    failure and its ``y_end[b]`` are NaN.  The counters are arrays so
    that ``np.sum`` totals them over the batch.
    """

    t: np.ndarray           # every row's grid, concatenated
    y: np.ndarray           # shape (t.size, n)
    offsets: np.ndarray     # shape (B + 1,)
    y_end: np.ndarray       # shape (B, n): state at t_end (for chaining)
    n_accepted: np.ndarray  # shape (B,)
    n_rejected: np.ndarray  # shape (B,)
    n_rhs: np.ndarray       # shape (B,)
    errors: list            # B entries: None or StepSizeUnderflowError

    def row(self, b: int) -> tuple[np.ndarray, np.ndarray]:
        """The (t, y) samples of row b."""
        lo, hi = self.offsets[b], self.offsets[b + 1]
        return self.t[lo:hi], self.y[lo:hi]


def _initial_step(rhs, t0, y0, f0, t_end, rtol, atol, max_step) -> float:
    """Starting-step heuristic of Hairer, Norsett & Wanner (I.4, alg. 4.14).

    ``t_end`` is the end of the piece that starts at t0.
    """
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
    elif not math.isfinite(d2):
        # f1 went non-finite, or 1/h0 overflowed on a piece shorter
        # than about 1e-302: keep h0, which fits in the piece
        h1 = h0
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, t_end - t0, max_step)


def _column(values: list[float]):
    """Per-row factors that broadcast over the rows of a (B, n) array.

    A batch of one gets its Python float: numpy multiplies an array by a
    scalar faster than by a (1, 1) column, with the same bits.
    """
    return values[0] if len(values) == 1 else np.array(values)[:, None]


def _underflow(t: float, h: float, nonfinite: bool) -> StepSizeUnderflowError:
    if nonfinite or not math.isfinite(h):
        error = NonFiniteRhsError
        cause = ("the right-hand side went non-finite (NaN or inf) "
                 "and every step past this point was rejected; "
                 "check the parameters and the drive")
    else:
        error = StepSizeUnderflowError
        cause = ("the problem is too stiff for the explicit "
                 "integrator at this tolerance; loosen tol or "
                 "reduce the fastest rate in the system")
    return error(f"step size underflow at t = {t:.6g} (h = {h:.3g}): "
                 f"{cause}")


class _Row:
    """Controller state of one unfinished row."""

    __slots__ = ("index", "f", "t", "h", "stop", "pieces", "last",
                 "nonfinite", "K", "times", "out", "i_out")

    def __init__(self, index, t, h, pieces, K, times, out, i_out):
        self.index, self.t, self.h = index, t, h
        (self.stop, self.f), self.pieces = pieces[0], pieces[:0:-1]
        self.last = self.nonfinite = False
        self.K = K  # this row's (7, n) stages: a view into the batch's
        self.times, self.out, self.i_out = times, out, i_out


def solve(
    pieces: Sequence[Sequence[tuple[float, Callable]]],
    t0: Sequence[float],
    y0: np.ndarray,
    t_eval: Sequence[np.ndarray],
    rtol: Sequence[float],
    atol: Sequence[float],
    max_step: float = math.inf,
) -> OdeResult:
    """Integrate ``dy_b/dt = f(t, y_b)`` from t0[b] through row b's pieces.

    Every argument but ``max_step`` holds one entry per row.  Rows may
    differ in span, pieces, tolerance and grid length; each is
    integrated exactly as it would be alone.

    Parameters
    ----------
    pieces : sequence of B non-empty sequences of (end_k, f_k) pairs
        Row b's right-hand side is f_k from the previous end (t0[b] for
        k = 0) up to and including end_k; the ends rise strictly above
        t0[b], and the last is the row's end.  f returns an array of
        shape (n,).  At each other end the row restarts as a new call
        from there would, at the cost of 2 more evaluations.
    t0 : sequence of B floats
        Start time of each row.
    y0 : ndarray, shape (B, n)
        Initial state of each row (real components).
    t_eval : sequence of B arrays
        Strictly increasing evaluation grid of each row, inside its
        span.  The solution is interpolated onto it with the quartic
        dense output.
    rtol, atol : sequences of B floats
        Relative/absolute tolerance of each row's error control.
    max_step : float, optional
        Upper bound on the step size of every row.

    Returns
    -------
    OdeResult
        All rows' samples, final states, counters and failures.  A row
        whose step size falls below the floating-point floor does not
        raise: its StepSizeUnderflowError is stored in ``errors`` and
        the other rows are integrated to their end.  The message says
        why, and is the same in any batch: the problem is too stiff for
        this explicit method at the given tolerance, or the right-hand
        side or the state went non-finite (a step whose error estimate
        or new state is NaN or inf is rejected, never accepted), and then
        the error is the subclass NonFiniteRhsError.

    Raises
    ------
    ValueError
        For arguments of different lengths, a ``y0`` that is not 2-D, or
        a row with no pieces, piece ends not rising strictly above its
        t0, an empty or non-increasing grid, or a grid outside its span.
    """
    y = np.array(y0, dtype=float)
    if y.ndim != 2:
        raise ValueError(f"y0 must have shape (batch, n), got {y.shape}")
    batch, n = y.shape
    if not (len(pieces) == len(t0) == len(t_eval) == len(rtol)
            == len(atol) == batch):
        raise ValueError("pieces, t0, t_eval, rtol and atol need one "
                         "entry per row of y0")
    t0 = [float(a) for a in t0]
    pieces = [[(float(end), f) for end, f in row] for row in pieces]
    grids = [np.asarray(g, dtype=float) for g in t_eval]
    for a, row, grid in zip(t0, pieces, grids):
        ends = [a] + [end for end, _ in row]
        if not row or not all(lo < hi for lo, hi in zip(ends, ends[1:])):
            raise ValueError(f"piece ends must rise strictly above "
                             f"t0 = {a!r}, got {ends[1:]!r}")
        if grid.size == 0:
            raise ValueError("empty evaluation grid")
        if np.any(np.diff(grid) <= 0.0):
            raise ValueError("evaluation grid must be strictly increasing")
        if grid[0] < a or grid[-1] > ends[-1]:
            raise ValueError(
                f"evaluation grid [{grid[0]!r}, {grid[-1]!r}] outside "
                f"integration span [{a!r}, {ends[-1]!r}]"
            )

    offsets = np.zeros(batch + 1, dtype=int)
    np.cumsum([g.size for g in grids], out=offsets[1:])
    y_all = np.full((offsets[-1], n), math.nan)
    y_end = np.full((batch, n), math.nan)
    n_accepted = [0] * batch
    n_rejected = [0] * batch
    n_pieces = [1] * batch
    errors = [None] * batch

    K = np.empty((batch, 7, n))
    act = []  # unfinished rows, in the order of the rows of y and K
    for b in range(batch):
        t, grid = t0[b], grids[b]
        out = y_all[offsets[b]:offsets[b + 1]]
        i_out = 0
        if grid[0] == t:
            out[0] = y[b]
            i_out = 1
        end, f = pieces[b][0]
        K[b, 0] = f(t, y[b])
        h = _initial_step(f, t, y[b], K[b, 0], end, rtol[b], atol[b],
                          max_step)
        act.append(_Row(b, t, h, pieces[b], K[b], grid, out, i_out))
    heads = [K[:, :i] for i in range(7)]
    rtol_col, atol_col = _column(list(rtol)), _column(list(atol))
    abs_y = np.abs(y)
    errs = None  # error norm of each row's last attempted step

    while True:
        # One pass over the rows: accept or reject the step just
        # attempted, then schedule the next one, retiring finished and
        # failed rows.  Step sizes and times stay Python floats.
        keep, steps, hs, accepted = [], [], [], []
        for r, row in enumerate(act):
            t, h = row.t, row.h
            retry = False
            if errs is not None:
                err = errs[r]
                if not err <= 1.0:
                    retry = True
                    n_rejected[row.index] += 1
                    row.nonfinite = not math.isfinite(err)
                    h *= _MIN_FACTOR if row.nonfinite else max(
                        _MIN_FACTOR, _SAFETY * err ** _ORDER_EXPONENT)
                else:
                    n_accepted[row.index] += 1
                    row.nonfinite = False
                    accepted.append(r)
                    t_new = row.stop if row.last else t + h
                    # dense output for grid points inside (t, t_new]
                    i_out = row.i_out
                    j = row.times.searchsorted(t_new, "right")
                    if j > i_out:
                        theta = (row.times[i_out:j] - t) / h
                        # theta^1..4, laid out as np.vander(theta, 5,
                        # increasing=True)[:, 1:] for the same product
                        powers = np.empty((j - i_out, 5))[:, 1:]
                        powers[...] = theta[:, None]
                        np.multiply.accumulate(powers, out=powers, axis=1)
                        row.out[i_out:j] = y[r] + h * (powers
                                                       @ (_P_T @ row.K))
                        row.i_out = j
                    h *= _MAX_FACTOR if err == 0.0 else min(
                        _MAX_FACTOR,
                        max(_MIN_FACTOR, _SAFETY * err ** _ORDER_EXPONENT))
                    t = row.t = t_new
                    if row.last and not row.pieces:
                        y_end[row.index] = y_new[r]
                        continue
                    if row.last:  # the next piece: restart as a new call
                        # would; the FSAL copy below moves f(t) to K[0]
                        row.stop, row.f = row.pieces.pop()
                        row.K[6] = row.f(t, y_new[r])
                        h = _initial_step(row.f, t, y_new[r], row.K[6],
                                          row.stop, rtol[row.index],
                                          atol[row.index], max_step)
                        n_pieces[row.index] += 1
            h = min(h, max_step)
            row.last = t + h >= row.stop
            # a step onto the piece's end may be shorter than the floor,
            # unless it repeats a rejected one (it would repeat forever)
            if not (h >= 10.0 * abs(math.nextafter(t, math.inf) - t)
                    or row.last and not retry):
                errors[row.index] = _underflow(t, h, row.nonfinite)
                continue
            if row.last:
                h = row.stop - t
            row.h = h
            keep.append(r)
            steps.append((row.K, row.f, t, h))
            hs.append(h)

        if len(accepted) == len(act):
            K[:, 0] = K[:, 6]
            y, abs_y = y_new, abs_new
        elif accepted:
            K[accepted, 0] = K[accepted, 6]
            y[accepted] = y_new[accepted]
            abs_y[accepted] = abs_new[accepted]
        if not keep:
            break
        if len(keep) < len(act):
            act = [act[r] for r in keep]
            y, K, abs_y = y[keep], K[keep], abs_y[keep]
            heads = [K[:, :i] for i in range(7)]
            rtol_col = _column([rtol[row.index] for row in act])
            atol_col = _column([atol[row.index] for row in act])
            for row, K_row in zip(act, K):
                row.K = K_row
            steps = [(row.K, row.f, row.t, row.h) for row in act]

        # stage evaluations (k1 carried over from the previous step, FSAL)
        h_col = _column(hs)
        for i in range(1, 6):
            stage = y + h_col * np.matmul(_A[i], heads[i])
            c = _C_FLOAT[i]
            for (K_row, f, t, h), y_stage in zip(steps, stage):
                K_row[i] = f(t + c * h, y_stage)
        y_new = y + h_col * np.matmul(_B, heads[6])
        for (K_row, f, t, h), y_row in zip(steps, y_new):
            K_row[6] = f(t + h, y_row)

        abs_new = np.abs(y_new)
        scale = atol_col + rtol_col * np.maximum(abs_y, abs_new)
        # np.mean(..., axis=1) without its Python-level overhead; adding
        # abs_new - abs_new (exactly 0, or NaN for a non-finite y_new,
        # whose inf scale would zero the estimate) rejects such a step
        errs = np.sqrt(np.add.reduce((h_col * np.matmul(_E, K) / scale) ** 2
                                     + (abs_new - abs_new),
                                     axis=1) / n).tolist()

    n_accepted = np.array(n_accepted)
    n_rejected = np.array(n_rejected)
    return OdeResult(t=np.concatenate(grids), y=y_all, offsets=offsets,
                     y_end=y_end, n_accepted=n_accepted,
                     n_rejected=n_rejected,
                     n_rhs=2 * np.array(n_pieces)
                     + 6 * (n_accepted + n_rejected), errors=errors)
