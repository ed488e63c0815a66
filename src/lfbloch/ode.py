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

A row is a sequence of pieces, each with its own constants p (say, a
drive held constant between pulse edges) that every stage of a step
inside it reads, those at its end included.  The row restarts at each
piece's end as a fresh call would, so one call yields the bits and
counters of one call per piece, chained through ``y_end``.

Each stage is one right-hand-side call over all unfinished rows,
``rhs(t, Y, P)`` with the rows' stage times, states and piece
constants; the starting-step probe and a restart at a piece's end call
it on one row.  ``rhs`` must compute each row as it would alone (pure
element-wise arithmetic does).  The other forms that keep a row's bits
are narrow: stacked ``np.matmul`` of a tableau row with the (B, i, n)
stage slices, element-wise operations with per-row (B, 1) columns,
``np.add.reduce`` along the row and ``np.sqrt``.  The step-size factor
stays on Python floats (numpy's power differs from CPython's ``**``).

Dense output runs once per pass, after every row has been accepted or
rejected, as one stacked product ``_P_T @ K`` over the accepted rows
with grid points in their step, then the products of the theta powers
with it.  Below ``DENSE_ROWS`` accepted rows those are one
(m, 4) @ (4, n) product per row; from ``DENSE_ROWS`` up they are two
stacked products: a (G, 1, 4) stack of the rows with one sample and a
(G, mx, 4) stack of the rows with two or more, each padded to the
longest.  The two stacks stay apart because a (1, 4) @ (4, n)
product is not bitwise a row of an (m, 4) @ (4, n) one (nor is a
stage-major (7, B*n) product the per-row one); within each stack a row
gets the bits of its own product.  A row whose samples come out
non-finite stops there with ``NonFiniteRhsError``.

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
    """The row stopped on a non-finite value: of the right-hand side, of
    the state, or of its dense output."""


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


_P_T = _P.T

# Accepted rows in a pass at and above which dense output is stacked
# products over the rows; below it, one product per row is faster (see
# CHANGES.md)
DENSE_ROWS = 8


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


def _one_row(rhs, t: float, y: np.ndarray, p: np.ndarray) -> np.ndarray:
    """rhs at time t on the single row y with constants p."""
    return rhs(np.array([t]), y[None], p[None])[0]


def _initial_step(rhs, t0, y0, p, f0, t_end, rtol, atol, max_step) -> float:
    """Starting-step heuristic of Hairer, Norsett & Wanner (I.4, alg. 4.14).

    ``t_end`` is the end of the piece that starts at t0, whose constants
    are p.
    """
    scale = atol + rtol * np.abs(y0)
    d0 = math.sqrt(float(np.mean((y0 / scale) ** 2)))
    d1 = math.sqrt(float(np.mean((f0 / scale) ** 2)))
    # d1 is inf when f0/scale overflows (1/d1 would make h0 or h1 zero)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 or d1 == math.inf \
        else 0.01 * d0 / d1
    h0 = min(h0, t_end - t0, max_step)

    y1 = y0 + h0 * f0
    f1 = _one_row(rhs, t0 + h0, y1, p)
    d2 = math.sqrt(float(np.mean(((f1 - f0) / scale) ** 2))) / h0

    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    elif not (math.isfinite(d1) and math.isfinite(d2)):
        # f0 or f1 overflowed the error scale or went non-finite, or
        # 1/h0 overflowed on a piece shorter than about 1e-302: keep h0,
        # which fits in the piece
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


def _nonfinite(f: np.ndarray) -> str:
    """What went non-finite in a step whose right-hand side values are f:
    those, or else the state."""
    return "the state" if np.isfinite(f).all() else "the right-hand side"


def _underflow(t: float, h: float, culprit: str | None
               ) -> StepSizeUnderflowError:
    """The failure of a row whose step fell below the floor at t; culprit
    names what went non-finite, or is None for a stiff problem."""
    if culprit:
        error = NonFiniteRhsError
        cause = (f"{culprit} went non-finite (NaN or inf) "
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

    __slots__ = ("index", "t", "h", "stop", "pieces", "last", "nonfinite",
                 "K", "times", "out", "lo", "i_out")

    def __init__(self, index, t, h, pieces, K, times, out, lo, i_out):
        self.index, self.t, self.h = index, t, h
        # the current piece's end, then the later pieces, last first
        self.stop, self.pieces = pieces[0][0], pieces[:0:-1]
        self.last = self.nonfinite = False
        self.K = K  # this row's (7, n) stages: a view into the batch's
        # the row's grid and samples, which start at index lo of the batch's
        self.times, self.out, self.lo, self.i_out = times, out, lo, i_out


def _samples(times, t, h, y, Q, out):
    """Write into out the dense output at ``times`` of one row's step of
    length h from t, with state y and ``Q = _P_T @ K`` of its stages K;
    return out."""
    theta = (times - t) / h
    powers = theta.repeat(4).reshape(theta.size, 4)  # theta^1..4
    np.multiply.accumulate(powers, out=powers, axis=1)
    dy = powers @ Q
    dy *= h
    return np.add(y, dy, out=out)


def _dense_output(jobs, stacked, y, K, t_all, y_all) -> list:
    """Write the samples of the steps just accepted.

    Each job ``(r, row, t, h, i_out, j)`` is row r's step of length h
    from t, whose state and stages are ``y[r]`` and ``K[r]``, and the
    grid points ``i_out:j`` of the row inside it.  ``_P_T @ K`` is one
    stacked product over the jobs' rows; with ``stacked`` the products
    with the theta powers are stacked too (see the module docstring).
    Returns the jobs whose samples are not all finite.
    """
    if not jobs:
        return jobs
    # the jobs' rows only: a rejected row's stages may be inf or NaN
    rs = [job[0] for job in jobs]
    Q = np.matmul(_P_T, K if len(rs) == len(K) else K[rs])
    if not stacked:
        finite = True
        for (r, row, t, h, i_out, j), q in zip(jobs, Q):
            v = _samples(row.times[i_out:j], t, h, y[r], q,
                         row.out[i_out:j])
            # NaN or inf in v makes v . v non-finite (so may an overflow,
            # which the exact check below then clears)
            finite = finite and math.isfinite(np.vdot(v, v))
    else:
        _, rows, t, h, i_out, j = zip(*jobs)
        start = np.array([row.lo for row in rows]) + i_out
        m = np.subtract(j, i_out)
        t, h = np.array(t), np.array(h)
        y_r = y[rs]
        finite = True
        # the one-sample rows, then the others: a (G, mx, 4) stack with
        # each row's grid points, padded by repeating its last one
        for g in (np.flatnonzero(m == 1), np.flatnonzero(m > 1)):
            if not g.size:
                continue
            m_g = m[g, None]
            cols = np.arange(m_g.max())
            idx = start[g, None] + np.minimum(cols, m_g - 1)
            theta = (t_all[idx] - t[g, None]) / h[g, None]
            powers = theta.repeat(4).reshape(theta.shape + (4,))
            np.multiply.accumulate(powers, out=powers, axis=2)
            samples = y_r[g, None] + h[g, None, None] * np.matmul(powers,
                                                                  Q[g])
            valid = cols < m_g
            y_all[idx[valid]] = samples = samples[valid]
            finite = finite and np.isfinite(samples).all()
    if finite:
        return []
    failed = []
    for job in jobs:
        r, row, t, h, i_out, j = job
        out = row.out[i_out:j]
        if not np.isfinite(out).all():
            # a product overflowed on the way (the Shampine coefficients
            # exceed 1): redo it on y and K scaled by a power of two
            e = math.frexp(max(np.abs(y[r]).max(), np.abs(K[r]).max()))[1]
            np.ldexp(_samples(row.times[i_out:j], t, h, np.ldexp(y[r], -e),
                              _P_T @ np.ldexp(K[r], -e), out), e, out=out)
            if not np.isfinite(out).all():
                failed.append(job)
    return failed


def solve(
    rhs: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    pieces: Sequence[Sequence[tuple[float, Sequence[float]]]],
    t0: Sequence[float],
    y0: np.ndarray,
    t_eval: Sequence[np.ndarray],
    rtol: Sequence[float],
    atol: Sequence[float],
    max_step: float = math.inf,
) -> OdeResult:
    """Integrate ``dy_b/dt = rhs(t, y_b, p)`` through row b's pieces.

    Every argument but ``rhs`` and ``max_step`` holds one entry per row.
    Rows may differ in span, pieces, tolerance and grid length; each is
    integrated exactly as it would be alone.

    Parameters
    ----------
    rhs : callable ``rhs(t, Y, P) -> ndarray``
        The right-hand side of a set of rows: their times t (shape
        (m,)), states Y (shape (m, n)) and piece constants P (shape
        (m, k)); returns the (m, n) derivatives.  Row i of the result
        must depend on row i of the arguments alone, with the same bits
        for any m.
    pieces : sequence of B non-empty sequences of (end_k, p_k) pairs
        Row b's constants are p_k (k floats, the same k for every
        piece) from the previous end (t0[b] for k = 0) up to and
        including end_k; the ends rise strictly above t0[b], and the
        last is the row's end.  At each other end the row restarts as a
        new call from there would, at the cost of 2 more evaluations.
    t0 : sequence of B floats
        Start time of each row.
    y0 : ndarray, shape (B, n)
        Initial state of each row (real components).
    t_eval : sequence of B arrays
        Strictly increasing, finite evaluation grid of each row, inside
        its span.  The solution is interpolated onto it with the quartic
        dense output.
    rtol, atol : sequences of B floats
        Relative/absolute tolerance of each row's error control,
        positive and finite.
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
        the error is the subclass NonFiniteRhsError.  So it is when the
        samples of an accepted step overflow: the row stops at the
        step's start.

    Raises
    ------
    ValueError
        For arguments of different lengths, a ``y0`` that is not 2-D, a
        tolerance that is not positive and finite, or a row with no
        pieces, piece ends not rising strictly above its t0, pieces
        with different numbers of constants, an empty, non-finite or
        non-increasing grid, or a grid outside its span.
    """
    y = np.array(y0, dtype=float)
    if y.ndim != 2:
        raise ValueError(f"y0 must have shape (batch, n), got {y.shape}")
    batch, n = y.shape
    if not (len(pieces) == len(t0) == len(t_eval) == len(rtol)
            == len(atol) == batch):
        raise ValueError("pieces, t0, t_eval, rtol and atol need one "
                         "entry per row of y0")
    rtol, atol = [float(x) for x in rtol], [float(x) for x in atol]
    if not all(0.0 < x < math.inf for x in rtol + atol):
        raise ValueError(f"rtol and atol must be positive and finite, "
                         f"got rtol = {rtol!r}, atol = {atol!r}")
    t0 = [float(a) for a in t0]
    pieces = [[(float(end), tuple(map(float, p))) for end, p in row]
              for row in pieces]
    grids = [np.asarray(g, dtype=float) for g in t_eval]
    k = len(pieces[0][0][1]) if batch and pieces[0] else 0
    for a, row, grid in zip(t0, pieces, grids):
        ends = [a] + [end for end, _ in row]
        if not row or not all(lo < hi for lo, hi in zip(ends, ends[1:])):
            raise ValueError(f"piece ends must rise strictly above "
                             f"t0 = {a!r}, got {ends[1:]!r}")
        if any(len(p) != k for _, p in row):
            raise ValueError("every piece needs the same number of "
                             "constants")
        if grid.size == 0:
            raise ValueError("empty evaluation grid")
        if not np.all(np.isfinite(grid)):
            raise ValueError("evaluation grid must be finite")
        if np.any(np.diff(grid) <= 0.0):
            raise ValueError("evaluation grid must be strictly increasing")
        if grid[0] < a or grid[-1] > ends[-1]:
            raise ValueError(
                f"evaluation grid [{grid[0]!r}, {grid[-1]!r}] outside "
                f"integration span [{a!r}, {ends[-1]!r}]"
            )

    offsets = np.zeros(batch + 1, dtype=int)
    np.cumsum([g.size for g in grids], out=offsets[1:])
    t_all = np.concatenate(grids)
    y_all = np.full((offsets[-1], n), math.nan)
    y_end = np.full((batch, n), math.nan)
    n_accepted = [0] * batch
    n_rejected = [0] * batch
    n_pieces = [1] * batch
    errors = [None] * batch

    # the constants of each unfinished row's piece, in the order of act
    P = np.array([row[0][1] for row in pieces]).reshape(batch, k)
    K = np.empty((batch, 7, n))
    K[:, 0] = rhs(np.array(t0), y, P)
    act = []  # unfinished rows, in the order of the rows of y and K
    for b in range(batch):
        t, grid = t0[b], grids[b]
        lo = offsets[b]
        out = y_all[lo:offsets[b + 1]]
        i_out = 0
        if grid[0] == t:
            out[0] = y[b]
            i_out = 1
        h = _initial_step(rhs, t, y[b], P[b], K[b, 0], pieces[b][0][0],
                          rtol[b], atol[b], max_step)
        act.append(_Row(b, t, h, pieces[b], K[b], grid, out, lo, i_out))
    heads = [K[:, :i] for i in range(7)]
    rtol_col, atol_col = _column(rtol), _column(atol)
    abs_y = np.abs(y)
    errs = None  # error norm of each row's last attempted step

    while True:
        # One pass over the rows: accept or reject the step just
        # attempted, then schedule the next one, retiring finished and
        # failed rows.  Step sizes and times stay Python floats.
        keep, accepted, jobs, restarts = [], [], [], []
        for r, row in enumerate(act):
            t, h = row.t, row.h
            retry = False
            f = None  # f at t, if the row restarts there
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
                    # dense output for grid points inside (t, t_new],
                    # written once the pass is over
                    j = row.times.searchsorted(t_new, "right")
                    if j > row.i_out:
                        jobs.append((r, row, t, h, row.i_out, j))
                        row.i_out = j
                    h *= _MAX_FACTOR if err == 0.0 else min(
                        _MAX_FACTOR,
                        max(_MIN_FACTOR, _SAFETY * err ** _ORDER_EXPONENT))
                    t = row.t = t_new
                    if row.last and not row.pieces:
                        y_end[row.index] = y_new[r]
                        continue
                    if row.last:  # the next piece: restart as a new call
                        # would; f goes to K[6] once dense output has read
                        # K, and the FSAL copy then moves it to K[0]
                        row.stop, P[r] = row.pieces.pop()
                        f = _one_row(rhs, t, y_new[r], P[r])
                        restarts.append((r, f))
                        h = _initial_step(rhs, t, y_new[r], P[r], f,
                                          row.stop, rtol[row.index],
                                          atol[row.index], max_step)
                        n_pieces[row.index] += 1
            h = min(h, max_step)
            row.last = t + h >= row.stop
            # a step onto the piece's end may be shorter than the floor,
            # unless it repeats a rejected one (it would repeat forever)
            if not (h >= 10.0 * abs(math.nextafter(t, math.inf) - t)
                    or row.last and not retry):
                if row.nonfinite:  # the last attempt's stages
                    culprit = _nonfinite(row.K)
                elif math.isfinite(h):
                    culprit = None
                else:  # the starting step, from f at t
                    culprit = _nonfinite(row.K[0] if f is None else f)
                errors[row.index] = _underflow(t, h, culprit)
                continue
            if row.last:
                h = row.stop - t
            row.h = h
            keep.append(r)

        failed = _dense_output(jobs, len(accepted) >= DENSE_ROWS, y, K,
                               t_all, y_all)
        for r, row, t, h, i_out, _ in failed:  # the row stops at t
            row.out[i_out:] = math.nan
            y_end[row.index] = math.nan
            errors[row.index] = NonFiniteRhsError(
                f"dense output went non-finite at t = {t:.6g} (h = "
                f"{h:.3g}): the solution inside the step overflows the "
                f"float range; check the parameters and the drive")
            if r in keep:
                keep.remove(r)
        for r, f in restarts:
            K[r, 6] = f
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
            y, K, P, abs_y = y[keep], K[keep], P[keep], abs_y[keep]
            heads = [K[:, :i] for i in range(7)]
            rtol_col = _column([rtol[row.index] for row in act])
            atol_col = _column([atol[row.index] for row in act])
            for row, K_row in zip(act, K):
                row.K = K_row

        # stage evaluations (k1 carried over from the previous step,
        # FSAL), one rhs call each; the last two stages sit at t + h
        h_col = _column([row.h for row in act])
        stage_t = np.array([row.t for row in act])[:, None] + h_col * _C
        for i in range(1, 6):
            stage = y + h_col * np.matmul(_A[i], heads[i])
            K[:, i] = rhs(stage_t[:, i], stage, P)
        y_new = y + h_col * np.matmul(_B, heads[6])
        K[:, 6] = rhs(stage_t[:, 5], y_new, P)

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
    return OdeResult(t=t_all, y=y_all, offsets=offsets,
                     y_end=y_end, n_accepted=n_accepted,
                     n_rejected=n_rejected,
                     n_rhs=2 * np.array(n_pieces)
                     + 6 * (n_accepted + n_rejected), errors=errors)
