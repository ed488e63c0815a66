"""Adaptive embedded Runge-Kutta integrators, batched: Dormand-Prince
5(4), and an exponential Runge-Kutta 4(3) method for stiff linear parts.

Dormand-Prince is the explicit 7-stage FSAL pair: the fifth-order
solution is propagated, the embedded fourth-order solution provides the
per-step error estimate, and a quartic interpolant gives dense output on
each row's uniform sample grid.  Error control is applied to every real
component with the row's error scale ``tol + tol*|y|``.

The exponential method (``solve(..., linear=(L, cols))``) splits each row
as ``y' = L y + N(t, y)`` with a constant complex 2x2 L acting on two
complex pairs of the state, and integrates L exactly through the
phi-functions of h L (``lfbloch.exponential``, imported on first use):
its step is bounded by N alone, so its step count does not grow with
the stiffness of L, where Dormand-Prince's grows linearly.  A row that
has taken ``Exponential.span_steps`` steps is then held to error per
unit step, because the method's error adds up over its steps.  It takes
seven right-hand-side evaluations per attempted step against
Dormand-Prince's six, so it pays where L is stiff; the caller picks the
method per call (``lfbloch.dynamics`` sends model-B runs with a fast
host pole to it).  Rows integrated by Dormand-Prince keep their bits: a
call without ``linear`` runs exactly the code it ran before the second
method existed.

``solve`` advances a batch of B independent problems ("rows") of the same
size n in lockstep: one pass of the step loop attempts one step of every
unfinished row.  Each row keeps its own time, step size, accept/reject
decision, tolerance, sample grid and counters, and the stage algebra is
arranged so that each row's floating-point operations are exactly those
of the row integrated alone.  A row therefore takes the same steps and
yields the same bits in any batch; a single problem is a batch of one.
A row whose step size underflows stops with its own error while the
other rows go on.

Each row is sampled on a uniform grid of its own size from its start to
its end, ``grid(t0, end, points)``: ``np.linspace``'s points, bit for
bit.  No array holds the grids.  A grid point is computed where it is
needed, from its index, by linspace's arithmetic (``_points``), and the
grid points that a step covers are counted by an index computation: the
floor of the step's end over the grid step, fixed up by exact
comparisons with the points on either side (``_grid_index``), which
equals ``searchsorted`` on the built grid.  A batch therefore holds its
samples and no time arrays.

A row is a sequence of pieces, each with its own constants p (say, a
drive held constant between pulse edges) that every stage of a step
inside it reads, those at its end included.  The row restarts at each
piece's end as a fresh call would, so one call yields the bits and
counters of one call per piece, chained through ``y_end``.

Each stage is one right-hand-side call over all unfinished rows,
``rhs(t, Y, P)`` with the rows' stage times, states and piece
constants; so is the starting-step probe of the first step, and a
restart at a piece's end calls it on one row.  ``rhs`` must compute
each row as it would alone (pure element-wise arithmetic does).  The
other forms that keep a row's bits are narrow: stacked ``np.matmul`` of
a tableau row with the (B, i, n) stage slices, element-wise operations
with per-row (B, 1) columns, ``np.add.reduce`` along the row (which
sums a row of fewer than 8 terms as ``np.mean`` of that row alone does)
and ``np.sqrt``.

The step-size controller of a pass runs on (B,) arrays while more than
``FLOAT_ROWS`` rows are unfinished, and on one Python object per row
from there on (its per-row form, the controller of the float form
below).  The array form keeps each row's time, step size, piece end,
whether its step ends the piece, and the index of its next grid point.
Accept/reject is ``err <= 1`` (so NaN is rejected).  The step-size
factor is ``_SAFETY * err**exponent`` by ``np.float_power``, which is
CPython's ``**`` (``np.power`` is not), clipped by ``np.maximum`` and
``np.minimum``; a non-finite error is masked to ``_MIN_FACTOR``
(``np.maximum`` would propagate NaN where Python's ``max`` drops it),
and ``err == 0`` gives ``_MAX_FACTOR``.  The 10-ulp floor is
``np.nextafter``, and the grid points inside the accepted steps come
from ``_grid_index`` over every accepted row at once (the per-row form
runs ``_index``, its arithmetic on Python floats).  The rare events stay
per row in both forms: a restart at a piece's end, a failure and its
message.  Both forms do the same arithmetic, so a row takes the same
steps in either, and a run switches to the per-row form for good as its
rows finish.

Near the top of the float range a tableau sum of the stages may
overflow although its product with h does not.  A Dormand-Prince
attempt whose error norm comes out non-finite, from a finite state and
a first stage whose largest component is finite and 1 or more in size
(below 1 the scaling is 1 and would repeat the attempt), is therefore
redone once by the same function (``_attempt`` given the exponent e of
that stage) with its sums taken on the stages scaled by 2**-e, as dense
output redoes an overflowing step; a pass whose norms are all finite
never gets there.  The redone attempt's evaluations count in ``n_rhs``.

A pass of at most ``FLOAT_ROWS`` Dormand-Prince rows of n < 8
components runs in Python floats when ``solve`` is also given the
per-row form of the right-hand side (``row_rhs``): on so few rows numpy's
call overhead is the cost of a pass.  Only the tableau products stay
numpy's, the same stacked ``np.matmul`` calls as in the array form,
read back as lists.  Each stage state ``y + h*k``, the new state and the
error norm are the array form's operations, element by element, on
Python floats, which have the same IEEE bits (``x * x`` for ``x ** 2``,
a comparison for ``np.maximum`` of non-negative values).  The sum of
squares runs left to right: that is how ``np.add.reduce`` sums fewer
than 8 terms (from 8 on it sums pairwise, hence the bound on n).  A row
therefore takes the same steps in either form, and a run may switch to
the float form as its batch's rows finish.

Dense output runs once per pass, after every row has been accepted or
rejected, in the form of the pass's controller.  For Dormand-Prince it
is one stacked product ``_P_T @ K`` over the accepted rows with grid
points in their step, then the products of the theta powers with it,
theta from the grid points that ``_points`` computes.  On a pass of the
per-row controller those are one (m, 4) @ (4, n) product per row; on a
pass of the array controller they are two stacked products: a (G, 1,
4) stack of the rows with one sample and a (G, mx, 4) stack of the rows
with two or more, each padded to the longest by repeating a row's last
grid point.  The two stacks stay apart because a (1, 4) @ (4, n)
product is not bitwise a row of an (m, 4) @ (4, n) one (nor is a
stage-major (7, B*n) product the per-row one); within each stack a row
gets the bits of its own product, and a padding row those of its row's
last sample, so that a stack is written to the batch's samples whole.
The exponential method's samples come from its own order-4 extension of
each step (see ``lfbloch.exponential``).  A row whose samples come out
non-finite stops there with ``NonFiniteRhsError``.  When ``solve`` keeps
only some state columns, every pass is stacked, per-row passes too: it
writes the kept columns of its samples to the batch's and folds the
``measure`` of each into a running maximum per row, so the dropped
columns are never stored.

The run is fully deterministic for identical inputs and reports exact
accepted/rejected step counts per row.

References
----------
Dormand & Prince, J. Comp. Appl. Math. 6, 19 (1980); Hairer, Norsett &
Wanner, "Solving Ordinary Differential Equations I" (step-size control and
starting-step heuristic); Shampine, Math. Comp. 46, 135 (1986) (dense
output coefficients); Hochbruck & Ostermann, SIAM J. Numer. Anal. 43,
1069 (2005) and Acta Numerica 19, 209 (2010) (exponential Runge-Kutta
methods); Kassam & Trefethen, SIAM J. Sci. Comput. 26, 1214 (2005)
(phi-functions by contour integrals).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, NamedTuple, Sequence

import numpy as np

__all__ = ["NonFiniteRhsError", "OdeResult", "StepSizeUnderflowError",
           "grid", "solve"]


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
_C_FLOATS = _C.tolist()

# Unfinished rows at and below which a pass runs the per-row form of
# the controller and of dense output, and a Dormand-Prince pass runs in
# Python floats when solve is given a per-row right-hand side; above
# it, the array form is faster (see CHANGES.md).  The one switch
# between the two forms
FLOAT_ROWS = 4

# The smallest normal float: a grid from 0 whose step is at least this
# has distinct points (see solve)
_TINY = 2.0 ** -1022


def grid(t0: float, end: float, points: int) -> np.ndarray:
    """``np.linspace(t0, end, points)`` with its bits, for points >= 2.

    Point k is ``k*step + t0`` with ``step = (end - t0)/(points - 1)``,
    and the last point is end (``_points``, by which ``solve`` samples
    each row on this grid without building it).  Where that step
    underflows to 0, linspace divides before it multiplies: ``(k/(points
    - 1))*(end - t0) + t0``.
    """
    delta = end - t0
    step = delta / (points - 1)
    if step != 0.0:
        return _points(np.arange(points), t0, step, points - 1, end)
    t = np.arange(points, dtype=float)
    t /= points - 1
    t *= delta
    t += t0
    t[-1] = end
    return t


def _points(k, t0, step, last, end):
    """The points k of the grids ``grid(t0, end, last + 1)`` whose step
    is not 0; the arguments are arrays or numbers that broadcast
    together (k of ints, last of ints or floats)."""
    t = k * step
    t += t0
    return np.where(k == last, end, t)


def _grid_index(x, t0, step, last, end):
    """``grid(t0, end, last + 1).searchsorted(x, "right")`` of each entry
    of the arrays, without the grids: the number of grid points at most
    x.

    The floor of ``(x - t0)/step``, clipped to the grid, plus one,
    misses it by a few points at most on a grid of distinct points (by
    one from t0 = 0): the points and the quotient are within a few
    roundings of the exact ones.  Exact comparisons with the points on
    either side then fix it up, a point per round.
    """
    j = np.minimum(np.maximum((x - t0) / step, 0.0), last).astype(int)
    j += 1
    while True:
        # the point before j is past x, or the point at j is not
        down = (j > 0) & (_points(j - 1, t0, step, last, end) > x)
        up = (j <= last) & (_points(np.minimum(j, last), t0, step, last,
                                    end) <= x)
        if not (down | up).any():
            return j
        j += up
        j -= down


def _index(x, t0, step, last, end):
    """``_grid_index`` of one row on Python floats: the same arithmetic
    and the same fix-ups (``int`` floors the clipped quotient, which is
    not negative)."""
    q = (x - t0) / step
    j = int(q if q < last else last) + 1 if q > 0.0 else 1
    while j and (end if j - 1 == last else (j - 1) * step + t0) > x:
        j -= 1
    while j <= last and (end if j == last else j * step + t0) <= x:
        j += 1
    return j


class _Grids(NamedTuple):
    """Every row's sample grid, by arithmetic: ``params[b]`` is row b's
    (t0, step, last, end), the grid ``grid(t0, end, last + 1)`` with a
    step that is not 0; ``rows[b]`` is the same as Python floats.  Row
    b's samples are the rows offsets[b]:offsets[b + 1] of the batch's,
    one per grid point (``firsts`` is offsets[:-1] as a list).  ``ks``
    holds the indices of the longest grid as floats, which a slice
    reads faster than ``np.arange`` builds them."""

    offsets: np.ndarray  # shape (B + 1,)
    params: np.ndarray   # shape (B, 4)
    rows: list
    firsts: list
    ks: np.ndarray

    def at(self, b, k):
        """The points k (G, m) of rows b (G,), and the rows of the
        batch's samples that hold them."""
        return (_points(k, *self.params[b].T[:, :, None]),
                self.offsets[b, None] + k)

    def times(self, b: int, lo: int, hi: int) -> np.ndarray:
        """The points lo:hi of row b, as ``_points`` computes them (a grid
        from 0 adds no t0: k*step is not negative, so + 0.0 would change
        no bit)."""
        t0, step, last, end = self.rows[b]
        t = self.ks[lo:hi] * step
        if t0:
            t += t0
        if hi > last:
            t[-1] = end
        return t


@dataclass
class OdeResult:
    """Samples of every row on its grid plus per-row integrator statistics.

    Row b's samples are the rows ``offsets[b]:offsets[b + 1]`` of ``y``,
    at the points of ``grid(t0[b], t_end[b], offsets[b + 1] -
    offsets[b])``; :meth:`row` builds that grid on each call, and no
    array of the result holds it.  ``y`` holds the state columns that
    ``solve`` was asked to keep, in that order.  ``errors[b]`` is None,
    or the StepSizeUnderflowError that stopped row b: its samples past
    the failure and its ``y_end[b]`` are NaN.  The counters are arrays
    so that ``np.sum`` totals them over the batch.  ``measure_max[b]``
    is the largest ``measure`` of row b's samples (NaN for a failed row;
    None without a measure).
    """

    y: np.ndarray           # shape (offsets[-1], number of kept columns)
    offsets: np.ndarray     # shape (B + 1,)
    t0: np.ndarray          # shape (B,): where each row's grid starts
    t_end: np.ndarray       # shape (B,): where each row's grid ends
    y_end: np.ndarray       # shape (B, n): state at t_end (for chaining)
    n_accepted: np.ndarray  # shape (B,)
    n_rejected: np.ndarray  # shape (B,)
    n_rhs: np.ndarray       # shape (B,)
    errors: list            # B entries: None or StepSizeUnderflowError
    measure_max: np.ndarray | None = None  # shape (B,)

    def row(self, b: int) -> tuple[np.ndarray, np.ndarray]:
        """The (t, y) samples of row b: its grid, built, and a view of
        its rows of y."""
        lo, hi = self.offsets[b], self.offsets[b + 1]
        return grid(self.t0[b], self.t_end[b], hi - lo), self.y[lo:hi]

    @property
    def t(self) -> SimpleNamespace:
        """The size of every row's grid end to end, ``t.size``: the
        number of samples (:meth:`row` builds a row's grid)."""
        return SimpleNamespace(size=int(self.offsets[-1]))


def _rms(x: np.ndarray) -> np.ndarray:
    """The root mean square of each row of x: ``np.mean`` of one row,
    whose sum ``np.add.reduce`` along a row repeats."""
    return np.sqrt(np.add.reduce(x ** 2, axis=1) / x.shape[1])


def _initial_step(rhs, t0, y0, P, f0, t_end, tol) -> np.ndarray:
    """Starting-step heuristic of Hairer, Norsett & Wanner (I.4, alg. 4.14)
    of every row at once, with one probe call of rhs over them.

    Row b starts at t0[b] from y0[b], where ``rhs`` is f0[b], in the
    piece of constants P[b] that ends at t_end[b]; tol is the (B, 1)
    column of their tolerances.  Returns the (B,) starting steps, each
    with the bits of the row's heuristic on Python floats: its branches
    are masks, and ``np.float_power`` is CPython's ``**``.
    """
    scale = tol + tol * np.abs(y0)
    d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    span = t_end - t0
    # the Python-float arithmetic of the heuristic raises no warning
    with np.errstate(all="ignore"):
        # d1 is inf when f0/scale overflows (1/d1 would make h0 or h1
        # zero)
        h0 = np.where((d0 < 1e-5) | (d1 < 1e-5) | (d1 == math.inf), 1e-6,
                      0.01 * d0 / d1)
        h0 = np.minimum(h0, span)
    f1 = rhs(t0 + h0, y0 + h0[:, None] * f0, P)
    d2 = _rms((f1 - f0) / scale)
    with np.errstate(all="ignore"):
        d2 /= h0
        # f0 or f1 overflowed the error scale or went non-finite, or 1/h0
        # overflowed on a piece shorter than about 1e-302: keep h0, which
        # fits in the piece
        h1 = np.where(np.isfinite(d1) & np.isfinite(d2),
                      np.float_power(0.01 / np.maximum(d1, d2), 0.2), h0)
        h1 = np.where((d1 <= 1e-15) & (d2 <= 1e-15),
                      np.maximum(1e-6, h0 * 1e-3), h1)
        return np.minimum(np.minimum(100 * h0, h1), span)


def _nonfinite(f: np.ndarray) -> str:
    """What went non-finite in a step whose right-hand side values are f:
    those, or else the state."""
    return "the state" if np.isfinite(f).all() else "the right-hand side"


def _underflow(t: float, h: float, nonfinite: bool, K: np.ndarray,
               f: np.ndarray | None) -> StepSizeUnderflowError:
    """The failure of a row whose step h fell below the floor at t.

    What went non-finite: in the row's last attempt, whose stages are K,
    when ``nonfinite``; else, when h is not finite, in the starting step
    from f at t (K[0] unless the row restarted there); else nothing, and
    the problem is too stiff.
    """
    if nonfinite:
        culprit = _nonfinite(K)
    elif math.isfinite(h):
        culprit = None
    else:
        culprit = _nonfinite(K[0] if f is None else f)
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
    """Controller state of one unfinished row in the per-row form."""

    __slots__ = ("index", "t", "h", "stop", "c", "last", "K", "grid",
                 "i_out")

    def __init__(self, index, t, h, stop, c, last, K, grid, i_out):
        self.index, self.t, self.h, self.last = index, t, h, last
        # the current piece's end, and its constants as the per-row
        # right-hand side reads them
        self.stop, self.c = stop, c
        self.K = K  # this row's (7, n) stages: a view into the batch's
        # the row's grid as (t0, step, last, end) floats, and the index
        # in it of the next grid point to sample
        self.grid, self.i_out = grid, i_out


class _Jobs(NamedTuple):
    """The steps accepted in a pass with grid points inside them, as
    sequences with one entry per job.  Job g is the step of length h[g]
    from t[g] of batch row index[g], at position rows[g] of the pass's
    rows (its state and stages are ``y[rows[g]]`` and ``K[rows[g]]``);
    it covers the points start[g]:end[g] of its row's grid."""

    rows: Sequence[int]
    t: Sequence[float]
    h: Sequence[float]
    start: Sequence[int]
    end: Sequence[int]
    index: Sequence[int]


_NO_JOBS = _Jobs([], [], [], [], [], [])


def _samples(times, t, h, y, Q, out):
    """Write into out the dense output at ``times`` of one row's step of
    length h from t, with state y and ``Q = _P_T @ K`` of its stages K;
    return out.  times is overwritten with theta."""
    theta = times
    theta -= t
    theta /= h
    powers = theta.repeat(4).reshape(theta.size, 4)  # theta^1..4
    np.multiply.accumulate(powers, out=powers, axis=1)
    dy = powers @ Q
    dy *= h
    return np.add(y, dy, out=out)


def _rescaled(times, t, h, y, K, out):
    """``_samples`` of a step whose product overflowed on the way (the
    Shampine coefficients exceed 1): redone on y and K scaled by a power
    of two, then scaled back."""
    e = math.frexp(max(np.abs(y).max(), np.abs(K).max()))[1]
    return np.ldexp(_samples(times, t, h, np.ldexp(y, -e),
                             _P_T @ np.ldexp(K, -e), out), e, out=out)


def _store(y_all, subset, at, samples, index):
    """Write the samples (G, m, n) of G jobs to the rows at (G, m) of the
    batch's samples y_all: whole, or with ``subset = (columns, measure,
    peak)`` those columns only, folding the largest measure of each
    job's samples into ``peak`` at its row's index (shape (G,))."""
    if subset is None:
        y_all[at] = samples
        return
    columns, measure, peak = subset
    # a column at a time: numpy scatters 1-D arrays fastest
    for c, k in enumerate(columns):
        y_all[:, c][at] = samples[..., k]
    if measure:
        with np.errstate(all="ignore"):
            top = measure(samples.reshape(-1, samples.shape[-1]))
        # np.maximum propagates NaN, as np.max over a row's samples does
        np.maximum.at(peak, index, top.reshape(at.shape).max(axis=-1))


def _dense_output(jobs, stacked, y, K, grids, y_all, subset) -> list:
    """Write the samples of the steps just accepted.

    Each job of ``jobs`` (see ``_Jobs``) writes its samples at its grid
    points (of ``grids``, a ``_Grids``) to its rows of the batch's
    samples ``y_all`` (see ``_store`` for ``subset``, which needs
    ``stacked``).  ``_P_T @ K`` is one stacked product over the jobs'
    rows; with ``stacked`` the products with the theta powers are
    stacked too (see the module docstring).  Returns the positions in
    ``jobs`` of the jobs whose samples are not all finite.
    """
    rs = jobs.rows
    if not len(rs):
        return []
    # the jobs' rows only: a rejected row's stages may be inf or NaN
    every = len(rs) == len(K)
    Q = np.matmul(_P_T, K if every else K.take(rs, axis=0))
    failed = []
    if not stacked:
        finite = True
        for r, t, h, a, b, i, q in zip(rs, jobs.t, jobs.h, jobs.start,
                                       jobs.end, jobs.index, Q):
            lo = grids.firsts[i]
            v = y_all[lo + a:lo + b]
            _samples(grids.times(i, a, b), t, h, y[r], q, v)
            # NaN or inf in v makes v . v non-finite (so may an overflow,
            # which the exact check below then clears)
            finite = finite and math.isfinite(np.vdot(v, v))
        if finite:
            return failed
        for g, (r, t, h, a, b, i) in enumerate(zip(rs, *jobs[1:])):
            lo = grids.firsts[i]
            v = y_all[lo + a:lo + b]
            if not np.isfinite(v).all() and not np.isfinite(_rescaled(
                    grids.times(i, a, b), t, h, y[r], K[r], v)).all():
                failed.append(g)
        return failed
    rs, t, h, start, end, index = map(np.asarray, jobs)
    m = end - start
    y_r = y if every else y[rs]
    # the one-sample rows, then the others: a (G, mx, 4) stack with each
    # row's grid points, padded by repeating its last one, whose sample
    # then repeats the row's last bit for bit
    for g in ((m == 1).nonzero()[0], (m > 1).nonzero()[0]):
        if not g.size:
            continue
        m_g = m[g, None]
        times, at = grids.at(index[g], start[g, None] + np.minimum(
            np.arange(m_g.max()), m_g - 1))
        powers = np.empty(at.shape + (4,))
        theta = powers[..., 0]
        np.divide(times - t[g, None], h[g, None], out=theta)
        # theta^2..4 by products: the bits of np.multiply.accumulate
        np.multiply(theta, theta, out=powers[..., 1])
        np.multiply(powers[..., 1], theta, out=powers[..., 2])
        np.multiply(powers[..., 2], theta, out=powers[..., 3])
        samples = np.matmul(powers, Q[g])
        samples *= h[g, None, None]
        samples += y_r[g, None]
        if not np.isfinite(samples).all():
            ok = np.isfinite(samples).all(axis=(1, 2))
            for b in g[~ok].tolist():
                r, a, z, i = rs[b], start[b], end[b], index[b]
                v = _rescaled(grids.times(i, a, z), t[b], h[b], y[r], K[r],
                              np.empty((z - a, y.shape[1])))
                if np.isfinite(v).all():
                    _store(y_all, subset, grids.offsets[i] + np.arange(
                        a, z)[None], v[None], index[b:b + 1])
                else:
                    failed.append(b)
            g, at, samples = g[ok], at[ok], samples[ok]
        _store(y_all, subset, at, samples, index[g])
    return failed


def _attempt_floats(f, act, y, K, heads, tol):
    """A Dormand-Prince attempt of every row of act in Python floats:
    the new states (B, n) and the rows' error norms.

    Only the tableau products are numpy's, the same products as the
    array form's; the rest is the array form's arithmetic element by
    element, so each row gets its bits (see the module docstring).
    """
    n = y.shape[1]
    rows = [(row.t, row.h, row.c, y_b, row.K)
            for row, y_b in zip(act, y.tolist())]
    for i in range(1, 6):
        c_i = _C_FLOATS[i]
        for (t, h, c, y_b, K_b), d in zip(
                rows, np.matmul(_A[i], heads[i]).tolist()):
            K_b[i] = f(t + h * c_i, [a + h * b for a, b in zip(y_b, d)], c)
    new = []
    for (t, h, c, y_b, K_b), d in zip(rows,
                                      np.matmul(_B, heads[6]).tolist()):
        new_b = [a + h * b for a, b in zip(y_b, d)]
        K_b[6] = f(t + h, new_b, c)
        new.append(new_b)
    errs = []
    for row, (_, h, _, y_b, _), new_b, e_b in zip(
            act, rows, new, np.matmul(_E, K).tolist()):
        tol_b = tol[row.index]
        total = None
        for a, b, e in zip(y_b, new_b, e_b):
            a, b = abs(a), abs(b)
            x = h * e / (tol_b + tol_b * (a if a >= b else b))
            # b - b is NaN for a non-finite new state, as in the array form
            x = x * x + (b - b)
            # left to right, as np.add.reduce sums fewer than 8 terms
            total = x if total is None else total + x
        errs.append(math.sqrt(total / n))
    return np.array(new), errs


def _norm(estimate, y, y_new, tol):
    """Each row's error norm: the root mean square of its estimate over
    the scale ``tol + tol*max(|y|, |y_new|)`` (tol the rows' (B, 1)
    column), by ``np.add.reduce`` as in np.mean of a row.  Adding
    abs_new - abs_new (exactly 0, or NaN for a non-finite y_new, whose
    inf scale would zero the estimate) rejects such a step."""
    abs_new = np.abs(y_new)
    scale = tol + tol * np.maximum(np.abs(y), abs_new)
    return np.sqrt(np.add.reduce((estimate / scale) ** 2
                                 + (abs_new - abs_new), axis=1)
                   / y.shape[1])


def _attempt(rhs, t, h, y, K, P, tol, e=None):
    """A Dormand-Prince attempt of m rows: the new states and error norms.

    t and h are the rows' (m,) times and step sizes, tol their (m, 1)
    column, y, P and K (m, 7, n) stages theirs; it writes stages 1 to 6.
    With e, the rows' (m, 1) column of exponents, each tableau sum is
    taken on the stages scaled by 2**-e and its product with h scaled
    back by 2**e: near the top of the float range a sum of stages
    overflows although its product with h does not, and wherever
    neither overflows nor underflows these are the bits of the plain
    attempt.
    """
    h = h[:, None]
    stage_t = t[:, None] + h * _C

    def times_h(weights, i):
        if e is None:
            return h * np.matmul(weights, K[:, :i])
        return np.ldexp(h * np.matmul(weights, np.ldexp(K[:, :i],
                                                        -e[:, :, None])), e)

    for i in range(1, 7):
        state = y + times_h(_A[i] if i < 6 else _B, i)
        # the last two stages sit at t + h
        K[:, i] = rhs(stage_t[:, min(i, 5)], state, P)
    return state, _norm(times_h(_E, 7), y, state, tol)


def solve(
    rhs: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    pieces: Sequence[Sequence[tuple[float, Sequence[float]]]],
    t0: Sequence[float],
    y0: np.ndarray,
    points: Sequence[int],
    tol: Sequence[float],
    linear: tuple | None = None,
    row_rhs: tuple | None = None,
    columns: Sequence[int] | None = None,
    measure: Callable[[np.ndarray], np.ndarray] | None = None,
) -> OdeResult:
    """Integrate ``dy_b/dt = rhs(t, y_b, p)`` through row b's pieces.

    Every argument but ``rhs`` holds one entry per row.
    Rows may differ in span, pieces, tolerance and grid size; each is
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
        Initial state of each row (real components), finite.
    points : sequence of B ints
        The size of each row's sample grid: ``points[b] >= 2`` evenly
        spaced points from t0[b] to the row's end, ``grid(t0[b], end,
        points[b])``, which must rise strictly (a step too small for the
        span repeats points).  The solution is interpolated onto them
        with the method's dense output.  No grid is built: a point is
        computed where it is sampled.
    tol : sequence of B floats
        The tolerance of each row's error control, positive and finite:
        the error scale of a component y is ``tol + tol*|y|``.  No step
        size is capped but by its piece's end.
    linear : (L, cols), optional
        Integrate every row with the exponential method instead of
        Dormand-Prince (see the module docstring).  L, shape (B, 2, 2)
        complex, is each row's constant linear part, the same in all its
        pieces; it acts on the complex pair ``(y[cols[0]] +
        1j*y[cols[0] + 1], y[cols[1]] + 1j*y[cols[1] + 1])``, and the
        other components have none.  ``rhs`` is still the whole right-
        hand side, L y included; each evaluation of it is counted.
    row_rhs : (read, f), optional
        The per-row form of ``rhs``, for the Python-float form of a pass
        (see the module docstring).  ``read(p)`` turns a piece's
        constants into the c that f reads, once per piece; ``f(t, y, c)``
        returns the derivative of one row, y a list of n floats, as n
        floats with the bits of that row of ``rhs``.  The float form
        calls f for the stages of its steps (the first evaluation, the
        starting-step probes and a redone attempt still call ``rhs``).
        Not used by the exponential method or for n >= 8.
    columns : sequence of ints, optional
        The state columns that ``OdeResult.y`` holds, in this order
        (default: all n).  Dropped columns are computed, checked for
        finiteness and measured as the others, but never stored: a
        caller that reads some components only holds those.  Such a
        solve stacks the dense output of every pass, with the same
        bits.
    measure : callable ``measure(Y) -> ndarray``, optional
        Maps (m, n) whole-state samples to m floats, element by element;
        ``OdeResult.measure_max`` holds each row's largest.  With
        dropped columns it is taken on each pass's whole samples, with
        floating-point warnings off, and folded into a running maximum
        per row (``np.maximum``, so NaN propagates); otherwise on each
        row's samples once it is done.

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
        For arguments of different lengths, a ``y0`` that is not 2-D or
        not finite, a tolerance that is not positive and finite, a
        ``linear`` part that is not B finite 2x2 matrices on two
        disjoint pairs of columns, or a row with no
        pieces, piece ends not rising strictly above its t0, pieces
        with different numbers of constants, a span that is not finite,
        a grid of fewer than 2 points or whose points do not rise
        strictly, or ``columns`` that are none or not distinct columns
        of y0.
    """
    y = np.array(y0, dtype=float)
    if y.ndim != 2:
        raise ValueError(f"y0 must have shape (batch, n), got {y.shape}")
    if not np.isfinite(y).all():
        raise ValueError("y0 must be finite")
    batch, n = y.shape
    kept = list(range(n)) if columns is None else [int(c) for c in columns]
    if not kept or len(set(kept)) < len(kept) \
            or not all(0 <= c < n for c in kept):
        raise ValueError(f"columns must be distinct columns of the {n} "
                         f"of y0, got {columns!r}")
    if not len(pieces) == len(t0) == len(points) == len(tol) == batch:
        raise ValueError("pieces, t0, points and tol need one entry per "
                         "row of y0")
    tol = [float(x) for x in tol]
    if not all(0.0 < x < math.inf for x in tol):
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    t0 = [float(a) for a in t0]
    points = [operator.index(m) for m in points]
    pieces = [[(float(end), tuple(map(float, p))) for end, p in row]
              for row in pieces]
    k = len(pieces[0][0][1]) if batch and pieces[0] else 0
    # each row's grid as (t0, step, last, end)
    params = []
    for a, row, m in zip(t0, pieces, points):
        ends = [a] + [end for end, _ in row]
        if not row or not all(lo < hi for lo, hi in zip(ends, ends[1:])):
            raise ValueError(f"piece ends must rise strictly above "
                             f"t0 = {a!r}, got {ends[1:]!r}")
        if any(len(p) != k for _, p in row):
            raise ValueError("every piece needs the same number of "
                             "constants")
        if m < 2:
            raise ValueError(f"a grid needs 2 points or more, got {m}")
        step = (ends[-1] - a) / (m - 1)
        if not math.isfinite(step):
            raise ValueError(f"integration span [{a!r}, {ends[-1]!r}] "
                             f"must be finite")
        # from 0, a normal step keeps the points of any grid that fits
        # in memory apart: k*step rounds to distinct values below the
        # end.  Any other grid is built once and checked
        if not (a == 0.0 and step >= _TINY) \
                and not (np.diff(grid(a, ends[-1], m)) > 0.0).all():
            raise ValueError(f"the {m} grid points on [{a!r}, "
                             f"{ends[-1]!r}] must rise strictly")
        params.append((a, step, m - 1, ends[-1]))
    offsets = np.zeros(batch + 1, dtype=int)
    np.cumsum(points, out=offsets[1:])
    grids = _Grids(offsets, np.array(params).reshape(batch, 4), params,
                   offsets[:-1].tolist(),
                   np.arange(max(points, default=0), dtype=float))
    method = None
    if linear is not None:
        L, cols = linear
        L = np.array(L, dtype=complex)
        if L.shape != (batch, 2, 2) or not np.isfinite(L).all():
            raise ValueError(f"linear part must be {batch} finite 2x2 "
                             f"matrices, got shape {L.shape}")
        if not (len(cols) == 2 and all(0 <= c < n - 1 for c in cols)
                and abs(cols[0] - cols[1]) >= 2):
            raise ValueError(f"linear part needs two disjoint pairs of "
                             f"state columns, got {cols!r}")
        # imported on first use: calls without it never compile it
        from lfbloch.exponential import Exponential
        method = Exponential(rhs, k, n, tuple(cols))
        # each row's L rides along with its piece constants
        extra = method.constants(L)
        pieces = [[(end, p + tuple(x)) for end, p in row]
                  for row, x in zip(pieces, extra.tolist())]
        rhs, k = method.nonlinear, k + extra.shape[1]
    exponent = method.exponent if method else _ORDER_EXPONENT
    # the exponential method's unit step, span/span_steps of each row
    unit = np.array([(row[-1][0] - a) / method.span_steps
                     for a, row in zip(t0, pieces)]) if method else None
    # the float form: Dormand-Prince rows whose sums of squares
    # np.add.reduce takes left to right (it sums 8 terms or more
    # pairwise); each piece carries its constants as row_rhs reads them
    floats = row_rhs is not None and method is None and n < 8
    read = row_rhs[0] if floats else lambda p: None
    pieces = [[(end, p, read(p)) for end, p in row] for row in pieces]

    y_all = np.full((offsets[-1], len(kept)), math.nan)
    # the kept columns, and each row's largest measure of its samples so
    # far; None when every column is kept (measured once a row is done)
    subset = None if kept == list(range(n)) else (
        kept, measure, np.full(batch, -math.inf) if measure else None)
    y_end = np.full((batch, n), math.nan)
    n_pieces = [1] * batch
    redone = np.zeros(batch, int)  # attempts redone scaled
    errors = [None] * batch
    tol_col = np.array(tol).reshape(batch, 1)  # in the order of y's rows

    def restart(r, b, t):
        """Row b, at position r of the pass, restarts at t in its next
        piece as a new call would: that piece's end and constants as
        row_rhs reads them, f at t and the starting step.  f goes to
        K[r, -1] once dense output has read K, and the FSAL copy then
        moves it to K[r, 0]."""
        end, P[r], c = pieces[b][n_pieces[b]]
        n_pieces[b] += 1
        t1, y1, p1 = np.array([t]), y_new[r:r + 1], P[r:r + 1]
        f = rhs(t1, y1, p1)
        h = _initial_step(rhs, t1, y1, p1, f, np.array([end]),
                          tol_col[r:r + 1])
        return end, c, f[0], h.item()

    def redo(r, t, h):
        """The attempt of the rows at positions r of the pass, whose times
        and step sizes are t and h, redone on stages scaled by the
        exponent of each row's largest first stage: their new states and
        error norms."""
        redone[index[r]] += 1
        K_r = K[r]
        e = np.frexp(np.abs(K_r[:, 0]).max(axis=1))[1][:, None]
        y_r, errs_r = _attempt(rhs, t, h, y[r], K_r, P[r], tol_col[r], e)
        K[r] = K_r
        return y_r, errs_r

    # The controller state of the unfinished rows, in the order of the
    # rows of y, K and P: the batch's row index of each, and (B,) arrays
    # of their times, step sizes, piece ends, whether the step ends the
    # piece, and the index in their grid of the next grid point (the
    # array form); from FLOAT_ROWS rows down, one _Row each in act (the
    # per-row form), and the counters as lists
    index = np.arange(batch)
    T = np.array(t0)
    stops = np.array([row[0][0] for row in pieces])
    P = np.array([row[0][1] for row in pieces]).reshape(batch, k)
    K = np.empty((batch, method.stages if method else 7, n))
    K[:, 0] = rhs(T, y, P)
    H = _initial_step(rhs, T, y, P, K[:, 0], stops, tol_col)
    lasts = np.zeros(batch, bool)
    # every grid starts at t0: its first sample is y0
    _store(y_all, subset, offsets[:-1, None], y[:, None], index)
    cur = np.ones(batch, int)
    n_accepted, n_rejected = np.zeros(batch, int), np.zeros(batch, int)
    act = None
    heads = [K[:, :i] for i in range(7)]
    errs = None  # error norm of each row's last attempted step

    while True:
        if act is None and len(index) <= FLOAT_ROWS:  # the per-row form
            act = [_Row(b, t, h, stop, pieces[b][n_pieces[b] - 1][2], last,
                        K_b, params[b], i)
                   for b, t, h, stop, last, K_b, i in zip(
                       index.tolist(), T.tolist(), H.tolist(),
                       stops.tolist(), lasts.tolist(), K, cur.tolist())]
            n_accepted, n_rejected = n_accepted.tolist(), n_rejected.tolist()
            if errs is not None:
                errs = errs.tolist()
        # One pass over the rows: accept or reject the step just
        # attempted, then schedule the next one, retiring finished and
        # failed rows
        restarts = []
        if act is None:
            nonfinite = retry = np.zeros(len(T), bool)
            accepted, done, jobs = [], [], _NO_JOBS
            if errs is not None:
                accept = errs <= 1.0  # NaN is rejected
                accepted = accept.nonzero()[0]
                if len(accepted) < len(T):
                    nonfinite = ~np.isfinite(errs)
                    if not method and nonfinite.any():
                        # a first stage below 1 would be scaled by 1
                        top = np.abs(K[:, 0]).max(axis=1)
                        r = (nonfinite & np.isfinite(y).all(axis=1)
                             & (top >= 1.0) & (top < math.inf)).nonzero()[0]
                        if r.size:
                            y_new[r], errs[r] = redo(r, T[r], H[r])
                            accept = errs <= 1.0
                            accepted = accept.nonzero()[0]
                            nonfinite = ~np.isfinite(errs)
                    retry = ~accept
                    n_rejected[index[retry]] += 1
                n_accepted[index[accepted]] += 1
                with np.errstate(divide="ignore"):  # err = 0: the largest
                    factor = np.minimum(_MAX_FACTOR, np.maximum(
                        _MIN_FACTOR,
                        _SAFETY * np.float_power(errs, exponent)))
                factor[nonfinite] = _MIN_FACTOR
                # dense output for the grid points inside (t, t_new],
                # written once the pass is over
                T_new = np.where(lasts[accepted], stops[accepted],
                                 T[accepted] + H[accepted])
                i_out = cur[accepted]
                j = _grid_index(T_new, *grids.params[index[accepted]].T)
                found = j > i_out
                g = accepted[found]
                jobs = _Jobs(g, T[g], H[g], i_out[found], j[found], index[g])
                cur[accepted] = j
                T[accepted] = T_new
                H = H * factor
                for r in accepted[lasts[accepted]].tolist():
                    b = index[r]
                    if n_pieces[b] == len(pieces[b]):
                        y_end[b] = y_new[r]
                        done.append(r)
                        continue
                    stops[r], _, f, H[r] = restart(r, b, T[r])
                    restarts.append((r, f))
            lasts = T + H >= stops
            # a step onto the piece's end may be shorter than the floor,
            # unless it repeats a rejected one (it would repeat forever)
            ok = (H >= 10.0 * (np.nextafter(T, math.inf) - T)) \
                | lasts & ~retry
            ok[done] = True  # retired, not failed
            for r in (~ok).nonzero()[0].tolist():
                errors[index[r]] = _underflow(T[r], H[r], nonfinite[r], K[r],
                                              dict(restarts).get(r))
            ok[done] = False
            keep = ok.nonzero()[0]
            H = np.where(lasts, stops - T, H)
        else:
            keep, accepted, found = [], [], []
            for r, row in enumerate(act):
                t, h = row.t, row.h
                retry = nonfinite = False
                f = None  # f at t, if the row restarts there
                if errs is not None:
                    err = errs[r]
                    if not err <= 1.0 and not method \
                            and not math.isfinite(err) \
                            and np.isfinite(y[r]).all() \
                            and 1.0 <= np.abs(row.K[0]).max() < math.inf:
                        new, norm = redo(np.array([r]), np.array([t]),
                                         np.array([h]))
                        y_new[r], err = new[0], norm.item()
                    if not err <= 1.0:
                        retry = True
                        n_rejected[row.index] += 1
                        nonfinite = not math.isfinite(err)
                        h *= _MIN_FACTOR if nonfinite else max(
                            _MIN_FACTOR, _SAFETY * err ** exponent)
                    else:
                        n_accepted[row.index] += 1
                        accepted.append(r)
                        t_new = row.stop if row.last else t + h
                        # dense output for grid points inside (t, t_new],
                        # written once the pass is over
                        j = _index(t_new, *row.grid)
                        if j > row.i_out:
                            found.append((r, t, h, row.i_out, j, row.index))
                            row.i_out = j
                        h *= _MAX_FACTOR if err == 0.0 else min(
                            _MAX_FACTOR,
                            max(_MIN_FACTOR, _SAFETY * err ** exponent))
                        t = row.t = t_new
                        if row.last:
                            b = row.index
                            if n_pieces[b] == len(pieces[b]):
                                y_end[b] = y_new[r]
                                continue
                            row.stop, row.c, f, h = restart(r, b, t)
                            restarts.append((r, f))
                row.last = t + h >= row.stop
                # the floor, as in the array form
                if not (h >= 10.0 * abs(math.nextafter(t, math.inf) - t)
                        or row.last and not retry):
                    errors[row.index] = _underflow(t, h, nonfinite, row.K, f)
                    continue
                if row.last:
                    h = row.stop - t
                row.h = h
                keep.append(r)
            jobs = _Jobs._make(zip(*found)) if found else _NO_JOBS

        if method:
            failed = method.dense_output(jobs, y, K, P, grids, y_all, subset)
        else:
            failed = _dense_output(jobs, act is None or subset is not None,
                                   y, K, grids, y_all, subset)
        for g in failed:  # the row stops at the step's start
            b = jobs.index[g]
            y_all[offsets[b] + jobs.start[g]:offsets[b + 1]] = math.nan
            y_end[b] = math.nan
            errors[b] = NonFiniteRhsError(
                f"dense output went non-finite at t = {jobs.t[g]:.6g} (h = "
                f"{jobs.h[g]:.3g}): the solution inside the step overflows "
                f"the float range; check the parameters and the drive")
        if failed:
            gone = {jobs.rows[g] for g in failed}
            keep = [r for r in keep if r not in gone]
        for r, f in restarts:
            K[r, -1] = f
        if len(accepted) == len(y):
            K[:, 0] = K[:, -1]
            y = y_new
        elif len(accepted):
            K[accepted, 0] = K[accepted, -1]
            y[accepted] = y_new[accepted]
        if not len(keep):
            break
        if len(keep) < len(y):
            y, K, P, index, tol_col = (
                a[keep] for a in (y, K, P, index, tol_col))
            heads = [K[:, :i] for i in range(7)]
            if act is None:
                T, H, stops, lasts, cur = (
                    a[keep] for a in (T, H, stops, lasts, cur))
            else:
                act = [act[r] for r in keep]
                for row, K_row in zip(act, K):
                    row.K = K_row

        # stage evaluations (k1 carried over from the previous step,
        # FSAL), one rhs call each, or in the float form one f call per
        # row, which also yields the error norms
        if act is not None:
            if floats:
                y_new, errs = _attempt_floats(row_rhs[1], act, y, K, heads,
                                              tol)
                continue
            T = np.array([row.t for row in act])
            H = np.array([row.h for row in act])
        if method:
            y_new, estimate = method.attempt(y, K, P, T, H)
            # a long row's error per unit step (see Exponential)
            estimate *= np.where(
                np.asarray(n_accepted)[index] >= method.span_steps,
                np.minimum(method.max_scale, np.maximum(1.0,
                                                        unit[index] / H)),
                1.0)[:, None]
            errs = _norm(estimate, y, y_new, tol_col)
        else:
            y_new, errs = _attempt(rhs, T, H, y, K, P, tol_col)
        if act is not None:
            errs = errs.tolist()

    peak = None
    if measure:
        peak = subset[2] if subset else np.empty(batch)
        for b, error in enumerate(errors):
            if error is not None:
                peak[b] = math.nan
            elif not subset:
                peak[b] = np.max(measure(y_all[offsets[b]:offsets[b + 1]]))
    n_accepted = np.array(n_accepted)
    n_rejected = np.array(n_rejected)
    return OdeResult(y=y_all, offsets=offsets, t0=grids.params[:, 0],
                     t_end=grids.params[:, 3], y_end=y_end,
                     n_accepted=n_accepted, n_rejected=n_rejected,
                     n_rhs=2 * np.array(n_pieces) + (K.shape[1] - 1)
                     * (n_accepted + n_rejected + redone),
                     errors=errors, measure_max=peak)
