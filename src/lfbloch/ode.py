"""Adaptive embedded Runge-Kutta integrators, batched: Dormand-Prince
5(4), and an exponential Runge-Kutta 4(3) method for stiff linear parts.

Dormand-Prince is the explicit 7-stage FSAL pair: the fifth-order
solution is propagated, the embedded fourth-order solution provides the
per-step error estimate, and a quartic interpolant gives dense output on
an arbitrary evaluation grid.  Error control is applied to every real
component with the mixed tolerance scale ``atol + rtol*|y|``.

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
whether its step ends the piece, and the indices of its next grid point
and its grid's end.  Accept/reject is ``err <= 1`` (so NaN is
rejected).  The step-size factor is ``_SAFETY * err**exponent`` by
``np.float_power``, which is CPython's ``**`` (``np.power`` is not),
clipped by ``np.maximum`` and ``np.minimum``; a non-finite error is
masked to ``_MIN_FACTOR`` (``np.maximum`` would propagate NaN where
Python's ``max`` drops it), and ``err == 0`` gives ``_MAX_FACTOR``.
The 10-ulp floor is ``np.nextafter``, and the grid points inside the
accepted steps come from one bisection over every row's grid, as deep
as the most points that a step can cross at its row's smallest grid
spacing.  The
rare events stay per row in both forms: a restart at a piece's end, a
failure and its message.  Both forms do the same arithmetic, so a row
takes the same steps in either, and a run switches to the per-row form
for good as its rows finish.

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
rejected.  For Dormand-Prince it is one stacked product ``_P_T @ K``
over the accepted rows with grid points in their step, then the
products of the theta powers with it.  Below ``DENSE_ROWS`` accepted
rows those are one (m, 4) @ (4, n) product per row; from
``DENSE_ROWS`` up they are two stacked products: a (G, 1, 4) stack of
the rows with one sample and a (G, mx, 4) stack of the rows with two or
more, each padded to the longest by repeating a row's last grid point.
The two stacks stay apart because a (1, 4) @ (4, n) product is not
bitwise a row of an (m, 4) @ (4, n) one (nor is a stage-major
(7, B*n) product the per-row one); within each stack a row gets the
bits of its own product, and a padding row those of its row's last
sample, so that a stack is written to the batch's samples whole.  The
exponential method's samples come from its own order-4 extension of
each step (see ``lfbloch.exponential``).  A row whose samples come out
non-finite stops there with ``NonFiniteRhsError``.  When ``solve`` keeps
only some state columns, every pass is stacked: it writes the kept
columns of its samples to the batch's and folds the ``measure`` of
each into a running maximum per row, so the dropped columns are never
stored.

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
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

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
_C_FLOATS = _C.tolist()

# Accepted rows in a pass at and above which dense output is stacked
# products over the rows; below it, one product per row is faster (see
# CHANGES.md)
DENSE_ROWS = 8

# Unfinished rows at and below which a Dormand-Prince pass runs in
# Python floats when solve is given a per-row right-hand side; above
# it, the array form is faster (see CHANGES.md)
FLOAT_ROWS = 4


@dataclass
class OdeResult:
    """Samples of every row on its grid plus per-row integrator statistics.

    Row b's samples are ``t[offsets[b]:offsets[b + 1]]`` and the same rows
    of ``y`` (see :meth:`row`, which returns views).  ``t`` is the only
    copy of the grids: ``solve`` keeps none of the arrays of ``t_eval``.
    ``y`` holds the state columns that ``solve`` was asked to keep, in
    that order.  ``errors[b]`` is None, or the StepSizeUnderflowError
    that stopped row b: its samples past the failure and its
    ``y_end[b]`` are NaN.  The counters are arrays so that ``np.sum``
    totals them over the batch.  ``measure_max[b]`` is the largest
    ``measure`` of row b's samples (NaN for a failed row; None without
    a measure).
    """

    t: np.ndarray           # every row's grid, concatenated
    y: np.ndarray           # shape (t.size, number of kept columns)
    offsets: np.ndarray     # shape (B + 1,)
    y_end: np.ndarray       # shape (B, n): state at t_end (for chaining)
    n_accepted: np.ndarray  # shape (B,)
    n_rejected: np.ndarray  # shape (B,)
    n_rhs: np.ndarray       # shape (B,)
    errors: list            # B entries: None or StepSizeUnderflowError
    measure_max: np.ndarray | None = None  # shape (B,)

    def row(self, b: int) -> tuple[np.ndarray, np.ndarray]:
        """The (t, y) samples of row b."""
        lo, hi = self.offsets[b], self.offsets[b + 1]
        return self.t[lo:hi], self.y[lo:hi]


def _rms(x: np.ndarray) -> np.ndarray:
    """The root mean square of each row of x: ``np.mean`` of one row,
    whose sum ``np.add.reduce`` along a row repeats."""
    return np.sqrt(np.add.reduce(x ** 2, axis=1) / x.shape[1])


def _initial_step(rhs, t0, y0, P, f0, t_end, rtol, atol,
                  max_step) -> np.ndarray:
    """Starting-step heuristic of Hairer, Norsett & Wanner (I.4, alg. 4.14)
    of every row at once, with one probe call of rhs over them.

    Row b starts at t0[b] from y0[b], where ``rhs`` is f0[b], in the
    piece of constants P[b] that ends at t_end[b]; rtol and atol are
    (B,) arrays.  Returns the (B,) starting steps, each with the bits of
    the row's heuristic on Python floats: its branches are masks, and
    ``np.float_power`` is CPython's ``**``.
    """
    scale = atol[:, None] + rtol[:, None] * np.abs(y0)
    d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    span = t_end - t0
    # the Python-float arithmetic of the heuristic raises no warning
    with np.errstate(all="ignore"):
        # d1 is inf when f0/scale overflows (1/d1 would make h0 or h1
        # zero)
        h0 = np.where((d0 < 1e-5) | (d1 < 1e-5) | (d1 == math.inf), 1e-6,
                      0.01 * d0 / d1)
        h0 = np.minimum(np.minimum(h0, span), max_step)
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
        return np.minimum(np.minimum(np.minimum(100 * h0, h1), span),
                          max_step)


def _column(values: Sequence[float]):
    """Per-row factors that broadcast over the rows of a (B, n) array.

    A batch of one gets its float: numpy multiplies an array by a
    scalar faster than by a (1, 1) column, with the same bits.
    """
    return values[0] if len(values) == 1 else np.array(values)[:, None]


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

    __slots__ = ("index", "t", "h", "stop", "c", "last", "K", "times",
                 "lo", "i_out")

    def __init__(self, index, t, h, stop, c, last, K, times, lo, i_out):
        self.index, self.t, self.h, self.last = index, t, h, last
        # the current piece's end, and its constants as the per-row
        # right-hand side reads them
        self.stop, self.c = stop, c
        self.K = K  # this row's (7, n) stages: a view into the batch's
        # a view of the row's grid, which starts at index lo of the
        # batch's, and the index in it of the next grid point to sample
        self.times, self.lo, self.i_out = times, lo, i_out


class _Jobs(NamedTuple):
    """The steps accepted in a pass with grid points inside them, as
    sequences with one entry per job.  Job g is the step of length h[g]
    from t[g] of batch row index[g], at position rows[g] of the pass's
    rows (its state and stages are ``y[rows[g]]`` and ``K[rows[g]]``);
    it covers the grid points and samples start[g]:end[g] of the
    batch's."""

    rows: Sequence[int]
    t: Sequence[float]
    h: Sequence[float]
    start: Sequence[int]
    end: Sequence[int]
    index: Sequence[int]


_NO_JOBS = _Jobs([], [], [], [], [], [])


def _grid_search(t_all, lo, hi, x, t, gap):
    """``lo + t_all[lo:hi].searchsorted(x, "right")`` of each entry of
    the arrays lo, hi, x, t and gap: the first index of a row's sorted
    grid segment lo:hi past x, or hi, where the segment's points lie
    above t and gap is the smallest rounded difference of two neighbours
    on the row's grid.  One bisection over every row at once (binary
    lifting on exact comparisons), with no per-sample array; it starts
    at the most points that any row's (t, x] can hold, capped by its
    segment, not at the longest segment."""
    # The bound.  c points p_k < ... < p_{k+c-1} in (t, x] lie at least
    # gap/(1 + u) apart in exact arithmetic (gap is a rounded
    # difference; u the unit roundoff), so (c - 1)*gap/(1 + u) <=
    # p_{k+c-1} - p_k < x - t, and c <= floor((x - t)*(1 + u)/gap) + 1.
    # The rounded quotient of the rounded x - t is within a few u of
    # (x - t)/gap, which the relative margin covers, and within less
    # than 1 of it where it is subnormal, which the +2 covers.  A
    # quotient that overflows, or a one-point grid's inf gap, leaves
    # the segment as the cap (np.fmin drops an inf/inf NaN).
    width = np.fmin(hi - lo, (x - t) / gap * (1.0 + 1e-12) + 2.0)
    lo = lo.copy()
    step = 1 << int(width.max(initial=0)).bit_length()
    top = hi - 1
    while step > 1:
        step >>= 1
        # a probe past the segment reads its last point: while that is
        # at most x, lo runs past hi, and else it stays put, as it should
        probe = np.minimum(lo + (step - 1), top)
        np.add(lo, step, out=lo, where=t_all.take(probe, mode="clip") <= x)
    return np.minimum(lo, hi, out=lo)


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


def _dense_output(jobs, stacked, y, K, t_all, y_all, subset) -> list:
    """Write the samples of the steps just accepted.

    Each job of ``jobs`` (see ``_Jobs``) writes its samples to its rows
    of the batch's samples ``y_all`` (see ``_store`` for ``subset``,
    which needs ``stacked``).  ``_P_T @ K`` is one stacked product over
    the jobs' rows; with ``stacked`` the products with the theta powers
    are stacked too (see the module docstring).  Returns the positions
    in ``jobs`` of the jobs whose samples are not all finite.
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
        for r, t, h, a, b, q in zip(rs, jobs.t, jobs.h, jobs.start,
                                    jobs.end, Q):
            v = y_all[a:b]
            _samples(t_all[a:b], t, h, y[r], q, v)
            # NaN or inf in v makes v . v non-finite (so may an overflow,
            # which the exact check below then clears)
            finite = finite and math.isfinite(np.vdot(v, v))
        if finite:
            return failed
        for g, (r, t, h, a, b) in enumerate(zip(rs, jobs.t, jobs.h,
                                                jobs.start, jobs.end)):
            v = y_all[a:b]
            if not np.isfinite(v).all() and not np.isfinite(_rescaled(
                    t_all[a:b], t, h, y[r], K[r], v)).all():
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
        at = start[g, None] + np.minimum(np.arange(m_g.max()), m_g - 1)
        powers = np.empty(at.shape + (4,))
        theta = powers[..., 0]
        np.divide(t_all[at] - t[g, None], h[g, None], out=theta)
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
                r, lo, hi = rs[b], start[b], end[b]
                v = _rescaled(t_all[lo:hi], t[b], h[b], y[r], K[r],
                              np.empty((hi - lo, y.shape[1])))
                if np.isfinite(v).all():
                    _store(y_all, subset, np.arange(lo, hi)[None],
                           v[None], index[b:b + 1])
                else:
                    failed.append(b)
            g, at, samples = g[ok], at[ok], samples[ok]
        _store(y_all, subset, at, samples, index[g])
    return failed


def _attempt_floats(f, act, y, K, heads, rtol, atol):
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
        rtol_b, atol_b = rtol[row.index], atol[row.index]
        total = None
        for a, b, e in zip(y_b, new_b, e_b):
            a, b = abs(a), abs(b)
            x = h * e / (atol_b + rtol_b * (a if a >= b else b))
            # b - b is NaN for a non-finite new state, as in the array form
            x = x * x + (b - b)
            # left to right, as np.add.reduce sums fewer than 8 terms
            total = x if total is None else total + x
        errs.append(math.sqrt(total / n))
    return np.array(new), errs


def solve(
    rhs: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    pieces: Sequence[Sequence[tuple[float, Sequence[float]]]],
    t0: Sequence[float],
    y0: np.ndarray,
    t_eval: Iterable[np.ndarray],
    rtol: Sequence[float],
    atol: Sequence[float],
    max_step: float = math.inf,
    linear: tuple | None = None,
    row_rhs: tuple | None = None,
    columns: Sequence[int] | None = None,
    measure: Callable[[np.ndarray], np.ndarray] | None = None,
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
        Initial state of each row (real components), finite.
    t_eval : iterable of B arrays
        Strictly increasing, finite evaluation grid of each row, inside
        its span.  The solution is interpolated onto it with the
        method's dense output.  The grids are read once, in order, and
        copied end to end into one array (``OdeResult.t``) before the
        samples are allocated; every row reads a view of it.  A caller
        that passes a generator therefore never holds more than one
        grid besides that copy.
    rtol, atol : sequences of B floats
        Relative/absolute tolerance of each row's error control,
        positive and finite.
    max_step : float, optional
        Upper bound on the step size of every row.
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
        calls f for the stages of its steps (the first evaluation and
        the starting-step probes still call ``rhs``).  Not used by the
        exponential method or for n >= 8.
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
        with different numbers of constants, an empty, non-finite or
        non-increasing grid, a grid outside its span, or ``columns``
        that are none or not distinct columns of y0.
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
    mismatch = ValueError("pieces, t0, t_eval, rtol and atol need one "
                          "entry per row of y0")
    if not len(pieces) == len(t0) == len(rtol) == len(atol) == batch:
        raise mismatch
    rtol, atol = [float(x) for x in rtol], [float(x) for x in atol]
    if not all(0.0 < x < math.inf for x in rtol + atol):
        raise ValueError(f"rtol and atol must be positive and finite, "
                         f"got rtol = {rtol!r}, atol = {atol!r}")
    t0 = [float(a) for a in t0]
    pieces = [[(float(end), tuple(map(float, p))) for end, p in row]
              for row in pieces]
    k = len(pieces[0][0][1]) if batch and pieces[0] else 0
    # the grids are copied end to end into t_all as they come, so that a
    # generator's grids are alive one at a time; a grid that overflows
    # t_all makes room for the rest of the rows at its length, and at
    # least doubles it, so that rising lengths copy O(total) in all
    grids = iter(t_eval)
    t_all = np.empty(0)
    offsets = np.zeros(batch + 1, dtype=int)
    gaps = np.empty(batch)
    for b, (a, row) in enumerate(zip(t0, pieces)):
        grid = next(grids, None)
        if grid is None:
            raise mismatch
        grid = np.asarray(grid, dtype=float)
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
        # the smallest spacing, which bounds the grid search
        gaps[b] = np.diff(grid).min(initial=math.inf)
        if gaps[b] <= 0.0:
            raise ValueError("evaluation grid must be strictly increasing")
        if grid[0] < a or grid[-1] > ends[-1]:
            raise ValueError(
                f"evaluation grid [{grid[0]!r}, {grid[-1]!r}] outside "
                f"integration span [{a!r}, {ends[-1]!r}]"
            )
        lo = offsets[b]
        offsets[b + 1] = hi = lo + grid.size
        if hi > t_all.size:
            grown = np.empty(max(lo + grid.size * (batch - b),
                                 2 * t_all.size))
            grown[:lo] = t_all[:lo]
            t_all = grown
        t_all[lo:hi] = grid
    if next(grids, None) is not None:
        raise mismatch
    if t_all.size > offsets[-1]:
        t_all = t_all[:offsets[-1]].copy()
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
    errors = [None] * batch
    rtols, atols = np.array(rtol), np.array(atol)

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
                          rtols[b:b + 1], atols[b:b + 1], max_step)
        return end, c, f[0], h.item()

    # The controller state of the unfinished rows, in the order of the
    # rows of y, K and P: the batch's row index of each, and (B,) arrays
    # of their times, step sizes, piece ends, whether the step ends the
    # piece, and the indices into t_all of the next grid point and the
    # grid's end (the array form); from FLOAT_ROWS rows down, one _Row
    # each in act (the per-row form), and the counters as lists
    index = np.arange(batch)
    T = np.array(t0)
    stops = np.array([row[0][0] for row in pieces])
    P = np.array([row[0][1] for row in pieces]).reshape(batch, k)
    K = np.empty((batch, method.stages if method else 7, n))
    K[:, 0] = rhs(T, y, P)
    H = _initial_step(rhs, T, y, P, K[:, 0], stops, rtols, atols, max_step)
    lasts = np.zeros(batch, bool)
    cur, ends = offsets[:-1] + (t_all[offsets[:-1]] == T), offsets[1:]
    starts = np.flatnonzero(cur > offsets[:-1])
    if starts.size:  # the samples at t0
        _store(y_all, subset, offsets[starts, None], y[starts, None], starts)
    n_accepted, n_rejected = np.zeros(batch, int), np.zeros(batch, int)
    act = None
    heads = [K[:, :i] for i in range(7)]
    rtol_col, atol_col = _column(rtol), _column(atol)
    errs = None  # error norm of each row's last attempted step

    while True:
        if act is None and len(index) <= FLOAT_ROWS:  # the per-row form
            act = [_Row(b, t, h, stop, pieces[b][n_pieces[b] - 1][2], last,
                        K_b, t_all[lo:hi], lo, i - lo)
                   for b, t, h, stop, last, K_b, lo, hi, i in zip(
                       index.tolist(), T.tolist(), H.tolist(),
                       stops.tolist(), lasts.tolist(), K,
                       offsets[index].tolist(), ends.tolist(),
                       cur.tolist())]
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
                retry = ~accept
                accepted = accept.nonzero()[0]
                n_accepted[index[accepted]] += 1
                n_rejected[index[retry]] += 1
                nonfinite = ~np.isfinite(errs)
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
                j = _grid_search(t_all, i_out, ends[accepted], T_new,
                                 T[accepted], gaps[index[accepted]])
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
            H = np.minimum(H, max_step)
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
                        j = row.times.searchsorted(t_new, "right")
                        if j > row.i_out:
                            found.append((r, t, h, row.lo + row.i_out,
                                          row.lo + j, row.index))
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
                h = min(h, max_step)
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
            failed = method.dense_output(jobs, y, K, P, t_all, y_all,
                                         subset)
        else:
            failed = _dense_output(
                jobs, subset is not None or len(accepted) >= DENSE_ROWS, y,
                K, t_all, y_all, subset)
        for g in failed:  # the row stops at the step's start
            b = jobs.index[g]
            y_all[jobs.start[g]:offsets[b + 1]] = math.nan
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
            y, K, P, index = y[keep], K[keep], P[keep], index[keep]
            heads = [K[:, :i] for i in range(7)]
            rtol_col = _column(rtols[index].tolist())
            atol_col = _column(atols[index].tolist())
            if act is None:
                T, H, stops, lasts, cur, ends = (
                    a[keep] for a in (T, H, stops, lasts, cur, ends))
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
                                              rtol, atol)
                continue
            T = np.array([row.t for row in act])
            H = [row.h for row in act]
        if method:
            H = np.asarray(H)
            y_new, estimate = method.attempt(y, K, P, T, H)
            # a long row's error per unit step (see Exponential)
            estimate *= np.where(
                np.asarray(n_accepted)[index] >= method.span_steps,
                np.minimum(method.max_scale, np.maximum(1.0,
                                                        unit[index] / H)),
                1.0)[:, None]
        else:
            # the last two stages sit at t + h
            h_col = _column(H)
            stage_t = T[:, None] + h_col * _C
            for i in range(1, 6):
                stage = y + h_col * np.matmul(_A[i], heads[i])
                K[:, i] = rhs(stage_t[:, i], stage, P)
            y_new = y + h_col * np.matmul(_B, heads[6])
            K[:, 6] = rhs(stage_t[:, 5], y_new, P)
            estimate = h_col * np.matmul(_E, K)

        abs_new = np.abs(y_new)
        scale = atol_col + rtol_col * np.maximum(np.abs(y), abs_new)
        # np.mean(..., axis=1) without its Python-level overhead; adding
        # abs_new - abs_new (exactly 0, or NaN for a non-finite y_new,
        # whose inf scale would zero the estimate) rejects such a step
        errs = np.sqrt(np.add.reduce((estimate / scale) ** 2
                                     + (abs_new - abs_new),
                                     axis=1) / n)
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
    return OdeResult(t=t_all, y=y_all, offsets=offsets,
                     y_end=y_end, n_accepted=n_accepted,
                     n_rejected=n_rejected,
                     n_rhs=2 * np.array(n_pieces)
                     + (K.shape[1] - 1) * (n_accepted + n_rejected),
                     errors=errors, measure_max=peak)
