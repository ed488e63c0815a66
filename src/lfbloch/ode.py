"""Adaptive embedded Runge-Kutta integrators, batched: Dormand-Prince
8(5,3), and an exponential Runge-Kutta 4(3) method for stiff linear parts.

Dormand-Prince is the explicit 12-stage FSAL method of order 8 (DOP853
of Hairer, Norsett & Wanner): the eighth-order solution is propagated,
its embedded fifth- and third-order estimates combine into the per-step
error norm ``e5/sqrt((e5 + 0.01*e3)*n)`` (e5 and e3 their sums of
squares over the error scale), and an order-7 interpolant, with 3 more
stages evaluated only for steps that hold grid points, gives dense
output on each row's uniform sample grid.  Error control is applied to
every real component with the row's error scale ``tol + tol*|y|``.

The exponential method (``solve(..., linear=L)``) splits each row of the
state ``(Re z0, Im z0, w, Re z1, Im z1)`` as ``y' = L y + N(t, y)`` with
a constant complex 2x2 L acting on the pair (z0, z1), and integrates L
exactly through the phi-functions of h L (``lfbloch.exponential``,
imported on first use): its step is bounded by N rather than by L,
where Dormand-Prince's stability bounds its step by L, so that its
step count grows linearly with the stiffness; the exponential
method's count is measured, not flat.  The method holds a row that has
taken ``Exponential.span_steps`` steps to error per unit step, because
its error adds up over its steps: each row's unit step rides in its
piece constants with its L, and ``Exponential.attempt`` returns error
norms as ``_attempt`` does.  It takes seven
right-hand-side evaluations per attempted step against
Dormand-Prince's twelve, but its step is not bounded by L,
so it pays where L is stiff; the caller picks the method per call
(``lfbloch.dynamics`` sends model-B runs with a fast host pole to it).
A call without ``linear`` never imports or runs the second method.

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
its end, ``np.linspace(t0, end, points)``.  No array holds the grids.  A
grid point is computed where it is needed, from its index, by
linspace's arithmetic (``_points``), and the grid points that a step
covers are counted by an index computation: the floor of the step's end
over the grid step, fixed up by exact comparisons with the points on
either side (``_index``), which equals ``searchsorted`` on the built
grid.  A batch therefore holds its samples and no time arrays.

A row is a sequence of pieces, each with its own constants p (say, a
drive held constant between pulse edges) that every stage of a step
inside it reads, those at its end included.  The row restarts at each
piece's end as a fresh call would, so one call yields the bits and
counters of one call per piece, chained through ``y_end``.

Each stage is one right-hand-side call over all unfinished rows,
``rhs(t, Y, P)`` with the rows' stage times, states and piece
constants; so is the starting-step probe of the first step, and a
restart at a piece's end calls it on one row.  Each extra stage of
dense output is one call over the jobs of a flush (below), with the
constants of the piece their step lies in (copied before a restart's
take over).  ``rhs`` must compute
each row as it would alone (pure element-wise arithmetic does).  The
other forms that keep a row's bits are narrow: ``np.matmul`` of a
tableau row with the (B, i, w) stage slices of a stack whose last axis
is strided, element-wise operations with per-row (B, 1) columns,
``np.add.reduce`` along the row (which sums a row of fewer than 8 terms
as ``np.mean`` of that row alone does) and ``np.sqrt``.  The stage
stack K of either method is ``[..., ::2]`` of a (B, 16, 2w) buffer, w =
max(n, 2) (a row of one component repeats it in the second; the
exponential method fills stages 0..7), and every copy of it that a pass
takes, as rows retire too, is strided (``_strided``, ``_take``): numpy
then sums each tableau product in its own loop, left to right over
every weight from +0.0, with no BLAS call, so that a stage sum has the
same bits on any BLAS kernel, in any batch and in either form of an
attempt (numpy sends a contiguous stack, or a last axis of one item, to BLAS,
whose order depends on its kernel).

The step-size controller keeps each unfinished row's time, step size,
piece end, whether its step ends the piece, the index of its next grid
point and whether its last attempt was rejected as lists of Python
numbers, with each row's piece constants as ``row_rhs`` reads them;
only the first starting step is taken over all rows at once
(``_initial_step``, whose masks and ``np.float_power`` give the bits of
the heuristic on Python floats).  Each pass then goes through its rows
one by one: accept/reject is ``err <= 1`` (so NaN is rejected), accept
and reject share one step-size factor, ``_SAFETY * err**exponent``
clipped to [``_MIN_FACTOR``, ``_MAX_FACTOR``] (``_MAX_FACTOR`` for a
zero error, ``_MIN_FACTOR`` for a non-finite one), the floor is 10 ulps
of the row's time, ``_index`` counts the grid points inside an accepted
step, and a restart at a piece's end or a failure is the row's own.  A
Dormand-Prince accept right after a rejection clips the factor to 1, so
that the step does not grow there: the rule of DOP853 and of scipy's,
whose accepted and rejected counts the rows then take.  The exponential
method does not cap that factor.

A pass of more than ``FLOAT_ROWS`` rows attempts its steps on arrays
(``_attempt``), and so does every pass of the exponential method.  A pass of at most ``FLOAT_ROWS`` Dormand-Prince rows
of n < 8 components attempts them in Python floats when ``solve`` is
also given the per-row form of the right-hand side (``row_rhs``): on so
few rows numpy's call overhead is the cost of a pass.  Its code is
straight-line Python, built from the tableau once per n on the first
float-form pass and cached (``_float_code``; it takes milliseconds to
compile, so it is not built at import): every tableau and error sum is
written out left to right over every weight, zeros included, from
+0.0, the order of numpy's loop on arrays, and the stages go to K in
one write per attempt, with no numpy call per stage.  Each stage state
``y + h*k``, the new state and the error norm are the array form's
operations, element by element, on Python floats, which have the same
IEEE bits (``x * x`` for ``x ** 2``, a comparison for ``np.maximum`` of
non-negative values).  The sum of squares runs left to right: that is
how ``np.add.reduce`` sums fewer than 8 terms (from 8 on it sums
pairwise, hence the bound on n).  A row therefore takes the same steps
in either form.  Whether the rows are ``FLOAT_ROWS`` or fewer is
decided once each time they change, at the start and when rows retire,
and read by the next attempt alone: a run switches to the float form at the first attempt after its batch
drops to ``FLOAT_ROWS`` rows.

Dense output is written by samples, not by passes: it never feeds the
steps (it is each step's continuous extension), and a row's samples
have the same bits in any stack or slice, so when it is written moves
no bit.  Each pass adds its jobs, its accepted steps with grid points
in them, to one waiting set, with copies of their rows of y, of K's
stages up to the FSAL stage and of P, taken before restarts and the
FSAL copy overwrite them.  The set is flushed once it holds a stack's
worth of samples, ``DENSE_SAMPLES`` or 1/64 (``STACK_SHARE``) of the
batch's, whichever is more, and once after the last pass; a wide pass
that fills a stack by itself is written at its own end.  A flush
gathers the waiting rows into one strided stack, and both methods'
dense output reads that gather alone.  For Dormand-Prince it first
evaluates the 3 extra stages of every job into the gathered K (one
``_stages`` call), then takes ``Q = _P_T @ K`` of their 16 stages, one
stacked product, and one kernel (``_samples``) takes y + h*(powers @
Q) with the powers theta^1..7, theta from the grid points that
``_points`` computes.  Every product is of matrices of two samples and
two columns at least, as a matrix-vector product need not give the bits
of a row of a matrix product: a one-sample step repeats its grid point,
Q has the w columns of K, and the samples are the product's first rows
and n columns.  The products are stacked: (G, mx, 7) stacks of the
jobs in order, each padded to its longest by repeating a job's last
grid point, and each of one job or of at most a stack's worth of
samples.  A stack reads its jobs' grids and steps from one per-job
table of the flush and frees its arrays before the next stack
allocates.  Its powers are a view of one power-major (7, G, mx)
buffer, theta and each power a contiguous row, which BLAS reads without
a copy, with the bits of the row-major stack.  Within each stack a job
gets the bits of its own product (a stage-major (16, B*n) product would
not), and a padding row those of its job's last sample, so that a stack
is written whole.  The exponential method's samples come from its own
order-4 extension of each step (see ``lfbloch.exponential``), in slices
of at most ``DENSE_SAMPLES`` samples.  A job whose samples come out
non-finite is replayed at the flush as if its row had stopped there:
the row's samples from that step's start and its ``y_end`` are NaN, its
``NonFiniteRhsError`` names that step (in place of any later error),
its counters go back to their values when the step was accepted, and
it retires if it is still running; so no result depends on where a
flush falls.  When ``solve`` keeps only some state columns, each flush
writes the kept columns of its samples to the batch's and folds the
``measure`` of each into a running maximum per row, so the dropped
columns are never stored.

The run is fully deterministic for identical inputs and reports exact
accepted/rejected step counts per row.

References
----------
Prince & Dormand, J. Comp. Appl. Math. 7, 67 (1981); Hairer, Norsett &
Wanner, "Solving Ordinary Differential Equations I", 2nd ed., Sec.
II.4-II.6 (DOP853: its coefficients, error estimator and dense output;
step-size control and the starting-step heuristic); Hochbruck &
Ostermann, SIAM J. Numer. Anal. 43, 1069 (2005) and Acta Numerica 19,
209 (2010) (exponential Runge-Kutta methods); Kassam & Trefethen, SIAM
J. Sci. Comput. 26, 1214 (2005) (phi-functions by contour integrals).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, NamedTuple, Sequence

import numpy as np

__all__ = ["NonFiniteRhsError", "OdeResult", "StepSizeUnderflowError",
           "solve"]


class StepSizeUnderflowError(RuntimeError):
    """The controller pushed the step below the floating-point floor."""


class NonFiniteRhsError(StepSizeUnderflowError):
    """The row stopped on a non-finite value: of the right-hand side, of
    the state, or of its dense output."""


# ---------------------------------------------------------------------------
# Dormand-Prince 8(5,3) tableau (DOP853 of Hairer, Norsett & Wanner)
# ---------------------------------------------------------------------------
# Stages 0..11 make a step; stage 12 is f at the new state (FSAL): its
# row of A is the weights B.  Stages 13..15 are evaluated for dense
# output only.  A row of A as {stage: coefficient}, zero elsewhere
_C = np.array([
    0.0, 0.526001519587677318785587544488e-1,
    0.789002279381515978178381316732e-1, 0.118350341907227396726757197510,
    0.281649658092772603273242802490, 0.333333333333333333333333333333,
    0.25, 0.307692307692307692307692307692,
    0.651282051282051282051282051282, 0.6,
    0.857142857142857142857142857142, 1.0, 1.0, 0.1, 0.2,
    0.777777777777777777777777777778])
_A_ROWS = [
    {},
    {0: 5.26001519587677318785587544488e-2},
    {0: 1.97250569845378994544595329183e-2,
     1: 5.91751709536136983633785987549e-2},
    {0: 2.95875854768068491816892993775e-2,
     2: 8.87627564304205475450678981324e-2},
    {0: 2.41365134159266685502369798665e-1,
     2: -8.84549479328286085344864962717e-1,
     3: 9.24834003261792003115737966543e-1},
    {0: 3.7037037037037037037037037037e-2,
     3: 1.70828608729473871279604482173e-1,
     4: 1.25467687566822425016691814123e-1},
    {0: 3.7109375e-2, 3: 1.70252211019544039314978060272e-1,
     4: 6.02165389804559606850219397283e-2, 5: -1.7578125e-2},
    {0: 3.70920001185047927108779319836e-2,
     3: 1.70383925712239993810214054705e-1,
     4: 1.07262030446373284651809199168e-1,
     5: -1.53194377486244017527936158236e-2,
     6: 8.27378916381402288758473766002e-3},
    {0: 6.24110958716075717114429577812e-1,
     3: -3.36089262944694129406857109825,
     4: -8.68219346841726006818189891453e-1,
     5: 2.75920996994467083049415600797e1,
     6: 2.01540675504778934086186788979e1,
     7: -4.34898841810699588477366255144e1},
    {0: 4.77662536438264365890433908527e-1,
     3: -2.48811461997166764192642586468,
     4: -5.90290826836842996371446475743e-1,
     5: 2.12300514481811942347288949897e1,
     6: 1.52792336328824235832596922938e1,
     7: -3.32882109689848629194453265587e1,
     8: -2.03312017085086261358222928593e-2},
    {0: -9.3714243008598732571704021658e-1,
     3: 5.18637242884406370830023853209, 4: 1.09143734899672957818500254654,
     5: -8.14978701074692612513997267357,
     6: -1.85200656599969598641566180701e1,
     7: 2.27394870993505042818970056734e1, 8: 2.49360555267965238987089396762,
     9: -3.0467644718982195003823669022},
    {0: 2.27331014751653820792359768449,
     3: -1.05344954667372501984066689879e1,
     4: -2.00087205822486249909675718444,
     5: -1.79589318631187989172765950534e1,
     6: 2.79488845294199600508499808837e1,
     7: -2.85899827713502369474065508674, 8: -8.87285693353062954433549289258,
     9: 1.23605671757943030647266201528e1,
     10: 6.43392746015763530355970484046e-1},
    {0: 5.42937341165687622380535766363e-2,
     5: 4.45031289275240888144113950566, 6: 1.89151789931450038304281599044,
     7: -5.8012039600105847814672114227, 8: 3.1116436695781989440891606237e-1,
     9: -1.52160949662516078556178806805e-1,
     10: 2.01365400804030348374776537501e-1,
     11: 4.47106157277725905176885569043e-2},
    {0: 5.61675022830479523392909219681e-2,
     6: 2.53500210216624811088794765333e-1,
     7: -2.46239037470802489917441475441e-1,
     8: -1.24191423263816360469010140626e-1,
     9: 1.5329179827876569731206322685e-1,
     10: 8.20105229563468988491666602057e-3,
     11: 7.56789766054569976138603589584e-3, 12: -8.298e-3},
    {0: 3.18346481635021405060768473261e-2,
     5: 2.83009096723667755288322961402e-2,
     6: 5.35419883074385676223797384372e-2,
     7: -5.49237485713909884646569340306e-2,
     10: -1.08347328697249322858509316994e-4,
     11: 3.82571090835658412954920192323e-4,
     12: -3.40465008687404560802977114492e-4,
     13: 1.41312443674632500278074618366e-1},
    {0: -4.28896301583791923408573538692e-1,
     5: -4.69762141536116384314449447206, 6: 7.68342119606259904184240953878,
     7: 4.06898981839711007970213554331,
     8: 3.56727187455281109270669543021e-1,
     12: -1.39902416515901462129418009734e-3,
     13: 2.9475147891527723389556272149, 14: -9.15095847217987001081870187138},
]
_A = [np.array([row.get(j, 0.0) for j in range(i)])
      for i, row in enumerate(_A_ROWS)]
_B = _A[12]
# the errors of the 5th- and 3rd-order embedded solutions, on stages 0..11
_E5 = np.array([0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0,
                -0.1225156446376204440720569753e+1,
                -0.4957589496572501915214079952,
                0.1664377182454986536961530415e+1,
                -0.3503288487499736816886487290,
                0.3341791187130174790297318841,
                0.8192320648511571246570742613e-1,
                -0.2235530786388629525884427845e-1])
_E3 = _B - np.array([0.244094488188976377952755905512, 0.0, 0.0, 0.0, 0.0,
                     0.0, 0.0, 0.0, 0.733846688281611857341361741547, 0.0,
                     0.0, 0.220588235294117647058823529412e-1])
# the order-7 interpolant: y(t0 + theta*h) = y0 + h*sum_j F_j b_j(theta)
# with F = W @ K on all 16 stages and b_j(theta) = theta,
# theta(1-theta), theta^2(1-theta), theta^2(1-theta)^2,
# theta^3(1-theta)^2, theta^3(1-theta)^3, theta^4(1-theta)^3 ...
_D_ROWS = [
    {0: -0.84289382761090128651353491142e+1,
     5: 0.56671495351937776962531783590,
     6: -0.30689499459498916912797304727e+1,
     7: 0.23846676565120698287728149680e+1,
     8: 0.21170345824450282767155149946e+1,
     9: -0.87139158377797299206789907490,
     10: 0.22404374302607882758541771650e+1,
     11: 0.63157877876946881815570249290,
     12: -0.88990336451333310820698117400e-1,
     13: 0.18148505520854727256656404962e+2,
     14: -0.91946323924783554000451984436e+1,
     15: -0.44360363875948939664310572000e+1},
    {0: 0.10427508642579134603413151009e+2,
     5: 0.24228349177525818288430175319e+3,
     6: 0.16520045171727028198505394887e+3,
     7: -0.37454675472269020279518312152e+3,
     8: -0.22113666853125306036270938578e+2,
     9: 0.77334326684722638389603898808e+1,
     10: -0.30674084731089398182061213626e+2,
     11: -0.93321305264302278729567221706e+1,
     12: 0.15697238121770843886131091075e+2,
     13: -0.31139403219565177677282850411e+2,
     14: -0.93529243588444783865713862664e+1,
     15: 0.35816841486394083752465898540e+2},
    {0: 0.19985053242002433820987653617e+2,
     5: -0.38703730874935176555105901742e+3,
     6: -0.18917813819516756882830838328e+3,
     7: 0.52780815920542364900561016686e+3,
     8: -0.11573902539959630126141871134e+2,
     9: 0.68812326946963000169666922661e+1,
     10: -0.10006050966910838403183860980e+1,
     11: 0.77771377980534432092869265740,
     12: -0.27782057523535084065932004339e+1,
     13: -0.60196695231264120758267380846e+2,
     14: 0.84320405506677161018159903784e+2,
     15: 0.11992291136182789328035130030e+2},
    {0: -0.25693933462703749003312586129e+2,
     5: -0.15418974869023643374053993627e+3,
     6: -0.23152937917604549567536039109e+3,
     7: 0.35763911791061412378285349910e+3,
     8: 0.93405324183624310003907691704e+2,
     9: -0.37458323136451633156875139351e+2,
     10: 0.10409964950896230045147246184e+3,
     11: 0.29840293426660503123344363579e+2,
     12: -0.43533456590011143754432175058e+2,
     13: 0.96324553959188282948394950600e+2,
     14: -0.39177261675615439165231486172e+2,
     15: -0.14972683625798562581422125276e+3},
]
_B16 = [*_B, 0.0, 0.0, 0.0, 0.0]  # the weights B on all 16 stages
_W = [_B16,
      [(s == 0) - b for s, b in enumerate(_B16)],
      [2.0 * b - (s == 0) - (s == 12) for s, b in enumerate(_B16)],
      *([row.get(s, 0.0) for s in range(16)] for row in _D_ROWS)]
# ... which in powers theta^1..7 are the rows of _BASIS: then y(t0 +
# theta*h) = y0 + h * K.T @ _P @ [theta, theta^2, ..., theta^7], each
# entry of _P summed by math.fsum, with the same bits on any machine
_BASIS = [[1, 0, 0, 0, 0, 0, 0], [1, -1, 0, 0, 0, 0, 0],
          [0, 1, -1, 0, 0, 0, 0], [0, 1, -2, 1, 0, 0, 0],
          [0, 0, 1, -2, 1, 0, 0], [0, 0, 1, -3, 3, -1, 0],
          [0, 0, 0, 1, -3, 3, -1]]
_P = np.array([[math.fsum(w[s] * b[q] for w, b in zip(_W, _BASIS))
                for q in range(7)] for s in range(16)])

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_ORDER_EXPONENT = -0.125  # -1/(error estimator order + 1)
_START_EXPONENT = 0.125   # of the starting-step heuristic
_FSAL = 12  # the stage that is f at the new state
_EXTRA = range(_FSAL + 1, len(_C))  # the stages of dense output alone

_P_T = _P.T

# Unfinished rows at and below which a Dormand-Prince pass attempts its
# steps in Python floats when solve is given a per-row right-hand side;
# above it, attempts on arrays are faster (see CHANGES.md).  The one
# switch between the two forms of an attempt
FLOAT_ROWS = 4

# Samples at most per slice of the exponential method's dense output,
# with about 2 kB of arrays per sample (its phi-functions, their contour
# means and divided-difference series), and the least bound of a
# Dormand-Prince stack and of a flush of the waiting jobs: a row's bits
# do not depend on its stack, slice or flush
DENSE_SAMPLES = 1536

# A flush of the waiting jobs' dense output comes once they hold
# max(DENSE_SAMPLES, B // STACK_SHARE) samples, B the samples of the
# batch's own buffer, and a stacked product of Dormand-Prince's holds up
# to that many (but for a stack of one job).  A stack's arrays take about
# 0.09 kB per stacked sample of 3 components and 0.12 kB of 5: about
# 1.4-1.9 bytes per sample of any batch past 64 * DENSE_SAMPLES samples,
# which makes fewer numpy calls (a 256-run sweep of 1601 points:
# 6404-sample stacks, 75 a job against 288 of 1536)
STACK_SHARE = 64

# The smallest normal float: a grid from 0 whose step is at least this
# has distinct points (see solve)
_TINY = 2.0 ** -1022


def _points(k, t0, step, last, end, out=None):
    """The points k of the grids ``np.linspace(t0, end, last + 1)``
    whose step ``(end - t0)/last`` is not 0, by linspace's arithmetic:
    ``k*step + t0``, and end for the last, written into out if given.
    k is an array of ints or of integral floats (their products with
    step have the same bits); the others are arrays or numbers that
    broadcast with it."""
    t = np.multiply(k, step, out=out)
    t += t0
    np.copyto(t, end, where=k == last)
    return t


def _times(k, t0, step, last, end):
    """The points k of one grid as ``_points`` computes them, for k a
    non-empty run lo..hi-1 of its indices as floats: a grid from 0 adds
    no t0 (k*step is not negative, so + 0.0 would change no bit), and
    only the run's last point can be the end."""
    t = k * step
    if t0:
        t += t0
    if k[-1] == last:
        t[-1] = end
    return t


def _index(x, t0, step, last, end):
    """``np.linspace(t0, end, last + 1).searchsorted(x, "right")``
    without the grid: the number of grid points at most x.

    The floor of ``(x - t0)/step``, clipped to the grid, plus one,
    misses it by a few points at most on a grid of distinct points (by
    one from t0 = 0): the points and the quotient are within a few
    roundings of the exact ones.  Exact comparisons with the points on
    either side then fix it up (``int`` floors the clipped quotient,
    which is not negative).
    """
    q = (x - t0) / step
    j = int(q if q < last else last) + 1 if q > 0.0 else 1
    while j and (end if j - 1 == last else (j - 1) * step + t0) > x:
        j -= 1
    while j <= last and (end if j == last else j * step + t0) <= x:
        j += 1
    return j


class _Grids(NamedTuple):
    """Every row's sample grid, by arithmetic: ``params[b]`` is row b's
    (t0, step, last, end), the grid ``np.linspace(t0, end, last + 1)``
    with a step that is not 0.  Row b's samples are the rows
    offsets[b]:offsets[b + 1] of the batch's, one per grid point.
    ``ks`` holds the indices of the longest grid as floats, which a
    slice reads faster than ``np.arange`` builds them."""

    offsets: np.ndarray  # shape (B + 1,)
    params: np.ndarray   # shape (B, 4)
    ks: np.ndarray


@dataclass
class OdeResult:
    """Samples of every row on its grid plus per-row integrator statistics.

    Row b's samples are the rows ``offsets[b]:offsets[b + 1]`` of ``y``,
    at the points of its grid ``np.linspace(t0[b], end, offsets[b + 1] -
    offsets[b])`` (see ``solve``), which the result does not hold.
    ``y`` holds the state columns that ``solve`` was asked to keep, in
    that order.  ``errors[b]`` is None, or the StepSizeUnderflowError
    that stopped row b: its samples past the failure and its
    ``y_end[b]`` are NaN.  The counters are arrays so that ``np.sum``
    totals them over the batch.  ``measure_max[b]`` is the largest
    ``measure`` of row b's samples (NaN for a failed row; None without
    a measure).
    """

    y: np.ndarray           # shape (offsets[-1], number of kept columns)
    offsets: np.ndarray     # shape (B + 1,)
    y_end: np.ndarray       # shape (B, n): state at its end (for chaining)
    n_accepted: np.ndarray  # shape (B,)
    n_rejected: np.ndarray  # shape (B,)
    n_rhs: np.ndarray       # shape (B,)
    errors: list            # B entries: None or StepSizeUnderflowError
    measure_max: np.ndarray | None = None  # shape (B,)

    @property
    def t(self) -> SimpleNamespace:
        """The size of every row's grid end to end, ``t.size``: the
        number of samples."""
        return SimpleNamespace(size=int(self.offsets[-1]))


def _rms(x: np.ndarray) -> np.ndarray:
    """The root mean square of each row of x: ``np.mean`` of one row,
    whose sum ``np.add.reduce`` along a row repeats."""
    return np.sqrt(np.add.reduce(x ** 2, axis=1) / x.shape[1])


def _initial_step(rhs, t0, y0, P, f0, t_end, tol,
                  power=_START_EXPONENT) -> np.ndarray:
    """Starting-step heuristic of Hairer, Norsett & Wanner (I.4, alg. 4.14)
    of every row at once, with one probe call of rhs over them.

    Row b starts at t0[b] from y0[b], where ``rhs`` is f0[b], in the
    piece of constants P[b] that ends at t_end[b]; tol is the (B, 1)
    column of their tolerances, and power the method's: Dormand-Prince
    passes 1/8, 1/(error estimator order + 1) for its estimator of order
    7, as scipy's DOP853 does; the exponential method passes
    ``Exponential.start_exponent``, 1/5, though its estimator is of
    order 3.  Returns the (B,) starting steps, each with the bits of the
    row's heuristic on Python floats: its branches are masks, and
    ``np.float_power`` is CPython's ``**``.
    """
    scale = tol + tol * np.abs(y0)
    span = t_end - t0
    # the Python-float arithmetic of the heuristic raises no warning
    with np.errstate(all="ignore"):
        d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
        # d1 is inf when f0/scale overflows (1/d1 would make h0 or h1
        # zero)
        h0 = np.where((d0 < 1e-5) | (d1 < 1e-5) | (d1 == math.inf), 1e-6,
                      0.01 * d0 / d1)
        h0 = np.minimum(h0, span)
    f1 = rhs(t0 + h0, y0 + h0[:, None] * f0, P)
    with np.errstate(all="ignore"):
        d2 = _rms((f1 - f0) / scale)
        d2 /= h0
        # f0 or f1 overflowed the error scale or went non-finite, or 1/h0
        # overflowed on a piece shorter than about 1e-302: keep h0, which
        # fits in the piece
        h1 = np.where(np.isfinite(d1) & np.isfinite(d2),
                      np.float_power(0.01 / np.maximum(d1, d2), power),
                      h0)
        h1 = np.where((d1 <= 1e-15) & (d2 <= 1e-15),
                      np.maximum(1e-6, h0 * 1e-3), h1)
        return np.minimum(np.minimum(100 * h0, h1), span)


def _underflow(t: float, h: float, nonfinite: bool,
               K: np.ndarray) -> StepSizeUnderflowError:
    """The failure of a row whose step h fell below the floor at t.

    What went non-finite: when ``nonfinite``, in the row's last attempt,
    whose stages are K: those, or else the state; else, when h is not
    finite (NaN, as an inf step passes the floor), the right-hand side:
    ``_initial_step`` gives a NaN step only where f at the start or
    restart holds a NaN, and a later step is a finite one times a
    finite factor; else nothing, and the problem is too stiff.
    """
    if nonfinite and np.isfinite(K).all():
        culprit = "the state"
    elif nonfinite or not math.isfinite(h):
        culprit = "the right-hand side"
    else:
        culprit = None
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


class _Jobs(NamedTuple):
    """The accepted steps with grid points inside them that a flush
    writes, over passes, as sequences with one entry per job.  Job g is
    the step of length h[g] from t[g] of batch row index[g] (``solve``
    gathers its state, stages and piece constants into row g of the
    jobs' arrays); it covers the points start[g]:end[g] of its row's
    grid."""

    t: Sequence[float]
    h: Sequence[float]
    start: Sequence[int]
    end: Sequence[int]
    index: Sequence[int]


def _samples(powers, Q, h, y):
    """``y + h*(powers @ Q)`` on y's n columns: the dense output of steps
    of length h from states y at the thetas whose theta^1..7 are the rows
    of powers (see the module docstring), in place of the product;
    returns it."""
    samples = powers @ Q
    # powers passed as a temporary (CPython 3.11 on) are freed here
    del powers
    samples *= h
    samples = samples[..., :y.shape[-1]]
    return np.add(y, samples, out=samples)


def _stacked_powers(k, t0, step, last, end, t, h):
    """theta^1..7 (G, mx, 7), theta = (t_k - t)/h at the points k of G
    grids (``_points``), as a view of a (7, G, mx) buffer."""
    by_power = np.empty((7,) + k.shape)
    theta = _points(k, t0, step, last, end, out=by_power[0])
    theta -= t
    theta /= h
    # theta^2..7 by products: the bits of np.multiply.accumulate
    for q in range(1, 7):
        np.multiply(by_power[q - 1], theta, out=by_power[q])
    return by_power.transpose(1, 2, 0)


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


def _dense_output(jobs, y, Q, grids, y_all, subset, size) -> list:
    """Write the samples of the waiting steps.

    Job g of ``jobs`` (see ``_Jobs``), from state y[g] with ``Q[g] =
    _P_T @ K[g]`` of its 16 stages (a flush's gather of the jobs' rows),
    writes its samples at its grid points (of ``grids``, a ``_Grids``)
    to its rows of the batch's samples ``y_all`` (see ``_store`` for
    ``subset``), in stacks of at most size samples or of one job (see
    the module docstring).  Returns the positions in ``jobs`` of the
    jobs whose samples are not all finite.
    """
    failed = []
    t, h, start, end, index = map(np.asarray, jobs)
    m = end - start
    # each job's grid (t0, step, last, end), its step (t, h), the index
    # of its first grid point, the sample row of its grid's point 0 and
    # the number of its points past the first, as floats (exact): one
    # gather per stack
    table = np.column_stack((grids.params[index], t, h, start,
                             grids.offsets[index], m - 1))
    # stacks of the jobs in order, each of size samples or fewer (padded
    # to two samples at least), or of one job
    rows = max(1, size // max(2, int(m.max())))
    every = np.arange(m.size)
    for g in (every[lo:lo + rows] for lo in range(0, m.size, rows)):
        # each job's grid (t0, step, last, end) and step (t, h) last
        *params, first, row0, top = table[g].T[:, :, None]
        # each job's grid points, padded by repeating its last one, whose
        # sample then repeats the job's last bit for bit; then (below)
        # the rows that hold them
        k = np.minimum(grids.ks[:max(int(top.max()), 1) + 1], top)
        k += first
        # no two stacks' arrays are ever live at once
        samples = _samples(_stacked_powers(k, *params), Q[g],
                           params[-1][..., None], y[g, None])
        k += row0
        at = k.astype(int)
        if not np.isfinite(samples).all():
            ok = np.isfinite(samples).all(axis=(1, 2))
            failed += g[~ok].tolist()
            g, at, samples = g[ok], at[ok], samples[ok]
        _store(y_all, subset, at, samples, index[g])
        del samples, at, k
    return failed


def _extra_stages(jobs, y, K, P, rhs) -> None:
    """Evaluate the interpolant's extra stages of the jobs into K, from
    their states y and piece constants P (a flush's gather of the jobs'
    rows, row g job g's), one rhs call each over every job: a flush
    takes them on arrays, whatever form its steps' attempts took."""
    _stages(rhs, np.asarray(jobs.t), np.asarray(jobs.h), y, K, P, _EXTRA)


def _sum(weights, j):
    """Python source of the tableau sum of component j of the stages
    ``k{s}_{j}`` with the weights: left to right over every weight, zeros
    included, from +0.0, as numpy's own matmul loop takes it."""
    return "(0.0" + "".join(f" + {w!r} * k{s}_{j}"
                            for s, w in enumerate(weights)) + ")"


def _names(stem, n, brackets="[]"):
    """Python source of the names stem0 .. stem{n-1}, bracketed."""
    return brackets[0] + "".join(f"{stem}{j}, " for j in range(n)) \
        + brackets[1]


def _stage(i, n, states):
    """Python source that evaluates stage i of a row by f from the
    sources of its n state components."""
    # a Python float node: the repr of np.float64 would call it
    return (f"        {_names(f'k{i}_', n, '()')} = "
            f"f(t + h * {float(_C[i])!r}, [{', '.join(states)}], c)\n")


def _state(i, n):
    """Python source of the n components of stage i's state."""
    return [f"y{j} + h * {_sum(_A[i].tolist(), j)}" for j in range(n)]


@functools.cache
def _float_code(n):
    """The float form's straight-line code for rows of n components,
    compiled on first use: the body of ``_attempt_floats``.  Every
    tableau and error sum is written out by ``_sum``, so a row's sums
    have the bits of the array form's strided ``np.matmul``, with no
    numpy call per stage."""
    js, ys = range(n), _names("y", n, "()")
    lines = [
        "def attempt(f, T, H, C, index, y, K, tol):\n"
        "    news, stages, errs = [], [], []\n"
        f"    for t, h, c, i, {ys}, {_names('k0_', n, '()')} in zip(\n"
        f"            T, H, C, index, y.tolist(), K[:, 0, :{n}].tolist()):\n",
        *(_stage(i, n, _state(i, n)) for i in range(1, _FSAL)),
        *(f"        z{j} = {z}\n" for j, z in enumerate(_state(_FSAL, n))),
        _stage(_FSAL, n, [f"z{j}" for j in js]),
        "        tl = tol[i]\n"]
    for j in js:
        # the array form's _norm, element by element (x * x for x ** 2,
        # a comparison for np.maximum); b - b is NaN for a non-finite
        # new state
        lines.append(
            f"        a, b = abs(y{j}), abs(z{j})\n"
            "        sc = tl + tl * (a if a >= b else b)\n"
            f"        x{j} = h * {_sum(_E5.tolist(), j)} / sc\n"
            f"        x{j} = x{j} * x{j} + (b - b)\n"
            f"        v{j} = h * {_sum(_E3.tolist(), j)} / sc\n")
    # the sums of squares left to right, as np.add.reduce sums fewer
    # than 8 terms; one write of the stages
    lines.append(
        f"        s5 = {' + '.join(f'x{j}' for j in js)}\n"
        f"        s3 = {' + '.join(f'v{j} * v{j}' for j in js)}\n"
        f"        d = (s5 + 0.01 * s3) * {n}\n"
        "        errs.append((s5 / sqrt(d) if s5 > 0.0 else s5) + (d - d))\n"
        f"        news.append({_names('z', n)})\n"
        "        stages.append(["
        + ", ".join(_names(f"k{i}_", n) for i in range(1, _FSAL + 1))
        + "])\n"
        f"    K[:, 1:{_FSAL + 1}] = stages\n"
        "    return np.array(news), errs\n")
    space = {"np": np, "sqrt": math.sqrt}
    exec(compile("".join(lines), f"<ode float form, n = {n}>", "exec"),
         space)
    return space["attempt"]


def _attempt_floats(f, T, H, C, index, y, K, tol):
    """A Dormand-Prince attempt in Python floats of every row r of the
    pass, from T[r] by H[r] with piece constants C[r] and tolerance
    ``tol[index[r]]``: the new states (B, n) and the rows' error norms.
    It writes stages 1 to 12 of K once, at the end.

    The straight-line code of ``_float_code`` takes every sum in the
    order of the array form's and the rest of its arithmetic element by
    element, so each row gets its bits (see the module docstring).
    """
    return _float_code(y.shape[1])(f, T, H, C, index, y, K, tol)


def _norm(estimate, y, y_new, tol, third=None):
    """Each row's error norm: the root mean square of its estimate over
    the scale ``tol + tol*max(|y|, |y_new|)`` (tol the rows' (B, 1)
    column), by ``np.add.reduce`` as in np.mean of a row.  Adding
    abs_new - abs_new (exactly 0, or NaN for a non-finite y_new, whose
    inf scale would zero the estimate) rejects such a step.

    With ``third``, the 3rd-order estimate of Dormand-Prince 8(5,3), the
    norm is DOP853's: with e5 and e3 the sums of squares of the scaled
    estimates, ``e5/sqrt((e5 + 0.01*e3)*n)``, 0 where e5 is 0, and NaN
    where that denominator is not finite.
    """
    abs_new = np.abs(y_new)
    scale = tol + tol * np.maximum(np.abs(y), abs_new)
    e5 = np.add.reduce((estimate / scale) ** 2 + (abs_new - abs_new),
                       axis=1)
    if third is None:
        return np.sqrt(e5 / y.shape[1])
    d = (e5 + 0.01 * np.add.reduce((third / scale) ** 2, axis=1)) \
        * y.shape[1]
    return np.divide(e5, np.sqrt(d), out=e5.copy(), where=e5 > 0.0) \
        + (d - d)


def _strided(shape):
    """An empty float array of shape (..., w), w >= 2, whose last axis
    has a stride of two items.  ``np.matmul`` of a vector with a stack
    of such arrays runs numpy's own loop, which sums left to right over
    every weight from +0.0, where a contiguous stack goes to BLAS, whose
    order depends on its kernel (numpy ignores the stride of an axis of
    one item, hence w >= 2)."""
    return np.empty((*shape[:-1], 2 * shape[-1]))[..., ::2]


def _take(K, rows):
    """The rows of the stage stack K, strided as ``_strided``."""
    return np.take(K, rows, axis=0, out=_strided((len(rows), *K.shape[1:])))


def _stages(rhs, t, h, y, K, P, stages):
    """Evaluate the stages of K (m, 16, w) of m rows, one rhs call each:
    stage i at ``t + c_i*h`` from ``y + h*(A_i @ K[:, :i])``, t and h
    the rows' (m,) times and step sizes.  Returns the last stage's
    states."""
    h_col, n = h[:, None], y.shape[1]
    for i in stages:
        state = y + _times_h(h_col, _A[i], K[:, :i], n)
        K[:, i] = rhs(t + h * _C[i], state, P)
    return state


def _times_h(h, weights, K, n):
    """``h * (weights @ K)`` of each row on its n components, h the
    rows' (m, 1) column and K strided (``_strided``)."""
    return h * np.matmul(weights, K)[:, :n]


def _attempt(rhs, t, h, y, K, P, tol):
    """A Dormand-Prince attempt of m rows: the new states and error norms.

    t and h are the rows' (m,) times and step sizes, tol their (m, 1)
    column, y (m, n), P and K (m, 16, w) stages theirs, K strided
    (``_strided``); it writes stages 1 to 12.
    """
    state = _stages(rhs, t, h, y, K, P, range(1, _FSAL + 1))
    h_col, heads, n = h[:, None], K[:, :_FSAL], y.shape[1]
    return state, _norm(_times_h(h_col, _E5, heads, n), y, state, tol,
                        _times_h(h_col, _E3, heads, n))


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
    integrated exactly as it would be alone.  One step-size controller,
    with one clipped factor on accept and on reject (at most 1 on a
    Dormand-Prince accept right after a rejection, as in DOP853; the
    exponential method does not cap it), goes through every pass row by
    row; a pass of more than ``FLOAT_ROWS`` rows attempts its steps on
    arrays, a narrower one in Python floats (given ``row_rhs``).  Dense
    output waits across passes and is written in stacks of samples.

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
        spaced points from t0[b] to the row's end, ``np.linspace(t0[b],
        end, points[b])``, which must rise strictly (a step too small
        for the span repeats points).  The solution is interpolated onto them
        with the method's dense output.  No grid is built: a point is
        computed where it is sampled.
    tol : sequence of B floats
        The tolerance of each row's error control, positive and finite:
        the error scale of a component y is ``tol + tol*|y|``.  No step
        size is capped but by its piece's end.
    linear : array_like, shape (B, 2, 2), optional
        Integrate every row with the exponential method instead of
        Dormand-Prince (see the module docstring).  Row b's complex
        2x2 matrix is its constant linear part, the same in all its
        pieces; the state must be ``(Re z0, Im z0, w, Re z1, Im z1)``
        (n = 5), L acts on the pair (z0, z1), and w has none.  ``rhs``
        is still the whole right-hand side, L y included; each
        evaluation of it is counted.
    row_rhs : (read, f), optional
        The per-row form of ``rhs``, for the Python-float form of a pass
        (see the module docstring).  ``read(p)`` turns a piece's
        constants into the c that f reads, once per piece; ``f(t, y, c)``
        returns the derivative of one row, y a list of n floats, as n
        floats with the bits of that row of ``rhs``.  The float form
        calls f for the stages of its attempts alone (the first
        evaluation, the starting-step probes and the extra stages of
        dense output call ``rhs``).
        Not used by the exponential method or for n >= 8.
    columns : sequence of ints, optional
        The state columns that ``OdeResult.y`` holds, in this order
        (default: all n).  Dropped columns are computed, checked for
        finiteness and measured as the others, but never stored: a
        caller that reads some components only holds those.
    measure : callable ``measure(Y) -> ndarray``, optional
        Maps (m, n) whole-state samples to m floats, element by element;
        ``OdeResult.measure_max`` holds each row's largest.  With
        dropped columns it is taken on each flush's whole samples, with
        floating-point warnings off, and folded into a running maximum
        per row (``np.maximum``, so NaN propagates); otherwise on each
        row's samples once it is done.

    Returns
    -------
    OdeResult
        All rows' samples, final states, counters and failures.
        ``n_rhs`` counts 2 evaluations per piece, 12 per attempted
        Dormand-Prince step (7 for the exponential method) and 3 per
        Dormand-Prince step with grid points, those of its interpolant.
        A row
        whose step size falls below the floating-point floor does not
        raise: its StepSizeUnderflowError is stored in ``errors`` and
        the other rows are integrated to their end.  The message says
        why, and is the same in any batch: the problem is too stiff for
        this explicit method at the given tolerance, or the right-hand
        side or the state went non-finite (a step whose error estimate
        or new state is NaN or inf is rejected, never accepted), and then
        the error is the subclass NonFiniteRhsError.  So it is when the
        samples of an accepted step overflow: the row stops at the
        step's start, with the counters it had there.

    Raises
    ------
    ValueError
        For arguments of different lengths, a ``y0`` that is not 2-D or
        not finite, a tolerance that is not positive and finite, a
        ``linear`` part that is not B finite 2x2 matrices or on states
        of other than 5 components, or a row with no
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
                and not (np.diff(np.linspace(a, ends[-1], m)) > 0.0).all():
            raise ValueError(f"the {m} grid points on [{a!r}, "
                             f"{ends[-1]!r}] must rise strictly")
        params.append((a, step, m - 1, ends[-1]))
    offsets = np.zeros(batch + 1, dtype=int)
    np.cumsum(points, out=offsets[1:])
    grids = _Grids(offsets, np.array(params).reshape(batch, 4),
                   np.arange(max(points, default=0), dtype=float))
    method = None
    if linear is not None:
        L = np.array(linear, dtype=complex)
        if L.shape != (batch, 2, 2) or not np.isfinite(L).all():
            raise ValueError(f"linear part must be {batch} finite 2x2 "
                             f"matrices, got shape {L.shape}")
        # imported on first use: calls without it never compile it
        from lfbloch.exponential import N, Exponential
        if n != N:
            raise ValueError(f"the exponential method needs states of {N} "
                             f"components (Re z0, Im z0, w, Re z1, Im z1), "
                             f"got {n}")
        method = Exponential(rhs, k)
        # each row's L and unit step ride along with its piece constants
        extra = method.constants(L, grids.params[:, 3] - grids.params[:, 0])
        pieces = [[(end, p + tuple(x)) for end, p in row]
                  for row, x in zip(pieces, extra.tolist())]
        rhs, k = method.nonlinear, k + extra.shape[1]
    exponent = method.exponent if method else _ORDER_EXPONENT
    power = method.start_exponent if method else _START_EXPONENT
    # the largest factor of an accept right after a rejection:
    # Dormand-Prince's step does not grow there (DOP853, and scipy's
    # RungeKutta._step_impl); the exponential method's is not capped
    regrow = _MAX_FACTOR if method else 1.0
    # the stage that is f at the new state: the evaluations of an attempt
    fsal = method.stages - 1 if method else _FSAL
    # the evaluations of the dense output of a step with grid points
    extra = 0 if method else len(_EXTRA)
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
    dense = [0] * batch  # steps with grid points
    errors = [None] * batch
    tol_col = np.array(tol).reshape(batch, 1)  # in the order of y's rows
    # The jobs whose dense output waits, over passes: each one's (t, h,
    # start, end, batch row) and its row's counters (n_accepted,
    # n_rejected, n_pieces, dense) once its pass was over; each pass's
    # rows of y, K's stages 0..fsal and P of its jobs; and their samples.
    # A flush writes them once they hold a stack's worth of samples
    waiting, parts, held = [], [], 0
    size = max(DENSE_SAMPLES, len(y_all) // STACK_SHARE)

    def flush():
        """Write the samples of the waiting jobs and empty the set.  A
        job whose samples are not all finite stops its row at the step's
        start, as if it had stopped there: NaN samples from there on and
        y_end, that step's error in place of any later one, the counters
        of the step's pass.  Returns the rows that stopped so."""
        nonlocal held
        columns = list(zip(*waiting))
        jobs, counts = _Jobs._make(columns[:5]), columns[5:]
        ys, Ks, Ps = zip(*parts)
        del waiting[:], parts[:], columns
        held = 0
        # one stack of the jobs' rows, strided as every copy of K is
        K_j = _strided((len(jobs.t), len(_C), max(n, 2)))
        np.concatenate(Ks, out=K_j[:, :fsal + 1])
        y_j, P_j = np.concatenate(ys), np.concatenate(Ps)
        del ys, Ks, Ps
        if method:
            failed = method.dense_output(jobs, y_j, K_j, P_j, grids, y_all,
                                         subset)
        else:
            _extra_stages(jobs, y_j, K_j, P_j, rhs)
            # the stages and constants are freed before the stacks
            # allocate
            Q = np.matmul(_P_T, K_j)
            del K_j, P_j
            failed = _dense_output(jobs, y_j, Q, grids, y_all, subset, size)
        gone = set()
        for g in failed:  # a row's first failed job, the earliest
            b = jobs.index[g]
            if b in gone:
                continue
            gone.add(b)
            y_all[offsets[b] + jobs.start[g]:offsets[b + 1]] = math.nan
            y_end[b] = math.nan
            errors[b] = NonFiniteRhsError(
                f"dense output went non-finite at t = {jobs.t[g]:.6g} (h = "
                f"{jobs.h[g]:.3g}): the solution inside the step overflows "
                f"the float range; check the parameters and the drive")
            n_accepted[b], n_rejected[b], n_pieces[b], dense[b] = (
                column[g] for column in counts)
        return gone

    def restart(r, b, t):
        """Row b, at position r of the pass, restarts at t in its next
        piece as a new call would: that piece's end, and the restart
        (r, p, c, f) of its constants, those as row_rhs reads them and f
        at t, and the starting step.  They go to P[r], C and K[r, fsal]
        once the pass has copied the step's for its dense output, and the
        FSAL copy then moves f to K[r, 0]."""
        end, p, c = pieces[b][n_pieces[b]]
        n_pieces[b] += 1
        t1, y1, p1 = np.array([t]), y_new[r:r + 1], np.array([p])
        f = rhs(t1, y1, p1)
        h = _initial_step(rhs, t1, y1, p1, f, np.array([end]),
                          tol_col[r:r + 1], power)
        return end, (r, p, c, f[0]), h.item()

    # The controller state of the unfinished rows, as lists in the order
    # of the rows of y, K and P: each one's batch row index, time, step
    # size, piece end, whether its step ends the piece, the index of its
    # next grid point, whether its last attempt was rejected and (C) its
    # piece constants as row_rhs reads them
    index, T = list(range(batch)), t0[:]
    stops = [row[0][0] for row in pieces]
    P = np.array([row[0][1] for row in pieces]).reshape(batch, k)
    # the stages, strided, of 2 components at least (see _strided),
    # where a row of 1 repeats it in the second
    K = _strided((batch, len(_C), max(n, 2)))
    K[:, 0] = rhs(np.array(T), y, P)
    H = _initial_step(rhs, np.array(T), y, P, K[:, 0, :n],
                      np.array(stops), tol_col, power).tolist()
    lasts, cur, rejects = [False] * batch, [1] * batch, [False] * batch
    n_accepted, n_rejected = [0] * batch, [0] * batch
    C = [row[0][2] for row in pieces]
    # every grid starts at t0: its first sample is y0
    _store(y_all, subset, offsets[:-1, None], y[:, None], index)
    errs = None  # error norm of each row's last attempted step
    # whether the rows are FLOAT_ROWS or fewer, set as they change: such
    # rows take the float form of the next attempt
    few = batch <= FLOAT_ROWS

    while True:
        # One pass over the rows: accept or reject the step just
        # attempted, then schedule the next one, retiring finished and
        # failed rows
        restarts, keep, accepted, found = [], [], [], []
        for r, b in enumerate(index):
            t, h = T[r], H[r]
            retry = False
            if errs is not None:
                err = errs[r]
                retry = not err <= 1.0  # NaN is rejected
                # one clipped factor on accept and on reject: a NaN or inf
                # err gets _MIN_FACTOR, as inf ** exponent is 0.0 and
                # max(_MIN_FACTOR, nan) is its first argument (max(nan,
                # _MIN_FACTOR) is NaN, which min makes top); an accept
                # right after a rejection is clipped to regrow
                top = regrow if rejects[r] and not retry else _MAX_FACTOR
                h *= top if err == 0.0 else min(
                    top, max(_MIN_FACTOR, _SAFETY * err ** exponent))
                rejects[r] = retry
                if retry:
                    n_rejected[b] += 1
                else:
                    n_accepted[b] += 1
                    accepted.append(r)
                    # dense output for the grid points inside (t, t_new],
                    # which waits once the pass is over
                    t_new = stops[r] if lasts[r] else t + H[r]
                    j = _index(t_new, *params[b])
                    if j > cur[r]:
                        found.append((r, t, H[r], cur[r], j, b))
                        cur[r] = j
                        dense[b] += 1
                    t = T[r] = t_new
                    if lasts[r]:
                        if n_pieces[b] == len(pieces[b]):
                            y_end[b] = y_new[r]
                            continue
                        stops[r], pending, h = restart(r, b, t)
                        restarts.append(pending)
            last = lasts[r] = t + h >= stops[r]
            # a step onto the piece's end may be shorter than the floor,
            # unless it repeats a rejected one (it would repeat forever)
            if not (h >= 10.0 * abs(math.nextafter(t, math.inf) - t)
                    or last and not retry):
                errors[b] = _underflow(t, h, retry and not math.isfinite(err),
                                       K[r, :fsal + 1])
                continue
            H[r] = stops[r] - t if last else h
            keep.append(r)
        if found:
            # the jobs' rows alone, as a rejected row's stages may be inf
            # or NaN
            rs = np.array([job[0] for job in found])
            parts.append((y.take(rs, axis=0),
                          K[:, :fsal + 1].take(rs, axis=0),
                          P.take(rs, axis=0)))
            for _, t, h, lo, hi, b in found:
                waiting.append((t, h, lo, hi, b, n_accepted[b],
                                n_rejected[b], n_pieces[b], dense[b]))
                held += hi - lo
        if waiting and (held >= size or not keep):
            gone = flush()
            keep = [r for r in keep if index[r] not in gone]
        for r, p, c, f in restarts:
            P[r], K[r, fsal], C[r] = p, f, c
        if len(accepted) == len(y):
            K[:, 0] = K[:, fsal]
            y = y_new
        elif len(accepted):
            K[accepted, 0] = K[accepted, fsal]
            y[accepted] = y_new[accepted]
        if not len(keep):
            break
        if len(keep) < len(y):
            y, P, tol_col = (a[keep] for a in (y, P, tol_col))
            K = _take(K, keep)
            index, T, H, stops, lasts, cur, rejects, C = (
                [a[r] for r in keep]
                for a in (index, T, H, stops, lasts, cur, rejects, C))
            few = len(keep) <= FLOAT_ROWS

        # stage evaluations (k1 carried over from the previous step,
        # FSAL), one rhs call each, or in the float form one f call per
        # row, which also yields the error norms
        if few and floats:
            y_new, errs = _attempt_floats(row_rhs[1], T, H, C, index, y, K,
                                          tol)
        else:
            t, h = np.array(T), np.array(H)
            y_new, errs = method.attempt(
                t, h, y, K, P, tol_col, np.take(n_accepted, index)) \
                if method else _attempt(rhs, t, h, y, K, P, tol_col)
            errs = errs.tolist()

    peak = None
    if measure:
        peak = subset[2] if subset else np.empty(batch)
        for b, error in enumerate(errors):
            if error is not None:
                peak[b] = math.nan
            elif not subset:
                peak[b] = np.max(measure(y_all[offsets[b]:offsets[b + 1]]))
    n_accepted, n_rejected = np.array(n_accepted), np.array(n_rejected)
    return OdeResult(y=y_all, offsets=offsets, y_end=y_end,
                     n_accepted=n_accepted, n_rejected=n_rejected,
                     n_rhs=2 * np.array(n_pieces)
                     + fsal * (n_accepted + n_rejected)
                     + extra * np.array(dense),
                     errors=errors, measure_max=peak)
