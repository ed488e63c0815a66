"""Tests for the batched integrators of ``lfbloch.ode``.  Dormand-Prince
8(5,3): accuracy against analytic solutions, its order 8 on fixed steps
and the order 7 of its dense output between steps, statistics (12
evaluations per attempted step, 3 per step with grid points), error
paths, lockstep batches that reproduce each row's lone run bit for bit
(dense output stacked over the jobs that wait across passes, wherever a
flush falls), the bit equalities that stacking, the
batched starting step and the grid index rely on (16-stage stacks, 7
theta powers, power-major stacks), the fits' window from the grid index
against searchsorted, every stage sum left to right from +0.0 on a strided
stack, the Python-float form of few-row passes against the array form
(and the bit equalities it relies on),
and rows of pieces that reproduce one run per piece.  The exponential
method: its phi-functions against the matrix exponential, exact linear
problems
(stiff and degenerate), a tight reference, the order of its dense
output, lone-run bits in a batch and its evaluation count."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import DOP853, solve_ivp

from lfbloch import exponential, ode, verify
from lfbloch.ode import (
    NonFiniteRhsError,
    OdeResult,
    StepSizeUnderflowError,
    _P_T,
    _initial_step,
    solve,
)


def _per_row(*functions):
    """A batch right-hand side from per-row ones.

    Row b of a call is ``functions[P[b, 0]](t[b], y_b, P[b, 1:])``: the
    first constant of a piece picks its function, the rest are that
    function's parameters.
    """
    def rhs(t, Y, P):
        return np.array([functions[int(p[0])](t_b, y, p[1:])
                         for t_b, y, p in zip(t.tolist(), Y, P)])
    return rhs


def solve_one(f, t0, t_end, y0, points, tol, args=(), **kwargs):
    """f(t, y, args) as a batch of one, sampled at points evenly spaced
    points; raises the row's failure."""
    res = solve(_per_row(f), [[(t_end, (0, *args))]], [t0],
                np.array([y0], dtype=float), [points], [tol], **kwargs)
    if res.errors[0] is not None:
        raise res.errors[0]
    return res


def _ys(res, b):
    """Row b's samples: a view of its rows of y."""
    return res.y[res.offsets[b]:res.offsets[b + 1]]


def _grid(res, b, t0, end):
    """Row b's grid from t0 to end, built: np.linspace on its number
    of samples (the result holds no grid)."""
    return np.linspace(t0, end, res.offsets[b + 1] - res.offsets[b])


def _decay(t, y, p):
    return -2.0 * y


def _harmonic(t, y, p):
    return np.array([y[1], -y[0]])


def _forced_decay(t, y, p):
    return np.cos(t) - p[0] * y


def _blowup(t, y, p):
    return y * y


def _rigid_body(t, y, p):
    # Euler equations of a free rigid body; smooth and non-chaotic.
    return np.array([y[1] * y[2], -y[0] * y[2], -0.51 * y[0] * y[1]])


def _scipy(f):
    """f as a right-hand side for scipy's solve_ivp."""
    return lambda t, y: f(t, y, ())


def _van_der_pol(t, y, p):
    return np.array([y[1], p[0] * (1.0 - y[0] * y[0]) * y[1] - y[0]])


def _driven(t, y, p):
    # a damped oscillator, driven at unit amplitude
    return np.array([y[1], math.cos(p[2] * t) - p[0] * y[1] - p[1] * y[0]])


class TestAccuracy:
    def test_exponential_decay_endpoint(self):
        grid = np.linspace(0.0, 3.0, 7)
        res = solve_one(_decay, 0.0, 3.0, np.array([1.0]), grid.size,
                        tol=1e-10)
        assert_allclose(res.y[:, 0], np.exp(-2.0 * grid), rtol=1e-8,
                        atol=1e-12)

    def test_harmonic_many_periods(self):
        t_end = 20.0 * math.pi
        res = solve_one(_harmonic, 0.0, t_end, np.array([1.0, 0.0]), 2,
                        tol=1e-10)
        assert_allclose(res.y[-1], [1.0, 0.0], atol=5e-8)

    def test_dense_output_between_steps(self):
        # a fine grid forces interpolation inside accepted steps
        grid = np.linspace(0.0, 2.0 * math.pi, 1001)
        res = solve_one(_harmonic, 0.0, 2.0 * math.pi, np.array([0.0, 1.0]),
                        grid.size, tol=1e-10)
        assert res.n_accepted[0] < 300  # interpolation actually exercised
        assert_allclose(res.y[:, 0], np.sin(grid), atol=1e-8)

    def test_cross_check_against_scipy(self):
        y0 = np.array([1.0, 0.0, 0.9])
        grid = np.linspace(0.0, 12.0, 13)
        mine = solve_one(_rigid_body, 0.0, 12.0, y0, grid.size, tol=1e-11)
        ref = solve_ivp(_scipy(_rigid_body), (0.0, 12.0), y0, method="DOP853",
                        t_eval=grid, rtol=1e-12, atol=1e-12)
        assert_allclose(mine.y, ref.y.T, atol=1e-9)


# the band of an error ratio of order 8 per halving of the step:
# 2**8 = 256 within half a power of 2 either way
ORDER_8 = (2.0 ** 7.5, 2.0 ** 8.5)


class TestOrder:
    """The order of Dormand-Prince 8(5,3) on fixed steps and of its
    order-7 dense output between steps, each an error ratio per halving
    of the step within half a power of 2 of 2**8, so that a wrong
    tableau or interpolant coefficient fails here by name."""

    def test_eighth_order_convergence(self):
        """With error control disabled (a huge tolerance) and n pieces of
        length h = t_end/n, each taken in one step onto its end, halving
        the step divides the endpoint error by about 2**8 (267 here; from
        n = 64 on the error is at rounding)."""
        t_end = 2.0 * math.pi
        errors = []
        for n in (16, 32):
            res = solve(_per_row(_harmonic),
                        [[(t_end * k / n, (0,)) for k in range(1, n + 1)]],
                        [0.0], np.array([[1.0, 0.0]]), [2], [1.0])
            assert (res.n_accepted[0], res.n_rejected[0]) == (n, 0)
            errors.append(abs(res.y[-1, 0] - 1.0) + abs(res.y[-1, 1]))
        assert ORDER_8[0] < errors[0] / errors[1] < ORDER_8[1]

    def test_dense_output_order_between_steps(self):
        """One step of h from the same state, sampled at h/3 and 2h/3 by
        the order-7 interpolant: halving h divides its error there by
        about 2**8 (258 here), where its step's end falls by 2**9."""
        errors = []
        for h in (0.5, 0.25):
            res = solve(_per_row(_harmonic), [[(h, (0,))]], [0.0],
                        np.array([[1.0, 0.0]]), [4], [1.0])
            assert (res.n_accepted[0], res.n_rejected[0]) == (1, 0)
            t = _grid(res, 0, 0.0, h)[1:3]
            errors.append(np.max(np.abs(
                res.y[1:3] - np.stack([np.cos(t), -np.sin(t)], axis=1))))
        assert ORDER_8[0] < errors[0] / errors[1] < ORDER_8[1]

    def test_tableau_equals_scipys_dop853(self):
        # entry for entry, against scipy's DOP853 coefficients (its E3
        # and E5 carry a 13th entry, 0.0, on the FSAL stage)
        from scipy.integrate._ivp import dop853_coefficients as dop
        assert ode._C.tolist() == dop.C.tolist()
        assert len(ode._A) == len(dop.A) == 16
        for i, row in enumerate(ode._A):
            assert row.tolist() == dop.A[i, :i].tolist()
        assert ode._B.tolist() == dop.B.tolist()
        assert ode._E3.tolist() == dop.E3[:12].tolist()
        assert ode._E5.tolist() == dop.E5[:12].tolist()
        assert [[row.get(s, 0.0) for s in range(16)]
                for row in ode._D_ROWS] == dop.D.tolist()


class TestStatistics:
    def test_rhs_eval_accounting(self):
        # two startup evaluations (f(t0) + starting-step probe), then
        # twelve per attempted step thanks to the FSAL pair, and three
        # per accepted step with grid points for its interpolant: on 2
        # points the last step alone, on 1001 (0.003 apart) every step
        for points in (2, 1001):
            res = solve_one(_decay, 0.0, 3.0, np.array([1.0]), points,
                            tol=1e-8)
            dense = 1 if points == 2 else res.n_accepted[0]
            assert res.n_rhs[0] == 2 + 12 * (
                res.n_accepted[0] + res.n_rejected[0]) + 3 * dense
            assert res.n_accepted[0] > 1
            assert res.n_rejected[0] >= 0

    def test_stability_limit_causes_rejections(self):
        # fast linear relaxation at loose tolerance: the controller keeps
        # bouncing off the explicit stability boundary, h*lambda = -6.39
        # on the real axis for this pair (-3.31 for the 5(4) one), so it
        # takes 3*lambda/6.39 = 94 steps at least (98 accepted, 9
        # rejected, as scipy's DOP853)
        def relax(t, y, p):
            return np.array([200.0 * (math.cos(t) - y[0])])

        res = solve_one(relax, 0.0, 3.0, np.array([0.0]), 2, tol=1e-3)
        assert res.n_rejected[0] > 0
        lam = 200.0
        assert res.n_accepted[0] >= 3.0 * lam / 6.39
        exact = (lam * lam * math.cos(3.0) + lam * math.sin(3.0)) / (lam * lam + 1.0)
        # tol bounds each step's error estimate, not the end value: the
        # bound is scipy's DOP853 on the same steps, 1.079e-3 off
        ref = solve_ivp(lambda t, y: relax(t, y, None), (0.0, 3.0), [0.0],
                        method="DOP853", rtol=1e-3, atol=1e-3)
        assert abs(res.y[-1, 0] - exact) <= 1.01 * abs(ref.y[0, -1] - exact)

    def test_tighter_tolerance_smaller_error(self):
        exact = math.exp(-6.0)
        errs = []
        for tol in (1e-5, 1e-10):
            res = solve_one(_decay, 0.0, 3.0, np.array([1.0]), 2,
                            tol=tol)
            errs.append(abs(res.y[-1, 0] - exact))
        assert errs[1] < errs[0]


def _dop853_counts(f, p, t0, y0, end, tol):
    """The accepted and rejected steps of scipy's DOP853 on f(t, y, p)
    from t0 to end, stepped by ``.step()``, which computes no dense
    output: 2 evaluations, then 12 per attempt."""
    run = DOP853(lambda t, y: f(t, y, p), t0, np.array(y0, dtype=float),
                 end, rtol=tol, atol=tol)
    accepted = 0
    while run.status == "running":
        run.step()
        accepted += 1
    assert run.status == "finished"
    rejected, rest = divmod(run.nfev - 2 - 12 * accepted, 12)
    assert rest == 0
    return accepted, rejected


@st.composite
def _smooth_row(draw, n):
    """A smooth problem of n components, (f, p, t0, y0, end, points,
    tol), p padded to 3 constants."""
    f = draw(st.sampled_from([_spin] + (
        [_van_der_pol, _driven] if n == 2 else
        [_rigid_body] if n == 3 else [])))
    a, b, c = (draw(st.floats(0.0, 1.0)) for _ in range(3))
    p = {_spin: (2.0 * a - 1.0, b, 0.0), _rigid_body: (0.0, 0.0, 0.0),
         _van_der_pol: (0.5 + 4.5 * a, 0.0, 0.0),
         _driven: (0.05 + a, 0.5 + 3.0 * b, 0.5 + 2.5 * c)}[f]
    t0 = draw(st.floats(-1.0, 1.0))
    y0 = draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n))
    return (f, p, t0, y0, t0 + draw(st.floats(0.5, 8.0)),
            draw(st.integers(2, 40)), 10.0 ** draw(st.floats(-10.0, -5.0)))


class TestScipyOracle:
    """Dormand-Prince takes the steps of scipy's DOP853 (Hairer's step
    size rule, whose accept right after a rejection does not grow the
    step): each row's accepted and rejected counts equal scipy's, alone
    and in batches that narrow through FLOAT_ROWS."""

    @pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10])
    @pytest.mark.parametrize("f, p, y0, end", [
        (_rigid_body, (), [0.0, 1.0, 1.0], 12.0),
        (_van_der_pol, (5.0,), [2.0, 0.0], 20.0),
        (_driven, (0.2, 1.0, 1.3), [1.0, 0.0], 30.0)])
    def test_named_problems(self, f, p, y0, end, tol):
        # van der Pol took 93+33, 179+33 and 326+53 steps while such an
        # accept could grow the step, against scipy's 92+22, 180+32 and
        # 325+43
        res = solve_one(f, 0.0, end, y0, 2, tol, args=p,
                        row_rhs=_row_form(f))
        assert (res.n_accepted[0], res.n_rejected[0]) == _dop853_counts(
            f, p, 0.0, y0, end, tol)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 7).flatmap(lambda n: st.lists(
        _smooth_row(n), min_size=ode.FLOAT_ROWS + 1,
        max_size=ode.FLOAT_ROWS + 3)))
    def test_drawn_rows_alone_and_in_batches(self, rows):
        fs = list(dict.fromkeys(row[0] for row in rows))
        rhs, row_rhs = _per_row(*fs), _row_form(*fs)
        pieces = [[(end, (fs.index(f), *p))]
                  for f, p, _, _, end, _, _ in rows]
        _, _, t0, y0, _, points, tol = zip(*rows)
        counts = [_dop853_counts(f, p, a, y, end, tl)
                  for f, p, a, y, end, _, tl in rows]
        # the rows end at different passes: the longest row attempts more
        # steps than the FLOAT_ROWS + 1st longest
        attempts = sorted(map(sum, counts))
        assume(attempts[-1] > attempts[-ode.FLOAT_ROWS - 1])
        with pytest.MonkeyPatch.context() as patch:
            sizes = _spy_floats(patch)
            batch = solve(rhs, pieces, t0, np.array(y0), points, tol,
                          row_rhs=row_rhs)
        # so the batch narrows from the array form to the float form
        assert sizes and max(sizes) <= ode.FLOAT_ROWS
        for b, (_, _, t0, y0, _, points, tol) in enumerate(rows):
            lone = solve(rhs, pieces[b:b + 1], [t0], np.array([y0]),
                         [points], [tol], row_rhs=row_rhs)
            assert batch.errors[b] is lone.errors[0] is None
            assert (batch.n_accepted[b], batch.n_rejected[b]) == counts[b]
            assert (lone.n_accepted[0], lone.n_rejected[0]) == counts[b]


class TestDeterminism:
    def test_identical_runs_bitwise_equal(self):
        runs = [
            solve_one(_harmonic, 0.0, 10.0, np.array([1.0, 0.0]), 101,
                      tol=1e-9)
            for _ in range(2)
        ]
        assert np.array_equal(runs[0].y, runs[1].y)
        assert runs[0].n_rhs[0] == runs[1].n_rhs[0]


class TestErrors:
    """A state, a right-hand side or dense output that goes non-finite
    fails its row, never accepted, with a message that names what went
    non-finite, so that a change that misnames a failure fails here by
    name."""

    def test_step_underflow_on_blowup(self):
        # solution 1/(1-t) diverges at t = 1; the controller must give up
        with pytest.raises(StepSizeUnderflowError, match="tol") as info:
            solve_one(_blowup, 0.0, 2.0, np.array([1.0]), 2,
                      tol=1e-10)
        # too stiff, not non-finite: the base class
        assert type(info.value) is StepSizeUnderflowError

    def test_nonfinite_rhs_is_rejected_not_accepted(self):
        # a NaN error estimate must reject the step (nan > 1 is False), so
        # the run stops at the last finite state instead of writing NaN
        # samples and then blaming stiffness
        def turns_nan(t, y, p):
            return np.full_like(y, math.nan) if t > 0.5 else -y

        with pytest.raises(NonFiniteRhsError,
                           match="right-hand side went non-finite") as info:
            solve_one(turns_nan, 0.0, 1.0, np.array([1.0]), 11,
                      tol=1e-8)
        t_fail = float(re.search(r"at t = (\S+) ", str(info.value)).group(1))
        assert t_fail <= 0.5
        assert "stiff" not in str(info.value)

    def test_nonfinite_state_is_rejected_not_accepted(self):
        # y' = 1e305 overflows y = 1e308 + 1e305 t near t = 797.7 while
        # f and the stage sums (below 1e3 times f) stay finite; an inf
        # state made the error scale inf and the estimate 0, so the step
        # used to be accepted and the row ended without an error, with
        # y_end inf and NaN samples
        def huge(t, y, p):
            return np.array([1e305])

        with np.errstate(over="ignore", invalid="ignore"):
            res = solve(_per_row(huge, _decay),
                        [[(2e3, (0,))], [(2.0, (1,))]], [0.0, 0.0],
                        np.array([[1e308], [1.0]]), [5, 5], [1e-6, 1e-6])
        assert isinstance(res.errors[0], NonFiniteRhsError)
        assert "the state went non-finite" in str(res.errors[0])
        t_fail = float(re.search(r"at t = (\S+) ",
                                 str(res.errors[0])).group(1))
        assert 797 < t_fail < 798
        assert np.isnan(_ys(res, 0)[2:]).all()
        assert res.errors[1] is None
        for b, error in enumerate(res.errors):
            if error is None:
                assert np.isfinite(_ys(res, b)).all()
                assert np.isfinite(res.y_end[b]).all()

    @pytest.mark.parametrize("span", [3.0, 6.0])
    def test_overflowing_dense_output_fails_the_row(self, span):
        # y = y0 + A sin t peaks one part in 1e3 of A above the largest
        # float, inside a step between two finite states, so the
        # samples near the peak are inf: the row stops there with NaN
        # samples from the step on (on the span of 3 that step is the
        # last, on 6 it is not)
        (f, _, _, y0, _, tol) = PEAK
        peak = (f, 0.0, span, y0, 3001, tol)
        with np.errstate(over="ignore", invalid="ignore"):
            res = _solve_batch([peak, BATCH[3]])
        assert isinstance(res.errors[0], NonFiniteRhsError)
        assert "dense output went non-finite" in str(res.errors[0])
        t_fail = float(re.search(r"at t = (\S+) ",
                                 str(res.errors[0])).group(1))
        t, y = _grid(res, 0, 0.0, span), _ys(res, 0)
        assert t_fail < math.pi / 2
        assert np.isnan(y[t > t_fail]).all()
        assert np.isfinite(y[t <= t_fail]).all()
        assert np.isnan(res.y_end[0]).all()
        # the counters the row had at the step: its first, and its 3
        # evaluations of dense output
        assert (res.n_accepted[0], res.n_rejected[0], res.n_rhs[0]) == (
            1, 0, 17)
        assert res.errors[1] is None
        _assert_row_equal(res, 1, _lone(BATCH[3]))

    @pytest.mark.parametrize("y0", [0.0, 1.0])
    def test_huge_derivative_fails_where_the_state_overflows(self, y0):
        # f0/scale overflowed d1 to inf, so the starting step came out 0
        # (y0 = 0: "too stiff" at t = 0) or divided by 0 (y0 = 1:
        # ZeroDivisionError); y = y0 + 1e305 t overflows at t = 1797.7,
        # and the stage sums (below 1e3 times f) stay finite
        def huge(t, y, p):
            return np.array([1e305])

        with pytest.raises(NonFiniteRhsError,
                           match="the state went non-finite") as info, \
                np.errstate(over="ignore", invalid="ignore"):
            solve_one(huge, 0.0, 1e4, np.array([y0]), 5, tol=1e-6)
        t_fail = float(re.search(r"at t = (\S+) ", str(info.value)).group(1))
        assert 1797 < t_fail < 1798

    @pytest.mark.parametrize("y0, error, culprit", [
        (1.0, StepSizeUnderflowError, "too stiff"),
        (1e150, NonFiniteRhsError, "the right-hand side went non-finite"),
        (1e154, NonFiniteRhsError, "the right-hand side went non-finite")])
    def test_blowup_still_fails_after_its_redone_attempts(self, y0, error,
                                                          culprit):
        # y' = y**2: from 1 the step shrinks below the floor near t = 1;
        # from near the square root of the largest float the stages
        # overflow for good
        with pytest.raises(StepSizeUnderflowError, match=culprit) as info, \
                np.errstate(over="ignore", invalid="ignore"):
            solve_one(_blowup, 0.0, 2.0, np.array([y0]), 2, tol=1e-10)
        assert type(info.value) is error

    @pytest.mark.parametrize("float_rows", [4, 0])
    def test_small_first_stages_are_not_redone(self, monkeypatch,
                                               float_rows):
        # y' = -y goes NaN from t = 0.5: each attempt of the failing row
        # counts its 12 evaluations once, in either attempt form:
        # 1067 = 2 + 12 per attempt + 3 for each of the 3 steps with grid
        # points
        def turns_nan(t, y, p):
            return np.full_like(y, math.nan) if t >= 0.5 else -y

        monkeypatch.setattr(ode, "FLOAT_ROWS", float_rows)
        res = solve(_per_row(turns_nan), [[(1.0, (0,))]], [0.0],
                    np.array([[1.0]]), [11], [1e-8],
                    row_rhs=_row_form(turns_nan))
        attempts = int(res.n_accepted[0] + res.n_rejected[0])
        assert (res.n_accepted[0], res.n_rejected[0], res.n_rhs[0]) == (
            44, 44, 1067) == (44, 44, 2 + 12 * attempts + 3 * 3)
        assert str(res.errors[0]) == (
            "step size underflow at t = 0.5 (h = 5.42e-16): the right-hand "
            "side went non-finite (NaN or inf) and every step past this "
            "point was rejected; check the parameters and the drive")

    @pytest.mark.parametrize("f, pieces, y0, culprit", [
        # only the state overflows
        (lambda t, y, p: np.array([1e308]), [(2.0, 0.0)], 1e308,
         "the state"),
        # the state overflows on its first step
        (lambda t, y, p: np.array([1e308]), [(1.0, 0.0)], 1.7e308,
         "the state"),
        (lambda t, y, p: np.full_like(y, math.nan) if t > 0.5 else -y,
         [(1.0, 0.0)], 1.0, "the right-hand side"),
        # f at t0 is NaN: the starting step is NaN
        (lambda t, y, p: np.array([math.nan]), [(1.0, 0.0)], 1.0,
         "the right-hand side"),
        # f of the second piece is NaN: the restart's step is NaN
        (lambda t, y, p: np.array([math.nan]) if p[0] else -y,
         [(0.5, 0.0), (1.0, 1.0)], 1.0, "the right-hand side"),
    ])
    def test_failure_names_what_went_non_finite(self, f, pieces, y0,
                                                culprit):
        with np.errstate(over="ignore", invalid="ignore"):
            res = solve(_per_row(f), [[(end, (0, a)) for end, a in pieces]],
                        [0.0], np.array([[y0]]), [2], [1e-6])
        assert isinstance(res.errors[0], NonFiniteRhsError)
        assert f"{culprit} went non-finite" in str(res.errors[0])

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_starting_step_is_finite_where_f0_holds_no_nan(self, n):
        # why a NaN step names the right-hand side: without a NaN in f0,
        # the starting step is finite and positive, alone and in a batch,
        # from any finite state, f0 and the probe's f1 with infinities
        # (and NaN in f1), at any tolerance, span and power.  Not the
        # converse: a NaN f0 can still give a finite step
        rng = np.random.default_rng(70 + n)
        rows = 1500
        magnitudes = [0.0, 5e-324, 1e-310, 1e-16, 1.0, 1e150, 1e300, 1.7e308]
        finite = magnitudes + [-x for x in magnitudes]
        y0 = rng.choice(finite, (rows, n))
        f0 = rng.choice(finite + [math.inf, -math.inf], (rows, n))
        f1 = rng.choice(finite + [math.inf, -math.inf, math.nan], (rows, n))
        tol = rng.choice([1e-12, 1e-8, 1e-4], (rows, 1))
        span = 10.0 ** rng.uniform(-323.3, 300.0, rows)
        span[:2] = 5e-324, 1e300
        t0 = np.zeros(rows)

        def probe(t, Y, P):  # the probe's f1 rides in P
            return P.copy()

        for power in (ode._START_EXPONENT, exponential.Exponential
                      .start_exponent):
            with np.errstate(all="ignore"):
                h = _initial_step(probe, t0, y0, f1, f0, span, tol, power)
                alone = [_initial_step(
                    probe, t0[b:b + 1], y0[b:b + 1], f1[b:b + 1],
                    f0[b:b + 1], span[b:b + 1], tol[b:b + 1], power).item()
                    for b in range(rows)]
            assert np.isfinite(h).all() and (h > 0.0).all()
            assert list(map(repr, h.tolist())) == list(map(repr, alone))

    @pytest.mark.parametrize("y0", [math.inf, -math.inf, math.nan])
    def test_nonfinite_initial_state_rejected(self, y0):
        # it used to be rejected step by step down to h = 2.5e-323, 2720
        # right-hand-side evaluations, before failing as non-finite
        calls = []

        def rhs(t, Y, P):
            calls.append(len(Y))
            return np.ones_like(Y)

        with pytest.raises(ValueError, match="y0 must be finite"):
            solve(rhs, [[(1.0, (0.0,))]], [0.0], np.array([[1.0, y0]]), [2],
                  [1e-6])
        assert calls == []

    def test_tiny_first_segment_starts_with_its_length(self):
        # on a segment of 2.2e-308, (f1 - f0)/h0 overflows; the start
        # step used to become 0 and fail as "too stiff"
        t_end = 2.2250738585072014e-308

        def jumps(t, y, p):
            return np.array([1.0 if t >= t_end else 0.0])

        y0 = np.array([0.0])
        h = _initial_step(_per_row(jumps), np.array([0.0]), y0[None],
                          np.array([[0.0]]), jumps(0.0, y0, ())[None],
                          np.array([t_end]), np.array([[1e-6]]))
        assert h.tolist() == [t_end]
        res = solve_one(jumps, 0.0, t_end, y0, 2, tol=1e-6)
        assert res.n_accepted[0] == 1

    def test_rejected_step_onto_a_close_end_fails(self):
        # on a segment one ulp long, a jump this large gets the step onto
        # its end rejected; the shrunk step still rounds onto the end,
        # and must fail there instead of being retried forever
        t_end = math.nextafter(0.5, 1.0)
        calls = 0

        def jumps(t, y, p):
            nonlocal calls
            calls += 1
            assert calls < 1000, "the same step is retried forever"
            return np.array([1e7 if t >= t_end else 0.0])

        with pytest.raises(StepSizeUnderflowError, match="stiff"):
            solve_one(jumps, 0.5, t_end, np.array([0.0]), 2,
                      tol=1e-12)

    def test_array_form_fails_a_rejected_step_onto_a_close_end(
            self, monkeypatch):
        # the same row with its steps attempted on arrays
        monkeypatch.setattr(ode, "FLOAT_ROWS", 0)
        self.test_rejected_step_onto_a_close_end_fails()

    @pytest.mark.parametrize("grid", [(0.0, math.inf), (-math.inf, 0.5),
                                      (-1e308, 1e308), (-math.inf, math.inf)])
    def test_nonfinite_grid_rejected(self, grid):
        # a grid on an infinite span, or on one whose length overflows,
        # has points that are not finite
        t0, t_end = grid
        with pytest.raises(ValueError, match="finite"):
            solve_one(_decay, t0, t_end, np.array([1.0]), 11, tol=1e-8)

    @pytest.mark.parametrize("bad", [math.nan, 0.0, -1.0, math.inf,
                                     -math.inf])
    @pytest.mark.parametrize("which", ["rtol", "atol"])
    def test_tolerance_must_be_positive_and_finite(self, bad, which):
        # a NaN or zero tolerance used to fail as NonFiniteRhsError and a
        # negative one to integrate silently; the one tol is both terms
        # of the scale tol + tol*|y|, and is refused whether its
        # relative part (|y0| = 1e6) or its absolute part (y0 = 0) would
        # govern the error control
        y0 = {"rtol": 1e6, "atol": 0.0}[which]
        with pytest.raises(ValueError, match="positive and finite"):
            solve_one(_decay, 0.0, 1.0, np.array([y0]), 2, tol=bad)

    def test_non_increasing_grid_rejected(self):
        # more points than the span holds apart: a step that underflows
        # to 0 (linspace then divides first), one that rounds onto a
        # multiple past the end, and one below an ulp of the start; and
        # a grid of fewer than 2 points
        for t0, t_end, points in [(0.0, 5e-324, 3), (0.0, 1e-320, 801),
                                  (1e6, 1e6 + 1e-9, 1000)]:
            assert not (np.diff(np.linspace(t0, t_end, points)) > 0.0).all()
            with pytest.raises(ValueError, match="rise strictly"):
                solve_one(_decay, t0, t_end, np.array([1.0]), points,
                          tol=1e-8)
        for points in (1, 0, -1):
            with pytest.raises(ValueError, match="2 points or more"):
                solve_one(_decay, 0.0, 1.0, np.array([1.0]), points,
                          tol=1e-8)

    def test_reversed_span_rejected(self):
        with pytest.raises(ValueError):
            solve_one(_decay, 1.0, 0.0, np.array([1.0]), 2,
                      tol=1e-8)

    def test_returns_result_type(self):
        res = solve_one(_decay, 0.0, 1.0, np.array([1.0]), 2, tol=1e-8)
        assert isinstance(res, OdeResult)
        assert res.y.shape == (2, 1)


def _linear(t, y, p):
    rate = p[0]
    return np.array([-rate * y[0] + y[1], -y[0] - rate * y[1],
                     -2.0 * rate * y[2]])


def _turns_nan(t, y, p):
    return np.full_like(y, math.nan) if t > 0.5 else -y


# ((f, parameter), t0, t_end, y0, points, tol): spans, tolerances and
# grid sizes differ; the stiff linear row at loose tolerance rejects
# steps
BATCH = [
    ((_rigid_body, 0.0), 0.0, 12.0, [1.0, 0.0, 0.9], 13, 1e-11),
    ((_linear, 0.5), 0.5, 4.0, [0.2, -0.1, 1.0], 801, 1e-8),
    ((_linear, 200.0), 0.0, 1.0, [1.0, 0.0, 1.0], 2, 1e-3),
    ((_rigid_body, 0.0), 1.0, 2.5, [0.0, 1.0, 0.2], 7, 1e-6),
]
FAILING = [
    ((_blowup, 0.0), 0.0, 2.0, [1.0, 1.0, 1.0], 2, 1e-10),
    ((_turns_nan, 0.0), 0.0, 1.0, [1.0, 1.0, 1.0], 11, 1e-8),
]

_TOP = np.finfo(float).max


def _peak(t, y, p):
    return np.array([1e307 * math.cos(t), 0.0, 0.0])


# dense output overflows near t = pi/2 (see
# test_overflowing_dense_output_fails_the_row)
PEAK = ((_peak, 0.0), 0.0, 6.0, [_TOP - 1e307 * (1.0 - 1e-3), 0.0, 0.0],
        3001, 1e-2)


def _solve_batch(problems, rhs=None):
    """One solve of the problems; P rows are (function index, parameter)."""
    fs, t0, t_end, y0, points, tols = zip(*problems)
    functions = list(dict.fromkeys(f for f, _ in fs))
    pieces = [[(b, (functions.index(f), a))] for (f, a), b in zip(fs, t_end)]
    return solve(rhs or _per_row(*functions), pieces, t0, np.array(y0),
                 points, tols)


def _lone(problem):
    return _solve_batch([problem])


def _assert_row_equal(batch, b, lone):
    assert np.array_equal(_ys(batch, b), lone.y, equal_nan=True)
    assert np.array_equal(batch.y_end[b], lone.y_end[0], equal_nan=True)
    assert batch.n_accepted[b] == lone.n_accepted[0]
    assert batch.n_rejected[b] == lone.n_rejected[0]
    assert batch.n_rhs[b] == lone.n_rhs[0]


class TestBatch:
    def test_rows_match_lone_runs_bitwise(self):
        res = _solve_batch(BATCH)
        assert res.y.shape[0] == sum(p[4] for p in BATCH)
        assert res.errors == [None] * len(BATCH)
        assert res.n_rejected[2] > 0
        for b, problem in enumerate(BATCH):
            _assert_row_equal(res, b, _lone(problem))

    def test_failing_rows_stop_alone(self):
        problems = [BATCH[0], FAILING[0], BATCH[1], FAILING[1], BATCH[2]]
        res = _solve_batch(problems)
        for b in (1, 3):
            (f, a), *problem, tol = problems[b]
            with pytest.raises(StepSizeUnderflowError) as lone:
                solve_one(f, *problem, tol=tol, args=(a,))
            assert type(res.errors[b]) is type(lone.value)
            assert str(res.errors[b]) == str(lone.value)
            assert np.all(np.isnan(res.y_end[b]))
            assert np.isnan(_ys(res, b)[-1]).all()
        assert isinstance(res.errors[3], NonFiniteRhsError)
        assert "non-finite" in str(res.errors[3])
        assert type(res.errors[1]) is StepSizeUnderflowError
        assert "stiff" in str(res.errors[1])
        for b in (0, 2, 4):
            assert res.errors[b] is None
            _assert_row_equal(res, b, _lone(problems[b]))

    def test_counters_sum_over_batch(self):
        res = _solve_batch(BATCH)
        assert int(np.sum(res.n_rhs)) == sum(
            int(_lone(p).n_rhs[0]) for p in BATCH)
        assert res.y.shape[0] == int(res.offsets[-1])

    def test_one_rhs_call_per_stage(self, monkeypatch):
        # the stages of all rows are one call each, and so is the
        # starting-step probe; so is each extra stage of the
        # interpolants of a flush's steps with grid points, over their
        # rows alone
        sizes = []

        def counted(t, Y, P):
            sizes.append(len(Y))
            return _per_row(_rigid_body, _linear)(t, Y, P)

        flushes = _spy_dense_output(monkeypatch)
        res = _solve_batch(BATCH, rhs=counted)
        attempted = res.n_accepted + res.n_rejected
        assert sizes[:2] == [len(BATCH)] * 2
        dense = [len(ms) for ms, _, _ in flushes]
        assert len(sizes) == 2 + 12 * int(np.max(attempted)) + 3 * len(dense)
        assert sum(sizes) == int(np.sum(res.n_rhs))
        assert sum(sizes) == 2 * len(BATCH) + 12 * int(np.sum(attempted)) \
            + 3 * sum(dense)

    def test_y0_must_be_two_dimensional(self):
        with pytest.raises(ValueError, match="shape"):
            solve(_per_row(_decay), [[(1.0, (0,))]], [0.0], np.array([1.0]),
                  [2], [1e-8])

    def test_one_entry_per_row_required(self):
        with pytest.raises(ValueError, match="one entry per row"):
            solve(_per_row(_decay), [[(1.0, (0,))]], [0.0, 0.0],
                  np.array([[1.0]]), [2], [1e-8])

    @pytest.mark.parametrize("order", [[0, 1, 2, 3], [2, 0, 3, 1]])
    def test_rows_sample_their_grids(self, order):
        # grids growing and shrinking: each row holds one sample per
        # point of its grid, the result holds no grid, and every row is
        # its lone run (TestGridBits pins the sample times)
        problems = [BATCH[i] for i in order]
        res = _solve_batch(problems)
        assert sorted(vars(res)) == [
            "errors", "measure_max", "n_accepted", "n_rejected", "n_rhs",
            "offsets", "y", "y_end"]
        assert np.size(res.t) == res.y.shape[0]
        assert np.diff(res.offsets).tolist() == [p[4] for p in problems]
        for b, problem in enumerate(problems):
            _assert_row_equal(res, b, _lone(problem))

    @pytest.mark.parametrize("count", [0, 2])
    def test_one_grid_per_row_required(self, count):
        with pytest.raises(ValueError, match="one entry per row"):
            solve(_per_row(_decay), [[(1.0, (0,))]], [0.0],
                  np.array([[1.0]]), [2] * count, [1e-8])

    def test_pieces_need_equal_numbers_of_constants(self):
        with pytest.raises(ValueError, match="number of constants"):
            solve(_per_row(_decay), [[(0.5, (0,)), (1.0, (0, 1.0))]], [0.0],
                  np.array([[1.0]]), [2], [1e-8])


def _one_piece(problem):
    (f, a), t0, t_end, y0, points, tol = problem
    return [(t_end, f, a)], t0, y0, points, tol


_SPARSE = 4
# (pieces [(end, f, parameter), ...], t0, y0, points, tol): 18 rows, so
# that most passes are wide (more than FLOAT_ROWS rows) and attempt
# their steps on arrays.  The sparse grids get at most one sample per step, the
# others several; the _linear rows of several pieces change their rate
# at each end (a restart); the rate-200 rows reject steps; three rows
# fail
STACKED = [_one_piece(p) for p in BATCH + FAILING + [PEAK]] + [
    ([(8.0, _rigid_body, 0.0)], 0.0, [1.0, 0.0, 0.9], 801, tol)
    for tol in (1e-6, 1e-10)
] + [
    ([(8.0, _rigid_body, 0.0)], 0.0, [0.3, 1.0, -0.2], _SPARSE, tol)
    for tol in (1e-8, 1e-11)
] + [
    ([(1.0, _linear, 0.5), (2.5, _linear, 2.0), (8.0, _linear, 1.0)], 0.0,
     [0.2, -0.1, 1.0], 401, 1e-9),
    ([(0.7, _linear, 1.0), (3.0, _linear, 0.1), (8.0, _linear, 3.0)], 0.0,
     [1.0, 1.0, -1.0], _SPARSE, 1e-10),
    ([(2.0, _linear, 3.0), (8.0, _linear, 200.0)], 0.0, [1.0, 0.5, 0.3],
     161, 1e-4),
    ([(8.0, _linear, 200.0)], 0.0, [0.0, 1.0, 1.0], _SPARSE, 1e-3),
    ([(8.0, _linear, 0.05)], 0.0, [0.0, 1.0, 1.0], 3, 1e-12),
    ([(5.0, _linear, 0.8)], 0.5, [0.7, 0.0, -0.4], 1000, 1e-7),
    ([(6.0, _rigid_body, 0.0)], 2.0, [0.0, 1.0, 0.2], 2, 1e-9),
]


def _solve_rows(problems, **kwargs):
    """One solve of rows of pieces; P rows are (function index,
    parameter)."""
    pieces, t0, y0, points, tols = zip(*problems)
    functions = list(dict.fromkeys(f for row in pieces for _, f, _ in row))
    return solve(_per_row(*functions),
                 [[(end, (functions.index(f), a)) for end, f, a in row]
                  for row in pieces], t0, np.array(y0), points, tols,
                 **kwargs)


def _squares(Y):
    """A measure: each sample's sum of squares."""
    return np.sum(Y * Y, axis=1)


def _assert_kept(kept, whole, keep):
    """kept is whole with the columns keep and the _squares measure."""
    cols = list(range(whole.y.shape[1])) if keep is None else keep
    assert kept.y.tobytes() == whole.y[:, cols].tobytes()
    assert kept.offsets.tobytes() == whole.offsets.tobytes()
    assert [repr(e) for e in kept.errors] == [repr(e) for e in whole.errors]
    for name in ("y_end", "n_accepted", "n_rejected", "n_rhs"):
        assert np.array_equal(getattr(kept, name), getattr(whole, name),
                              equal_nan=True)
    want = [math.nan if error else np.max(_squares(_ys(whole, b)))
            for b, error in enumerate(whole.errors)]
    assert np.array_equal(kept.measure_max, want, equal_nan=True)


class TestKeep:
    """A solve that keeps some state columns stores those columns of the
    samples that it would store whole, and measures the whole samples."""

    # wide passes with a dense-output overflow, narrow passes, and
    # narrow passes with failures and that overflow
    @pytest.mark.parametrize("rows, keep", [
        (range(len(STACKED)), [2]), (range(3), [1, 2, 0]),
        (range(3, 7), None), (range(3, 7), [2, 0])])
    def test_kept_columns_and_measure(self, rows, keep):
        problems = [STACKED[i] for i in rows]
        with np.errstate(over="ignore", invalid="ignore"):
            whole = _solve_rows(problems)
            kept = _solve_rows(problems, columns=keep, measure=_squares)
        assert any(error is None for error in whole.errors)
        _assert_kept(kept, whole, keep)

    @pytest.mark.parametrize("keep", [[], [0, 0], [3], [-1]])
    def test_keep_lists_distinct_columns(self, keep):
        with pytest.raises(ValueError, match="columns must be"):
            _solve_rows(STACKED[:1], columns=keep)


def _spy_dense_output(monkeypatch):
    """Record [samples per job, the set of rows of its failed jobs, batch
    rows of the jobs] of each flush of Dormand-Prince dense output; the
    last entry is the flush under way."""
    flushes = []
    dense_output = ode._dense_output

    def spy(jobs, *args):
        rows = [int(b) for b in jobs.index]
        flushes.append([[int(b - a) for a, b in zip(jobs.start, jobs.end)],
                        set(), rows])
        failed = dense_output(jobs, *args)
        flushes[-1][1] = {rows[g] for g in failed}
        return failed

    monkeypatch.setattr(ode, "_dense_output", spy)
    return flushes


# ode.FLOAT_ROWS of the batch and of the lone runs: as it is; the wide
# pass's form (attempts on arrays) on every pass of the batch against
# the narrow one on every pass of the lone runs; and the other way
# round
CONTROLLERS = pytest.mark.parametrize(
    "batch_rows, lone_rows", [(None, None), (0, 10**6), (10**6, 0)],
    ids=["default", "arrays-rows", "rows-arrays"])


def _controllers(monkeypatch, float_rows):
    """Patch ode.FLOAT_ROWS to float_rows (None: leave it)."""
    if float_rows is not None:
        monkeypatch.setattr(ode, "FLOAT_ROWS", float_rows)


@pytest.mark.bits
class TestStackedBatch:
    """A batch's rows keep the bits of their lone runs, whose dense
    output waits for other flushes and fills other stacks, whatever form
    each pass's attempt takes: a numpy or BLAS that breaks the equality,
    or a form switch that lags the rows, fails here by name."""

    @CONTROLLERS
    def test_rows_match_lone_runs_bitwise(self, monkeypatch, batch_rows,
                                          lone_rows):
        assert len(STACKED) > ode.FLOAT_ROWS
        flushes = _spy_dense_output(monkeypatch)
        with np.errstate(over="ignore", invalid="ignore"):
            _controllers(monkeypatch, lone_rows)
            lone = [_solve_rows([problem]) for problem in STACKED]
            _controllers(monkeypatch, batch_rows)
            del flushes[:]
            res = _solve_rows(STACKED)
        # the dense-output overflow of PEAK was found in one flush (which
        # may find the row's later jobs overflow too), and stacks held
        # one-sample and multi-sample rows
        assert [failed for _, failed, _ in flushes if failed] == [{6}]
        assert any(1 in ms and max(ms) > 1 for ms, _, _ in flushes)
        for b, alone in enumerate(lone):
            _assert_row_equal(res, b, alone)
            assert type(res.errors[b]) is type(alone.errors[0])
            assert str(res.errors[b]) == str(alone.errors[0])
        assert [type(e).__name__ for e in res.errors[4:7]] == [
            "StepSizeUnderflowError", "NonFiniteRhsError",
            "NonFiniteRhsError"]
        assert "dense output" in str(res.errors[6])
        assert res.errors[:4] + res.errors[7:] == [None] * 15
        assert np.count_nonzero(res.n_rejected) >= 3
        # rows that ran to their end, past 3 evaluations per step with
        # grid points
        dense = np.bincount([b for *_, rows in flushes for b in rows],
                            minlength=len(STACKED))
        pieces = (res.n_rhs - 12 * (res.n_accepted + res.n_rejected)
                  - 3 * dense) // 2
        ended = [error is None for error in res.errors]
        assert np.count_nonzero(pieces[ended] > 1) == 3

    def test_one_component_rows_match_lone_runs_bitwise(self, monkeypatch):
        # one-component rows repeat their component in a second column
        # of the stage stack: a stack's power-major view and a lone
        # run's per-row powers then multiply a matrix of two columns, as
        # every row does, where a vector would take BLAS's
        # matrix-vector product, whose bits differ from a row of the
        # other's under some kernels
        flushes = _spy_dense_output(monkeypatch)
        rows = [([(6.0, _forced_decay, rate)], 0.0, [1.0 - rate], points,
                  tol) for rate, points, tol in [
                      (0.3, 801, 1e-9), (1.7, 1601, 1e-10), (0.05, 401, 1e-8),
                      (4.0, 1201, 1e-9), (0.9, 801, 1e-11), (2.5, 61, 1e-7)]]
        res = _solve_rows(rows)
        assert any(max(ms) > 1 for ms, *_ in flushes)
        for b, row in enumerate(rows):
            _assert_row_equal(res, b, _solve_rows([row]))

    def test_stacked_pass_makes_no_per_row_product(self, monkeypatch):
        # every flush takes its samples from one kernel, once per stack
        # of jobs, the jobs of narrow passes and of wide ones alike
        flushes = _spy_dense_output(monkeypatch)
        samples = ode._samples
        calls = []

        def spy(powers, *args):
            calls.append((len(flushes) - 1, powers.shape))
            return samples(powers, *args)

        monkeypatch.setattr(ode, "_samples", spy)
        res = _solve_batch(BATCH * 4)
        assert res.errors == [None] * len(BATCH) * 4
        fewer = False  # whether a stack held two jobs or more
        for p, (ms, *_) in enumerate(flushes):
            # each job in one stack of two samples or more
            shapes = [shape for q, shape in calls if q == p]
            assert all(len(shape) == 3 and shape[1] >= 2
                       for shape in shapes)
            assert sum(shape[0] for shape in shapes) == len(ms)
            fewer |= len(shapes) < len(ms)
        assert fewer


def _bits(values):
    return np.asarray(values).view(np.int64)


def _stages(rng, shape):
    """Normal draws scaled by powers of ten from 1e-12 to 1e12."""
    return rng.normal(size=shape) * 10.0 ** rng.integers(-12, 13, shape)


def _powers(rng, shape):
    """theta^1..7 for theta in (0, 1], built as dense output builds them."""
    theta = rng.uniform(0.0, 1.0, shape)
    powers = theta.repeat(7).reshape(shape + (7,))
    np.multiply.accumulate(powers, out=powers, axis=-1)
    return powers


@pytest.mark.bits
class TestDenseBits:
    """The bit equalities that stacked dense output relies on, one test
    each, so that a numpy or BLAS that breaks one fails here by name
    rather than by moving the golden hashes."""

    SIZES = [(1, 1), (2, 3), (7, 3), (8, 3), (32, 3), (64, 5), (31, 2)]

    @pytest.mark.parametrize("rows, n", SIZES)
    def test_stacked_tableau_product_equals_per_row(self, rows, n):
        # on w = max(n, 2) columns, as solve takes it
        rng = np.random.default_rng(rows * 100 + n)
        for _ in range(20):
            K = _stages(rng, (rows, 16, max(n, 2)))
            stacked = np.matmul(_P_T, K)
            for b in range(rows):
                assert np.array_equal(_bits(stacked[b]), _bits(_P_T @ K[b]))

    @pytest.mark.parametrize("rows, n", SIZES)
    def test_multi_sample_stack_equals_per_row(self, rows, n):
        # rows of 2..mx samples, padded to mx with arbitrary powers, on
        # w = max(n, 2) columns
        rng = np.random.default_rng(rows * 100 + n + 1)
        for mx in (2, 3, 17, 40):
            m = rng.integers(2, mx + 1, rows)
            powers = _powers(rng, (rows, mx))
            Q = _stages(rng, (rows, 7, max(n, 2)))
            stacked = np.matmul(powers, Q)
            for b in range(rows):
                assert np.array_equal(_bits(stacked[b, :m[b]]),
                                      _bits(powers[b, :m[b]] @ Q[b]))

    @pytest.mark.parametrize("rows, n", SIZES)
    def test_power_major_view_equals_row_major(self, rows, n):
        # stacks hold their powers in one (7, G, mx) buffer and hand
        # np.matmul its (G, mx, 7) view, times Q of w = max(n, 2)
        # columns (a one-component row repeats its component): the bits
        # of the row-major stack's product, with no copy of the view
        # (the traced peak is the product's own array)
        rng = np.random.default_rng(rows * 100 + n + 4)
        for mx in (2, 3, 17, 40):
            powers = _powers(rng, (rows, mx))
            by_power = np.ascontiguousarray(powers.transpose(2, 0, 1))
            Q = _stages(rng, (rows, 7, max(n, 2)))
            tracemalloc.start()
            try:
                got = np.matmul(by_power.transpose(1, 2, 0), Q)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert np.array_equal(_bits(got), _bits(np.matmul(powers, Q)))
            assert peak < got.nbytes + 4096

    @pytest.mark.parametrize("rows, n", SIZES)
    def test_one_sample_stack_equals_per_row(self, rows, n):
        # a one-sample step repeats its powers to make two samples: its
        # sample, row 0 of that product, has the bits of row 0 of its
        # product with any other second sample, alone and in a stack of
        # any size padded to mx (a power-major view, as solve takes it)
        rng = np.random.default_rng(rows * 100 + n + 2)
        for mx in (2, 3, 17):
            powers = _powers(rng, (rows, 2))
            Q = _stages(rng, (rows, 7, max(n, 2)))
            padded = np.repeat(powers[:, :1], mx, axis=1)
            by_power = np.ascontiguousarray(padded.transpose(2, 0, 1))
            stacked = np.matmul(by_power.transpose(1, 2, 0), Q)
            for b in range(rows):
                first = _bits((powers[b] @ Q[b])[0])
                assert np.array_equal(_bits((padded[b, :2] @ Q[b])[0]),
                                      first)
                assert np.array_equal(_bits(stacked[b, 0]), first)

    @pytest.mark.parametrize("rows, n", SIZES)
    def test_padding_rows_repeat_the_last_sample(self, rows, n):
        # rows of 1..mx samples, padded to mx by repeating each row's
        # last powers, times Q of w = max(n, 2) columns: a padding row
        # of the product has the bits of its row's last sample, so a
        # stack is written whole
        rng = np.random.default_rng(rows * 100 + n + 3)
        w = max(n, 2)
        for mx in range(2, 41):
            m = rng.integers(1, mx + 1, rows)
            powers = _powers(rng, (rows, mx))
            k = np.minimum(np.arange(mx), m[:, None] - 1)
            powers = np.take_along_axis(powers, k[:, :, None], axis=1)
            stacked = np.matmul(powers, _stages(rng, (rows, 7, w)))
            for b in range(rows):
                assert np.array_equal(
                    _bits(stacked[b, m[b]:]),
                    _bits(np.broadcast_to(stacked[b, m[b] - 1],
                                          (mx - m[b], w))))

    @pytest.mark.parametrize("shape", [(1, 1), (7, 1), (126, 20), (1000, 40)])
    def test_power_products_equal_accumulate(self, shape):
        # theta, theta*theta, (theta*theta)*theta, ... as stacked dense
        # output forms them, against np.multiply.accumulate
        theta = np.random.default_rng(shape[0]).uniform(0.0, 1.0, shape)
        powers = np.empty(shape + (7,))
        powers[..., 0] = theta
        for q in range(1, 7):
            np.multiply(powers[..., q - 1], theta, out=powers[..., q])
        want = theta.repeat(7).reshape(shape + (7,))
        np.multiply.accumulate(want, out=want, axis=-1)
        assert np.array_equal(_bits(powers), _bits(want))


# the number of rows in a stack of the pins below
WIDTHS = [1, 2, 4, 5, 7, 256]
# every tableau sum of the stages: rows 1..15 of A, each on its stages
# 0..i-1, and both error weights on stages 0..11
SUMS = [(ode._A[i], i) for i in range(1, 16)] \
    + [(ode._E5, 12), (ode._E3, 12)]
_ODD = [0.0, -0.0, 5e-324, -2.5e-310, 1e-308 / 7, math.inf, -math.inf,
        math.nan]


def _odd_stages(rng, shape, odd_values=_ODD):
    """``_stages`` draws with about one entry in 20 replaced by one of
    odd_values: +-0.0, a subnormal, +-inf or NaN."""
    K = _stages(rng, shape)
    odd = rng.random(shape) < 0.05
    K[odd] = rng.choice(odd_values, np.count_nonzero(odd))
    return K


def _left_to_right(weights, column):
    """The sum of weights times column in Python floats, left to right
    from +0.0."""
    total = 0.0
    for w, k in zip(weights.tolist(), column):
        total += w * k
    return total


def _assert_same_bits(got, want):
    """The same bits, but any NaN for a NaN (a NaN's sign and payload
    depend on the operand order of the hardware's adds)."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(_bits(got)[~nan], _bits(want)[~nan])


def _replay(draws):
    """A right-hand side in both forms that returns row b's stages
    draws[b, 1], draws[b, 2], ... on its successive calls, whatever the
    state, and records the states: states[b] lists row b's.  The per-row
    form reads b as its constants."""
    states = [[] for _ in draws]

    def rhs(t, Y, P):
        for b, row in enumerate(Y.tolist()):
            states[b].append(row)
        return draws[:, len(states[0])]

    def f(t, y, b):
        states[b].append(y)
        return draws[b, len(states[b])].tolist()
    return rhs, f, states


@pytest.mark.bits
class TestFloatBits:
    """The bit equalities that both forms of a pass rely on, one test
    each, so that a numpy that breaks one fails here by name rather than
    by moving the golden hashes: every tableau sum is numpy's own loop
    on a strided stack, left to right from +0.0 on any BLAS kernel, and
    the float form's straight-line sums equal it."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_reduce_sums_left_to_right_below_eight(self, n):
        # the error norm's sum of squares; from 8 terms np.add.reduce
        # sums pairwise, which is why rows of 8 or more components keep
        # the array form
        rng = np.random.default_rng(n)
        mismatches = 0
        for rows in (1, 4, 64):
            x = rng.uniform(0.0, 1.0, (20_000 // rows, rows, n)) \
                * 10.0 ** rng.integers(-4, 5, (20_000 // rows, rows, n))
            # element-wise adds of the columns: left to right in each row
            total = x[..., 0].copy()
            for j in range(1, n):
                total += x[..., j]
            summed = np.array([np.add.reduce(slab, axis=1) for slab in x])
            mismatches += np.count_nonzero(_bits(summed) != _bits(total))
        if n < 8:
            assert mismatches == 0
        else:
            assert mismatches > 1000

    @pytest.mark.parametrize("rows, n", [(1, 1), (2, 3), (3, 5), (4, 3),
                                         (5, 7), (8, 5), (32, 3)])
    def test_tableau_products_by_stack_equal_per_row(self, rows, n):
        # every tableau sum on a strided stack of rows (a row of one
        # component repeated in a second, as solve stores it): row b is
        # the product that a stack of that row alone makes, numpy's own
        # loop on both
        rng = np.random.default_rng(rows * 10 + n)
        K = ode._strided((rows, 16, max(n, 2)))
        for _ in range(20):
            K[...] = _stages(rng, K.shape)
            for weights, i in SUMS:
                stacked = np.matmul(weights, K[:, :i])
                for b in range(rows):
                    assert np.array_equal(
                        _bits(stacked[b]),
                        _bits(np.matmul(weights, K[b:b + 1, :i])[0]))

    @pytest.mark.parametrize("n", range(1, 8))
    @pytest.mark.parametrize("rows", WIDTHS)
    def test_strided_sums_run_left_to_right(self, rows, n):
        # every tableau sum of the array form, on a strided stack of
        # stages that hold +-0.0, subnormals, +-inf and NaN among normal
        # draws: numpy's own loop, a left-to-right sum from +0.0 (a row
        # of one component repeats it in the second, as solve stores it)
        rng = np.random.default_rng(rows * 10 + n)
        K = ode._strided((rows, 16, max(n, 2)))
        for _ in range(2 if rows == 256 else 10):
            K[...] = _odd_stages(rng, K.shape)
            if n == 1:
                K[..., 1] = K[..., 0]
            for weights, i in SUMS:
                with np.errstate(all="ignore"):
                    got = np.matmul(weights, K[:, :i])[:, :n]
                stages = K[:, :i, :n].tolist()
                for b in range(rows):
                    assert _bits(got[b]).tolist() == _bits(
                        [_left_to_right(weights, column)
                         for column in zip(*stages[b])]).tolist()

    @pytest.mark.parametrize("n", range(1, 8))
    @pytest.mark.parametrize("rows", WIDTHS)
    def test_float_form_sums_equal_the_array_form(self, rows, n):
        # an attempt in either form on replayed stages (stage i of a
        # row is the draw's, whatever its state), then the extra stages
        # on arrays, as a flush takes them after either: both forms hand
        # the right-hand side y + h times the left-to-right sums, write
        # the same stages and return the same states and error norms.
        # Stages 13..15 are normal draws.
        # States of -0.0 keep the sign of a zero
        # sum, which starts from +0.0: so does a last row of -0.0 alone
        rng = np.random.default_rng(rows * 10 + n + 1)
        draws = _odd_stages(rng, (rows, 16, n))
        draws[:, 13:] = _stages(rng, (rows, 3, n))
        y = _odd_stages(rng, (rows, n), _ODD[:5])
        h = rng.uniform(1e-3, 1.0, rows)
        if rows > 1:
            draws[-1, :13], y[-1] = -0.0, -0.0
        t, tol, P = rng.uniform(0.0, 1.0, rows), [1e-8] * rows, draws[:, 0]
        jobs = ode._Jobs(t.tolist(), h.tolist(), [1] * rows, [2] * rows,
                         range(rows))
        forms = []
        for floats in (False, True):
            K = ode._strided((rows, 16, max(n, 2)))
            K[:, 0] = draws[:, 0]
            rhs, f, states = _replay(draws)
            with np.errstate(all="ignore"):
                if floats:
                    new, errs = ode._attempt_floats(
                        f, t.tolist(), h.tolist(), range(rows),
                        range(rows), y, K, tol)
                else:
                    new, errs = ode._attempt(rhs, t, h, y, K, P,
                                             np.array(tol)[:, None])
                ode._extra_stages(jobs, y, K, P, rhs)
            forms.append((np.array(states), K[..., :n].copy(), new,
                          np.array(errs)))
        for array, floats in zip(*forms):
            _assert_same_bits(floats, array)
        states, K = forms[0][:2]
        _assert_same_bits(K, draws)
        with np.errstate(all="ignore"):
            _assert_same_bits(states, [[[
                y_j + h_b * _left_to_right(weights, column)
                for y_j, column in zip(y[b].tolist(), zip(*draws[b, :i]))]
                for weights, i in SUMS[:12] + SUMS[12:15]]
                for b, h_b in enumerate(h.tolist())])

    def test_stacks_stay_strided_as_rows_retire(self, monkeypatch):
        # the stacks that every tableau sum reads, on arrays and in
        # Python floats, as rows retire, restart, fail and evaluate their
        # extra stages: none is contiguous
        strides = []
        for name, at in (("_stages", 4), ("_attempt_floats", 6)):
            def spy(*args, _form=getattr(ode, name), _at=at):
                strides.append((args[_at].strides[-1], args[_at].shape[-1]))
                return _form(*args)
            monkeypatch.setattr(ode, name, spy)
        top = (1.0 - 1e-6) * _TOP

        def cosine(t, y, p):
            return np.array([top * math.cos(t)])

        rows = ode.FLOAT_ROWS + 2
        with np.errstate(over="ignore", invalid="ignore"):
            _solve_rows(STACKED)
            solve(_per_row(cosine, _decay),
                  [[(2.0 * math.pi, (0,))]] + [[(0.1, (1,))]] * rows,
                  [0.0] * (rows + 1),
                  np.array([[0.0]] + [[1.0]] * rows), [9] + [5] * rows,
                  [1e-3] * (rows + 1), row_rhs=_row_form(cosine, _decay))
        assert len(strides) > 100
        assert set(strides) == {(16, 3), (16, 2)}

    def test_square_equals_product(self):
        # the array form's ** 2 is the float form's x * x
        x = _stages(np.random.default_rng(5), 200_000)
        assert np.array_equal(_bits(x ** 2), _bits([v * v for v in
                                                    x.tolist()]))


def _scalar_initial_step(f, t0, y0, f0, t_end, tol, power):
    """The starting-step heuristic of one row on Python floats, as solve
    took it row by row: the reference of the batched _initial_step."""
    scale = tol + tol * np.abs(y0)
    d0 = math.sqrt(float(np.mean((y0 / scale) ** 2)))
    d1 = math.sqrt(float(np.mean((f0 / scale) ** 2)))
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 or d1 == math.inf \
        else 0.01 * d0 / d1
    h0 = min(h0, t_end - t0)
    f1 = f(t0 + h0, y0 + h0 * f0)
    d2 = math.sqrt(float(np.mean(((f1 - f0) / scale) ** 2))) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    elif not (math.isfinite(d1) and math.isfinite(d2)):
        h1 = h0
    else:
        h1 = (0.01 / max(d1, d2)) ** power
    return min(100 * h0, h1, t_end - t0)


def _affine(t, Y, P):
    """y' = a*y + b*t + c, plus d for t > 0, element by element, with a,
    b, c and d from P."""
    n = Y.shape[1]
    return (Y * P[:, :n] + t[:, None] * P[:, n:2 * n] + P[:, 2 * n:3 * n]
            + (t > 0.0)[:, None] * P[:, 3 * n:])


class TestControllerBits:
    """The bit equalities that the batched starting step of the
    step-size controller relies on, one test each, so that a numpy or
    libm that breaks one fails here by name rather than by moving the
    golden hashes."""

    @pytest.mark.parametrize("exponent, lo, hi", [(0.2, -300.0, 300.0),
                                                  (0.125, -300.0, 300.0)])
    def test_float_power_equals_python_power(self, exponent, lo, hi):
        # the starting step's (0.01/d) ** 0.2 of the exponential method
        # and (0.01/d) ** 0.125 of Dormand-Prince
        x = np.exp(np.random.default_rng(4).uniform(lo, hi, 200_000))
        assert np.array_equal(_bits(np.float_power(x, exponent)),
                              _bits([v ** exponent for v in x.tolist()]))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_row_reduce_equals_one_row_mean(self, n):
        # the starting step's norms: np.add.reduce along every row of a
        # batch, over n, against np.mean of each row alone
        rng = np.random.default_rng(20 + n)
        for rows in (1, 4, 128):
            x = rng.uniform(0.0, 1.0, (4096 // rows, rows, n)) \
                * 10.0 ** rng.integers(-150, 150, (4096 // rows, rows, n))
            batched = np.array([np.add.reduce(slab, axis=1) / n
                                for slab in x])
            assert np.array_equal(_bits(batched), _bits(
                [[np.mean(row) for row in slab] for slab in x]))

    @pytest.mark.parametrize("n", [1, 3, 5, 7])
    def test_initial_step_equals_the_scalar_heuristic(self, n):
        # every row of one batch against its own heuristic on Python
        # floats: states and slopes from 1e-12 to 1e12, zero slopes, a
        # slope that overflows the error scale, a NaN slope, pieces from
        # 1e-310 long, a slope that jumps right after t0 = 0 (d2
        # overflows on the shortest pieces); with Dormand-Prince's power
        # 1/8 and the exponential method's 1/5
        rng = np.random.default_rng(30 + n)
        rows = 600
        y0 = rng.normal(size=(rows, n)) * 10.0 ** rng.integers(-12, 13,
                                                              (rows, 1))
        P = rng.normal(size=(rows, 4 * n)) \
            * 10.0 ** rng.integers(-12, 13, (rows, 4 * n))
        P[::7] = 0.0
        P[1::11, 2 * n:3 * n] = 1e300
        P[2::13, 0] = math.nan
        y0[3::17] = 0.0
        # spans down to 1e-310 from t0 = 0, from 1e-10 elsewhere
        t0 = np.where(np.arange(rows) % 3, rng.uniform(-5.0, 5.0, rows), 0.0)
        t_end = t0 + 10.0 ** np.where(t0, rng.uniform(-10.0, 2.0, rows),
                                      rng.uniform(-310.0, 2.0, rows))
        tol = 10.0 ** rng.uniform(-12.0, -3.0, rows)
        f0 = _affine(t0, y0, P)
        for power in (ode._START_EXPONENT, exponential.Exponential
                      .start_exponent):
            with np.errstate(all="ignore"):
                got = _initial_step(_affine, t0, y0, P, f0, t_end,
                                    tol[:, None], power)
                want = [_scalar_initial_step(
                    lambda t, y, p=P[b]: _affine(np.array([t]), y[None],
                                                 p[None])[0],
                    t0[b].item(), y0[b], f0[b], t_end[b].item(),
                    tol[b].item(), power)
                    for b in range(rows)]
            # repr tells every float apart but NaN's sign
            assert list(map(repr, got.tolist())) == list(map(repr, want))

    def test_bloch_norm_view_equals_complex_sum(self):
        # each sweep batch's measure: |s| from a complex view of (Re s,
        # Im s) against the complex array Re s + 1j*Im s
        from lfbloch.dynamics import _bloch_norm
        rng = np.random.default_rng(8)
        for scale in (1e-160, 1e-20, 1.0, 1e20, 1e150, 1e200):
            y = rng.normal(size=(50_000, 5)) \
                * scale * 10.0 ** rng.integers(-3, 4, (50_000, 5))
            with np.errstate(over="ignore", under="ignore"):
                want = y[:, 2] ** 2 + 4.0 * np.abs(y[:, 0] + 1j * y[:, 1]) ** 2
                assert np.array_equal(_bits(_bloch_norm(y)), _bits(want))


# (t0, end, points) of grids with distinct points: from 0 and from
# starts of either sign, of 2 to 1e6 points, with subnormal steps, and
# with steps of a few ulps of their start
GRIDS = [(0.0, 1.0, 2), (0.0, 6.5, 1601), (0.0, 1e-3, 801), (0.0, 3e5, 5000),
         (0.0, 2.0, 17), (0.0, 8.0, 10**6), (0.5, 4.0, 801), (-5.0, 35.0, 3000),
         (1e6, 1e6 + 1.0, 400), (-2.5e-3, 1e-3, 7), (0.0, 1e-310, 801),
         (0.0, 3e-320, 5), (-1e-318, 1e-318, 11), (1.0, 1.0 + 2e-12, 1000),
         (0.1, 0.7, 10**6)]


def _grid_args(grids):
    """The arrays of (t0, step, last, end) that solve keeps of grids."""
    return [np.array(column, dtype=float) for column in zip(*[
        (t0, (end - t0) / (points - 1), points - 1, end)
        for t0, end, points in grids])]


def _probes(grid, rng, steps):
    """Places x on and about the grid: every tenth point or so, one ulp
    either side of it, past it by up to steps grid gaps, below the
    start and past the end."""
    at = np.unique(rng.integers(0, len(grid), min(len(grid), 40)))
    on = grid[at]
    gap = (grid[-1] - grid[0]) / (len(grid) - 1)
    return np.concatenate([
        on, np.nextafter(on, -math.inf), np.nextafter(on, math.inf),
        np.minimum(on + rng.uniform(0.0, steps, on.size) * gap, grid[-1]),
        [grid[-1], np.nextafter(grid[-1], math.inf), grid[-1] + 1.0,
         np.nextafter(grid[0], -math.inf)]])


class TestGridSearchBits:
    """The controller's grid index, _index, against searchsorted on the
    grid that np.linspace builds, so that a numpy that breaks one fails
    here by name."""

    @pytest.mark.parametrize("steps", [0.5, 3.0, 40.0, 700.0])
    def test_bounded_search_equals_searchsorted(self, steps):
        rng = np.random.default_rng(int(steps * 10))
        args = _grid_args(GRIDS)
        rows, xs, want = [], [], []
        for row, (t0, end, points) in enumerate(GRIDS):
            grid = np.linspace(t0, end, points)
            assert (np.diff(grid) > 0.0).all()
            x = _probes(grid, rng, steps)
            rows += [row] * x.size
            xs.append(x)
            want.append(grid.searchsorted(x, "right"))
        x, want = np.concatenate(xs), np.concatenate(want)
        for r, x_r, want_r in zip(rows, x.tolist(), want.tolist()):
            assert ode._index(x_r, *(a[r].item() for a in args)) == want_r

    @pytest.mark.parametrize("crossed", [0, 1, 2, 7, 31, 32, 33, 255,
                                         256, 600])
    def test_crossings_from_none_to_hundreds(self, crossed):
        # rows on one 1601-point grid whose steps cross the same number
        # of points, from a grid point, from just below the next one
        # (the most points that a step of its length can cross) and
        # from between two, onto a grid point or past it
        grid = np.linspace(0.0, 6.5, 1601)
        gap = np.diff(grid).min()
        at = np.array([0, 77, 1600 - crossed - 1])
        below = np.nextafter(grid[at + 1], -math.inf)
        on = grid[at + crossed]
        x = np.concatenate([on, np.maximum(on, below), on + 0.75 * gap,
                            on + 0.75 * gap])
        args = [a.item() for a in _grid_args([(0.0, 6.5, 1601)])]
        got = np.array([ode._index(x_r, *args) for x_r in x.tolist()])
        assert np.array_equal(got, grid.searchsorted(x, "right"))
        assert np.array_equal(got - np.tile(at + 1, 4),
                              np.full(x.size, crossed))


class TestFitWindowBits:
    """The fits' window, verify._window, by the grid's arithmetic against
    searchsorted and slicing on the grid that np.linspace builds, on the
    grids of GRIDS that start at 0, as a trajectory's do, so that a numpy
    that breaks one fails here by name."""

    @pytest.mark.parametrize("t0, end, points",
                             [g for g in GRIDS if g[0] == 0.0])
    def test_window_equals_linspace_search(self, t0, end, points):
        rng = np.random.default_rng(points)
        grid = np.linspace(0.0, end, points)
        at = rng.integers(0, points, 30)
        on = grid[at]
        gap = end / (points - 1)
        # ends on grid points, an ulp either side of them, between
        # two, at 0 and at the span and past them; then any two
        ends = np.concatenate([
            on, np.nextafter(on, -math.inf), np.nextafter(on, math.inf),
            np.minimum(on + rng.uniform(0.0, 1.0, on.size) * gap, end),
            [0.0, end, np.nextafter(0.0, math.inf), -1.0,
             np.nextafter(end, -math.inf), np.nextafter(end, math.inf),
             2.0 * end]]).tolist()
        windows = [None, (0.0, end), (-1.0, 2.0 * end)] + [
            (a, b) for a, b in zip(ends, ends[1:] + ends[:1]) if a < b] + [
            (a, b) for a in ends[-7:] for b in ends[-7:] if a < b]
        for window in windows:
            a, b = (0.0, end) if window is None else window
            lo = int(grid.searchsorted(a, "left"))
            hi = int(grid.searchsorted(b, "right"))
            if hi - lo < 20:
                with pytest.raises(verify.FitWindowError) as info:
                    verify._window(end, points, window)
                assert str(info.value) == (
                    f"fit window [{a:g}, {b:g}] contains {hi - lo} "
                    f"samples; need >= 20")
                continue
            cut, t, got, n = verify._window(end, points, window)
            assert (cut, got, n) == (slice(lo, hi), (a, b), hi - lo)
            assert t.tobytes() == grid[lo:hi].tobytes()

    def test_short_window_message_is_pinned(self):
        # points 100..118 of a 1601-point grid on [0, 6.5]: 19 samples
        with pytest.raises(verify.FitWindowError) as info:
            verify._window(6.5, 1601, (0.40625, 0.479375))
        assert str(info.value) == ("fit window [0.40625, 0.479375] "
                                   "contains 19 samples; need >= 20")


def _row_form(*functions):
    """The per-row form of ``_per_row(*functions)`` for ``row_rhs``: a
    piece's constants are read once into (function, parameters)."""
    def read(p):
        return functions[int(p[0])], np.array(p[1:])

    def f(t, y, c):
        function, p = c
        return function(t, np.array(y), p).tolist()
    return read, f


def _huge(t, y, p):
    return np.array([1e308])


def _spin(t, y, p):
    """y' = M y with a rotation-and-decay M of the size of y, plus
    the force p[0] on the first component."""
    n = y.size
    M = np.diag(np.full(n, -p[1])) + np.diag(np.ones(n - 1), 1) \
        - np.diag(np.ones(n - 1), -1)
    return M @ y + np.eye(n)[0] * p[0]


def _spy_floats(monkeypatch):
    """Record the rows of each pass that takes the float form."""
    sizes = []
    attempt = ode._attempt_floats

    def spy(f, T, *args):
        sizes.append(len(T))
        return attempt(f, T, *args)

    monkeypatch.setattr(ode, "_attempt_floats", spy)
    return sizes


# (pieces [(end, f, (force, rate)), ...], t0, y0, points, tol) of 1, 5, 7
# and 8 components: y' = 1e308 overflows y near t = 0.7977 while f stays
# finite (the state goes non-finite), and the forces change at piece ends
WIDE = {
    1: [([(2.0, _huge, (0.0, 0.0))], 0.0, [1e308], 5, 1e-6)],
    **{n: [([(1.0, _spin, (0.0, 0.1)), (2.5, _spin, (1.0, 0.1)),
             (4.0, _spin, (0.0, 0.3))], 0.0, np.linspace(0.9, -0.4, n),
            81, 1e-9),
           ([(4.0, _spin, (0.5, 2.0))], 0.5, np.linspace(0.1, 0.3, n),
            2, 1e-6)]
       for n in (5, 7, 8)},
}


# STACKED with each parameter as a tuple of constants
_STACKED = [([(end, f, (a,)) for end, f, a in pieces], *rest)
            for pieces, *rest in STACKED]


class TestFloatForm:
    """A pass of at most FLOAT_ROWS Dormand-Prince rows given a per-row
    right-hand side runs in Python floats; each row keeps the bits of
    the array form."""

    def _solve(self, problems, floats):
        pieces, t0, y0, points, tols = zip(*problems)
        functions = list(dict.fromkeys(
            f for row in pieces for _, f, _ in row))
        return solve(_per_row(*functions),
                     [[(end, (functions.index(f), *a)) for end, f, a in row]
                      for row in pieces], t0, np.array(y0), points, tols,
                     row_rhs=_row_form(*functions) if floats else None)

    def _check(self, monkeypatch, problems, width):
        """Solve problems as one array-form batch, and in groups of
        width with the per-row form; return the rows of each float pass
        and the array-form result."""
        sizes = _spy_floats(monkeypatch)
        with np.errstate(over="ignore", invalid="ignore"):
            array = self._solve(problems, floats=False)
            assert sizes == []
            for start in range(0, len(problems), width):
                group = problems[start:start + width]
                res = self._solve(group, floats=True)
                for b, error in enumerate(array.errors[start:start + width]):
                    _assert_row_equal(res, b, _one_row_of(array, start + b))
                    assert type(res.errors[b]) is type(error)
                    assert str(res.errors[b]) == str(error)
        return sizes, array

    @pytest.mark.parametrize("width", [1, ode.FLOAT_ROWS])
    def test_rows_equal_the_array_form_bitwise(self, monkeypatch, width):
        # STACKED: rows that reject steps, restart at piece ends, fail
        # as stiff, on a non-finite right-hand side and on overflowing
        # dense output
        sizes, array = self._check(monkeypatch, _STACKED, width)
        assert sizes and max(sizes) == width
        assert np.count_nonzero(array.n_rejected) >= 3
        assert sum(error is not None for error in array.errors) == 3

    def test_stages_get_python_float_times(self):
        # every evaluation of the attempts, 12 each (the first, the
        # starting-step probe's and the extra stages of dense output are
        # rhs's), hands f a Python float time, not a numpy scalar
        read, f = _row_form(_spin)
        times = []

        def spy(t, y, c):
            times.append(t)
            return f(t, y, c)

        res = solve(_per_row(_spin), [[(3.0, (0, 0.5, 0.2))]], [0.0],
                    np.array([[1.0, 0.0, -0.5]]), [31], [1e-8],
                    row_rhs=(read, spy))
        assert len(times) == 12 * (res.n_accepted[0] + res.n_rejected[0])
        assert {type(t) for t in times} == {float}

    @pytest.mark.parametrize("n", [1, 5, 7])
    def test_wide_rows_equal_the_array_form_bitwise(self, monkeypatch, n):
        sizes, array = self._check(monkeypatch, WIDE[n], 2)
        assert sizes
        if n == 1:
            assert isinstance(array.errors[0], NonFiniteRhsError)
            assert "the state went non-finite" in str(array.errors[0])
        else:
            assert array.errors == [None, None]

    def test_eight_components_keep_the_array_form(self, monkeypatch):
        sizes, _ = self._check(monkeypatch, WIDE[8], 2)
        assert sizes == []

    def test_more_rows_keep_the_array_form_until_few_are_left(
            self, monkeypatch):
        sizes, _ = self._check(monkeypatch, _STACKED, len(_STACKED))
        assert sizes and max(sizes) <= ode.FLOAT_ROWS

    def test_first_attempt_on_few_rows_takes_the_float_form(
            self, monkeypatch):
        # 5 decays that end at 0.5, 1, ..., 2.5 retire one by one: every
        # attempt of FLOAT_ROWS rows or fewer, the first after a row
        # retires included, takes the float form, and only those
        attempts = []
        for name in ("_attempt", "_attempt_floats"):
            def spy(f, t, *args, _form=getattr(ode, name), _name=name):
                attempts.append((_name, len(t)))
                return _form(f, t, *args)
            monkeypatch.setattr(ode, name, spy)
        rows = ode.FLOAT_ROWS + 1
        res = solve(_per_row(_decay), [[(0.5 * (b + 1), (0,))]
                                       for b in range(rows)],
                    [0.0] * rows, np.ones((rows, 1)), [5] * rows,
                    [1e-8] * rows, row_rhs=_row_form(_decay))
        assert res.errors == [None] * rows
        widths = [m for _, m in attempts]
        assert widths == sorted(widths, reverse=True)
        assert set(widths) == set(range(1, rows + 1))
        assert [form for form, _ in attempts] == [
            "_attempt_floats" if m <= ode.FLOAT_ROWS else "_attempt"
            for m in widths]

    @pytest.mark.parametrize("floats", [True, False],
                             ids=["floats", "arrays"])
    def test_passes_of_some_jobs_match_lone_runs_bitwise(self, monkeypatch,
                                                         floats):
        # rows of several samples per step and rows of one at most,
        # which hold no grid point in most passes: a pass copies its
        # jobs' rows, and a flush writes the jobs of several passes; in
        # the float form or on arrays, against lone runs
        problems = [_STACKED[i] for i in (7, 9, 8, 10)]
        flushes = _spy_dense_output(monkeypatch)
        lone = [self._solve([problem], floats) for problem in problems]
        del flushes[:]
        if not floats:
            monkeypatch.setattr(ode, "FLOAT_ROWS", 0)
        res = self._solve(problems, floats)
        assert any(len(rows) > len(set(rows)) > 1 for *_, rows in flushes)
        for b, alone in enumerate(lone):
            _assert_row_equal(res, b, alone)

    def test_exponential_method_keeps_the_array_form(self, monkeypatch):
        sizes = _spy_floats(monkeypatch)
        L = np.array([[-0.5, -2.0j], [-1.5, -300.0 + 1200.0j]])
        consts = (0, 0.8, 0.1, *L.ravel().view(float))
        args = (_per_row(_coupled), [[(1.0, consts)]], [0.0],
                np.array([[0.3, 0.1, -0.5, 0.05, -0.02]]), [11], [1e-9])
        res = solve(*args, linear=[L],
                    row_rhs=_row_form(_coupled))
        assert sizes == []
        _assert_row_equal(res, 0, solve(*args, linear=[L]))


def _one_row_of(res, b):
    """Row b of res as an OdeResult of one row."""
    lo, hi = res.offsets[b], res.offsets[b + 1]
    return OdeResult(y=res.y[lo:hi], offsets=np.array([0, hi - lo]),
                     y_end=res.y_end[b:b + 1],
                     n_accepted=res.n_accepted[b:b + 1],
                     n_rejected=res.n_rejected[b:b + 1],
                     n_rhs=res.n_rhs[b:b + 1], errors=res.errors[b:b + 1])


def _forced(t, y, p):
    """A damped oscillator pushed by a constant force p[0]."""
    return np.array([y[1], p[0] - y[0] - 0.3 * y[1]])


def _pieces(ends, forces=(0.0, 1.0, 0.0)):
    return [(end, (0, force)) for end, force in zip(ends, forces)]


_GRID = np.linspace(0.0, 3.0, 31)
# (pieces, t0, y0, points, tol); the force flips at each piece's end
PIECED = [
    # a first piece shorter than the starting step (0.005): its first
    # step must be sized toward 0.004, not toward the row's end
    (_pieces([0.004, 1.5, 3.0]), 0.0, [1.0, 0.0], 31, 1e-8),
    (_pieces([1e-9, 2.0, 3.0]), 0.0, [1.0, 0.0], 31, 1e-8),
    # (1.01, 1.02] holds no grid point
    (_pieces([1.01, 1.02, 3.0]), 0.0, [0.2, -0.5], 31, 1e-10),
    # ends exactly on grid points
    (_pieces([*_GRID[[12, 20]], 3.0]), 0.0, [0.2, -0.5], 31, 1e-6),
    (_pieces([1.5, 2.25, 3.0]), 0.5, [0.0, 1.0], 26, 1e-8),
]


def _solve_pieced(problems, rhs=_per_row(_forced)):
    pieces, t0, y0, points, tols = zip(*problems)
    return solve(rhs, pieces, t0, np.array(y0), points, tols)


def _dense_steps(flushes, rows):
    """The steps with grid points of each of rows batch rows, from the
    flushes of ``_spy_dense_output``; flushes is then emptied."""
    steps = np.bincount([b for *_, jobs in flushes for b in jobs],
                        minlength=rows)
    del flushes[:]
    return steps


def _chained(problem, flushes):
    """One lone solve per piece: the reference for a row of pieces.

    Each piece's solve starts from the previous one's ``y_end``, on a
    grid of as many points as the row's grid has in the piece (2 at
    least), and the counters are summed.  Returns the mask of the row's
    grid points that a piece's grid shares (a piece's start but the
    first's excluded: the row samples it in the piece before), the
    pieces' samples there, the last y_end and the counters: accepted and
    rejected steps, and evaluations but the extra stages of dense output
    (3 per step with grid points, which the flushes of
    ``_spy_dense_output`` tell; the pieces' grids have other points than
    the row's).
    """
    pieces, t0, y0, points, tol = problem
    row = np.linspace(t0, pieces[-1][0], points)
    shared, samples = np.zeros(points, bool), np.empty((points, len(y0)))
    a, y, counts = t0, np.array(y0), [0, 0, 0]
    for b, (_, force) in pieces:
        inside = ((row >= a) if a == t0 else (row > a)) & (row <= b)
        del flushes[:]
        res = solve_one(_forced, a, b, y, max(2, np.count_nonzero(inside)),
                        tol=tol, args=(force,))
        res.n_rhs -= 3 * _dense_steps(flushes, 1)
        times, ys = _grid(res, 0, a, b), res.y
        if a != t0:
            times, ys = times[1:], ys[1:]
        common = inside & np.isin(row, times)
        samples[common] = ys[times.searchsorted(row[common])]
        shared |= common
        y = res.y_end[0]
        counts = [c + int(x[0]) for c, x in
                  zip(counts, (res.n_accepted, res.n_rejected, res.n_rhs))]
        a = b
    return shared, samples, y, counts


def _recorded(problems):
    """problems with row b's piece k reading constants (0, force, b, k),
    and a right-hand side that appends each row's call times to
    calls[b][k]; returns (problems, rhs, calls)."""
    calls = [[[] for _ in pieces] for pieces, *_ in problems]

    def rhs(t, Y, P):
        for t_b, (_, _, b, k) in zip(t.tolist(), P.tolist()):
            calls[int(b)][int(k)].append(t_b)
        return _per_row(_forced)(t, Y, P)

    marked = [([(end, (*p, b, k)) for k, (end, p) in enumerate(pieces)],
               *rest) for b, (pieces, *rest) in enumerate(problems)]
    return marked, rhs, calls


class TestPieces:
    def test_rows_equal_chained_lone_solves(self, monkeypatch):
        flushes = _spy_dense_output(monkeypatch)
        res = _solve_pieced(PIECED)
        res.n_rhs -= 3 * _dense_steps(flushes, len(PIECED))
        assert res.errors == [None] * len(PIECED)
        for b, problem in enumerate(PIECED):
            # the samples on grid points that the pieces' grids share:
            # the ends on grid points at least, and more where linspace's
            # points of a piece fall on the row's
            shared, y, y_end, counts = _chained(problem, flushes)
            assert np.count_nonzero(shared) >= 2
            assert np.array_equal(_ys(res, b)[shared], y[shared])
            assert np.array_equal(res.y_end[b], y_end)
            assert [res.n_accepted[b], res.n_rejected[b],
                    res.n_rhs[b]] == counts

    def test_each_piece_calls_only_its_own_rhs(self, monkeypatch):
        problems, rhs, calls = _recorded(PIECED)
        flushes = _spy_dense_output(monkeypatch)
        res = _solve_pieced(problems, rhs)
        dense = _dense_steps(flushes, len(PIECED))
        for b, ((pieces, t0, *_), rows) in enumerate(zip(PIECED, calls)):
            starts = [t0] + [end for end, _ in pieces]
            for k, times in enumerate(rows):
                # the stages at a piece's end, and the interpolant's of
                # its last step, read that piece's constants; the next
                # piece's are read there once, by the restart
                assert starts[k] <= min(times)
                assert max(times) == starts[k + 1]
                assert times[0] == starts[k]
                assert k == 0 or times.count(starts[k]) == 1
            attempted = res.n_accepted[b] + res.n_rejected[b]
            assert res.n_rhs[b] == sum(map(len, rows)) \
                == 2 * len(pieces) + 12 * attempted + 3 * dense[b]

    @pytest.mark.parametrize("pieces, match", [
        ([], "rise strictly"),
        (_pieces([1.0, 1.0]), "rise strictly"),
        (_pieces([2.0, 1.0]), "rise strictly"),
        (_pieces([0.0, 1.0]), "rise strictly"),
        (_pieces([-1.0, 1.0]), "rise strictly"),
    ])
    def test_invalid_pieces_rejected(self, pieces, match):
        with pytest.raises(ValueError, match=match):
            solve(_per_row(_forced), [pieces], [0.0], np.array([[1.0, 0.0]]),
                  [2], [1e-8])

    def test_one_piece_sequence_per_row_required(self):
        with pytest.raises(ValueError, match="one entry per row"):
            solve(_per_row(_forced), [_pieces([1.0]), _pieces([1.0])], [0.0],
                  np.array([[1.0, 0.0]]), [2], [1e-8])


# ---------------------------------------------------------------------------
# the exponential method: a constant linear part L on the complex pairs
# of y = (Re z0, Im z0, w, Re z1, Im z1)
# ---------------------------------------------------------------------------
def _exponential_rows(**kwargs):
    """Four rows of the exponential method with host poles from 10 to
    1e4 and from 7 grid points to 300, and their solve."""
    Ls = [np.array([[-0.5, -2.0j], [-1.5, -f + 4.0j * f]])
          for f in (10.0, 300.0, 1e4)]
    rows = [(_coupled, L, [(1.0, (0.8, 0.1)), (2.5, (0.0, 0.3))],
             [0.3, 0.1, -0.5, 0.05, -0.02], k, tol)
            for L, k, tol in zip(Ls, (7, 40, 300), (1e-6, 1e-9, 1e-8))]
    rows.append((_constant_forcing, Ls[1], [(3.0, (0.6, -0.2))],
                 [0.2, -0.1, 0.4, 0.05, 0.3], 2, 1e-10))
    res = solve(_per_row(_coupled, _constant_forcing),
                [[(end, (int(f is _constant_forcing), *ab,
                         *np.asarray(L).ravel().view(float)))
                  for end, ab in pieces]
                 for f, L, pieces, *_ in rows],
                [0.0] * 4, np.array([r[3] for r in rows]),
                [r[4] for r in rows], [r[5] for r in rows],
                linear=[r[1] for r in rows],
                **kwargs)
    return rows, res


def _phi_reference(k, M):
    """phi_k(M) as a block of the exponential of [[M, I, 0, ...], [0, 0,
    I, ...], ...] (Al-Mohy & Higham), by scipy's expm."""
    from scipy.linalg import expm
    m = len(M)
    A = np.zeros(((k + 1) * m,) * 2, complex)
    A[:m, :m] = M
    for j in range(k):
        A[j * m:(j + 1) * m, (j + 1) * m:(j + 2) * m] = np.eye(m)
    return expm(A)[:m, k * m:(k + 1) * m]


def _pairs(y):
    return y[..., 0] + 1j * y[..., 1], y[..., 3] + 1j * y[..., 4]


def _constant_forcing(t, y, p):
    """y' = L y + N with N = (p0, p1, 0.3) on (z0, w, z1): the rhs of the
    whole state, L y included (L is p[2:])."""
    L = np.array(p[2:10]).view(complex).reshape(2, 2)
    z = L @ np.array(_pairs(y))
    c = complex(p[0], p[1])
    return np.array([z[0].real + c.real, z[0].imag + c.imag, 0.3,
                     z[1].real, z[1].imag])


def _coupled(t, y, p):
    """A nonlinear 5-component system whose pair part is L y plus
    products with w (like model B): the rhs, L y included."""
    L = np.array(p[2:10]).view(complex).reshape(2, 2)
    z0, z1 = _pairs(y)
    w = y[2]
    lin = L @ np.array([z0, z1])
    dz0 = lin[0] + 0.7 * (w + 1.0) * z1 + complex(p[0], p[1]) * w
    dz1 = lin[1] - 0.3 * complex(p[0], p[1])
    dw = -(w + 1.0) - 2.0 * (complex(p[0], p[1]) * z0.conjugate()).real
    return np.array([dz0.real, dz0.imag, dw, dz1.real, dz1.imag])


def _solve_exp(f, L, pieces, y0, points, tol):
    """One row of f with linear part L, sampled at points evenly spaced
    points; pieces are (end, (a, b)) with the drive a + ib."""
    consts = tuple(np.asarray(L, complex).ravel().view(float))
    return solve(_per_row(f), [[(end, (0, *ab, *consts))
                                for end, ab in pieces]], [0.0],
                 np.array([y0], dtype=float), [points], [tol],
                 linear=[L])


class TestExponential:
    @pytest.mark.parametrize("a, b", [
        (0.3 - 0.2j, -1.1 + 0.4j),      # series
        (0.5 + 0.5j, 0.5 + 0.5j),       # series, equal
        (-0.4, -0.4 + 1e-9j),           # series, nearly equal
        (-0.7 + 0.1j, -3.0 + 25.0j),    # far: series and direct
        (-0.2, -5.0 + 1.0j),            # far: contour
        (-4.0 + 3.0j, -4.1 + 3.2j),     # near: contour
        (-30.0 + 40.0j, -30.0 + 40.0j),  # equal, large
        (1.5 + 6.0j, 1.5 + 6.0j + 1e-7),  # near, growing
    ])
    def test_phis_match_the_matrix_exponential(self, a, b):
        # phi_k of [[a, 1], [0, b]] is [[phi_k(a), phi_k[a, b]], [0,
        # phi_k(b)]]: the values and divided differences Putzer's form
        # is built from
        value, divided = exponential._phis(np.array([a]), np.array([b]))
        # expm loses digits on a nearly defective matrix; phi_k[a, b] is
        # phi_k'((a + b)/2) + O((a - b)^2) there
        mu = 0.5 * (a + b)
        T = np.array([[a, 1.0], [0.0, b]] if abs(a - b) > 1e-6
                     else [[mu, 1.0], [0.0, mu]])
        for k in range(5):
            ref = _phi_reference(k, np.array([[a]]))[0, 0]
            assert abs(value[k, 0] - ref) <= 1e-13 * abs(ref)
            ref = _phi_reference(k, T)[0, 1]
            assert abs(divided[k, 0] - ref) <= 1e-12 * abs(ref)

    def test_phis_have_the_same_bits_in_any_array(self):
        # values and divided differences by series, contour and
        # recurrence, in one array of 6000 entries (past the 256 kB at
        # which numpy reuses a temporary operand as a product's output,
        # with the operands swapped) against slices of 7: an entry's
        # bits do not depend on the array that holds it, so the
        # exponential method's samples do not depend on their slice
        rng = np.random.default_rng(11)
        n = 6000
        a = rng.choice([0.3, 1.5, 3.0, 12.0], n) * rng.uniform(0.2, 1.0, n) \
            * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n))
        b = a + rng.choice([0.0, 1e-9, 0.01, 0.3, 2.0], n) \
            * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n))
        value, divided = exponential._phis(a, b)
        for lo in range(0, n, 7):
            v, d = exponential._phis(a[lo:lo + 7], b[lo:lo + 7])
            assert np.array_equal(_bits(v), _bits(value[:, lo:lo + 7]))
            assert np.array_equal(_bits(d), _bits(divided[:, lo:lo + 7]))

    @pytest.mark.parametrize("fast", [1e2, 1e4, 1e6])
    def test_constant_forcing_is_integrated_exactly(self, fast):
        # with N constant every stage agrees, and y(t) = e^{tL} y0 +
        # t phi_1(tL) N: few steps, however stiff L is
        L = np.array([[-1.0 + 2.0j, 0.5], [3.0j, -fast + 10.0j * fast]])
        y0 = [0.2, -0.1, 0.4, 0.05, 0.3]
        res = _solve_exp(_constant_forcing, L, [(5.0, (0.6, -0.2))], y0,
                         11, 1e-8)
        assert res.errors == [None]
        assert res.n_accepted[0] <= 15
        # e^{tL} from L's eigenvectors (far apart, so well conditioned;
        # expm loses digits at |tL| ~ 1e7)
        lam, V = np.linalg.eig(L)
        z0 = np.array(_pairs(np.array(y0)))
        for t, y in zip(_grid(res, 0, 0.0, 5.0), res.y):
            E = V @ np.diag(np.exp(t * lam)) @ np.linalg.inv(V)
            want = E @ z0 + np.linalg.solve(L, (E - np.eye(2))
                                            @ [0.6 - 0.2j, 0.0])
            assert_allclose(_pairs(y), want, rtol=0, atol=1e-12)
            assert y[2] == pytest.approx(0.4 + 0.3 * t, abs=1e-12)

    def test_jordan_block_linear_part(self):
        # coinciding eigenvalues and one eigenvector: Putzer's form
        # needs none, so the solution is still exact
        L = np.array([[-1.0 + 2.0j, 1.0], [0.0, -1.0 + 2.0j]])
        y0 = [0.2, -0.1, 0.0, 0.05, 0.3]
        res = _solve_exp(_constant_forcing, L, [(4.0, (0.0, 0.0))], y0,
                         9, 1e-10)
        z0 = np.array(_pairs(np.array(y0)))
        for t, y in zip(_grid(res, 0, 0.0, 4.0), res.y):
            assert_allclose(_pairs(y), _phi_reference(0, t * L) @ z0,
                            rtol=0, atol=1e-13)

    @pytest.mark.parametrize("fast", [10.0, 1e3])
    def test_matches_a_tight_reference(self, fast):
        # Dormand-Prince at tol 1e-12 as the reference, over three pieces
        L = np.array([[-0.5 + 0.3j, -2.0j], [-1.5, -fast + 4.0j * fast]])
        y0 = [0.3, 0.1, -0.5, 0.05, -0.02]
        pieces = [(1.0, (0.8, 0.1)), (2.0, (0.0, 0.0)), (3.0, (-0.5, 0.4))]
        res = _solve_exp(_coupled, L, pieces, y0, 301, 1e-9)
        consts = tuple(L.ravel().view(float))
        ref = solve(_per_row(_coupled), [[(end, (0, *ab, *consts))
                                          for end, ab in pieces]], [0.0],
                    np.array([y0]), [301], [1e-12])
        assert res.errors == ref.errors == [None]
        assert np.max(np.abs(res.y - ref.y)) <= 100 * 1e-9

    def test_dense_output_is_of_order_4(self):
        # one step from the same state with h and h/2, sampled at its
        # middle: the local error falls by 2^5 = 32 (an order-3
        # extension of the step's own weights falls by 16)
        L = np.array([[-0.5 + 0.3j, -2.0j], [-1.5, -3.0 + 10.0j]])
        consts = (0, 0.8, 0.1, *L.ravel().view(float))
        y0 = np.array([[0.3, 0.1, -0.5, 0.05, -0.02]])
        errors = []
        for h in (0.1, 0.05):
            method = exponential.Exponential(_per_row(_coupled),
                                             len(consts))
            P = np.concatenate(
                [[consts], method.constants(L[None], np.array([h]))], axis=1)
            K = np.zeros((1, method.stages, 5))
            K[:, 0] = method.nonlinear(np.zeros(1), y0, P)
            method.attempt(np.zeros(1), np.array([h]), y0, K, P,
                           np.array([[1e-9]]), np.zeros(1))
            # the middle point of a 3-point grid on [0, h]
            out = np.zeros((3, 5))
            grid = (0.0, 0.5 * h, 2, h)
            method.dense_output(ode._Jobs([0.0], [h], [1], [2], [0]),
                                y0, K, P, ode._Grids(np.array([0, 3]),
                                                     np.array([grid]),
                                                     np.arange(3.0)),
                                out, None)
            ref = solve(_per_row(_coupled), [[(0.5 * h, consts)]], [0.0],
                        y0, [2], [1e-13])
            errors.append(np.max(np.abs(out[1] - ref.y[-1])))
        assert errors[0] / errors[1] >= 24.0

    @CONTROLLERS
    def test_rows_match_lone_runs_bitwise(self, monkeypatch, batch_rows,
                                          lone_rows):
        _controllers(monkeypatch, batch_rows)
        rows, res = _exponential_rows()
        _controllers(monkeypatch, lone_rows)
        for b, (f, L, pieces, y0, points, tol) in enumerate(rows):
            lone = _solve_exp(f, L, pieces, y0, points, tol)
            assert np.array_equal(_ys(res, b), lone.y)
            assert np.array_equal(res.y_end[b], lone.y_end[0])
            for name in ("n_accepted", "n_rejected", "n_rhs"):
                assert getattr(res, name)[b] == getattr(lone, name)[0]

    def test_passes_of_some_jobs_match_lone_runs_bitwise(self, monkeypatch):
        # the rows of 7 and 2 points hold no grid point in most passes:
        # each pass copies its jobs' rows, a flush writes the jobs of
        # several passes, and every row keeps its lone run's bits
        method, flushes = exponential.Exponential, []
        dense_output = method.dense_output

        def spy_dense_output(self, jobs, *args):
            flushes.append(list(jobs.index))
            return dense_output(self, jobs, *args)

        monkeypatch.setattr(method, "dense_output", spy_dense_output)
        problems, res = _exponential_rows()
        assert any(len(rows) > len(set(rows)) > 1 for rows in flushes)
        for b, (f, L, pieces, y0, points, tol) in enumerate(problems):
            lone = _solve_exp(f, L, pieces, y0, points, tol)
            assert np.array_equal(_ys(res, b), lone.y)
            assert np.array_equal(res.y_end[b], lone.y_end[0])

    @pytest.mark.parametrize("keep", [[2], [3, 4, 0]])
    def test_kept_columns_and_measure(self, keep):
        _assert_kept(_exponential_rows(columns=keep, measure=_squares)[1],
                     _exponential_rows()[1], keep)

    def test_rhs_eval_accounting(self):
        # two evaluations per piece (f at its start and the starting-step
        # probe), then seven per attempted step: four stages, N at the
        # new state and N at t + h/3 and t + 2h/3
        sizes = []

        def counted(t, Y, P):
            sizes.append(len(Y))
            return _per_row(_coupled)(t, Y, P)

        L = np.array([[-0.5, -2.0j], [-1.5, -300.0 + 1200.0j]])
        consts = tuple(L.ravel().view(float))
        res = solve(counted, [[(1.0, (0, 0.8, 0.1, *consts)),
                               (2.0, (0, 0.0, 0.0, *consts))]], [0.0],
                    np.array([[0.3, 0.1, -0.5, 0.05, -0.02]]),
                    [50], [1e-9],
                    linear=[L])
        attempted = res.n_accepted[0] + res.n_rejected[0]
        assert res.n_rhs[0] == 2 * 2 + 7 * attempted == sum(sizes)

    def test_long_row_that_goes_nonfinite_names_it(self):
        # 200 pieces of 1/400, a step or more each, put the row under
        # error per unit step before f goes NaN at t = 0.5; the steps
        # that close in on it stay at the estimate's rounding floor,
        # which max_scale keeps acceptable, so the row still fails on
        # the NaN
        L = np.array([[-0.5 + 0.3j, -2.0j], [-1.5, -30.0 + 120.0j]])
        consts = tuple(L.ravel().view(float))
        f = _per_row(_coupled)

        def poisoned(t, Y, P):
            out = f(t, Y, P)
            out[np.asarray(t) >= 0.5] = math.nan
            return out

        res = solve(poisoned, [[(k / 400, (0, 0.8, 0.1, *consts))
                                for k in range(1, 401)]], [0.0],
                    np.array([[0.3, 0.1, -0.5, 0.05, -0.02]]),
                    [11], [1e-9], linear=[L])
        assert res.n_accepted[0] > exponential.Exponential.span_steps
        assert isinstance(res.errors[0], NonFiniteRhsError)
        assert "went non-finite" in str(res.errors[0])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_tiny_step_raises_no_overflow_warning(self):
        # a first piece of 1e-310 bounds the first step by it: the unit
        # step 0.02 over that h overflows, for a row that does not scale
        # its estimate (it has taken no step yet), and no warning may
        # reach the caller; the row runs on to its end
        L = np.array([[-0.5 + 0.3j, -2.0j], [-1.5, -30.0 + 120.0j]])
        pieces = [(1e-310, (0.8, 0.1)), (2.0, (0.8, 0.1))]
        res = _solve_exp(_coupled, L, pieces, [0.3, 0.1, -0.5, 0.05, -0.02],
                         21, 1e-9)
        assert res.errors == [None]
        assert np.isfinite(res.y).all()
        assert 0.02 / 1e-310 == math.inf

    @pytest.mark.parametrize("L, n, match", [
        (np.zeros((2, 2, 2)), 5, "2x2"),
        (np.full((1, 2, 2), np.nan), 5, "finite"),
        # the method's state layout is (Re z0, Im z0, w, Re z1, Im z1)
        (np.zeros((1, 2, 2)), 7, "states of 5 components"),
    ])
    def test_invalid_linear_part_rejected(self, L, n, match):
        with pytest.raises(ValueError, match=match):
            solve(_per_row(_constant_forcing),
                  [[(1.0, (0, 0.0, 0.0, *[0.0] * 8))]],
                  [0.0], np.zeros((1, n)), [2], [1e-8], linear=L)
