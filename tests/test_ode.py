"""Tests for the embedded Dormand-Prince 5(4) integrator: accuracy against
analytic solutions, convergence order, dense output, statistics, error
paths, lockstep batches that reproduce each row's lone run bit for bit
(dense output stacked over the rows included), the bit equalities that
stacking relies on, and rows of pieces that reproduce one run per
piece."""

import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import solve_ivp

from lfbloch import ode
from lfbloch.ode import (
    DENSE_ROWS,
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


def solve_one(f, t0, t_end, y0, t_eval, rtol, atol, args=(), **kwargs):
    """f(t, y, args) as a batch of one; raises the row's failure."""
    res = solve(_per_row(f), [[(t_end, (0, *args))]], [t0],
                np.array([y0], dtype=float), [t_eval], [rtol], [atol],
                **kwargs)
    if res.errors[0] is not None:
        raise res.errors[0]
    return res


def _decay(t, y, p):
    return -2.0 * y


def _harmonic(t, y, p):
    return np.array([y[1], -y[0]])


def _blowup(t, y, p):
    return y * y


def _rigid_body(t, y, p):
    # Euler equations of a free rigid body; smooth and non-chaotic.
    return np.array([y[1] * y[2], -y[0] * y[2], -0.51 * y[0] * y[1]])


def _scipy(f):
    """f as a right-hand side for scipy's solve_ivp."""
    return lambda t, y: f(t, y, ())


class TestAccuracy:
    def test_exponential_decay_endpoint(self):
        grid = np.linspace(0.0, 3.0, 7)
        res = solve_one(_decay, 0.0, 3.0, np.array([1.0]), grid,
                        rtol=1e-10, atol=1e-10)
        assert_allclose(res.y[:, 0], np.exp(-2.0 * grid), rtol=1e-8,
                        atol=1e-12)

    def test_harmonic_many_periods(self):
        t_end = 20.0 * math.pi
        grid = np.array([0.0, t_end])
        res = solve_one(_harmonic, 0.0, t_end, np.array([1.0, 0.0]), grid,
                        rtol=1e-10, atol=1e-10)
        assert_allclose(res.y[-1], [1.0, 0.0], atol=5e-8)

    def test_dense_output_between_steps(self):
        # a fine grid forces interpolation inside accepted steps
        grid = np.linspace(0.0, 2.0 * math.pi, 1001)
        res = solve_one(_harmonic, 0.0, 2.0 * math.pi, np.array([0.0, 1.0]),
                        grid, rtol=1e-10, atol=1e-10)
        assert res.n_accepted[0] < 300  # interpolation actually exercised
        assert_allclose(res.y[:, 0], np.sin(grid), atol=1e-8)

    def test_cross_check_against_scipy(self):
        y0 = np.array([1.0, 0.0, 0.9])
        grid = np.linspace(0.0, 12.0, 13)
        mine = solve_one(_rigid_body, 0.0, 12.0, y0, grid, rtol=1e-11,
                         atol=1e-11)
        ref = solve_ivp(_scipy(_rigid_body), (0.0, 12.0), y0, method="DOP853",
                        t_eval=grid, rtol=1e-12, atol=1e-12)
        assert_allclose(mine.y, ref.y.T, atol=1e-9)


class TestOrder:
    def test_fifth_order_convergence(self):
        """With error control disabled (huge tolerances) and max_step fixed,
        halving the step divides the endpoint error by about 2**5."""
        t_end = 2.0 * math.pi
        errors = []
        for n in (64, 128):
            h = t_end / n
            res = solve_one(_harmonic, 0.0, t_end, np.array([1.0, 0.0]),
                            np.array([0.0, t_end]), rtol=1.0, atol=1.0,
                            max_step=h)
            errors.append(abs(res.y[-1, 0] - 1.0) + abs(res.y[-1, 1]))
        ratio = errors[0] / errors[1]
        assert 20.0 < ratio < 50.0


class TestStatistics:
    def test_rhs_eval_accounting(self):
        grid = np.linspace(0.0, 3.0, 4)
        res = solve_one(_decay, 0.0, 3.0, np.array([1.0]), grid,
                        rtol=1e-8, atol=1e-8)
        # two startup evaluations (f(t0) + starting-step probe), then six
        # per attempted step thanks to the FSAL pair
        assert res.n_rhs[0] == 2 + 6 * (res.n_accepted[0]
                                        + res.n_rejected[0])
        assert res.n_accepted[0] > 0
        assert res.n_rejected[0] >= 0

    def test_stability_limit_causes_rejections(self):
        # fast linear relaxation at loose tolerance: the controller keeps
        # bouncing off the explicit stability boundary
        def relax(t, y, p):
            return np.array([200.0 * (math.cos(t) - y[0])])

        res = solve_one(relax, 0.0, 3.0, np.array([0.0]), np.array([0.0, 3.0]),
                        rtol=1e-3, atol=1e-9)
        assert res.n_rejected[0] > 0
        lam = 200.0
        exact = (lam * lam * math.cos(3.0) + lam * math.sin(3.0)) / (lam * lam + 1.0)
        assert_allclose(res.y[-1, 0], exact, atol=1e-3)

    def test_tighter_tolerance_smaller_error(self):
        grid = np.array([0.0, 3.0])
        exact = math.exp(-6.0)
        errs = []
        for tol in (1e-5, 1e-10):
            res = solve_one(_decay, 0.0, 3.0, np.array([1.0]), grid,
                            rtol=tol, atol=tol)
            errs.append(abs(res.y[-1, 0] - exact))
        assert errs[1] < errs[0]


class TestDeterminism:
    def test_identical_runs_bitwise_equal(self):
        grid = np.linspace(0.0, 10.0, 101)
        runs = [
            solve_one(_harmonic, 0.0, 10.0, np.array([1.0, 0.0]), grid,
                      rtol=1e-9, atol=1e-9)
            for _ in range(2)
        ]
        assert np.array_equal(runs[0].y, runs[1].y)
        assert runs[0].n_rhs[0] == runs[1].n_rhs[0]


class TestErrors:
    def test_step_underflow_on_blowup(self):
        # solution 1/(1-t) diverges at t = 1; the controller must give up
        with pytest.raises(StepSizeUnderflowError, match="tol") as info:
            solve_one(_blowup, 0.0, 2.0, np.array([1.0]), np.array([0.0, 2.0]),
                      rtol=1e-10, atol=1e-10)
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
            solve_one(turns_nan, 0.0, 1.0, np.array([1.0]),
                      np.linspace(0.0, 1.0, 11), rtol=1e-8, atol=1e-8)
        t_fail = float(re.search(r"at t = (\S+) ", str(info.value)).group(1))
        assert t_fail <= 0.5
        assert "stiff" not in str(info.value)

    def test_nonfinite_state_is_rejected_not_accepted(self):
        # y' = 1e308 overflows y near t = 0.7977 while f stays finite; an
        # inf state made the error scale inf and the estimate 0, so the
        # step used to be accepted and the row ended without an error,
        # with y_end inf and NaN samples
        def huge(t, y, p):
            return np.array([1e308])

        grid = np.linspace(0.0, 2.0, 5)
        with np.errstate(over="ignore", invalid="ignore"):
            res = solve(_per_row(huge, _decay), [[(2.0, (0,))], [(2.0, (1,))]],
                        [0.0, 0.0], np.array([[1e308], [1.0]]), [grid, grid],
                        [1e-6, 1e-6], [1e-9, 1e-9])
        assert isinstance(res.errors[0], NonFiniteRhsError)
        t_fail = float(re.search(r"at t = (\S+) ",
                                 str(res.errors[0])).group(1))
        assert 0.79 < t_fail < 0.8
        assert np.isnan(res.row(0)[1][2:]).all()
        assert res.errors[1] is None
        for b, error in enumerate(res.errors):
            if error is None:
                assert np.isfinite(res.row(b)[1]).all()
                assert np.isfinite(res.y_end[b]).all()

    def test_dense_output_survives_an_overflow_on_the_way(self):
        # the Shampine coefficients exceed 1, so with stages of 1e308 the
        # interpolant's products overflow although every sample is
        # finite; they used to come out NaN on a row with no error
        def huge(t, y, p):
            return np.array([1e308])

        grid = np.linspace(0.0, 1.0, 5)
        with np.errstate(over="ignore", invalid="ignore"):
            res = solve_one(huge, 0.0, 1.0, np.array([-1e308]), grid,
                            rtol=1e-6, atol=1e-9)
        assert_allclose(res.y[:, 0], -1e308 + 1e308 * grid, rtol=1e-12,
                        atol=1e294)
        assert np.isfinite(res.y_end).all()

    @pytest.mark.parametrize("span", [3.0, 6.0])
    def test_overflowing_dense_output_fails_the_row(self, span):
        # y = y0 + A sin t peaks one part in 1e9 below the largest float;
        # at this tolerance the quartic interpolant overshoots it
        # between two finite states, so the samples near the peak are
        # inf: the row stops there with NaN samples from the step on
        # (on the span of 3 that step is the last, on 6 it is not)
        (f, _, _, y0, _, tol) = PEAK
        peak = (f, 0.0, span, y0, np.linspace(0.0, span, 3001), tol)
        with np.errstate(over="ignore"):
            res = _solve_batch([peak, BATCH[3]])
        assert isinstance(res.errors[0], NonFiniteRhsError)
        assert "dense output went non-finite" in str(res.errors[0])
        t_fail = float(re.search(r"at t = (\S+) ",
                                 str(res.errors[0])).group(1))
        t, y = res.row(0)
        assert t_fail < math.pi / 2
        assert np.isnan(y[t > t_fail]).all()
        assert np.isfinite(y[t <= t_fail]).all()
        assert np.isnan(res.y_end[0]).all()
        assert res.errors[1] is None
        _assert_row_equal(res, 1, _lone(BATCH[3]))

    @pytest.mark.parametrize("y0", [0.0, 1.0])
    def test_huge_derivative_fails_where_the_state_overflows(self, y0):
        # f0/scale overflowed d1 to inf, so the starting step came out 0
        # (y0 = 0: "too stiff" at t = 0) or divided by 0 (y0 = 1:
        # ZeroDivisionError); y = y0 + 1e308 t overflows at t = 1.797
        def huge(t, y, p):
            return np.array([1e308])

        with pytest.raises(NonFiniteRhsError,
                           match="the state went non-finite") as info, \
                np.errstate(over="ignore", invalid="ignore"):
            solve_one(huge, 0.0, 10.0, np.array([y0]),
                      np.linspace(0.0, 10.0, 5), rtol=1e-6, atol=1e-9)
        t_fail = float(re.search(r"at t = (\S+) ", str(info.value)).group(1))
        assert 1.79 < t_fail < 1.8

    @pytest.mark.parametrize("f, pieces, y0, culprit", [
        # only the state overflows
        (lambda t, y, p: np.array([1e308]), [(2.0, 0.0)], 1e308,
         "the state"),
        # the state is infinite from the start
        (lambda t, y, p: np.array([1.0]), [(1.0, 0.0)], math.inf,
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
                        [0.0], np.array([[y0]]),
                        [np.array([0.0, pieces[-1][0]])], [1e-6], [1e-9])
        assert isinstance(res.errors[0], NonFiniteRhsError)
        assert f"{culprit} went non-finite" in str(res.errors[0])

    def test_tiny_first_segment_starts_with_its_length(self):
        # on a segment of 2.2e-308, (f1 - f0)/h0 overflows; the start
        # step used to become 0 and fail as "too stiff"
        t_end = 2.2250738585072014e-308

        def jumps(t, y, p):
            return np.array([1.0 if t >= t_end else 0.0])

        y0 = np.array([0.0])
        h = _initial_step(_per_row(jumps), 0.0, y0, np.array([0.0]),
                          jumps(0.0, y0, ()), t_end, 1e-6, 1e-6, math.inf)
        assert h == t_end
        res = solve_one(jumps, 0.0, t_end, y0, np.array([0.0, t_end]),
                        rtol=1e-6, atol=1e-6)
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
            solve_one(jumps, 0.5, t_end, np.array([0.0]), np.array([t_end]),
                      rtol=1e-12, atol=1e-12)

    def test_grid_outside_span_rejected(self):
        with pytest.raises(ValueError):
            solve_one(_decay, 0.0, 1.0, np.array([1.0]), np.array([0.0, 2.0]),
                      rtol=1e-8, atol=1e-8)

    @pytest.mark.parametrize("grid", [[0.0, math.nan, 1.0], [math.nan],
                                      [0.0, math.inf], [-math.inf, 0.5]])
    def test_nonfinite_grid_rejected(self, grid):
        # NaN compares false, so it passed the ordering and span checks
        # and came back as samples [1, nan, nan] with no error
        with pytest.raises(ValueError, match="finite"):
            solve_one(_decay, 0.0, 1.0, np.array([1.0]), np.array(grid),
                      rtol=1e-8, atol=1e-8)

    @pytest.mark.parametrize("bad", [math.nan, 0.0, -1.0, math.inf,
                                     -math.inf])
    @pytest.mark.parametrize("which", ["rtol", "atol"])
    def test_tolerance_must_be_positive_and_finite(self, bad, which):
        # a NaN or zero tolerance used to fail as NonFiniteRhsError and a
        # negative one to integrate silently
        tols = {"rtol": 1e-8, "atol": 1e-8, which: bad}
        with pytest.raises(ValueError, match="positive and finite"):
            solve_one(_decay, 0.0, 1.0, np.array([1.0]),
                      np.array([0.0, 1.0]), **tols)

    def test_non_increasing_grid_rejected(self):
        with pytest.raises(ValueError):
            solve_one(_decay, 0.0, 1.0, np.array([1.0]),
                      np.array([0.0, 0.5, 0.5]), rtol=1e-8, atol=1e-8)

    def test_reversed_span_rejected(self):
        with pytest.raises(ValueError):
            solve_one(_decay, 1.0, 0.0, np.array([1.0]), np.array([1.0]),
                      rtol=1e-8, atol=1e-8)

    def test_returns_result_type(self):
        res = solve_one(_decay, 0.0, 1.0, np.array([1.0]),
                        np.array([0.0, 1.0]), rtol=1e-8, atol=1e-8)
        assert isinstance(res, OdeResult)
        assert res.y.shape == (2, 1)


def _linear(t, y, p):
    rate = p[0]
    return np.array([-rate * y[0] + y[1], -y[0] - rate * y[1],
                     -2.0 * rate * y[2]])


def _turns_nan(t, y, p):
    return np.full_like(y, math.nan) if t > 0.5 else -y


# ((f, parameter), t0, t_end, y0, grid, tol): spans, tolerances and grid
# lengths differ; the stiff linear row at loose tolerance rejects steps
BATCH = [
    ((_rigid_body, 0.0), 0.0, 12.0, [1.0, 0.0, 0.9],
     np.linspace(0.0, 12.0, 13), 1e-11),
    ((_linear, 0.5), 0.5, 4.0, [0.2, -0.1, 1.0], np.linspace(0.5, 4.0, 801),
     1e-8),
    ((_linear, 200.0), 0.0, 1.0, [1.0, 0.0, 1.0], np.array([0.25, 1.0]),
     1e-3),
    ((_rigid_body, 0.0), 1.0, 2.5, [0.0, 1.0, 0.2],
     np.linspace(1.5, 2.5, 7), 1e-6),
]
FAILING = [
    ((_blowup, 0.0), 0.0, 2.0, [1.0, 1.0, 1.0], np.array([0.0, 2.0]), 1e-10),
    ((_turns_nan, 0.0), 0.0, 1.0, [1.0, 1.0, 1.0],
     np.linspace(0.0, 1.0, 11), 1e-8),
]

_TOP = np.finfo(float).max


def _peak(t, y, p):
    return np.array([1e307 * math.cos(t), 0.0, 0.0])


# dense output overflows near t = pi/2 (see
# test_overflowing_dense_output_fails_the_row)
PEAK = ((_peak, 0.0), 0.0, 6.0, [_TOP - 1e307 * (1.0 + 1e-9), 0.0, 0.0],
        np.linspace(0.0, 6.0, 3001), 1e-2)


def _solve_batch(problems, rhs=None):
    """One solve of the problems; P rows are (function index, parameter)."""
    fs, t0, t_end, y0, grids, tols = zip(*problems)
    functions = list(dict.fromkeys(f for f, _ in fs))
    pieces = [[(b, (functions.index(f), a))] for (f, a), b in zip(fs, t_end)]
    return solve(rhs or _per_row(*functions), pieces, t0, np.array(y0),
                 grids, tols, tols)


def _lone(problem):
    return _solve_batch([problem])


def _assert_row_equal(batch, b, lone):
    t, y = batch.row(b)
    assert np.array_equal(t, lone.t)
    assert np.array_equal(y, lone.y, equal_nan=True)
    assert np.array_equal(batch.y_end[b], lone.y_end[0], equal_nan=True)
    assert batch.n_accepted[b] == lone.n_accepted[0]
    assert batch.n_rejected[b] == lone.n_rejected[0]
    assert batch.n_rhs[b] == lone.n_rhs[0]


class TestBatch:
    def test_rows_match_lone_runs_bitwise(self):
        res = _solve_batch(BATCH)
        assert res.t.size == sum(p[4].size for p in BATCH)
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
                solve_one(f, *problem, rtol=tol, atol=tol, args=(a,))
            assert type(res.errors[b]) is type(lone.value)
            assert str(res.errors[b]) == str(lone.value)
            assert np.all(np.isnan(res.y_end[b]))
            assert np.isnan(res.row(b)[1][-1]).all()
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
        assert np.size(res.t) == int(res.offsets[-1])

    def test_one_rhs_call_per_stage(self):
        # the stages of all rows are one call each; only the start-step
        # probes call the right-hand side on one row
        sizes = []

        def counted(t, Y, P):
            sizes.append(len(Y))
            return _per_row(_rigid_body, _linear)(t, Y, P)

        res = _solve_batch(BATCH, rhs=counted)
        attempted = res.n_accepted + res.n_rejected
        assert sizes[:1 + len(BATCH)] == [len(BATCH)] + [1] * len(BATCH)
        assert len(sizes) == 1 + len(BATCH) + 6 * int(np.max(attempted))
        assert sum(sizes) == int(np.sum(res.n_rhs))

    def test_y0_must_be_two_dimensional(self):
        with pytest.raises(ValueError, match="shape"):
            solve(_per_row(_decay), [[(1.0, (0,))]], [0.0], np.array([1.0]),
                  [np.array([0.0, 1.0])], [1e-8], [1e-8])

    def test_one_entry_per_row_required(self):
        with pytest.raises(ValueError, match="one entry per row"):
            solve(_per_row(_decay), [[(1.0, (0,))]], [0.0, 0.0],
                  np.array([[1.0]]), [np.array([0.0, 1.0])], [1e-8], [1e-8])

    def test_pieces_need_equal_numbers_of_constants(self):
        with pytest.raises(ValueError, match="number of constants"):
            solve(_per_row(_decay), [[(0.5, (0,)), (1.0, (0, 1.0))]], [0.0],
                  np.array([[1.0]]), [np.array([0.0, 1.0])], [1e-8], [1e-8])


def _one_piece(problem):
    (f, a), t0, t_end, y0, grid, tol = problem
    return [(t_end, f, a)], t0, y0, grid, tol


_SPARSE = np.array([0.5, 2.0, 5.5, 8.0])
# (pieces [(end, f, parameter), ...], t0, y0, grid, tol): 18 rows, so
# that most passes stack their dense output.  The sparse grids get at
# most one sample per step, the others several; the _linear rows of
# several pieces change their rate at each end (a restart); the
# rate-200 rows reject steps; three rows fail
STACKED = [_one_piece(p) for p in BATCH + FAILING + [PEAK]] + [
    ([(8.0, _rigid_body, 0.0)], 0.0, [1.0, 0.0, 0.9],
     np.linspace(0.0, 8.0, 801), tol)
    for tol in (1e-6, 1e-10)
] + [
    ([(8.0, _rigid_body, 0.0)], 0.0, [0.3, 1.0, -0.2], _SPARSE, tol)
    for tol in (1e-8, 1e-11)
] + [
    ([(1.0, _linear, 0.5), (2.5, _linear, 2.0), (8.0, _linear, 1.0)], 0.0,
     [0.2, -0.1, 1.0], np.linspace(0.0, 8.0, 401), 1e-9),
    ([(0.7, _linear, 1.0), (3.0, _linear, 0.1), (8.0, _linear, 3.0)], 0.0,
     [1.0, 1.0, -1.0], _SPARSE, 1e-10),
    ([(2.0, _linear, 3.0), (8.0, _linear, 200.0)], 0.0, [1.0, 0.5, 0.3],
     np.linspace(0.0, 8.0, 161), 1e-4),
    ([(8.0, _linear, 200.0)], 0.0, [0.0, 1.0, 1.0], _SPARSE, 1e-3),
    ([(8.0, _linear, 0.05)], 0.0, [0.0, 1.0, 1.0],
     np.linspace(0.0, 8.0, 3), 1e-12),
    ([(5.0, _linear, 0.8)], 0.5, [0.7, 0.0, -0.4],
     np.linspace(0.5, 5.0, 1000), 1e-7),
    ([(6.0, _rigid_body, 0.0)], 2.0, [0.0, 1.0, 0.2], np.array([6.0]),
     1e-9),
]


def _solve_rows(problems):
    """One solve of rows of pieces; P rows are (function index,
    parameter)."""
    pieces, t0, y0, grids, tols = zip(*problems)
    functions = list(dict.fromkeys(f for row in pieces for _, f, _ in row))
    return solve(_per_row(*functions),
                 [[(end, (functions.index(f), a)) for end, f, a in row]
                  for row in pieces], t0, np.array(y0), grids, tols, tols)


def _spy_dense_output(monkeypatch):
    """Record [stacked, samples per job, failed jobs] of each dense pass;
    the last entry is the pass under way."""
    passes = []
    dense_output = ode._dense_output

    def spy(jobs, stacked, *args):
        passes.append([stacked, [j - i for *_, i, j in jobs], 0])
        failed = dense_output(jobs, stacked, *args)
        passes[-1][2] = len(failed)
        return failed

    monkeypatch.setattr(ode, "_dense_output", spy)
    return passes


class TestStackedBatch:
    def test_rows_match_lone_runs_bitwise(self, monkeypatch):
        assert len(STACKED) >= 2 * DENSE_ROWS
        passes = _spy_dense_output(monkeypatch)
        with np.errstate(over="ignore", invalid="ignore"):
            lone = [_solve_rows([problem]) for problem in STACKED]
            del passes[:]
            res = _solve_rows(STACKED)
        # stacked passes held one-sample and multi-sample rows, and the
        # dense-output overflow of PEAK was found in one
        stacked = [(ms, failed) for on, ms, failed in passes if on]
        assert any(1 in ms and max(ms) > 1 for ms, _ in stacked)
        assert sum(failed for _, failed in stacked) == 1
        assert all(len(ms) < DENSE_ROWS for on, ms, _ in passes if not on)
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
        pieces = (res.n_rhs - 6 * (res.n_accepted + res.n_rejected)) // 2
        assert np.count_nonzero(pieces > 1) == 3

    def test_stacked_pass_makes_no_per_row_product(self, monkeypatch):
        passes = _spy_dense_output(monkeypatch)
        samples = ode._samples
        per_row = []

        def spy(*args):
            per_row.append(passes[-1][0])  # the pass under way: stacked?
            return samples(*args)

        monkeypatch.setattr(ode, "_samples", spy)
        res = _solve_batch(BATCH * (DENSE_ROWS // 2))
        assert res.errors == [None] * len(BATCH) * (DENSE_ROWS // 2)
        assert any(stacked for stacked, _, _ in passes)
        assert per_row and not any(per_row)


def _bits(values):
    return np.asarray(values).view(np.int64)


def _stages(rng, shape):
    """Normal draws scaled by powers of ten from 1e-12 to 1e12."""
    return rng.normal(size=shape) * 10.0 ** rng.integers(-12, 13, shape)


def _powers(rng, shape):
    """theta^1..4 for theta in (0, 1], built as dense output builds them."""
    theta = rng.uniform(0.0, 1.0, shape)
    powers = theta.repeat(4).reshape(shape + (4,))
    np.multiply.accumulate(powers, out=powers, axis=-1)
    return powers


class TestDenseBits:
    """The bit equalities that stacked dense output relies on, one test
    each, so that a numpy or BLAS that breaks one fails here by name
    rather than by moving the golden hashes."""

    SIZES = [(1, 1), (2, 3), (7, 3), (8, 3), (32, 3), (64, 5), (31, 2)]

    @pytest.mark.parametrize("rows, n", SIZES)
    def test_stacked_tableau_product_equals_per_row(self, rows, n):
        rng = np.random.default_rng(rows * 100 + n)
        for _ in range(20):
            K = _stages(rng, (rows, 7, n))
            stacked = np.matmul(_P_T, K)
            for b in range(rows):
                assert np.array_equal(_bits(stacked[b]), _bits(_P_T @ K[b]))

    @pytest.mark.parametrize("rows, n", SIZES)
    def test_multi_sample_stack_equals_per_row(self, rows, n):
        # rows of 2..mx samples, padded to mx with arbitrary powers
        rng = np.random.default_rng(rows * 100 + n + 1)
        for mx in (2, 3, 17, 40):
            m = rng.integers(2, mx + 1, rows)
            powers = _powers(rng, (rows, mx))
            Q = _stages(rng, (rows, 4, n))
            stacked = np.matmul(powers, Q)
            for b in range(rows):
                assert np.array_equal(_bits(stacked[b, :m[b]]),
                                      _bits(powers[b, :m[b]] @ Q[b]))

    @pytest.mark.parametrize("rows, n", SIZES)
    def test_one_sample_stack_equals_per_row(self, rows, n):
        rng = np.random.default_rng(rows * 100 + n + 2)
        for _ in range(20):
            powers = _powers(rng, (rows, 1))
            Q = _stages(rng, (rows, 4, n))
            stacked = np.matmul(powers, Q)
            for b in range(rows):
                assert np.array_equal(_bits(stacked[b]),
                                      _bits(powers[b] @ Q[b]))

    def test_float_power_equals_python_power(self):
        # the step-size factor err ** -0.2 on arrays (np.power differs)
        err = np.exp(np.random.default_rng(3).uniform(-40.0, 5.0, 200_000))
        assert np.array_equal(
            _bits(np.float_power(err, -0.2)),
            _bits([e ** -0.2 for e in err.tolist()]))


def _forced(t, y, p):
    """A damped oscillator pushed by a constant force p[0]."""
    return np.array([y[1], p[0] - y[0] - 0.3 * y[1]])


def _pieces(ends, forces=(0.0, 1.0, 0.0)):
    return [(end, (0, force)) for end, force in zip(ends, forces)]


_GRID = np.linspace(0.0, 3.0, 31)
# (pieces, t0, y0, grid, tol); the force flips at each piece's end
PIECED = [
    # a first piece shorter than the starting step (0.005): its first
    # step must be sized toward 0.004, not toward the row's end
    (_pieces([0.004, 1.5, 3.0]), 0.0, [1.0, 0.0], _GRID, 1e-8),
    (_pieces([1e-9, 2.0, 3.0]), 0.0, [1.0, 0.0], _GRID, 1e-8),
    # (1.01, 1.02] holds no grid point
    (_pieces([1.01, 1.02, 3.0]), 0.0, [0.2, -0.5], _GRID, 1e-10),
    # ends exactly on grid points
    (_pieces([*_GRID[[12, 20]], 3.0]), 0.0, [0.2, -0.5], _GRID, 1e-6),
    (_pieces([1.5, 2.25, 3.0]), 0.5, [0.0, 1.0], np.linspace(0.5, 3.0, 26),
     1e-8),
]


def _solve_pieced(problems, rhs=_per_row(_forced)):
    pieces, t0, y0, grids, tols = zip(*problems)
    return solve(rhs, pieces, t0, np.array(y0), grids, tols, tols)


def _chained(problem):
    """One lone solve per piece: the reference for a row of pieces.

    The grid is split as (a, b] (the first piece also keeps t0), y0 is
    the previous piece's ``y_end`` and the counters are summed.
    """
    pieces, t0, y0, grid, tol = problem
    a, y, samples, counts = t0, np.array(y0), [], [0, 0, 0]
    for b, (_, force) in pieces:
        mask = ((grid >= a) if a == t0 else (grid > a)) & (grid <= b)
        # a lone solve needs a grid point: [b] stands in for none
        res = solve_one(_forced, a, b, y, grid[mask] if mask.any()
                        else np.array([b]), rtol=tol, atol=tol,
                        args=(force,))
        if mask.any():
            samples.append(res.y)
        y = res.y_end[0]
        counts = [c + int(x[0]) for c, x in
                  zip(counts, (res.n_accepted, res.n_rejected, res.n_rhs))]
        a = b
    return np.concatenate(samples), y, counts


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
    def test_rows_equal_chained_lone_solves(self):
        res = _solve_pieced(PIECED)
        assert res.errors == [None] * len(PIECED)
        for b, problem in enumerate(PIECED):
            y, y_end, counts = _chained(problem)
            assert np.array_equal(res.row(b)[1], y)
            assert np.array_equal(res.y_end[b], y_end)
            assert [res.n_accepted[b], res.n_rejected[b],
                    res.n_rhs[b]] == counts

    def test_each_piece_calls_only_its_own_rhs(self):
        problems, rhs, calls = _recorded(PIECED)
        res = _solve_pieced(problems, rhs)
        for b, ((pieces, t0, *_), rows) in enumerate(zip(PIECED, calls)):
            starts = [t0] + [end for end, _ in pieces]
            for k, times in enumerate(rows):
                # the stages at a piece's end read that piece's
                # constants; the next piece's are read there once, by
                # the restart
                assert starts[k] <= min(times)
                assert max(times) == starts[k + 1]
                assert times[0] == starts[k]
                assert k == 0 or times.count(starts[k]) == 1
            attempted = res.n_accepted[b] + res.n_rejected[b]
            assert res.n_rhs[b] == sum(map(len, rows)) \
                == 2 * len(pieces) + 6 * attempted

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
                  [np.array([0.0, 1.0])], [1e-8], [1e-8])

    def test_one_piece_sequence_per_row_required(self):
        with pytest.raises(ValueError, match="one entry per row"):
            solve(_per_row(_forced), [_pieces([1.0]), _pieces([1.0])], [0.0],
                  np.array([[1.0, 0.0]]), [np.array([0.0, 1.0])], [1e-8],
                  [1e-8])
