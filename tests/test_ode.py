"""Tests for the embedded Dormand-Prince 5(4) integrator: accuracy against
analytic solutions, convergence order, dense output, statistics, error
paths, and lockstep batches that reproduce each row's lone run bit for
bit."""

import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import solve_ivp

from lfbloch.ode import OdeResult, StepSizeUnderflowError, solve


def solve_one(rhs, t0, t_end, y0, t_eval, rtol, atol, **kwargs):
    """One problem as a batch of one; raises the row's failure."""
    res = solve([rhs], [t0], [t_end], np.array([y0], dtype=float),
                [t_eval], [rtol], [atol], **kwargs)
    if res.errors[0] is not None:
        raise res.errors[0]
    return res


def _decay(t, y):
    return -2.0 * y


def _harmonic(t, y):
    return np.array([y[1], -y[0]])


def _blowup(t, y):
    return y * y


def _rigid_body(t, y):
    # Euler equations of a free rigid body; smooth and non-chaotic.
    return np.array([y[1] * y[2], -y[0] * y[2], -0.51 * y[0] * y[1]])


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
        ref = solve_ivp(_rigid_body, (0.0, 12.0), y0, method="DOP853",
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
        def relax(t, y):
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
        with pytest.raises(StepSizeUnderflowError, match="tol"):
            solve_one(_blowup, 0.0, 2.0, np.array([1.0]), np.array([0.0, 2.0]),
                      rtol=1e-10, atol=1e-10)

    def test_nonfinite_rhs_is_rejected_not_accepted(self):
        # a NaN error estimate must reject the step (nan > 1 is False), so
        # the run stops at the last finite state instead of writing NaN
        # samples and then blaming stiffness
        def turns_nan(t, y):
            return np.full_like(y, math.nan) if t > 0.5 else -y

        with pytest.raises(StepSizeUnderflowError,
                           match="right-hand side went non-finite") as info:
            solve_one(turns_nan, 0.0, 1.0, np.array([1.0]),
                      np.linspace(0.0, 1.0, 11), rtol=1e-8, atol=1e-8)
        t_fail = float(re.search(r"at t = (\S+) ", str(info.value)).group(1))
        assert t_fail <= 0.5
        assert "stiff" not in str(info.value)

    def test_grid_outside_span_rejected(self):
        with pytest.raises(ValueError):
            solve_one(_decay, 0.0, 1.0, np.array([1.0]), np.array([0.0, 2.0]),
                      rtol=1e-8, atol=1e-8)

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


def _linear(rate):
    def f(t, y):
        return np.array([-rate * y[0] + y[1], -y[0] - rate * y[1],
                         -2.0 * rate * y[2]])
    return f


def _turns_nan(t, y):
    return np.full_like(y, math.nan) if t > 0.5 else -y


# (rhs, t0, t_end, y0, grid, tol): spans, tolerances and grid lengths
# differ; the stiff linear row at loose tolerance rejects steps
BATCH = [
    (_rigid_body, 0.0, 12.0, [1.0, 0.0, 0.9], np.linspace(0.0, 12.0, 13),
     1e-11),
    (_linear(0.5), 0.5, 4.0, [0.2, -0.1, 1.0], np.linspace(0.5, 4.0, 801),
     1e-8),
    (_linear(200.0), 0.0, 1.0, [1.0, 0.0, 1.0], np.array([0.25, 1.0]),
     1e-3),
    (_rigid_body, 1.0, 2.5, [0.0, 1.0, 0.2], np.linspace(1.5, 2.5, 7),
     1e-6),
]
FAILING = [
    (_blowup, 0.0, 2.0, [1.0, 1.0, 1.0], np.array([0.0, 2.0]), 1e-10),
    (_turns_nan, 0.0, 1.0, [1.0, 1.0, 1.0], np.linspace(0.0, 1.0, 11),
     1e-8),
]


def _solve_batch(problems):
    rhs, t0, t_end, y0, grids, tols = zip(*problems)
    return solve(rhs, t0, t_end, np.array(y0), grids, tols, tols)


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
            with pytest.raises(StepSizeUnderflowError) as lone:
                solve_one(*problems[b][:5], rtol=problems[b][5],
                          atol=problems[b][5])
            assert isinstance(res.errors[b], StepSizeUnderflowError)
            assert str(res.errors[b]) == str(lone.value)
            assert np.all(np.isnan(res.y_end[b]))
            assert np.isnan(res.row(b)[1][-1]).all()
        assert "non-finite" in str(res.errors[3])
        assert "stiff" in str(res.errors[1])
        for b in (0, 2, 4):
            assert res.errors[b] is None
            _assert_row_equal(res, b, _lone(problems[b]))

    def test_counters_sum_over_batch(self):
        res = _solve_batch(BATCH)
        assert int(np.sum(res.n_rhs)) == sum(
            int(_lone(p).n_rhs[0]) for p in BATCH)
        assert np.size(res.t) == int(res.offsets[-1])

    def test_y0_must_be_two_dimensional(self):
        with pytest.raises(ValueError, match="shape"):
            solve([_decay], [0.0], [1.0], np.array([1.0]),
                  [np.array([0.0, 1.0])], [1e-8], [1e-8])

    def test_one_entry_per_row_required(self):
        with pytest.raises(ValueError, match="one entry per row"):
            solve([_decay], [0.0, 0.0], [1.0], np.array([[1.0]]),
                  [np.array([0.0, 1.0])], [1e-8], [1e-8])
