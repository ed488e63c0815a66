"""Tests for the embedded Dormand-Prince 5(4) integrator: accuracy against
analytic solutions, convergence order, dense output, statistics, and error
paths."""

import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import solve_ivp

from lfbloch.ode import OdeResult, StepSizeUnderflowError, solve


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
        res = solve(_decay, 0.0, 3.0, np.array([1.0]), grid,
                    rtol=1e-10, atol=1e-10)
        assert_allclose(res.y[:, 0], np.exp(-2.0 * grid), rtol=1e-8,
                        atol=1e-12)

    def test_harmonic_many_periods(self):
        t_end = 20.0 * math.pi
        grid = np.array([0.0, t_end])
        res = solve(_harmonic, 0.0, t_end, np.array([1.0, 0.0]), grid,
                    rtol=1e-10, atol=1e-10)
        assert_allclose(res.y[-1], [1.0, 0.0], atol=5e-8)

    def test_dense_output_between_steps(self):
        # a fine grid forces interpolation inside accepted steps
        grid = np.linspace(0.0, 2.0 * math.pi, 1001)
        res = solve(_harmonic, 0.0, 2.0 * math.pi, np.array([0.0, 1.0]),
                    grid, rtol=1e-10, atol=1e-10)
        assert res.n_accepted < 300  # interpolation actually exercised
        assert_allclose(res.y[:, 0], np.sin(grid), atol=1e-8)

    def test_cross_check_against_scipy(self):
        y0 = np.array([1.0, 0.0, 0.9])
        grid = np.linspace(0.0, 12.0, 13)
        mine = solve(_rigid_body, 0.0, 12.0, y0, grid, rtol=1e-11, atol=1e-11)
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
            res = solve(_harmonic, 0.0, t_end, np.array([1.0, 0.0]),
                        np.array([0.0, t_end]), rtol=1.0, atol=1.0,
                        max_step=h)
            errors.append(abs(res.y[-1, 0] - 1.0) + abs(res.y[-1, 1]))
        ratio = errors[0] / errors[1]
        assert 20.0 < ratio < 50.0


class TestStatistics:
    def test_rhs_eval_accounting(self):
        grid = np.linspace(0.0, 3.0, 4)
        res = solve(_decay, 0.0, 3.0, np.array([1.0]), grid,
                    rtol=1e-8, atol=1e-8)
        # two startup evaluations (f(t0) + starting-step probe), then six
        # per attempted step thanks to the FSAL pair
        assert res.n_rhs == 2 + 6 * (res.n_accepted + res.n_rejected)
        assert res.n_accepted > 0
        assert res.n_rejected >= 0

    def test_stability_limit_causes_rejections(self):
        # fast linear relaxation at loose tolerance: the controller keeps
        # bouncing off the explicit stability boundary
        def relax(t, y):
            return np.array([200.0 * (math.cos(t) - y[0])])

        res = solve(relax, 0.0, 3.0, np.array([0.0]), np.array([0.0, 3.0]),
                    rtol=1e-3, atol=1e-9)
        assert res.n_rejected > 0
        lam = 200.0
        exact = (lam * lam * math.cos(3.0) + lam * math.sin(3.0)) / (lam * lam + 1.0)
        assert_allclose(res.y[-1, 0], exact, atol=1e-3)

    def test_tighter_tolerance_smaller_error(self):
        grid = np.array([0.0, 3.0])
        exact = math.exp(-6.0)
        errs = []
        for tol in (1e-5, 1e-10):
            res = solve(_decay, 0.0, 3.0, np.array([1.0]), grid,
                        rtol=tol, atol=tol)
            errs.append(abs(res.y[-1, 0] - exact))
        assert errs[1] < errs[0]


class TestDeterminism:
    def test_identical_runs_bitwise_equal(self):
        grid = np.linspace(0.0, 10.0, 101)
        runs = [
            solve(_harmonic, 0.0, 10.0, np.array([1.0, 0.0]), grid,
                  rtol=1e-9, atol=1e-9)
            for _ in range(2)
        ]
        assert np.array_equal(runs[0].y, runs[1].y)
        assert runs[0].n_rhs == runs[1].n_rhs


class TestErrors:
    def test_step_underflow_on_blowup(self):
        # solution 1/(1-t) diverges at t = 1; the controller must give up
        with pytest.raises(StepSizeUnderflowError, match="tol"):
            solve(_blowup, 0.0, 2.0, np.array([1.0]), np.array([0.0, 2.0]),
                  rtol=1e-10, atol=1e-10)

    def test_nonfinite_rhs_is_rejected_not_accepted(self):
        # a NaN error estimate must reject the step (nan > 1 is False), so
        # the run stops at the last finite state instead of writing NaN
        # samples and then blaming stiffness
        def turns_nan(t, y):
            return np.full_like(y, math.nan) if t > 0.5 else -y

        with pytest.raises(StepSizeUnderflowError,
                           match="right-hand side went non-finite") as info:
            solve(turns_nan, 0.0, 1.0, np.array([1.0]),
                  np.linspace(0.0, 1.0, 11), rtol=1e-8, atol=1e-8)
        t_fail = float(re.search(r"at t = (\S+) ", str(info.value)).group(1))
        assert t_fail <= 0.5
        assert "stiff" not in str(info.value)

    def test_grid_outside_span_rejected(self):
        with pytest.raises(ValueError):
            solve(_decay, 0.0, 1.0, np.array([1.0]), np.array([0.0, 2.0]),
                  rtol=1e-8, atol=1e-8)

    def test_non_increasing_grid_rejected(self):
        with pytest.raises(ValueError):
            solve(_decay, 0.0, 1.0, np.array([1.0]),
                  np.array([0.0, 0.5, 0.5]), rtol=1e-8, atol=1e-8)

    def test_reversed_span_rejected(self):
        with pytest.raises(ValueError):
            solve(_decay, 1.0, 0.0, np.array([1.0]), np.array([1.0]),
                  rtol=1e-8, atol=1e-8)

    def test_returns_result_type(self):
        res = solve(_decay, 0.0, 1.0, np.array([1.0]), np.array([0.0, 1.0]),
                    rtol=1e-8, atol=1e-8)
        assert isinstance(res, OdeResult)
        assert res.y.shape == (2, 1)
