"""Tests for host elimination, eigenvalue oracles, fits, and convergence."""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from lfbloch import dynamics, verify
from lfbloch.dynamics import (
    EmitterParams,
    IntegrationSpec,
    MicroscopicParams,
    SystemState,
    Trajectory,
    integrate,
    integrate_batch,
)
from lfbloch.medium import HostSpecies, local_field_factor
from lfbloch.ode import NonFiniteRhsError
from lfbloch.verify import (
    CheckResult,
    ConvergenceRow,
    DegenerateModesWarning,
    FitWindowError,
    SamplingTooCoarseError,
    convergence_study,
    coupled_mode_eigenvalues,
    default_fit_window,
    eliminate_host,
    elimination_residuals,
    fit_decay,
    fit_frequency,
    predicted_slow_eigenvalue,
    run_battery,
    slow_eigenvalue,
    weak_excitation_run,
    weak_excitation_trajectory,
)

# ---------------------------------------------------------------------------
# frozen oracles for the canonical scenario
#   emitter: delta_a = 0, eps_a = 0, gamma_a = 1
#   host:    kappa * (delta_b = 10, eps_b = 10, gamma_b = 4)
# Slow eigenvalues computed two independent ways (numerically stable
# quadratic formula and numpy.linalg.eigvals of the 2x2 block); the two
# routes agree to < 3e-16 at every kappa.
# ---------------------------------------------------------------------------
ELL_CANONICAL = 1.495049504950495 - 0.04950495049504951j
LAMBDA_PRED = -0.7475247524752475 + 0.024752475247524754j
LAMBDA_SLOW = {
    1: -0.74921887768034 + 0.01559807837886876j,
    2: -0.7484828022647885 + 0.020208862575800134j,
    4: -0.7480309972289665 + 0.0224902364295689j,
    8: -0.7477846061842266 + 0.023623889205842817j,
}
EIG_ERRORS = {
    1: 0.009309835779399566,
    2: 0.004643519732906924,
    4: 0.002318190721259635,
    8: 0.0011581150217268936,
}

EMITTER = EmitterParams(delta_a=0.0, eps_a=0.0, gamma_a=1.0)
HOST = HostSpecies(delta_b=10.0, eps_b=10.0, gamma_b=4.0)
CANONICAL = MicroscopicParams(emitter=EMITTER, host=HOST)


def _make_traj(times, s, w):
    """Hand-built Trajectory for synthetic fit tests, sampled at times:
    a grid from 0 as np.linspace builds it."""
    times = np.asarray(times, dtype=float)
    s = np.asarray(s, dtype=complex)
    w = np.asarray(w, dtype=float)
    y = np.column_stack([s.real, s.imag, w])
    traj = Trajectory(span=float(times[-1]), y=y, model="A", tol=1e-10,
                      n_accepted=1, n_rejected=0, n_rhs=8,
                      bloch_norm_max=float(np.max(w**2 + 4 * np.abs(s)**2)))
    assert traj.times.tobytes() == times.tobytes()
    return traj


class TestEliminateHost:
    def test_no_host_gives_unit_factor(self):
        p = MicroscopicParams(emitter=EMITTER,
                              host=HostSpecies(delta_b=5.0, eps_b=0.0,
                                               gamma_b=2.0))
        res = eliminate_host(p)
        assert res.ell == 1.0 + 0j
        assert res.residual <= 1e-15
        assert res.effective is not None
        assert res.effective.ell == 1.0 + 0j

    def test_canonical_scenario(self):
        res = eliminate_host(CANONICAL)
        assert_allclose(res.ell.real, ELL_CANONICAL.real, rtol=1e-14)
        assert_allclose(res.ell.imag, ELL_CANONICAL.imag, rtol=1e-14)
        assert res.residual <= 1e-12
        assert res.effective is not None
        assert res.effective.ell == res.ell
        assert res.effective.emitter == EMITTER

    def test_factor_matches_medium_exactly(self):
        hosts = [HostSpecies(10.0, 10.0, 4.0), HostSpecies(-3.0, 7.5, 0.25),
                 HostSpecies(0.0, 50.0, 19.0)]
        for host in hosts:
            p = MicroscopicParams(emitter=EMITTER, host=host)
            assert eliminate_host(p).ell == local_field_factor(host).ell

    def test_negative_real_factor_has_no_effective_params(self):
        # ell = 1 + 10/(-2 + 1j) = -3 - 2j: the renormalized model would
        # grow its coherence, so no EffectiveParams can be built
        p = MicroscopicParams(emitter=EMITTER,
                              host=HostSpecies(delta_b=-12.0, eps_b=10.0,
                                               gamma_b=2.0))
        res = eliminate_host(p)
        assert res.ell == pytest.approx(-3.0 - 2.0j)
        assert res.effective is None
        assert res.residual <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(
        eps_b=st.floats(0.0, 50.0),
        gamma_b=st.floats(0.05, 20.0),
        delta_b=st.floats(-200.0, 200.0),
        eps_a=st.floats(0.0, 10.0),
    )
    def test_residual_tiny_for_all_valid_params(self, eps_b, gamma_b,
                                                delta_b, eps_a):
        emitter = EmitterParams(delta_a=0.0, eps_a=eps_a, gamma_a=1.0)
        p = MicroscopicParams(emitter=emitter,
                              host=HostSpecies(delta_b, eps_b, gamma_b))
        assert eliminate_host(p).residual <= 1e-12

    def test_corrupted_coupling_sign_is_flagged(self):
        p = CANONICAL
        good = elimination_residuals(
            ell=eliminate_host(p).ell,
            dipole_ratio=p.dipole_ratio,
            host_pole=p.host_pole,
            coupling_host_to_emitter=p.coupling_host_to_emitter,
            coupling_emitter_to_host=p.coupling_emitter_to_host,
            eps_a=EMITTER.eps_a,
            gamma_a=EMITTER.gamma_a,
        )
        assert max(good) <= 1e-12
        bad = elimination_residuals(
            ell=eliminate_host(p).ell,
            dipole_ratio=p.dipole_ratio,
            host_pole=p.host_pole,
            coupling_host_to_emitter=p.coupling_host_to_emitter,
            coupling_emitter_to_host=-p.coupling_emitter_to_host,
            eps_a=EMITTER.eps_a,
            gamma_a=EMITTER.gamma_a,
        )
        assert max(bad) > 1e-6


class TestEigenvalues:
    def test_decoupled_slow_mode_is_emitter_pole_exactly(self):
        emitter = EmitterParams(delta_a=0.3, eps_a=0.7, gamma_a=1.0)
        p = MicroscopicParams(emitter=emitter,
                              host=HostSpecies(delta_b=10.0, eps_b=0.0,
                                               gamma_b=4.0))
        a_pole = 1j * 0.3 + 1j * 0.7 - 0.5
        assert slow_eigenvalue(p) == a_pole
        slow, fast = coupled_mode_eigenvalues(p)
        assert slow == a_pole
        assert fast == p.host_pole

    def test_canonical_oracle(self):
        lam = slow_eigenvalue(CANONICAL)
        assert_allclose(lam.real, LAMBDA_SLOW[1].real, rtol=1e-13)
        assert_allclose(lam.imag, LAMBDA_SLOW[1].imag, rtol=1e-13)
        assert_allclose(abs(lam - LAMBDA_PRED), EIG_ERRORS[1], rtol=1e-10)

    def test_slow_root_is_closer_to_emitter_pole(self):
        slow, fast = coupled_mode_eigenvalues(CANONICAL)
        a_pole = -0.5 + 0j
        assert abs(slow - a_pole) < abs(fast - a_pole)

    def test_roots_satisfy_vieta(self):
        for host in [HOST, HostSpecies(3.0, 2.0, 1.0),
                     HostSpecies(-40.0, 25.0, 8.0)]:
            emitter = EmitterParams(delta_a=0.2, eps_a=1.5, gamma_a=1.0)
            p = MicroscopicParams(emitter=emitter, host=host)
            r1, r2 = coupled_mode_eigenvalues(p)
            a_pole = 1j * 0.2 + 1j * 1.5 - 0.5
            alpha = p.host_pole
            c = (a_pole * alpha
                 + p.coupling_host_to_emitter * p.coupling_emitter_to_host)
            assert_allclose(abs((r1 + r2) - (a_pole + alpha)), 0.0,
                            atol=1e-12 * max(1.0, abs(a_pole + alpha)))
            assert_allclose(abs(r1 * r2 - c), 0.0,
                            atol=1e-12 * max(1.0, abs(c)))

    def test_degenerate_discriminant_warns_and_returns_both(self):
        # A = -1/2, alpha = -3/2 + i, Ca*Cb = -i/2 make the discriminant
        # land exactly on zero in floating point
        p = MicroscopicParams(emitter=EMITTER,
                              host=HostSpecies(delta_b=0.0, eps_b=1.0,
                                               gamma_b=3.0))
        with pytest.warns(DegenerateModesWarning):
            slow, fast = coupled_mode_eigenvalues(p)
        assert_allclose(abs(slow - fast), 0.0, atol=1e-9)

    def test_prediction_formula(self):
        vac = predicted_slow_eigenvalue(1.0 + 0j,
                                        EmitterParams(delta_a=0.3, eps_a=0.0,
                                                      gamma_a=1.0))
        assert vac == -0.5 + 0.3j
        canonical = predicted_slow_eigenvalue(ELL_CANONICAL, EMITTER)
        assert_allclose(canonical.real, LAMBDA_PRED.real, rtol=1e-14)
        assert_allclose(canonical.imag, LAMBDA_PRED.imag, rtol=1e-14)

    def test_prediction_decay_and_shift_decomposition(self):
        ell = 1.4 - 0.1j
        emitter = EmitterParams(delta_a=0.2, eps_a=2.0, gamma_a=1.0)
        lam = predicted_slow_eigenvalue(ell, emitter)
        # coherence decay: Re(ell)*gamma_a/2 + Im(ell)*eps_a
        assert_allclose(-lam.real, 0.7 * 1.0 + (-0.1) * 2.0, rtol=1e-14)
        # shift relative to delta_a: Re(ell)*eps_a - Im(ell)*gamma_a/2
        assert_allclose(lam.imag - 0.2, 1.4 * 2.0 + 0.1 * 0.5, rtol=1e-14)


class TestFitDecay:
    def test_synthetic_exponential(self):
        t = np.linspace(0.0, 5.0, 101)
        traj = _make_traj(t, np.zeros_like(t, dtype=complex),
                          -1.0 + 2.0 * np.exp(-2.0 * t))
        res = fit_decay(traj, observable="w_plus_1")
        assert res.rate == pytest.approx(2.0, abs=1e-9)
        assert res.residual < 1e-10
        assert math.isnan(res.frequency)

    def test_model_a_population_decay(self):
        from lfbloch.dynamics import EffectiveParams
        p = EffectiveParams(emitter=EMITTER, ell=1.4 + 0j)
        traj = integrate(p, SystemState(s=0j, w=1.0),
                         IntegrationSpec(span=6.0, tol=1e-10, points=1201))
        res = fit_decay(traj, observable="w_plus_1",
                        window=default_fit_window(1.4))
        assert res.rate == pytest.approx(1.4, rel=1e-6)
        assert res.rate > 0

    def test_model_a_coherence_decay(self):
        from lfbloch.dynamics import EffectiveParams
        p = EffectiveParams(emitter=EMITTER, ell=1.4 + 0j)
        traj = integrate(p, SystemState(s=0.4 + 0j, w=-0.6),
                         IntegrationSpec(span=8.0, tol=1e-10, points=1201))
        res = fit_decay(traj, observable="abs_s",
                        window=default_fit_window(0.7))
        assert res.rate == pytest.approx(0.7, rel=1e-6)

    def test_model_b_weak_excitation_matches_slow_eigenvalue(self):
        traj = weak_excitation_trajectory(CANONICAL, tol=1e-10)
        gamma_guess = -LAMBDA_PRED.real
        res = fit_decay(traj, observable="abs_s",
                        window=default_fit_window(gamma_guess))
        assert res.rate == pytest.approx(-LAMBDA_SLOW[1].real, rel=1e-3)
        assert res.rate == pytest.approx(-LAMBDA_PRED.real, rel=5e-3)

    def test_short_window_rejected(self):
        t = np.linspace(0.0, 5.0, 101)
        traj = _make_traj(t, np.zeros_like(t, dtype=complex),
                          -1.0 + 2.0 * np.exp(-2.0 * t))
        with pytest.raises(FitWindowError):
            fit_decay(traj, observable="w_plus_1", window=(0.0, 0.5))

    def test_nonpositive_samples_rejected(self):
        t = np.linspace(0.0, 5.0, 101)
        traj = _make_traj(t, np.zeros_like(t, dtype=complex),
                          np.full_like(t, -1.0))
        with pytest.raises(FitWindowError):
            fit_decay(traj, observable="w_plus_1")

    def test_unknown_observable_rejected(self):
        t = np.linspace(0.0, 5.0, 101)
        traj = _make_traj(t, np.zeros_like(t, dtype=complex),
                          -1.0 + 2.0 * np.exp(-2.0 * t))
        with pytest.raises(ValueError, match="observable"):
            fit_decay(traj, observable="energy")

    def test_default_window_from_rate_guess(self):
        assert default_fit_window(2.0) == (1.0, 3.0)
        with pytest.raises(ValueError):
            default_fit_window(0.0)
        with pytest.raises(ValueError):
            default_fit_window(-1.0)


class TestFitFrequency:
    def test_synthetic_rotating_coherence(self):
        t = np.linspace(0.0, 20.0, 401)
        s = 0.1 * np.exp((0.5j - 0.1) * t)
        traj = _make_traj(t, s, np.full_like(t, -0.9))
        res = fit_frequency(traj)
        assert res.frequency == pytest.approx(0.5, abs=1e-6)
        assert math.isnan(res.rate)

    def test_vacuum_detuning(self):
        from lfbloch.dynamics import EffectiveParams
        emitter = EmitterParams(delta_a=0.3, eps_a=0.0, gamma_a=1.0)
        p = EffectiveParams(emitter=emitter, ell=1.0 + 0j)
        traj = integrate(p, SystemState(s=0.3 + 0j, w=-0.8),
                         IntegrationSpec(span=8.0, tol=1e-10, points=801))
        res = fit_frequency(traj, window=(1.0, 6.0))
        assert res.frequency == pytest.approx(0.3, rel=1e-6)

    def test_model_b_weak_excitation_shift(self):
        traj = weak_excitation_trajectory(CANONICAL, tol=1e-10)
        res = fit_frequency(
            traj, window=default_fit_window(-LAMBDA_PRED.real))
        assert res.frequency == pytest.approx(LAMBDA_SLOW[1].imag, rel=5e-2)

    def test_coarse_sampling_rejected(self):
        t = np.linspace(0.0, 10.0, 101)  # dt = 0.1
        omega = 0.98 * math.pi / 0.1     # phase step 0.98*pi per sample
        s = 0.1 * np.exp(1j * omega * t)
        traj = _make_traj(t, s, np.full_like(t, -0.9))
        with pytest.raises(SamplingTooCoarseError):
            fit_frequency(traj)

    def test_vanishing_coherence_rejected(self):
        t = np.linspace(0.0, 5.0, 101)
        traj = _make_traj(t, np.zeros_like(t, dtype=complex),
                          np.full_like(t, -1.0))
        with pytest.raises(FitWindowError):
            fit_frequency(traj)


def _fit_samples(n, rate):
    """A log-observable on the window [2/rate, 6/rate]: a line with a
    wobble of 5e-5, built by exact integer and correctly rounded float
    arithmetic alone, so that its bits do not depend on the CPU."""
    t = np.linspace(2.0 / rate, 6.0 / rate, n)
    wobble = (np.arange(n) * 7919 % 101 - 50) * 1e-6
    return t, 0.3 - rate * t + wobble


# _line against np.polyfit, in units of the data's own scale (the
# slope's |slope| + max|y|/width, the intercept's |intercept| +
# |slope|*max|t| + max|y|): fixed at 1e-13 before the test first ran,
# where a scan of 30000 such windows read at most 4.1e-15
LINE_AGREEMENT = 1e-13


@pytest.mark.bits
class TestFitBits:
    """The equalities that the fits of every sweep point rely on, their
    window as one slice and the bits of their line, so that a numpy
    that breaks one fails here by name rather than by moving the golden
    hashes.  The line takes no BLAS or LAPACK call: these pins hold
    under every OpenBLAS kernel."""

    # float.hex of _line's (slope, intercept) on _fit_samples(n, rate)
    LINE_PINS = {
        (20, 0.7): ("-0x1.6665dfadd0076p-1", "0x1.332c29ce6cfd8p-2"),
        (101, 1.4): ("-0x1.6666432af7fb4p+0", "0x1.3331a08bfc218p-2"),
        (984, 1.5): ("-0x1.7ffffe92d5dc1p+0", "0x1.33331f8d43010p-2"),
        (1601, 4.0): ("-0x1.ffffff84de3bcp+1", "0x1.33332bb492a90p-2"),
    }

    def test_line_bits_are_pinned(self):
        for (n, rate), pins in self.LINE_PINS.items():
            slope, intercept = verify._line(*_fit_samples(n, rate))
            assert (slope.hex(), intercept.hex()) == pins

    @settings(max_examples=300)
    @given(n=st.integers(20, 2000),
           width_exp=st.floats(-3.0, 3.0),
           offset=st.floats(0.0, 4.0),
           slope_exp=st.floats(-4.0, 3.0),
           sign=st.sampled_from((-1.0, 1.0)),
           level=st.floats(-50.0, 50.0),
           noise=st.floats(0.0, 1.0),
           seed=st.integers(0, 2**32 - 1))
    def test_line_agrees_with_polyfit(self, n, width_exp, offset, slope_exp,
                                      sign, level, noise, seed):
        # np.polyfit is the oracle only; the fits do not call it
        width = 10.0 ** width_exp
        t = np.linspace(offset * width, (offset + 1.0) * width, n)
        slope = sign * 10.0 ** slope_exp / width
        y = level + slope * t + noise * abs(slope) * width \
            * np.random.default_rng(seed).standard_normal(n)
        got = verify._line(t, y)
        want = np.polyfit(t, y, 1)
        y_max = float(np.max(np.abs(y)))
        slope_scale = abs(want[0]) + y_max / width
        intercept_scale = abs(want[1]) + abs(want[0]) * t[-1] + y_max
        assert abs(got[0] - want[0]) <= LINE_AGREEMENT * slope_scale
        assert abs(got[1] - want[1]) <= LINE_AGREEMENT * intercept_scale

    def test_equal_times_never_reach_the_line(self):
        # a window whose samples share one time holds at most one
        # sample of a trajectory's strictly rising times, and _window
        # rejects it before the line's denominator could be 0
        t = np.linspace(0.0, 5.0, 101)
        traj = _make_traj(t, np.exp((0.3j - 0.2) * t), np.full_like(t, -0.5))
        windows = [(x, x) for x in (t[0], t[37], t[-1])] + [
            (float(np.nextafter(x, -np.inf)), float(np.nextafter(x, np.inf)))
            for x in (t[0], t[37], t[-1])]
        with mock.patch.object(verify, "_line",
                               side_effect=AssertionError("reached _line")):
            for window in windows:
                for fit in (lambda: fit_decay(traj, "abs_s", window),
                            lambda: fit_frequency(traj, window)):
                    with pytest.raises(FitWindowError):
                        fit()

    def test_times_whose_squares_underflow_are_rejected(self):
        # distinct times 5e-304 apart: their squared deviations underflow
        # to 0, which a typed error reports in place of a nan rate
        t = np.linspace(0.0, 1e-300, 2001)
        assert np.all(np.diff(t) > 0.0)
        traj = _make_traj(t, np.full(t.shape, 0.1 + 0j), np.full_like(t, -0.5))
        with pytest.raises(FitWindowError,
                           match="squared deviations sum to 0"):
            fit_decay(traj)

    @pytest.mark.parametrize("width, message", [
        (1e-160, "fit window times from 0 to 1e-160 are too close together "
                 "or too far apart for a line: their squared deviations sum "
                 "to 8.34931e-319, outside [2.22507e-305, inf) for 1000 "
                 "samples"),
        (1e-156, "fit window times from 0 to 1e-156 are too close together "
                 "or too far apart for a line: their squared deviations sum "
                 "to 8.35002e-311, outside [2.22507e-305, inf) for 1000 "
                 "samples")])
    def test_squares_in_gradual_underflow_are_rejected(self, width, message):
        # squared deviations of about 1e-320 and 1e-312 are subnormal:
        # their sum is positive but has lost bits, so the slope would
        # too, with no error
        t = np.linspace(0.0, width, 1000)
        dt = t - np.add.reduce(t) / t.size
        assert 0.0 < np.max(dt * dt) < 2.0 ** -1022
        with pytest.raises(FitWindowError) as info:
            verify._line(t, 0.5 * t / width)
        assert str(info.value) == message

    def test_normal_squares_keep_their_bits(self):
        # windows whose mean squared deviation is normal fit as they did
        # before the bound: the pinned lines, and a window of 1e-153
        # (mean square 8.3e-308), whose line has the bits it had
        self.test_line_bits_are_pinned()
        t = np.linspace(0.0, 1e-153, 1000)
        slope, intercept = verify._line(t, 0.5 * t / 1e-153)
        assert (slope.hex(), intercept.hex()) == ("0x1.317e5ef3ab327p+507",
                                                  "0x0.0p+0")
        assert slope == 5e152

    def test_slice_window_equals_mask(self):
        # both fits take one slice for their window, and its times; it
        # holds the samples of the mask because Trajectory's times rise
        # strictly (two trajectory grids, of 101 and 300 points)
        rng = np.random.default_rng(12)
        grids = [np.linspace(0.0, 5.0, 101), np.linspace(0.0, 173.9, 300)]
        for times in grids:
            traj = _make_traj(times, np.exp((0.3j - 0.2) * times),
                              np.full_like(times, -0.5))
            span, count = float(times[-1]), times.size
            first, last = times[0], times[-1]
            inner = times[1:-1]
            windows = [
                (first, last), (times[3], times[60]),      # on samples
                (first - 1.0, times[40]), (-1e300, last),  # before the first
                (times[10], last + 1.0), (times[2], 1e300),  # past the last
                (first - 2.0, last + 2.0),
                (float(np.nextafter(times[5], -np.inf)),
                 float(np.nextafter(times[70], np.inf))),
                (float(np.nextafter(times[5], np.inf)),
                 float(np.nextafter(times[70], -np.inf))),
            ] + [tuple(sorted(rng.uniform(first - 0.5, last + 0.5, 2)))
                 for _ in range(40)] + [
                tuple(sorted(rng.choice(inner, 2, replace=False)))
                for _ in range(40)]
            for a, b in windows:
                mask = (times >= a) & (times <= b)
                if np.count_nonzero(mask) < 20:
                    with pytest.raises(FitWindowError):
                        verify._window(span, count, (a, b))
                    continue
                cut, t, _, n = verify._window(span, count, (a, b))
                assert np.array_equal(times[cut], times[mask])
                assert t.tobytes() == times[mask].tobytes()
                assert n == np.count_nonzero(mask)
                decay = fit_decay(traj, observable="abs_s", window=(a, b))
                freq = fit_frequency(traj, window=(a, b))
                assert decay.n_samples == freq.n_samples == n
        for fit in (fit_decay, fit_frequency):
            assert "strictly increasing times" in " ".join(fit.__doc__.split())

    def test_window_s_equals_the_whole_s_cut(self):
        # the fits build s from the window's slices of its two columns
        # (s_in): the bits of the whole trajectory's s, then cut, which
        # they took before, on odd values and on columns kept in another
        # order; and both fits read alike through either expression
        rng = np.random.default_rng(13)
        t = np.linspace(0.0, 5.0, 401)
        s = np.exp((0.3j - 0.2) * t)
        odd = s.copy()
        odd[rng.integers(0, t.size, 40)] = rng.choice(
            [0.0, -0.0, 5e-324, -1e-310, math.inf, -math.inf, math.nan,
             complex(-0.0, -0.0), complex(math.nan, -0.0)], 40)
        trajs = [_make_traj(t, s, np.exp(-0.4 * t) - 1.0)]
        with np.errstate(invalid="ignore"):
            trajs.append(_make_traj(t, odd, np.zeros_like(t)))
        trajs.append(dataclasses.replace(trajs[0], y=trajs[0].y[:, [2, 1, 0]],
                                         columns=(2, 1, 0)))
        cuts = [slice(None), slice(0, 1), slice(17, 390), slice(400, 401)]
        cuts += [verify._window(5.0, t.size,
                                (lo, lo + rng.uniform(0.3, 1.0)))[0]
                 for lo in rng.uniform(0.0, 4.0, 20)]
        for traj in trajs:
            for cut in cuts:
                assert traj.s_in(cut).tobytes() == traj.s[cut].tobytes()
        fits = [lambda traj: fit_decay(traj, "abs_s"),
                lambda traj: fit_frequency(traj, (1.0, 4.0))]
        window_s = [repr(fit(trajs[k])) for k in (0, 2) for fit in fits]
        with mock.patch.object(Trajectory, "s_in", lambda self, cut: (
                self._component("s", 0)
                + 1j * self._component("s", 1))[cut]):
            assert window_s == [repr(fit(trajs[k])) for k in (0, 2)
                                for fit in fits]


class TestConvergenceStudy:
    def test_factor_invariant_under_scaling(self):
        for kappa in (1.0, 2.0, 4.0, 8.0):
            host = HostSpecies(delta_b=10.0 * kappa, eps_b=10.0 * kappa,
                               gamma_b=4.0 * kappa)
            ell = local_field_factor(host).ell
            assert_allclose(ell.real, ELL_CANONICAL.real, rtol=1e-14)
            assert_allclose(ell.imag, ELL_CANONICAL.imag, rtol=1e-14)

    def test_eigenvalue_errors_match_frozen_oracles(self):
        rows = convergence_study(CANONICAL, kappas=(1.0, 2.0, 4.0, 8.0))
        assert [row.kappa for row in rows] == [1.0, 2.0, 4.0, 8.0]
        for row in rows:
            assert_allclose(row.eigenvalue_error, EIG_ERRORS[int(row.kappa)],
                            rtol=1e-10)
        errors = [row.eigenvalue_error for row in rows]
        assert all(a > b for a, b in zip(errors, errors[1:]))
        for a, b in zip(errors, errors[1:]):
            assert 4.0 / 3.0 <= a / b <= 3.0

    def test_largest_kappa_fitted_rate_and_shift(self):
        rows = convergence_study(CANONICAL, kappas=(8.0,))
        row = rows[-1]
        coherence_decay = 0.5 * ELL_CANONICAL.real * EMITTER.gamma_a
        shift = 0.5 * abs(ELL_CANONICAL.imag) * EMITTER.gamma_a
        assert row.fitted_rate == pytest.approx(coherence_decay, rel=2e-2)
        assert row.fitted_rate_error <= 2e-2
        assert row.fitted_shift == pytest.approx(shift, rel=1e-1)

    def test_rows_equal_lone_runs_bitwise(self):
        # the study integrates all its kappas as one batch; every row must
        # be what one weak-excitation run per kappa gives
        emitter = EmitterParams(delta_a=0.3, eps_a=0.2, gamma_a=1.0)
        host = HostSpecies(delta_b=8.0, eps_b=7.0, gamma_b=3.0)
        kappas = (1.0, 3.0, 8.0)
        rows = convergence_study(MicroscopicParams(emitter=emitter,
                                                   host=host), kappas)
        lam_pred = predicted_slow_eigenvalue(local_field_factor(host).ell,
                                             emitter)
        window = default_fit_window(-lam_pred.real)
        for kappa, row in zip(kappas, rows, strict=True):
            p = MicroscopicParams(emitter=emitter, host=HostSpecies(
                delta_b=kappa * host.delta_b, eps_b=kappa * host.eps_b,
                gamma_b=kappa * host.gamma_b))
            traj = weak_excitation_trajectory(p)
            rate = fit_decay(traj, observable="abs_s", window=window).rate
            assert row == ConvergenceRow(
                kappa=kappa,
                eigenvalue_error=abs(slow_eigenvalue(p) - lam_pred),
                fitted_rate=rate,
                fitted_rate_error=abs(rate + lam_pred.real) / -lam_pred.real,
                fitted_shift=fit_frequency(traj, window=window).frequency)

    def test_kappa_list_must_increase(self):
        with pytest.raises(ValueError):
            convergence_study(CANONICAL, kappas=(2.0, 1.0))
        with pytest.raises(ValueError):
            convergence_study(CANONICAL, kappas=(1.0, 1.0))
        with pytest.raises(ValueError):
            convergence_study(CANONICAL, kappas=())

    def test_study_runs_past_the_old_stiffness_cap(self):
        # |alpha| = kappa * sqrt(404) = 2573 gamma_a at kappa = 128, past
        # the 1000 gamma_a at which the study used to stop; the fitted
        # rate still meets the battery's largest-kappa-rate threshold
        (row,) = convergence_study(CANONICAL, kappas=(128.0,))
        assert row.fitted_rate_error <= 2e-2

    def test_exponential_run_counts_pinned(self):
        # |alpha| = 160 gamma_a: the exponential method, whose step may
        # grow right after a rejection (Dormand-Prince's may not); with
        # Dormand-Prince's rule this run takes (78, 18, 674)
        p = MicroscopicParams(emitter=EMITTER, host=HostSpecies(
            delta_b=80.0, eps_b=80.0, gamma_b=4.0))
        assert abs(p.host_pole) > dynamics.EXPONENTIAL_POLE
        traj = integrate(*weak_excitation_run(p))
        assert (traj.n_accepted, traj.n_rejected, traj.n_rhs) == (
            73, 31, 730)

    def test_elimination_claim_to_kappa_16384(self):
        # kappa = 4^0 .. 4^7, |alpha| from 20 to 3.3e5 gamma_a.  The
        # tolerances come from a run made before this test existed: error
        # ratios 4.016, 4.005, 4.0014, ... (within 0.4% of 4), fits within
        # 8.7e-10 of the exact decay, 121 to 205 evaluations per run
        kappas = [4.0 ** i for i in range(8)]
        scaled = [MicroscopicParams(emitter=EMITTER, host=HostSpecies(
            delta_b=10.0 * k, eps_b=10.0 * k, gamma_b=4.0 * k))
            for k in kappas]
        trajectories = integrate_batch([weak_excitation_run(p)
                                        for p in scaled])
        rows = convergence_study(CANONICAL, kappas)
        errors = [row.eigenvalue_error for row in rows]
        for a, b in zip(errors, errors[1:]):
            assert abs(a / b / 4.0 - 1.0) <= 1e-2  # O(1/kappa)
        fast = [(p, traj, row) for p, traj, row
                in zip(scaled, trajectories, rows)
                if abs(p.host_pole) > dynamics.EXPONENTIAL_POLE]
        assert len(fast) == 7
        for p, traj, row in fast:
            lam = slow_eigenvalue(p)
            assert abs(row.fitted_rate + lam.real) <= 1e-8 * -lam.real
        # the work per run stays flat, where Dormand-Prince's grows
        # linearly with |alpha| (it needed 1118 evaluations at kappa 1)
        work = [traj.n_rhs for _, traj, _ in fast]
        assert max(work) <= 300 and max(work) <= 2 * min(work)


class TestBattery:
    def test_all_checks_pass(self):
        checks = run_battery()
        names = [c.name for c in checks]
        assert len(names) == len(set(names))
        for check in checks:
            assert isinstance(check, CheckResult)
            assert check.passed, f"{check.name}: {check.detail}"
        assert any("identity" in n for n in names)
        assert any("convergence" in n for n in names)
        assert any("conservation" in n for n in names)

    def test_canonical_decay_checks_equal_a_lone_run(self):
        # both canonical decay checks read the kappa = 1 row of the
        # battery's convergence study; it must equal a lone run
        checks = {c.name: c for c in run_battery()}
        lam_pred = predicted_slow_eigenvalue(local_field_factor(HOST).ell,
                                             EMITTER)
        traj = weak_excitation_trajectory(CANONICAL)
        rate = fit_decay(traj, observable="abs_s",
                         window=default_fit_window(-lam_pred.real)).rate
        exact = -slow_eigenvalue(CANONICAL).real
        check = checks["coherence-decay-vs-eigenvalue"]
        assert check.value == abs(rate - exact) / exact
        assert check.detail == (f"fitted {rate:.6f} vs exact eigenvalue "
                                f"{exact:.6f}")
        check = checks["coherence-decay-vs-prediction"]
        assert check.value == abs(rate + lam_pred.real) / -lam_pred.real
        assert check.detail.startswith(f"fitted {rate:.6f} vs ")

    def test_failed_study_fails_every_check_that_reads_it(self,
                                                          monkeypatch):
        def nan_rhs(t, Y, P):
            return np.full_like(Y, math.nan)

        monkeypatch.setattr(dynamics, "microscopic_rhs", nan_rhs)
        checks = run_battery()
        assert [c.passed for c in checks] == [True] + [False] * 5 + [True]
        for check in checks[1:6]:
            assert math.isnan(check.value)
            assert check.detail.startswith(
                f"raised {NonFiniteRhsError.__name__}: step size underflow")

    def test_corrupted_coupling_fails_identity_check(self, monkeypatch):
        monkeypatch.setattr(
            MicroscopicParams, "coupling_emitter_to_host",
            property(lambda self: -(1j * self.dipole_ratio
                                    * self.emitter.eps_a
                                    - self.dipole_ratio
                                    * self.emitter.gamma_a / 2.0)))
        checks = run_battery()
        failed = [c for c in checks if not c.passed]
        assert any("identity" in c.name for c in failed)
