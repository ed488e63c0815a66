"""Tests for host elimination, eigenvalue oracles, fits, and convergence."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from lfbloch import dynamics
from lfbloch.dynamics import (
    DriveEnvelope,
    EmitterParams,
    IntegrationSpec,
    MicroscopicParams,
    SystemState,
    Trajectory,
    integrate,
)
from lfbloch.medium import HostSpecies, local_field_factor
from lfbloch.ode import NonFiniteRhsError
from lfbloch.verify import (
    CheckResult,
    ConvergenceRow,
    DegenerateModesWarning,
    EliminationResult,
    FitResult,
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
    """Hand-built Trajectory for synthetic fit tests."""
    times = np.asarray(times, dtype=float)
    s = np.asarray(s, dtype=complex)
    w = np.asarray(w, dtype=float)
    return Trajectory(times=times, s=s, w=w, beta=None, model="A", tol=1e-10,
                      n_accepted=1, n_rejected=0, n_rhs=8,
                      bloch_norm_max=float(np.max(w**2 + 4 * np.abs(s)**2)))


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

    def test_stiffness_cap_enforced(self):
        # |alpha| = kappa * sqrt(404); kappa = 50 pushes past 10^3 gamma_a
        with pytest.raises(ValueError, match="stiff"):
            convergence_study(CANONICAL, kappas=(1.0, 50.0))


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
        def nan_rhs(t, y, p, om):
            return np.full_like(y, math.nan)

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
