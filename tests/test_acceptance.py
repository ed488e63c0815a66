"""Acceptance battery: one pass/fail line per criterion.

Run ``pytest tests/test_acceptance.py -v -s`` to see the lines.  Each
criterion checks its stated tolerance and its runtime budget; a budget
overrun fails the criterion even when the numbers are good.
"""

import math
import time

import numpy as np

from lfbloch.dynamics import (
    DriveEnvelope,
    EffectiveParams,
    EmitterParams,
    IntegrationSpec,
    MicroscopicParams,
    SystemState,
    integrate,
)
from lfbloch.medium import HostSpecies, local_field_factor, rate_comparison
from lfbloch.verify import (
    conservation_battery,
    convergence_study,
    coupled_mode_eigenvalues,
    default_fit_window,
    elimination_identity_battery,
    fit_decay,
    predicted_slow_eigenvalue,
    weak_excitation_trajectory,
)

CANONICAL_EMITTER = EmitterParams(delta_a=0.0, eps_a=0.0, gamma_a=1.0)
CANONICAL_HOST = HostSpecies(delta_b=10.0, eps_b=10.0, gamma_b=4.0)


def run_criterion(index, name, budget_s, fn):
    start = time.perf_counter()
    try:
        passed, detail = fn()
    except Exception as exc:
        elapsed = time.perf_counter() - start
        print(f"[acceptance] {index} ({name}): FAIL "
              f"(raised {exc!r}; {elapsed:.3f}s)")
        raise
    elapsed = time.perf_counter() - start
    in_budget = elapsed < budget_s
    status = "PASS" if (passed and in_budget) else "FAIL"
    note = detail if in_budget else f"{detail}; over {budget_s}s budget"
    print(f"[acceptance] {index} ({name}): {status} ({note}; "
          f"{elapsed:.3f}s)")
    assert passed, f"criterion {index} ({name}): {detail}"
    assert in_budget, (f"criterion {index} ({name}): runtime "
                       f"{elapsed:.3f}s exceeds {budget_s}s")


def test_criterion_1_rate_comparison_table():
    def check():
        worst = 0.0
        for k in range(11):
            n = 1.0 + k / 10.0
            row = rate_comparison(n)
            ell = (n * n + 2.0) / 3.0
            worst = max(worst,
                        abs(row.re_ell - ell),
                        abs(row.virtual_cavity - n * ell * ell))
        ratio = rate_comparison(1.5).virtual_cavity / \
            rate_comparison(1.5).re_ell
        ratio_ok = abs(ratio - 2.125) <= 1e-12
        return (worst <= 1e-12 and ratio_ok,
                f"max table deviation {worst:.3e}, "
                f"ratio at n=1.5 is {ratio:.12g}")

    run_criterion(1, "rate-comparison table", 0.1, check)


def test_criterion_2_effective_model_decay():
    def check():
        params = EffectiveParams(emitter=CANONICAL_EMITTER, ell=1.4 + 0j)
        traj = integrate(params, SystemState(s=0j, w=1.0),
                         IntegrationSpec(span=8.0, tol=1e-10, points=1601))
        fit = fit_decay(traj, observable="w_plus_1",
                        window=default_fit_window(1.4))
        rel = abs(fit.rate - 1.4) / 1.4
        return rel <= 1e-6, f"Gamma_fit {fit.rate:.12g} vs 1.4, rel {rel:.3e}"

    run_criterion(2, "effective-model population decay", 1.0, check)


def test_criterion_3_elimination_identity():
    def check():
        worst = elimination_identity_battery()
        return worst <= 1e-12, f"max residual {worst:.3e} over 100 draws"

    run_criterion(3, "host-elimination identity", 0.1, check)


def test_criterion_4_coherence_decay_vs_eigenvalue():
    def check():
        params = MicroscopicParams(emitter=CANONICAL_EMITTER,
                                   host=CANONICAL_HOST)
        ell = local_field_factor(CANONICAL_HOST).ell
        lam_slow, _ = coupled_mode_eigenvalues(params)
        lam_pred = predicted_slow_eigenvalue(ell, CANONICAL_EMITTER)
        traj = weak_excitation_trajectory(params, tol=1e-10)
        fit = fit_decay(traj, observable="abs_s",
                        window=default_fit_window(-lam_pred.real))
        rel_exact = abs(fit.rate + lam_slow.real) / (-lam_slow.real)
        rel_pred = abs(fit.rate + lam_pred.real) / (-lam_pred.real)
        return (rel_exact <= 1e-3 and rel_pred <= 5e-3,
                f"fit {fit.rate:.6f}; vs exact eigenvalue {rel_exact:.3e}, "
                f"vs Re(ell)*gamma_a/2 {rel_pred:.3e}")

    run_criterion(4, "microscopic coherence decay", 10.0, check)


def test_criterion_5_adiabatic_convergence():
    def check():
        params = MicroscopicParams(emitter=CANONICAL_EMITTER,
                                   host=CANONICAL_HOST)
        rows = convergence_study(params, kappas=(1.0, 2.0, 4.0, 8.0))
        errors = [row.eigenvalue_error for row in rows]
        decreasing = all(a > b for a, b in zip(errors, errors[1:]))
        ratios = [a / b for a, b in zip(errors, errors[1:])]
        halving = all(4.0 / 3.0 <= r <= 3.0 for r in ratios)
        last = rows[-1]
        ell = local_field_factor(CANONICAL_HOST).ell
        shift_pred = abs(ell.imag) * CANONICAL_EMITTER.gamma_a / 2.0
        rate_ok = last.fitted_rate_error <= 2e-2
        shift_err = abs(last.fitted_shift - shift_pred) / shift_pred
        shift_ok = shift_err <= 1e-1
        return (decreasing and halving and rate_ok and shift_ok,
                "error ratios " +
                ", ".join(f"{r:.3f}" for r in ratios) +
                f"; at kappa=8 rate err {last.fitted_rate_error:.3e}, "
                f"shift err {shift_err:.3e}")

    run_criterion(5, "adiabatic convergence", 30.0, check)


def test_criterion_6_undamped_conservation():
    def check():
        drifts = conservation_battery()
        worst = max(drift for _, drift in drifts)
        return (worst <= 1e-8,
                "drift " + ", ".join(f"{name} {drift:.3e}"
                                     for name, drift in drifts))

    run_criterion(6, "undamped conservation", 5.0, check)


def test_criterion_7_vacuum_reduction():
    def check():
        tol = 1e-10
        vacuum_host = HostSpecies(delta_b=15.0, eps_b=0.0, gamma_b=4.0)
        eff = EffectiveParams(emitter=CANONICAL_EMITTER, ell=1.0 + 0j)
        micro = MicroscopicParams(emitter=CANONICAL_EMITTER,
                                  host=vacuum_host)
        s0 = 1e-3
        w0 = -math.sqrt(1.0 - 4.0 * s0 * s0)
        span = 6.0
        traj_a = integrate(eff, SystemState(s=s0 + 0j, w=w0),
                           IntegrationSpec(span=span, tol=tol, points=801))
        traj_b = integrate(micro, SystemState(s=s0 + 0j, w=w0, beta=0j),
                           IntegrationSpec(span=span, tol=tol, points=801))
        ds = float(np.max(np.abs(traj_a.s - traj_b.s)))
        dw = float(np.max(np.abs(traj_a.w - traj_b.w)))
        pointwise = max(ds, dw) <= 10.0 * tol

        decay = integrate(eff, SystemState(s=0j, w=1.0),
                          IntegrationSpec(span=8.0, tol=tol, points=1601))
        fit = fit_decay(decay, observable="w_plus_1",
                        window=default_fit_window(1.0))
        rel = abs(fit.rate - 1.0)
        return (pointwise and rel <= 1e-6,
                f"max model gap {max(ds, dw):.3e} (allow {10.0 * tol:.0e}), "
                f"Gamma_fit rel err {rel:.3e}")

    run_criterion(7, "vacuum reduction", 1.0, check)
