#!/usr/bin/env python3
"""Print the timescale-separation convergence table for the canonical host.

Scaling the host pole by kappa while holding the enhancement factor fixed
should drive the exact slow eigenvalue toward the renormalized prediction
at O(1/kappa); the ratio column should therefore sit near 2.  kappa runs
over powers of 2 from 1 to 16384 (|alpha| from 20 to 3.3e5 gamma_a): the
fast-host runs go to the exponential integrator, whose step is not bounded
by the host pole but whose step count is not flat in it either: on a
weak-excitation run it is erratic, 2623 attempts at |alpha| = 5000 against
127 at 20000.  The whole table takes 0.2-0.3 s on a shared 2-core Xeon.

Usage: ``PYTHONPATH=src python scripts/convergence_table.py``
"""

from lfbloch.dynamics import EmitterParams, MicroscopicParams
from lfbloch.medium import HostSpecies, local_field_factor
from lfbloch.verify import convergence_study, predicted_slow_eigenvalue


def main() -> None:
    emitter = EmitterParams(delta_a=0.0, eps_a=0.0, gamma_a=1.0)
    host = HostSpecies(delta_b=10.0, eps_b=10.0, gamma_b=4.0)
    params = MicroscopicParams(emitter=emitter, host=host)
    ell = local_field_factor(host).ell
    lam_pred = predicted_slow_eigenvalue(ell, emitter)
    print(f"ell = {ell:.6f}; predicted slow eigenvalue {lam_pred:.6f}")
    rows = convergence_study(params, kappas=[2.0 ** i for i in range(15)])
    print(f"{'kappa':>6} {'|lam - lam_pred|':>17} {'ratio':>7} "
          f"{'fitted rate':>12} {'rate err':>10} {'fitted shift':>13}")
    previous = None
    for row in rows:
        ratio = "" if previous is None \
            else f"{previous / row.eigenvalue_error:.3f}"
        print(f"{row.kappa:>6.0f} {row.eigenvalue_error:>17.3e} "
              f"{ratio:>7} {row.fitted_rate:>12.6f} "
              f"{row.fitted_rate_error:>10.3e} {row.fitted_shift:>13.6f}")
        previous = row.eigenvalue_error


if __name__ == "__main__":
    main()
