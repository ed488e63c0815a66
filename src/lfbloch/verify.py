"""Executable checks that eliminating the host renormalizes rates by ell.

The microscopic model couples the emitter coherence s to a damped host
oscillator beta.  Adiabatically eliminating beta must reproduce the
effective model in which drive, NDD coupling, and decay are multiplied by
the complex local-field factor ell.  This module turns that claim into
checks:

- :func:`eliminate_host` evaluates the algebraic elimination identity
  (exact at any timescale separation),
- :func:`slow_eigenvalue` gives the exact decay/shift of the coupled
  linear (weak-excitation) system,
- :func:`predicted_slow_eigenvalue` gives the effective-model prediction
  i*delta_a + i*ell*eps_a - ell*gamma_a/2,
- :func:`fit_decay` / :func:`fit_frequency` extract rates and shifts
  from simulated trajectories,
- :func:`convergence_study` shows |lambda_exact - lambda_pred| = O(1/kappa)
  as the host pole is scaled away from the emitter,
- :func:`run_battery` bundles everything into named pass/fail checks.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from lfbloch import ode
from lfbloch.dynamics import (
    DriveEnvelope,
    EffectiveParams,
    EmitterParams,
    IntegrationSpec,
    MicroscopicParams,
    SystemState,
    Trajectory,
    integrate,
    integrate_batch,
)
from lfbloch.medium import HostSpecies, local_field_factor

__all__ = [
    "CheckResult",
    "ConvergenceRow",
    "DegenerateModesWarning",
    "EliminationResult",
    "FitResult",
    "FitWindowError",
    "SamplingTooCoarseError",
    "conservation_battery",
    "convergence_study",
    "coupled_mode_eigenvalues",
    "default_fit_window",
    "eliminate_host",
    "elimination_identity_battery",
    "elimination_residuals",
    "fit_decay",
    "fit_frequency",
    "predicted_slow_eigenvalue",
    "run_battery",
    "slow_eigenvalue",
    "weak_excitation_run",
    "weak_excitation_trajectory",
]

RESIDUAL_THRESHOLD = 1e-12
DEGENERACY_THRESHOLD = 1e-9

_MIN_FIT_SAMPLES = 20
_PHASE_STEP_LIMIT = 0.95 * math.pi
_SMALLEST_NORMAL = 2.0 ** -1022

_WEAK_S0 = 1e-3
_WEAK_POINTS = 1601
_CONSERVATION_RUN = IntegrationSpec(span=100.0, tol=1e-10, points=2001)


class DegenerateModesWarning(UserWarning):
    """The slow and fast modes are too close to tell apart reliably."""


class FitWindowError(ValueError):
    """The fit window has too few samples or invalid observable values."""


class SamplingTooCoarseError(ValueError):
    """Per-sample phase steps too close to pi; the frequency would alias."""


# ---------------------------------------------------------------------------
# host elimination identity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EliminationResult:
    """Outcome of adiabatically eliminating the host oscillator.

    ell is the local-field factor implied by the host pole; effective is
    the renormalized parameter set (None when Re(ell) <= 0, where the
    effective model is not defined); the residuals measure how exactly
    the microscopic couplings reduce to the ell-renormalized model.
    """

    ell: complex
    effective: EffectiveParams | None
    drive_residual: float
    coherence_residual: float

    @property
    def residual(self) -> float:
        """Worst normalized residual of the two elimination identities."""
        return max(self.drive_residual, self.coherence_residual)


def elimination_residuals(*, ell: complex, dipole_ratio: float,
                          host_pole: complex,
                          coupling_host_to_emitter: complex,
                          coupling_emitter_to_host: complex,
                          eps_a: float, gamma_a: float) -> tuple[float, float]:
    """Normalized residuals of the two elimination identities.

    Identity (i), drive renormalization: 1 + C_a*rho/alpha = ell.
    Identity (ii), coherence renormalization:
    C_a*C_b/alpha = -(ell - 1)*(-i*eps_a + gamma_a/2), which under
    w -> -1 renormalizes the NDD coupling to ell*eps_a and the decay to
    ell*gamma_a.

    Residuals are |lhs - rhs| / max(1, |lhs|, |rhs|), so they stay
    comparable to the 1e-12 threshold even when |ell| is huge (a nearly
    resonant, weakly damped host).  A corrupted coupling coefficient
    shows up as a residual many orders of magnitude above threshold.
    """
    lhs_drive = 1.0 + coupling_host_to_emitter * dipole_ratio / host_pole
    drive = (abs(lhs_drive - ell)
             / max(1.0, abs(lhs_drive), abs(ell)))
    lhs_coh = (coupling_host_to_emitter * coupling_emitter_to_host
               / host_pole)
    rhs_coh = -(ell - 1.0) * complex(0.5 * gamma_a, -eps_a)
    coherence = (abs(lhs_coh - rhs_coh)
                 / max(1.0, abs(lhs_coh), abs(rhs_coh)))
    return drive, coherence


def eliminate_host(p: MicroscopicParams) -> EliminationResult:
    """Eliminate the host oscillator and verify the reduction is exact.

    The factor is computed by the shared pole formula
    (:func:`lfbloch.medium.local_field_factor`), then the microscopic
    couplings are checked against the two renormalization identities.
    Residuals above 1e-12 signal corrupted coefficients.

    Examples
    --------
    >>> from lfbloch.dynamics import EmitterParams, MicroscopicParams
    >>> from lfbloch.medium import HostSpecies
    >>> p = MicroscopicParams(emitter=EmitterParams(),
    ...                       host=HostSpecies(10.0, 10.0, 4.0))
    >>> res = eliminate_host(p)
    >>> round(res.ell.real, 6), round(res.ell.imag, 6)
    (1.49505, -0.049505)
    >>> res.residual <= 1e-12
    True
    """
    ell = local_field_factor(p.host).ell
    drive, coherence = elimination_residuals(
        ell=ell,
        dipole_ratio=p.dipole_ratio,
        host_pole=p.host_pole,
        coupling_host_to_emitter=p.coupling_host_to_emitter,
        coupling_emitter_to_host=p.coupling_emitter_to_host,
        eps_a=p.emitter.eps_a,
        gamma_a=p.emitter.gamma_a,
    )
    effective = EffectiveParams(emitter=p.emitter, ell=ell) \
        if ell.real > 0.0 else None
    return EliminationResult(ell=ell, effective=effective,
                             drive_residual=drive,
                             coherence_residual=coherence)


# ---------------------------------------------------------------------------
# eigenvalues of the weak-excitation (w = -1) linearization
# ---------------------------------------------------------------------------

def coupled_mode_eigenvalues(
        p: MicroscopicParams) -> tuple[complex, complex]:
    """Both eigenvalues of the coupled (s, beta) system at w = -1.

    Roots of lambda^2 - (A + alpha)*lambda + (A*alpha + C_a*C_b) = 0, the
    eigenvalues of ``p.linear_part`` = [[A, -C_a], [C_b, alpha]] with
    A = i*delta_a + i*eps_a - gamma_a/2 (the uncoupled s eigenvalue),
    returned as (slow, fast) where slow minimizes |lambda - A|.  The
    quadratic is solved in the numerically stable form (sign-matched
    square root, then the product of roots) so the slow root does not
    lose digits when |alpha| >> |A|.

    Warns
    -----
    DegenerateModesWarning
        When |discriminant| < 1e-9: the slow/fast labels are unreliable.
    """
    (a_pole, minus_c_a), (c_b, alpha) = p.linear_part
    c_ab = -minus_c_a * c_b
    b = a_pole + alpha
    c = a_pole * alpha + c_ab
    disc = b * b - 4.0 * c
    if abs(disc) < DEGENERACY_THRESHOLD:
        warnings.warn(
            f"coupled modes nearly degenerate: |discriminant| = "
            f"{abs(disc):.3g} < {DEGENERACY_THRESHOLD:g}; slow/fast "
            f"labels are unreliable",
            DegenerateModesWarning,
            stacklevel=2,
        )
    if c_ab == 0:
        # decoupled: the emitter pole is a root exactly
        return a_pole, alpha
    sq = cmath.sqrt(disc)
    if (b.conjugate() * sq).real < 0.0:
        sq = -sq
    q = 0.5 * (b + sq)
    roots = (q, c / q) if q != 0 else (0.5 * sq, -0.5 * sq)
    if abs(roots[0] - a_pole) <= abs(roots[1] - a_pole):
        return roots
    return roots[1], roots[0]


def slow_eigenvalue(p: MicroscopicParams) -> complex:
    """Exact decay/shift of the emitter-like mode at weak excitation.

    -Re gives the coherence decay rate and Im the oscillation frequency
    of s(t) once the fast host transient has died out.

    Examples
    --------
    >>> from lfbloch.dynamics import EmitterParams, MicroscopicParams
    >>> from lfbloch.medium import HostSpecies
    >>> p = MicroscopicParams(emitter=EmitterParams(),
    ...                       host=HostSpecies(10.0, 10.0, 4.0))
    >>> lam = slow_eigenvalue(p)
    >>> round(lam.real, 6), round(lam.imag, 6)
    (-0.749219, 0.015598)
    """
    return coupled_mode_eigenvalues(p)[0]


def predicted_slow_eigenvalue(ell: complex, e: EmitterParams) -> complex:
    """Effective-model coherence eigenvalue i*delta_a + i*ell*eps_a - ell*gamma_a/2.

    Its negative real part, Re(ell)*gamma_a/2 + Im(ell)*eps_a, is the
    predicted coherence decay; its imaginary part carries the level shift
    Re(ell)*eps_a - Im(ell)*gamma_a/2 relative to delta_a.  In the dilute
    limit eps_a -> 0 the decay is Re(ell)*gamma_a/2 (half the renormalized
    population rate Re(ell)*gamma_a) and the shift is -Im(ell)*gamma_a/2.
    """
    ell = complex(ell)
    return 1j * e.delta_a + 1j * ell * e.eps_a - 0.5 * ell * e.gamma_a


# ---------------------------------------------------------------------------
# rate and frequency extraction from trajectories
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FitResult:
    """Least-squares line-fit outcome on a trajectory window.

    rate is -d log(observable)/dt (nan for frequency fits); frequency is
    d arg(s)/dt (nan for decay fits); residual is the RMS misfit of the
    fitted line.
    """

    rate: float
    frequency: float
    residual: float
    window: tuple[float, float]
    n_samples: int


def default_fit_window(rate_guess: float) -> tuple[float, float]:
    """Window [2/rate, 6/rate]: past the fast transient, before noise.

    rate_guess is typically -Re(predicted_slow_eigenvalue(...)).
    """
    if not (math.isfinite(rate_guess) and rate_guess > 0.0):
        raise ValueError(f"rate_guess must be positive and finite, "
                         f"got {rate_guess!r}")
    return 2.0 / rate_guess, 6.0 / rate_guess


def _window(span: float, count: int,
            window: tuple[float, float] | None) -> tuple:
    """The samples of a trajectory's grid ``np.linspace(0.0, span,
    count)`` inside the closed window [a, b]: their slice lo:hi, their
    times, (a, b) and their number, found by the grid's arithmetic with
    no grid built.  hi counts the points at most b and lo those at most
    the float below a, by ``ode._index``, which is ``searchsorted`` on
    the built grid ("right" at b, "left" at a); the times are the
    points lo:hi, with linspace's bits, by ``ode._times`` as dense
    output computes them.  The grid of an integrated run has 2 or more
    strictly rising points (solve checks it), so the slice holds exactly
    the samples of the mask ``(times >= a) & (times <= b)``."""
    if window is None:
        window = (0.0, span)
    a, b = float(window[0]), float(window[1])
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise FitWindowError(f"invalid fit window ({a!r}, {b!r})")
    last = count - 1
    step = span / last
    lo = ode._index(math.nextafter(a, -math.inf), 0.0, step, last, span)
    hi = ode._index(b, 0.0, step, last, span)
    n = hi - lo
    if n < _MIN_FIT_SAMPLES:
        raise FitWindowError(
            f"fit window [{a:g}, {b:g}] contains {n} samples; "
            f"need >= {_MIN_FIT_SAMPLES}"
        )
    t = ode._times(np.arange(lo, hi, dtype=float), 0.0, step, last, span)
    return slice(lo, hi), t, (a, b), n


def _line(t: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """The least-squares line through (t, y): its slope and intercept.

    Centred closed form: slope = sum((t - tm)*(y - ym)) / sum((t - tm)^2)
    about the means tm and ym, intercept = ym - slope*tm.  Every sum is
    an ``np.add.reduce`` over a contiguous float64 array, whose order
    numpy fixes in its own loop, so the bits do not depend on the BLAS
    or LAPACK kernel.  ``_window`` admits only 20 or more strictly
    increasing times; times so close together that the mean square of
    their deviations is below the smallest normal float (the squares
    then lose bits to gradual underflow, or underflow to 0), or so far
    apart that the squares overflow, raise FitWindowError.
    """
    n = len(t)
    t_mean = np.add.reduce(t) / n
    y_mean = np.add.reduce(y) / n
    dt = t - t_mean
    sxx = np.add.reduce(dt * dt)
    low = n * _SMALLEST_NORMAL
    if not low <= sxx < math.inf:
        raise FitWindowError(
            f"fit window times from {t[0]:g} to {t[-1]:g} are too close "
            f"together or too far apart for a line: their squared "
            f"deviations sum to {sxx:g}, outside [{low:g}, inf) for {n} "
            f"samples"
        )
    slope = np.add.reduce(dt * (y - y_mean)) / sxx
    return float(slope), float(y_mean - slope * t_mean)


def fit_decay(traj: Trajectory, observable: str = "w_plus_1",
              window: tuple[float, float] | None = None) -> FitResult:
    """Fit log(observable) to a line; the rate is minus the slope.

    observable is "w_plus_1" (population above the ground state, decaying
    at the full rate) or "abs_s" (coherence magnitude, decaying at half
    the rate for a free emitter).  The observable must be strictly
    positive on the window and the window must hold at least 20 samples.
    The window is one slice of the samples, and its times, found by the
    arithmetic of the trajectory's grid (``_window``): no grid is built,
    and the slice relies on Trajectory's strictly increasing times.  The
    line is the centred closed-form least-squares line of ``_line``,
    whose sums are taken in numpy's fixed order.

    Examples
    --------
    A free effective-model decay with ell = 1.4 fits back the
    renormalized population rate Re(ell)*gamma_a = 1.4 to 1e-6 relative.
    """
    if observable not in ("w_plus_1", "abs_s"):
        raise ValueError(f"unknown observable {observable!r}; "
                         f"expected 'w_plus_1' or 'abs_s'")
    cut, t, window, n = _window(traj.span, len(traj.y), window)
    y = traj.w[cut] + 1.0 if observable == "w_plus_1" \
        else np.abs(traj.s_in(cut))
    if (y <= 0.0).any():
        raise FitWindowError(
            f"observable {observable!r} must be strictly positive on the "
            f"fit window (min = {float(np.min(y)):.3g})"
        )
    log_y = np.log(y)
    slope, intercept = _line(t, log_y)
    d = log_y - (slope * t + intercept)
    resid = math.sqrt(np.add.reduce(d * d) / n)
    return FitResult(rate=-slope, frequency=math.nan, residual=resid,
                     window=window, n_samples=n)


def fit_frequency(traj: Trajectory,
                  window: tuple[float, float] | None = None) -> FitResult:
    """Fit the unwrapped coherence phase arg(s(t)) to a line.

    The slope is the oscillation frequency (the level shift when
    delta_a = 0).  Per-sample phase steps close to pi cannot be unwrapped
    reliably, so steps beyond 0.95*pi raise SamplingTooCoarseError.  As
    in fit_decay, the window is one slice and its times, from the grid's
    arithmetic with no grid built (``_window``), which relies on
    Trajectory's strictly increasing times, and the line is ``_line``'s.
    """
    cut, t, window, n = _window(traj.span, len(traj.y), window)
    s = traj.s_in(cut)
    if (s == 0).any():
        raise FitWindowError("coherence vanishes inside the fit window; "
                             "its phase is undefined")
    phase = np.angle(s)
    wrapped_steps = np.mod(np.diff(phase) + math.pi, 2.0 * math.pi) - math.pi
    worst = float(np.max(np.abs(wrapped_steps)))
    if worst > _PHASE_STEP_LIMIT:
        raise SamplingTooCoarseError(
            f"phase advances {worst:.3f} rad per sample (limit "
            f"{_PHASE_STEP_LIMIT:.3f}); refine the output grid to avoid "
            f"frequency aliasing"
        )
    unwrapped = np.unwrap(phase)
    slope, intercept = _line(t, unwrapped)
    d = unwrapped - (slope * t + intercept)
    resid = math.sqrt(np.add.reduce(d * d) / n)
    return FitResult(rate=math.nan, frequency=slope, residual=resid,
                     window=window, n_samples=n)


# ---------------------------------------------------------------------------
# convergence in the timescale-separation parameter
# ---------------------------------------------------------------------------

def weak_excitation_run(p: MicroscopicParams, tol: float = 1e-10) -> tuple:
    """The ``(params, initial, integration)`` of a weak-excitation decay.

    Starts on the Bloch sphere at s = 1e-3, w = -sqrt(1 - 4*s^2),
    beta = 0 with the drive forced off, so s(t) relaxes onto the slow
    eigenmode; fitting |s| and arg(s) on [2, 6] decay times then measures
    the renormalized decay and shift.  The span, 6.5 predicted decay
    times, covers that fit window with margin; 1601 samples.  Integrate
    it with ``integrate(*run)`` or, with other runs, ``integrate_batch``:
    when the host pole is fast (|alpha| above
    ``lfbloch.dynamics.EXPONENTIAL_POLE`` gamma_a) the run is integrated
    by the exponential method, whose step is bounded by the nonlinear
    part rather than by the host pole, so large kappas stay affordable;
    its step count is measured, not flat, in |alpha| (see
    ``lfbloch.dynamics.integrate``).  Raises ``ValueError`` when the
    predicted slow mode does not decay, or when the host-like mode
    decays no faster than it (so that it would dominate |s| in the fit
    window).
    """
    ell = local_field_factor(p.host).ell
    rate_guess = -predicted_slow_eigenvalue(ell, p.emitter).real
    if not rate_guess > 0.0:
        raise ValueError(
            f"no decaying slow mode to observe: predicted coherence decay "
            f"= {rate_guess!r} <= 0"
        )
    # near-degenerate modes warn where the modes are reported, not here
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateModesWarning)
        slow, fast = coupled_mode_eigenvalues(p)
    if not -fast.real > -slow.real:
        raise ValueError(
            f"the host-like mode decays no faster than the emitter-like "
            f"one: decay {-fast.real!r} <= {-slow.real!r}, so it would "
            f"dominate the coherence in the fit window"
        )
    emitter = replace(p.emitter, drive=DriveEnvelope())
    params = MicroscopicParams(emitter=emitter, host=p.host)
    initial = SystemState(s=_WEAK_S0,
                          w=-math.sqrt(1.0 - 4.0 * _WEAK_S0 * _WEAK_S0),
                          beta=0j)
    return params, initial, IntegrationSpec(span=6.5 / rate_guess, tol=tol,
                                            points=_WEAK_POINTS)


def weak_excitation_trajectory(p: MicroscopicParams,
                               tol: float = 1e-10) -> Trajectory:
    """Free decay of a weakly excited emitter (:func:`weak_excitation_run`)."""
    return integrate(*weak_excitation_run(p, tol))


@dataclass(frozen=True)
class ConvergenceRow:
    """One kappa point: eigenvalue gap to the prediction and fit quality.

    eigenvalue_error is |lambda_exact - lambda_predicted|; fitted_rate is
    the coherence decay fitted from a microscopic weak-excitation run,
    fitted_rate_error its relative distance to the predicted decay, and
    fitted_shift the fitted oscillation frequency.
    """

    kappa: float
    eigenvalue_error: float
    fitted_rate: float
    fitted_rate_error: float
    fitted_shift: float


def convergence_study(base: MicroscopicParams,
                      kappas) -> list[ConvergenceRow]:
    """Scale the host pole by kappa and watch the prediction converge.

    The scaling (delta_b, eps_b, gamma_b) -> kappa*(delta_b, eps_b,
    gamma_b) leaves ell invariant while pushing the host pole away, so
    |lambda_exact - lambda_pred| must shrink as O(1/kappa): doubling
    kappa halves the error.  Each row also refits the decay and shift
    from a full nonlinear microscopic run; the runs of all kappas are
    integrated as one batch, the runs with a fast host pole by the
    exponential method (see :func:`weak_excitation_run`), so kappa has
    no upper limit: the claim can be followed over many decades.

    kappas must be positive, finite and strictly increasing.  Rows come
    back in kappa order.
    """
    kappas = [float(k) for k in kappas]
    if not kappas:
        raise ValueError("need at least one kappa")
    if any(not (math.isfinite(k) and k > 0.0) for k in kappas):
        raise ValueError(f"kappas must be positive and finite, got {kappas}")
    if any(b <= a for a, b in zip(kappas, kappas[1:])):
        raise ValueError(f"kappas must be strictly increasing, got {kappas}")

    host = base.host
    scaled = [MicroscopicParams(emitter=base.emitter, host=HostSpecies(
        delta_b=k * host.delta_b, eps_b=k * host.eps_b,
        gamma_b=k * host.gamma_b)) for k in kappas]

    ell = local_field_factor(host).ell
    lam_pred = predicted_slow_eigenvalue(ell, base.emitter)
    rate_pred = -lam_pred.real
    window = default_fit_window(rate_pred)

    trajectories = integrate_batch([weak_excitation_run(p_k)
                                    for p_k in scaled])
    rows = []
    for k, p_k, traj in zip(kappas, scaled, trajectories):
        if isinstance(traj, Exception):
            raise traj
        lam = slow_eigenvalue(p_k)
        rate = fit_decay(traj, observable="abs_s", window=window).rate
        shift = fit_frequency(traj, window=window).frequency
        rows.append(ConvergenceRow(
            kappa=k,
            eigenvalue_error=abs(lam - lam_pred),
            fitted_rate=rate,
            fitted_rate_error=abs(rate - rate_pred) / rate_pred,
            fitted_shift=shift,
        ))
    return rows


# ---------------------------------------------------------------------------
# the built-in verification battery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    """One named pass/fail verification check with its measured value."""

    name: str
    passed: bool
    value: float
    threshold: float
    detail: str


_BATTERY_SEED = 20260814
_IDENTITY_DRAWS = 100


def _canonical_params() -> MicroscopicParams:
    return MicroscopicParams(
        emitter=EmitterParams(delta_a=0.0, eps_a=0.0, gamma_a=1.0),
        host=HostSpecies(delta_b=10.0, eps_b=10.0, gamma_b=4.0),
    )


def elimination_identity_battery() -> float:
    """Worst elimination residual over a randomized parameter battery.

    100 parameter sets are drawn with a fixed seed from eps_b in [0, 50],
    gamma_b in (0, 20], delta_b in [-200, 200], eps_a in [0, 10] with
    gamma_a = 1; the identities are pure algebra, so the residual must
    stay below 1e-12 everywhere.
    """
    rng = np.random.default_rng(_BATTERY_SEED)
    worst = 0.0
    for _ in range(_IDENTITY_DRAWS):
        emitter = EmitterParams(delta_a=0.0, eps_a=rng.uniform(0.0, 10.0),
                                gamma_a=1.0)
        host = HostSpecies(delta_b=rng.uniform(-200.0, 200.0),
                           eps_b=rng.uniform(0.0, 50.0),
                           gamma_b=20.0 * (1.0 - rng.random()))
        res = eliminate_host(MicroscopicParams(emitter=emitter, host=host))
        worst = max(worst, res.residual)
    return worst


def conservation_battery() -> list[tuple[str, float]]:
    """Bloch-norm drift of the undamped effective model per drive kind.

    Each scenario runs gamma_a = 0 with real ell, where w^2 + 4|s|^2 is
    exactly conserved by the equations; the returned drift is pure
    integration error (span 100, tol 1e-10, 2001 samples).  The drive
    rates are of order 0.5/gamma_a or slower so the accumulated drift
    over the span stays within the 100*tol conservation bound (the
    global error of Dormand-Prince 8(5,3) at tol, 1.8e-9 at most over
    these drives, grows with the step count, which grows with the
    drive frequency).
    """
    scenarios = [
        ("off", 0.5, DriveEnvelope()),
        ("constant", 0.25,
         DriveEnvelope(kind="constant", amplitude=0.2 + 0.1j)),
        ("pulse", 0.3,
         DriveEnvelope(kind="pulse", amplitude=0.4, t_on=10.0, t_off=30.0)),
    ]
    initial = SystemState(s=0.25 + 0.1j,
                          w=math.sqrt(1.0 - 4.0 * (0.0625 + 0.01)))
    runs = []
    for _, eps_a, drive in scenarios:
        emitter = EmitterParams(delta_a=0.15, eps_a=eps_a, gamma_a=0.0,
                                drive=drive)
        runs.append((EffectiveParams(emitter=emitter, ell=1.3 + 0j), initial,
                     _CONSERVATION_RUN))
    drifts = []
    for (name, _, _), run in zip(scenarios, integrate_batch(runs)):
        if isinstance(run, Exception):
            raise run
        norm = run.bloch_norm
        drift = float(np.max(np.abs(norm - norm[0])))
        drifts.append((name, drift))
    return drifts


def _check(name: str, threshold: float, fn) -> CheckResult:
    """Run one battery item, converting exceptions into failed checks.

    fn returns (value, detail), and the check passes when value is at
    most threshold (NaN fails), or (value, detail, passed) by a rule of
    its own.
    """
    try:
        value, detail, *rule = fn()
    except Exception as exc:  # noqa: BLE001 - report, never crash the battery
        return CheckResult(name=name, passed=False, value=math.nan,
                           threshold=threshold,
                           detail=f"raised {type(exc).__name__}: {exc}")
    return CheckResult(name=name, passed=rule[0] if rule
                       else value <= threshold, value=value,
                       threshold=threshold, detail=detail)


def run_battery() -> list[CheckResult]:
    """Run the built-in verification battery and report each check.

    Checks, in order: the elimination identity residual over 100 random
    parameter sets; the canonical-scenario coherence-decay fit against
    the exact eigenvalue and against the effective-model prediction; the
    kappa-convergence error halving plus the largest-kappa fitted rate
    and shift; and Bloch-sphere conservation of the undamped effective
    model under each drive kind.
    """
    checks: list[CheckResult] = []

    def identity():
        return elimination_identity_battery(), \
            "max elimination residual over 100 random parameter sets"

    checks.append(_check("elimination-identity", RESIDUAL_THRESHOLD,
                         identity))

    canonical = _canonical_params()
    ell = local_field_factor(canonical.host).ell
    lam_pred = predicted_slow_eigenvalue(ell, canonical.emitter)
    # The kappa = 1 run of the study is the canonical weak-excitation
    # run, so its row also serves the two canonical decay checks.
    try:
        study = convergence_study(canonical, kappas=(1.0, 2.0, 4.0, 8.0))
    except Exception as exc:  # noqa: BLE001 - each check using it fails
        study = exc

    def study_rows() -> list[ConvergenceRow]:
        if isinstance(study, Exception):
            raise study
        return study

    def decay_vs_eigenvalue():
        rate = study_rows()[0].fitted_rate
        lam = slow_eigenvalue(canonical)
        return abs(rate - (-lam.real)) / (-lam.real), \
            f"fitted {rate:.6f} vs exact eigenvalue {-lam.real:.6f}"

    checks.append(_check("coherence-decay-vs-eigenvalue", 1e-3,
                         decay_vs_eigenvalue))

    def decay_vs_prediction():
        row = study_rows()[0]
        return row.fitted_rate_error, \
            f"fitted {row.fitted_rate:.6f} vs Re(ell)*gamma_a/2 = " \
            f"{-lam_pred.real:.6f}"

    checks.append(_check("coherence-decay-vs-prediction", 5e-3,
                         decay_vs_prediction))

    def convergence():
        # the error must fall strictly, each ratio within [4/3, 3]
        errors = [row.eigenvalue_error for row in study_rows()]
        ratios = [a / b for a, b in zip(errors, errors[1:])]
        ok = (all(a > b for a, b in zip(errors, errors[1:]))
              and all(4.0 / 3.0 <= r <= 3.0 for r in ratios))
        detail = ("error halving ratios " +
                  ", ".join(f"{r:.3f}" for r in ratios) +
                  " (want within [1.33, 3])")
        return min(ratios), detail, ok

    checks.append(_check("adiabatic-convergence", 4.0 / 3.0, convergence))

    def largest_kappa_rate():
        row = study_rows()[-1]
        return row.fitted_rate_error, \
            f"kappa = {row.kappa:g}: fitted coherence decay " \
            f"{row.fitted_rate:.6f} vs predicted {-lam_pred.real:.6f}"

    checks.append(_check("largest-kappa-rate", 2e-2, largest_kappa_rate))

    def largest_kappa_shift():
        row = study_rows()[-1]
        shift_pred = -lam_pred.imag if lam_pred.imag < 0 else lam_pred.imag
        return abs(row.fitted_shift - shift_pred) / shift_pred, \
            f"kappa = {row.kappa:g}: fitted shift " \
            f"{row.fitted_shift:.6f} vs |Im(ell)|*gamma_a/2 = " \
            f"{shift_pred:.6f}"

    checks.append(_check("largest-kappa-shift", 1e-1, largest_kappa_shift))

    def conservation():
        return max(drift for _, drift in conservation_battery()), \
            "max |Delta(w^2 + 4|s|^2)| over off/constant/pulse drives, " \
            "span 100, tol 1e-10"

    # 100 tol of the runs: 100.0 * 1e-10 is 1e-8 exactly
    checks.append(_check("undamped-conservation",
                         100.0 * _CONSERVATION_RUN.tol, conservation))

    return checks
