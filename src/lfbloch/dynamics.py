"""Semiclassical Bloch models of a driven two-level emitter in a host medium.

Two mean-field models of the same system, written in one sign convention
so trajectories are directly comparable.

Model B (microscopic) keeps the host explicitly: emitter coherence s,
inversion w, and host oscillator amplitude beta evolve under

    ds/dt    = i*delta_a*s - i*eps_a*w*s + (Omega(t)/2)*w - (gamma_a/2)*s
               + C_a*w*beta
    dbeta/dt = alpha*beta - rho*Omega(t)/2 + C_b*s
    dw/dt    = -gamma_a*(w + 1)
               - 2*Re[(Omega(t) + 2*C_a*beta - 2i*eps_a*s) * conj(s)]

with the host pole alpha = i*(delta_b + eps_b + i*gamma_b/2), dipole ratio
rho = sqrt(gamma_b/gamma_a) (both species radiate at the drive frequency),
and cross couplings C_a = i*eps_b/rho, C_b = i*rho*eps_a - rho*gamma_a/2.
The radiative part of the cross coupling sits only in C_b; that asymmetry
makes the adiabatic elimination of beta exact at weak excitation.

Model A (effective) summarizes the host by the complex local-field factor
ell = 1 + eps_b/(delta_b + eps_b + i*gamma_b/2):

    ds/dt = i*delta_a*s - i*ell*eps_a*w*s + (ell*Omega(t)/2)*w
            - (ell*gamma_a/2)*s
    dw/dt = -Re(ell)*gamma_a*(w + 1) - 2*Re[Omega_eff * conj(s)],
    Omega_eff = ell*Omega(t) - 2i*ell*eps_a*s

so drive, NDD coupling, and decay are all renormalized by ell and the
population decay rate becomes Re(ell)*gamma_a.

Units are scaled: hbar = 1 and every rate is in units of the emitter decay
rate gamma_a (kept explicit so undamped gamma_a = 0 runs are possible for
model A).

Both right-hand sides act on the real state vector the integrator
advances: y = (Re s, Im s, w) for model A and
y = (Re s, Im s, w, Re beta, Im beta) for model B.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from lfbloch import ode
from lfbloch.medium import HostSpecies

__all__ = [
    "BlochNormWarning",
    "DriveEnvelope",
    "EffectiveParams",
    "EmitterParams",
    "IntegrationSpec",
    "MicroscopicParams",
    "SystemState",
    "Trajectory",
    "effective_rhs",
    "microscopic_rhs",
    "integrate",
    "integrate_batch",
]

TOL_MIN = 1e-12
TOL_MAX = 1e-4

_DRIVE_KINDS = ("off", "constant", "pulse")


class BlochNormWarning(UserWarning):
    """The sampled trajectory left the Bloch sphere beyond 1 + 100*tol."""


@dataclass(frozen=True)
class DriveEnvelope:
    """Classical drive Omega(t): off, constant, or a rectangular pulse.

    The amplitude is the (possibly complex) Rabi rate in gamma_a units;
    the pulse is on for t_on <= t < t_off.
    """

    kind: str = "off"
    amplitude: complex = 0j
    t_on: float = 0.0
    t_off: float = math.inf

    def __post_init__(self) -> None:
        if self.kind not in _DRIVE_KINDS:
            raise ValueError(f"drive kind must be one of {_DRIVE_KINDS}, "
                             f"got {self.kind!r}")
        object.__setattr__(self, "amplitude", complex(self.amplitude))
        if not cmath.isfinite(self.amplitude):
            raise ValueError(f"drive amplitude must be finite, "
                             f"got {self.amplitude!r}")
        if self.kind == "pulse":
            if not math.isfinite(self.t_on):
                raise ValueError(f"pulse t_on must be finite, "
                                 f"got {self.t_on!r}")
            if not self.t_on < self.t_off:
                raise ValueError(f"pulse window requires t_on < t_off, "
                                 f"got [{self.t_on!r}, {self.t_off!r}]")

    def value(self, t: float) -> complex:
        """Rabi amplitude at time t."""
        if self.kind == "off":
            return 0j
        if self.kind == "constant":
            return self.amplitude
        return self.amplitude if self.t_on <= t < self.t_off else 0j

    def breakpoints(self) -> tuple[float, ...]:
        """Times where the envelope is discontinuous."""
        if self.kind == "pulse":
            return (self.t_on, self.t_off)
        return ()


@dataclass(frozen=True)
class EmitterParams:
    """Two-level emitter parameters in gamma_a units.

    gamma_a is kept explicit (normally 1 in scaled units); gamma_a = 0 is
    accepted so the effective model can run undamped conservation checks.
    """

    delta_a: float = 0.0
    eps_a: float = 0.0
    gamma_a: float = 1.0
    drive: DriveEnvelope = field(default_factory=DriveEnvelope)

    def __post_init__(self) -> None:
        for name in ("delta_a", "eps_a", "gamma_a"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, "
                                 f"got {getattr(self, name)!r}")
        if self.eps_a < 0.0:
            raise ValueError(f"eps_a must be >= 0, got {self.eps_a!r}")
        if self.gamma_a < 0.0:
            raise ValueError(f"gamma_a must be >= 0, got {self.gamma_a!r}")
        if not isinstance(self.drive, DriveEnvelope):
            raise ValueError("drive must be a DriveEnvelope")


@dataclass(frozen=True)
class EffectiveParams:
    """Model A parameters: emitter plus the complex local-field factor."""

    emitter: EmitterParams
    ell: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "ell", complex(self.ell))
        if not cmath.isfinite(self.ell):
            raise ValueError(f"ell must be finite, got {self.ell!r}")
        if not self.ell.real > 0.0:
            raise ValueError(
                f"effective model requires Re(ell) > 0 (decaying coherence), "
                f"got ell = {self.ell!r}"
            )


@dataclass(frozen=True)
class MicroscopicParams:
    """Model B parameters: emitter plus explicit host oscillator.

    The dipole ratio and the cross couplings are derived, not free: both
    species radiate at the drive frequency, which fixes
    rho = sqrt(gamma_b/gamma_a); the couplings follow from requiring that
    eliminating the host reproduces the ell-renormalized effective model
    exactly.  They are computed once per parameter object, on first use.
    """

    emitter: EmitterParams
    host: HostSpecies

    def __post_init__(self) -> None:
        if not self.emitter.gamma_a > 0.0:
            raise ValueError("microscopic model requires gamma_a > 0 "
                             "(the dipole ratio is sqrt(gamma_b/gamma_a))")
        if not self.host.gamma_b > 0.0:
            raise ValueError("microscopic model requires gamma_b > 0 "
                             "(a non-radiating host has no dipole moment)")

    @cached_property
    def dipole_ratio(self) -> float:
        """rho = sqrt(gamma_b/gamma_a)."""
        return math.sqrt(self.host.gamma_b / self.emitter.gamma_a)

    @cached_property
    def host_pole(self) -> complex:
        """alpha = i*(delta_b + eps_b + i*gamma_b/2)."""
        return 1j * self.host.pole_denominator

    @cached_property
    def coupling_host_to_emitter(self) -> complex:
        """C_a = i*eps_b/rho (host reaction field acting on the emitter)."""
        return 1j * self.host.eps_b / self.dipole_ratio

    @cached_property
    def coupling_emitter_to_host(self) -> complex:
        """C_b = i*rho*eps_a - rho*gamma_a/2 (emitter field driving the host)."""
        rho = self.dipole_ratio
        return 1j * rho * self.emitter.eps_a - rho * self.emitter.gamma_a / 2.0


@dataclass(frozen=True)
class SystemState:
    """Initial mean-field state: coherence s, inversion w, host amplitude beta.

    beta is None for the effective model.
    """

    s: complex
    w: float
    beta: complex | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "s", complex(self.s))
        object.__setattr__(self, "w", float(self.w))
        if self.beta is not None:
            object.__setattr__(self, "beta", complex(self.beta))


@dataclass
class Trajectory:
    """Sampled solution plus integrator statistics.

    times are strictly increasing; s/w (and beta for model B) hold one
    sample per time.  bloch_norm_max is the largest sampled w^2 + 4|s|^2,
    a diagnostic for leaving the Bloch sphere.
    """

    times: np.ndarray
    s: np.ndarray
    w: np.ndarray
    beta: np.ndarray | None
    model: str
    tol: float
    n_accepted: int
    n_rejected: int
    n_rhs: int
    bloch_norm_max: float

    @property
    def bloch_norm(self) -> np.ndarray:
        """w^2 + 4|s|^2 on the sample grid (<= 1 inside the sphere)."""
        return self.w**2 + 4.0 * np.abs(self.s) ** 2


def effective_rhs(t: float, y: np.ndarray, p: EffectiveParams) -> np.ndarray:
    """Time derivative of model A; see the module docstring for the form.

    y = (Re s, Im s, w); returns (Re ds/dt, Im ds/dt, dw/dt).
    """
    em = p.emitter
    ell = p.ell
    s_re, s_im, w = y.tolist()
    s = complex(s_re, s_im)
    om = em.drive.value(t)
    ds = (1j * em.delta_a * s - 1j * ell * em.eps_a * w * s
          + 0.5 * ell * om * w - 0.5 * ell * em.gamma_a * s)
    om_eff = ell * om - 2j * ell * em.eps_a * s
    dw = (-ell.real * em.gamma_a * (w + 1.0)
          - 2.0 * (om_eff * s.conjugate()).real)
    return np.array((ds.real, ds.imag, dw))


def microscopic_rhs(t: float, y: np.ndarray,
                    p: MicroscopicParams) -> np.ndarray:
    """Time derivative of model B; see the module docstring for the form.

    y = (Re s, Im s, w, Re beta, Im beta); returns their time derivatives
    in the same order.
    """
    em = p.emitter
    s_re, s_im, w, beta_re, beta_im = y.tolist()
    s = complex(s_re, s_im)
    beta = complex(beta_re, beta_im)
    rho = p.dipole_ratio
    c_a = p.coupling_host_to_emitter
    c_b = p.coupling_emitter_to_host
    om = em.drive.value(t)
    ds = (1j * em.delta_a * s - 1j * em.eps_a * w * s + 0.5 * om * w
          - 0.5 * em.gamma_a * s + c_a * w * beta)
    dbeta = p.host_pole * beta - 0.5 * rho * om + c_b * s
    dw = (-em.gamma_a * (w + 1.0)
          - 2.0 * ((om + 2.0 * c_a * beta - 2j * em.eps_a * s)
                   * s.conjugate()).real)
    return np.array((ds.real, ds.imag, dw, dbeta.real, dbeta.imag))


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntegrationSpec:
    """Span, tolerance, and output-grid size of one integration."""

    span: float
    tol: float = 1e-10
    points: int = 801

    def __post_init__(self) -> None:
        if not (math.isfinite(self.span) and self.span > 0.0):
            raise ValueError(f"span must be positive and finite, "
                             f"got {self.span!r}")
        if not (TOL_MIN <= self.tol <= TOL_MAX):
            raise ValueError(f"tol must lie in [{TOL_MIN:g}, {TOL_MAX:g}], "
                             f"got {self.tol!r}")
        if self.points < 2:
            raise ValueError(f"points must be >= 2, got {self.points!r}")


def integrate(params, initial: SystemState,
              integration: IntegrationSpec) -> Trajectory:
    """Integrate model A or B over [0, span] in gamma_a units.

    Adaptive embedded Runge-Kutta (Dormand-Prince 5(4)) with per-step
    error control on every real component at rtol = atol = tol, dense
    output on the sample grid, and segmentation at drive discontinuities.
    Deterministic for identical inputs.

    The run goes through the code of :func:`integrate_batch` as a batch
    of one: ``ode.solve`` is called once per drive segment with a (1, n)
    state, so a run yields the same bits and counters alone or in any
    batch.  Here a failure raises; ``integrate_batch`` returns it in the
    run's entry and goes on with the other runs.

    Parameters
    ----------
    params : EffectiveParams or MicroscopicParams
        EffectiveParams integrates model A (s, w); MicroscopicParams
        integrates model B (s, w, beta).
    initial : SystemState
        Initial condition; must start on or inside the Bloch sphere
        (within 100*tol) and carry beta exactly for model B.
    integration : IntegrationSpec
        Span, tolerance, and size of the uniform sample grid.

    Raises
    ------
    lfbloch.ode.StepSizeUnderflowError
        If the host pole is too stiff for the explicit method at this
        tolerance (loosen tol or reduce |alpha|), or if the right-hand
        side went non-finite; the message says which.
    ValueError
        If the initial state does not match the model or lies outside
        the Bloch sphere.

    Warns
    -----
    BlochNormWarning
        If any sampled state exceeds w^2 + 4|s|^2 = 1 + 100*tol.
    """
    (result,) = _integrate_runs([(params, initial, integration)])
    if isinstance(result, Exception):
        raise result
    _warn_if_outside_sphere(result)
    return result


def integrate_batch(runs) -> list:
    """Integrate many ``(params, initial, integration)`` runs in lockstep.

    Every run is integrated exactly as :func:`integrate` integrates it
    alone: same steps, same counters, same bits.  Drive segment k of
    every run that has one goes through one batched ``ode.solve`` call,
    so runs with different spans, tolerances, grid sizes, models and
    drives can share a batch.

    Returns
    -------
    list
        One entry per run, in order: its Trajectory, or the ValueError
        or ``lfbloch.ode.StepSizeUnderflowError`` that ``integrate``
        would raise for it (with the same message).  A failing run does
        not stop the others.  The trajectories of one batch may share a
        sample buffer, which stays alive while any of them does.

    Warns
    -----
    BlochNormWarning
        For each trajectory that leaves the Bloch sphere, as
        :func:`integrate` does.
    """
    results = _integrate_runs(runs)
    for result in results:
        if isinstance(result, Trajectory):
            _warn_if_outside_sphere(result)
    return results


def _warn_if_outside_sphere(traj: Trajectory) -> None:
    if traj.bloch_norm_max > 1.0 + 100.0 * traj.tol:
        warnings.warn(
            f"trajectory left the Bloch sphere: max(w^2 + 4|s|^2) = "
            f"{traj.bloch_norm_max:.6g} > 1 + 100*tol",
            BlochNormWarning,
            stacklevel=3,  # the caller of integrate or integrate_batch
        )


class _Run:
    """One run of a batch: its right-hand side, grid and progress."""

    def __init__(self, params, initial: SystemState,
                 integration: IntegrationSpec):
        self.model = "A" if isinstance(params, EffectiveParams) else "B"
        self.tol = tol = integration.tol
        if self.model == "A" and initial.beta is not None:
            raise ValueError("model A initial state must not carry beta")
        if self.model == "B" and initial.beta is None:
            raise ValueError("model B initial state must carry beta")
        norm = initial.w**2 + 4.0 * abs(initial.s) ** 2
        if not math.isfinite(norm) or norm > 1.0 + 100.0 * tol:
            raise ValueError(
                f"initial state lies outside the Bloch sphere: "
                f"w^2 + 4|s|^2 = {norm!r} > 1 + 100*tol"
            )
        span = integration.span
        self.times = np.linspace(0.0, span, integration.points)

        # The right-hand side is looked up as a module global on every
        # call, so a wrapper installed on lfbloch.dynamics sees each
        # evaluation.
        if self.model == "A":
            self.y = np.array([initial.s.real, initial.s.imag, initial.w])

            def rhs(t, y):
                return effective_rhs(t, y, params)
        else:
            self.y = np.array([initial.s.real, initial.s.imag, initial.w,
                               initial.beta.real, initial.beta.imag])

            def rhs(t, y):
                return microscopic_rhs(t, y, params)
        self.rhs = rhs

        drive = params.emitter.drive
        cuts = sorted({b for b in drive.breakpoints() if 0.0 < b < span})
        self.edges = [0.0, *cuts, span]
        self.samples = []  # the samples of each segment that has any
        self.n_accepted = self.n_rejected = self.n_rhs = 0

    def segment(self, k: int) -> tuple[bool, np.ndarray]:
        """Whether drive segment k holds samples, and its solver grid."""
        a, b = self.edges[k], self.edges[k + 1]
        times = self.times
        mask = (times >= a) & (times <= b) if a == 0.0 \
            else (times > a) & (times <= b)
        if np.any(mask):
            return True, times[mask]
        return False, np.array([b])

    def trajectory(self) -> Trajectory:
        # the segments' samples are consecutive slices of the grid
        y_out = self.samples[0] if len(self.samples) == 1 \
            else np.concatenate(self.samples)
        s = y_out[:, 0] + 1j * y_out[:, 1]
        w = y_out[:, 2]
        beta = y_out[:, 3] + 1j * y_out[:, 4] if self.model == "B" else None
        norm_max = float(np.max(w**2 + 4.0 * np.abs(s) ** 2))
        return Trajectory(times=self.times, s=s, w=w, beta=beta,
                          model=self.model, tol=self.tol,
                          n_accepted=self.n_accepted,
                          n_rejected=self.n_rejected, n_rhs=self.n_rhs,
                          bloch_norm_max=norm_max)


def _integrate_runs(runs) -> list:
    """integrate_batch without the Bloch-sphere warnings."""
    results: list = [None] * len(runs)
    prepared = []
    for k, (params, initial, integration) in enumerate(runs):
        try:
            prepared.append((k, _Run(params, initial, integration)))
        except ValueError as exc:
            results[k] = exc

    seg = 0
    while live := [(k, run) for k, run in prepared
                   if results[k] is None and seg < len(run.edges) - 1]:
        for model in ("A", "B"):  # one state size per solve
            group = [(k, run) for k, run in live if run.model == model]
            if group:
                _solve_segment(group, seg, results)
        seg += 1

    for k, run in prepared:
        if results[k] is None:
            results[k] = run.trajectory()
    return results


def _solve_segment(group, seg: int, results: list) -> None:
    """Advance every run of one model through its drive segment seg."""
    segments = [run.segment(seg) for _, run in group]
    res = ode.solve([run.rhs for _, run in group],
                    [run.edges[seg] for _, run in group],
                    [run.edges[seg + 1] for _, run in group],
                    [run.y for _, run in group],
                    [grid for _, grid in segments],
                    [run.tol for _, run in group],
                    [run.tol for _, run in group])
    n_accepted = res.n_accepted.tolist()
    n_rejected = res.n_rejected.tolist()
    n_rhs = res.n_rhs.tolist()
    for r, ((k, run), (sampled, _)) in enumerate(zip(group, segments)):
        if res.errors[r] is not None:
            results[k] = res.errors[r]
            continue
        if sampled:
            run.samples.append(res.row(r)[1])
        run.y = res.y_end[r]
        run.n_accepted += n_accepted[r]
        run.n_rejected += n_rejected[r]
        run.n_rhs += n_rhs[r]
