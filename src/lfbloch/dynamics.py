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
    "MicroscopicParams",
    "SystemState",
    "Trajectory",
    "effective_rhs",
    "microscopic_rhs",
    "integrate",
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

def _validate(model, params, initial, span, tol):
    model = str(model).upper()
    if model not in ("A", "B"):
        raise ValueError(f"model must be 'A' or 'B', got {model!r}")
    wanted = EffectiveParams if model == "A" else MicroscopicParams
    if not isinstance(params, wanted):
        raise ValueError(f"model {model} requires {wanted.__name__}, "
                         f"got {type(params).__name__}")
    if model == "A" and initial.beta is not None:
        raise ValueError("model A initial state must not carry beta")
    if model == "B" and initial.beta is None:
        raise ValueError("model B initial state must carry beta")
    if not (TOL_MIN <= tol <= TOL_MAX):
        raise ValueError(f"tol must lie in [{TOL_MIN}, {TOL_MAX}], "
                         f"got {tol!r}")
    if not (math.isfinite(span) and span > 0.0):
        raise ValueError(f"span must be positive and finite, got {span!r}")
    norm = initial.w**2 + 4.0 * abs(initial.s) ** 2
    if not math.isfinite(norm) or norm > 1.0 + 100.0 * tol:
        raise ValueError(
            f"initial state lies outside the Bloch sphere: "
            f"w^2 + 4|s|^2 = {norm!r} > 1 + 100*tol"
        )
    return model


def integrate(model: str, params, initial: SystemState, span: float,
              tol: float, n_points: int = 801,
              times: np.ndarray | None = None) -> Trajectory:
    """Integrate model A or B over [0, span] in gamma_a units.

    Adaptive embedded Runge-Kutta (Dormand-Prince 5(4)) with per-step
    error control on every real component at rtol = atol = tol, dense
    output on the sample grid, and segmentation at drive discontinuities.
    Deterministic for identical inputs.

    Parameters
    ----------
    model : {"A", "B"}
        "A" integrates EffectiveParams (s, w); "B" integrates
        MicroscopicParams (s, w, beta).
    initial : SystemState
        Initial condition; must start on or inside the Bloch sphere
        (within 100*tol) and carry beta exactly when model = "B".
    span : float
        Duration; the grid starts at t = 0.
    tol : float
        Error-control tolerance, within [1e-12, 1e-4].
    n_points : int
        Size of the uniform sample grid (ignored when ``times`` is given).
    times : ndarray, optional
        Explicit strictly increasing sample grid inside [0, span].

    Raises
    ------
    lfbloch.ode.StepSizeUnderflowError
        If the host pole is too stiff for the explicit method at this
        tolerance (loosen tol or reduce |alpha|), or if the right-hand
        side went non-finite; the message says which.
    ValueError
        On invalid model/parameter/state/grid combinations.

    Warns
    -----
    BlochNormWarning
        If any sampled state exceeds w^2 + 4|s|^2 = 1 + 100*tol.
    """
    model = _validate(model, params, initial, span, tol)
    if times is None:
        if n_points < 2:
            raise ValueError(f"n_points must be >= 2, got {n_points!r}")
        times = np.linspace(0.0, span, n_points)
    else:
        times = np.asarray(times, dtype=float)
        if times.size == 0:
            raise ValueError("empty sample grid")
        if np.any(np.diff(times) <= 0.0):
            raise ValueError("sample grid must be strictly increasing")
        if times[0] < 0.0 or times[-1] > span:
            raise ValueError("sample grid must lie inside [0, span]")

    # The right-hand side is looked up as a module global on every call,
    # so a wrapper installed on lfbloch.dynamics sees each evaluation.
    if model == "A":
        y = np.array([initial.s.real, initial.s.imag, initial.w])

        def rhs(t, y):
            return effective_rhs(t, y, params)
    else:
        y = np.array([initial.s.real, initial.s.imag, initial.w,
                      initial.beta.real, initial.beta.imag])

        def rhs(t, y):
            return microscopic_rhs(t, y, params)

    drive = params.emitter.drive
    cuts = sorted({b for b in drive.breakpoints() if 0.0 < b < span})
    edges = [0.0, *cuts, span]

    y_out = np.empty((times.size, y.size))
    n_accepted = n_rejected = n_rhs = 0
    for a, b in zip(edges[:-1], edges[1:]):
        mask = (times >= a) & (times <= b) if a == 0.0 \
            else (times > a) & (times <= b)
        seg = times[mask] if np.any(mask) else np.array([b])
        res = ode.solve(rhs, a, b, y, seg, rtol=tol, atol=tol)
        if np.any(mask):
            y_out[mask] = res.y
        y = res.y_end
        n_accepted += res.n_accepted
        n_rejected += res.n_rejected
        n_rhs += res.n_rhs

    s = y_out[:, 0] + 1j * y_out[:, 1]
    w = y_out[:, 2]
    beta = y_out[:, 3] + 1j * y_out[:, 4] if model == "B" else None
    norm_max = float(np.max(w**2 + 4.0 * np.abs(s) ** 2))
    if norm_max > 1.0 + 100.0 * tol:
        warnings.warn(
            f"trajectory left the Bloch sphere: max(w^2 + 4|s|^2) = "
            f"{norm_max:.6g} > 1 + 100*tol",
            BlochNormWarning,
            stacklevel=2,
        )
    return Trajectory(times=times, s=s, w=w, beta=beta, model=model,
                      tol=tol, n_accepted=n_accepted, n_rejected=n_rejected,
                      n_rhs=n_rhs, bloch_norm_max=norm_max)
