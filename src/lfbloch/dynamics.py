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

Both right-hand sides act on the real state vectors the integrator
advances, one row per run: y = (Re s, Im s, w) for model A and
y = (Re s, Im s, w, Re beta, Im beta) for model B.  A batch of runs is
one ``ode.solve`` call per model and method (model-B runs with a fast
host pole go to the exponential method, with ``linear_part`` exact),
one piece per constant drive of a run;
each piece carries the products of parameters and drive that the model
needs (``rhs_constants``), formed once per piece in the order in which
the scalar formulas form them, so every stage of the batch is one call
of ``effective_rhs`` or ``microscopic_rhs`` with the same bits per run
as the run alone.  A pass of few rows calls the per-row function of
each (``_effective_row``, ``_microscopic_row``) on lists instead, with
the same bits.
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


def _parts(values) -> list[float]:
    """Re and Im of each complex value, interleaved."""
    return [x for z in values for x in (z.real, z.imag)]


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

    def pieces(self, span: float) -> list[tuple[float, complex]]:
        """[(end, Omega), ...]: the pieces of constant drive on [0, span].

        Ends rise strictly to span (edges at or past the span's ends are
        dropped); Omega holds from the previous end, or 0, up to ``end``.
        """
        edges = (self.t_on, self.t_off) if self.kind == "pulse" else ()
        ends = [e for e in edges if 0.0 < e < span] + [span]
        return list(zip(ends, map(self.value, [0.0, *ends])))


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

    def rhs_constants(self, om: complex) -> tuple[float, ...]:
        """The row of constants ``effective_rhs`` reads on a drive om.

        Re and Im of c and of conj(c) for each c of 1j*delta_a,
        (0.5*ell)*gamma_a, (2j*ell)*eps_a, (1j*ell)*eps_a and
        (0.5*ell)*om, then Re and Im of ell*om, then -Re(ell)*gamma_a
        and 0.0: complex pairs, read as one complex array.
        """
        em, ell = self.emitter, self.ell
        products = (1j * em.delta_a, 0.5 * ell * em.gamma_a,
                    2j * ell * em.eps_a, 1j * ell * em.eps_a, 0.5 * ell * om)
        return (*_parts(z for c in products for z in (c, c.conjugate())),
                *_parts([ell * om]), -ell.real * em.gamma_a, 0.0)


@dataclass(frozen=True)
class MicroscopicParams:
    """Model B parameters: emitter plus explicit host oscillator.

    The dipole ratio and the cross couplings are derived, not free: both
    species radiate at the drive frequency, which fixes
    rho = sqrt(gamma_b/gamma_a); the couplings follow from requiring that
    eliminating the host reproduces the ell-renormalized effective model
    exactly.  They are computed once per parameter object, when it is
    built; a rho of 0 or a derived constant past the float range is a
    ValueError that names it.
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
        # past the float range a derived constant would reach the
        # integrator as inf or NaN, or as a rho of 0 that C_a divides by
        for name, attr in (
                ("rho = sqrt(gamma_b/gamma_a)", "dipole_ratio"),
                ("C_a = i*eps_b/rho", "coupling_host_to_emitter"),
                ("C_b = i*rho*eps_a - rho*gamma_a/2",
                 "coupling_emitter_to_host")):
            value = getattr(self, attr)
            zero = value == 0.0 and attr == "dipole_ratio"
            if zero or not cmath.isfinite(value):
                raise ValueError(f"microscopic model: {name} is {value!r}: "
                                 f"the rates leave the float range")

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

    @cached_property
    def linear_part(self) -> tuple[tuple[complex, complex], ...]:
        """[[A, -C_a], [C_b, alpha]]: ds/dt and dbeta/dt at w = -1 with
        no drive, A = i*delta_a + i*eps_a - gamma_a/2 (its eigenvalues
        are the coupled modes of the weak-excitation limit)."""
        em = self.emitter
        a_pole = 1j * em.delta_a + 1j * em.eps_a - 0.5 * em.gamma_a
        return ((a_pole, -self.coupling_host_to_emitter),
                (self.coupling_emitter_to_host, self.host_pole))

    def rhs_constants(self, om: complex) -> tuple[float, ...]:
        """The row of constants ``microscopic_rhs`` reads on a drive om.

        Re and Im of 1j*delta_a, 1j*eps_a, 0.5*om, C_a, alpha,
        (0.5*rho)*om, C_b, om, 2.0*C_a and 2j*eps_a, then 0.5*gamma_a
        and -gamma_a: complex pairs, read as one complex array.
        """
        em, c_a = self.emitter, self.coupling_host_to_emitter
        products = (1j * em.delta_a, 1j * em.eps_a, 0.5 * om, c_a,
                    self.host_pole, 0.5 * self.dipole_ratio * om,
                    self.coupling_emitter_to_host, om, 2.0 * c_a,
                    2j * em.eps_a)
        return (*_parts(products), 0.5 * em.gamma_a, -em.gamma_a)


@dataclass(frozen=True)
class SystemState:
    """Initial mean-field state: coherence s, inversion w, host amplitude beta.

    beta is None for the effective model.  Each is finite (a ValueError
    otherwise).
    """

    s: complex
    w: float
    beta: complex | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "s", complex(self.s))
        object.__setattr__(self, "w", float(self.w))
        if self.beta is not None:
            object.__setattr__(self, "beta", complex(self.beta))
        for name in ("s", "w", "beta"):
            value = getattr(self, name)
            if value is not None and not cmath.isfinite(value):
                raise ValueError(f"initial {name} must be finite, "
                                 f"got {value!r}")


def _bloch_norm(y: np.ndarray) -> np.ndarray:
    """w^2 + 4|s|^2 of each state row of y, with |s| from a complex view
    of (Re s, Im s): the bits of ``np.abs(Re s + 1j*Im s)`` on finite
    values, without building that array."""
    return y[:, 2] ** 2 + 4.0 * np.abs(y[:, :2].view(complex)[:, 0]) ** 2


# state columns of each component a trajectory may hold
_COLUMNS = {"s": (0, 1), "w": (2,), "beta": (3, 4)}


@dataclass
class Trajectory:
    """Sampled solution plus integrator statistics.

    The samples lie on the uniform grid of ``len(y)`` points on [0,
    span], ``np.linspace(0.0, span, len(y))``, which times builds on
    each read; no trajectory holds it.  y holds one row of real
    state components per time, in the integrator's order: (Re s, Im s,
    w) for model A, then (Re beta, Im beta) for model B.  A trajectory
    of ``integrate_batch`` with ``keep`` holds only the columns listed
    in ``columns``, in that order (None: all of them); reading a
    component it does not hold raises AttributeError.  w is a view of
    its column; s and beta (None for model A) are built from theirs on
    each read, as ``y[:, 0] + 1j*y[:, 1]``, and not kept: a run fitted
    on w alone never allocates them, and a batch's trajectories never
    hold them all at once.  The y of a trajectory of ``integrate_batch``
    is a slice of its batch's samples.  bloch_norm_max is the largest
    sampled w^2 + 4|s|^2 of the whole state, held or not, a diagnostic
    for leaving the Bloch sphere.
    """

    span: float
    y: np.ndarray
    model: str
    tol: float
    n_accepted: int
    n_rejected: int
    n_rhs: int
    bloch_norm_max: float
    columns: tuple | None = None

    @property
    def times(self) -> np.ndarray:
        """The sample times from 0 to span: strictly increasing on an
        integrated run, whose grid solve checks."""
        return np.linspace(0.0, self.span, len(self.y))

    def _component(self, name: str, c: int) -> np.ndarray:
        if self.columns is None:
            return self.y[:, c]
        if c not in self.columns:
            raise AttributeError(f"this trajectory does not hold {name}")
        return self.y[:, self.columns.index(c)]

    @property
    def w(self) -> np.ndarray:
        return self._component("w", 2)

    @property
    def s(self) -> np.ndarray:
        return self._component("s", 0) + 1j * self._component("s", 1)

    @property
    def beta(self) -> np.ndarray | None:
        if self.model == "A":
            return None
        return self._component("beta", 3) + 1j * self._component("beta", 4)

    @property
    def bloch_norm(self) -> np.ndarray:
        """w^2 + 4|s|^2 on the sample grid (<= 1 inside the sphere)."""
        return self.w**2 + 4.0 * np.abs(self.s) ** 2


# |alpha|/gamma_a above which a model-B run is integrated by the
# exponential method, with its linear part exact; at and below it, by
# Dormand-Prince.  Lone weak-excitation runs cross over there in wall
# time: on Dormand-Prince 8(5,3), whose steps there are bounded by its
# stability (15 evaluations per step on a 1601-point grid), 20 ms
# against the exponential method's 26 ms at |alpha| = 40 and 32 against
# 31 at 80 (see CHANGES.md)
EXPONENTIAL_POLE = 80.0

# Operands of the products in effective_rhs.  First Re and Im of c*s
# for c_d, c_g and c_e2 and of c*w for c_e and c_om: the pairs of
# (Re s, Im s, w, 0.0) that multiply (Re c, Im c) and conj(c) ...
_BY_CONSTANT = np.array([[0, 1], [1, 0]] * 3 + [[2, 3], [3, 2]] * 2)
# ... then (c_e*w)*s and Re(om_eff*conj(s)): the first products and
# om_eff (_STATE_FACTORS) times Re s or Im s (_BY_STATE)
_STATE_FACTORS = np.array([6, 7, 6, 7, 10, 11])
_BY_STATE = np.array([0, 1, 1, 0, 0, 1])


def effective_rhs(t: np.ndarray, Y: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Time derivative of model A; see the module docstring for the form.

    Each row of Y is (Re s, Im s, w), and the same row of the result is
    (Re ds/dt, Im ds/dt, dw/dt).  Row b of P is
    ``EffectiveParams.rhs_constants(om)`` for the drive Omega on the
    piece that holds t[b]; t is not read otherwise.

    The rows are evaluated as arrays in the float operations of CPython
    3.11's complex arithmetic, spelled out, at any row count: each row
    gets the bits of ``_effective_row``, the scalar code on one row,
    which ``ode.solve`` calls directly in its Python-float form of a
    pass.  c*z is (Re c*Re z - Im c*Im z) + i(Re c*Im z + Im c*Re z),
    with a float operand x made complex(x, 0.0) first, so its x*0.0
    terms stay and decide the signs of zero results; sums go part by
    part.  The forms used here have the same bits: a - b*c is
    a + (-b)*c, so the imaginary part of c*z is Re c*Im z - (-Im c)*Re z,
    a product with the conj(c) that P stores, and Re(u*conj(s)) is
    Re u*Re s + Im u*Im s.  The arrays are laid out one row per
    component (transposed), where numpy's loops are fastest.
    """
    batch = len(Y)
    ops = np.zeros((4, batch))
    ops[:3] = Y.T
    consts = np.ascontiguousarray(P.T)
    terms = consts[:20].reshape(10, 2, batch) * ops[_BY_CONSTANT]
    first = np.empty((12, batch))
    # c_d*s, c_g*s, c_e2*s, c_e*w and c_om*w, then om_eff = om_ell - c_e2*s
    np.subtract(terms[:, 0], terms[:, 1], out=first[:10])
    np.subtract(consts[20:22], first[4:6], out=first[10:])
    terms = first[_STATE_FACTORS] * ops[_BY_STATE]
    # (c_e*w)*s, then Re(om_eff*conj(s))
    second = np.empty((3, batch))
    np.subtract(terms[0], terms[1], out=second[0])
    np.add(terms[2::2], terms[3::2], out=second[1:])
    out = np.empty((3, batch))
    # ds = ((c_d*s - c_e*w*s) + c_om*w) - c_g*s
    np.subtract(first[0:2], second[0:2], out=out[0:2])
    out[0:2] += first[8:10]
    out[0:2] -= first[2:4]
    np.subtract(consts[22] * (ops[2] + 1.0), 2.0 * second[2], out=out[2])
    return out.T


def _effective_row(t: float, y: list, c: list) -> tuple:
    """effective_rhs on one row: y a list of floats, c its row of P as
    a list of complex, ``P[b].view(complex).tolist()``."""
    s_re, s_im, w = y
    c_d, _, c_g, _, c_e2, _, c_e, _, c_om, _, om_ell, c_w = c
    s = complex(s_re, s_im)
    ds = c_d * s - c_e * w * s + c_om * w - c_g * s
    om_eff = om_ell - c_e2 * s
    dw = c_w.real * (w + 1.0) - 2.0 * (om_eff * s.conjugate()).real
    return ds.real, ds.imag, dw


def microscopic_rhs(t: np.ndarray, Y: np.ndarray,
                    P: np.ndarray) -> np.ndarray:
    """Time derivative of model B; see the module docstring for the form.

    Each row of Y is (Re s, Im s, w, Re beta, Im beta), and the same row
    of the result holds their time derivatives.  Row b of P is
    ``MicroscopicParams.rhs_constants(om)`` for the drive Omega on the
    piece that holds t[b]; t is not read otherwise.  Evaluated row by
    row with ``_microscopic_row``, which ``ode.solve`` calls directly in
    its Python-float form of a pass.
    """
    return np.array([_microscopic_row(t_b, y, c) for t_b, y, c in zip(
        t.tolist(), Y.tolist(), P.view(complex).tolist())])


def _microscopic_row(t: float, y: list, c: list) -> tuple:
    """microscopic_rhs on one row: y a list of floats, c its row of P as
    a list of complex, ``P[b].view(complex).tolist()``."""
    s_re, s_im, w, beta_re, beta_im = y
    c_d, c_e, om_half, c_a, pole, om_rho, c_b, om, c_a2, c_e2, gammas = c
    s = complex(s_re, s_im)
    beta = complex(beta_re, beta_im)
    ds = (c_d * s - c_e * w * s + om_half * w - gammas.real * s
          + c_a * w * beta)
    dbeta = pole * beta - om_rho + c_b * s
    dw = (gammas.imag * (w + 1.0)
          - 2.0 * ((om + c_a2 * beta - c_e2 * s) * s.conjugate()).real)
    return ds.real, ds.imag, dw, dbeta.real, dbeta.imag


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

    Adaptive embedded Runge-Kutta with per-step error control on every
    real component y at the scale tol + tol*|y|, dense output on the
    sample grid, and a restart at each pulse edge with the new drive.
    Model A, and model B with |alpha| <= ``EXPONENTIAL_POLE`` gamma_a,
    use Dormand-Prince 8(5,3); model B with a faster host pole uses the
    exponential method of ``lfbloch.ode`` with L = ``linear_part``
    exact, whose step is bounded by the nonlinear part N rather than by
    L.  Its step count is measured, not flat, in |alpha|: it is erratic
    between 80 and 5000 (2623 attempts at 5000 against 127 at 20000 on
    a weak-excitation run).  Deterministic for identical inputs.

    The run goes through the code of :func:`integrate_batch` as a batch
    of one: one ``ode.solve`` call with a (1, n) state and the drive's
    pieces, so a run yields the same bits and counters alone or in any
    batch.  Here a failure raises; ``integrate_batch`` returns it in
    the run's entry and goes on with the other runs.

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
        If the step size underflows (the problem is too stiff for the
        method at this tolerance), or, as its subclass
        ``NonFiniteRhsError``, if the right-hand side went non-finite.
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


def integrate_batch(runs, keep=None) -> list:
    """Integrate many ``(params, initial, integration)`` runs in lockstep.

    Every run is integrated exactly as :func:`integrate` integrates it
    alone: same steps, same counters, same bits.  The runs of each model
    go through one batched ``ode.solve`` call, which restarts each run
    at its own pulse edges, so runs with different spans, tolerances,
    grid sizes and drives can share a batch.

    Parameters
    ----------
    runs : sequence of (params, initial, integration)
        As the arguments of :func:`integrate`.
    keep : collection of "s", "w" and "beta", optional
        The components that the trajectories hold (default: all): a
        caller that reads some only saves the memory of the others,
        which the batch never stores.  Each must hold s or w; beta
        counts for model B alone.  bloch_norm_max and the warnings
        still cover the whole state.

    Returns
    -------
    list
        One entry per run, in order: its Trajectory, or the ValueError
        or ``lfbloch.ode.StepSizeUnderflowError`` that ``integrate``
        would raise for it (with the same message).  A failing run does
        not stop the others.  The trajectories of one batch are views of
        its sample buffer, which stays alive while any of them
        does.

    Warns
    -----
    BlochNormWarning
        For each trajectory that leaves the Bloch sphere, as
        :func:`integrate` does.
    """
    if keep is not None and not (set(keep) <= set(_COLUMNS)
                                 and set(keep) & {"s", "w"}):
        raise ValueError(f"keep must name s or w, and only s, w and "
                         f"beta, got {keep!r}")
    results = _integrate_runs(runs, keep)
    for result in results:
        if isinstance(result, Trajectory):
            _warn_if_outside_sphere(result)
    return results


def _warn_if_outside_sphere(traj: Trajectory) -> None:
    # the excess over the sphere, not the norm: an excess near 100*tol
    # is far below the 6 digits of a norm near 1
    if traj.bloch_norm_max > 1.0 + 100.0 * traj.tol:
        warnings.warn(
            f"trajectory left the Bloch sphere: max(w^2 + 4|s|^2) - 1 = "
            f"{traj.bloch_norm_max - 1.0:.3g} > 100*tol = "
            f"{100.0 * traj.tol:.3g}",
            BlochNormWarning,
            stacklevel=3,  # the caller of integrate or integrate_batch
        )


class _Run:
    """One run of a batch: its state, grid size and drive pieces."""

    def __init__(self, params, initial: SystemState,
                 integration: IntegrationSpec):
        self.model = "A" if isinstance(params, EffectiveParams) else "B"
        self.tol = tol = integration.tol
        if self.model == "A" and initial.beta is not None:
            raise ValueError("model A initial state must not carry beta")
        if self.model == "B" and initial.beta is None:
            raise ValueError("model B initial state must carry beta")
        try:
            norm = initial.w**2 + 4.0 * abs(initial.s) ** 2
        except OverflowError:  # Python's ** and abs raise past the range
            norm = math.inf
        if norm > 1.0 + 100.0 * tol:
            raise ValueError(
                f"initial state lies outside the Bloch sphere: "
                f"w^2 + 4|s|^2 = {norm!r} > 1 + 100*tol"
            )
        self.span, self.points = integration.span, integration.points

        if self.model == "A":
            self.y = np.array([initial.s.real, initial.s.imag, initial.w])
        else:
            self.y = np.array([initial.s.real, initial.s.imag, initial.w,
                               initial.beta.real, initial.beta.imag])
        self.pieces = [(end, params.rhs_constants(om)) for end, om
                       in params.emitter.drive.pieces(integration.span)]
        # the integrator's method: Dormand-Prince, or a stiff model-B
        # run's linear part for the exponential method
        self.linear = params.linear_part if self.model == "B" and (
            abs(params.host_pole)
            > EXPONENTIAL_POLE * params.emitter.gamma_a) else None


def _integrate_runs(runs, keep=None) -> list:
    """integrate_batch without the Bloch-sphere warnings."""
    results: list = [None] * len(runs)
    prepared = []
    for k, (params, initial, integration) in enumerate(runs):
        try:
            prepared.append((k, _Run(params, initial, integration)))
        except ValueError as exc:
            results[k] = exc

    # one state size and one method per solve
    for model, exponential in (("A", False), ("B", False), ("B", True)):
        group = [(k, run) for k, run in prepared if run.model == model
                 and (run.linear is not None) == exponential]
        if not group:
            continue
        rhs, row = ((effective_rhs, _effective_row) if model == "A"
                    else (microscopic_rhs, _microscopic_row))
        linear = [run.linear for _, run in group] if exponential else None
        columns = None if keep is None else tuple(
            c for name in ("s", "w", "beta") if name in keep
            and (name != "beta" or model == "B") for c in _COLUMNS[name])
        res = ode.solve(rhs, [run.pieces for _, run in group],
                        [0.0] * len(group), [run.y for _, run in group],
                        [run.points for _, run in group],
                        [run.tol for _, run in group],
                        linear=linear,
                        row_rhs=(lambda p: np.array(p).view(complex).tolist(),
                                 row),
                        columns=columns, measure=_bloch_norm)
        # Python ints and floats: json.dumps rejects numpy integers
        stats = zip(res.n_accepted.tolist(), res.n_rejected.tolist(),
                    res.n_rhs.tolist(), res.measure_max.tolist())
        for r, ((k, run), (acc, rej, rhs_calls, norm_max)) in enumerate(
                zip(group, stats)):
            results[k] = res.errors[r] or Trajectory(
                span=run.span, y=res.y[res.offsets[r]:res.offsets[r + 1]],
                model=run.model, tol=run.tol,
                n_accepted=acc, n_rejected=rej, n_rhs=rhs_calls,
                bloch_norm_max=norm_max, columns=columns)
    return results
