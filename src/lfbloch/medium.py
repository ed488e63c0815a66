"""Local-field algebra for a two-level emitter embedded in a dielectric host.

A dense collection of background oscillators modifies the field at an
embedded emitter's site.  Near a single host resonance the Lorentz
virtual-cavity correction yields a complex enhancement factor

    ell = 1 + eps_b / (delta_b + eps_b + i*gamma_b/2),

identical to (n**2 + 2)/3 with n the complex refractive index of the host
at the drive frequency.  The factor renormalizes the emitter's drive,
near-dipole-dipole (NDD) coupling, and radiative decay; the spontaneous
emission rate in the absorptive host is Re(ell)*gamma_a rather than the
lossless virtual-cavity result n*ell**2*gamma_a.

Dynamical quantities are expressed in scaled units (hbar = 1, rates in
units of the emitter decay rate gamma_a).  Conversions from Gaussian (CGS)
inputs are provided here for setting up physical scenarios; they are the
only place dimensional constants appear.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

__all__ = [
    "GaussianInputs",
    "HostSpecies",
    "LocalFieldFactor",
    "RateComparison",
    "SingularHostError",
    "ndd_strength",
    "radiative_rate",
    "local_field_factor",
    "level_shift",
    "rate_comparison",
]

HBAR_ERG_S = 1.054571817e-27        # reduced Planck constant, erg s
SPEED_OF_LIGHT_CM_S = 2.99792458e10  # cm/s


class SingularHostError(ValueError):
    """The host pole denominator delta_b + eps_b + i*gamma_b/2 vanishes."""


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class GaussianInputs:
    """Physical parameters of one species in Gaussian (CGS) units.

    Parameters
    ----------
    number_density : float
        Number density N in cm^-3 (>= 0).
    dipole_moment : float
        Transition dipole magnitude |mu| in statC cm (>= 0).
    angular_frequency : float
        Transition angular frequency omega in rad/s (> 0).
    """

    number_density: float
    dipole_moment: float
    angular_frequency: float

    def __post_init__(self) -> None:
        for name in ("number_density", "dipole_moment", "angular_frequency"):
            _require_finite(name, getattr(self, name))
        if self.number_density < 0.0:
            raise ValueError(f"number_density must be >= 0, "
                             f"got {self.number_density!r}")
        if self.dipole_moment < 0.0:
            raise ValueError(f"dipole_moment must be >= 0, "
                             f"got {self.dipole_moment!r}")
        if self.angular_frequency <= 0.0:
            raise ValueError(f"angular_frequency must be > 0, "
                             f"got {self.angular_frequency!r}")


def ndd_strength(g: GaussianInputs) -> float:
    """Near-dipole-dipole coupling strength eps = 4*pi*N*|mu|**2/(3*hbar).

    Returns the reaction-field strength of a homogeneous collection of
    dipoles, in rad/s.

    Examples
    --------
    >>> g = GaussianInputs(1e18, 1e-18, 2.5e15)
    >>> round(ndd_strength(g) / 1e9, 3)
    3.972
    """
    return (4.0 * math.pi * g.number_density * g.dipole_moment**2
            / (3.0 * HBAR_ERG_S))


def radiative_rate(g: GaussianInputs) -> float:
    """Vacuum radiative decay rate gamma = 4*omega**3*|mu|**2/(3*c**3*hbar).

    Returns the free-space population decay rate of the transition, in
    rad/s.

    Examples
    --------
    >>> g = GaussianInputs(1e18, 1e-18, 2.5e15)
    >>> round(radiative_rate(g) / 1e5, 3)
    7.332
    """
    return (4.0 * g.angular_frequency**3 * g.dipole_moment**2
            / (3.0 * SPEED_OF_LIGHT_CM_S**3 * HBAR_ERG_S))


@dataclass(frozen=True)
class HostSpecies:
    """Host-oscillator parameters in units of the emitter decay rate.

    Parameters
    ----------
    delta_b : float
        Host detuning from the drive frame, delta_b = omega_p - omega_b.
    eps_b : float
        Host NDD strength (>= 0).
    gamma_b : float
        Host radiative decay rate (>= 0).

    Raises
    ------
    SingularHostError
        If the pole denominator delta_b + eps_b + i*gamma_b/2 evaluates to
        zero (including a gamma_b so small that gamma_b/2 underflows).
    ValueError
        If it is not finite: delta_b + eps_b overflows, and the factor
        would read as the vacuum's.
    """

    delta_b: float
    eps_b: float
    gamma_b: float

    def __post_init__(self) -> None:
        for name in ("delta_b", "eps_b", "gamma_b"):
            _require_finite(name, getattr(self, name))
        if self.eps_b < 0.0:
            raise ValueError(f"eps_b must be >= 0, got {self.eps_b!r}")
        if self.gamma_b < 0.0:
            raise ValueError(f"gamma_b must be >= 0, got {self.gamma_b!r}")
        if self.pole_denominator == 0:
            raise SingularHostError(
                "host pole denominator delta_b + eps_b + i*gamma_b/2 is zero"
            )
        if not cmath.isfinite(self.pole_denominator):
            raise ValueError(
                f"host pole denominator: delta_b + eps_b is "
                f"{self.delta_b + self.eps_b!r}: it leaves the float range")

    @property
    def pole_denominator(self) -> complex:
        """The shifted-and-broadened host pole delta_b + eps_b + i*gamma_b/2."""
        return complex(self.delta_b + self.eps_b, 0.5 * self.gamma_b)


@dataclass(frozen=True)
class LocalFieldFactor:
    """Complex enhancement factor and the equivalent refractive index.

    ``ell == (refractive_index**2 + 2)/3`` holds exactly; the index is the
    principal square root of 3*ell - 2 with Re >= 0.
    """

    ell: complex
    refractive_index: complex


def local_field_factor(host: HostSpecies) -> LocalFieldFactor:
    """Lorentz local-field enhancement factor of a single-pole host.

    Computes ell = 1 + eps_b/(delta_b + eps_b + i*gamma_b/2) and the
    equivalent complex refractive index n = sqrt(3*ell - 2) on the
    principal branch (Re(n) >= 0).  For an absorbing host (eps_b > 0,
    gamma_b > 0) the imaginary part of ell is negative in this rotating
    frame convention.

    Examples
    --------
    >>> f = local_field_factor(HostSpecies(15.0, 10.0, 0.0))
    >>> f.ell
    (1.4+0j)
    >>> f = local_field_factor(HostSpecies(10.0, 10.0, 4.0))
    >>> complex(round(f.ell.real, 6), round(f.ell.imag, 6))
    (1.49505-0.049505j)
    """
    ell = 1.0 + host.eps_b / host.pole_denominator
    index = cmath.sqrt(3.0 * ell - 2.0)
    return LocalFieldFactor(ell=ell, refractive_index=index)


def level_shift(ell: complex, gamma_a: float) -> float:
    """Magnitude of the absorptive-host level shift, |Im(ell)|*gamma_a/2.

    The shift vanishes for a lossless host (ell real).  The signed shift
    -Im(ell)*gamma_a/2 is the imaginary part of
    :func:`lfbloch.verify.predicted_slow_eigenvalue` at delta_a = eps_a = 0.
    """
    if not (gamma_a > 0.0) or not math.isfinite(gamma_a):
        raise ValueError(f"gamma_a must be positive and finite, "
                         f"got {gamma_a!r}")
    return abs(ell.imag) * gamma_a / 2.0


@dataclass(frozen=True)
class RateComparison:
    """Spontaneous-emission enhancement factors of a lossless host.

    All three are the ratio of the in-medium rate to the vacuum rate:
    ``re_ell`` for the absorptive-host formula evaluated at real index
    (Re(ell) = ell), ``virtual_cavity`` for the lossless Lorentz result
    n*ell**2, and ``onsager`` for the real-cavity model n*(3n^2/(2n^2+1))^2.
    """

    n: float
    re_ell: float
    virtual_cavity: float
    onsager: float


def rate_comparison(n: float) -> RateComparison:
    """Compare emission-rate enhancement models at real index n >= 1.

    The ``re_ell`` column is smaller than ``virtual_cavity`` for every
    n > 1: accounting for the host's own dynamics weakens the predicted
    enhancement relative to the static virtual-cavity factor.  An n
    below 1, not finite, or whose columns leave the float range (from
    about n = 1e62) is a ValueError.

    Examples
    --------
    >>> row = rate_comparison(1.5)
    >>> round(row.re_ell, 6), round(row.virtual_cavity, 6)
    (1.416667, 3.010417)
    """
    if not math.isfinite(n) or n < 1.0:
        raise ValueError(f"rate comparison is defined for real n >= 1, "
                         f"got {n!r}")
    ell = (n * n + 2.0) / 3.0
    onsager_factor = 3.0 * n * n / (2.0 * n * n + 1.0)
    virtual, onsager = n * ell * ell, n * onsager_factor * onsager_factor
    # n*ell**2 overflows from about n = 1e62, and n*n from about 1e154
    if not (math.isfinite(virtual) and math.isfinite(onsager)):
        raise ValueError(f"rate comparison at n = {n!r} leaves the float "
                         f"range")
    return RateComparison(n=n, re_ell=ell, virtual_cavity=virtual,
                          onsager=onsager)
