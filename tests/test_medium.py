"""Tests for the local-field algebra: enhancement factor, unit conversions,
and the lossless rate-comparison table."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from lfbloch.medium import (
    GaussianInputs,
    HostSpecies,
    SingularHostError,
    level_shift,
    local_field_factor,
    ndd_strength,
    radiative_rate,
    rate_comparison,
)
from lfbloch.dynamics import EmitterParams
from lfbloch.verify import predicted_slow_eigenvalue

# Frozen oracle values.  Hand evaluations of 4*pi*N*mu^2/(3*hbar) and
# 4*w^3*mu^2/(3*c^3*hbar) with hbar = 1.0546e-27 erg s, c = 2.99792458e10 cm/s.
NDD_ORACLE_RAD_S = 3971923198.1665006       # N = 1e18 cm^-3, mu = 1e-18 statC cm
RADIATIVE_ORACLE_RAD_S = 733177.0916692318  # w = 2.5e15 rad/s, mu = 1e-18 statC cm
# The conversions use the CODATA hbar; the oracle constant is a 5-digit
# rounding of it, so agreement is asserted at 1e-4 relative.
ORACLE_RTOL = 1e-4

finite_floats = st.floats(allow_nan=False, allow_infinity=False)


class TestGaussianConversions:
    def test_ndd_strength_oracle(self):
        g = GaussianInputs(number_density=1e18, dipole_moment=1e-18,
                           angular_frequency=2.5e15)
        assert_allclose(ndd_strength(g), NDD_ORACLE_RAD_S, rtol=ORACLE_RTOL)

    def test_radiative_rate_oracle(self):
        g = GaussianInputs(number_density=1e18, dipole_moment=1e-18,
                           angular_frequency=2.5e15)
        assert_allclose(radiative_rate(g), RADIATIVE_ORACLE_RAD_S,
                        rtol=ORACLE_RTOL)

    def test_ndd_quadratic_in_dipole(self):
        g1 = GaussianInputs(1e18, 1e-18, 2.5e15)
        g2 = GaussianInputs(1e18, 2e-18, 2.5e15)
        assert_allclose(ndd_strength(g2) / ndd_strength(g1), 4.0, rtol=1e-14)

    def test_radiative_cubic_in_frequency(self):
        g1 = GaussianInputs(1e18, 1e-18, 2.5e15)
        g2 = GaussianInputs(1e18, 1e-18, 5.0e15)
        assert_allclose(radiative_rate(g2) / radiative_rate(g1), 8.0,
                        rtol=1e-14)

    def test_zero_density_zero_ndd(self):
        assert ndd_strength(GaussianInputs(0.0, 1e-18, 2.5e15)) == 0.0

    def test_zero_dipole_zero_rate(self):
        assert radiative_rate(GaussianInputs(1e18, 0.0, 2.5e15)) == 0.0

    @pytest.mark.parametrize("bad", [
        dict(number_density=-1.0, dipole_moment=1e-18, angular_frequency=1e15),
        dict(number_density=1e18, dipole_moment=-1e-18, angular_frequency=1e15),
        dict(number_density=1e18, dipole_moment=1e-18, angular_frequency=0.0),
        dict(number_density=math.inf, dipole_moment=1e-18, angular_frequency=1e15),
        dict(number_density=1e18, dipole_moment=math.nan, angular_frequency=1e15),
    ])
    def test_invalid_inputs_rejected(self, bad):
        with pytest.raises(ValueError):
            GaussianInputs(**bad)


class TestLocalFieldFactor:
    def test_vacuum_limit(self):
        f = local_field_factor(HostSpecies(delta_b=3.0, eps_b=0.0, gamma_b=2.0))
        assert f.ell == 1.0 + 0.0j
        assert f.refractive_index == 1.0 + 0.0j

    def test_lossless_example(self):
        # 1 + 10/25 = 1.4 exactly; n = sqrt(3*1.4 - 2) = sqrt(2.2)
        f = local_field_factor(HostSpecies(15.0, 10.0, 0.0))
        assert f.ell == pytest.approx(1.4, abs=1e-15)
        assert f.ell.imag == 0.0
        assert_allclose(f.refractive_index.real**2, 2.2, rtol=1e-14)
        assert_allclose(f.refractive_index.real, 1.483240, atol=1e-6)
        assert f.refractive_index.imag == 0.0

    def test_absorptive_example(self):
        # 1 + 10/(20 + 2i) = (151 - 5i)/101
        f = local_field_factor(HostSpecies(10.0, 10.0, 4.0))
        assert_allclose(f.ell.real, 151.0 / 101.0, rtol=1e-15)
        assert_allclose(f.ell.imag, -5.0 / 101.0, rtol=1e-15)
        assert_allclose([f.ell.real, f.ell.imag], [1.495050, -0.049505],
                        atol=1e-6)

    def test_singular_host_rejected(self):
        with pytest.raises(SingularHostError):
            HostSpecies(delta_b=-10.0, eps_b=10.0, gamma_b=0.0)
        # gamma_b != 0, but gamma_b/2 underflows to 0: the pole is still zero
        with pytest.raises(SingularHostError):
            HostSpecies(delta_b=-1.0, eps_b=1.0, gamma_b=5e-324)

    @pytest.mark.parametrize("bad", [
        dict(delta_b=0.0, eps_b=-1.0, gamma_b=0.0),
        dict(delta_b=0.0, eps_b=1.0, gamma_b=-0.5),
        dict(delta_b=math.nan, eps_b=1.0, gamma_b=0.5),
    ])
    def test_invalid_host_rejected(self, bad):
        with pytest.raises(ValueError):
            HostSpecies(**bad)

    @given(delta_b=st.floats(-200, 200), gamma_b=st.floats(0, 20))
    def test_no_host_oscillators_no_enhancement(self, delta_b, gamma_b):
        """eps_b = 0 gives ell = 1 for every detuning and width."""
        if complex(delta_b, 0.5 * gamma_b) == 0:
            return  # singular pole, rejected at construction
        f = local_field_factor(HostSpecies(delta_b, 0.0, gamma_b))
        assert f.ell == 1.0 + 0.0j

    @given(delta_b=st.floats(-200, 200), eps_b=st.floats(0, 50),
           gamma_b=st.floats(0, 20))
    def test_index_round_trip(self, delta_b, eps_b, gamma_b):
        """ell = (n^2 + 2)/3 holds to machine precision; Re(n) >= 0."""
        if abs(delta_b + eps_b) < 1e-9 and gamma_b < 1e-9:
            return
        f = local_field_factor(HostSpecies(delta_b, eps_b, gamma_b))
        n = f.refractive_index
        assert n.real >= 0.0
        assert cmath.isclose((n * n + 2.0) / 3.0, f.ell,
                             rel_tol=1e-13, abs_tol=1e-13)

    @given(delta_b=st.floats(-200, 200),
           eps_b=st.floats(1e-3, 50),
           gamma_b=st.floats(1e-3, 20))
    def test_absorbing_host_negative_imag(self, delta_b, eps_b, gamma_b):
        """Im(ell) < 0 whenever the host both couples and absorbs."""
        f = local_field_factor(HostSpecies(delta_b, eps_b, gamma_b))
        assert f.ell.imag < 0.0

    @given(delta_b=st.floats(0.1, 200), eps_b=st.floats(0, 50))
    def test_lossless_factor_feeds_rate_table(self, delta_b, eps_b):
        """gamma_b = 0 makes ell real >= 1 and n reproduces it in the table."""
        f = local_field_factor(HostSpecies(delta_b, eps_b, 0.0))
        assert f.ell.imag == 0.0
        assert f.ell.real >= 1.0
        row = rate_comparison(f.refractive_index.real)
        assert_allclose(row.re_ell, f.ell.real, rtol=1e-12)


class TestLevelShift:
    def test_lossless_no_shift(self):
        assert level_shift(1.4 + 0.0j, 1.0) == 0.0

    def test_absorptive_example(self):
        ell = complex(151.0 / 101.0, -5.0 / 101.0)
        assert_allclose(level_shift(ell, 1.0), 0.024752, atol=1e-6)
        assert_allclose(level_shift(ell, 1.0), 2.5 / 101.0, rtol=1e-15)

    def test_linear_in_gamma(self):
        ell = 1.3 - 0.2j
        assert_allclose(level_shift(ell, 2.0), 2.0 * level_shift(ell, 1.0),
                        rtol=1e-15)

    def test_signed_variant_positive_for_absorber(self):
        # the signed shift -Im(ell)*gamma_a/2 adds to the detuning in the
        # slow-mode frequency, and has the magnitude level_shift reports
        bare = EmitterParams(delta_a=0.0, eps_a=0.0, gamma_a=1.0)
        ell = complex(151.0 / 101.0, -5.0 / 101.0)
        signed = predicted_slow_eigenvalue(ell, bare).imag
        assert signed == pytest.approx(2.5 / 101.0)
        assert signed == pytest.approx(level_shift(ell, 1.0))
        assert predicted_slow_eigenvalue(1.4 + 0.1j, bare).imag == \
            pytest.approx(-0.05)

    def test_invalid_gamma(self):
        with pytest.raises(ValueError):
            level_shift(1.4 + 0.0j, 0.0)


class TestRateComparison:
    def test_vacuum_row(self):
        row = rate_comparison(1.0)
        assert (row.re_ell, row.virtual_cavity, row.onsager) == (1.0, 1.0, 1.0)

    def test_reference_row(self):
        # frozen arithmetic: (n^2+2)/3 = 17/12, n*ell^2, n*(3n^2/(2n^2+1))^2
        row = rate_comparison(1.5)
        assert_allclose(row.re_ell, 1.4166666666666667, rtol=1e-15)
        assert_allclose(row.virtual_cavity, 3.010416666666667, rtol=1e-15)
        assert_allclose(row.onsager, 2.259297520661157, rtol=1e-15)
        assert_allclose(row.virtual_cavity / row.re_ell, 2.125, rtol=1e-15)

    def test_rejects_sub_vacuum_index(self):
        with pytest.raises(ValueError):
            rate_comparison(0.99)

    @given(n=st.floats(1.0, 10.0))
    def test_ordering(self, n):
        """re_ell <= virtual_cavity, equality only at n = 1."""
        row = rate_comparison(n)
        assert row.re_ell <= row.virtual_cavity
        if n > 1.0:
            assert row.re_ell < row.virtual_cavity

    @given(n=st.floats(1.0, 10.0))
    def test_all_factors_at_least_unity(self, n):
        row = rate_comparison(n)
        assert row.re_ell >= 1.0
        assert row.virtual_cavity >= 1.0
        assert row.onsager >= 1.0
