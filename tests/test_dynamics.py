"""Tests for the two Bloch models: right-hand sides against hand
substitutions, integration against closed forms, conservation, reduction
limits, trajectory bookkeeping, batches that reproduce each run's lone
integration bit for bit (a lone run in the Python-float form of a
pass, its row of a batch in the array form), and the exponential method
for fast-host model-B runs: its accuracy against Dormand-Prince at tol
1e-12 and the host pole that selects it."""

import cmath
import contextlib
import dataclasses
import functools
import math
import operator
import pickle
import re
import subprocess
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.internal.conjecture import engine

from lfbloch import dynamics, ode
from numpy.testing import assert_allclose
from scipy.linalg import expm

from lfbloch.dynamics import (
    BlochNormWarning,
    DriveEnvelope,
    EffectiveParams,
    EmitterParams,
    IntegrationSpec,
    MicroscopicParams,
    SystemState,
    Trajectory,
    effective_rhs,
    integrate,
    integrate_batch,
    microscopic_rhs,
)
from lfbloch.medium import HostSpecies, local_field_factor
from lfbloch.ode import NonFiniteRhsError, StepSizeUnderflowError, solve

# canonical scenario used throughout: bare emitter, absorptive host
EMITTER = EmitterParams(delta_a=0.0, eps_a=0.0, gamma_a=1.0)
HOST = HostSpecies(delta_b=10.0, eps_b=10.0, gamma_b=4.0)
ELL_LOSSLESS = 1.4 + 0.0j          # host (15, 10, 0)
W_AT_1 = -0.5068060721167871       # -1 + 2*exp(-1.4)


def small_complex(r):
    return st.complex_numbers(max_magnitude=r, allow_nan=False,
                              allow_infinity=False)


def _at(rhs, p, y, om):
    """rhs on the single state y, with the constants of p on drive om."""
    return rhs(np.zeros(1), np.array([y], dtype=float),
               np.array([p.rhs_constants(om)]))[0]


class TestDriveEnvelope:
    def test_off(self):
        d = DriveEnvelope()
        assert d.value(0.0) == 0j and d.value(5.0) == 0j

    def test_constant_complex(self):
        d = DriveEnvelope(kind="constant", amplitude=1.0 + 0.5j)
        assert d.value(17.3) == 1.0 + 0.5j

    def test_pulse_window(self):
        d = DriveEnvelope(kind="pulse", amplitude=2.0 + 0j, t_on=1.0,
                          t_off=3.0)
        assert d.value(0.5) == 0j
        assert d.value(1.0) == 2.0 + 0j
        assert d.value(2.9) == 2.0 + 0j
        assert d.value(3.0) == 0j

    @pytest.mark.parametrize("drive, span, pieces", [
        (DriveEnvelope(), 2.0, [(2.0, 0j)]),
        (DriveEnvelope("constant", 1 + 2j), 2.0, [(2.0, 1 + 2j)]),
        (DriveEnvelope("pulse", 2, t_on=1.0, t_off=3.0), 5.0,
         [(1.0, 0j), (3.0, 2 + 0j), (5.0, 0j)]),
        # t_on <= 0: the pulse is on from the start
        (DriveEnvelope("pulse", 2, t_on=-1.0, t_off=3.0), 5.0,
         [(3.0, 2 + 0j), (5.0, 0j)]),
        (DriveEnvelope("pulse", 2, t_on=0.0, t_off=3.0), 5.0,
         [(3.0, 2 + 0j), (5.0, 0j)]),
        # t_off >= span, or never: the pulse is on to the end
        (DriveEnvelope("pulse", 2, t_on=1.0, t_off=5.0), 5.0,
         [(1.0, 0j), (5.0, 2 + 0j)]),
        (DriveEnvelope("pulse", 2, t_on=1.0, t_off=7.0), 5.0,
         [(1.0, 0j), (5.0, 2 + 0j)]),
        (DriveEnvelope("pulse", 2, t_on=1.0), 5.0,
         [(1.0, 0j), (5.0, 2 + 0j)]),
        # an edge exactly at the span's end, or past it
        (DriveEnvelope("pulse", 2, t_on=5.0, t_off=6.0), 5.0, [(5.0, 0j)]),
        (DriveEnvelope("pulse", 2, t_on=-2.0, t_off=0.0), 5.0, [(5.0, 0j)]),
        (DriveEnvelope("pulse", 2, t_on=5e-324, t_off=1.0), 5.0,
         [(5e-324, 0j), (1.0, 2 + 0j), (5.0, 0j)]),
        (DriveEnvelope("pulse", 2, t_on=0.0, t_off=5e-324), 5.0,
         [(5e-324, 2 + 0j), (5.0, 0j)]),
    ])
    def test_pieces(self, drive, span, pieces):
        assert drive.pieces(span) == pieces

    @pytest.mark.parametrize("bad", [
        dict(kind="sine"),
        dict(kind="pulse", amplitude=1.0 + 0j, t_on=3.0, t_off=1.0),
        dict(kind="constant", amplitude=complex(math.inf, 0.0)),
    ])
    def test_invalid_rejected(self, bad):
        with pytest.raises(ValueError):
            DriveEnvelope(**bad)


class TestParamValidation:
    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError):
            EmitterParams(gamma_a=-0.1)

    def test_zero_gamma_allowed_for_effective_model(self):
        EmitterParams(gamma_a=0.0)  # undamped runs are legitimate

    def test_negative_eps_rejected(self):
        with pytest.raises(ValueError):
            EmitterParams(eps_a=-1.0)

    def test_effective_requires_positive_real_part(self):
        with pytest.raises(ValueError):
            EffectiveParams(emitter=EMITTER, ell=-0.2 + 0.1j)

    def test_microscopic_requires_radiating_species(self):
        with pytest.raises(ValueError):
            MicroscopicParams(emitter=EMITTER,
                              host=HostSpecies(15.0, 10.0, 0.0))
        with pytest.raises(ValueError):
            MicroscopicParams(emitter=EmitterParams(gamma_a=0.0), host=HOST)

    @pytest.mark.parametrize("emitter, host, name", [
        # gamma_b/gamma_a underflows to rho = 0, which C_a divides by (a
        # ZeroDivisionError once the run was integrated)
        (EmitterParams(gamma_a=1e10), HostSpecies(0.0, 1.0, 1e-320),
         "rho"),
        (EmitterParams(gamma_a=1e-300), HostSpecies(0.0, 1.0, 1e300),
         "rho"),
        # C_a overflows (solve refused the run's linear part, a message
        # that named no field)
        (EMITTER, HostSpecies(0.0, 1e308, 1e-300), "C_a"),
        # past BOUND from bounded emitter rates, or from the host alone
        (EmitterParams(eps_a=1e60), HostSpecies(0.0, 1.0, 1e120), "C_b"),
        (EMITTER, HostSpecies(1e101, 0.0, 1.0), "alpha"),
    ])
    def test_derived_constants_past_the_float_range_rejected(
            self, emitter, host, name):
        with pytest.raises(ValueError, match=f"microscopic model: {name} "):
            MicroscopicParams(emitter=emitter, host=host)

    @pytest.mark.parametrize("name", ["s", "w", "beta"])
    def test_nonfinite_state_rejected(self, name):
        # a NaN beta passed the Bloch-sphere check and reached solve,
        # which refused the y0 of the whole batch, model-A runs included
        values = {"s": 0.001 + 0j, "w": -0.999998, "beta": 0j}
        values[name] = complex(math.nan, 0.0) if name != "w" else math.inf
        with pytest.raises(ValueError,
                           match=f"initial {name} must be finite"):
            SystemState(**values)

    def test_derived_couplings_frozen_example(self):
        p = MicroscopicParams(emitter=EMITTER, host=HOST)
        assert p.dipole_ratio == pytest.approx(2.0, rel=1e-15)
        assert p.host_pole == pytest.approx(-2.0 + 20.0j, rel=1e-15)
        assert p.coupling_host_to_emitter == pytest.approx(5.0j, rel=1e-15)
        assert p.coupling_emitter_to_host == pytest.approx(-1.0 + 0.0j,
                                                           rel=1e-15)


class TestEffectiveRhs:
    def test_inverted_atom_decay_example(self):
        # ell = 1.4, s = 0, w = 1: population decays at Re(ell)*gamma_a
        p = EffectiveParams(emitter=EMITTER, ell=ELL_LOSSLESS)
        ds_re, ds_im, dw = _at(effective_rhs, p, [0.0, 0.0, 1.0], 0j)
        assert (ds_re, ds_im) == (0.0, 0.0)
        assert dw == pytest.approx(-2.8, rel=1e-15)

    def test_vacuum_reduction(self):
        # ell = 1, eps_a = 0 is the bare Bloch RHS
        em = EmitterParams(delta_a=0.7, eps_a=0.0, gamma_a=1.0,
                           drive=DriveEnvelope(kind="constant",
                                               amplitude=0.3 + 0.1j))
        p = EffectiveParams(emitter=em, ell=1.0 + 0j)
        s, w = 0.1 - 0.2j, -0.5
        om = 0.3 + 0.1j
        ds_re, ds_im, dw = _at(effective_rhs, p, [s.real, s.imag, w], om)
        assert complex(ds_re, ds_im) == pytest.approx(
            1j * 0.7 * s + 0.5 * om * w - 0.5 * s)
        assert dw == pytest.approx(-(w + 1.0) - 2.0 * (om * s.conjugate()).real)

    @given(s=small_complex(0.5), w=st.floats(-1, 1),
           ell_re=st.floats(0.1, 3), eps_a=st.floats(0, 10),
           om=small_complex(5.0))
    @settings(max_examples=60)
    def test_undamped_real_factor_conserves_bloch_norm(self, s, w, ell_re,
                                                       eps_a, om):
        """d/dt (w^2 + 4|s|^2) = 0 when gamma_a = 0 and ell is real."""
        em = EmitterParams(delta_a=0.3, eps_a=eps_a, gamma_a=0.0,
                           drive=DriveEnvelope(kind="constant", amplitude=om))
        p = EffectiveParams(emitter=em, ell=complex(ell_re, 0.0))
        ds_re, ds_im, dw = _at(effective_rhs, p, [s.real, s.imag, w], om)
        ddt_norm = 2.0 * w * dw + 8.0 * (s.conjugate()
                                         * complex(ds_re, ds_im)).real
        scale = max(1.0, abs(w), abs(s)) * max(1.0, abs(om), eps_a) * ell_re
        assert abs(ddt_norm) <= 1e-12 * scale


class TestMicroscopicRhs:
    def test_decoupled_inverted_decay(self):
        # no host oscillators, no NDD: bare vacuum decay of w
        p = MicroscopicParams(
            emitter=EMITTER, host=HostSpecies(delta_b=10.0, eps_b=0.0,
                                              gamma_b=4.0))
        d = _at(microscopic_rhs, p, [0.0, 0.0, 1.0, 0.0, 0.0], 0j)
        assert d[2] == pytest.approx(-2.0, rel=1e-15)
        assert (d[0], d[1]) == (0.0, 0.0)

    def test_host_driven_by_bare_field(self):
        em = EmitterParams(drive=DriveEnvelope(kind="constant",
                                               amplitude=2.0 + 0j))
        p = MicroscopicParams(emitter=em, host=HOST)
        d = _at(microscopic_rhs, p, [0.0, 0.0, -1.0, 0.0, 0.0], 2.0 + 0j)
        # -rho*Omega/2 = -2
        assert complex(d[3], d[4]) == pytest.approx(-2.0 + 0j)

    def test_linearization_matrix_at_ground_state(self):
        # at w = -1, Omega = 0 the (s, beta) dynamics is exactly
        # [[A, -C_a], [C_b, alpha]]
        p = MicroscopicParams(emitter=EMITTER, host=HOST)
        a_coef = 1j * 0.0 + 1j * 0.0 - 0.5
        mat = np.array([
            [a_coef, -p.coupling_host_to_emitter],
            [p.coupling_emitter_to_host, p.host_pole],
        ])
        for s, beta in [(0.01 + 0j, 0j), (0j, 0.02j), (0.003 - 0.004j, 0.001j)]:
            d = _at(microscopic_rhs, p,
                    [s.real, s.imag, -1.0, beta.real, beta.imag], 0j)
            ds, dbeta = mat @ np.array([s, beta])
            assert complex(d[0], d[1]) == pytest.approx(ds, rel=1e-14,
                                                        abs=1e-18)
            assert complex(d[3], d[4]) == pytest.approx(dbeta, rel=1e-14,
                                                        abs=1e-18)


def _signed(strategy):
    """strategy, or a signed zero."""
    return st.sampled_from([0.0, -0.0]) | strategy


def _formula_a(p, om, y):
    """Model A's derivative from the unhoisted scalar formulas."""
    em, ell = p.emitter, p.ell
    s, w = complex(y[0], y[1]), y[2]
    ds = (1j * em.delta_a * s - 1j * ell * em.eps_a * w * s
          + 0.5 * ell * om * w - 0.5 * ell * em.gamma_a * s)
    om_eff = ell * om - 2j * ell * em.eps_a * s
    dw = (-ell.real * em.gamma_a * (w + 1.0)
          - 2.0 * (om_eff * s.conjugate()).real)
    return ds.real, ds.imag, dw


def _formula_b(p, om, y):
    """Model B's derivative from the unhoisted scalar formulas."""
    em = p.emitter
    s, w, beta = complex(y[0], y[1]), y[2], complex(y[3], y[4])
    rho = p.dipole_ratio
    c_a = p.coupling_host_to_emitter
    c_b = p.coupling_emitter_to_host
    ds = (1j * em.delta_a * s - 1j * em.eps_a * w * s + 0.5 * om * w
          - 0.5 * em.gamma_a * s + c_a * w * beta)
    dbeta = p.host_pole * beta - 0.5 * rho * om + c_b * s
    dw = (-em.gamma_a * (w + 1.0)
          - 2.0 * ((om + 2.0 * c_a * beta - 2j * em.eps_a * s)
                   * s.conjugate()).real)
    return ds.real, ds.imag, dw, dbeta.real, dbeta.imag


def _host(draw):
    return HostSpecies(delta_b=draw(st.floats(1.0, 20.0)),
                       eps_b=draw(_signed(st.floats(0.0, 10.0))),
                       gamma_b=draw(st.floats(0.1, 8.0)))


@st.composite
def rhs_row(draw, model):
    """(params, om, y): one row of a right-hand-side call of model A or
    B, on a piece of an off, constant or pulsed drive, with signed zeros
    in the parameters and the state."""
    span = 2.0
    drive = _draw_emitter(draw, span).drive
    emitter = EmitterParams(
        delta_a=draw(_signed(st.floats(-2.0, 2.0))),
        eps_a=draw(_signed(st.floats(0.0, 5.0))),
        gamma_a=draw(st.floats(0.1, 2.0)) if model == "B"
        else draw(_signed(st.floats(0.0, 2.0))), drive=drive)
    om = draw(st.sampled_from([om for _, om in drive.pieces(span)]))
    y = [draw(_signed(st.floats(-1.0, 1.0))) for _ in range(3)]
    if model == "B":
        params = MicroscopicParams(emitter=emitter, host=_host(draw))
        return params, om, y + [draw(_signed(st.floats(-0.1, 0.1)))
                                for _ in range(2)]
    if draw(st.booleans()):
        ell = local_field_factor(_host(draw)).ell
    else:
        ell = complex(draw(st.floats(0.1, 3.0)),
                      draw(_signed(st.floats(-2.0, 2.0))))
    return EffectiveParams(emitter=emitter, ell=ell), om, y


def _call(rhs, rows):
    params, oms, ys = zip(*rows)
    return rhs(np.zeros(len(rows)), np.array(ys),
               np.array([p.rhs_constants(om) for p, om in zip(params, oms)]))


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


def _read(p, om):
    """The constants of p on drive om as complex pairs, as
    ``_integrate_runs`` hands them to solve's float form."""
    return np.array(p.rhs_constants(om)).view(complex).tolist()


def _row_call(row, p, om, y):
    """A per-row right-hand side on y, with the constants of p on drive
    om read as solve's float form reads them."""
    return row(0.0, list(y), _read(p, om))


def _rows_call(rows):
    """effective_rhs's per-row form on each (p, om, y) of rows, as solve's
    float form calls it."""
    return [_row_call(dynamics._effective_row, *row) for row in rows]


class TestRhsBits:
    """Model A's right-hand side on arrays against its per-row form, row
    by row: the equality that lets a model-A row take either form at any
    batch size, so that a numpy or CPython whose float or complex
    arithmetic breaks it fails here by name."""

    # a failure of up to 48 drawn rows used to shrink for up to
    # hypothesis's 300 s limit; 20 s still shrinks it part of the way
    @mock.patch.object(engine, "MAX_SHRINKING_SECONDS", 20)
    @settings(max_examples=80, deadline=None)
    @given(rows=st.lists(rhs_row("A"), min_size=1, max_size=48))
    def test_array_rows_equal_scalar_rows_bitwise(self, rows):
        # effective_rhs spells out CPython 3.11's complex arithmetic on
        # arrays at any row count; the per-row form is the oracle, down
        # to the signs of zeros, so a row may take either form in a
        # batch of any size
        array = _call(effective_rhs, rows)
        assert array.shape == (len(rows), 3)
        assert np.array_equal(_bits(array), _bits(_rows_call(rows)))
        # and each row alone, as a one-row batch
        assert np.array_equal(
            _bits(np.concatenate([_call(effective_rhs, [row])
                                  for row in rows])), _bits(array))

    def test_random_rows_equal_scalar_rows_bitwise(self):
        # 200 rows drawn with numpy.random (constant drives, uniform
        # parameters): the drawn examples above can miss a reordered sum
        # that differs on every one of these rows
        rng = np.random.default_rng(20261018)
        rows = []
        for _ in range(200):
            em = EmitterParams(delta_a=rng.uniform(-2.0, 2.0),
                               eps_a=rng.uniform(0.0, 5.0),
                               gamma_a=rng.uniform(0.0, 2.0))
            ell = complex(rng.uniform(0.1, 3.0), rng.uniform(-2.0, 2.0))
            om = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            rows.append((EffectiveParams(emitter=em, ell=ell), om,
                         rng.uniform(-1.0, 1.0, 3).tolist()))
        assert np.array_equal(_bits(_call(effective_rhs, rows)),
                              _bits(_rows_call(rows)))

    @settings(max_examples=60, deadline=None)
    @given(rows_a=st.lists(rhs_row("A"), min_size=1, max_size=8),
           rows_b=st.lists(rhs_row("B"), min_size=1, max_size=4))
    def test_row_functions_equal_the_array_rows_bitwise(self, rows_a,
                                                        rows_b):
        # the per-row functions that ode.solve's float form calls, on
        # each piece's constants read once as complex pairs: model A's
        # against the array branch, model B's against its formulas
        assert np.array_equal(_bits(_rows_call(rows_a)),
                              _bits(_call(effective_rhs, rows_a)))
        assert np.array_equal(
            _bits([_row_call(dynamics._microscopic_row, p, om, y)
                   for p, om, y in rows_b]),
            _bits([_formula_b(p, om, y) for p, om, y in rows_b]))
        for p, om, _ in rows_a + rows_b:
            assert np.array_equal(
                _bits(np.array(_read(p, om)).view(float)),
                _bits(p.rhs_constants(om)))

    @settings(max_examples=40, deadline=None)
    @given(rows_a=st.lists(rhs_row("A"), min_size=1, max_size=4),
           rows_b=st.lists(rhs_row("B"), min_size=1, max_size=4))
    def test_scalar_rows_equal_the_unhoisted_formulas_bitwise(self, rows_a,
                                                               rows_b):
        # the per-piece constants keep the formulas' left-to-right
        # products, so hoisting them changes no bit
        for rhs, formula, rows in ((effective_rhs, _formula_a, rows_a),
                                   (microscopic_rhs, _formula_b, rows_b)):
            assert np.array_equal(
                _bits(_call(rhs, rows)),
                _bits([formula(p, om, y) for p, om, y in rows]))


class TestIntegrateEffective:
    def test_population_decay_closed_form(self):
        p = EffectiveParams(emitter=EMITTER, ell=ELL_LOSSLESS)
        traj = integrate(p, SystemState(s=0j, w=1.0),
                         IntegrationSpec(span=3.0, tol=1e-10, points=301))
        expected = -1.0 + 2.0 * np.exp(-1.4 * traj.times)
        assert_allclose(traj.w, expected, atol=1e-8)
        i1 = np.searchsorted(traj.times, 1.0)
        assert traj.times[i1] == pytest.approx(1.0)
        assert traj.w[i1] == pytest.approx(W_AT_1, abs=1e-8)
        assert np.all(traj.s == 0)

    def test_decay_only_monotonicity(self):
        p = EffectiveParams(emitter=EMITTER, ell=ELL_LOSSLESS)
        traj = integrate(p, SystemState(s=0.3 + 0.1j, w=-0.2),
                         IntegrationSpec(span=6.0, tol=1e-10, points=400))
        assert np.all(np.diff(traj.w) <= 1e-12)
        assert np.all(np.diff(np.abs(traj.s)) <= 1e-12)

    def test_undamped_rabi_oscillation(self):
        em = EmitterParams(delta_a=0.0, eps_a=0.0, gamma_a=0.0,
                           drive=DriveEnvelope(kind="constant",
                                               amplitude=1.0 + 0j))
        p = EffectiveParams(emitter=em, ell=1.0 + 0j)
        traj = integrate(p, SystemState(s=0j, w=-1.0),
                         IntegrationSpec(span=2.0 * math.pi, tol=1e-10,
                                         points=201))
        assert_allclose(traj.w, -np.cos(traj.times), atol=1e-8)
        assert traj.w[-1] == pytest.approx(-1.0, abs=1e-8)

    def test_pulse_edges_are_breakpoints(self):
        # after the pulse ends, an undamped NDD-free atom freezes
        em = EmitterParams(gamma_a=0.0,
                           drive=DriveEnvelope(kind="pulse",
                                               amplitude=1.0 + 0j,
                                               t_on=0.0, t_off=math.pi))
        p = EffectiveParams(emitter=em, ell=1.0 + 0j)
        traj = integrate(p, SystemState(s=0j, w=-1.0),
                         IntegrationSpec(span=2.0 * math.pi, tol=1e-10,
                                         points=257))
        after = traj.times >= math.pi
        assert traj.w[after].max() - traj.w[after].min() < 1e-9
        assert traj.w[-1] == pytest.approx(1.0, abs=1e-7)  # pi pulse inverts

    @pytest.mark.parametrize("tol", [1e-6, 1e-10])
    @pytest.mark.parametrize("model", ["A", "B"])
    def test_ground_state_stays_put_until_the_pulse(self, model, tol):
        # the last step before t_on used to evaluate its end stages with
        # the pulse on, kicking s to -4.5e-6 at t = 0.5 (model A, tol 1e-6)
        drive = DriveEnvelope("pulse", 1, t_on=0.5, t_off=0.6)
        emitter = EmitterParams(drive=drive)
        if model == "A":
            params = EffectiveParams(emitter=emitter, ell=ELL_LOSSLESS)
            initial = SystemState(s=0j, w=-1.0)
        else:
            params = MicroscopicParams(emitter=emitter, host=HOST)
            initial = SystemState(s=0j, w=-1.0, beta=0j)
        traj = integrate(params, initial,
                         IntegrationSpec(span=1.0, tol=tol, points=801))
        before = traj.times <= 0.5
        assert np.all(traj.s[before] == 0)
        assert np.all(traj.s[~before] != 0)

    def test_pulse_starting_just_after_zero(self):
        # a first segment of 2.2e-308 used to start with h = 0 and fail
        # as "too stiff"; it is now one step, and the run matches a
        # pulse from t = 0
        def run(t_on):
            drive = DriveEnvelope("pulse", 1, t_on=t_on, t_off=1.0)
            p = EffectiveParams(emitter=EmitterParams(drive=drive), ell=1)
            return integrate(p, SystemState(s=0j, w=-1.0),
                             IntegrationSpec(span=1.0, tol=1e-6))

        late, prompt = run(2.2250738585072014e-308), run(0.0)
        assert late.n_accepted == prompt.n_accepted + 1
        assert_allclose(late.s, prompt.s, atol=1e-12)
        assert_allclose(late.w, prompt.w, atol=1e-12)

    @pytest.mark.parametrize("t_on, t_off, reference", [
        (5e-324, 1.0, DriveEnvelope("pulse", 1, t_on=0.0, t_off=1.0)),
        (0.5, math.nextafter(0.5, 1.0), DriveEnvelope()),
        (0.0, 5e-324, DriveEnvelope()),
    ])
    def test_segments_shorter_than_ten_ulps(self, t_on, t_off, reference):
        # a step onto a segment end this close used to fail its
        # step-size floor as "too stiff"
        def run(drive):
            p = EffectiveParams(emitter=EmitterParams(drive=drive), ell=1)
            return integrate(p, SystemState(s=0j, w=-1.0),
                             IntegrationSpec(span=1.0, tol=1e-10))

        got = run(DriveEnvelope("pulse", 1, t_on=t_on, t_off=t_off))
        want = run(reference)
        assert got.n_accepted > want.n_accepted
        assert_allclose(got.s, want.s, atol=1e-8)
        assert_allclose(got.w, want.w, atol=1e-8)

    def test_undamped_conservation_over_long_span(self):
        em = EmitterParams(delta_a=0.2, eps_a=2.0, gamma_a=0.0,
                           drive=DriveEnvelope(kind="constant",
                                               amplitude=1.0 + 0.5j))
        p = EffectiveParams(emitter=em, ell=1.4 + 0j)
        tol = 1e-10
        traj = integrate(p, SystemState(s=0j, w=-1.0),
                         IntegrationSpec(span=100.0, tol=tol, points=1001))
        assert np.max(np.abs(traj.bloch_norm - 1.0)) <= 100.0 * tol

    def test_grid_invariance_under_tolerance_halving(self):
        p = EffectiveParams(emitter=EMITTER, ell=ELL_LOSSLESS)
        ends = []
        for tol in (1e-8, 5e-9):
            traj = integrate(p, SystemState(s=0.1 + 0.2j, w=0.5),
                             IntegrationSpec(span=3.0, tol=tol, points=11))
            ends.append(np.array([traj.s[-1].real, traj.s[-1].imag,
                                  traj.w[-1]]))
        assert np.max(np.abs(ends[0] - ends[1])) < 1e-8


class TestIntegrateMicroscopic:
    def test_decoupled_host_reproduces_effective_vacuum(self):
        # eps_b = 0 removes the host-to-emitter coupling entirely
        em = EmitterParams(delta_a=0.3, eps_a=0.5, gamma_a=1.0,
                           drive=DriveEnvelope(kind="constant",
                                               amplitude=0.8 + 0j))
        tol = 1e-10
        pa = EffectiveParams(emitter=em, ell=1.0 + 0j)
        pb = MicroscopicParams(emitter=em,
                               host=HostSpecies(delta_b=5.0, eps_b=0.0,
                                                gamma_b=2.0))
        init = SystemState(s=0.1 + 0j, w=-0.8)
        ta = integrate(pa, init,
                       IntegrationSpec(span=8.0, tol=tol, points=401))
        tb = integrate(pb, SystemState(s=0.1 + 0j, w=-0.8, beta=0j),
                       IntegrationSpec(span=8.0, tol=tol, points=401))
        assert np.max(np.abs(ta.s - tb.s)) <= 10.0 * tol
        assert np.max(np.abs(ta.w - tb.w)) <= 10.0 * tol

    def test_weak_excitation_matches_matrix_exponential(self):
        # full nonlinear model B stays on the 2x2 linearization at w = -1
        p = MicroscopicParams(emitter=EMITTER, host=HOST)
        mat = np.array([
            [-0.5 + 0j, -p.coupling_host_to_emitter],
            [p.coupling_emitter_to_host, p.host_pole],
        ])
        s0 = 1e-4
        tol = 1e-10
        w0 = -math.sqrt(1.0 - 4.0 * s0**2)  # on the Bloch sphere
        traj = integrate(p, SystemState(s=s0 + 0j, w=w0, beta=0j),
                         IntegrationSpec(span=4.0, tol=tol, points=81))
        for i in (20, 40, 80):
            z = expm(mat * traj.times[i]) @ np.array([s0, 0.0])
            assert abs(traj.s[i] - z[0]) <= 100.0 * tol
            assert abs(traj.beta[i] - z[1]) <= 100.0 * tol

    def test_linearized_system_matches_matrix_exponential(self):
        # the clamped (w = -1) linear system integrated as a plain ODE
        p = MicroscopicParams(emitter=EMITTER, host=HOST)
        mat = np.array([
            [-0.5 + 0j, -p.coupling_host_to_emitter],
            [p.coupling_emitter_to_host, p.host_pole],
        ])

        def rhs(t, Y, P):
            z = Y[:, 0::2] + 1j * Y[:, 1::2]
            dz = z @ mat.T
            return np.stack([dz.real, dz.imag], axis=2).reshape(Y.shape)

        tol = 1e-10
        grid = np.linspace(0.0, 3.0, 4)
        res = solve(rhs, [[(3.0, ())]], [0.0],
                    np.array([[1.0, 0.0, 0.0, 0.0]]), [grid.size], [tol])
        for i, t in enumerate(grid):
            z = expm(mat * t) @ np.array([1.0, 0.0])
            got = complex(res.y[i, 0], res.y[i, 1])
            assert abs(got - z[0]) <= 100.0 * tol


class TestIntegrateValidation:
    def test_state_outside_bloch_sphere_rejected(self):
        p = EffectiveParams(emitter=EMITTER, ell=ELL_LOSSLESS)
        with pytest.raises(ValueError):
            integrate(p, SystemState(s=0.6 + 0j, w=0.0),
                      IntegrationSpec(span=1.0, tol=1e-8))
        with pytest.raises(ValueError):
            integrate(p, SystemState(s=0j, w=1.2),
                      IntegrationSpec(span=1.0, tol=1e-8))

    def test_state_past_the_float_range_is_outside(self):
        # w**2 raised OverflowError (a traceback from simulate); such
        # states are past BOUND, so w**2 + 4|s|**2 of a state that
        # SystemState takes is finite
        for name, values in (("w", {"s": 0j, "w": 1e200}),
                             ("s", {"s": 1e308 + 1e308j, "w": 0.0})):
            with pytest.raises(ValueError, match=re.escape(
                    f"initial {name} must be finite and at most "
                    f"{dynamics.BOUND:g} in size, got")):
                SystemState(**values)

    def test_tolerance_range_enforced(self):
        for tol in (1e-3, 1e-13, math.nan):
            with pytest.raises(ValueError, match="tol must lie in"):
                IntegrationSpec(span=1.0, tol=tol)

    def test_nonpositive_span_rejected(self):
        for span in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="span must be positive"):
                IntegrationSpec(span=span)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError, match="points must be >= 2"):
            IntegrationSpec(span=1.0, points=1)

    @pytest.mark.parametrize("points", [11.0, 11.5, "11", None])
    def test_non_integral_points_rejected(self, points):
        # a float of 11.0 validated and then failed the whole batch in
        # integrate_batch, outside the per-run errors
        with pytest.raises(ValueError, match=re.escape(
                f"points must be an integer, got {points!r}")):
            IntegrationSpec(span=1.0, points=points)

    def test_numpy_integer_points_keep_the_bits(self):
        p = EffectiveParams(emitter=EMITTER, ell=ELL_LOSSLESS)
        state = SystemState(s=0.1 + 0.05j, w=0.9)
        plain, numpy_int = (
            integrate(p, state, IntegrationSpec(span=2.0, tol=1e-9,
                                                points=points))
            for points in (41, np.int64(41)))
        assert numpy_int.y.tobytes() == plain.y.tobytes()
        assert numpy_int.times.tobytes() == plain.times.tobytes()
        assert numpy_int.n_rhs == plain.n_rhs

    def test_model_state_mismatch_rejected(self):
        pa = EffectiveParams(emitter=EMITTER, ell=ELL_LOSSLESS)
        pb = MicroscopicParams(emitter=EMITTER, host=HOST)
        with pytest.raises(ValueError):
            integrate(pa, SystemState(s=0j, w=1.0, beta=0j),
                      IntegrationSpec(span=1.0, tol=1e-8))
        with pytest.raises(ValueError):
            integrate(pb, SystemState(s=0j, w=1.0),
                      IntegrationSpec(span=1.0, tol=1e-8))


def _sizes(top, low=-3.0):
    """Sizes 10**u for u from low to log10(top): every scale up to top."""
    return st.floats(low, math.log10(top)).map(lambda u: 10.0 ** u)


def _phased(sizes):
    """Complex numbers of the given sizes, at any phase."""
    return st.tuples(sizes, st.floats(0.0, 2.0 * math.pi)).map(
        lambda p: cmath.rect(*p))


@st.composite
def bounded_run(draw):
    """A run with every input drawn jointly up to dynamics.BOUND (those
    past it, and derived constants past it, refused by assume): rates,
    detunings and the drive at any scale, hosts near their pole and
    down to a gamma_b of 1e-300, beta up to the bound.  The span is
    min(10, 10/rate), rate the largest constant that the right-hand side
    reads (times |beta| where that is more than 1): a short span, which
    the run covers in at most a few thousand steps (there is no step
    budget)."""
    size = _sizes(dynamics.BOUND)
    kind = draw(st.sampled_from(["off", "constant", "pulse"]))
    amplitude = draw(_phased(size))
    emitter = dict(delta_a=draw(_signed(size | size.map(operator.neg))),
                   eps_a=draw(_signed(size)),
                   gamma_a=draw(st.just(1.0) | size))
    # gamma_b down to 1e-300: beta then grows like rho*Omega/|alpha|
    gamma_b = _sizes(dynamics.BOUND, -300.0)
    s, w = _draw_state(draw, 0.5)
    model = draw(st.sampled_from("AB"))
    beta = None
    try:
        if model == "A":
            ell = draw(_phased(size))
            ell = complex(abs(ell.real) or 1.0, ell.imag)
            if draw(st.booleans()):  # from a host near its pole
                eps_b = draw(size)
                ell = local_field_factor(HostSpecies(
                    -eps_b * draw(st.floats(0.999, 1.001)), eps_b,
                    draw(gamma_b))).ell
            make = functools.partial(EffectiveParams, ell=ell)
        else:
            eps_b = draw(size)
            host = HostSpecies(
                -eps_b * draw(st.floats(0.999, 1.001))
                if draw(st.booleans()) else draw(size), eps_b,
                draw(gamma_b))
            beta = draw(st.just(0j) | _phased(size))
            make = functools.partial(MicroscopicParams, host=host)
        params = make(emitter=EmitterParams(**emitter,
                                            drive=DriveEnvelope()))
        rate = max(abs(c) for om in (0j, amplitude)
                   for c in params.rhs_constants(om))
        rate *= max(1.0, abs(beta or 0.0))
        span = min(10.0, 10.0 / rate)
        drive = DriveEnvelope(kind, amplitude, t_on=0.3 * span,
                              t_off=0.7 * span) if kind == "pulse" \
            else DriveEnvelope(kind, amplitude)
        return (make(emitter=EmitterParams(**emitter, drive=drive)),
                SystemState(s=s, w=w, beta=beta),
                IntegrationSpec(span=span, points=11,
                                tol=draw(st.sampled_from([1e-6, 1e-8,
                                                          1e-10]))))
    except ValueError:  # past the bound, or a host at its pole
        assume(False)


@pytest.mark.filterwarnings("ignore::lfbloch.dynamics.BlochNormWarning")
# the starting step's heuristic handles an overflow of its norms on
# purpose, under its own errstate: no numpy warning reaches the caller
@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestBoundedDomain:
    """Runs drawn jointly up to the bound on parameter sizes
    (dynamics.BOUND) never go non-finite and raise no numpy
    RuntimeWarning, so that a bound that lets a stage sum overflow, or a
    warning that leaks from the starting step, fails here by name."""

    @settings(max_examples=60, deadline=None)
    @given(run=bounded_run())
    def test_no_stage_overflows_up_to_the_bound(self, run):
        # on inputs up to dynamics.BOUND every stage sum and every
        # sample stays finite: a run may be too stiff for its tolerance,
        # but never goes non-finite
        (result,) = integrate_batch([run])
        assert not isinstance(result, NonFiniteRhsError), result
        if isinstance(result, Trajectory):
            assert np.isfinite(result.y).all()


class TestTrajectory:
    def test_bookkeeping(self):
        p = EffectiveParams(emitter=EMITTER, ell=ELL_LOSSLESS)
        tol = 1e-9
        traj = integrate(p, SystemState(s=0j, w=1.0),
                         IntegrationSpec(span=2.0, tol=tol, points=50))
        assert isinstance(traj, Trajectory)
        assert traj.model == "A"
        assert traj.tol == tol
        assert np.all(np.diff(traj.times) > 0)
        assert len(traj.times) == len(traj.s) == len(traj.w) == 50
        assert traj.beta is None
        assert traj.n_accepted > 0
        assert traj.n_rhs > traj.n_accepted
        assert traj.bloch_norm_max <= 1.0 + 100.0 * tol

    def test_microscopic_carries_host_amplitude(self):
        p = MicroscopicParams(emitter=EMITTER, host=HOST)
        traj = integrate(p, SystemState(s=0.01 + 0j, w=-0.9, beta=0j),
                         IntegrationSpec(span=1.0, tol=1e-8, points=20))
        assert traj.beta is not None and len(traj.beta) == 20
        assert traj.model == "B"

    def test_deterministic_rerun(self):
        em = EmitterParams(drive=DriveEnvelope(kind="constant",
                                               amplitude=1.0 + 0j))
        p = EffectiveParams(emitter=em, ell=1.2 + 0j)
        runs = [integrate(p, SystemState(s=0j, w=-1.0),
                          IntegrationSpec(span=5.0, tol=1e-9, points=100))
                for _ in range(2)]
        assert np.array_equal(runs[0].s, runs[1].s)
        assert np.array_equal(runs[0].w, runs[1].w)
        assert runs[0].n_rhs == runs[1].n_rhs


def _draw_emitter(draw, span, kinds=("off", "constant", "pulse")):
    kind = draw(st.sampled_from(kinds))
    amplitude = complex(draw(st.floats(-1.5, 1.5)),
                        draw(st.floats(-1.5, 1.5)))
    if kind == "pulse":
        t_on = draw(st.floats(0.0, span))
        drive = DriveEnvelope(kind="pulse", amplitude=amplitude, t_on=t_on,
                              t_off=t_on + draw(st.floats(0.05, span)))
    else:
        drive = DriveEnvelope(kind=kind, amplitude=amplitude)
    return EmitterParams(delta_a=draw(st.floats(-2.0, 2.0)),
                         eps_a=draw(st.floats(0.0, 1.0)),
                         gamma_a=draw(st.floats(0.5, 1.5)), drive=drive)


def _draw_state(draw, radius):
    """(s, w) with |s| <= radius*sqrt(1 - w^2): radius 0.5 reaches the
    Bloch sphere."""
    w = draw(st.floats(-1.0, 1.0))
    r = radius * math.sqrt(1.0 - w * w) * draw(st.floats(0.0, 1.0))
    phi = draw(st.floats(0.0, 2.0 * math.pi))
    return complex(r * math.cos(phi), r * math.sin(phi)), w


def _draw_integration(draw, span):
    return IntegrationSpec(
        span=span, tol=draw(st.sampled_from([1e-6, 1e-8, 1e-10])),
        points=draw(st.integers(2, 300)))


@st.composite
def batch_run(draw, model=None):
    """One (params, initial, integration) run of model A or B (of the
    model given)."""
    span = draw(st.floats(0.5, 3.0))
    emitter = _draw_emitter(draw, span)
    s, w = _draw_state(draw, 0.45)
    integration = _draw_integration(draw, span)
    if draw(st.booleans()) if model is None else model == "A":
        ell = complex(draw(st.floats(1.0, 2.0)), draw(st.floats(-0.3, 0.3)))
        return (EffectiveParams(emitter=emitter, ell=ell),
                SystemState(s=s, w=w), integration)
    host = HostSpecies(delta_b=draw(st.floats(2.0, 8.0)),
                       eps_b=draw(st.floats(0.0, 4.0)),
                       gamma_b=draw(st.floats(1.0, 4.0)))
    return (MicroscopicParams(emitter=emitter, host=host),
            SystemState(s=s, w=w, beta=draw(small_complex(0.1))),
            integration)


@st.composite
def crossing_batch(draw):
    """FLOAT_ROWS + 1 or + 2 runs of one model, run k on 2**k times the
    first one's span: the batch's rows finish on different passes, so
    that its passes go from arrays to Python floats."""
    runs = draw(st.lists(batch_run(draw(st.sampled_from("AB"))),
                         min_size=ode.FLOAT_ROWS + 1,
                         max_size=ode.FLOAT_ROWS + 2))
    span = runs[0][2].span
    return [(params, initial,
             dataclasses.replace(integration, span=2**k * span))
            for k, (params, initial, integration) in enumerate(runs)]


def _with_drive(run, drive):
    params, initial, integration = run
    emitter = dataclasses.replace(params.emitter, drive=drive)
    return (dataclasses.replace(params, emitter=emitter), initial,
            integration)


def _same_trajectory(a: Trajectory, b: Trajectory) -> bool:
    return (np.array_equal(a.times, b.times) and np.array_equal(a.s, b.s)
            and np.array_equal(a.w, b.w)
            and (a.beta is None) == (b.beta is None)
            and (a.beta is None or np.array_equal(a.beta, b.beta))
            and (a.model, a.tol, a.n_accepted, a.n_rejected, a.n_rhs,
                 a.bloch_norm_max)
            == (b.model, b.tol, b.n_accepted, b.n_rejected, b.n_rhs,
                b.bloch_norm_max))


def _lone(run):
    """integrate(*run), or the integrator failure it raises."""
    try:
        return integrate(*run)
    except StepSizeUnderflowError as exc:
        return exc


def _same_outcome(a, b) -> bool:
    if isinstance(a, Trajectory) and isinstance(b, Trajectory):
        return _same_trajectory(a, b)
    return type(a) is type(b) and str(a) == str(b)


def _piece_rows(run) -> set:
    """The rows of constants that run's pieces hand the right-hand side."""
    params, _, integration = run
    return {params.rhs_constants(om)
            for _, om in params.emitter.drive.pieces(integration.span)}


def _poisoned(original, bad_rows, t_bad):
    """original, but NaN in every row whose constants are in bad_rows
    once its t passes t_bad."""
    def rhs(t, Y, P):
        out = np.array(original(t, Y, P))
        for b, (t_b, p) in enumerate(zip(t.tolist(), P.tolist())):
            if tuple(p) in bad_rows and t_b > t_bad:
                out[b] = math.nan
        return out
    return rhs


def _poisoned_row(original, bad_rows, t_bad):
    """The per-row form original, poisoned as ``_poisoned`` poisons the
    array form: c is its row of constants as complex pairs."""
    def row(t, y, c):
        if t > t_bad and tuple(x for z in c for x in (z.real, z.imag)) \
                in bad_rows:
            return (math.nan,) * len(y)
        return original(t, y, c)
    return row


def _poisoning(bad_rows, t_bad):
    """Both forms of both right-hand sides on lfbloch.dynamics, poisoned
    by ``_poisoned`` and ``_poisoned_row``."""
    stack = contextlib.ExitStack()
    for name, poison in (("effective_rhs", _poisoned),
                         ("microscopic_rhs", _poisoned),
                         ("_effective_row", _poisoned_row),
                         ("_microscopic_row", _poisoned_row)):
        stack.enter_context(mock.patch.object(dynamics, name, poison(
            getattr(dynamics, name), bad_rows, t_bad)))
    return stack


@pytest.mark.filterwarnings("ignore::lfbloch.dynamics.BlochNormWarning")
class TestIntegrateBatch:
    @settings(max_examples=60, deadline=None)
    @given(runs=st.lists(batch_run(), min_size=1, max_size=5))
    def test_batch_equals_lone_runs_bitwise(self, runs):
        # a run may fail alone (none drawn here is known to); its entry
        # must then be the same failure
        batch = integrate_batch(runs)
        assert len(batch) == len(runs)
        for got, run in zip(batch, runs):
            assert _same_outcome(got, _lone(run))

    @pytest.mark.bits
    @pytest.mark.parametrize("lone_rows", [0, 10**6],
                             ids=["lone-arrays", "lone-floats"])
    @settings(max_examples=12, deadline=None)
    @given(runs=crossing_batch())
    def test_rows_crossing_float_rows_match_lone_runs(self, lone_rows,
                                                      runs):
        # random hosts, drives and tolerances: a batch whose passes go
        # from arrays to Python floats as its rows finish gives each row
        # the bits and counters of the row alone, on arrays (FLOAT_ROWS
        # 0) or in Python floats (10**6) on every pass
        with mock.patch.object(ode, "_attempt", wraps=ode._attempt) as wide, \
                _float_passes() as floats:
            batch = integrate_batch(runs)
        assert any(len(call.args[3]) > ode.FLOAT_ROWS
                   for call in wide.call_args_list)
        # a batch whose last rows end one pass after the others takes
        # that pass's attempt on arrays too, and crosses nothing
        assume(floats.called)
        with mock.patch.object(ode, "FLOAT_ROWS", lone_rows):
            for got, run in zip(batch, runs):
                assert _same_outcome(got, _lone(run))

    @settings(max_examples=30, deadline=None)
    @given(runs=st.lists(batch_run(), min_size=2, max_size=4),
           data=st.data())
    def test_nonfinite_row_fails_alone(self, runs, data):
        k = data.draw(st.integers(0, len(runs) - 1))
        bad_rows = _piece_rows(runs[k])
        t_bad = data.draw(st.floats(0.0, 0.9)) * runs[k][2].span
        with _poisoning(bad_rows, t_bad):
            batch = integrate_batch(runs)
            poisoned = [_lone(run) for run in runs]
        assert isinstance(batch[k], NonFiniteRhsError)
        assert type(poisoned[k]) is NonFiniteRhsError
        assert str(batch[k]) == str(poisoned[k])
        for j, run in enumerate(runs):
            # a run drawn with some of the same constants is poisoned
            # there too; every other run is untouched
            shares = j == k or _piece_rows(run) & bad_rows
            assert _same_outcome(batch[j],
                                 poisoned[j] if shares else _lone(run))

    def test_nonfinite_row_fails_alone_in_an_array_batch(self):
        drive = DriveEnvelope("pulse", 0.5 + 0.2j, t_on=0.5, t_off=1.5)
        runs = [(EffectiveParams(emitter=EmitterParams(delta_a=0.1 * j,
                                                       eps_a=0.2,
                                                       drive=drive),
                                 ell=complex(1.0 + 0.05 * j, 0.1)),
                 SystemState(s=0.1 + 0j, w=0.5),
                 IntegrationSpec(span=2.0, tol=1e-8, points=41))
                for j in range(32)]
        k, sizes, attempts = 5, [], []
        attempt = ode._attempt

        def spy(*args):  # a wide pass attempts its rows on arrays
            attempts.append(len(args[3]))
            return attempt(*args)

        with _poisoning(_piece_rows(runs[k]), 0.7):
            poisoned = dynamics.effective_rhs

            def rhs(t, Y, P):
                sizes.append(len(Y))
                return poisoned(t, Y, P)

            with mock.patch.object(dynamics, "effective_rhs", rhs):
                with mock.patch.object(ode, "_attempt", spy):
                    batch = integrate_batch(runs)
                lone = _lone(runs[k])
        # the stages of every row are one call (a flush's extra stages
        # take the jobs of several passes)
        assert len(runs) in sizes
        assert max(attempts) == len(runs)
        assert isinstance(batch[k], NonFiniteRhsError)
        assert str(batch[k]) == str(lone)
        for j, run in enumerate(runs):
            if j != k:
                assert _same_outcome(batch[j], _lone(run))

    @settings(max_examples=30, deadline=None)
    @given(run=batch_run(), before=st.booleans(), data=st.data())
    def test_pulse_outside_the_span_is_the_off_run(self, run, before, data):
        span = run[2].span
        if before:
            t_off = data.draw(st.floats(-span, 0.0))
            t_on = t_off - data.draw(st.floats(1e-3, span))
        else:
            t_on = span + data.draw(st.floats(0.0, span))
            t_off = data.draw(st.sampled_from([t_on + 1.0, math.inf]))
        pulse = DriveEnvelope("pulse", 1 + 1j, t_on=t_on, t_off=t_off)
        assert _same_trajectory(integrate(*_with_drive(run, pulse)),
                                integrate(*_with_drive(run, DriveEnvelope())))

    @settings(max_examples=30, deadline=None)
    @given(run=batch_run(), data=st.data())
    def test_pulse_covering_the_span_is_the_constant_run(self, run, data):
        span = run[2].span
        t_on = -data.draw(st.floats(0.0, span))
        t_off = data.draw(st.sampled_from([span, 2.0 * span, math.inf]))
        amplitude = 0.7 - 0.4j
        pulse = DriveEnvelope("pulse", amplitude, t_on=t_on, t_off=t_off)
        constant = DriveEnvelope("constant", amplitude)
        assert _same_trajectory(integrate(*_with_drive(run, pulse)),
                                integrate(*_with_drive(run, constant)))

    def test_invalid_run_fails_alone(self):
        good = (EffectiveParams(emitter=EMITTER, ell=ELL_LOSSLESS),
                SystemState(s=0j, w=1.0), IntegrationSpec(span=1.0))
        outside = (good[0], SystemState(s=0.6 + 0j, w=0.0), good[2])
        batch = integrate_batch([outside, good])
        assert isinstance(batch[0], ValueError)
        assert "Bloch sphere" in str(batch[0])
        assert _same_trajectory(batch[1], integrate(*good))

    def test_bloch_warning_names_the_caller(self):
        # a right-hand side that inflates the state leaves the sphere:
        # both forms of it, the batch's and the one-row passes'
        run = (EffectiveParams(emitter=EMITTER, ell=ELL_LOSSLESS),
               SystemState(s=0j, w=-1.0), IntegrationSpec(span=1.0,
                                                          points=11))
        with mock.patch.object(dynamics, "effective_rhs",
                               lambda t, Y, P: Y), \
                mock.patch.object(dynamics, "_effective_row",
                                  lambda t, y, c: y):
            with pytest.warns(BlochNormWarning) as lone:
                integrate(*run)
            with pytest.warns(BlochNormWarning) as batch:
                integrate_batch([run, run])
        assert [w.filename for w in lone] == [__file__]
        assert [w.filename for w in batch] == [__file__] * 2

    def test_bloch_warning_states_the_excess(self):
        # a constant dw/dt of 5e-9 from w = 1 ends at w = 1 + 5e-9, a
        # norm of 1 + 1e-8: the message gives that excess against
        # 100*tol, where a norm in 6 digits would read 1
        run = (EffectiveParams(emitter=EMITTER, ell=ELL_LOSSLESS),
               SystemState(s=0j, w=1.0),
               IntegrationSpec(span=1.0, tol=1e-11, points=11))
        with mock.patch.object(dynamics, "effective_rhs",
                               lambda t, Y, P: Y * 0.0 + [0.0, 0.0, 5e-9]), \
                mock.patch.object(dynamics, "_effective_row",
                                  lambda t, y, c: (0.0, 0.0, 5e-9)):
            with pytest.warns(BlochNormWarning) as lone:
                integrate(*run)
            with pytest.warns(BlochNormWarning) as batch:
                integrate_batch([run, run])
        message = ("trajectory left the Bloch sphere: max(w^2 + 4|s|^2) - 1 "
                   "= 1e-08 > 100*tol = 1e-09")
        assert [str(w.message) for w in lone] == [message]
        assert [str(w.message) for w in batch] == [message] * 2

    def test_empty_batch(self):
        assert integrate_batch([]) == []


def _decays(count, tol=1e-10, points=1601):
    """Model-A decays from full inversion, as a population sweep runs
    them."""
    return [(EffectiveParams(emitter=EMITTER, ell=1.0 + 0.01 * i + 0.002j * i),
             SystemState(s=0j, w=1.0),
             IntegrationSpec(span=6.5 / (1.0 + 0.01 * i), tol=tol,
                             points=points))
            for i in range(count)]


# The batch (runs, integrate_batch's keywords) pickled on stdin; prints
# its traced peak in bytes
_TRACE_BATCH = """
import pickle, sys, tracemalloc
from lfbloch.dynamics import integrate_batch
runs, kwargs = pickle.load(sys.stdin.buffer)
integrate_batch(runs[:2], **kwargs)  # lazy set-up outside the peak
tracemalloc.start()
integrate_batch(runs, **kwargs)
print(tracemalloc.get_traced_memory()[1])
"""


def _traced_peak(runs, **kwargs):
    """The batch's traced peak in bytes per sample, taken in a fresh
    interpreter: the first batch a process traces reads the highest, so
    a bound holds whatever ran before it."""
    done = subprocess.run([sys.executable, "-c", _TRACE_BATCH],
                          input=pickle.dumps((runs, kwargs)),
                          capture_output=True, check=True)
    return int(done.stdout) / sum(run[2].points for run in runs)


@functools.cache
def _mixed_batch(float_rows):
    """Runs of Dormand-Prince (model A, 9 rows, and model B, 2 rows) and
    of the exponential method (model B, fast host pole, 2 rows); their
    batch with ``ode.FLOAT_ROWS`` at float_rows, and its warnings."""
    runs = _decays(9, tol=1e-8, points=301) + [
        (MicroscopicParams(emitter=EMITTER, host=HostSpecies(
            delta_b=delta_b, eps_b=20.0, gamma_b=4.0)),
         SystemState(s=0.01 + 0j, w=-math.sqrt(1.0 - 4e-4), beta=0j),
         IntegrationSpec(span=8.0, tol=tol, points=401))
        for delta_b in (5.0, 150.0) for tol in (1e-9, 1e-4)]
    with warnings.catch_warnings(record=True) as caught, \
            mock.patch.object(ode, "FLOAT_ROWS", float_rows):
        warnings.simplefilter("always")
        batch = integrate_batch(runs)
    return runs, batch, [str(w.message) for w in caught]


def _grids(cases):
    """The ``_Grids`` that solve keeps of the grids (t0, end, points) of
    cases, one row each."""
    params = [(t0, (end - t0) / (n - 1), n - 1, end) for t0, end, n in cases]
    points = [n for *_, n in cases]
    offsets = np.zeros(len(cases) + 1, dtype=int)
    np.cumsum(points, out=offsets[1:])
    return ode._Grids(offsets, np.array(params).reshape(len(cases), 4),
                      np.arange(max(points), dtype=float))


class TestGridBits:
    """Each run samples np.linspace's grid, bit for bit, from 0 and from
    any other start: Trajectory.times is np.linspace itself, and solve
    computes its sample times by linspace's arithmetic, _points, on a
    step that is not 0 (where the step underflows to 0, linspace divides
    first, and solve refuses the grid), in three ways: _points itself,
    on 2-D stacks into an out (as stacked dense output calls it) and on
    flat per-sample arrays (as the exponential method calls it), and
    _times on a run of one grid's points (the fits' window).  A numpy that breaks one fails here by name."""

    @staticmethod
    def from_zero():
        # spans from subnormal to the top of the float range
        rng = np.random.default_rng(14)
        spans = [10.0 ** k for k in range(-300, 301, 10)] + list(
            rng.uniform(1.0, 10.0, 40) * 10.0 ** rng.integers(-300, 300, 40)
        ) + [6.5 / 1.37, 8.0, 5e-324, 1e-320, np.finfo(float).max]
        return [(0.0, float(span), n) for span in spans
                for n in (2, 3, 4, 7, 10, 101, 801, 1601, 8001, 10**4)]

    @staticmethod
    def from_any_start():
        # starts of either sign and any magnitude, -0.0 among them, spans
        # from subnormal (whose steps underflow to 0 or round far off)
        # to wider than the start, and up to 1e6 points
        rng = np.random.default_rng(15)
        starts = [(float(rng.normal() * 10.0 ** rng.integers(-300, 300)),
                   float(rng.uniform(1.0, 10.0)
                         * 10.0 ** rng.integers(-320, 300)))
                  for _ in range(300)]
        starts += [(5e-324, 5e-324), (-1e-320, 3e-320), (1e-310, 1e-320),
                   (-2.5, 5.0), (1e6, 1e-9), (0.1, 0.2), (-0.0, 1.0)]
        cases = []
        for t0, span in starts:
            end = t0 + span
            if not end > t0 or not math.isfinite(end):
                continue
            for n in (2, 3, 7, 801, 1601, 10**4, 10**6):
                if n == 10**6 and rng.random() > 0.05:
                    continue
                cases.append((t0, end, n))
        return cases

    @staticmethod
    def assert_points(cases):
        """_points on every grid point of cases whose step is not 0
        against np.linspace; returns how many grids were checked."""
        checked = 0
        with np.errstate(over="ignore"):  # (points - 1)*step past the top
            for t0, end, n in cases:
                step = (end - t0) / (n - 1)
                if step == 0.0:
                    continue
                checked += 1
                assert np.array_equal(
                    _bits(ode._points(np.arange(n), t0, step, n - 1, end)),
                    _bits(np.linspace(t0, end, n))), (t0, end, n)
        return checked

    def test_grid_equals_linspace(self):
        assert self.assert_points(self.from_zero()) >= 1000

    def test_grid_from_any_start_equals_linspace(self):
        # and falling grids, from signed zeros among others, which
        # solve refuses
        falling = [(t0, end, n) for t0, end in [
            (0.0, -1.0), (-0.0, -2.5), (0.0, -1e-320), (3.0, -4.0),
            (-0.0, 5e-324)] for n in (2, 3, 7, 801)]
        assert self.assert_points(self.from_any_start() + falling) >= 900

    @pytest.mark.parametrize("which", ["from_zero", "from_any_start"])
    def test_sample_times_equal_linspace(self, which):
        # rising grids whose step is not 0, as solve keeps them: stacks
        # of rows' points with the last point of each row among them,
        # those points as flat per-sample arrays, and the points lo:hi
        # of a row, from the first point, inside and up to the last
        rng = np.random.default_rng(16)
        cases = [(t0, end, n) for t0, end, n in getattr(self, which)()
                 if (end - t0) / (n - 1) != 0.0]
        assert len(cases) >= 500
        with np.errstate(over="ignore"):
            for lo in range(0, len(cases), 64):
                chunk = cases[lo:lo + 64]
                grids = _grids(chunk)
                ks = np.stack([np.append(rng.integers(0, n, 5), n - 1)
                               for *_, n in chunk])
                # written into a strided out, of float indices, as
                # stacked dense output writes theta
                out = np.empty(ks.shape + (7,))[..., 0]
                assert ode._points(ks.astype(float),
                                   *grids.params.T[:, :, None],
                                   out=out) is out
                # one entry per sample, of int indices, as the
                # exponential method computes its sample times
                rows = np.repeat(np.arange(len(chunk)), ks.shape[1])
                flat = ode._points(ks.ravel(), *grids.params[rows].T)
                flat = flat.reshape(ks.shape)
                for b, (t0, end, n) in enumerate(chunk):
                    want = np.linspace(t0, end, n)
                    assert np.array_equal(_bits(out[b]),
                                          _bits(want[ks[b]])), (t0, end, n)
                    assert np.array_equal(_bits(flat[b]),
                                          _bits(want[ks[b]])), (t0, end, n)
                    i, j = sorted(rng.integers(0, n, 2).tolist())
                    for a, z in {(0, n), (0, 1), (i, j + 1), (i, n),
                                 (n - 1, n)}:
                        assert np.array_equal(
                            _bits(ode._times(grids.ks[a:z],
                                             *grids.params[b].tolist())),
                            _bits(want[a:z])), (t0, end, n, a, z)


class TestBatchMemory:
    """A batch holds its samples and no time arrays: its trajectories
    view the samples and build their times on read, as they build s and
    beta; a batch that keeps some components stores only those.  Each
    peak is traced in a fresh interpreter, so that a change that makes a
    batch hold more per sample fails here by name."""

    def test_model_a_batch_peak_and_views(self):
        # at the tolerance of the sweeps: samples 24 bytes and a flush's
        # dense output, a stack of at most ode.DENSE_SAMPLES (1536)
        # samples or 1/64 of the batch's (3202 here) at a time, 28.7
        # measured (28.1 when each pass wrote its own dense output, 27.4
        # in stacks of 1536; 35.0 with the whole pass in
        # one stack); 40 with a copy of the grids, and 57.6 when each
        # run kept a grid of its own and s (both at 1024 samples per
        # stack)
        runs = _decays(128)
        assert _traced_peak(runs) <= 30.0
        batch = integrate_batch(runs)
        samples = batch[0].y.base
        assert samples.shape == (128 * 1601, 3)
        for traj, (_, _, integration) in zip(batch, runs):
            assert traj.y.base is samples
            assert traj.span == integration.span
            assert traj.times.tobytes() == np.linspace(
                0.0, integration.span, integration.points).tobytes()

    def test_kept_w_peak(self):
        # w 8 bytes: s only reaches a flush's dense output.  32 runs read
        # 13.96 bytes per sample (13.67 when each pass wrote its own
        # dense output) at ode.DENSE_SAMPLES 1536, which their
        # stacks keep (12.8 at 1024, 13.995 at 1792; 19.3 with the whole
        # pass in one stack), 21.5 when the batch keeps s; 21.3 and 29
        # with a copy of the grids (at 1024)
        runs = _decays(32)
        assert _traced_peak(runs, keep=("w",)) <= 14.0
        assert integrate_batch(runs, keep=("w",))[0].y.shape == (1601, 1)

    @pytest.mark.parametrize("keep, bound", [(None, 30.0), (("w",), 14.0)])
    def test_large_batch_peak(self, keep, bound):
        # a sweep's 256 runs, whose stacks hold 1/64 of the batch's
        # samples (6404): about 1.5 bytes per sample of the batch at any
        # batch size, 28.7 whole and 12.7 keeping w (28.1 and 12.1 when
        # a pass's own copies were not taken; 27.0 and 11.0 in stacks of
        # 1536)
        assert _traced_peak(_decays(256), keep=keep) <= bound

    def test_exponential_slices_peak(self):
        # 8 rows of long steps with a fast host pole: the exponential
        # method's dense output, slices of ode.DENSE_SAMPLES (1536) at
        # about 2 kB per sample, whatever the batch's size: 72.6 bytes
        # per sample measured with the phi series weighted in place
        # (77.0-78.9 before; 68.5 at 1024 samples per slice, 81.2 at
        # 1792, 102 at 3072)
        runs = [(MicroscopicParams(emitter=EMITTER, host=HostSpecies(
                    delta_b=100.0 + 230.0 * i / 7, eps_b=20.0,
                    gamma_b=4.0)),
                 SystemState(s=0.01 + 0j, w=-math.sqrt(1.0 - 4e-4),
                             beta=0j),
                 IntegrationSpec(span=8.0, tol=1e-6, points=8001))
                for i in range(8)]
        assert _traced_peak(runs) <= 80.0

    @pytest.mark.parametrize("count, span, points, bound", [
        (1, 4.0, 401, 3000.0), (256, 0.4, 41, 450.0)])
    def test_waiting_jobs_peak(self, count, span, points, bound):
        # the worst case of dense output that waits across passes:
        # strongly driven runs whose steps are about as short as their
        # grid spacing, one sample each (two in a few), so that a job
        # waits per sample.  A job holds its rows of y, K (13 stages)
        # and P (24 constants) and a tuple, about 1.3 kB on a lone run's
        # passes of one job (0.85 kB on a wide pass), and a flush
        # gathers them into arrays of about 1 kB more per job.  A lone
        # run, all of whose jobs wait for one flush at its end: about
        # 2.4 kB per sample.  256 runs of 41 samples, whose flushes
        # come at ode.DENSE_SAMPLES (1536) samples, 6 passes' jobs:
        # about 320 bytes per sample over the 24 of the samples and the
        # pass's own arrays.  Measured: 2130.2 and 406.5 (166.7 and
        # 163.8 when each pass wrote its own dense output)
        runs = [(EffectiveParams(emitter=dataclasses.replace(
                     EMITTER, drive=DriveEnvelope("constant", 60.0 + 0.1 * i)),
                     ell=1.2 + 0.1j),
                 SystemState(s=0j, w=-1.0),
                 IntegrationSpec(span=span, tol=1e-10, points=points))
                for i in range(count)]
        assert _traced_peak(runs) <= bound

    @pytest.mark.parametrize("float_rows", [0, 10**6])
    @pytest.mark.parametrize("keep", [("w",), ("s",), ("w", "beta")])
    def test_kept_components_keep_their_bits(self, keep, float_rows):
        # the whole batch's passes all wide, attempted on arrays (0), or
        # all narrow, in Python floats where they can be (10**6), as the
        # whole batch's are: a batch that keeps some components writes
        # and measures the samples of its flushes after either
        runs, whole, whole_warnings = _mixed_batch(float_rows)
        with warnings.catch_warnings(record=True) as kept_warnings, \
                mock.patch.object(ode, "FLOAT_ROWS", float_rows), \
                mock.patch.object(ode, "_dense_output",
                                  wraps=ode._dense_output) as spy:
            warnings.simplefilter("always")
            kept = integrate_batch(runs, keep=keep)
        assert spy.call_args_list
        assert [str(w.message) for w in kept_warnings] == whole_warnings
        for a, b in zip(whole, kept):
            assert (a.n_accepted, a.n_rejected, a.n_rhs) == (
                b.n_accepted, b.n_rejected, b.n_rhs)
            assert a.bloch_norm_max == b.bloch_norm_max
            assert a.times.tobytes() == b.times.tobytes()
            for name in ("s", "w", "beta"):
                if name in keep or name == "beta" and a.model == "A":
                    want, got = getattr(a, name), getattr(b, name)
                    assert (got is None if want is None
                            else got.tobytes() == want.tobytes())
                else:
                    with pytest.raises(AttributeError, match=name):
                        getattr(b, name)

    @pytest.mark.parametrize("keep", [(), ("beta",), ("s", "u")])
    def test_keep_names_s_or_w(self, keep):
        with pytest.raises(ValueError, match="keep must name"):
            integrate_batch(_decays(1), keep=keep)

    def test_dense_output_slices_keep_the_bits(self):
        # 9 rows of long steps with a fast host pole, which take the
        # exponential method: passes of dozens of samples, which slices
        # of 5 split many times
        runs = [(MicroscopicParams(emitter=EMITTER, host=HostSpecies(
                    delta_b=100.0 + 10.0 * i, eps_b=20.0, gamma_b=4.0)),
                 SystemState(s=0.01 + 0j, w=-math.sqrt(1.0 - 4e-4),
                             beta=0j),
                 IntegrationSpec(span=8.0, tol=1e-6, points=401))
                for i in range(9)]
        whole = integrate_batch(runs)
        with mock.patch.object(ode, "DENSE_SAMPLES", 5):
            sliced = integrate_batch(runs)
        for a, b in zip(whole, sliced):
            assert a.y.tobytes() == b.y.tobytes()
            assert (a.n_accepted, a.n_rejected) == (b.n_accepted,
                                                    b.n_rejected)

    @pytest.mark.bits
    @pytest.mark.parametrize("keep", [None, ("w",)])
    def test_dormand_prince_stack_size_keeps_the_bits(self, keep):
        # model-A rows of different spans and grid sizes, from sparse
        # grids (one sample per step or none) to dense ones (dozens),
        # whose wide passes stack one-sample and many-sample jobs; in
        # stacks of the default size (ode.DENSE_SAMPLES: the batch holds
        # 3736 samples, 58 to a 1/64 share), of one job, of 7 samples,
        # of 29 (a 1/128 share) and of a whole pass
        runs = [(EffectiveParams(emitter=EMITTER,
                                 ell=1.0 + 0.05 * i + 0.01j * i),
                 SystemState(s=0.1 + 0.05j, w=0.9),
                 IntegrationSpec(span=2.0 + 0.7 * i, tol=1e-9,
                                 points=points))
                for i, points in enumerate([3, 5, 12, 40, 201, 1601, 4, 801,
                                            7, 2, 1000, 60])]
        with mock.patch.object(ode, "_dense_output",
                               wraps=ode._dense_output) as spy:
            default = integrate_batch(runs, keep=keep)
        samples = [[b - a for a, b in zip(call.args[0].start,
                                          call.args[0].end)]
                   for call in spy.call_args_list]
        assert any(1 in m and max(m) > 1 for m in samples)
        for size, share in [(1, 10**9), (7, 10**9), (1, 128), (10**6, 64)]:
            with mock.patch.object(ode, "DENSE_SAMPLES", size), \
                    mock.patch.object(ode, "STACK_SHARE", share):
                batch = integrate_batch(runs, keep=keep)
            for a, b in zip(default, batch):
                assert a.y.tobytes() == b.y.tobytes()
                assert a.bloch_norm_max == b.bloch_norm_max
                assert (a.n_accepted, a.n_rejected, a.n_rhs) == (
                    b.n_accepted, b.n_rejected, b.n_rhs)

    def test_s_and_beta_are_the_samples_bit_for_bit(self):
        # signed zeros, then a failed row's NaN samples
        y = np.array([[-0.0, -0.0, -1.0, -0.0, 0.0],
                      [0.0, -0.0, 0.5, -0.0, -0.0],
                      [-0.0, 1e-300, -0.0, 2.5, -0.0],
                      [-0.0, 0.0, 0.25, 0.0, -0.0],
                      [math.nan] * 5,
                      [math.nan] * 5])
        traj = Trajectory(span=5.0, y=y, model="B", tol=1e-10,
                          n_accepted=0, n_rejected=0, n_rhs=0,
                          bloch_norm_max=0.0)
        assert traj.times.tobytes() == np.arange(6.0).tobytes()
        # the expressions that built them when trajectories held them
        assert traj.s.tobytes() == (y[:, 0] + 1j * y[:, 1]).tobytes()
        assert traj.beta.tobytes() == (y[:, 3] + 1j * y[:, 4]).tobytes()
        assert traj.w.tobytes() == y[:, 2].tobytes()
        assert dataclasses.replace(traj, model="A", y=y[:, :3]).beta is None


# Re s' = _SURGE cos(t/90) of a rigged model-A row: its samples overflow
# the float range in its dense output's products, whose weights reach
# hundreds, while its stages and states stay finite
_SURGE = np.finfo(float).max / 90.0


def _surged(original, rows):
    """original, but the derivative (_SURGE cos(t/90), 0, 0) in every
    row whose constants are in rows."""
    def rhs(t, Y, P):
        out = np.array(original(t, Y, P))
        for b, (t_b, p) in enumerate(zip(t.tolist(), P.tolist())):
            if tuple(p) in rows:
                out[b] = (_SURGE * math.cos(t_b / 90.0), 0.0, 0.0)
        return out
    return rhs


def _surged_row(original, rows):
    """The per-row form original, surged as ``_surged`` surges the array
    form: c is its row of constants as complex pairs."""
    def row(t, y, c):
        if tuple(x for z in c for x in (z.real, z.imag)) in rows:
            return (_SURGE * math.cos(t / 90.0), 0.0, 0.0)
        return original(t, y, c)
    return row


def _flush_runs():
    """Runs of model A and of model B on both sides of
    ``EXPONENTIAL_POLE``: rows of one sample per step at most and of
    about a hundred, pulses of three pieces, a model-A row whose dense
    output overflows (surged) and a model-B row whose right-hand side
    goes NaN, so that its step underflows (poisoned)."""
    pulse = DriveEnvelope("pulse", 0.4 + 0.1j, t_on=0.8, t_off=2.3)

    def a(ell, span, points, tol, drive=DriveEnvelope(), s=0.1 + 0.05j):
        return (EffectiveParams(emitter=dataclasses.replace(
                    EMITTER, drive=drive), ell=ell),
                SystemState(s=s, w=0.9),
                IntegrationSpec(span=span, tol=tol, points=points))

    def b(delta_b, span, points, tol, drive=DriveEnvelope()):
        return (MicroscopicParams(emitter=dataclasses.replace(
                    EMITTER, drive=drive), host=HostSpecies(
                    delta_b=delta_b, eps_b=20.0, gamma_b=4.0)),
                SystemState(s=0.01 + 0j, w=-math.sqrt(1.0 - 4e-4),
                            beta=0j),
                IntegrationSpec(span=span, tol=tol, points=points))

    return [a(1.0 + 0.01j, 8.0, 5, 1e-9), a(1.1 + 0.02j, 4.0, 801, 1e-8),
            a(1.2 + 0.05j, 3.0, 301, 1e-9, pulse),
            a(1.3 + 0.01j, 150.0, 301, 1e-4, s=0.1 + 0j),
            b(5.0, 6.0, 401, 1e-9), b(150.0, 6.0, 401, 1e-8),
            b(200.0, 5.0, 7, 1e-6, pulse), b(8.0, 3.0, 41, 1e-8)]


_SURGED, _POISONED = 3, 7


def _flush_solves(runs):
    """The results of the solves of ``integrate_batch(runs, keep=("w",
    "beta"))``, with the surged and poisoned rows of _flush_runs rigged
    wherever they are in runs."""
    all_runs = _flush_runs()
    results = []
    solve_ = ode.solve

    def spy(*args, **kwargs):
        results.append(solve_(*args, **kwargs))
        return results[-1]

    with _poisoning(_piece_rows(all_runs[_POISONED]), 1.2) as stack, \
            np.errstate(over="ignore", invalid="ignore"), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore", BlochNormWarning)
        for name, surge in (("effective_rhs", _surged),
                            ("_effective_row", _surged_row)):
            stack.enter_context(mock.patch.object(dynamics, name, surge(
                getattr(dynamics, name), _piece_rows(all_runs[_SURGED]))))
        stack.enter_context(mock.patch.object(ode, "solve", spy))
        integrate_batch(runs, keep=("w", "beta"))
    return results


def _solve_row(res, r):
    """Row r of an OdeResult as the tuple of its fields."""
    return (res.y[res.offsets[r]:res.offsets[r + 1]].tobytes(),
            res.y_end[r].tobytes(), int(res.n_accepted[r]),
            int(res.n_rejected[r]), int(res.n_rhs[r]),
            type(res.errors[r]).__name__, str(res.errors[r]),
            res.measure_max[r].tobytes())


@functools.cache
def _lone_solves():
    """Each run of _flush_runs solved alone: its row's fields."""
    return [_solve_row(_flush_solves([run])[0], 0) for run in _flush_runs()]


@pytest.mark.bits
class TestFlushBits:
    """Dense output waits across passes and is written when a stack's
    worth of samples waits: wherever the flushes fall, every row keeps
    its lone run's samples, final state, counters, failure and measure,
    so that a change that lets a flush move a bit fails here by name."""

    @pytest.mark.parametrize("samples", [2, 37, None, 10**6])
    def test_flush_boundaries_move_nothing(self, samples):
        runs = _flush_runs()
        with mock.patch.object(ode, "DENSE_SAMPLES",
                               samples or ode.DENSE_SAMPLES):
            solves = _flush_solves(runs)
        # integrate_batch's groups: model A, model B on Dormand-Prince,
        # model B on the exponential method
        groups = [[0, 1, 2, 3], [4, 7], [5, 6]]
        assert [len(res.errors) for res in solves] == [4, 2, 2]
        lone = _lone_solves()
        for res, group in zip(solves, groups):
            for r, k in enumerate(group):
                assert _solve_row(res, r) == lone[k]
        # the failed rows stop where they did alone, with the counters
        # they had there: the surged row in its first steps' dense
        # output, the poisoned one where its steps underflow
        surged, poisoned = lone[_SURGED], lone[_POISONED]
        assert surged[2:5] == (7, 0, 89)
        assert surged[6].startswith("dense output went non-finite at "
                                    "t = 0.111111 (h = 1)")
        assert poisoned[2:5] == (53, 40, 1163)
        assert poisoned[6].startswith("step size underflow at t = 1.2 ")
        assert "right-hand side went non-finite" in poisoned[6]


def _float_passes():
    """A spy on ode's float form of a pass: each call's args[1] holds the
    rows of one pass that took it."""
    return mock.patch.object(ode, "_attempt_floats",
                             wraps=ode._attempt_floats)


@pytest.mark.filterwarnings("ignore::lfbloch.dynamics.BlochNormWarning")
class TestFloatForm:
    """A lone run takes the float form of a pass (the per-row right-hand
    side, Python floats); in a batch with ``ode.FLOAT_ROWS`` at 0 it
    takes the array form.  Both give the same bits."""

    @settings(max_examples=60, deadline=None)
    @given(run=batch_run(), companion=batch_run())
    def test_lone_run_equals_its_row_in_an_array_batch(self, run,
                                                        companion):
        with _float_passes() as floats:
            lone = _lone(run)
        assert floats.called
        assert all(len(call.args[1]) == 1 for call in floats.call_args_list)
        if isinstance(lone, Trajectory):
            assert floats.call_count == lone.n_accepted + lone.n_rejected
        with mock.patch.object(ode, "FLOAT_ROWS", 0), \
                _float_passes() as floats:
            batch = integrate_batch([run, companion])
        assert not floats.called
        assert _same_outcome(batch[0], lone)

    @pytest.mark.parametrize("model", ["A", "B"])
    def test_nonfinite_run_fails_alike_in_both_forms(self, model):
        # the right-hand side goes NaN on the pulse from its start on:
        # the run fails there after its attempts are rejected
        drive = DriveEnvelope("pulse", 0.8, t_on=0.5, t_off=1.0)
        emitter = EmitterParams(delta_a=0.2, drive=drive)
        params = EffectiveParams(emitter=emitter, ell=1.0) if model == "A" \
            else MicroscopicParams(emitter=emitter, host=HOST)
        run = (params, SystemState(s=0.1 + 0j, w=0.5,
                                   beta=None if model == "A" else 0.01j),
               IntegrationSpec(span=2.0, tol=1e-8, points=21))
        with _poisoning({params.rhs_constants(drive.amplitude)}, 0.5):
            with _float_passes() as floats:
                lone = _lone(run)
            with mock.patch.object(ode, "FLOAT_ROWS", 0):
                batch = integrate_batch([run, run])
        assert floats.call_count > 10
        assert isinstance(lone, NonFiniteRhsError)
        assert "at t = 0.5 " in str(lone)
        assert _same_outcome(batch[0], lone) and _same_outcome(batch[1], lone)

    def test_a_wrapped_right_hand_side_keeps_the_float_form(self):
        # a pass-through wrapper installed on lfbloch.dynamics sees the
        # array evaluations and changes nothing: every pass still takes
        # the float form, whose per-row evaluations it does not see
        drive = DriveEnvelope("pulse", 0.3 + 0.1j, t_on=0.4, t_off=1.2)
        emitter = EmitterParams(delta_a=0.2, eps_a=0.3, drive=drive)
        runs = [(EffectiveParams(emitter=emitter, ell=ELL_LOSSLESS),
                 SystemState(s=0.1 + 0j, w=0.5), IntegrationSpec(span=2.0)),
                (MicroscopicParams(emitter=emitter, host=HOST),
                 SystemState(s=0.1 + 0j, w=0.5, beta=0.01j),
                 IntegrationSpec(span=2.0))]
        calls = []

        def wrap(rhs):
            def wrapper(t, Y, P):
                calls.append(len(Y))
                return rhs(t, Y, P)
            return wrapper

        for run in runs:
            calls.clear()
            with _float_passes() as floats, \
                    mock.patch.object(dynamics, "effective_rhs",
                                      wrap(effective_rhs)), \
                    mock.patch.object(dynamics, "microscopic_rhs",
                                      wrap(microscopic_rhs)):
                traj = integrate(*run)
            plain = integrate(*run)
            assert floats.call_count == traj.n_accepted + traj.n_rejected
            assert 0 < sum(calls) < traj.n_rhs
            assert traj.y.tobytes() == plain.y.tobytes()
            assert (traj.n_accepted, traj.n_rejected, traj.n_rhs,
                    traj.bloch_norm_max) == (plain.n_accepted,
                                             plain.n_rejected, plain.n_rhs,
                                             plain.bloch_norm_max)


class TestModelProperties:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(),
           host=st.builds(HostSpecies, delta_b=st.floats(1.0, 20.0),
                          eps_b=st.floats(0.0, 10.0),
                          gamma_b=st.floats(0.0, 8.0)),
           surface=st.booleans())
    def test_damped_model_a_stays_in_the_bloch_sphere(self, data, host,
                                                      surface):
        # d(w^2 + 4|s|^2)/dt = -Re(ell)*gamma_a*(norm - 1 + (w + 1)^2),
        # which is <= 0 on the sphere for any drive, NDD coupling and
        # complex ell with Re(ell) > 0
        span = data.draw(st.floats(0.5, 3.0))
        emitter = _draw_emitter(data.draw, span)
        if surface:
            w = data.draw(st.floats(-1.0, 1.0))
            s = 0.5 * math.sqrt(1.0 - w * w) + 0j
        else:
            s, w = _draw_state(data.draw, 0.5)
        integration = _draw_integration(data.draw, span)
        params = EffectiveParams(emitter=emitter,
                                 ell=local_field_factor(host).ell)
        traj = integrate(params, SystemState(s=s, w=w), integration)
        assert traj.bloch_norm_max <= 1.0 + 100.0 * integration.tol

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), delta_b=st.floats(-8.0, 8.0),
           gamma_b=st.floats(0.5, 4.0), beta=small_complex(0.1))
    def test_model_a_is_model_b_in_the_vacuum(self, data, delta_b, gamma_b,
                                              beta):
        # eps_b = 0: C_a = 0 decouples the host from the emitter, and
        # ell = 1, so s and w obey model A whatever beta does
        span = data.draw(st.floats(0.5, 3.0))
        emitter = _draw_emitter(data.draw, span,
                                kinds=("constant", "pulse"))
        s, w = _draw_state(data.draw, 0.5)
        integration = _draw_integration(data.draw, span)
        host = HostSpecies(delta_b=delta_b, eps_b=0.0, gamma_b=gamma_b)
        ta = integrate(EffectiveParams(emitter=emitter, ell=1.0 + 0j),
                       SystemState(s=s, w=w), integration)
        tb = integrate(MicroscopicParams(emitter=emitter, host=host),
                       SystemState(s=s, w=w, beta=beta), integration)
        bound = 100.0 * integration.tol
        assert np.max(np.abs(ta.s - tb.s)) <= bound
        assert np.max(np.abs(ta.w - tb.w)) <= bound


def _exponential_error(run):
    """Integrate run by the exponential method, and return its error in
    s against Dormand-Prince at tol 1e-12, on the integrator's own scale
    (tol + tol*|s|): max |s - s_ref| / max(1, max |s_ref|)."""
    params, initial, integration = run
    with mock.patch.object(dynamics, "EXPONENTIAL_POLE", 0.0):
        traj = integrate(*run)
    pieces = len(params.emitter.drive.pieces(integration.span))
    # the exponential method's count: 7 evaluations per attempted step
    assert traj.n_rhs == 2 * pieces + 7 * (traj.n_accepted
                                           + traj.n_rejected)
    with mock.patch.object(dynamics, "EXPONENTIAL_POLE", math.inf):
        ref = integrate(params, initial,
                        dataclasses.replace(integration, tol=1e-12))
    return (float(np.max(np.abs(traj.s - ref.s)))
            / max(1.0, float(np.max(np.abs(ref.s)))))


@st.composite
def stiff_run(draw, weak):
    """A model-B run on a host of the box scaled by kappa <= 64: a weak
    decay from s = 1e-3 with the drive off, or a strongly driven run
    (|Omega| up to 2, a state anywhere inside the Bloch sphere)."""
    kappa = draw(st.floats(1.0, 64.0))
    host = HostSpecies(delta_b=kappa * draw(st.floats(1.0, 20.0)),
                       eps_b=kappa * draw(st.floats(0.0, 10.0)),
                       gamma_b=kappa * draw(st.floats(0.5, 8.0)))
    span = draw(st.floats(1.0, 2.0))
    tol = draw(st.sampled_from([1e-6, 1e-8, 1e-10]))
    if weak:
        emitter = dataclasses.replace(_draw_emitter(draw, span),
                                      drive=DriveEnvelope())
        initial = SystemState(s=1e-3, w=-math.sqrt(1.0 - 4e-6), beta=0j)
    else:
        emitter = _draw_emitter(draw, span, kinds=("constant", "pulse"))
        s, w = _draw_state(draw, 0.45)
        initial = SystemState(s=s, w=w, beta=draw(small_complex(0.1)))
    return (MicroscopicParams(emitter=emitter, host=host), initial,
            IntegrationSpec(span=span, tol=tol, points=200))


@pytest.mark.filterwarnings("ignore::lfbloch.dynamics.BlochNormWarning")
class TestExponentialAccuracy:
    """The exponential method against Dormand-Prince 8(5,3) at tol 1e-12.  A
    run's error is on the integrator's scale, tol + tol*|s|;
    Dormand-Prince itself keeps weak decays
    (|s| <= 1e-3) only to about 1e-10 absolute at tol 1e-10.  A numpy or
    LAPACK change that breaks the phi-functions fails here by name."""

    @settings(max_examples=12, deadline=None)
    @given(data=st.data(), weak=st.booleans())
    def test_error_within_100_tol_over_the_host_box(self, data, weak):
        run = data.draw(stiff_run(weak))
        assert _exponential_error(run) <= 100.0 * run[2].tol

    def test_long_driven_run_holds_error_per_unit_step(self):
        # w far from -1 makes N stiff: about 700 steps at tol 1e-10, each
        # adding up to 0.14 tol, reached 1.00044e-8 (> 100 tol) before
        # rows past Exponential.span_steps steps were held to error per
        # unit step
        emitter = EmitterParams(delta_a=0.0, eps_a=0.0, gamma_a=1.0,
                                drive=DriveEnvelope(kind="constant",
                                                    amplitude=1j))
        run = (MicroscopicParams(emitter=emitter,
                                 host=HostSpecies(delta_b=56.0, eps_b=63.0,
                                                  gamma_b=7.0)),
               SystemState(s=0j, w=0.0, beta=0.0625 + 0j),
               IntegrationSpec(span=1.0, tol=1e-10, points=200))
        assert _exponential_error(run) <= 50.0 * run[2].tol

    @pytest.mark.parametrize("drive", [
        DriveEnvelope(),
        DriveEnvelope(kind="pulse", amplitude=1.2 - 0.5j, t_on=0.5,
                      t_off=1.5)])
    def test_degenerate_modes(self, drive):
        # a host at which the coupled modes coincide: L is a Jordan block
        from lfbloch.verify import (DegenerateModesWarning,
                                    coupled_mode_eigenvalues)
        p = MicroscopicParams(emitter=dataclasses.replace(EMITTER,
                                                          drive=drive),
                              host=HostSpecies(delta_b=-2.0, eps_b=4.0,
                                               gamma_b=5.0))
        with pytest.warns(DegenerateModesWarning):
            coupled_mode_eigenvalues(p)
        initial = (SystemState(s=1e-3, w=-math.sqrt(1.0 - 4e-6), beta=0j)
                   if drive.kind == "off"
                   else SystemState(s=0.3 + 0.1j, w=-0.5, beta=0j))
        for tol in (1e-6, 1e-10):
            run = (p, initial, IntegrationSpec(span=3.0, tol=tol,
                                               points=301))
            assert _exponential_error(run) <= 100.0 * tol


class TestMethodSelection:
    def _runs(self):
        drive = DriveEnvelope(kind="pulse", amplitude=0.8, t_on=0.3,
                              t_off=0.9)
        runs = []
        for kappa, drive_k, tol in ((1.0, drive, 1e-8), (8.0, drive, 1e-9),
                                    (30.0, DriveEnvelope(), 1e-10),
                                    (64.0, drive, 1e-6)):
            host = HostSpecies(delta_b=10.0 * kappa, eps_b=10.0 * kappa,
                               gamma_b=4.0 * kappa)
            runs.append((MicroscopicParams(
                emitter=dataclasses.replace(EMITTER, drive=drive_k),
                host=host), SystemState(s=0.2, w=-0.6, beta=0j),
                IntegrationSpec(span=1.5, tol=tol, points=151)))
        return runs

    def test_the_host_pole_picks_the_method(self):
        # |alpha| = 20 kappa: kappa = 1 stays on Dormand-Prince (12
        # evaluations per attempted step, and 3 per accepted one, each
        # with points of the 151-point grid), the others are exponential
        # (7 per attempted step)
        for (params, _, integration), traj in zip(
                self._runs(), map(lambda run: integrate(*run), self._runs())):
            pieces = len(params.emitter.drive.pieces(integration.span))
            per_step, dense = (7, 0) if abs(params.host_pole) > \
                dynamics.EXPONENTIAL_POLE else (12, 3)
            assert traj.n_rhs == 2 * pieces + per_step * (
                traj.n_accepted + traj.n_rejected) + dense * traj.n_accepted
        assert abs(self._runs()[0][0].host_pole) < dynamics.EXPONENTIAL_POLE
        assert abs(self._runs()[1][0].host_pole) > dynamics.EXPONENTIAL_POLE

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_linear_part_has_the_coupled_modes(self, data):
        from lfbloch.verify import coupled_mode_eigenvalues
        p = MicroscopicParams(emitter=_draw_emitter(data.draw, 1.0),
                              host=_host(data.draw))
        # the sum and product of the modes (well conditioned, unlike
        # the modes themselves where they meet) are L's trace and det
        (a, c_a), (c_b, alpha) = p.linear_part
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            slow, fast = coupled_mode_eigenvalues(p)
        scale = max(1.0, abs(a), abs(alpha))
        assert abs(slow + fast - (a + alpha)) <= 1e-13 * scale
        assert abs(slow * fast - (a * alpha - c_a * c_b)) <= 1e-12 * scale ** 2

    def test_exponential_rows_batch_like_lone_runs(self):
        runs = self._runs()
        for got, run in zip(integrate_batch(runs), runs):
            assert _same_trajectory(got, integrate(*run))

    def test_nonfinite_exponential_row_fails_alone(self):
        # a right-hand side that goes NaN in one exponential row stops
        # that row with NonFiniteRhsError; the others are their lone runs
        runs = self._runs()[1:]
        with _poisoning(_piece_rows(runs[1]), 0.5):
            batch = integrate_batch(runs)
            lone = [_lone(run) for run in runs]
        assert isinstance(batch[1], NonFiniteRhsError)
        assert "right-hand side went non-finite" in str(batch[1])
        for got, alone in zip(batch, lone):
            assert _same_outcome(got, alone)
