"""Tests for the WKB field: wavevector, phase convention, badlands function."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from qreflect.potentials import HomogeneousPotential, TabulatedPotential
from qreflect.wkb import (
    WkbField,
    badlands_peak_x,
    phase_coordinate,
    schwarzian,
    universal_badlands,
)

Z_STAR = 0.8472130847939791


def v4_field(kappa_ell: float) -> WkbField:
    # with c_4 = E = kappa_ell, both kappa and ell equal sqrt(kappa_ell), zeta = 1
    return WkbField(HomogeneousPotential(4, kappa_ell), kappa_ell)


def golden_max(f, a, b, tol=1e-12):
    g = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - g * (b - a), a + g * (b - a)
    while abs(b - a) > tol:
        if f(c) > f(d):
            b, d = d, c
            c = b - g * (b - a)
        else:
            a, c = c, d
            d = a + g * (b - a)
    return 0.5 * (a + b)


class TestWavevector:
    def test_quartic_closed_form(self):
        fld = v4_field(0.3)
        kap = ell = math.sqrt(0.3)
        for z in (0.05, 0.7, 1.0, 4.0, 50.0):
            assert fld.k(z) == pytest.approx(math.sqrt(kap ** 2 + ell ** 2 / z ** 4), rel=1e-13)

    def test_far_end_limit_is_kappa(self):
        fld = v4_field(0.3)
        assert fld.k(1e6) == pytest.approx(fld.kappa, rel=1e-12)

    def test_value_at_zeta(self):
        fld = v4_field(0.3)
        assert fld.k(1.0) == pytest.approx(fld.kappa * math.sqrt(2.0), rel=1e-13)

    def test_derivative_matches_finite_differences(self):
        fld = v4_field(0.4)
        h = 1e-6
        for z in (0.2, 1.0, 3.0):
            fd = (fld.k(z + h) - fld.k(z - h)) / (2 * h)
            assert fld.dk(z) == pytest.approx(fd, rel=1e-6)


class TestPhase:
    def test_far_end_convention(self):
        fld = v4_field(0.3)
        kappa = fld.kappa
        for z in (1e3, 1e4):
            assert abs(fld.phi(z) - kappa * z) < 1e-8 * kappa * z

    def test_cliff_asymptote(self):
        fld = v4_field(0.3)
        vk = ell = math.sqrt(0.3)
        z = 1e-3
        expected = 2.0 * vk * Z_STAR - ell / z
        # next correction is O(kappa^2 z^3)
        assert fld.phi(z) == pytest.approx(expected, abs=1e-8)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_closed_form_vs_quadrature(self, n):
        for x in (0.3, 0.9, 1.5, 4.0, 20.0):
            tail, _ = quad(lambda t: math.sqrt(1.0 + t ** float(-n)) - 1.0, x, np.inf,
                           epsabs=1e-12, epsrel=1e-12, limit=300)
            assert phase_coordinate(x, n) == pytest.approx(x - tail, rel=1e-10, abs=1e-11)

    def test_quartic_reflection_identity(self):
        # phase_coordinate(x, 4) + phase_coordinate(1/x, 4) = 2 z*
        for x in (1.5, 3.0, 12.0):
            total = phase_coordinate(x, 4) + phase_coordinate(1.0 / x, 4)
            assert total == pytest.approx(2.0 * Z_STAR, rel=1e-11)

    def test_tabulated_anchoring(self):
        # table built from the pure quartic model must reproduce its phase
        c4 = 0.3
        z = np.geomspace(0.02, 120.0, 400)
        cubic_blend = -c4 / z ** 4 * 1.0 / (1.0 + 1e-30 * z)  # exact quartic samples
        # declare a tiny cliff-side cubic so construction succeeds: use a model
        # that really has both tails
        lam = 2.0
        c3 = c4 / lam
        v = -c3 / (z ** 3 * (1.0 + z / lam))
        pot = TabulatedPotential(z, v, cliff_c3=c3, far_c4=c4)
        fld = WkbField(pot, 0.09)
        quad_phi, _ = quad(fld.k, 1.0, 40.0, epsabs=1e-12, epsrel=1e-12, limit=400)
        assert fld.phi(40.0) - fld.phi(1.0) == pytest.approx(quad_phi, rel=1e-10)
        kappa = math.sqrt(0.09)
        assert fld.phi(4000.0) == pytest.approx(kappa * 4000.0, rel=1e-7)


class TestSchwarzian:
    def test_affine_is_zero(self):
        assert schwarzian(lambda z: 3.1 * z - 0.4, 0.8) == pytest.approx(0.0, abs=1e-8)

    def test_inversion_is_zero(self):
        # homography: exact Schwarzian zero; finite differences leave dust
        val = schwarzian(lambda z: -1.69 / z, 0.9)
        scale = 6.0 / 0.9 ** 2  # |f'''/f'| there
        assert abs(val) < 1e-5 * scale

    def test_exponential(self):
        assert schwarzian(math.exp, 0.3) == pytest.approx(-0.5, abs=1e-8)

    def test_singular_derivative(self):
        with pytest.raises(ZeroDivisionError):
            schwarzian(lambda z: z * z, 0.0)


class TestBadlands:
    def test_quartic_explicit_formula(self):
        fld = v4_field(0.3)
        kap = ell = math.sqrt(0.3)
        for z in (0.2, 0.8, 1.0, 2.5, 9.0):
            expected = 5.0 * kap ** 2 * ell ** 2 / (kap ** 2 * z ** 2 + ell ** 2 / z ** 2) ** 3
            assert fld.q(z) == pytest.approx(expected, rel=1e-11)

    def test_peak_value_quartic(self):
        fld = v4_field(0.3)
        z_peak, q_peak = fld.q_peak()
        assert z_peak == pytest.approx(1.0, rel=1e-12)
        assert q_peak == pytest.approx(5.0 / (8.0 * 0.3), rel=1e-12)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_universal_formula_matches_field(self, n):
        energy = 0.4
        c_n = 0.9
        fld = WkbField(HomogeneousPotential(n, c_n), energy)
        zeta = (c_n / energy) ** (1.0 / n)
        for x in (0.3, 1.0, 2.7):
            expected = universal_badlands(x, n) / (energy * zeta ** 2)
            assert fld.q(x * zeta) == pytest.approx(expected, rel=1e-10)

    def test_two_forms_agree(self):
        # amplitude form via numeric second derivative of alpha vs the
        # analytic Schwarzian-of-phase form implemented in q()
        fld = v4_field(0.3)
        for z in (0.4, 1.0, 2.0, 6.0):
            h = 4e-4 * z
            stencil = [fld.alpha(z + k * h) for k in (-3, -2, -1, 0, 1, 2, 3)]
            d2 = (2 * stencil[6] - 27 * stencil[5] + 270 * stencil[4] - 490 * stencil[3]
                  + 270 * stencil[2] - 27 * stencil[1] + 2 * stencil[0]) / (180 * h * h)
            q_amp = -fld.alpha(z) ** 3 * d2
            assert abs(q_amp - fld.q(z)) < 1e-8 * max(1.0, abs(fld.q(z)))

    def test_vanishing_at_both_ends(self):
        fld = v4_field(0.3)
        _, q_peak = fld.q_peak()
        assert fld.q(1.0 / 100.0) < 1e-6 * q_peak
        assert fld.q(100.0) < 1e-6 * q_peak

    def test_inversion_symmetry(self):
        fld = v4_field(0.45)
        for z in (0.21, 0.8, 3.3, 17.0):
            assert fld.q(z) == pytest.approx(fld.q(1.0 / z), rel=1e-10)

    @pytest.mark.parametrize("n", [3, 5])
    def test_peak_location_vs_golden_section(self, n):
        xc = badlands_peak_x(n)
        xg = golden_max(lambda x: universal_badlands(x, n), 0.2, 3.0, tol=1e-13)
        assert xc == pytest.approx(xg, abs=1e-8)

    def test_peak_x_quartic_exact(self):
        assert badlands_peak_x(4) == 1.0

    def test_matching_domain_hits_requested_ratio(self):
        fld = v4_field(0.7)
        z_lo, z_hi = fld.matching_domain(1e-10)
        _, q_peak = fld.q_peak()
        assert fld.q(z_lo) / q_peak == pytest.approx(1e-10, rel=1e-6)
        assert fld.q(z_hi) / q_peak == pytest.approx(1e-10, rel=1e-6)

    def test_tabulated_peak_search(self):
        lam = 2.0
        c3 = 0.4
        z = np.geomspace(0.01, 300.0, 500)
        v = -c3 / (z ** 3 * (1.0 + z / lam))
        pot = TabulatedPotential(z, v, cliff_c3=c3, far_c4=c3 * lam)
        fld = WkbField(pot, 0.05)
        z_peak, q_peak = fld.q_peak()
        assert q_peak > 0.0
        grid = np.geomspace(z_peak / 40.0, z_peak * 40.0, 300)
        assert q_peak >= max(fld.q(float(t)) for t in grid) * (1.0 - 1e-6)
