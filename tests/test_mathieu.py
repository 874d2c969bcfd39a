"""Tests for the modified-Mathieu solution of the inverse-quartic model."""

import cmath
import math

import numpy as np
import pytest

import qreflect.mathieu as mathieu
from qreflect.mathieu import (
    characteristic_exponent,
    coefficients,
    mathieu_wave,
    parity_sigma,
    r4_curve,
    solve_v4,
)
from qreflect.potentials import HomogeneousPotential
from qreflect.scattering import solve_direct
from qreflect.specialfns import ConvergenceError


class TestCharacteristicExponent:
    def test_decoupled_limit(self):
        tau = characteristic_exponent(1e-8)
        assert tau == pytest.approx(0.5, abs=1e-8)

    def test_recurrence_residual_at_unit_q(self):
        sol = solve_v4(1.0)
        assert sol.recurrence_residual() < 1e-10

    def test_continuity_along_sweep(self):
        # tau has a square-root cusp at the band edge (q ~ 0.7), so steps on
        # a fixed grid stay bounded and shrink under refinement
        coarse = [characteristic_exponent(float(q)) for q in np.geomspace(0.01, 3.0, 240)]
        fine = [characteristic_exponent(float(q)) for q in np.geomspace(0.01, 3.0, 960)]
        step_coarse = max(abs(b - a) for a, b in zip(coarse, coarse[1:]))
        step_fine = max(abs(b - a) for a, b in zip(fine, fine[1:]))
        assert step_coarse < 0.12
        assert step_fine < 0.62 * step_coarse
        # the sweep starts real near 1/2 and ends complex past the band edge
        assert abs(coarse[0] - 0.5) < 1e-3
        assert coarse[-1].imag > 0.5

    def test_precondition(self):
        with pytest.raises(ValueError):
            characteristic_exponent(-1.0)

    def test_doubling_cap_raises(self, monkeypatch):
        # at q = 1 one doubling past N_START does not settle tau to TAU_TOL
        monkeypatch.setattr(mathieu, "N_MAX", mathieu.N_START)
        with pytest.raises(ConvergenceError, match="did not settle"):
            characteristic_exponent(1.0)


class TestCoefficients:
    def test_decoupled_limit(self):
        tau = characteristic_exponent(1e-8)
        coeff = coefficients(tau, 1e-8, 12)
        n_terms = 12
        assert coeff[n_terms] == 1.0
        assert abs(coeff[n_terms + 1]) < 1e-7
        assert abs(coeff[n_terms - 1]) < 1e-7

    def test_recurrence_residual(self):
        sol = solve_v4(0.5)
        assert sol.recurrence_residual() < 1e-10

    def test_tail_decay(self):
        tau = characteristic_exponent(1.0)
        coeff = coefficients(tau, 1.0, 25)
        assert abs(coeff[0]) < 1e-14
        assert abs(coeff[-1]) < 1e-14

    def test_short_table_raises(self):
        # at q = 10 the coefficients still matter ten terms out
        with pytest.raises(ConvergenceError, match="tails have not decayed"):
            coefficients(characteristic_exponent(10.0), 10.0, 10)


class TestWaveSeries:
    def test_parity_relation(self):
        q = 0.5
        tau = characteristic_exponent(q)
        coeff = coefficients(tau, q, 25)
        sigma = parity_sigma(tau, q, coeff)
        for zt in (0.3, 0.7):
            plus = mathieu_wave(zt, tau, q, coeff, +1)
            minus_mirror = mathieu_wave(-zt, tau, q, coeff, -1)
            assert plus == pytest.approx(cmath.exp(-sigma) * minus_mirror, rel=1e-9)

    def test_sigma_finite_and_continuous(self):
        qs = np.geomspace(0.05, 3.0, 120)
        values = []
        for q in qs:
            tau = characteristic_exponent(float(q))
            coeff = coefficients(tau, float(q), 25)
            values.append(parity_sigma(tau, float(q), coeff))
        assert all(np.isfinite([v.real for v in values]))
        # exp(sigma) is branch-free; require a smooth sweep of it
        ratios = [abs(cmath.exp(b) / cmath.exp(a) - 1.0) for a, b in zip(values, values[1:])]
        assert max(ratios) < 0.2

    def test_asymptotic_cosine_form(self):
        # far along the growing side the series collapses onto the cosine of
        # its leading Bessel term
        q = 0.5
        tau = characteristic_exponent(q)
        coeff = coefficients(tau, q, 25)
        x_big = 50.0
        zt = math.log(x_big / math.sqrt(q))
        for sign in (+1, -1):
            series = mathieu_wave(zt, tau, q, coeff, sign)
            envelope = math.sqrt(2.0 / (math.pi * x_big))
            cosine = envelope * cmath.cos(x_big - sign * 0.5 * math.pi * tau - 0.25 * math.pi)
            assert abs(series - cosine) < 1e-6 * envelope


class TestAmplitudes:
    def test_unitarity(self):
        for kl in (0.01, 0.1, 1.0):
            sol = solve_v4(kl)
            r, t = sol.r, sol.t
            assert abs(r) ** 2 + abs(t) ** 2 == pytest.approx(1.0, abs=1e-10)

    def test_published_reference_points(self):
        # universal curve values quoted against the full Casimir-Polder
        # calculations: 63.1 / 49.0 / 41.9 percent
        assert solve_v4(0.119).R == pytest.approx(0.631, abs=2e-3)
        assert solve_v4(0.190).R == pytest.approx(0.490, abs=2e-3)
        assert solve_v4(0.237).R == pytest.approx(0.419, abs=2e-3)

    def test_low_energy_law(self):
        kl = 1e-3
        assert solve_v4(kl).R == pytest.approx(1.0 - 4.0 * kl, rel=5e-2)

    def test_high_energy_decay(self):
        assert solve_v4(5.0).R < 0.01

    def test_matches_direct_integration(self):
        for kl in (0.03, 0.3):
            ana = solve_v4(kl)
            ode = solve_direct(HomogeneousPotential(4, kl), kl)
            assert abs(ana.R - ode.R) < 1e-6
            assert abs(ana.r - ode.r) < 1e-7
            assert abs(ana.t - ode.t) < 1e-7

    def test_curve_monotone(self):
        table = r4_curve(np.geomspace(1e-3, 10.0, 25))
        rs = table["R"]
        assert all(a > b for a, b in zip(rs, rs[1:]))
        assert rs[0] > 0.99
        assert rs[-1] < 0.01

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            r4_curve([0.1, -0.2])
        with pytest.raises(ValueError):
            solve_v4(0.0)
