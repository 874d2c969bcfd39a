"""Tests for the special-function kernel and the constants built on Gamma and 2F1.

Oracles: closed forms (half-integer Bessel), scipy's independent
implementations for real orders (which bessel_j hands to scipy itself, so
its complex-order code is checked against them at zero imaginary part), and
quadratures evaluated by scipy.integrate.quad. Frozen constants were
computed from those oracles.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import jv as scipy_jv

import qreflect.specialfns as specialfns
from qreflect.liouville import inversion_center, wall_integral_closed
from qreflect.specialfns import ConvergenceError, bessel_j
from qreflect.wkb import hyp2f1

# z* = Gamma(3/4)**2/sqrt(pi), also 1 - int_{-inf}^0 e^-u (sqrt(1+e^{4u})-1) du
Z_STAR = 0.8472130847939791


class TestGamma:
    def test_wall_integral_constant(self):
        # 5 Gamma(5/4)^2 / (3 sqrt(pi)), quoted to six figures as 0.772531
        value = wall_integral_closed(4)
        assert value == pytest.approx(0.772531, abs=5e-7)
        assert value == pytest.approx(0.7725311155422383, rel=1e-12)

    def test_inversion_center_vs_quadrature(self):
        closed = inversion_center()
        tail, _ = quad(lambda u: math.exp(-u) * (math.sqrt(1.0 + math.exp(4.0 * u)) - 1.0),
                       -40.0, 0.0, epsabs=1e-14, epsrel=1e-13, limit=300)
        assert closed == pytest.approx(1.0 - tail, rel=1e-11)
        assert closed == pytest.approx(Z_STAR, rel=1e-12)


class TestBesselJ:
    def test_zero_argument(self):
        assert bessel_j(0.0, 0.0) == 1.0
        assert bessel_j(1.0, 0.0) == 0.0
        assert bessel_j(complex(2.5 + 1j), 0.0) == 0.0

    def test_half_order_closed_form(self):
        expected = math.sqrt(2.0 / (math.pi * 2.0)) * math.sin(2.0)
        assert bessel_j(0.5, 2.0) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.5130161365618278, rel=1e-12)

    def test_three_halves_closed_form(self):
        x = 7.3
        expected = math.sqrt(2.0 / (math.pi * x)) * (math.sin(x) / x - math.cos(x))
        assert bessel_j(1.5, x) == pytest.approx(expected, rel=1e-11)

    def test_against_scipy_real_orders(self):
        # the complex-order code at zero imaginary part, where scipy is the
        # oracle: the series up to its crossover, Miller's recurrence everywhere
        for nu in (-9.5, -2.3, 0.0, 0.5, 3.7, 9.9):
            for x in (0.05, 1.0, 5.0, 11.0, 13.0, 25.0, 50.0, 100.0):
                ref = scipy_jv(nu, x)
                scale = max(abs(ref), math.sqrt(2.0 / (math.pi * x)) * 1e-2)
                routes = [specialfns._jv_backward]
                if x <= specialfns._SERIES_CROSSOVER:
                    routes.append(specialfns._jv_series)
                for route in routes:
                    assert abs(route(complex(nu), x) - ref) <= 1e-9 * scale, (route, nu, x)

    @pytest.mark.parametrize("nu", [-9.5, -4.0, 0.0, 0.3, 2.0, 9.9])
    def test_real_order_is_scipy(self, nu):
        for x in (0.0, 0.05, 5.0, 13.0, 100.0):
            out = bessel_j(nu, x)
            assert type(out) is float
            assert np.array_equal(out, scipy_jv(nu, x), equal_nan=True), (nu, x)
            # a complex-typed order with zero imaginary part, as the Mathieu
            # series passes its integer orders, takes the same route
            wide = bessel_j(complex(nu), x)
            assert type(wide) is complex
            assert np.array_equal(wide, complex(scipy_jv(nu, x)), equal_nan=True), (nu, x)

    def test_negative_integer_identity(self):
        # J_-n = (-1)**n J_n, the identity the Mathieu series relies on for
        # its factors J_-m, at the complex-typed orders it passes
        for n in (1, 4, 9):
            for x in (0.7, 6.0, 40.0):
                assert bessel_j(complex(-n), x) == pytest.approx(
                    (-1.0) ** n * bessel_j(float(n), x), rel=1e-11)

    def test_recurrence_complex_orders(self):
        rng = np.random.default_rng(3)
        for _ in range(120):
            nu = complex(rng.uniform(-9, 9), rng.uniform(-2, 2))
            x = float(rng.uniform(0.3, 100.0))
            low = bessel_j(nu - 1, x)
            mid = bessel_j(nu, x)
            high = bessel_j(nu + 1, x)
            scale = max(abs(low), abs(mid), abs(high))
            assert abs(low + high - 2.0 * nu / x * mid) <= 1e-9 * scale, (nu, x)

    def test_negative_argument_rejected(self):
        with pytest.raises(ValueError):
            bessel_j(0.0, -1.0)

    def test_term_budget_exhaustion(self, monkeypatch):
        monkeypatch.setattr(specialfns, "MAX_TERMS", 8)
        with pytest.raises(ConvergenceError):
            bessel_j(0.3 + 0.1j, 11.0)


class TestHyp2f1:
    """The 2F1 values the phase coordinate's closed form relies on."""

    def test_frozen_quadrature_oracles(self):
        # the phase integral int sqrt(1+1/x'^n) dx' evaluated by quadrature
        # pins these values through the closed form of the phase coordinate
        assert hyp2f1(0.5, -0.25, 0.75, -0.5) == pytest.approx(1.0726469306090543, rel=1e-12)
        assert hyp2f1(0.5, -1.0 / 3.0, 2.0 / 3.0, -0.2) == pytest.approx(1.0472776183343036, rel=1e-12)

    def test_phase_integral_oracle_direct(self):
        # n = 4 at x = 2**(1/4): series value from the quadrature of the phase
        x = 2.0 ** 0.25
        tail, _ = quad(lambda t: math.sqrt(1.0 + t ** -4.0) - 1.0, x, np.inf,
                       epsabs=1e-14, epsrel=1e-13, limit=300)
        z_bold = x - tail
        f_from_quad = (z_bold / (2.0 * x)) + 0.5 * math.sqrt(1.0 + x ** -4.0)
        assert hyp2f1(0.5, -0.25, 0.75, -0.5) == pytest.approx(f_from_quad, rel=1e-10)
