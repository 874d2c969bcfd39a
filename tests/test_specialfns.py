"""Tests for the special-function kernel and the constants built on Gamma and 2F1.

Oracles: closed forms (half-integer Bessel), scipy's independent
implementations for real orders (which bessel_j hands to scipy itself, so
its complex-order code is checked against them at zero imaginary part), an
ascending series and a Miller recurrence for one order written apart from
bessel_j's, 40-digit mpmath values, and quadratures evaluated by
scipy.integrate.quad. Frozen constants were computed from those oracles.
"""

import cmath
import math
import re

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import jv as scipy_jv
from scipy.special import gamma, loggamma, rgamma

import qreflect.specialfns as specialfns
from qreflect.liouville import wall_integral_closed
from qreflect.specialfns import ConvergenceError, bessel_j
from qreflect.wkb import hyp2f1, inversion_center

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
        # oracle: the series up to its crossover, Miller's recurrence everywhere,
        # at the orders nu .. nu + 4
        steps = np.arange(5)
        for nu in (-9.5, -2.3, 0.0, 0.5, 3.7, 9.9):
            orders = (nu + steps).astype(complex)
            for x in (0.05, 1.0, 5.0, 11.0, 13.0, 25.0, 50.0, 100.0):
                ref = scipy_jv(nu + steps, x)
                scale = np.maximum(np.abs(ref), math.sqrt(2.0 / (math.pi * x)) * 1e-2)
                routes = {"miller": np.array([specialfns._jv_miller(order, x)
                                              for order in orders.tolist()])}
                if x <= specialfns._SERIES_CROSSOVER:
                    routes["series"] = specialfns._jv_series(orders, x)
                for route, out in routes.items():
                    assert np.all(np.abs(out - ref) <= 1e-9 * scale), (route, nu, x)

    def test_series_above_order_140(self):
        # above Re nu = 140, where Gamma(nu + 1) nears overflow, bessel_j
        # hands an order to Miller's recurrence, which normalizes in log
        # space, at every x; the series keeps the orders below
        orders = np.array([140.5, 150.5, 163.25]) + 0j
        for x in (3.0, 7.5, 11.9):
            out = [specialfns._jv_miller(nu, x) for nu in orders.tolist()]
            assert np.allclose(out, scipy_jv(orders.real, x), rtol=1e-12, atol=0.0), x
            below = specialfns._jv_series(np.array([12.5 + 0j]), x)
            assert np.allclose(below, scipy_jv(12.5, x), rtol=1e-12, atol=0.0), x

    def test_orders_above_140_in_a_mixed_array(self):
        # in one call an order above Re nu = 140 takes Miller's recurrence
        # and one below it the series; each gives its value alone
        orders = np.array([1.5 + 0.5j, 150.5 + 0.5j])
        out = bessel_j(orders, 3.0)
        for nu, value in zip(orders, out):
            assert value == pytest.approx(bessel_j(complex(nu), 3.0), rel=1e-15, abs=0.0)

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

    @pytest.mark.parametrize("nu, x, ref", [
        # 40-digit mpmath besselj, frozen
        (171.5 + 1e-3j, 13.0, 1.2501603768103569614e-171 - 4.0933782807033808847e-174j),
        (200.25 + 0.5j, 30.0, 9.7600295924287541691e-142 - 3.438237815569020473e-141j),
        (-150.3 + 1j, 13.0, -4.4755275555413990241e139 + 3.1988926830918812903e139j),
        (-120.25 + 0.5j, 30.0, -7.130385482717410921e55 - 3.4819676266918799581e56j)],
        ids=["171.5", "200.25", "-150.3", "-120.25"])
    def test_order_beyond_gamma_overflow(self, nu, x, ref):
        # Miller's normalizing sum takes its Gamma weights relative to
        # Gamma(b + 1), which overflows from Re b ~ 170 on; far below order 0
        # the recurrence itself grows past 1e250 and is rescaled (twice at
        # -150.3, once at -120.25)
        assert abs(bessel_j(nu, x) - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("nu, x, ref", [
        # 40-digit mpmath besselj, frozen
        (-175.3 + 1j, 3.0, -9.4817165637873376177e285 - 1.191249911643073134e286j),
        (-171.5 + 0.5j, 11.0, 1.4128143321648283707e180 + 9.5323299408364230284e180j),
        (175.3 + 1j, 3.0, 7.0983513188441195315e-290 + 1.3790536087257177365e-288j)],
        ids=["-175.3", "-171.5", "175.3"])
    def test_order_beyond_140_below_the_crossover(self, nu, x, ref):
        # up to x = 12 too, an order beyond |Re nu| = 140 takes Miller's
        # recurrence: the series' leading term would need 1/Gamma(nu + 1),
        # which overflows at -175.3 although J stays finite
        assert abs(bessel_j(nu, x) - ref) <= 1e-13 * abs(ref)

    def test_underflow_gives_zero(self):
        # mpmath puts each of these below 1e-420: the first by Miller's
        # recurrence, the others by a series whose leading term is 0
        for nu, x in ((150.5 + 0.3j, 0.03), (40 + 0.3j, 1e-12), (20 + 1j, 1e-20)):
            assert bessel_j(nu, x) == 0.0, (nu, x)

    @pytest.mark.parametrize("nu, x", [(-175.3 + 1j, 0.5), (-140 + 0.3j, 0.03)],
                             ids=["miller", "series"])
    def test_overflow_is_raised(self, nu, x):
        # |J| is about 4e422 at -175.3, 7e493 at -140 (mpmath); the message
        # names the order and the argument
        with pytest.raises(ArithmeticError, match=re.escape(f"nu={nu}, x={x}")):
            bessel_j(nu, x)
        with pytest.raises(ArithmeticError):
            bessel_j(np.array([1.5 + 0.5j, nu]), x)

    def test_negative_argument_rejected(self):
        with pytest.raises(ValueError):
            bessel_j(0.0, -1.0)

    def test_term_budget_exhaustion(self, monkeypatch):
        monkeypatch.setattr(specialfns, "MAX_TERMS", 8)
        with pytest.raises(ConvergenceError):
            bessel_j(0.3 + 0.1j, 11.0)


def scalar_series(nu: complex, x: float) -> tuple[complex, float]:
    """The ascending series for one complex order, as bessel_j summed it
    before it took arrays of orders, with the same termination rule. Also
    returns the sum of the terms' moduli, which bounds the rounding error
    of any summation of them."""
    half = 0.5 * x
    term = cmath.exp(nu * math.log(half)) * complex(rgamma(nu + 1.0))
    acc, size = term, abs(term)
    floor = specialfns.ABS_TOL * abs(term)
    for k in range(specialfns.MAX_TERMS):
        term *= -(half * half) / ((k + 1.0) * (nu + k + 1.0))
        acc += term
        size += abs(term)
        if abs(term) < floor + specialfns.REL_TOL * abs(acc):
            return acc, size
    raise AssertionError("oracle series did not converge")


def per_order_miller(nu: complex, x: float) -> complex:
    """Miller's recurrence for one complex order, as bessel_j runs it, but
    with Gamma(b + 1) taken directly, not in log space: downward from a tiny
    seed and normalized through (x/2)^b = sum_j (b+2j) Gamma(b+j)/j! J_{b+2j}(x),
    with a base b = nu + 2 shift of real part >= 0.5."""
    shift = max(0, int(math.ceil(0.5 * (0.5 - nu.real))))
    base = nu + 2 * shift
    k_top = int(math.ceil(x + 14.0 * math.sqrt(x) + 20.0 + max(0.0, abs(nu) - nu.real)))
    k_top += (k_top % 2) + 2 * shift
    f_hi: complex = 0.0
    f_lo: complex = 1e-155
    norm: complex = 0.0
    for k in range(k_top, 0, -1):
        f_hi, f_lo = f_lo, (2.0 * (nu + k) / x) * f_lo - f_hi
        if k >= 2 * shift and (k - 2 * shift) % 2 == 0:
            j = (k - 2 * shift) // 2
            if j == 0:
                norm += complex(gamma(base + 1.0)) * f_hi
            else:
                norm += (base + 2 * j) * cmath.exp(complex(loggamma(base + j)) - math.lgamma(j + 1.0)) * f_hi
        if abs(f_lo) > 1e250:
            f_hi *= 1e-250
            f_lo *= 1e-250
            norm *= 1e-250
    if shift == 0:
        norm += complex(gamma(nu + 1.0)) * f_lo
    return f_lo * cmath.exp(base * math.log(0.5 * x)) / norm


# relative agreement of bessel_j's recurrence with per_order_miller above
# x = 12: the two scale their normalizing sums by Gamma(b + 1) differently
MILLER_RTOL = 1e-13


class TestBesselJOrderArrays:
    """bessel_j over a whole array of orders: the ladders m + tau and
    -(m + tau), |m| <= 30, of a complex exponent, whose factors a Mathieu
    series sums. Each order is evaluated on its own, so it gives the same
    number in an array as alone."""

    LADDER = np.arange(-30, 31)
    TAUS = (0.37 + 0.8j, 0.02 + 1.9j, 0.5 + 1e-3j)

    def ladders(self, tau):
        return np.concatenate([self.LADDER + tau, -(self.LADDER + tau)])

    @pytest.mark.parametrize("x", [0.03, 3.0, 11.9, 12.1, 17.0])
    def test_complex_orders_equal_scalar_calls(self, x):
        # the series (x <= 12) agrees with the scalar sum of old to its
        # rounding bound; above, an order runs the same recurrence in an
        # array as alone
        for tau in self.TAUS:
            orders = self.ladders(tau)
            out = bessel_j(orders, x)
            assert out.shape == orders.shape and out.dtype == complex
            scalar = [bessel_j(complex(nu), x) for nu in orders]
            assert all(type(v) is complex for v in scalar)
            if x > specialfns._SERIES_CROSSOVER:
                assert np.array_equal(out, scalar), (tau, x)
                continue
            for nu, value, single in zip(orders, out, scalar):
                ref, size = scalar_series(complex(nu), x)
                # the array, the single order and the scalar sum of old
                for a, b in ((value, single), (value, ref), (single, ref)):
                    assert abs(a - b) <= 1e-15 * size, (nu, x)
                assert abs(value - ref) <= 1e-10 * abs(ref), (nu, x)

    @pytest.mark.parametrize("x", [0.03, 3.0, 11.9, 12.0])
    def test_series_orders_alone_and_in_an_array_agree_exactly(self, x):
        # up to x = 12 each complex order sums its own series, whether it
        # comes alone or in an array
        for tau in self.TAUS:
            orders = np.concatenate([self.ladders(tau), [2.2 - 0.4j]])
            out = bessel_j(orders, x)
            assert np.array_equal(out, [bessel_j(complex(nu), x) for nu in orders]), (tau, x)

    # x = 45 is kappa*ell = 2000
    @pytest.mark.parametrize("x", [12.1, 17.0, 30.0, 45.0, 74.0])
    def test_ladder_sweep_matches_per_order_recurrence(self, x):
        # each order of the ladders against the test's own recurrence for it
        for tau in self.TAUS:
            orders = self.ladders(tau)
            out = bessel_j(orders, x)
            ref = np.array([per_order_miller(complex(nu), x) for nu in orders])
            assert np.allclose(out, ref, rtol=MILLER_RTOL, atol=0.0), (tau, x)

    def test_ladders_are_found_in_a_mixed_array(self):
        # three ladders, two of them with one imaginary part, shuffled, with
        # a lone order beside them; each order keeps its place and its value
        orders = np.concatenate([self.ladders(0.37 + 0.8j), self.LADDER + 0.61 + 0.8j,
                                 [2.2 - 0.4j]])
        shuffle = np.random.default_rng(5).permutation(orders.size)
        out = bessel_j(orders[shuffle], 17.0)
        ref = np.array([per_order_miller(complex(nu), 17.0) for nu in orders[shuffle]])
        assert np.allclose(out, ref, rtol=MILLER_RTOL, atol=0.0)

    @pytest.mark.parametrize("x", [0.0, 0.03, 3.0, 11.9, 12.1, 17.0])
    def test_real_orders_are_scipy_bit_for_bit(self, x):
        orders = np.concatenate([self.LADDER + 0.37, self.LADDER.astype(float)])
        out = bessel_j(orders, x)
        assert out.dtype == float
        assert np.array_equal(out, scipy_jv(orders, x), equal_nan=True)
        wide = bessel_j(orders.astype(complex), x)
        assert wide.dtype == complex
        assert np.array_equal(wide, scipy_jv(orders, x).astype(complex), equal_nan=True)

    def test_mixed_orders_keep_their_shape(self):
        orders = np.array([[0.5 + 0.0j, -2.0 + 0.0j, 1.3 + 0.4j],
                           [-7.6 - 0.2j, 3.0 + 0.0j, 0.1 + 2.0j]])
        for x in (2.5, 13.0):
            out = bessel_j(orders, x)
            assert out.shape == orders.shape
            single = np.array([bessel_j(complex(nu), x) for nu in orders.ravel()])
            assert np.allclose(out.ravel(), single, rtol=1e-14, atol=0.0)
            real = orders.ravel().imag == 0.0
            assert np.array_equal(out.ravel()[real], scipy_jv(orders.ravel().real[real], x))

    def test_zero_argument(self):
        out = bessel_j(np.array([2.5 + 1.0j, 0.0 + 0.0j, 2.0 + 0.0j]), 0.0)
        assert np.array_equal(out, [0.0, 1.0, 0.0])
        with pytest.raises(ValueError):
            bessel_j(np.array([2.5 + 1.0j, -0.5 + 1.0j]), 0.0)


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
