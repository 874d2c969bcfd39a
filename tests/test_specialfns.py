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

from qreflect.liouville import wall_integral_closed
from qreflect.specialfns import bessel_j, bessel_j_sum
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
        # oracle, at the orders nu .. nu + 4: each order alone, and the five
        # as one ladder about nu + 2, read off with unit weights
        steps = np.arange(5)
        for nu in (-9.5, -2.3, 0.0, 0.5, 3.7, 9.9):
            orders = (nu + steps).astype(complex)
            for x in (0.05, 1.0, 5.0, 11.0, 13.0, 25.0, 50.0, 100.0):
                ref = scipy_jv(nu + steps, x)
                scale = np.maximum(np.abs(ref), math.sqrt(2.0 / (math.pi * x)) * 1e-2)
                routes = {"alone": np.array([bessel_j_sum(order, x, [1.0])
                                             for order in orders.tolist()]),
                          "ladder": np.array([bessel_j_sum(orders[2], x, unit)
                                              for unit in np.eye(5).tolist()])}
                for route, out in routes.items():
                    assert np.all(np.abs(out - ref) <= 1e-9 * scale), (route, nu, x)

    def test_orders_above_140_against_scipy(self):
        # above Re nu = 140 Gamma(nu + 1) nears overflow; the normalization
        # takes it in log space, so these orders keep their accuracy, as an
        # order below does
        orders = np.array([140.5, 150.5, 163.25]) + 0j
        for x in (3.0, 7.5, 11.9):
            out = [bessel_j_sum(nu, x, [1.0]) for nu in orders.tolist()]
            assert np.allclose(out, scipy_jv(orders.real, x), rtol=1e-12, atol=0.0), x
            below = bessel_j_sum(12.5 + 0j, x, [1.0])
            assert np.allclose(below, scipy_jv(12.5, x), rtol=1e-12, atol=0.0), x

    def test_orders_above_140_in_a_mixed_array(self):
        # in one call an order above Re nu = 140 and one below it each give
        # their value alone
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
        # Gamma(nu + 1) overflows from Re nu ~ 170 on; Miller's normalizing
        # sum sits at the order nu + k of real part in [1/2, 3/2) below 0,
        # and at nu itself above, in log space; far below order 0 the
        # recurrence grows over 150 decades on its way down to nu (at -150.3)
        assert abs(bessel_j(nu, x) - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("nu, x, ref", [
        # 40-digit mpmath besselj, frozen
        (-175.3 + 1j, 3.0, -9.4817165637873376177e285 - 1.191249911643073134e286j),
        (-171.5 + 0.5j, 11.0, 1.4128143321648283707e180 + 9.5323299408364230284e180j),
        (175.3 + 1j, 3.0, 7.0983513188441195315e-290 + 1.3790536087257177365e-288j)],
        ids=["-175.3", "-171.5", "175.3"])
    def test_order_beyond_140_below_the_crossover(self, nu, x, ref):
        # at small x too, where an ascending series' leading term would need
        # 1/Gamma(nu + 1), which overflows at -175.3 although J stays finite
        assert abs(bessel_j(nu, x) - ref) <= 1e-13 * abs(ref)

    def test_underflow_gives_zero(self):
        # mpmath puts each of these below 1e-420; the normalization
        # (x/2)^nu/Gamma(nu + 1) underflows to 0
        for nu, x in ((150.5 + 0.3j, 0.03), (40 + 0.3j, 1e-12), (20 + 1j, 1e-20)):
            assert bessel_j(nu, x) == 0.0, (nu, x)

    @pytest.mark.parametrize("nu, x", [(-175.3 + 1j, 0.5), (-140 + 0.3j, 0.03)],
                             ids=["-175.3", "-140"])
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

    @pytest.mark.parametrize("x", [math.nan, math.inf])
    @pytest.mark.parametrize("nu", [1.5, 1.5 + 0.5j, np.array([1.5, 1.5 + 0.5j])],
                             ids=["real", "complex", "array"])
    def test_non_finite_argument_rejected(self, nu, x):
        with pytest.raises(ValueError, match=re.escape(f"x={x}")):
            bessel_j(nu, x)

    @pytest.mark.parametrize("nu", [complex(math.nan, 1.0), complex(1.0, math.nan),
                                    complex(math.inf, 1.0), complex(1.0, -math.inf)])
    def test_non_finite_complex_order_rejected(self, nu):
        # not a false overflow, nor a bare error from the integer part of
        # nu, nor a 0 at x = 0
        for x in (2.0, 0.0):
            with pytest.raises(ValueError, match=re.escape(f"nu={nu}")):
                bessel_j(nu, x)


def scalar_series(nu: complex, x: float) -> tuple[complex, float]:
    """The ascending series for one complex order, summed term by term until
    a term falls below 1e-16 of the first plus 1e-15 of the sum, within 400
    terms. Also returns the sum of the terms' moduli, which bounds the
    rounding error of any summation of them."""
    half = 0.5 * x
    term = cmath.exp(nu * math.log(half)) * complex(rgamma(nu + 1.0))
    acc, size = term, abs(term)
    floor = 1e-16 * abs(term)
    for k in range(400):
        term *= -(half * half) / ((k + 1.0) * (nu + k + 1.0))
        acc += term
        size += abs(term)
        if abs(term) < floor + 1e-15 * abs(acc):
            return acc, size
    raise AssertionError("oracle series did not converge")


def per_order_miller(nu: complex, x: float) -> complex:
    """Miller's recurrence for one complex order, written apart from
    bessel_j's: from a tiny seed x + 14 sqrt(x) + 20 + (|nu| - Re nu) orders
    above nu, and normalized through
    (x/2)^b = sum_j (b+2j) Gamma(b+j)/j! J_{b+2j}(x), with a base
    b = nu + 2 shift of real part >= 0.5 and Gamma(b + 1) taken directly,
    not in log space."""
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


# relative agreement of bessel_j with per_order_miller: the two start and
# normalize apart, and each carries the rounding of its steps through
# orders below x
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
        # an order runs the same recurrence in an array as alone; up to
        # x = 12 the ascending series is the oracle
        for tau in self.TAUS:
            orders = self.ladders(tau)
            out = bessel_j(orders, x)
            assert out.shape == orders.shape and out.dtype == complex
            scalar = [bessel_j(complex(nu), x) for nu in orders]
            assert all(type(v) is complex for v in scalar)
            assert np.array_equal(out, scalar), (tau, x)
            if x > 12.0:
                continue
            for nu, value in zip(orders, out):
                ref, _ = scalar_series(complex(nu), x)
                assert abs(value - ref) <= 1e-10 * abs(ref), (nu, x)

    @pytest.mark.parametrize("x", [0.03, 3.0, 11.9, 12.0])
    def test_series_orders_alone_and_in_an_array_agree_exactly(self, x):
        # each complex order of the series' ladders runs its own recurrence,
        # whether it comes alone or in an array
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


class TestBesselJSum:
    """Weighted sums over ladders of orders nu + j, j = -n..n, the form in
    which the Mathieu series use them."""

    # J_(tau+j)(x) at j = -60, -30, 0, 30, 60 of the ladder n = 60; 40-digit
    # mpmath besselj, frozen
    ORDERS = (-60, -30, 0, 30, 60)
    LADDERS = [
        (20.0, (1+12j), [1.2138842142456518137e+35 - 6.6806744714294553457e+34j,
                   -19064514112520490.449 + 8530648705453447.2278j,
                   -244414.02617689402311 + 7180784.8965366777345j,
                   0.00065585994468843723497 - 0.00022689456910702308982j,
                   -1.1905380186899357839e-23 - 5.4645420322737910218e-24j]),
        (20.0, 18j, [-1.1639123077925461869e+43 - 2.3380000005618009649e+43j,
                   1.3754026054262255812e+22 - 3.3062838291151376178e+23j,
                   78417575963.809446951 - 123566030182.79899652j,
                   0.04147950118987882929 - 0.03239473973518630243j,
                   2.6049807270698574493e-22 - 2.5977391027277218105e-22j]),
        (20.0, (1+25j), [2.9166174391973180957e+50 + 1.117791908274052673e+51j,
                   2.118060508653933868e+30 - 6.3139743668374226759e+29j,
                   -2629423028828039.0784 - 977416609374906.80777j,
                   -0.76280594809883868476 + 1.38602492392178008j,
                   4.1098854386079006434e-23 - 6.8861718005012893012e-22j]),
        (20.0, (0.3+25j), [-4.1704932198452676457e+51 - 3.286055065132798422e+50j,
                   1.1765986708586334353e+30 + 5.516037016267319858e+30j,
                   -804073163633765.75386 - 5785264871542301.239j,
                   -3.531343619431093871 + 2.1701027157801856913j,
                   8.5968917811266149815e-22 - 2.408535368534751386e-21j]),
        (31.6, (1+12j), [2.682753836054315798e+24 - 2.2458306726385430118e+24j,
                   777540323105.04187356 - 2835897280809.7251762j,
                   -2184698.4448950740427 + 6935240.9878749836713j,
                   5.2773669661109787086 + 12.909902813861848128j,
                   -1.5143893744109646612e-12 - 2.2956732683761844279e-13j]),
        (31.6, 18j, [2.5675201665961318004e+32 + 2.2820724666565317961e+32j,
                   -10759695598456346105.0 - 2506275546388962991.1j,
                   97875962577.600724966 + 79153966688.934075751j,
                   -1035.7522448617120608 - 1128.4468492471914136j,
                   -1.0184211931121823e-11 + 2.8155556908020607274e-11j]),
        (31.6, (1+25j), [6.6443499852211610859e+39 + 1.8793494486953074969e+40j,
                   1.6325070309752140482e+24 + 5.1253179692780143766e+25j,
                   1969452610989079.4125 + 2833041679787751.497j,
                   -145281.53481088910112 - 59403.821154050059347j,
                   -1.6260685894923894152e-11 - 1.0869563695532650132e-10j]),
        (31.6, (0.3+25j), [-5.1492083355546145347e+40 + 1.4701419441181501695e+39j,
                   -9.6515284929311352021e+25 + 1.9319479341730277564e+24j,
                   -2624445315741642.1059 + 5098291859604644.4827j,
                   -169742.88422861655283 - 247608.23151384583554j,
                   4.4689169645682933098e-11 - 2.8742696019641027379e-10j]),
        (45.0, (1+12j), [41776401859978815.304 - 327607721272263587.74j,
                   -36304157928.823237996 + 2269744823.6692290355j,
                   -6725679.536669280137 - 1528728.160317180579j,
                   -14.285820138531892718 - 1377.687661472489851j,
                   -0.000030776328688881078241 + 0.000033741025468163219253j]),
        (45.0, 18j, [-1.1205796835278379399e+25 + 9.1028133943934337414e+24j,
                   -30131332663974067.912 + 9965462902837364.3583j,
                   -107231216623.56955524 + 19761236018.85855894j,
                   -427203.17637982454752 - 313.99418581683238907j,
                   -0.00074591940677342241675 - 0.00028547985990693310611j]),
        (45.0, (1+25j), [7.0166954165940353763e+32 - 3.4118364787734464286e+32j,
                   -6.9773737647723360412e+22 + 5.1929738757150127208e+21j,
                   -925250863915612.27343 - 3594055104813320.3046j,
                   -19971912.501199209998 - 173197273.18744631701j,
                   -0.0056701508543371478676 + 0.003274730783273887497j]),
        (45.0, (0.3+25j), [2.8707934205107775098e+32 + 1.5083499711703804053e+33j,
                   -1.60250030735377018e+22 - 1.069960903197604411e+23j,
                   3989201959490112.7226 - 3608614217147638.8229j,
                   143496276.57247743147 - 229695972.21461205054j,
                   -0.012963400780333125057 + 0.0023662303252351273438j]),
    ]

    @pytest.mark.parametrize("x, tau, refs", LADDERS, ids=[f"{x}-{tau}" for x, tau, _ in LADDERS])
    def test_ladder_against_mpmath(self, x, tau, refs):
        # x up to 45 (kappa*ell = 2025) and Im tau up to 25, each order read
        # off with a unit weight; the error is near constant along a ladder,
        # so it is the normalization's: up to 2.7e-13 at x = 45, tau = 1 + 25i,
        # where Neumann's sum cancels, and at most 2.2e-14 at x <= 31.6
        bound = 4e-13 if x == 45.0 else 4e-14
        for j, ref in zip(self.ORDERS, refs):
            unit = [0.0] * 121
            unit[60 + j] = 1.0
            assert abs(bessel_j_sum(tau, x, unit) - ref) <= bound * abs(ref), (x, tau, j)

    @pytest.mark.parametrize("x", [0.03, 1.7, 17.0])
    def test_weighted_sum_is_the_sum_of_its_orders(self, x):
        # one recurrence serves all weights, so the sum is its orders' sum
        # to the rounding of the products
        rng = np.random.default_rng(11)
        for tau in (0.37 + 0.8j, -0.9 - 1.9j, 0.62):
            weights = (rng.normal(size=21) + 1j * rng.normal(size=21)).tolist()
            orders = [bessel_j_sum(tau, x, unit) for unit in np.eye(21).tolist()]
            size = sum(abs(w * v) for w, v in zip(weights, orders))
            total = sum(w * v for w, v in zip(weights, orders))
            assert abs(bessel_j_sum(tau, x, weights) - total) <= 1e-14 * size, (tau, x)

    def test_lone_order_far_above_its_base(self):
        # alone, 15 + 5i is its own base, and Neumann's weights reach 2e12
        # at x = 31.6: the start, 64 orders above it, leaves out terms below
        # 1e-17 of the sum, while one 30 orders above, about what the top of
        # a Mathieu ladder takes, leaves an error of 3.7e-3
        ref = -8.1632967802520044716 - 14.336778949672050977j   # mpmath, frozen
        assert abs(bessel_j(15 + 5j, 31.6) - ref) <= 1e-13 * abs(ref)


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
