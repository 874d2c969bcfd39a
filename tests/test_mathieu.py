"""Tests for the modified-Mathieu solution of the inverse-quartic model.

Besides the physics checks, the scalar code that solve_v4 ran before its
layers took whole arrays serves as an oracle: a continuant per truncation
of the Hill determinant, continued fractions on numpy scalars, and a
Bessel-product series summed term by term with an early stop. So does the
fixed table of 30 coefficients a side that ``coefficients`` returned before
its length followed q, summed over its whole ladder of orders.
"""

import cmath
import math
import warnings

import numpy as np
import pytest

import qreflect.mathieu as mathieu
from qreflect.mathieu import (
    characteristic_exponent,
    coefficients,
    parity_sigma,
    r4_curve,
    solve_v4,
)
from qreflect.potentials import HomogeneousPotential
from qreflect.scattering import SolverControl, solve_direct
from qreflect.specialfns import ConvergenceError, bessel_j
from qreflect.wkb import inversion_center


def scalar_hill_determinant(q: float, n_side: int) -> float:
    """The truncated Hill determinant over -n_side..n_side, by one continuant."""
    ns = np.arange(-n_side, n_side + 1)
    xi = q / (4.0 * ns.astype(float) ** 2 - mathieu.A_PARAM)
    d_prev2, d_prev = 1.0, 1.0
    for k in range(1, 2 * n_side + 1):
        d_prev2, d_prev = d_prev, d_prev - xi[k] * xi[k - 1] * d_prev2
    return float(d_prev)


def scalar_characteristic_exponent(q: float) -> complex:
    """tau with every truncation's determinant computed afresh."""
    sin_a2 = math.sin(0.5 * math.pi * math.sqrt(mathieu.A_PARAM)) ** 2

    def tau_from_det(det):
        tau = 2.0 / math.pi * cmath.asin(cmath.sqrt(complex(det * sin_a2)))
        return complex(abs(tau.real), abs(tau.imag))

    n_side = mathieu.N_START
    d_lo = scalar_hill_determinant(q, n_side)
    d_hi = scalar_hill_determinant(q, 2 * n_side)
    tau_prev = tau_from_det(d_hi + (d_hi - d_lo) / 7.0)
    while n_side <= mathieu.N_MAX:
        n_side *= 2
        d_lo, d_hi = d_hi, scalar_hill_determinant(q, 2 * n_side)
        tau = tau_from_det(d_hi + (d_hi - d_lo) / 7.0)
        if abs(tau - tau_prev) < mathieu.TAU_TOL:
            return tau
        tau_prev = tau
    raise AssertionError("oracle tau did not settle")


def scalar_coefficients(tau: complex, q: float, n_terms: int = 30) -> np.ndarray:
    """A_n from continued fractions stored in numpy arrays, element by element."""
    def ladder(sign):
        ratios = np.zeros(n_terms + 2, dtype=complex)
        ratios[n_terms + 1] = -q / ((tau + sign * 2.0 * (n_terms + 1)) ** 2 - mathieu.A_PARAM)
        for n in range(n_terms, 0, -1):
            ratios[n] = -q / (((tau + sign * 2.0 * n) ** 2 - mathieu.A_PARAM) + q * ratios[n + 1])
        return ratios

    up, down = ladder(+1), ladder(-1)
    coeff = np.zeros(2 * n_terms + 1, dtype=complex)
    coeff[n_terms] = 1.0
    for n in range(1, n_terms + 1):
        coeff[n_terms + n] = coeff[n_terms + n - 1] * up[n]
        coeff[n_terms - n] = coeff[n_terms - n + 1] * down[n]
    return coeff


def scalar_mathieu_wave(zt, tau, q, coeff, sign) -> tuple[complex, float]:
    """Psi_t^(sign)(zt) term by term from scalar Bessel calls, stopping after
    three negligible terms; also the sum of the terms' moduli, which bounds
    the rounding error of any summation of them."""
    n_terms = (len(coeff) - 1) // 2
    x_grow = math.sqrt(q) * math.exp(zt)
    x_decay = math.sqrt(q) * math.exp(-zt)
    total = coeff[n_terms] * bessel_j(complex(sign) * tau, x_grow) * bessel_j(0j, x_decay)
    scale = size = abs(total)
    negligible = 0
    for n in range(1, n_terms + 1):
        term = 0.0 + 0.0j
        for m in (n, -n):
            if coeff[n_terms + m] == 0.0:
                continue
            part = ((-1) ** m * coeff[n_terms + m] * bessel_j(complex(sign) * (m + tau), x_grow)
                    * bessel_j(complex(sign * m), x_decay))
            term += part
            size += abs(part)
        total += term
        scale = max(scale, abs(total))
        if abs(term) < 1e-16 * max(scale, 1e-300):
            negligible += 1
            if negligible >= 3 and n >= 5:
                break
        else:
            negligible = 0
    return complex(total), size


def scalar_solve_v4(kappa_ell: float) -> tuple[complex, complex]:
    """(tau, r) from the scalar layers above."""
    q = kappa_ell
    tau = scalar_characteristic_exponent(q)
    coeff = scalar_coefficients(tau, q)
    plus, _ = scalar_mathieu_wave(0.0, tau, q, coeff, +1)
    minus, _ = scalar_mathieu_wave(0.0, tau, q, coeff, -1)
    sigma = cmath.log(minus / plus)
    return tau, -1j * cmath.sinh(sigma) / cmath.sinh(sigma + 1j * math.pi * tau)


def full_ladder_waves(zt, tau, q, coeff, signs) -> tuple[np.ndarray, np.ndarray]:
    """Psi_t^(sign)(zt) for each of ``signs`` over the whole ladder of orders,
    skipping only terms whose coefficient is exactly zero; also the sums of
    the terms' moduli."""
    n_terms = (len(coeff) - 1) // 2
    m = np.arange(-n_terms, n_terms + 1)
    kept = coeff != 0.0
    m, c = m[kept], coeff[kept]
    signs = np.array(signs)[:, None]
    sq = math.sqrt(q)
    grow = bessel_j(signs * (m + tau), sq * math.exp(zt))
    decay = bessel_j(signs * m.astype(float), sq * math.exp(-zt))
    terms = np.where(m % 2, -c, c) * grow * decay
    return np.sum(terms, axis=1), np.sum(np.abs(terms), axis=1)


# kappa*ell at which tau reaches the branch point tau = 1, between its real
# and its complex values
BRANCH_KL = 0.6947185777459376


def full_ladder_solve_v4(kappa_ell: float) -> tuple[complex, complex]:
    """(tau, r) with the parity constant from the whole ladder of the
    30-term table."""
    q = kappa_ell
    tau = characteristic_exponent(q)
    coeff = scalar_coefficients(tau, q)
    (plus, minus), _ = full_ladder_waves(0.0, tau, q, coeff, [+1, -1])
    sigma = cmath.log(minus / plus)
    return tau, -1j * cmath.sinh(sigma) / cmath.sinh(sigma + 1j * math.pi * tau)


class TestScalarOracles:
    """Each layer of solve_v4 against the scalar code it replaced."""

    @pytest.mark.parametrize("q", [1e-3, 1.0, 10.0, 299.0])
    def test_hill_sweep_matches_the_continuant(self, q):
        sides = [1, 2, 3, 25, 100, 400]
        swept = list(mathieu._hill_determinants(q, sides))
        assert len(swept) == len(sides)
        for n_side, det in zip(sides, swept):
            ref = scalar_hill_determinant(q, n_side)
            assert abs(det - ref) <= 1e-13 * abs(ref), (q, n_side)

    @pytest.mark.parametrize("q", [1e-3, 0.3, 3.0, 100.0])
    def test_coefficients_match(self, q):
        # the table is shorter than the oracle's 30 a side where q is small;
        # its last entries differ by the seed of the continued fractions
        tau = characteristic_exponent(q)
        coeff = coefficients(tau, q)
        ref = scalar_coefficients(tau, q)
        side = (len(coeff) - 1) // 2
        kept = ref[30 - side:31 + side]
        large = np.abs(kept) >= 1e-15 * np.max(np.abs(kept))
        assert np.allclose(coeff[large], kept[large], rtol=1e-14, atol=0.0)
        assert np.all(np.abs(coeff[~large] - kept[~large]) <= 1e-19)
        dropped = np.concatenate([ref[:30 - side], ref[31 + side:]])
        assert np.all(np.abs(dropped) < 1e-20)

    @pytest.mark.parametrize("q", [1e-3, 0.3, 3.0, 100.0])
    def test_waves_match(self, q):
        tau = characteristic_exponent(q)
        coeff = coefficients(tau, q)
        for sign in (+1, -1):
            ref, size = scalar_mathieu_wave(0.0, tau, q, coeff, sign)
            wave = mathieu._waves(tau, q, coeff, [sign])[0]
            assert abs(wave - ref) <= 1e-14 * size, (q, sign)

    @pytest.mark.parametrize("kl", [1e-3, 0.5, 10.0])
    def test_recurrence_residual_matches_the_loop(self, kl):
        sol = solve_v4(kl)
        n_terms = (len(sol.coeff) - 1) // 2
        scale = float(np.max(np.abs(sol.coeff)))
        worst = 0.0
        for n in range(-(n_terms - 1), n_terms):
            lhs = ((sol.tau + 2.0 * n) ** 2 - mathieu.A_PARAM) * sol.coeff[n_terms + n] \
                + sol.q * (sol.coeff[n_terms + n + 1] + sol.coeff[n_terms + n - 1])
            worst = max(worst, abs(lhs) / scale)
        assert sol.recurrence_residual() == pytest.approx(worst, rel=1e-12, abs=1e-300)

    def test_solve_v4_matches(self):
        for kl in np.geomspace(1e-3, 299.0, 41):
            sol = solve_v4(float(kl))
            tau, r = scalar_solve_v4(float(kl))
            assert abs(sol.tau - tau) <= 1e-14, kl
            assert abs(sol.r - r) <= 1e-12, kl


class TestSeriesCut:
    """The Bessel-product series over the q-sized table, against the whole
    ladder of the 30-term table."""

    def test_solve_v4_matches_the_full_ladder(self):
        for kl in np.geomspace(1e-3, 299.0, 400):
            sol = solve_v4(float(kl))
            tau, r = full_ladder_solve_v4(float(kl))
            assert sol.tau == tau, kl
            assert abs(sol.r - r) <= 1e-12, kl

    @pytest.mark.parametrize("q", [1e-3, 0.3, 3.0, 100.0])
    def test_table_cut_is_a_term_cut_at_zero(self, q):
        # at zt = 0 the terms of the coefficients the table leaves out stay
        # below the rounding of the sum
        tau = characteristic_exponent(q)
        waves = mathieu._waves(tau, q, coefficients(tau, q), [+1, -1])
        ref, size = full_ladder_waves(0.0, tau, q, scalar_coefficients(tau, q), [+1, -1])
        assert np.all(np.abs(waves - ref) <= 1e-14 * size), q

    @pytest.mark.parametrize("q", [1e-3, 0.3, 3.0, 100.0])
    def test_waves_match_the_full_ladder(self, q):
        # on one table
        tau = characteristic_exponent(q)
        coeff = coefficients(tau, q)
        waves = mathieu._waves(tau, q, coeff, [+1, -1])
        ref, size = full_ladder_waves(0.0, tau, q, coeff, [+1, -1])
        assert np.all(np.abs(waves - ref) <= 1e-14 * size), q

    @staticmethod
    def spy_orders(monkeypatch) -> list[int]:
        sizes = []

        def spy(nu, x):
            sizes.append(np.size(nu))
            return bessel_j(nu, x)

        monkeypatch.setattr(mathieu, "bessel_j", spy)
        return sizes

    def test_cut_keeps_few_orders(self, monkeypatch):
        sizes = self.spy_orders(monkeypatch)
        sol = solve_v4(0.01)
        # 7 coefficients a side, not N_TERMS = 30
        assert len(sol.coeff) <= 15
        # one call, on the integer orders 0..N of the decaying factors
        n_terms = (len(sol.coeff) - 1) // 2
        assert sizes == [n_terms + 1]

    @pytest.mark.parametrize("kl", [1e-300, 1e-12, 1e-8, 1e-6, 150.0, 250.0])
    def test_extremes_stay_quiet(self, kl):
        # tables of one to three coefficients a side at small kappa*ell, where
        # each step of a ladder's recurrence multiplies it by up to 1e150, and
        # ladders of complex orders above x = 12
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            sol = solve_v4(kl)
        assert abs(sol.r) ** 2 + abs(sol.t) ** 2 == pytest.approx(1.0, abs=1e-10)


class TestWaveLadders:
    """The waves' growing factors from one self-normalized recurrence per
    sign, and their decaying ones from the integer orders 0..N, against the
    whole ladder's array calls and against 40-digit sums."""

    # Psi_t^+(0) and Psi_t^-(0), summed in 40-digit mpmath over the table
    # with tau and the coefficients as solve_v4 computes them, frozen; the
    # last is at x = 12.003
    MPMATH_WAVES = [
        (0.21406, 0.44719658154569454405, 1.0061567374156752741),
        (0.689477, 0.069114291787909666127, 0.073704893643633734189),
        (3.95, 1.3976634981918681061 - 0.89957830176630674355j,
         -1.3976634981918849568 - 0.89957830176632627142j),
        (144.06, -792.34607719182783463 + 20.129143105082771873j,
         -792.34607719182783463 - 20.129143105082771873j),
    ]

    @pytest.mark.parametrize("kl, plus, minus", MPMATH_WAVES, ids=[f"{kl}" for kl, *_ in MPMATH_WAVES])
    def test_waves_against_mpmath(self, kl, plus, minus):
        tau = characteristic_exponent(kl)
        coeff = coefficients(tau, kl)
        waves = mathieu._waves(tau, kl, coeff, [+1, -1])
        _, size = full_ladder_waves(0.0, tau, kl, coeff, [+1, -1])
        assert np.all(np.abs(np.subtract(waves, [plus, minus])) <= 4e-15 * size), kl

    def test_r_near_the_branch_point_against_mpmath(self):
        # 0.0052 below the branch point R carries the waves' error some 30
        # times over, and the products A_m J_(-m) alone leave about 5e-16 of
        # each wave, whose terms sum to 9 times it: R reads 4.4e-14 from the
        # R of the 40-digit waves above, frozen
        assert solve_v4(0.689477).R == pytest.approx(0.12300920951702040621, rel=6e-14, abs=0.0)

    def test_waves_match_the_full_ladder_on_a_grid(self):
        # and on both sides of the branch point: real tau below, complex above
        branch = BRANCH_KL + np.array([-1e-4, -1e-5, -1e-6, 1e-6, 1e-5, 1e-4])
        kinds = set()
        for kl in np.concatenate([np.geomspace(1e-3, 299.0, 200), branch]):
            tau = characteristic_exponent(kl)
            coeff = coefficients(tau, kl)
            waves = mathieu._waves(tau, kl, coeff, [+1, -1])
            ref, size = full_ladder_waves(0.0, tau, kl, coeff, [+1, -1])
            assert np.all(np.abs(waves - ref) <= 1e-14 * size), kl
            assert (tau.imag > 0.0) == (kl > BRANCH_KL), kl
            kinds.add("x > 12" if kl > 144.0 else "complex" if tau.imag else "real")
        assert kinds == {"real", "complex", "x > 12"}


class TestCharacteristicExponent:
    @pytest.mark.parametrize("q", [math.nan, math.inf])
    def test_non_finite_input_rejected(self, q):
        for call in (characteristic_exponent, solve_v4, lambda q: r4_curve([0.1, q])):
            with pytest.raises(ValueError, match="finite and positive"):
                call(q)

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
        coeff = coefficients(tau, 1e-8)
        n_terms = (len(coeff) - 1) // 2
        assert coeff[n_terms] == 1.0
        assert abs(coeff[n_terms + 1]) < 1e-7
        assert abs(coeff[n_terms - 1]) < 1e-7

    def test_recurrence_residual(self):
        sol = solve_v4(0.5)
        assert sol.recurrence_residual() < 1e-10

    def test_tail_decay(self):
        tau = characteristic_exponent(1.0)
        coeff = coefficients(tau, 1.0)
        assert abs(coeff[0]) < 1e-14
        assert abs(coeff[-1]) < 1e-14

    def test_short_table_raises(self, monkeypatch):
        # at q = 10 the coefficients still matter ten terms out
        monkeypatch.setattr(mathieu, "N_TERMS", 10)
        with pytest.raises(ConvergenceError, match="tails have not decayed"):
            coefficients(characteristic_exponent(10.0), 10.0)


class TestWaveSeries:
    # the package sums the series at zt = 0 only; off it, these read the
    # test's own sum over the same coefficient table, ``full_ladder_waves``
    def test_parity_relation(self):
        q = 0.5
        tau = characteristic_exponent(q)
        coeff = coefficients(tau, q)
        sigma = parity_sigma(tau, q, coeff)
        for zt in (0.3, 0.7):
            (plus,), _ = full_ladder_waves(zt, tau, q, coeff, [+1])
            (minus_mirror,), _ = full_ladder_waves(-zt, tau, q, coeff, [-1])
            assert plus == pytest.approx(cmath.exp(-sigma) * minus_mirror, rel=1e-9)

    def test_sigma_finite_and_continuous(self):
        qs = np.geomspace(0.05, 3.0, 120)
        values = []
        for q in qs:
            tau = characteristic_exponent(float(q))
            coeff = coefficients(tau, float(q))
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
        coeff = coefficients(tau, q)
        x_big = 50.0
        zt = math.log(x_big / math.sqrt(q))
        for sign in (+1, -1):
            (series,), _ = full_ladder_waves(zt, tau, q, coeff, [sign])
            envelope = math.sqrt(2.0 / (math.pi * x_big))
            cosine = envelope * cmath.cos(x_big - sign * 0.5 * math.pi * tau - 0.25 * math.pi)
            assert abs(series - cosine) < 1e-6 * envelope


class TestAmplitudes:
    def test_solutions_compare_by_identity(self):
        a, b = solve_v4(0.1), solve_v4(0.1)
        assert a == a and a != b
        assert hash(a) == hash(a)
        assert len({a, b}) == 2

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

    def test_above_barrier_prefactor(self):
        # R approaches exp(-4 z* sqrt(kappa*ell)) from above (Pokrovskii and
        # Khalatnikov), with a prefactor that falls toward 1; these reach
        # x = sqrt(kappa*ell) = 10 to 17.3
        kls = (100.0, 150.0, 200.0, 250.0, 299.0)
        prefactor = [solve_v4(kl).R * math.exp(4.0 * inversion_center() * math.sqrt(kl))
                     for kl in kls]
        assert all(a > b for a, b in zip(prefactor, prefactor[1:])), prefactor
        assert all(1.0 < p < 1.09 for p in prefactor), prefactor

    def test_matches_direct_integration(self):
        for kl in (0.03, 0.3):
            ana = solve_v4(kl)
            ode = solve_direct(HomogeneousPotential(4, kl), kl)
            assert abs(ana.R - ode.R) < 1e-6
            assert abs(ana.r - ode.r) < 1e-7
            assert abs(ana.t - ode.t) < 1e-7

    def test_branch_point_window(self):
        # tau = (2/pi) asin sqrt(w) is 0/0-conditioned at w = 1, where the
        # doubling of the Hill determinant cannot settle it; so close to the
        # branch point solve_v4 raises rather than return an r that is 0/0
        # there, and further out r follows the tight direct route
        with pytest.raises(ConvergenceError):
            solve_v4(BRANCH_KL)
        ctl = SolverControl(rtol=1e-13, q_match_rel=1e-13)
        for offset, bound in ((1e-6, 1e-9), (1e-5, 1e-9), (1e-4, 1e-11), (1e-3, 1e-11)):
            for kl in (BRANCH_KL - offset, BRANCH_KL + offset):
                ode = solve_direct(HomogeneousPotential(4, kl), kl, ctl)
                assert abs(solve_v4(kl).r - ode.r) <= bound, kl

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
