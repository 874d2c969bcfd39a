"""Tests for the WKB field: wavevector, phase convention, badlands function."""

import cmath
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad
from scipy.interpolate import PPoly
from scipy.optimize import brentq

from qreflect import inversion_center, potentials, wkb
from qreflect.cli import main
from qreflect.potentials import HomogeneousPotential, TabulatedPotential
from qreflect.wkb import (
    WkbField,
    _cliff_offset,
    _far_crossing,
    badlands_peak_x,
    phase_coordinate,
    universal_badlands,
)

from helpers import e1_energy, load_perfbench, shelf_table, two_tail_table, v4_field, write_cp_table

Z_STAR = 0.8472130847939791

# phase_coordinate(x, n) by 30-digit mpmath quadrature of x - int_x^inf
# (sqrt(1 + t**-n) - 1) dt, at the doubles nearest these x
MP_X = (1e-11, 1e-8, 1e-4, 0.3, 1.19, 1.21, 2.0, 30.0, 1e3, 1e6)
MP_PHASE = {
    3: (-6.32452944924116655741981996592e+5, -1.99974128904407700002394361837e+4,
        -1.97412890440750204672872884859e+2, -1.05454513967060558380142624778,
        1.02239039687411927525486828627, 1.04752024395761269401725703953,
        1.93825235566335135109799833319, 2.99997222232510168993012054411e+1,
        9.99999999750000000024999999992e+2, 9.99999999999999999750000000000e+5),
    4: (-9.99999999983055798807151136328e+10, -9.99999983055738283197857437742e+7,
        -9.99830557383041139594276009649e+3, -1.63441105907454820053672769175,
        1.09569427463415263323960631954, 1.12004463563197765653766843756,
        1.97930347809989679057877231048, 2.99999938271613103400019458838e+1,
        9.99999999999833333333333351190e+2, 9.99999999999999999999999833333e+5),
    5: (-2.10818510677891960388950926988e+16, -6.66666666665245607722386393725e+11,
        -6.66665245628644899300688868115e+5, -2.63405399186596462715799047647,
        1.13023928760610045996552049428, 1.15392050770222349451404411578,
        1.99221435811247447651722789916, 2.99999998456790130513076616966e+1,
        9.99999999999999875000000000000e+2, 1.00000000000000000000000000000e+6),
    6: (-5.00000000000000060502901362582e+21, -4.99999999999999849721961208382e+15,
        -4.99999987064452155929311176373e+7, -4.26098834973510114371977768425,
        1.14960697444991968481895801959, 1.17271578919863322625170702778,
        1.99688052080204562153107396728, 2.99999999958847736631929209277e+1,
        9.99999999999999999900000000000e+2, 1.00000000000000000000000000000e+6),
    8: (-3.33333333333333393836364051394e+32, -3.33333333333333312410771327338e+23,
        -3.33333333332157418900288986414e+11, -1.11695695025703290766737852957e+1,
        1.16943154379941013190310098052, 1.19163735966984760506039668478,
        1.99944221827551253909264695162, 2.99999999999967339473512318826e+1,
        9.99999999999999999999999928571e+2, 1.00000000000000000000000000000e+6),
}
# the cliff offset C_n = lim phase_coordinate(x, n) - x**a/a as x -> 0,
# a = 1 - n/2, by 30-digit mpmath quadrature of 1 - 1/a
# - int_0^1 (sqrt(1 + t**-n) - t**(-n/2)) dt - int_1^inf (sqrt(1 + t**-n) - 1) dt
MP_CLIFF_OFFSET = {
    3: 2.58710955922979053495351502513,
    4: 1.69442616958795817321299824696,
    5: 1.42103802171944281320326409199,
    6: 1.29355477961489526747675751257,
    7: 1.22148687859233440764834830930,
    8: 1.17586651130832305989877675839,
}


def quadrature_phi(fld: WkbField, z: float) -> float:
    """Tabulated phi by adaptive quadrature, as the package computed it before
    its phase table: quad per quarter log unit of z up to max(50 zeta,
    z_from), under the quartic closed form there, z_from the start of the
    far tail.
    """
    pot = fld.potential
    (_, _, z_top), (_, c4, z_from) = pot.tails
    zeta = (c4 / fld.energy) ** 0.25
    anchor = max(50.0 * zeta, z_from)
    phi_anchor = fld.kappa * zeta * phase_coordinate(anchor / zeta, 4)
    if z >= anchor:
        return fld.kappa * zeta * phase_coordinate(z / zeta, 4)
    s_lo, s_hi = math.log(z), math.log(anchor)
    edges = {s_lo, s_hi}
    edges.update(s for s in map(math.log, (z_top, pot.z_min, pot.z_max, z_from))
                 if s_lo < s < s_hi)
    edges.update(float(s) for s in np.arange(math.ceil(s_lo), s_hi, 0.25))
    grid = sorted(edges)
    total = err_total = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        for a, b in zip(grid[:-1], grid[1:]):
            seg, err = quad(lambda s: fld.k(math.exp(s)) * math.exp(s), a, b,
                            epsabs=1e-13, epsrel=1e-13, limit=200)
            total += seg
            err_total += err
    assert err_total <= 1e-8
    return phi_anchor - total


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
    @pytest.mark.parametrize("energy", [math.nan, math.inf, 0.0])
    def test_non_finite_energy_rejected(self, energy):
        with pytest.raises(ValueError, match="finite and positive"):
            WkbField(HomogeneousPotential(4, 1.0), energy)

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
    @pytest.mark.parametrize("pot", [HomogeneousPotential(4, 0.3), two_tail_table()],
                             ids=["v4", "table"])
    def test_domain_error(self, pot):
        fld = WkbField(pot, 0.02)
        for z in (0.0, -1.0, np.array([1.0, 0.0]), math.nan, np.array([1.0, math.nan])):
            with pytest.raises(ValueError, match="z > 0"):
                fld.phi(z)

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

    @pytest.mark.parametrize("n", sorted(MP_PHASE))
    def test_closed_form_vs_mpmath(self, n):
        # from deep in the cliff to far out, where 2F1 takes -x**n of 1e30
        # and more
        for x, ref in zip(MP_X, MP_PHASE[n]):
            assert phase_coordinate(x, n) == pytest.approx(ref, rel=1e-14, abs=0.0), x

    def test_cliff_offset_vs_mpmath(self):
        for n, ref in MP_CLIFF_OFFSET.items():
            assert _cliff_offset(n) == pytest.approx(ref, rel=1e-15, abs=0.0), n
        # the quartic's offset is twice its inversion center z*, by one formula
        assert inversion_center() == _cliff_offset(4) / 2.0

    def test_overflow_raises(self):
        # x**4 overflows a float above 1e77, where the 2F1 would be nan, and
        # x**-3 below 1e-103, where the result would be -inf
        assert math.isfinite(phase_coordinate(1e77, 4))
        assert math.isfinite(phase_coordinate(1e-102, 8))
        for x in (1e78, np.array([1.0, 1e80])):
            with pytest.raises(OverflowError, match=r"x\*\*4 overflows"):
                phase_coordinate(x, 4)
        with pytest.raises(OverflowError, match=r"x\*\*-3 overflows a float at x = 1e-120"):
            phase_coordinate(np.array([1e-120, 1.0]), 8)
        assert phase_coordinate(np.array([]), 4).shape == (0,)
        with pytest.raises(ValueError, match="positive"):
            phase_coordinate(np.array([1.0, math.nan]), 4)

    @pytest.mark.parametrize("n", [3, 4, 5, 8])
    def test_float_is_the_one_element_array(self, n):
        # a float takes no 0-d array, and gives the bits of the array path
        for x in np.geomspace(1e-3, 1e3, 301).tolist():
            assert phase_coordinate(x, n) == phase_coordinate(np.array([x]), n)[0], x
        for bad in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="x must be positive"):
                phase_coordinate(bad, n)
            with pytest.raises(ValueError, match="x must be positive"):
                phase_coordinate(np.array([bad]), n)
        big = 10.0 ** (310.0 / n)   # x**n overflows a float
        for x in (big, np.array([big])):
            with pytest.raises(OverflowError, match=rf"x\*\*{n} overflows a float at x = "):
                phase_coordinate(x, n)

    @pytest.mark.parametrize("case", ["v4", "table"])
    def test_phi_float_is_the_one_element_array(self, case):
        # the float path of phi, on a law and on a table's pieces and tails
        if case == "v4":
            fld, zs = v4_field(0.3), np.geomspace(1e-3, 1e3, 301)
        else:
            fld, zs = WkbField(two_tail_table(), 0.02), np.geomspace(0.05, 5e3, 301)
        for z in zs.tolist():
            assert fld.phi(z) == fld.phi(np.array([z]))[0], z
        for bad in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="phase is defined on z > 0"):
                fld.phi(bad)

    @pytest.mark.parametrize("e1", [1.0, 100.0, 1000.0])
    def test_tabulated_table_vs_quadrature(self, tmp_path, e1):
        # below, inside and above the 500-node table on 1 .. 40000 a0
        pot = potentials.load_potential_table(write_cp_table(tmp_path, 500))
        fld = WkbField(pot, e1_energy(e1))
        for z in (1e-3, 0.3, 1.0, 1.7, 30.0, 2000.0, 39999.0, 4e4, 1.3e5):
            assert fld.phi(z) == pytest.approx(quadrature_phi(fld, z), rel=0.0, abs=1e-10), z

    def test_tabulated_continuous_across_seams(self, tmp_path):
        # the end nodes, and the tails' edges, where their laws take over
        # phi and Q from the pieces
        pot = potentials.load_potential_table(write_cp_table(tmp_path, 500))
        fld = WkbField(pot, e1_energy(100.0))
        for seam in pot.breaks:
            lo, hi = seam * (1.0 - 1e-13), seam * (1.0 + 1e-13)
            jump = fld.phi(hi) - fld.phi(lo) - fld.k(seam) * (hi - lo)
            assert abs(jump) < 1e-12, seam
            assert fld.q(hi) == pytest.approx(fld.q(lo), rel=1e-10), seam

    def test_coarse_table_vs_quadrature(self, tmp_path):
        # six knots, 2.1 in ln z apart: the table splits them into panels
        pot = potentials.load_potential_table(write_cp_table(tmp_path, 6))
        for e1 in (1.0, 100.0):
            fld = WkbField(pot, e1_energy(e1))
            for z in (0.1, 1.0, 2.5, 40.0, 800.0, 39000.0, 6e4):
                assert fld.phi(z) == pytest.approx(quadrature_phi(fld, z), rel=0.0, abs=1e-10), z

    @pytest.mark.parametrize("case", ["v3", "v4", "table"])
    def test_arrays_match_scalars(self, tmp_path, case):
        # one call on an array gives what one call per point gives, to
        # rounding (numpy's array loops and its scalar ones round apart): phi
        # on both sides of the peak and on every part of a table, k and Q
        if case == "table":
            fld = WkbField(potentials.load_potential_table(write_cp_table(tmp_path, 500)),
                           e1_energy(100.0))
            zs = np.geomspace(0.2, 2e5, 301)
        else:
            fld = WkbField(HomogeneousPotential(int(case[1]), 0.3), 0.3)
            zs = np.geomspace(1e-3, 1e3, 301)
        for evaluate in (fld.phi, fld.k, fld.q, fld.f_coeff):
            each = np.array([evaluate(float(z)) for z in zs])
            np.testing.assert_allclose(evaluate(zs), each, rtol=1e-14,
                                       atol=1e-15 * np.max(np.abs(each)))
        grid = zs.reshape(7, 43)
        assert fld.phi(grid).shape == grid.shape
        np.testing.assert_array_equal(fld.phi(grid), fld.phi(zs).reshape(grid.shape))

    def test_table_error_gate(self, tmp_path, monkeypatch, capsys):
        # the coarse table passes at the rule's own node count; starved rules
        # cannot resolve its panels, and their estimates read about 18, 0.7
        # and 7e-4 rad
        table = write_cp_table(tmp_path, 6)
        pot = potentials.load_potential_table(table)
        WkbField(pot, e1_energy(100.0)).phi(10.0)
        for nodes in (3, 4, 6):
            monkeypatch.setattr(wkb, "_RULE_NODES", nodes)
            with pytest.raises(RuntimeError, match="phase table error estimate"):
                WkbField(pot, e1_energy(100.0)).phi(10.0)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main(["wall", "--table", str(table), "--energy-e1", "100", "--points", "5"])
            out, err = capsys.readouterr()
            assert code == 2
            assert out == ""
            assert err.splitlines()[-1].startswith("error: phase table error estimate")


    def test_table_error_gate_reads_truncation_not_rounding(self, tmp_path):
        # at E1 x 1e13 and 1e14 phi spans 2e7 and 6e7 rad between the tails,
        # and rounding alone puts about 1e-8 rad into the coefficients that
        # the estimate reads; counted above their floor it stays near 1e-10
        pot = potentials.load_potential_table(write_cp_table(tmp_path))
        for x in (1e13, 1e14):
            phi = WkbField(pot, e1_energy(x)).phi(np.geomspace(1.0, 4e4, 50))
            assert (np.diff(phi) > 0.0).all()


class TestBadlands:
    def test_far_tail_does_not_overflow(self):
        # (1 + x**4)**3 overflows above x ~ 1e25, where Q = 5 x**-6 is a float
        assert WkbField(HomogeneousPotential(4, 1.0), 1.0).q(1e30) == pytest.approx(
            5e-180, rel=1e-14)
        # up to where x**4 overflows, Q underflows to 0, not nan
        assert universal_badlands(1e50, 4) == pytest.approx(5e-300, rel=1e-14)
        assert universal_badlands(1.15e77, 4) == 0.0

    @pytest.mark.parametrize("q_rel", [0.0, 1.0, math.nan])
    def test_cut_out_of_range_rejected(self, q_rel):
        with pytest.raises(ValueError, match=r"q_rel must lie in \(0, 1\)"):
            v4_field(0.3).matching_domain(q_rel)

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
            stencil = [fld.k(z + k * h) ** -0.5 for k in (-3, -2, -1, 0, 1, 2, 3)]
            d2 = (2 * stencil[6] - 27 * stencil[5] + 270 * stencil[4] - 490 * stencil[3]
                  + 270 * stencil[2] - 27 * stencil[1] + 2 * stencil[0]) / (180 * h * h)
            q_amp = -(fld.k(z) ** -0.5) ** 3 * d2
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

    @pytest.mark.parametrize("cut", [1e-6, 1e-10, 1e-13])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_closed_form_cut(self, n, cut):
        # on V_n the far end is zeta_n times a number fixed by (n, cut), and
        # the V_4 cliff end its mirror under x -> 1/x; for n != 4 the cliff end
        # is the threshold start instead, pinned bit for bit by TestCliffWave
        fld = WkbField(HomogeneousPotential(n, 0.7), 0.3)
        zeta = (0.7 / 0.3) ** (1.0 / n)
        x_max = _far_crossing(n, cut * universal_badlands(badlands_peak_x(n), n))
        z_min, z_max = fld.matching_domain(cut)
        assert z_max == zeta * x_max
        assert z_min == (zeta / x_max if n == 4 else (cut * 0.7 / 0.3) ** (1.0 / n))
        if n == 4:
            assert z_min * z_max == pytest.approx(zeta * zeta, rel=5e-16, abs=0.0)

    @pytest.mark.parametrize("cut", [1e-6, 1e-10, 1e-13])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_closed_form_cut_hits_the_ratio(self, n, cut):
        x_star = badlands_peak_x(n)
        peak = universal_badlands(x_star, n)
        x_max = _far_crossing(n, cut * peak)
        assert x_star < x_max
        ends = (1.0 / x_max, x_max) if n == 4 else (x_max,)
        for x in ends:
            assert universal_badlands(x, n) / peak == pytest.approx(cut, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("cut, x_min, x_max", [
        (1e-6, 0.0707115620408034156045374750841, 14.1419588415110922868251670572),
        (1e-10, 0.0152341541997132317316434038134, 65.6419770267799991208880614228),
        (1e-13, 0.00481746242129234406339685837531, 207.578163055340988686862449939),
    ])
    def test_v4_cut_vs_mpmath(self, cut, x_min, x_max):
        # the two roots of 5 x**6/(1 + x**4)**3 = 5/8 cut by 30-digit mpmath
        # findroot: the closed form and its inverse keep them to two ulps,
        # as the brentq search that they replace did
        x = _far_crossing(4, cut * universal_badlands(badlands_peak_x(4), 4))
        assert x == pytest.approx(x_max, rel=4.5e-16, abs=0.0)
        assert 1.0 / x == pytest.approx(x_min, rel=4.5e-16, abs=0.0)

    @pytest.mark.parametrize("kappa_ell", [1e-3, 0.119, 1.0, 10.0])
    def test_v4_cut_against_the_numeric_search(self, kappa_ell):
        # brentq on the numeric Q, as matching_domain searched before: on the
        # cliff, k_q's two terms of about 3 x**2/(kappa zeta)**2 each cancel
        # to Q = 5 x**6/(kappa zeta)**2, so Q keeps a relative error of a few
        # eps/x**4 and z, with Q ~ z**6, about eps/x**4: 4e-9 at x = 0.0152,
        # where up to 7e-10 is seen; on the far side nothing cancels
        fld = v4_field(kappa_ell)   # zeta = 1
        z_min, z_max = fld.matching_domain(1e-10)
        target = 1e-10 * fld.q_peak()[1]

        def numeric(a, b):
            return brentq(lambda z: fld.q(z) - target, a, b, xtol=1e-300, rtol=1e-13)

        eps = np.finfo(float).eps
        assert abs(numeric(z_min / 2.0, 2.0 * z_min) / z_min - 1.0) <= eps / z_min ** 4
        assert numeric(z_max / 2.0, 2.0 * z_max) == pytest.approx(z_max, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("case", ["two-tail", "cp", "table-cli-30", "table-cli-100",
                                      "table-cli-300"])
    def test_peak_search_argmax(self, tmp_path, monkeypatch, case):
        # the search reads Q on its 241-point grid, zeta/300 .. 300 zeta, in
        # its first array call; that call's argmax is the one of Q evaluated
        # point by point from scipy's PPoly and Python floats, and Q_peak is
        # the largest Q that a golden-section search on those point values
        # finds in its bracket; on the test tables and on the benchmark's
        # table-cli table (seed 1) at its three energies, with no warning
        if case == "two-tail":
            pot, energy = two_tail_table(), 0.02
        elif case == "cp":
            pot = potentials.load_potential_table(write_cp_table(tmp_path, 500))
            energy = e1_energy(100.0)
        else:
            pot = table_cli_table(tmp_path)
            energy = e1_energy(float(case.rsplit("-", 1)[1]))
        fld = WkbField(pot, energy)
        q_point = scipy_q(pot, energy)
        grid = np.geomspace(fld.zeta / 300.0, fld.zeta * 300.0, 241)
        imax = int(np.argmax([q_point(float(z)) for z in grid]))
        read = spy_q(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            z_peak, q_peak = fld.q_peak()
        searched, values = read[0]
        np.testing.assert_array_equal(searched, grid)
        assert int(np.argmax(values)) == imax
        assert grid[imax - 1] <= z_peak <= grid[imax + 1]
        z_golden = golden_max(q_point, grid[imax - 1], grid[imax + 1], tol=1e-12 * grid[imax])
        assert q_peak == pytest.approx(q_point(z_golden), rel=1e-13, abs=0.0)

    def test_two_modes_warn(self):
        # the shelf gives Q a second mode beside the one near zeta, at 11%
        # of its height
        with pytest.warns(UserWarning, match="multimodal"):
            z_peak, _ = WkbField(shelf_table(), 0.02).q_peak()
        assert z_peak < 6.0

    def test_table_far_cut_on_the_tail(self, tmp_path):
        # at E1 x 10 and cut 1e-13 the far crossing of the table-cli table
        # lies above 400000 a0, ten times its last node, on the exact
        # -C4/z**4 tail, whose Q is the universal quartic one scaled by zeta_4
        pot = table_cli_table(tmp_path)
        energy = e1_energy(10.0)
        fld = WkbField(pot, energy)
        _, z_max = fld.matching_domain(1e-13)
        target = 1e-13 * fld.q_peak()[1]
        zeta = (pot.tails[1][1] / energy) ** 0.25
        assert z_max > pot.tails[1][2] == 10.0 * pot.z_max
        assert universal_badlands(z_max / zeta, 4) / (energy * zeta ** 2) == pytest.approx(
            target, rel=1e-12, abs=0.0)
        assert fld.q(z_max) == pytest.approx(target, rel=1e-12, abs=0.0)

    def test_table_far_cut_straddling_the_last_node(self, tmp_path, monkeypatch):
        # at E1 x 100 and cut 1e-13 the far law of the table-cli table is
        # still above the cut at the start of its far tail, 400000 a0, ten
        # times its last node: the far end is that law's closed-form
        # crossing, with no search toward the tail, and a search on the tail
        # lands on it
        pot = table_cli_table(tmp_path)
        energy = e1_energy(100.0)
        fld = WkbField(pot, energy)
        target = 1e-13 * fld.q_peak()[1]
        n, c, z_from = pot.tails[1]
        zeta = (c / energy) ** 0.25
        assert zeta * badlands_peak_x(n) < z_from
        assert universal_badlands(z_from / zeta, n) / (energy * zeta ** 2) > target
        outsides = []
        crossing = WkbField._crossing

        def spy(self, inside, outside, target):
            outsides.append(outside)
            return crossing(self, inside, outside, target)

        monkeypatch.setattr(WkbField, "_crossing", spy)
        _, z_max = fld.matching_domain(1e-13)
        assert z_from not in outsides
        assert z_max == pytest.approx(459057.0, rel=1e-3)
        assert fld.q(z_max) == pytest.approx(target, rel=1e-12, abs=0.0)
        assert z_max == pytest.approx(crossing(fld, z_from, 2.0 * z_from, target),
                                      rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("cut", [1e-3, 1e-10])
    def test_table_cut_inside_the_table(self, cut):
        # the two-tail table's far crossing at cut 1e-3 and 1e-10, and its
        # cliff crossing at 1e-3, lie among its knots: Q is searched there
        # until the crossing is pinned within 1e-10 of z
        fld = WkbField(two_tail_table(), 0.02)
        z_min, z_max = fld.matching_domain(cut)
        target = cut * fld.q_peak()[1]
        ends = [(z_max, -1)] + ([(z_min, +1)] if cut == 1e-3 else [])
        for z, inward in ends:
            assert fld.potential.z_min < z < fld.potential.z_max
            assert fld.q(z) <= target < fld.q(z * (1.0 + inward * 1e-10))

    @pytest.mark.filterwarnings("ignore:badlands appears multimodal")
    @pytest.mark.parametrize("cut", [1e-3, 1e-7, 1e-10, 1e-13])
    @pytest.mark.parametrize("case", ["two-tail", "cp", "shelf", "table-cli"])
    def test_table_domain_holds_every_crossing(self, tmp_path, case, cut):
        # beyond each end |Q| stays at or below the cut, on the table's
        # pieces and on its tails, unless the cliff end is a threshold
        # start, where E z**3/C_3 is; at E1 x 1e-12 .. 1e9, and on the tables
        # in reduced units at the kappa*ell of cp there. The end that a
        # search stopped on where Q first came down to the cut left the
        # shelf's dip, and cp's blend to its far tail at E1 x 1e-12, outside
        cp = potentials.load_potential_table(write_cp_table(tmp_path, 500))
        pot, atomic = {"two-tail": (two_tail_table(), False), "cp": (cp, True),
                       "shelf": (shelf_table(), False),
                       "table-cli": (table_cli_table(tmp_path), True)}[case]
        (_, c3, z_top), (_, c4, z_from) = pot.tails
        for power in np.arange(-12.0, 9.1, 1.5):
            energy = e1_energy(10.0 ** power) * (1.0 if atomic else cp.tails[1][1] / c4)
            fld = WkbField(pot, energy)
            z_min, z_max = fld.matching_domain(cut)
            target = cut * fld.q_peak()[1] * (1.0 + 1e-12)
            beyond = [np.geomspace(z_max, 10.0 * max(z_max, z_from), 1000)]
            if z_min > z_top:
                beyond.append(np.geomspace(z_top, z_min, 1000))
            else:
                assert energy * z_min ** 3 / c3 <= cut * (1.0 + 1e-14), power
            for zs in beyond:
                assert np.abs(fld.q(zs)).max() <= target, (power, zs[0])

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


class TestTails:
    """Beyond a table's declared tail edges the field is that tail's law."""

    @pytest.mark.parametrize("case", ["two-tail", "cp"])
    def test_closed_forms_beyond_the_edges(self, tmp_path, case):
        # Q from universal_badlands, k from V and phi from phase_coordinate
        # with the tail's zeta = (C/E)**(1/n), bit for bit, in array and scalar
        # calls; on the cliff tail phi carries what the pieces add on top
        if case == "two-tail":
            pot, energy = two_tail_table(), 0.02
        else:
            pot = potentials.load_potential_table(write_cp_table(tmp_path))
            energy = e1_energy(100.0)
        fld = WkbField(pot, energy)
        (_, _, z_top), (_, _, z_from) = pot.tails
        kappa = math.sqrt(energy)
        for j, zs in ((0, z_top * np.array([1e-6, 1e-3, 0.3, 0.999])),
                      (1, z_from * np.array([1.0, 1.001, 3.0, 1e4]))):
            n, c, _ = pot.tails[j]
            zeta = (c / energy) ** (1.0 / n)
            q = universal_badlands(zs / zeta, n) / (energy * zeta * zeta)
            k_q = fld.k_q(zs)
            assert k_q[1].tolist() == fld.q(zs).tolist() == q.tolist()
            assert [fld.q(z) for z in zs.tolist()] == q.tolist()
            assert k_q[0].tolist() == fld.k(zs).tolist()
            phase = kappa * zeta * phase_coordinate(zs / zeta, n)
            if j == 0:
                phase = fld._phase_table[2] + phase
            assert fld.phi(zs).tolist() == phase.tolist()
            assert [fld.phi(z) for z in zs.tolist()] == phase.tolist()


    @pytest.mark.parametrize("x", [1e-12, 1e-9, 100.0])
    def test_peak_on_the_far_tail_is_the_laws(self, tmp_path, x):
        # on CI's t.pot (the table-cli shape at seed 1) the searched peak lies
        # on the far tail at E1 x 1e-12 and 1e-9, where q_peak is the law's
        # zeta x* and its Q there (the search lands 5e-9 relative off at
        # 1e-12); at E1 x 100 it lies between the tails and is the search's
        pot = potentials.load_potential_table(
            write_cp_table(tmp_path, c3_au=0.24085910610281003, lam_au=517.3716868468616))
        energy = e1_energy(x)
        fld = WkbField(pot, energy)
        n, _, z_from = pot.tails[1]
        zeta = fld.zeta
        z_law = zeta * badlands_peak_x(n)
        found = fld._q_peak_search()
        if x < 1.0:
            assert found[0] >= z_from
            q_law = universal_badlands(z_law / zeta, n) / (energy * zeta * zeta)
            assert fld.q_peak() == (z_law, q_law)
        else:
            assert found[0] < z_from
            assert fld.q_peak() == found


class TestCutBudget:
    """How often ``matching_domain`` reads Q."""

    # on a table: the peak's grid and its 4 rounds; 6 rounds of 128 sections
    # of ln z per crossing take a bracket of up to 190 decades below 1e-10 of z
    TABLE_ARRAY_CALLS = 5 + 2 * 6
    # one matching_domain on the table-cli table at cut 1e-7 after its peak
    # search: the cliff end is the threshold start, as the cliff law is above
    # the cut at its top, and the far end one crossing
    TABLE_CLI_CALLS = 6

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_homogeneous_reads_no_q(self, monkeypatch, n):
        def unread(*args):
            raise AssertionError("Q read on V_n")

        fld = WkbField(HomogeneousPotential(n, 0.7), 0.3)
        monkeypatch.setattr(WkbField, "q", unread)
        for cut in (1e-6, 1e-10, 1e-13):
            fld.matching_domain(cut)

    @pytest.mark.parametrize("case", ["two-tail", "table-cli-30", "table-cli-100",
                                      "table-cli-300", "table-cli-kl1e-4"])
    def test_table_reads_q_in_array_calls(self, tmp_path, monkeypatch, case):
        if case == "two-tail":
            pot, energy = two_tail_table(), 0.02
        else:
            pot = table_cli_table(tmp_path)
            if case == "table-cli-kl1e-4":   # the first energy of scatlength
                energy = 1e-8 / pot.tails[1][1]
            else:
                energy = e1_energy(float(case.rsplit("-", 1)[1]))
        fld = WkbField(pot, energy)
        for cut in (1e-3, 1e-7, 1e-10, 1e-13):
            read = spy_q(monkeypatch)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                fld.matching_domain(cut)
            assert all(np.ndim(z) for z, _ in read), cut
            assert len(read) <= self.TABLE_ARRAY_CALLS, cut

    @pytest.mark.parametrize("e1", [30.0, 100.0, 300.0])
    def test_table_cli_calls(self, tmp_path, monkeypatch, e1):
        fld = WkbField(table_cli_table(tmp_path), e1_energy(e1))
        fld.q_peak()
        read = spy_q(monkeypatch)
        fld.matching_domain(1e-7)
        assert len(read) == self.TABLE_CLI_CALLS


class TestWavePair:
    @pytest.mark.parametrize("case", ["v4", "v3", "two-tail"])
    def test_pair_is_both_waves(self, case):
        # bit for bit the expressions of the waves: k**-1/2 e^(i eta phi) and
        # (-k'/2k + i eta k) times that
        fld = {"v4": v4_field(0.119), "v3": WkbField(HomogeneousPotential(3, 1.0), 1.0),
               "two-tail": WkbField(two_tail_table(), 0.02)}[case]
        for z in (0.001, 0.05, 1.0, 65.6, 5000.0):
            pair = fld.wkb_pair(z)
            k = fld.k(z)
            for (value, derivative), eta in zip(pair, (+1, -1)):
                wave = k ** -0.5 * cmath.exp(1j * eta * fld.phi(z))
                assert value == wave
                assert derivative == (-fld.dk(z) / (2.0 * k) + 1j * eta * k) * wave


def scipy_q(pot, energy: float):
    """Q at a Python float z on a table, from scipy and Python floats: the
    table's pieces between its tails as scipy's PPoly, the tails beyond."""
    knots = pot.log_knots()
    w_poly = PPoly(pot._w[::-1, 1:-1], knots)   # one row per power, lowest first
    polys = (w_poly, w_poly.derivative(), w_poly.derivative(2))

    def q_point(t: float) -> float:
        u = math.log(t)
        if knots[0] <= u < knots[-1]:
            w, w1, w2 = (float(p(u)) for p in polys)
        else:
            n, c, _ = pot.tails[0] if u < knots[0] else pot.tails[1]
            w, w1, w2 = math.log(c) - n * u, -n, 0.0
        mv = math.exp(w)
        v, dv, d2v = -mv, -mv * w1 / t, -mv * (w2 + w1 * w1 - w1) / t ** 2
        k2 = energy - v
        k = math.sqrt(k2)
        dk = -dv / (2.0 * k)
        d2k = (-d2v - 2.0 * dk * dk) / (2.0 * k)
        return 0.5 * d2k / k2 ** 1.5 - 0.75 * dk * dk / (k2 * k2)

    return q_point


def table_cli_table(tmp_path) -> TabulatedPotential:
    """The benchmark's table-cli table at seed 1, written by its own workload."""
    table = load_perfbench("workloads").TableCli(1, tmp_path / "table-cli")
    table.write_inputs()
    return potentials.load_potential_table(table.table)


def spy_q(monkeypatch) -> list:
    """Patch ``WkbField.q`` to record (z, Q) of each call, scalar or array."""
    read = []
    q = WkbField.q

    def spy(self, z):
        out = q(self, z)
        read.append((z, out))
        return out

    monkeypatch.setattr(WkbField, "q", spy)
    return read


def cliff_cases():
    """(field, n, C_n) of a cubic, a quintic and a tabulated cliff."""
    table = two_tail_table()
    return [(WkbField(HomogeneousPotential(3, 1.0), 1.0), 3, 1.0),
            (WkbField(HomogeneousPotential(5, 0.7), 0.3), 5, 0.7),
            (WkbField(table, 0.02), 3, table.tails[0][1])]


class TestCliffWave:
    @pytest.mark.parametrize("case", [0, 1, 2], ids=["n3", "n5", "table"])
    def test_tends_to_the_leftward_wkb_wave(self, case):
        # the WKB wave differs from the exact threshold wave by the first
        # term of the Hankel asymptote, i (4 nu**2 - 1)/(8 x) (DLMF 10.17.5);
        # beyond it both agree to 1e-9 where E z**n/C_n is far below 1e-12
        fld, n, c_n = cliff_cases()[case]
        nu = 1.0 / (n - 2)
        for x in (3e4, 1e5):
            z = (2.0 * nu * math.sqrt(c_n) / x) ** (2.0 / (n - 2))
            assert fld.energy * z ** n / c_n <= 1e-12
            assert fld.on_threshold_tail(z)
            value, derivative = fld.cliff_wave(z)
            w_value, w_derivative = fld.wkb_pair(z)[1]
            first = 1.0 + 1j * (4.0 * nu * nu - 1.0) / (8.0 * x)
            assert abs(value / w_value - first) < 1e-9
            assert abs(derivative / w_derivative - first) < 1e-9
            # and the first term is what sets them apart
            assert abs(value / w_value - 1.0) == pytest.approx(abs(first - 1.0), rel=1e-3)

    @pytest.mark.parametrize("case", [0, 1, 2], ids=["n3", "n5", "table"])
    def test_carries_the_wkb_flux(self, case):
        fld, n, c_n = cliff_cases()[case]
        z_min, _ = fld.matching_domain(1e-10)
        for z in (z_min, 0.1 * z_min, 1e-3 * z_min):
            value, derivative = fld.cliff_wave(z)
            assert (value.conjugate() * derivative).imag == pytest.approx(-1.0, abs=1e-13)

    def test_quartic_keeps_the_wkb_start(self):
        fld = v4_field(0.119)
        z_min, z_max = fld.matching_domain(1e-10)
        _, q_peak = fld.q_peak()
        assert fld.q(z_min) / q_peak == pytest.approx(1e-10, rel=1e-6)
        for z in (z_min, 1e-3 * z_min):
            assert not fld.on_threshold_tail(z)
            assert fld.cliff_wave(z) == fld.wkb_pair(z)[1]

    @pytest.mark.parametrize("n", [3, 5])
    def test_homogeneous_starts_where_e_reaches_the_cut(self, n):
        # for n = 5 the Q cut would sit where Q changes sign, near z = zeta/2
        fld = WkbField(HomogeneousPotential(n, 0.7), 0.3)
        for cut in (1e-6, 1e-10):
            z_min, _ = fld.matching_domain(cut)
            assert z_min == (cut * 0.7 / 0.3) ** (1.0 / n)
            assert fld.on_threshold_tail(z_min)

    def test_table_starts_on_its_tail(self):
        # below the top of the cliff tail, a tenth of the first node, the
        # threshold point (cut 1e-12); capped at that top (1e-10, 1e-6);
        # where the Q cut lies above it, in the blend (1e-4) or among the
        # nodes (1e-3), the WKB wave there
        fld = WkbField(two_tail_table(), 0.02)
        _, c3, z_top = fld.potential.tails[0]
        assert z_top == 0.0004
        z_min, _ = fld.matching_domain(1e-12)
        assert z_min == (1e-12 * c3 / 0.02) ** (1.0 / 3.0) < z_top
        for cut in (1e-10, 1e-6):
            assert fld.matching_domain(cut)[0] == z_top
        _, q_peak = fld.q_peak()
        for cut, z_lo, z_hi in ((1e-4, z_top, 0.004), (1e-3, 0.004, 4000.0)):
            z_min, _ = fld.matching_domain(cut)
            assert z_lo < z_min < z_hi
            assert fld.q(z_min) / q_peak == pytest.approx(cut, rel=1e-6)
            assert not fld.on_threshold_tail(z_min)
            assert fld.cliff_wave(z_min) == fld.wkb_pair(z_min)[1]

    @pytest.mark.parametrize("case", [0, 1, 2], ids=["n3", "n5", "table"])
    def test_residual_is_the_neglected_energy(self, case):
        # the threshold wave neglects E z**n/C_n, not Q: within the cut (up to
        # the rounding of the n-th root), far below Q(z_min)
        fld, n, c_n = cliff_cases()[case]
        for cut in (1e-6, 1e-10):
            z_min, _ = fld.matching_domain(cut)
            residual = fld.cliff_residual(z_min)
            assert residual == fld.energy * z_min ** n / c_n
            assert residual <= cut * (1.0 + 1e-14)
        assert fld.cliff_residual(z_min) < 1e-3 * abs(fld.q(z_min))

    def test_cut_past_the_peak_rejected(self):
        # at cut 0.9 the threshold point of -1/z**3 lies at x = 0.97, past x* = 0.895
        fld = WkbField(HomogeneousPotential(3, 1.0), 1.0)
        assert fld.matching_domain(0.5)[0] < fld.q_peak()[0]
        with pytest.raises(ValueError, match="beyond the badlands peak"):
            fld.matching_domain(0.9)
