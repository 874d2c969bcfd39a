"""Tests for the WKB field: wavevector, phase convention, badlands function."""

import cmath
import importlib.util
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad
from scipy.optimize import brentq

from qreflect import potentials, wkb
from qreflect.cli import main
from qreflect.potentials import HomogeneousPotential, TabulatedPotential, _log_log_spline
from qreflect.wkb import (
    WkbField,
    _badlands_cut,
    _quartic_far_crossing,
    badlands_peak_x,
    phase_coordinate,
    universal_badlands,
)

Z_STAR = 0.8472130847939791

# phase_coordinate(x, n) by 30-digit mpmath quadrature of x - int_x^inf
# (sqrt(1 + t**-n) - 1) dt, at the doubles nearest these x
MP_X = (1e-11, 1e-8, 1e-4, 0.3, 1.19, 1.21)
MP_PHASE = {
    3: (-6.32452944924116655741981996592e+5, -1.99974128904407700002394361837e+4,
        -1.97412890440750204672872884859e+2, -1.05454513967060558380142624778,
        1.02239039687411927525486828627, 1.04752024395761269401725703953),
    4: (-9.99999999983055798807151136328e+10, -9.99999983055738283197857437742e+7,
        -9.99830557383041139594276009649e+3, -1.63441105907454820053672769175,
        1.09569427463415263323960631954, 1.12004463563197765653766843756),
    5: (-2.10818510677891960388950926988e+16, -6.66666666665245607722386393725e+11,
        -6.66665245628644899300688868115e+5, -2.63405399186596462715799047647,
        1.13023928760610045996552049428, 1.15392050770222349451404411578),
    6: (-5.00000000000000060502901362582e+21, -4.99999999999999849721961208382e+15,
        -4.99999987064452155929311176373e+7, -4.26098834973510114371977768425,
        1.14960697444991968481895801959, 1.17271578919863322625170702778),
    8: (-3.33333333333333393836364051394e+32, -3.33333333333333312410771327338e+23,
        -3.33333333332157418900288986414e+11, -1.11695695025703290766737852957e+1,
        1.16943154379941013190310098052, 1.19163735966984760506039668478),
}


def write_table(tmp_path, nodes, lam_au=500.0, c3_au=0.25):
    """-c3/(z^3 (1 + z/lam)) on 1 .. 40000 a0, as tests/test_cli.py writes it."""
    z = np.geomspace(1.0, 40000.0, nodes)
    v = -c3_au / (z ** 3 * (1.0 + z / lam_au))
    table = tmp_path / f"cp{nodes}.pot"
    lines = [f"# C3={c3_au} C4={c3_au * lam_au}"]
    lines += [f"{a:.10e} {b:.10e}" for a, b in zip(z, v)]
    table.write_text("\n".join(lines) + "\n")
    return table


def e1_energy(x: float) -> float:
    """Reduced energy of x E1 for hydrogen, as the CLI's --energy-e1 sets it."""
    mass = potentials.M_HYDROGEN
    kappa = potentials.kappa_si(x * potentials.e1_unit(mass), mass) * potentials.BOHR_RADIUS
    return kappa * kappa


def quadrature_phi(fld: WkbField, z: float) -> float:
    """Tabulated phi by adaptive quadrature, as the package computed it before
    its phase table: quad per log unit of z up to max(50 zeta, z_max), under
    the quartic closed form there.
    """
    pot = fld.potential
    zeta = (pot.far_c4_matched / fld.energy) ** 0.25
    anchor = max(50.0 * zeta, pot.z_max)
    phi_anchor = fld.kappa * zeta * phase_coordinate(anchor / zeta, 4)
    if z >= anchor:
        return fld.kappa * zeta * phase_coordinate(z / zeta, 4)
    s_lo, s_hi = math.log(z), math.log(anchor)
    edges = {s_lo, s_hi}
    edges.update(s for s in (math.log(pot.z_min), math.log(pot.z_max)) if s_lo < s < s_hi)
    edges.update(float(s) for s in np.arange(math.ceil(s_lo), s_hi, 1.0))
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

    @pytest.mark.parametrize("n", sorted(MP_PHASE))
    def test_closed_form_vs_mpmath(self, n):
        # both sides of the switch at x = 1.2, down to deep in the cliff
        for x, ref in zip(MP_X, MP_PHASE[n]):
            assert phase_coordinate(x, n) == pytest.approx(ref, rel=1e-14, abs=0.0), x

    @pytest.mark.parametrize("e1", [1.0, 100.0, 1000.0])
    def test_tabulated_table_vs_quadrature(self, tmp_path, e1):
        # below, inside and above the 500-node table on 1 .. 40000 a0
        pot = potentials.load_potential_table(write_table(tmp_path, 500))
        fld = WkbField(pot, e1_energy(e1))
        for z in (1e-3, 0.3, 1.0, 1.7, 30.0, 2000.0, 39999.0, 4e4, 1.3e5):
            assert fld.phi(z) == pytest.approx(quadrature_phi(fld, z), rel=0.0, abs=1e-10), z

    def test_tabulated_continuous_across_seams(self, tmp_path):
        pot = potentials.load_potential_table(write_table(tmp_path, 500))
        fld = WkbField(pot, e1_energy(100.0))
        for seam in (pot.z_min, pot.z_max):
            lo, hi = seam * (1.0 - 1e-13), seam * (1.0 + 1e-13)
            jump = fld.phi(hi) - fld.phi(lo) - fld.k(seam) * (hi - lo)
            assert abs(jump) < 1e-12, seam

    def test_coarse_table_vs_quadrature(self, tmp_path):
        # six knots, 2.1 in ln z apart: the table splits them into panels
        pot = potentials.load_potential_table(write_table(tmp_path, 6))
        for e1 in (1.0, 100.0):
            fld = WkbField(pot, e1_energy(e1))
            for z in (0.1, 1.0, 2.5, 40.0, 800.0, 39000.0, 6e4):
                assert fld.phi(z) == pytest.approx(quadrature_phi(fld, z), rel=0.0, abs=1e-10), z

    @pytest.mark.parametrize("case", ["v3", "v4", "table"])
    def test_arrays_match_scalars(self, tmp_path, case):
        # one call on an array gives what one call per point gives, to
        # rounding (numpy's array loops and its scalar ones round apart): phi
        # on both sides of x = 1.2 and on every part of a table, k and Q
        if case == "table":
            fld = WkbField(potentials.load_potential_table(write_table(tmp_path, 500)),
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
        # 2- and 3-point rules cannot resolve the coarse table's panels
        monkeypatch.setattr(wkb, "_PHASE_RULES", (2, 3))
        table = write_table(tmp_path, 6)
        fld = WkbField(potentials.load_potential_table(table), e1_energy(100.0))
        with pytest.raises(RuntimeError, match="phase table error estimate"):
            fld.phi(10.0)
        # the 6-node table's badlands has two modes
        with pytest.warns(UserWarning, match="multimodal"):
            code = main(["wall", "--table", str(table), "--energy-e1", "100", "--points", "5"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.splitlines()[-1].startswith("error: phase table error estimate")


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
        # on V_n the cut is zeta_n times two numbers fixed by (n, cut); for
        # n != 4 the cliff end is the threshold start instead, pinned bit for
        # bit by TestCliffWave
        fld = WkbField(HomogeneousPotential(n, 0.7), 0.3)
        zeta = (0.7 / 0.3) ** (1.0 / n)
        x_min, x_max = _badlands_cut(n, cut)
        z_min, z_max = fld.matching_domain(cut)
        assert z_max == zeta * x_max
        assert z_min == (zeta * x_min if n == 4 else (cut * 0.7 / 0.3) ** (1.0 / n))

    @pytest.mark.parametrize("cut", [1e-6, 1e-10, 1e-13])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_closed_form_cut_hits_the_ratio(self, n, cut):
        # for n = 5 the cliff crossing lies just above x**5 = 1/24, where the
        # universal badlands changes sign and its formula keeps only about
        # 1e-16/cut of its digits there; that end is never a start (see above)
        x_star = badlands_peak_x(n)
        peak = universal_badlands(x_star, n)
        x_min, x_max = _badlands_cut(n, cut)
        assert x_min < x_star < x_max
        ends = (x_max,) if n == 5 else (x_min, x_max)
        for x in ends:
            assert universal_badlands(x, n) / peak == pytest.approx(cut, rel=1e-12, abs=0.0)
        if n == 4:   # the algebraic root that a table's quartic tail takes
            assert _quartic_far_crossing(cut * peak) == pytest.approx(x_max, rel=1e-15, abs=0.0)

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

    @pytest.mark.parametrize("cut", [1e-6, 1e-10, 1e-13])
    @pytest.mark.parametrize("case", ["v4", "v3", "v5", "two-tail"])
    def test_walks_match_the_scalar_walk(self, case, cut):
        # matching_domain's brackets come from doubling walks that read Q in
        # array calls; they stop on the very point that halving or doubling
        # one step at a time stops on. The table's cliff walk runs past the
        # first call of 8 points
        fld = {"v4": v4_field(0.7), "v3": WkbField(HomogeneousPotential(3, 1.0), 1.0),
               "v5": WkbField(HomogeneousPotential(5, 0.7), 0.3),
               "two-tail": WkbField(two_tail_table(), 0.02)}[case]
        z_peak, q_peak = fld.q_peak()
        target = cut * q_peak
        for way in (-1, +1):
            z, steps = z_peak, 0
            while fld.q(z) > target:
                z, steps = (z / 2.0 if way < 0 else z * 2.0), steps + 1
            assert fld._walk(z_peak, way, target) == z
            if case == "two-tail" and way < 0:
                assert steps >= 8

    @pytest.mark.parametrize("case", ["two-tail", "cp", "table-cli-30", "table-cli-100",
                                      "table-cli-300"])
    def test_peak_search_argmax(self, tmp_path, monkeypatch, case):
        # the search reads Q on its 241-point grid, zeta/300 .. 300 zeta, in
        # its first array call; that call's argmax is the one of Q evaluated
        # point by point from scipy's PPoly and Python floats, and Q_peak is
        # the largest Q that a golden-section search on those point values
        # finds in its bracket; on the test tables and on the benchmark's
        # table-cli table (seed 1) at its three energies
        if case == "two-tail":
            pot, energy = two_tail_table(), 0.02
        elif case == "cp":
            pot = potentials.load_potential_table(write_table(tmp_path, 500))
            energy = e1_energy(100.0)
        else:
            pot = table_cli_table(tmp_path)
            energy = e1_energy(float(case.rsplit("-", 1)[1]))
        fld = WkbField(pot, energy)
        spline = _log_log_spline(pot._z, pot._v)
        pieces = (spline, spline.derivative(), spline.derivative(2))

        def q_point(z: float) -> float:
            if pot.z_min <= z <= pot.z_max:
                w, w1, w2 = (float(p(math.log(z))) for p in pieces)
                mv = math.exp(w)
                v, dv, d2v = -mv, -mv * w1 / z, -mv * (w2 + w1 * w1 - w1) / z ** 2
            else:
                n, c = (3, pot.cliff_c3_matched) if z < pot.z_min else (4, pot.far_c4_matched)
                v, dv, d2v = -c / z ** n, n * c / z ** (n + 1), -n * (n + 1) * c / z ** (n + 2)
            k2 = energy - v
            k = math.sqrt(k2)
            dk = -dv / (2.0 * k)
            d2k = (-d2v - 2.0 * dk * dk) / (2.0 * k)
            return 0.5 * d2k / k2 ** 1.5 - 0.75 * dk * dk / (k2 * k2)

        zeta = (pot.tail_far()[1] / energy) ** 0.25
        grid = np.geomspace(zeta / 300.0, zeta * 300.0, 241)
        imax = int(np.argmax([q_point(float(z)) for z in grid]))
        read = spy_q(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")   # the multimodal warning of a coarse table
            z_peak, q_peak = fld.q_peak()
        searched, values = read[0]
        np.testing.assert_array_equal(searched, grid)
        assert int(np.argmax(values)) == imax
        assert grid[imax - 1] <= z_peak <= grid[imax + 1]
        z_golden = golden_max(q_point, grid[imax - 1], grid[imax + 1], tol=1e-12 * grid[imax])
        assert q_peak == pytest.approx(q_point(z_golden), rel=1e-13, abs=0.0)

    def test_table_far_cut_on_the_tail(self, tmp_path):
        # at E1 x 30 and cut 1e-7 the far crossing of the table-cli table lies
        # above its last node, 40000 a0, on the exact -C4m/z**4 tail, whose Q
        # is the universal quartic one scaled by zeta_4
        pot = table_cli_table(tmp_path)
        energy = e1_energy(30.0)
        fld = WkbField(pot, energy)
        _, z_max = fld.matching_domain(1e-7)
        target = 1e-7 * fld.q_peak()[1]
        zeta = (pot.far_c4_matched / energy) ** 0.25
        assert z_max > pot.z_max
        assert universal_badlands(z_max / zeta, 4) / (energy * zeta ** 2) == pytest.approx(
            target, rel=1e-12, abs=0.0)
        assert fld.q(z_max) == pytest.approx(target, rel=1e-12, abs=0.0)

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


class TestCutBudget:
    """How often ``matching_domain`` reads Q."""

    # on a table: the peak's grid and its 4 rounds; 3 calls (56 doublings)
    # per walk reach the cut of every case below; 5 rounds of 128 sections
    # per crossing take a factor-2 bracket below 1e-10 of z
    TABLE_ARRAY_CALLS = 5 + 2 * 3 + 2 * 5

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_homogeneous_reads_no_q(self, monkeypatch, n):
        def unread(*args):
            raise AssertionError("Q read on V_n")

        fld = WkbField(HomogeneousPotential(n, 0.7), 0.3)
        monkeypatch.setattr(WkbField, "q", unread)
        monkeypatch.setattr(HomogeneousPotential, "derivs", unread)
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
                energy = 1e-8 / pot.far_c4_matched
            else:
                energy = e1_energy(float(case.rsplit("-", 1)[1]))
        fld = WkbField(pot, energy)
        for cut in (1e-3, 1e-7, 1e-10, 1e-13):
            read = spy_q(monkeypatch)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")   # the multimodal warning at small energies
                fld.matching_domain(cut)
            assert all(np.ndim(z) for z, _ in read), cut
            assert len(read) <= self.TABLE_ARRAY_CALLS, cut


class TestWavePair:
    @pytest.mark.parametrize("case", ["v4", "v3", "two-tail"])
    def test_pair_is_both_waves(self, case):
        # bit for bit the waves of wkb_wave, and the expressions it had
        # before it read the pair: k**-1/2 e^(i eta phi), (-k'/2k + i eta k) times that
        fld = {"v4": v4_field(0.119), "v3": WkbField(HomogeneousPotential(3, 1.0), 1.0),
               "two-tail": WkbField(two_tail_table(), 0.02)}[case]
        for z in (0.001, 0.05, 1.0, 65.6, 5000.0):
            pair = fld.wkb_pair(z)
            assert pair == (fld.wkb_wave(z, +1), fld.wkb_wave(z, -1))
            k = fld.k(z)
            for (value, derivative), eta in zip(pair, (+1, -1)):
                wave = k ** -0.5 * cmath.exp(1j * eta * fld.phi(z))
                assert value == wave
                assert derivative == (-fld.dk(z) / (2.0 * k) + 1j * eta * k) * wave


def table_cli_table(tmp_path) -> TabulatedPotential:
    """The benchmark's table-cli table at seed 1, written by its own workload."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    table = workloads.TableCli(1, tmp_path / "table-cli")
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


def two_tail_table() -> TabulatedPotential:
    lam, c3 = 3.0, 0.6
    z = np.geomspace(0.004, 4000.0, 700)
    return TabulatedPotential(z, -c3 / (z ** 3 * (1.0 + z / lam)), cliff_c3=c3, far_c4=c3 * lam)


def cliff_cases():
    """(field, n, C_n) of a cubic, a quintic and a tabulated cliff."""
    table = two_tail_table()
    return [(WkbField(HomogeneousPotential(3, 1.0), 1.0), 3, 1.0),
            (WkbField(HomogeneousPotential(5, 0.7), 0.3), 5, 0.7),
            (WkbField(table, 0.02), 3, table.cliff_c3_matched)]


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
            w_value, w_derivative = fld.wkb_wave(z, -1)
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
            assert fld.cliff_wave(z) == fld.wkb_wave(z, -1)

    @pytest.mark.parametrize("n", [3, 5])
    def test_homogeneous_starts_where_e_reaches_the_cut(self, n):
        # for n = 5 the Q cut would sit where Q changes sign, near z = zeta/2
        fld = WkbField(HomogeneousPotential(n, 0.7), 0.3)
        for cut in (1e-6, 1e-10):
            z_min, _ = fld.matching_domain(cut)
            assert z_min == (cut * 0.7 / 0.3) ** (1.0 / n)
            assert fld.on_threshold_tail(z_min)

    def test_table_starts_on_its_tail(self):
        # below the first node the threshold point (cut 1e-10); capped at the
        # first node (1e-6, 1e-4); where the Q cut lies inside the table, the
        # WKB wave there (1e-3)
        fld = WkbField(two_tail_table(), 0.02)
        c3 = fld.potential.cliff_c3_matched
        z_min, _ = fld.matching_domain(1e-10)
        assert z_min == (1e-10 * c3 / 0.02) ** (1.0 / 3.0) < 0.004
        for cut in (1e-6, 1e-4):
            assert fld.matching_domain(cut)[0] == 0.004
        z_min, _ = fld.matching_domain(1e-3)
        _, q_peak = fld.q_peak()
        assert z_min > 0.004
        assert fld.q(z_min) / q_peak == pytest.approx(1e-3, rel=1e-6)
        assert not fld.on_threshold_tail(z_min)
        assert fld.cliff_wave(z_min) == fld.wkb_wave(z_min, -1)

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
