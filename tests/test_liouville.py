"""Tests for Liouville maps, the special gauge and the universal walls."""

import math
import os
import subprocess
import sys
from functools import partial

import numpy as np
import pytest
from scipy.integrate import quad

import qreflect
from qreflect.liouville import (
    LiouvilleMap,
    special_gauge,
    transform_f,
    universal_wall,
    wall_integral,
    wall_integral_closed,
)
from qreflect.potentials import HomogeneousPotential, TabulatedPotential
from qreflect.wkb import WkbField, badlands_peak_x, inversion_center, universal_badlands

from helpers import log_map, two_tail_table, v4_field

Z_STAR = 0.8472130847939791
WALL_INTEGRAL_4 = 0.7725311155422383  # 5 Gamma(5/4)^2/(3 sqrt(pi))
WALL_INTEGRAL_3 = 0.9347880702169695
WALL_INTEGRAL_5 = 0.7748481388736765


class TestTransformF:
    def test_log_map_gives_the_mathieu_coefficient(self):
        # -C4/z**4 with ell = 1 at kappa = 0.3, so zeta = 0.3**-0.5: in
        # zt = ln(z/zeta) the coefficient is 2 q cosh(2 zt) - 1/4, q = 0.3
        fld = WkbField(HomogeneousPotential(4, 1.0), 0.09)
        prob = transform_f(log_map(fld.zeta), fld, (0.05, 20.0))
        for z in (0.05, 0.3, 1.0, fld.zeta, 5.0, 20.0):
            zt = math.log(z / fld.zeta)
            assert prob.coefficients(z) == pytest.approx(
                (1.0 / z, 0.6 * math.cosh(2.0 * zt) - 0.25), rel=1e-13, abs=0.0), z

    def test_log_map_on_a_table(self):
        # F_t = (F - {zt, z}/2)/zt'**2 = z**2 F - 1/4 in the log map, on the
        # spline and on both glued tails
        fld = WkbField(two_tail_table(), 0.02)
        prob = transform_f(log_map(2.0), fld, (1e-3, 1e4))
        for z in (1e-3, 0.1, 3.0, 100.0, 1e4):
            assert prob.coefficients(z)[1] == pytest.approx(
                z * z * fld.f_coeff(z) - 0.25, rel=1e-13, abs=0.0), z

    def test_inversion_exchanges_ends_keeping_quartic_form(self):
        kl = 0.3
        fld = v4_field(kl)
        kap2 = kl  # kappa^2 = ell^2 = kl in these units
        # zt = -zeta**2/z with zeta = 1: a homography, so its Schwarzian vanishes
        inversion = LiouvilleMap(lambda z: -1.0 / z, lambda z: 1.0 / z ** 2, lambda z: 0.0,
                                 lambda z: -2.0 / z ** 3)
        prob = transform_f(inversion, fld, (0.05, 20.0))
        for z in (0.1, 0.7, 2.0, 15.0):
            zt = -1.0 / z
            assert prob.coefficients(z)[1] == pytest.approx(kap2 + kl / zt ** 4, rel=1e-12)

    def test_wall_quantities_need_the_wall_gauge(self):
        # a problem from transform_f has no vk: each wall quantity raises
        # ValueError, not a TypeError from None * None
        prob = transform_f(log_map(1.0), v4_field(0.3), (0.1, 10.0))
        for read in (lambda: prob.e_bold, lambda: prob.v_bold(1.0), prob.probe,
                     lambda: wall_integral(prob)):
            with pytest.raises(ValueError, match="wall-form problem"):
                read()

    def test_monotonicity_enforced(self):
        fld = v4_field(0.3)
        decreasing = LiouvilleMap(lambda z: -z, lambda z: -1.0, lambda z: 0.0, lambda z: 0.0)
        with pytest.raises(ValueError, match="map must be strictly increasing"):
            transform_f(decreasing, fld, (0.1, 1.0))
        with pytest.raises(ValueError, match="domain must be an increasing interval"):
            transform_f(log_map(1.0), fld, (1.0, 0.1))


class TestCarry:
    def test_uncarry_inverts_carry(self):
        fld = v4_field(0.3)
        mapping, prob = special_gauge(fld)
        for z in (0.2, 1.0, 5.0):
            wave = fld.wkb_pair(z)[1]
            back = prob.uncarry(z, prob.carry(z, wave))
            assert back == pytest.approx(wave, rel=1e-14)

    def test_wkb_wave_carries_to_a_plane_wave(self):
        # on the wall, sqrt(zt') alpha e^(-i phi) is exp(-i vk zt)/sqrt(vk)
        fld = v4_field(0.3)
        mapping, prob = special_gauge(fld)
        vk = prob.vk
        for z in (0.05, 1.0, 20.0):
            value, derivative = prob.carry(z, fld.wkb_pair(z)[1])
            zt = mapping.forward(z)
            plane = vk ** -0.5 * complex(math.cos(vk * zt), -math.sin(vk * zt))
            assert value == pytest.approx(plane, rel=1e-12)
            assert derivative == pytest.approx(-1j * vk * plane, rel=1e-12)


def fixed_partition(fld: WkbField, domain) -> np.ndarray:
    """Points across ``domain`` that stay where they are whatever the
    integrator's panels: its ends and the breaks inside, between them gaps
    at most a factor 2 apart in z, each cut evenly in z into pieces of about
    12 rad of phase or less."""
    z_min, z_max = domain
    count = math.ceil(math.log(z_max / z_min) / math.log(2.0))
    coarse = z_min * (z_max / z_min) ** (np.arange(count + 1) / count)
    coarse[-1] = z_max
    breaks = fld.potential.breaks
    coarse = np.union1d(coarse, breaks[(breaks > z_min) & (breaks < z_max)])
    parts = np.maximum(np.ceil(np.diff(fld.phi(coarse)) / 12.0), 1.0).astype(int)
    pieces = map(partial(np.linspace, endpoint=False), coarse[:-1], coarse[1:], parts)
    return np.concatenate([*pieces, [z_max]])


class TestSpecialGauge:
    def test_wall_equals_scaled_badlands(self):
        fld = v4_field(0.3)
        _, prob = special_gauge(fld)
        vk2 = prob.e_bold
        assert vk2 == pytest.approx(0.3, rel=1e-12)
        for z in (0.3, 1.0, 3.0):
            assert prob.v_bold(z) == pytest.approx(vk2 * fld.q(z), rel=1e-13)

    @pytest.mark.parametrize("case", ["v4-1e-3", "v4-1", "v4-10", "v3", "two-tail-0.02",
                                      "two-tail-0.2"])
    def test_wall_is_the_papers_wall(self, case):
        # F_t = vk**2 (1 - Q) from the one formula (F - {zt, z}/2)/zt'**2,
        # to rounding, at every end and midpoint of ``fixed_partition``: the
        # tails, a table's blends and breaks and the matching ends
        if case.startswith("v4"):
            fld = v4_field(float(case[3:]))
        elif case == "v3":
            fld = WkbField(HomogeneousPotential(3, 0.9), 0.4)
        else:
            fld = WkbField(two_tail_table(), float(case.rsplit("-", 1)[1]))
        _, prob = special_gauge(fld)
        ends = fixed_partition(fld, prob.domain)
        zs = np.concatenate([ends, 0.5 * (ends[:-1] + ends[1:])])
        one_less_q = 1.0 - fld.q(zs)
        _, f = prob.coefficients(zs)
        assert (np.abs(f / prob.e_bold - one_less_q) <= 1e-14 * np.abs(one_less_q)).all()

    def test_map_is_scaled_phase(self):
        fld = v4_field(0.3)
        mapping, _ = special_gauge(fld)
        vk = math.sqrt(0.3)
        for z in (0.5, 2.0):
            assert mapping.forward(z) == pytest.approx(fld.phi(z) / vk, rel=1e-12)

    def test_quartic_scale_collapses_onto_universal_wall(self):
        # with the sqrt(kappa ell) scale the wall height vk^2 Q(z) and the
        # wall coordinate phi/vk reproduce the universal shape at any energy
        for kl in (0.05, 0.7):
            fld = v4_field(kl)
            mapping, prob = special_gauge(fld)
            for u in (-1.0, 0.0, 0.8):
                z = math.exp(u)  # zeta = 1
                zb_ref, vb_ref = universal_wall(z, 4)
                assert prob.v_bold(z) == pytest.approx(vb_ref, rel=1e-11)
                assert mapping.forward(z) == pytest.approx(zb_ref, rel=1e-10)

    def test_homogeneous_scale_for_cubic(self):
        energy, c3 = 0.4, 0.9
        fld = WkbField(HomogeneousPotential(3, c3), energy)
        _, prob = special_gauge(fld)
        zeta3 = (c3 / energy) ** (1.0 / 3.0)
        assert prob.e_bold == pytest.approx((math.sqrt(energy) * zeta3) ** 2, rel=1e-12)
        x = 1.3
        assert prob.v_bold(x * zeta3) == pytest.approx(universal_badlands(x, 3), rel=1e-10)


class TestUniversalWalls:
    def test_center_point(self):
        zb, vb = universal_wall(1.0, 4)
        assert vb == 5.0 / 8.0
        assert zb == pytest.approx(Z_STAR, rel=1e-12)
        assert inversion_center() == pytest.approx(Z_STAR, rel=1e-15)

    def test_symmetry_in_u(self):
        # u = ln x -> -u is x -> 1/x, exact for a power of two
        for x in (2.0, 4.0, 8.0):
            zb_p, vb_p = universal_wall(x, 4)
            zb_m, vb_m = universal_wall(1.0 / x, 4)
            assert vb_p == vb_m
            assert zb_p + zb_m == pytest.approx(2.0 * Z_STAR, rel=1e-11)

    def test_symmetry_in_wall_coordinate(self):
        # mirrored about z*: the points x and 1/x lie at z* -+ d and share
        # one height, for x that 1/x does not give exactly
        for x in (0.3, 0.07, 0.021):
            zb_m, vb_m = universal_wall(x, 4)
            zb_p, vb_p = universal_wall(1.0 / x, 4)
            assert abs(zb_m + zb_p - 2.0 * inversion_center()) < 1e-10
            assert abs(vb_m - vb_p) < 1e-10

    def test_coordinate_against_quadrature(self):
        # an oracle of its own: universal_wall and the gauge map share
        # phase_coordinate, so this is z* + int_0^u sqrt(2 cosh 2t) dt by quad
        for u in (-3.0, -1.2, -0.3, 0.4, 1.0, 2.5):
            seg, _ = quad(lambda t: math.sqrt(2.0 * math.cosh(2.0 * t)), 0.0, u,
                          epsabs=1e-13, epsrel=1e-13, limit=200)
            assert universal_wall(math.exp(u), 4)[0] == pytest.approx(Z_STAR + seg, rel=1e-12,
                                                                    abs=1e-12), u

    def test_consistency_with_parametric_form(self):
        # in u = ln x the quartic wall is 5/(8 cosh(2u)**3)
        for u in (-1.2, 0.4, 2.0):
            vb = universal_wall(math.exp(u), 4)[1]
            assert vb == pytest.approx(5.0 / (8.0 * math.cosh(2.0 * u) ** 3), rel=1e-11)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_peak_location(self, n):
        x_star = badlands_peak_x(n)
        xs = np.linspace(x_star * 0.97, x_star * 1.03, 41)
        vals = [universal_badlands(float(x), n) for x in xs]
        assert max(vals) <= universal_badlands(x_star, n) + 1e-14


class TestWallIntegral:
    def test_quartic_value(self):
        fld = v4_field(0.3)
        _, prob = special_gauge(fld)
        assert wall_integral(prob) == pytest.approx(WALL_INTEGRAL_4, rel=1e-9)
        assert wall_integral_closed(4) == pytest.approx(WALL_INTEGRAL_4, rel=1e-12)

    @pytest.mark.parametrize("n,frozen", [(3, WALL_INTEGRAL_3), (5, WALL_INTEGRAL_5)])
    def test_closed_form_vs_quadrature(self, n, frozen):
        # independent quadrature over the parametric universal wall
        value, _ = quad(lambda x: universal_badlands(x, n) * math.sqrt(1.0 + x ** float(-n)),
                        0.0, np.inf, epsabs=1e-12, epsrel=1e-11, limit=400)
        assert wall_integral_closed(n) == pytest.approx(value, rel=1e-9)
        assert wall_integral_closed(n) == pytest.approx(frozen, rel=1e-12)

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_homogeneous_closed_forms(self, n):
        # the integral runs out to where the tails have fallen by e**-40,
        # on panels that resolve the steeper walls of larger n
        _, prob = special_gauge(WkbField(HomogeneousPotential(n, 0.3), 0.3))
        assert wall_integral(prob) == pytest.approx(wall_integral_closed(n), rel=1e-14)

    def test_table_matches_quadrature_per_knot_interval(self):
        # Q is smooth between the knots of a table and continuous across
        # them: the panels cross the knots, and the integral matches quad run
        # on each knot interval, on each blend and on the tails
        lam, c3 = 3.0, 0.6
        z = np.geomspace(0.01, 1000.0, 120)
        fld = WkbField(TabulatedPotential(z, -c3 / (z ** 3 * (1.0 + z / lam)),
                                          cliff_c3=c3, far_c4=c3 * lam), 0.05)
        _, prob = special_gauge(fld)
        z_peak, _ = fld.q_peak()
        knots = np.exp(fld.potential.log_knots())   # the spline's knots and the blend ends
        edges = np.log([z_peak * 1e-40, *knots, z_peak * 1e6])
        total = sum(quad(lambda u: float(fld.q(math.exp(u)) * fld.k(math.exp(u))) * math.exp(u),
                         a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                    for a, b in zip(edges[:-1], edges[1:]))
        assert wall_integral(prob) == pytest.approx(prob.vk * total, rel=1e-13)

    def test_positivity_and_energy_independence(self):
        for kl in (0.05, 1.5):
            _, prob = special_gauge(v4_field(kl))
            value = wall_integral(prob)
            assert value > 0.0
            assert value == pytest.approx(WALL_INTEGRAL_4, rel=1e-8)

    def test_wall_sign_diagnostics(self):
        _, prob = special_gauge(v4_field(0.3))
        _, vb = prob.probe(600)
        assert vb.min() >= 0.0


def test_package_import_leaves_out_scipy_integrate():
    # every quadrature of the package is closed form or its own
    # Chebyshev rule: importing it does not load scipy's integrators
    code = "import sys, qreflect; print('scipy.integrate' in sys.modules)"
    src = os.path.dirname(os.path.dirname(qreflect.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "False"
