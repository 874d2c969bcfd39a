"""Tests for potential models, tabulated ingestion and unit conversions."""

import math

import numpy as np
import pytest

from qreflect.potentials import (
    AIRY_LAMBDA1,
    BOHR_RADIUS,
    G_STANDARD,
    HBAR,
    M_HYDROGEN,
    HomogeneousPotential,
    TabulatedPotential,
    e1_unit,
    kappa_si,
    load_potential_table,
)
from qreflect.potentials import _log_log_spline
from qreflect.wkb import WkbField

from helpers import two_tail_table


def cp_like(c3: float, lam: float):
    """Smooth Casimir-Polder-like model -c3/(z^3 (1 + z/lam)); C4 = c3*lam."""
    return lambda z: -c3 / (z ** 3 * (1.0 + z / lam))


class TestHomogeneous:
    def test_direct_values(self):
        assert HomogeneousPotential(4, 1.0).value(1.0) == -1.0
        assert HomogeneousPotential(3, 2.0).value(2.0) == -0.25

    def test_domain_error(self):
        # nan too, alone or in an array: every comparison with it is false
        for z in (0.0, -2.0, np.array([1.0, 0.0]), math.nan, np.array([1.0, math.nan])):
            with pytest.raises(ValueError, match="z > 0"):
                HomogeneousPotential(4, 1.0).value(z)

    def test_validation(self):
        with pytest.raises(ValueError):
            HomogeneousPotential(2, 1.0)
        with pytest.raises(ValueError):
            HomogeneousPotential(4, -1.0)

    @pytest.mark.parametrize("c_n", [math.nan, math.inf])
    def test_non_finite_strength_rejected(self, c_n):
        with pytest.raises(ValueError, match="finite and positive"):
            HomogeneousPotential(4, c_n)

    def test_monotone_attraction(self):
        pot = HomogeneousPotential(5, 0.7)
        zs = np.geomspace(0.01, 100.0, 64)
        vals = [pot.value(float(z)) for z in zs]
        assert all(v < 0.0 for v in vals)
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_derivatives_match_finite_differences(self):
        pot = HomogeneousPotential(4, 0.8)
        h = 1e-5
        for z in (0.3, 1.0, 7.0):
            fd1 = (pot.value(z + h) - pot.value(z - h)) / (2 * h)
            assert pot.dvalue(z) == pytest.approx(fd1, rel=1e-8)


class TestTabulated:
    def build(self, c3=1.3, lam=2.0, n=120):
        model = cp_like(c3, lam)
        z = np.geomspace(0.05, 200.0, n)
        v = np.array([model(float(t)) for t in z])
        return TabulatedPotential(z, v, cliff_c3=c3, far_c4=c3 * lam), model

    def test_domain_error(self):
        pot, _ = self.build()
        for z in (0.0, -2.0, np.array([1.0, 0.0]), math.nan, np.array([1.0, math.nan])):
            for evaluate in (pot.value, pot.derivs):
                with pytest.raises(ValueError, match="z > 0"):
                    evaluate(z)

    def test_nodes_exact(self):
        pot, model = self.build()
        for z in (pot.breaks[3], pot.breaks[60], pot.breaks[-2]):
            assert pot.value(float(z)) == pytest.approx(model(float(z)), rel=1e-13)

    def test_between_nodes_close(self):
        pot, model = self.build()
        for z in (0.31, 1.7, 23.0):
            assert pot.value(z) == pytest.approx(model(z), rel=1e-5)

    def test_tails_used_outside(self):
        pot, _ = self.build(c3=1.3, lam=2.0)
        # boundary-matched power laws: exact -C/z^n shape with the strength
        # pinned by the table's end values, close to the declared tails
        (_, c3m, _), (_, c4m, _) = pot.tails
        assert pot.value(0.01) == pytest.approx(-c3m / 0.01 ** 3, rel=1e-12)
        assert pot.value(500.0) == pytest.approx(-c4m / 500.0 ** 4, rel=1e-12)
        assert c3m == pytest.approx(1.3, rel=0.05)
        assert c4m == pytest.approx(2.6, rel=0.05)

    @pytest.mark.parametrize("pot", [HomogeneousPotential(3, 0.7), HomogeneousPotential(4, 1.3),
                                     HomogeneousPotential(5, 0.7), two_tail_table()],
                             ids=["v3", "v4", "v5", "two-tail"])
    def test_tails_hold_beyond_their_bounds(self, pot):
        # V = -C/z**n at and below the first tail's z_top, and at and above
        # the second's z_from; on V_n both are V_n at every z
        (n_lo, c_lo, z_top), (n_hi, c_hi, z_from) = pot.tails
        for n, c, zs in ((n_lo, c_lo, min(z_top, 1.0) * np.array([1.0, 0.5, 1e-3])),
                         (n_hi, c_hi, max(z_from, 1.0) * np.array([1.0, 2.0, 1e3]))):
            np.testing.assert_allclose(pot.value(zs), -c / zs ** n, rtol=1e-12, atol=0.0)
        if isinstance(pot, HomogeneousPotential):
            assert pot.tails == ((pot.n, pot.c_n, math.inf), (pot.n, pot.c_n, 0.0))
        else:
            assert (n_lo, z_top, n_hi, z_from) == (3, pot.z_min, 4, pot.z_max)
        # the field's zeta is that of the far tail, bit for bit
        assert WkbField(pot, 0.02).zeta == (c_hi / 0.02) ** (1.0 / n_hi)

    def test_tails_continuous_at_seams(self):
        pot, _ = self.build()
        for seam in (pot.z_min, pot.z_max):
            below = pot.value(seam * (1.0 - 1e-9))
            above = pot.value(seam * (1.0 + 1e-9))
            assert below == pytest.approx(above, rel=1e-7)

    def test_tail_consistency_enforced(self):
        model = cp_like(1.0, 3.0)
        z = np.geomspace(0.05, 100.0, 60)
        v = np.array([model(float(t)) for t in z])
        with pytest.raises(ValueError):
            TabulatedPotential(z, v, cliff_c3=2.0, far_c4=3.0)  # wrong C3 declared

    def test_derivatives_smooth(self):
        pot, model = self.build()
        h = 1e-5
        for z in (0.4, 2.2, 40.0):
            fd = (pot.value(z + h) - pot.value(z - h)) / (2 * h)
            assert pot.dvalue(z) == pytest.approx(fd, rel=1e-6)

    def test_kernel_matches_scipy_spline(self):
        # the array kernel reproduces scipy's PPoly evaluation bit for bit,
        # with numpy's log and exp as the kernel takes them, on arrays and on
        # scalars, the table's own nodes included (a node falls on the cubic
        # that starts there, as in PPoly, and z_max on the last one)
        pot, _ = self.build()
        spline = _log_log_spline(pot.breaks, pot._v)
        rng = np.random.default_rng(20)
        interior = np.exp(rng.uniform(math.log(pot.z_min), math.log(pot.z_max), 4000))
        zs = np.concatenate([interior, pot.breaks])
        u = np.log(zs)
        w, w1, w2 = (p(u) for p in (spline, spline.derivative(), spline.derivative(2)))
        reference = (-np.exp(w), -np.exp(w) * w1 / zs, -np.exp(w) * (w2 + w1 * w1 - w1) / zs ** 2)
        got = (pot.value(zs), pot.dvalue(zs), pot.d2value(zs))
        assert all(np.array_equal(g, r) for g, r in zip(got, reference))
        assert all(np.array_equal(g, r) for g, r in zip(pot.derivs(zs), reference))
        for i in range(0, len(zs), 37):
            assert pot.derivs(float(zs[i])) == tuple(r[i] for r in reference)

    def test_table_ends_are_finite(self):
        # math.log(z_min) falls one ulp below the np.log knot here, which made
        # the spline reject the table's own first node
        lo = 0.9661275959543612
        z = lo * np.array([1.0, 2.0, 4.0, 8.0, 16.0])
        pot = TabulatedPotential(z, -1.0 / z ** 3, cliff_c3=1.0, far_c4=16.0 * lo)
        assert math.log(lo) < np.log(lo)
        for end in (pot.z_min, pot.z_max):
            for f in (pot.value, pot.dvalue, pot.d2value):
                assert math.isfinite(f(end))
        assert pot.value(lo) == pytest.approx(-1.0 / lo ** 3, rel=1e-14)
        assert pot.dvalue(lo) == pytest.approx(3.0 / lo ** 4, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            TabulatedPotential([1.0, 2.0, 3.0, 4.0], [-1.0, -0.5, 0.1, -0.1], 1.0, 1.0)
        with pytest.raises(ValueError):
            TabulatedPotential([1.0, 0.5, 2.0, 3.0], [-1, -1, -1, -1], 1.0, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("where", ["z", "v", "c3", "c4"])
    def test_non_finite_input_rejected(self, where, bad):
        z, v = [1.0, 2.0, 3.0, 4.0], [-1.0, -0.125, -1.0 / 27.0, -1.0 / 64.0]
        c3, c4 = 1.0, 4.0
        if where == "z":
            z[-1] = bad
        elif where == "v":
            v[1] = -bad   # -inf is negative: only the finiteness test rejects it
        elif where == "c3":
            c3 = bad
        else:
            c4 = bad
        with pytest.raises(ValueError, match="finite"):
            TabulatedPotential(z, v, cliff_c3=c3, far_c4=c4)


class TestSiConversions:
    def test_e1_for_hydrogen(self):
        # first gravitational level, about 1.407 peV
        e1_pev = e1_unit(M_HYDROGEN, G_STANDARD) / 1.602176634e-19 * 1e12
        assert e1_pev == pytest.approx(1.407, rel=2e-3)

    def test_kappa_for_thousand_e1(self):
        kappa = kappa_si(1e3 * e1_unit(M_HYDROGEN, G_STANDARD), M_HYDROGEN)
        assert kappa == pytest.approx(8.237e6, rel=1e-3)
        assert kappa * BOHR_RADIUS == pytest.approx(4.359e-4, rel=1e-3)

    def test_turning_point_height(self):
        h1_um = e1_unit() / (M_HYDROGEN * G_STANDARD) * 1e6
        assert h1_um == pytest.approx(13.7, rel=5e-3)

    def test_airy_constant(self):
        assert AIRY_LAMBDA1 == pytest.approx(2.338, abs=5e-4)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_input_rejected(self, bad):
        for call in (lambda: kappa_si(bad, M_HYDROGEN), lambda: kappa_si(1e-30, bad),
                     lambda: e1_unit(bad, G_STANDARD), lambda: e1_unit(M_HYDROGEN, bad)):
            with pytest.raises(ValueError, match="finite and positive"):
                call()


class TestTableFile:
    def test_round_trip(self, tmp_path):
        c3_au, lam_au = 0.25, 500.0  # atomic units
        model = cp_like(c3_au, lam_au)
        z = np.geomspace(1.0, 20000.0, 160)
        lines = [f"# hydrogen test table", f"# C3={c3_au} C4={c3_au * lam_au}"]
        lines += [f"{t:.12e} {model(float(t)):.12e}" for t in z]
        path = tmp_path / "test.pot"
        path.write_text("\n".join(lines) + "\n")
        pot = load_potential_table(path, mass_kg=M_HYDROGEN)
        factor = 2.0 * M_HYDROGEN * 4.3597447222071e-18 * BOHR_RADIUS ** 2 / HBAR ** 2
        assert pot.value(300.0) == pytest.approx(model(300.0) * factor, rel=1e-6)
        assert pot.far_c4 == pytest.approx(c3_au * lam_au * factor, rel=1e-12)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.pot"
        path.write_text("1.0 -1.0\n2.0 -0.2\n3.0 -0.05\n4.0 -0.02\n")
        with pytest.raises(ValueError):
            load_potential_table(path)

    @pytest.mark.parametrize("c4", ["nan", "inf"])
    def test_non_finite_tail_rejected(self, tmp_path, c4):
        path = tmp_path / "nan.pot"
        path.write_text(f"# C3=1 C4={c4}\n" + "".join(
            f"{z} {-1.0 / (z ** 3 * (1.0 + z))}\n" for z in (1.0, 2.0, 4.0, 8.0)))
        with pytest.raises(ValueError, match="finite and positive"):
            load_potential_table(path)

    @pytest.mark.parametrize("mass", [math.nan, math.inf, -1.0])
    def test_non_finite_mass_rejected(self, tmp_path, mass):
        path = tmp_path / "mass.pot"
        path.write_text("# C3=1 C4=2\n" + "".join(
            f"{z} {-1.0 / (z ** 3 * (1.0 + z))}\n" for z in (1.0, 2.0, 4.0, 8.0)))
        with pytest.raises(ValueError, match="mass must be finite and positive"):
            load_potential_table(path, mass_kg=mass)

    def test_header_reads_only_declarations(self, tmp_path):
        # a comment that names C3 or C4 without '=' declares nothing
        rows = [f"{z:.12e} {-0.25 / (z ** 3 * (1.0 + z / 500.0)):.12e}"
                for z in np.geomspace(1.0, 20000.0, 40)]
        plain = tmp_path / "plain.pot"
        plain.write_text("\n".join(["# C3=0.25 C4=125.0", *rows]) + "\n")
        noisy = tmp_path / "noisy.pot"
        noisy.write_text("\n".join(["# C4 comes from the far-field fit below",
                                    "# C3 and C4 in hartree a0**3 and a0**4",
                                    "# C3 = 0.25 C4= 125.0", *rows]) + "\n")
        a, b = load_potential_table(plain), load_potential_table(noisy)
        assert (a.cliff_c3, a.far_c4) == (b.cliff_c3, b.far_c4)
        zs = np.geomspace(0.5, 40000.0, 50)
        assert np.array_equal(a.value(zs), b.value(zs))

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "bad2.pot"
        path.write_text("# C3=1 C4=1\n1.0 -1.0 7.0\n")
        with pytest.raises(ValueError):
            load_potential_table(path)
