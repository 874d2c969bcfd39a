"""Tests for potential models, tabulated ingestion and unit conversions."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.interpolate import make_interp_spline

import qreflect.potentials as potentials

from qreflect.potentials import (
    AIRY_LAMBDA1,
    BOHR_RADIUS,
    FIT_TOLERANCE,
    G_STANDARD,
    HBAR,
    KNOT_DU,
    M_HYDROGEN,
    HomogeneousPotential,
    TabulatedPotential,
    e1_unit,
    kappa_si,
    load_potential_table,
    one_law,
)
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

    def test_one_law_where_the_tails_overlap(self):
        # two laws that agree on an interval are one; tails that only meet
        # at a point may be two
        def tails(z_top, z_from):
            return SimpleNamespace(tails=((4, 0.8, z_top), (4, 0.8, z_from)))

        assert one_law(HomogeneousPotential(4, 0.8))
        assert one_law(tails(2.0, 1.0))
        assert not one_law(tails(1.0, 1.0)) and not one_law(tails(1.0, 2.0))

    def test_derivatives_match_finite_differences(self):
        pot = HomogeneousPotential(4, 0.8)
        h = 1e-5
        for z in (0.3, 1.0, 7.0):
            fd1 = (pot.value(z + h) - pot.value(z - h)) / (2 * h)
            assert pot.dvalue(z) == pytest.approx(fd1, rel=1e-8)


class TestTabulated:
    Z = np.geomspace(0.05, 200.0, 120)

    def build(self, c3=1.3, lam=2.0):
        model = cp_like(c3, lam)
        v = np.array([model(float(t)) for t in self.Z])
        return TabulatedPotential(self.Z, v, cliff_c3=c3, far_c4=c3 * lam), model

    def test_domain_error(self):
        pot, _ = self.build()
        for z in (0.0, -2.0, np.array([1.0, 0.0]), math.nan, np.array([1.0, math.nan])):
            for evaluate in (pot.value, pot.derivs):
                with pytest.raises(ValueError, match="z > 0"):
                    evaluate(z)

    def test_nodes_exact(self):
        pot, model = self.build()
        for z in (self.Z[3], self.Z[60], self.Z[-2]):
            assert pot.value(float(z)) == pytest.approx(model(float(z)), rel=1e-13)

    def test_between_nodes_close(self):
        pot, model = self.build()
        for z in (0.31, 1.7, 23.0):
            assert pot.value(z) == pytest.approx(model(z), rel=1e-5)

    def test_tails_used_outside(self):
        pot, _ = self.build(c3=1.3, lam=2.0)
        # the declared power laws, a factor 10 beyond the end nodes
        assert pot.tails == ((3, 1.3, 0.005), (4, 2.6, 2000.0))
        assert pot.value(0.005) == pytest.approx(-1.3 / 0.005 ** 3, rel=1e-12)
        assert pot.value(0.001) == pytest.approx(-1.3 / 0.001 ** 3, rel=1e-12)
        assert pot.value(2000.0) == pytest.approx(-2.6 / 2000.0 ** 4, rel=1e-12)
        assert pot.value(5000.0) == pytest.approx(-2.6 / 5000.0 ** 4, rel=1e-12)

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
        assert one_law(pot) == isinstance(pot, HomogeneousPotential)
        if isinstance(pot, HomogeneousPotential):
            assert pot.tails == ((pot.n, pot.c_n, math.inf), (pot.n, pot.c_n, 0.0))
        else:
            assert (n_lo, z_top, n_hi, z_from) == (3, pot.z_min / 10.0, 4, pot.z_max * 10.0)
        # the field's zeta is that of the far tail, bit for bit
        assert WkbField(pot, 0.02).zeta == (c_hi / 0.02) ** (1.0 / n_hi)

    def test_tails_continuous_at_seams(self):
        # V, V' and V'' at the ends of both blends, and at the end nodes
        pot, _ = self.build()
        for seam in (pot.tails[0][2], pot.z_min, pot.z_max, pot.tails[1][2]):
            below = pot.derivs(seam * (1.0 - 1e-9))
            above = pot.derivs(seam * (1.0 + 1e-9))
            for a, b in zip(below, above):
                assert a == pytest.approx(b, rel=1e-7)

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
        # between the end nodes the array kernel is scipy's quintic B-spline
        # to rounding, with numpy's log and exp, the table's own nodes
        # included; one call on an array gives what one call per point gives
        pot, model = self.build()
        spline = make_interp_spline(np.log(self.Z), np.log(-model(self.Z)), k=5)
        rng = np.random.default_rng(20)
        interior = np.exp(rng.uniform(math.log(pot.z_min), math.log(pot.z_max), 4000))
        zs = np.concatenate([interior, self.Z])
        u = np.log(zs)
        w, w1, w2 = (spline(u, nu) for nu in range(3))
        reference = (-np.exp(w), -np.exp(w) * w1 / zs, -np.exp(w) * (w2 + w1 * w1 - w1) / zs ** 2)
        got = (pot.value(zs), pot.dvalue(zs), pot.d2value(zs))
        for g, r, rtol in zip(got, reference, (5e-14, 1e-13, 1e-12)):
            np.testing.assert_allclose(g, r, rtol=rtol, atol=0.0)
        assert all(np.array_equal(g, d) for g, d in zip(got, pot.derivs(zs)))
        for i in range(0, len(zs), 37):
            assert pot.derivs(float(zs[i])) == tuple(d[i] for d in pot.derivs(zs))

    def test_table_ends_are_finite(self):
        # math.log(z_min) falls one ulp below the np.log knot here, which made
        # the spline reject the table's own first node
        lo = 0.9661275959543612
        z = lo * np.array([1.0, 2.0, 4.0, 8.0, 16.0, 32.0])
        pot = TabulatedPotential(z, -1.0 / z ** 3, cliff_c3=1.0, far_c4=32.0 * lo)
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
        z = np.arange(1.0, 6.0)
        with pytest.raises(ValueError, match="at least 6 samples"):
            TabulatedPotential(z, -1.0 / z ** 3, cliff_c3=1.0, far_c4=5.0)

    @pytest.mark.parametrize("node", [1500, 1], ids=["middle", "next-to-end"])
    @pytest.mark.parametrize("factor", [1.01, 0.99])
    def test_dent_rejected(self, node, factor):
        # one sample 1% off the law, on 3000 nodes of 1 .. 40000: the
        # least-squares spline does not follow it, and the error names it
        model = cp_like(0.25, 500.0)
        z = np.geomspace(1.0, 40000.0, 3000)
        v = model(z)
        TabulatedPotential(z, v, cliff_c3=0.25, far_c4=125.0)
        v[node] *= factor
        with pytest.raises(ValueError, match=f"sample at z = {z[node]:.6g} lies 0.00"):
            TabulatedPotential(z, v, cliff_c3=0.25, far_c4=125.0)

    def test_turn_rejected(self):
        # on nodes more than KNOT_DU apart the spline interpolates: a sample
        # 30% shallower than the law makes -V rise to the next node, the
        # spline turns, and the error names an interval beside the sample
        model = cp_like(1.3, 2.0)
        v = model(self.Z)
        v[60] *= 0.7
        with pytest.raises(ValueError, match="not monotone") as info:
            TabulatedPotential(self.Z, v, cliff_c3=1.3, far_c4=2.6)
        lo, hi = (float(t) for t in str(info.value).split("z = ")[1].split(" (")[0].split(" .. "))
        assert self.Z[57] <= lo < hi <= self.Z[63]

    @pytest.mark.parametrize("noise", [1e-3, 1e-2])
    def test_noise(self, noise):
        # a relative noise of 1e-3 on every sample of a 500-node table is
        # averaged by the fit; one of 1e-2 leaves samples beyond
        # FIT_TOLERANCE of it
        model = cp_like(0.25, 500.0)
        z = np.geomspace(1.0, 40000.0, 500)
        noisy = model(z) * (1.0 + noise * np.random.default_rng(1).standard_normal(len(z)))
        if noise < FIT_TOLERANCE:
            pot = TabulatedPotential(z, noisy, cliff_c3=0.25, far_c4=125.0)
            np.testing.assert_allclose(pot.value(z), noisy, rtol=4.0 * noise, atol=0.0)
        else:
            with pytest.raises(ValueError, match="off the table's spline, above tolerance"):
                TabulatedPotential(z, noisy, cliff_c3=0.25, far_c4=125.0)

    def test_knots(self):
        # the spline's knots: on the 120 nodes here (0.07 apart in ln z)
        # every node, and the spline interpolates; on 500 nodes of the same
        # range every third, at least KNOT_DU apart, and it fits
        pot, model = self.build()
        np.testing.assert_array_equal(pot.log_knots()[1:-1], np.log(self.Z)[[0, *range(3, 117), 119]])
        z = np.geomspace(self.Z[0], self.Z[-1], 500)
        pot = TabulatedPotential(z, model(z), cliff_c3=1.3, far_c4=2.6)
        gaps = np.diff(pot.log_knots()[1:-1])
        assert (gaps >= KNOT_DU).all() and len(gaps) < 500 // 3
        np.testing.assert_allclose(pot.value(z), model(z), rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("where", ["z", "v", "c3", "c4"])
    def test_non_finite_input_rejected(self, where, bad):
        z = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        v = [-1.0 / t ** 3 for t in z]
        c3, c4 = 1.0, 6.0
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
        assert pot.tails[1][1] == pytest.approx(c3_au * lam_au * factor, rel=1e-12)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.pot"
        path.write_text("1.0 -1.0\n2.0 -0.2\n3.0 -0.05\n4.0 -0.02\n")
        with pytest.raises(ValueError):
            load_potential_table(path)

    @pytest.mark.parametrize("c4", ["nan", "inf"])
    def test_non_finite_tail_rejected(self, tmp_path, c4):
        path = tmp_path / "nan.pot"
        path.write_text(f"# C3=1 C4={c4}\n" + "".join(
            f"{z} {-1.0 / (z ** 3 * (1.0 + z))}\n" for z in (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)))
        with pytest.raises(ValueError, match="finite and positive"):
            load_potential_table(path)

    def test_header_only_rejected(self, tmp_path, capsys):
        # no samples: the sample count is tested before any sample is read,
        # so the CLI reports it as an error line, not a traceback
        from qreflect.cli import main
        path = tmp_path / "empty.pot"
        path.write_text("# C3=0.25 C4=125\n")
        with pytest.raises(ValueError, match="at least 6 samples"):
            load_potential_table(path)
        assert main(["scatlength", "--table", str(path)]) == 2
        assert "at least 6 samples" in capsys.readouterr().err

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
        assert a.tails == b.tails
        zs = np.geomspace(0.5, 40000.0, 50)
        assert np.array_equal(a.value(zs), b.value(zs))

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "bad2.pot"
        path.write_text("# C3=1 C4=1\n1.0 -1.0 7.0\n")
        with pytest.raises(ValueError):
            load_potential_table(path)

    def test_malformed_row_named_mid_table(self, tmp_path):
        # a bad row among good ones is named in the error, newline and all; a
        # three-number row is caught even where a one-number row follows it
        rows = [f"{z:.12e} {-0.25 / (z ** 3 * (1.0 + z / 500.0)):.12e}\n"
                for z in np.geomspace(1.0, 20000.0, 40)]
        path = tmp_path / "mid.pot"
        path.write_text("".join(["# C3=0.25 C4=125.0\n", *rows[:20], "3.5 -0.1 7.0\n", "8.0\n",
                                 *rows[20:]]))
        with pytest.raises(ValueError, match=r"^malformed table row: '3\.5 -0\.1 7\.0\\n'$"):
            load_potential_table(path)

    def test_comments_and_blank_lines_between_rows(self, tmp_path, monkeypatch):
        # comments, blank and indented lines anywhere: the samples are those
        # of the plain file, each number as float() reads it
        z = np.geomspace(1.0, 20000.0, 40)
        rows = [f"{a!r} {-0.25 / (a ** 3 * (1.0 + a / 500.0)):.15g}" for a in z.tolist()]
        plain = tmp_path / "plain.pot"
        plain.write_text("\n".join(["# C3=0.25 C4=125.0", *rows]) + "\n")
        mixed = tmp_path / "mixed.pot"
        mixed.write_text("\n".join(["", "# C3=0.25 C4=125.0", *rows[:10], "", "# a comment",
                                    *(f"  {row}\t" for row in rows[10:30]), "   ", *rows[30:],
                                    "# end"]) + "\n")
        seen = []
        monkeypatch.setattr(potentials, "TabulatedPotential",
                            lambda z, v, **tails: seen.append((z, v, tails)))
        load_potential_table(plain)
        load_potential_table(mixed)
        scale = potentials.to_reduced(M_HYDROGEN)
        expected = [(float(a), float(b) * scale) for a, b in map(str.split, rows)]
        for z_read, v_read, tails in seen:
            assert [(a, b) for a, b in zip(z_read.tolist(), v_read.tolist())] == expected
            assert tails == seen[0][2]
