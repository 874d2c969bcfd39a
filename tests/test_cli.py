"""Tests for the command-line interface: output formats, gates, determinism."""

import json
import math
import time
import warnings

import numpy as np
import pytest

from qreflect.cli import main


def run(tmp_path, name, argv):
    out = tmp_path / name
    code = main(argv + ["--output", str(out)])
    return code, out.read_text()


def write_cp_table(tmp_path, lam_au=500.0, c3_au=0.25):
    """Casimir-Polder-like two-tail table -c3/(z^3 (1 + z/lam)), atomic units."""
    z = np.geomspace(1.0, 40000.0, 500)
    v = -c3_au / (z ** 3 * (1.0 + z / lam_au))
    table = tmp_path / "cp.pot"
    lines = [f"# C3={c3_au} C4={c3_au * lam_au}"]
    lines += [f"{a:.10e} {b:.10e}" for a, b in zip(z, v)]
    table.write_text("\n".join(lines) + "\n")
    return table


def csv_rows(text):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    return header, rows


class TestReflect:
    def test_all_methods_agree_at_reference_point(self, tmp_path):
        code, text = run(tmp_path, "r.csv",
                         ["reflect", "--model", "v4", "--kappa-ell", "0.119",
                          "--method", "all"])
        assert code == 0
        _, rows = csv_rows(text)
        assert len(rows) == 1
        row = rows[0]
        values = [float(row[k]) for k in ("R_direct", "R_coupled", "R_transformed", "R_mathieu")]
        assert all(abs(v - 0.631) < 1e-3 for v in values)
        assert max(values) - min(values) < 1e-4
        assert float(row["gauge_residual"]) < 1e-7
        assert row["status"] == "ok"

    def test_routes_share_the_matching_cut(self, tmp_path):
        # the wall route matches at --q-match like the others, so direct and
        # wall amplitudes differ by integration error only, not by the cut
        code, text = run(tmp_path, "c.csv",
                         ["reflect", "--model", "v4", "--kappa-ell", "0.119",
                          "--method", "all"])
        assert code == 0
        _, rows = csv_rows(text)
        assert float(rows[0]["gauge_residual"]) < 1e-11

    def test_zero_grid_rejected(self, capsys):
        # non-finite values used to reach the solvers and fail there with
        # unrelated messages (and a numpy warning on the Mathieu route)
        for argv in (["--kappa-ell", "0"], ["--kappa-ell", "nan"], ["--kappa-ell", "inf"],
                     ["--kappa-ell", "1e400"], ["--kappa-ell", "0.1,inf", "--method", "mathieu"],
                     ["--kappa-ell", "1e-3:inf:4:log"], ["--energy-e1", "inf"]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main(["reflect", "--model", "v4", *argv])
            err = capsys.readouterr().err
            assert code == 2, argv
            assert err.startswith("error: ") and err.count("\n") == 1, argv
            assert "grid" in err, argv

    def test_missing_potential_rejected(self):
        assert main(["reflect", "--kappa-ell", "0.1"]) == 2

    def test_grid_spec_expansion(self, tmp_path):
        code, text = run(tmp_path, "g.csv",
                         ["reflect", "--model", "v4", "--kappa-ell", "0.1:1:3:log",
                          "--method", "mathieu"])
        assert code == 0
        _, rows = csv_rows(text)
        kls = [float(r["kappa_ell"]) for r in rows]
        assert kls == pytest.approx(list(np.geomspace(0.1, 1.0, 3)))
        rs = [float(r["R_mathieu"]) for r in rows]
        assert rs[0] > rs[1] > rs[2]

    def test_byte_determinism(self, tmp_path):
        argv = ["reflect", "--model", "v4", "--kappa-ell", "0.2,0.4",
                "--method", "direct"]
        _, text_a = run(tmp_path, "a.csv", argv)
        _, text_b = run(tmp_path, "b.csv", argv)
        assert text_a == text_b

    def test_json_round_trip(self, tmp_path):
        code, text = run(tmp_path, "r.json",
                         ["reflect", "--model", "v4", "--kappa-ell", "0.119",
                          "--method", "mathieu", "--format", "json"])
        assert code == 0
        payload = json.loads(text)
        assert payload["config"]["command"] == "reflect"
        assert payload["rows"][0]["R_mathieu"] == pytest.approx(0.6308, abs=1e-3)

    def test_csv_reparse_matches_json(self, tmp_path):
        argv = ["reflect", "--model", "v4", "--kappa-ell", "0.3", "--method", "direct"]
        _, text_csv = run(tmp_path, "x.csv", argv)
        _, text_json = run(tmp_path, "x.json", argv + ["--format", "json"])
        _, rows = csv_rows(text_csv)
        ref = json.loads(text_json)["rows"][0]
        assert float(rows[0]["R_direct"]) == pytest.approx(ref["R_direct"], rel=1e-11)

    def test_gate_failure_sets_exit_code(self, tmp_path):
        code, text = run(tmp_path, "f.csv",
                         ["reflect", "--model", "v4", "--kappa-ell", "0.119",
                          "--method", "all", "--max-spread", "1e-12"])
        assert code == 1
        _, rows = csv_rows(text)
        assert rows[0]["status"] == "fail"

    def test_e1_energy_conversion_for_model(self, tmp_path):
        # C4 in atomic units with an E1 energy grid: kappa_ell in the output
        # must equal kappa[1/a0] * ell[a0] computed independently
        from qreflect.potentials import (AMU, BOHR_RADIUS, HARTREE, HBAR,
                                         e1_unit, kappa_si)
        c4_au = 14.0  # hartree a0^4, sized to put kappa*ell near 0.1
        mass = 1.00782503207 * AMU
        code, text = run(tmp_path, "e1.csv",
                         ["reflect", "--model", "v4", "--cn", str(c4_au),
                          "--energy-e1", "1000", "--method", "mathieu"])
        assert code == 0
        _, rows = csv_rows(text)
        kappa_a0 = kappa_si(1000.0 * e1_unit(mass), mass) * BOHR_RADIUS
        ell_a0 = math.sqrt(2.0 * mass * c4_au * HARTREE * BOHR_RADIUS ** 4) / HBAR / BOHR_RADIUS
        assert float(rows[0]["kappa_ell"]) == pytest.approx(kappa_a0 * ell_a0, rel=1e-10)

    def test_table_all_methods_in_bounded_time(self, tmp_path):
        # every route, the wall route included, on a real-surface table
        table = write_cp_table(tmp_path)
        start = time.perf_counter()
        code, text = run(tmp_path, "ta.csv",
                         ["reflect", "--table", str(table), "--energy-e1", "100",
                          "--method", "all", "--q-match", "1e-6"])
        elapsed = time.perf_counter() - start
        assert code == 0
        _, rows = csv_rows(text)
        row = rows[0]
        assert row["status"] == "ok"
        for key in ("R_direct", "R_coupled", "R_transformed"):
            assert 0.0 < float(row[key]) < 1.0
        assert float(row["gauge_residual"]) < 1e-7
        assert elapsed < 60.0

    def test_table_ingestion_with_e1_energies(self, tmp_path):
        table = write_cp_table(tmp_path)
        code, text = run(tmp_path, "t.csv",
                         ["reflect", "--table", str(table), "--energy-e1", "1000",
                          "--method", "direct", "--q-match", "1e-7"])
        assert code == 0
        _, rows = csv_rows(text)
        r = float(rows[0]["R_direct"])
        assert 0.0 < r < 1.0


class TestBadlands:
    def test_peak_and_tails(self, tmp_path):
        code, text = run(tmp_path, "b.csv",
                         ["badlands", "--model", "v4", "--kappa-ell", "0.1"])
        assert code == 0
        header, rows = csv_rows(text)
        qs = np.array([float(r["Q"]) for r in rows])
        zs = np.array([float(r["z"]) for r in rows])
        q_peak = qs.max()
        assert q_peak == pytest.approx(0.625 / 0.1, rel=1e-4)
        zeta = math.sqrt(1.0 / 0.1)
        assert zs[np.argmax(qs)] == pytest.approx(zeta, rel=1e-2)
        assert qs[0] < 1e-6 * q_peak and qs[-1] < 1e-6 * q_peak
        near_peak = (zs > zeta / 2) & (zs < 2 * zeta)
        assert near_peak.sum() >= 50

    def test_peak_height_orders_with_energy(self, tmp_path):
        _, text = run(tmp_path, "b2.csv",
                      ["badlands", "--model", "v4", "--kappa-ell", "0.1,1.0"])
        peaks = {}
        for line in text.splitlines():
            if line.startswith("# q_peak["):
                key = line.split("[")[1].split("]")[0]
                peaks[float(key)] = float(line.split("=")[-1])
        assert peaks[0.1] > peaks[1.0]

    def test_q_match_sets_the_range(self, tmp_path):
        spans = {}
        for cut in (None, "1e-7", "1e-4"):
            extra = [] if cut is None else ["--q-match", cut]
            code, text = run(tmp_path, f"b{cut}.csv", ["badlands", "--model", "v4",
                                                       "--kappa-ell", "0.1", "--points", "20",
                                                       *extra])
            assert code == 0
            zs = [float(r["z"]) for r in csv_rows(text)[1]]
            spans[cut] = (min(zs), max(zs))
        assert spans[None] == spans["1e-7"]
        assert spans["1e-4"][0] > spans["1e-7"][0]
        assert spans["1e-4"][1] < spans["1e-7"][1]


class TestWall:
    def test_universal_quartic(self, tmp_path):
        code, text = run(tmp_path, "w.csv", ["wall", "--universal-n", "4"])
        assert code == 0
        meta = dict(line[2:].split("=", 1) for line in text.splitlines()
                    if line.startswith("# ") and "=" in line)
        assert float(meta["integral_closed"]) == pytest.approx(0.772531, abs=1e-6)
        assert float(meta["symmetry_residual"]) < 1e-10
        assert float(meta["inversion_center"]) == pytest.approx(0.847213, abs=1e-6)
        _, rows = csv_rows(text)
        vb = [float(r["V_bold"]) for r in rows]
        assert max(vb) <= 5.0 / 8.0 + 1e-12

    def test_field_wall_integral(self, tmp_path):
        code, text = run(tmp_path, "w2.csv",
                         ["wall", "--model", "v4", "--kappa-ell", "0.3"])
        assert code == 0
        meta = dict(line[2:].split("=", 1) for line in text.splitlines()
                    if line.startswith("# ") and "=" in line)
        assert float(meta["E_bold[0.3]"]) == pytest.approx(0.3, rel=1e-12)
        assert float(meta["integral[0.3]"]) == pytest.approx(0.7725311, abs=1e-6)

    def test_table_wall_is_quiet(self, tmp_path, capsys):
        # quadrature warnings of the wall integral are gated, not printed
        table = write_cp_table(tmp_path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, text = run(tmp_path, "wt.csv",
                             ["wall", "--table", str(table), "--energy-e1", "100",
                              "--points", "8"])
        assert code == 0
        assert caught == []
        assert capsys.readouterr().err == ""
        meta = dict(line[2:].split("=", 1) for line in text.splitlines()
                    if line.startswith("# ") and "=" in line)
        integrals = [float(v) for k, v in meta.items() if k.startswith("integral[")]
        assert len(integrals) == 1 and integrals[0] > 0.0

    def test_cubic_cliff_wall(self, tmp_path, capsys):
        # the phase of -C3/z**3 near the cliff is closed form: no quadrature
        # to give up, no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, text = run(tmp_path, "w3.csv",
                             ["wall", "--model", "vn", "--n", "3", "--energy-e1", "1000",
                              "--points", "5"])
        assert code == 0
        assert capsys.readouterr().err == ""
        _, rows = csv_rows(text)
        assert len(rows) == 5
        assert all(math.isfinite(float(r["z_bold"])) for r in rows)

    @pytest.mark.parametrize("n", [3, 5])
    def test_universal_other_exponents(self, tmp_path, n):
        code, text = run(tmp_path, f"w{n}.csv", ["wall", "--universal-n", str(n)])
        assert code == 0

    def test_overlay_collapses_onto_universal(self, tmp_path):
        # quartic field wall rows and the universal overlay trace one curve;
        # the exact universal shape (Newton-inverted) is the oracle
        from qreflect.liouville import universal_v4_at

        code, text = run(tmp_path, "wo.csv",
                         ["wall", "--model", "v4", "--kappa-ell", "0.3",
                          "--overlay-universal", "--points", "120"])
        assert code == 0
        _, rows = csv_rows(text)
        field = [(float(r["z_bold"]), float(r["V_bold"])) for r in rows
                 if r["curve"] == "field"]
        universal = [(float(r["z_bold"]), float(r["V_bold"])) for r in rows
                     if r["curve"] == "universal"]
        assert len(field) == 120 and len(universal) == 120
        for zb, vb in field[10:-10:6] + universal[10:-10:6]:
            assert vb == pytest.approx(universal_v4_at(zb), rel=1e-8, abs=1e-13)

    def test_vn_model_reflect(self, tmp_path):
        # cubic potential through the direct solver with an E1 energy grid
        code, text = run(tmp_path, "v3.csv",
                         ["reflect", "--model", "vn", "--n", "3", "--cn", "0.2",
                          "--energy-e1", "1000", "--method", "direct",
                          "--q-match", "1e-6"])
        assert code == 0
        _, rows = csv_rows(text)
        assert 0.0 < float(rows[0]["R_direct"]) < 1.0


class TestScatlength:
    def test_quartic_record(self, tmp_path):
        code, text = run(tmp_path, "s.json",
                         ["scatlength", "--model", "v4", "--format", "json"])
        assert code == 0
        rec = json.loads(text)["rows"][0]
        assert rec["b_over_ell"] == pytest.approx(1.0, abs=0.01)
        assert rec["fit_residual"] < 1e-4
        assert rec["b"] == -rec["a_im"]

    def test_strength_scaling(self, tmp_path):
        _, text1 = run(tmp_path, "s1.json",
                       ["scatlength", "--model", "v4", "--cn", "1.0", "--format", "json"])
        _, text4 = run(tmp_path, "s4.json",
                       ["scatlength", "--model", "v4", "--cn", "4.0", "--format", "json"])
        b1 = json.loads(text1)["rows"][0]["b"]
        b4 = json.loads(text4)["rows"][0]["b"]
        assert b4 / b1 == pytest.approx(2.0, rel=1e-3)
