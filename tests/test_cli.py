"""Tests for the command-line interface: output formats, gates, determinism."""

import json
import math
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from qreflect import cli, mathieu, scattering
from qreflect.cli import main
from qreflect.potentials import AMU, M_HYDROGEN, HomogeneousPotential
from qreflect.wkb import WkbField

from helpers import e1_energy, write_cp_table


def run(tmp_path, name, argv):
    out = tmp_path / name
    code = main(argv + ["--output", str(out)])
    return code, out.read_text()


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
        # unrelated messages (and a numpy warning on the Mathieu route); an
        # empty list, an unknown range scale, no grid and a kappa*ell grid
        # without a C4 tail are rejected before any solve too
        for argv in (["--kappa-ell", "0"], ["--kappa-ell", "nan"], ["--kappa-ell", "inf"],
                     ["--kappa-ell", "1e400"], ["--kappa-ell", "0.1,inf", "--method", "mathieu"],
                     ["--kappa-ell", "1e-3:inf:4:log"], ["--energy-e1", "inf"],
                     ["--kappa-ell", ","], ["--kappa-ell", "1:2:3:lin"], [],
                     ["--model", "vn", "--n", "3", "--kappa-ell", "1"]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main(["reflect", "--model", "v4", *argv])
            err = capsys.readouterr().err
            assert code == 2, argv
            assert err.startswith("error: ") and err.count("\n") == 1, argv
            assert "grid" in err, argv

    @pytest.mark.parametrize("argv", [["--table", "cp", "--energy-e1", "100"],
                                      ["--model", "vn", "--n", "3", "--energy-e1", "1000"]],
                             ids=["table", "vn-3"])
    def test_mathieu_route_needs_one_quartic_law(self, tmp_path, capsys, argv):
        # the closed form solves -C4/z**4 at every z: not a table, whose
        # tails are two laws, nor another exponent
        argv = [str(write_cp_table(tmp_path)) if a == "cp" else a for a in argv]
        code = main(["reflect", *argv, "--method", "mathieu"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == "error: the mathieu route applies to the inverse-quartic model only\n"

    def test_mathieu_route_on_the_quartic_model(self, tmp_path):
        # --model vn --n 4 is the inverse-quartic model, as --model v4 is
        code, text = run(tmp_path, "vn4.csv", ["reflect", "--model", "vn", "--n", "4",
                                               "--kappa-ell", "0.1", "--method", "mathieu"])
        assert code == 0
        assert csv_rows(text)[1][0]["R_mathieu"] == f"{mathieu.solve_v4(0.1).R:.12g}"

    def test_table_rows_have_no_mathieu_column(self, tmp_path):
        # a kappa*ell grid on a table runs the numeric routes only
        code, text = run(tmp_path, "tk.csv", ["reflect", "--table", str(write_cp_table(tmp_path)),
                                              "--kappa-ell", "0.1", "--method", "all"])
        header, rows = csv_rows(text)
        assert code == 0 and rows[0]["status"] == "ok"
        assert "R_mathieu" not in header
        assert {"R_direct", "R_coupled", "R_transformed"} <= set(header)

    def test_cut_past_the_badlands_peak_rejected(self, capsys):
        code = main(["reflect", "--model", "vn", "--n", "3", "--energy-e1", "1000",
                     "--method", "all", "--q-match", "0.9"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "badlands peak" in err

    @pytest.mark.parametrize("argv", [
        ["badlands", "--model", "v4", "--kappa-ell", "0.3", "--cn", "1e300", "--points", "2"],
        ["reflect", "--model", "v4", "--kappa-ell", "0.3", "--cn", "1e300", "--method", "direct"],
        ["reflect", "--model", "v4", "--kappa-ell", "0.3", "--cn", "1e-300", "--method", "direct"],
    ])
    def test_non_finite_matching_domain_rejected(self, capsys, argv):
        # zeta = (C/E)**(1/4) overflows or underflows: the domain used to come
        # out (inf, inf) or (0, 0), and print inf and nan rows or fail inside
        # a route
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith("error: matching domain (") and err.count("\n") == 1

    def test_closed_form_failure_fails_its_row_only(self, tmp_path, capsys):
        # the Mathieu closed form stops near kappa*ell = 299; the row beyond
        # it fails with an empty cell while the numeric routes still answer
        code, text = run(tmp_path, "hi.csv",
                         ["reflect", "--model", "v4", "--kappa-ell", "100:400:3:log"])
        err = capsys.readouterr().err
        assert code == 1
        _, rows = csv_rows(text)
        assert [float(row["kappa_ell"]) for row in rows] == pytest.approx([100.0, 200.0, 400.0])
        assert [row["status"] for row in rows] == ["ok", "ok", "fail"]
        assert rows[2]["R_mathieu"] == ""
        assert all(float(rows[2][f"R_{name}"]) < 1e-26
                   for name in ("direct", "coupled", "transformed"))
        assert all(float(row["R_mathieu"]) > 0.0 for row in rows[:2])
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("warning: kappa_ell=400: mathieu: ")
        assert "did not settle" in lines[0]

    def test_closed_form_failure_in_json(self, tmp_path, capsys):
        code, text = run(tmp_path, "hi.json",
                         ["reflect", "--model", "v4", "--kappa-ell", "100:400:3:log",
                          "--method", "mathieu", "--format", "json"])
        assert code == 1
        assert capsys.readouterr().err.count("warning: ") == 1
        rows = json.loads(text)["rows"]
        assert [row["R_mathieu"] is None for row in rows] == [False, False, True]
        assert [row["status"] for row in rows] == ["ok", "ok", "fail"]

    def test_no_incoming_wave_fails_its_row(self, tmp_path, capsys, monkeypatch):
        # a far-end decomposition with c- = 0 raises in each numeric route:
        # their cells stay empty and the row fails, while the closed form answers
        decompose = scattering._decompose

        def no_incoming(*args):
            cp, cm = decompose(*args)
            return cp, 0.0 * cm

        monkeypatch.setattr(scattering, "_decompose", no_incoming)
        code, text = run(tmp_path, "c0.csv", ["reflect", "--model", "v4", "--kappa-ell", "0.119"])
        err = capsys.readouterr().err
        assert code == 1
        _, (row,) = csv_rows(text)
        assert [row[f"R_{name}"] for name in ("direct", "coupled", "transformed")] == ["", "", ""]
        assert float(row["R_mathieu"]) == pytest.approx(0.631, abs=1e-3)
        assert row["status"] == "fail"
        assert err.startswith("warning: kappa_ell=0.119: direct: ") and err.count("\n") == 1

    def test_overflow_in_a_route_fails_its_row(self, tmp_path, capsys, monkeypatch):
        # any ArithmeticError of a route fails its row, not the command
        def overflow(kappa_ell):
            raise OverflowError("math range error")

        monkeypatch.setattr(mathieu, "solve_v4", overflow)
        code, text = run(tmp_path, "o.csv", ["reflect", "--model", "v4", "--kappa-ell", "0.119"])
        err = capsys.readouterr().err
        assert code == 1
        _, (row,) = csv_rows(text)
        assert row["R_mathieu"] == "" and row["status"] == "fail"
        assert err == "warning: kappa_ell=0.119: mathieu: math range error\n"

    def test_unbounded_partition_fails_its_row(self, tmp_path, capsys):
        # cut 1e-100 puts z_max near 1e25 zeta, where the first partition
        # would take 6e15 panels: counted before anything is allocated
        code, text = run(tmp_path, "p.csv", ["reflect", "--model", "v4", "--kappa-ell", "0.3",
                                             "--q-match", "1e-100", "--method", "direct"])
        err = capsys.readouterr().err
        assert code == 1
        _, (row,) = csv_rows(text)
        assert row["R_direct"] == "" and row["status"] == "fail"
        assert err.startswith("warning: kappa_ell=0.3: direct: integration failed: ")
        assert err.count("\n") == 1 and str(scattering._MAX_PANELS) in err

    @pytest.mark.parametrize("method", ["direct", "coupled", "transformed"])
    def test_underflowed_cliff_slope_fails_its_row(self, tmp_path, capsys, method):
        # from kappa ell = 1e-134 on, V' of V_4 at z_min underflows to 0, and
        # the cliff wave would lose its -k'/(2k) psi term, which dominates
        # psi' there (R_direct 0.999, R_coupled 0, each with status ok); at
        # 1e-133 V' is subnormal and R = 1
        code, text = run(tmp_path, "u.csv", ["reflect", "--model", "v4", "--kappa-ell",
                                             "1e-133,1e-150", "--method", method])
        err = capsys.readouterr().err
        assert code == 1
        _, rows = csv_rows(text)
        assert [row["status"] for row in rows] == ["ok", "fail"]
        assert [row[f"R_{method}"] for row in rows] == ["1", ""]
        assert err.startswith(f"warning: kappa_ell=1e-150: {method}: ") and err.count("\n") == 1

    def test_missing_potential_rejected(self):
        assert main(["reflect", "--kappa-ell", "0.1"]) == 2

    @pytest.mark.parametrize("bad", ["nan", "inf", "-1"])
    @pytest.mark.parametrize("argv", [
        ["--kappa-ell", "0.1", "--cn", "{}"],
        ["--energy-e1", "100", "--mass-amu", "{}"],
        ["--energy-e1", "100", "--g", "{}"],
    ], ids=["cn", "mass-amu", "g"])
    def test_non_finite_input_rejected(self, capsys, argv, bad):
        # a configuration error, before any solve
        assert main(["reflect", "--model", "v4", *(a.format(bad) for a in argv)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "finite and positive" in err

    @pytest.mark.parametrize("bad", ["-1", "0", "nan"])
    @pytest.mark.parametrize("model", ["v4", "vn"])
    def test_non_physical_mass_rejected(self, capsys, model, bad):
        # with --energy-e1 the mass converts --cn to reduced units: the error
        # names the mass, not the strength it would have made
        assert main(["reflect", "--model", model, "--energy-e1", "100", "--mass-amu", bad]) == 2
        assert capsys.readouterr().err == "error: mass must be finite and positive\n"

    @pytest.mark.parametrize("bad", ["nan", "-1"])
    @pytest.mark.parametrize("gate", ["--max-spread", "--max-unitarity"])
    def test_invalid_gate_rejected(self, capsys, gate, bad):
        # nan and negative gates would fail every row; reject them before any solve
        assert main(["reflect", "--model", "v4", "--kappa-ell", "0.1", gate, bad]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "non-negative" in err

    @pytest.mark.parametrize("argv", [
        ["--max-spread", "inf", "--max-unitarity", "inf"],
        ["--max-spread", "0", "--method", "direct"],
    ], ids=["inf-switches-off", "zero-single-method"])
    def test_boundary_gates_accepted(self, tmp_path, argv):
        # inf switches a gate off; a spread of 0 passes when one method runs
        code, text = run(tmp_path, "b.csv",
                         ["reflect", "--model", "v4", "--kappa-ell", "0.3", *argv])
        assert code == 0
        _, (row,) = csv_rows(text)
        assert row["status"] == "ok"

    @pytest.mark.parametrize("c4", ["nan", "inf"])
    def test_non_finite_table_tail_rejected(self, tmp_path, capsys, c4):
        table = tmp_path / "nan.pot"
        table.write_text(write_cp_table(tmp_path).read_text().replace("C4=125.0", f"C4={c4}"))
        assert main(["reflect", "--table", str(table), "--energy-e1", "100",
                     "--method", "direct"]) == 2
        assert "finite and positive" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["1,1:2:0", "1:2:-1"])
    def test_range_count_below_one_rejected(self, capsys, spec):
        # a zero count dropped its range from a list in silence, and a
        # negative one printed numpy's message
        code = main(["reflect", "--model", "v4", "--kappa-ell", spec, "--method", "mathieu"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        chunk = spec.split(",")[-1]
        assert err == f"error: bad grid spec {chunk!r}: a range needs a count of at least 1\n"

    def test_grid_spec_expansion(self, tmp_path):
        # a range spaces its values by ratio with :log, evenly without
        for spec, expected in (("0.1:1:3:log", np.geomspace(0.1, 1.0, 3)),
                               ("0.1:0.3:3", np.linspace(0.1, 0.3, 3))):
            code, text = run(tmp_path, "g.csv",
                             ["reflect", "--model", "v4", "--kappa-ell", spec,
                              "--method", "mathieu"])
            assert code == 0
            _, rows = csv_rows(text)
            kls = [float(r["kappa_ell"]) for r in rows]
            assert kls == pytest.approx(list(expected))
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
        from qreflect.potentials import BOHR_RADIUS, HARTREE, HBAR, e1_unit, kappa_si
        c4_au = 14.0  # hartree a0^4, sized to put kappa*ell near 0.1
        mass = M_HYDROGEN
        code, text = run(tmp_path, "e1.csv",
                         ["reflect", "--model", "v4", "--cn", str(c4_au),
                          "--energy-e1", "1000", "--method", "mathieu"])
        assert code == 0
        _, rows = csv_rows(text)
        kappa_a0 = kappa_si(1000.0 * e1_unit(mass), mass) * BOHR_RADIUS
        ell_a0 = math.sqrt(2.0 * mass * c4_au * HARTREE * BOHR_RADIUS ** 4) / HBAR / BOHR_RADIUS
        assert float(rows[0]["kappa_ell"]) == pytest.approx(kappa_a0 * ell_a0, rel=1e-10)

    def test_hydrogen_mass_is_the_library_constant(self):
        # the --mass-amu default and potentials.M_HYDROGEN are one mass
        assert cli._FIELD_DEFAULTS["mass_amu"] * AMU == M_HYDROGEN

    @pytest.mark.parametrize("x", ["30", "100", "300"])
    def test_e1_energy_helper_is_the_cli_energy(self, x):
        # the tests' E1 energies are those of the CLI's --energy-e1, bit for bit
        args = cli.build_parser().parse_args(["reflect", "--model", "v4", "--energy-e1", x])
        assert cli._energies(args, None)[0] == [e1_energy(float(x))]

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

    def test_table_all_methods_at_the_default_cut(self, tmp_path):
        # the routes start on the threshold wave at the table's first node
        table = write_cp_table(tmp_path)
        start = time.perf_counter()
        code, text = run(tmp_path, "td.csv",
                         ["reflect", "--table", str(table), "--energy-e1", "100",
                          "--method", "all"])
        elapsed = time.perf_counter() - start
        assert code == 0
        row = csv_rows(text)[1][0]
        assert row["status"] == "ok"
        assert float(row["method_spread"]) <= 1e-8
        assert elapsed < 20.0
        # R of a WKB cliff start at cut 1e-11, at 3e-7 a0 deep in the cliff
        # tail (0.5 s for the direct route alone); 6e-10 below the R of the
        # formula the table samples (TestTabulatedPipeline)
        assert float(row["R_direct"]) == pytest.approx(0.705455913227, abs=1e-10)

    def test_table_routes_agree_at_the_default_cut(self, tmp_path):
        # V'' is continuous: the wall route, whose coefficient holds it,
        # agrees with direct and coupled to integration accuracy across the
        # knots, not to 3e-10
        table = write_cp_table(tmp_path)
        code, text = run(tmp_path, "ts.csv",
                         ["reflect", "--table", str(table), "--energy-e1", "100",
                          "--method", "all"])
        assert code == 0
        assert float(csv_rows(text)[1][0]["method_spread"]) <= 1e-11

    def test_table_cliff_is_converged_in_the_cut(self, tmp_path):
        table = write_cp_table(tmp_path)
        values = []
        for cut in ("1e-10", "1e-12"):
            code, text = run(tmp_path, f"tc{cut}.csv",
                             ["reflect", "--table", str(table), "--energy-e1", "100",
                              "--method", "direct", "--q-match", cut])
            assert code == 0
            values.append(float(csv_rows(text)[1][0]["R_direct"]))
        assert abs(values[0] - values[1]) < 1e-9

    def test_cubic_model_all_methods_in_bounded_time(self, tmp_path):
        start = time.perf_counter()
        code, text = run(tmp_path, "v3a.csv",
                         ["reflect", "--model", "vn", "--n", "3", "--energy-e1", "1000",
                          "--method", "all"])
        elapsed = time.perf_counter() - start
        assert code == 0
        assert csv_rows(text)[1][0]["status"] == "ok"
        assert elapsed < 20.0

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

    def test_cliff_end_is_the_cut(self, tmp_path):
        # on V_4 the first row is the cliff end of the matching domain, where
        # Q is cut * Q_peak; the numeric Q's two terms cancel there, to 4e-11
        code, text = run(tmp_path, "bc.json", ["badlands", "--model", "v4", "--kappa-ell", "0.3",
                                               "--points", "5", "--format", "json"])
        assert code == 0
        payload = json.loads(text)
        q_peak = payload["config"]["q_peak[0.3]"]
        assert payload["rows"][0]["Q"] == pytest.approx(1e-7 * q_peak, rel=1e-14, abs=0.0)

    def test_far_end_is_the_cut_at_a_tiny_cut(self, capsys):
        # at cut 1e-200 the far end lies at x ~ 1e33, where (1 + x**4)**3
        # overflowed: a warning and Q = 0 in the last row
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["badlands", "--model", "v4", "--kappa-ell", "0.3", "--q-match", "1e-200",
                         "--points", "3", "--format", "json"])
        out, err = capsys.readouterr()
        assert code == 0 and err == ""
        payload = json.loads(out)
        q_peak = payload["config"]["q_peak[0.3]"]
        assert payload["rows"][-1]["Q"] == pytest.approx(1e-200 * q_peak, rel=1e-12, abs=0.0)

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
    def test_bad_sampling_rejected(self, capsys):
        # --points 0 used to fail inside numpy (or print an empty table) and a
        # negative --x-min to print a numpy warning before the error
        for argv in (["wall", "--model", "v4", "--kappa-ell", "0.3", "--points", "0"],
                     ["wall", "--universal-n", "4", "--points", "0"],
                     ["badlands", "--model", "v4", "--kappa-ell", "0.1", "--points", "-3"],
                     ["wall", "--universal-n", "4", "--x-min", "-1"],
                     ["wall", "--universal-n", "4", "--x-min", "0"],
                     ["wall", "--universal-n", "4", "--x-max", "inf"],
                     ["wall", "--universal-n", "4", "--x-min", "nan"],
                     ["wall", "--universal-n", "4", "--x-min", "60"],
                     ["wall", "--model", "v4", "--kappa-ell", "0.3", "--overlay-universal",
                      "--x-max", "0.01"]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main(argv)
            out, err = capsys.readouterr()
            assert code == 2, argv
            assert out == "", argv
            assert err.startswith("error: ") and err.count("\n") == 1, argv
            assert ("--points" in err) == ("--points" in argv), argv

    @pytest.mark.parametrize("argv, power", [(["--universal-n", "4", "--x-max", "1e80"], "4"),
                                             (["--universal-n", "40", "--x-max", "1e10"], "40"),
                                             (["--universal-n", "8", "--x-min", "1e-120"], "-3")])
    def test_overflow_is_an_error(self, capsys, argv, power):
        # a power of x overflows a float: an error line, not a traceback, nor
        # a warning and a row of -inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["wall", *argv, "--points", "2"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err == f"error: x**{power} overflows a float at x = {float(argv[3]):g}\n"

    def test_far_universal_wall_is_finite(self, capsys):
        # x**4 is a float at x = 1e50 but (1 + x**4)**3 is not, which made the
        # command exit 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["wall", "--universal-n", "4", "--x-max", "1e50", "--points", "2"])
        out, err = capsys.readouterr()
        assert code == 0 and err == ""
        _, rows = csv_rows(out)
        assert float(rows[-1]["V_bold"]) == pytest.approx(5e-300, rel=1e-11)

    def test_mirror_overflow_is_an_error(self, capsys):
        # the quartic's symmetry residual reads the wall at 1/x too, where
        # x**4 overflows below x = 1e-77
        code = main(["wall", "--universal-n", "4", "--x-min", "1e-80", "--points", "2"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err == "error: x**4 overflows a float at x = 1e+80\n"

    @pytest.mark.parametrize("argv", [["--universal-n", "0"],
                                      ["--model", "v4", "--kappa-ell", "0.3", "--universal-n", "0"]])
    def test_universal_n_zero_is_read(self, capsys, argv):
        # 0 is a given exponent, not an absent one: it used to print the
        # field wall, or ask for a potential
        code = main(["wall", *argv, "--points", "2"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err == "error: needs n > 2 for a finite far-end anchor\n"

    @pytest.mark.parametrize("argv, unread", [
        (["--table", "nonexistent.pot"], "--table"),
        (["--model", "v4", "--kappa-ell", "0.3"], "--model, --kappa-ell"),
        (["--energy-e1", "100"], "--energy-e1"),
        (["--overlay-universal"], "--overlay-universal"),
        (["--cn", "5", "--n", "7", "--q-match", "1e-3", "--mass-amu", "7"],
         "--n, --cn, --mass-amu, --q-match"),
        (["--cn", "0"], "--cn"),
    ], ids=["table", "model", "energy-e1", "overlay", "field-flags", "zero"])
    def test_universal_n_takes_no_field(self, capsys, argv, unread):
        # each of these chooses, draws or sets up a field's wall, which
        # --universal-n replaces: they were ignored, and the universal wall
        # printed; a given zero counts as given
        code = main(["wall", "--universal-n", "4", "--points", "2", *argv])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err == f"error: --universal-n draws the universal wall alone: drop {unread}\n"

    @pytest.mark.parametrize("x_max", ["50", "1e8", "1e20", "1e50"])
    def test_universal_quartic(self, tmp_path, x_max):
        # far out z_bold(x) and z_bold(1/x) nearly cancel: the residual reads
        # their sum relative to their sizes, not the rounding of x
        code, text = run(tmp_path, "w.csv", ["wall", "--universal-n", "4", "--x-max", x_max])
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
        # the quartic wall is repulsive everywhere
        assert float(meta["wall_min[0.3]"]) >= 0.0
        assert float(meta["wall_negative_fraction[0.3]"]) == 0.0

    def test_wall_sign_summary_of_negative_samples(self, tmp_path, monkeypatch):
        # a two-tail wall may dip below zero; the quartic never does, so feed
        # the reduction a probe with negative samples (a zero is not negative)
        from qreflect import liouville
        monkeypatch.setattr(liouville.TransformedProblem, "probe", lambda self, n: (
            np.array([1.0, 2.0, 3.0, 4.0]), np.array([0.5, -0.1, 0.0, -0.3])))
        code, text = run(tmp_path, "ws.csv",
                         ["wall", "--model", "v4", "--kappa-ell", "0.3"])
        assert code == 0
        meta = dict(line[2:].split("=", 1) for line in text.splitlines()
                    if line.startswith("# ") and "=" in line)
        assert float(meta["wall_min[0.3]"]) == -0.3
        assert float(meta["wall_negative_fraction[0.3]"]) == 0.5

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
        # quartic field wall rows and the universal overlay trace one curve:
        # the field row at z is the universal wall at x = z/zeta, with z
        # rebuilt as the probe samples the matching domain (C4 = 1 at
        # kappa = 0.3, so zeta = 0.3**-0.5), and the overlay is the wall at
        # the printed x
        from qreflect.liouville import universal_wall

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
        fld = WkbField(HomogeneousPotential(4, 1.0), 0.09)
        xs = np.concatenate([np.geomspace(*fld.matching_domain(), 120) / fld.zeta,
                             np.geomspace(0.02, 50.0, 120)])
        for (zb, vb), x in zip(field + universal, xs.tolist()):
            assert (zb, vb) == pytest.approx(universal_wall(x, 4), rel=1e-10, abs=0.0), x

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
    def test_one_ell_on_a_table(self, tmp_path):
        # reflect's kappa*ell, wall's E_bold = (kappa zeta)**2 = kappa ell
        # and scatlength's ell all read the declared C4 (scatlength read a
        # strength matched to the last node, 0.62% off)
        from qreflect.potentials import BOHR_RADIUS, HARTREE, HBAR, e1_unit, kappa_si
        table = str(write_cp_table(tmp_path))
        _, text = run(tmp_path, "r.csv", ["reflect", "--table", table, "--energy-e1", "100",
                                          "--method", "direct"])
        kappa_ell = float(csv_rows(text)[1][0]["kappa_ell"])
        _, text = run(tmp_path, "w.csv", ["wall", "--table", table, "--energy-e1", "100",
                                          "--points", "2"])
        meta = dict(line[2:].split("=", 1) for line in text.splitlines()
                    if line.startswith("# ") and "=" in line)
        _, text = run(tmp_path, "s.csv", ["scatlength", "--table", table])
        ell = float(csv_rows(text)[1][0]["ell"])
        mass = M_HYDROGEN
        kappa = kappa_si(100.0 * e1_unit(mass), mass) * BOHR_RADIUS
        c4 = 125.0 * 2.0 * mass * HARTREE * BOHR_RADIUS ** 2 / HBAR ** 2
        assert ell == pytest.approx(math.sqrt(c4), rel=1e-11)
        assert kappa * ell == pytest.approx(kappa_ell, rel=1e-11)
        (e_bold,) = (float(v) for k, v in meta.items() if k.startswith("E_bold["))
        assert e_bold == pytest.approx(kappa_ell, rel=1e-11)

    @pytest.mark.parametrize("c3, lam", [(0.24085910610281003, 517.3716868468616),
                                         (0.24559581912082906, 482.5424586962251)],
                             ids=["table-cli-seed-1", "table-cli-seed-7"])
    @pytest.mark.parametrize("cut", [[], ["--q-match", "1e-7"]], ids=["default-cut", "cut-1e-7"])
    def test_table_is_quiet(self, tmp_path, capsys, c3, lam, cut):
        # on tables shaped like the benchmark's table-cli ones, the badlands
        # has one mode: no "badlands appears multimodal" on stderr
        table = write_cp_table(tmp_path, c3_au=c3, lam_au=lam)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["scatlength", "--table", str(table), *cut])
        out, err = capsys.readouterr()
        assert code == 0 and err == ""
        assert float(csv_rows(out)[1][0]["b"]) > 0.0

    def test_quartic_record(self, tmp_path):
        code, text = run(tmp_path, "s.json",
                         ["scatlength", "--model", "v4", "--format", "json"])
        assert code == 0
        rec = json.loads(text)["rows"][0]
        assert rec["a_re"] == 0.0 and rec["b_over_ell"] == 1.0   # a = -i ell in closed form
        assert rec["fit_residual"] < 1e-4
        assert rec["b"] == -rec["a_im"]

    def test_table_in_bounded_time(self, tmp_path):
        table = write_cp_table(tmp_path)
        start = time.perf_counter()
        code, text = run(tmp_path, "st.csv", ["scatlength", "--table", str(table)])
        elapsed = time.perf_counter() - start
        assert code == 0
        assert float(csv_rows(text)[1][0]["b"]) > 0.0
        assert elapsed < 20.0

    def test_strength_scaling(self, tmp_path):
        _, text1 = run(tmp_path, "s1.json",
                       ["scatlength", "--model", "v4", "--cn", "1.0", "--format", "json"])
        _, text4 = run(tmp_path, "s4.json",
                       ["scatlength", "--model", "v4", "--cn", "4.0", "--format", "json"])
        b1 = json.loads(text1)["rows"][0]["b"]
        b4 = json.loads(text4)["rows"][0]["b"]
        assert b4 / b1 == pytest.approx(2.0, rel=1e-3)


@pytest.mark.parametrize("command", ["reflect", "badlands", "wall"])
def test_two_energy_grids_are_a_usage_error(capsys, command):
    # --energy-e1 also reads --cn in atomic units: with both grids the
    # kappa*ell grid was solved on a strength in the other units
    with pytest.raises(SystemExit) as stop:
        main([command, "--model", "v4", "--kappa-ell", "0.3", "--energy-e1", "100"])
    assert stop.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ")
    assert "not allowed with argument" in err


@pytest.mark.parametrize("argv", [
    ["badlands", "--model", "v4", "--kappa-ell", "0.3", "--rtol", "1e-9"],
    ["wall", "--model", "v4", "--kappa-ell", "0.3", "--rtol", "1e-9"],
    ["scatlength", "--model", "v4", "--g", "9.8"],
], ids=["badlands-rtol", "wall-rtol", "scatlength-g"])
def test_unread_flag_is_a_usage_error(capsys, argv):
    # each subcommand takes only the flags it reads
    with pytest.raises(SystemExit) as stop:
        main(argv)
    assert stop.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_one_parser_serves_every_call(capsys):
    # the parser is built once per process; each call prints what a fresh
    # process prints, whatever subcommand ran before it (badlands has its
    # own default cut, which must not reach reflect)
    assert cli.build_parser() is cli.build_parser()
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    for argv in (["badlands", "--model", "v4", "--kappa-ell", "0.3", "--points", "3"],
                 ["reflect", "--model", "v4", "--kappa-ell", "0.3", "--method", "direct"],
                 ["wall", "--model", "v4", "--kappa-ell", "0.3", "--points", "3"]):
        assert main(argv) == 0
        fresh = subprocess.run([sys.executable, "-m", "qreflect.cli", *argv], capture_output=True,
                               text=True, check=True, env=env)
        assert tuple(capsys.readouterr()) == (fresh.stdout, fresh.stderr)
