"""Acceptance suite: the exit criteria of the package, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion. Tolerances are fixed here, not calibrated elsewhere.

The published comparison tables that rest on externally computed
Casimir-Polder potentials (material-specific b values and reflection
probabilities) are data-dependent and are exercised only through the
ingestion pipeline on synthetic input; see criterion 9.
"""

import math
import time

import numpy as np
from scipy.integrate import quad

from qreflect.liouville import (
    special_gauge,
    transform_f,
    universal_wall,
    wall_integral,
    wall_integral_closed,
)
from qreflect.mathieu import r4_curve, solve_v4
from qreflect.potentials import HomogeneousPotential, TabulatedPotential
from qreflect.scattering import (
    SolverControl,
    scattering_length,
    solve_coupled,
    solve_direct,
    solve_transformed,
)
from qreflect.wkb import WkbField, badlands_peak_x, inversion_center, universal_badlands

from helpers import log_map, v4


def report(num: int, description: str, ok: bool) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {num} failed: {description}"


def test_criterion_1_reference_reflection_values():
    t0 = time.perf_counter()
    refs = {0.119: 0.631, 0.190: 0.490, 0.237: 0.419}
    ok = True
    for kl, ref in refs.items():
        analytic = solve_v4(kl).R
        numeric = solve_direct(v4(kl), kl).R
        ok &= abs(analytic - ref) < 0.002 and abs(numeric - ref) < 0.002
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    report(1, f"universal R4 at 0.119/0.190/0.237 equals 63.1/49.0/41.9 % "
              f"(+-0.2 pp) by both solvers in {elapsed:.2f} s", ok)


def test_criterion_2_analytic_numeric_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for kl in (0.01, 0.03, 0.1, 0.3, 1.0, 3.0):
        gap = abs(solve_v4(kl).R - solve_direct(v4(kl), kl).R)
        worst = max(worst, gap)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 30.0
    report(2, f"analytic vs direct R4 within 1e-6 on six-point grid "
              f"(worst {worst:.2e}, {elapsed:.1f} s)", ok)


def test_criterion_3_gauge_invariance():
    t0 = time.perf_counter()
    worst = 0.0
    for kl in (0.05, 0.5):
        fld = WkbField(v4(kl), kl)
        direct = solve_direct(v4(kl), kl)
        wall = solve_transformed(special_gauge(fld)[1])
        worst = max(worst, abs(direct.r - wall.r), abs(direct.t - wall.t))
        # the paper's log gauge, in which -C4/z**4 is the modified Mathieu equation
        moved = solve_transformed(transform_f(log_map(fld.zeta), fld, fld.matching_domain()))
        worst = max(worst, abs(direct.r - moved.r), abs(direct.t - moved.t))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and elapsed < 10.0
    report(3, f"r and t invariant under the wall gauge and the log gauge ln(z/zeta) "
              f"(worst {worst:.2e}, {elapsed:.1f} s)", ok)


def test_criterion_4_scattering_length():
    result = scattering_length(HomogeneousPotential(4, 1.0))
    ratio = result.b / result.ell
    ok = 0.99 <= ratio <= 1.01 and result.fit_residual < 1e-4
    worst_law = 0.0
    for kappa in np.geomspace(1e-4, 1e-2, 8) / result.ell:   # kappa*ell = 1e-4 .. 1e-2
        r_num = solve_direct(HomogeneousPotential(4, 1.0), kappa * kappa).R
        law = 1.0 - 4.0 * kappa * result.b
        worst_law = max(worst_law, abs(r_num - law) / law)
    ok &= worst_law < 0.01
    report(4, f"b/ell = {ratio:.5f} with fit residual {result.fit_residual:.1e}; "
              f"low-energy law within {worst_law:.2%}", ok)


def test_criterion_5_wall_integral_constants():
    _, prob = special_gauge(WkbField(v4(0.3), 0.3))
    quad_value = wall_integral(prob)
    closed4 = wall_integral_closed(4)
    ok = abs(quad_value - closed4) < 1e-9
    ok &= abs(closed4 - 0.772531) < 5e-7   # six significant figures
    for n in (3, 5):
        direct, _ = quad(lambda x: universal_badlands(x, n) * math.sqrt(1.0 + x ** float(-n)),
                         0.0, np.inf, epsabs=1e-12, epsrel=1e-11, limit=400)
        ok &= abs(direct - wall_integral_closed(n)) < 1e-9
    ok &= badlands_peak_x(4) == 1.0
    report(5, f"wall integrals match Gamma closed forms to 1e-9 "
              f"(I4 = {closed4:.6f}); quartic peak abscissa exactly 1", ok)


def test_criterion_6_universal_wall_geometry():
    z_at_peak, height = universal_wall(1.0, 4)
    z_star = inversion_center()
    ok = height == 5.0 / 8.0 and abs(z_at_peak - z_star) < 1e-12
    # the wall is even under x -> 1/x: z_bold(x) + z_bold(1/x) = 2 z*, V_bold(x) = V_bold(1/x)
    residual = 0.0
    for x in np.geomspace(0.02, 1.0, 40).tolist():
        (zb_m, vb_m), (zb_p, vb_p) = universal_wall(x, 4), universal_wall(1.0 / x, 4)
        residual = max(residual, abs(zb_m + zb_p - 2.0 * z_star), abs(vb_m - vb_p))
    ok &= residual < 1e-10
    report(6, f"wall peak 5/8 at z* = {z_star:.6f} with mirror residual "
              f"{residual:.1e}", ok)


def test_criterion_7_structural_invariants():
    solves = [
        solve_direct(v4(0.05), 0.05),
        solve_direct(v4(0.5), 0.5),
        solve_direct(v4(2.0), 2.0),
        solve_coupled(v4(0.3), 0.3),
        solve_transformed(special_gauge(WkbField(v4(0.3), 0.3))[1]),
    ]
    lam, c3 = 3.0, 0.6
    z = np.geomspace(0.004, 4000.0, 1200)
    table = TabulatedPotential(z, -c3 / (z ** 3 * (1.0 + z / lam)),
                               cliff_c3=c3, far_c4=c3 * lam)
    solves.append(solve_direct(table, 0.02, SolverControl(q_match_rel=1e-7)))
    ok = True
    worst = {"unitarity": 0.0, "drift": 0.0, "current": 0.0}
    for res in solves:
        d = res.diagnostics
        worst["unitarity"] = max(worst["unitarity"], d.unitarity_residual)
        worst["drift"] = max(worst["drift"], d.wronskian_drift)
        worst["current"] = max(worst["current"], d.unitarity_residual / abs(res.t) ** 2)
    ok &= worst["unitarity"] < 1e-10
    ok &= worst["drift"] < 1e-9 and worst["current"] < 1e-10
    report(7, "every solve keeps ||S S+ - 1|| < 1e-10, "
              f"Wronskian drift < 1e-9, current < 1e-10 (worst {worst})", ok)


def test_criterion_8_monotonicity_and_limits():
    grid = np.geomspace(1e-3, 10.0, 40)
    table = r4_curve(grid)
    rs = table["R"]
    ok = all(a > b for a, b in zip(rs, rs[1:]))
    ok &= rs[0] > 0.99 and rs[-1] < 0.01
    report(8, f"R4 strictly decreasing over 40 log points with "
              f"R4(1e-3) = {rs[0]:.4f} > 0.99 and R4(10) = {rs[-1]:.2e} < 0.01", ok)


def test_criterion_9_external_data_pipeline():
    # The published material rows (silica/silicon/conductor reflection
    # probabilities and b values) require Casimir-Polder tabulations from
    # external electromagnetic calculations; they are reproducible through
    # this pipeline only when such a table is supplied, and are therefore
    # not asserted here. The pipeline itself is exercised end to end on a
    # synthetic two-tail table.
    lam, c3 = 3.0, 0.6
    z = np.geomspace(0.004, 4000.0, 1200)
    table = TabulatedPotential(z, -c3 / (z ** 3 * (1.0 + z / lam)),
                               cliff_c3=c3, far_c4=c3 * lam)
    ctl = SolverControl(q_match_rel=1e-7)
    res = solve_direct(table, 0.02, ctl)
    length = scattering_length(table, ctl)
    ok = 0.0 < res.R < 1.0 and res.diagnostics.unitarity_residual < 1e-10
    ok &= length.b > 0.0 and length.fit_residual < 1e-4
    # a full potential is not the pure quartic tail: b deviates from ell
    ok &= abs(length.b / length.ell - 1.0) > 1e-3
    report(9, "tabulated-potential pipeline reproduces the comparison flow on "
              "synthetic data (published material numbers are data-dependent "
              f"and excluded); here b/ell = {length.b / length.ell:.3f}", ok)
