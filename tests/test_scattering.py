"""Tests for the scattering solvers, their diagnostics and the scattering length."""

import cmath
import math
import os
import subprocess
import sys
import time
import warnings
from functools import partial

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.integrate import solve_ivp as scipy_solve_ivp

import qreflect.scattering as scattering

from qreflect.liouville import special_gauge, transform_f
from qreflect.mathieu import solve_v4
from qreflect.potentials import (
    BOHR_RADIUS,
    HARTREE,
    HBAR,
    M_HYDROGEN,
    HomogeneousPotential,
    TabulatedPotential,
    load_potential_table,
)
from qreflect.scattering import (
    SolverControl,
    scattering_length,
    solve_coupled,
    solve_direct,
    solve_ivp,
    solve_transformed,
    wronskian,
)
from qreflect.wkb import WkbField, threshold_wave

from helpers import e1_energy, log_map, shelf_table, two_tail_table, v4, write_cp_table


def solve_on(route: str, pot, energy: float, ctl: SolverControl | None = None):
    if route == "direct":
        return solve_direct(pot, energy, ctl)
    if route == "coupled":
        return solve_coupled(pot, energy, ctl)
    cut = (ctl or SolverControl()).q_match_rel
    return solve_transformed(special_gauge(WkbField(pot, energy), trunc_rel=cut)[1], ctl)


def solve_route(route: str, kl: float, ctl: SolverControl | None = None):
    return solve_on(route, v4(kl), kl, ctl)


def spy_integrations(monkeypatch, integrate=None) -> list:
    """Collect the results of ``scattering._integrate``, every route's
    integration, with the panel ends in z; ``integrate``, when given, stands
    in for ``scattering.solve_ivp``, the integrator beneath it on u = ln z."""
    sols = []
    on_log = scattering._integrate

    def call(*args, **kwargs):
        sols.append(on_log(*args, **kwargs))
        return sols[-1]

    if integrate is not None:
        monkeypatch.setattr(scattering, "solve_ivp", integrate)
    monkeypatch.setattr(scattering, "_integrate", call)
    return sols


ROUTES = ["direct", "coupled", "transformed"]


def pointwise(integrate, coefficients, ends, y0, rtol: float):
    """Stand in for ``scattering.solve_ivp``: integrate its y' = [[0, a], [b, 0]] y
    over the span of ``ends`` by ``integrate``, a DOP853 that knows no
    panels, with a and b read one point at a
    time (a one-node "panel" from z itself, whose running integral is
    zero). A run that scipy reports failed raises, as the panels do."""
    def rhs(z, y):
        a, b = (complex(np.ravel(c)[0]) for c in
                coefficients(np.array([[z]]), np.zeros_like))
        return (a * y[1], b * y[0])

    sol = integrate(rhs, (ends[0], ends[-1]), np.asarray(y0, dtype=complex), method="DOP853",
                    rtol=rtol, atol=1e-14 * max(abs(y0[0]), 1.0))
    if not sol.success:
        raise RuntimeError(f"integration failed: {sol.message}")
    return sol


def on_dop853(monkeypatch, integrate) -> None:
    """Run every route's integration through ``integrate``, a DOP853, in place
    of ``scattering.solve_ivp``."""
    monkeypatch.setattr(scattering, "solve_ivp", partial(pointwise, integrate))


def loop_solve_ivp(coefficients, ends, y0, rtol: float) -> scattering.OdeResult:
    """The reference for ``scattering.solve_ivp``: a loop over the panels in
    order, each solved alone on the rule of n = ``_PHASE_NODES`` nodes in the integral form
    [[1, -S a], [-S b, 1]] (U, V) = (u_a, v_a) on all 2 x n unknowns,
    nothing eliminated, for the two unit starts, with the same tail test; a
    panel that fails it is replaced by its two halves, left first. The
    cases here all succeed."""
    tol, n = max(rtol, 1e-14), scattering._PHASE_NODES
    y = np.array(y0, dtype=complex)
    ts, ys, nfev = [float(ends[0])], [y], 0
    todo = list(zip(map(float, ends[:-1]), map(float, ends[1:])))[::-1]
    x, s_ref, w_ref, tail_ref = scattering._chebyshev_rule(n)
    while todo:
        z_a, z_b = todo.pop()
        starts = np.kron(np.eye(2), np.ones((n, 1)))   # (1, 0) and (0, 1) at every node
        half = 0.5 * (z_b - z_a)
        assert half >= 5.0 * (math.nextafter(z_a, math.inf) - z_a)
        zs = z_a + half * (x + 1.0)
        a, b = (np.broadcast_to(c, (1, n))[0] for c in
                coefficients(zs[None, :], lambda f: half * (f @ s_ref.T)))
        nfev += n
        assert np.isfinite(a).all() and np.isfinite(b).all()
        s = half * s_ref
        lhs = np.block([[np.eye(n), -s * a], [-s * b, np.eye(n)]])
        cols = np.linalg.solve(lhs, starts).T.reshape(2, 2, n)   # [column, (U, V), node]
        tails = np.abs(cols @ tail_ref.T).max(axis=(1, 2))
        if not (tails <= tol * np.abs(cols).max(axis=(1, 2))).all():
            mid = z_a + half
            todo += [(mid, z_b), (z_a, mid)]
            continue
        weights = half * w_ref
        y = (np.eye(2) + np.array([[weights @ (a * cols[c, 1]) for c in range(2)],
                                   [weights @ (b * cols[c, 0]) for c in range(2)]])) @ y
        ts.append(z_b)
        ys.append(y)
    return scattering.OdeResult(np.array(ts), np.array(ys).T, nfev)


def panel_spans(zs):
    """The start and half width of each panel whose Chebyshev nodes are the
    rows of ``zs``, to rounding."""
    x = scattering._chebyshev_rule(zs.shape[1])[0]
    half = (zs[:, -1] - zs[:, 0]) / (x[-1] - x[0])
    return zs[:, 0] - half * (x[0] + 1.0), half


KERNEL_CASES = [f"{route}-{kl}" for route in ROUTES for kl in (0.119, 1.0, 10.0)] + [
    "table", "decay", "oscillators"]


def run_kernel_case(case: str) -> None:
    """Integrate once through ``scattering.solve_ivp``."""
    if case == "decay":   # u'' = 2 u / (1 + z)**2 from u = 1/(1 + z), one first panel
        scattering.solve_ivp(lambda zs, running: (1.0, 2.0 / (1.0 + zs) ** 2),
                             (0.0, 5.0), (1.0, -1.0), rtol=1e-10)
    elif case == "oscillators":   # u'' = -(4 + cos z) u, complex start, two first panels
        scattering.solve_ivp(lambda zs, running: (1.0, -(4.0 + np.cos(zs))),
                             (0.0, 3.5, 7.0), (1.0, 0.5j), rtol=1e-11)
    elif case == "table":   # the default cut starts below the table, on its cliff tail
        solve_direct(two_tail_table(), 0.02)
    else:
        route, kl = case.split("-")
        solve_route(route, float(kl))


class TestScalarDop853:
    """References for the Chebyshev panels of ``scattering.solve_ivp``:
    scipy's DOP853, reading each route's coefficients one point at a time,
    and ``loop_solve_ivp``, one panel at a time."""

    @pytest.mark.parametrize("kl", [0.119, 1.0, 10.0, "cp"])
    @pytest.mark.parametrize("route", ROUTES)
    def test_same_steps_as_scipy(self, monkeypatch, tmp_path, route, kl):
        # the routes' systems go through DOP853 here, pointwise, and land on
        # the routes' own r: two integrators, one r (2.3e-12 at worst, wall
        # route at kappa*ell = 0.119; x86-64 with OpenBLAS). Its steps in u
        # come back in z as the matching ends, the same floats, and e**u of
        # every other step: on the cp table at E1 x 100 the breaks z = 1 and
        # 4e4 lie inside the domain, off the steps, and no step takes them
        if kl == "cp":
            pot, energy = load_potential_table(write_cp_table(tmp_path)), e1_energy(100.0)
        else:
            pot, energy = v4(kl), kl
        sols = []

        def record(*args, **kwargs):
            sols.append(scipy_solve_ivp(*args, **kwargs))
            return sols[-1]

        on_dop853(monkeypatch, record)
        spied = spy_integrations(monkeypatch)
        ref = solve_on(route, pot, energy)
        monkeypatch.undo()
        (sol,), (in_z,) = sols, spied
        assert sol.success and len(sol.t) > 20
        domain = WkbField(pot, energy).matching_domain(SolverControl().q_match_rel)
        assert (in_z.t[0], in_z.t[-1]) == domain
        np.testing.assert_array_equal(in_z.t[1:-1], np.exp(sol.t[1:-1]))
        assert abs(solve_on(route, pot, energy).r - ref.r) < 1e-10

    @pytest.mark.parametrize("case", KERNEL_CASES)
    def test_kernel_matches_loop(self, monkeypatch, case):
        # the batches of panels, one component eliminated, take the loop's
        # panels, halved ones included, and land on its states: 3.7e-14 of
        # the largest component at worst (direct, kappa*ell = 10; x86-64 with
        # OpenBLAS). Both run in the integrator's own variable, u = ln z for
        # the routes
        pairs = []

        def both(*args, **kwargs):
            pairs.append((solve_ivp(*args, **kwargs), loop_solve_ivp(*args, **kwargs),
                          len(args[1]) - 1))
            return pairs[-1][0]

        monkeypatch.setattr(scattering, "solve_ivp", both)
        if case in ("decay", "oscillators"):   # a 12-node rule halves their first panels
            monkeypatch.setattr(scattering, "_PHASE_NODES", 12)
        run_kernel_case(case)
        ((sol, ref, first),) = pairs
        assert np.array_equal(sol.t, ref.t)
        assert sol.nfev == ref.nfev
        assert len(sol.t) > 4
        assert (np.abs(sol.y - ref.y) < 1e-13 * np.abs(ref.y).max(axis=0)).all()
        if case.startswith("coupled") or case in ("decay", "oscillators"):
            assert len(sol.t) - 1 > first   # halved panels; the others pass every first panel
        if case == "decay":
            np.testing.assert_allclose(sol.y[0], 1.0 / (1.0 + sol.t), rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("case", KERNEL_CASES)
    def test_one_panel_a_batch(self, monkeypatch, case):
        # a batch only groups panels: one panel a batch (a budget of n**2
        # entries) takes the panels and evaluations of one batch a round and
        # lands on its states to rounding
        runs = []

        def record(*args, **kwargs):
            runs[-1].append(solve_ivp(*args, **kwargs))
            return runs[-1][-1]

        monkeypatch.setattr(scattering, "solve_ivp", record)
        if case in ("decay", "oscillators"):   # as in test_kernel_matches_loop
            monkeypatch.setattr(scattering, "_PHASE_NODES", 12)
        for budget in (scattering._BUDGET, scattering._PHASE_NODES ** 2):
            monkeypatch.setattr(scattering, "_BUDGET", budget)
            runs.append([])
            run_kernel_case(case)
        (sol,), (single,) = runs
        assert np.array_equal(sol.t, single.t)
        assert sol.nfev == single.nfev
        assert (np.abs(sol.y - single.y) < 1e-13 * np.abs(sol.y).max(axis=0)).all()

    def test_one_batch_a_round(self, monkeypatch):
        # each round of panels is one batch, one call of the coefficients: on
        # v4 at kappa*ell = 10 a coupled solve's 39 first panels, then the
        # halves of the 7 that fail
        firsts, batches = [], []

        def counted(coefficients, ends, *args, **kwargs):
            def count(zs, running):
                batches.append(len(zs))
                return coefficients(zs, running)
            firsts.append(len(ends) - 1)
            return solve_ivp(count, ends, *args, **kwargs)

        sols = spy_integrations(monkeypatch, counted)
        solve_route("coupled", 10.0)
        (sol,), (first,) = sols, firsts
        halved = len(sol.t) - 1 - first
        assert first == 39 and halved >= 1
        assert batches == [first, 2 * halved]

    def test_nan_rhs_fails_like_scipy(self):
        # b turns NaN at z = 2: scipy's DOP853 creeps up to it and gives up
        # below ten ulps of z; the panels raise at the batch that meets it
        evals = []

        def coefficients(zs, running):
            evals.append(zs.size)
            return 1.0, np.where(zs < 2.0, -1.0, np.nan)

        ends = np.linspace(0.0, 10.0, 11)
        with pytest.raises(RuntimeError, match="integration failed: Coefficients are not finite."):
            solve_ivp(coefficients, ends, (1.0, 0.0), rtol=1e-10)
        assert evals == [10 * scattering._PHASE_NODES]
        refs = []

        def record(*args, **kwargs):
            refs.append(scipy_solve_ivp(*args, **kwargs))
            return refs[-1]

        with np.errstate(invalid="ignore"), pytest.raises(RuntimeError, match="integration failed"):
            pointwise(record, coefficients, ends, (1.0, 0.0), rtol=1e-10)
        (ref,) = refs
        assert not ref.success
        assert 1.9 < ref.t[-1] < 2.0

    def test_nan_from_the_start_fails_at_once(self, monkeypatch):
        # NaN at the first node: the run raises after the first batch of
        # panels and evaluates none of the others; a batch holds as many
        # panels of n nodes as the budget of n**2 entries each
        for n in (12, scattering._PHASE_NODES):
            monkeypatch.setattr(scattering, "_PHASE_NODES", n)
            batch = scattering._BUDGET // (n * n)
            ends = np.linspace(0.0, 1.0, 3 * batch + 1)
            evals = []

            def coefficients(zs, running):
                evals.append(zs.size)
                return math.nan, math.nan

            with pytest.raises(RuntimeError, match="Coefficients are not finite"):
                solve_ivp(coefficients, ends, (1.0, 0.0), rtol=1e-10)
            assert evals == [batch * n]

    def test_span_must_run_forward(self):
        with pytest.raises(ValueError, match="does not run forward"):
            solve_ivp(lambda zs, running: (1.0, -1.0), (1.0, 0.0), (1.0, 0.0), rtol=1e-10)
        with pytest.raises(ValueError, match="does not run forward"):
            solve_ivp(lambda zs, running: (1.0, -1.0), (0.0, 2.0, 1.0, 3.0), (1.0, 0.0),
                      rtol=1e-10)

    def test_failed_integration_raises(self, monkeypatch):
        fld = WkbField(v4(1.0), 1.0)
        z_min, z_max = fld.matching_domain(SolverControl().q_match_rel)
        z_nan = math.sqrt(z_min * z_max)
        f_coeff = WkbField.f_coeff
        monkeypatch.setattr(WkbField, "f_coeff",
                            lambda self, z: np.where(z < z_nan, f_coeff(self, z), np.nan))
        with pytest.raises(RuntimeError, match="integration failed: Coefficients are not finite"):
            solve_direct(v4(1.0), 1.0)


class TestCollocate:
    """``scattering.solve_ivp``, every route's Chebyshev-panel integrator."""

    def test_oscillator_over_many_radians(self, monkeypatch):
        # y'' = -omega**2 y across 600 rad from y = e^(i omega (z - 1)), from
        # one first panel, halved alike until the panels pass: to 1024
        # panels of 12 nodes, 32 of 32
        omega = 12.0
        for n, least in ((12, 100), (scattering._PHASE_NODES, 30)):
            monkeypatch.setattr(scattering, "_PHASE_NODES", n)
            sol = solve_ivp(lambda zs, running: (1.0, -omega * omega),
                            (1.0, 51.0), (1.0, 1j * omega), rtol=1e-12)
            assert sol.t[-1] == 51.0 and len(sol.t) > least
            assert np.ptp(np.diff(sol.t)) == 0.0
            wave = np.exp(1j * omega * (sol.t - 1.0))
            np.testing.assert_allclose(sol.y[0], wave, rtol=0.0, atol=1e-11)
            np.testing.assert_allclose(sol.y[1] / omega, 1j * wave, rtol=0.0, atol=1e-11)

    def test_both_columns_pass_the_tail_test(self, monkeypatch):
        # with b = 0 only the column started on (0, 1) moves, u = int a: a
        # panel passed on the other column alone would stay 10 rad wide
        monkeypatch.setattr(scattering, "_PHASE_NODES", 12)
        sol = solve_ivp(lambda zs, running: (np.cos(20.0 * zs), 0.0),
                        (0.0, 10.0), (0.0, 1.0), rtol=1e-12)
        assert len(sol.t) > 30
        np.testing.assert_allclose(sol.y[0], np.sin(20.0 * sol.t) / 20.0, rtol=0.0, atol=1e-13)
        np.testing.assert_array_equal(sol.y[1], 1.0)

    def test_panels_cross_the_knots(self, monkeypatch):
        # V'' is continuous on a table, V'' of the wall's F_t included, so
        # the panels run across the spline's knots: a few dozen panels for
        # some 100 knots, and r within 5e-12 of the solve whose panels end
        # on every knot, at a tighter tolerance
        fld = WkbField(two_tail_table(), 0.02)
        prob = special_gauge(fld, trunc_rel=1e-6)[1]
        knots = np.exp(fld.potential.log_knots()[2:-2])   # the knots between the end nodes
        z_min, z_max = prob.domain
        inside = knots[(knots > z_min) & (knots < z_max)]
        sols = spy_integrations(monkeypatch)
        crossing = solve_transformed(prob)
        (sol,) = sols
        assert len(inside) > 100 and len(sol.t) < 60
        assert not np.isin(inside, sol.t).any()
        first_partition = scattering._first_partition

        def ended_on_the_knots(*args):
            u, points = first_partition(*args)
            return np.union1d(u, np.log(inside)), np.union1d(points, inside)

        monkeypatch.setattr(scattering, "_first_partition", ended_on_the_knots)
        ended = solve_transformed(prob, SolverControl(rtol=1e-13))
        assert np.isin(inside, sols[-1].t).all()
        assert abs(crossing.r - ended.r) <= 5e-12

    def test_nan_coefficient_fails(self, monkeypatch):
        # as ``TestScalarDop853.test_failed_integration_raises`` for direct
        fld = WkbField(v4(1.0), 1.0)
        z_min, z_max = fld.matching_domain(SolverControl().q_match_rel)
        z_nan = math.sqrt(z_min * z_max)
        prob = special_gauge(fld)[1]
        f_coeff, k_q = WkbField.f_coeff, WkbField.k_q
        monkeypatch.setattr(WkbField, "f_coeff",
                            lambda self, z: np.where(z < z_nan, f_coeff(self, z), np.nan))
        with pytest.raises(RuntimeError, match="integration failed: Coefficients are not finite"):
            solve_coupled(v4(1.0), 1.0)
        monkeypatch.setattr(WkbField, "k_q",
                            lambda self, z: np.where(z < z_nan, k_q(self, z), np.nan))
        with pytest.raises(RuntimeError, match="integration failed: Coefficients are not finite"):
            solve_transformed(prob)
        # the integrator itself raises and says why, after one batch of
        # both panels
        n, evals = scattering._PHASE_NODES, []

        def coefficients(zs, running):
            evals.append(zs.size)
            return 1.0, np.where(zs < 2.0, -1.0, np.nan)

        with pytest.raises(RuntimeError, match="integration failed: Coefficients are not finite."):
            solve_ivp(coefficients, (0.0, 1.0, 3.0), (1.0, 0.0), rtol=1e-10)
        assert evals == [2 * n]

    def test_rules_on_the_table(self):
        # one rule on every potential: on a table, as on V_n, each first
        # panel spans at most _PHASE_DU of u = ln z, or the phase table's
        # _PANEL_DU across the spline's knots where the route gives them
        # (the wall route), and about _PHASE_RAD of phi (its gap is cut
        # evenly in u), among the nodes as on the tails, and the panels end
        # on the table's breaks
        fld = WkbField(two_tail_table(), 0.02)
        domain = fld.matching_domain()
        pot = fld.potential
        inside = pot.breaks[(pot.breaks > domain[0]) & (pot.breaks < domain[1])]
        for knots, across in (((), scattering._PHASE_DU), (pot.log_knots(), scattering._PANEL_DU)):
            u, points = scattering._first_partition(domain, fld.k, pot.breaks, knots)
            np.testing.assert_array_equal(points, [domain[0], *inside, domain[1]])
            assert (u[0], u[-1]) == tuple(np.log(domain))
            assert np.isin(np.log(inside), u).all()
            ends = np.exp(u)
            phase = np.diff(fld.phi(ends))
            on_knots = (ends[:-1] >= pot.z_min) & (ends[1:] <= pot.z_max)
            width = np.where(on_knots, across, scattering._PHASE_DU)
            assert (np.diff(u) <= width * (1.0 + 1e-12)).all()
            assert (phase < 2.0 * scattering._PHASE_RAD).all()
            assert ((ends > pot.z_min) & (ends < pot.z_max)).sum() >= 10
            assert len(ends) < 60

    @pytest.mark.parametrize("case", ["v4-0.119", "v4-10", "cp-e1x100", "cp-e1x100-knots",
                                      "cp-threshold"])
    def test_partition_unchanged(self, tmp_path, case):
        # _first_partition with a field's k gives the ends of the reference
        # in u, which reads the field's phi, bit for bit, with and without a
        # table's knots; at E = 0 (scattering_length's solve, from the cliff
        # tail's top to the far tail's start) with sqrt(-V), against quad's
        # phase; ln of each point is among the ends as the same float
        if case.startswith("v4"):
            kl = float(case.split("-")[1])
            pot, energy = v4(kl), kl
        else:
            pot, energy = load_potential_table(write_cp_table(tmp_path)), e1_energy(100.0)
        knots = pot.log_knots() if case.endswith("knots") else ()
        if case == "cp-threshold":
            domain = (pot.tails[0][2], pot.tails[1][2])

            def k(z):
                return np.sqrt(-pot.value(z))

            phases = partial(quad_phases, k)
        else:
            fld = WkbField(pot, energy)
            domain = fld.matching_domain()
            k, phases = fld.k, lambda z: np.diff(fld.phi(z))
        u, points = scattering._first_partition(domain, k, pot.breaks, knots)
        np.testing.assert_array_equal(u, joined_partition(pot, domain, knots, phases))
        assert np.isin(np.log(points), u).all()

    def test_halves_keep_the_rule(self, monkeypatch):
        # 60 rad on every first panel fails the rule: each half is solved on
        # the rule, down to the accepted panels, halved more than once
        first = np.linspace(0.0, 4.0, 5)
        for n in (12, scattering._PHASE_NODES):
            monkeypatch.setattr(scattering, "_PHASE_NODES", n)
            panels = []

            def coefficients(zs, running):
                z_a, half = panel_spans(zs)
                panels.extend(zip(z_a, z_a + 2.0 * half, [zs.shape[1]] * len(zs)))
                return 1.0, -3600.0

            sol = solve_ivp(coefficients, first, (1.0, 60j), rtol=1e-12)
            assert sol.nfev == n * len(panels)
            np.testing.assert_allclose(sol.y[0], np.exp(60j * sol.t), rtol=0.0, atol=1e-10)
            assert len(panels) > len(first) + 10
            assert {m for _, _, m in panels} == {n}
            assert len({round(z_b - z_a, 9) for z_a, z_b, _ in panels}) > 2

    @pytest.mark.parametrize("rtol", [1e-4, 1e-12])
    def test_retried_panels_shrink(self, monkeypatch, rtol):
        # only the panels that fail the tail test are solved again, halved;
        # the accepted ones stay as they are (a tail a hair above tol once
        # retried one panel forever: v4 with C4 = 1 at E = 100, rtol 1e-4).
        # A first partition of 120 rad per panel makes many of them fail
        monkeypatch.setattr(scattering, "_PHASE_RAD", 120.0)
        panels, firsts = [], []

        def recorded(coefficients, ends, *args, **kwargs):
            def record(zs, running):
                panels.extend(zip(*panel_spans(zs)))
                return coefficients(zs, running)
            firsts.append(len(ends) - 1)
            return solve_ivp(record, ends, *args, **kwargs)

        pot, ctl = HomogeneousPotential(4, 1.0), SolverControl(rtol=rtol)
        for solve in (partial(solve_coupled, pot, 100.0, ctl),
                      lambda: solve_transformed(special_gauge(WkbField(pot, 100.0))[1], ctl)):
            panels.clear()
            firsts.clear()
            sols = spy_integrations(monkeypatch, recorded)
            solve()
            (sol,), (first,) = sols, firsts
            assert sol.nfev == scattering._PHASE_NODES * len(panels)
            assert len(panels) > first
            # each later panel is one half of an earlier one, and each panel
            # that was halved has both halves
            z_a, half = np.array(panels).T
            parents = []
            for i in range(first, len(panels)):
                left = np.isclose(z_a[:i], z_a[i], rtol=1e-12, atol=0.0)
                right = np.isclose(z_a[:i] + half[:i], z_a[i], rtol=1e-12, atol=0.0)
                halved = np.isclose(half[:i], 2.0 * half[i], rtol=1e-9)
                (parent,) = np.nonzero((left | right) & halved)[0]
                parents.append(parent)
            assert all(count == 2 for count in np.unique(parents, return_counts=True)[1])
            # each halved panel adds one panel in the end: no accepted panel
            # is solved again
            assert len(sol.t) - 1 == first + len(parents) // 2

    @pytest.mark.parametrize("route", ROUTES)
    def test_rtol_below_the_floor(self, route):
        # below the panel test's rounding floor the floor governs: no panel
        # is halved forever
        start = time.perf_counter()
        tight = solve_route(route, 10.0, SolverControl(rtol=1e-15))
        assert time.perf_counter() - start < 5.0
        assert abs(tight.r - solve_route(route, 10.0).r) < 1e-11

    def test_nothing_built_at_import(self):
        # the Chebyshev rule is built on first use: importing the package
        # builds nothing
        code = ("import qreflect, qreflect.scattering as s; "
                "print(s._chebyshev_rule.cache_info().currsize)")
        src = os.path.dirname(os.path.dirname(scattering.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, env=env)
        assert out.stdout.strip() == "0"


def joined_partition(pot, domain, knots, phases):
    """The first partition in one function: the reference for
    ``scattering._first_partition``, its ends in u = ln z. Each gap between
    the domain's ends and the breaks of ``pot`` inside is cut evenly in u
    into parts no wider than ``_PHASE_DU``, or ``_PANEL_DU`` where it holds
    one of ``knots``, and each part evenly in u by its phase, which
    ``phases(z)`` gives between each two of the parts' ends z."""
    z_min, z_max = domain
    points = np.array([z_min, *pot.breaks[(pot.breaks > z_min) & (pot.breaks < z_max)], z_max])
    u, knots = np.log(points), np.asarray(knots)
    ends = []
    for a, b in zip(u[:-1], u[1:]):
        width = scattering._PANEL_DU if ((knots > a) & (knots < b)).any() else scattering._PHASE_DU
        count = math.ceil((b - a) / width)
        coarse = np.append(a + np.arange(count) * ((b - a) / count), b)
        parts = np.maximum(np.ceil(phases(np.exp(coarse)) / scattering._PHASE_RAD), 1.0)
        for c, d, p in zip(coarse[:-1], coarse[1:], parts.astype(int)):
            ends.extend(c + np.arange(p) * ((d - c) / p))
    return np.array(ends + [u[-1]])


def quad_phases(k, z):
    """int k dz between each two of the ascending points ``z`` by quad."""
    return np.array([quad(k, a, b, epsabs=0.0, epsrel=1e-13)[0] for a, b in zip(z[:-1], z[1:])])


class TestCliffStart:
    # accepted panels and node evaluations of each route on v4 at the default
    # cut (n = 4 keeps the WKB start), within 10%: the panel tests pass
    # through BLAS and LAPACK, whose kernels differ between CPUs
    V4_WORK = {
        (1e-3, "direct"): (7, 224), (1e-3, "coupled"): (7, 224),
        (1e-3, "transformed"): (7, 224),
        (0.119, "direct"): (9, 288), (0.119, "coupled"): (10, 352),
        (0.119, "transformed"): (9, 288),
        (1.0, "direct"): (15, 480), (1.0, "coupled"): (17, 608),
        (1.0, "transformed"): (15, 480),
        (10.0, "direct"): (39, 1248), (10.0, "coupled"): (46, 1696),
        (10.0, "transformed"): (39, 1248),
    }

    @pytest.mark.parametrize("kl", [1e-3, 0.119, 1.0, 10.0])
    @pytest.mark.parametrize("route", ["direct", "coupled", "transformed"])
    def test_quartic_starts_on_the_wkb_wave(self, monkeypatch, route, kl):
        sols = spy_integrations(monkeypatch)
        solve_route(route, kl)
        (sol,) = sols
        fld = WkbField(v4(kl), kl)
        z_min, z_max = fld.matching_domain(SolverControl().q_match_rel)
        assert (sol.t[0], sol.t[-1]) == (z_min, z_max)
        wave = fld.wkb_pair(z_min)[1]
        if route == "direct":
            start = wave
        elif route == "coupled":
            start = scattering._decompose(*wave, *scattering._adiabatic_pair(fld, z_min))
        else:
            start = special_gauge(fld)[1].carry(z_min, wave)
        assert tuple(sol.y[:, 0].tolist()) == start
        work = (len(sol.t) - 1, sol.nfev)
        assert work == pytest.approx(self.V4_WORK[kl, route], rel=0.1)

    def test_routes_share_the_threshold_wave(self, monkeypatch):
        # each route's start state maps back to the same (Psi, Psi') at z_min;
        # the panels run on u = ln z, yet each route starts and ends on the
        # matching domain bit for bit, and the table's break inside it, z =
        # 0.004, is a panel end in z, the same float: e**(ln z) misses all three
        pot, energy = two_tail_table(), 0.02
        sols = spy_integrations(monkeypatch)
        res = [solve_direct(pot, energy), solve_coupled(pot, energy),
               solve_transformed(special_gauge(WkbField(pot, energy))[1])]
        fld = WkbField(pot, energy)
        z_min, z_max = fld.matching_domain(SolverControl().q_match_rel)
        assert fld.on_threshold_tail(z_min)
        psi, dpsi = fld.cliff_wave(z_min)
        inside = pot.breaks[(pot.breaks > z_min) & (pot.breaks < z_max)]
        assert len(inside) == 1
        for sol in sols:
            assert (sol.t[0], sol.t[-1]) == (z_min, z_max)
            assert np.isin(inside, sol.t).all()
        direct, coupled, wall = (sol.y[:, 0].tolist() for sol in sols)
        assert direct == [psi, dpsi]
        k, phi = fld.k(z_min), fld.phi(z_min)
        wp, wm = k ** -0.5 * cmath.exp(1j * phi), k ** -0.5 * cmath.exp(-1j * phi)
        bp, bm = coupled
        assert bp * wp + bm * wm == pytest.approx(psi, rel=1e-14)
        assert 1j * k * (bp * wp - bm * wm) == pytest.approx(dpsi, rel=1e-14)
        vk = math.sqrt(special_gauge(fld)[1].e_bold)
        root = math.sqrt(k / vk)
        assert wall[0] / root == pytest.approx(psi, rel=1e-14)
        assert wall[1] * root - fld.dk(z_min) / (2.0 * k) * psi == pytest.approx(dpsi, rel=1e-13)
        for other in res[1:]:
            assert abs(other.r - res[0].r) < 1e-9

    def test_routes_report_the_start_error(self):
        # at a threshold start the cliff-side residual is E z**3/C_3 <= cut,
        # not Q(z_min), which is about 4.5e-4 here
        pot, energy = two_tail_table(), 0.02
        fld = WkbField(pot, energy)
        z_min, _ = fld.matching_domain(SolverControl().q_match_rel)
        expected = energy * z_min ** 3 / pot.tails[0][1]
        for res in (solve_direct(pot, energy), solve_coupled(pot, energy),
                    solve_transformed(special_gauge(fld)[1])):
            assert res.diagnostics.matching_q_left == expected
            assert expected <= SolverControl().q_match_rel * (1.0 + 1e-14)

    def test_table_error_is_linear_in_the_cut(self):
        # the threshold start errs by E z**3/C_3 <= cut and the far end by
        # about Q there, so r converges like the cut: 8 to 34 cut here
        pot = two_tail_table()
        ref = solve_direct(pot, 0.02, SolverControl(q_match_rel=1e-13)).r
        for cut in (1e-8, 1e-10, 1e-12):
            assert abs(solve_direct(pot, 0.02, SolverControl(q_match_rel=cut)).r - ref) < 50.0 * cut

    # r of the direct route on the shelf table at E = 1e-6 and cut 1e-13,
    # whose domain runs from the cliff tail's top, 4e-4, to the far law's
    # crossing, 7601
    SHELF_R = -0.99432400270218 + 0.00022645778j

    @pytest.mark.filterwarnings("ignore:badlands appears multimodal")
    @pytest.mark.parametrize("cut, bound", [(1e-10, 1e-6), (1e-3, 5e-3)])
    @pytest.mark.parametrize("route", ["direct", "coupled", "transformed"])
    def test_shelf_domain_keeps_the_dip(self, route, cut, bound):
        # at E = 1e-6 the shelf table's Q falls to -0.36 Q_peak at z = 10.1,
        # below its peak at 36: a domain whose cliff end stops above that dip,
        # where Q changes sign, leaves r 1.2e-2 off at every cut
        r = solve_on(route, shelf_table(), 1e-6, SolverControl(q_match_rel=cut)).r
        assert abs(r - self.SHELF_R) < bound


class TestWronskian:
    def test_antisymmetry_and_self(self):
        psi = (0.3 + 0.1j, -0.2 + 0.8j)
        phi = (1.1 - 0.4j, 0.5 + 0.2j)
        assert wronskian(psi, psi) == 0.0
        assert wronskian(psi, phi) == -wronskian(phi, psi)

    def test_wkb_pair_normalization(self):
        fld = WkbField(v4(0.3), 0.3)
        for z in (0.3, 1.0, 8.0):
            wave = fld.wkb_pair(z)[0]
            conj = (wave[0].conjugate(), wave[1].conjugate())
            assert wronskian(conj, wave) == pytest.approx(2j, rel=1e-12)

    def test_drift_diagnostic_small(self):
        res = solve_direct(v4(0.3), 0.3)
        assert res.diagnostics.wronskian_drift < 1e-9

    @pytest.mark.parametrize("route", ["direct", "coupled", "transformed"])
    def test_no_dense_output(self, monkeypatch, route):
        # the drift is read from the states at the panel ends, which the
        # propagators give with no interpolant: node evaluations stay under
        # twice those of the accepted panels, retries included
        sols = spy_integrations(monkeypatch)
        res = solve_route(route, 1.0)
        (sol,) = sols
        assert sol.y.shape == (2, len(sol.t))
        assert sol.nfev < 2 * scattering._PHASE_NODES * (len(sol.t) - 1)
        assert res.diagnostics.wronskian_drift < 1e-9

    @pytest.mark.parametrize("route", ROUTES)
    def test_drift_sees_a_disturbed_panel_end(self, monkeypatch, route):
        # every route's drift reads W = Im(Psi* Psi') at every panel end:
        # states scaled by 1 + 1e-6 from the middle end on scale W by about
        # 1 + 2e-6 there
        def disturbed(*args):
            sol = solve_ivp(*args)
            sol.y[:, len(sol.t) // 2:] *= 1.0 + 1e-6
            return sol

        monkeypatch.setattr(scattering, "solve_ivp", disturbed)
        for pot, energy in ((v4(0.119), 0.119), (two_tail_table(), 0.02)):
            assert solve_on(route, pot, energy).diagnostics.wronskian_drift > 1e-7


class TestFluxDiagnostics:
    """``unitarity_residual`` is the far-end flux balance of the coefficients
    (c+, c-), ||c-|**2 - |c+|**2 - 1| times |t|**2 = 1/|c-|**2: the
    max |S S^+ - 1| of S = [[t, r], [r', t]], r' = -conj(c+) t."""

    @staticmethod
    def solves():
        for route in ROUTES:
            for kl in (1e-3, 0.119, 1.0, 10.0):
                yield solve_route(route, kl)
            yield solve_on(route, two_tail_table(), 0.02)

    def test_one_flux_balance(self):
        # to rounding of the S entries, all at most 1 (1.65 eps seen)
        eps = np.finfo(float).eps
        for res in self.solves():
            d, r, t = res.diagnostics, res.r, res.t
            s = np.array([[t, r], [-(r / t).conjugate() * t, t]])
            reference = np.max(np.abs(s @ s.conj().T - np.eye(2)))
            assert abs(d.unitarity_residual - reference) <= 8.0 * eps
            assert d.unitarity_residual / abs(t) ** 2 < 1e-10

    def test_no_incoming_wave_raises(self, monkeypatch):
        # c- = 0 leaves r and t undefined
        decompose = scattering._decompose

        def no_incoming(*args):
            cp, cm = decompose(*args)
            return cp, 0.0 * cm

        monkeypatch.setattr(scattering, "_decompose", no_incoming)
        with pytest.raises(ZeroDivisionError):
            solve_direct(v4(0.119), 0.119)


class TestSolveDirect:
    def test_matches_analytic_quartic(self):
        res = solve_direct(v4(0.1), 0.1)
        ana = solve_v4(0.1)
        assert abs(res.R - ana.R) < 1e-6

    def test_reflection_decays_with_energy(self):
        values = [solve_direct(v4(kl), kl).R for kl in (0.3, 1.0, 3.0, 10.0)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 0.01

    def test_structural_invariants(self):
        for kl in (0.03, 0.4, 2.0):
            res = solve_direct(v4(kl), kl)
            d = res.diagnostics
            assert d.unitarity_residual < 1e-10
            assert d.wronskian_drift < 1e-9
            assert d.unitarity_residual / abs(res.t) ** 2 < 1e-10
            assert 0.0 <= res.R <= 1.0
            assert abs(res.r) ** 2 + abs(res.t) ** 2 == pytest.approx(1.0, abs=1e-10)

    def test_matching_points_reported(self):
        ctl = SolverControl(q_match_rel=1e-9)
        fld = WkbField(v4(0.3), 0.3)
        _, q_peak = fld.q_peak()
        res = solve_direct(v4(0.3), 0.3, ctl)
        assert res.diagnostics.matching_q_left == pytest.approx(1e-9 * q_peak, rel=1e-5)
        assert res.diagnostics.matching_q_right == pytest.approx(1e-9 * q_peak, rel=1e-5)

    @pytest.mark.parametrize("value", ["zero", "bound", "nan"])
    @pytest.mark.parametrize("knob, bound, message", [
        ("rtol", 1e-3, "rtol out of range"),
        ("q_match_rel", 1.0, r"q_match_rel must lie in \(0, 1\)"),
    ], ids=["rtol", "q_match_rel"])
    def test_control_out_of_range_rejected(self, knob, bound, message, value):
        # each knob lies in an open interval: its ends and nan are rejected
        with pytest.raises(ValueError, match=message):
            SolverControl(**{knob: {"zero": 0.0, "bound": bound, "nan": math.nan}[value]})

    def test_truncation_insensitive_beyond_badlands(self):
        # shrinking the matched window to where Q is significant changes
        # nothing at the 1e-6 level: the coupling lives on the badlands
        base = solve_direct(v4(0.3), 0.3, SolverControl(q_match_rel=1e-13)).R
        trunc = solve_direct(v4(0.3), 0.3, SolverControl(q_match_rel=1e-10)).R
        assert abs(base - trunc) < 1e-6


class TestSolveCoupled:
    def test_agrees_with_direct(self):
        for kl in (0.05, 0.3, 1.0):
            a = solve_direct(v4(kl), kl)
            b = solve_coupled(v4(kl), kl)
            assert abs(a.r - b.r) < 1e-8
            assert abs(a.t - b.t) < 1e-8

    def test_invariants(self):
        res = solve_coupled(v4(0.3), 0.3)
        assert res.diagnostics.unitarity_residual < 1e-10
        assert res.diagnostics.unitarity_residual / abs(res.t) ** 2 < 1e-10

    def test_agrees_with_direct_on_tabulated(self):
        lam, c3 = 3.0, 0.6
        z = np.geomspace(0.004, 4000.0, 700)
        pot = TabulatedPotential(z, -c3 / (z ** 3 * (1.0 + z / lam)),
                                 cliff_c3=c3, far_c4=c3 * lam)
        ctl = SolverControl(q_match_rel=1e-6)
        a = solve_direct(pot, 0.02, ctl)
        b = solve_coupled(pot, 0.02, ctl)
        assert abs(a.r - b.r) < 1e-8
        assert abs(a.t - b.t) < 1e-8


class TestSolveTransformed:
    def test_gauge_invariance_special(self):
        for kl in (0.05, 0.5):
            direct = solve_direct(v4(kl), kl)
            _, prob = special_gauge(WkbField(v4(kl), kl))
            wall = solve_transformed(prob)
            assert abs(direct.r - wall.r) < 1e-8
            assert abs(direct.t - wall.t) < 1e-8

    def test_gauge_invariance_log_map(self):
        # the paper's log gauge ln(z/zeta) has a Schwarzian 1/(2 z**2), which
        # the route must carry; zeta = 0.5**-0.5 at ell = 1 and kappa = 0.5
        pot = HomogeneousPotential(4, 1.0)
        fld = WkbField(pot, 0.25)
        direct = solve_direct(pot, 0.25)
        moved = solve_transformed(transform_f(log_map(fld.zeta), fld, fld.matching_domain()))
        assert abs(direct.r - moved.r) < 1e-10
        assert abs(direct.t - moved.t) < 1e-10

    def test_gauge_invariance_tabulated(self):
        # the wall gauge must hold for interpolated potentials too; this is
        # sensitive to any seam artifact of the tail gluing
        lam, c3 = 3.0, 0.6
        z = np.geomspace(0.004, 4000.0, 700)
        pot = TabulatedPotential(z, -c3 / (z ** 3 * (1.0 + z / lam)),
                                 cliff_c3=c3, far_c4=c3 * lam)
        ctl = SolverControl(q_match_rel=1e-6)
        direct = solve_direct(pot, 0.02, ctl)
        _, prob = special_gauge(WkbField(pot, 0.02), trunc_rel=1e-6)
        wall = solve_transformed(prob, ctl)
        assert abs(direct.r - wall.r) < 5e-8
        assert abs(direct.t - wall.t) < 5e-8

    def test_wall_gauge_on_a_table(self):
        # V'' is continuous, so the wall route, whose F_t holds it, agrees
        # with direct to integration accuracy
        pot, ctl = two_tail_table(), SolverControl(q_match_rel=1e-6)
        direct = solve_direct(pot, 0.02, ctl)
        wall = solve_transformed(special_gauge(WkbField(pot, 0.02), trunc_rel=1e-6)[1], ctl)
        assert abs(wall.r - direct.r) <= 1e-12

    def test_under_and_over_barrier(self):
        # scattering on the universal wall: e_bold far below the 5/8 peak
        # reflects, far above it transmits
        low = solve_transformed(special_gauge(WkbField(v4(0.01), 0.01))[1])
        high = solve_transformed(special_gauge(WkbField(v4(10.0), 10.0))[1])
        assert low.R > 0.9
        assert high.R < 0.01

    def test_universal_wall_energy_equivalence(self):
        # the wall at e_bold = kappa ell = 0.1 reproduces R4(0.1)
        wall = solve_transformed(special_gauge(WkbField(v4(0.1), 0.1))[1])
        assert abs(wall.R - solve_v4(0.1).R) < 1e-6

    def test_aux_coordinate_consistency_guard(self):
        _, prob = special_gauge(WkbField(v4(0.3), 0.3))
        res = solve_transformed(prob)
        assert res.diagnostics.unitarity_residual < 1e-10


class TestScatteringLength:
    def test_quartic_equality_b_equals_ell(self):
        result = scattering_length(v4(1.0))
        assert result.b / result.ell == pytest.approx(1.0, abs=0.01)
        assert result.fit_residual < 1e-4

    @pytest.mark.parametrize("c4", [1.0, 2.0, 0.37])
    def test_quartic_closed_form(self, c4):
        # the one-way zero-energy wave of -C4/z**4 is z e^(i ell/z): a = -i ell
        result = scattering_length(HomogeneousPotential(4, c4))
        ell = math.sqrt(c4)
        assert result.ell == ell
        assert abs(result.a - complex(0.0, -ell)) <= 1e-14 * ell

    def test_table_rules_and_tolerance(self, tmp_path, monkeypatch):
        # the zero-energy solve on the 32-node rule agrees with a tighter
        # tolerance and with a 48-node rule
        pot = load_potential_table(write_cp_table(tmp_path))
        a = scattering_length(pot).a
        ell = math.sqrt(pot.tails[1][1])
        assert abs(scattering._threshold_length(pot, ell, 1e-14) / a - 1.0) <= 1e-10
        monkeypatch.setattr(scattering, "_PHASE_NODES", 48)
        assert abs(scattering._threshold_length(pot, ell, 1e-12) / a - 1.0) <= 1e-10

    def test_nan_phase_fails_like_the_integrator(self, tmp_path, monkeypatch):
        # a sqrt(-V) that is not finite on the zero-energy solve's first
        # partition fails as a coefficient that is not finite does
        pot = load_potential_table(write_cp_table(tmp_path))
        value = TabulatedPotential.value
        monkeypatch.setattr(TabulatedPotential, "value",
                            lambda self, z: np.where(z < 100.0, value(self, z), np.nan))
        with pytest.raises(RuntimeError) as failure:
            scattering_length(pot)
        assert str(failure.value) == "integration failed: Coefficients are not finite."

    def test_table_against_scipy(self, tmp_path):
        # scipy's DOP853 from the threshold wave where the cliff tail ends to
        # where the far tail begins, on the same V, decomposed there on
        # z cos(ell/z) and z sin(ell/z)
        pot = load_potential_table(write_cp_table(tmp_path))
        a = scattering_length(pot).a
        ell = math.sqrt(pot.tails[1][1])
        z0, z1 = pot.tails[0][2], pot.tails[1][2]
        sol = scipy_solve_ivp(lambda z, y: (y[1], pot.value(z) * y[0]), (z0, z1),
                              np.array(threshold_wave(z0, 3, pot.tails[0][1])),
                              method="DOP853", rtol=1e-13, atol=1e-300)
        assert sol.success
        psi, dpsi = sol.y[:, -1]
        c, s = math.cos(ell / z1), math.sin(ell / z1)
        along_cos = psi * (s - ell / z1 * c) - dpsi * z1 * s
        along_sin = z1 * c * dpsi - (c + ell / z1 * s) * psi
        assert abs(-ell * along_sin / along_cos / a - 1.0) <= 1e-8

    def test_table_low_energy_limit(self, tmp_path):
        # (r + 1)/(2 i kappa) tends to a linearly in kappa: at kappa ell = 1e-5
        # and a tight cut it lies within 1e-3 of a (1.5e-4 on this table)
        pot = load_potential_table(write_cp_table(tmp_path))
        result = scattering_length(pot)
        kappa = 1e-5 / result.ell
        r = solve_direct(pot, kappa * kappa, SolverControl(q_match_rel=1e-12)).r
        assert abs((r + 1.0) / (2j * kappa) - result.a) <= 1e-3 * abs(result.a)
        assert result.fit_residual < 1e-4

    def test_low_energy_reflection_law(self, monkeypatch):
        # the law at kappa*ell = 1e-4 .. 1e-2, where R falls to 0.96; a is
        # checked by one direct solve at kappa*ell = 1e-4
        energies = []
        solve = scattering.solve_direct
        with monkeypatch.context() as patch:
            patch.setattr(scattering, "solve_direct",
                          lambda pot, energy, ctl: energies.append(energy) or solve(pot, energy, ctl))
            result = scattering_length(v4(1.0))
        kappa = 1e-4 / result.ell
        assert energies == [kappa * kappa]
        for kappa in np.geomspace(1e-4, 1e-2, 8)[::3] / result.ell:
            res = solve_direct(v4(1.0), kappa * kappa)
            law = 1.0 - 4.0 * kappa * result.b
            assert res.R == pytest.approx(law, rel=0.01)

    def test_strength_scaling(self):
        # b = ell grows as sqrt(c4)
        b1 = scattering_length(HomogeneousPotential(4, 1.0)).b
        b2 = scattering_length(HomogeneousPotential(4, 2.0)).b
        assert b2 / b1 == pytest.approx(math.sqrt(2.0), rel=2e-3)

    def test_requires_quartic_tail(self):
        with pytest.raises(ValueError):
            scattering_length(HomogeneousPotential(3, 1.0))

    def test_fit_residual_gate_raises(self, monkeypatch):
        # no finite-energy solve meets the law with a pinned exactly, so a
        # zero gate must trip
        monkeypatch.setattr(scattering, "FIT_RESIDUAL_MAX", 0.0)
        with pytest.raises(RuntimeError, match="not asymptotic"):
            scattering_length(v4(1.0))


class TestTabulatedPipeline:
    def test_cp_against_the_formula(self, tmp_path):
        # the 500-node cp table against the formula it samples,
        # -c3/(z**3 (1 + z/lam)), tabulated here at 870 nodes per decade on
        # 1e-6 .. 4e7 a0 to full precision: the tails declared at a factor 10
        # beyond the end nodes keep r within 1e-8 and a within 3e-5 (the
        # strengths matched to the end nodes were 1.7e-6 to 5.9e-6 off in r)
        pot = load_potential_table(write_cp_table(tmp_path))
        to_reduced = 2.0 * M_HYDROGEN * HARTREE * BOHR_RADIUS ** 2 / HBAR ** 2
        c3, c4 = 0.25 * to_reduced, 125.0 * to_reduced
        z = np.geomspace(1e-6, 4e7, round(870 * math.log10(4e7 / 1e-6)) + 1)
        ref = TabulatedPotential(z, -c3 / (z ** 3 * (1.0 + z / 500.0)), cliff_c3=c3, far_c4=c4)
        for e1 in (30.0, 100.0, 300.0, 1000.0):
            energy = e1_energy(e1)
            assert abs(solve_direct(pot, energy).r - solve_direct(ref, energy).r) <= 1e-8, e1
        assert abs(scattering_length(pot).a / scattering_length(ref).a - 1.0) <= 3e-5

    @pytest.mark.parametrize("nodes", [500, 3000])
    def test_rounded_table(self, nodes):
        # the cp table with z and V rounded to 5 significant digits, as real
        # tables come: it loads, the three routes and the scattering length
        # run without a warning and agree to 1e-10, and r lies within 1e-5
        # of the same table at full precision (3e-6 .. 6e-6)
        to_reduced = 2.0 * M_HYDROGEN * HARTREE * BOHR_RADIUS ** 2 / HBAR ** 2
        c3, c4 = 0.25 * to_reduced, 125.0 * to_reduced
        z = np.geomspace(1.0, 40000.0, nodes)
        exact = TabulatedPotential(z, -c3 / (z ** 3 * (1.0 + z / 500.0)), cliff_c3=c3, far_c4=c4)
        z = np.array([float(f"{t:.4e}") for t in z])
        v = np.array([float(f"{t:.4e}") for t in -0.25 / (z ** 3 * (1.0 + z / 500.0))])
        energy = e1_energy(100.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pot = TabulatedPotential(z, v * to_reduced, cliff_c3=c3, far_c4=c4)
            rs = [solve_on(route, pot, energy).r for route in ROUTES]
            scattering_length(pot)
        assert max(abs(a - b) for a in rs for b in rs) <= 1e-10
        assert abs(rs[0] - solve_direct(exact, energy).r) <= 1e-5

    @pytest.mark.parametrize("nodes", [40, 80])
    @pytest.mark.parametrize("sample", [0, 1, -2, -1],
                             ids=["first", "second", "next-to-last", "last"])
    def test_noisy_end_sample_on_a_sparse_table(self, nodes, sample):
        # two_tail_table()'s shape on nodes 0.35 and 0.17 apart in ln z, where
        # the spline interpolates and the blends read w'' from the samples
        # next to each end: an error of 1e-3 in one of them loads quietly and
        # moves r by at most 9.4e-5 (second sample, 80 nodes), less than the
        # same error at an interior node near the cliff does (4.2e-4)
        lam, c3 = 3.0, 0.6
        z = np.geomspace(0.004, 4000.0, nodes)
        v = -c3 / (z ** 3 * (1.0 + z / lam))
        clean = TabulatedPotential(z, v, cliff_c3=c3, far_c4=c3 * lam)
        for factor in (1.0 + 1e-3, 1.0 - 1e-3):
            noisy = v.copy()
            noisy[sample] *= factor
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                pot = TabulatedPotential(z, noisy, cliff_c3=c3, far_c4=c3 * lam)
                for energy in (0.002, 0.02, 0.2):
                    moved = abs(solve_direct(pot, energy).r - solve_direct(clean, energy).r)
                    assert moved <= 2e-4, (factor, energy)

    def test_tabulated_matches_dense_sampling_of_same_model(self):
        # ingesting a table of a known two-tail model reproduces the
        # reflection of the model itself within interpolation accuracy;
        # the cubic cliff decays Q only linearly, so the matching cut is
        # relaxed accordingly (the achieved Q is still reported)
        ctl = SolverControl(q_match_rel=1e-7)
        lam, c3 = 3.0, 0.6
        z = np.geomspace(0.004, 4000.0, 1600)
        v = -c3 / (z ** 3 * (1.0 + z / lam))
        pot = TabulatedPotential(z, v, cliff_c3=c3, far_c4=c3 * lam)
        energy = 0.02
        res = solve_direct(pot, energy, ctl)
        d = res.diagnostics
        assert d.unitarity_residual < 1e-10
        assert 0.0 < res.R < 1.0
        # a denser table changes nothing essential: pipeline stability
        z2 = np.geomspace(0.004, 4000.0, 3200)
        v2 = -c3 / (z2 ** 3 * (1.0 + z2 / lam))
        pot2 = TabulatedPotential(z2, v2, cliff_c3=c3, far_c4=c3 * lam)
        res2 = solve_direct(pot2, energy, ctl)
        assert res.R == pytest.approx(res2.R, rel=1e-5)
