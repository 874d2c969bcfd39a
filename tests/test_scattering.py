"""Tests for the scattering solvers, matrices and the scattering length."""

import cmath
import dataclasses
import math
import os
import subprocess
import sys
import time
from functools import partial

import numpy as np
import pytest
from scipy.integrate import solve_ivp as scipy_solve_ivp

import qreflect.scattering as scattering

from qreflect.liouville import affine_map, special_gauge, transform_f
from qreflect.mathieu import solve_v4
from qreflect.potentials import HomogeneousPotential, TabulatedPotential
from qreflect.scattering import (
    SolverControl,
    TransferMatrix,
    s_from_t,
    scattering_length,
    solve_coupled,
    solve_direct,
    solve_ivp,
    solve_transformed,
    wronskian,
)
from qreflect.wkb import WkbField


def v4(kappa_ell: float) -> HomogeneousPotential:
    return HomogeneousPotential(4, kappa_ell)  # with E = kappa_ell: kappa = ell


def solve_route(route: str, kl: float, ctl: SolverControl | None = None):
    if route == "direct":
        return solve_direct(v4(kl), kl, ctl)
    if route == "coupled":
        return solve_coupled(v4(kl), kl, ctl)
    return solve_transformed(special_gauge(WkbField(v4(kl), kl))[1], ctl)


def spy_integrations(monkeypatch, integrate=None) -> list:
    """Collect the results of ``scattering.solve_ivp``, every route's
    integrator, run through ``integrate`` when given."""
    sols = []

    def call(*args, **kwargs):
        sols.append((integrate or solve_ivp)(*args, **kwargs))
        return sols[-1]

    monkeypatch.setattr(scattering, "solve_ivp", call)
    return sols


ROUTES = ["direct", "coupled", "transformed"]


def pointwise(integrate, coefficients, ends, nodes, y0, rtol: float):
    """Stand in for ``scattering.solve_ivp``: integrate its y' = [[0, a], [b, 0]] y
    over the span of ``ends`` by ``integrate``, a DOP853 that knows no
    panels and so no rules (``nodes``), with a and b read one point at a
    time (a one-node "panel" from z itself, whose running integral is
    zero)."""
    def rhs(z, y):
        a, b = (complex(np.ravel(c)[0]) for c in
                coefficients(np.array([z]), np.array([[z]]), np.zeros_like))
        return (a * y[1], b * y[0])

    return integrate(rhs, (ends[0], ends[-1]), np.asarray(y0, dtype=complex), method="DOP853",
                     rtol=rtol, atol=1e-14 * max(abs(y0[0]), 1.0))


def on_dop853(monkeypatch, integrate) -> None:
    """Run every route's integration through ``integrate``, a DOP853, in place
    of ``scattering.solve_ivp``."""
    monkeypatch.setattr(scattering, "solve_ivp", partial(pointwise, integrate))


def loop_solve_ivp(coefficients, ends, nodes, y0, rtol: float) -> scattering.OdeResult:
    """The reference for ``scattering.solve_ivp``: a loop over the panels in
    order, each solved alone on its own rule of n nodes in the integral
    form [[1, -S a], [-S b, 1]] (U, V) = (u_a, v_a) on all 2 x n unknowns,
    nothing eliminated, for the two unit starts, with the same tail test; a
    panel that fails it is replaced by its two halves, left first, on its
    rule. The cases here all succeed."""
    tol = max(rtol, 1e-14)
    y = np.array(y0, dtype=complex)
    ts, ys, nfev = [float(ends[0])], [y], 0
    todo = list(zip(map(float, ends[:-1]), map(float, ends[1:]),
                    np.broadcast_to(nodes, len(ends) - 1).tolist()))[::-1]
    while todo:
        z_a, z_b, n = todo.pop()
        x, s_ref, w_ref, tail_ref = scattering._chebyshev_rule(n)
        starts = np.kron(np.eye(2), np.ones((n, 1)))   # (1, 0) and (0, 1) at every node
        half = 0.5 * (z_b - z_a)
        assert half >= 5.0 * (math.nextafter(z_a, math.inf) - z_a)
        zs = z_a + half * (x + 1.0)
        a, b = (np.broadcast_to(c, (1, n))[0] for c in
                coefficients(np.array([z_a]), zs[None, :], lambda f: half * (f @ s_ref.T)))
        nfev += n
        assert np.isfinite(a).all() and np.isfinite(b).all()
        s = half * s_ref
        lhs = np.block([[np.eye(n), -s * a], [-s * b, np.eye(n)]])
        cols = np.linalg.solve(lhs, starts).T.reshape(2, 2, n)   # [column, (U, V), node]
        tails = np.abs(cols @ tail_ref.T).max(axis=(1, 2))
        if not (tails <= tol * np.abs(cols).max(axis=(1, 2))).all():
            mid = z_a + half
            todo += [(mid, z_b, n), (z_a, mid, n)]
            continue
        weights = half * w_ref
        y = (np.eye(2) + np.array([[weights @ (a * cols[c, 1]) for c in range(2)],
                                   [weights @ (b * cols[c, 0]) for c in range(2)]])) @ y
        ts.append(z_b)
        ys.append(y)
    return scattering.OdeResult(np.array(ts), np.array(ys).T, nfev, True,
                                "The solver successfully reached the end of the integration interval.")


def run_kernel_case(case: str) -> None:
    """Integrate once through ``scattering.solve_ivp``."""
    knot, phase = scattering._KNOT_NODES, scattering._PHASE_NODES
    if case == "decay":   # u'' = 2 u / (1 + z)**2 from u = 1/(1 + z), one first panel
        scattering.solve_ivp(lambda z_a, zs, running: (1.0, 2.0 / (1.0 + zs) ** 2),
                             (0.0, 5.0), knot, (1.0, -1.0), rtol=1e-10)
    elif case == "oscillators":   # u'' = -(4 + cos z) u, complex start, both rules
        scattering.solve_ivp(lambda z_a, zs, running: (1.0, -(4.0 + np.cos(zs))),
                             (0.0, 3.5, 7.0), (knot, phase), (1.0, 0.5j), rtol=1e-11)
    elif case == "table":   # the default cut starts below the table: both rules
        solve_direct(two_tail_table(), 0.02)
    else:
        route, kl = case.split("-")
        solve_route(route, float(kl))


class TestScalarDop853:
    """References for the Chebyshev panels of ``scattering.solve_ivp``:
    scipy's DOP853, reading each route's coefficients one point at a time,
    and ``loop_solve_ivp``, one panel at a time."""

    @pytest.mark.parametrize("kl", [0.119, 1.0, 10.0])
    @pytest.mark.parametrize("route", ROUTES)
    def test_same_steps_as_scipy(self, monkeypatch, route, kl):
        # the routes' systems go through DOP853 here, pointwise, and land on
        # the routes' own r: two integrators, one r (2.3e-12 at worst, wall
        # route at kappa*ell = 0.119; x86-64 with OpenBLAS)
        sols = []

        def record(*args, **kwargs):
            sols.append(scipy_solve_ivp(*args, **kwargs))
            return sols[-1]

        on_dop853(monkeypatch, record)
        ref = solve_route(route, kl)
        monkeypatch.undo()
        (sol,) = sols
        assert sol.success and len(sol.t) > 20
        assert abs(solve_route(route, kl).r - ref.r) < 1e-10

    @pytest.mark.parametrize("case", [f"{route}-{kl}" for route in ROUTES
                                      for kl in (0.119, 1.0, 10.0)]
                             + ["table", "decay", "oscillators"])
    def test_kernel_matches_loop(self, monkeypatch, case):
        # the batches of panels, one component eliminated, take the loop's
        # panels, halved ones included, and land on its states: 3.7e-14 of
        # the largest component at worst (direct, kappa*ell = 10; x86-64 with
        # OpenBLAS). "table"
        # ends its panels on the spline knots, on both rules
        pairs = []

        def both(*args, **kwargs):
            pairs.append((solve_ivp(*args, **kwargs), loop_solve_ivp(*args, **kwargs),
                          len(args[1]) - 1, np.unique(args[2])))
            return pairs[-1][0]

        monkeypatch.setattr(scattering, "solve_ivp", both)
        run_kernel_case(case)
        ((sol, ref, first, rules),) = pairs
        assert np.array_equal(sol.t, ref.t)
        assert (sol.nfev, sol.success) == (ref.nfev, ref.success)
        assert sol.success and len(sol.t) > 4
        assert (np.abs(sol.y - ref.y) < 1e-13 * np.abs(ref.y).max(axis=0)).all()
        if case in ("table", "oscillators"):
            assert rules.tolist() == [scattering._KNOT_NODES, scattering._PHASE_NODES]
        if case == "table":
            knots = np.array(two_tail_table().breaks)
            assert np.isin(knots[(knots > sol.t[0]) & (knots < sol.t[-1])], sol.t).all()
        elif case not in ("direct-1.0", "transformed-1.0"):   # these pass every first panel
            assert len(sol.t) - 1 > first   # halved panels
        if case == "decay":
            np.testing.assert_allclose(sol.y[0], 1.0 / (1.0 + sol.t), rtol=1e-10, atol=0.0)

    def test_nan_rhs_fails_like_scipy(self):
        # b turns NaN at z = 2: scipy's DOP853 creeps up to it and gives up
        # below ten ulps of z; the panels stop at the batch that meets it
        # and end the run at its start
        def coefficients(z_a, zs, running):
            return 1.0, np.where(zs < 2.0, -1.0, np.nan)

        ends, n = np.linspace(0.0, 10.0, 11), scattering._PHASE_NODES
        sol = solve_ivp(coefficients, ends, n, (1.0, 0.0), rtol=1e-10)
        with np.errstate(invalid="ignore"):
            ref = pointwise(scipy_solve_ivp, coefficients, ends, n, (1.0, 0.0), rtol=1e-10)
        assert not sol.success and not ref.success
        assert 1.9 < ref.t[-1] < 2.0
        assert sol.message == "Coefficients are not finite."
        assert list(sol.t) == [0.0] and sol.nfev == 10 * n

    def test_nan_from_the_start_fails_at_once(self):
        # NaN at the first node: the run ends after the first batch of
        # panels, at its start, and evaluates none of the others; a batch
        # holds as many panels of n nodes as the budget of n**2 entries each
        for n in (scattering._KNOT_NODES, scattering._PHASE_NODES):
            batch = scattering._BUDGET // (n * n)
            ends = np.linspace(0.0, 1.0, 3 * batch + 1)
            sol = solve_ivp(lambda z_a, zs, running: (math.nan, math.nan), ends, n, (1.0, 0.0),
                            rtol=1e-10)
            assert not sol.success
            assert sol.nfev == batch * n
            assert list(sol.t) == [0.0]

    def test_span_must_run_forward(self):
        with pytest.raises(ValueError, match="does not run forward"):
            solve_ivp(lambda z_a, zs, running: (1.0, -1.0), (1.0, 0.0), 12, (1.0, 0.0),
                      rtol=1e-10)
        with pytest.raises(ValueError, match="does not run forward"):
            solve_ivp(lambda z_a, zs, running: (1.0, -1.0), (0.0, 2.0, 1.0, 3.0), 12, (1.0, 0.0),
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

    def test_oscillator_over_many_radians(self):
        # y'' = -omega**2 y across 600 rad from y = e^(i omega (z - 1)), from
        # one first panel, halved alike until the panels pass: to 1024
        # panels of 12 nodes, 32 of 32
        omega = 12.0
        for n, least in ((scattering._KNOT_NODES, 100), (scattering._PHASE_NODES, 30)):
            sol = solve_ivp(lambda z_a, zs, running: (1.0, -omega * omega),
                            (1.0, 51.0), n, (1.0, 1j * omega), rtol=1e-12)
            assert sol.success and sol.t[-1] == 51.0 and len(sol.t) > least
            assert np.ptp(np.diff(sol.t)) == 0.0
            wave = np.exp(1j * omega * (sol.t - 1.0))
            np.testing.assert_allclose(sol.y[0], wave, rtol=0.0, atol=1e-11)
            np.testing.assert_allclose(sol.y[1] / omega, 1j * wave, rtol=0.0, atol=1e-11)

    def test_both_columns_pass_the_tail_test(self):
        # with b = 0 only the column started on (0, 1) moves, u = int a: a
        # panel passed on the other column alone would stay 10 rad wide
        sol = solve_ivp(lambda z_a, zs, running: (np.cos(20.0 * zs), 0.0),
                        (0.0, 10.0), scattering._KNOT_NODES, (0.0, 1.0), rtol=1e-12)
        assert sol.success and len(sol.t) > 30
        np.testing.assert_allclose(sol.y[0], np.sin(20.0 * sol.t) / 20.0, rtol=0.0, atol=1e-13)
        np.testing.assert_array_equal(sol.y[1], 1.0)

    def test_panels_end_on_the_knots(self, monkeypatch):
        # the wall's F_t holds V'', which jumps at every knot: each knot in
        # the span ends a panel, and no node reads a knot or a panel across one
        fld = WkbField(two_tail_table(), 0.02)
        prob = special_gauge(fld, trunc_rel=1e-6)[1]
        nodes = []

        def spy(z):
            nodes.append(z)
            return prob.coefficients(z)

        sols = spy_integrations(monkeypatch)
        solve_transformed(dataclasses.replace(prob, coefficients=spy))
        (sol,) = sols
        knots = np.array(fld.potential.breaks)
        inside = knots[(knots > prob.domain[0]) & (knots < prob.domain[1])]
        assert len(inside) > 400
        assert np.isin(inside, sol.t).all()
        # inside the table every panel is one knot interval
        assert {batch.shape[1] for batch in nodes} == {scattering._KNOT_NODES}
        for batch in nodes:
            assert not np.isin(batch, knots).any()
            # every panel's nodes share one knot interval
            panels = np.searchsorted(knots, batch)
            assert (panels == panels[:, :1]).all()

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
        # a solve that fails ends at its start and says why
        n = scattering._PHASE_NODES
        sol = solve_ivp(lambda z_a, zs, running: (1.0, np.where(zs < 2.0, -1.0, np.nan)),
                        (0.0, 1.0, 3.0), n, (1.0, 0.0), rtol=1e-10)
        assert not sol.success and sol.message == "Coefficients are not finite."
        assert list(sol.t) == [0.0] and sol.nfev == 2 * n

    def test_rules_on_the_table(self):
        # a knot interval of at most 2 rad takes the 12-node rule; the
        # panels below the table, where the phase sets the width, take 32
        fld = WkbField(two_tail_table(), 0.02)
        ends, nodes = scattering._first_partition(fld, fld.matching_domain())
        assert len(nodes) == len(ends) - 1
        knots = np.array(fld.potential.breaks)
        phase = np.diff(fld.phi(ends))
        one_interval = np.searchsorted(knots, ends[:-1], side="right") == \
            np.searchsorted(knots, ends[1:], side="left")
        knot_bound = one_interval & (phase <= scattering._KNOT_RAD)
        assert knot_bound.sum() > 500 and (~knot_bound).sum() >= 2
        np.testing.assert_array_equal(
            nodes, np.where(knot_bound, scattering._KNOT_NODES, scattering._PHASE_NODES))
        # the phase-bound panels lie below the table, each within the phase
        # rule's bounds
        assert (ends[1:][~knot_bound] <= knots[0]).all()
        assert (phase[~knot_bound] <= scattering._PHASE_RAD).all()
        assert (ends[1:][~knot_bound] <= scattering._PHASE_RATIO * ends[:-1][~knot_bound]).all()

    def test_halves_keep_the_rule(self):
        # 60 rad on every first panel fails both rules: each half is solved
        # on its parent's rule, down to the accepted panels
        first = np.linspace(0.0, 4.0, 5)
        rules = np.array([scattering._KNOT_NODES, scattering._PHASE_NODES] * 2)
        panels = []

        def coefficients(z_a, zs, running):
            x = scattering._chebyshev_rule(zs.shape[1])[0]
            panels.extend(zip(z_a, z_a + (zs[:, -1] - zs[:, 0]) / (x[-1] - x[0]) * 2.0,
                              [zs.shape[1]] * len(z_a)))
            return 1.0, -3600.0

        sol = solve_ivp(coefficients, first, rules, (1.0, 60j), rtol=1e-12)
        assert sol.success and sol.nfev == sum(n for _, _, n in panels)
        np.testing.assert_allclose(sol.y[0], np.exp(60j * sol.t), rtol=0.0, atol=1e-10)
        assert len(panels) > len(first) + 10
        for z_a, z_b, n in panels:
            # the first panel that holds this one sets its rule
            parent = np.searchsorted(first, 0.5 * (z_a + z_b)) - 1
            assert n == rules[parent]
        # both rules were halved more than once
        widths = {n: {round(z_b - z_a, 9) for z_a, z_b, m in panels if m == n} for n in rules}
        assert all(len(w) > 2 for w in widths.values())

    @pytest.mark.parametrize("rtol", [1e-4, 1e-12])
    def test_retried_panels_shrink(self, monkeypatch, rtol):
        # only the panels that fail the tail test are solved again, halved;
        # the accepted ones stay as they are (a tail a hair above tol once
        # retried one panel forever: v4 with C4 = 1 at E = 100, rtol 1e-4).
        # A first partition of 120 rad per panel makes many of them fail
        monkeypatch.setattr(scattering, "_PHASE_RAD", 120.0)
        panels, firsts = [], []

        def recorded(coefficients, ends, *args, **kwargs):
            def record(z_a, zs, running):
                x = scattering._chebyshev_rule(zs.shape[1])[0]
                panels.extend(zip(z_a, (zs[:, -1] - zs[:, 0]) / (x[-1] - x[0])))
                return coefficients(z_a, zs, running)
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
            assert sol.nfev == scattering._PHASE_NODES * len(panels)   # v4: no knots
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


def two_tail_table() -> TabulatedPotential:
    lam, c3 = 3.0, 0.6
    z = np.geomspace(0.004, 4000.0, 700)
    return TabulatedPotential(z, -c3 / (z ** 3 * (1.0 + z / lam)), cliff_c3=c3, far_c4=c3 * lam)


class TestCliffStart:
    # accepted panels and node evaluations of each route on v4 at the default
    # cut (n = 4 keeps the WKB start), within 10%: the panel tests pass
    # through BLAS and LAPACK, whose kernels differ between CPUs
    V4_WORK = {
        (0.119, "direct"): (14, 480), (0.119, "coupled"): (14, 480),
        (0.119, "transformed"): (14, 480),
        (1.0, "direct"): (19, 608), (1.0, "coupled"): (22, 800),
        (1.0, "transformed"): (19, 608),
        (10.0, "direct"): (44, 1440), (10.0, "coupled"): (51, 1888),
        (10.0, "transformed"): (44, 1440),
    }

    @pytest.mark.parametrize("kl", [0.119, 1.0, 10.0])
    @pytest.mark.parametrize("route", ["direct", "coupled", "transformed"])
    def test_quartic_starts_on_the_wkb_wave(self, monkeypatch, route, kl):
        sols = spy_integrations(monkeypatch)
        solve_route(route, kl)
        (sol,) = sols
        fld = WkbField(v4(kl), kl)
        z_min, z_max = fld.matching_domain(SolverControl().q_match_rel)
        assert (sol.t[0], sol.t[-1]) == (z_min, z_max)
        wave = fld.wkb_wave(z_min, -1)
        if route == "direct":
            start = wave
        elif route == "coupled":
            start = scattering._amplitudes(fld, z_min, wave)
        else:
            start = special_gauge(fld)[1].carry(z_min, wave)
        assert tuple(sol.y[:, 0].tolist()) == start
        work = (len(sol.t) - 1, sol.nfev)
        assert work == pytest.approx(self.V4_WORK[kl, route], rel=0.1)

    def test_routes_share_the_threshold_wave(self, monkeypatch):
        # each route's start state maps back to the same (Psi, Psi') at z_min
        pot, energy = two_tail_table(), 0.02
        sols = spy_integrations(monkeypatch)
        res = [solve_direct(pot, energy), solve_coupled(pot, energy),
               solve_transformed(special_gauge(WkbField(pot, energy))[1])]
        fld = WkbField(pot, energy)
        z_min, _ = fld.matching_domain(SolverControl().q_match_rel)
        assert fld.on_threshold_tail(z_min)
        psi, dpsi = fld.cliff_wave(z_min)
        assert all(sol.t[0] == z_min for sol in sols)
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
        expected = energy * z_min ** 3 / pot.cliff_c3_matched
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


class TestWronskian:
    def test_antisymmetry_and_self(self):
        psi = (0.3 + 0.1j, -0.2 + 0.8j)
        phi = (1.1 - 0.4j, 0.5 + 0.2j)
        assert wronskian(psi, psi) == 0.0
        assert wronskian(psi, phi) == -wronskian(phi, psi)

    def test_wkb_pair_normalization(self):
        fld = WkbField(v4(0.3), 0.3)
        for z in (0.3, 1.0, 8.0):
            wave = fld.wkb_wave(z, +1)
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
        assert sol.nfev < 2 * scattering._PHASE_NODES * (len(sol.t) - 1)   # v4: no knots
        assert res.diagnostics.wronskian_drift < 1e-9


class TestSMatrixAlgebra:
    def test_identity_transfer(self):
        s = s_from_t(TransferMatrix(1.0, 0.0, 0.0, 1.0))
        assert s.as_array() == pytest.approx(np.eye(2))

    def test_unitarity_from_unit_determinant(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            # build T from a random unitary pair (r, t)
            phase_r, phase_t = rng.uniform(0, 2 * math.pi, 2)
            rho = rng.uniform(0.0, 0.999)
            r = rho * cmath.exp(1j * phase_r)
            t = math.sqrt(1.0 - rho * rho) * cmath.exp(1j * phase_t)
            cm = 1.0 / t
            cp = r / t
            transfer = TransferMatrix(cm, -cp, -cp.conjugate(), cm.conjugate())
            assert abs(transfer.det() - 1.0) < 1e-12
            s = s_from_t(transfer)
            assert s.unitarity_residual() < 1e-12

    def test_singular_transfer_rejected(self):
        with pytest.raises(ZeroDivisionError):
            s_from_t(TransferMatrix(0.0, 1.0, 1.0, 0.0))


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
            assert d.det_t_residual < 1e-10
            assert d.wronskian_drift < 1e-9
            assert d.current_residual < 1e-10
            assert 0.0 <= res.R <= 1.0
            assert abs(res.r) ** 2 + abs(res.t) ** 2 == pytest.approx(1.0, abs=1e-10)

    def test_matching_points_reported(self):
        ctl = SolverControl(q_match_rel=1e-9)
        fld = WkbField(v4(0.3), 0.3)
        _, q_peak = fld.q_peak()
        res = solve_direct(v4(0.3), 0.3, ctl)
        assert res.diagnostics.matching_q_left == pytest.approx(1e-9 * q_peak, rel=1e-5)
        assert res.diagnostics.matching_q_right == pytest.approx(1e-9 * q_peak, rel=1e-5)

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
        assert res.diagnostics.current_residual < 1e-10

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

    def test_gauge_invariance_affine(self):
        kl = 0.5
        fld = WkbField(v4(kl), kl)
        direct = solve_direct(v4(kl), kl)
        rng = np.random.default_rng(5)
        for _ in range(2):
            mapping = affine_map(float(np.exp(rng.uniform(-1, 1))), float(rng.uniform(-2, 2)))
            prob = transform_f(mapping, fld, fld.matching_domain(1e-10))
            moved = solve_transformed(prob)
            assert abs(direct.r - moved.r) < 1e-8
            assert abs(direct.t - moved.t) < 1e-8

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
        # panels end on the knots, where V'' jumps, so the wall route agrees
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

    def test_low_energy_reflection_law(self):
        result = scattering_length(v4(1.0))
        for kappa in result.kappa_grid[::3]:
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
        # no fit of eight points by a line is exact, so a zero gate must trip
        monkeypatch.setattr(scattering, "FIT_RESIDUAL_MAX", 0.0)
        with pytest.raises(RuntimeError, match="not asymptotic"):
            scattering_length(v4(1.0))


class TestTabulatedPipeline:
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
