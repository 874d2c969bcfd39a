"""Tests for the scattering solvers, matrices and the scattering length."""

import cmath
import math
import os
import subprocess
import sys
from functools import partial
from operator import mul

import numpy as np
import pytest
from scipy.integrate import DOP853
from scipy.integrate import solve_ivp as scipy_solve_ivp

import qreflect.scattering as scattering

from qreflect.liouville import (
    TransformedProblem,
    affine_map,
    identity_map,
    special_gauge,
    transform_f,
)
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


def free_problem(kappa: float, span=(1.0, 40.0)) -> TransformedProblem:
    return TransformedProblem(
        mapping=identity_map(),
        f_original=lambda z: kappa * kappa,
        domain=span,
        e_bold=kappa * kappa,
        v_bold=lambda z: 0.0,
        plane_wave_basis=True,
    )


def solve_route(route: str, kl: float):
    if route == "direct":
        return solve_direct(v4(kl), kl)
    if route == "coupled":
        return solve_coupled(v4(kl), kl)
    return solve_transformed(special_gauge(WkbField(v4(kl), kl))[1])


def spy_integrations(monkeypatch, integrate) -> list:
    """Route ``scattering.solve_ivp`` through ``integrate``; collect its results."""
    sols = []

    def spy(*args, **kwargs):
        sols.append(integrate(*args, **kwargs))
        return sols[-1]

    monkeypatch.setattr(scattering, "solve_ivp", spy)
    return sols


def scipy_dop853(fun, t_span, y0, rtol: float, atol: float, breaks=()):
    """scipy's DOP853, which knows no breaks: homogeneous potentials have none."""
    assert breaks == ()
    return scipy_solve_ivp(fun, t_span, y0, method="DOP853", rtol=rtol, atol=atol)


def _coefficients(row: np.ndarray) -> tuple[complex, ...]:
    return tuple(map(complex, row.tolist()))


_STAGES = tuple((float(DOP853.C[s]), _coefficients(DOP853.A[s, :s]))
                for s in range(1, DOP853.n_stages))
_B = _coefficients(DOP853.B)
_E5 = _coefficients(DOP853.E5)
_E3 = _coefficients(DOP853.E3)


def loop_solve_ivp(fun, t_span, y0, rtol: float, atol: float, breaks=()) -> scattering.OdeResult:
    """The reference for ``scattering.solve_ivp``: DOP853 with a loop over the
    tableau per stage, zero entries multiplied in, and the same step control,
    steps ending on the breaks included. ``sum`` adds left to right here
    (CPython 3.11), as the generated attempt does."""
    t, t_end = map(float, t_span)
    stops = [b for b in breaks if t < b < t_end] + [t_end]
    y = [complex(v) for v in y0]
    f = fun(t, y)
    h_abs = scattering._initial_step(fun, t, y, f, t_end - t, rtol, atol)
    nfev = 2
    ts, ys = [t], [y]
    while t < t_end:
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:
                return scattering.OdeResult(np.array(ts), np.array(ys).T, nfev, False,
                                            "Required step size is less than spacing between numbers.")
            t_new = min(t + h_abs, stops[0])
            h = t_new - t
            ks = [[g] for g in f]   # the stage derivatives of each component
            for c, row in _STAGES:
                stage = fun(t + c * h, [v + sum(map(mul, row, k)) * h for v, k in zip(y, ks)])
                for k, g in zip(ks, stage):
                    k.append(g)
            y_new = [v + h * sum(map(mul, _B, k)) for v, k in zip(y, ks)]
            f_new = fun(t_new, y_new)
            nfev += DOP853.n_stages
            for k, g in zip(ks, f_new):
                k.append(g)
            w = [1.0 / (atol + max(abs(a), abs(b)) * rtol) for a, b in zip(y, y_new)]
            e5 = scattering._sumsq([sum(map(mul, _E5, k)) * s for k, s in zip(ks, w)])
            e3 = scattering._sumsq([sum(map(mul, _E3, k)) * s for k, s in zip(ks, w)])
            if e5 == 0.0 and e3 == 0.0:
                err = 0.0
            else:
                err = h * e5 / math.sqrt((e5 + 0.01 * e3) * len(y))
            if err < 1.0:
                factor = (scattering._MAX_FACTOR if err == 0.0 else
                          min(scattering._MAX_FACTOR, scattering._SAFETY * err ** scattering._EXPONENT))
                h_abs = h * (min(1.0, factor) if rejected else factor)
                break
            h_abs = h * max(scattering._MIN_FACTOR, scattering._SAFETY * err ** scattering._EXPONENT)
            rejected = True
        t, y, f = t_new, y_new, f_new
        ts.append(t)
        ys.append(y)
        if t == stops[0] and len(stops) > 1:
            del stops[0]
    return scattering.OdeResult(np.array(ts), np.array(ys).T, nfev, True,
                                "The solver successfully reached the end of the integration interval.")


def run_kernel_case(case: str) -> None:
    """Integrate once through ``scattering.solve_ivp``."""
    if case == "decay":
        scattering.solve_ivp(lambda t, y: (-y[0] / (1.0 + t),), (0.0, 5.0), (1.0 - 0.5j,),
                             rtol=1e-10, atol=1e-12)
    elif case == "oscillators":   # two uncoupled oscillators, four components
        scattering.solve_ivp(lambda t, y: (y[1], -y[0], y[3], -4.0 * y[2]), (0.0, 7.0),
                             (1.0, 0.5j, -0.25, 2.0 - 1j), rtol=1e-11, atol=1e-13)
    elif case == "table":
        lam, c3 = 3.0, 0.6
        z = np.geomspace(0.004, 4000.0, 700)
        pot = TabulatedPotential(z, -c3 / (z ** 3 * (1.0 + z / lam)),
                                 cliff_c3=c3, far_c4=c3 * lam)
        solve_coupled(pot, 0.02, SolverControl(q_match_rel=1e-6))
    else:
        route, kl = case.split("-")
        solve_route(route, float(kl))


class TestScalarDop853:
    """``scattering.solve_ivp`` replays scipy's DOP853, which stays the reference."""

    @pytest.mark.parametrize("kl", [0.119, 1.0, 10.0])
    @pytest.mark.parametrize("route", ["direct", "coupled", "transformed"])
    def test_same_steps_as_scipy(self, monkeypatch, route, kl):
        sols = spy_integrations(monkeypatch, solve_ivp)
        res = solve_route(route, kl)
        refs = spy_integrations(monkeypatch, scipy_dop853)
        ref = solve_route(route, kl)
        (sol,), (sol_ref,) = sols, refs
        assert len(sol.t) == len(sol_ref.t)
        assert sol.nfev == sol_ref.nfev
        # numpy rounds |z|, its BLAS norm and complex division differently
        # from Python, and the step-size control carries one-ulp differences
        # of the error norm forward: 5.6e-7 at worst on these nine cases
        # (coupled, kappa*ell = 1; x86-64 with OpenBLAS)
        np.testing.assert_allclose(sol.t, sol_ref.t, rtol=1e-5, atol=0.0)
        assert abs(res.r - ref.r) < 1e-12

    @pytest.mark.parametrize("case", [f"{route}-{kl}" for route in ("direct", "coupled", "transformed")
                                      for kl in (0.119, 1.0, 10.0)]
                             + ["table", "decay", "oscillators"])
    def test_kernel_matches_loop(self, monkeypatch, case):
        # the generated attempt does the loop's arithmetic: the same steps and
        # the same bits ("table" ends 469 steps on spline knots and rejects
        # a few attempts: 3289 accepted)
        pairs = []

        def both(*args, **kwargs):
            pairs.append((solve_ivp(*args, **kwargs), loop_solve_ivp(*args, **kwargs)))
            return pairs[-1][0]

        monkeypatch.setattr(scattering, "solve_ivp", both)
        run_kernel_case(case)
        ((sol, ref),) = pairs
        assert np.array_equal(sol.t, ref.t)
        assert np.array_equal(sol.y, ref.y)
        assert (sol.nfev, sol.success) == (ref.nfev, ref.success)
        assert sol.success and len(sol.t) > 10
        if case == "table":
            assert len(sol.t) - 1 == 3289
            assert sol.nfev > 12 * (len(sol.t) - 1) + 2   # rejected attempts

    def test_no_kernel_at_import(self):
        # each kernel takes milliseconds to compile: importing the package
        # must leave that to the first integration
        code = ("import qreflect, qreflect.scattering as s; "
                "print(s._attempt_kernel.cache_info().currsize)")
        src = os.path.dirname(os.path.dirname(scattering.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, env=env)
        assert out.stdout.strip() == "0"

    def test_nan_rhs_fails_like_scipy(self):
        # the RHS turns NaN at t = 2: steps creep up to it and shrink by 0.2
        # per rejection until they fall under ten ulps of t
        def rhs(t, y):
            return (y[1], -y[0] if t < 2.0 else complex(math.nan))

        kw = dict(rtol=1e-10, atol=1e-12)
        sol = solve_ivp(rhs, (0.0, 10.0), (1.0, 0.0), **kw)
        with np.errstate(invalid="ignore"):
            ref = scipy_solve_ivp(rhs, (0.0, 10.0), (1.0 + 0j, 0j), method="DOP853", **kw)
        assert not sol.success and not ref.success
        assert sol.message == ref.message
        assert (len(sol.t), sol.nfev) == (len(ref.t), ref.nfev)
        assert 1.9 < sol.t[-1] < 2.0
        rejected = (sol.nfev - 2) // 12 - (len(sol.t) - 1)
        assert 0 < rejected < 60   # 36 at these tolerances

    def test_nan_from_the_start_fails_at_once(self):
        # the initial step is NaN; scipy retries such a step forever
        sol = solve_ivp(lambda t, y: (math.nan, math.nan), (0.0, 1.0), (1.0, 0.0),
                        rtol=1e-10, atol=1e-12)
        assert not sol.success
        assert sol.nfev == 2
        assert list(sol.t) == [0.0]

    def test_span_must_run_forward(self):
        with pytest.raises(ValueError, match="does not run forward"):
            solve_ivp(lambda t, y: (y[1], -y[0]), (1.0, 0.0), (1.0, 0.0),
                      rtol=1e-10, atol=1e-12)

    def test_failed_integration_raises(self, monkeypatch):
        fld = WkbField(v4(1.0), 1.0)
        z_min, z_max = fld.matching_domain(SolverControl().q_match_rel)
        z_nan = math.sqrt(z_min * z_max)
        f_coeff = WkbField.f_coeff
        monkeypatch.setattr(WkbField, "f_coeff",
                            lambda self, z: f_coeff(self, z) if z < z_nan else math.nan)
        with pytest.raises(RuntimeError, match="integration failed: Required step size"):
            solve_direct(v4(1.0), 1.0)


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
        # DOP853 takes 12 RHS calls per step, 15 when it also builds the dense
        # interpolant; the drift is read from the accepted steps instead
        sols = spy_integrations(monkeypatch, solve_ivp)
        res = solve_route(route, 1.0)
        (sol,) = sols
        assert sol.nfev / (len(sol.t) - 1) < 13
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
    def test_free_particle(self):
        res = solve_transformed(free_problem(0.8))
        assert abs(res.r) < 1e-10
        assert res.t == pytest.approx(1.0, abs=1e-10)

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
            prob = transform_f(mapping, fld.f_coeff, fld.matching_domain(1e-10), field=fld)
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
