"""Numerical scattering solvers: r, t and the diagnostics of each solve.

Three routes to the same amplitudes:

* ``solve_direct``: integrate Psi'' + F Psi = 0 between two matching points
  where the badlands function is negligible, starting from the field's
  cliff wave (the one-way condition: everything reaching the surface is
  absorbed there) and decomposing onto the WKB pair at the far end.
* ``solve_coupled``: the equivalent first-order system for the amplitudes of
  the two counter-propagating WKB waves.
* ``solve_transformed``: the same physics after a Liouville transformation,
  e.g. on the repulsive wall of the special gauge.

All three start on one wave and end on one basis, the field's cliff wave and
WKB pair; each route only maps them into and out of its own state. Each
state obeys y' = [[0, a], [b, 0]] y with the route's own a and b, and all
three run on one integrator, ``solve_ivp``, on u = ln z, the paper's log
gauge, where a power law is an exponential (``_integrate``): Chebyshev
panels of 32 nodes, as wide as ln 4 of u and the phase int k dz by the
phase table's rule allow, each round of them solved in one batch. A route
gives a and b at the nodes, in z, from the nodes alone and the integrals
of node values along each panel. V'' is continuous on every potential, a
table's included, so panels run across a table's nodes and knots, the wall
route's at most the phase table's 0.5 of u wide there; they end only where
the derivative of V'' jumps (``breaks``). The routes check each other as
three gauges with very different coefficients; the tests also check each
against scipy's ``solve_ivp`` reading the same coefficients point by point.

Conventions: r and t are defined for a wave incident from the far end; the
incoming/transmitted wave at the cliff carries the WKB phase anchored by
phi(z) - kappa z -> 0 at infinity, which fixes the transmission phase factor
exp(2 i vk z_star) of the inverse-quartic closed form.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .liouville import TransformedProblem
from .potentials import one_law
from .wkb import (_PANEL_DU, Q_MATCH_REL, _TAIL_FLOOR, WkbField, _chebyshev_rule, _even_ends,
                  _log_rule, threshold_wave)

__all__ = [
    "SolverControl",
    "ScatteringResult",
    "ScatteringLength",
    "Diagnostics",
    "wronskian",
    "solve_direct",
    "solve_coupled",
    "solve_transformed",
    "scattering_length",
]


FIT_RESIDUAL_MAX = 1e-4    # scattering_length's gate on |r - r_model|
RTOL = 1e-12               # the default integration tolerance, SolverControl.rtol's


@dataclass(frozen=True)
class SolverControl:
    """Integration and matching knobs shared by all solvers."""

    rtol: float = RTOL
    q_match_rel: float = Q_MATCH_REL    # matching cut: Q/Q_peak, or E z**n/C_n on a threshold tail

    def __post_init__(self):
        if not (0.0 < self.rtol < 1e-3):
            raise ValueError("rtol out of range")
        if not (0.0 < self.q_match_rel < 1.0):
            raise ValueError("q_match_rel must lie in (0, 1)")


_DEFAULT_CTL = SolverControl()


def wronskian(psi1: tuple[complex, complex], psi2: tuple[complex, complex]) -> complex:
    """W(psi1, psi2) = psi1 psi2' - psi1' psi2 at a common point."""
    v1, d1 = psi1
    v2, d2 = psi2
    return v1 * d2 - d1 * v2


@dataclass(frozen=True)
class Diagnostics:
    """The checks of one solve, read on the physical wave (Psi, Psi') in every
    route: the far-end flux balance ||c-|**2 - |c+|**2 - 1| |t|**2 of its
    coefficients (c+, c-), and max |W - W_0|/|W_0| of W = Im(Psi* Psi') over
    the panel ends."""

    unitarity_residual: float
    wronskian_drift: float
    matching_q_left: float     # the start's own error: Q, or E z**n/C_n on a threshold tail
    matching_q_right: float    # Q at the far end


@dataclass(frozen=True)
class ScatteringResult:
    r: complex
    t: complex
    diagnostics: Diagnostics

    @property
    def R(self) -> float:  # noqa: N802
        return abs(self.r) ** 2


@dataclass(frozen=True)
class ScatteringLength:
    """The complex scattering length ``a`` of a -C4/z**4 far tail, from its
    zero-energy solution, with b = -Im a and ell = sqrt(C4).

    ``fit_residual`` checks ``a`` against one direct solve at kappa ell =
    1e-4: |r - r_model| there, for r_model = -(1 - 2 i kappa a) with ``a``
    pinned. See ``scattering_length``.
    """

    a: complex
    ell: float
    fit_residual: float

    @property
    def b(self) -> float:
        return -self.a.imag


def _decompose(psi: complex, dpsi: complex,
               plus: tuple[complex, complex], minus: tuple[complex, complex]) -> tuple[complex, complex]:
    # W((Psi^+)* , .) and W((Psi^-)* , .) project on the two channels; for a
    # real-phase basis the conjugates swap the pair and W(Psi^-, Psi^+) = 2i
    cp = wronskian(minus, (psi, dpsi)) / 2j
    cm = -wronskian(plus, (psi, dpsi)) / 2j
    return cp, cm


# -- Chebyshev panels ----------------------------------------------------------
# Every route's state obeys y' = [[0, a], [b, 0]] y, in integral form on panels
# of first-kind Chebyshev points (``wkb._chebyshev_rule``) of u = ln z, as
# every panel of the package. The system is linear, so a panel's 2x2
# propagator does not depend on the state, and the panels of a solve are
# solved together: each round of panels, the first partition and then the
# halves of those that failed, in one batch.

_PHASE_NODES = 32     # a first panel of up to _PHASE_RAD of phi and _PHASE_DU of u,
_PHASE_RAD = 12.0     # or the phase table's _PANEL_DU across the wall route's knots
_PHASE_DU = math.log(4.0)
_BUDGET = 65536       # matrix entries (nodes**2 a panel) solved at once, 64 panels: a memory cap
_MAX_PANELS = 100_000  # a first partition above this fails; real solves take a few hundred


class OdeResult:
    """The panel ends ``t`` (the start included), the states ``y`` there
    (shape 2 x len(t)) and the count ``nfev`` of coefficient evaluations."""

    __slots__ = ("t", "y", "nfev")

    def __init__(self, t: np.ndarray, y: np.ndarray, nfev: int):
        self.t, self.y, self.nfev = t, y, nfev


@functools.cache
def _panel_rule(n: int) -> tuple[np.ndarray, ...]:
    """``wkb._chebyshev_rule(n)`` as the panels use it: (x, S, [S; w],
    squares, w, tail), where [S; w] @ f gives a panel's running integrals of
    f and its integral in one product, and row i n + j of squares holds
    S[i, k] S[k, j] over k, so that a @ squares.T is S diag(a) S, flat."""
    x, s_ref, w_ref, tail_ref = _chebyshev_rule(n)
    squares = np.einsum("ik,kj->ijk", s_ref, s_ref).reshape(n * n, n)
    return x, s_ref, np.vstack([s_ref, w_ref]), squares, w_ref, tail_ref


def _first_partition(domain: tuple[float, float], k, breaks: np.ndarray,
                     knots=()) -> tuple[np.ndarray, np.ndarray]:
    """Panel ends across ``domain`` in u = ln z, and the points they cut at
    in z: the domain's ends and the ``breaks`` inside. The gaps between the
    points are cut evenly in u (``wkb._even_ends``) into the fewest parts no
    wider than ``_PHASE_DU``, or than the phase table's ``_PANEL_DU`` where a
    gap holds any of the ascending ``knots`` (in u), then each part into the
    fewest panels of about ``_PHASE_RAD`` or less of its phase int k dz, one
    sum of k z by the phase table's rule (``wkb._log_rule``). ln of each
    point is among the ends as the same float. A phase that is not finite
    raises the ``RuntimeError`` of ``solve_ivp`` for coefficients that are
    not, and more than ``_MAX_PANELS`` panels raise one before anything is
    allocated."""
    z_min, z_max = domain
    points = np.concatenate(([z_min], breaks[(breaks > z_min) & (breaks < z_max)], [z_max]))
    u = np.log(points)
    holds = np.searchsorted(knots, u[:-1], side="right") < np.searchsorted(knots, u[1:])
    coarse = _even_ends(u, np.ceil(np.diff(u) / np.where(holds, _PANEL_DU, _PHASE_DU)))
    phases = _log_rule(coarse[:-1], np.diff(coarse), k)[0]
    if not np.isfinite(phases).all():
        raise RuntimeError("integration failed: Coefficients are not finite.")
    parts = np.maximum(np.ceil(phases / _PHASE_RAD), 1.0)
    count = parts.sum()
    if count > _MAX_PANELS:
        raise RuntimeError(f"integration failed: the first partition needs {count:.3g} "
                           f"panels, more than {_MAX_PANELS}")
    return _even_ends(coarse, parts), points


def solve_ivp(coefficients, ends, y0, rtol: float) -> OdeResult:
    """Integrate y' = [[0, a(t)], [b(t), 0]] y from ``y0`` at ends[0] to ends[-1].

    ``ends`` is the first partition into panels, each panel a Chebyshev rule
    of n = ``_PHASE_NODES`` nodes; ``coefficients(ts, running)`` returns a
    and b at the nodes ``ts`` (one row per panel), arrays or numbers, where
    ``running(f)`` integrates node values from each panel's start to each
    of its nodes. A panel solves
    Y = e_j + S (M Y) at its nodes for both unit starts e_j at once, one
    component eliminated, and its propagator's columns are e_j + w (M Y);
    no node lies on a panel end, where a coefficient may jump. A panel is
    accepted when the last two Chebyshev coefficients of both components
    are at most tol times their largest value, in both columns,
    tol = max(rtol, 1e-14): below that floor lies rounding noise. The
    panels that fail are halved and solved again, the others kept; a panel
    narrower than ten ulps of t, or coefficients that are not finite, raise
    ``RuntimeError`` ("integration failed: ..."). The product of the
    propagators in order gives the states at the panel ends; ``nfev``
    counts coefficient evaluations at nodes, retries included. The panels
    are solved in the order they are queued, the first partition and then
    the halves of those that failed, in batches of up to ``_BUDGET`` matrix
    entries, n**2 a panel: one batch a round where a round fits.
    """
    ends = np.asarray(ends, dtype=float)
    if not (len(ends) > 1 and (np.diff(ends) > 0.0).all()):
        raise ValueError(f"integration span ({ends[0]}, {ends[-1]}) does not run forward")
    tol = max(rtol, _TAIL_FLOOR)
    n = _PHASE_NODES
    u_start = np.array([1.0, 0.0])    # the two columns start on (1, 0) and (0, 1)
    v_start = 1.0 - u_start
    starts, propagators, nfev = [], [], 0
    x, s_ref, s_end, squares, w_ref, tail_ref = _panel_rule(n)
    batch = max(_BUDGET // (n * n), 1)
    queue_a, queue_b = ends[:-1], ends[1:]
    while len(queue_a):
        t_a, t_b = queue_a[:batch], queue_b[:batch]
        half = 0.5 * (t_b - t_a)
        if not (half >= 5.0 * (np.nextafter(t_a, np.inf) - t_a)).all():
            raise RuntimeError("integration failed: Required panel width is less "
                               "than spacing between numbers.")
        ts = t_a[:, None] + half[:, None] * (x + 1.0)
        a, b = (np.broadcast_to(c, ts.shape) for c in
                coefficients(ts, lambda f: half[:, None] * (f @ s_ref.T)))
        nfev += ts.size
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise RuntimeError("integration failed: Coefficients are not finite.")
        # U = u_a + S a V and V = v_a + S b U, for (u_a, v_a) = (1, 0) and
        # (0, 1): (1 - S a S b) U = u_a + v_a S a 1, then V = v_a + S b U
        ha, hb = half[:, None] * a, half[:, None] * b
        # S a S of every panel in one product, with no (panel, n, n)
        # temporary; a complex ha's (re, im) pairs are two real columns
        if np.iscomplexobj(ha):
            lhs = np.matmul(squares, ha.view(float).reshape(len(t_a), n, 2)).view(complex)
        else:
            lhs = ha @ squares.T
        lhs = lhs.reshape(len(t_a), n, n)
        lhs *= -hb[:, None, :]
        lhs.reshape(len(t_a), -1)[:, ::n + 1] += 1.0
        us = np.linalg.solve(lhs, np.stack([np.ones(ts.shape), ha @ s_ref.T], axis=2))
        us = np.ascontiguousarray(us.transpose(0, 2, 1))          # [panel, column, node]
        # V at the nodes and at the panel's end in one product, then U at its end
        vs = ((hb[:, None, :] * us).reshape(-1, n) @ s_end.T).reshape(len(t_a), 2, n + 1)
        vs += v_start[:, None]
        u_end = (ha[:, None, :] * vs[..., :n]) @ w_ref + u_start
        # the tail test on both components of both columns
        uv = np.concatenate([us, vs[..., :n]], axis=2)
        tails = np.abs(uv.reshape(-1, n) @ tail_ref.T).reshape(len(t_a), 2, 4)
        good = (tails.max(axis=2) <= tol * np.abs(uv).max(axis=2)).all(axis=1)
        starts.append(t_a[good])
        propagators.append(np.stack([u_end, vs[..., n]], axis=1)[good])
        mid = t_a[~good] + half[~good]
        queue_a = np.concatenate([queue_a[batch:], t_a[~good], mid])
        queue_b = np.concatenate([queue_b[batch:], mid, t_b[~good]])
    starts = np.concatenate(starts)
    order = np.argsort(starts)
    y = tuple(map(complex, y0))
    ys = [y]
    for (m00, m01), (m10, m11) in np.concatenate(propagators)[order].tolist():
        y = (m00 * y[0] + m01 * y[1], m10 * y[0] + m11 * y[1])
        ys.append(y)
    return OdeResult(np.concatenate((starts[order], ends[-1:])), np.array(ys).T, nfev)


def _integrate(coefficients, domain: tuple[float, float], k, breaks: np.ndarray, y0,
               rtol: float, knots=()) -> OdeResult:
    """``solve_ivp`` on u = ln z across ``domain`` from ``y0``, on the first
    partition of ``k``, ``breaks`` and ``knots`` (``_first_partition``), for
    a system y' = [[0, a(z)], [b(z), 0]] y given in z, as ``solve_ivp``
    takes it: in u its coefficients are a z and b z at z = e**u, and
    ``running(f)`` integrates f z du. Returns that solve with its panel ends
    ``t`` in z: an end that is ln of one of the partition's points is that
    point, the same float, and the others are e**u."""
    u, points = _first_partition(domain, k, breaks, knots)

    def on_log(us, running):
        z = np.exp(us)
        a, b = coefficients(z, lambda f: running(f * z))
        return a * z, b * z

    sol = solve_ivp(on_log, u, y0, rtol)
    given = np.log(points)
    i = np.minimum(np.searchsorted(given, sol.t), len(given) - 1)
    return OdeResult(np.where(given[i] == sol.t, points[i], np.exp(sol.t)), sol.y, sol.nfev)


def _solve(fld: WkbField, domain: tuple[float, float], coefficients, rtol: float,
           enter, leave, knots=()) -> ScatteringResult:
    """Integrate one route across ``domain`` and assemble its amplitudes.

    Every route starts on the field's cliff wave at z_min and is decomposed
    on its WKB pair at z_max. The route supplies the ``coefficients`` of its
    system in z (``_integrate``), ``enter(z, (Psi, Psi'))`` mapping a wave into
    its state and ``leave(zs, ys)`` mapping the states at all panel ends
    back to (Psi, Psi'), on which every check is read (``Diagnostics``),
    and the ``knots`` of its first partition, ln z of where a low derivative
    of its coefficients jumps unseen by the panel test (``_first_partition``).
    """
    z_min, z_max = domain
    sol = _integrate(coefficients, domain, fld.k, fld.potential.breaks,
                     enter(z_min, fld.cliff_wave(z_min)), rtol, knots)
    psi, dpsi = leave(sol.t, sol.y)
    cp, cm = _decompose(psi[-1], dpsi[-1], *fld.wkb_pair(z_max))
    if cm == 0.0:
        raise ZeroDivisionError("the far-end wave has no incoming part (c- = 0)")
    inv = 1.0 / cm
    current = np.imag(np.conj(psi) * dpsi)
    diags = Diagnostics(
        unitarity_residual=float(abs(abs(cm) ** 2 - abs(cp) ** 2 - 1.0) * abs(inv) ** 2),
        wronskian_drift=float(np.max(np.abs(current - current[0])) / abs(current[0])),
        matching_q_left=float(fld.cliff_residual(z_min)),
        matching_q_right=float(fld.q(z_max)),
    )
    return ScatteringResult(r=cp / cm, t=inv, diagnostics=diags)


def _same(z, y):
    return y


def solve_direct(potential, energy: float, ctl: SolverControl | None = None) -> ScatteringResult:
    """Integrate the Schrodinger equation once across the badlands.

    The wave starts at the cliff-side matching point as the field's cliff
    wave, the one-way wave into the surface (full transmission), and is
    decomposed on the WKB pair at the far-end matching point, giving
    r = c+/c- and t = 1/c-. The state (Psi, Psi') has a = 1 and b = -F.
    """
    ctl = ctl or _DEFAULT_CTL
    fld = WkbField(potential, energy)

    def coefficients(zs, running):
        return 1.0, -fld.f_coeff(zs)

    return _solve(fld, fld.matching_domain(ctl.q_match_rel), coefficients, ctl.rtol,
                  _same, _same)


def _adiabatic_pair(fld: WkbField, z):
    """The waves w+- = alpha e^(+-i phi) and their derivatives +-i k w+-: the
    basis whose coefficients are the coupled route's (beta_+, beta_-)."""
    k = fld.k(z)
    w = k ** -0.5 * np.exp(1j * fld.phi(z))
    return (w, 1j * k * w), (w.conjugate(), -1j * k * w.conjugate())


def solve_coupled(potential, energy: float, ctl: SolverControl | None = None) -> ScatteringResult:
    """Same problem as ``solve_direct`` in counter-propagating amplitudes.

    The state carries (beta_+, beta_-); the amplitudes obey
    beta_eta' = beta_(-eta) (k'/2k) exp(-2 i eta phi). On each panel phi
    is ``fld.phi`` at the panel's first node plus the integral of k from
    there, so it never drifts. (beta_+, beta_-) are a wave's coefficients
    on the adiabatic pair (``_adiabatic_pair``), so a wave enters by
    ``_decompose`` on that pair and leaves as its sum over it. The cliff wave enters
    exactly; the leftward WKB wave, for one, enters with a first-order
    dressing beta_+ = i k'/(4 k**2) e^(-2 i phi).
    """
    ctl = ctl or _DEFAULT_CTL
    fld = WkbField(potential, energy)

    def coefficients(zs, running):
        k = fld.k(zs)
        g = fld.potential.dvalue(zs) / (-4.0 * k * k)   # k'/(2k)
        phase = running(k)
        rot = np.exp(-2j * (fld.phi(zs[:, 0])[:, None] + phase - phase[:, :1]))
        return g * rot, g * rot.conj()

    def enter(z, wave):
        return _decompose(*wave, *_adiabatic_pair(fld, z))

    def leave(z, y):
        (wp, dwp), (wm, dwm) = _adiabatic_pair(fld, z)
        return y[0] * wp + y[1] * wm, y[0] * dwp + y[1] * dwm

    return _solve(fld, fld.matching_domain(ctl.q_match_rel), coefficients, ctl.rtol,
                  enter, leave)


def solve_transformed(problem: TransformedProblem, ctl: SolverControl | None = None) -> ScatteringResult:
    """Solve the Liouville-transformed problem; amplitudes are gauge-invariant.

    The state is (Psi_t, dPsi_t/dzt) but the integration walks the
    *original* coordinate, with the map's derivative as Jacobian. The wall
    shape then never needs a numeric map inversion and the endpoints land
    exactly on the matching points, where the problem carries the field's
    waves over.
    """
    ctl = ctl or _DEFAULT_CTL

    def coefficients(zs, running):
        jac, f = problem.coefficients(zs)
        return jac, -f * jac

    # F_t holds V'', whose third derivative jumps at each knot of a table's fit
    return _solve(problem.field, problem.domain, coefficients, ctl.rtol,
                  problem.carry, problem.uncarry, problem.field.potential.log_knots())


def scattering_length(potential, ctl: SolverControl | None = None) -> ScatteringLength:
    """Complex scattering length a of a potential with a -C4/z**4 far tail.

    At E = 0 the one-way wave into the surface tends to A (z - a) far out,
    and at low energy r = -(1 - 2 i kappa a) + O(kappa**2). Where -C4/z**4
    holds at every z (``one_law``) that wave is z e^(i ell/z), so a = -i ell
    in closed form, ell = sqrt(C4). Otherwise a comes from one solve of
    psi'' = V psi at E = 0, exact at both ends, so no matching cut enters:
    it starts where the cliff tail ends, on its threshold wave
    (``threshold_wave``), and is written where the -C4/z**4 tail begins as
    A z cos(ell/z) + B z sin(ell/z), the solutions of that tail; then
    a = -B ell/A.

    A direct solve at kappa ell = 1e-4 checks a:
    ``fit_residual`` is |r - r_model| there, for r_model = -(1 - 2 i kappa a)
    with a pinned and nothing fitted. Beyond ``FIT_RESIDUAL_MAX`` that
    energy is not yet asymptotic, or the solve disagrees with a, and the
    call raises.
    """
    ctl = ctl or _DEFAULT_CTL
    n, c4, _ = potential.tails[1]
    if n != 4:
        raise ValueError("scattering length needs an inverse-quartic far-end tail")
    ell = math.sqrt(c4)
    a = complex(0.0, -ell) if one_law(potential) else _threshold_length(potential, ell, ctl.rtol)
    kappa = 1e-4 / ell
    residual = float(abs(solve_direct(potential, kappa * kappa, ctl).r + 1.0 - 2j * kappa * a))
    if residual > FIT_RESIDUAL_MAX:
        raise RuntimeError(
            f"scattering-length check residual {residual:.2e} above "
            f"{FIT_RESIDUAL_MAX:.2e}: kappa ell = 1e-4 not asymptotic, "
            f"or the solve disagrees with a")
    return ScatteringLength(a=a, ell=ell, fit_residual=residual)


def _threshold_length(table, ell: float, rtol: float) -> complex:
    """a from one solve of psi'' = V psi across a table at E = 0, from the
    threshold wave where its cliff tail ends to where its far tail begins,
    on the panels of every solve (``_integrate``), laid by the phase at
    E = 0, int sqrt(-V) dz."""
    (n, c_n, z_top), (_, _, z) = table.tails
    sol = _integrate(lambda zs, running: (1.0, table.value(zs)), (z_top, z),
                     lambda zs: np.sqrt(-table.value(zs)), table.breaks,
                     threshold_wave(z_top, n, c_n), rtol)
    c, s = math.cos(ell / z), math.sin(ell / z)
    wave = tuple(sol.y[:, -1])
    # A and B, each times W(z cos, z sin) = -ell, which cancels in -B ell/A
    along_cos = wronskian(wave, (z * s, s - ell / z * c))
    along_sin = wronskian((z * c, c + ell / z * s), wave)
    return complex(-ell * along_sin / along_cos)
