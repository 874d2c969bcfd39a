"""Numerical scattering solvers and S-matrix extraction.

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
three run on one integrator, ``solve_ivp``: Chebyshev panels of two rules,
32 nodes where the phase sets a panel's width and 12 where a knot of a
table does, solved many at a time. The routes check each other as three
gauges with very different coefficients; the tests also check each
against scipy's ``solve_ivp`` reading the same coefficients point by
point.

Conventions: r and t are defined for a wave incident from the far end; the
incoming/transmitted wave at the cliff carries the WKB phase anchored by
phi(z) - kappa z -> 0 at infinity, which fixes the transmission phase factor
exp(2 i vk z_star) of the inverse-quartic closed form.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .liouville import TransformedProblem
from .wkb import WkbField

__all__ = [
    "SolverControl",
    "TransferMatrix",
    "ScatteringMatrix",
    "ScatteringResult",
    "ScatteringLength",
    "Diagnostics",
    "wronskian",
    "s_from_t",
    "solve_direct",
    "solve_coupled",
    "solve_transformed",
    "scattering_length",
]


FIT_RESIDUAL_MAX = 1e-4    # scattering_length's gate on max |r_fit - r|


@dataclass(frozen=True)
class SolverControl:
    """Integration and matching knobs shared by all solvers."""

    rtol: float = 1e-12
    q_match_rel: float = 1e-10    # matching cut: Q/Q_peak, or E z**n/C_n on a threshold tail

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
class TransferMatrix:
    tpp: complex
    tpm: complex
    tmp: complex
    tmm: complex

    def det(self) -> complex:
        return self.tpp * self.tmm - self.tpm * self.tmp


@dataclass(frozen=True)
class ScatteringMatrix:
    spp: complex
    spm: complex
    smp: complex
    smm: complex

    def as_array(self) -> np.ndarray:
        return np.array([[self.spp, self.spm], [self.smp, self.smm]])

    def unitarity_residual(self) -> float:
        s = self.as_array()
        return float(np.max(np.abs(s @ s.conj().T - np.eye(2))))


@dataclass(frozen=True)
class Diagnostics:
    unitarity_residual: float
    det_t_residual: float
    wronskian_drift: float
    current_residual: float
    matching_q_left: float     # the start's own error: Q, or E z**n/C_n on a threshold tail
    matching_q_right: float    # Q at the far end


@dataclass(frozen=True)
class ScatteringResult:
    kappa: float
    r: complex
    t: complex
    transfer: TransferMatrix
    smatrix: ScatteringMatrix
    diagnostics: Diagnostics

    @property
    def R(self) -> float:  # noqa: N802
        return abs(self.r) ** 2


@dataclass(frozen=True)
class ScatteringLength:
    a: complex
    ell: float
    fit_residual: float
    kappa_grid: tuple[float, ...] = dc_field(default=())

    @property
    def b(self) -> float:
        return -self.a.imag


def s_from_t(transfer: TransferMatrix) -> ScatteringMatrix:
    """S-matrix from a transfer matrix; requires a nonzero (+,+) entry."""
    if abs(transfer.tpp) == 0.0:
        raise ZeroDivisionError("transfer matrix has vanishing (+,+) entry")
    inv = 1.0 / transfer.tpp
    return ScatteringMatrix(spp=inv, spm=-transfer.tpm * inv,
                            smp=transfer.tmp * inv, smm=inv)


def _matrices_from_coefficients(cp: complex, cm: complex) -> tuple[TransferMatrix, ScatteringMatrix]:
    # the one-way solution continued from the cliff reads c+ Psi_R^+ + c- Psi_R^-
    # at the far end; its complex conjugate supplies the second column
    transfer = TransferMatrix(tpp=cm, tpm=-cp, tmp=-cp.conjugate(), tmm=cm.conjugate())
    return transfer, s_from_t(transfer)


def _decompose(psi: complex, dpsi: complex,
               plus: tuple[complex, complex], minus: tuple[complex, complex]) -> tuple[complex, complex]:
    # W((Psi^+)* , .) and W((Psi^-)* , .) project on the two channels; for a
    # real-phase basis the conjugates swap the pair and W(Psi^-, Psi^+) = 2i
    cp = wronskian(minus, (psi, dpsi)) / 2j
    cm = -wronskian(plus, (psi, dpsi)) / 2j
    return cp, cm


# -- Chebyshev panels ----------------------------------------------------------
# Every route's state obeys y' = [[0, a], [b, 0]] y, in integral form on panels
# of first-kind Chebyshev points (Greengard, SIAM J. Numer. Anal. 28, 1071
# (1991)). The system is linear, so a panel's 2x2 propagator does not depend
# on the state, and the panels of a solve are solved together, in batches.
# A panel takes one of two rules, after what set its width: the phase, or a
# knot of a table, which leaves it narrow and smooth.

_PHASE_NODES = 32     # a panel of up to _PHASE_RAD of phi and z_b/z_a <= _PHASE_RATIO
_PHASE_RAD = 12.0
_PHASE_RATIO = 2.0
_KNOT_NODES = 12      # a panel of at most _KNOT_RAD and z_b/z_a <= _KNOT_RATIO; 8 fails too often
_KNOT_RAD = 2.0
_KNOT_RATIO = 1.1
_BUDGET = 16384       # matrix entries (nodes**2 a panel) solved at once; more holds more memory
_TAIL_FLOOR = 1e-14   # floor of the panel test's tol: its rounding noise


class OdeResult:
    """The panel ends ``t`` (the start included), the states ``y`` there
    (shape 2 x len(t)), the count ``nfev`` of coefficient evaluations,
    ``success`` and why the run ended (``message``)."""

    __slots__ = ("t", "y", "nfev", "success", "message")

    def __init__(self, t: np.ndarray, y: np.ndarray, nfev: int, success: bool, message: str):
        self.t, self.y, self.nfev, self.success, self.message = t, y, nfev, success, message


@functools.cache
def _chebyshev_rule(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(x, S, w, tail) on [-1, 1]: the n points, ascending; S @ f and w @ f,
    the integrals of the interpolant of f from -1 to each point and over
    [-1, 1] (Fejer's first rule); tail @ f, its last two Chebyshev
    coefficients. Built on first use, so that importing the package builds
    nothing."""
    theta = np.pi - np.pi * (np.arange(n) + 0.5) / n       # arccos of the points
    x = np.cos(theta)
    cheb = np.cos(np.outer(np.arange(n + 1), theta))      # T_m(x_j), m = 0 .. n
    to_coeffs = 2.0 / n * cheb[:n]
    to_coeffs[0] *= 0.5
    # int_{-1}^{x} T_m = T_(m+1)/(2(m+1)) - T_(m-1)/(2(m-1)) - (its value at -1)
    m = np.arange(2, n)[:, None]
    sign = (-1.0) ** (m + 1)
    upper = (cheb[3:] - sign) / (2.0 * (m + 1)) - (cheb[1:n - 1] - sign) / (2.0 * (m - 1))
    integrals = np.vstack([x + 1.0, 0.5 * (x * x - 1.0), upper])   # [m, i]
    whole = np.array([2.0 / (1 - k * k) if k % 2 == 0 else 0.0 for k in range(n)])
    return x, integrals.T @ to_coeffs, whole @ to_coeffs, to_coeffs[-2:]


def _times(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """x @ m for a real m, with a complex x split into real and imaginary
    parts: numpy multiplies a complex by a real matrix many times slower."""
    if not np.iscomplexobj(x):
        return x @ m
    out = np.empty(x.shape[:-1] + m.shape[1:], dtype=complex)
    out.real = x.real @ m
    out.imag = x.imag @ m
    return out


def _first_partition(fld: WkbField, domain: tuple[float, float]) -> tuple[np.ndarray, np.ndarray]:
    """Panel ends across ``domain`` and each panel's node count.

    There is an end on every knot of the potential, none more than
    ``_PHASE_RATIO`` apart, and about ``_PHASE_RAD`` of phi apart, spaced
    evenly between those points. A panel of at most ``_KNOT_RAD`` and
    ``_KNOT_RATIO``, which on a table is one knot interval or less, takes
    ``_KNOT_NODES``; the others ``_PHASE_NODES``.
    """
    z_min, z_max = domain
    count = math.ceil(math.log(z_max / z_min) / math.log(_PHASE_RATIO))
    coarse = z_min * (z_max / z_min) ** (np.arange(count + 1) / count)
    coarse[-1] = z_max
    knots = np.asarray(fld.potential.breaks, dtype=float)
    knots = knots[(knots > z_min) & (knots < z_max)]
    if len(knots):
        coarse = np.union1d(coarse, knots)
    phase = np.diff(fld.phi(coarse))
    parts = np.maximum(np.ceil(phase / _PHASE_RAD), 1.0).astype(int)
    piece = np.repeat(np.arange(len(parts)), parts)
    step = np.diff(coarse)[piece] / parts[piece]
    ends = coarse[piece] + (np.arange(len(piece)) - (np.cumsum(parts) - parts)[piece]) * step
    knot_bound = (phase <= _KNOT_RAD) & (coarse[1:] <= _KNOT_RATIO * coarse[:-1])
    return np.append(ends, z_max), np.where(knot_bound, _KNOT_NODES, _PHASE_NODES)[piece]


def solve_ivp(coefficients, ends, nodes, y0, rtol: float) -> OdeResult:
    """Integrate y' = [[0, a(z)], [b(z), 0]] y from ``y0`` at ends[0] to ends[-1].

    ``ends`` is the first partition into panels and ``nodes`` the size of
    each panel's Chebyshev rule (one count, or one per panel);
    ``coefficients(z_a, zs, running)`` returns a and b at the nodes ``zs``
    (one row per panel, from the panel starts ``z_a``), arrays or numbers,
    where ``running(f)`` integrates node values from each panel's start to
    each of its nodes. A panel solves Y = e_j + S (M Y) at its nodes for
    both unit starts e_j at once, one component eliminated, and its
    propagator's columns are e_j + w (M Y); no node lies on a panel end,
    where a coefficient may jump. A panel is accepted when the last two
    Chebyshev coefficients of both components are at most tol times their
    largest value, in both columns, tol = max(rtol, 1e-14): below that
    floor lies rounding noise. The panels that fail are halved, each half
    on its parent's rule, and solved again, the others kept; a panel
    narrower than ten ulps of z, or coefficients that are not finite, end
    the run with ``success=False``. The product of the propagators in order
    gives the states at the panel ends; ``nfev`` counts coefficient
    evaluations at nodes, retries included. The panels of one rule are
    solved in batches of at most ``_BUDGET`` matrix entries, nodes**2 a
    panel.
    """
    ends = np.asarray(ends, dtype=float)
    if not (len(ends) > 1 and (np.diff(ends) > 0.0).all()):
        raise ValueError(f"integration span ({ends[0]}, {ends[-1]}) does not run forward")
    nodes = np.broadcast_to(nodes, len(ends) - 1)
    tol = max(rtol, _TAIL_FLOOR)
    u_start = np.array([1.0, 0.0])    # the two columns start on (1, 0) and (0, 1)
    v_start = 1.0 - u_start
    starts, propagators, nfev = [], [], 0

    def failed(message: str) -> OdeResult:
        return OdeResult(ends[:1], np.array(y0, dtype=complex)[:, None], nfev, False, message)

    for n in np.unique(nodes).tolist():
        x, s_ref, w_ref, tail_ref = _chebyshev_rule(n)
        batch = max(_BUDGET // (n * n), 1)
        queue_a, queue_b = ends[:-1][nodes == n], ends[1:][nodes == n]
        while len(queue_a):
            z_a, z_b = queue_a[:batch], queue_b[:batch]
            half = 0.5 * (z_b - z_a)
            if not (half >= 5.0 * (np.nextafter(z_a, np.inf) - z_a)).all():
                return failed("Required panel width is less than spacing between numbers.")
            zs = z_a[:, None] + half[:, None] * (x + 1.0)
            a, b = (np.broadcast_to(c, zs.shape) for c in
                    coefficients(z_a, zs, lambda f: half[:, None] * _times(f, s_ref.T)))
            nfev += zs.size
            if not (np.isfinite(a).all() and np.isfinite(b).all()):
                return failed("Coefficients are not finite.")
            # U = u_a + S a V and V = v_a + S b U, for (u_a, v_a) = (1, 0) and
            # (0, 1): (1 - S a S b) U = u_a + v_a S a 1, then V = v_a + S b U
            ha, hb = half[:, None] * a, half[:, None] * b
            lhs = _times(s_ref * ha[:, None, :], s_ref)
            lhs *= -hb[:, None, :]
            lhs.reshape(len(z_a), -1)[:, ::n + 1] += 1.0
            us = np.linalg.solve(lhs, np.stack([np.ones(zs.shape), _times(ha, s_ref.T)], axis=2))
            us = np.ascontiguousarray(us.transpose(0, 2, 1))          # [panel, column, node]
            vs = _times(hb[:, None, :] * us, s_ref.T) + v_start[:, None]
            # the tail test on both components of both columns
            tails = np.abs(_times(np.concatenate([us, vs], axis=2).reshape(-1, n), tail_ref.T))
            size = np.maximum(np.abs(us).max(axis=2), np.abs(vs).max(axis=2))
            good = (tails.reshape(len(z_a), 2, 4).max(axis=2) <= tol * size).all(axis=1)
            starts.append(z_a[good])
            weights = half[good, None] * w_ref
            propagators.append(np.stack([
                u_start + np.einsum("pcn,pn->pc", vs[good], weights * a[good]),
                v_start + np.einsum("pcn,pn->pc", us[good], weights * b[good])], axis=1))
            mid = z_a[~good] + half[~good]
            queue_a = np.concatenate([queue_a[batch:], z_a[~good], mid])
            queue_b = np.concatenate([queue_b[batch:], mid, z_b[~good]])
    order = np.argsort(np.concatenate(starts))
    y = tuple(map(complex, y0))
    ys = [y]
    for (m00, m01), (m10, m11) in np.concatenate(propagators)[order].tolist():
        y = (m00 * y[0] + m01 * y[1], m10 * y[0] + m11 * y[1])
        ys.append(y)
    t = np.append(np.concatenate(starts)[order], ends[-1])
    return OdeResult(t, np.array(ys).T, nfev, True,
                     "The solver successfully reached the end of the integration interval.")


def _solve(fld: WkbField, domain: tuple[float, float], coefficients, rtol: float,
           current, enter, leave) -> ScatteringResult:
    """Integrate one route across ``domain`` and assemble its amplitudes.

    Every route starts on the field's cliff wave at z_min and is decomposed
    on its WKB pair at z_max. The route supplies the ``coefficients`` of its
    system for ``solve_ivp``, the conserved ``current`` of its states (for
    the Wronskian drift over every panel), ``enter(z, (Psi, Psi'))`` mapping
    a wave into its state and ``leave(z, y)`` mapping a state back.
    """
    z_min, z_max = domain
    sol = solve_ivp(coefficients, *_first_partition(fld, domain),
                    enter(z_min, fld.cliff_wave(z_min)), rtol)
    if not sol.success:
        raise RuntimeError(f"integration failed: {sol.message}")
    psi, dpsi = leave(z_max, sol.y[:, -1])
    cp, cm = _decompose(psi, dpsi, *fld.wkb_pair(z_max))
    cur = current(sol.y)
    drift = float(np.max(np.abs(cur - cur[0])) / abs(cur[0]))
    transfer, smatrix = _matrices_from_coefficients(cp, cm)
    diags = Diagnostics(
        unitarity_residual=smatrix.unitarity_residual(),
        det_t_residual=abs(transfer.det() - 1.0),
        wronskian_drift=drift,
        current_residual=abs(abs(cm) ** 2 - abs(cp) ** 2 - 1.0),
        matching_q_left=float(fld.cliff_residual(z_min)),
        matching_q_right=float(fld.q(z_max)),
    )
    return ScatteringResult(kappa=fld.kappa, r=cp / cm, t=1.0 / cm,
                            transfer=transfer, smatrix=smatrix, diagnostics=diags)


def _wave_current(ys) -> np.ndarray:
    """Im(Psi* Psi') of (Psi, Psi') states, in whatever coordinate they use."""
    return np.imag(np.conj(ys[0]) * ys[1])


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

    def coefficients(z_a, zs, running):
        return 1.0, -fld.f_coeff(zs)

    return _solve(fld, fld.matching_domain(ctl.q_match_rel), coefficients, ctl.rtol,
                  _wave_current, _same, _same)


def _amplitudes(fld: WkbField, z: float, wave: tuple[complex, complex]):
    """(b+, b-) at z of a wave solved from Psi = b+ w+ + b- w- and
    Psi' = ik (b+ w+ - b- w-), w+- = alpha e^(+-i phi) the WKB waves."""
    psi, dpsi = wave
    k, phi = fld.k(z), fld.phi(z)
    half = 0.5 * k ** 0.5
    return ((psi + dpsi / (1j * k)) * half * cmath.exp(-1j * phi),
            (psi - dpsi / (1j * k)) * half * cmath.exp(1j * phi))


def _amplitude_wave(fld: WkbField, z: float, y) -> tuple[complex, complex]:
    """The inverse of ``_amplitudes``: (b+, b-) at z back to (Psi, Psi')."""
    bp, bm = y
    k = fld.k(z)
    al = k ** -0.5
    ph = fld.phi(z)
    wp = al * cmath.exp(1j * ph)
    wm = al * cmath.exp(-1j * ph)
    return bp * wp + bm * wm, 1j * k * (bp * wp - bm * wm)


def solve_coupled(potential, energy: float, ctl: SolverControl | None = None) -> ScatteringResult:
    """Same problem as ``solve_direct`` in counter-propagating amplitudes.

    The state carries (beta_+, beta_-); the amplitudes obey
    beta_eta' = beta_(-eta) (k'/2k) exp(-2 i eta phi). On each panel phi
    is ``fld.phi`` at the panel's start plus the panel's integral of k, so
    it never drifts. The cliff wave enters this gauge exactly; the leftward
    WKB wave, for one, enters with a first-order dressing
    beta_+ = i k'/(4 k**2) e^(-2 i phi).
    """
    ctl = ctl or _DEFAULT_CTL
    fld = WkbField(potential, energy)

    def coefficients(z_a, zs, running):
        k = fld.k(zs)
        g = fld.potential.dvalue(zs) / (-4.0 * k * k)   # k'/(2k)
        rot = np.exp(-2j * (fld.phi(z_a)[:, None] + running(k)))
        return g * rot, g * rot.conj()

    def current(ys):
        return np.abs(ys[1]) ** 2 - np.abs(ys[0]) ** 2

    return _solve(fld, fld.matching_domain(ctl.q_match_rel), coefficients, ctl.rtol, current,
                  functools.partial(_amplitudes, fld), functools.partial(_amplitude_wave, fld))


def solve_transformed(problem: TransformedProblem, ctl: SolverControl | None = None) -> ScatteringResult:
    """Solve the Liouville-transformed problem; amplitudes are gauge-invariant.

    The state is (Psi_t, dPsi_t/dzt) but the integration walks the
    *original* coordinate, with the map's derivative as Jacobian. The wall
    shape then never needs a numeric map inversion and the endpoints land
    exactly on the matching points, where the problem carries the field's
    waves over.
    """
    ctl = ctl or _DEFAULT_CTL

    def coefficients(z_a, zs, running):
        jac, f = problem.coefficients(zs)
        return jac, -f * jac

    return _solve(problem.field, problem.domain, coefficients, ctl.rtol, _wave_current,
                  problem.carry, problem.uncarry)


def scattering_length(potential, ctl: SolverControl | None = None) -> ScatteringLength:
    """Complex scattering length from the low-energy expansion of r.

    Fits r(kappa) = -(1 - 2 i kappa a) by linear regression of
    (r + 1)/(2 i kappa) against kappa over a geometric grid of small
    kappa*ell (1e-4 .. 1e-2, 8 points), extrapolated to kappa = 0. The
    residual gate is max |r_fit - r| over the grid; beyond
    ``FIT_RESIDUAL_MAX`` the grid is not asymptotic and the fit raises.
    """
    ctl = ctl or _DEFAULT_CTL
    n, c4 = potential.tail_far()
    if n != 4:
        raise ValueError("scattering length needs an inverse-quartic far-end tail")
    ell = math.sqrt(getattr(potential, "far_c4_matched", c4))
    kappas = np.geomspace(1e-4, 1e-2, 8) / ell
    rs = np.array([solve_direct(potential, k * k, ctl).r for k in kappas])
    y = (rs + 1.0) / (2j * kappas)
    design = np.vstack([np.ones_like(kappas), kappas]).T
    coeffs, *_ = np.linalg.lstsq(design, y, rcond=None)
    a = complex(coeffs[0])
    r_fit = -(1.0 - 2j * kappas * (design @ coeffs))
    residual = float(np.max(np.abs(r_fit - rs)))
    if residual > FIT_RESIDUAL_MAX:
        raise RuntimeError(
            f"scattering-length fit residual {residual:.2e} above "
            f"{FIT_RESIDUAL_MAX:.2e}: kappa grid not asymptotic")
    return ScatteringLength(a=a, ell=ell, fit_residual=residual,
                            kappa_grid=tuple(float(k) for k in kappas))
