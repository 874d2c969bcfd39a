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
WKB pair; each route only maps them into and out of its own state. Direct
runs on DOP853 (``solve_ivp``), the two gauge routes on Chebyshev panels
(``collocate``), so the routes check two integrators as well as three gauges.

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
from scipy.integrate import DOP853
from scipy.linalg.lapack import zgesv

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


ATOL_FACTOR = 1e-14        # absolute tolerance relative to the wave amplitude
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


# -- DOP853 on Python scalars ------------------------------------------------
# scipy's DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, II.10) replayed on
# lists of Python complex numbers: the same tableau, initial step, error norm
# and step-size control.  The direct route's state holds two components, where
# numpy's per-stage dot, asarray and add cost far more than the RHS itself.

_EXPONENT = -1.0 / (DOP853.error_estimator_order + 1)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0


def _combination(coefficients: np.ndarray, j: int) -> str:
    # sum_s a_s k_s of component j over the nonzero entries, added left to
    # right; a complex literal round-trips exactly and makes each product one
    # complex multiplication
    return " + ".join(f"{complex(a)!r}*k{s}_{j}"
                      for s, a in enumerate(coefficients.tolist()) if a)


@functools.cache
def _attempt_kernel(n: int):
    """One DOP853 attempt on an n-component state, as straight-line code.

    ``attempt(fun, t, h, t_new, y, f, rtol, atol)`` takes the step from t to
    ``t_new`` = t + h and returns ``(y_new, f_new, e5, e3)``: the new state,
    its derivative and the sums of squares of the E5 and E3 error estimates
    weighted by 1 / (atol + max(|y|, |y_new|) rtol), real parts first.  The
    source is generated from scipy's tableau and compiled once per n, the
    way ``dataclasses`` builds ``__init__``; per stage, a loop over the
    tableau cost five times the RHS calls.  It is built on first use, so
    that importing the package compiles nothing.
    """
    comps, last = range(n), DOP853.n_stages   # k{last} is f_new

    def names(prefix: str) -> str:
        return "".join(f"{prefix}{j}, " for j in comps)

    def sumsq(e: str) -> str:
        # as _sumsq: the real parts, then the imaginary parts
        return " + ".join("(" + " + ".join(f"{e}{j}.{p}*{e}{j}.{p}" for j in comps) + ")"
                          for p in ("real", "imag"))

    src = ["def attempt(fun, t, h, t_new, y, f, rtol, atol):",
           f"    {names('y')}= y",
           f"    {names('k0_')}= f"]
    for s in range(1, last):
        state = ", ".join(f"y{j} + ({_combination(DOP853.A[s, :s], j)})*h" for j in comps)
        src.append(f"    {names(f'k{s}_')}= fun(t + {float(DOP853.C[s])!r}*h, [{state}])")
    src += [f"    u{j} = y{j} + h*({_combination(DOP853.B, j)})" for j in comps]
    src += [f"    y_new = [{names('u')}]",
            "    f_new = fun(t_new, y_new)",
            f"    {names(f'k{last}_')}= f_new"]
    for j in comps:
        src += [f"    w = 1.0 / (atol + max(abs(y{j}), abs(u{j})) * rtol)",
                f"    e5_{j} = ({_combination(DOP853.E5, j)})*w",
                f"    e3_{j} = ({_combination(DOP853.E3, j)})*w"]
    src.append(f"    return y_new, f_new, {sumsq('e5_')}, {sumsq('e3_')}")
    namespace: dict = {}
    exec("\n".join(src), namespace)
    return namespace["attempt"]


class OdeResult:
    """The accepted points ``t`` (the start included), the states ``y`` there
    (shape n × len(t)), the count ``nfev`` of RHS or coefficient evaluations,
    ``success`` and why the run ended (``message``)."""

    __slots__ = ("t", "y", "nfev", "success", "message")

    def __init__(self, t: np.ndarray, y: np.ndarray, nfev: int, success: bool, message: str):
        self.t, self.y, self.nfev, self.success, self.message = t, y, nfev, success, message


def _sumsq(vs) -> float:
    # numpy.linalg.norm's order: the real parts, then the imaginary parts
    return sum([v.real * v.real for v in vs]) + sum([v.imag * v.imag for v in vs])


def _initial_step(fun, t, y, f, span, rtol, atol) -> float:
    """scipy's ``select_initial_step`` (Hairer, Norsett & Wanner, II.4)."""
    w = [1.0 / (atol + abs(v) * rtol) for v in y]
    root_n = len(y) ** 0.5
    d0 = math.sqrt(_sumsq([v * s for v, s in zip(y, w)])) / root_n
    d1 = math.sqrt(_sumsq([v * s for v, s in zip(f, w)])) / root_n
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, span)
    f1 = fun(t + h0, [v + h0 * g for v, g in zip(y, f)])
    d2 = math.sqrt(_sumsq([(a - b) * s for a, b, s in zip(f1, f, w)])) / root_n / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** -_EXPONENT
    return min(100 * h0, h1, span)


def solve_ivp(fun, t_span, y0, rtol: float, atol: float, breaks=()) -> OdeResult:
    """Integrate y' = fun(t, y) forward over ``t_span`` by DOP853.

    Takes the same steps and RHS calls as ``scipy.integrate.solve_ivp(...,
    method="DOP853")`` up to rounding: ``fun`` receives the state as a list
    of complex numbers and returns a sequence of its derivatives.  A step
    that shrinks below ten ulps of t, as after an RHS that turned NaN, ends
    the run with ``success=False``.

    ``breaks`` are increasing points where ``fun`` is not smooth, such as
    the knots of a spline.  No step crosses one: a step that would ends on
    it, as a step that would pass the end of the span ends there.  The error
    estimate of a step across a kink is not to be trusted.
    """
    t, t_end = map(float, t_span)
    if not t < t_end:
        raise ValueError(f"integration span {t_span} does not run forward")
    stops = [t_end, *(b for b in map(float, reversed(breaks)) if t < b < t_end)]
    stop = stops.pop()
    y = [complex(v) for v in y0]
    attempt = _attempt_kernel(len(y))
    f = fun(t, y)
    h_abs = _initial_step(fun, t, y, f, t_end - t, rtol, atol)
    nfev = 2
    ts, ys = [t], [y]
    while t < t_end:
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:   # also ends a NaN step size, which scipy retries forever
                return OdeResult(np.array(ts), np.array(ys).T, nfev, False,
                                 "Required step size is less than spacing between numbers.")
            t_new = min(t + h_abs, stop)
            h = t_new - t
            y_new, f_new, e5, e3 = attempt(fun, t, h, t_new, y, f, rtol, atol)
            nfev += DOP853.n_stages
            if e5 == 0.0 and e3 == 0.0:
                err = 0.0
            else:
                err = h * e5 / math.sqrt((e5 + 0.01 * e3) * len(y))
            if err < 1.0:
                factor = _MAX_FACTOR if err == 0.0 else min(_MAX_FACTOR, _SAFETY * err ** _EXPONENT)
                h_abs = h * (min(1.0, factor) if rejected else factor)
                break
            h_abs = h * max(_MIN_FACTOR, _SAFETY * err ** _EXPONENT)
            rejected = True
        t, y, f = t_new, y_new, f_new
        ts.append(t)
        ys.append(y)
        if t == stop and stops:
            stop = stops.pop()
    return OdeResult(np.array(ts), np.array(ys).T, nfev, True,
                     "The solver successfully reached the end of the integration interval.")


# -- Chebyshev panels ----------------------------------------------------------
# The gauge routes' y' = [[0, a], [b, 0]] y in integral form on panels of
# first-kind Chebyshev points (Greengard, SIAM J. Numer. Anal. 28, 1071 (1991)).

_NODES = 16           # per panel: 12 is about 2x slower on v4, 8 about 10x, 24 no faster
_TAIL_FLOOR = 1e-14   # floor of the panel test's tol: its rounding noise
_GROW, _SHRINK = 4.0, 0.2


@functools.cache
def _chebyshev_rule() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(x, S, w, tail) on [-1, 1]: the ``_NODES`` points, ascending; S @ f and
    w @ f, the integrals of the interpolant of f from -1 to each point and
    over [-1, 1] (Fejer's first rule); tail @ f, its last two Chebyshev
    coefficients. Built on first use, like ``_attempt_kernel``."""
    n = _NODES
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


def collocate(coefficients, domain, y0, rtol: float, breaks=()) -> OdeResult:
    """Integrate y' = [[0, a(z)], [b(z), 0]] y forward over ``domain`` on Chebyshev panels.

    ``coefficients(z_a, zs, s)`` returns arrays of a and b at the nodes
    ``zs`` of the panel from z_a, where ``s @ f`` integrates node values
    from z_a to each node. A panel solves Y = y_a + S (M Y) at its nodes,
    one component eliminated, and ends on y_a + w (M Y); no node lies on its
    ends, where a coefficient may jump. It is accepted when the last two
    Chebyshev coefficients of both components are at most tol times its
    largest |Y|, tol = max(rtol, 1e-14): below that floor lies rounding
    noise (at 1e-15 v4 and the test table took six times the panels). The
    first panel is as wide as z_min, the next scales by (tol/tail)**(1/14)
    within x0.2 .. x4, and a retry by x0.9 at most, so that a tail a hair
    above tol cannot retry one panel forever. Panels end on ``breaks``; one
    narrower than ten ulps of z, as after NaN coefficients, ends the run
    with ``success=False``. As from ``solve_ivp``, ``t`` holds the panel
    ends, ``y`` the states there; ``nfev`` counts node evaluations.
    """
    x, s_ref, w_ref, tail_ref = _chebyshev_rule()
    z, z_end = map(float, domain)
    if not z < z_end:
        raise ValueError(f"integration span {domain} does not run forward")
    stops = [z_end, *(b for b in map(float, reversed(breaks)) if z < b < z_end)]
    stop = stops.pop()
    tol = max(rtol, _TAIL_FLOOR)
    u, v = map(complex, y0)
    eye = np.eye(_NODES)
    ts, ys, nfev, width = [z], [(u, v)], 0, z
    while z < z_end:
        z_b = min(z + width, stop)
        h = z_b - z
        if not h >= 10.0 * (math.nextafter(z, math.inf) - z):
            return OdeResult(np.array(ts), np.array(ys).T, nfev, False,
                             "Required panel width is less than spacing between numbers.")
        s = 0.5 * h * s_ref
        a, b = coefficients(z, z + 0.5 * h * (x + 1.0), s)
        nfev += _NODES
        sa, sb = s * a, s * b
        us, info = zgesv(eye - sa @ sb, u + v * sa.sum(axis=1))[2:]
        vs = sb @ us + v
        nodes = np.array((us, vs))
        tail = np.abs(nodes @ tail_ref.T).max() / np.abs(nodes).max() if info == 0 else math.nan
        if not tail <= tol:   # a NaN tail is rejected too, and shrinks the panel
            factor = min((tol / tail) ** (1.0 / (_NODES - 2)), _SAFETY)
            width = h * (factor if factor > _SHRINK else _SHRINK)
            continue
        u += complex(0.5 * h * (w_ref @ (a * vs)))
        v += complex(0.5 * h * (w_ref @ (b * us)))
        z = z_b
        ts.append(z)
        ys.append((u, v))
        width = h * (min((tol / tail) ** (1.0 / (_NODES - 2)), _GROW) if tail > 0.0 else _GROW)
        if z == stop and stops:
            stop = stops.pop()
    return OdeResult(np.array(ts), np.array(ys).T, nfev, True,
                     "The solver successfully reached the end of the integration interval.")


def _solve(fld: WkbField, domain: tuple[float, float],
           integrate, current, enter, leave) -> ScatteringResult:
    """Integrate one route across ``domain`` and assemble its amplitudes.

    Every route starts on the field's cliff wave at z_min and is decomposed
    on its WKB pair at z_max. The route supplies ``integrate(domain, y0,
    breaks)``, which returns an ``OdeResult``, the conserved ``current`` of
    its states (for the Wronskian drift over every accepted step or panel),
    ``enter(z, (Psi, Psi'))`` mapping a wave into its state and
    ``leave(z, y)`` mapping a state back.
    """
    z_min, z_max = domain
    sol = integrate(domain, enter(z_min, fld.cliff_wave(z_min)), breaks=fld.potential.breaks)
    if not sol.success:
        raise RuntimeError(f"integration failed: {sol.message}")
    psi, dpsi = leave(z_max, sol.y[:, -1])
    cp, cm = _decompose(psi, dpsi, fld.wkb_wave(z_max, +1), fld.wkb_wave(z_max, -1))
    cur = current(sol.y)
    drift = float(np.max(np.abs(cur - cur[0])) / abs(cur[0]))
    transfer, smatrix = _matrices_from_coefficients(cp, cm)
    diags = Diagnostics(
        unitarity_residual=smatrix.unitarity_residual(),
        det_t_residual=abs(transfer.det() - 1.0),
        wronskian_drift=drift,
        current_residual=abs(abs(cm) ** 2 - abs(cp) ** 2 - 1.0),
        matching_q_left=fld.cliff_residual(z_min),
        matching_q_right=fld.q(z_max),
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
    r = c+/c- and t = 1/c-.
    """
    ctl = ctl or _DEFAULT_CTL
    fld = WkbField(potential, energy)

    def rhs(z, y):
        return (y[1], -fld.f_coeff(z) * y[0])

    def integrate(domain, y0, breaks):
        return solve_ivp(rhs, domain, y0, rtol=ctl.rtol, atol=ATOL_FACTOR * abs(y0[0]),
                         breaks=breaks)

    return _solve(fld, fld.matching_domain(ctl.q_match_rel), integrate, _wave_current,
                  _same, _same)


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
    beta_eta' = beta_(-eta) (k'/2k) exp(-2 i eta phi), integrated by
    ``collocate``. On each panel phi is ``fld.phi`` at the panel's start
    plus the panel's integral of k, so it never drifts. The cliff wave
    enters this gauge exactly; the leftward WKB wave, for one, enters with
    a first-order dressing beta_+ = i k'/(4 k**2) e^(-2 i phi).
    """
    ctl = ctl or _DEFAULT_CTL
    fld = WkbField(potential, energy)

    def coefficients(z_a, zs, s):
        zs = zs.tolist()
        k = np.array([fld.k(z) for z in zs])
        g = np.array([fld.potential.dvalue(z) for z in zs]) / (-4.0 * k * k)   # k'/(2k)
        rot = np.exp(-2j * (fld.phi(z_a) + s @ k))
        return g * rot, g * rot.conj()

    def current(ys):
        return np.abs(ys[1]) ** 2 - np.abs(ys[0]) ** 2

    return _solve(fld, fld.matching_domain(ctl.q_match_rel),
                  functools.partial(collocate, coefficients, rtol=ctl.rtol), current,
                  functools.partial(_amplitudes, fld), functools.partial(_amplitude_wave, fld))


def solve_transformed(problem: TransformedProblem, ctl: SolverControl | None = None) -> ScatteringResult:
    """Solve the Liouville-transformed problem; amplitudes are gauge-invariant.

    The state is (Psi_t, dPsi_t/dzt) but the integration, by ``collocate``,
    walks the *original* coordinate, with the map's derivative as Jacobian.
    The wall shape then never needs a numeric map inversion and the
    endpoints land exactly on the matching points, where the problem carries
    the field's waves over.
    """
    ctl = ctl or _DEFAULT_CTL

    def coefficients(z_a, zs, s):
        jac, f = np.array([problem.coefficients(z) for z in zs.tolist()]).T
        return jac, -f * jac

    return _solve(problem.field, problem.domain,
                  functools.partial(collocate, coefficients, rtol=ctl.rtol), _wave_current,
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
