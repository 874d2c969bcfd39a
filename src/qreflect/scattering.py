"""Numerical scattering solvers and S-matrix extraction.

Three routes to the same amplitudes:

* ``solve_direct``: integrate Psi'' + F Psi = 0 between two matching points
  where the badlands function is negligible, starting from the leftward WKB
  wave at the cliff (the one-way condition: everything reaching the surface
  is absorbed there) and decomposing onto the WKB pair at the far end.
* ``solve_coupled``: the equivalent first-order system for the amplitudes of
  the two counter-propagating WKB waves.
* ``solve_transformed``: the same physics after a Liouville transformation,
  e.g. on the repulsive wall of the special gauge.

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


@dataclass(frozen=True)
class SolverControl:
    """Integration and matching knobs shared by all solvers."""

    rtol: float = 1e-12
    atol_factor: float = 1e-14    # absolute tolerance relative to the wave amplitude
    q_match_rel: float = 1e-10    # Q/Q_peak at which WKB matching is applied
    fit_residual_max: float = 1e-4

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

    def as_array(self) -> np.ndarray:
        return np.array([[self.tpp, self.tpm], [self.tmp, self.tmm]])


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
    matching_q_left: float
    matching_q_right: float


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
# and step-size control.  The states here hold two or three components, where
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
    (shape n × len(t)), the RHS call count ``nfev``, ``success`` and why the
    run ended (``message``)."""

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


def _solve(rhs, span: tuple[float, float], y0, atol_scale: float, end_wave, current,
           basis, kappa: float, q, breaks, ctl: SolverControl) -> ScatteringResult:
    """Integrate one route across ``span`` and assemble its amplitudes.

    The route supplies its RHS and initial state, ``end_wave`` mapping its end
    state to (Psi, Psi'), the conserved ``current`` of its states (for the
    Wronskian drift over every accepted step), the matching
    ``basis(z, direction)``, ``q`` for the badlands at the matching points
    (None when it has no WKB field) and the potential's ``breaks``.
    """
    sol = solve_ivp(rhs, span, y0, rtol=ctl.rtol, atol=ctl.atol_factor * atol_scale,
                    breaks=breaks)
    if not sol.success:
        raise RuntimeError(f"integration failed: {sol.message}")
    psi, dpsi = end_wave(sol.y[:, -1])
    z_min, z_max = span
    cp, cm = _decompose(psi, dpsi, basis(z_max, +1), basis(z_max, -1))
    cur = current(sol.y)
    drift = float(np.max(np.abs(cur - cur[0])) / abs(cur[0]))
    transfer, smatrix = _matrices_from_coefficients(cp, cm)
    diags = Diagnostics(
        unitarity_residual=smatrix.unitarity_residual(),
        det_t_residual=abs(transfer.det() - 1.0),
        wronskian_drift=drift,
        current_residual=abs(abs(cm) ** 2 - abs(cp) ** 2 - 1.0),
        matching_q_left=q(z_min) if q is not None else 0.0,
        matching_q_right=q(z_max) if q is not None else 0.0,
    )
    return ScatteringResult(kappa=kappa, r=cp / cm, t=1.0 / cm,
                            transfer=transfer, smatrix=smatrix, diagnostics=diags)


def _wave_current(ys) -> np.ndarray:
    """Im(Psi* Psi') of (Psi, Psi') states, in whatever coordinate they use."""
    return np.imag(np.conj(ys[0]) * ys[1])


def _as_wave(y) -> tuple[complex, complex]:
    return y[0], y[1]


def solve_direct(potential, energy: float, ctl: SolverControl | None = None) -> ScatteringResult:
    """Integrate the Schrodinger equation once across the badlands.

    The wave starts at the cliff-side matching point as the pure leftward
    WKB wave (full transmission into the surface) and is decomposed on the
    WKB pair at the far-end matching point, giving r = c+/c- and t = 1/c-.
    """
    ctl = ctl or _DEFAULT_CTL
    fld = WkbField(potential, energy)
    z_min, z_max = fld.matching_domain(ctl.q_match_rel)
    v0, d0 = fld.wkb_wave(z_min, -1)

    def rhs(z, y):
        return (y[1], -fld.f_coeff(z) * y[0])

    return _solve(rhs, (z_min, z_max), (v0, d0), abs(v0), _as_wave, _wave_current,
                  fld.wkb_wave, fld.kappa, fld.q, potential.breaks, ctl)


def solve_coupled(potential, energy: float, ctl: SolverControl | None = None) -> ScatteringResult:
    """Same problem as ``solve_direct`` in counter-propagating amplitudes.

    The state carries (beta_+, beta_-, phi); the amplitudes obey
    beta_eta' = beta_(-eta) (k'/2k) exp(-2 i eta phi). The initial condition
    is the exact representation of the leftward WKB wave in this gauge,
    which includes a first-order dressing term i k'/(4 k**2).
    """
    ctl = ctl or _DEFAULT_CTL
    fld = WkbField(potential, energy)
    z_min, z_max = fld.matching_domain(ctl.q_match_rel)
    phi0 = fld.phi(z_min)

    def rhs(z, y):
        k = fld.k(z)
        g = -fld.potential.dvalue(z) / (2.0 * k) / (2.0 * k)   # fld.dk(z) / (2k)
        rot = cmath.exp(-2j * y[2].real)
        return (y[1] * g * rot, y[0] * g / rot, k)

    def end_wave(y):
        # gauge-consistent derivative: Psi' = ik (b+ w+ - b- w-) exactly
        bp, bm, ph = y
        k_end = fld.k(z_max)
        al = k_end ** -0.5
        wp = al * cmath.exp(1j * ph)
        wm = al * cmath.exp(-1j * ph)
        return bp * wp + bm * wm, 1j * k_end * (bp * wp - bm * wm)

    def current(ys):
        return np.abs(ys[1]) ** 2 - np.abs(ys[0]) ** 2

    eps = fld.dk(z_min) / (4.0 * fld.k(z_min) ** 2)
    y0 = (1j * eps * cmath.exp(-2j * phi0), 1.0 - 1j * eps, phi0)
    return _solve(rhs, (z_min, z_max), y0, 1.0, end_wave, current,
                  fld.wkb_wave, fld.kappa, fld.q, potential.breaks, ctl)


def solve_transformed(problem: TransformedProblem, ctl: SolverControl | None = None) -> ScatteringResult:
    """Solve the Liouville-transformed problem; amplitudes are gauge-invariant.

    The state is (Psi_t, dPsi_t/dzt) but the integration walks the *original*
    coordinate, with the map's derivative as Jacobian. The wall shape then
    never needs a numeric map inversion and the endpoints land exactly on
    the matching points.
    """
    ctl = ctl or _DEFAULT_CTL
    w_min, _ = problem.domain

    if problem.vk is not None:
        # special gauge: the Jacobian k/vk and the wall vk**2 Q come from one
        # pass over the potential, where the map would evaluate it twice
        vk, e_bold, k_q = problem.vk, problem.e_bold, problem.field.k_q

        def rhs(w, y):
            k, q = k_q(w)
            jac = k / vk
            return (y[1] * jac, -(e_bold - vk * vk * q) * y[0] * jac)
    else:
        def rhs(w, y):
            jac = problem.mapping.derivative(w)
            return (y[1] * jac, -problem.f_transformed_at(w) * y[0] * jac)

    v0, d0 = problem.basis_wave(w_min, -1)
    field = problem.field
    kappa = field.kappa if field is not None else math.sqrt(problem.e_bold)
    return _solve(rhs, problem.domain, (v0, d0), max(abs(v0), 1.0),
                  _as_wave, _wave_current, problem.basis_wave, kappa,
                  field.q if field is not None else None,
                  field.potential.breaks if field is not None else (), ctl)


def scattering_length(potential, ctl: SolverControl | None = None,
                      kappa_ell_grid=None) -> ScatteringLength:
    """Complex scattering length from the low-energy expansion of r.

    Fits r(kappa) = -(1 - 2 i kappa a) by linear regression of
    (r + 1)/(2 i kappa) against kappa over a geometric grid of small
    kappa*ell (default 1e-4 .. 1e-2, 8 points), extrapolated to kappa = 0.
    The residual gate is max |r_fit - r| over the grid; beyond the control
    threshold the grid is not asymptotic and the fit raises.
    """
    ctl = ctl or _DEFAULT_CTL
    n, c4 = potential.tail_far()
    if n != 4:
        raise ValueError("scattering length needs an inverse-quartic far-end tail")
    ell = math.sqrt(getattr(potential, "far_c4_matched", c4))
    if kappa_ell_grid is None:
        kappa_ell_grid = np.geomspace(1e-4, 1e-2, 8)
    kappas = np.asarray(kappa_ell_grid, dtype=float) / ell
    rs = np.array([solve_direct(potential, k * k, ctl).r for k in kappas])
    y = (rs + 1.0) / (2j * kappas)
    design = np.vstack([np.ones_like(kappas), kappas]).T
    coeffs, *_ = np.linalg.lstsq(design, y, rcond=None)
    a = complex(coeffs[0])
    r_fit = -(1.0 - 2j * kappas * (design @ coeffs))
    residual = float(np.max(np.abs(r_fit - rs)))
    if residual > ctl.fit_residual_max:
        raise RuntimeError(
            f"scattering-length fit residual {residual:.2e} above "
            f"{ctl.fit_residual_max:.2e}: kappa grid not asymptotic")
    return ScatteringLength(a=a, ell=ell, fit_residual=residual,
                            kappa_grid=tuple(float(k) for k in kappas))
