"""Semiclassical machinery for a (potential, energy) pair.

A ``WkbField`` bundles the local wavevector k_dB = sqrt(E - V), the WKB
amplitude 1/sqrt(k_dB), the action phase with the far-end convention
phi(z) - kappa z -> 0, and the breakdown measure Q(z) (the "badlands"
function) that localizes where quantum reflection happens.

All derivatives of k_dB are analytic, propagated from the potential's own
derivatives; Q needs two of them and finite differences of tabulated data
would wreck its shape.
"""

from __future__ import annotations

import cmath
import math
import warnings
from bisect import bisect_right
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np
from scipy.optimize import brentq
from scipy.special import hyp2f1, roots_legendre

from .potentials import HomogeneousPotential

__all__ = [
    "WkbField",
    "universal_badlands",
    "badlands_peak_x",
    "phase_coordinate",
]

_HYP_SWITCH = 1.2  # x above which the 2F1 in -1/x**n converges

# Phase table of a tabulated potential: Gauss-Legendre rules of two orders
# (the lower one only estimates the error of the higher) on panels no wider
# than _PANEL_DU in u = ln z, gated on the summed estimate in radians.
_PHASE_RULES = (8, 12)
_PANEL_DU = 0.5
_PHASE_BUDGET = 1e-8


def universal_badlands(x: float, n: int) -> float:
    """Dimensionless badlands of V_n: (kappa zeta_n)**2 Q at x = z/zeta_n."""
    xn = x ** n
    return n * x ** (n - 2) * (4.0 - n + 4.0 * (1.0 + n) * xn) / (16.0 * (1.0 + xn) ** 3)


def badlands_peak_x(n: int) -> float:
    """Location x* of the maximum of the universal badlands of V_n."""
    num = 5.0 * n ** 2 - 3.0 * n - 8.0 + math.sqrt(3.0 * (7.0 * n ** 4 - 6.0 * n ** 3 - 13.0 * n ** 2))
    return (num / (4.0 * (n ** 2 + 3.0 * n + 2.0))) ** (1.0 / n)


def phase_coordinate(x: float, n: int) -> float:
    """Universal phase integral int sqrt(1 + 1/x'**n) dx' with far-end anchor.

    Equals phi_dB/(kappa zeta_n) for the homogeneous potential V_n, fixed by
    phase_coordinate(x) - x -> 0 as x -> inf. Closed form on both sides of
    x = 1.2: above, a 2F1 in -1/x**n, inside its disc of convergence; below,
    the antiderivative G(t) = t**a/a 2F1(-1/2, a/n; 1 + a/n; -t**n) with
    a = 1 - n/2 (DLMF 8.17.7), joined to the upper branch at 1.2. Near the
    cliff it runs like -2/(n - 2) x**(1 - n/2).
    """
    if x <= 0.0:
        raise ValueError("x must be positive")
    if n <= 2:
        raise ValueError("needs n > 2 for a finite far-end anchor")
    if x >= _HYP_SWITCH:
        f = float(hyp2f1(0.5, -1.0 / n, 1.0 - 1.0 / n, -x ** float(-n)))
        return n * x / (n - 2.0) * (f - (2.0 / n) * math.sqrt(1.0 + x ** float(-n)))
    return (phase_coordinate(_HYP_SWITCH, n) - _cliff_antiderivative(_HYP_SWITCH, n)
            + _cliff_antiderivative(x, n))


def _cliff_antiderivative(t: float, n: int) -> float:
    """G(t), an antiderivative of sqrt(1 + t**-n) that is exact at any t > 0."""
    a = 1.0 - n / 2.0
    return t ** a / a * float(hyp2f1(-0.5, a / n, 1.0 + a / n, -t ** float(n)))


@cache
def _legendre(m: int) -> tuple[list[float], list[float]]:
    """Gauss-Legendre nodes and weights of order m on [0, 1]."""
    x, w = roots_legendre(m)
    return (0.5 * (x + 1.0)).tolist(), (0.5 * w).tolist()


class _PhaseTable:
    """phi_dB of a tabulated potential at one energy, built on first use.

    V is an exact power law outside the table, so phi is closed form there:
    -C4m/z**4 above z_max gives the far-end anchor, and -C3m/z**3 below
    z_min continues phi from the table's first node to the cliff. Inside,
    each knot interval of u = ln z is split into equal panels no wider than
    ``_PANEL_DU``, and phi is kept at the panel starts. Gauss-Legendre rules
    integrate k z = sqrt(E + exp(w)) e**u over each panel, with w = ln(-V)
    the spline's own cubic on that interval, so the table integrates the
    potential the solvers see. The lower rule of ``_PHASE_RULES`` only
    estimates the error of the higher; their summed difference must stay
    within ``_PHASE_BUDGET``. A call inside the table then costs one lookup
    and one short rule over the part of a panel below z.
    """

    def __init__(self, potential, energy: float):
        kappa = math.sqrt(energy)
        self.energy = energy
        self.z_min, self.z_max = potential.z_min, potential.z_max
        self.zeta4 = (potential.far_c4_matched / energy) ** 0.25
        self.zeta3 = (potential.cliff_c3_matched / energy) ** (1.0 / 3.0)
        self.kz4, self.kz3 = kappa * self.zeta4, kappa * self.zeta3

        self.knots, self.cubics = potential.log_log_pieces()
        u = np.array(self.knots)
        c = np.array(self.cubics)
        widths = np.diff(u)
        parts = np.ceil(widths / _PANEL_DU).astype(int)
        interval = np.repeat(np.arange(len(widths)), parts)
        width = (widths / parts)[interval]
        offset = (np.arange(len(interval)) - np.repeat(np.cumsum(parts) - parts, parts)) * width
        ci = c[interval]

        def panel_integrals(m: int) -> np.ndarray:
            nodes, weights = _legendre(m)
            s = offset[:, None] + width[:, None] * np.array(nodes)
            w = ci[:, :1] + ci[:, 1:2] * s + ci[:, 2:3] * (s * s) + ci[:, 3:] * (s * s * s)
            kz = np.sqrt(energy + np.exp(w)) * np.exp(u[interval][:, None] + s)
            return width * (kz @ np.array(weights))

        low, high = (panel_integrals(m) for m in _PHASE_RULES)
        error = float(np.sum(np.abs(high - low)))
        if not error <= _PHASE_BUDGET:
            raise RuntimeError(f"phase table error estimate {error:.1e} rad"
                               f" above {_PHASE_BUDGET:g} rad")
        phi_top = self.kz4 * phase_coordinate(self.z_max / self.zeta4, 4)
        self.phi_start = (phi_top - np.cumsum(high[::-1])[::-1]).tolist()
        self.start = (u[interval] + offset).tolist()
        self.interval = interval.tolist()
        self.offset = offset.tolist()
        self.rule = list(zip(*_legendre(_PHASE_RULES[1])))
        self.phi_cliff = self.phi_start[0] - self.kz3 * phase_coordinate(
            self.z_min / self.zeta3, 3)

    def phi(self, z: float) -> float:
        if z >= self.z_max:
            return self.kz4 * phase_coordinate(z / self.zeta4, 4)
        if z < self.z_min:
            return self.phi_cliff + self.kz3 * phase_coordinate(z / self.zeta3, 3)
        u = math.log(z)
        # clamped: math.log may land an ulp outside numpy's knots at the ends
        p = min(max(bisect_right(self.start, u) - 1, 0), len(self.start) - 1)
        i = self.interval[p]
        u_i = self.knots[i]
        c0, c1, c2, c3 = self.cubics[i]
        a = self.offset[p]
        h = u - u_i - a
        energy = self.energy
        total = 0.0
        for t, weight in self.rule:
            s = a + h * t
            w = c0 + c1 * s + c2 * (s * s) + c3 * (s * s * s)
            total += weight * math.sqrt(energy + math.exp(w)) * math.exp(u_i + s)
        return self.phi_start[p] + h * total


@dataclass(frozen=True)
class WkbField:
    """Evaluators for k_dB, alpha_dB, phi_dB and Q of one scattering problem."""

    potential: object
    energy: float

    def __post_init__(self):
        if self.energy <= 0.0:
            raise ValueError("energy must be positive")

    @property
    def kappa(self) -> float:
        return math.sqrt(self.energy)

    # -- local wavevector and derivatives ---------------------------------
    def f_coeff(self, z: float) -> float:
        """Schrodinger coefficient F = E - V, positive everywhere here."""
        return self.energy - self.potential.value(z)

    def k(self, z: float) -> float:
        return math.sqrt(self.f_coeff(z))

    def dk(self, z: float) -> float:
        return -self.potential.dvalue(z) / (2.0 * self.k(z))

    def alpha(self, z: float) -> float:
        return self.k(z) ** -0.5

    # -- phase with the far-end convention ---------------------------------
    def phi(self, z: float) -> float:
        if z <= 0.0:
            raise ValueError("phase is defined on z > 0")
        if isinstance(self.potential, HomogeneousPotential):
            n, c_n = self.potential.tail_far()
            zeta = (c_n / self.energy) ** (1.0 / n)
            return self.kappa * zeta * phase_coordinate(z / zeta, n)
        return self._phase_table.phi(z)

    @cached_property
    def _phase_table(self) -> _PhaseTable:
        # per field, not per potential in a module cache: a field lives for
        # one solve, so its table goes when the solve is done
        return _PhaseTable(self.potential, self.energy)

    def wkb_wave(self, z: float, direction: int) -> tuple[complex, complex]:
        """WKB wave alpha e^(i eta phi) and its exact derivative, eta = +-1."""
        if direction not in (+1, -1):
            raise ValueError("direction must be +1 or -1")
        k = self.k(z)
        value = k ** -0.5 * cmath.exp(1j * direction * self.phi(z))
        derivative = (-self.dk(z) / (2.0 * k) + 1j * direction * k) * value
        return value, derivative

    # -- badlands ----------------------------------------------------------
    def q(self, z: float) -> float:
        """Badlands Q = -alpha**3 alpha'' = {phi,z}/(2 k**2), analytic form."""
        return self.k_q(z)[1]

    def k_q(self, z: float) -> tuple[float, float]:
        """(k_dB, Q) at z from one pass over V, V' and V''.

        The wall-gauge solver needs both at every step.
        """
        v, dv, d2v = self.potential.derivs(z)
        k2 = self.energy - v
        k = math.sqrt(k2)
        dk = -dv / (2.0 * k)
        d2k = (-d2v - 2.0 * dk * dk) / (2.0 * k)
        return k, 0.5 * d2k / k2 ** 1.5 - 0.75 * dk * dk / (k2 * k2)

    def q_peak(self) -> tuple[float, float]:
        """(z_peak, Q_peak); closed form for homogeneous, search otherwise."""
        if isinstance(self.potential, HomogeneousPotential):
            n, c_n = self.potential.tail_far()
            zeta = (c_n / self.energy) ** (1.0 / n)
            z_peak = zeta * badlands_peak_x(n)
            return z_peak, self.q(z_peak)
        return self._q_peak_search()

    def _q_peak_search(self) -> tuple[float, float]:
        n4, c4 = self.potential.tail_far()
        zeta = (c4 / self.energy) ** 0.25
        grid = np.geomspace(zeta / 300.0, zeta * 300.0, 241)
        qs = np.array([self.q(z) for z in grid])
        imax = int(np.argmax(qs))
        if imax in (0, len(grid) - 1):
            raise RuntimeError("badlands peak not bracketed by the search grid")
        interior = qs[1:-1]
        local_max = (interior > qs[:-2]) & (interior >= qs[2:])
        prominent = local_max & (interior > 0.01 * qs[imax])  # knot ripple is not a mode
        if int(np.count_nonzero(prominent)) > 1:
            warnings.warn("badlands appears multimodal; reporting the global peak")
        z_peak = _golden_max(self.q, grid[imax - 1], grid[imax + 1])
        return z_peak, self.q(z_peak)

    def matching_domain(self, q_rel: float = 1e-10) -> tuple[float, float]:
        """(z_min, z_max) where Q has fallen to q_rel of its peak on each side."""
        if not (0.0 < q_rel < 1.0):
            raise ValueError("q_rel must lie in (0, 1)")
        z_peak, q_peak = self.q_peak()
        target = q_rel * q_peak

        def crossing(lo: float, hi: float) -> float:
            return brentq(lambda z: self.q(z) - target, lo, hi, xtol=1e-300, rtol=1e-13)

        lo = z_peak
        while self.q(lo) > target:
            lo /= 2.0
        hi = z_peak
        while self.q(hi) > target:
            hi *= 2.0
        return crossing(lo, min(2.0 * lo, z_peak)), crossing(max(hi / 2.0, z_peak), hi)


def _golden_max(f, a: float, b: float, tol: float = 1e-12) -> float:
    g = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - g * (b - a), a + g * (b - a)
    while abs(b - a) > tol * max(1.0, abs(a) + abs(b)):
        if f(c) > f(d):
            b, d = d, c
            c = b - g * (b - a)
        else:
            a, c = c, d
            d = a + g * (b - a)
    return 0.5 * (a + b)

