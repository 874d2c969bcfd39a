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
from dataclasses import dataclass

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.optimize import brentq
from scipy.special import hyp2f1

from .potentials import HomogeneousPotential

__all__ = [
    "WkbField",
    "schwarzian",
    "universal_badlands",
    "badlands_peak_x",
    "phase_coordinate",
]

_HYP_SWITCH = 1.2  # x above which the hypergeometric closed form is used


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

    Equals phi_dB/(kappa zeta_n) for the homogeneous potential V_n. Uses the
    hypergeometric closed form where its series argument -1/x**n is inside
    the convergence disc and falls back to quadrature closer to the cliff.
    """
    if x <= 0.0:
        raise ValueError("x must be positive")
    if n <= 2:
        raise ValueError("needs n > 2 for a finite far-end anchor")
    if x >= _HYP_SWITCH:
        f = float(hyp2f1(0.5, -1.0 / n, 1.0 - 1.0 / n, -x ** float(-n)))
        return n * x / (n - 2.0) * (f - (2.0 / n) * math.sqrt(1.0 + x ** float(-n)))
    anchor = phase_coordinate(_HYP_SWITCH, n)
    seg, err = quad(lambda t: math.sqrt(1.0 + t ** float(-n)), x, _HYP_SWITCH,
                    epsabs=1e-13, epsrel=1e-13, limit=200)
    if err > 1e-9 * max(1.0, abs(seg)):
        raise RuntimeError("phase quadrature did not reach requested accuracy")
    return anchor - seg


def schwarzian(f, z: float, h: float | None = None) -> float:
    """Schwarzian derivative f'''/f' - 1.5 (f''/f')**2 by central differences.

    Uses a seven-point stencil with fourth-order accurate first to third
    derivatives. The step is scale-aware; for analytic evaluations prefer
    ``schwarzian_from_derivatives``.
    """
    if h is None:
        h = 6e-3 * max(abs(z), 1.0)
    zs = z + h * np.arange(-3, 4)
    vals = np.array([f(t) for t in zs])
    d1 = (-vals[6] + 9 * vals[5] - 45 * vals[4] + 45 * vals[2] - 9 * vals[1] + vals[0]) / (60 * h)
    d2 = (2 * vals[6] - 27 * vals[5] + 270 * vals[4] - 490 * vals[3]
          + 270 * vals[2] - 27 * vals[1] + 2 * vals[0]) / (180 * h * h)
    d3 = (vals[6] - 8 * vals[5] + 13 * vals[4] - 13 * vals[2] + 8 * vals[1] - vals[0]) / (8 * h ** 3)
    if d1 == 0.0:
        raise ZeroDivisionError("schwarzian undefined where f'(z) = 0")
    return schwarzian_from_derivatives(d1, d2, d3)


def schwarzian_from_derivatives(d1: float, d2: float, d3: float) -> float:
    if d1 == 0.0:
        raise ZeroDivisionError("schwarzian undefined where f' = 0")
    return d3 / d1 - 1.5 * (d2 / d1) ** 2


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
        return self._phi_tabulated(z)

    def _phi_tabulated(self, z: float) -> float:
        n, c4 = self.potential.tail_far()
        c4 = getattr(self.potential, "far_c4_matched", c4)  # the actual tail
        zeta = (c4 / self.energy) ** 0.25
        anchor = max(50.0 * zeta, getattr(self.potential, "z_max", 0.0))
        phi_anchor = self.kappa * zeta * phase_coordinate(anchor / zeta, 4)
        if z >= anchor:
            return self.kappa * zeta * phase_coordinate(z / zeta, 4)
        # integrate in the log coordinate, one quadrature per log unit plus
        # breaks at the table edges: phase errors matter in absolute radians
        s_lo, s_hi = math.log(z), math.log(anchor)
        edges = {s_lo, s_hi}
        edges.update(s for s in (math.log(self.potential.z_min),
                                 math.log(self.potential.z_max)) if s_lo < s < s_hi)
        edges.update(float(s) for s in np.arange(math.ceil(s_lo), s_hi, 1.0))
        grid = sorted(edges)
        total = 0.0
        err_total = 0.0
        with warnings.catch_warnings():
            # roundoff-limited segments are fine; the explicit error budget
            # below is what gates the result
            warnings.simplefilter("ignore", IntegrationWarning)
            for a, b in zip(grid[:-1], grid[1:]):
                seg, err = quad(lambda s: self.k(math.exp(s)) * math.exp(s), a, b,
                                epsabs=1e-13, epsrel=1e-13, limit=200)
                total += seg
                err_total += err
        if err_total > 1e-8:
            raise RuntimeError("phase quadrature did not reach absolute accuracy")
        return phi_anchor - total

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
        # single pass over the potential derivatives; q is the hot spot of
        # the wall-gauge solver
        dv = self.potential.dvalue(z)
        k2 = self.energy - self.potential.value(z)
        dk = -dv / (2.0 * math.sqrt(k2))
        d2k = (-self.potential.d2value(z) - 2.0 * dk * dk) / (2.0 * math.sqrt(k2))
        return 0.5 * d2k / k2 ** 1.5 - 0.75 * dk * dk / (k2 * k2)

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

