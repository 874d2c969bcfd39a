"""Semiclassical machinery for a (potential, energy) pair.

A ``WkbField`` bundles the local wavevector k_dB = sqrt(E - V), the WKB
amplitude 1/sqrt(k_dB), the action phase with the far-end convention
phi(z) - kappa z -> 0, and the breakdown measure Q(z) (the "badlands"
function) that localizes where quantum reflection happens. On the inner
power-law tail of an n != 4 cliff, the routes start instead on the exact
threshold wave of that tail (``cliff_wave``).

All derivatives of k_dB are analytic, propagated from the potential's own
derivatives; Q needs two of them and finite differences of tabulated data
would wreck its shape.

The matching cut, where Q has fallen to a fraction of its peak, is closed
form where V is an exact power law: on V_n it is zeta_n times the crossings
of ``universal_badlands``, found once per (n, cut), so the v4 cliff end no
longer carries the cancellation of the two terms of the numeric Q there
(up to 7e-10 of z); on a table's -C4m/z**4 tail it is the quartic's
algebraic root. Q is searched, in array calls, only on a table: its peak,
the walks from it, and the crossings that lie among the knots.
"""

from __future__ import annotations

import cmath
import math
import warnings
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cache

import numpy as np
from scipy.optimize import brentq
from scipy.special import hankel1, hyp2f1, roots_legendre

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

# Searches on the numeric Q of a table: each array call reads Q on a bracket
# cut into _SECTIONS equal parts; the badlands peak takes _PEAK_ROUNDS calls
# after its grid, and a matching crossing reads Q until its bracket is
# narrower than _CUT_RTOL of z
_SECTIONS = 128
_SECTION_ENDS = np.arange(_SECTIONS + 1) / _SECTIONS
_PEAK_ROUNDS = 4
_CUT_RTOL = 1e-10


def universal_badlands(x: float, n: int) -> float:
    """Dimensionless badlands of V_n: (kappa zeta_n)**2 Q at x = z/zeta_n."""
    xn = x ** n
    return n * x ** (n - 2) * (4.0 - n + 4.0 * (1.0 + n) * xn) / (16.0 * (1.0 + xn) ** 3)


def badlands_peak_x(n: int) -> float:
    """Location x* of the maximum of the universal badlands of V_n."""
    num = 5.0 * n ** 2 - 3.0 * n - 8.0 + math.sqrt(3.0 * (7.0 * n ** 4 - 6.0 * n ** 3 - 13.0 * n ** 2))
    return (num / (4.0 * (n ** 2 + 3.0 * n + 2.0))) ** (1.0 / n)


@cache
def _badlands_cut(n: int, q_rel: float) -> tuple[float, float]:
    """(x_min, x_max): where the universal badlands of V_n has fallen to q_rel
    of its peak, on the cliff and on the far side of x*. On each side the
    first of x* 2**-+1, x* 2**-+2, ... not above that level brackets the
    crossing, which brentq finds on the Python-float formula."""
    x_star = badlands_peak_x(n)
    level = q_rel * universal_badlands(x_star, n)
    ends = []
    for way in (-1, +1):
        x = x_star
        while universal_badlands(x, n) > level:
            x = math.ldexp(x, way)
        a, b = sorted((x, math.ldexp(x, -way)))
        ends.append(brentq(lambda t: universal_badlands(t, n) - level, a, b,
                           xtol=1e-300, rtol=4.0 * np.finfo(float).eps))
    return ends[0], ends[1]


def _quartic_far_crossing(level: float) -> float:
    """The x > 1 where the universal badlands of V_4, 5 x**6/(1 + x**4)**3,
    falls to ``level``: there x**2 + x**-2 = (5/level)**(1/3)."""
    t = (5.0 / level) ** (1.0 / 3.0)
    return math.sqrt(0.5 * (t + math.sqrt(t * t - 4.0)))


def phase_coordinate(x, n: int):
    """Universal phase integral int sqrt(1 + 1/x'**n) dx' with far-end anchor.

    Equals phi_dB/(kappa zeta_n) for the homogeneous potential V_n, fixed by
    phase_coordinate(x) - x -> 0 as x -> inf; x is a float or an array.
    Closed form on both sides of x = 1.2: above, a 2F1 in -1/x**n, inside
    its disc of convergence; below, the antiderivative
    G(t) = t**a/a 2F1(-1/2, a/n; 1 + a/n; -t**n) with a = 1 - n/2
    (DLMF 8.17.7), joined to the upper branch at 1.2. Near the cliff it runs
    like -2/(n - 2) x**(1 - n/2).
    """
    x = np.asarray(x, dtype=float)
    if (x <= 0.0).any():
        raise ValueError("x must be positive")
    if n <= 2:
        raise ValueError("needs n > 2 for a finite far-end anchor")
    flat = x.reshape(-1)
    out = np.empty(flat.shape)
    far = flat >= _HYP_SWITCH
    xf = flat[far]
    f = hyp2f1(0.5, -1.0 / n, 1.0 - 1.0 / n, -xf ** float(-n))
    out[far] = n * xf / (n - 2.0) * (f - (2.0 / n) * np.sqrt(1.0 + xf ** float(-n)))
    near = ~far
    if near.any():   # not on the far branch alone: _cliff_offset itself calls it there
        out[near] = _cliff_offset(n) + _cliff_antiderivative(flat[near], n)
    return out.reshape(x.shape)[()]


@cache
def _cliff_offset(n: int) -> float:
    """phase_coordinate - G below x = 1.2, which is also the limit of
    phase_coordinate(x) + 2/(n - 2) x**(1 - n/2) as x -> 0."""
    return phase_coordinate(_HYP_SWITCH, n) - _cliff_antiderivative(_HYP_SWITCH, n)


def _cliff_antiderivative(t, n: int):
    """G(t), an antiderivative of sqrt(1 + t**-n) that is exact at any t > 0."""
    a = 1.0 - n / 2.0
    return t ** a / a * hyp2f1(-0.5, a / n, 1.0 + a / n, -t ** float(n))


@cache
def _legendre(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights of order m on [0, 1]."""
    x, w = roots_legendre(m)
    return 0.5 * (x + 1.0), 0.5 * w


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
        u = self.knots
        widths = np.diff(u)
        parts = np.ceil(widths / _PANEL_DU).astype(int)
        interval = np.repeat(np.arange(len(widths)), parts)
        width = (widths / parts)[interval]
        offset = (np.arange(len(interval)) - np.repeat(np.cumsum(parts) - parts, parts)) * width

        def panel_integrals(m: int) -> np.ndarray:
            nodes, weights = _legendre(m)
            return width * self._kz(interval, offset[:, None] + width[:, None] * nodes, weights)

        low, high = (panel_integrals(m) for m in _PHASE_RULES)
        error = float(np.sum(np.abs(high - low)))
        if not error <= _PHASE_BUDGET:
            raise RuntimeError(f"phase table error estimate {error:.1e} rad"
                               f" above {_PHASE_BUDGET:g} rad")
        phi_top = self.kz4 * phase_coordinate(self.z_max / self.zeta4, 4)
        self.phi_start = phi_top - np.cumsum(high[::-1])[::-1]
        self.start = u[interval] + offset
        self.interval = interval
        self.offset = offset
        self.phi_cliff = self.phi_start[0] - self.kz3 * phase_coordinate(
            self.z_min / self.zeta3, 3)

    def _kz(self, interval: np.ndarray, s: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Rule sums of k z = sqrt(E + exp(w)) e**u at u = u_i + s, a row of s per
        knot interval i in ``interval``."""
        c0, c1, c2, c3 = (c[:, None] for c in self.cubics[:, interval])
        w = c0 + c1 * s + c2 * (s * s) + c3 * (s * s * s)
        kz = np.sqrt(self.energy + np.exp(w)) * np.exp(self.knots[interval][:, None] + s)
        return kz @ weights

    def phi(self, z):
        z = np.asarray(z, dtype=float)
        flat = z.reshape(-1)
        out = np.empty(flat.shape)
        top, low = flat >= self.z_max, flat < self.z_min
        out[top] = self.kz4 * phase_coordinate(flat[top] / self.zeta4, 4)
        out[low] = self.phi_cliff + self.kz3 * phase_coordinate(flat[low] / self.zeta3, 3)
        mid = ~(top | low)
        u = np.log(flat[mid])
        # clamped: the log may land an ulp outside the knots at the ends
        p = np.clip(np.searchsorted(self.start, u, side="right") - 1, 0, len(self.start) - 1)
        i = self.interval[p]
        a = self.offset[p]
        h = u - self.knots[i] - a
        nodes, weights = _legendre(_PHASE_RULES[1])
        out[mid] = self.phi_start[p] + h * self._kz(i, a[:, None] + h[:, None] * nodes, weights)
        return out.reshape(z.shape)[()]


@dataclass(frozen=True)
class WkbField:
    """Evaluators for k_dB, phi_dB, Q and the waves of one scattering problem."""

    potential: object
    energy: float
    # the phase table of a tabulated potential, built on first use; a field,
    # not a cached_property, so that filling it keeps the instance's attribute
    # layout: a new instance-dict key slows every attribute read in the RHS
    _table: _PhaseTable | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.energy <= 0.0:
            raise ValueError("energy must be positive")

    @property
    def kappa(self) -> float:
        return math.sqrt(self.energy)

    # -- local wavevector and derivatives ---------------------------------
    # each evaluator takes z as a float or an array
    def f_coeff(self, z):
        """Schrodinger coefficient F = E - V, positive everywhere here."""
        return self.energy - self.potential.value(z)

    def k(self, z):
        return np.sqrt(self.f_coeff(z))

    def dk(self, z):
        return -self.potential.dvalue(z) / (2.0 * self.k(z))

    # -- phase with the far-end convention ---------------------------------
    def phi(self, z):
        if (np.asarray(z) <= 0.0).any():
            raise ValueError("phase is defined on z > 0")
        if isinstance(self.potential, HomogeneousPotential):
            n, c_n = self.potential.tail_far()
            zeta = (c_n / self.energy) ** (1.0 / n)
            return self.kappa * zeta * phase_coordinate(z / zeta, n)
        return self._phase_table.phi(z)

    @property
    def _phase_table(self) -> _PhaseTable:
        # per field, not per potential in a module cache: a field lives for
        # one solve, so its table goes when the solve is done
        if self._table is None:
            object.__setattr__(self, "_table", _PhaseTable(self.potential, self.energy))
        return self._table

    @property
    def _threshold_tail(self) -> tuple[int, float, float] | None:
        """(n, C_n, z_top) of the inner tail: V = -C_n/z**n exactly for z <= z_top.

        None for n = 4, where the WKB wave with E included is the better
        cliff start: there Q falls like z**6 and E z**4/C_4 only like z**4.
        Not cached, for the reason given at ``_table``.
        """
        if isinstance(self.potential, HomogeneousPotential):
            n, c_n = self.potential.tail_far()
            return None if n == 4 else (n, c_n, math.inf)
        return 3, self.potential.cliff_c3_matched, self.potential.z_min

    def on_threshold_tail(self, z: float) -> bool:
        """Whether ``cliff_wave(z)`` is the threshold wave of the inner tail."""
        tail = self._threshold_tail
        return tail is not None and z <= tail[2]

    def cliff_wave(self, z: float) -> tuple[complex, complex]:
        """The one-way wave into the surface at a cliff start z, and its derivative.

        On the inner tail (``on_threshold_tail``) it is the threshold solution
        of psi'' + C_n z**-n psi = 0 (Friedrich & Trost, Phys. Rep. 397, 359),
        c sqrt(z) H1_nu(x) with nu = 1/(n - 2) and x = 2 sqrt(C_n)/(n - 2)
        z**(-(n - 2)/2); its only error is the neglected E z**n/C_n. With
        phi -> phi_0 - x as z -> 0, the Hankel asymptote (DLMF 10.17.5) gives
        c = sqrt(pi/(n - 2)) e^(i(nu pi/2 + pi/4 - phi_0)), so the wave tends
        to ``wkb_wave(z, -1)`` and carries its flux, -1. Elsewhere it is
        ``wkb_wave(z, -1)``.
        """
        if not self.on_threshold_tail(z):
            return self.wkb_wave(z, -1)
        n, c_n, _ = self._threshold_tail
        if isinstance(self.potential, HomogeneousPotential):
            phi_0 = self.kappa * (c_n / self.energy) ** (1.0 / n) * _cliff_offset(n)
        else:
            table = self._phase_table
            phi_0 = table.phi_cliff + table.kz3 * _cliff_offset(3)
        nu = 1.0 / (n - 2)
        x = 2.0 * nu * math.sqrt(c_n) * z ** (-0.5 * (n - 2))
        h, h_lower = hankel1((nu, nu - 1.0), x).tolist()
        c = math.sqrt(math.pi * nu) * cmath.exp(1j * (0.5 * math.pi * nu + 0.25 * math.pi - phi_0))
        root = math.sqrt(z)
        # d/dz via H'_nu = H_(nu-1) - (nu/x) H_nu and dx/dz = -x/(2 nu z)
        return c * root * h, c / root * (h - 0.5 * x / nu * h_lower)

    def cliff_residual(self, z: float) -> float:
        """Relative error of the wave equation that ``cliff_wave(z)`` solves.

        E z**n/C_n on the inner tail, for F = E + C_n/z**n; elsewhere Q(z),
        for the WKB wave's k**2 (1 + Q).
        """
        if not self.on_threshold_tail(z):
            return self.q(z)
        n, c_n, _ = self._threshold_tail
        return self.energy * z ** n / c_n

    def wkb_wave(self, z: float, direction: int) -> tuple[complex, complex]:
        """WKB wave alpha e^(i eta phi) and its exact derivative, eta = +-1."""
        if direction not in (+1, -1):
            raise ValueError("direction must be +1 or -1")
        return self.wkb_pair(z)[(1 - direction) // 2]

    def wkb_pair(self, z: float) -> tuple[tuple[complex, complex], tuple[complex, complex]]:
        """``(wkb_wave(z, +1), wkb_wave(z, -1))`` from one evaluation of k, k' and phi."""
        k = self.k(z)
        dk = -self.potential.dvalue(z) / (2.0 * k)
        alpha, phase = k ** -0.5, self.phi(z)
        waves = []
        for direction in (+1, -1):
            value = alpha * cmath.exp(1j * direction * phase)
            waves.append((value, (-dk / (2.0 * k) + 1j * direction * k) * value))
        return waves[0], waves[1]

    # -- badlands ----------------------------------------------------------
    def q(self, z):
        """Badlands Q = -alpha**3 alpha'' = {phi,z}/(2 k**2), analytic form."""
        return self.k_q(z)[1]

    def k_q(self, z):
        """(k_dB, Q) at z from one pass over V, V' and V''.

        The wall-gauge solver needs both at every step.
        """
        v, dv, d2v = self.potential.derivs(z)
        k2 = self.energy - v
        k = np.sqrt(k2)
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
        """The largest Q on 241 points, zeta/300 .. 300 zeta, refined between
        that point's neighbours by ``_PEAK_ROUNDS`` array calls, each of which
        keeps the two sections beside its largest value; a largest value on
        a knot's jump is read beside it."""
        n4, c4 = self.potential.tail_far()
        zeta = (c4 / self.energy) ** 0.25
        grid = np.geomspace(zeta / 300.0, zeta * 300.0, 241)
        qs = self.q(grid)
        imax = int(np.argmax(qs))
        if imax in (0, len(grid) - 1):
            raise RuntimeError("badlands peak not bracketed by the search grid")
        interior = qs[1:-1]
        local_max = (interior > qs[:-2]) & (interior >= qs[2:])
        prominent = local_max & (interior > 0.01 * qs[imax])  # knot ripple is not a mode
        if int(np.count_nonzero(prominent)) > 1:
            warnings.warn("badlands appears multimodal; reporting the global peak")
        knots = self.potential.breaks
        lo, hi = grid[imax - 1], grid[imax + 1]
        for _ in range(_PEAK_ROUNDS):
            # Q jumps at a knot, where its largest value may sit: it is read
            # 1e-14 of z on each side of every knot in the bracket, far
            # enough for ln z to fall on the cubic of that side
            inner = np.array(knots[bisect_right(knots, lo):bisect_left(knots, hi)])
            zs = np.sort(np.concatenate([lo + (hi - lo) * _SECTION_ENDS,
                                         inner * (1.0 - 1e-14), inner * (1.0 + 1e-14)]))
            qs = self.q(zs)
            j = int(np.argmax(qs))
            lo, hi = zs[max(j - 1, 0)], zs[min(j + 1, len(zs) - 1)]
        return float(zs[j]), float(qs[j])

    def _walk(self, z: float, way: int, target: float) -> float:
        """The first of z, z 2**way, z 2**(2 way), ... (way = +-1) where Q is
        not above ``target``: the doubling walk, with Q read on 8, 16, 32, ...
        points a call. ldexp scales by a power of two exactly, so each point
        is the one that halving or doubling one step at a time reaches."""
        first, count = 0, 8
        while True:
            zs = np.ldexp(z, way * np.arange(first, first + count))
            stop = np.flatnonzero(~(self.q(zs) > target))
            if len(stop):
                return float(zs[stop[0]])
            first, count = first + count, 2 * count

    def _crossing(self, inside: float, outside: float, target: float) -> float:
        """Where Q falls to ``target`` between ``inside``, where it is above,
        and ``outside``, where it is not: each array call cuts the bracket
        into ``_SECTIONS`` and keeps the section after the last point above,
        until the bracket is narrower than ``_CUT_RTOL`` of z. Of several
        crossings that the sections resolve (knot ripple) it keeps the one
        farthest from ``inside``.
        Returns the outer end, where Q is not above ``target``."""
        while abs(outside - inside) > _CUT_RTOL * outside:
            zs = inside + (outside - inside) * _SECTION_ENDS
            # Q is known at the ends, so only the points between are read
            above = np.flatnonzero(self.q(zs[1:-1]) > target)
            j = int(above[-1]) + 1 if len(above) else 0
            inside, outside = float(zs[j]), float(zs[j + 1])
        return outside

    def matching_domain(self, q_rel: float = 1e-10) -> tuple[float, float]:
        """(z_min, z_max) where Q has fallen to q_rel of its peak on each side.

        On V_n that is zeta_n times the crossings of ``universal_badlands``,
        found once per (n, q_rel), so Q is not read at all. On a table Q is
        searched: its peak (``_q_peak_search``), then a doubling walk from it
        on each side and ``_crossing`` in the last step of the walk. Where
        that step lies above the table, on the exact -C4m/z**4 tail, the far
        crossing is the universal one of that tail instead; where it lies
        wholly on the -C3m/z**3 tail below, the cliff crossing is not needed.
        Where the cliff-side crossing lies on the inner tail of an n != 4
        cliff, z_min is instead the shallowest point of that tail with
        E z**n/C_n <= q_rel: there ``cliff_wave`` is exact but for that E.
        A cut that puts that point at or beyond the badlands peak is rejected.
        """
        if not (0.0 < q_rel < 1.0):
            raise ValueError("q_rel must lie in (0, 1)")
        pot = self.potential
        if isinstance(pot, HomogeneousPotential):
            n, c_n = pot.tail_far()
            zeta = (c_n / self.energy) ** (1.0 / n)
            x_min, x_max = _badlands_cut(n, q_rel)
            z_min, z_max, z_peak = zeta * x_min, zeta * x_max, zeta * badlands_peak_x(n)
        else:
            z_peak, q_peak = self.q_peak()
            target = q_rel * q_peak
            lo = self._walk(z_peak, -1, target)
            inside = min(2.0 * lo, z_peak)
            z_min = inside if self.on_threshold_tail(inside) else self._crossing(inside, lo, target)
            hi = self._walk(z_peak, +1, target)
            inside = max(hi / 2.0, z_peak)
            if inside > pot.z_max:
                zeta = (pot.far_c4_matched / self.energy) ** 0.25
                z_max = float(zeta * _quartic_far_crossing(target * self.energy * zeta * zeta))
            else:
                z_max = self._crossing(inside, hi, target)
        if self.on_threshold_tail(z_min):
            n, c_n, z_top = self._threshold_tail
            z_min = min(z_top, (q_rel * c_n / self.energy) ** (1.0 / n))
            if z_min >= z_peak:
                raise ValueError(f"matching cut {q_rel:g} puts the cliff start at or"
                                 " beyond the badlands peak")
        return z_min, z_max
