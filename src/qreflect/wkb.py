"""Semiclassical machinery for a (potential, energy) pair.

A ``WkbField`` bundles the local wavevector k_dB = sqrt(E - V), the WKB
amplitude 1/sqrt(k_dB), the action phase with the far-end convention
phi(z) - kappa z -> 0, and the breakdown measure Q(z) (the "badlands"
function) that localizes where quantum reflection happens. On the inner
power-law tail of an n != 4 cliff, the routes start instead on the exact
threshold wave of that tail (``cliff_wave``).

Each field has one length zeta = (C/E)**(1/n) of its far tail -C/z**n
(``WkbField.zeta``), and the field's geometry on V_n is the universal one
scaled by it: phi = kappa zeta ``phase_coordinate(z/zeta, n)`` and
Q = ``universal_badlands(z/zeta, n)``/(kappa zeta)**2, closed form at every z.
On a table, Q comes from analytic derivatives of k_dB, propagated from the
spline's own; Q needs two of them and finite differences of tabulated
data would wreck its shape. Those two terms cancel on a cliff (on V_4 to a
relative error of about eps/x**4), which is why V_n takes the closed form.

The matching cut, where Q has fallen to a fraction of its peak, is closed
form where V is an exact power law. Its far end on V_4 and on a table's
-C4/z**4 tail is the quartic's algebraic root, and its cliff end on V_4 is
that root's inverse (the universal badlands is even under x -> 1/x). On
V_n, n != 4, the far crossing of ``universal_badlands`` is found once per
(n, cut), and the cliff end is the threshold start. Q is searched, in array
calls, only on a table: its peak, the walks from it, and the crossings that
lie off its exact tails.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np
from scipy.optimize import brentq
from scipy.special import gamma, hankel1, hyp2f1, roots_legendre

from .potentials import HomogeneousPotential

__all__ = [
    "WkbField",
    "universal_badlands",
    "badlands_peak_x",
    "phase_coordinate",
    "inversion_center",
    "threshold_wave",
    "threshold_phases",
]

# the default matching cut of every route: Q/Q_peak, or E z**n/C_n on a
# threshold tail, at both ends of a solve
Q_MATCH_REL = 1e-10

# Phase table of a tabulated potential: Gauss-Legendre rules of two orders
# (the lower one only estimates the error of the higher; ``_panel_sums``,
# which the wall integral shares) on panels no wider than _PANEL_DU in
# u = ln z, gated on the summed estimate in radians.
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
    rise = 1.0 + xn
    # divided by 1 + x**n three times, and never multiplied by x**n alone:
    # (1 + x**n)**3 overflows from x**n ~ 1e102 on, 4 (1 + n) x**n near 1e308
    shape = (4.0 - n) / rise + 4.0 * (1.0 + n) * (xn / rise)
    return n * x ** (n - 2) / rise * shape / rise / 16.0


def badlands_peak_x(n: int) -> float:
    """Location x* of the maximum of the universal badlands of V_n."""
    num = 5.0 * n ** 2 - 3.0 * n - 8.0 + math.sqrt(3.0 * (7.0 * n ** 4 - 6.0 * n ** 3 - 13.0 * n ** 2))
    return (num / (4.0 * (n ** 2 + 3.0 * n + 2.0))) ** (1.0 / n)


@cache
def _far_cut(n: int, q_rel: float) -> float:
    """The x > x* where the universal badlands of V_n has fallen to q_rel of
    its peak: ``_quartic_far_crossing`` for n = 4; otherwise the first of
    x* 2, x* 4, ... not above that level and its half bracket the crossing,
    which brentq finds on the Python-float formula."""
    x_star = badlands_peak_x(n)
    level = q_rel * universal_badlands(x_star, n)
    if n == 4:
        return _quartic_far_crossing(level)
    x = x_star
    while universal_badlands(x, n) > level:
        x *= 2.0
    return brentq(lambda t: universal_badlands(t, n) - level, 0.5 * x, x,
                  xtol=1e-300, rtol=4.0 * np.finfo(float).eps)


def _quartic_far_crossing(level: float) -> float:
    """The x > 1 where the universal badlands of V_4, 5 x**6/(1 + x**4)**3,
    falls to ``level``: there x**2 + x**-2 = (5/level)**(1/3)."""
    t = float(np.cbrt(5.0 / level))   # ** (1/3) would lose up to 3 ulps of x
    return math.sqrt(0.5 * (t + math.sqrt(t * t - 4.0)))


def threshold_wave(z: float, n: int, c_n: float, c: complex = 1.0) -> tuple[complex, complex]:
    """c sqrt(z) H1_nu(x) and its derivative, nu = 1/(n - 2) and
    x = 2 sqrt(C_n)/(n - 2) z**(-(n - 2)/2): the solution of
    psi'' + C_n z**-n psi = 0 that moves into the surface, the zero-energy
    wave of -C_n/z**n (Friedrich & Trost, Phys. Rep. 397, 359)."""
    nu = 1.0 / (n - 2)
    x = 2.0 * nu * math.sqrt(c_n) * z ** (-0.5 * (n - 2))
    h, h_lower = hankel1((nu, nu - 1.0), x).tolist()
    root = math.sqrt(z)
    # d/dz via H'_nu = H_(nu-1) - (nu/x) H_nu and dx/dz = -x/(2 nu z)
    return c * root * h, c / root * (h - 0.5 * x / nu * h_lower)


def phase_coordinate(x, n: int):
    """Universal phase integral int sqrt(1 + 1/x'**n) dx' with far-end anchor.

    Equals phi_dB/(kappa zeta_n) for the homogeneous potential V_n, fixed by
    phase_coordinate(x) - x -> 0 as x -> inf; x is a float or an array.
    One closed form at every x > 0: ``_cliff_offset(n)`` + G(x), with the
    antiderivative G(t) = t**a/a 2F1(-1/2, a/n; 1 + a/n; -t**n) and
    a = 1 - n/2 (DLMF 8.17.7). Near the cliff it runs like
    -2/(n - 2) x**(1 - n/2). Raises OverflowError where x**n or x**a
    overflows, which would make the 2F1 nan or the result -inf.
    """
    x = np.asarray(x, dtype=float)
    lo, hi = float(x.min(initial=1.0)), float(x.max(initial=1.0))   # an empty x passes
    if not 0.0 < lo:   # also false for nan
        raise ValueError("x must be positive")
    if n <= 2:
        raise ValueError("needs n > 2 for a finite far-end anchor")
    a = 1.0 - n / 2.0
    for power, end in ((n, hi), (a, lo)):
        try:   # a Python float raises where numpy would warn
            end ** power
        except OverflowError:
            raise OverflowError(f"x**{power:g} overflows a float at x = {end:g}") from None
    return _cliff_offset(n) + x ** a / a * hyp2f1(-0.5, a / n, 1.0 + a / n, -x ** float(n))


@cache
def _cliff_offset(n: int) -> float:
    """phase_coordinate - G, the limit of phase_coordinate(x) + 2/(n - 2) x**(1 - n/2)
    as x -> 0: the Beta integral -Gamma(-1/n) Gamma(1/n - 1/2)/(n Gamma(-1/2))
    (DLMF 5.12.3), continued analytically. For n = 4 it is 2 Gamma(3/4)**2/sqrt(pi),
    twice the inverse-quartic symmetry point z*."""
    return float(-gamma(-1.0 / n) * gamma(1.0 / n - 0.5) / (n * gamma(-0.5)))


def inversion_center() -> float:
    """Wall coordinate z* of the inverse-quartic symmetry point x = 1,
    Gamma(3/4)**2/sqrt(pi): the wall is even under x -> 1/x, where
    phase_coordinate(x, 4) + phase_coordinate(1/x, 4) = 2 z*."""
    return _cliff_offset(4) / 2.0


@cache
def _legendre(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights of order m on [0, 1]."""
    x, w = roots_legendre(m)
    return 0.5 * (x + 1.0), 0.5 * w


def _panel_sums(width: np.ndarray, integrand) -> tuple[np.ndarray, float]:
    """Each panel's integral by the higher rule of ``_PHASE_RULES``, and the
    summed |higher - lower|, the sum's error estimate; ``integrand(x)`` reads
    each panel of ``width``, one a row, at a rule's points x on [0, 1]."""
    low, high = (width * (integrand(x) @ w) for x, w in map(_legendre, _PHASE_RULES))
    return high, float(np.sum(np.abs(high - low)))


def _kz(potential, energy: float, u: np.ndarray) -> np.ndarray:
    """k z = sqrt(E - V) z at z = e**u."""
    z = np.exp(u)
    return np.sqrt(energy - potential.value(z)) * z


def _cut(u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each gap of the ascending ``u`` cut evenly into the fewest panels no
    wider than ``_PANEL_DU``: each panel's gap, offset from the gap's start,
    and width."""
    widths = np.diff(u)
    parts = np.ceil(widths / _PANEL_DU).astype(int)
    gap = np.repeat(np.arange(len(widths)), parts)
    width = (widths / parts)[gap]
    return gap, (np.arange(len(gap)) - np.repeat(np.cumsum(parts) - parts, parts)) * width, width


def _log_panels(potential, energy: float,
                u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """The gaps of the ascending ``u`` = ln z ``_cut`` into panels: each
    panel's gap and start, and the ``_panel_sums`` of k z at ``energy``."""
    gap, offset, width = _cut(u)
    start = u[gap] + offset
    return gap, start, *_panel_sums(
        width, lambda x: _kz(potential, energy, start[:, None] + width[:, None] * x))


def threshold_phases(potential, z: np.ndarray) -> np.ndarray:
    """int sqrt(-V) dz between each two of the ascending points ``z``: the
    phase at E = 0, on the gaps of u = ln z ``_cut`` into panels."""
    gap, _, phases, _ = _log_panels(potential, 0.0, np.log(z))
    return np.bincount(gap, weights=phases, minlength=len(z) - 1)


class _PhaseTable:
    """phi_dB of a tabulated potential at one energy, built on first use.

    V is an exact power law on the table's ``tails``, so phi is closed form
    there: -C4/z**4 from z_from on gives the far-end anchor, and -C3/z**3 up
    to z_top continues phi from there to the cliff. Between, each piece of
    u = ln z on which V is one polynomial (``log_knots``) is split into
    equal panels no wider than ``_PANEL_DU``, and phi is kept at the panel
    starts. Gauss-Legendre rules integrate k z = sqrt(E - V) z over each
    panel in u, with the potential's own V, so the table integrates the
    potential the solvers see. The lower rule of ``_PHASE_RULES`` only
    estimates the error of the higher; their summed difference must stay
    within ``_PHASE_BUDGET``. A call inside the table then costs one lookup
    and one short rule over the part of a panel below z.
    """

    def __init__(self, field: WkbField):
        potential, energy, kappa = field.potential, field.energy, field.kappa
        self.energy = energy
        (_, c3, self.z_min), (_, _, self.z_max) = potential.tails
        self.zeta4 = field.zeta
        self.zeta3 = (c3 / energy) ** (1.0 / 3.0)
        self.kz4, self.kz3 = kappa * self.zeta4, kappa * self.zeta3

        self.potential = potential
        _, self.start, high, error = _log_panels(potential, energy, potential.log_knots())
        if not error <= _PHASE_BUDGET:
            raise RuntimeError(f"phase table error estimate {error:.1e} rad"
                               f" above {_PHASE_BUDGET:g} rad")
        phi_top = self.kz4 * phase_coordinate(self.z_max / self.zeta4, 4)
        self.phi_start = phi_top - np.cumsum(high[::-1])[::-1]
        self.phi_cliff = self.phi_start[0] - self.kz3 * phase_coordinate(
            self.z_min / self.zeta3, 3)

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
        a = self.start[p]
        h = u - a
        nodes, weights = _legendre(_PHASE_RULES[1])
        out[mid] = self.phi_start[p] + h * (
            _kz(self.potential, self.energy, a[:, None] + h[:, None] * nodes) @ weights)
        return out.reshape(z.shape)[()]


@dataclass(frozen=True)
class WkbField:
    """Evaluators for k_dB, phi_dB, Q and the waves of one scattering problem."""

    potential: object
    energy: float

    def __post_init__(self):
        if not 0.0 < self.energy < math.inf:   # also false for nan
            raise ValueError("energy must be finite and positive")

    @property
    def kappa(self) -> float:
        return math.sqrt(self.energy)

    @cached_property
    def zeta(self) -> float:
        """(C/E)**(1/n) of the far tail -C/z**n, where |V| = E: C_n on V_n,
        and on a table the declared C4."""
        n, c, _ = self.potential.tails[1]
        return (c / self.energy) ** (1.0 / n)

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
        if not (np.asarray(z) > 0.0).all():   # also false for nan
            raise ValueError("phase is defined on z > 0")
        if isinstance(self.potential, HomogeneousPotential):
            zeta = self.zeta
            return self.kappa * zeta * phase_coordinate(z / zeta, self.potential.n)
        return self._phase_table.phi(z)

    @cached_property
    def _phase_table(self) -> _PhaseTable:
        # per field, not per potential in a module cache: a field lives for
        # one solve, so its table goes when the solve is done
        return _PhaseTable(self)

    @cached_property
    def _threshold_tail(self) -> tuple[int, float, float] | None:
        """(n, C_n, z_top) of the inner tail: V = -C_n/z**n exactly for z <= z_top.

        None for n = 4, where the WKB wave with E included is the better
        cliff start: there Q falls like z**6 and E z**4/C_4 only like z**4.
        """
        tail = self.potential.tails[0]
        return None if tail[0] == 4 else tail

    def on_threshold_tail(self, z: float) -> bool:
        """Whether ``cliff_wave(z)`` is the threshold wave of the inner tail."""
        tail = self._threshold_tail
        return tail is not None and z <= tail[2]

    def cliff_wave(self, z: float) -> tuple[complex, complex]:
        """The one-way wave into the surface at a cliff start z, and its derivative.

        On the inner tail (``on_threshold_tail``) it is the threshold solution
        of psi'' + C_n z**-n psi = 0 (Friedrich & Trost, Phys. Rep. 397, 359),
        c times ``threshold_wave``; its only error is the neglected E z**n/C_n. With
        phi -> phi_0 - x as z -> 0, the Hankel asymptote (DLMF 10.17.5) gives
        c = sqrt(pi/(n - 2)) e^(i(nu pi/2 + pi/4 - phi_0)), so the wave tends
        to the leftward WKB wave ``wkb_pair(z)[1]`` and carries its flux, -1.
        Elsewhere it is that wave.
        """
        if not self.on_threshold_tail(z):
            return self.wkb_pair(z)[1]
        n, c_n, _ = self._threshold_tail
        if isinstance(self.potential, HomogeneousPotential):
            phi_0 = self.kappa * self.zeta * _cliff_offset(n)
        else:
            table = self._phase_table
            phi_0 = table.phi_cliff + table.kz3 * _cliff_offset(3)
        nu = 1.0 / (n - 2)
        c = math.sqrt(math.pi * nu) * cmath.exp(1j * (0.5 * math.pi * nu + 0.25 * math.pi - phi_0))
        return threshold_wave(z, n, c_n, c)

    def cliff_residual(self, z: float) -> float:
        """Relative error of the wave equation that ``cliff_wave(z)`` solves.

        E z**n/C_n on the inner tail, for F = E + C_n/z**n; elsewhere Q(z),
        for the WKB wave's k**2 (1 + Q).
        """
        if not self.on_threshold_tail(z):
            return self.q(z)
        n, c_n, _ = self._threshold_tail
        return self.energy * z ** n / c_n

    def wkb_pair(self, z: float) -> tuple[tuple[complex, complex], tuple[complex, complex]]:
        """The WKB waves alpha e^(i eta phi) and their exact derivatives, for
        eta = +1 and -1 in that order, from one evaluation of k, k' and phi."""
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
        """(k_dB, Q) at z: the wall-gauge solver needs both at every step.

        On V_n, Q is ``universal_badlands(z/zeta, n)/(kappa zeta)**2``, free of
        the cancellation of the two terms below on the cliff (to about
        eps/x**4 on V_4); on a table both come from one pass over V, V' and V''.
        """
        if isinstance(self.potential, HomogeneousPotential):
            zeta = self.zeta
            return (self.k(z),
                    universal_badlands(z / zeta, self.potential.n) / (self.energy * zeta * zeta))
        v, dv, d2v = self.potential.derivs(z)
        k2 = self.energy - v
        k = np.sqrt(k2)
        dk = -dv / (2.0 * k)
        d2k = (-d2v - 2.0 * dk * dk) / (2.0 * k)
        return k, 0.5 * d2k / k2 ** 1.5 - 0.75 * dk * dk / (k2 * k2)

    def q_peak(self) -> tuple[float, float]:
        """(z_peak, Q_peak); closed form for homogeneous, search otherwise,
        found once per field."""
        return self._peak

    @cached_property
    def _peak(self) -> tuple[float, float]:
        if isinstance(self.potential, HomogeneousPotential):
            z_peak = self.zeta * badlands_peak_x(self.potential.n)
            return z_peak, self.q(z_peak)
        return self._q_peak_search()

    def _q_peak_search(self) -> tuple[float, float]:
        """The largest Q on 241 points, zeta/300 .. 300 zeta, refined between
        that point's neighbours by ``_PEAK_ROUNDS`` array calls, each of which
        keeps the two sections beside its largest value."""
        grid = np.geomspace(self.zeta / 300.0, self.zeta * 300.0, 241)
        qs = self.q(grid)
        imax = int(np.argmax(qs))
        if imax in (0, len(grid) - 1):
            raise RuntimeError("badlands peak not bracketed by the search grid")
        interior = qs[1:-1]
        local_max = (interior > qs[:-2]) & (interior >= qs[2:])
        prominent = local_max & (interior > 0.01 * qs[imax])   # a ripple is not a mode
        if int(np.count_nonzero(prominent)) > 1:
            warnings.warn("badlands appears multimodal; reporting the global peak")
        lo, hi = grid[imax - 1], grid[imax + 1]
        for _ in range(_PEAK_ROUNDS):
            zs = lo + (hi - lo) * _SECTION_ENDS
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
        crossings that the sections resolve (a ripple) it keeps the one
        farthest from ``inside``.
        Returns the outer end, where Q is not above ``target``."""
        while abs(outside - inside) > _CUT_RTOL * outside:
            zs = inside + (outside - inside) * _SECTION_ENDS
            # Q is known at the ends, so only the points between are read
            above = np.flatnonzero(self.q(zs[1:-1]) > target)
            j = int(above[-1]) + 1 if len(above) else 0
            inside, outside = float(zs[j]), float(zs[j + 1])
        return outside

    def matching_domain(self, q_rel: float = Q_MATCH_REL) -> tuple[float, float]:
        """(z_min, z_max) where Q has fallen to q_rel of its peak on each side.

        On V_n, z_max is zeta_n x, with x the far crossing of
        ``universal_badlands`` found once per (n, q_rel) (``_far_cut``), and on
        V_4 z_min is zeta/x, so Q is not read at all. On a table Q is
        searched: its peak (``_q_peak_search``), then a doubling walk from it
        on each side and ``_crossing`` in the last step of the walk. Where
        that step lies on the exact -C4/z**4 tail, or straddles the tail's
        start z_from with Q on the tail still above the target there, the far
        crossing is the universal one of that tail instead; where the step
        lies wholly on the -C3/z**3 tail below, the cliff crossing is not
        needed.
        Where the cliff-side crossing lies on the inner tail of an n != 4
        cliff, z_min is instead the shallowest point of that tail with
        E z**n/C_n <= q_rel: there ``cliff_wave`` is exact but for that E.
        A cut that puts that point at or beyond the badlands peak is rejected,
        and so is a domain that is not finite and ordered, as where
        zeta = (C/E)**(1/n) overflows or underflows.
        """
        if not (0.0 < q_rel < 1.0):
            raise ValueError("q_rel must lie in (0, 1)")
        pot = self.potential
        if isinstance(pot, HomogeneousPotential):
            n, zeta = pot.n, self.zeta
            x_max = _far_cut(n, q_rel)
            # V_4's badlands is even under x -> 1/x; for n != 4 z_min is the
            # threshold start below, on a tail that holds at every z
            z_min, z_max, z_peak = zeta / x_max, zeta * x_max, zeta * badlands_peak_x(n)
        else:
            z_peak, q_peak = self.q_peak()
            target = q_rel * q_peak
            lo = self._walk(z_peak, -1, target)
            inside = min(2.0 * lo, z_peak)
            z_min = inside if self.on_threshold_tail(inside) else self._crossing(inside, lo, target)
            hi = self._walk(z_peak, +1, target)
            inside = max(hi / 2.0, z_peak)
            zeta, z_from = self.zeta, pot.tails[1][2]
            level = target * self.energy * zeta * zeta   # the target of the universal badlands
            # the last step lies on the far tail, or it straddles z_from and Q
            # there, on the tail, is still above the target: either way the
            # crossing lies on the tail
            if inside >= z_from or (hi > z_from and universal_badlands(z_from / zeta, 4) > level):
                z_max = float(zeta * _quartic_far_crossing(level))
            else:
                z_max = self._crossing(inside, hi, target)
        if not 0.0 < z_min < z_max < math.inf:   # also false for nan
            raise ValueError(f"matching domain ({z_min:g}, {z_max:g}) is not finite and ordered")
        if self.on_threshold_tail(z_min):
            n, c_n, z_top = self._threshold_tail
            z_min = min(z_top, (q_rel * c_n / self.energy) ** (1.0 / n))
            if z_min >= z_peak:
                raise ValueError(f"matching cut {q_rel:g} puts the cliff start at or"
                                 " beyond the badlands peak")
        return z_min, z_max
