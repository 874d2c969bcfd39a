"""Semiclassical machinery for a (potential, energy) pair.

A ``WkbField`` bundles the local wavevector k_dB = sqrt(E - V), the WKB
amplitude 1/sqrt(k_dB), the action phase with the far-end convention
phi(z) - kappa z -> 0, and the breakdown measure Q(z) (the "badlands"
function) that localizes where quantum reflection happens.

A potential is a cliff tail, pieces and a far tail (``tails``). On a tail
-C/z**n the field is that of V_n scaled by zeta = (C/E)**(1/n), in closed
form: phi = kappa zeta ``phase_coordinate(z/zeta, n)``, plus on a table's
cliff tail what its pieces add, and Q = ``universal_badlands(z/zeta,
n)``/(kappa zeta)**2, free of the cancellation of the numeric Q's two terms
on a cliff (on V_4 to about eps/x**4). On a table's pieces phi is a panel
quadrature and Q comes from analytic derivatives of the spline; a table's
evaluator puts the closed forms over the tails' share of its result
(``_tails_over``). V_n is all tail (``one_law``). Each end of the matching
domain, where |Q| has fallen to a fraction of its peak, is closed form where
it lies on a tail (``matching_domain``); elsewhere Q is searched in array calls.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np
from scipy.optimize import brentq
from scipy.special import gamma, hankel1, hyp2f1

from .potentials import one_law

__all__ = [
    "WkbField",
    "universal_badlands",
    "badlands_peak_x",
    "phase_coordinate",
    "inversion_center",
    "threshold_wave",
]

# the default matching cut of every route: Q/Q_peak, or E z**n/C_n on a
# threshold tail, at both ends of a solve
Q_MATCH_REL = 1e-10

# Every panel of the package lies on u = ln z. Panel sums (``_log_panels``)
# take the Chebyshev rule of _RULE_NODES points on panels no wider than
# _PANEL_DU, and the phase table is gated on their summed error estimate in
# radians; the wall route's first panels (``scattering._first_partition``)
# are no wider than _PANEL_DU either across a table's knots.
_RULE_NODES = 12
_TAIL_FLOOR = 1e-14   # floor of every panel test: rounding noise, relative to the values
_PANEL_DU = 0.5
_PHASE_BUDGET = 1e-8

# Searches on the numeric Q of a table: each array call reads Q on a bracket
# cut into _SECTIONS equal parts, of z for the badlands peak, which takes
# _PEAK_ROUNDS calls after its grid, and of ln z for a matching crossing,
# which reads |Q| until its bracket is narrower than _CUT_RTOL of z
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


def _far_crossing(n: int, level: float) -> float:
    """The x > x* where the universal badlands of V_n falls to ``level``: for
    n = 4, 5 x**6/(1 + x**4)**3, where x**2 + x**-2 = (5/level)**(1/3);
    otherwise the first of x* 2, x* 4, ... not above ``level`` and its half
    bracket the crossing, which brentq finds on the Python-float formula."""
    if n == 4:
        t = float(np.cbrt(5.0 / level))   # ** (1/3) would lose up to 3 ulps of x
        return math.sqrt(0.5 * (t + math.sqrt(t * t - 4.0)))
    x = badlands_peak_x(n)
    while universal_badlands(x, n) > level:
        x *= 2.0
    return brentq(lambda t: universal_badlands(t, n) - level, 0.5 * x, x,
                  xtol=1e-300, rtol=4.0 * np.finfo(float).eps)


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
def _chebyshev_rule(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(x, S, w, tail) on [-1, 1]: the n first-kind Chebyshev points, ascending;
    S @ f and w @ f, the integrals of the interpolant of f from -1 to each
    point and over [-1, 1] (Fejer's first rule); tail @ f, its last two
    Chebyshev coefficients (Greengard, SIAM J. Numer. Anal. 28, 1071 (1991)),
    every panel test's. Built on first use: importing the package builds nothing."""
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


def _even_ends(u: np.ndarray, parts: np.ndarray) -> np.ndarray:
    """Each gap of the ascending ``u`` cut evenly into as many panels as
    ``parts`` (whole numbers, one a gap) says: the panel ends, u[i] + k (u[i +
    1] - u[i])/parts[i] for k = 0 .. parts[i] - 1 in each gap, then u[-1],
    from one interpolation. Each u[i] is among them as the same float."""
    edges = np.zeros(len(parts) + 1)   # the count of panels before each u[i]
    np.cumsum(parts, out=edges[1:])
    return np.interp(np.arange(edges[-1] + 1.0), edges, u)


def _log_rule(start, width, integrand):
    """int integrand(z) z du on the panels [start, start + width] of u = ln z
    (numpy arrays or scalars) by the rule of ``_RULE_NODES`` points, and the
    values integrand(z) z at its nodes (one row a panel)."""
    x, _, w, _ = _chebyshev_rule(_RULE_NODES)
    half = 0.5 * width
    z = np.exp(start[..., None] + half[..., None] * (x + 1.0))
    values = integrand(z) * z
    return half * (values @ w), values


def _log_panels(u: np.ndarray, integrand, du: float) -> tuple[np.ndarray, np.ndarray, float]:
    """int ``integrand(z)`` dz on panels in u = ln z, each gap of the
    ascending ``u`` cut evenly into the fewest panels no wider than ``du``:
    each panel's start, its integral of integrand(z) z du (``_log_rule``),
    and the summed error estimate: half a panel's width times its last two
    Chebyshev coefficients, less ``_TAIL_FLOOR`` of its largest value each."""
    parts = np.ceil(np.diff(u) / du).astype(int)
    start = _even_ends(u, parts)[:-1]
    width = np.repeat(np.diff(u) / parts, parts)
    sums, values = _log_rule(start, width, integrand)
    noise = _TAIL_FLOOR * np.abs(values).max(axis=-1, keepdims=True)
    tails = np.maximum(np.abs(values @ _chebyshev_rule(_RULE_NODES)[3].T) - noise, 0.0)
    return start, sums, float(np.sum(0.5 * width * tails.sum(axis=-1)))


class _Law:
    """A tail -C/z**n at energy E, below ``edge`` (the cliff tail's z_top)
    or from it on (the far tail's z_from): there phi and Q are those of V_n
    at x = z/zeta, zeta = (C/E)**(1/n)."""

    __slots__ = ("n", "c", "edge", "energy", "zeta")

    def __init__(self, n: int, c: float, edge: float, energy: float):
        self.n, self.c, self.edge, self.energy = n, c, edge, energy
        self.zeta = (c / energy) ** (1.0 / n)

    def phase(self, z):
        return math.sqrt(self.energy) * self.zeta * phase_coordinate(z / self.zeta, self.n)

    def q(self, z):
        return universal_badlands(z / self.zeta, self.n) / (self.energy * self.zeta * self.zeta)


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
    def _laws(self) -> tuple[_Law, _Law]:
        """The ``_Law`` of the cliff tail and of the far tail."""
        return tuple(_Law(n, c, edge, self.energy) for n, c, edge in self.potential.tails)

    @cached_property
    def _one_law(self) -> bool:
        return one_law(self.potential)

    @property
    def zeta(self) -> float:
        """(C/E)**(1/n) of the far tail -C/z**n, where |V| = E."""
        return self._laws[1].zeta

    def _tails_over(self, z, out, on_tail):
        """``out``, an evaluator's values at z (a float or an array) by the
        code of a table's pieces, with each tail's share of z put over by
        ``on_tail(law, z)``, its ``_Law``'s closed form. A pass of the pieces'
        code over the whole of z costs less than a pass split by region."""
        cliff, far = self._laws
        if np.ndim(z) == 0:
            law = far if z >= far.edge else cliff if z < cliff.edge else None
            return on_tail(law, z) if law else out
        for law, on in ((far, z >= far.edge), (cliff, z < cliff.edge)):
            if on.any():
                out[on] = on_tail(law, z[on])
        return out

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
        if self._one_law:
            return self._laws[1].phase(z)
        return self._tails_over(z, self._pieces_phi(z), self._tail_phase)

    def _tail_phase(self, law: _Law, z):
        # on the cliff tail of a table, phi is offset by what the pieces add
        return law.phase(z) if law is self._laws[1] else self._phase_table[2] + law.phase(z)

    @cached_property
    def _phase_table(self) -> tuple[np.ndarray, np.ndarray, float]:
        """phi between the tails, built on first use and kept per field (a
        solve's): the panel starts in u = ln z, phi there, and phi less the
        cliff law's phase on the cliff tail. Each piece of u on which V is one
        polynomial (``log_knots``) is cut into equal panels no wider than
        ``_PANEL_DU``, and phi is summed down from the far law's at the far
        tail's start, by ``_log_panels`` on k z = sqrt(E - V) z with the
        potential's own V, within ``_PHASE_BUDGET`` of summed error estimate.
        ``_pieces_phi`` adds one rule over the part of a panel below z."""
        start, sums, error = _log_panels(self.potential.log_knots(), self.k, _PANEL_DU)
        if not error <= _PHASE_BUDGET:
            raise RuntimeError(f"phase table error estimate {error:.1e} rad"
                               f" above {_PHASE_BUDGET:g} rad")
        cliff, far = self._laws
        phi_start = far.phase(far.edge) - np.cumsum(sums[::-1])[::-1]
        return start, phi_start, phi_start[0] - cliff.phase(cliff.edge)

    def _pieces_phi(self, z):
        start, phi_start, _ = self._phase_table
        u = np.log(z)
        # clamped to a panel: the log may land an ulp outside the knots at the
        # ends, and on a tail, whose law's phi replaces this, z is off them
        p = np.clip(np.searchsorted(start, u, side="right") - 1, 0, len(start) - 1)
        a = start[p]
        return phi_start[p] + _log_rule(a, np.clip(u - a, 0.0, _PANEL_DU), self.k)[0]

    def on_threshold_tail(self, z: float) -> bool:
        """Whether ``cliff_wave(z)`` is the threshold wave of the cliff tail:
        z lies on it, and its n is not 4, where the WKB wave with E included
        is the better cliff start (Q falls like z**6, E z**4/C_4 only like z**4)."""
        cliff = self._laws[0]
        return cliff.n != 4 and z <= cliff.edge

    def cliff_wave(self, z: float) -> tuple[complex, complex]:
        """The one-way wave into the surface at a cliff start z, and its derivative.

        On the cliff tail (``on_threshold_tail``) it is the threshold solution
        of psi'' + C_n z**-n psi = 0 (Friedrich & Trost, Phys. Rep. 397, 359),
        c times ``threshold_wave``; its only error is the neglected E z**n/C_n. With
        phi -> phi_0 - x as z -> 0, the Hankel asymptote (DLMF 10.17.5) gives
        c = sqrt(pi/(n - 2)) e^(i(nu pi/2 + pi/4 - phi_0)), so the wave tends
        to the leftward WKB wave ``wkb_pair(z)[1]`` and carries its flux, -1.
        Elsewhere it is that wave, whose -k'/(2k) psi term dominates psi' at
        a cliff start: where V'(z) underflows to 0 (V_4 from kappa ell ~ 1e-134
        on) that term is lost, and ``ArithmeticError`` is raised.
        """
        if not self.on_threshold_tail(z):
            if self.potential.dvalue(z) == 0.0:
                raise ArithmeticError(f"V' underflows to 0 at the cliff start z = {z:g}")
            return self.wkb_pair(z)[1]
        cliff = self._laws[0]
        offset = 0.0 if self._one_law else self._phase_table[2]   # what a table's pieces add
        phi_0 = offset + self.kappa * cliff.zeta * _cliff_offset(cliff.n)
        nu = 1.0 / (cliff.n - 2)
        c = math.sqrt(math.pi * nu) * cmath.exp(1j * (0.5 * math.pi * nu + 0.25 * math.pi - phi_0))
        return threshold_wave(z, cliff.n, cliff.c, c)

    def cliff_residual(self, z: float) -> float:
        """Relative error of the wave equation that ``cliff_wave(z)`` solves.

        E z**n/C_n on the cliff tail, for F = E + C_n/z**n; elsewhere Q(z),
        for the WKB wave's k**2 (1 + Q).
        """
        cliff = self._laws[0]
        return self.energy * z ** cliff.n / cliff.c if self.on_threshold_tail(z) else self.q(z)

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
        """(k_dB, Q) at z, for the callers that read both: the wall map's
        Schwarzian and the wall integral.

        On a tail Q is its law's ``universal_badlands(z/zeta, n)/(kappa zeta)**2``,
        at every z where one law holds there; otherwise both come from one
        pass over V, V' and V'', and the tails' Q over its result.
        """
        if self._one_law:
            return self.k(z), self._laws[1].q(z)
        v, dv, d2v = self.potential.derivs(z)
        k2 = self.energy - v
        k = np.sqrt(k2)
        dk = -dv / (2.0 * k)
        d2k = (-d2v - 2.0 * dk * dk) / (2.0 * k)
        q = 0.5 * d2k / k2 ** 1.5 - 0.75 * dk * dk / (k2 * k2)
        return k, self._tails_over(z, q, _Law.q)

    def q_peak(self) -> tuple[float, float]:
        """(z_peak, Q_peak), once per field: searched, unless one law holds at
        every z; where the peak lies on the far tail, that law's zeta x* and Q."""
        return self._peak

    @cached_property
    def _peak(self) -> tuple[float, float]:
        far = self._laws[1]
        z_law = far.zeta * badlands_peak_x(far.n)
        if not self._one_law:
            found = self._q_peak_search()
            if found[0] < far.edge or z_law < far.edge:
                return found
        return z_law, far.q(z_law)

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

    def _crossing(self, inside: float, outside: float, target: float) -> float:
        """Where |Q| falls to ``target`` between ``inside``, where it is above,
        and ``outside``, where it is not: each array call cuts the bracket
        into ``_SECTIONS`` equal parts of ln z, as a bracket may span decades,
        and keeps the section after the last point above, until the bracket is
        narrower than ``_CUT_RTOL`` of z. Of several crossings that the
        sections resolve it keeps the one farthest from ``inside``, so a
        ripple, or a dip where Q turns negative, stays inside the domain.
        Returns the outer end, where |Q| is not above ``target``."""
        while abs(outside - inside) > _CUT_RTOL * outside:
            zs = inside * (outside / inside) ** _SECTION_ENDS
            zs[-1] = outside   # the power may miss it by an ulp; a tail edge must stay exact
            # Q is known at the ends, so only the points between are read
            above = np.flatnonzero(np.abs(self.q(zs[1:-1])) > target)
            j = int(above[-1]) + 1 if len(above) else 0
            inside, outside = float(zs[j]), float(zs[j + 1])
        return outside

    def matching_domain(self, q_rel: float = Q_MATCH_REL) -> tuple[float, float]:
        """(z_min, z_max): on each side of the peak, the outermost point where
        |Q| has fallen to q_rel of its peak.

        An end lies on a tail where that tail's closed-form Q rises above the
        cut: on the far tail, read at the larger of its start and zeta x*; on
        an n != 4 cliff tail, at its top, or where the peak lies on it. There
        the far end is zeta x on the far law, x the far crossing of
        ``universal_badlands`` (at q_rel of its peak where the peak lies on
        the far tail, and on an n = 4 law z_min is zeta/x where that lies on
        the tail too); the cliff end, like a crossing on that tail, is the
        shallowest point of the tail with E z**n/C_n <= q_rel, where
        ``cliff_wave`` is exact but for that E, and one at or beyond the peak
        is rejected. Otherwise the end is the ``_crossing`` from the peak to
        the tail's edge. Where one law holds at every z, Q is not read. A
        domain that is not finite and ordered, as where zeta = (C/E)**(1/n)
        overflows or underflows, is rejected.
        """
        if not (0.0 < q_rel < 1.0):
            raise ValueError("q_rel must lie in (0, 1)")
        cliff, far = self._laws
        # V_n reads no Q: its Q divides by E zeta**2, which can underflow to 0 (C_n = 1e-300)
        if self._one_law:   # its peak, and no Q read: only the searches below need a target
            z_peak, target = far.zeta * badlands_peak_x(far.n), None
        else:
            z_peak, q_peak = self.q_peak()
            target = q_rel * q_peak
        if z_peak >= far.edge:
            x_max = _far_crossing(far.n, q_rel * universal_badlands(badlands_peak_x(far.n), far.n))
            z_max = far.zeta * x_max
        elif far.q(max(far.edge, far.zeta * badlands_peak_x(far.n))) > target:
            level = target * self.energy * far.zeta * far.zeta   # that of the universal badlands
            z_max = far.zeta * _far_crossing(far.n, level)
        else:
            z_max = self._crossing(z_peak, far.edge, target)
        if z_peak >= far.edge and far.n == 4 and far.zeta / x_max >= far.edge:
            z_min = far.zeta / x_max   # the badlands of V_4 is even under x -> 1/x
        elif self.on_threshold_tail(z_peak) or (cliff.n != 4 and cliff.q(cliff.edge) > target):
            z_min = min(z_peak, cliff.edge)   # on the tail: the threshold start below replaces it
        else:
            z_min = self._crossing(z_peak, cliff.edge, target)
        if not 0.0 < z_min < z_max < math.inf:   # also false for nan
            raise ValueError(f"matching domain ({z_min:g}, {z_max:g}) is not finite and ordered")
        if self.on_threshold_tail(z_min):
            z_min = min(cliff.edge, (q_rel * cliff.c / self.energy) ** (1.0 / cliff.n))
            if z_min >= z_peak:
                raise ValueError(f"matching cut {q_rel:g} puts the cliff start at or"
                                 " beyond the badlands peak")
        return z_min, z_max
