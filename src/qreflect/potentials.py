"""Attractive surface potentials and the unit conversions they need.

Internally everything runs in reduced units with hbar**2/(2m) = 1, so the
Schrodinger coefficient is F(z) = E - V(z) with E = kappa**2. Conversions
from SI or atomic units happen at the boundary (file ingestion, CLI), by
default for the neutral hydrogen atom: ``M_HYDROGEN_AMU`` in u, the CLI's
--mass-amu default, and ``M_HYDROGEN`` in kg, the one mass derived from it.

Each potential states once, as ``tails = ((n, C, z_top), (n, C, z_from))``,
the exact power laws V = -C/z**n it follows at or below z_top and at or
above z_from, with the declared strengths: the far tail's C4 gives
ell = sqrt(C4). Between the tails V is one polynomial in log-log
coordinates on each of its pieces.

* ``HomogeneousPotential``, V_n(z) = -c_n / z**n for integer n >= 3, is all
  tail: its tails ((n, c_n, inf), (n, c_n, 0)) overlap (``one_law``).
* ``TabulatedPotential``: samples of a Casimir-Polder-like potential,
  fitted by a quintic in log-log coordinates and joined smoothly (V''
  continuous) to declared tails, -C3/z**3 below the table and -C4/z**4 above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import make_lsq_spline

__all__ = [
    "HomogeneousPotential",
    "TabulatedPotential",
    "kappa_si",
    "load_potential_table",
    "one_law",
    "HBAR",
    "M_HYDROGEN",
    "M_HYDROGEN_AMU",
    "G_STANDARD",
    "BOHR_RADIUS",
    "HARTREE",
    "AIRY_LAMBDA1",
]

# CODATA 2018 values; the hydrogen mass is the neutral-atom mass.
HBAR = 1.054571817e-34          # J s
G_STANDARD = 9.80665            # m / s^2
BOHR_RADIUS = 5.29177210903e-11  # m
HARTREE = 4.3597447222071e-18   # J
AMU = 1.66053906660e-27         # kg
M_HYDROGEN_AMU = 1.00782503207  # u
M_HYDROGEN = M_HYDROGEN_AMU * AMU  # kg
AIRY_LAMBDA1 = 2.338107410459767  # |first zero of Ai|

TAIL_TOLERANCE = 0.05   # largest relative gap between a table's end nodes and its declared tails
FIT_TOLERANCE = 5e-3    # largest relative gap between a table's samples and its spline
KNOT_DU = 0.06          # least gap in ln z between a table's spline knots
BLEND = 10.0            # a table's blend to each declared tail spans this factor in z
_SHAPE_SAMPLES = 16     # points a piece at which a table's shape is checked, ends included


@dataclass(frozen=True)
class HomogeneousPotential:
    """V(z) = -c_n / z**n with n >= 3, c_n > 0, in reduced units."""

    n: int
    c_n: float
    breaks = np.empty(0)  # points where the third derivative of V jumps: none
    breaks.flags.writeable = False

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 3:
            raise ValueError("homogeneous exponent n must be an integer >= 3")
        if not 0.0 < self.c_n < math.inf:   # also false for nan
            raise ValueError("strength c_n must be finite and positive (attractive potential)")

    def value(self, z):
        _require_positive(z)
        return -self.c_n / z ** self.n

    def dvalue(self, z):
        return -self.n * (self.value(z) / z)

    @property
    def tails(self) -> tuple[tuple[int, float, float], tuple[int, float, float]]:
        return (self.n, self.c_n, math.inf), (self.n, self.c_n, 0.0)

    def log_knots(self) -> np.ndarray:
        """The ends of the pieces between the tails, which overlap: none."""
        return np.empty(0)


class TabulatedPotential:
    """Sampled attractive potential joined to declared power-law tails.

    w = ln(-V) is a quintic spline in u = ln z with the not-a-knot ends,
    which is C4, so V'' is continuous with two continuous derivatives and a
    pure power law is reproduced exactly. Its knots are the first and last
    node and the nodes between at least ``KNOT_DU`` apart (``_knot_nodes``),
    and it is the samples' least-squares fit on them. Where the nodes lie
    that far apart, every node is a knot and the fit interpolates the
    samples; on a denser table it averages the samples' rounding, which
    interpolation would carry into V'' magnified by the inverse square of the
    node spacing (on 47 nodes a decade at 11 digits, to about 1e-7 of V''). Every sample
    must lie within ``FIT_TOLERANCE`` of the spline, relative in V. On each
    side one quintic Hermite piece, a factor ``BLEND`` wide in z, runs from
    the spline's (w, w', w'') at the end node to the declared tail's line
    (ln C - n u, -n, 0); beyond the blends V is exactly -C3/z**3 and
    -C4/z**4 with the declared strengths, which ``tails`` holds. V'' is
    continuous everywhere, and its derivative jumps only at the two ends of
    each blend, ``breaks``. The end nodes must lie within ``TAIL_TOLERANCE``
    of the declared laws, which keeps the blends gentle. A quintic does not
    preserve shape as a monotone cubic does, so w' < 0 is checked at load on
    ``_SHAPE_SAMPLES`` points of every piece, and a table whose spline turns
    anywhere raises ``ValueError`` naming the interval.
    """

    def __init__(self, z, v, cliff_c3: float, far_c4: float):
        z = np.asarray(z, dtype=float)
        v = np.asarray(v, dtype=float)
        if z.ndim != 1 or z.shape != v.shape:
            raise ValueError("need matching 1D arrays of samples")
        if z.size < 6:
            raise ValueError("a quintic spline needs at least 6 samples")
        # each test is false for nan, so nan fails it
        if not (np.isfinite(z).all() and z[0] > 0.0 and (np.diff(z) > 0.0).all()):
            raise ValueError("z samples must be finite, positive and strictly increasing")
        if not (np.isfinite(v).all() and (v < 0.0).all()):
            raise ValueError("potential samples must be finite and negative (attractive)")
        if not (0.0 < cliff_c3 < math.inf and 0.0 < far_c4 < math.inf):
            raise ValueError("tail strengths must be finite and positive")
        self.z_min = float(z[0])
        self.z_max = float(z[-1])
        cliff_c3, far_c4 = float(cliff_c3), float(far_c4)
        mis_lo = abs(-v[0] * z[0] ** 3 / cliff_c3 - 1.0)
        mis_hi = abs(-v[-1] * z[-1] ** 4 / far_c4 - 1.0)
        if not (mis_lo <= TAIL_TOLERANCE and mis_hi <= TAIL_TOLERANCE):   # also true for nan
            raise ValueError(
                f"table ends deviate from declared tails by ({mis_lo:.3g}, {mis_hi:.3g}),"
                f" above tolerance {TAIL_TOLERANCE:g}")
        self.tails = ((3, cliff_c3, self.z_min / BLEND), (4, far_c4, self.z_max * BLEND))
        self.breaks = np.array([self.tails[0][2], self.z_min, self.z_max, self.tails[1][2]])
        self.breaks.flags.writeable = False
        u, w = np.log(z), np.log(-v)
        kept = u[_knot_nodes(u)]
        spline = make_lsq_spline(u, w, np.concatenate(
            [np.repeat(kept[0], 6), kept[3:-3], np.repeat(kept[-1], 6)]), k=5)
        miss = np.abs(np.expm1(spline(u) - w))
        worst = int(np.argmax(miss))
        if not miss[worst] <= FIT_TOLERANCE:   # also true for nan
            raise ValueError(f"table sample at z = {z[worst]:.6g} lies {miss[worst]:.3g} off the"
                             f" table's spline, above tolerance {FIT_TOLERANCE:g}"
                             " (check the table for a dent or noise)")
        # the knots: the blends' outer ends and the spline's own, in u = ln z,
        # with (w, w', w'') at each, the tails' lines at the blends' outer ends
        inner = np.unique(spline.t)
        knots = np.concatenate([np.log(self.breaks[:1]), inner, np.log(self.breaks[-1:])])
        ends = np.empty((3, len(knots)))
        ends[:, 1:-1] = spline(inner), spline(inner, 1), spline(inner, 2)
        for j, (n, c, _) in ((0, self.tails[0]), (-1, self.tails[1])):
            ends[:, j] = math.log(c) - n * knots[j], -n, 0.0
        # w per piece, one row per power, lowest first, in s = u - (the
        # piece's start): the cliff tail below knots[0], the quintic between
        # each two knots, which between the spline's knots is the spline
        # itself, and the far tail from knots[-1] on
        pieces = np.zeros((6, len(knots) + 1))
        pieces[:2, 0], pieces[:2, -1] = ends[:2, 0], ends[:2, -1]
        pieces[:, 1:-1] = _quintic(np.diff(knots), ends[:, :-1], ends[:, 1:])
        self._w = pieces
        self._knots = knots
        self._origin = np.concatenate([knots[:1], knots])
        # the shape check on every piece between the tails
        width = np.diff(knots)
        _, w1, _ = _log_log_derivs(pieces[:, 1:-1, None],
                                   width[:, None] * np.linspace(0.0, 1.0, _SHAPE_SAMPLES), 1)
        bad = np.flatnonzero(~(w1 < 0.0).all(axis=1))
        if len(bad):
            lo, hi = np.exp(knots[[bad[0], bad[0] + 1]])
            raise ValueError(f"table spline is not monotone: ln(-V) rises somewhere in"
                             f" z = {lo:.6g} .. {hi:.6g} (check the table for a kink or noise)")

    def _pieces(self, z):
        """Piece index and offset s = u - (the piece's start) of each z, u = ln z."""
        _require_positive(z)
        u = np.log(z)
        i = np.searchsorted(self._knots, u, side="right")
        return i, u - self._origin[i]

    def value(self, z):
        i, s = self._pieces(z)
        return -np.exp(_log_log_derivs(self._w[:, i], s, 0)[0])

    def dvalue(self, z):
        return self.derivs(z)[1]

    def d2value(self, z):
        return self.derivs(z)[2]

    def derivs(self, z):
        """(V, V', V'') at z, a float or an array, from one search and one exponential.

        V = -exp(w(u)) gives V' = -exp(w) w'/z and V'' = -exp(w)(w'' + w'**2 - w')/z**2.
        """
        i, s = self._pieces(z)
        w, w1, w2 = _log_log_derivs(self._w[:, i], s)
        mv = np.exp(w)
        return -mv, -mv * w1 / z, -mv * (w2 + w1 * w1 - w1) / z ** 2

    def log_knots(self) -> np.ndarray:
        """The ends of the pieces between the tails, in u = ln z, on each of
        which V is one polynomial in log-log coordinates: the blends' outer
        ends and the spline's knots."""
        return self._knots


def one_law(potential) -> bool:
    """Whether one law holds at every z > 0: the two ``tails`` overlap."""
    (_, _, z_top), (_, _, z_from) = potential.tails
    return z_from < z_top


def _knot_nodes(u: np.ndarray) -> list[int]:
    """The nodes, of the ascending ``u``, that are a table's spline knots:
    the first and the last, and between them each node at least ``KNOT_DU``
    beyond the last one kept and before the last; every node where that
    leaves fewer than the 6 a quintic needs."""
    us = u.tolist()
    kept = [0]
    for i in range(1, len(us) - 1):
        if us[i] - us[kept[-1]] >= KNOT_DU and us[-1] - us[i] >= KNOT_DU:
            kept.append(i)
    kept.append(len(us) - 1)
    return kept if len(kept) >= 6 else list(range(len(us)))


def _quintic(h: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """The quintics, one a column, from (w, w', w'') = ``start`` at s = 0 to
    ``end`` at s = h: one coefficient per power of s, lowest first."""
    (w0, d0, dd0), (w1, d1, dd1) = start, end
    # what the Taylor part of the start leaves of the end, in t = s/h
    r0 = w1 - w0 - h * (d0 + 0.5 * h * dd0)
    r1 = h * (d1 - d0 - h * dd0)
    r2 = h * h * (dd1 - dd0)
    return np.stack([w0, d0, 0.5 * dd0,
                     (10.0 * r0 - 4.0 * r1 + 0.5 * r2) / h ** 3,
                     (-15.0 * r0 + 7.0 * r1 - r2) / h ** 4,
                     (6.0 * r0 - 3.0 * r1 + 0.5 * r2) / h ** 5])


def _log_log_derivs(c, s, order: int = 2):
    """Polynomials ``c`` (one row per power, lowest first) at s, and their
    first and second derivatives up to ``order``, by Horner's rule."""
    w, w1, w2 = c[-1], 0.0, 0.0
    for row in c[-2::-1]:
        if order == 2:
            w2 = w2 * s + w1
        if order:
            w1 = w1 * s + w
        w = w * s + row
    return w, w1, 2.0 * w2


def _require_positive(z):
    if not ((z > 0.0).all() if isinstance(z, np.ndarray) else z > 0.0):   # also false for nan
        raise ValueError("potential is defined on z > 0 only")


def kappa_si(energy_j: float, mass_kg: float) -> float:
    """Asymptotic wavevector sqrt(2 m E)/hbar in 1/m."""
    if not (0.0 < energy_j < math.inf and 0.0 < mass_kg < math.inf):   # also false for nan
        raise ValueError("energy and mass must be finite and positive")
    return math.sqrt(2.0 * mass_kg * energy_j) / HBAR


def e1_unit(mass_kg: float = M_HYDROGEN, g: float = G_STANDARD) -> float:
    """First gravitational-state energy (hbar^2 m g^2 / 2)^(1/3) * lambda_1, in J."""
    if not (0.0 < mass_kg < math.inf and 0.0 < g < math.inf):   # also false for nan
        raise ValueError("mass and g must be finite and positive")
    return (HBAR ** 2 * mass_kg * g * g / 2.0) ** (1.0 / 3.0) * AIRY_LAMBDA1


def to_reduced(mass_kg: float) -> float:
    """2 m E_h a0**2/hbar**2: an energy or strength in atomic units times
    this is 2 m V/hbar**2 with lengths in a0, its reduced value for a mass in kg."""
    if not 0.0 < mass_kg < math.inf:   # also false for nan
        raise ValueError("mass must be finite and positive")
    return 2.0 * mass_kg * HARTREE * BOHR_RADIUS ** 2 / HBAR ** 2


def load_potential_table(path, mass_kg: float = M_HYDROGEN) -> TabulatedPotential:
    """Read a two-column potential table in atomic units.

    Format: ``#`` comment lines, a header line ``# C3=<val> C4=<val>``
    declaring the tails (hartree a0^3 and hartree a0^4), then rows
    ``z_atomic_units  V_atomic_units``. The result is converted to reduced
    units with the Bohr radius as the length unit (``to_reduced``).
    """
    scale = to_reduced(mass_kg)
    declared: dict[str, float] = {}
    numbers: list[str] = []   # z, V, z, V, ...: parsed at once after the loop
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if line.startswith("#"):
                # only ``C3=<val>`` and ``C4=<val>`` declare, spaces around = allowed
                tokens = line[1:].replace("=", " = ").split()
                declared.update((key, float(value)) for key, eq, value
                                in zip(tokens, tokens[1:], tokens[2:])
                                if key in ("C3", "C4") and eq == "=")
            elif line:
                cols = line.split()
                if len(cols) != 2:
                    raise ValueError(f"malformed table row: {raw!r}")
                numbers += cols
    z, v = np.array(numbers, dtype=float).reshape(-1, 2).T
    if declared.keys() != {"C3", "C4"}:
        raise ValueError("table must declare tails in a '# C3=<val> C4=<val>' header")
    c3, c4 = declared["C3"], declared["C4"]
    return TabulatedPotential(z, v * scale,
                              cliff_c3=c3 * scale, far_c4=c4 * scale)
