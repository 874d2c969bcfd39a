"""Attractive surface potentials and the unit conversions they need.

Internally everything runs in reduced units with hbar**2/(2m) = 1, so the
Schrodinger coefficient is F(z) = E - V(z) with E = kappa**2. Conversions
from SI or atomic units happen at the boundary (file ingestion, CLI).

Two potential families are supported:

* ``HomogeneousPotential``: V_n(z) = -c_n / z**n for integer n >= 3.
* ``TabulatedPotential``: samples of a Casimir-Polder-like potential joined
  to declared power-law tails, -C3/z**3 below the table and -C4/z**4 above.

Each states once, as ``tails = ((n, C, z_top), (n, C, z_from))``, the exact
power laws V = -C/z**n it follows at or below z_top and at or above z_from;
``tail_far()`` is the declared far asymptote, whose C4 gives ell = sqrt(C4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicHermiteSpline, PchipInterpolator

__all__ = [
    "HomogeneousPotential",
    "TabulatedPotential",
    "kappa_si",
    "load_potential_table",
    "HBAR",
    "M_HYDROGEN",
    "G_STANDARD",
    "BOHR_RADIUS",
    "HARTREE",
    "AIRY_LAMBDA1",
]

# CODATA 2018 values; the hydrogen mass is the neutral-atom mass.
HBAR = 1.054571817e-34          # J s
M_HYDROGEN = 1.6735328e-27      # kg
G_STANDARD = 9.80665            # m / s^2
BOHR_RADIUS = 5.29177210903e-11  # m
HARTREE = 4.3597447222071e-18   # J
AMU = 1.66053906660e-27         # kg
AIRY_LAMBDA1 = 2.338107410459767  # |first zero of Ai|

TAIL_TOLERANCE = 0.05   # largest relative gap between a table's declared and matched tails


@dataclass(frozen=True)
class HomogeneousPotential:
    """V(z) = -c_n / z**n with n >= 3, c_n > 0, in reduced units."""

    n: int
    c_n: float
    breaks = np.empty(0)  # points where V'' jumps: none
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

    def tail_far(self) -> tuple[int, float]:
        return self.n, self.c_n


class TabulatedPotential:
    """Sampled attractive potential with declared power-law tails.

    The interpolation runs through (ln z, ln(-V)) with a shape-preserving
    monotone cubic, so pure power laws are interpolated exactly and the
    interpolant stays attractive. Outside the table the declared power-law
    tails take over, rescaled multiplicatively to pass through the boundary
    nodes -- a value jump at the seams would act as an artificial step
    potential. The deviation of those boundary-matched strengths from the
    declared asymptotic C3/C4 is checked against ``TAIL_TOLERANCE``; ``tails``
    holds the matched laws, and ``tail_far`` the declared far strength.
    """

    def __init__(self, z, v, cliff_c3: float, far_c4: float):
        z = np.array(z, dtype=float)   # a copy: it is kept, read-only, as ``breaks``
        v = np.asarray(v, dtype=float)
        if z.ndim != 1 or z.shape != v.shape or z.size < 4:
            raise ValueError("need matching 1D arrays with at least 4 samples")
        # each test is false for nan, so nan fails it
        if not (np.isfinite(z).all() and z[0] > 0.0 and (np.diff(z) > 0.0).all()):
            raise ValueError("z samples must be finite, positive and strictly increasing")
        if not (np.isfinite(v).all() and (v < 0.0).all()):
            raise ValueError("potential samples must be finite and negative (attractive)")
        if not (0.0 < cliff_c3 < math.inf and 0.0 < far_c4 < math.inf):
            raise ValueError("tail strengths must be finite and positive")
        self.z_min = float(z[0])
        self.z_max = float(z[-1])
        self.cliff_c3 = float(cliff_c3)
        self.far_c4 = float(far_c4)
        self._v = v
        # points where V'' jumps: the nodes, where the log-log cubic is only C1
        z.flags.writeable = False
        self.breaks = z
        spline = _log_log_spline(z, v)
        self._knots = spline.x
        # w = ln(-V) and its u-derivatives per piece, one row per power, lowest
        # first, in u - _origin: piece 0 is the cliff tail below the table,
        # piece i in 1 .. m the cubic from u_(i-1), piece m + 1 the far tail;
        # a tail -C/z**n is the line w = ln(-V) at its end node - n (u - u_node)
        cubic = np.zeros((4, len(z) + 1))
        cubic[:, 1:-1] = spline.c[::-1]
        cubic[:2, 0] = np.log(-v[0]), -3.0
        cubic[:2, -1] = np.log(-v[-1]), -4.0
        self._w = cubic
        self._w1 = np.stack([cubic[1], 2.0 * cubic[2], 3.0 * cubic[3]])
        self._w2 = np.stack([2.0 * cubic[2], 6.0 * cubic[3]])
        self._origin = np.concatenate([spline.x[:1], spline.x])
        # the search points: the last knot an ulp higher, so that z_max itself
        # falls on the last cubic and only u > u_m on the far tail
        self._search = np.append(spline.x[:-1], np.nextafter(spline.x[-1], np.inf))
        # boundary-matched tail strengths: continuity at the seams
        self.tails = ((3, float(-v[0] * z[0] ** 3), self.z_min),
                      (4, float(-v[-1] * z[-1] ** 4), self.z_max))
        mis_lo, mis_hi = (abs(c / declared - 1.0) for (_, c, _), declared
                          in zip(self.tails, (self.cliff_c3, self.far_c4)))
        if not (mis_lo <= TAIL_TOLERANCE and mis_hi <= TAIL_TOLERANCE):   # also true for nan
            raise ValueError(
                f"table ends deviate from declared tails by ({mis_lo:.3g}, {mis_hi:.3g}),"
                f" above tolerance {TAIL_TOLERANCE:g}")

    def _pieces(self, z):
        """Piece index and offset s = u - u_origin of each z, u = ln z.

        As in PPoly, a node falls on the cubic that starts there, and z_max
        on the last one.
        """
        _require_positive(z)
        u = np.log(z)
        i = np.searchsorted(self._search, u, side="right")
        return i, u - self._origin[i]

    @staticmethod
    def _cubic(c, s):
        # summed in PPoly's order, so that the table's cubic matches scipy bit for bit
        c0, c1, c2, c3 = c
        return c0 + c1 * s + c2 * (s * s) + c3 * ((s * s) * s)

    def value(self, z):
        i, s = self._pieces(z)
        return -np.exp(self._cubic(self._w[:, i], s))

    def dvalue(self, z):
        return self.derivs(z)[1]

    def d2value(self, z):
        return self.derivs(z)[2]

    def derivs(self, z):
        """(V, V', V'') at z, a float or an array, from one search and one exponential.

        V = -exp(w(u)) gives V' = -exp(w) w'/z and V'' = -exp(w)(w'' + w'**2 - w')/z**2.
        """
        i, s = self._pieces(z)
        b0, b1, b2 = self._w1[:, i]
        d0, d1 = self._w2[:, i]
        w1 = b0 + b1 * s + b2 * (s * s)
        mv = np.exp(self._cubic(self._w[:, i], s))
        return -mv, -mv * w1 / z, -mv * (d0 + d1 * s + w1 * w1 - w1) / z ** 2

    def log_log_pieces(self) -> tuple[np.ndarray, np.ndarray]:
        """Knots u_i = ln z_i and the cubics w = ln(-V) in u - u_i on the m
        intervals, shape (4, m): one row per power, lowest first."""
        return self._knots, self._w[:, 1:-1]

    def tail_far(self) -> tuple[int, float]:
        return 4, self.far_c4


def _log_log_spline(z: np.ndarray, v: np.ndarray) -> CubicHermiteSpline:
    """Monotone cubic through (ln z, ln(-V)) with the tail exponents as end slopes.

    The slopes are shape-preserving (PCHIP); the end slopes are pinned to the
    exact tail exponents so V stays C1 across the seams.
    """
    log_z = np.log(z)
    log_mv = np.log(-v)
    slopes = PchipInterpolator(log_z, log_mv, extrapolate=False)(log_z, 1)
    slopes[0] = -3.0
    slopes[-1] = -4.0
    return CubicHermiteSpline(log_z, log_mv, slopes, extrapolate=False)


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


def load_potential_table(path, mass_kg: float = M_HYDROGEN) -> TabulatedPotential:
    """Read a two-column potential table in atomic units.

    Format: ``#`` comment lines, a header line ``# C3=<val> C4=<val>``
    declaring the tails (hartree a0^3 and hartree a0^4), then rows
    ``z_atomic_units  V_atomic_units``. The result is converted to reduced
    units with the Bohr radius as the length unit, i.e. V is replaced by
    2 m V / hbar**2 expressed in 1/a0**2.
    """
    if not 0.0 < mass_kg < math.inf:   # also false for nan
        raise ValueError("mass must be finite and positive")
    declared: dict[str, float] = {}
    zs: list[float] = []
    vs: list[float] = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                # only ``C3=<val>`` and ``C4=<val>`` declare, spaces around = allowed
                tokens = line[1:].replace("=", " = ").split()
                declared.update((key, float(value)) for key, eq, value
                                in zip(tokens, tokens[1:], tokens[2:])
                                if key in ("C3", "C4") and eq == "=")
                continue
            cols = line.split()
            if len(cols) != 2:
                raise ValueError(f"malformed table row: {raw!r}")
            zs.append(float(cols[0]))
            vs.append(float(cols[1]))
    if declared.keys() != {"C3", "C4"}:
        raise ValueError("table must declare tails in a '# C3=<val> C4=<val>' header")
    c3, c4 = declared["C3"], declared["C4"]
    # 2mV/hbar^2 with lengths in a0: multiply energies by this factor
    to_reduced = 2.0 * mass_kg * HARTREE * BOHR_RADIUS ** 2 / HBAR ** 2
    z = np.asarray(zs)
    v = np.asarray(vs) * to_reduced
    return TabulatedPotential(z, v, cliff_c3=c3 * to_reduced, far_c4=c4 * to_reduced)
