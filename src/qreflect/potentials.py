"""Attractive surface potentials and the physical scales they set.

Internally everything runs in reduced units with hbar**2/(2m) = 1, so the
Schrodinger coefficient is F(z) = E - V(z) with E = kappa**2. Conversions
from SI or atomic units happen at the boundary (file ingestion, CLI).

Two potential families are supported:

* ``HomogeneousPotential``: V_n(z) = -c_n / z**n for integer n >= 3.
* ``TabulatedPotential``: samples of a Casimir-Polder-like potential joined
  to declared power-law tails, -C3/z**3 below the table and -C4/z**4 above.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicHermiteSpline, PchipInterpolator

__all__ = [
    "HomogeneousPotential",
    "TabulatedPotential",
    "PhysicalScales",
    "scales_for",
    "energy_in_e1_units",
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


@dataclass(frozen=True)
class HomogeneousPotential:
    """V(z) = -c_n / z**n with n >= 3, c_n > 0, in reduced units."""

    n: int
    c_n: float
    breaks = ()  # points where V'' jumps: none

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 3:
            raise ValueError("homogeneous exponent n must be an integer >= 3")
        if self.c_n <= 0.0:
            raise ValueError("strength c_n must be positive (attractive potential)")

    def value(self, z: float) -> float:
        _require_positive(z)
        return -self.c_n / z ** self.n

    def dvalue(self, z: float) -> float:
        return self.n * self.c_n / z ** (self.n + 1)

    def d2value(self, z: float) -> float:
        return -self.n * (self.n + 1) * self.c_n / z ** (self.n + 2)

    def derivs(self, z: float) -> tuple[float, float, float]:
        """(V, V', V'') at z, with the expressions of the three methods above."""
        _require_positive(z)
        n, c = self.n, self.c_n
        return -c / z ** n, n * c / z ** (n + 1), -n * (n + 1) * c / z ** (n + 2)

    def tail_cliff(self) -> tuple[int, float]:
        return self.n, self.c_n

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
    declared asymptotic C3/C4 is checked against ``tail_tolerance``; the
    declared values remain the ones reported by ``tail_cliff``/``tail_far``
    and used for far-end length scales.
    """

    def __init__(self, z, v, cliff_c3: float, far_c4: float,
                 tail_tolerance: float = 0.05):
        z = np.asarray(z, dtype=float)
        v = np.asarray(v, dtype=float)
        if z.ndim != 1 or z.shape != v.shape or z.size < 4:
            raise ValueError("need matching 1D arrays with at least 4 samples")
        if np.any(z <= 0.0) or np.any(np.diff(z) <= 0.0):
            raise ValueError("z samples must be positive and strictly increasing")
        if np.any(v >= 0.0):
            raise ValueError("potential samples must be negative (attractive)")
        if cliff_c3 <= 0.0 or far_c4 <= 0.0:
            raise ValueError("tail strengths must be positive")
        self.z_min = float(z[0])
        self.z_max = float(z[-1])
        self.cliff_c3 = float(cliff_c3)
        self.far_c4 = float(far_c4)
        self.tail_tolerance = float(tail_tolerance)
        self._z = z
        self._v = v
        # points where V'' jumps: the nodes, where the log-log cubic is only C1
        self.breaks = tuple(z.tolist())
        # the scalar kernel below evaluates this spline and its derivatives
        # from plain floats: a PPoly call per scalar costs far more than the sum
        spline = _log_log_spline(z, v)
        self._knots = spline.x.tolist()
        self._last = len(self._knots) - 2
        self._w = _local_coefficients(spline)
        self._w1 = _local_coefficients(spline.derivative())
        self._w2 = _local_coefficients(spline.derivative(2))
        # boundary-matched tail strengths: continuity at the seams
        self._cliff_scale = float(-v[0] * z[0] ** 3)
        self._far_scale = float(-v[-1] * z[-1] ** 4)
        mis_lo, mis_hi = self.tail_mismatch()
        if max(mis_lo, mis_hi) > tail_tolerance:
            raise ValueError(
                f"table ends deviate from declared tails by ({mis_lo:.3g}, {mis_hi:.3g}),"
                f" above tolerance {tail_tolerance:g}")

    def tail_mismatch(self) -> tuple[float, float]:
        """Relative deviation of the boundary-matched tails from the declared ones."""
        lo = abs(self._cliff_scale / self.cliff_c3 - 1.0)
        hi = abs(self._far_scale / self.far_c4 - 1.0)
        return float(lo), float(hi)

    def _locate(self, z: float) -> tuple[int, float]:
        """Interval of u = ln z and the offset u - u_i, as PPoly finds them.

        Intervals are closed on the right like PPoly's. The index is clamped
        rather than rejected: z is already inside [z_min, z_max], and
        ``math.log`` may land one ulp outside the ``np.log`` knots at the ends.
        """
        u = math.log(z)
        i = bisect_right(self._knots, u) - 1
        if i < 0:
            i = 0
        elif i > self._last:
            i = self._last
        return i, u - self._knots[i]

    def value(self, z: float) -> float:
        _require_positive(z)
        if z < self.z_min:
            return -self._cliff_scale / z ** 3
        if z > self.z_max:
            return -self._far_scale / z ** 4
        i, s = self._locate(z)
        c0, c1, c2, c3 = self._w[i]
        # summed in PPoly's order, so the result matches scipy bit for bit
        return -math.exp(c0 + c1 * s + c2 * (s * s) + c3 * ((s * s) * s))

    def dvalue(self, z: float) -> float:
        _require_positive(z)
        if z < self.z_min:
            return 3.0 * self._cliff_scale / z ** 4
        if z > self.z_max:
            return 4.0 * self._far_scale / z ** 5
        i, s = self._locate(z)
        c0, c1, c2, c3 = self._w[i]
        b0, b1, b2 = self._w1[i]
        w = c0 + c1 * s + c2 * (s * s) + c3 * ((s * s) * s)
        w1 = b0 + b1 * s + b2 * (s * s)
        # V = -exp(w(u)), dV/dz = -exp(w) w' / z
        return -math.exp(w) * w1 / z

    def d2value(self, z: float) -> float:
        _require_positive(z)
        if z < self.z_min:
            return -12.0 * self._cliff_scale / z ** 5
        if z > self.z_max:
            return -20.0 * self._far_scale / z ** 6
        i, s = self._locate(z)
        c0, c1, c2, c3 = self._w[i]
        b0, b1, b2 = self._w1[i]
        d0, d1 = self._w2[i]
        w = c0 + c1 * s + c2 * (s * s) + c3 * ((s * s) * s)
        w1 = b0 + b1 * s + b2 * (s * s)
        w2 = d0 + d1 * s
        return -math.exp(w) * (w2 + w1 * w1 - w1) / z ** 2

    def derivs(self, z: float) -> tuple[float, float, float]:
        """(V, V', V'') at z from one interval lookup and one exponential.

        Same expressions as ``value``, ``dvalue`` and ``d2value``, so the
        three results equal theirs bit for bit.
        """
        _require_positive(z)
        if z < self.z_min:
            c = self._cliff_scale
            return -c / z ** 3, 3.0 * c / z ** 4, -12.0 * c / z ** 5
        if z > self.z_max:
            c = self._far_scale
            return -c / z ** 4, 4.0 * c / z ** 5, -20.0 * c / z ** 6
        i, s = self._locate(z)
        c0, c1, c2, c3 = self._w[i]
        b0, b1, b2 = self._w1[i]
        d0, d1 = self._w2[i]
        w1 = b0 + b1 * s + b2 * (s * s)
        mv = math.exp(c0 + c1 * s + c2 * (s * s) + c3 * ((s * s) * s))
        return -mv, -mv * w1 / z, -mv * (d0 + d1 * s + w1 * w1 - w1) / z ** 2

    def log_log_pieces(self) -> tuple[list[float], list[tuple[float, ...]]]:
        """Knots u_i = ln z_i and, per interval, the cubic w = ln(-V) in u - u_i.

        Coefficients come lowest power first, as ``value`` uses them.
        """
        return self._knots, self._w

    @property
    def cliff_c3_matched(self) -> float:
        """Boundary-matched cliff strength actually used below the table."""
        return self._cliff_scale

    @property
    def far_c4_matched(self) -> float:
        """Boundary-matched far strength actually used above the table."""
        return self._far_scale

    def tail_cliff(self) -> tuple[int, float]:
        return 3, self.cliff_c3

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


def _local_coefficients(poly) -> list[tuple[float, ...]]:
    """Per-interval coefficients of a PPoly, lowest power first."""
    return list(zip(*poly.c[::-1].tolist()))


def _require_positive(z: float):
    if z <= 0.0:
        raise ValueError("potential is defined on z > 0 only")


@dataclass(frozen=True)
class PhysicalScales:
    """Length and wavevector scales of a (potential, energy) pair.

    kappa    asymptotic wavevector sqrt(E) (reduced units)
    zeta_n   distance where E = |V_n|, (c_n/E)**(1/n)
    ell_n    strength length, (c_n)**(1/(n-2)) = (kappa**2 zeta_n**n)**(1/(n-2))
    e1_unit  energy of the first gravitational quantum state, set only when
             constructed from SI quantities
    """

    energy: float
    kappa: float
    n: int
    zeta_n: float
    ell_n: float
    e1_unit: float | None = None


def scales_for(potential, energy: float) -> PhysicalScales:
    """Scales of the far-end tail for a reduced-unit potential and E > 0."""
    if energy <= 0.0:
        raise ValueError("energy must be positive")
    n, c_n = potential.tail_far()
    kappa = math.sqrt(energy)
    zeta_n = (c_n / energy) ** (1.0 / n)
    ell_n = c_n ** (1.0 / (n - 2))
    return PhysicalScales(energy=energy, kappa=kappa, n=n, zeta_n=zeta_n, ell_n=ell_n)


def kappa_si(energy_j: float, mass_kg: float) -> float:
    """Asymptotic wavevector sqrt(2 m E)/hbar in 1/m."""
    if energy_j <= 0.0 or mass_kg <= 0.0:
        raise ValueError("energy and mass must be positive")
    return math.sqrt(2.0 * mass_kg * energy_j) / HBAR


def e1_unit(mass_kg: float = M_HYDROGEN, g: float = G_STANDARD) -> float:
    """First gravitational-state energy (hbar^2 m g^2 / 2)^(1/3) * lambda_1, in J."""
    return (HBAR ** 2 * mass_kg * g * g / 2.0) ** (1.0 / 3.0) * AIRY_LAMBDA1


def energy_in_e1_units(energy_j: float, mass_kg: float = M_HYDROGEN,
                       g: float = G_STANDARD) -> float:
    """E expressed in units of the first gravitational-state energy."""
    if energy_j <= 0.0 or mass_kg <= 0.0 or g <= 0.0:
        raise ValueError("all arguments must be positive")
    return energy_j / e1_unit(mass_kg, g)


def load_potential_table(path, mass_kg: float = M_HYDROGEN,
                         tail_tolerance: float = 0.05) -> TabulatedPotential:
    """Read a two-column potential table in atomic units.

    Format: ``#`` comment lines, a header line ``# C3=<val> C4=<val>``
    declaring the tails (hartree a0^3 and hartree a0^4), then rows
    ``z_atomic_units  V_atomic_units``. The result is converted to reduced
    units with the Bohr radius as the length unit, i.e. V is replaced by
    2 m V / hbar**2 expressed in 1/a0**2.
    """
    c3 = c4 = None
    zs: list[float] = []
    vs: list[float] = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                tokens = line[1:].replace("=", " = ").split()
                for i, tok in enumerate(tokens):
                    if tok == "C3" and i + 2 < len(tokens):
                        c3 = float(tokens[i + 2])
                    if tok == "C4" and i + 2 < len(tokens):
                        c4 = float(tokens[i + 2])
                continue
            cols = line.split()
            if len(cols) != 2:
                raise ValueError(f"malformed table row: {raw!r}")
            zs.append(float(cols[0]))
            vs.append(float(cols[1]))
    if c3 is None or c4 is None:
        raise ValueError("table must declare tails in a '# C3=<val> C4=<val>' header")
    # 2mV/hbar^2 with lengths in a0: multiply energies by this factor
    to_reduced = 2.0 * mass_kg * HARTREE * BOHR_RADIUS ** 2 / HBAR ** 2
    z = np.asarray(zs)
    v = np.asarray(vs) * to_reduced
    return TabulatedPotential(z, v, cliff_c3=c3 * to_reduced, far_c4=c4 * to_reduced,
                              tail_tolerance=tail_tolerance)
