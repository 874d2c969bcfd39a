"""Quantum reflection of atoms on attractive surface potentials.

Three mutually validating routes to the same reflection amplitudes:

* direct integration of the Schrodinger equation with WKB matching,
* the Liouville "wall" picture obtained from the special gauge
  zt = phi_dB / vk, which maps the attractive well onto a repulsive wall,
* the exact modified-Mathieu solution of the inverse-quartic model.
"""

from .liouville import (
    LiouvilleMap,
    TransformedProblem,
    affine_map,
    compose,
    identity_map,
    inversion_center,
    inversion_map,
    special_gauge,
    transform_f,
    transform_wavefunction,
    universal_v4,
    universal_wall,
    wall_integral,
    wall_integral_closed,
)
from .mathieu import MathieuSolution, characteristic_exponent, r4_curve, solve_v4
from .potentials import (
    HomogeneousPotential,
    PhysicalScales,
    TabulatedPotential,
    energy_in_e1_units,
    load_potential_table,
    scales_for,
)
from .scattering import (
    ScatteringLength,
    ScatteringResult,
    SolverControl,
    s_from_t,
    scattering_length,
    solve_coupled,
    solve_direct,
    solve_transformed,
    wronskian,
)
from .specialfns import SeriesControl, bessel_j
from .wkb import WkbField

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
