"""Potentials, fields, tables and loaders that several test files share."""

import importlib.util
from pathlib import Path

import numpy as np

from qreflect.liouville import LiouvilleMap
from qreflect.potentials import (
    BOHR_RADIUS,
    M_HYDROGEN,
    HomogeneousPotential,
    TabulatedPotential,
    e1_unit,
    kappa_si,
)
from qreflect.wkb import WkbField

ROOT = Path(__file__).resolve().parents[1]


def v4(kappa_ell: float) -> HomogeneousPotential:
    """-C4/z**4 with C4 = kappa_ell: at E = kappa_ell, kappa = ell and zeta = 1."""
    return HomogeneousPotential(4, kappa_ell)


def v4_field(kappa_ell: float) -> WkbField:
    """The field of ``v4(kappa_ell)`` at E = kappa_ell."""
    return WkbField(v4(kappa_ell), kappa_ell)


def log_map(zeta: float) -> LiouvilleMap:
    """The paper's log gauge zt = ln(z/zeta): zt' = 1/z, zt'' = -1/z**2 and
    Schwarzian {zt, z} = 1/(2 z**2). On -C4/z**4 at zeta = (C4/E)**(1/4) it
    turns F = E + C4/z**4 into 2 q cosh(2 zt) - 1/4, q = kappa ell: the
    modified Mathieu equation that ``mathieu`` solves."""
    return LiouvilleMap(forward=lambda z: np.log(z / zeta), derivative=lambda z: 1.0 / z,
                        schwarzian=lambda z: 0.5 / z ** 2, dderivative=lambda z: -1.0 / z ** 2)


def two_tail_table() -> TabulatedPotential:
    """-c3/(z^3 (1 + z/lam)) on 700 nodes in reduced units, c3 = 0.6, lam = 3."""
    lam, c3 = 3.0, 0.6
    z = np.geomspace(0.004, 4000.0, 700)
    return TabulatedPotential(z, -c3 / (z ** 3 * (1.0 + z / lam)), cliff_c3=c3, far_c4=c3 * lam)


def shelf_table() -> TabulatedPotential:
    """``two_tail_table``'s shape with a shelf in -V about z = 10, where -V
    falls by a factor 6 over about 0.3 in ln z, on its 700 nodes: c3 = 3.6
    below the shelf and c4 = 1.8 above it."""
    z = np.geomspace(0.004, 4000.0, 700)
    shelf = 1.0 + 2.5 * (1.0 - np.tanh(np.log(z / 10.0) / 0.15))
    return TabulatedPotential(z, -0.6 * shelf / (z ** 3 * (1.0 + z / 3.0)),
                              cliff_c3=3.6, far_c4=1.8)


def e1_energy(x: float) -> float:
    """Reduced energy of x E1 for hydrogen, ``M_HYDROGEN``, bit for bit as the
    CLI's --energy-e1 sets it at its default --mass-amu and --g."""
    kappa = kappa_si(x * e1_unit(M_HYDROGEN), M_HYDROGEN) * BOHR_RADIUS
    return kappa * kappa


def write_cp_table(tmp_path, nodes: int = 500, c3_au: float = 0.25, lam_au: float = 500.0):
    """The ``cp`` table file: the Casimir-Polder-like two-tail potential
    -c3/(z^3 (1 + z/lam)) on ``nodes`` points of 1 .. 40000 a0, atomic
    units, by default c3 = 0.25 and lam = 500, values to 11 digits."""
    z = np.geomspace(1.0, 40000.0, nodes)
    v = -c3_au / (z ** 3 * (1.0 + z / lam_au))
    table = tmp_path / f"cp{nodes}-{c3_au!r}-{lam_au!r}.pot"
    lines = [f"# C3={c3_au} C4={c3_au * lam_au}"]
    lines += [f"{a:.10e} {b:.10e}" for a, b in zip(z, v)]
    table.write_text("\n".join(lines) + "\n")
    return table


def load_perfbench(name: str):
    """The benchmark's module ``perfbench/<name>.py``, loaded by path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
