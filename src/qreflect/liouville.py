"""Liouville gauge engine.

A Liouville transformation is a smooth monotone coordinate change z -> zt
together with the rescaling Psi_t(zt) = sqrt(zt'(z)) Psi(z). It preserves the
Schrodinger form with a transformed coefficient

    F_t(zt) = (F(z) - {zt, z}/2) / zt'(z)**2,

{.,.} the Schwarzian derivative, and leaves every scattering amplitude
unchanged. The special gauge zt = phi_dB/vk turns an attractive well into a
repulsive wall of height vk**2 Q(z) probed at energy vk**2.

Maps are evaluator bundles (value, derivative, second derivative,
Schwarzian), so no symbolic algebra is ever needed, which keeps tabulated
potentials first-class citizens. Two maps are built here: the wall gauge
and the affine maps of the gauge-invariance check.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from .wkb import WkbField, phase_coordinate, universal_badlands

__all__ = [
    "LiouvilleMap",
    "TransformedProblem",
    "affine_map",
    "transform_f",
    "special_gauge",
    "universal_v4",
    "universal_wall",
    "inversion_center",
    "wall_integral",
    "wall_integral_closed",
    "wall_sign_summary",
]


@dataclass(frozen=True)
class LiouvilleMap:
    """Monotone coordinate map with the evaluators the gauge engine needs."""

    forward: Callable[[float], float]
    derivative: Callable[[float], float]
    schwarzian: Callable[[float], float]
    dderivative: Callable[[float], float] | None = None

    def __call__(self, z: float) -> float:
        return self.forward(z)


def affine_map(a: float, b: float = 0.0) -> LiouvilleMap:
    if a <= 0.0:
        raise ValueError("affine slope must be positive for a monotone map")
    return LiouvilleMap(lambda z: a * z + b, lambda z: a, lambda z: 0.0,
                        dderivative=lambda z: 0.0)


@dataclass(frozen=True)
class TransformedProblem:
    """A Schrodinger problem after a Liouville transformation.

    Everything is parametrized by the *original* coordinate, so no numeric
    inversion is needed: F_t and the wall shape are evaluated at z while the
    transformed coordinate advances through dz/dzt = 1/map.derivative(z).
    For the special gauge the matching basis is a pair of plane waves
    exp(+-i vk zt)/sqrt(vk); for other maps it is the image of the original
    WKB waves.
    """

    mapping: LiouvilleMap
    f_original: Callable[[float], float]
    domain: tuple[float, float]           # in the original coordinate
    field: WkbField | None = None         # set when built from a WKB field
    vk: float | None = None               # special gauge only: its scale
    e_bold: float | None = None           # special gauge only: vk**2
    v_bold: Callable[[float], float] | None = None  # wall height at original z
    plane_wave_basis: bool = False

    def f_transformed_at(self, z: float) -> float:
        """F_t(zt(z)) through the forward form of the transformation."""
        d = self.mapping.derivative(z)
        return (self.f_original(z) - 0.5 * self.mapping.schwarzian(z)) / d ** 2

    def basis_wave(self, z: float, direction: int) -> tuple[complex, complex]:
        """Matching wave and its zt-derivative at original coordinate z."""
        if self.plane_wave_basis:
            vk = math.sqrt(self.e_bold)
            zt = self.mapping.forward(z)
            value = vk ** -0.5 * complex(math.cos(direction * vk * zt),
                                         math.sin(direction * vk * zt))
            return value, 1j * direction * vk * value
        if self.field is None:
            raise ValueError("no matching basis available for this problem")
        # image of the original WKB wave: k_t = k/d, phase carried through
        d = self.mapping.derivative(z)
        dd = self.mapping.dderivative(z) if self.mapping.dderivative else None
        if dd is None:
            raise ValueError("mapped WKB basis needs the map's second derivative")
        k = self.field.k(z)
        kt = k / d
        dkt_dzt = (self.field.dk(z) - k * dd / d) / d ** 2
        value = kt ** -0.5 * complex(math.cos(direction * self.field.phi(z)),
                                     math.sin(direction * self.field.phi(z)))
        derivative = (-dkt_dzt / (2.0 * kt) + 1j * direction * kt) * value
        return value, derivative

    def probe(self, n_points: int = 400):
        """Sample the wall as (zt, V_bold) arrays over the domain."""
        if self.v_bold is None:
            raise ValueError("probe needs a wall-form problem (special gauge)")
        a, b = self.domain
        zs = np.geomspace(a, b, n_points) if a > 0 else np.linspace(a, b, n_points)
        zts = np.array([self.mapping.forward(z) for z in zs])
        vb = np.array([self.v_bold(z) for z in zs])
        return zts, vb


def wall_sign_summary(v_bold: np.ndarray) -> tuple[float, float]:
    """(min V_bold, fraction of wall samples with V_bold < 0).

    The wall of a full two-tail potential is mostly repulsive but may dip
    below zero; this reports the pattern of ``probe``'s samples instead of
    asserting one.
    """
    return float(v_bold.min()), float(np.mean(v_bold < 0.0))


def transform_f(mapping: LiouvilleMap, f: Callable[[float], float],
                domain: tuple[float, float], field: WkbField | None = None) -> TransformedProblem:
    """Transform a Schrodinger coefficient F under a Liouville map."""
    a, b = domain
    if not (a < b):
        raise ValueError("domain must be an increasing interval")
    if mapping.derivative(0.5 * (a + b)) <= 0.0 or mapping.derivative(a) <= 0.0:
        raise ValueError("map must be strictly increasing on the domain")
    return TransformedProblem(mapping=mapping, f_original=f, domain=domain, field=field)


def special_gauge(field: WkbField,
                  trunc_rel: float = 1e-10) -> tuple[LiouvilleMap, TransformedProblem]:
    """The wall gauge zt = phi_dB/vk for a WKB field.

    The scale vk = sqrt(kappa * ell_far) collapses the inverse-quartic model
    onto its universal wall (and vk = kappa*zeta_n for a homogeneous V_n
    exponent n). The domain is the field's ``matching_domain(trunc_rel)``:
    truncated where Q has fallen to ``trunc_rel`` of its peak, which
    quantifies the "free asymptotic states" residual, or on a threshold tail
    at the cliff start of the other routes. The default is
    ``SolverControl.q_match_rel``'s, so the wall route matches at the same
    cut as the others.
    """
    n, c_n = field.potential.tail_far()
    if n == 4:
        vk = math.sqrt(field.kappa * math.sqrt(c_n))
    else:
        vk = field.kappa * (c_n / field.energy) ** (1.0 / n)

    mapping = LiouvilleMap(
        forward=lambda z: field.phi(z) / vk,
        derivative=lambda z: field.k(z) / vk,
        schwarzian=lambda z: 2.0 * field.q(z) * field.k(z) ** 2,
        dderivative=lambda z: field.dk(z) / vk,
    )
    domain = field.matching_domain(trunc_rel)
    problem = TransformedProblem(
        mapping=mapping,
        f_original=field.f_coeff,
        domain=domain,
        field=field,
        vk=vk,
        e_bold=vk * vk,
        v_bold=lambda z: vk * vk * field.q(z),
        plane_wave_basis=True,
    )
    return mapping, problem


def inversion_center() -> float:
    """Wall coordinate of the inverse-quartic symmetry point, Gamma(3/4)**2/sqrt(pi)."""
    return math.gamma(0.75) ** 2 / math.sqrt(math.pi)


def universal_v4(u: float) -> tuple[float, float]:
    """Universal inverse-quartic wall, parametrized by u = ln(z/zeta).

    Returns (z_bold, V_bold) with V_bold = 5/(8 cosh(2u)**3) and z_bold
    measured so the peak sits at the inversion center; symmetric under
    u -> -u.
    """
    z_star = inversion_center()
    if u == 0.0:
        return z_star, 5.0 / 8.0
    seg, err = quad(lambda t: math.sqrt(2.0 * math.cosh(2.0 * t)), 0.0, u,
                    epsabs=1e-13, epsrel=1e-13, limit=200)
    if err > 1e-9 * max(1.0, abs(seg)):
        raise RuntimeError("wall coordinate quadrature failed")
    return z_star + seg, 5.0 / (8.0 * math.cosh(2.0 * u) ** 3)


def universal_wall(x: float, n: int) -> tuple[float, float]:
    """Universal wall of V_n parametrized by x = z/zeta_n: (z_bold, V_bold)."""
    return phase_coordinate(x, n), universal_badlands(x, n)


def universal_v4_at(z_bold: float) -> float:
    """Universal inverse-quartic wall height as a function of z_bold.

    Inverts the monotone coordinate relation by a Newton iteration with
    derivative sqrt(2 cosh 2u); used to probe the wall at mirrored points
    about the inversion center.
    """
    z_star = inversion_center()
    u = math.asinh(0.5 * (z_bold - z_star))  # crude but monotone start
    for _ in range(60):
        zb, _ = universal_v4(u)
        step = (z_bold - zb) / math.sqrt(2.0 * math.cosh(2.0 * u))
        u += step
        if abs(step) < 1e-13 * max(1.0, abs(u)):
            break
    else:
        raise RuntimeError("wall coordinate inversion did not converge")
    return 5.0 / (8.0 * math.cosh(2.0 * u) ** 3)


def wall_integral(problem: TransformedProblem) -> float:
    """Integral of the wall over the transformed axis, int V_bold dz_bold.

    Evaluated in the original coordinate as vk * int Q(z) k(z) dz, extended
    over (0, inf); positive for every attractive potential. The summed
    quadrature error estimates must stay below 1e-3 of the result.
    """
    if problem.e_bold is None or problem.field is None:
        raise ValueError("wall integral is defined for special-gauge problems")
    field = problem.field
    vk = math.sqrt(problem.e_bold)
    z_peak, _ = field.q_peak()

    def integrand(z):
        return field.q(z) * field.k(z)

    pieces = [0.0, z_peak / 30.0, z_peak / 3.0, z_peak, 3.0 * z_peak, 30.0 * z_peak, math.inf]
    total = 0.0
    err_total = 0.0
    with warnings.catch_warnings():
        # spline-limited segments of tabulated walls warn; the error budget
        # below is what gates the result
        warnings.simplefilter("ignore", IntegrationWarning)
        for lo, hi in zip(pieces[:-1], pieces[1:]):
            seg, err = quad(integrand, lo, hi, epsabs=1e-13, epsrel=1e-12, limit=200)
            total += seg
            err_total += err
    if total <= 0.0:
        raise RuntimeError("wall integral must be positive")
    if err_total > 1e-3 * total:
        raise RuntimeError(f"wall integral error estimate {err_total / total:.1e}"
                           " (relative) above 1e-3")
    return vk * total


def wall_integral_closed(n: int) -> float:
    """Closed form of the universal wall integral for V_n in Gamma functions."""
    if n <= 2:
        raise ValueError("needs n > 2")
    return (n * math.sqrt(math.pi) * math.gamma(2.0 + 1.0 / n)
            / (math.cos(math.pi / n) * 12.0 * math.gamma(0.5 + 1.0 / n)))
