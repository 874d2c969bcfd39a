"""Liouville gauge engine.

A Liouville transformation is a smooth monotone coordinate change z -> zt
together with the rescaling Psi_t(zt) = sqrt(zt'(z)) Psi(z). It preserves the
Schrodinger form with a transformed coefficient

    F_t(zt) = (F(z) - {zt, z}/2) / zt'(z)**2,

{.,.} the Schwarzian derivative, and leaves every scattering amplitude
unchanged. The special gauge zt = phi_dB/vk turns an attractive well into a
repulsive wall of height vk**2 Q(z) probed at energy vk**2.

Maps are evaluator bundles (value, derivative, second derivative,
Schwarzian); composition uses Cayley's identity so no symbolic algebra is
ever needed, which keeps tabulated potentials first-class citizens.
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
    "identity_map",
    "affine_map",
    "inversion_map",
    "log_map",
    "compose",
    "transform_wavefunction",
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
    inverse_map: "LiouvilleMap | None" = None
    name: str = "map"

    def __call__(self, z: float) -> float:
        return self.forward(z)


def identity_map() -> LiouvilleMap:
    return LiouvilleMap(lambda z: z, lambda z: 1.0, lambda z: 0.0,
                        dderivative=lambda z: 0.0, name="identity")


def affine_map(a: float, b: float = 0.0) -> LiouvilleMap:
    if a <= 0.0:
        raise ValueError("affine slope must be positive for a monotone map")
    m = LiouvilleMap(lambda z: a * z + b, lambda z: a, lambda z: 0.0,
                     dderivative=lambda z: 0.0, name=f"affine({a},{b})")
    inv = LiouvilleMap(lambda zt: (zt - b) / a, lambda zt: 1.0 / a, lambda zt: 0.0,
                       dderivative=lambda zt: 0.0, name=f"affine({1/a},{-b/a})")
    object.__setattr__(m, "inverse_map", inv)
    return m


def inversion_map(zeta: float) -> LiouvilleMap:
    """zt = -zeta**2/z, the homography exchanging cliff-side and far-end."""
    if zeta <= 0.0:
        raise ValueError("zeta must be positive")
    z2 = zeta * zeta
    m = LiouvilleMap(lambda z: -z2 / z, lambda z: z2 / z ** 2, lambda z: 0.0,
                     dderivative=lambda z: -2.0 * z2 / z ** 3, name=f"inversion({zeta})")
    object.__setattr__(m, "inverse_map", m)
    return m


def log_map(zeta: float) -> LiouvilleMap:
    """zt = ln(z/zeta); sends the inverse-quartic model to a Mathieu form."""
    if zeta <= 0.0:
        raise ValueError("zeta must be positive")
    return LiouvilleMap(lambda z: math.log(z / zeta), lambda z: 1.0 / z,
                        lambda z: 0.5 / z ** 2, dderivative=lambda z: -1.0 / z ** 2,
                        name=f"log({zeta})")


def compose(first: LiouvilleMap, second: LiouvilleMap) -> LiouvilleMap:
    """Map applying ``first`` then ``second``; Schwarzians obey Cayley's identity."""

    def fwd(z):
        return second.forward(first.forward(z))

    def der(z):
        return second.derivative(first.forward(z)) * first.derivative(z)

    def schw(z):
        zt = first.forward(z)
        return first.derivative(z) ** 2 * second.schwarzian(zt) + first.schwarzian(z)

    dder = None
    if first.dderivative is not None and second.dderivative is not None:
        def dder(z):
            zt = first.forward(z)
            return (second.dderivative(zt) * first.derivative(z) ** 2
                    + second.derivative(zt) * first.dderivative(z))

    return LiouvilleMap(fwd, der, schw, dderivative=dder,
                        name=f"{second.name}∘{first.name}")


def transform_wavefunction(mapping: LiouvilleMap, psi_value: complex, z: float) -> complex:
    """Psi_t(zt) = sqrt(zt'(z)) Psi(z); densities transform with the Jacobian."""
    d = mapping.derivative(z)
    if d <= 0.0:
        raise ValueError("map must be strictly increasing")
    return math.sqrt(d) * psi_value


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

    def f_transformed_inverse_form(self, z: float) -> float:
        """Same quantity through the inverse map's own evaluators (cross-check)."""
        inv = self.mapping.inverse_map
        if inv is None:
            raise ValueError("map carries no independent inverse evaluators")
        zt = self.mapping.forward(z)
        return (inv.derivative(zt) ** 2 * self.f_original(z)
                + 0.5 * inv.schwarzian(zt))

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


def special_gauge(field: WkbField, scale: float | None = None,
                  trunc_rel: float = 1e-10) -> tuple[LiouvilleMap, TransformedProblem]:
    """The wall gauge zt = phi_dB/vk for a WKB field.

    ``scale`` is vk; the default sqrt(kappa * ell_far) collapses the
    inverse-quartic model onto its universal wall (and kappa*zeta_n for a
    homogeneous V_n exponent n). The domain is truncated where Q has fallen
    to ``trunc_rel`` of its peak, which quantifies the "free asymptotic
    states" residual; the default is ``SolverControl.q_match_rel``'s, so the
    wall route matches at the same cut as the others.
    """
    if scale is None:
        n, c_n = field.potential.tail_far()
        if n == 4:
            scale = math.sqrt(field.kappa * math.sqrt(c_n))
        else:
            scale = field.kappa * (c_n / field.energy) ** (1.0 / n)
    if scale <= 0.0:
        raise ValueError("gauge scale must be positive")
    vk = scale

    mapping = LiouvilleMap(
        forward=lambda z: field.phi(z) / vk,
        derivative=lambda z: field.k(z) / vk,
        schwarzian=lambda z: 2.0 * field.q(z) * field.k(z) ** 2,
        dderivative=lambda z: field.dk(z) / vk,
        name=f"wall(vk={vk:g})",
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
