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
potentials first-class citizens. Every map goes through ``transform_f``, the
wall gauge built here included, and F_t has one formula,
``TransformedProblem.coefficients``; another map, such as the log gauge
zt = ln(z/zeta) that turns -C4/z**4 into the modified Mathieu equation of
``mathieu``, needs only its evaluators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .wkb import Q_MATCH_REL, WkbField, _log_panels, phase_coordinate, universal_badlands

__all__ = [
    "LiouvilleMap",
    "TransformedProblem",
    "transform_f",
    "special_gauge",
    "universal_wall",
    "wall_integral",
    "wall_integral_closed",
]


@dataclass(frozen=True)
class LiouvilleMap:
    """Monotone coordinate map with the evaluators the gauge engine needs."""

    forward: Callable[[float], float]
    derivative: Callable[[float], float]
    schwarzian: Callable[[float], float]
    dderivative: Callable[[float], float]


@dataclass(frozen=True)
class TransformedProblem:
    """A WKB field's Schrodinger problem after a Liouville transformation.

    Everything is parametrized by the *original* coordinate, so no numeric
    inversion is needed: ``coefficients(z)`` gives (zt'(z), F_t(zt(z))), and
    the transformed coordinate advances through dz/dzt = 1/zt'(z). Waves
    cross between the gauges by ``carry`` and ``uncarry``, so the field's
    own cliff and WKB waves serve as the start and the matching basis.
    """

    mapping: LiouvilleMap
    field: WkbField
    domain: tuple[float, float]           # in the original coordinate
    vk: float | None = None               # the wall gauge's scale

    def coefficients(self, z):
        """(zt'(z), F_t(zt(z))), F_t = (F - {zt, z}/2)/zt'**2."""
        d = self.mapping.derivative(z)
        return d, (self.field.f_coeff(z) - 0.5 * self.mapping.schwarzian(z)) / d ** 2

    def _wall_scale(self) -> float:
        """vk, which every wall quantity reads: only a wall-form problem has one."""
        if self.vk is None:
            raise ValueError("wall quantities need a wall-form problem (special gauge)")
        return self.vk

    @property
    def e_bold(self) -> float:
        """Energy on the wall, vk**2."""
        vk = self._wall_scale()
        return vk * vk

    def v_bold(self, z: float) -> float:
        """Wall height vk**2 Q at original coordinate z."""
        return self.e_bold * self.field.q(z)

    def carry(self, z: float, wave: tuple[complex, complex]) -> tuple[complex, complex]:
        """(Psi, Psi') at z to (Psi_t, dPsi_t/dzt): Psi_t = sqrt(zt') Psi and
        dPsi_t/dzt = (Psi' + zt''/(2 zt') Psi)/sqrt(zt')."""
        psi, dpsi = wave
        d = self.mapping.derivative(z)
        root = math.sqrt(d)
        return root * psi, (dpsi + 0.5 * self.mapping.dderivative(z) / d * psi) / root

    def uncarry(self, z, state):
        """The inverse of ``carry``, on arrays: (Psi_t, dPsi_t/dzt) at z back to (Psi, Psi')."""
        psi_t, dpsi_t = state
        d = self.mapping.derivative(z)
        root = np.sqrt(d)
        psi = psi_t / root
        return psi, dpsi_t * root - 0.5 * self.mapping.dderivative(z) / d * psi

    def probe(self, n_points: int = 400):
        """Sample the wall as (zt, V_bold) arrays over the domain."""
        zs = np.geomspace(*self.domain, n_points)
        return self.mapping.forward(zs), self.v_bold(zs)


def transform_f(mapping: LiouvilleMap, field: WkbField,
                domain: tuple[float, float]) -> TransformedProblem:
    """A field's Schrodinger problem under a Liouville map on ``domain``."""
    a, b = domain
    if not (a < b):
        raise ValueError("domain must be an increasing interval")
    if mapping.derivative(0.5 * (a + b)) <= 0.0 or mapping.derivative(a) <= 0.0:
        raise ValueError("map must be strictly increasing on the domain")
    return TransformedProblem(mapping=mapping, field=field, domain=domain)


def special_gauge(field: WkbField,
                  trunc_rel: float = Q_MATCH_REL) -> tuple[LiouvilleMap, TransformedProblem]:
    """The wall gauge zt = phi_dB/vk for a WKB field.

    The scale vk = kappa zeta, with the field's zeta = (C/E)**(1/n) of the
    far tail -C/z**n, collapses V_n onto its universal wall; on -C4/z**4 it
    is sqrt(kappa ell). The domain is the field's
    ``matching_domain(trunc_rel)``: truncated where Q has fallen to
    ``trunc_rel`` of its peak, which quantifies the "free asymptotic
    states" residual, or on a threshold tail at the cliff start of the
    other routes. The default is the routes'
    shared ``Q_MATCH_REL``, so the wall route matches at the same cut as the
    others. The map's Schwarzian is 2 Q k**2, so ``transform_f`` gives
    F_t = vk**2 (1 - Q), the wall vk**2 Q at energy vk**2.
    """
    vk = field.kappa * field.zeta

    def schwarzian(z):
        k, q = field.k_q(z)
        return 2.0 * q * k * k

    mapping = LiouvilleMap(
        forward=lambda z: field.phi(z) / vk,
        derivative=lambda z: field.k(z) / vk,
        schwarzian=schwarzian,
        dderivative=lambda z: field.dk(z) / vk,
    )
    problem = transform_f(mapping, field, field.matching_domain(trunc_rel))
    return mapping, replace(problem, vk=vk)


def universal_wall(x: float, n: int) -> tuple[float, float]:
    """Universal wall of V_n parametrized by x = z/zeta_n: (z_bold, V_bold)."""
    return phase_coordinate(x, n), universal_badlands(x, n)


def wall_integral(problem: TransformedProblem) -> float:
    """Integral of the wall over the transformed axis, int V_bold dz_bold.

    Evaluated in the original coordinate as vk * int Q(z) k(z) dz over
    (0, inf), positive for every attractive potential. In u = ln z the
    integrand Q k z falls like exp(-p |u - u_peak|) on both sides: p = n/2 - 1
    on a -C_n/z**n cliff (5 for n = 4) and n + 1 on the far tail. It is
    integrated out to where that has fallen by e**-40 by ``wkb._log_panels``,
    the phase table's rule, on panels at most 1/(4n) wide, n the larger tail
    exponent, each gap between the ends and the potential's ``breaks`` (where
    the derivative of Q jumps) cut evenly; on a table the third derivative of
    Q jumps at the nodes, which panels this narrow resolve to about 1e-14.
    The summed error estimate must stay below 1e-3 of the result.
    """
    field, vk = problem.field, problem._wall_scale()
    (n_cliff, _, _), (n_far, _, _) = field.potential.tails
    decay = 5.0 if n_cliff == 4 else 0.5 * n_cliff - 1.0
    u_peak = math.log(field.q_peak()[0])
    lo, hi = u_peak - 40.0 / decay, u_peak + 40.0 / (n_far + 1.0)
    breaks = np.log(field.potential.breaks)
    u = np.concatenate([[lo], breaks[(breaks > lo) & (breaks < hi)], [hi]])
    _, sums, err_total = _log_panels(u, lambda z: np.multiply(*field.k_q(z)),
                                     0.25 / max(n_cliff, n_far))
    total = float(np.sum(sums))
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
