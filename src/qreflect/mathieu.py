"""Exact solution of the inverse-quartic model via the modified Mathieu equation.

The logarithmic Liouville map zt = ln(z/zeta) with Psi_t = Psi/sqrt(z) turns
the V(z) = -C4/z**4 scattering problem at energy kappa**2 into

    Psi_t'' + (-1/4 + 2 q cosh 2zt) Psi_t = 0,      q = kappa * ell,

whose solutions are series of Bessel-function products with a Floquet-type
characteristic exponent tau. Matching their cosh-asymptotics to the physical
incoming/outgoing waves gives closed forms for the amplitudes:

    r = -i sinh(sigma) / sinh(sigma + i pi tau)
    t = sin(pi tau) exp(2 i vk z_star) / sinh(sigma + i pi tau)

with vk = sqrt(q), z_star the inversion-center coordinate, and
sigma = ln(Psi_t^-(0)/Psi_t^+(0)) the parity constant.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .liouville import inversion_center
from .specialfns import ConvergenceError, bessel_j

__all__ = [
    "MathieuSolution",
    "characteristic_exponent",
    "coefficients",
    "mathieu_wave",
    "parity_sigma",
    "solve_v4",
    "r4_curve",
]

A_PARAM = 0.25  # the -1/4 constant produced by the logarithmic map

# characteristic_exponent starts at N_START terms per side of the Hill
# determinant and doubles while the side is at most N_MAX, until two
# successive estimates of tau agree to TAU_TOL
N_START = 25
N_MAX = 800
TAU_TOL = 1e-12


def _hill_determinant(q: float, n_side: int) -> float:
    """Truncated Hill determinant at zero exponent, by the continuant recurrence."""
    ns = np.arange(-n_side, n_side + 1)
    xi = q / (4.0 * ns.astype(float) ** 2 - A_PARAM)
    d_prev2, d_prev = 1.0, 1.0
    for k in range(1, 2 * n_side + 1):
        d_prev2, d_prev = d_prev, d_prev - xi[k] * xi[k - 1] * d_prev2
    return float(d_prev)


def characteristic_exponent(q: float) -> complex:
    """Characteristic exponent tau of the three-term recurrence.

    Root of the infinite Hill determinant, evaluated through the classical
    identity sin(pi tau / 2)**2 = Delta(0) sin(pi sqrt(a) / 2)**2 with the
    truncation doubled until tau is stable to ``TAU_TOL``. Normalized to
    Re tau in [0, 1], Im tau >= 0; tau -> sqrt(a) as q -> 0.
    """
    if q <= 0.0:
        raise ValueError("q must be positive")
    sin_a2 = math.sin(0.5 * math.pi * math.sqrt(A_PARAM)) ** 2

    def tau_from_det(det: float) -> complex:
        tau = 2.0 / math.pi * cmath.asin(cmath.sqrt(complex(det * sin_a2)))
        return complex(abs(tau.real), abs(tau.imag))

    # the truncated determinant approaches its limit like N**-3, so one
    # Richardson step per doubling removes the leading tail
    n_side = N_START
    d_lo = _hill_determinant(q, n_side)
    d_hi = _hill_determinant(q, 2 * n_side)
    tau_prev = tau_from_det(d_hi + (d_hi - d_lo) / 7.0)
    while n_side <= N_MAX:
        n_side *= 2
        d_lo, d_hi = d_hi, _hill_determinant(q, 2 * n_side)
        tau = tau_from_det(d_hi + (d_hi - d_lo) / 7.0)
        if abs(tau - tau_prev) < TAU_TOL:
            return tau
        tau_prev = tau
    raise ConvergenceError(f"characteristic exponent did not settle for q={q}")


def coefficients(tau: complex, q: float, n_terms: int = 30) -> np.ndarray:
    """Recurrence coefficients A_n for n in [-n_terms, n_terms], A_0 = 1.

    The ratios A_n/A_{n-1} come from downward continued fractions seeded with
    the asymptotic tail; they decay rapidly, which is checked before returning.
    """
    if n_terms < 10:
        raise ValueError("n_terms must be at least 10")

    def ladder(sign: int) -> np.ndarray:
        ratios = np.zeros(n_terms + 2, dtype=complex)
        ratios[n_terms + 1] = -q / ((tau + sign * 2.0 * (n_terms + 1)) ** 2 - A_PARAM)
        for n in range(n_terms, 0, -1):
            den = ((tau + sign * 2.0 * n) ** 2 - A_PARAM) + q * ratios[n + 1]
            if den == 0.0:
                raise ConvergenceError("continued fraction hit a vanishing denominator")
            ratios[n] = -q / den
        return ratios

    up, down = ladder(+1), ladder(-1)
    coeff = np.zeros(2 * n_terms + 1, dtype=complex)
    coeff[n_terms] = 1.0
    for n in range(1, n_terms + 1):
        coeff[n_terms + n] = coeff[n_terms + n - 1] * up[n]
        coeff[n_terms - n] = coeff[n_terms - n + 1] * down[n]
    if max(abs(coeff[0]), abs(coeff[-1])) > 1e-13:
        raise ConvergenceError("coefficient tails have not decayed; raise n_terms")
    return coeff


def mathieu_wave(zt: float, tau: complex, q: float, coeff: np.ndarray,
                 sign: int) -> complex:
    """Bessel-product series Psi_t^(+-)(zt); ``sign`` selects the superscript."""
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    n_terms = (len(coeff) - 1) // 2
    sq = math.sqrt(q)
    x_grow = sq * math.exp(zt)
    x_decay = sq * math.exp(-zt)
    total = coeff[n_terms] * bessel_j(complex(sign) * tau, x_grow) \
        * bessel_j(complex(0.0), x_decay)
    scale = abs(total)
    negligible = 0
    for n in range(1, n_terms + 1):
        term = 0.0 + 0.0j
        for m in (n, -n):
            c = coeff[n_terms + m]
            if c == 0.0:
                continue
            term += ((-1) ** m * c
                     * bessel_j(complex(sign) * (m + tau), x_grow)
                     * bessel_j(complex(sign * m), x_decay))
        total += term
        scale = max(scale, abs(total))
        if abs(term) < 1e-16 * max(scale, 1e-300):
            negligible += 1
            if negligible >= 3 and n >= 5:
                break
        else:
            negligible = 0
    return complex(total)


def parity_sigma(tau: complex, q: float, coeff: np.ndarray) -> complex:
    """Parity constant sigma = ln(Psi_t^-(0)/Psi_t^+(0)).

    exp(-+sigma) relates the two solutions at mirrored coordinates; the
    principal branch is returned, which the amplitude formulas tolerate
    since they are 2 pi i periodic in sigma.
    """
    plus = mathieu_wave(0.0, tau, q, coeff, +1)
    minus = mathieu_wave(0.0, tau, q, coeff, -1)
    if abs(plus) < 1e-250:
        raise ZeroDivisionError("Psi_t^+(0) vanishes; sigma undefined at this q")
    return cmath.log(minus / plus)


@dataclass(frozen=True)
class MathieuSolution:
    """Assembled exact solution of the inverse-quartic model at one kappa*ell."""

    q: float
    tau: complex
    coeff: np.ndarray
    sigma: complex
    r: complex
    t: complex

    @property
    def R(self) -> float:  # noqa: N802
        return abs(self.r) ** 2

    def recurrence_residual(self) -> float:
        """Max residual of the three-term recurrence over the coefficient table."""
        n_terms = (len(self.coeff) - 1) // 2
        worst = 0.0
        scale = float(np.max(np.abs(self.coeff)))
        for n in range(-(n_terms - 1), n_terms):
            lhs = ((self.tau + 2.0 * n) ** 2 - A_PARAM) * self.coeff[n_terms + n] \
                + self.q * (self.coeff[n_terms + n + 1] + self.coeff[n_terms + n - 1])
            worst = max(worst, abs(lhs) / scale)
        return worst


def solve_v4(kappa_ell: float) -> MathieuSolution:
    """Exact amplitudes for the inverse-quartic model at dimensionless kappa*ell.

    The closed form covers kappa*ell up to about 299. Above that (first at
    299.37 on a grid of step 0.01) the characteristic exponent does not
    settle within the Hill determinant's truncations, and
    ``characteristic_exponent`` raises ``ConvergenceError``.
    """
    if kappa_ell <= 0.0:
        raise ValueError("kappa_ell must be positive")
    q = kappa_ell
    vk = math.sqrt(kappa_ell)
    tau = characteristic_exponent(q)
    coeff = coefficients(tau, q)
    sigma = parity_sigma(tau, q, coeff)
    denom = cmath.sinh(sigma + 1j * math.pi * tau)
    if abs(denom) == 0.0:
        raise ZeroDivisionError("sinh(sigma + i pi tau) vanishes")
    r = -1j * cmath.sinh(sigma) / denom
    t = cmath.sin(math.pi * tau) * cmath.exp(2j * vk * inversion_center()) / denom
    return MathieuSolution(q=q, tau=tau, coeff=coeff,
                           sigma=sigma, r=r, t=t)


def r4_curve(grid) -> np.ndarray:
    """Universal reflection curve R4(kappa*ell) on a grid.

    Returns a structured array with fields ``kappa_ell`` and ``R``. Points
    are independent; R4 depends on tau and sigma only through quantities
    that are insensitive to their branch choices.
    """
    grid = np.asarray(grid, dtype=float)
    if np.any(grid <= 0.0):
        raise ValueError("grid must be positive")
    out = np.zeros(grid.size, dtype=[("kappa_ell", float), ("R", float)])
    for i, kl in enumerate(grid):
        sol = solve_v4(float(kl))
        out[i] = (kl, sol.R)
    return out
