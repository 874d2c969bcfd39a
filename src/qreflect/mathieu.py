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

Each layer works in one pass: every truncation of Hill's determinant
(DLMF 28.29) comes from one outward sweep, and the continued fractions run
on Python complex numbers. The coefficient table is sized by q: it ends
where a leading-order bound on the coefficients falls below 1e-20. The
Bessel-product series is summed over that whole table at zt = 0. Each
series is one ``bessel_j_sum`` over its ladder of growing orders: one
downward Miller recurrence, normalized by Neumann's sum at the ladder's
foot. The decaying factors come from one ``bessel_j`` call on the integer
orders.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .specialfns import ConvergenceError, bessel_j, bessel_j_sum
from .wkb import inversion_center

__all__ = [
    "MathieuSolution",
    "characteristic_exponent",
    "coefficients",
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

# coefficients keeps A_n out to the first |n| at which a leading-order bound
# on |A_n| falls below COEFF_CUT, and at most to |n| = N_TERMS
COEFF_CUT = 1e-20
N_TERMS = 30


def _hill_determinants(q: float, sides):
    """Truncated Hill determinants D_N at zero exponent, for each N of ``sides``.

    The determinant over -N..N has unit diagonal and off-diagonal products
    xi_{n-1} xi_n, xi_n = q/(4 n**2 - a). Since xi_{-n} = xi_n, expanding
    it along row 0 gives D_N = K1 (K1 - 2 xi_0 xi_1 K2), with K1 and K2 the
    continuants over 1..N and 2..N. Both grow outward one step per N, so
    one sweep serves the increasing ``sides`` in turn.
    """
    edge = 2.0 * (q / -A_PARAM) * (q / (4.0 - A_PARAM))   # 2 xi_0 xi_1
    # continuants over 1..N-1 and 1..N, and over 2..N-1 and 2..N; at N = 1
    # the ones over 1..0 and 2..1 are empty (1), the one over 2..0 is 0
    k1_prev, k1 = 1.0, 1.0
    k2_prev, k2 = 0.0, 1.0
    reached = 1
    for n_side in sides:
        n = np.arange(reached, n_side + 1, dtype=float)
        xi = q / (4.0 * n * n - A_PARAM)
        for link in (xi[:-1] * xi[1:]).tolist():
            k1_prev, k1 = k1, k1 - link * k1_prev
            k2_prev, k2 = k2, k2 - link * k2_prev
        reached = n_side
        yield k1 * (k1 - edge * k2)


def characteristic_exponent(q: float) -> complex:
    """Characteristic exponent tau of the three-term recurrence.

    Root of the infinite Hill determinant, evaluated through the classical
    identity sin(pi tau / 2)**2 = Delta(0) sin(pi sqrt(a) / 2)**2 with the
    truncation doubled until tau is stable to ``TAU_TOL``. All truncations
    come from one outward sweep of the determinant. Normalized to
    Re tau in [0, 1], Im tau >= 0; tau -> sqrt(a) as q -> 0.
    """
    if not 0.0 < q < math.inf:   # also false for nan
        raise ValueError("q must be finite and positive")
    sin_a2 = math.sin(0.5 * math.pi * math.sqrt(A_PARAM)) ** 2

    def tau_from_det(det: float) -> complex:
        tau = 2.0 / math.pi * cmath.asin(cmath.sqrt(complex(det * sin_a2)))
        return complex(abs(tau.real), abs(tau.imag))

    dets = _hill_determinants(q, (N_START << k for k in itertools.count()))
    # the truncated determinant approaches its limit like N**-3, so one
    # Richardson step per doubling removes the leading tail
    n_side = N_START
    d_lo = next(dets)
    d_hi = next(dets)
    tau_prev = tau_from_det(d_hi + (d_hi - d_lo) / 7.0)
    while n_side <= N_MAX:
        n_side *= 2
        d_lo, d_hi = d_hi, next(dets)
        tau = tau_from_det(d_hi + (d_hi - d_lo) / 7.0)
        if abs(tau - tau_prev) < TAU_TOL:
            return tau
        tau_prev = tau
    raise ConvergenceError(f"characteristic exponent did not settle for q={q}")


def coefficients(tau: complex, q: float) -> np.ndarray:
    """Recurrence coefficients A_n for n in [-N, N], A_0 = 1, with N sized by q.

    N is the first n at which the leading-order bound on |A_(+-n)|, the
    product over k <= n of q/|(tau +- 2k)**2 - 1/4|, falls below
    ``COEFF_CUT``, and at most ``N_TERMS``. Since Re tau lies in [0, 1],
    each denominator is at least (2k - 1)**2 - 1/4, so N depends on q
    alone: 5 at q = 1e-3, 11 at q = 1, 17 at q = 10 and ``N_TERMS`` from
    q = 94 on. The ratios A_n/A_{n-1} come from downward continued fractions
    seeded with the asymptotic tail; they decay rapidly, which is checked
    before returning.
    """
    n_terms, bound = 0, 1.0
    while bound >= COEFF_CUT and n_terms < N_TERMS:
        n_terms += 1
        bound *= q / ((2 * n_terms - 1) ** 2 - A_PARAM)

    def ladder(sign: int) -> list[complex]:
        # A_{sign n} for n = 1..n_terms: the ratios A_{sign n}/A_{sign (n-1)}
        # downward from the tail seed, then their running products
        ratio = -q / ((tau + sign * 2.0 * (n_terms + 1)) ** 2 - A_PARAM)
        ratios = []
        for n in range(n_terms, 0, -1):
            z = tau + sign * 2.0 * n
            den = (z * z - A_PARAM) + q * ratio
            if den == 0.0:
                raise ConvergenceError("continued fraction hit a vanishing denominator")
            ratio = -q / den
            ratios.append(ratio)
        return list(itertools.accumulate(reversed(ratios), operator.mul))

    coeff = np.array(ladder(-1)[::-1] + [1.0] + ladder(+1), dtype=complex)
    if max(abs(coeff[0]), abs(coeff[-1])) > 1e-13:
        raise ConvergenceError("coefficient tails have not decayed; raise N_TERMS")
    return coeff


def _waves(tau: complex, q: float, coeff: np.ndarray, signs) -> list[complex]:
    """Psi_t^(sign)(0) for each of ``signs``, summed over the coefficient table.

    Psi_t^(+-)(0) = sum_m (-1)**m A_m J_(+-(m+tau))(x) J_(+-m)(x), x = sqrt(q),
    over every m of the table. With j = sign m the term is
    A_(sign j) J_(-j)(x) J_(sign tau + j)(x), so each sign is one
    ``bessel_j_sum`` over the ladder sign tau + j, j = -N..N, with weights
    A_(sign j) J_(-j); the decaying factors come from one ``bessel_j`` call
    on the integer orders 0..N, with J_(-m) = (-1)**m J_m.

    The table's cut on |A_m| is a cut on these terms: a factor of negative
    order, about Gamma(|m| -+ tau) (2/x)**(|m| -+ tau), meets one of about
    (x/2)**|m|/|m|!, so a term exceeds |A_m| by a factor that grows no
    faster than a power of |m|.
    """
    n_terms = (len(coeff) - 1) // 2
    x = math.sqrt(q)
    j_int = bessel_j(np.arange(n_terms + 1.0), x).tolist()
    j_neg = j_int[:0:-1] + [-v if k % 2 else v for k, v in enumerate(j_int)]   # j = -N..N
    if tau.imag == 0.0:   # so is the table, and the ladders run on floats
        tau, coeff = tau.real, coeff.real
    coeff = coeff.tolist()
    return [bessel_j_sum(sign * tau, x, list(map(operator.mul, coeff[::sign], j_neg)))
            for sign in signs]


def parity_sigma(tau: complex, q: float, coeff: np.ndarray) -> complex:
    """Parity constant sigma = ln(Psi_t^-(0)/Psi_t^+(0)).

    exp(-+sigma) relates the two solutions at mirrored coordinates; the
    principal branch is returned, which the amplitude formulas tolerate
    since they are 2 pi i periodic in sigma. Both waves come from one
    series evaluation.
    """
    plus, minus = _waves(tau, q, coeff, [+1, -1])
    if abs(plus) < 1e-250:
        raise ZeroDivisionError("Psi_t^+(0) vanishes; sigma undefined at this q")
    return cmath.log(minus / plus)


@dataclass(frozen=True, eq=False)
class MathieuSolution:
    """Assembled exact solution of the inverse-quartic model at one kappa*ell.

    Solutions compare and hash by identity: the coefficient table is an
    array, which has no single truth value to compare fields by.
    """

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
        c = self.coeff
        n_terms = (len(c) - 1) // 2
        n = np.arange(-(n_terms - 1), n_terms)
        lhs = ((self.tau + 2.0 * n) ** 2 - A_PARAM) * c[1:-1] + self.q * (c[2:] + c[:-2])
        return float(np.max(np.abs(lhs)) / np.max(np.abs(c)))


def solve_v4(kappa_ell: float) -> MathieuSolution:
    """Exact amplitudes for the inverse-quartic model at dimensionless kappa*ell.

    The closed form covers kappa*ell up to about 299. Above that the
    characteristic exponent does not settle within the Hill determinant's
    truncations, and ``characteristic_exponent`` raises ``ConvergenceError``
    (on a grid of step 0.01 at 299.42, 299.49 and most points from 299.53
    on). It raises too at some kappa*ell within about 7e-8 of 0.6947186,
    where tau = (2/pi) asin(sqrt(w)) meets the branch point w = 1 and tau
    and r are 0/0-conditioned; r is within 1e-9 of the direct route from
    1e-6 away, and within 1e-11 from 1e-4 away. tau meets an integer at
    four more kappa*ell below 41: about 7.224158434 (tau = 1), 7.302939141
    (0), 21.02175766 (0) and 21.02678611 (1). Within about 2e-7 of the
    first, third and fourth some points raise. Near 7.302939141 none does,
    and r is wrong unseen: at 7.30293914102 R reads 0.999999999696 where
    the numeric routes give 1.39721186482e-4.
    """
    if not 0.0 < kappa_ell < math.inf:   # also false for nan
        raise ValueError("kappa_ell must be finite and positive")
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
    if not ((0.0 < grid) & (grid < math.inf)).all():   # also false for nan
        raise ValueError("grid must be finite and positive")
    out = np.zeros(grid.size, dtype=[("kappa_ell", float), ("R", float)])
    for i, kl in enumerate(grid):
        sol = solve_v4(float(kl))
        out[i] = (kl, sol.R)
    return out
