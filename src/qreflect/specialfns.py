"""Bessel J of complex order, the one special function scipy lacks.

Real orders, and Gamma, 1/Gamma and log Gamma of complex argument, come
from scipy.special; the Gauss 2F1 of the phase formula is
scipy.special.hyp2f1, imported by wkb.

The routines are pure and reentrant; series terminate on a combined
absolute/relative tolerance with a hard cap on the number of terms, so
failure is a raised exception rather than a silent truncation.
"""

from __future__ import annotations

import cmath
import math

from scipy.special import gamma, jv, loggamma, rgamma

__all__ = ["ConvergenceError", "bessel_j"]


class ConvergenceError(RuntimeError):
    """A series or iteration failed to converge within its term budget."""


# Termination policy of the series below: a hard cap on the number of terms,
# and the absolute (against the leading term) and relative tolerances.
MAX_TERMS = 400
ABS_TOL = 1e-16
REL_TOL = 1e-15


# bessel_j takes the ascending series up to this argument, Miller's
# recurrence above it
_SERIES_CROSSOVER = 12.0


def _jv_series(nu: complex, x: float) -> complex:
    half = 0.5 * x  # caller guarantees x > 0
    if nu.real > 140.0:
        # Gamma(nu+1) would overflow; assemble the leading term in log space
        term = cmath.exp(nu * math.log(half) - complex(loggamma(nu + 1.0)))
    else:
        term = cmath.exp(nu * math.log(half)) * complex(rgamma(nu + 1.0))
    acc = term
    floor = ABS_TOL * abs(term)  # ABS_TOL is measured against the leading term
    for k in range(MAX_TERMS):
        term *= -(half * half) / ((k + 1.0) * (nu + k + 1.0))
        acc += term
        if abs(term) < floor + REL_TOL * abs(acc):
            return acc
    raise ConvergenceError(f"bessel_j series did not converge for nu={nu}, x={x}")


def _jv_backward(nu: complex, x: float) -> complex:
    # Miller's algorithm: downward recurrence from an arbitrary tiny seed,
    # normalized through (x/2)^b = sum_j (b+2j) Gamma(b+j)/j! J_{b+2j}(x).
    # J is the dominant solution going downward, so the seed error dies out.
    # The base order b needs Re >= 0.5: Gamma coefficients of a negative base
    # alternate in sign and the sum cancels badly.
    shift = max(0, int(math.ceil(0.5 * (0.5 - nu.real))))
    base = nu + 2 * shift
    k_top = int(math.ceil(x + 14.0 * math.sqrt(x) + 20.0 + max(0.0, abs(nu) - nu.real)))
    k_top += (k_top % 2) + 2 * shift
    f_hi: complex = 0.0
    f_lo: complex = 1e-155
    norm: complex = 0.0
    for k in range(k_top, 0, -1):
        f_hi, f_lo = f_lo, (2.0 * (nu + k) / x) * f_lo - f_hi
        if k >= 2 * shift and (k - 2 * shift) % 2 == 0:
            j = (k - 2 * shift) // 2
            if j == 0:
                norm += complex(gamma(base + 1.0)) * f_hi
            else:
                norm += (base + 2 * j) * cmath.exp(complex(loggamma(base + j)) - math.lgamma(j + 1.0)) * f_hi
        if abs(f_lo) > 1e250:
            f_hi *= 1e-250
            f_lo *= 1e-250
            norm *= 1e-250
    if shift == 0:
        norm += complex(gamma(nu + 1.0)) * f_lo
    return f_lo * cmath.exp(base * math.log(0.5 * x)) / norm


def bessel_j(nu, x: float):
    """Bessel function of the first kind J_nu(x) for x >= 0.

    The argument is real and non-negative. An order with zero imaginary
    part goes to ``scipy.special.jv``: a float order gives a float, a
    complex-typed one a complex. Any other order takes the ascending series
    for x <= 12 and Miller's recurrence above. Both are validated to ~1e-10
    relative accuracy for |nu| <= 10, x <= 100 (away from zeros of J):
    against scipy at real orders and by the three-term recurrence at
    complex ones.

    Raises
    ------
    ValueError
        If x < 0, or x = 0 with a complex order of non-positive real part.
    ConvergenceError
        If the series exhausts its budget of ``MAX_TERMS`` terms.
    """
    if x < 0.0:
        raise ValueError("bessel_j requires x >= 0")
    nu_c = complex(nu)
    if nu_c.imag == 0.0:
        out = jv(nu_c.real, x)
        return complex(out) if isinstance(nu, complex) else float(out)
    if x == 0.0:
        if nu_c.real > 0.0:
            return 0.0 + 0.0j
        raise ValueError("bessel_j diverges at x = 0 for Re nu <= 0")
    if x <= _SERIES_CROSSOVER:
        return _jv_series(nu_c, x)
    return _jv_backward(nu_c, x)
