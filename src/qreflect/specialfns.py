"""Bessel J of complex order, the one special function scipy lacks.

``bessel_j`` takes one order or a whole array of them, and evaluates each
complex order on its own: by its ascending series, summed term by term, or
by Miller's downward recurrence.

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

import numpy as np
from scipy.special import gammaln, jv, loggamma, rgamma

__all__ = ["ConvergenceError", "bessel_j"]


class ConvergenceError(RuntimeError):
    """A series or iteration failed to converge within its term budget."""


# Termination policy of the series below: a hard cap on the number of terms,
# and the absolute (against the leading term) and relative tolerances.
MAX_TERMS = 400
ABS_TOL = 1e-16
REL_TOL = 1e-15


# bessel_j sums the ascending series up to this argument and this |Re nu|,
# short of where Gamma(nu + 1) or its reciprocal overflows (|Re nu| ~ 170),
# and runs Miller's recurrence elsewhere
_SERIES_CROSSOVER = 12.0
_SERIES_MAX_ORDER = 140.0


def _jv_series(nu: np.ndarray, x: float) -> np.ndarray:
    # the ascending series of each of the complex orders nu, summed term by
    # term in Python complex numbers: each order keeps the partial sum at
    # which its own terms met the tolerance
    half = 0.5 * x  # caller guarantees x > 0
    with np.errstate(over="ignore", invalid="ignore"):   # an overflow raises below
        lead = np.exp(nu * math.log(half)) * rgamma(nu + 1.0)
    out = []
    step = -(half * half)
    for order, term in zip(nu.tolist(), lead.tolist()):
        if not cmath.isfinite(term):
            raise ArithmeticError(f"bessel_j overflows at nu={order}, x={x}")
        acc = term
        floor = ABS_TOL * abs(term)  # ABS_TOL is measured against the leading term
        for k in range(1, MAX_TERMS + 1):
            term *= (step / k) / (order + k)
            acc += term
            # a leading term that underflowed to 0 stops at once; NaN never does
            if abs(term) <= floor + REL_TOL * abs(acc):
                break
        else:
            raise ConvergenceError(f"bessel_j series did not converge for nu={order}, x={x}")
        out.append(acc)
    return np.array(out)


def _jv_miller(nu: complex, x: float) -> complex:
    # Miller's algorithm (DLMF 10.74(iii)): one downward recurrence from an
    # arbitrary tiny seed, normalized through
    # (x/2)^b = sum_j (b+2j) Gamma(b+j)/j! J_{b+2j}(x), both sides divided by
    # Gamma(b+1) in log space, where neither overflows. J is the dominant
    # solution going downward, so the seed error dies out. The base order
    # b = nu + 2 shift of the sum needs Re >= 0.5: Gamma coefficients of a
    # negative base alternate in sign and the sum cancels badly.
    shift = max(0, int(math.ceil(0.5 * (0.5 - nu.real))))
    b = nu + 2 * shift
    k_top = int(math.ceil(x + 14.0 * math.sqrt(x) + 20.0 + max(0.0, abs(nu) - nu.real)))
    k_top += (k_top % 2) + 2 * shift
    j = np.arange((k_top - 2 * shift) // 2 + 1)
    log_gamma = complex(loggamma(b + 1.0))
    with np.errstate(over="raise"):   # a raise, not an inf, should one still overflow
        weights = ((b + 2 * j) * np.exp(loggamma(b + j) - log_gamma - gammaln(j + 1.0))).tolist()
    weights[0] = 1.0
    f_hi: complex = 0.0
    f_lo: complex = 1e-155
    norm: complex = 0.0
    for k in range(k_top, 0, -1):
        # f_k is proportional to J_(nu+k); the step leaves f_hi = f_k, f_lo = f_(k-1)
        f_hi, f_lo = f_lo, (2.0 * (nu + k) / x) * f_lo - f_hi
        if k >= 2 * shift and (k - 2 * shift) % 2 == 0:
            norm += weights[(k - 2 * shift) // 2] * f_hi
        if abs(f_lo) > 1e250:
            f_hi *= 1e-250
            f_lo *= 1e-250
            norm *= 1e-250
    if shift == 0:
        norm += weights[0] * f_lo
    # far below order 0 the rescaled sum can underflow to 0 where J overflows
    value = f_lo * (cmath.exp(b * math.log(0.5 * x) - log_gamma) / norm) if norm else cmath.inf
    if not cmath.isfinite(value):
        raise ArithmeticError(f"bessel_j overflows at nu={nu}, x={x}")
    return value


def bessel_j(nu, x: float):
    """Bessel function of the first kind J_nu(x) for x >= 0.

    The argument is real and non-negative; ``nu`` is one order or an array
    of orders, and the result has the same shape. Orders with zero imaginary
    part go to ``scipy.special.jv``, all of them in one call: a float order
    gives a float, a complex-typed one a complex. Every other order is
    evaluated on its own, by one of two rules: the ascending series, summed
    term by term, for x <= 12 and |Re nu| <= 140, where Gamma(nu + 1) stays
    finite; elsewhere a downward Miller recurrence from above that order,
    normalized in log space. So an order gives the same number alone as in
    an array, bit for bit, at every x, and a J below the float range gives
    0. Four complex orders near 30, as a Mathieu solve asks for, cost
    about 23 us at x = 1.8 and 0.2 to 0.3 ms at x = 12.1 to 45, one
    recurrence each, on a 2-core x86-64 VM. Series and recurrence are
    validated to ~1e-10 relative accuracy for |nu| <= 10, x <= 100 (away
    from zeros of J): against scipy at real orders and by the three-term
    recurrence at complex ones; and to 1e-12 against mpmath at orders
    beyond |Re nu| = 140.

    Raises
    ------
    ValueError
        If x < 0, or x = 0 with a complex order of non-positive real part.
    ConvergenceError
        If the series exhausts its budget of ``MAX_TERMS`` terms.
    ArithmeticError
        If J of a complex order overflows the float range; the message
        names the order and the argument.
    """
    if x < 0.0:
        raise ValueError("bessel_j requires x >= 0")
    orders = np.asarray(nu)
    if not np.iscomplexobj(orders):
        out = jv(orders, x)
        return out if orders.ndim else float(out)
    orders = orders.astype(complex)
    out = np.empty(orders.shape, dtype=complex)
    real = orders.imag == 0.0
    out[real] = jv(orders.real[real], x)
    if x == 0.0:
        if np.any(orders.real[~real] <= 0.0):
            raise ValueError("bessel_j diverges at x = 0 for Re nu <= 0")
        out[~real] = 0.0
    else:
        miller = ~real if x > _SERIES_CROSSOVER else ~real & (np.abs(orders.real) > _SERIES_MAX_ORDER)
        series = ~(real | miller)
        out[series] = _jv_series(orders[series], x)
        out[miller] = [_jv_miller(nu, x) for nu in orders[miller].tolist()]
    return out if orders.ndim else complex(out)
