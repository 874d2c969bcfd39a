"""Bessel J of complex order, the one special function scipy lacks.

``bessel_j_sum`` runs Miller's algorithm for a weighted sum of J over a
ladder of orders nu + j; ``bessel_j`` evaluates each complex order on its
own, as that sum with the one weight 1.

Real orders, and log Gamma of complex argument, come from scipy.special;
the Gauss 2F1 of the phase formula is scipy.special.hyp2f1, imported by wkb.

The routines are pure and reentrant; a J beyond the float range is a
raised exception rather than an inf.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator

import numpy as np
from scipy.special import jv, loggamma

__all__ = ["ConvergenceError", "bessel_j", "bessel_j_sum"]


class ConvergenceError(RuntimeError):
    """A series or iteration failed to converge within its term budget."""


def bessel_j_sum(nu, x: float, weights) -> complex:
    """sum_j weights[n + j] J_(nu+j)(x), j = -n..n, for finite nu, x > 0 and 2n + 1 weights.

    Miller's algorithm (DLMF 10.74(iii); Gautschi, SIAM Rev. 9, 24 (1967)):
    one downward recurrence J_(mu-1) = (2 mu/x) J_mu - J_(mu+1) from a tiny
    seed above the ladder, normalized once, in log space, by Neumann's sum
    (x/2)^b/Gamma(b+1) = sum_i (b+2i) Gamma(b+i)/(i! Gamma(b+1)) J_(b+2i)(x)
    at the lowest order b = nu + k, k >= -n, of real part >= 1/2: the
    weights of a base of negative real part alternate in sign and cancel.
    J is the dominant solution going downward, so the seed's error dies out.
    The recurrence starts at the first order b + 2i at or above the ladder's
    top where the Neumann terms it leaves out, each J taken as its leading
    term (x/2)^mu/Gamma(mu+1), fall below 1e-17 of the sum, the error of
    the normalization, and below 3e-9 of the term at the ladder's top, whose
    error is about the square of that ratio. A real ``nu`` runs the
    recurrence on floats. Time and memory grow with the orders it runs
    through, from that start down to nu - n.

    Raises ``ArithmeticError``, naming nu and x, where the sum overflows.
    """
    n = (len(weights) - 1) // 2
    low = max(-n, math.ceil(0.5 - nu.real))
    b = nu + low
    quarter = 0.25 * x * x
    # Neumann's weights, and the leading-term estimate of term i relative to
    # the sum, for i = 1, 2, ... until the recurrence can start at low + 2i - 2
    neumann = [1.0]
    term = 1.0
    floor = 1e-17
    at_top = (n - low + 1) // 2
    for i in itertools.count(1):
        step = (b + (i - 1)) / (b + (2 * i - 2))
        term *= step * quarter / ((b + (2 * i - 1)) * i)
        if i == at_top:
            floor = min(floor, 3e-9 * abs(term))
        if i > at_top and not abs(term) > floor:   # also ends where both underflow to 0
            break
        neumann.append(neumann[-1] * step * (b + 2 * i) / i)
    top = low + 2 * i - 2
    # fs lists f_k, proportional to J_(nu+k), from k = top + 1 down to -n. The
    # seed leaves f 500 decades to grow and its products out of the subnormals;
    # (nu + k)/(x/2) rounds once, where a product with 2/x would shift x
    half = 0.5 * x
    f_hi, f_lo = 0.0, 1e-200
    fs = [f_hi, f_lo]
    append = fs.append
    for k in range(top, -n, -1):
        f_hi, f_lo = f_lo, (nu + k) / half * f_lo - f_hi
        append(f_lo)
    total = sum(map(operator.mul, reversed(weights), fs[top + 1 - n:]))
    norm = sum(map(operator.mul, neumann, fs[top + 1 - low::-2]))
    value = total * (cmath.exp(b * math.log(half) - loggamma(b + 1.0)) / norm)
    if not cmath.isfinite(value):
        raise ArithmeticError(f"bessel_j overflows at nu={nu}, x={x}")
    return value


def bessel_j(nu, x: float):
    """Bessel function of the first kind J_nu(x) for finite x >= 0.

    ``nu`` is one order or an array of orders, and the result has the same
    shape. Orders with zero imaginary part go to ``scipy.special.jv``, all
    of them in one call: a float order gives a float, a complex-typed one a
    complex. Every other order is ``bessel_j_sum`` with the one weight 1, so
    it gives the same number alone as in an array, bit for bit, and a J
    below the float range gives 0. One complex order near 30 costs about
    20 us at x = 1.8 and 55 us at x = 45 on a 2-core x86-64 VM. The tests
    validate complex orders against scipy at zero imaginary part (1e-9
    of max(|J|, 1e-2 sqrt(2/(pi x))) for |nu| <= 14, x <= 100), by the
    three-term recurrence (1e-9, |nu| <= 10, x <= 100), against frozen
    40-digit mpmath values beyond |Re nu| = 140 (1e-12) and on ladders of
    Im nu up to 25 (4e-14 up to x = 31.6, 4e-13 at x = 45), and against a
    Miller recurrence written apart from this one (1e-13, up to x = 74).

    Raises
    ------
    ValueError
        If x is negative, infinite or NaN, if an order of a complex-typed
        ``nu`` is not finite, or if x = 0 with a complex order of
        non-positive real part.
    ArithmeticError
        If J of a complex order overflows the float range; the message
        names the order and the argument.
    """
    if not 0.0 <= x < math.inf:   # also false for nan
        raise ValueError(f"bessel_j requires a finite x >= 0, got x={x}")
    orders = np.asarray(nu)
    if not np.iscomplexobj(orders):
        out = jv(orders, x)
        return out if orders.ndim else float(out)
    orders = orders.astype(complex)
    if not np.isfinite(orders).all():
        raise ValueError(f"bessel_j requires finite orders, got nu={nu}")
    out = np.empty(orders.shape, dtype=complex)
    real = orders.imag == 0.0
    out[real] = jv(orders.real[real], x)
    if x == 0.0:
        if np.any(orders.real[~real] <= 0.0):
            raise ValueError("bessel_j diverges at x = 0 for Re nu <= 0")
        out[~real] = 0.0
    else:
        out[~real] = [bessel_j_sum(order, x, [1.0]) for order in orders[~real].tolist()]
    return out if orders.ndim else complex(out)
