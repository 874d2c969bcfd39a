"""Bessel J of complex order, the one special function scipy lacks.

``bessel_j`` takes one order or a whole array of them. It sums the series
of each complex order term by term, and runs Miller's recurrence once per
ladder of orders that differ by integers.

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


# bessel_j takes the ascending series up to this argument, Miller's
# recurrence above it
_SERIES_CROSSOVER = 12.0
# above the crossover, orders whose real parts differ by an integer to within
# this share one recurrence: it absorbs the rounding of m + tau, |m| <~ 1e3
_LADDER_TOL = 1e-12


def _jv_series(nu, x: float) -> np.ndarray:
    # the ascending series, summed term by term for each order in Python
    # complex numbers: each order keeps the partial sum at which its own
    # terms met the tolerance
    nu = np.atleast_1d(np.asarray(nu, dtype=complex))
    half = 0.5 * x  # caller guarantees x > 0
    log_half = math.log(half)
    # Gamma(nu+1) would overflow above Re nu = 140: those leading terms are
    # assembled in log space; a call with none (every Mathieu ladder stays
    # within |Re nu| ~ 31) takes the direct chain alone
    big = nu.real > 140.0
    if big.any():
        lead = np.empty_like(nu)
        lead[big] = np.exp(nu[big] * log_half - loggamma(nu[big] + 1.0))
        lead[~big] = np.exp(nu[~big] * log_half) * rgamma(nu[~big] + 1.0)
    else:
        lead = np.exp(nu * log_half) * rgamma(nu + 1.0)
    out = []
    step = -(half * half)
    for order, term in zip(nu.tolist(), lead.tolist()):
        acc = term
        floor = ABS_TOL * abs(term)  # ABS_TOL is measured against the leading term
        for k in range(1, MAX_TERMS + 1):
            term *= (step / k) / (order + k)
            acc += term
            if abs(term) < floor + REL_TOL * abs(acc):   # NaN never meets it
                break
        else:
            raise ConvergenceError(f"bessel_j series did not converge for nu={order}, x={x}")
        out.append(acc)
    return np.array(out)


def _jv_ladder(base: complex, steps: np.ndarray, x: float) -> np.ndarray:
    # Miller's algorithm (DLMF 10.74(iii)) for the orders base + steps,
    # steps >= 0 integers, in one downward recurrence from an arbitrary tiny
    # seed, normalized once through (x/2)^b = sum_j (b+2j) Gamma(b+j)/j! J_{b+2j}(x),
    # both sides divided by Gamma(b+1) in log space, where neither overflows.
    # J is the dominant solution going downward, so the seed error dies out.
    # The base order b of the sum needs Re >= 0.5: Gamma coefficients of a
    # negative base alternate in sign and the sum cancels badly.
    top = int(steps.max())
    shift = max(0, int(math.ceil(0.5 * (0.5 - base.real))))
    b = base + 2 * shift
    orders = base + steps
    # the recurrence starts at least as far above each order as it would for
    # that order alone
    k_top = int(np.max(steps + np.ceil(x + 14.0 * math.sqrt(x) + 20.0
                                       + np.maximum(0.0, np.abs(orders) - orders.real))))
    k_top += (k_top % 2) + 2 * shift
    j = np.arange((k_top - 2 * shift) // 2 + 1)
    log_gamma = complex(loggamma(b + 1.0))
    with np.errstate(over="raise"):   # a raise, not an inf, should one still overflow
        weights = ((b + 2 * j) * np.exp(loggamma(b + j) - log_gamma - gammaln(j + 1.0))).tolist()
    weights[0] = 1.0
    found = [0j] * (top + 1)
    f_hi: complex = 0.0
    f_lo: complex = 1e-155
    norm: complex = 0.0
    for k in range(k_top, 0, -1):
        # f_k is proportional to J_(base+k); the step leaves f_hi = f_k, f_lo = f_(k-1)
        f_hi, f_lo = f_lo, (2.0 * (base + k) / x) * f_lo - f_hi
        if k <= top:
            found[k] = f_hi
        if k >= 2 * shift and (k - 2 * shift) % 2 == 0:
            norm += weights[(k - 2 * shift) // 2] * f_hi
        if abs(f_lo) > 1e250:
            f_hi *= 1e-250
            f_lo *= 1e-250
            norm *= 1e-250
            found = [f * 1e-250 for f in found]
    found[0] = f_lo
    if shift == 0:
        norm += weights[0] * f_lo
    return np.array(found)[steps] * (cmath.exp(b * math.log(0.5 * x) - log_gamma) / norm)


def _jv_ladders(orders: np.ndarray, x: float) -> np.ndarray:
    # orders whose difference is an integer, to within _LADDER_TOL, share
    # one recurrence from the lowest of them
    out = np.empty(orders.shape, dtype=complex)
    left = np.ones(orders.shape, dtype=bool)
    while left.any():
        base = orders[np.flatnonzero(left)[np.argmin(orders.real[left])]]
        steps = np.rint(orders.real - base.real)
        ladder = left & (orders.imag == base.imag) & (
            np.abs(orders.real - base.real - steps) <= _LADDER_TOL)
        out[ladder] = _jv_ladder(complex(base), steps[ladder].astype(int), x)
        left &= ~ladder
    return out


def bessel_j(nu, x: float):
    """Bessel function of the first kind J_nu(x) for x >= 0.

    The argument is real and non-negative; ``nu`` is one order or an array
    of orders, and the result has the same shape. Orders with zero imaginary
    part go to ``scipy.special.jv``, all of them in one call: a float order
    gives a float, a complex-typed one a complex. Other orders take the
    ascending series for x <= 12, summed term by term for each order: cheap
    for the few orders a Mathieu series asks for, slower for long arrays
    (62 orders: 298 us at x = 1.8, 712 us at x = 12 on a 2-core x86-64 VM,
    against 103 and 201 us when an array's series were summed at once).
    Above, orders whose real parts differ by integers (to 1e-12) and whose
    imaginary parts are equal form a ladder, and each ladder takes one
    downward Miller recurrence from above its highest order, normalized
    once: the 61 orders m + tau, |m| <= 30, of one ladder at x = 17 take
    one recurrence of about 160 steps, not 61 of 96 to 158 steps. Series
    and recurrence are validated to ~1e-10 relative accuracy for |nu| <= 10,
    x <= 100 (away from zeros of J): against scipy at real orders and by the
    three-term recurrence at complex ones. A complex order gives the same
    number alone as in an array, exactly for x <= 12 and to about 1e-13
    relative above, where the recurrence of a ladder starts and is
    normalized at other orders than that of one order alone.

    Raises
    ------
    ValueError
        If x < 0, or x = 0 with a complex order of non-positive real part.
    ConvergenceError
        If the series exhausts its budget of ``MAX_TERMS`` terms.
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
    other = ~real
    rest = orders[other]
    if rest.size:
        if x == 0.0:
            if np.any(rest.real <= 0.0):
                raise ValueError("bessel_j diverges at x = 0 for Re nu <= 0")
            out[other] = 0.0
        elif x <= _SERIES_CROSSOVER:
            out[other] = _jv_series(rest, x)
        else:
            out[other] = _jv_ladders(rest, x)
    return out if orders.ndim else complex(out)
