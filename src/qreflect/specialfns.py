"""Bessel J of complex order, the one special function scipy lacks.

``bessel_j`` takes one order or a whole array of them, such as the ladder
of orders m + tau of a Mathieu series, and sums the series for all of an
array's complex orders at once.

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
# terms of the ascending series taken per block
_SERIES_BLOCK = 16


def _jv_series(nu, x: float) -> np.ndarray:
    # the ascending series for an array of orders at once; each order keeps
    # the partial sum at which its own terms met the tolerance
    nu = np.atleast_1d(np.asarray(nu, dtype=complex))
    half = 0.5 * x  # caller guarantees x > 0
    log_half = math.log(half)
    # Gamma(nu+1) would overflow above Re nu = 140: those leading terms are
    # assembled in log space; a call with none (every Mathieu ladder stays
    # within |Re nu| ~ 31) takes the direct chain alone
    big = nu.real > 140.0
    if big.any():
        term = np.empty_like(nu)
        term[big] = np.exp(nu[big] * log_half - loggamma(nu[big] + 1.0))
        term[~big] = np.exp(nu[~big] * log_half) * rgamma(nu[~big] + 1.0)
    else:
        term = np.exp(nu * log_half) * rgamma(nu + 1.0)
    acc = term.copy()
    out = term.copy()
    floor = ABS_TOL * np.abs(term)  # ABS_TOL is measured against the leading term
    todo = np.ones(nu.shape, dtype=bool)
    # the terms come _SERIES_BLOCK at a time, as running products of their
    # ratios, and the partial sums as running sums: the same products and
    # sums, in the same order, as a loop over the terms one by one
    for start in range(1, MAX_TERMS + 1, _SERIES_BLOCK):
        k = np.arange(start, min(start + _SERIES_BLOCK, MAX_TERMS + 1), dtype=float)[:, None]
        terms = np.cumprod(np.vstack([term, (-(half * half) / k) / (nu + k)]), axis=0)[1:]
        accs = np.cumsum(np.vstack([acc, terms]), axis=0)[1:]
        met = np.abs(terms) < floor + REL_TOL * np.abs(accs)  # NaN never meets it
        now = todo & met.any(axis=0)
        cols = np.flatnonzero(now)
        out[cols] = accs[met[:, cols].argmax(axis=0), cols]
        todo &= ~now
        if not np.count_nonzero(todo):
            return out
        term, acc = terms[-1], accs[-1]
    raise ConvergenceError(f"bessel_j series did not converge for nu={nu[todo][0]}, x={x}")


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

    The argument is real and non-negative; ``nu`` is one order or an array
    of orders, and the result has the same shape. Orders with zero
    imaginary part go to ``scipy.special.jv``, all of them in one call: a
    float order gives a float, a complex-typed one a complex. Other orders
    take the ascending series for x <= 12, summed for all of them at once,
    and Miller's recurrence, one order at a time, above. Both are validated
    to ~1e-10 relative accuracy for |nu| <= 10, x <= 100 (away from zeros
    of J): against scipy at real orders and by the three-term recurrence
    at complex ones. A complex order gives the same number, to rounding,
    alone as in an array.

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
            out[other] = [_jv_backward(complex(v), x) for v in rest]
    return out if orders.ndim else complex(out)
