"""Shared log-space combinatorics helpers and error types.

Every probability in the package is handled as a natural logarithm; no
routine ever materializes a probability as a raw floating-point product.

Log-gamma has one definition, `gammaln`, a numpy port of the cephes routine
`lgam` (the one behind `scipy.special.gammaln`) for x > 0, with cephes'
coefficients and order of operations.  Every integer log-factorial, binomial
and composition count, and `gammaln` at a whole number, reads log n! from
one process-wide table (`log_factorial_table`), so the same n gives the same
float wherever it is computed, from a scalar or from an array.  The table's
entries up to log 11! are the C library's log of the exact factorial, as
cephes gives them; the rest, and `gammaln` away from whole numbers, take
numpy's vectorized `np.log`, which can round one unit in the last place away
from the C library's `log`.  That is all that separates the port from scipy:
within two units in the last place of max(1, |log Gamma(x)|) everywhere, and
bit for bit on log n! up to n = 9168 on the machines measured.
"""
from __future__ import annotations

import math

import numpy as np

# cephes lgam: the coefficients of Stirling's series (A, and A_SHORT from
# x = 1000 up), and of the rational log Gamma(2 + t) = t B(t) / C(t) on
# 0 <= t < 1, C's leading 1 left implicit
_LGAM_A = (8.11614167470508450300E-4, -5.95061904284301438324E-4,
           7.93650340457716943945E-4, -2.77777777730099687205E-3,
           8.33333333333331927722E-2)
_LGAM_A_SHORT = (7.9365079365079365079365e-4, -2.7777777777777777777778e-3,
                 0.0833333333333333333333)
_LGAM_B = (-1.37825152569120859100E3, -3.88016315134637840924E4,
           -3.31612992738871184744E5, -1.16237097492762307383E6,
           -1.72173700820839662146E6, -8.53555664245765465627E5)
_LGAM_C = (-3.51815701436523470549E2, -1.70642106651881159223E4,
           -2.20528590553854454839E5, -1.13933444367982507207E6,
           -2.53252307177582951285E6, -2.01889141433532773231E6)
_LOG_SQRT_2PI = 0.91893853320467274178
# `log_factorial` and `gammaln` grow the table up to this n; larger n take Stirling's series
_TABLE_READ_LIMIT = 1 << 23


class IntegrityError(Exception):
    """A state object violates one of its internal consistency invariants."""


def run_bounds(sorted_key: np.ndarray) -> np.ndarray:
    """Start of every run of equal values in `sorted_key`, then its length."""
    change = np.empty(len(sorted_key) + 1, dtype=bool)
    change[0] = change[-1] = True
    np.not_equal(sorted_key[1:], sorted_key[:-1], out=change[1:-1])
    return np.flatnonzero(change)


def require_keys(payload, keys, what: str) -> None:
    """Refuse a parsed JSON file that is not an object holding every key."""
    if not isinstance(payload, dict):
        raise ValueError(f"{what} must hold a JSON object")
    for key in keys:
        if key not in payload:
            raise ValueError(f"{what} lacks the key {key!r}")


def whole_numbers(values, what: str, ndim=None) -> np.ndarray:
    """Parsed JSON numbers as an int64 array with `ndim` dimensions (any when
    None); anything else raises a ValueError that names `what`."""
    arr = np.asarray(values)
    if ((ndim is not None and arr.ndim != ndim) or arr.dtype.kind not in "iuf"
            or not np.all(np.isfinite(arr) & (arr == np.trunc(arr)))):
        raise ValueError(f"{what} must be {'one whole number' if ndim == 0 else 'whole numbers'}")
    return arr.astype(np.int64)


def polevl(x, coef, monic=False):
    """cephes' Horner rule: coef[0] x^n + ... + coef[n], or with `monic`
    x^n + coef[0] x^(n-1) + ... (p1evl), in cephes' order of operations.
    `x` is a float or an array."""
    ans = x + coef[0] if monic else x * coef[0] + coef[1]
    for c in coef[1 if monic else 2:]:
        ans *= x  # in place on an array: `ans` is a new one
        ans += c
    return ans


def _lgam_large(x: np.ndarray) -> np.ndarray:
    """cephes lgam for x >= 13: Stirling's series, a shorter one from 1000
    up and none above 1e8, updated in place where that keeps cephes' order."""
    q = x - 0.5
    q *= np.log(x)
    q -= x
    q += _LOG_SQRT_2PI
    p = x * x
    np.divide(1.0, p, out=p)
    series = np.where(x >= 1000.0, polevl(p, _LGAM_A_SHORT), polevl(p, _LGAM_A))
    series /= x
    series += q
    return np.where(x > 1.0e8, q, series)


def _lgam_small(x: np.ndarray) -> np.ndarray:
    """cephes lgam for 0 < x < 13.  Unit steps take x to u in [2, 3), and
    log Gamma(x) = log z + log Gamma(u), where z is the product of the steps'
    arguments, (x - 1)(x - 2)... down from x >= 3, and 1 / x or
    1 / (x (x + 1)) up from x < 2, and log Gamma(u) is the rational B/C at
    t = u - 2 (0 at u = 2).  The values are sorted by floor(x), the step
    count, so that each count multiplies one contiguous slice, factor by
    factor in cephes' order."""
    floor = np.floor(x)
    order = np.argsort(floor.astype(np.int8), kind="stable")
    xs, t = x[order], floor[order]
    ends = np.searchsorted(t, np.arange(1.0, 14.0))  # ends[f] = first x >= f + 1
    np.subtract(xs, t, out=t)
    z = np.ones(len(xs))
    for f in range(3, 13):
        seg, prod = xs[ends[f - 1]:ends[f]], z[ends[f - 1]:ends[f]]
        if len(seg):
            np.subtract(seg, 1.0, out=prod)
            for k in range(2, f - 1):
                prod *= seg - k
    below = xs[:ends[1]]  # 0 < x < 2: one division, or two from below 1
    if len(below):
        u = below + 1.0
        again = u < 2.0
        with np.errstate(over="ignore"):  # 1 / subnormal: inf, as in cephes
            zb = 1.0 / below
        z[:ends[1]] = np.where(again, zb / u, zb)
        u = np.where(again, below + 2.0, u)
        t[:ends[1]][u == 2.0] = 0.0  # a step that rounds onto 2 ends there
    p = polevl(t, _LGAM_B)
    p *= t
    p /= polevl(t, _LGAM_C, monic=True)
    p += np.log(z, out=z)
    out = np.empty(len(x))
    out[order] = p
    return out


def _lgam(x: np.ndarray) -> np.ndarray:
    """cephes lgam for a 1-d array of x > 0."""
    if np.any(x <= 0):
        raise ValueError("gammaln takes x > 0 away from the whole numbers")
    small = x < 13.0
    if small.all():
        return _lgam_small(x)
    out = np.empty(len(x))
    out[small] = _lgam_small(x[small])
    out[~small] = _lgam_large(x[~small])
    return out


def gammaln(x):
    """log Gamma(x) for finite x > 0, elementwise (cephes `lgam`).  Whole
    numbers read `log_factorial_table`, and give inf at 0 and below (the
    poles); any other x <= 0 is refused."""
    x = np.asarray(x, dtype=float)
    with np.errstate(invalid="ignore"):  # nan and huge x do not cast; they are not whole
        n = x.astype(np.int64)
    whole = n == x
    whole &= x <= _TABLE_READ_LIMIT
    if whole.all():
        return log_factorial(n - 1)
    if not whole.any():
        return _lgam(x.ravel()).reshape(x.shape)[()]
    out = np.empty(x.shape)
    out[whole] = log_factorial(n[whole] - 1)
    out[~whole] = _lgam(x[~whole])
    return out


def log_factorial(n):
    """log n! for an integer n, or elementwise for an array: a read of
    `log_factorial_table`, and inf for n < 0 (the poles of Gamma(n + 1))."""
    if (type(n) is int or isinstance(n, np.integer)) and 0 <= n < len(_LOG_FACTORIAL_TABLE):
        return _LOG_FACTORIAL_TABLE[n]
    n = np.asarray(n)
    if n.dtype.kind not in "iu":
        return gammaln(n + 1.0)
    if n.size == 0:
        return np.zeros(n.shape)
    hi = int(n.max())
    if hi > _TABLE_READ_LIMIT:
        big = n > _TABLE_READ_LIMIT
        out = np.empty(n.shape)
        out[big] = _lgam_large(n[big] + 1.0)
        out[~big] = log_factorial(n[~big])
        return out[()]
    table = log_factorial_table(hi)
    if n.min() >= 0:
        return table[n]
    return np.where(n < 0, np.inf, table[np.maximum(n, 0)])[()]


# log n! for n <= 11, where n! is exact in a double and cephes returns log(n!)
_LOG_FACTORIAL_TABLE = np.array([math.log(math.factorial(n)) for n in range(12)])
_LOG_FACTORIAL_TABLE.flags.writeable = False


def log_factorial_table(n_max: int) -> np.ndarray:
    """Read-only table of log n! for 0 <= n <= n_max (at least), shared by
    the whole process and grown by doubling when a caller needs more; each
    growth computes only the new entries, by Stirling's series (n + 1 >= 13)."""
    global _LOG_FACTORIAL_TABLE
    size = len(_LOG_FACTORIAL_TABLE)
    if n_max >= size:
        table = np.empty(max(n_max + 1, 2 * size))
        table[:size] = _LOG_FACTORIAL_TABLE
        table[size:] = _lgam_large(np.arange(size + 1, len(table) + 1, dtype=float))
        table.flags.writeable = False
        _LOG_FACTORIAL_TABLE = table
    return _LOG_FACTORIAL_TABLE


def log_double_factorial_even(n):
    """log n!! for even n, using (2m)!! = 2^m m!."""
    n = np.asarray(n)
    if np.any(n % 2 != 0):
        raise IntegrityError("double factorial requires even arguments here")
    m = n // 2
    return m * math.log(2.0) + log_factorial(m)

def log_binom(n, k):
    """log of the binomial coefficient C(n, k), elementwise."""
    return log_factorial(n) - log_factorial(k) - log_factorial(np.subtract(n, k))


def log_num_compositions(total, parts):
    """log of the number of ways to write `total` as an ordered sum of
    `parts` nonnegative integers, log C(total + parts - 1, parts - 1),
    elementwise; `parts` == 0 is legal only with `total` == 0 (the empty
    composition)."""
    total, parts = np.asarray(total), np.asarray(parts)
    empty = parts == 0
    if np.any(empty & (total != 0)):
        raise IntegrityError("cannot compose a positive total into 0 parts")
    parts = np.where(empty, 1, parts)  # one composition either way: 0 into one part
    return log_factorial(total + parts - 1) - log_factorial(total) - log_factorial(parts - 1)


def log_num_compositions_large(log_parts, total):
    """Same as log_num_compositions but with the bin count given only by its
    log (for counts like C(B, q) that overflow any integer or float).

    log C(X + n - 1, n) = sum_{t=0}^{n-1} log(X + t) - log n!  with X = e^{log_parts}.
    """
    n = int(total)
    if n == 0:
        return 0.0
    if log_parts > 700.0:  # X + t == X at double precision
        return n * log_parts - float(log_factorial(n))
    x = math.exp(log_parts)
    t = np.arange(n, dtype=float)
    return float(np.log(x + t).sum() - log_factorial(n))

