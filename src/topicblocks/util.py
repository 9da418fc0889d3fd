"""Shared log-space combinatorics helpers and error types.

Every probability in the package is handled as a natural logarithm; no
routine ever materializes a probability as a raw floating-point product.

Every integer log-factorial, binomial and composition count has one
definition, scipy's `gammaln`, reached by one code path for a scalar and an
array alike, so the same n gives the same float wherever it is computed.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln


class IntegrityError(Exception):
    """A state object violates one of its internal consistency invariants."""


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


def log_factorial(n):
    """log n! for a nonnegative integer n, or elementwise for an array."""
    return gammaln(np.asarray(n, dtype=float) + 1.0)


_LOG_FACTORIAL_TABLE = np.zeros(1)
_LOG_FACTORIAL_TABLE.flags.writeable = False


def log_factorial_table(n_max: int) -> np.ndarray:
    """Read-only table of log n! for 0 <= n <= n_max (at least), shared by
    the whole process and grown by doubling when a caller needs more: a memo
    of `log_factorial`, so a lookup equals its scalar and array values."""
    global _LOG_FACTORIAL_TABLE
    size = len(_LOG_FACTORIAL_TABLE)
    if n_max >= size:
        table = log_factorial(np.arange(max(n_max + 1, 2 * size)))
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

