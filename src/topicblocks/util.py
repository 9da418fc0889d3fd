"""Shared log-space combinatorics helpers and error types.

Every probability in the package is handled as a natural logarithm; no
routine ever materializes a probability as a raw floating-point product.
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


def lgamma(x):
    """Vectorized log-gamma that accepts scalars or arrays."""
    return gammaln(x)


def log_factorial(n):
    """log n! for nonnegative integer scalars or arrays."""
    if isinstance(n, (int, float, np.integer, np.floating)):
        return math.lgamma(float(n) + 1.0)
    return gammaln(np.asarray(n, dtype=float) + 1.0)


_LOG_FACTORIAL_TABLE = np.zeros(1)
_LOG_FACTORIAL_TABLE.flags.writeable = False


def log_factorial_table(n_max: int) -> np.ndarray:
    """Read-only table of log n! for 0 <= n <= n_max (at least), shared by
    the whole process and grown by doubling when a caller needs more.

    Entries are `math.lgamma(n + 1.0)`, so a lookup equals the scalar path of
    `log_factorial` bit for bit (scipy's `gammaln` differs from it by 1 ulp
    on about half of all n)."""
    global _LOG_FACTORIAL_TABLE
    size = len(_LOG_FACTORIAL_TABLE)
    if n_max >= size:
        size = max(n_max + 1, 2 * size)
        table = np.array([math.lgamma(i + 1.0) for i in range(size)])
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
    if isinstance(n, (int, float, np.integer, np.floating)) and isinstance(
        k, (int, float, np.integer, np.floating)
    ):
        return (math.lgamma(float(n) + 1.0) - math.lgamma(float(k) + 1.0)
                - math.lgamma(float(n) - float(k) + 1.0))
    n = np.asarray(n, dtype=float)
    k = np.asarray(k, dtype=float)
    return gammaln(n + 1.0) - gammaln(k + 1.0) - gammaln(n - k + 1.0)


def log_num_compositions(total, parts):
    """log of the number of ways to write `total` as an ordered sum of
    `parts` nonnegative integers, i.e. log C(total + parts - 1, parts - 1).

    `parts` == 0 is legal only with `total` == 0 (the empty composition).
    """
    if isinstance(total, (int, np.integer)) and isinstance(parts, (int, np.integer)):
        if parts == 0:
            if total == 0:
                return 0.0
            raise IntegrityError("cannot compose a positive total into 0 parts")
        t, p = float(total), float(parts)
        return (math.lgamma(t + p) - math.lgamma(t + 1.0) - math.lgamma(p))
    total = np.asarray(total, dtype=float)
    parts = np.asarray(parts, dtype=float)
    out = log_binom(total + parts - 1.0, parts - 1.0)
    zero = parts == 0
    if np.any(zero):
        out = np.where(zero & (total == 0), 0.0, out)
        if np.any(zero & (total != 0)):
            raise IntegrityError("cannot compose a positive total into 0 parts")
    return out


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

