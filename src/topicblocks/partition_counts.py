"""Restricted integer partition counts.

`count_partitions(m, n)` is the number of ways to write the integer m as a
sum of exactly n positive integers, ignoring order.  It obeys the recurrence

    p(m, n) = p(m - n, n) + p(m - 1, n - 1)

with p(0, 0) = 1 and p(m, n) = 0 whenever m <= 0 or n <= 0 otherwise.  The
quantity enters the degree priors of the microcanonical block model, where a
uniform distribution over degree histograms contributes a -log p(m, n) term.

Exact values are kept in two forms: arbitrary-precision integers (for small
arguments and for verification) and a float table of natural logs built with
the equivalent "at most n parts" recurrence

    q(m, n) = q(m, n - 1) + q(m - n, n),        p(m, n) = q(m - n, n),

which vectorizes as a strided running log-sum-exp.  Above a size threshold
the log is produced by the Szekeres asymptotic for q(m, n).  Against the
exact table for m from 9000 to 12000 and n from 2 to 2000 it is off by at
most 0.03 nats, worst (0.029) at n = 10 just above m = 10000, where the
few-parts branch hands over to the Szekeres branch; the test suite asserts
that bound on a grid around the threshold.
"""
from __future__ import annotations

import functools
import math

import numpy as np
from scipy.special import spence

from .util import log_binom, log_factorial

# q-arguments above this use the asymptotic instead of the exact log table
EXACT_LIMIT = 10_000

_int_rows: list[list[int]] = [[1]]  # _int_rows[m][n] = p(m, n) for n <= m


def count_partitions(m: int, n: int) -> int:
    """Number of partitions of m into exactly n positive parts (exact integer).

    Out-of-range arguments return 0, matching the recurrence boundaries.
    """
    if m < 0 or n < 0 or n > m:
        return 0
    if m == 0:
        return 1 if n == 0 else 0
    if n == 0:
        return 0
    _grow_int_table(m)
    return _int_rows[m][n]


def _grow_int_table(m_max: int) -> None:
    # bottom-up fill keeps arbitrary-precision ints and avoids deep recursion
    for m in range(len(_int_rows), m_max + 1):
        row = [0] * (m + 1)
        row[m] = 1  # all parts equal to one
        prev = _int_rows[m - 1]
        for n in range(1, m):
            below = _int_rows[m - n][n] if n <= m - n else 0
            row[n] = below + (prev[n - 1] if n - 1 <= m - 1 else 0)
        _int_rows.append(row)


class _LogQTable:
    """Lazily grown table of log q(m, k), partitions of m into at most k parts.

    Rows are kept as a list of 1-D arrays, `_rows[k][m]` for k <= kmax and
    m <= mmax, about 8 (kmax + 1)(mmax + 1) bytes.  A request beyond the
    table grows each dimension it exceeds to max(request, old + old // 4),
    with minimum extents 16 in k and 256 in m, so an extent never passes
    max(minimum, 1.25 x the largest request), and m stops at EXACT_LIMIT
    unless a direct `log_q_exact` asks for more.  Growth in k appends rows;
    growth in m extends each row over the new columns only, one row at a
    time, so every cell is computed once and the old table is never held
    twice.  Cells are bit-identical to a one-shot build at the same extent.
    """

    def __init__(self):
        self._rows: list[np.ndarray] = []
        self._mmax = -1

    def value(self, m: int, k: int) -> float:
        k = min(k, m)
        if m == 0:
            return 0.0
        if k <= 0:
            return -np.inf
        self._ensure(k, m)
        return float(self._rows[k][m])

    def _ensure(self, k: int, m: int) -> None:
        rows = self._rows
        if m > self._mmax:
            self._mmax = max(m, min(self._mmax + self._mmax // 4, EXACT_LIMIT), 256)
            if rows:  # row 0 is q(m, 0) = [m == 0]; every other row derives from it
                rows[0] = np.concatenate(
                    [rows[0], np.full(self._mmax + 1 - len(rows[0]), -np.inf)])
                for kk in range(1, len(rows)):
                    rows[kk] = _extend_row(rows[kk], rows[kk - 1], kk)
        kmax = len(rows) - 1
        if k > kmax:
            kmax = max(k, kmax + kmax // 4, 16)
            if not rows:
                rows.append(np.full(self._mmax + 1, -np.inf))
                rows[0][0] = 0.0
            for kk in range(len(rows), kmax + 1):
                rows.append(_extend_row(np.empty(0), rows[kk - 1], kk))


def _extend_row(row: np.ndarray, prev: np.ndarray, k: int) -> np.ndarray:
    """Row k of the log q table extended to the length of row k - 1.

    The recurrence q_k[m] = q_k[m - k] (+) q_{k-1}[m] is a running
    log-sum-exp down stride-k blocks, seeded with the last k cells already in
    `row` (-inf where m - k < 0, which leaves q_{k-1}[m] exactly).
    """
    start = len(row)
    fresh = prev[start:]
    seed = row[max(start - k, 0):]
    blocks = np.concatenate([
        np.full(k - len(seed), -np.inf), seed, fresh, np.full((-len(fresh)) % k, -np.inf),
    ]).reshape(-1, k)
    grown = np.logaddexp.accumulate(blocks, axis=0).reshape(-1)[k:k + len(fresh)]
    return np.concatenate([row, grown])


_logq = _LogQTable()


def _szekeres_v(u: float, epsilon: float = 1e-10) -> float:
    v = u
    for _ in range(1000):
        nv = u * math.sqrt(spence(math.exp(-v)))
        if abs(nv - v) < epsilon:
            return nv
        v = nv
    return v


def log_q_approx(m: int, k: int) -> float:
    """Asymptotic log q(m, k): partitions of m into at most k parts."""
    if m == 0:
        return 0.0
    if k <= 0:
        return -np.inf
    k = min(k, m)
    if k < m ** 0.25:
        # few parts: nearly all part multisets are distinct orderings
        return float(log_binom(m - 1, k - 1) - log_factorial(k))
    u = k / math.sqrt(m)
    v = _szekeres_v(u)
    lf = (
        math.log(v)
        - 0.5 * math.log1p(-math.exp(-v) * (1.0 + u * u / 2.0))
        - 1.5 * math.log(2.0)
        - math.log(u)
        - math.log(math.pi)
    )
    g = 2.0 * v / u - u * math.log1p(-math.exp(-v))
    return lf - math.log(m) + math.sqrt(m) * g


def log_q_exact(m: int, k: int) -> float:
    """log q(m, k) from the exact recurrence table.

    Any size, but the shared table grows to cover (m, k): about 8 k m bytes,
    kept for the life of the process (80 MB at m = 10000, k = 1000).
    """
    if m < 0 or k < 0:
        return -np.inf
    return _logq.value(m, k)


@functools.lru_cache(maxsize=1 << 20)
def _log_partitions_cached(m: int, n: int) -> float:
    if m < 0 or n < 0 or n > m:
        return -np.inf
    if m == 0:
        return 0.0 if n == 0 else -np.inf
    if n == 0:
        return -np.inf
    mm = m - n
    if mm == 0:
        return 0.0
    if mm <= EXACT_LIMIT:
        return log_q_exact(mm, n)
    return log_q_approx(mm, min(n, mm))


def log_partitions(m: int, n: int) -> float:
    """log p(m, n) for partitions of m into exactly n positive parts.

    Uses the exact table while the reduced argument m - n stays at or below
    EXACT_LIMIT, and the Szekeres asymptotic beyond it, which stays within
    0.03 nats of the exact value near that limit.  Returns -inf where
    p(m, n) = 0.  Values are memoized.

    One scalar per call, for the agglomerator's group tables and the dict
    reference scorers; the exact oracle scores all its (mixture, group) pairs
    at once with `log_partitions_array`, which returns the same values bit
    for bit.
    """
    return _log_partitions_cached(int(m), int(n))


def log_partitions_array(m: np.ndarray, n: np.ndarray) -> np.ndarray:
    """`log_partitions` over equal-length 1-D integer arrays, bit for bit.

    The edge cases follow the scalar rules (-inf where p(m, n) = 0, 0.0 where
    m = n).  Exact entries grow the shared table once, to the largest (k, m)
    they need, and are gathered row by row, one row per distinct k; only the
    entries whose m - n exceeds EXACT_LIMIT call `log_q_approx`.  Nothing is
    memoized.
    """
    mm = m - n
    out = np.where((mm == 0) & (n >= 0), 0.0, -np.inf)
    needs_q = (n > 0) & (mm > 0)
    exact = np.flatnonzero(needs_q & (mm <= EXACT_LIMIT))
    if len(exact):
        k = np.minimum(n[exact], mm[exact])
        order = np.argsort(k, kind="stable")
        exact, k = exact[order], k[order]
        _logq._ensure(int(k[-1]), int(mm[exact].max()))
        bounds = [0] + (np.flatnonzero(k[1:] != k[:-1]) + 1).tolist() + [len(k)]
        for lo, hi in zip(bounds, bounds[1:]):
            out[exact[lo:hi]] = _logq._rows[int(k[lo])][mm[exact[lo:hi]]]
    for idx in np.flatnonzero(needs_q & (mm > EXACT_LIMIT)).tolist():
        out[idx] = log_q_approx(int(mm[idx]), int(min(n[idx], mm[idx])))
    return out
