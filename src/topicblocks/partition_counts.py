"""Restricted integer partition counts.

`count_partitions(m, n)` is the number of ways to write the integer m as a
sum of exactly n positive integers, ignoring order.  It obeys the recurrence

    p(m, n) = p(m - n, n) + p(m - 1, n - 1)

with p(0, 0) = 1 and p(m, n) = 0 whenever m <= 0 or n <= 0 otherwise.  The
quantity enters the degree priors of the microcanonical block model, where a
uniform distribution over degree histograms contributes a -log p(m, n) term.

Exact values are kept in two forms: arbitrary-precision integers (for small
arguments and for verification) and a float64 table of q built with the
equivalent "at most n parts" recurrence

    q(m, n) = q(m, n - 1) + q(m - n, n),        p(m, n) = q(m - n, n),

which vectorizes as a strided running sum.  Cells below 2**53 are exact;
above, each carries at most m/2 + n roundings of 2**-53, so up to EXACT_LIMIT
(q <= 3.6e106) log q is within 2e-12 nats.  Above a size threshold the log is
produced by the Szekeres asymptotic for q(m, n).  Against the exact table for
m from 9000 to 12000 and n from 2 to 2000 it is off by at most 0.03 nats,
worst (0.029) at n = 10 just above m = 10000, where the few-parts branch
hands over to the Szekeres branch; the test suite asserts that bound on a
grid around the threshold.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .util import log_binom, log_factorial, polevl

# cephes spence (the routine behind `scipy.special.spence`): the dilogarithm
# Li2(1 - x) = -w A(w) / B(w) with w = x - 1 near 1, reached from the rest of
# x >= 0 by the reflection and inversion formulas
_SPENCE_A = (4.65128586073990045278E-5, 7.31589045238094711071E-3,
             1.33847639578309018650E-1, 8.79691311754530315341E-1,
             2.71149851196553469920E0, 4.25697156008121755724E0,
             3.29771340985225106936E0, 1.00000000000000000126E0)
_SPENCE_B = (6.90990488912553276999E-4, 2.54043763932544379113E-2,
             2.82974860602568089943E-1, 1.41172597751831069617E0,
             3.63800533345137075418E0, 5.03278880143316990390E0,
             3.54771340985225096217E0, 9.99999999999999998740E-1)

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


class _QTable:
    """Lazily grown float64 table of q(m, k), partitions of m into at most k parts.

    Rows are kept as a list of 1-D arrays, `_rows[k][m]` for k <= kmax and
    m <= mmax, about 8 (kmax + 1)(mmax + 1) bytes.  A request beyond the
    table grows each dimension it exceeds to max(request, old + old // 4),
    with minimum extents 16 in k and 256 in m, so an extent never passes
    max(minimum, 1.25 x the largest request), and m stops at EXACT_LIMIT
    unless a direct `log_q_exact` asks for more.  Growth in k appends rows;
    growth in m extends each row over the new columns only, one row at a
    time, so every cell is computed once and the old table is never held
    twice.  Cells are bit-identical to a one-shot build at the same extent.
    Cells past the float64 maximum (m of about 79000 and up) hold inf.
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
        q = self._rows[k][m]
        if q == np.inf:
            raise OverflowError(f"q(m={m}, k={k}) exceeds the float64 range")
        return float(np.log(q))

    def _ensure(self, k: int, m: int) -> None:
        rows = self._rows
        if m > self._mmax:
            self._mmax = max(m, min(self._mmax + self._mmax // 4, EXACT_LIMIT), 256)
            if rows:  # row 0 is q(m, 0) = [m == 0]; every other row derives from it
                rows[0] = np.concatenate([rows[0], np.zeros(self._mmax + 1 - len(rows[0]))])
                for kk in range(1, len(rows)):
                    rows[kk] = _extend_row(rows[kk], rows[kk - 1], kk)
        kmax = len(rows) - 1
        if k > kmax:
            kmax = max(k, kmax + kmax // 4, 16)
            if not rows:
                rows.append(np.zeros(self._mmax + 1))
                rows[0][0] = 1.0
            for kk in range(len(rows), kmax + 1):
                rows.append(_extend_row(np.empty(0), rows[kk - 1], kk))


@np.errstate(over="ignore")  # cells past the float64 maximum hold inf
def _extend_row(row: np.ndarray, prev: np.ndarray, k: int) -> np.ndarray:
    """Row k of the q table extended to the length of row k - 1.

    The recurrence q_k[m] = q_k[m - k] + q_{k-1}[m] is a running float64 sum
    down stride-k blocks, exact below 2**53, seeded with the last k cells
    already in `row` (0 where m - k < 0, which leaves q_{k-1}[m] exactly).
    """
    start = len(row)
    fresh = prev[start:]
    seed = row[max(start - k, 0):]
    blocks = np.concatenate([
        np.zeros(k - len(seed)), seed, fresh, np.zeros((-len(fresh)) % k),
    ]).reshape(-1, k)
    grown = np.add.accumulate(blocks, axis=0).reshape(-1)[k:k + len(fresh)]
    return np.concatenate([row, grown])


_qtable = _QTable()


def spence(x: float) -> float:
    """cephes spence for a float x >= 0: the integral from 1 to x of
    log(t) / (1 - t) dt, computed in cephes' order of operations."""
    if x == 1.0:
        return 0.0
    if x == 0.0:
        return math.pi * math.pi / 6.0
    inverted = x > 2.0
    if inverted:
        x = 1.0 / x
    reflected = False
    if x > 1.5:
        w = (1.0 / x) - 1.0
        inverted = True
    elif x < 0.5:
        w = -x
        reflected = True
    else:
        w = x - 1.0
    y = -w * polevl(w, _SPENCE_A) / polevl(w, _SPENCE_B)
    if reflected:
        y = (math.pi * math.pi) / 6.0 - math.log(x) * math.log(1.0 - x) - y
    if inverted:
        z = math.log(x)
        y = -0.5 * z * z - y
    return y


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
    """log q(m, k) from the float64 recurrence table (see the module notes).

    Any size, but the shared table grows to cover (m, k): about 8 k m bytes,
    kept for the life of the process (80 MB at m = 10000, k = 1000).  Raises
    OverflowError where q(m, k) passes the float64 maximum (m of about 79000
    and up, never below EXACT_LIMIT).
    """
    if m < 0 or k < 0:
        return -np.inf
    return _qtable.value(m, k)


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
    they need, are gathered row by row, one row per distinct k, and take one
    `np.log` together; only the entries whose m - n exceeds EXACT_LIMIT call
    `log_q_approx`.  Nothing is memoized.
    """
    mm = m - n
    out = np.where((mm == 0) & (n >= 0), 0.0, -np.inf)
    needs_q = (n > 0) & (mm > 0)
    exact = np.flatnonzero(needs_q & (mm <= EXACT_LIMIT))
    if len(exact):
        k = np.minimum(n[exact], mm[exact])
        order = np.argsort(k, kind="stable")
        exact, k = exact[order], k[order]
        _qtable._ensure(int(k[-1]), int(mm[exact].max()))
        q = np.empty(len(exact))
        bounds = [0] + (np.flatnonzero(k[1:] != k[:-1]) + 1).tolist() + [len(k)]
        for lo, hi in zip(bounds, bounds[1:]):
            q[lo:hi] = _qtable._rows[int(k[lo])][mm[exact[lo:hi]]]
        out[exact] = np.log(q)
    for idx in np.flatnonzero(needs_q & (mm > EXACT_LIMIT)).tolist():
        out[idx] = log_q_approx(int(mm[idx]), int(min(n[idx], mm[idx])))
    return out
