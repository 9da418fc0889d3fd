import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as hst
from scipy.special import spence as scipy_spence

from topicblocks import partition_counts
from topicblocks.partition_counts import (
    _LogQTable,
    count_partitions,
    log_partitions,
    log_partitions_array,
    log_q_approx,
    log_q_exact,
    spence,
)


def brute_force_partitions(m, n):
    """Enumerate partitions of m into exactly n positive nonincreasing parts."""
    if n == 0:
        return 1 if m == 0 else 0
    found = 0

    def rec(rem, parts, cap):
        nonlocal found
        if parts == 0:
            if rem == 0:
                found += 1
            return
        for first in range(1, min(rem, cap) + 1):
            if first * parts >= rem:
                rec(rem - first, parts - 1, first)

    rec(m, n, m)
    return found


def test_matches_brute_force_up_to_30():
    for m in range(0, 31):
        for n in range(0, m + 1):
            assert count_partitions(m, n) == brute_force_partitions(m, n), (m, n)


def test_spot_values():
    assert count_partitions(0, 0) == 1
    assert count_partitions(4, 2) == 2
    assert count_partitions(7, 3) == 4


def test_boundaries():
    assert count_partitions(5, 0) == 0
    assert count_partitions(0, 3) == 0
    assert count_partitions(3, 5) == 0
    assert count_partitions(-1, 1) == 0


def test_log_table_matches_exact_integers():
    worst = 0.0
    for m in range(1, 150):
        for n in range(1, m + 1):
            c = count_partitions(m, n)
            if c:
                worst = max(worst, abs(log_partitions(m, n) - math.log(c)))
    assert worst < 1e-10


def test_log_partitions_zero_cases():
    assert log_partitions(3, 5) == -np.inf
    assert log_partitions(0, 0) == 0.0
    assert log_partitions(6, 6) == 0.0  # all ones is the only split


def test_asymptotic_cross_check_at_boundary():
    """The fast path must agree with the exact recurrence near the default
    size threshold to well under a percent in log."""
    for m, n in [(10000, 5), (10000, 30), (10000, 100), (10000, 300),
                 (10000, 2000), (12000, 64)]:
        exact = log_q_exact(m, n)
        approx = log_q_approx(m, n)
        assert abs(approx - exact) / abs(exact) < 1e-3, (m, n)


def test_szekeres_error_bound_near_exact_limit():
    """The fallback stays within the 0.03 nats the module documents, on both
    sides of EXACT_LIMIT and across the few-parts/Szekeres hand-over."""
    for m in (12000, 11000, 10001, 10000, 9000):
        for k in (2, 5, 10, 11, 30, 100, 300, 1000, 2000):
            assert abs(log_q_approx(m, k) - log_q_exact(m, k)) < 0.03, (m, k)


def one_shot_table(kmax, mmax):
    """The log q table built in one pass at a fixed extent (rows k <= kmax,
    columns m <= mmax): the reference for a table grown by requests."""
    tab = np.full((kmax + 1, mmax + 1), -np.inf)
    tab[0, 0] = 0.0
    tab[1, :] = 0.0
    for kk in range(2, kmax + 1):
        prev = tab[kk - 1]
        pad = (-(mmax + 1)) % kk
        blocks = np.concatenate([prev, np.full(pad, -np.inf)]).reshape(-1, kk)
        tab[kk] = np.logaddexp.accumulate(blocks, axis=0).reshape(-1)[: mmax + 1]
    return tab


def grown_table(requests):
    table = _LogQTable()
    for m, k in requests:
        table.value(m, k)
    return table


def assert_rows_match_one_shot(table):
    ref = one_shot_table(len(table._rows) - 1, table._mmax)
    for k, row in enumerate(table._rows):
        # bit for bit, not only equal as floats
        assert np.array_equal(row.view(np.int64), ref[k].view(np.int64)), k


requests = hst.lists(
    hst.tuples(hst.integers(1, 600), hst.integers(1, 80)), min_size=1, max_size=8)


class TestGrownTable:
    @given(requests)
    def test_rows_equal_one_shot_build(self, reqs):
        assert_rows_match_one_shot(grown_table(reqs))

    def test_more_rows_than_columns(self):
        # rows past the column extent are extended from seeds shorter than k
        # when the columns grow
        assert_rows_match_one_shot(grown_table([(1000, 900), (1000, 1000), (1300, 1000)]))

    @given(requests)
    def test_extents_stay_within_a_quarter_of_the_largest_request(self, reqs):
        table = grown_table(reqs)
        k_req = max(min(k, m) for m, k in reqs)
        m_req = max(m for m, _ in reqs)
        assert len(table._rows) - 1 <= max(16, 1.25 * k_req)
        assert table._mmax <= max(256, 1.25 * m_req)
        assert all(len(row) == table._mmax + 1 for row in table._rows)

    def test_array_calls_grow_no_further_than_the_exact_limit(self, monkeypatch):
        """`log_partitions_array` never needs m beyond EXACT_LIMIT, and the
        table stops there; a direct call beyond it still gets its request."""
        table = _LogQTable()
        monkeypatch.setattr(partition_counts, "_logq", table)
        limit = partition_counts.EXACT_LIMIT
        n = np.array([1, 3, 10])
        for mm in (300, 5000, 9000, 9500, limit):
            log_partitions_array(n + mm, n)
            assert table._mmax <= limit
        log_q_exact(limit + 500, 3)
        assert table._mmax == limit + 500
        assert_rows_match_one_shot(table)


def partition_args(m_max=400):
    """(m, n) pairs that hit every branch: n > m, n = 0, m = n, m = 0,
    negative arguments and the table."""
    m = hst.integers(-2, m_max)
    return hst.one_of(
        hst.tuples(m, hst.integers(-2, 120)),
        m.flatmap(lambda a: hst.sampled_from([(a, 0), (a, a), (0, a), (a, a + 1), (a, a - 1)])),
    )


def assert_array_equals_scalar(m, n):
    m, n = np.asarray(m, dtype=np.int64), np.asarray(n, dtype=np.int64)
    got = log_partitions_array(m, n)
    assert got.tolist() == [log_partitions(a, b) for a, b in zip(m.tolist(), n.tolist())]
    return got


class TestLogPartitionsArray:
    """`log_partitions_array` equals the scalar `log_partitions` bit for bit."""

    @given(hst.lists(partition_args(), max_size=40),
           hst.sampled_from([None, 0, 3, 40, 200]))
    @example([], None)
    def test_equals_scalar(self, pairs, limit):
        m, n = (list(c) for c in zip(*pairs)) if pairs else ([], [])
        # the scalar memo is not keyed on the limit: clear it on either side
        # of a patched one
        partition_counts._log_partitions_cached.cache_clear()
        try:
            with pytest.MonkeyPatch.context() as mp:
                if limit is not None:
                    mp.setattr(partition_counts, "EXACT_LIMIT", limit)
                assert_array_equals_scalar(m, n)
        finally:
            partition_counts._log_partitions_cached.cache_clear()

    def test_both_approximate_branches(self):
        # mm = EXACT_LIMIT + 5 is approximated: k = 3 takes the few-parts
        # branch and k = 15 (>= mm ** 0.25) the Szekeres branch
        mm = partition_counts.EXACT_LIMIT + 5
        got = assert_array_equals_scalar([mm + 3, mm + 15, 7, 0], [3, 15, 7, 0])
        assert got[0] == log_q_approx(mm, 3) and got[1] == log_q_approx(mm, 15)

    def test_exact_limit_boundary(self):
        # m - n at EXACT_LIMIT stays exact; one above it is approximated
        n = np.array([1, 2, 5, 9, 1, 2, 5, 9])
        m = n + partition_counts.EXACT_LIMIT + np.repeat([0, 1], 4)
        got = assert_array_equals_scalar(m, n)
        assert got[3] == log_q_exact(partition_counts.EXACT_LIMIT, 9)
        assert got[7] == log_q_approx(partition_counts.EXACT_LIMIT + 1, 9)


@given(hst.lists(hst.floats(min_value=0.0, max_value=3.0), min_size=1, max_size=50))
@example([0.0, 5e-324, 1e-300, 0.5, 1.0, 1.5, 2.0, 3.0, math.exp(-1e-10)])
def test_spence_equals_scipy(xs):
    assert [spence(x) for x in xs] == scipy_spence(np.array(xs)).tolist()
