"""util's integer combinatorics give one float per argument: a scalar call,
the matching element of an array call and a table lookup are equal bit for
bit."""
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as hst

from topicblocks.util import (
    IntegrityError,
    log_binom,
    log_factorial,
    log_factorial_table,
    log_num_compositions,
)

# up to 2e6, and the band around 1e6 where two log-gamma routines drift apart
counts = hst.one_of(hst.integers(0, 2_000_000), hst.integers(980_000, 1_020_000))
counts_or_zero = hst.one_of(hst.just(0), counts)


@given(hst.lists(counts, min_size=1, max_size=40))
@example([0, 1, 20_000, 1_000_000, 2_000_000])
def test_log_factorial_scalar_array_and_table_agree(ns):
    array = log_factorial(np.array(ns)).tolist()
    table = log_factorial_table(max(ns))
    for n, got in zip(ns, array):
        assert log_factorial(n) == log_factorial(np.int64(n)) == got == table[n]


@given(hst.lists(hst.tuples(counts, counts), min_size=1, max_size=40))
def test_log_binom_scalar_equals_array(pairs):
    n = [max(pair) for pair in pairs]
    k = [min(pair) for pair in pairs]
    array = log_binom(np.array(n), np.array(k)).tolist()
    assert [log_binom(a, b) for a, b in zip(n, k)] == array


@given(hst.lists(hst.tuples(counts_or_zero, counts_or_zero), min_size=1, max_size=40))
@example([(0, 0), (0, 5), (3, 0)])
def test_log_num_compositions_scalar_equals_array(cases):
    total, parts = (np.array(column) for column in zip(*cases))
    ok = (parts > 0) | (total == 0)
    scalars = [log_num_compositions(t, p) for t, p in zip(total[ok].tolist(), parts[ok].tolist())]
    assert scalars == log_num_compositions(total[ok], parts[ok]).tolist()
    assert all(v == 0.0 for v, t in zip(scalars, total[ok]) if t == 0)
    for t, p in zip(total[~ok].tolist(), parts[~ok].tolist()):
        with pytest.raises(IntegrityError, match="0 parts"):
            log_num_compositions(t, p)
    if not ok.all():
        with pytest.raises(IntegrityError, match="0 parts"):
            log_num_compositions(total, parts)

