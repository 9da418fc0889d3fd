"""util's integer combinatorics give one float per argument: a scalar call,
the matching element of an array call and a table lookup are equal bit for
bit.  Its log-gamma port follows cephes `lgam`, with scipy as the reference,
and loading the package loads no scipy module."""
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as hst
from scipy.special import gammaln as scipy_gammaln

from topicblocks import util
from topicblocks.util import (
    IntegrityError,
    gammaln,
    log_binom,
    log_factorial,
    log_factorial_table,
    log_num_compositions,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent

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


# --- log-gamma -------------------------------------------------------------------


def cephes_lgam(x, log):
    """A scalar transcription of cephes lgam for x > 0, with `log` in place of
    the C library's."""
    if x >= 13.0:
        q = (x - 0.5) * log(x) - x + 0.91893853320467274178
        if x > 1.0e8:
            return q
        p = 1.0 / (x * x)
        if x >= 1000.0:
            return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                        + 0.0833333333333333333333) / x
        return q + util.polevl(p, util._LGAM_A) / x
    z, p, u = 1.0, 0.0, x
    while u >= 3.0:
        p -= 1.0
        u = x + p
        z *= u
    while u < 2.0:
        z /= u
        p += 1.0
        u = x + p
    if u == 2.0:
        return log(z)
    t = x + (p - 2.0)
    return log(z) + t * util.polevl(t, util._LGAM_B) / util.polevl(t, util._LGAM_C, monic=True)


def numpy_log(v):
    """numpy's vectorized log, which rounds the same in every lane."""
    return float(np.log(np.array([v]))[0])


reals = hst.floats(min_value=0.0, max_value=1e10, exclude_min=True)
small_reals = hst.floats(min_value=0.0, max_value=13.0, exclude_min=True, exclude_max=True)


@given(hst.lists(reals, min_size=1, max_size=50))
@example([5e-324, 1e-300, 2.0 ** -60, 1.0 - 2.0 ** -53, 1.0 + 2.0 ** -52, 2.5, 12.999, 13.0,
          999.5, 1000.5, 1e8 + 0.5, 1e10])
def test_gammaln_within_two_ulp_of_scipy(xs):
    got, ref = gammaln(np.array(xs)), scipy_gammaln(np.array(xs))
    finite = np.isfinite(ref)
    assert np.array_equal(got[~finite], ref[~finite])
    gap = np.abs(got[finite] - ref[finite])
    assert np.all(gap <= 2 * np.spacing(np.maximum(1.0, np.abs(ref[finite]))))


def test_gammaln_equals_scipy_on_the_whole_numbers_the_table_serves():
    n = np.arange(1.0, 9170.0)  # up to log 9168!; log 9169! is one ulp off where np.log is
    assert np.array_equal(gammaln(n), scipy_gammaln(n))
    assert [gammaln(v) for v in (1.0, 2.0, 13.0, 9169.0)] == scipy_gammaln([1.0, 2.0, 13.0, 9169.0]).tolist()


@given(hst.lists(hst.one_of(small_reals, reals), min_size=1, max_size=50))
@example([1.0 - 2.0 ** -53, 1.0 - 2.0 ** -52, 1.0 + 2.0 ** -52, 2.0 ** -60, 0.5, 2.5, 3.0, 12.5])
def test_gammaln_follows_cephes_order_of_operations(xs):
    """Bit for bit against the transcription given the same `log`; the
    transcription with the C library's `log` is scipy's `gammaln`."""
    xs = [x for x in xs if x != math.floor(x)]  # whole numbers read the table
    assert gammaln(np.array(xs)).tolist() == [cephes_lgam(x, numpy_log) for x in xs]
    assert [cephes_lgam(x, math.log) for x in xs] == scipy_gammaln(np.array(xs)).tolist()


def test_gammaln_reads_whole_numbers_from_the_table(monkeypatch):
    def refuse(x):
        raise AssertionError("a whole number reached the series")

    n = np.array([1.0, 2.0, 7.0, 13.0, 5000.0, 2.0 ** 20])
    monkeypatch.setattr(util, "_lgam_small", refuse)
    monkeypatch.setattr(util, "_lgam_large", refuse)
    table = log_factorial_table(2 ** 20)
    assert gammaln(n).tolist() == table[n.astype(int) - 1].tolist()
    assert gammaln(0.0) == gammaln(-3.0) == np.inf  # the poles


def test_gammaln_refuses_negative_reals():
    with pytest.raises(ValueError, match="x > 0"):
        gammaln(np.array([2.0, -0.5]))


def test_log_factorial_keeps_its_values_and_types():
    """The values and types of the scipy definition, log n! = gammaln(n + 1)."""
    n = np.arange(0, 9169)
    assert np.array_equal(log_factorial(n), scipy_gammaln(n + 1.0))
    for value in (0, 1, 12, 13, 170, 9168):
        ref = scipy_gammaln(value + 1.0)
        for arg in (value, np.int64(value), np.int32(value), np.uint16(value), np.array(value)):
            got = log_factorial(arg)
            assert type(got) is np.float64 and got == ref
    for shape in ((0,), (0, 3)):
        empty = log_factorial(np.zeros(shape, dtype=np.int64))
        assert empty.shape == shape and empty.dtype == np.float64
    for negative in (-1, np.int64(-5), np.array(-2)):
        assert log_factorial(negative) == np.inf
    mixed = log_factorial(np.array([[-1, 0], [5, -7]]))
    assert mixed.tolist() == [[np.inf, 0.0], [float(scipy_gammaln(6.0)), np.inf]]
    assert log_binom(3, 5) == -np.inf  # outside its range, through log (-2)! = inf
    assert log_factorial(np.array([4.0, 2.5])).tolist() == scipy_gammaln([5.0, 3.5]).tolist()
    beyond = 2 ** 24  # above the table's read limit: Stirling's series, no table growth
    assert abs(log_factorial(beyond) - scipy_gammaln(beyond + 1.0)) <= 2 * np.spacing(scipy_gammaln(beyond + 1.0))
    assert len(log_factorial_table(0)) < beyond


def test_importing_the_package_loads_no_scipy():
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      os.environ.get("PYTHONPATH")]))}
    code = ("import sys, topicblocks, topicblocks.cli, topicblocks.presets; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
