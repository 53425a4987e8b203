"""Everything is pure values; concurrent callers must see identical results."""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import mpmath

from catalan_stanley.asymptotics import _constants, constant_digits
from catalan_stanley.enumeration import enumerate_trees, sample_trees
from catalan_stanley.series import phi_apply, series_S, series_T
from catalan_stanley.stats import age_distribution, expected_age
from catalan_stanley.tree import age, reduce
from catalan_stanley.verify import run_verification


def _workload(worker: int):
    s = series_S(10)
    tau = sample_trees(12, 1, seed=7)[0]
    return (
        series_T(12).coefficients(),
        phi_apply(s) == s,
        expected_age(30),
        age_distribution(9).masses,
        sorted(t.serialize() for t in enumerate_trees(6)),
        age(tau),
        reduce(tau).serialize(),
        constant_digits(0, 25),
    )


def test_parallel_calls_agree_with_sequential():
    sequential = _workload(0)
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(_workload, range(16)))
    assert all(result == sequential for result in results)


def test_constants_at_mixed_precisions_in_parallel():
    # callers at different precisions must not change each other's working
    # precision, nor leave constants summed at another precision in the cache
    digits = range(20, 61)
    sequential = [constant_digits(i, d) for d in digits for i in range(4)]
    _constants.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            rows = pool.map(
                lambda d: [constant_digits(i, d) for i in range(4)], digits, timeout=120
            )
            parallel = [s for row in rows for s in row]
    finally:
        sys.setswitchinterval(interval)
    assert parallel == sequential


def test_verify_ignores_precision_set_by_other_threads():
    # the asymptotics checks and the chi-square p-values must neither read
    # nor set the process-wide mpmath precision, which any thread may change
    sequential = run_verification(max_size=5, max_r=2, order=6).to_text()
    stop = threading.Event()

    def toggle():
        while not stop.is_set():
            for dps in (8, 15, 80):
                mpmath.mp.dps = dps

    dps, interval = mpmath.mp.dps, sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    toggler = threading.Thread(target=toggle)
    toggler.start()
    try:
        reports = [run_verification(max_size=5, max_r=2, order=6).to_text() for _ in range(3)]
    finally:
        stop.set()
        toggler.join()
        sys.setswitchinterval(interval)
        mpmath.mp.dps = dps
    assert all(report == sequential for report in reports)
