"""Everything is pure values; concurrent callers must see identical results."""

import hashlib
import io
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import mpmath
import pytest

from catalan_stanley import cli, verify
from catalan_stanley.asymptotics import _constants, constant_digits
from catalan_stanley.enumeration import enumerate_trees, sample_trees
from catalan_stanley.errors import CapacityError, SamplingError, TreeParseError
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
    # precision, and all of them round the one cached pass
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


# `run_verification` runs its census-free layers in a forked worker when it can;
# patching `verify._usable_cpus` to 1 takes the serial path through the same layers
FORKS = verify._can_fork()


def _verify(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(["verify", *argv], out=out, err=err)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest(), err.getvalue()


SCOPES = [(), ("--max-size", "6", "--max-r", "2", "--order", "8")]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("scope", SCOPES, ids=["default", "small"])
def test_verify_output_does_not_depend_on_scheduling(monkeypatch, scope, fmt):
    parallel = _verify(*scope, "--format", fmt)
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 1)
    assert parallel[0] == 0
    assert _verify(*scope, "--format", fmt) == parallel


@pytest.mark.skipif(not FORKS, reason="verify runs serially here")
def test_census_free_layers_run_in_a_forked_worker(monkeypatch):
    healthy = verify._check_sampler_layer

    def with_pid(report):
        healthy(report)
        report.add("pid", "", os.getpid(), os.getpid())

    monkeypatch.setattr(verify, "_check_sampler_layer", with_pid)
    checks = run_verification(max_size=5, max_r=2, order=6).checks
    [pid] = [c.lhs for c in checks if c.name == "pid"]  # the worker saw the patch
    assert pid != str(os.getpid())


@pytest.mark.skipif(not FORKS, reason="verify runs serially here")
def test_caller_checks_come_before_worker_checks(monkeypatch):
    """Each check is stamped with the pid that added it: in the forked
    report every check of the caller comes before every check of the
    worker, the boundary falls between the stats and the series layers,
    and the serial report holds the same checks in the same order."""
    add = verify.VerifyReport.add

    def add_with_pid(report, name, params, *args, **kwargs):
        add(report, name, f"{params} pid={os.getpid()}", *args, **kwargs)

    monkeypatch.setattr(verify.VerifyReport, "add", add_with_pid)
    forked = run_verification(max_size=5, max_r=2, order=6).checks
    caller = f"pid={os.getpid()}"
    sides = [c.params.endswith(caller) for c in forked]
    at = sides.index(False)  # the worker's first check
    assert all(sides[:at]) and not any(sides[at:])
    assert len({c.params.rsplit(" ", 1)[1] for c in forked[at:]}) == 1
    assert forked[at - 1].name == "expected_age_vs_survivals(800)"
    assert forked[at].name == "T_functional_equation"
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 1)
    serial = run_verification(max_size=5, max_r=2, order=6).checks
    assert all(c.params.endswith(caller) for c in serial)
    assert [c.name for c in serial] == [c.name for c in forked]


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not FORKS, reason="verify runs serially here")
def test_no_child_outlives_the_run(monkeypatch):
    run_verification(max_size=5, max_r=2, order=6)
    _no_child_left()

    def interrupted(report, max_size):
        raise KeyboardInterrupt

    monkeypatch.setattr(verify, "_check_tree_layer", interrupted)
    with pytest.raises(KeyboardInterrupt):  # the caller kills the worker, then reaps it
        run_verification(max_size=5, max_r=2, order=6)
    _no_child_left()

    def broken(report, max_size):
        raise ValueError(f"tree layer at {max_size}")

    monkeypatch.setattr(verify, "_check_tree_layer", broken)
    with pytest.raises(ValueError) as forked:
        run_verification(max_size=5, max_r=2, order=6)
    _no_child_left()
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 1)
    with pytest.raises(ValueError) as serial:
        run_verification(max_size=5, max_r=2, order=6)
    assert str(forked.value) == str(serial.value) == "tree layer at 5"


@pytest.mark.skipif(not FORKS, reason="verify runs serially here")
def test_worker_reads_no_census(monkeypatch):
    alone = run_verification(max_size=5, max_r=2, order=6).to_text()
    caller, healthy = os.getpid(), verify._census

    def census_in_caller(n):
        if os.getpid() != caller:
            raise AssertionError(f"the worker read the census of size {n}")
        return healthy(n)

    monkeypatch.setattr(verify, "_census", census_in_caller)
    assert run_verification(max_size=5, max_r=2, order=6).to_text() == alone


@pytest.mark.skipif(not FORKS, reason="verify runs serially here")
def test_killed_worker_leaves_the_report_whole(monkeypatch):
    alone = run_verification(max_size=5, max_r=2, order=6).to_text()
    caller, healthy = os.getpid(), verify._check_sampler_layer

    def dies_in_worker(report):
        if os.getpid() != caller:
            os._exit(9)
        healthy(report)

    monkeypatch.setattr(verify, "_check_sampler_layer", dies_in_worker)
    assert run_verification(max_size=5, max_r=2, order=6).to_text() == alone
    _no_child_left()


@pytest.mark.parametrize(
    "error",
    [
        ValueError("bad draw"),
        TreeParseError("bad word", 3),
        CapacityError("too many draws"),
        SamplingError("out of draws"),
    ],
    ids=lambda e: type(e).__name__,
)
def test_worker_errors_surface_as_serial_ones(monkeypatch, error):
    def broken(*args, **kwargs):
        raise error

    monkeypatch.setattr(verify, "sample_reduced_sizes", broken)
    parallel = _verify("--max-size", "5", "--max-r", "2", "--order", "6")
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 1)
    serial = _verify("--max-size", "5", "--max-r", "2", "--order", "6")
    assert parallel == serial
    code, _, err = serial
    assert (code, err) == (2, f"error: {error}\n")


def test_verify_from_two_threads_at_once():
    alone = run_verification(max_size=5, max_r=2, order=6).to_text()
    with ThreadPoolExecutor(max_workers=2) as pool:
        runs = [pool.submit(run_verification, 5, 2, 6) for _ in range(2)]
        reports = [run.result(timeout=120).to_text() for run in runs]
    assert reports == [alone, alone]


def test_buffered_output_is_written_once():
    # a forked child flushes the standard streams it inherited when it exits,
    # so nothing may be left in their buffers at the fork
    package_root = os.path.dirname(os.path.dirname(verify.__file__))
    script = (
        "print('before'); from catalan_stanley.verify import run_verification; "
        "run_verification(max_size=4, max_r=1, order=4)"
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": package_root},
        check=True,
        timeout=120,
    )
    assert result.stdout == "before\n"
