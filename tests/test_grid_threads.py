"""`sample_grid` evaluates its six fields on the caller plus helper threads.

Each field runs the arithmetic of a serial run, so the bits must not depend
on how many CPUs the process may use.  The helpers take the caller's numpy
error state, an exception in any thread reaches the caller, and no thread
outlives the call.  The CPU count is forced by replacing
`os.sched_getaffinity` as `surfaces` sees it.
"""

import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from affsphere import surfaces
from affsphere.paracomplex import ComplexPoly, ParaPoly
from affsphere.surfaces import Domain, HoloCurve, ParaCurve, sample_grid

SIGNATURES = {"indefinite": (ParaCurve, ParaPoly), "lsc": (HoloCurve, ComplexPoly)}
FIELDS = ("x1", "x2", "phi", "n1", "n2", "density")
RES = (33, 29)
JOIN_S = 60
# the tables of a degree-16 curve are finite; u**16 and v**16 overflow here
OVERFLOWING = Domain(-1e20, 1e20, -1e20, 1e20)


def random_curve(signature, degree, seed=1):
    curve_cls, poly_cls = SIGNATURES[signature]
    rng = np.random.default_rng([degree, seed])

    def poly():
        return poly_cls([(float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)))
                         for _ in range(degree + 1)])

    return curve_cls(poly(), poly())


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def grid_bits(grid):
    return {name: bits(getattr(grid, name)) for name in FIELDS}


def assert_same_bits(a, b):
    for name in FIELDS:
        np.testing.assert_array_equal(a[name], b[name], err_msg=name)


@pytest.fixture
def cpus(monkeypatch):
    """Set the number of CPUs `surfaces` sees this process may run on."""

    def force(n):
        monkeypatch.setattr(surfaces.os, "sched_getaffinity", lambda pid: set(range(n)),
                            raising=False)

    return force


def joined(threads):
    for thread in threads:
        thread.join(JOIN_S)
    assert not any(thread.is_alive() for thread in threads)


@pytest.mark.parametrize("degree", [1, 8, 32])
@pytest.mark.parametrize("signature", sorted(SIGNATURES))
def test_fields_do_not_depend_on_the_cpu_count(cpus, signature, degree):
    curve = random_curve(signature, degree)
    by_count = {}
    for n in (1, 2, 6):  # 6: one thread per field, more threads than this host may have
        cpus(n)
        by_count[n] = grid_bits(sample_grid(curve, Domain(), RES))
    assert_same_bits(by_count[1], by_count[2])
    assert_same_bits(by_count[1], by_count[6])


def test_one_cpu_starts_no_thread(cpus, monkeypatch):
    def refuse(thread):
        raise AssertionError("a thread was started on one CPU")

    cpus(1)
    monkeypatch.setattr(threading.Thread, "start", refuse)
    grid = sample_grid(random_curve("indefinite", 8), Domain(), RES)
    assert all(np.isfinite(getattr(grid, name)).all() for name in FIELDS)


def test_two_callers_at_once_get_the_serial_bits(cpus):
    cpus(2)
    curves = [random_curve("indefinite", 16), random_curve("lsc", 16)]
    serial = [grid_bits(sample_grid(curve, Domain(), (128, 96))) for curve in curves]
    got = [None, None]

    def call(k):
        got[k] = grid_bits(sample_grid(curves[k], Domain(), (128, 96)))

    callers = [threading.Thread(target=call, args=(k,)) for k in range(2)]
    for thread in callers:
        thread.start()
    joined(callers)
    for k in range(2):
        assert_same_bits(serial[k], got[k])


def test_no_thread_outlives_a_return_or_a_raise(cpus):
    cpus(2)
    before = threading.active_count()
    sample_grid(random_curve("lsc", 8), Domain(), RES)
    assert threading.active_count() == before
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        sample_grid(random_curve("indefinite", 16), OVERFLOWING, RES)
    assert threading.active_count() == before


def test_every_item_runs_once_under_fast_switching(cpus):
    cpus(6)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(200):
            calls = []
            results = surfaces._fan_out(lambda item: calls.append(item) or -item, list(range(6)))
            assert sorted(calls) == list(range(6))
            assert results == [0, -1, -2, -3, -4, -5]
    finally:
        sys.setswitchinterval(interval)


def two_threads_one_item_each(cpus, fn):
    """_fan_out over two items on two CPUs, where neither thread may take both."""
    cpus(2)
    barrier = threading.Barrier(2, timeout=JOIN_S)

    def item(k):
        barrier.wait()
        return fn(k)

    return surfaces._fan_out(item, [0, 1])


def test_helper_runs_under_the_callers_error_state(cpus):
    def handler(kind, flag):
        pass

    def state(k):
        return threading.current_thread() is threading.main_thread(), np.geterr(), np.geterrcall()

    with np.errstate(over="raise", invalid="ignore", call=handler):
        expected = np.geterr()
        results = two_threads_one_item_each(cpus, state)
    assert sorted(on_main for on_main, _, _ in results) == [False, True]
    assert all(err == expected and call is handler for _, err, call in results)


def test_helper_exception_reaches_the_caller(cpus):
    before = threading.active_count()

    def fail_off_main(k):
        if threading.current_thread() is not threading.main_thread():
            raise ValueError("raised in a helper")
        return k

    with pytest.raises(ValueError, match="raised in a helper"):
        two_threads_one_item_each(cpus, fail_off_main)
    assert threading.active_count() == before


@pytest.mark.parametrize("n", [1, 2])
def test_overflow_raises_under_over_raise(cpus, n):
    cpus(n)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        sample_grid(random_curve("indefinite", 16), OVERFLOWING, RES)


def test_overflow_ignored_matches_the_single_worker_path(cpus):
    curve = random_curve("indefinite", 16)
    by_count = {}
    for n in (1, 2):
        cpus(n)
        with np.errstate(all="ignore"), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            grid = sample_grid(curve, OVERFLOWING, RES)
        assert caught == []
        by_count[n] = grid_bits(grid)
    assert not all(np.isfinite(getattr(grid, name)).all() for name in FIELDS)
    assert_same_bits(by_count[1], by_count[2])


@pytest.mark.parametrize("n", [1, 2])
def test_overflow_fails_the_suite_as_a_runtime_warning(cpus, n):
    # pyproject.toml turns RuntimeWarning into an error for the whole suite
    cpus(n)
    with pytest.raises(RuntimeWarning, match="overflow"):
        sample_grid(random_curve("indefinite", 16), OVERFLOWING, RES)


def test_import_loads_no_executor_or_process_pool():
    code = (
        "import sys, affsphere\n"
        "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules))\n"
    )
    env = {"PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src"), "PATH": ""}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         check=True)
    assert out.stdout == "[]\n"
