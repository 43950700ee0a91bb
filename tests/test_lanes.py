"""The lanes contract, checked once for each shape of lane: threads,
sequential threads and forks, and the fork-only rules in TestForks. Call
sites keep their own byte-equality tests."""

import os
import signal
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import cograca
from cograca import encoder, lanes
from cograca.encoder import EncoderParams, build_graph, encode_batch

from conftest import PACKAGE_ERRORS, nothing_left, random_connectivity, same_error, usable_cpus

SHAPES = {
    "thread": lambda fn, items: lanes.threads(fn, items),
    "sequential": lambda fn, items: lanes.threads(fn, items, sequential=True),
    "fork": lambda fn, items: lanes.forks(fn, items),
}


@pytest.fixture(params=sorted(SHAPES))
def shape(request):
    return request.param


@pytest.mark.parametrize("case", ["one-cpu", "no-affinity", "one-item"])
def test_serial_fallback_runs_in_the_caller(shape, monkeypatch, case):
    items = 1 if case == "one-item" else 3
    if case == "one-cpu":
        usable_cpus(monkeypatch, 1)
    elif case == "no-affinity":
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:  # the CPUs are not read for one item
        monkeypatch.setattr(os, "sched_getaffinity", None)
    monkeypatch.setattr(os, "fork", None)
    monkeypatch.setattr(threading, "Thread", None)
    here = os.getpid(), threading.get_ident()
    ran = SHAPES[shape](lambda i: (i, os.getpid(), threading.get_ident()), range(items))
    assert list(ran) == [(i, *here) for i in range(items)]


def test_forks_without_fork_run_in_the_caller(monkeypatch):
    usable_cpus(monkeypatch, 3)
    monkeypatch.delattr(os, "fork", raising=False)
    assert list(lanes.forks(lambda _: os.getpid(), range(3))) == [os.getpid()] * 3


_FRESH = """
import functools, os, sys, threading
from cograca import lanes
if sys.argv[1] == "one-cpu":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
items = [1, -2, 3] if sys.argv[1] == "one-cpu" else [-2]
shapes = [lanes.threads, functools.partial(lanes.threads, sequential=True), lanes.forks]
before = set(sys.modules)
print([list(shape(abs, items)) for shape in shapes], sorted(set(sys.modules) - before),
      threading.active_count())
"""


@pytest.mark.parametrize("case", ["one-cpu", "one-item"])
def test_serial_fallback_in_a_fresh_interpreter_starts_and_imports_nothing(case):
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH, case], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(Path(cograca.__file__).parents[1])),
    )
    out = "[1, 2, 3]" if case == "one-cpu" else "[2]"
    assert proc.stdout == f"[{out}, {out}, {out}] [] 1\n"


def _draw(i):
    time.sleep(0.01 * (i % 3))  # later items may finish first
    return np.random.default_rng(i).standard_normal(i + 1).tobytes()


def test_order_and_bytes_on_one_two_and_three_cpus(shape, monkeypatch):
    outcomes = []
    for n in (1, 2, 3):
        usable_cpus(monkeypatch, n)
        outcomes.append(list(SHAPES[shape](_draw, range(7))))
    assert outcomes == [[_draw(i) for i in range(7)]] * 3
    assert nothing_left()


def test_items_run_on_their_lanes(shape, monkeypatch):
    usable_cpus(monkeypatch, 3)

    def where(_):
        time.sleep(0.02)  # long enough for every lane to take an item
        return os.getpid(), threading.get_ident()

    ran = list(SHAPES[shape](where, range(6)))
    pids, threads = zip(*ran)
    caller = os.getpid(), threading.get_ident()
    if shape == "thread":  # the caller and one worker per other CPU
        assert set(pids) == {caller[0]} and caller[1] in threads and len(set(threads)) == 3
    elif shape == "sequential":  # one worker; the caller only consumes
        assert set(pids) == {caller[0]} and len(set(threads)) == 1 and caller[1] not in threads
    else:  # worker k runs items k and k + 3
        assert caller[0] not in pids and pids[:3] == pids[3:] and len(set(pids)) == 3


def test_sequential_items_run_in_order_at_most_one_ahead(monkeypatch):
    usable_cpus(monkeypatch, 3)
    started = []

    def job(i):
        started.append(i)
        return i

    for i in lanes.threads(job, range(6), sequential=True):
        time.sleep(0.05)  # room for the worker to run ahead
        assert max(started) <= i + 1
    assert started == list(range(6))


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_first_failing_item_in_order_raises(shape, monkeypatch, cpus):
    # on more than one lane item 4 fails first in time, but item 3 comes first
    # in order; from forks, the package's exceptions keep their attributes too
    usable_cpus(monkeypatch, cpus)
    for error in [ValueError("item 3"), *(PACKAGE_ERRORS if shape == "fork" else [])]:
        def job(i):
            if i == 3:
                time.sleep(0.2)
                raise error
            if i == 4:
                raise KeyError("a later item")
            return i

        with pytest.raises(type(error)) as raised:
            list(SHAPES[shape](job, range(6)))
        if shape == "fork" and cpus > 1:  # rebuilt from its pickle
            assert same_error(raised.value, error)
        else:
            assert raised.value is error
        assert nothing_left()


@pytest.mark.parametrize("end", ["return", "raise", "close"])
def test_nothing_outlives_the_call(shape, monkeypatch, end):
    def job(i):
        time.sleep(0.01)
        if end == "raise" and i == 2:
            raise ValueError("item 2")
        return i

    usable_cpus(monkeypatch, 2)
    ran = SHAPES[shape](job, range(8))
    if end == "close":
        assert next(ran) == 0 and next(ran) == 1
        ran.close()
    elif end == "raise":
        with pytest.raises(ValueError, match="item 2"):
            list(ran)
    else:
        assert list(ran) == list(range(8))
    assert nothing_left()


def test_workers_run_under_the_callers_numpy_error_state(shape, monkeypatch):
    usable_cpus(monkeypatch, 2)
    with np.errstate(over="raise", under="ignore"):
        states = list(SHAPES[shape](lambda _: np.geterr(), range(4)))
    assert {(s["over"], s["under"]) for s in states} == {("raise", "ignore")}


def test_fast_thread_switching(shape, monkeypatch):
    # 40 items on 4 lanes, whatever the CPU count, with the interpreter
    # switching threads every microsecond: an item taken twice or a result
    # lost shows as another call list, other bytes or a hang
    calls = []

    def job(i):
        calls.append(i)
        return np.full(100, i, dtype=np.float64).tobytes()

    usable_cpus(monkeypatch, 4)
    outcomes = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(
            target=lambda: outcomes.extend(list(SHAPES[shape](job, range(40))) for _ in range(5)))
        runner.start()
        runner.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    assert outcomes == [[job(i) for i in range(40)]] * 5
    del calls[-40:]  # the reference run above
    if shape == "sequential":
        assert calls == list(range(40)) * 5
    elif shape == "thread":
        assert sorted(calls) == sorted(list(range(40)) * 5)
    else:  # the forked workers' calls stay in the workers
        assert calls == []
    assert nothing_left()


class TestForks:
    """The fork-only rules: warnings replayed in item order, dead and stuck
    workers, pipe sizes, silent workers and one pinned CPU per worker."""

    def test_warnings_come_back_in_item_order(self, monkeypatch):
        # later items finish first; each item warns twice, and once with a
        # text every item shares, which the default filter shows once
        def job(i):
            time.sleep(0.05 * (5 - i))
            warnings.warn(f"item {i}")
            warnings.warn(f"item {i} again", RuntimeWarning)
            warnings.warn("shared by every item")
            return i

        def run(n):
            usable_cpus(monkeypatch, n)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("default")
                assert list(lanes.forks(job, range(5))) == list(range(5))
            return [(str(w.message), w.category, w.filename, w.lineno) for w in caught]

        serial = run(1)
        assert run(3) == serial
        assert [m for m, *_ in serial][:4] == ["item 0", "item 0 again", "shared by every item",
                                               "item 1"]
        assert len(serial) == 11 and {f for _, _, f, _ in serial} == {__file__}

    def test_failing_item_keeps_earlier_warnings_only(self, monkeypatch):
        def job(i):
            warnings.warn(f"item {i}")
            if i == 2:
                raise ValueError("item 2")
            return i

        usable_cpus(monkeypatch, 3)
        with warnings.catch_warnings(record=True) as caught, pytest.raises(ValueError):
            warnings.simplefilter("always")
            list(lanes.forks(job, range(6)))
        assert [str(w.message) for w in caught] == ["item 0", "item 1", "item 2"]

    def test_warning_filters_apply_in_workers(self, monkeypatch):
        # a warning the caller turns into an error fails its item, as it would serially
        def job(i):
            warnings.warn(f"item {i}", RuntimeWarning)
            return i

        usable_cpus(monkeypatch, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RuntimeWarning, match="item 0"):
                list(lanes.forks(job, range(4)))
            warnings.simplefilter("ignore", RuntimeWarning)
            assert list(lanes.forks(job, range(4))) == list(range(4))

    @pytest.mark.parametrize("death, status", [(lambda: os._exit(3), 3),
                                               (lambda: os.kill(os.getpid(), signal.SIGKILL), -9)])
    def test_worker_that_dies_names_its_item(self, monkeypatch, death, status):
        def job(i):
            if i == 1:
                death()
            return i

        usable_cpus(monkeypatch, 2)
        with pytest.raises(RuntimeError, match=f"forked item 1: its worker exited with "
                                               f"status {status} without reporting"):
            list(lanes.forks(job, range(4)))
        assert nothing_left()

    def test_known_failure_stops_the_other_workers(self, monkeypatch):
        def job(i):
            if i == 0:
                raise ValueError("item 0")
            time.sleep(60)

        usable_cpus(monkeypatch, 2)
        start = time.monotonic()
        with pytest.raises(ValueError, match="item 0"):
            list(lanes.forks(job, range(2)))
        assert time.monotonic() - start < 30
        assert nothing_left()

    def test_value_that_does_not_pickle_names_its_type(self, monkeypatch):
        usable_cpus(monkeypatch, 2)
        with pytest.raises(RuntimeError, match=r"forked item 0: its outcome does not pickle "
                                               r"\(.*\); it returned a value of type function$"):
            list(lanes.forks(lambda i: (lambda: i), range(2)))
        assert nothing_left()

    def test_exception_that_does_not_pickle_is_named(self, monkeypatch):
        def job(i):
            raise ValueError(lambda: i)

        usable_cpus(monkeypatch, 2)
        with pytest.raises(RuntimeError, match=r"forked item 0: its outcome does not pickle "
                                               r"\(.*\); it raised ValueError\(<function "):
            list(lanes.forks(job, range(2)))
        assert nothing_left()

    def test_results_larger_than_a_pipe_buffer(self, monkeypatch):
        usable_cpus(monkeypatch, 3)
        big = list(lanes.forks(lambda i: np.arange(i, i + 1_000_000, dtype=np.float64), range(5)))
        assert all(np.array_equal(b, np.arange(i, i + 1_000_000)) for i, b in enumerate(big))
        assert nothing_left()

    def test_workers_write_nothing(self, capfd, monkeypatch):
        def job(i):
            print(f"stdout {i}")
            print(f"stderr {i}", file=sys.stderr)
            os.write(2, b"raw stderr")
            return i

        usable_cpus(monkeypatch, 2)
        assert list(lanes.forks(job, range(3))) == [0, 1, 2]
        assert capfd.readouterr() == ("", "")

    @pytest.mark.parametrize("host", ["real", "patched"])
    def test_nested_encoder_lanes_run_on_one_cpu(self, monkeypatch, host):
        # one visit per block: ten blocks, which lanes would share on more CPUs
        if host == "patched":
            usable_cpus(monkeypatch, 3)
        elif len(os.sched_getaffinity(0)) < 2:
            pytest.skip("needs two usable CPUs")
        rng = np.random.default_rng(0)
        graphs = [build_graph(random_connectivity(rng, 10)) for _ in range(10)]
        params = EncoderParams.init(10, 5, 3, rng)
        monkeypatch.setattr(encoder, "_BLOCK_BYTES", 8 * 10 * 10)
        inner = encoder._block_forward
        names = []
        monkeypatch.setattr(encoder, "_block_forward",
                            lambda *args: names.append(threading.current_thread().name)
                            or inner(*args))

        def job(_):
            names.clear()
            pooled = encode_batch(params, graphs)[0]
            return os.sched_getaffinity(0), set(names), len(names), pooled.tobytes()

        (cpus0, names0, n0, pooled0), (cpus1, *rest) = lanes.forks(job, range(2))
        assert len(cpus0) == len(cpus1) == 1 and cpus0 != cpus1
        assert (names0, n0) == ({"MainThread"}, 10) and rest[:2] == [{"MainThread"}, 10]
        assert pooled0 == rest[2] == encode_batch(params, graphs)[0].tobytes()
