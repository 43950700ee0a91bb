"""The lanes contract, checked once for each shape of lane: threads,
sequential threads and forks. Call sites keep their own byte-equality
tests; the fork-only rules are TestFoldMap's in test_pipeline.py."""

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import cograca
from cograca import lanes

from conftest import usable_cpus

SHAPES = {
    "thread": lambda fn, items: lanes.threads(fn, items),
    "sequential": lambda fn, items: lanes.threads(fn, items, sequential=True),
    "fork": lambda fn, items: lanes.forks(fn, items),
}


@pytest.fixture(params=sorted(SHAPES))
def shape(request):
    return request.param


def _nothing_left() -> bool:
    """No lane thread is alive and no child is left to reap."""
    if any(t.name == "cograca-lane" for t in threading.enumerate()):
        return False
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


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
    assert _nothing_left()


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
    # on more than one lane item 4 fails first in time, but item 3 comes first in order
    error = ValueError("item 3")

    def job(i):
        if i == 3:
            time.sleep(0.2)
            raise error
        if i == 4:
            raise KeyError("a later item")
        return i

    usable_cpus(monkeypatch, cpus)
    with pytest.raises(ValueError) as raised:
        list(SHAPES[shape](job, range(6)))
    if shape == "fork" and cpus > 1:  # rebuilt from its pickle
        assert type(raised.value) is ValueError and raised.value.args == error.args
    else:
        assert raised.value is error
    assert _nothing_left()


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
    assert _nothing_left()


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
    assert _nothing_left()
