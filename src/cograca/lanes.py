"""Lanes: ordered maps over the CPUs this process may run on.

Each kind is in effect `map(fn, items)`, spread over the usable CPUs
(`os.sched_getaffinity(0)`, read on each call of more than one item; one
where it is missing):

- `threads(fn, items)`: the caller and one worker thread per other usable
  CPU, each taking the next unstarted item when free, with no bound on how
  far the workers run ahead; for the encoder's visit blocks, numpy work
  that releases the GIL. The caller is a lane, not a waiter: with workers
  alone, `large-cohort`'s peak RSS was 12-14 MB higher, likely for the
  extra worker's malloc arena.
- `threads(fn, items, sequential=True)`, for items that must run one at a
  time in order, such as draws from one random stream: one worker runs
  them, at most one item ahead of the item the caller holds, and the caller
  only consumes. Item i may thus reuse what item i - 2 held once the caller
  asks for item i - 1. Bounding the other kind's lookahead instead, so that
  one rule served both, made `train_model` about 30% slower on two CPUs.
- `forks(fn, items)`: one forked worker per usable CPU, for fold jobs,
  whose many small-array operations hold the GIL (on two CPUs, two threads
  made ten MLP fits 2x slower).

Both kinds keep one contract:

- One item, or one usable CPU (for `forks`, also no os.fork), runs
  map(fn, items) in the caller, starting nothing and importing nothing.
- Results come back in item order.
- The first failing item in item order raises its own exception: the same
  object from `threads`; from `forks`, one with the same type, message and
  attributes (the package's exceptions pickle from their arguments).
- Every thread is joined, and every child reaped, before the call returns
  or raises, and before its generator is closed.
- A worker thread runs in a copy of the caller's contextvars context, so
  under the caller's numpy error state.

`forks` deals items round-robin (worker k of L runs items k, k + L, ...)
to workers pinned to one CPU each, so thread lanes inside them run
serially. Only results come back, one length-prefixed pickle per item over
a pipe per worker, drained by poll as data arrives so no worker stalls on
a full pipe. Each item's warnings are emitted again in the caller, in item
order, against the registry of the module that raised them, up to the
first failure. A worker that dies without reporting raises RuntimeError
naming its item; workers write nothing to stdout or stderr.

Forking assumes no other Python thread runs: every thread lane is joined
before its call returns, but with more than one BLAS thread the OpenBLAS
pool is live at the fork. Python >= 3.12 is documented to warn when a
process with other live OS threads forks (DeprecationWarning); that is
unverified, as the package has only been run on Python 3.11.
"""

from __future__ import annotations

import contextvars
import os
import sys
import threading
import warnings
from contextlib import contextmanager
from functools import partial


def threads(fn, items, sequential: bool = False):
    """Yield fn(item) for every item, in order, from the caller and one worker
    thread per other usable CPU, or from one worker for `sequential` items."""
    return _in_order(fn, items, partial(_thread_lanes, sequential))


def forks(fn, items):
    """Yield fn(item) for every item, in order, from one forked worker per CPU."""
    return _in_order(fn, items, _fork_lanes if hasattr(os, "fork") else None)


def _in_order(fn, items, lanes):
    """The loop both kinds share: without `lanes` or a second lane, map here.
    Otherwise `lanes(fn, items, cpus, results)` opens a lane per CPU and
    yields due, where due(i) returns once `results` holds item i's
    (warnings, exception or None, value), and ends the lanes on exit."""
    items, cpus = list(items), []
    if len(items) > 1 and lanes and hasattr(os, "sched_getaffinity"):
        cpus = sorted(os.sched_getaffinity(0))[: len(items)]  # one lane per usable CPU
    if len(cpus) < 2:
        yield from map(fn, items)
        return
    results = {}
    with lanes(fn, items, cpus, results) as due:
        for i in range(len(items)):
            due(i)
            caught, error, value = results.pop(i)
            _replay(caught)
            if error is not None:
                raise error
            yield value


def _replay(caught) -> None:
    """Emit (message, category, filename, lineno) warnings again as warnings.warn
    would from the module that raised them, so its once-only filters hold."""
    for message, category, filename, lineno in caught:
        module = next((m for m in list(sys.modules.values())
                       if getattr(m, "__file__", None) == filename), None)
        if module is None:
            warnings.warn_explicit(message, category, filename, lineno)
        else:
            g = vars(module)
            warnings.warn_explicit(message, category, filename, lineno, g["__name__"],
                                   g.setdefault("__warningregistry__", {}), g)


@contextmanager
def _thread_lanes(sequential, fn, items, cpus, results):
    count, workers = len(items), []
    ready = threading.Condition()
    taken = 0  # items a lane has taken
    limit = 0 if sequential else count  # the last item a lane may take

    def take():
        """The next item, once the limit allows it, or None when none is left."""
        nonlocal taken
        with ready:
            ready.wait_for(lambda: taken <= limit or taken >= count)
            if taken >= count:
                return None
            taken += 1
            return taken - 1

    def run(i):
        try:
            outcome = (), None, fn(items[i])
        except BaseException as exc:  # raised by the caller, in order
            outcome = (), exc, None
        with ready:
            results[i] = outcome
            ready.notify_all()

    def work():
        while (i := take()) is not None:
            run(i)

    def due(i):
        nonlocal limit
        with ready:  # the caller holds no item now
            limit = max(limit, i + 1)
            ready.notify_all()
        while not sequential and i not in results and (j := take()) is not None:
            run(j)  # the caller is a lane until item i is done
        with ready:
            ready.wait_for(lambda: i in results)

    try:
        for _ in range(1 if sequential else len(cpus) - 1):
            worker = threading.Thread(target=contextvars.copy_context().run, args=(work,),
                                      name="cograca-lane")
            worker.start()
            workers.append(worker)
        yield due
    finally:
        with ready:
            taken = count  # start nothing more
            ready.notify_all()
        for worker in workers:
            worker.join()


@contextmanager
def _fork_lanes(fn, items, cpus, results):
    import pickle
    import select
    import signal
    import struct

    lanes = len(cpus)
    workers = {}  # pipe read end -> (pid, lane, bytes read and not yet unpickled)
    reported = [0] * lanes  # records received per lane
    poller = select.poll()

    def work(lane, cpu, write):
        """Fork worker `lane`: run its items with their warnings recorded, write
        one record each to `write`, and stop after the first that raises."""
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 1)
        os.dup2(devnull, 2)
        sys.stdout = sys.stderr = open(devnull, "w")  # also where a caller redirected them
        try:
            os.sched_setaffinity(0, {cpu})
        except OSError:  # the pin saves nested lanes' threads; results do not depend on it
            pass
        for index in range(lane, len(items), lanes):
            with warnings.catch_warnings(record=True) as caught:
                try:
                    value, error = fn(items[index]), None
                except BaseException as exc:
                    value, error = None, exc
            caught = [(w.message, w.category, w.filename, w.lineno) for w in caught]
            try:
                blob = pickle.dumps((caught, error, value), pickle.HIGHEST_PROTOCOL)
            except Exception as exc:
                what = (f"it raised {error!r}" if error is not None
                        else f"it returned a value of type {type(value).__name__}")
                error = RuntimeError(f"forked item {index}: its outcome does not pickle "
                                     f"({type(exc).__name__}: {exc}); {what}")
                blob = pickle.dumps(([], error, None), pickle.HIGHEST_PROTOCOL)
            view = memoryview(struct.pack("<Q", len(blob)) + blob)
            while view:
                view = view[os.write(write, view):]
            if error is not None:
                return

    def due(i):
        while i not in results:
            for fd, _ in poller.poll():
                pid, lane, buf = workers[fd]
                chunk = os.read(fd, 1 << 20)
                buf += chunk
                while len(buf) >= 8 and len(buf) >= 8 + (size := struct.unpack_from("<Q", buf)[0]):
                    index = lane + reported[lane] * lanes
                    try:
                        results[index] = pickle.loads(buf[8:8 + size])
                    except Exception as exc:  # an exception that does not unpickle
                        results[index] = [], exc, None
                    reported[lane] += 1
                    del buf[:8 + size]
                if not chunk:  # the worker closed its pipe: reap it
                    poller.unregister(fd)
                    os.close(fd)
                    del workers[fd]
                    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                    # its next item, unless it stopped at an exception, which comes first
                    index = lane + reported[lane] * lanes
                    if index < len(items):
                        results[index] = [], RuntimeError(
                            f"forked item {index}: its worker exited with status {code} "
                            "without reporting a result"), None

    try:
        for lane, cpu in enumerate(cpus):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:  # the worker: never returns
                status = 1
                try:
                    for fd in (read, *workers):
                        os.close(fd)
                    work(lane, cpu, write)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write)
            workers[read] = pid, lane, bytearray()
            poller.register(read, select.POLLIN)
        yield due
    finally:  # the outcome is known, or the caller stopped early: end the rest
        for fd, (pid, *_) in workers.items():
            os.close(fd)
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            os.waitpid(pid, 0)

