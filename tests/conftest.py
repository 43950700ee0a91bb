import itertools
import json
import os
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from cograca.contrastive import ZeroNormError
from cograca.encoder import encode_batch
from cograca.pipeline import DeadVisitError, NonFiniteLossError

settings.register_profile(
    "cograca",
    deadline=None,
    derandomize=True,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
# the CI's wide fuzzing pass: pytest --hypothesis-profile=wide
settings.register_profile(
    "wide", settings.get_profile("cograca"), derandomize=False, max_examples=500
)
settings.load_profile("cograca")


def finite_difference(fn, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function, one coordinate at a
    time. Slow; keep inputs small."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    g = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = fn(x)
        flat[i] = orig - h
        down = fn(x)
        flat[i] = orig
        g[i] = (up - down) / (2 * h)
    return grad


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    return float(
        np.linalg.norm(analytic - numeric) / (np.linalg.norm(numeric) + 1e-12)
    )


def random_connectivity(rng: np.random.Generator, n: int) -> np.ndarray:
    """A valid correlation-like matrix: symmetric, unit diagonal, entries in
    [-1, 1]."""
    raw = rng.uniform(-0.9, 0.9, size=(n, n))
    mat = (raw + raw.T) / 2
    np.fill_diagonal(mat, 1.0)
    return mat


def rewrite_model_header(path, damage) -> None:
    """Rewrite the JSON header of the .cgmodel at `path` through `damage`,
    keeping the array payload."""
    blob = path.read_bytes()
    header_len = int.from_bytes(blob[4:12], "little")
    header = damage(json.loads(blob[12 : 12 + header_len]))
    encoded = json.dumps(header).encode()
    path.write_bytes(
        blob[:4] + len(encoded).to_bytes(8, "little") + encoded + blob[12 + header_len :]
    )


def with_array_shape(name: str, reshape):
    """A header damage that passes array `name`'s shape through `reshape`."""
    def damage(header):
        spec = next(a for a in header["arrays"] if a["name"] == name)
        spec["shape"] = reshape(spec["shape"])
        return header
    return damage


# how each damage breaks a partition of the visits into folds, and the
# message the rejection must carry
NON_PARTITION = {
    "partial": "is in no fold",
    "overlap": "is in more than one fold",
}


def damaged_folds(folds, damage: str) -> list:
    """`partial` drops the last fold; `overlap` also puts fold 1's first
    visit into fold 0."""
    if damage == "partial":
        return list(folds[:-1])
    return [np.append(folds[0], folds[1][0])] + list(folds[1:])


def dead_visit_encoder(row: int, epoch: int):
    """A stand-in for cograca.pipeline.encode_batch that zeroes pooled row
    `row` from its call number `epoch` (counting from 0) on: a visit whose
    every pooled unit has died from that epoch of the first training run."""
    calls = itertools.count()

    def encode(params, graphs):
        pooled, *rest = encode_batch(params, graphs)
        if next(calls) >= epoch:
            pooled = pooled.copy()
            pooled[row] = 0.0
        return (pooled, *rest)
    return encode


def usable_cpus(monkeypatch, n: int) -> None:
    """Make every lane (`cograca.lanes`) see n usable CPUs, whatever the
    host has: the affinity they read is patched to n CPUs, and a forked
    worker's pin narrows its own copy of it to one."""
    mask = [set(range(n))]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(mask[0]), raising=False)
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: mask.__setitem__(0, set(cpus)),
                        raising=False)


def nothing_left() -> bool:
    """No lane thread is alive and no child is left to reap."""
    if any(t.name == "cograca-lane" for t in threading.enumerate()):
        return False
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


# one of each exception the package raises with attributes of its own
PACKAGE_ERRORS = [
    NonFiniteLossError(3, (1.0, float("nan"), 2.0)),
    NonFiniteLossError(0, stage="embedding"),
    DeadVisitError(2, "s004", 1),
    ZeroNormError("embedding", "s001", 2),
]


def same_error(got, want) -> bool:
    # repr, not ==: a NaN loss term is never equal to itself
    return (type(got) is type(want) and str(got) == str(want)
            and repr(vars(got)) == repr(vars(want)))


def traced_peak(fn, *args) -> tuple[int, object]:
    """The tracemalloc peak of fn(*args), over all threads, in bytes above
    the memory traced when it starts, and fn's result."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return tracemalloc.get_traced_memory()[1] - base, result
    finally:
        tracemalloc.stop()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
