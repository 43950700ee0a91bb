"""Deterministic numerical primitives shared by the rest of the package.

Symmetric eigendecomposition with a fixed sign/order convention, a pure
functional Adam update, and the three statistics used by the evaluation
stack (Pearson correlation, 1-D Wasserstein distance, Mann-Whitney U).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

__all__ = [
    "EigenDecomposition",
    "AdamState",
    "MannWhitneyResult",
    "sym_eig",
    "adam_step",
    "pearson",
    "wasserstein_1d",
    "mann_whitney_u",
]


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues sorted descending; eigenvector column j pairs with value j."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _lead_signs(vectors: np.ndarray) -> np.ndarray:
    """The sign of each column's largest-magnitude entry (first on ties),
    with 0 counted as +1. Multiplying the columns by it is the package's
    one sign convention for eigen-, singular and principal vectors."""
    lead = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[lead, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return signs


def _derive_seed(seed: int, key: int) -> int:
    """An independent child seed for sub-run `key` (a fold or a repeat)."""
    return int(np.random.SeedSequence(seed, spawn_key=(key,)).generate_state(1)[0])


def _order_degenerate(values: np.ndarray, vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Within groups of (numerically) equal eigenvalues, order the
    sign-normalized eigenvectors lexicographically so degenerate spectra
    decompose reproducibly."""
    n = len(values)
    if n < 2:
        return values, vectors
    tol = 1e-12 * max(1.0, float(np.abs(values).max()))
    start = 0
    for stop in range(1, n + 1):
        if stop == n or abs(values[stop] - values[start]) > tol:
            if stop - start > 1:
                cols = vectors[:, start:stop]
                # lexsort keys: last key is primary, so reverse the rows
                order = np.lexsort(cols[::-1, :])
                vectors[:, start:stop] = cols[:, order]
            start = stop
    return values, vectors


def sym_eig(a: np.ndarray) -> EigenDecomposition:
    """Eigendecomposition of a symmetric matrix.

    Returns eigenvalues in descending order with orthonormal eigenvector
    columns. The sign of each eigenvector is fixed (largest-magnitude entry
    nonnegative) and equal-eigenvalue groups are ordered lexicographically,
    so the result is deterministic for a given input.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    scale = max(1.0, float(np.abs(a).max()))
    asym = float(np.abs(a - a.T).max())
    if asym > 1e-10 * scale:
        raise ValueError(
            f"matrix is not symmetric: max |A - A^T| = {asym:.3e} exceeds tolerance"
        )
    sym = (a + a.T) / 2.0
    values, vectors = np.linalg.eigh(sym)
    order = np.argsort(-values, kind="stable")
    values = values[order]
    vectors = vectors[:, order]
    vectors = vectors * _lead_signs(vectors)
    values, vectors = _order_degenerate(values, vectors)
    return EigenDecomposition(eigenvalues=values, eigenvectors=vectors)


@dataclass(frozen=True)
class AdamState:
    """Optimizer state for one parameter array. Immutable; `adam_step`
    returns the advanced state."""

    step: int
    m: np.ndarray
    v: np.ndarray
    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self) -> None:
        if self.step < 0:
            raise ValueError("step count must be nonnegative")
        if self.m.shape != self.v.shape:
            raise ValueError("moment buffers must share a shape")

    @classmethod
    def for_params(cls, params: np.ndarray, lr: float = 0.001) -> "AdamState":
        shape = np.shape(params)
        return cls(step=0, m=np.zeros(shape), v=np.zeros(shape), lr=lr)


def adam_step(
    state: AdamState, params: np.ndarray, grads: np.ndarray
) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected Adam update. Pure: neither input is mutated."""
    params = np.asarray(params, dtype=np.float64)
    grads = np.asarray(grads, dtype=np.float64)
    if params.shape != grads.shape:
        raise ValueError(
            f"parameter shape {params.shape} does not match gradient shape {grads.shape}"
        )
    if state.m.shape != params.shape:
        raise ValueError(
            f"optimizer state shape {state.m.shape} does not match parameters {params.shape}"
        )
    t = state.step + 1
    m = state.beta1 * state.m + (1.0 - state.beta1) * grads
    v = state.beta2 * state.v + (1.0 - state.beta2) * grads**2
    m_hat = m / (1.0 - state.beta1**t)
    v_hat = v / (1.0 - state.beta2**t)
    updated = params - state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return updated, replace(state, step=t, m=m, v=v)


def _as_vector(x, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} contains non-finite entries")
    return x


def pearson(x, y) -> float:
    """Pearson correlation of two equal-length vectors."""
    x = _as_vector(x, "x")
    y = _as_vector(y, "y")
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    if len(x) < 2:
        raise ValueError("need at least two observations")
    xc = x - x.mean()
    yc = y - y.mean()
    sx = float(np.sqrt(xc @ xc))
    sy = float(np.sqrt(yc @ yc))
    if sx <= 1e-12 * max(1.0, float(np.abs(x).max())):
        raise ValueError("x has zero variance")
    if sy <= 1e-12 * max(1.0, float(np.abs(y).max())):
        raise ValueError("y has zero variance")
    return float(np.clip((xc @ yc) / (sx * sy), -1.0, 1.0))


def wasserstein_1d(a, b) -> float:
    """Wasserstein-1 distance between the empirical distributions of two
    samples, via the quantile-function coupling."""
    a = _as_vector(a, "a")
    b = _as_vector(b, "b")
    if len(a) == 0 or len(b) == 0:
        raise ValueError("samples must be nonempty")
    a = np.sort(a)
    b = np.sort(b)
    support = np.sort(np.concatenate([a, b]))
    deltas = np.diff(support)
    if deltas.size == 0 or support[0] == support[-1]:
        return 0.0
    cdf_a = np.searchsorted(a, support[:-1], side="right") / len(a)
    cdf_b = np.searchsorted(b, support[:-1], side="right") / len(b)
    return float(np.sum(np.abs(cdf_a - cdf_b) * deltas))


class MannWhitneyResult(NamedTuple):
    u: float
    p_value: float
    degenerate: bool = False


def _midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties assigned the mean of their rank range."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    upper = np.cumsum(counts)
    mean_rank = upper - (counts - 1) / 2.0
    return mean_rank[inverse]


def mann_whitney_u(a, b) -> MannWhitneyResult:
    """Two-sided Mann-Whitney U test.

    U is computed for the first sample from midrank sums; the p-value uses
    the normal approximation with tie-corrected variance and a continuity
    correction. If every value in both samples is identical the test is
    degenerate and (U = n1*n2/2, p = 1) is returned with a warning.
    """
    a = _as_vector(a, "a")
    b = _as_vector(b, "b")
    if len(a) == 0 or len(b) == 0:
        raise ValueError("samples must be nonempty")
    n1, n2 = len(a), len(b)
    combined = np.concatenate([a, b])
    mu = n1 * n2 / 2.0
    if np.all(combined == combined[0]):
        warnings.warn("all values identical across both samples; test is degenerate")
        return MannWhitneyResult(u=mu, p_value=1.0, degenerate=True)
    ranks = _midranks(combined)
    r1 = float(ranks[:n1].sum())
    u1 = r1 - n1 * (n1 + 1) / 2.0
    n = n1 + n2
    _, counts = np.unique(combined, return_counts=True)
    tie_term = float(np.sum(counts.astype(np.float64) ** 3 - counts)) / (n * (n - 1))
    var = n1 * n2 / 12.0 * ((n + 1) - tie_term)
    if var <= 0.0:
        warnings.warn("rank variance vanished; test is degenerate")
        return MannWhitneyResult(u=u1, p_value=1.0, degenerate=True)
    diff = u1 - mu
    z = (diff - 0.5 * np.sign(diff)) / math.sqrt(var)
    p = min(1.0, math.erfc(abs(z) / math.sqrt(2.0)))
    return MannWhitneyResult(u=u1, p_value=p, degenerate=False)
