"""Deterministic numerical primitives shared by the rest of the package.

Symmetric eigendecomposition with a fixed sign/order convention, the thin
SVD that goes through it on a matrix's small Gram side (or, for a few
directions of a large matrix, through a block Krylov space of that Gram
matrix), the softmax cross-entropy of the contrastive and MLP losses, a pure
functional Adam update, Glorot-uniform initialization, the finiteness rule
for config values, and the three statistics used by the evaluation stack
(Pearson correlation, 1-D Wasserstein distance, Mann-Whitney U).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields, replace
from typing import NamedTuple

import numpy as np

__all__ = [
    "EigenDecomposition",
    "AdamState",
    "MannWhitneyResult",
    "sym_eig",
    "gram_svd",
    "adam_step",
    "glorot",
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


_KRYLOV_OVERSAMPLE = 10  # extra start-block columns beyond the k wanted
_KRYLOV_MIN_BLOCKS = 32  # small side, in block widths, from which Krylov is used
_KRYLOV_RESIDUAL = 1e-13  # accepted ||G u - theta u||, relative to theta_0


def _lift(lifted: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Orthonormal columns from A^T-lifted left singular vectors, under the
    sign and degenerate-ordering contract. A lifted column's norm is its
    singular value; QR normalises it and completes null and padding columns
    orthogonally to the rest."""
    vectors = np.linalg.qr(lifted)[0]
    vectors = vectors * _lead_signs(vectors)
    return _order_degenerate(values, vectors)[1]


def _krylov_svd(a: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """`gram_svd`'s subset path: the top k eigenpairs of the Gram matrix G on
    A's smaller side from a block Krylov space, without forming G.

    With B = A (wide) or A^T (tall), G = B B^T. Blocks are stored as rows:
    Q_j spans the j-th Krylov block and W_j = (Q_j B) B^T = Q_j G, so the
    projected matrix Q G Q^T = W Q^T and the residuals of its Ritz pairs
    come from kept products; B is read twice per block, and once more to
    lift a wide A's left vectors. Each new block is orthogonalised against
    the basis twice (project out, then QR; twice). The start block is drawn
    from a fixed seed, so a rerun repeats the result bit for bit. Returns
    the k Ritz values (descending) and the k x n right singular vectors once
    every Ritz pair has ||G u - theta u|| <= 1e-13 theta_0; raises
    LinAlgError if the basis would outgrow the small side first.
    """
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    wide = a.shape[0] < a.shape[1]
    b = a if wide else a.T
    small, width = b.shape[0], k + _KRYLOV_OVERSAMPLE
    blocks = small // width
    # sized for the largest basis; a solve touches only the rows it writes
    basis = np.empty((blocks * width, small))
    gram_image = np.empty((blocks * width, small))
    projected = np.empty((blocks * width, blocks * width))  # lower triangle only
    block = np.random.default_rng(0).standard_normal((width, small))
    block = np.linalg.qr(block.T)[0].T
    for j in range(blocks):
        lo, hi = j * width, (j + 1) * width
        basis[lo:hi] = block
        gram_image[lo:hi] = (block @ b) @ b.T
        projected[lo:hi, :hi] = gram_image[lo:hi] @ basis[:hi].T
        theta, u = np.linalg.eigh(projected[:hi, :hi], UPLO="L")
        theta, u = theta[::-1][:k], u[:, ::-1][:, :k]
        ritz = u.T @ basis[:hi]
        residual = np.linalg.norm(u.T @ gram_image[:hi] - theta[:, None] * ritz, axis=1)
        if np.all(residual <= _KRYLOV_RESIDUAL * theta[0]):
            if wide:
                vectors = _lift((ritz @ b).T, theta)
            else:
                vectors = ritz.T * _lead_signs(ritz.T)
                _, vectors = _order_degenerate(theta, vectors)
            return theta, vectors.T
        block = gram_image[lo:hi]
        for _ in range(2):
            block = block - (block @ basis[:hi].T) @ basis[:hi]
            block = np.linalg.qr(block.T)[0].T
    raise np.linalg.LinAlgError(
        f"block Krylov solve for {k} singular vectors of a {a.shape[0]} x {a.shape[1]} "
        f"matrix did not converge in {blocks} blocks: max residual "
        f"{residual.max() / theta[0]:.2e} of the largest eigenvalue"
    )


def gram_svd(a: np.ndarray, k: int, eig=sym_eig) -> tuple[np.ndarray, np.ndarray]:
    """Singular values and top-k right singular vectors of A (m x n), from
    the Gram matrix on A's smaller side.

    Gram path: with n <= m the Gram matrix is A^T A (n x n), whose
    eigenvectors are the right singular vectors. Otherwise it is A A^T
    (m x m): its eigenvectors are the left singular vectors, lifted by A^T
    and orthonormalised by QR. The cost is one Gram product and one
    min(m, n)-sized eigendecomposition by `eig`, not an m x n factorisation.
    `eig` is `sym_eig`; a caller passes the name it resolves in its own
    module, so a wrapper installed there sees the solve.

    Subset path: when the smaller side is at least 32 block widths of
    k + 10 columns, the top k eigenpairs come instead from a block Krylov
    space of that Gram matrix, which is never formed (Halko, Martinsson &
    Tropp 2011, arXiv:0909.4061; Musco & Musco 2015, arXiv:1504.05477). A
    solve on a decaying spectrum takes 10 to 15 blocks, each reading A
    twice; from that size on this takes less time than the Gram product and
    its eigensolver, and far less memory. It returns once every top-k Ritz
    pair has ||G u - theta u|| <= 1e-13 theta_0 and raises numpy's
    LinAlgError if the basis would outgrow the smaller side first, so no
    unchecked result comes back. The choice depends on the shape and k
    alone; `eig` is not called.

    Returns (svals, vt): the singular values, descending (Gram eigenvalues
    clipped at 0 before the root), and the k x n top right singular vectors
    as orthonormal rows under `sym_eig`'s sign and ordering contract. The
    Gram path returns all min(m, n) singular values, the subset path only
    the top k; a caller that needs the total takes it from ||A||_F^2. Either
    form resolves a singular value only down to about
    sqrt(max(m, n) * eps) * s_0; rows at or below that floor (and any beyond
    m) are an orthonormal completion, which lies in A's null space.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {a.shape}")
    m, n = a.shape
    if not 1 <= k <= n:
        raise ValueError(f"requested {k} right singular vectors of a {m} x {n} matrix")
    if min(m, n) >= _KRYLOV_MIN_BLOCKS * (k + _KRYLOV_OVERSAMPLE):
        theta, vt = _krylov_svd(a, k)
        return np.sqrt(np.maximum(theta, 0.0)), vt
    if n <= m:
        dec = eig(a.T @ a)
        vectors = dec.eigenvectors[:, :k]
    else:
        dec = eig(a @ a.T)
        top = min(k, m)
        lifted = np.zeros((n, k))
        lifted[:, :top] = a.T @ dec.eigenvectors[:, :top]
        values = np.zeros(k)
        values[:top] = dec.eigenvalues[:top]
        vectors = _lift(lifted, values)
    return np.sqrt(np.maximum(dec.eigenvalues, 0.0)), vectors.T


def _softmax_xent(
    logits: np.ndarray, positive: np.ndarray, candidates: np.ndarray
) -> tuple[float, np.ndarray]:
    """Sum over `positive` (i, j) of -log softmax_i(j), row i's softmax taken
    over its `candidates` (boolean masks shaped like `logits`, at least one
    candidate a row; a positive need not be one), and its gradient wrt the
    logits, c_i softmax_i - 1[positive] for row i's c_i positives, written
    over `logits`."""
    target = float(np.where(positive, logits, 0.0).sum())
    np.copyto(logits, -np.inf, where=~candidates)
    row_max = logits.max(axis=1, keepdims=True)
    logits -= row_max
    np.exp(logits, out=logits)
    z = logits.sum(axis=1, keepdims=True)
    counts = positive.sum(axis=1)
    row_max += np.log(z)  # each row's log-sum-exp
    loss = float(counts @ row_max[:, 0]) - target
    logits /= z
    logits *= counts[:, None]
    logits -= positive
    return loss, logits


_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator floor


@dataclass(frozen=True)
class AdamState:
    """Optimizer state for one parameter array. Immutable; `adam_step`
    returns the advanced state."""

    step: int
    m: np.ndarray
    v: np.ndarray
    lr: float = 0.001

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
    m = _BETA1 * state.m + (1.0 - _BETA1) * grads
    v = _BETA2 * state.v + (1.0 - _BETA2) * grads**2
    m_hat = m / (1.0 - _BETA1**t)
    v_hat = v / (1.0 - _BETA2**t)
    updated = params - state.lr * m_hat / (np.sqrt(v_hat) + _EPS)
    return updated, replace(state, step=t, m=m, v=v)


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int, shape=None) -> np.ndarray:
    """Glorot-uniform weights of `shape`, by default (fan_in, fan_out)."""
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out) if shape is None else shape)


def _check_finite(config) -> None:
    """Raise ValueError naming the first float field of dataclass `config`
    that is NaN or infinite, which range comparisons let through."""
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value}")


def _unflatten(flat: np.ndarray, shapes: dict) -> dict:
    """Views of `flat`, one per named shape, laid out in dict order."""
    views, offset = {}, 0
    for key, shape in shapes.items():
        size = math.prod(shape)
        views[key] = flat[offset : offset + size].reshape(shape)
        offset += size
    return views


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
