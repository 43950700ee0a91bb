"""Reference multiview methods: PCA and FastICA over vectorized
connectivity, classical two-view CCA, and the composed baseline pipelines
(pca-cca, ica-cca, fmri-only-ica, cognition-only).

classical_cca doubles as the oracle for the generalized solver: with a
vanishing ridge, the two-view shared solution's top component reproduces the
first canonical correlation.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data import VisitRecord
from .numerics import _derive_seed, _lead_signs, sym_eig

__all__ = [
    "LinearReducer",
    "CcaModel",
    "FoldRepresentations",
    "pca_fit",
    "ica_fit",
    "classical_cca",
    "amari_index",
    "vectorize_connectivity",
    "baseline_pipeline",
    "out_of_fold_matrix",
]

BASELINE_KINDS = ("pca-cca", "ica-cca", "fmri-only-ica", "cognition-only")


@dataclass(frozen=True)
class LinearReducer:
    """A fitted linear map: components act on centered inputs.

    kind "pca" keeps orthonormal principal axes and their explained-variance
    ratios; kind "ica" stores the unmixing matrix as its components.
    """

    kind: str
    mean: np.ndarray
    components: np.ndarray
    explained_variance_ratio: np.ndarray | None = None
    unmixing: np.ndarray | None = None
    converged: bool = True
    identifiable: bool = True

    def transform(self, data: np.ndarray) -> np.ndarray:
        data = np.asarray(data, dtype=np.float64)
        return (data - self.mean) @ self.components.T

    def inverse_transform(self, reduced: np.ndarray) -> np.ndarray:
        if self.kind != "pca":
            raise ValueError("inverse_transform is only defined for PCA")
        return np.asarray(reduced, dtype=np.float64) @ self.components + self.mean


def pca_fit(
    data: np.ndarray,
    variance_threshold: float = 0.95,
    n_components: int | None = None,
) -> LinearReducer:
    """PCA on samples x features data.

    Keeps n_components axes when given, otherwise the smallest count whose
    cumulative explained-variance ratio reaches the threshold.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] < 2:
        raise ValueError("need a 2-D array with at least two samples")
    if not 0.0 < variance_threshold <= 1.0:
        raise ValueError(f"variance threshold must lie in (0, 1], got {variance_threshold}")
    mean = data.mean(axis=0)
    centered = data - mean
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    total = float((svals**2).sum())
    if total <= 0.0:
        raise ValueError("data has zero variance; nothing to reduce")
    ratios = svals**2 / total
    if n_components is None:
        n_components = int(np.searchsorted(np.cumsum(ratios), variance_threshold - 1e-12) + 1)
    if not 1 <= n_components <= len(svals):
        raise ValueError(f"component count {n_components} outside [1, {len(svals)}]")
    axes = vt[:n_components]
    return LinearReducer(
        kind="pca",
        mean=mean,
        components=axes * _lead_signs(axes.T)[:, None],
        explained_variance_ratio=ratios[:n_components],
    )


def _sym_decorrelate(w: np.ndarray) -> np.ndarray:
    # W <- (W W^T)^(-1/2) W keeps rows exactly decorrelated after each step
    dec = sym_eig(w @ w.T)
    vals = np.maximum(dec.eigenvalues, 1e-300)
    return (dec.eigenvectors / np.sqrt(vals)) @ dec.eigenvectors.T @ w


def ica_fit(
    data: np.ndarray,
    n_components: int = 20,
    seed: int = 0,
    tol: float = 1e-6,
    max_iter: int = 500,
) -> LinearReducer:
    """FastICA with whitening, symmetric decorrelation, and the tanh
    contrast. Non-convergence keeps the last iterate and flags the reducer;
    near-Gaussian recovered sources clear the identifiable flag."""
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise ValueError("need a 2-D samples x features array")
    n, d = data.shape
    if n <= n_components:
        raise ValueError(f"need more samples than components: {n} <= {n_components}")
    if n_components > d:
        raise ValueError(f"cannot extract {n_components} components from {d} features")
    mean = data.mean(axis=0)
    centered = data - mean
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    if svals[min(n_components, len(svals)) - 1] <= 1e-12 * max(1.0, svals[0]):
        raise ValueError("data rank is below the requested component count")
    # rows of k whiten the centered data to unit covariance
    k = np.sqrt(n) * (vt[:n_components] / svals[:n_components, None])
    white = centered @ k.T
    rng = np.random.default_rng(seed)
    w = _sym_decorrelate(rng.normal(size=(n_components, n_components)))
    converged = False
    for _ in range(max_iter):
        projected = white @ w.T
        g = np.tanh(projected)
        g_prime = 1.0 - g**2
        w_new = _sym_decorrelate(g.T @ white / n - g_prime.mean(axis=0)[:, None] * w)
        drift = float(np.abs(np.abs(np.einsum("ij,ij->i", w_new, w)) - 1.0).max())
        w = w_new
        if drift < tol:
            converged = True
            break
    if not converged:
        warnings.warn(f"FastICA did not converge within {max_iter} iterations")
    unmixing = w @ k
    sources = centered @ unmixing.T
    second = (sources**2).mean(axis=0)
    fourth = (sources**4).mean(axis=0)
    excess_kurtosis = fourth / second**2 - 3.0
    identifiable = bool(np.abs(excess_kurtosis).max() >= 0.2)
    if not identifiable:
        warnings.warn(
            "recovered sources look Gaussian; independent directions are not "
            "identifiable, returning decorrelated components"
        )
    return LinearReducer(
        kind="ica",
        mean=mean,
        components=unmixing,
        unmixing=unmixing,
        converged=converged,
        identifiable=identifiable,
    )


def amari_index(unmixing: np.ndarray, mixing: np.ndarray) -> float:
    """Permutation/scale-invariant distance between an estimated unmixing and
    the true mixing; 0 means exact recovery, 1 is the worst case."""
    p = np.abs(np.asarray(unmixing) @ np.asarray(mixing))
    c = p.shape[0]
    if p.shape != (c, c):
        raise ValueError(f"unmixing @ mixing must be square, got {p.shape}")
    row = (p.sum(axis=1) / p.max(axis=1) - 1.0).sum()
    col = (p.sum(axis=0) / p.max(axis=0) - 1.0).sum()
    return float((row + col) / (2.0 * c * (c - 1)))


@dataclass(frozen=True)
class CcaModel:
    """Classical two-view CCA: per-view means and projection weights, with
    canonical correlations sorted descending in [0, 1]."""

    x_weights: np.ndarray
    y_weights: np.ndarray
    correlations: np.ndarray
    x_mean: np.ndarray
    y_mean: np.ndarray

    def transform(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        return (x - self.x_mean) @ self.x_weights, (y - self.y_mean) @ self.y_weights


def _inv_sqrt(cov: np.ndarray, label: str) -> np.ndarray:
    dec = sym_eig(cov)
    vals = dec.eigenvalues
    if vals[-1] <= 1e-14 * max(1.0, vals[0]):
        raise ValueError(f"{label} covariance is rank deficient beyond the ridge rescue")
    return (dec.eigenvectors / np.sqrt(vals)) @ dec.eigenvectors.T


def classical_cca(x: np.ndarray, y: np.ndarray, n_pairs: int | None = None) -> CcaModel:
    """Whitening-plus-SVD CCA on samples x features views.

    A small relative ridge (1e-8 of the mean variance) keeps the within-view
    covariances invertible; correlations are clipped into [0, 1].
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ValueError("views must be 2-D with matching sample counts")
    n, dx = x.shape
    dy = y.shape[1]
    if n <= max(dx, dy):
        raise ValueError(f"need more samples than features: {n} <= max({dx}, {dy})")
    if n_pairs is None:
        n_pairs = min(dx, dy)
    if not 1 <= n_pairs <= min(dx, dy):
        raise ValueError(f"n_pairs {n_pairs} outside [1, {min(dx, dy)}]")
    x_mean = x.mean(axis=0)
    y_mean = y.mean(axis=0)
    xc = x - x_mean
    yc = y - y_mean
    sxx = xc.T @ xc / (n - 1)
    syy = yc.T @ yc / (n - 1)
    sxy = xc.T @ yc / (n - 1)
    sxx += 1e-8 * (np.trace(sxx) / dx) * np.eye(dx)
    syy += 1e-8 * (np.trace(syy) / dy) * np.eye(dy)
    ix = _inv_sqrt(sxx, "first view")
    iy = _inv_sqrt(syy, "second view")
    u, svals, vt = np.linalg.svd(ix @ sxy @ iy)
    # only the first n_pairs singular pairs are kept; fix their signs jointly
    signs = _lead_signs(u[:, :n_pairs])
    u = u[:, :n_pairs] * signs
    vt = vt[:n_pairs] * signs[:, None]
    return CcaModel(
        x_weights=ix @ u,
        y_weights=iy @ vt.T,
        correlations=np.clip(svals[:n_pairs], 0.0, 1.0),
        x_mean=x_mean,
        y_mean=y_mean,
    )


def vectorize_connectivity(matrix: np.ndarray) -> np.ndarray:
    """Strict upper triangle, row-major — the V(V-1)/2 unique off-diagonal
    values of a symmetric matrix."""
    matrix = np.asarray(matrix, dtype=np.float64)
    v = matrix.shape[0]
    return matrix[np.triu_indices(v, k=1)]


@dataclass(frozen=True)
class FoldRepresentations:
    """One fold's output: representations for its training and test visits,
    from models fit on the training visits only."""

    fold: int
    train_indices: np.ndarray
    test_indices: np.ndarray
    train_representations: np.ndarray
    test_representations: np.ndarray


def _zscore_train(train: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mean = train.mean(axis=0)
    std = train.std(axis=0)
    std = np.where(std < 1e-12, 1.0, std)
    return mean, std


def baseline_pipeline(
    records: list[VisitRecord],
    kind: str,
    folds: list[np.ndarray],
    n_components: int = 20,
    variance_threshold: float = 0.95,
    seed: int = 0,
) -> list[FoldRepresentations]:
    """Fit one baseline per fold on the training visits and represent both
    splits. fMRI features are the vectorized thresholded connectivity."""
    if kind not in BASELINE_KINDS:
        raise ValueError(f"kind must be one of {BASELINE_KINDS}, got {kind!r}")
    feats = np.stack([vectorize_connectivity(r.graph.adjacency) for r in records])
    cogs = np.stack([r.cognition for r in records])
    n = len(records)
    all_idx = np.arange(n)
    splits = []
    for fold_idx, test in enumerate(folds):
        train = np.setdiff1d(all_idx, test)
        splits.append((fold_idx, train, test))

    def fit_reducer(fold_idx: int, train: np.ndarray) -> LinearReducer:
        if kind == "ica-cca" or kind == "fmri-only-ica":
            return ica_fit(feats[train], n_components, seed=_derive_seed(seed, fold_idx))
        return pca_fit(feats[train], variance_threshold)

    results: list[FoldRepresentations] = []
    if kind == "cognition-only":
        for fold_idx, train, test in splits:
            mean, std = _zscore_train(cogs[train])
            results.append(
                FoldRepresentations(
                    fold=fold_idx,
                    train_indices=train,
                    test_indices=test,
                    train_representations=(cogs[train] - mean) / std,
                    test_representations=(cogs[test] - mean) / std,
                )
            )
        return results
    reducers = {fold_idx: fit_reducer(fold_idx, train) for fold_idx, train, _ in splits}
    if kind == "fmri-only-ica":
        for fold_idx, train, test in splits:
            red = reducers[fold_idx]
            results.append(
                FoldRepresentations(
                    fold=fold_idx,
                    train_indices=train,
                    test_indices=test,
                    train_representations=red.transform(feats[train]),
                    test_representations=red.transform(feats[test]),
                )
            )
        return results
    # composed *-cca kinds: keep a representation width all folds can produce
    d_cog = cogs.shape[1]
    n_pairs = min(
        d_cog, min(reducers[f].components.shape[0] for f, _, _ in splits)
    )
    for fold_idx, train, test in splits:
        red = reducers[fold_idx]
        reduced_train = red.transform(feats[train])
        reduced_test = red.transform(feats[test])
        cca = classical_cca(reduced_train, cogs[train], n_pairs=n_pairs)
        tr_x, tr_y = cca.transform(reduced_train, cogs[train])
        te_x, te_y = cca.transform(reduced_test, cogs[test])
        results.append(
            FoldRepresentations(
                fold=fold_idx,
                train_indices=train,
                test_indices=test,
                train_representations=(tr_x + tr_y) / 2.0,
                test_representations=(te_x + te_y) / 2.0,
            )
        )
    return results


def out_of_fold_matrix(
    results: list[FoldRepresentations], n_visits: int
) -> tuple[np.ndarray, np.ndarray]:
    """Assemble each visit's held-out representation. Returns (matrix, fold
    id per visit)."""
    dim = results[0].test_representations.shape[1]
    reps = np.zeros((n_visits, dim))
    fold_of = np.full(n_visits, -1, dtype=np.int64)
    for res in results:
        reps[res.test_indices] = res.test_representations
        fold_of[res.test_indices] = res.fold
    if (fold_of < 0).any():
        raise ValueError("folds do not cover every visit")
    return reps, fold_of
