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

from . import lanes
from .data import VisitRecord
from .gcca import _row_stats
from .numerics import _derive_seed, _lead_signs, gram_svd, sym_eig
from .pipeline import FoldSplit, fold_splits, out_of_fold

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


@dataclass(frozen=True)
class _Centered:
    """Samples x features rows already centred, in place, and the mean taken
    off them: `baseline_pipeline` hands a fold's training rows to the fits
    this way, so no fit copies them."""

    rows: np.ndarray
    mean: np.ndarray


def _centered(data) -> tuple[np.ndarray, np.ndarray]:
    """(centered rows, column mean) of a fit's 2-D input."""
    if isinstance(data, _Centered):
        return data.rows, data.mean
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] < 2:
        raise ValueError("need a 2-D samples x features array with at least two samples")
    mean = data.mean(axis=0)
    return data - mean, mean


def pca_fit(
    data: np.ndarray,
    variance_threshold: float = 0.95,
    n_components: int | None = None,
) -> LinearReducer:
    """PCA on samples x features data.

    Keeps n_components axes when given, otherwise the smallest count whose
    cumulative explained-variance ratio reaches the threshold. The axes come
    from `gram_svd` of the centered data (the Gram matrix on its smaller
    side), so they carry `sym_eig`'s sign convention; the ratios divide each
    axis's variance by the total, ||centered||_F^2, which holds whether
    `gram_svd` returns the whole spectrum or only the requested top.
    """
    centered, mean = _centered(data)
    if not 0.0 < variance_threshold <= 1.0:
        raise ValueError(f"variance threshold must lie in (0, 1], got {variance_threshold}")
    rank_max = min(centered.shape)
    if n_components is not None and not 1 <= n_components <= rank_max:
        raise ValueError(f"component count {n_components} outside [1, {rank_max}]")
    svals, vt = gram_svd(centered, n_components or rank_max)
    total = float(np.einsum("ij,ij->", centered, centered))
    if total <= 0.0:
        raise ValueError("data has zero variance; nothing to reduce")
    ratios = svals**2 / total
    if n_components is None:
        n_components = int(np.searchsorted(np.cumsum(ratios), variance_threshold - 1e-12) + 1)
    return LinearReducer(
        kind="pca",
        mean=mean,
        components=vt[:n_components],
        explained_variance_ratio=ratios[:n_components],
    )


_ORBIT_TOL = 1e-14  # max |w_t - w_{t-2}| read as a period-2 orbit of the update


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
    near-Gaussian recovered sources clear the identifiable flag.

    Whitening takes the top n_components right singular vectors of the
    centered data from `gram_svd` (the Gram matrix on its smaller side), so
    they carry `sym_eig`'s sign convention. The data must have that many
    directions whose Gram eigenvalue exceeds 1e-10 of the largest (a
    singular value above 1e-5 of the largest): a null direction's Gram
    eigenvalue reads up to about max(n, d) * eps of the largest, not 0.

    The symmetric update can lock into a period-2 orbit, w_t = w_{t-2} to
    rounding while the drift stays above tol. The fit then stops early,
    unconverged, with the orbit's iterate of max_iter's parity, which is
    what iterating to the cap would return.
    """
    centered, mean = _centered(data)
    n, d = centered.shape
    if n <= n_components:
        raise ValueError(f"need more samples than components: {n} <= {n_components}")
    if n_components > d:
        raise ValueError(f"cannot extract {n_components} components from {d} features")
    svals, vt = gram_svd(centered, n_components)
    if svals[n_components - 1] ** 2 <= 1e-10 * svals[0] ** 2:
        raise ValueError("data rank is below the requested component count")
    # rows of k whiten the centered data to unit covariance
    k = np.sqrt(n) * (vt[:n_components] / svals[:n_components, None])
    white = centered @ k.T
    rng = np.random.default_rng(seed)
    w = _sym_decorrelate(rng.normal(size=(n_components, n_components)))
    before = w
    converged = False
    for it in range(1, max_iter + 1):
        projected = white @ w.T
        g = np.tanh(projected)
        g_prime = 1.0 - g**2
        w_new = _sym_decorrelate(g.T @ white / n - g_prime.mean(axis=0)[:, None] * w)
        drift = float(np.abs(np.abs(np.einsum("ij,ij->i", w_new, w)) - 1.0).max())
        if drift < tol:
            w, converged = w_new, True
            break
        if np.abs(w_new - before).max() <= _ORBIT_TOL:
            # iterating on alternates w and w_new; max_iter ends on w_new if max_iter - it is even
            w = w if (max_iter - it) % 2 else w_new
            warnings.warn(
                f"FastICA did not converge: the update entered a period-2 orbit at "
                f"iteration {it} of {max_iter} (drift {drift:.3g}); stopped there"
            )
            break
        before, w = w, w_new
    else:
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
class FoldRepresentations(FoldSplit):
    """One fold's split and the representations of its test visits, from
    models fit on the training visits only."""

    test_representations: np.ndarray


def baseline_pipeline(
    records: list[VisitRecord],
    kind: str,
    folds: list[np.ndarray],
    n_components: int = 20,
    variance_threshold: float = 0.95,
    seed: int = 0,
) -> list[FoldRepresentations]:
    """Fit one baseline per fold on the training visits and represent the
    fold's test visits. The folds may be any list of test folds (one
    held-out fold is enough); they need not partition the visits. The fMRI
    fits run on the fork lanes (`lanes.forks`: one forked worker per usable
    CPU, each holding one fold's training rows). fMRI features
    are the vectorized thresholded connectivity. FastICA folds that stop at
    the iteration limit are reported in one warning with their count."""
    if kind not in BASELINE_KINDS:
        raise ValueError(f"kind must be one of {BASELINE_KINDS}, got {kind!r}")
    cogs = np.stack([r.cognition for r in records])
    splits = fold_splits(folds, len(records))

    def fit(s: FoldSplit):
        # the fitted reducer, and the training and test visits through it; the
        # fold's training rows are centred in place for the fit
        rows = _edge_rows(records, s.train_indices)
        mean = rows.mean(axis=0)
        rows -= mean
        red = (pca_fit(_Centered(rows, mean), variance_threshold) if kind == "pca-cca"
               else ica_fit(_Centered(rows, mean), n_components, seed=_derive_seed(seed, s.fold)))
        return red, rows @ red.components.T, red.transform(_edge_rows(records, s.test_indices))

    fits: list[tuple | None] = [None] * len(splits)
    if kind != "cognition-only":
        # one non-convergence warning for the whole call, not one per fold
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", message="FastICA did not converge")
            fits = list(lanes.forks(fit, splits))
        stalled = sum(not red.converged for red, _, _ in fits)
        if stalled:
            warnings.warn(
                f"FastICA did not converge in {stalled} of {len(splits)} folds; "
                "those folds keep the last iterate"
            )
        # composed *-cca kinds: keep a representation width all folds can produce
        n_pairs = min(cogs.shape[1], min(red.components.shape[0] for red, _, _ in fits))
    results = []
    for split, fit in zip(splits, fits):
        train, test = split.train_indices, split.test_indices
        if fit is None:  # cognition-only: z-scored with the training visits' stats
            mean, std, _ = _row_stats(cogs[train].T)
            reps = (cogs[test] - mean) / std
        elif kind == "fmri-only-ica":
            reps = fit[2]
        else:
            _, train_reps, test_reps = fit
            cca = classical_cca(train_reps, cogs[train], n_pairs=n_pairs)
            x, y = cca.transform(test_reps, cogs[test])
            reps = (x + y) / 2.0
        results.append(FoldRepresentations(split.fold, train, test, reps))
    return results


def _edge_rows(records: list[VisitRecord], indices: np.ndarray) -> np.ndarray:
    """`vectorize_connectivity` of the indexed visits, one row each, written
    straight into one matrix; the triangle's indices are made once."""
    upper = np.triu_indices(records[0].graph.adjacency.shape[0], k=1)
    rows = np.empty((len(indices), len(upper[0])))
    for row, i in zip(rows, indices):
        row[:] = records[i].graph.adjacency[upper]
    return rows


def out_of_fold_matrix(
    results: list[FoldRepresentations], n_visits: int
) -> tuple[np.ndarray, np.ndarray]:
    """Assemble each visit's held-out representation. Returns (matrix, fold
    id per visit). The results' folds must partition the visits (see
    out_of_fold)."""
    return out_of_fold(results, [r.test_representations for r in results], n_visits)
