"""Two-view generalized CCA over graph embeddings and cognitive scores.

Both views are row z-scored (training statistics reused on held-out data),
then the shared representation R is read off the top eigenvectors of the sum
of the two ridge-regularized projection matrices, through the thin factor
that stacks both views' whitened features. The correlation loss and
its gradient with respect to the brain view are closed-form, which is what
lets the encoder train by alternating solves with gradient steps.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .numerics import gram_svd, pearson, sym_eig

__all__ = [
    "ViewMatrix",
    "PreprocessStats",
    "GccaSolution",
    "Fingerprint",
    "preprocess_views",
    "solve_gcca",
    "corr_loss",
    "corr_grad_brain",
    "component_correlations",
    "project_fingerprint",
]

_VIEW_NAMES = ("brain", "cognition")
_FINGERPRINT_TAGS = ("train-shared", "test-brain", "test-cognition", "test-fused")


@dataclass(frozen=True)
class ViewMatrix:
    """One view's features, one column per visit."""

    features: np.ndarray
    name: str

    def __post_init__(self) -> None:
        feats = np.asarray(self.features, dtype=np.float64)
        if feats.ndim != 2:
            raise ValueError(f"view features must be 2-D, got shape {feats.shape}")
        if not np.all(np.isfinite(feats)):
            raise ValueError(f"view {self.name!r} contains non-finite entries")
        if self.name not in _VIEW_NAMES:
            raise ValueError(f"view name must be one of {_VIEW_NAMES}, got {self.name!r}")
        object.__setattr__(self, "features", feats)

    @property
    def n_visits(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class PreprocessStats:
    """Per-row means and standard deviations from a training fold.
    Degenerate (zero-variance) rows keep std 1 so they are centered only."""

    brain_mean: np.ndarray
    brain_std: np.ndarray
    cog_mean: np.ndarray
    cog_std: np.ndarray


def _row_stats(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row means, row stds (1 where degenerate) and the degenerate rows."""
    mean = raw.mean(axis=1)
    std = raw.std(axis=1)
    degenerate = std < 1e-12
    return mean, np.where(degenerate, 1.0, std), np.flatnonzero(degenerate)


def _fit_stats(
    brain_raw: np.ndarray, cog_raw: np.ndarray
) -> tuple[PreprocessStats, dict[str, np.ndarray]]:
    """Both views' z-scoring statistics, plus each view's zero-variance rows
    keyed by the view label the warning names."""
    b_mean, b_std, b_rows = _row_stats(brain_raw)
    c_mean, c_std, c_rows = _row_stats(cog_raw)
    stats = PreprocessStats(brain_mean=b_mean, brain_std=b_std, cog_mean=c_mean, cog_std=c_std)
    return stats, {"brain view": b_rows, "cognition view": c_rows}


def preprocess_views(
    brain_raw: np.ndarray,
    cog_raw: np.ndarray,
    stats: PreprocessStats | None = None,
) -> tuple[ViewMatrix, ViewMatrix, PreprocessStats]:
    """Row z-score both views (features x visits).

    With stats=None the statistics are computed from the given data (the
    training fold), warning about zero-variance rows; pass a training fold's
    stats to transform held-out data.
    """
    brain_raw = np.asarray(brain_raw, dtype=np.float64)
    cog_raw = np.asarray(cog_raw, dtype=np.float64)
    if brain_raw.ndim != 2 or cog_raw.ndim != 2:
        raise ValueError("views must be 2-D (features x visits)")
    if brain_raw.shape[1] != cog_raw.shape[1]:
        raise ValueError(
            f"visit counts differ: brain {brain_raw.shape[1]} vs cognition {cog_raw.shape[1]}"
        )
    if stats is None:
        stats, degenerate = _fit_stats(brain_raw, cog_raw)
        for label, rows in degenerate.items():
            if rows.size:
                warnings.warn(
                    f"{label} rows {rows.tolist()} have zero variance; "
                    "centering without scaling"
                )
    if stats.brain_mean.shape[0] != brain_raw.shape[0]:
        raise ValueError("stats do not match the brain view's feature count")
    if stats.cog_mean.shape[0] != cog_raw.shape[0]:
        raise ValueError("stats do not match the cognition view's feature count")
    brain = (brain_raw - stats.brain_mean[:, None]) / stats.brain_std[:, None]
    cog = (cog_raw - stats.cog_mean[:, None]) / stats.cog_std[:, None]
    return (
        ViewMatrix(features=brain, name="brain"),
        ViewMatrix(features=cog, name="cognition"),
        stats,
    )


@dataclass(frozen=True)
class GccaSolution:
    """Shared representation and per-view loadings.

    R is d_R x N with orthonormal rows (R R^T = I); its columns are the
    training visits' fingerprints. U_view maps a view's features into the
    shared space. eigenvalues are the min(N, d_brain + d_cog) eigenvalues of
    M = P_brain + P_cognition that can be non-zero, descending; a model
    file written with the full length-N spectrum loads unchanged.
    """

    r: np.ndarray
    u_brain: np.ndarray
    u_cog: np.ndarray
    eigenvalues: np.ndarray
    ridge: tuple[float, float]

    @property
    def d_r(self) -> int:
        return self.r.shape[0]


def _whitened(x: np.ndarray, ridge: float | None) -> tuple[np.ndarray, np.ndarray, float]:
    """L^-1 X for the Cholesky factor L of C = X X^T + eps I, plus C and eps.
    (L^-1 X)^T (L^-1 X) = X^T C^-1 X is the view's projection matrix P."""
    d = x.shape[0]
    cov = x @ x.T
    if ridge is None:
        trace = float(np.trace(cov))
        eps = 1e-4 * trace / d if trace > 0.0 else 1e-4
    else:
        eps = float(ridge)
    cov = cov + eps * np.eye(d)
    return np.linalg.solve(np.linalg.cholesky(cov), x), cov, eps


def solve_gcca(
    brain: ViewMatrix, cog: ViewMatrix, d_r: int = 16, ridge: float | None = None
) -> GccaSolution:
    """Solve the two-view problem.

    R holds the top d_r eigenvectors of M = P_brain + P_cognition, where
    P = X^T (X X^T + eps I)^-1 X. M is never formed: it is B^T B for the
    (d_brain + d_cog) x N stack B of both views' Cholesky-whitened factors
    (the MAXVAR construction), so R is B's top d_r right singular vectors
    and M's eigenvalues are B's squared singular values, both read off the
    Gram matrix on B's smaller side. Loadings follow as
    U = (X X^T + eps I)^-1 X R^T. ridge=None applies a scaled ridge
    (1e-4 * trace / d per view); a float is used verbatim for both views.
    """
    n = brain.n_visits
    if cog.n_visits != n:
        raise ValueError("views must cover the same visits")
    if n <= d_r:
        raise ValueError(
            f"need more visits than shared dimensions: N={n} requires d_r < {n}"
        )
    white_b, cov_b, eps_b = _whitened(brain.features, ridge)
    white_c, cov_c, eps_c = _whitened(cog.features, ridge)
    # sym_eig by this module's name, so a wrapper installed on it sees the solve
    svals, r = gram_svd(np.vstack([white_b, white_c]), d_r, eig=sym_eig)
    u_brain = np.linalg.solve(cov_b, brain.features @ r.T)
    u_cog = np.linalg.solve(cov_c, cog.features @ r.T)
    return GccaSolution(
        r=r,
        u_brain=u_brain,
        u_cog=u_cog,
        eigenvalues=svals**2,
        ridge=(eps_b, eps_c),
    )


def corr_loss(solution: GccaSolution, brain: ViewMatrix, cog: ViewMatrix) -> float:
    """Squared distance of both views' projections to the shared R."""
    rb = solution.r - solution.u_brain.T @ brain.features
    rc = solution.r - solution.u_cog.T @ cog.features
    return float(np.sum(rb * rb) + np.sum(rc * rc))


def corr_grad_brain(solution: GccaSolution, brain: ViewMatrix) -> np.ndarray:
    """Gradient of corr_loss with respect to the brain features, holding R
    and the loadings fixed: 2 U (U^T X - R)."""
    return 2.0 * solution.u_brain @ (solution.u_brain.T @ brain.features - solution.r)


def component_correlations(
    solution: GccaSolution, brain: ViewMatrix, cog: ViewMatrix
) -> np.ndarray:
    """Pearson correlation between the two views' projections, per shared
    component (descending eigenvalue order)."""
    zb = solution.u_brain.T @ brain.features
    zc = solution.u_cog.T @ cog.features
    return np.array([pearson(zb[j], zc[j]) for j in range(solution.d_r)])


@dataclass(frozen=True)
class Fingerprint:
    """A visit's vector in the shared space, tagged with how it was produced."""

    values: np.ndarray
    tag: str

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1 or not np.all(np.isfinite(values)):
            raise ValueError("fingerprint must be a finite vector")
        if self.tag not in _FINGERPRINT_TAGS:
            raise ValueError(f"tag must be one of {_FINGERPRINT_TAGS}, got {self.tag!r}")
        object.__setattr__(self, "values", values)


def project_fingerprint(
    solution: GccaSolution,
    h_g: np.ndarray | None = None,
    cog: np.ndarray | None = None,
    mode: str = "fused",
) -> Fingerprint:
    """Project a held-out visit into the shared space.

    mode "brain" uses U_brain^T h_g, "cognition" uses U_cog^T c, and "fused"
    (default) averages the two. If one modality is missing under "fused" the
    available view is used and the tag records which one.
    """
    if mode not in ("brain", "cognition", "fused"):
        raise ValueError(f"unknown mode {mode!r}")
    proj_b = None if h_g is None else solution.u_brain.T @ np.asarray(h_g, dtype=np.float64)
    proj_c = None if cog is None else solution.u_cog.T @ np.asarray(cog, dtype=np.float64)
    if mode == "brain":
        if proj_b is None:
            raise ValueError("mode 'brain' requires a graph embedding")
        return Fingerprint(values=proj_b, tag="test-brain")
    if mode == "cognition":
        if proj_c is None:
            raise ValueError("mode 'cognition' requires a cognitive vector")
        return Fingerprint(values=proj_c, tag="test-cognition")
    if proj_b is not None and proj_c is not None:
        return Fingerprint(values=(proj_b + proj_c) / 2.0, tag="test-fused")
    if proj_b is not None:
        warnings.warn("fused projection fell back to the brain view only")
        return Fingerprint(values=proj_b, tag="test-brain")
    if proj_c is not None:
        warnings.warn("fused projection fell back to the cognition view only")
        return Fingerprint(values=proj_c, tag="test-cognition")
    raise ValueError("fused projection needs at least one modality")
