"""Everything downstream of fingerprints: intra/inter-subject similarity
statistics, the small MLP used for downstream classification, balanced
accuracy, exact and sampled Shapley attribution, and the interpretation
tables (cognitive loadings and attention-weighted edge importance).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .encoder import encode_batch
from .numerics import (
    AdamState,
    MannWhitneyResult,
    _derive_seed,
    adam_step,
    mann_whitney_u,
    wasserstein_1d,
)
from .pipeline import TrainedModel, _stack_records

__all__ = [
    "SimilarityReport",
    "MlpClassifier",
    "AttributionReport",
    "InterpretationTables",
    "similarity_analysis",
    "train_mlp",
    "balanced_accuracy",
    "cross_validated_bacc",
    "shapley_attribution",
    "shapley_attribution_mc",
    "interpret_components",
]

_HISTOGRAM_BINS = np.linspace(-1.0, 1.0, 41)


@dataclass(frozen=True)
class SimilarityReport:
    """Pairwise fingerprint similarities split into same-subject and
    different-subject samples, with their separation statistics. The
    statistics are None when the batch has no same-subject pair."""

    matrix: np.ndarray
    subject_ids: tuple[str, ...]
    intra: np.ndarray
    inter: np.ndarray
    wasserstein: float | None
    mwu: MannWhitneyResult | None
    bin_edges: np.ndarray
    intra_counts: np.ndarray
    inter_counts: np.ndarray


def similarity_analysis(fingerprints: np.ndarray, subject_ids) -> SimilarityReport:
    """Pearson-correlate every pair of fingerprints and compare the
    same-subject sample against the different-subject sample."""
    fingerprints = np.asarray(fingerprints, dtype=np.float64)
    if fingerprints.ndim != 2 or fingerprints.shape[0] < 2:
        raise ValueError("need a 2-D array with at least two fingerprints")
    subject_ids = tuple(str(s) for s in subject_ids)
    n = fingerprints.shape[0]
    if len(subject_ids) != n:
        raise ValueError("subject id count does not match fingerprint count")
    if len(set(subject_ids)) < 2:
        raise ValueError("need at least two distinct subjects")
    centered = fingerprints - fingerprints.mean(axis=1, keepdims=True)
    norms = np.sqrt((centered**2).sum(axis=1))
    flat = np.flatnonzero(norms < 1e-12)
    if flat.size:
        raise ValueError(f"fingerprint {int(flat[0])} is constant; similarity undefined")
    unit = centered / norms[:, None]
    matrix = np.clip(unit @ unit.T, -1.0, 1.0)
    matrix = (matrix + matrix.T) / 2.0
    np.fill_diagonal(matrix, 1.0)
    iu, ju = np.triu_indices(n, k=1)
    subjects = np.array(subject_ids)
    same = subjects[iu] == subjects[ju]
    pair_values = matrix[iu, ju]
    intra = pair_values[same]
    inter = pair_values[~same]
    if intra.size == 0:
        warnings.warn("no same-subject pair; similarity statistics are inter-only")
        wass, mwu = None, None
    else:
        wass = wasserstein_1d(intra, inter)
        mwu = mann_whitney_u(intra, inter)
    return SimilarityReport(
        matrix=matrix,
        subject_ids=subject_ids,
        intra=intra,
        inter=inter,
        wasserstein=wass,
        mwu=mwu,
        bin_edges=_HISTOGRAM_BINS.copy(),
        intra_counts=np.histogram(intra, bins=_HISTOGRAM_BINS)[0],
        inter_counts=np.histogram(inter, bins=_HISTOGRAM_BINS)[0],
    )


@dataclass(frozen=True)
class MlpClassifier:
    """Two hidden layers (64, 32) with ELU, trained with dropout 0.5; the
    stored weights give deterministic dropout-free inference."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    w3: np.ndarray
    b3: np.ndarray
    seed: int

    def logits(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        return _mlp_forward(vars(self), x)[0]

    def decision_value(self, x: np.ndarray) -> np.ndarray:
        """Log-odds of class 1 — the scalar the attribution explains."""
        logits = self.logits(x)
        return logits[:, 1] - logits[:, 0]

    def predict(self, x: np.ndarray) -> np.ndarray:
        return np.argmax(self.logits(x), axis=1)


def _elu(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0.0, x, np.expm1(np.minimum(x, 0.0)))


def _elu_grad(pre: np.ndarray, post: np.ndarray) -> np.ndarray:
    return np.where(pre > 0.0, 1.0, post + 1.0)


_KEEP = 0.5  # dropout keep probability of both hidden layers


def _mlp_forward(weights, x: np.ndarray, masks=None):
    """The 64/32 ELU forward pass over the w1..b3 entries of `weights`.

    With dropout masks (one boolean array per hidden layer) each hidden
    activation is masked and scaled by 1/keep, as in training; without them
    it is the inference path. Returns the logits and the per-layer
    (pre-activation, activation, layer output) caches the backward pass uses.
    """
    pre1 = x @ weights["w1"] + weights["b1"]
    act1 = _elu(pre1)
    h1 = act1 if masks is None else act1 * masks[0] / _KEEP
    pre2 = h1 @ weights["w2"] + weights["b2"]
    act2 = _elu(pre2)
    h2 = act2 if masks is None else act2 * masks[1] / _KEEP
    return h2 @ weights["w3"] + weights["b3"], ((pre1, act1, h1), (pre2, act2, h2))


def train_mlp(
    representations: np.ndarray,
    labels: np.ndarray,
    seed: int,
    epochs: int = 200,
    learning_rate: float = 0.001,
) -> MlpClassifier:
    """Full-batch cross-entropy training of the fixed 64/32 architecture.

    Dropout masks and initialization come from the seed, so a (data, seed)
    pair always yields the same classifier.
    """
    x = np.asarray(representations, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if x.ndim != 2 or y.shape != (x.shape[0],):
        raise ValueError("need samples x features data with one label per sample")
    if not np.isin(y, (0, 1)).all():
        raise ValueError("labels must be binary (0/1)")
    if len(np.unique(y)) < 2:
        raise ValueError("training labels contain a single class")
    n, d = x.shape
    rng = np.random.default_rng(seed)

    def glorot(fan_in: int, fan_out: int) -> np.ndarray:
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=(fan_in, fan_out))

    weights = {
        "w1": glorot(d, 64), "b1": np.zeros(64),
        "w2": glorot(64, 32), "b2": np.zeros(32),
        "w3": glorot(32, 2), "b3": np.zeros(2),
    }
    opt = {k: AdamState.for_params(v, lr=learning_rate) for k, v in weights.items()}
    onehot = np.eye(2)[y]
    for _ in range(epochs):
        mask1 = rng.random((n, 64)) < _KEEP
        mask2 = rng.random((n, 32)) < _KEEP
        logits, ((pre1, act1, h1), (pre2, act2, h2)) = _mlp_forward(
            weights, x, (mask1, mask2)
        )
        shifted = logits - logits.max(axis=1, keepdims=True)
        expd = np.exp(shifted)
        probs = expd / expd.sum(axis=1, keepdims=True)
        d_logits = (probs - onehot) / n
        grads = {
            "w3": h2.T @ d_logits,
            "b3": d_logits.sum(axis=0),
        }
        d_h2 = d_logits @ weights["w3"].T
        d_act2 = d_h2 * mask2 / _KEEP
        d_pre2 = d_act2 * _elu_grad(pre2, act2)
        grads["w2"] = h1.T @ d_pre2
        grads["b2"] = d_pre2.sum(axis=0)
        d_h1 = d_pre2 @ weights["w2"].T
        d_act1 = d_h1 * mask1 / _KEEP
        d_pre1 = d_act1 * _elu_grad(pre1, act1)
        grads["w1"] = x.T @ d_pre1
        grads["b1"] = d_pre1.sum(axis=0)
        for key in weights:
            weights[key], opt[key] = adam_step(opt[key], weights[key], grads[key])
    return MlpClassifier(seed=seed, **weights)


def balanced_accuracy(predictions: np.ndarray, labels: np.ndarray) -> float:
    """Mean of the per-class recalls."""
    predictions = np.asarray(predictions, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if predictions.shape != labels.shape:
        raise ValueError("prediction and label counts differ")
    classes = np.unique(labels)
    if len(classes) < 2:
        raise ValueError("labels must contain both classes")
    recalls = [
        float((predictions[labels == c] == c).mean()) for c in classes
    ]
    return float(np.mean(recalls))


def cross_validated_bacc(
    representations: np.ndarray,
    labels: np.ndarray,
    folds: list[np.ndarray],
    seed: int = 0,
    repeats: int = 10,
    epochs: int = 200,
) -> np.ndarray:
    """Balanced accuracy of the MLP protocol, repeated over seeds.

    Per repeat, one classifier is trained per fold on that fold's complement
    and the pooled held-out predictions are scored once. Returns the
    per-repeat balanced accuracies.
    """
    representations = np.asarray(representations, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n = representations.shape[0]
    all_idx = np.arange(n)
    out = np.zeros(repeats)
    for rep in range(repeats):
        predictions = np.full(n, -1, dtype=np.int64)
        for fold_idx, test in enumerate(folds):
            train = np.setdiff1d(all_idx, test)
            clf = train_mlp(
                representations[train],
                labels[train],
                seed=_derive_seed(seed, rep * len(folds) + fold_idx),
                epochs=epochs,
            )
            predictions[test] = clf.predict(representations[test])
        out[rep] = balanced_accuracy(predictions, labels)
    return out


@dataclass(frozen=True)
class AttributionReport:
    """Per-feature Shapley values for one prediction. top_components ranks
    features by absolute value; standard_errors is set by the sampled mode."""

    values: np.ndarray
    baseline: np.ndarray
    top_components: np.ndarray
    value_x: float
    value_baseline: float
    standard_errors: np.ndarray | None = None


def _as_value_fn(classifier):
    if isinstance(classifier, MlpClassifier):
        return classifier.decision_value
    if callable(classifier):
        return lambda batch: np.asarray(classifier(batch), dtype=np.float64).reshape(-1)
    raise TypeError("classifier must be an MlpClassifier or a batch callable")


def shapley_attribution(classifier, x: np.ndarray, baseline: np.ndarray) -> AttributionReport:
    """Exact Shapley values by enumerating all coalitions.

    The value function is the classifier's class-1 log-odds with absent
    features replaced by the baseline. Feature counts above 20 are refused;
    use shapley_attribution_mc there.
    """
    fn = _as_value_fn(classifier)
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    baseline = np.asarray(baseline, dtype=np.float64).reshape(-1)
    if x.shape != baseline.shape:
        raise ValueError("x and baseline must have the same length")
    d = x.shape[0]
    if d > 20:
        raise ValueError(
            f"{d} features means 2^{d} coalitions; use shapley_attribution_mc instead"
        )
    total = 1 << d
    bits = ((np.arange(total, dtype=np.int64)[:, None] >> np.arange(d)) & 1).astype(bool)
    sizes = bits.sum(axis=1)
    f = np.empty(total)
    chunk = 1 << 15
    for start in range(0, total, chunk):
        sl = slice(start, min(start + chunk, total))
        f[sl] = fn(np.where(bits[sl], x, baseline))
    # weight of a coalition of size k that excludes the feature: k!(d-1-k)!/d!
    weight = np.array(
        [math.factorial(k) * math.factorial(d - 1 - k) / math.factorial(d) for k in range(d)]
    )
    masks = np.arange(total, dtype=np.int64)
    values = np.empty(d)
    for i in range(d):
        without = masks[~bits[:, i]]
        values[i] = float(np.sum(weight[sizes[without]] * (f[without + (1 << i)] - f[without])))
    return AttributionReport(
        values=values,
        baseline=baseline,
        top_components=np.argsort(-np.abs(values), kind="stable"),
        value_x=float(f[-1]),
        value_baseline=float(f[0]),
    )


def shapley_attribution_mc(
    classifier,
    x: np.ndarray,
    baseline: np.ndarray,
    n_permutations: int = 200,
    seed: int = 0,
) -> AttributionReport:
    """Permutation-sampling Shapley estimate with per-feature standard
    errors; the estimates still sum exactly to f(x) - f(baseline)."""
    fn = _as_value_fn(classifier)
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    baseline = np.asarray(baseline, dtype=np.float64).reshape(-1)
    if x.shape != baseline.shape:
        raise ValueError("x and baseline must have the same length")
    if n_permutations < 2:
        raise ValueError("need at least two permutations for a standard error")
    d = x.shape[0]
    rng = np.random.default_rng(seed)
    contributions = np.zeros((n_permutations, d))
    inputs = np.empty((n_permutations * (d + 1), d))
    orders = np.empty((n_permutations, d), dtype=np.int64)
    row = 0
    for p in range(n_permutations):
        order = rng.permutation(d)
        orders[p] = order
        current = baseline.copy()
        inputs[row] = current
        row += 1
        for i in order:
            current[i] = x[i]
            inputs[row] = current
            row += 1
    f = fn(inputs).reshape(n_permutations, d + 1)
    deltas = np.diff(f, axis=1)
    for p in range(n_permutations):
        contributions[p, orders[p]] = deltas[p]
    values = contributions.mean(axis=0)
    se = contributions.std(axis=0, ddof=1) / math.sqrt(n_permutations)
    return AttributionReport(
        values=values,
        baseline=baseline,
        top_components=np.argsort(-np.abs(values), kind="stable"),
        value_x=float(f[0, -1]),
        value_baseline=float(f[0, 0]),
        standard_errors=se,
    )


@dataclass(frozen=True)
class InterpretationTables:
    """Plot-ready interpretation output.

    cognitive_loadings rows: (component, rank, cognitive index, |loading|,
    signed loading), ranked by |loading| within each component.
    edge_importance rows: (component, rank, node p, node q, importance) where
    importance is the symmetrized mean attention weighted by the component's
    total brain-loading mass. mean_attention averages both layers over all
    given visits.
    """

    cognitive_loadings: list[tuple[int, int, int, float, float]]
    edge_importance: list[tuple[int, int, int, int, float]]
    mean_attention: np.ndarray


def interpret_components(
    model: TrainedModel, records, components
) -> InterpretationTables:
    """Rank cognitive loadings and attention-backed edges for the selected
    shared components, using the visits the model was trained on.

    The edge ranking is the same for every component: a component's edge
    score is one scalar (its total brain-loading mass) times the single
    shared mean-attention matrix, so only the scale differs between
    components. The cognitive loadings are component-specific.
    """
    components = [int(c) for c in components]
    d_r = model.solution.d_r
    for c in components:
        if not 0 <= c < d_r:
            raise ValueError(f"component {c} outside [0, {d_r})")
    feats, masks, _, _ = _stack_records(records)
    _, _, (a1, a2), _ = encode_batch(model.params, feats, masks)
    mean_attention = ((a1 + a2) / 2.0).mean(axis=0)
    sym = (mean_attention + mean_attention.T) / 2.0
    u_cog = model.solution.u_cog
    u_brain = model.solution.u_brain
    loadings: list[tuple[int, int, int, float, float]] = []
    edges: list[tuple[int, int, int, int, float]] = []
    v = sym.shape[0]
    iu, ju = np.triu_indices(v, k=1)
    for comp in components:
        column = u_cog[:, comp]
        order = np.argsort(-np.abs(column), kind="stable")
        for rank, idx in enumerate(order, start=1):
            loadings.append(
                (comp, rank, int(idx), float(abs(column[idx])), float(column[idx]))
            )
        weight = float(np.abs(u_brain[:, comp]).sum())
        pair_scores = sym[iu, ju]
        keep = pair_scores > 0.0
        pairs = sorted(
            zip(pair_scores[keep] * weight, iu[keep], ju[keep]),
            key=lambda t: (-t[0], t[1], t[2]),
        )
        for rank, (score, p, q) in enumerate(pairs, start=1):
            edges.append((comp, rank, int(p), int(q), float(score)))
    return InterpretationTables(
        cognitive_loadings=loadings, edge_importance=edges, mean_attention=mean_attention
    )
