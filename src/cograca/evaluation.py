"""Everything downstream of fingerprints: intra/inter-subject similarity
statistics, the small MLP used for downstream classification, balanced
accuracy, exact and sampled Shapley attribution, and the interpretation
tables (cognitive loadings and attention-weighted edge importance).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .encoder import encode_blocks
from .numerics import (
    AdamState,
    MannWhitneyResult,
    _derive_seed,
    _softmax_xent,
    _unflatten,
    adam_step,
    glorot,
    mann_whitney_u,
    wasserstein_1d,
)
from .pipeline import TrainedModel, _stack_records, fold_map, fold_splits, out_of_fold

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


def _elu(x: np.ndarray, out: np.ndarray | None = None,
         scratch: np.ndarray | None = None) -> np.ndarray:
    # max(x, 0) + expm1(min(x, 0)): equal bit for bit to the np.where form,
    # with two temporaries instead of four. out=x works in place, and a
    # scratch buffer of x's shape removes the last allocation.
    neg = np.minimum(x, 0.0, out=scratch)
    np.expm1(neg, out=neg)
    out = np.maximum(x, 0.0, out=out)
    out += neg
    return out


def _elu_grad(pre: np.ndarray, post: np.ndarray) -> np.ndarray:
    return np.where(pre > 0.0, 1.0, post + 1.0)


_KEEP = 0.5  # dropout keep probability of both hidden layers
_MLP_EPOCHS = 200  # default of train_mlp and of the cross-validated protocol over it


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
    epochs: int = _MLP_EPOCHS,
    learning_rate: float = 0.001,
) -> MlpClassifier:
    """Full-batch cross-entropy training of the fixed 64/32 architecture.

    Dropout masks and initialization come from the seed, so a (data, seed)
    pair always yields the same classifier.
    """
    if epochs < 1:
        raise ValueError(f"MLP epochs must be at least 1, got {epochs}")
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
    shapes = {"w1": (d, 64), "b1": (64,), "w2": (64, 32), "b2": (32,),
              "w3": (32, 2), "b3": (2,)}
    # All six arrays live in one flat vector, so each epoch takes a single
    # Adam step; Adam is elementwise, so this equals six per-array steps.
    flat = np.concatenate([
        glorot(rng, d, 64).ravel(), np.zeros(64),
        glorot(rng, 64, 32).ravel(), np.zeros(32),
        glorot(rng, 32, 2).ravel(), np.zeros(2),
    ])
    opt = AdamState.for_params(flat, lr=learning_rate)
    onehot = np.eye(2, dtype=bool)[y]
    both_classes = np.ones_like(onehot)
    for _ in range(epochs):
        weights = _unflatten(flat, shapes)
        mask1 = rng.random((n, 64)) < _KEEP
        mask2 = rng.random((n, 32)) < _KEEP
        logits, ((pre1, act1, h1), (pre2, act2, h2)) = _mlp_forward(
            weights, x, (mask1, mask2)
        )
        _, d_logits = _softmax_xent(logits, onehot, both_classes)
        d_logits /= n
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
        grad_flat = np.concatenate([grads[k].ravel() for k in shapes])
        flat, opt = adam_step(opt, flat, grad_flat)
    return MlpClassifier(seed=seed, **_unflatten(flat, shapes))


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
    epochs: int = _MLP_EPOCHS,
) -> np.ndarray:
    """Balanced accuracy of the MLP protocol, repeated over seeds.

    Per repeat, one classifier is trained per fold on that fold's complement
    and the pooled held-out predictions are scored once. All repeats x folds
    fits are one fold_map on the fork lanes (`lanes.forks`); each fit's
    seed depends on its repeat and fold alone. The folds must partition
    the visits (see out_of_fold). Returns the per-repeat balanced
    accuracies.
    """
    if repeats < 1:
        raise ValueError(f"MLP repeats must be at least 1, got {repeats}")
    representations = np.asarray(representations, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n = representations.shape[0]
    splits = fold_splits(folds, n)

    def predict(job):
        rep, s = job
        return train_mlp(
            representations[s.train_indices],
            labels[s.train_indices],
            seed=_derive_seed(seed, rep * len(folds) + s.fold),
            epochs=epochs,
        ).predict(representations[s.test_indices])

    predictions = fold_map(predict, [(rep, s) for rep in range(repeats) for s in splits])
    k = len(splits)
    return np.array([
        balanced_accuracy(out_of_fold(splits, predictions[rep * k:(rep + 1) * k], n)[0], labels)
        for rep in range(repeats)
    ])


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


# Rows per call of a black-box value function. A 4096-row block keeps an
# MLP-sized model's hidden activations (4096 x 64 doubles, 2 MB)
# cache-resident; the MLP itself goes through _mlp_coalition_values.
_BLOCK_ROWS = 1 << 12


def _evaluate_blocks(fn, rows: int, block_inputs) -> np.ndarray:
    """fn over `rows` inputs, one _BLOCK_ROWS block at a time;
    block_inputs(slice) builds the rows of one block."""
    f = np.empty(rows)
    for start in range(0, rows, _BLOCK_ROWS):
        sl = slice(start, min(start + _BLOCK_ROWS, rows))
        f[sl] = fn(block_inputs(sl))
    return f


# Coalition bits in one block of the MLP path: 2^8 rows of 64 hidden
# activations are 128 KB, which stays in L2 through both hidden layers
# (of 6 to 11 bits, 8 was the fastest at d = 16).
_LATTICE_BITS = 8


def _subset_sums(base: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """Row m is base plus deltas[i] for every bit i set in m, built by
    doubling: rows [2^i, 2^(i+1)) are rows [0, 2^i) plus deltas[i]."""
    table = np.empty((1 << len(deltas),) + base.shape, dtype=base.dtype)
    table[0] = base
    for i, delta in enumerate(deltas):
        np.add(table[: 1 << i], delta, out=table[1 << i : 2 << i])
    return table


def _mlp_coalition_values(clf: MlpClassifier, x: np.ndarray, baseline: np.ndarray) -> np.ndarray:
    """The MLP's log-odds for all 2^d coalitions, in mask order.

    The first layer is affine, so coalition S's pre-activation is
    (baseline @ w1 + b1) + sum over i in S of (x_i - baseline_i) * w1[i].
    The low _LATTICE_BITS bits index a table of such sums and the high bits
    a table of offsets; each block is one broadcast add, then both ELU
    layers and the head run in preallocated buffers. No coalition input
    matrix is built and no first-layer GEMM runs.
    """
    d = x.shape[0]
    k = min(d, _LATTICE_BITS)
    base = baseline @ clf.w1 + clf.b1
    deltas = (x - baseline)[:, None] * clf.w1
    low = _subset_sums(base, deltas[:k])
    high = _subset_sums(np.zeros(clf.w1.shape[1]), deltas[k:])
    head = clf.w3[:, 1] - clf.w3[:, 0]
    head_bias = clf.b3[1] - clf.b3[0]
    h1, s1 = np.empty_like(low), np.empty_like(low)
    h2 = np.empty((low.shape[0], clf.w2.shape[1]))
    s2 = np.empty_like(h2)
    f = np.empty(1 << d).reshape(high.shape[0], low.shape[0])
    for offset, out in zip(high, f):
        np.add(low, offset, out=h1)
        _elu(h1, out=h1, scratch=s1)
        np.matmul(h1, clf.w2, out=h2)
        h2 += clf.b2
        _elu(h2, out=h2, scratch=s2)
        np.matmul(h2, head, out=out)
    f += head_bias
    return f.reshape(-1)


@lru_cache(maxsize=2)
def _coalition_weights(d: int) -> np.ndarray:
    """Each mask's Shapley weight |S|!(d-1-|S|)!/d!; the full mask, which
    never excludes a feature, gets weight 0. The coalition sizes |S| come
    from the same doubling as _subset_sums. Built on first use for each d."""
    by_size = np.array(
        [math.factorial(k) * math.factorial(d - 1 - k) / math.factorial(d) for k in range(d)]
        + [0.0]
    )
    weights = by_size[_subset_sums(np.zeros((), np.uint8), np.ones(d, np.uint8))]
    weights.setflags(write=False)
    return weights


def _coalition_inputs(x: np.ndarray, baseline: np.ndarray, sl: slice) -> np.ndarray:
    """Rows `sl` of the coalition inputs: row m takes x where bit i of m
    is set and the baseline elsewhere."""
    bits = (np.arange(sl.start, sl.stop)[:, None] >> np.arange(x.shape[0])) & 1
    return np.where(bits, x, baseline)


def shapley_attribution(classifier, x: np.ndarray, baseline: np.ndarray) -> AttributionReport:
    """Exact Shapley values by enumerating all coalitions.

    The value function is the classifier's class-1 log-odds with absent
    features replaced by the baseline. For an MlpClassifier the 2^d
    coalition pre-activations come from a subset-sum lattice over the affine
    first layer (_mlp_coalition_values), 256 coalitions per block; on a
    2-core x86-64 host with one OpenBLAS thread a visit takes about 41 ms at
    d = 16 and 0.70 s at d = 20 (79 ms and 1.43 s through the callable
    path). Any other batch callable is evaluated on np.where coalition
    inputs in blocks of 4096 rows. Either way, beyond the 2^d values and
    the per-d weights only one block (and the MLP's two sum tables, 2 MB at
    d = 20) is in memory at a time.
    Feature counts above 20 are refused; use shapley_attribution_mc there.
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
    weights = _coalition_weights(d)
    if isinstance(classifier, MlpClassifier):
        f = _mlp_coalition_values(classifier, x, baseline)
    else:
        f = _evaluate_blocks(fn, 1 << d, lambda sl: _coalition_inputs(x, baseline, sl))
    values = np.empty(d)
    for i in range(d):
        # axis 1 splits each run of 2^(i+1) masks into those without bit i
        # and the same masks with it, both in ascending mask order
        pairs = f.reshape(-1, 2, 1 << i)
        w = weights.reshape(-1, 2, 1 << i)[:, 0, :]
        values[i] = float(np.sum((w * (pairs[:, 1, :] - pairs[:, 0, :])).ravel()))
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
    orders = np.array([rng.permutation(d) for _ in range(n_permutations)], dtype=np.int64)
    rank = np.argsort(orders, axis=1)  # rank[p, j]: position of feature j in order p
    # row k of permutation p holds x on that order's first k features
    steps = np.arange(d + 1)
    inputs = np.where(rank[:, None, :] < steps[:, None], x, baseline).reshape(-1, d)
    f = _evaluate_blocks(fn, inputs.shape[0], lambda sl: inputs[sl])
    f = f.reshape(n_permutations, d + 1)
    contributions = np.take_along_axis(np.diff(f, axis=1), rank, axis=1)
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
    graphs, _, _ = _stack_records(records)
    # a running sum over the visit blocks, adding visit by visit in the
    # order a mean over the whole (N,V,V) stack would
    total = np.zeros((graphs[0].n_nodes,) * 2)
    for _, _, (c1, c2) in encode_blocks(model.params, graphs):
        for visit in (c1[2] + c2[2]) / 2.0:
            total += visit
    mean_attention = total / len(graphs)
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
