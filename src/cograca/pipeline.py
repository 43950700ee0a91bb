"""Training orchestration: subject-level folds and the cross-validation
protocol (training complements, held-out assembly), the alternating
optimization loop (re-solve the shared representation each epoch, then step
the encoder), and fingerprint generation for train and held-out visits.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import lanes
from .contrastive import (
    BatchIndex, ContrastiveConfig, ZeroNormError, individualized_loss, multimodal_loss,
)
from .data import VisitRecord
from .encoder import EncoderParams, encode_batch, encode_batch_vjp
from .gcca import (
    Fingerprint,
    GccaSolution,
    PreprocessStats,
    _fit_stats,
    corr_grad_brain,
    corr_loss,
    preprocess_views,
    project_fingerprint,
    solve_gcca,
)
from .numerics import AdamState, _check_finite, _derive_seed, _unflatten, adam_step

__all__ = [
    "TrainConfig",
    "TrainedModel",
    "NonFiniteLossError",
    "DeadVisitError",
    "make_subject_folds",
    "FoldSplit",
    "fold_splits",
    "out_of_fold",
    "train_model",
    "compute_fingerprints",
    "cross_validate",
    "out_of_fold_fingerprints",
]


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for one training run; defaults are the operating
    values. lambda1 = lambda2 = 0 is the correlation-only ablation. Each
    field's `help` is its `cograca train` flag's help."""

    epochs: int = field(default=1000, metadata={"help": "training epochs"})
    learning_rate: float = field(default=0.001, metadata={"help": "Adam learning rate"})
    hidden_dim: int = field(default=32, metadata={"help": "encoder hidden width"})
    r: int = field(default=16, metadata={"help": "embedding dimension"})
    d_r: int = field(default=16, metadata={"help": "shared dimension"})
    temperature: float = field(default=ContrastiveConfig.temperature,
                               metadata={"help": "contrastive temperature"})
    lambda1: float = field(default=ContrastiveConfig.lambda1,
                           metadata={"help": "individualized loss weight"})
    lambda2: float = field(default=ContrastiveConfig.lambda2,
                           metadata={"help": "multimodal loss weight"})
    ridge: float | None = field(
        default=None, metadata={"help": "covariance ridge: 'scaled' or a float"})
    seed: int = field(default=0, metadata={"help": "training seed"})
    folds: int = field(default=5, metadata={"help": "cross-validation folds"})

    def __post_init__(self) -> None:
        _check_finite(self)
        if self.epochs < 1:
            raise ValueError("epochs must be positive")
        if self.learning_rate <= 0.0:
            raise ValueError("learning rate must be positive")
        if min(self.hidden_dim, self.r, self.d_r) < 1:
            raise ValueError("dimensions must be positive")
        self.contrastive()  # checks the temperature and the loss weights
        if self.ridge is not None and self.ridge <= 0.0:
            raise ValueError("ridge must be positive when given")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.folds < 2:
            raise ValueError("folds must be at least 2")

    @property
    def model_kind(self) -> str:
        return "GraCa" if self.lambda1 == 0.0 and self.lambda2 == 0.0 else "CoGraCa"

    def contrastive(self) -> ContrastiveConfig:
        return ContrastiveConfig(
            temperature=self.temperature, lambda1=self.lambda1, lambda2=self.lambda2
        )


@dataclass(frozen=True)
class TrainedModel:
    """Everything a trained run needs at inference time, plus the loss trace
    (columns: correlation, individualized, multimodal, total)."""

    params: EncoderParams
    solution: GccaSolution
    stats: PreprocessStats
    config: TrainConfig
    loss_trace: np.ndarray
    train_keys: tuple[tuple[str, int], ...]


class NonFiniteLossError(RuntimeError):
    """Raised when training stops being finite mid-run, at stage "embedding"
    (the encoder's output, the final forward counting as epoch `epochs`),
    "loss", or "Adam step" (the weights or moments a step produced).
    `components` holds the epoch's (corr, ind, mul) loss terms once known."""

    def __init__(self, epoch: int, components=None, stage: str = "loss"):
        self.epoch, self.stage = epoch, stage
        self.components = None if components is None else tuple(map(float, components))
        terms = "" if components is None else ": corr={}, ind={}, mul={}".format(
            *self.components)
        super().__init__(f"non-finite {stage} at epoch {epoch}{terms}")

    def __reduce__(self):  # pickle and copy rebuild from the arguments, not the message
        return type(self), (self.epoch, self.components, self.stage), self.__dict__


class DeadVisitError(RuntimeError):
    """Raised when training leaves a visit's pooled embedding at zero norm
    (every unit ReLU-dead), where the contrastive terms' cosine similarity
    is undefined: a training failure on well-formed input."""

    def __init__(self, epoch: int, subject: str, visit: int):
        self.epoch, self.subject, self.visit = epoch, subject, visit
        super().__init__(f"dead visit at epoch {epoch}: zero-norm pooled embedding for "
                         f"subject {subject!r} visit {visit}")

    def __reduce__(self):
        return type(self), (self.epoch, self.subject, self.visit), self.__dict__


def make_subject_folds(subject_ids, k: int, seed: int) -> list[np.ndarray]:
    """Partition visit indices into k folds that never split a subject.

    Distinct subjects are shuffled with the seed and dealt round-robin, so
    per-fold subject counts differ by at most one.
    """
    subject_ids = [str(s) for s in subject_ids]
    distinct = sorted(set(subject_ids))
    if k < 2:
        raise ValueError("need at least 2 folds")
    if k > len(distinct):
        raise ValueError(f"cannot make {k} folds from {len(distinct)} subjects")
    perm = np.random.default_rng(seed).permutation(len(distinct))
    fold_of_subject = {distinct[int(p)]: i % k for i, p in enumerate(perm)}
    fold_of = np.array([fold_of_subject[s] for s in subject_ids], dtype=np.int64)
    return [np.flatnonzero(fold_of == f) for f in range(k)]


@dataclass(frozen=True)
class FoldSplit:
    """One cross-validation fold: its id, the sorted training complement,
    and the held-out (test) visit indices."""

    fold: int
    train_indices: np.ndarray
    test_indices: np.ndarray


def fold_splits(folds, n_visits: int, fold_ids=None) -> list[FoldSplit]:
    """One split per test fold, in order, with the fold's position as its id
    unless `fold_ids` gives them. The folds may leave visits out or overlap;
    out_of_fold checks that they do not. Each must be a 1-D array of integer
    visit indices in [0, n_visits)."""
    if fold_ids is None:
        fold_ids = range(len(folds))
    splits = []
    for fold_id, test in zip(fold_ids, folds, strict=True):
        test = np.asarray(test)
        if test.ndim != 1 or test.dtype.kind not in "iu" or (
                test.size and not 0 <= test.min() <= test.max() < n_visits):
            raise ValueError(f"fold {fold_id} is not a 1-D array of visit indices "
                             f"in [0, {n_visits})")
        train = np.ones(n_visits, dtype=bool)
        train[test] = False
        splits.append(FoldSplit(int(fold_id), np.flatnonzero(train), test))
    return splits


def out_of_fold(splits, per_fold, n_visits: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows computed per fold, per_fold[k] holding one row per test index of
    splits[k] in that order, put in visit order. Returns (rows, fold id per
    visit). Raises ValueError unless the test folds hold every visit of
    range(n_visits) exactly once, naming the first visit that breaks it."""
    stacked = np.concatenate([s.test_indices for s in splits])
    counts = np.bincount(stacked, minlength=n_visits)
    if counts.size > n_visits:
        raise ValueError(f"folds hold visit {stacked.max()}, outside [0, {n_visits})")
    for held_by, bad in (("no", counts == 0), ("more than one", counts > 1)):
        if bad.any():
            raise ValueError(f"folds must partition the {n_visits} visits, but visit "
                             f"{np.argmax(bad)} is in {held_by} fold")
    order = np.argsort(stacked, kind="stable")
    fold_of = np.repeat([s.fold for s in splits], [s.test_indices.size for s in splits])
    return np.concatenate(per_fold)[order], fold_of[order].astype(np.int64)


def _stack_records(records: list[VisitRecord]):
    """A batch of visits as (graphs, cognition (d_cog, N), BatchIndex),
    checking shape agreement. The graphs are the records' own; the encoder
    stacks them one visit block at a time."""
    if not records:
        raise ValueError("no visits given")
    v = records[0].graph.n_nodes
    d_att = records[0].graph.attributes.shape[1]
    d_cog = records[0].cognition.shape[0]
    for rec in records:
        if rec.graph.n_nodes != v or rec.graph.attributes.shape[1] != d_att:
            raise ValueError(
                f"graph shape mismatch at subject {rec.subject_id!r} visit {rec.visit}"
            )
        if rec.cognition.shape[0] != d_cog:
            raise ValueError(
                f"cognitive dim mismatch at subject {rec.subject_id!r} visit {rec.visit}"
            )
    graphs = [rec.graph for rec in records]
    cogs = np.stack([rec.cognition for rec in records]).T
    index = BatchIndex.from_visits(
        [rec.subject_id for rec in records], [rec.visit for rec in records]
    )
    return graphs, cogs, index


def _forward(params: EncoderParams, graphs, cogs: np.ndarray, cfg: TrainConfig, epoch: int,
             degenerate: dict):
    """Encode the graphs, z-score both views and re-solve the shared
    representation; a non-finite embedding raises NonFiniteLossError at
    `epoch`. Zero-variance rows are tallied in `degenerate` per view label
    as (rows seen, solves affected). Returns (pooled, caches, brain, cog,
    stats, solution)."""
    # no numpy float warnings: NonFiniteLossError alone reports a non-finite
    # embedding, loss or step
    with np.errstate(all="ignore"):
        pooled, _, _, caches = encode_batch(params, graphs)
    if not np.isfinite(pooled).all():
        raise NonFiniteLossError(epoch, stage="embedding")
    stats, rows = _fit_stats(pooled.T, cogs)
    for label, idx in rows.items():
        if idx.size:
            seen, count = degenerate.get(label, (set(), 0))
            degenerate[label] = (seen | set(idx.tolist()), count + 1)
    brain, cog, stats = preprocess_views(pooled.T, cogs, stats=stats)
    return pooled, caches, brain, cog, stats, solve_gcca(brain, cog, cfg.d_r, cfg.ridge)


def _step(params: EncoderParams, graphs, index: BatchIndex, ccfg: ContrastiveConfig,
          epoch: int, forward):
    """One epoch's arithmetic after `forward`, `_forward`'s result at
    `params`: the loss terms, each one's unweighted gradient with respect to
    the pooled embedding (loss 0.0 and gradient None for a term `ccfg`
    weighs 0), and the encoder gradient of their weighted sum. Returns
    ((corr, ind, mul, total), (g_corr, g_ind, g_mul), weight_grads)."""
    pooled, caches, brain, cog, stats, solution = forward
    l_ind = l_mul = 0.0
    g_ind = g_mul = None
    with np.errstate(all="ignore"):
        l_corr = corr_loss(solution, brain, cog)
        # z-scoring stats are treated as constants in the backward pass
        d_pooled = g_corr = (corr_grad_brain(solution, brain) / stats.brain_std[:, None]).T
        try:
            if ccfg.lambda1 > 0.0:
                l_ind, g_ind = individualized_loss(pooled, index, ccfg)
                d_pooled = d_pooled + ccfg.lambda1 * g_ind
            if ccfg.lambda2 > 0.0:
                l_mul, g_mul = multimodal_loss(pooled, cog.features.T, index, ccfg)
                d_pooled = d_pooled + ccfg.lambda2 * g_mul
        except ZeroNormError as exc:
            if exc.what != "embedding":  # a cognitive vector: the input's doing
                raise
            raise DeadVisitError(epoch, exc.subject, exc.visit) from None
        losses = (l_corr, l_ind, l_mul, l_corr + ccfg.lambda1 * l_ind + ccfg.lambda2 * l_mul)
        if not np.isfinite(losses[3]):
            raise NonFiniteLossError(epoch, losses[:3])
        weight_grads = encode_batch_vjp(params, graphs, caches, d_pooled)
    return losses, (g_corr, g_ind, g_mul), weight_grads


def train_model(records: list[VisitRecord], cfg: TrainConfig) -> TrainedModel:
    """Full-batch alternating optimization.

    Each epoch is one `_forward` (encode all graphs, z-score both views,
    re-solve the shared representation), one `_step` (form the loss terms
    and their embedding gradients, the correlation term's chained through
    the frozen z-scoring, and backpropagate their weighted sum through the
    encoder), then one Adam step on all encoder weights at once (they live
    in one flat vector; Adam is elementwise, so this equals one step per
    array). A final `_forward` after the last step makes the stored
    solution consistent with the returned weights. NonFiniteLossError
    stops a run whose embedding or loss, or whose weights or Adam moments
    after a step, are not finite; DeadVisitError one that leaves a visit's
    embedding zero where a contrastive term normalises it.
    """
    graphs, cogs, index = _stack_records(records)
    n = len(records)
    if n <= cfg.d_r:
        raise ValueError(
            f"need more than d_r={cfg.d_r} training visits, got {n}"
        )
    if cfg.lambda2 > 0.0 and cogs.shape[0] != cfg.r:
        raise ValueError(
            f"multimodal loss needs cognitive dim {cogs.shape[0]} == r {cfg.r}"
        )
    has_multi = bool(index.multi_visit_subjects())
    if (cfg.lambda1 > 0.0 or cfg.lambda2 > 0.0) and not has_multi:
        warnings.warn(
            "no subject has more than one visit; contrastive terms are inactive"
        )
    ccfg = cfg.contrastive() if has_multi else ContrastiveConfig(cfg.temperature, 0.0, 0.0)
    rng = np.random.default_rng(cfg.seed)
    params = EncoderParams.init(graphs[0].attributes.shape[1], cfg.hidden_dim, cfg.r, rng)
    shapes = {name: arr.shape for name, arr in params.as_dict().items()}
    flat = np.concatenate([arr.ravel() for arr in params.as_dict().values()])
    opt = AdamState.for_params(flat, lr=cfg.learning_rate)
    trace = np.zeros((cfg.epochs, 4))
    degenerate: dict[str, tuple[set[int], int]] = {}
    for epoch in range(cfg.epochs):
        # rebinding keeps the last pass alive while this one allocates; freeing
        # it first made glibc trim and re-fault the heap top (4x page faults)
        forward = _forward(params, graphs, cogs, cfg, epoch, degenerate)
        trace[epoch], _, grads = _step(params, graphs, index, ccfg, epoch, forward)
        with np.errstate(all="ignore"):
            flat, opt = adam_step(opt, flat, np.concatenate([grads[k].ravel() for k in shapes]))
        if not all(np.isfinite(a).all() for a in (flat, opt.m, opt.v)):
            raise NonFiniteLossError(epoch, trace[epoch, :3], stage="Adam step")
        params = EncoderParams(**_unflatten(flat, shapes))
    *_, stats, solution = _forward(params, graphs, cogs, cfg, cfg.epochs, degenerate)
    for label, (seen, count) in degenerate.items():
        warnings.warn(
            f"{label} rows {sorted(seen)} had zero variance in {count} of "
            f"{cfg.epochs + 1} GCCA solves ({cfg.epochs} epochs and the final solve); "
            "centering without scaling"
        )
    return TrainedModel(
        params=params,
        solution=solution,
        stats=stats,
        config=cfg,
        loss_trace=trace,
        train_keys=tuple(zip(index.subject_ids, index.visit_ids)),
    )


def compute_fingerprints(
    model: TrainedModel, records: list[VisitRecord], mode: str = "fused"
) -> list[Fingerprint]:
    """Fingerprints for a list of visits.

    mode "train-shared" looks up the stored shared representation and only
    works for the exact training visits; the projection modes ("brain",
    "cognition", "fused") encode and project any visits with the training
    fold's statistics.
    """
    if mode == "train-shared":
        positions = {key: i for i, key in enumerate(model.train_keys)}
        out = []
        for rec in records:
            key = (rec.subject_id, rec.visit)
            if key not in positions:
                raise ValueError(
                    f"subject {rec.subject_id!r} visit {rec.visit} was not in the "
                    "training fold; use a projection mode"
                )
            out.append(
                Fingerprint(values=model.solution.r[:, positions[key]], tag="train-shared")
            )
        return out
    graphs, cogs, _ = _stack_records(records)
    pooled, _, _, _ = encode_batch(model.params, graphs)
    brain, cog, _ = preprocess_views(pooled.T, cogs, stats=model.stats)
    return [
        project_fingerprint(
            model.solution, h_g=brain.features[:, i], cog=cog.features[:, i], mode=mode
        )
        for i in range(len(records))
    ]


def cross_validate(
    records: list[VisitRecord], cfg: TrainConfig
) -> tuple[list[np.ndarray], list[TrainedModel]]:
    """Train one model per fold on that fold's complement, the folds run on
    the fork lanes (`lanes.forks`).

    Fold assignment and per-fold seeds derive deterministically from
    cfg.seed, so reruns reproduce the same models.
    """
    folds = make_subject_folds([r.subject_id for r in records], cfg.folds, cfg.seed)
    models = list(lanes.forks(
        lambda split: train_model(
            [records[i] for i in split.train_indices],
            replace(cfg, seed=_derive_seed(cfg.seed, split.fold)),
        ),
        fold_splits(folds, len(records)),
    ))
    return folds, models


def out_of_fold_fingerprints(
    folds: list[np.ndarray],
    models: list[TrainedModel],
    records: list[VisitRecord],
    mode: str = "fused",
) -> tuple[list[Fingerprint], np.ndarray]:
    """Each visit's fingerprint from the model that held it out, aligned with
    the record order. Returns (fingerprints, fold id per visit). The folds
    must partition the visits (see out_of_fold), one model per fold."""
    if mode == "train-shared":
        raise ValueError("held-out fingerprints require a projection mode")
    splits = fold_splits(folds, len(records))
    per_fold = [
        compute_fingerprints(model, [records[i] for i in split.test_indices], mode=mode)
        for split, model in zip(splits, models, strict=True)
    ]
    fingerprints, fold_of = out_of_fold(splits, per_fold, len(records))
    return fingerprints.tolist(), fold_of
