"""Training orchestration: subject-level folds, the alternating optimization
loop (re-solve the shared representation each epoch, then step the encoder),
and fingerprint generation for train and held-out visits.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .contrastive import BatchIndex, ContrastiveConfig, individualized_loss, multimodal_loss
from .data import VisitRecord
from .encoder import EncoderParams, encode_batch, encode_batch_vjp
from .gcca import (
    Fingerprint,
    GccaSolution,
    PreprocessStats,
    corr_grad_brain,
    corr_loss,
    preprocess_views,
    project_fingerprint,
    solve_gcca,
)
from .numerics import AdamState, _derive_seed, adam_step

__all__ = [
    "TrainConfig",
    "TrainedModel",
    "NonFiniteLossError",
    "make_subject_folds",
    "train_model",
    "compute_fingerprints",
    "cross_validate",
    "out_of_fold_fingerprints",
]


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for one training run; defaults are the operating
    values. lambda1 = lambda2 = 0 is the correlation-only ablation."""

    epochs: int = 1000
    learning_rate: float = 0.001
    hidden_dim: int = 32
    r: int = 16
    d_r: int = 16
    temperature: float = 0.9
    lambda1: float = 1.5
    lambda2: float = 0.5
    ridge: float | None = None
    seed: int = 0
    folds: int = 5

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be positive")
        if self.learning_rate <= 0.0:
            raise ValueError("learning rate must be positive")
        if min(self.hidden_dim, self.r, self.d_r) < 1:
            raise ValueError("dimensions must be positive")
        if self.temperature <= 0.0:
            raise ValueError("temperature must be positive")
        if self.lambda1 < 0.0 or self.lambda2 < 0.0:
            raise ValueError("loss weights must be nonnegative")
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
    """Raised when the objective stops being finite mid-training."""

    def __init__(self, epoch: int, corr: float, ind: float, mul: float):
        self.epoch = epoch
        self.components = (corr, ind, mul)
        super().__init__(
            f"non-finite loss at epoch {epoch}: corr={corr}, ind={ind}, mul={mul}"
        )


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
    folds: list[list[int]] = [[] for _ in range(k)]
    for visit_idx, subject in enumerate(subject_ids):
        folds[fold_of_subject[subject]].append(visit_idx)
    return [np.array(f, dtype=np.int64) for f in folds]


def _stack_records(records: list[VisitRecord]):
    """Stack a batch of visits into dense arrays, checking shape agreement."""
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
    feats = np.stack([rec.graph.attributes for rec in records])
    masks = np.stack([rec.graph.neighbor_mask() for rec in records])
    cogs = np.stack([rec.cognition for rec in records]).T
    index = BatchIndex.from_visits(
        [rec.subject_id for rec in records], [rec.visit for rec in records]
    )
    return feats, masks, cogs, index


def train_model(records: list[VisitRecord], cfg: TrainConfig) -> TrainedModel:
    """Full-batch alternating optimization.

    Each epoch: encode all graphs, z-score both views, re-solve the shared
    representation, assemble the embedding gradient (correlation term chained
    through the frozen z-scoring, plus the weighted contrastive terms on the
    raw embeddings), backpropagate through the encoder, and apply one Adam
    step per parameter array. A final solve after the last step makes the
    stored solution consistent with the returned weights.
    """
    feats, masks, cogs, index = _stack_records(records)
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
    use_ind = cfg.lambda1 > 0.0 and has_multi
    use_mul = cfg.lambda2 > 0.0 and has_multi
    ccfg = cfg.contrastive()
    rng = np.random.default_rng(cfg.seed)
    params = EncoderParams.init(feats.shape[2], cfg.hidden_dim, cfg.r, rng)
    opt = {name: AdamState.for_params(arr, lr=cfg.learning_rate)
           for name, arr in params.as_dict().items()}
    trace = np.zeros((cfg.epochs, 4))
    for epoch in range(cfg.epochs):
        pooled, _, _, caches = encode_batch(params, feats, masks)
        brain, cog, stats = preprocess_views(pooled.T, cogs)
        solution = solve_gcca(brain, cog, cfg.d_r, cfg.ridge)
        l_corr = corr_loss(solution, brain, cog)
        # z-scoring stats are treated as constants in the backward pass
        d_pooled = (corr_grad_brain(solution, brain) / stats.brain_std[:, None]).T
        l_ind = l_mul = 0.0
        if use_ind:
            l_ind, g_ind = individualized_loss(pooled, index, ccfg)
            d_pooled = d_pooled + cfg.lambda1 * g_ind
        if use_mul:
            l_mul, g_mul = multimodal_loss(pooled, cog.features.T, index, ccfg)
            d_pooled = d_pooled + cfg.lambda2 * g_mul
        l_total = l_corr + cfg.lambda1 * l_ind + cfg.lambda2 * l_mul
        if not np.isfinite(l_total):
            raise NonFiniteLossError(epoch, l_corr, l_ind, l_mul)
        trace[epoch] = (l_corr, l_ind, l_mul, l_total)
        grads = encode_batch_vjp(params, caches, d_pooled)
        updated = {}
        for name, arr in params.as_dict().items():
            updated[name], opt[name] = adam_step(opt[name], arr, grads[name])
        params = EncoderParams(**updated)
    pooled, _, _, _ = encode_batch(params, feats, masks)
    brain, cog, stats = preprocess_views(pooled.T, cogs)
    solution = solve_gcca(brain, cog, cfg.d_r, cfg.ridge)
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
    feats, masks, cogs, _ = _stack_records(records)
    pooled, _, _, _ = encode_batch(model.params, feats, masks)
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
    """Train one model per fold on that fold's complement, one fold after
    another.

    Fold assignment and per-fold seeds derive deterministically from
    cfg.seed, so reruns reproduce the same models.
    """
    folds = make_subject_folds([r.subject_id for r in records], cfg.folds, cfg.seed)
    models = []
    for fold_idx, test in enumerate(folds):
        held_out = set(test.tolist())
        train_records = [r for i, r in enumerate(records) if i not in held_out]
        models.append(
            train_model(train_records, replace(cfg, seed=_derive_seed(cfg.seed, fold_idx)))
        )
    return folds, models


def out_of_fold_fingerprints(
    folds: list[np.ndarray],
    models: list[TrainedModel],
    records: list[VisitRecord],
    mode: str = "fused",
) -> tuple[list[Fingerprint], np.ndarray]:
    """Each visit's fingerprint from the model that held it out, aligned with
    the record order. Returns (fingerprints, fold id per visit)."""
    if mode == "train-shared":
        raise ValueError("held-out fingerprints require a projection mode")
    fingerprints: list[Fingerprint | None] = [None] * len(records)
    fold_of = np.full(len(records), -1, dtype=np.int64)
    for fold_idx, test_idx in enumerate(folds):
        test_records = [records[i] for i in test_idx]
        fps = compute_fingerprints(models[fold_idx], test_records, mode=mode)
        for i, fp in zip(test_idx, fps):
            fingerprints[int(i)] = fp
            fold_of[int(i)] = fold_idx
    if any(fp is None for fp in fingerprints):
        raise ValueError("folds do not cover every visit")
    return fingerprints, fold_of  # type: ignore[return-value]
