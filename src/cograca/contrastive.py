"""Contrastive regularizers over graph embeddings.

Both losses are `numerics._softmax_xent` over temperature-scaled cosine
logits and differ in their positives and candidates: the individualized loss
pulls together visits of the same subject against all other visits in the
batch, and the multimodal loss pulls a visit's embedding toward its own
cognitive vector against the subject's other visits. Both return exact
gradients with respect to the embeddings.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .numerics import _check_finite, _softmax_xent

__all__ = [
    "BatchIndex",
    "ContrastiveConfig",
    "ZeroNormError",
    "individualized_loss",
    "multimodal_loss",
]


@dataclass(frozen=True)
class BatchIndex:
    """Visit-to-subject bookkeeping for one batch."""

    subject_ids: tuple[str, ...]
    visit_ids: tuple[int, ...]
    groups: dict[str, tuple[int, ...]] = field(compare=False)

    @classmethod
    def from_visits(cls, subject_ids, visit_ids) -> "BatchIndex":
        subject_ids = tuple(str(s) for s in subject_ids)
        visit_ids = tuple(int(v) for v in visit_ids)
        if len(subject_ids) != len(visit_ids):
            raise ValueError("subject and visit lists must have equal length")
        seen = set()
        groups: dict[str, list[int]] = {}
        for pos, (subj, visit) in enumerate(zip(subject_ids, visit_ids)):
            if (subj, visit) in seen:
                raise ValueError(f"duplicate visit: subject {subj!r} visit {visit}")
            seen.add((subj, visit))
            groups.setdefault(subj, []).append(pos)
        return cls(
            subject_ids=subject_ids,
            visit_ids=visit_ids,
            groups={s: tuple(p) for s, p in groups.items()},
        )

    @property
    def n_visits(self) -> int:
        return len(self.subject_ids)

    @property
    def n_subjects(self) -> int:
        return len(self.groups)

    def multi_visit_subjects(self) -> list[str]:
        return [s for s, pos in self.groups.items() if len(pos) > 1]

    @cached_property
    def subject_codes(self) -> np.ndarray:
        """Per visit, its subject's position in `groups` (first-visit order)."""
        codes = np.empty(self.n_visits, dtype=np.intp)
        for code, positions in enumerate(self.groups.values()):
            codes[list(positions)] = code
        return codes


@dataclass(frozen=True)
class ContrastiveConfig:
    """Temperature and loss weights; defaults are the operating values."""

    temperature: float = 0.9
    lambda1: float = 1.5
    lambda2: float = 0.5

    def __post_init__(self) -> None:
        _check_finite(self)
        if self.temperature <= 0.0:
            raise ValueError("temperature must be positive")
        if self.lambda1 < 0.0 or self.lambda2 < 0.0:
            raise ValueError("loss weights must be nonnegative")


class ZeroNormError(ValueError):
    """A row of a view has zero norm, so its cosine similarity is undefined;
    `what` names the view and (`subject`, `visit`) the row's visit."""

    def __init__(self, what: str, subject: str, visit: int):
        self.what, self.subject, self.visit = what, subject, visit
        super().__init__(f"zero-norm {what} for subject {subject!r} visit {visit}; "
                         "cosine similarity undefined")

    def __reduce__(self):  # pickle and copy rebuild from the arguments, not the message
        return type(self), (self.what, self.subject, self.visit), self.__dict__


def _unit_rows(index: BatchIndex, rows: np.ndarray, *views) -> list:
    """Rows `rows` of each (what, x) view scaled to unit length, with their
    norms. A zero-norm row raises, naming the first one a subject-by-subject
    pass meets: subjects in order of first visit, each one's views in turn."""
    norms = [np.sqrt((x * x).sum(axis=1))[rows] for _, x in views]
    view, bad = np.nonzero(np.array(norms) < 1e-12)
    if bad.size:
        first = np.lexsort((bad, view, index.subject_codes[rows[bad]]))[0]
        i = rows[bad[first]]
        raise ZeroNormError(views[view[first]][0], index.subject_ids[i], index.visit_ids[i])
    return [(x[rows] / n[:, None], n) for (_, x), n in zip(views, norms)]


def _norm_backward(d_unit: np.ndarray, unit: np.ndarray, norms: np.ndarray) -> np.ndarray:
    # d/dx of x/|x| applied to an upstream gradient on the unit vector
    return (d_unit - (d_unit * unit).sum(axis=1, keepdims=True) * unit) / norms[:, None]


def individualized_loss(
    embeddings: np.ndarray, index: BatchIndex, cfg: ContrastiveConfig
) -> tuple[float, np.ndarray]:
    """Same-subject visits are positives; every other visit is a negative.

    loss = -(1/N) sum_i sum_{j~i} log[ exp(sim_ij/tau) / sum_{k!=i} exp(sim_ik/tau) ]
    with cosine similarity. Returns (loss, gradient wrt embeddings).
    """
    embeddings = np.asarray(embeddings, dtype=np.float64)
    n = embeddings.shape[0]
    if n != index.n_visits:
        raise ValueError("embedding count does not match the batch index")
    if n < 2:
        raise ValueError("need at least two visits")
    [(unit, norms)] = _unit_rows(index, np.arange(n), ("embedding", embeddings))
    codes = index.subject_codes
    positive = codes[:, None] == codes[None, :]
    np.fill_diagonal(positive, False)
    if not positive.any():
        warnings.warn("no same-subject pair in batch; individualized loss is 0")
        return 0.0, np.zeros_like(embeddings)
    tau = cfg.temperature
    loss, g = _softmax_xent((unit @ unit.T) / tau, positive, ~np.eye(n, dtype=bool))
    g /= n  # the mean over anchors
    g /= tau  # logits = sim / tau
    return loss / n, _norm_backward((g + g.T) @ unit, unit, norms)


def multimodal_loss(
    embeddings: np.ndarray,
    cognition: np.ndarray,
    index: BatchIndex,
    cfg: ContrastiveConfig,
) -> tuple[float, np.ndarray]:
    """Within each multi-visit subject, align a visit's embedding with its own
    cognitive vector against the subject's other visits' cognitive vectors.
    The positive pair is left out of the denominator, which holds only the
    subject's other visits (standard InfoNCE would include it).

    The per-subject sums are averaged over all distinct subjects in the
    batch; single-visit subjects contribute nothing. Returns (loss, gradient
    wrt embeddings) — cognitive vectors carry no parameters.
    """
    embeddings = np.asarray(embeddings, dtype=np.float64)
    cognition = np.asarray(cognition, dtype=np.float64)
    if embeddings.shape[0] != index.n_visits or cognition.shape[0] != index.n_visits:
        raise ValueError("embedding/cognition count does not match the batch index")
    if embeddings.shape[1] != cognition.shape[1]:
        raise ValueError(
            f"embedding dim {embeddings.shape[1]} does not match "
            f"cognitive dim {cognition.shape[1]}"
        )
    grad = np.zeros_like(embeddings)
    if not index.multi_visit_subjects():
        warnings.warn("every subject has a single visit; multimodal loss is 0")
        return 0.0, grad
    # One block-masked pass over the visits of multi-visit subjects: row i's
    # denominator holds the cognitive vectors of its subject's other visits.
    codes = index.subject_codes
    active = np.flatnonzero(np.bincount(codes)[codes] > 1)
    (unit_h, norms_h), (unit_c, _) = _unit_rows(
        index, active, ("embedding", embeddings), ("cognitive vector", cognition))
    same = codes[active, None] == codes[None, active]
    np.fill_diagonal(same, False)
    tau = cfg.temperature
    loss, g = _softmax_xent((unit_h @ unit_c.T) / tau, np.eye(len(active), dtype=bool), same)
    g /= tau
    n_subjects = index.n_subjects
    grad[active] = _norm_backward(g @ unit_c, unit_h, norms_h) / n_subjects
    return loss / n_subjects, grad

