import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cograca.contrastive import (
    BatchIndex,
    ContrastiveConfig,
    individualized_loss,
    multimodal_loss,
)

from conftest import finite_difference, relative_error


def unit(x):
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def reference_individualized(emb, index, cfg):
    """Naive double-loop restatement of the loss, used as the oracle."""
    u = unit(emb)
    sim = u @ u.T
    n = len(emb)
    total = 0.0
    for i in range(n):
        den = sum(
            math.exp(sim[i, k] / cfg.temperature) for k in range(n) if k != i
        )
        for j in range(n):
            if j == i or index.subject_ids[j] != index.subject_ids[i]:
                continue
            total += math.log(math.exp(sim[i, j] / cfg.temperature) / den)
    return -total / n


def reference_multimodal(emb, cogs, index, cfg):
    u_h = unit(emb)
    u_c = unit(cogs)
    sim = u_h @ u_c.T
    subjects = sorted(set(index.subject_ids))
    total = 0.0
    for s in subjects:
        visits = [i for i, sid in enumerate(index.subject_ids) if sid == s]
        if len(visits) < 2:
            continue
        for i in visits:
            others = [j for j in visits if j != i]
            den = sum(math.exp(sim[i, j] / cfg.temperature) for j in others)
            total += math.log(math.exp(sim[i, i] / cfg.temperature) / den)
    return -total / len(subjects)


def loop_multimodal(embeddings, cognition, index, cfg):
    """The loss and gradient subject by subject, one sub-batch each: the
    per-subject loop the block-masked kernel replaced, kept as its oracle
    (including which zero-norm row it reports first)."""

    def unit_rows(x, sub, what):
        norms = np.sqrt((x * x).sum(axis=1))
        bad = np.flatnonzero(norms < 1e-12)
        if bad.size:
            i = int(bad[0])
            raise ValueError(
                f"zero-norm {what} for subject {sub.subject_ids[i]!r} "
                f"visit {sub.visit_ids[i]}; cosine similarity undefined"
            )
        return x / norms[:, None], norms

    grad = np.zeros_like(embeddings)
    tau = cfg.temperature
    loss = 0.0
    for subject in index.multi_visit_subjects():
        pos = np.array(index.groups[subject])
        sub = BatchIndex.from_visits(
            [index.subject_ids[i] for i in pos], [index.visit_ids[i] for i in pos]
        )
        unit_h, norms_h = unit_rows(embeddings[pos], sub, "embedding")
        unit_c, _ = unit_rows(cognition[pos], sub, "cognitive vector")
        logits = (unit_h @ unit_c.T) / tau
        denom_logits = logits.copy()
        np.fill_diagonal(denom_logits, -np.inf)
        row_max = denom_logits.max(axis=1, keepdims=True)
        expd = np.exp(denom_logits - row_max)
        z = expd.sum(axis=1, keepdims=True)
        loss -= float(np.trace(logits) - (np.log(z) + row_max).sum())
        g_unit = ((expd / z - np.eye(len(pos))) / tau) @ unit_c
        grad[pos] += (g_unit - (g_unit * unit_h).sum(axis=1, keepdims=True) * unit_h) / norms_h[:, None]
    return loss / index.n_subjects, grad / index.n_subjects


def loop_individualized(embeddings, index, cfg):
    """The loss and gradient anchor by anchor: each anchor's log-softmax over
    the other visits, its positives the same subject's other visits, and the
    logit gradient sent to both ends of every similarity; the per-row oracle
    of the kernel's gradient."""
    norms = np.linalg.norm(embeddings, axis=1)
    u = embeddings / norms[:, None]
    n, tau = len(u), cfg.temperature
    d_unit = np.zeros_like(u)
    loss = 0.0
    for i in range(n):
        others = np.array([k for k in range(n) if k != i])
        positive = np.array([index.subject_ids[k] == index.subject_ids[i] for k in others])
        logits = u[others] @ u[i] / tau
        log_p = logits - logits.max()
        log_p -= math.log(np.exp(log_p).sum())
        loss -= log_p[positive].sum()
        g_logits = (positive.sum() * np.exp(log_p) - positive) / (n * tau)
        d_unit[i] += g_logits @ u[others]
        d_unit[others] += g_logits[:, None] * u[i]
    grad = (d_unit - (d_unit * u).sum(axis=1, keepdims=True) * u) / norms[:, None]
    return loss / n, grad


# multi-visit subjects a, b, c interleaved with single-visit d, e, visit
# numbers out of order
INTERLEAVED = (("c", 3), ("a", 2), ("d", 1), ("b", 1), ("a", 1), ("c", 1), ("e", 4),
               ("b", 2), ("c", 2))


def make_batch(rng, subjects=("a", "a", "b", "b", "c"), d=6):
    n = len(subjects)
    visits = []
    seen = {}
    for s in subjects:
        seen[s] = seen.get(s, 0) + 1
        visits.append(seen[s])
    index = BatchIndex.from_visits(list(subjects), visits)
    emb = rng.standard_normal((n, d))
    cogs = rng.standard_normal((n, d))
    return emb, cogs, index


class TestBatchIndex:
    def test_counts(self):
        idx = BatchIndex.from_visits(["a", "a", "b"], [1, 2, 1])
        assert idx.n_visits == 3
        assert idx.n_subjects == 2
        assert idx.multi_visit_subjects() == ["a"]

    def test_duplicate_visit_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            BatchIndex.from_visits(["a", "a"], [1, 1])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            BatchIndex.from_visits(["a", "b"], [1])


class TestConfig:
    def test_defaults(self):
        cfg = ContrastiveConfig()
        assert cfg.temperature == 0.9
        assert (cfg.lambda1, cfg.lambda2) == (1.5, 0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            ContrastiveConfig(temperature=0.0)
        with pytest.raises(ValueError):
            ContrastiveConfig(lambda1=-0.1)


class TestIndividualized:
    def test_matches_reference(self, rng):
        cfg = ContrastiveConfig()
        for _ in range(8):
            emb, _, index = make_batch(rng)
            loss, _ = individualized_loss(emb, index, cfg)
            assert loss == pytest.approx(reference_individualized(emb, index, cfg), abs=1e-12)

    def test_three_identical_one_subject(self):
        # Each of 3 anchors has 2 positives; every term is log(1/2), so the
        # loss is (1/3) * 6 * ln 2 = 2 ln 2 regardless of temperature.
        emb = np.tile([1.0, 2.0, 0.5], (3, 1))
        index = BatchIndex.from_visits(["s", "s", "s"], [1, 2, 3])
        for tau in (0.5, 0.9, 2.0):
            loss, _ = individualized_loss(emb, index, ContrastiveConfig(temperature=tau))
            assert loss == pytest.approx(2 * math.log(2), abs=1e-12)

    def test_identical_pair_plus_outsider(self):
        # Subjects (A, A, B), all embeddings identical: anchors 1 and 2 each
        # contribute log(1/2); anchor 3 has no positive. Loss = (2/3) ln 2.
        emb = np.tile([0.3, -1.0], (3, 1))
        index = BatchIndex.from_visits(["a", "a", "b"], [1, 2, 1])
        loss, _ = individualized_loss(emb, index, ContrastiveConfig())
        assert loss == pytest.approx(2 * math.log(2) / 3, abs=1e-12)

    def test_no_pairs_warns_and_zeroes(self, rng):
        emb = rng.standard_normal((3, 4))
        index = BatchIndex.from_visits(["a", "b", "c"], [1, 1, 1])
        with pytest.warns(UserWarning, match="no same-subject pair"):
            loss, grad = individualized_loss(emb, index, ContrastiveConfig())
        assert loss == 0.0
        assert np.all(grad == 0.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_grad_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        emb, _, index = make_batch(rng)
        cfg = ContrastiveConfig(temperature=0.7)
        _, grad = individualized_loss(emb, index, cfg)

        def scalar(x):
            return individualized_loss(x, index, cfg)[0]

        fd = finite_difference(scalar, emb.copy())
        assert relative_error(grad, fd) < 1e-6

    @given(st.integers(0, 10_000))
    def test_scale_invariance(self, seed):
        # Cosine similarity ignores per-row positive rescaling.
        r = np.random.default_rng(seed)
        emb, _, index = make_batch(r)
        scales = r.uniform(0.1, 10.0, size=(len(emb), 1))
        cfg = ContrastiveConfig()
        l1, _ = individualized_loss(emb, index, cfg)
        l2, _ = individualized_loss(emb * scales, index, cfg)
        assert l1 == pytest.approx(l2, rel=1e-9)

    def test_gradient_descends(self, rng):
        emb, _, index = make_batch(rng)
        cfg = ContrastiveConfig()
        loss, grad = individualized_loss(emb, index, cfg)
        stepped, _ = individualized_loss(emb - 1e-3 * grad, index, cfg)
        assert stepped < loss

    def test_pulls_same_subject_together(self, rng):
        # A descent step must increase same-subject cosine similarity on a
        # batch where positives start far apart.
        emb = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.5], [0.7, 0.7]])
        index = BatchIndex.from_visits(["a", "a", "b", "b"], [1, 2, 1, 2])
        cfg = ContrastiveConfig()

        def intra_sim(e):
            u = unit(e)
            return u[0] @ u[1] + u[2] @ u[3]

        _, grad = individualized_loss(emb, index, cfg)
        assert intra_sim(emb - 1e-2 * grad) > intra_sim(emb)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_anchor_loop(self, seed):
        rng = np.random.default_rng(seed)
        index = BatchIndex.from_visits(*zip(*INTERLEAVED))
        emb = rng.standard_normal((index.n_visits, 5))
        cfg = ContrastiveConfig(temperature=0.7)
        loss, grad = individualized_loss(emb, index, cfg)
        ref_loss, ref_grad = loop_individualized(emb, index, cfg)
        assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
        assert np.abs(grad - ref_grad).max() <= 1e-12 * np.abs(ref_grad).max()

    def test_zero_norm_rejected(self, rng):
        emb, _, index = make_batch(rng)
        emb[1] = 0.0
        with pytest.raises(ValueError, match="zero-norm"):
            individualized_loss(emb, index, ContrastiveConfig())


class TestMultimodal:
    def test_matches_reference(self, rng):
        cfg = ContrastiveConfig()
        for _ in range(6):
            emb, cogs, index = make_batch(rng)
            loss, _ = multimodal_loss(emb, cogs, index, cfg)
            assert loss == pytest.approx(
                reference_multimodal(emb, cogs, index, cfg), abs=1e-12
            )

    def test_identical_embeddings_closed_form(self):
        # One subject, two visits, everything the same unit direction. The
        # positive is left out of the denominator, so the per-visit ratio is
        # exp/exp = 1 -> loss 0.
        v = np.array([0.6, 0.8])
        emb = np.tile(v, (4, 1))
        cogs = np.tile(v, (4, 1))
        index = BatchIndex.from_visits(["a", "a", "b", "c"], [1, 2, 1, 1])
        loss, _ = multimodal_loss(emb, cogs, index, ContrastiveConfig())
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_single_visit_batch_warns_and_zeroes(self, rng):
        emb = rng.standard_normal((3, 4))
        cogs = rng.standard_normal((3, 4))
        index = BatchIndex.from_visits(["a", "b", "c"], [1, 1, 1])
        with pytest.warns(UserWarning, match="single visit"):
            loss, grad = multimodal_loss(emb, cogs, index, ContrastiveConfig())
        assert loss == 0.0
        assert np.all(grad == 0.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_grad_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        emb, cogs, index = make_batch(rng)
        cfg = ContrastiveConfig()
        _, grad = multimodal_loss(emb, cogs, index, cfg)

        def scalar(x):
            return multimodal_loss(x, cogs, index, cfg)[0]

        fd = finite_difference(scalar, emb.copy())
        assert relative_error(grad, fd) < 1e-6

    def test_gradient_only_on_multi_visit_rows(self, rng):
        emb, cogs, index = make_batch(rng)  # c has a single visit (row 4)
        _, grad = multimodal_loss(emb, cogs, index, ContrastiveConfig())
        assert np.all(grad[4] == 0.0)
        assert np.any(grad[:4] != 0.0)

    def test_normalizer_counts_all_subjects(self, rng):
        # Adding a single-visit subject leaves every term unchanged but grows
        # the normalizer, scaling the loss by S/(S+1).
        emb, cogs, index = make_batch(rng, subjects=("a", "a", "b", "b"))
        cfg = ContrastiveConfig()
        base, _ = multimodal_loss(emb, cogs, index, cfg)
        emb2 = np.vstack([emb, rng.standard_normal(6)])
        cogs2 = np.vstack([cogs, rng.standard_normal(6)])
        index2 = BatchIndex.from_visits(
            list(index.subject_ids) + ["z"], list(index.visit_ids) + [1]
        )
        grown, _ = multimodal_loss(emb2, cogs2, index2, cfg)
        assert grown == pytest.approx(base * 2 / 3, rel=1e-12)

    def test_dimension_mismatch_rejected(self, rng):
        emb, cogs, index = make_batch(rng)
        with pytest.raises(ValueError, match="dim"):
            multimodal_loss(emb, cogs[:, :4], index, ContrastiveConfig())

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_subject_loop(self, seed):
        rng = np.random.default_rng(seed)
        index = BatchIndex.from_visits(*zip(*INTERLEAVED))
        emb = rng.standard_normal((index.n_visits, 5))
        cogs = rng.standard_normal((index.n_visits, 5))
        cfg = ContrastiveConfig(temperature=0.7)
        loss, grad = multimodal_loss(emb, cogs, index, cfg)
        ref_loss, ref_grad = loop_multimodal(emb, cogs, index, cfg)
        assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
        assert np.abs(grad - ref_grad).max() <= 1e-12 * np.abs(ref_grad).max()
        assert np.all(grad[[2, 6]] == 0.0)  # single-visit subjects d and e

    # (view, batch row) pairs set to zero; rows follow INTERLEAVED
    @pytest.mark.parametrize("zeros", [
        [("cog", 1), ("emb", 3)],  # a's cognitive vector, then b's embedding
        [("emb", 7), ("cog", 5)],  # c comes first in the batch: its cognition
        [("emb", 4), ("cog", 1)],  # a's second embedding before its first cognition
        [("emb", 2), ("cog", 7)],  # single-visit d is never normalized
    ])
    def test_zero_norm_error_names_the_loops_row(self, zeros):
        rng = np.random.default_rng(0)
        index = BatchIndex.from_visits(*zip(*INTERLEAVED))
        views = {"emb": rng.standard_normal((index.n_visits, 5)),
                 "cog": rng.standard_normal((index.n_visits, 5))}
        for view, row in zeros:
            views[view][row] = 0.0
        with pytest.raises(ValueError, match="zero-norm") as expected:
            loop_multimodal(views["emb"], views["cog"], index, ContrastiveConfig())
        with pytest.raises(ValueError, match="zero-norm") as got:
            multimodal_loss(views["emb"], views["cog"], index, ContrastiveConfig())
        assert str(got.value) == str(expected.value)


def test_reruns_are_byte_identical():
    # a batch large enough for the N x N products to run threaded BLAS
    rng = np.random.default_rng(3)
    subjects = rng.integers(0, 120, 400)
    index = BatchIndex.from_visits(subjects, np.arange(400))
    emb = rng.standard_normal((400, 16))
    cogs = rng.standard_normal((400, 16))
    cfg = ContrastiveConfig()
    for run in (lambda: individualized_loss(emb, index, cfg),
                lambda: multimodal_loss(emb, cogs, index, cfg)):
        (loss, grad), (loss_again, grad_again) = run(), run()
        assert loss == loss_again
        assert grad.tobytes() == grad_again.tobytes()
