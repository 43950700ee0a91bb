import dataclasses

import numpy as np
import pytest

from cograca.data import SyntheticConfig, generate_synthetic
from cograca.pipeline import (
    NonFiniteLossError,
    TrainConfig,
    _derive_seed,
    compute_fingerprints,
    cross_validate,
    make_subject_folds,
    out_of_fold_fingerprints,
    train_model,
)

COHORT = SyntheticConfig(subjects=10, rois=12, d_cog=8, latent_dim=4, seed=5)
TINY_TRAIN = TrainConfig(epochs=4, hidden_dim=8, r=8, d_r=5, seed=1, folds=3)


@pytest.fixture(scope="module")
def records():
    return generate_synthetic(COHORT)[0]


class TestTrainConfig:
    def test_model_kind(self):
        assert TrainConfig().model_kind == "CoGraCa"
        assert TrainConfig(lambda1=0.0, lambda2=0.0).model_kind == "GraCa"
        assert TrainConfig(lambda1=0.0).model_kind == "CoGraCa"

    def test_defaults_match_published_setup(self):
        cfg = TrainConfig()
        assert cfg.epochs == 1000
        assert cfg.learning_rate == 0.001
        assert cfg.hidden_dim == 32
        assert cfg.r == 16 and cfg.d_r == 16
        assert cfg.temperature == 0.9
        assert (cfg.lambda1, cfg.lambda2) == (1.5, 0.5)
        assert cfg.folds == 5

    def test_validation(self):
        for bad in (
            dict(epochs=0),
            dict(learning_rate=0.0),
            dict(r=0),
            dict(temperature=-1.0),
            dict(lambda1=-0.5),
            dict(ridge=0.0),
            dict(folds=1),
        ):
            with pytest.raises(ValueError):
                TrainConfig(**bad)


class TestFolds:
    def test_partition(self):
        ids = [f"s{i:02d}" for i in range(20) for _ in range(2)]
        folds = make_subject_folds(ids, 5, seed=0)
        all_idx = np.concatenate(folds)
        assert sorted(all_idx.tolist()) == list(range(40))

    def test_subjects_never_split(self):
        ids = ["a", "a", "b", "c", "c", "c", "d", "e"]
        folds = make_subject_folds(ids, 3, seed=2)
        for fold in folds:
            subjects_here = {ids[i] for i in fold.tolist()}
            for other in folds:
                if other is fold:
                    continue
                assert subjects_here.isdisjoint({ids[i] for i in other.tolist()})

    def test_57_subjects_into_5_folds(self):
        ids = [f"p{i:03d}" for i in range(57)]
        folds = make_subject_folds(ids, 5, seed=0)
        sizes = sorted(len(f) for f in folds)
        assert sizes == [11, 11, 11, 12, 12]

    def test_deterministic_and_seed_sensitive(self):
        ids = [f"s{i}" for i in range(12)]
        a = make_subject_folds(ids, 4, seed=9)
        b = make_subject_folds(ids, 4, seed=9)
        c = make_subject_folds(ids, 4, seed=10)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        assert any(not np.array_equal(x, y) for x, y in zip(a, c))

    def test_too_many_folds_rejected(self):
        with pytest.raises(ValueError):
            make_subject_folds(["a", "b", "c"], 4, seed=0)


class TestTrainModel:
    def test_returns_consistent_model(self, records):
        model = train_model(records, TINY_TRAIN)
        assert model.params.d_in == 12
        assert model.solution.r.shape == (5, len(records))
        gram = model.solution.r @ model.solution.r.T
        assert np.max(np.abs(gram - np.eye(5))) < 1e-8
        assert model.loss_trace.shape == (4, 4)
        assert np.all(np.isfinite(model.loss_trace))
        assert model.train_keys == tuple((r.subject_id, r.visit) for r in records)

    def test_deterministic(self, records):
        m1 = train_model(records, TINY_TRAIN)
        m2 = train_model(records, TINY_TRAIN)
        assert np.array_equal(m1.params.w1, m2.params.w1)
        assert np.array_equal(m1.solution.r, m2.solution.r)
        assert np.array_equal(m1.loss_trace, m2.loss_trace)

    def test_loss_decreases_over_training(self, records):
        cfg = dataclasses.replace(TINY_TRAIN, epochs=300)
        model = train_model(records, cfg)
        total = model.loss_trace[:, 3]
        assert total[-50:].mean() < total[:50].mean()

    def test_trace_columns_compose(self, records):
        model = train_model(records, TINY_TRAIN)
        corr, ind, mul, total = model.loss_trace.T
        assert np.allclose(total, corr + 1.5 * ind + 0.5 * mul)

    def test_ablation_has_zero_contrastive_columns(self, records):
        cfg = dataclasses.replace(TINY_TRAIN, lambda1=0.0, lambda2=0.0)
        model = train_model(records, cfg)
        assert np.all(model.loss_trace[:, 1] == 0.0)
        assert np.all(model.loss_trace[:, 2] == 0.0)

    def test_single_visit_cohort_warns(self):
        solo = generate_synthetic(
            dataclasses.replace(COHORT, two_visit_fraction=0.0, subjects=12)
        )[0]
        with pytest.warns(UserWarning, match="contrastive terms are inactive"):
            model = train_model(solo, TINY_TRAIN)
        assert np.all(model.loss_trace[:, 1:3] == 0.0)

    def test_too_few_visits_rejected(self, records):
        cfg = dataclasses.replace(TINY_TRAIN, d_r=len(records))
        with pytest.raises(ValueError, match="visits"):
            train_model(records, cfg)

    def test_multimodal_needs_matching_dims(self, records):
        cfg = dataclasses.replace(TINY_TRAIN, r=7)  # d_cog is 8
        with pytest.raises(ValueError, match="cognitive dim"):
            train_model(records, cfg)

    def test_nonfinite_loss_aborts_with_epoch(self, records):
        # A denormal temperature overflows the contrastive logits on the very
        # first epoch.
        cfg = dataclasses.replace(TINY_TRAIN, temperature=1e-320)
        with pytest.raises(NonFiniteLossError) as exc_info:
            train_model(records, cfg)
        assert exc_info.value.epoch == 0
        assert len(exc_info.value.components) == 3
        assert "epoch 0" in str(exc_info.value)


class TestFingerprints:
    def test_train_shared_matches_solution_columns(self, records):
        model = train_model(records, TINY_TRAIN)
        fps = compute_fingerprints(model, records, mode="train-shared")
        for i, fp in enumerate(fps):
            assert fp.tag == "train-shared"
            assert np.array_equal(fp.values, model.solution.r[:, i])

    def test_train_shared_rejects_unseen_visit(self, records):
        model = train_model(records[:-1], TINY_TRAIN)
        with pytest.raises(ValueError, match="projection"):
            compute_fingerprints(model, [records[-1]], mode="train-shared")

    def test_projection_modes(self, records):
        model = train_model(records[:-2], TINY_TRAIN)
        held = records[-2:]
        fused = compute_fingerprints(model, held, mode="fused")
        brain = compute_fingerprints(model, held, mode="brain")
        cognition = compute_fingerprints(model, held, mode="cognition")
        for f, b, c in zip(fused, brain, cognition):
            assert f.tag == "test-fused"
            assert b.tag == "test-brain"
            assert c.tag == "test-cognition"
            assert np.allclose(f.values, (b.values + c.values) / 2)

    def test_deterministic_projection(self, records):
        model = train_model(records[:-2], TINY_TRAIN)
        f1 = compute_fingerprints(model, records[-2:], mode="fused")
        f2 = compute_fingerprints(model, records[-2:], mode="fused")
        for a, b in zip(f1, f2):
            assert np.array_equal(a.values, b.values)


class TestCrossValidate:
    def test_shapes_and_coverage(self, records):
        folds, models = cross_validate(records, TINY_TRAIN)
        assert len(folds) == 3 and len(models) == 3
        fps, fold_of = out_of_fold_fingerprints(folds, models, records)
        assert len(fps) == len(records)
        covered = np.concatenate(folds)
        assert sorted(covered.tolist()) == list(range(len(records)))
        for k, fold in enumerate(folds):
            assert np.all(fold_of[fold] == k)

    def test_no_leakage_fold_model_equals_isolated_retrain(self, records):
        # Retraining on exactly the training-fold records with the derived
        # seed must reproduce the fold model bit for bit; held-out visits can
        # not have influenced it.
        folds, models = cross_validate(records, TINY_TRAIN)
        held = set(folds[0].tolist())
        train_records = [r for i, r in enumerate(records) if i not in held]
        redo = train_model(
            train_records,
            dataclasses.replace(TINY_TRAIN, seed=_derive_seed(TINY_TRAIN.seed, 0)),
        )
        assert np.array_equal(redo.params.w1, models[0].params.w1)
        assert np.array_equal(redo.params.m2, models[0].params.m2)
        assert np.array_equal(redo.solution.r, models[0].solution.r)

    def test_out_of_fold_rejects_train_shared(self, records):
        folds, models = cross_validate(records, TINY_TRAIN)
        with pytest.raises(ValueError):
            out_of_fold_fingerprints(folds, models, records, mode="train-shared")

    def test_fold_seeds_differ(self):
        seeds = {_derive_seed(0, k) for k in range(5)}
        assert len(seeds) == 5
        assert _derive_seed(0, 1) == _derive_seed(0, 1)
