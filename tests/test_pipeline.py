import copy
import dataclasses
import pickle
import warnings
from collections import Counter

import numpy as np
import pytest

import cograca.pipeline
from cograca.contrastive import ContrastiveConfig, individualized_loss, multimodal_loss
from cograca.data import SyntheticConfig, generate_synthetic
from cograca.encoder import EncoderParams
from cograca.gcca import corr_loss, preprocess_views
from cograca.pipeline import (
    DeadVisitError,
    NonFiniteLossError,
    TrainConfig,
    _derive_seed,
    _forward,
    _stack_records,
    _step,
    compute_fingerprints,
    cross_validate,
    fold_splits,
    make_subject_folds,
    out_of_fold,
    out_of_fold_fingerprints,
    train_model,
)

from conftest import (
    NON_PARTITION, PACKAGE_ERRORS, damaged_folds, dead_visit_encoder, finite_difference,
    nothing_left, relative_error, same_error, usable_cpus,
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

    def test_contrastive_defaults_come_from_contrastive_config(self):
        assert TrainConfig().contrastive() == ContrastiveConfig()

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

    def test_zero_variance_warned_once_per_train(self):
        # the default cohort starts with dead ReLU embedding units, which
        # leave constant brain rows in every epoch
        default = generate_synthetic(SyntheticConfig())[0]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            train_model(default, TrainConfig(epochs=5))
        zero_var = [str(w.message) for w in caught if "zero variance" in str(w.message)]
        assert len(zero_var) == 1
        assert zero_var[0].startswith("brain view rows [")
        assert "of 6 GCCA solves (5 epochs and the final solve)" in zero_var[0]

    def test_stage_calls_per_epoch(self, records, monkeypatch):
        # The stages are looked up on cograca.pipeline at call time, which is
        # where a tracer wraps them: pin how often each one runs.
        calls = Counter()
        for name in ("encode_batch", "encode_batch_vjp", "preprocess_views", "solve_gcca",
                     "corr_loss", "corr_grad_brain", "individualized_loss",
                     "multimodal_loss", "adam_step"):
            def counted(*args, _name=name, _fn=getattr(cograca.pipeline, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(cograca.pipeline, name, counted)
        epochs = 7
        train_model(records, dataclasses.replace(TINY_TRAIN, epochs=epochs))
        assert calls == {
            "encode_batch": epochs + 1, "encode_batch_vjp": epochs,
            "preprocess_views": epochs + 1, "solve_gcca": epochs + 1,
            "corr_loss": epochs, "corr_grad_brain": epochs,
            "individualized_loss": epochs, "multimodal_loss": epochs, "adam_step": epochs,
        }

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

    @pytest.mark.parametrize("lambdas", [(1.5, 0.5), (0.0, 0.5)])
    def test_dead_visit_is_a_training_failure(self, records, monkeypatch, lambdas):
        # a visit whose pooled embedding is all zero stops training with the
        # epoch, subject and visit, whichever contrastive term meets it first
        # (row 1 is s000's second visit, so the multimodal term sees it too)
        monkeypatch.setattr(cograca.pipeline, "encode_batch", dead_visit_encoder(1, epoch=2))
        lambda1, lambda2 = lambdas
        cfg = dataclasses.replace(TINY_TRAIN, lambda1=lambda1, lambda2=lambda2)
        with pytest.raises(DeadVisitError) as exc_info:
            train_model(records, cfg)
        err, dead = exc_info.value, records[1]
        assert (err.epoch, err.subject, err.visit) == (2, dead.subject_id, dead.visit)
        assert str(err) == (f"dead visit at epoch 2: zero-norm pooled embedding for "
                            f"subject {dead.subject_id!r} visit {dead.visit}")

    def test_zero_cognitive_vector_stays_an_input_error(self, records):
        # scores equal to the other visits' means z-score to a zero row: the
        # input's doing, so a ValueError (exit 4), not a training failure
        mean = np.mean([r.cognition for r in records[:1] + records[2:]], axis=0)
        damaged = [records[0], dataclasses.replace(records[1], cognition=mean), *records[2:]]
        with pytest.raises(ValueError, match="zero-norm cognitive vector for subject 's000' "
                                             "visit 2"):
            train_model(damaged, dataclasses.replace(TINY_TRAIN, lambda1=0.0))

    def test_dead_visit_without_contrastive_terms_trains(self, records, monkeypatch):
        # nothing normalises the embedding, so a zero row is no failure
        monkeypatch.setattr(cograca.pipeline, "encode_batch", dead_visit_encoder(1, epoch=2))
        train_model(records, dataclasses.replace(TINY_TRAIN, lambda1=0.0, lambda2=0.0))


class TestStep:
    @pytest.fixture(scope="class")
    def step(self, records):
        """The first epoch's inputs, forward pass and step at the initial weights."""
        graphs, cogs, index = _stack_records(records)
        params = EncoderParams.init(graphs[0].attributes.shape[1], TINY_TRAIN.hidden_dim,
                                    TINY_TRAIN.r, np.random.default_rng(TINY_TRAIN.seed))
        forward = _forward(params, graphs, cogs, TINY_TRAIN, 0, {})
        result = _step(params, graphs, index, TINY_TRAIN.contrastive(), 0, forward)
        return cogs, index, forward, result

    def test_term_grads_match_finite_differences(self, step):
        # each term's gradient with respect to the pooled embedding, with the
        # forward pass's solution and z-scoring statistics held fixed
        cogs, index, (pooled, _, _, cog, stats, solution), (_, term_grads, _) = step
        ccfg = TINY_TRAIN.contrastive()

        def corr(p):
            return corr_loss(solution, preprocess_views(p.T, cogs, stats=stats)[0], cog)

        terms = (corr, lambda p: individualized_loss(p, index, ccfg)[0],
                 lambda p: multimodal_loss(p, cog.features.T, index, ccfg)[0])
        for term, grad in zip(terms, term_grads, strict=True):
            assert relative_error(grad, finite_difference(term, pooled.copy())) < 1e-4

    def test_losses_are_the_first_trace_row(self, records, step):
        losses, _, _ = step[3]
        trace = train_model(records, dataclasses.replace(TINY_TRAIN, epochs=1)).loss_trace
        assert np.array(losses).tobytes() == trace[0].tobytes()


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


class TestFoldProtocol:
    def test_split_is_fold_id_sorted_complement_and_test(self):
        splits = fold_splits([np.array([4, 1]), np.array([0, 2, 3])], 5, fold_ids=[7, 9])
        assert [s.fold for s in splits] == [7, 9]
        assert splits[0].train_indices.tolist() == [0, 2, 3]
        assert splits[0].test_indices.tolist() == [4, 1]
        assert splits[1].train_indices.tolist() == [1, 4]

    def test_assembles_rows_in_visit_order_with_fold_column(self):
        splits = fold_splits([np.array([4, 1]), np.array([0, 2, 3])], 5, fold_ids=[7, 9])
        rows, fold_of = out_of_fold(splits, [np.array([40, 10]), np.array([0, 20, 30])], 5)
        assert rows.tolist() == [0, 10, 20, 30, 40]
        assert fold_of.tolist() == [9, 7, 9, 9, 7]
        assert fold_of.dtype == np.int64

    @pytest.mark.parametrize("fold", [[5], [-1], [0.0], [[0]]],
                             ids=["past-end", "negative", "float", "2-d"])
    def test_rejects_a_fold_that_is_not_visit_indices(self, fold):
        with pytest.raises(ValueError, match="visit indices in \\[0, 5\\)"):
            fold_splits([np.array([0, 1]), np.array(fold)], 5)

    @pytest.mark.parametrize("damage", ["partial", "overlap"])
    def test_rejects_non_partition(self, damage):
        folds = [np.array([0, 1]), np.array([2, 3]), np.array([4])]
        splits = fold_splits(damaged_folds(folds, damage), 5)
        rows = [s.test_indices for s in splits]
        with pytest.raises(ValueError, match=NON_PARTITION[damage]):
            out_of_fold(splits, rows, 5)

    def test_rejects_a_visit_past_the_count(self):
        splits = fold_splits([np.array([0, 1]), np.array([2, 3])], 4)
        with pytest.raises(ValueError, match="outside"):
            out_of_fold(splits, [s.test_indices for s in splits], 3)


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

    @pytest.mark.parametrize("damage", ["partial", "overlap"])
    def test_out_of_fold_rejects_non_partition(self, records, damage):
        folds, models = cross_validate(records, TINY_TRAIN)
        models = models[: len(damaged_folds(folds, damage))]
        with pytest.raises(ValueError, match=NON_PARTITION[damage]):
            out_of_fold_fingerprints(damaged_folds(folds, damage), models, records)

    def test_results_identical_for_one_two_and_three_cpus(self, records, monkeypatch):
        def models():
            _, trained = cross_validate(records, TINY_TRAIN)
            return [[m.loss_trace.tobytes(), m.solution.r.tobytes(),
                     *(a.tobytes() for a in m.params.as_dict().values())] for m in trained]

        outcomes = []
        for n in (1, 2, 3):
            usable_cpus(monkeypatch, n)
            outcomes.append(models())
        assert outcomes[1] == outcomes[0] and outcomes[2] == outcomes[0]
        assert nothing_left()

    def test_fold_seeds_differ(self):
        seeds = {_derive_seed(0, k) for k in range(5)}
        assert len(seeds) == 5
        assert _derive_seed(0, 1) == _derive_seed(0, 1)


@pytest.mark.parametrize("error", PACKAGE_ERRORS, ids=lambda e: type(e).__name__)
@pytest.mark.parametrize("clone", [lambda e: pickle.loads(pickle.dumps(e)), copy.copy],
                         ids=["pickle", "copy"])
def test_package_exceptions_round_trip(error, clone):
    assert same_error(clone(error), error)
