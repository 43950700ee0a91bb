import dataclasses
import warnings

import numpy as np
import pytest

import cograca.baselines as baselines
from cograca.baselines import (
    BASELINE_KINDS,
    _sym_decorrelate,
    amari_index,
    baseline_pipeline,
    classical_cca,
    ica_fit,
    out_of_fold_matrix,
    pca_fit,
    vectorize_connectivity,
)
from cograca.data import SyntheticConfig, generate_synthetic
from cograca.numerics import _derive_seed, _lead_signs, gram_svd
from cograca.pipeline import make_subject_folds

from conftest import NON_PARTITION, damaged_folds
from test_gcca import first_canonical_correlation


class TestVectorize:
    def test_strict_upper_triangle_row_major(self):
        mat = np.arange(16, dtype=np.float64).reshape(4, 4)
        mat = (mat + mat.T) / 2
        vec = vectorize_connectivity(mat)
        expect = [mat[0, 1], mat[0, 2], mat[0, 3], mat[1, 2], mat[1, 3], mat[2, 3]]
        assert np.array_equal(vec, expect)

    def test_length(self, rng):
        mat = rng.standard_normal((9, 9))
        mat = mat + mat.T
        assert vectorize_connectivity(mat).shape == (9 * 8 // 2,)


class TestPca:
    def test_orthonormal_components(self, rng):
        data = rng.standard_normal((40, 8))
        red = pca_fit(data, n_components=5)
        gram = red.components @ red.components.T
        assert np.max(np.abs(gram - np.eye(5))) < 1e-10

    def test_full_rank_round_trip(self, rng):
        data = rng.standard_normal((30, 6))
        red = pca_fit(data, n_components=6)
        back = red.inverse_transform(red.transform(data))
        assert np.max(np.abs(back - data)) < 1e-10

    def test_variance_threshold_picks_enough(self, rng):
        # 3 strong directions and 5 weak ones
        strong = rng.standard_normal((200, 3)) * 10
        weak = rng.standard_normal((200, 5)) * 0.1
        data = np.hstack([strong, weak])
        red = pca_fit(data, variance_threshold=0.95)
        assert red.components.shape[0] == 3
        assert red.explained_variance_ratio is not None
        assert red.explained_variance_ratio.sum() <= 1.0 + 1e-12

    def test_threshold_one_keeps_rank(self, rng):
        data = rng.standard_normal((25, 4))
        red = pca_fit(data, variance_threshold=1.0)
        assert red.components.shape[0] == 4

    def test_transform_centers(self, rng):
        data = rng.standard_normal((30, 5)) + 7.0
        red = pca_fit(data, n_components=2)
        assert np.max(np.abs(red.transform(data).mean(axis=0))) < 1e-10

    # the wide 500-row case takes gram_svd's subset path, which returns only
    # the top five singular values: the ratios must still divide by the total
    @pytest.mark.parametrize("shape", [(40, 8), (10, 30), (500, 1500)],
                             ids=["tall", "wide", "wide-subset"])
    def test_matches_svd_oracle(self, rng, shape):
        data = rng.standard_normal(shape) * np.linspace(1.0, 4.0, shape[1]) + 2.0
        red = pca_fit(data, n_components=5)
        centered = data - data.mean(axis=0)
        _, svals, vt = np.linalg.svd(centered, full_matrices=False)
        axes = vt[:5] * _lead_signs(vt[:5].T)[:, None]
        assert np.max(np.abs(red.components - axes)) < 1e-10
        ratios = svals[:5] ** 2 / np.sum(svals**2)
        assert np.max(np.abs(red.explained_variance_ratio - ratios)) < 1e-12

    def test_constant_data_rejected(self):
        with pytest.raises(ValueError):
            pca_fit(np.ones((10, 3)))

    def test_deterministic(self, rng):
        data = rng.standard_normal((30, 6))
        a = pca_fit(data, n_components=4)
        b = pca_fit(data, n_components=4)
        assert np.array_equal(a.components, b.components)


class TestIca:
    @staticmethod
    def _mixed_laplace(seed, n=3000):
        rng = np.random.default_rng(seed)
        sources = rng.laplace(size=(n, 2))
        mixing = rng.uniform(-1, 1, (2, 2)) + np.eye(2)
        return sources @ mixing.T, mixing

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_recovers_independent_sources(self, seed):
        data, mixing = self._mixed_laplace(seed)
        red = ica_fit(data, n_components=2, seed=seed)
        assert red.converged
        assert red.identifiable
        assert amari_index(red.unmixing, mixing) < 0.05

    def test_unmixed_sources_are_decorrelated(self, rng):
        data, _ = self._mixed_laplace(7)
        red = ica_fit(data, n_components=2, seed=0)
        recovered = red.transform(data)
        cov = np.cov(recovered.T)
        assert abs(cov[0, 1]) < 0.05

    def test_gaussian_sources_flagged(self):
        # needs enough samples that the contrast cannot overfit spurious
        # kurtosis out of noise
        rng = np.random.default_rng(3)
        data = rng.standard_normal((20_000, 3))
        with pytest.warns(UserWarning, match="Gaussian"):
            red = ica_fit(data, n_components=2, seed=0)
        assert not red.identifiable

    def test_deterministic(self):
        data, _ = self._mixed_laplace(4)
        a = ica_fit(data, n_components=2, seed=5)
        b = ica_fit(data, n_components=2, seed=5)
        assert np.array_equal(a.unmixing, b.unmixing)

    def test_too_few_samples_rejected(self, rng):
        with pytest.raises(ValueError):
            ica_fit(rng.standard_normal((3, 5)), n_components=4)

    def test_too_many_components_rejected(self, rng):
        with pytest.raises(ValueError):
            ica_fit(rng.standard_normal((50, 3)), n_components=4)

    def test_rank_below_component_count_rejected(self, rng):
        # rank 3: its null directions' Gram eigenvalues read about n * eps
        # of the largest, not 0, so a check ported unchanged from singular
        # values (s_k <= 1e-12 s_0) would accept this
        data = rng.laplace(size=(200, 3)) @ rng.standard_normal((3, 10))
        with pytest.raises(ValueError, match="data rank is below the requested component count"):
            ica_fit(data, n_components=5)
        assert ica_fit(data, n_components=3, seed=0).unmixing.shape == (3, 10)

    def test_rank_check_holds_on_the_subset_path(self, rng):
        # 500 x 900 whitens through gram_svd's subset path, whose Ritz values
        # past the rank read at the same rounding floor as Gram eigenvalues
        data = rng.laplace(size=(500, 3)) @ rng.standard_normal((3, 900))
        with pytest.raises(ValueError, match="data rank is below the requested component count"):
            ica_fit(data, n_components=5)
        assert ica_fit(data, n_components=3, seed=0).unmixing.shape == (3, 900)

    @staticmethod
    def _run_to_cap(data, n_components, seed, max_iter):
        """The unmixing after max_iter FastICA updates, with no early stop."""
        centered = data - data.mean(axis=0)
        n = len(centered)
        svals, vt = gram_svd(centered, n_components)
        k = np.sqrt(n) * (vt / svals[:n_components, None])
        white = centered @ k.T
        w = _sym_decorrelate(np.random.default_rng(seed).normal(size=(n_components,) * 2))
        for _ in range(max_iter):
            g = np.tanh(white @ w.T)
            w = _sym_decorrelate(g.T @ white / n - (1.0 - g**2).mean(axis=0)[:, None] * w)
        return w @ k

    def test_period_two_orbit_stops_early(self):
        # this start locks into w_t = w_{t-2} at iteration 83 and would
        # alternate between two iterates until the cap
        rng = np.random.default_rng(39)
        data = rng.laplace(size=(120, 3)) @ rng.standard_normal((3, 3))
        fits = []
        for max_iter in (500, 501):
            with pytest.warns(UserWarning, match="period-2 orbit at iteration 83 of"):
                red = ica_fit(data, n_components=2, seed=0, max_iter=max_iter)
            assert not red.converged
            reference = self._run_to_cap(data, 2, 0, max_iter)
            assert np.max(np.abs(red.unmixing - reference)) < 1e-12
            fits.append(red.unmixing)
        # the two caps end on different iterates of the orbit
        assert np.max(np.abs(fits[0] - fits[1])) > 1e-3


class TestAmari:
    def test_perfect_unmixing_scores_zero(self, rng):
        mixing = rng.uniform(-1, 1, (3, 3)) + 2 * np.eye(3)
        perm = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=np.float64)
        scale = np.diag([2.0, -0.5, 3.0])
        unmixing = scale @ perm @ np.linalg.inv(mixing)
        assert amari_index(unmixing, mixing) < 1e-12

    def test_wrong_unmixing_scores_high(self, rng):
        mixing = rng.uniform(-1, 1, (3, 3)) + 2 * np.eye(3)
        assert amari_index(np.eye(3) + 0.5, mixing) > 0.1


class TestCca:
    def test_matches_eigen_oracle(self, rng):
        for _ in range(5):
            x = rng.standard_normal((60, 4))
            z = rng.standard_normal(60)
            y = np.outer(z, rng.standard_normal(3)) + 0.5 * rng.standard_normal((60, 3))
            x[:, 0] += z
            model = classical_cca(x, y)
            oracle = first_canonical_correlation(x.T, y.T)
            assert model.correlations[0] == pytest.approx(oracle, abs=1e-6)

    def test_perfectly_coupled_views(self, rng):
        x = rng.standard_normal((50, 3))
        w = rng.standard_normal((3, 3)) + np.eye(3)
        model = classical_cca(x, x @ w)
        assert model.correlations[0] == pytest.approx(1.0, abs=1e-6)

    def test_correlations_sorted_and_bounded(self, rng):
        x = rng.standard_normal((80, 5))
        y = rng.standard_normal((80, 4))
        model = classical_cca(x, y)
        assert np.all(np.diff(model.correlations) <= 1e-12)
        assert np.all(model.correlations >= 0.0)
        assert np.all(model.correlations <= 1.0)

    def test_affine_invariance_of_correlations(self, rng):
        x = rng.standard_normal((70, 4))
        y = x[:, :3] + 0.3 * rng.standard_normal((70, 3))
        base = classical_cca(x, y).correlations
        ax = rng.standard_normal((4, 4)) + 3 * np.eye(4)
        ay = rng.standard_normal((3, 3)) + 3 * np.eye(3)
        moved = classical_cca(x @ ax + 1.0, y @ ay - 2.0).correlations
        assert np.allclose(base, moved, atol=1e-8)

    def test_transform_variates_have_claimed_correlation(self, rng):
        x = rng.standard_normal((90, 4))
        y = x[:, :2] + 0.5 * rng.standard_normal((90, 2))
        model = classical_cca(x, y)
        tx, ty = model.transform(x, y)
        r = np.corrcoef(tx[:, 0], ty[:, 0])[0, 1]
        assert r == pytest.approx(model.correlations[0], abs=1e-6)

    def test_too_few_samples_rejected(self, rng):
        with pytest.raises(ValueError, match="samples"):
            classical_cca(rng.standard_normal((4, 5)), rng.standard_normal((4, 2)))

    def test_pair_count(self, rng):
        x = rng.standard_normal((50, 5))
        y = rng.standard_normal((50, 3))
        assert classical_cca(x, y).correlations.shape == (3,)
        assert classical_cca(x, y, n_pairs=2).correlations.shape == (2,)


@pytest.fixture(scope="module")
def cohort():
    cfg = SyntheticConfig(subjects=12, rois=10, d_cog=6, latent_dim=3, seed=21)
    records, _ = generate_synthetic(cfg)
    folds = make_subject_folds([r.subject_id for r in records], 3, seed=0)
    return records, folds


class TestBaselinePipeline:
    @pytest.mark.parametrize("kind", BASELINE_KINDS)
    def test_covers_every_visit_with_constant_width(self, cohort, kind):
        records, folds = cohort
        results = baseline_pipeline(records, kind, folds, n_components=4)
        reps, fold_of = out_of_fold_matrix(results, len(records))
        assert reps.shape[0] == len(records)
        assert np.all(np.isfinite(reps))
        widths = {r.test_representations.shape[1] for r in results}
        assert len(widths) == 1
        for k, fold in enumerate(folds):
            assert np.all(fold_of[fold] == k)

    def test_unknown_kind_rejected(self, cohort):
        records, folds = cohort
        with pytest.raises(ValueError, match="kind"):
            baseline_pipeline(records, "mystery", folds)

    def test_cognition_only_uses_train_stats(self, cohort):
        records, folds = cohort
        results = baseline_pipeline(records, "cognition-only", folds)
        first = results[0]
        train_cogs = np.stack([records[i].cognition for i in first.train_indices])
        mean = train_cogs.mean(axis=0)
        std = train_cogs.std(axis=0)
        std[std < 1e-12] = 1.0
        expect = (records[first.test_indices[0]].cognition - mean) / std
        assert np.allclose(first.test_representations[0], expect)

    def test_no_leakage_from_held_out_visits(self, cohort):
        # Corrupting a held-out visit must move its own row only: the fold's
        # model is fit on the training visits, so no other held-out row of
        # that fold may change.
        records, folds = cohort
        base = baseline_pipeline(records, "pca-cca", folds, n_components=4)
        victim_idx = int(folds[0][0])
        mutated = list(records)
        corrupt = dataclasses.replace(
            mutated[victim_idx],
            cognition=mutated[victim_idx].cognition + 100.0,
        )
        mutated[victim_idx] = corrupt
        redo = baseline_pipeline(mutated, "pca-cca", folds, n_components=4)
        assert not np.array_equal(
            base[0].test_representations[0], redo[0].test_representations[0]
        )
        assert np.array_equal(
            base[0].test_representations[1:], redo[0].test_representations[1:]
        )
        for other_base, other_redo in zip(base[1:], redo[1:]):
            assert not np.array_equal(
                other_base.test_representations, other_redo.test_representations
            )

    @pytest.mark.parametrize("kind", ["fmri-only-ica", "pca-cca"])
    def test_fold_fits_match_the_public_fits(self, cohort, kind):
        # the pipeline centres each fold's training rows in place and hands
        # them to the fits; that must be the fit of the stacked rows, bit for bit
        records, folds = cohort
        (result,) = baseline_pipeline(records, kind, folds[:1], n_components=4, seed=2)
        feats = np.stack([vectorize_connectivity(r.graph.adjacency) for r in records])
        train, test = feats[result.train_indices], feats[result.test_indices]
        if kind == "fmri-only-ica":
            red = ica_fit(train, 4, seed=_derive_seed(2, 0))
            expect = red.transform(test)
        else:
            red = pca_fit(train)
            cogs = np.stack([r.cognition for r in records])
            width = min(cogs.shape[1], red.components.shape[0])
            cca = classical_cca(red.transform(train), cogs[result.train_indices], width)
            x, y = cca.transform(red.transform(test), cogs[result.test_indices])
            expect = (x + y) / 2.0
        assert result.test_representations.tobytes() == expect.tobytes()

    def test_deterministic(self, cohort):
        records, folds = cohort
        a = baseline_pipeline(records, "fmri-only-ica", folds, n_components=4, seed=2)
        b = baseline_pipeline(records, "fmri-only-ica", folds, n_components=4, seed=2)
        for fa, fb in zip(a, b):
            assert np.array_equal(fa.test_representations, fb.test_representations)

    def test_one_non_convergence_warning_per_call(self, cohort, monkeypatch):
        records, folds = cohort
        fit = baselines.ica_fit
        monkeypatch.setattr(
            baselines, "ica_fit", lambda *args, **kwargs: fit(*args, **kwargs, max_iter=1)
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            baseline_pipeline(records, "ica-cca", folds, n_components=4)
        messages = [str(w.message) for w in caught if "converge" in str(w.message)]
        assert messages == [
            f"FastICA did not converge in {len(folds)} of {len(folds)} folds; "
            "those folds keep the last iterate"
        ]

    def test_out_of_fold_matrix_rejects_gaps(self, cohort):
        records, folds = cohort
        results = baseline_pipeline(records, "cognition-only", folds)
        with pytest.raises(ValueError):
            out_of_fold_matrix(results, len(records) + 1)

    def test_accepts_folds_that_leave_visits_out(self, cohort):
        # one held-out fold, as a single-split benchmark passes it
        records, folds = cohort
        (single,) = baseline_pipeline(records, "pca-cca", folds[:1], n_components=4)
        full = baseline_pipeline(records, "pca-cca", folds, n_components=4)
        assert np.array_equal(single.test_representations, full[0].test_representations)
        assert single.train_indices.tolist() == sorted(set(range(len(records))) - set(folds[0]))

    @pytest.mark.parametrize("damage", ["partial", "overlap"])
    def test_out_of_fold_matrix_rejects_non_partition(self, cohort, damage):
        records, folds = cohort
        results = baseline_pipeline(records, "cognition-only", damaged_folds(folds, damage))
        with pytest.raises(ValueError, match=NON_PARTITION[damage]):
            out_of_fold_matrix(results, len(records))

