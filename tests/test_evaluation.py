import dataclasses
import itertools
import math

import numpy as np
import pytest

from cograca.data import SyntheticConfig, generate_synthetic
from cograca.evaluation import (
    _coalition_weights,
    _elu,
    balanced_accuracy,
    cross_validated_bacc,
    interpret_components,
    shapley_attribution,
    shapley_attribution_mc,
    similarity_analysis,
    train_mlp,
)
from cograca.numerics import AdamState, adam_step
from cograca.pipeline import TrainConfig, train_model

from conftest import NON_PARTITION, damaged_folds


class TestSimilarity:
    def test_matrix_properties(self, rng):
        fps = rng.standard_normal((8, 5))
        ids = ["a", "a", "b", "b", "c", "c", "d", "d"]
        rep = similarity_analysis(fps, ids)
        assert rep.matrix.shape == (8, 8)
        assert np.array_equal(rep.matrix, rep.matrix.T)
        assert np.allclose(np.diag(rep.matrix), 1.0)
        assert np.max(np.abs(rep.matrix)) <= 1.0 + 1e-12

    def test_pair_partition(self, rng):
        fps = rng.standard_normal((6, 4))
        ids = ["a", "a", "a", "b", "b", "c"]
        rep = similarity_analysis(fps, ids)
        # C(3,2) + C(2,2 choose)  -> 3 intra from a, 1 from b
        assert rep.intra.size == 4
        assert rep.inter.size == 15 - 4

    def test_separated_construction(self, rng):
        # Same-subject fingerprints nearly parallel, different subjects
        # orthogonal: intra similarities must crush inter.
        base = np.eye(4)
        fps = []
        ids = []
        for s in range(4):
            for v in range(2):
                fps.append(base[s] + 0.01 * rng.standard_normal(4))
                ids.append(f"s{s}")
        rep = similarity_analysis(np.array(fps), ids)
        assert rep.intra.min() > 0.9
        assert np.abs(rep.inter).max() < 0.5
        assert rep.mwu is not None
        assert rep.mwu.p_value < 0.01
        assert rep.wasserstein > 0.9

    def test_histogram_counts_complete(self, rng):
        fps = rng.standard_normal((10, 6))
        ids = [f"s{i // 2}" for i in range(10)]
        rep = similarity_analysis(fps, ids)
        assert rep.intra_counts.sum() == rep.intra.size
        assert rep.inter_counts.sum() == rep.inter.size
        assert len(rep.bin_edges) == len(rep.intra_counts) + 1

    def test_no_intra_pairs_degrades_gracefully(self, rng):
        fps = rng.standard_normal((4, 5))
        with pytest.warns(UserWarning):
            rep = similarity_analysis(fps, ["a", "b", "c", "d"])
        assert rep.intra.size == 0
        assert rep.mwu is None
        assert rep.wasserstein is None

    def test_constant_fingerprint_rejected(self, rng):
        fps = rng.standard_normal((4, 5))
        fps[2] = 1.0
        with pytest.raises(ValueError, match="2"):
            similarity_analysis(fps, ["a", "a", "b", "b"])

    def test_single_subject_rejected(self, rng):
        with pytest.raises(ValueError, match="distinct"):
            similarity_analysis(rng.standard_normal((3, 4)), ["a", "a", "a"])


def blobs(rng, n_per=40, d=8, gap=2.0):
    x0 = rng.standard_normal((n_per, d)) - gap / 2
    x1 = rng.standard_normal((n_per, d)) + gap / 2
    x = np.vstack([x0, x1])
    y = np.array([0] * n_per + [1] * n_per)
    perm = rng.permutation(len(y))
    return x[perm], y[perm]


class TestMlp:
    def test_learns_separable_blobs(self, rng):
        x, y = blobs(rng)
        x_test, y_test = blobs(np.random.default_rng(99))
        clf = train_mlp(x, y, seed=0, epochs=200)
        bacc = balanced_accuracy(clf.predict(x_test), y_test)
        assert bacc >= 0.95

    def test_chance_on_random_labels(self, rng):
        x = rng.standard_normal((120, 8))
        y = rng.integers(0, 2, 120)
        x_test = rng.standard_normal((200, 8))
        y_test = rng.integers(0, 2, 200)
        clf = train_mlp(x, y, seed=1, epochs=100)
        bacc = balanced_accuracy(clf.predict(x_test), y_test)
        assert abs(bacc - 0.5) <= 0.1

    def test_deterministic(self, rng):
        x, y = blobs(rng, n_per=20)
        a = train_mlp(x, y, seed=5, epochs=30)
        b = train_mlp(x, y, seed=5, epochs=30)
        assert np.array_equal(a.w1, b.w1)
        assert np.array_equal(a.b3, b.b3)

    def test_rerun_is_byte_identical(self, rng):
        # every weight array, on a batch large enough for threaded GEMMs
        x, y = blobs(rng, n_per=150, d=16)
        a = train_mlp(x, y, seed=5, epochs=20)
        b = train_mlp(x, y, seed=5, epochs=20)
        for name in ("w1", "b1", "w2", "b2", "w3", "b3"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()

    def test_seed_changes_weights(self, rng):
        x, y = blobs(rng, n_per=20)
        a = train_mlp(x, y, seed=5, epochs=30)
        b = train_mlp(x, y, seed=6, epochs=30)
        assert not np.array_equal(a.w1, b.w1)

    def test_single_class_rejected(self, rng):
        x = rng.standard_normal((10, 4))
        with pytest.raises(ValueError, match="class"):
            train_mlp(x, np.zeros(10, dtype=int), seed=0)

    def test_decision_value_consistent_with_predict(self, rng):
        x, y = blobs(rng, n_per=15)
        clf = train_mlp(x, y, seed=2, epochs=50)
        dv = clf.decision_value(x)
        assert np.array_equal(clf.predict(x), (dv > 0).astype(np.int64))

    def test_hidden_layout(self, rng):
        x, y = blobs(rng, n_per=15, d=6)
        clf = train_mlp(x, y, seed=0, epochs=5)
        assert clf.w1.shape == (6, 64)
        assert clf.w2.shape == (64, 32)
        assert clf.w3.shape == (32, 2)


class TestMlpKernels:
    def test_elu_matches_where_form_bitwise(self):
        tiny = np.finfo(np.float64).smallest_subnormal
        specials = np.array([0.0, -0.0, tiny, -tiny, 1e-310, -1e-310, 1e-300, -1e-300,
                             1.0, -1.0, 700.0, -700.0, 1e300, -1e300, np.inf, -np.inf])
        grid = np.concatenate([specials, np.linspace(-40.0, 40.0, 4000),
                               np.geomspace(1e-12, 1e12, 500), -np.geomspace(1e-12, 1e12, 500)])
        expect = np.where(grid > 0.0, grid, np.expm1(np.minimum(grid, 0.0)))
        assert _elu(grid).tobytes() == expect.tobytes()
        assert _elu(grid.reshape(-1, 2)).tobytes() == expect.tobytes()
        buf = grid.reshape(-1, 2).copy()
        assert _elu(buf, out=buf, scratch=np.empty_like(buf)) is buf
        assert buf.tobytes() == expect.tobytes()
        buf = grid.copy()
        assert _elu(buf, out=buf) is buf
        assert buf.tobytes() == expect.tobytes()

    def test_adam_on_concatenation_equals_per_array_steps(self, rng):
        shapes = [(6, 64), (64,), (64, 32), (32,), (32, 2), (2,)]
        params = [rng.standard_normal(s) for s in shapes]
        states = [AdamState.for_params(p, lr=0.01) for p in params]
        flat = np.concatenate([p.ravel() for p in params])
        flat_state = AdamState.for_params(flat, lr=0.01)
        for _ in range(3):
            grads = [rng.standard_normal(s) * 10.0 ** rng.integers(-8, 3) for s in shapes]
            stepped = [adam_step(st, p, g) for st, p, g in zip(states, params, grads)]
            params = [p for p, _ in stepped]
            states = [st for _, st in stepped]
            flat, flat_state = adam_step(
                flat_state, flat, np.concatenate([g.ravel() for g in grads])
            )
            assert flat.tobytes() == np.concatenate([p.ravel() for p in params]).tobytes()
            assert flat_state.v.tobytes() == np.concatenate(
                [st.v.ravel() for st in states]).tobytes()


class TestBalancedAccuracy:
    def test_hand_case(self):
        labels = np.array([0, 0, 0, 1, 1])
        preds = np.array([0, 0, 1, 1, 0])
        # recall_0 = 2/3, recall_1 = 1/2
        assert balanced_accuracy(preds, labels) == pytest.approx((2 / 3 + 1 / 2) / 2)

    def test_perfect_and_inverted(self):
        labels = np.array([0, 1, 0, 1])
        assert balanced_accuracy(labels, labels) == 1.0
        assert balanced_accuracy(1 - labels, labels) == 0.0

    def test_requires_both_classes(self):
        with pytest.raises(ValueError):
            balanced_accuracy(np.array([0, 1]), np.array([1, 1]))


class TestCrossValidatedBacc:
    def test_shape_and_determinism(self, rng):
        x, y = blobs(rng, n_per=30, d=6)
        folds = [np.arange(0, 20), np.arange(20, 40), np.arange(40, 60)]
        a = cross_validated_bacc(x, y, folds, seed=0, repeats=3, epochs=40)
        b = cross_validated_bacc(x, y, folds, seed=0, repeats=3, epochs=40)
        assert a.shape == (3,)
        assert np.array_equal(a, b)
        assert np.all(a >= 0.8)  # separable blobs

    @pytest.mark.parametrize("damage", ["partial", "overlap"])
    def test_rejects_folds_that_do_not_partition(self, rng, damage):
        # partial folds once scored each unheld visit as class -1, and an
        # overlapping fold silently overwrote another fold's predictions
        x, y = blobs(rng, n_per=30, d=6)
        folds = [np.arange(0, 20), np.arange(20, 40), np.arange(40, 60)]
        with pytest.raises(ValueError, match=NON_PARTITION[damage]):
            cross_validated_bacc(x, y, damaged_folds(folds, damage), repeats=1, epochs=5)

    def test_repeats_vary(self, rng):
        x, y = blobs(rng, n_per=30, d=6)
        folds = [np.arange(0, 30), np.arange(30, 60)]
        baccs = cross_validated_bacc(x, y, folds, seed=0, repeats=4, epochs=25)
        assert len(set(baccs.tolist())) > 1 or np.all(baccs == 1.0)


def enumerate_one_batch(fn, x, baseline):
    """Reference exact Shapley: every coalition in one batch, then a boolean
    mask gather of the coalitions without feature i, per feature."""
    d = x.shape[0]
    total = 1 << d
    bits = ((np.arange(total, dtype=np.int64)[:, None] >> np.arange(d)) & 1).astype(bool)
    sizes = bits.sum(axis=1)
    f = fn(np.where(bits, x, baseline))
    weight = np.array(
        [math.factorial(k) * math.factorial(d - 1 - k) / math.factorial(d) for k in range(d)]
    )
    masks = np.arange(total, dtype=np.int64)
    values = np.empty(d)
    for i in range(d):
        without = masks[~bits[:, i]]
        values[i] = float(np.sum(weight[sizes[without]] * (f[without + (1 << i)] - f[without])))
    return values


def permutation_loop(fn, x, baseline, n_permutations, seed):
    """Reference sampled Shapley: inputs built one permutation step at a time."""
    d = x.shape[0]
    rng = np.random.default_rng(seed)
    inputs, orders = [], []
    for _ in range(n_permutations):
        order = rng.permutation(d)
        orders.append(order)
        current = baseline.copy()
        inputs.append(current.copy())
        for i in order:
            current[i] = x[i]
            inputs.append(current.copy())
    deltas = np.diff(fn(np.array(inputs)).reshape(n_permutations, d + 1), axis=1)
    contributions = np.zeros((n_permutations, d))
    for p, order in enumerate(orders):
        contributions[p, order] = deltas[p]
    return contributions.mean(axis=0), contributions.std(axis=0, ddof=1) / math.sqrt(n_permutations)


class TestShapley:
    @pytest.mark.parametrize("d", [1, 3, 8, 9, 14, 16])
    def test_blocks_match_one_batch_enumeration(self, d):
        # the MLP lattice splits at 8 bits: d <= 8 is one block with an
        # empty high table, d = 9 two blocks, d = 16 256; the callable path
        # is one 4096-row block up to d = 12 and 16 of them at d = 16
        x_train, y_train = blobs(np.random.default_rng(d), n_per=20, d=d)
        clf = train_mlp(x_train, y_train, seed=d, epochs=30)
        x, baseline = x_train[0], x_train.mean(axis=0)
        expect = enumerate_one_batch(clf.decision_value, x, baseline)
        rep = shapley_attribution(clf, x, baseline)
        via_callable = shapley_attribution(lambda b: clf.decision_value(b), x, baseline)
        assert np.max(np.abs(rep.values - expect)) <= 1e-12
        assert np.max(np.abs(rep.values - via_callable.values)) <= 1e-12
        assert abs(rep.value_x - clf.decision_value(x[None])[0]) <= 1e-12
        assert abs(rep.value_baseline - clf.decision_value(baseline[None])[0]) <= 1e-12

    def test_zeroed_first_layer_row_gets_exactly_zero(self):
        x_train, y_train = blobs(np.random.default_rng(5), n_per=20, d=10)
        clf = train_mlp(x_train, y_train, seed=5, epochs=30)
        w1 = clf.w1.copy()
        w1[3] = 0.0
        dead = dataclasses.replace(clf, w1=w1)
        rep = shapley_attribution(dead, x_train[0], x_train.mean(axis=0))
        assert rep.values[3] == 0.0
        assert np.all(rep.values[np.arange(10) != 3] != 0.0)

    def test_row_independent_value_bit_identical_to_one_batch(self, rng):
        def f(batch):
            return np.sin(batch).sum(axis=1) + batch[:, 0] * batch[:, -1]

        x, baseline = rng.standard_normal(13), rng.standard_normal(13)
        rep = shapley_attribution(f, x, baseline)
        assert rep.values.tobytes() == enumerate_one_batch(f, x, baseline).tobytes()

    def test_cold_and_warm_tables_give_identical_bytes(self):
        x_train, y_train = blobs(np.random.default_rng(0), n_per=15, d=9)
        clf = train_mlp(x_train, y_train, seed=0, epochs=10)
        _coalition_weights.cache_clear()
        cold = shapley_attribution(clf, x_train[1], x_train.mean(axis=0))
        warm = shapley_attribution(clf, x_train[1], x_train.mean(axis=0))
        assert _coalition_weights.cache_info().hits >= 1
        assert cold.values.tobytes() == warm.values.tobytes()

    @pytest.mark.parametrize("d", [1, 8, 20])
    def test_weights_match_factorial_formula(self, d):
        # |S|!(d-1-|S|)!/d! by each mask's bit count, 0 for the full mask
        by_size = [math.factorial(k) * math.factorial(d - 1 - k) / math.factorial(d)
                   for k in range(d)] + [0.0]
        expected = np.array([by_size[bin(m).count("1")] for m in range(1 << d)])
        assert _coalition_weights(d).tobytes() == expected.tobytes()

    def test_mc_matches_permutation_loop_bitwise(self, rng):
        def f(batch):
            return np.tanh(batch).prod(axis=1) + batch[:, 1]

        x, baseline = rng.standard_normal(7), rng.standard_normal(7)
        values, se = permutation_loop(f, x, baseline, n_permutations=120, seed=4)
        mc = shapley_attribution_mc(f, x, baseline, n_permutations=120, seed=4)
        assert mc.values.tobytes() == values.tobytes()
        assert mc.standard_errors.tobytes() == se.tobytes()

    def test_linear_closed_form(self, rng):
        w = rng.standard_normal(7)
        x = rng.standard_normal(7)
        baseline = rng.standard_normal(7)

        def f(batch):
            return batch @ w + 3.0

        rep = shapley_attribution(f, x, baseline)
        assert np.max(np.abs(rep.values - w * (x - baseline))) < 1e-8

    def test_efficiency_random_mlps(self, rng):
        for trial in range(5):
            x_train, y_train = blobs(np.random.default_rng(trial), n_per=15, d=6)
            clf = train_mlp(x_train, y_train, seed=trial, epochs=20)
            x = rng.standard_normal(6)
            baseline = rng.standard_normal(6)
            rep = shapley_attribution(clf, x, baseline)
            gap = clf.decision_value(x[None])[0] - clf.decision_value(baseline[None])[0]
            assert rep.values.sum() == pytest.approx(gap, abs=1e-8)
            assert rep.value_x == pytest.approx(clf.decision_value(x[None])[0])

    def test_symmetry(self, rng):
        # f treats coordinates 0 and 1 identically and x/baseline agree there.
        def f(batch):
            return np.sin(batch[:, 0] + batch[:, 1]) + batch[:, 2] ** 2

        x = np.array([0.7, 0.7, -1.0, 2.0])
        baseline = np.array([-0.2, -0.2, 0.5, 0.0])
        rep = shapley_attribution(f, x, baseline)
        assert rep.values[0] == pytest.approx(rep.values[1], abs=1e-10)

    def test_dummy_feature_zero(self, rng):
        def f(batch):
            return batch[:, 0] * batch[:, 2]

        x = rng.standard_normal(4)
        baseline = rng.standard_normal(4)
        rep = shapley_attribution(f, x, baseline)
        assert rep.values[1] == pytest.approx(0.0, abs=1e-12)
        assert rep.values[3] == pytest.approx(0.0, abs=1e-12)

    def test_brute_force_formula_small_d(self, rng):
        # Independent oracle: enumerate subsets explicitly.
        def f(batch):
            return np.tanh(batch).sum(axis=1) + batch[:, 0] * batch[:, 1]

        d = 4
        x = rng.standard_normal(d)
        baseline = rng.standard_normal(d)

        def value(subset):
            z = baseline.copy()
            z[list(subset)] = x[list(subset)]
            return f(z[None])[0]

        expected = np.zeros(d)
        for i in range(d):
            rest = [j for j in range(d) if j != i]
            for k in range(d):
                for subset in itertools.combinations(rest, k):
                    weight = (
                        math.factorial(k) * math.factorial(d - k - 1) / math.factorial(d)
                    )
                    expected[i] += weight * (value(subset + (i,)) - value(subset))
        rep = shapley_attribution(f, x, baseline)
        assert np.max(np.abs(rep.values - expected)) < 1e-10

    def test_top_components_ranked(self, rng):
        def f(batch):
            return batch @ np.array([0.1, -5.0, 1.0])

        rep = shapley_attribution(f, np.ones(3), np.zeros(3))
        assert rep.top_components[0] == 1
        assert rep.top_components[1] == 2

    def test_dimension_cap(self, rng):
        def f(batch):
            return batch.sum(axis=1)

        with pytest.raises(ValueError, match="shapley_attribution_mc"):
            shapley_attribution(f, np.ones(21), np.zeros(21))

    def test_mc_exact_for_linear(self, rng):
        # Every permutation's marginal contribution is w_i (x_i - b_i) for a
        # linear value, so the sampler agrees with the exact solver to float
        # precision.
        w = rng.standard_normal(6)

        def f(batch):
            return batch @ w - 1.0

        x = rng.standard_normal(6)
        baseline = rng.standard_normal(6)
        exact = shapley_attribution(f, x, baseline)
        mc = shapley_attribution_mc(f, x, baseline, n_permutations=50, seed=0)
        assert np.max(np.abs(mc.values - exact.values)) < 1e-10
        assert np.max(mc.standard_errors) < 1e-10

    def test_mc_approximates_nonlinear(self, rng):
        def f(batch):
            return np.tanh(batch).prod(axis=1)

        x = rng.standard_normal(5)
        baseline = np.zeros(5)
        exact = shapley_attribution(f, x, baseline)
        mc = shapley_attribution_mc(f, x, baseline, n_permutations=4000, seed=1)
        assert mc.values.sum() == pytest.approx(exact.values.sum(), abs=1e-10)
        assert np.max(np.abs(mc.values - exact.values)) < 5 * np.max(mc.standard_errors) + 1e-3

    def test_mismatched_shapes_rejected(self, rng):
        def f(batch):
            return batch.sum(axis=1)

        with pytest.raises(ValueError):
            shapley_attribution(f, np.ones(3), np.zeros(4))


class TestInterpret:
    @pytest.fixture(scope="class")
    def trained(self):
        cfg = SyntheticConfig(subjects=8, rois=10, d_cog=6, latent_dim=3, seed=2)
        records, _ = generate_synthetic(cfg)
        model = train_model(
            records, TrainConfig(epochs=5, hidden_dim=8, r=6, d_r=4, seed=0)
        )
        return model, records

    def test_loading_table_ranked(self, trained):
        model, records = trained
        tables = interpret_components(model, records, [0, 2])
        rows = tables.cognitive_loadings
        by_comp = {}
        for comp, rank, cog_ix, abs_l, signed in rows:
            by_comp.setdefault(comp, []).append((rank, cog_ix, abs_l, signed))
        assert set(by_comp) == {0, 2}
        for comp, entries in by_comp.items():
            ranks = [e[0] for e in entries]
            assert ranks == list(range(1, 7))
            mags = [e[2] for e in entries]
            assert mags == sorted(mags, reverse=True)
            for _, cog_ix, abs_l, signed in entries:
                assert abs_l == pytest.approx(abs(signed))
                assert abs_l == pytest.approx(abs(model.solution.u_cog[cog_ix, comp]))

    def test_edge_table_properties(self, trained):
        model, records = trained
        tables = interpret_components(model, records, [1])
        assert tables.mean_attention.shape == (10, 10)
        scores = [row[4] for row in tables.edge_importance]
        assert scores == sorted(scores, reverse=True)
        for comp, rank, p, q, score in tables.edge_importance:
            assert comp == 1
            assert p < q
            assert score >= 0.0

    def test_component_out_of_range(self, trained):
        model, records = trained
        with pytest.raises(ValueError):
            interpret_components(model, records, [4])

    def test_empty_records_rejected(self, trained):
        model, _ = trained
        with pytest.raises(ValueError):
            interpret_components(model, [], [0])
