import dataclasses
import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import cograca.numerics as numerics
from cograca.contrastive import ContrastiveConfig
from cograca.data import SyntheticConfig
from cograca.encoder import EncoderParams
from cograca.numerics import (
    AdamState,
    _lead_signs,
    _softmax_xent,
    adam_step,
    glorot,
    gram_svd,
    mann_whitney_u,
    pearson,
    sym_eig,
    wasserstein_1d,
)
from cograca.pipeline import TrainConfig

from conftest import random_connectivity

CONFIG_FLOATS = [
    (config_type, f.name)
    for config_type in (TrainConfig, SyntheticConfig, ContrastiveConfig)
    for f in dataclasses.fields(config_type)
    if "float" in str(f.type)
]


class TestSymEig:
    def test_identity(self):
        dec = sym_eig(np.eye(3))
        assert np.allclose(dec.eigenvalues, 1.0)
        assert np.allclose(dec.eigenvectors @ dec.eigenvectors.T, np.eye(3))

    def test_known_2x2(self):
        # [[2,1],[1,2]] has eigenvalues 3 and 1 with vectors (1,1)/sqrt2, (1,-1)/sqrt2
        dec = sym_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(dec.eigenvalues, [3.0, 1.0])
        s = 1 / math.sqrt(2)
        assert np.allclose(np.abs(dec.eigenvectors[:, 0]), [s, s])
        assert np.allclose(np.abs(dec.eigenvectors[:, 1]), [s, s])

    def test_descending_order(self, rng):
        a = rng.standard_normal((20, 20))
        a = a + a.T
        dec = sym_eig(a)
        assert np.all(np.diff(dec.eigenvalues) <= 1e-12)

    @pytest.mark.parametrize("n", [2, 10, 50, 200])
    def test_reconstruction(self, n):
        rng = np.random.default_rng(n)
        a = rng.standard_normal((n, n))
        a = (a + a.T) / 2
        dec = sym_eig(a)
        recon = dec.eigenvectors @ np.diag(dec.eigenvalues) @ dec.eigenvectors.T
        assert np.max(np.abs(recon - a)) < 1e-8 * max(1.0, np.max(np.abs(a)))
        ortho = dec.eigenvectors.T @ dec.eigenvectors
        assert np.max(np.abs(ortho - np.eye(n))) < 1e-10

    def test_sign_convention(self, rng):
        a = rng.standard_normal((8, 8))
        a = a + a.T
        dec = sym_eig(a)
        for col in dec.eigenvectors.T:
            assert col[np.argmax(np.abs(col))] >= 0

    def test_deterministic_under_degeneracy(self):
        # eigenvalue 1 has a 2-dimensional eigenspace; ordering must be stable
        a = np.diag([2.0, 1.0, 1.0])
        d1 = sym_eig(a)
        d2 = sym_eig(a.copy())
        assert np.array_equal(d1.eigenvectors, d2.eigenvectors)
        assert np.array_equal(d1.eigenvalues, d2.eigenvalues)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_nonsquare_and_nonfinite(self):
        with pytest.raises(ValueError):
            sym_eig(np.zeros((2, 3)))
        bad = np.eye(2)
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            sym_eig(bad)

    @given(hnp.arrays(np.float64, (6, 6), elements=st.floats(-10, 10)))
    def test_property_reconstruction(self, raw):
        a = (raw + raw.T) / 2
        dec = sym_eig(a)
        recon = dec.eigenvectors @ np.diag(dec.eigenvalues) @ dec.eigenvectors.T
        assert np.max(np.abs(recon - a)) < 1e-9 * max(1.0, np.max(np.abs(a)))


class TestGramSvd:
    @staticmethod
    def _svd_oracle(a, k):
        _, svals, vt = np.linalg.svd(a, full_matrices=False)
        vt = vt[:k]
        return svals, vt * _lead_signs(vt.T)[:, None]

    @pytest.mark.parametrize("shape", [(40, 7), (7, 40), (9, 9)], ids=["tall", "wide", "square"])
    def test_matches_full_svd(self, rng, shape):
        # the oracle's rows carry the sign convention, so this checks it too
        a = rng.standard_normal(shape) * np.linspace(1.0, 3.0, shape[1])
        svals, vt = gram_svd(a, 5)
        ref_vals, ref_vt = self._svd_oracle(a, 5)
        assert svals.shape == (min(shape),)
        assert np.max(np.abs(svals - ref_vals)) < 1e-12 * ref_vals[0]
        assert np.max(np.abs(vt - ref_vt)) < 1e-10
        assert np.max(np.abs(vt @ vt.T - np.eye(5))) < 1e-12

    def test_solves_the_small_gram(self, rng):
        seen = []

        def eig(g):
            seen.append(g.shape)
            return sym_eig(g)

        gram_svd(rng.standard_normal((6, 50)), 3, eig=eig)
        gram_svd(rng.standard_normal((50, 6)), 3, eig=eig)
        assert seen == [(6, 6), (6, 6)]

    @pytest.mark.parametrize("shape", [(6, 40), (40, 6)], ids=["wide", "tall"])
    def test_rank_deficient_rows_complete_in_null_space(self, rng, shape):
        # rank 2: the rows past it are undetermined by A, and come out as an
        # orthonormal completion that A maps to (rounding-level) zero
        a = rng.standard_normal((shape[0], 2)) @ rng.standard_normal((2, shape[1]))
        svals, vt = gram_svd(a, 4)
        assert np.max(np.abs(vt @ vt.T - np.eye(4))) < 1e-12
        assert np.max(np.abs(a @ vt[2:].T)) < 1e-6 * svals[0]
        assert np.all(svals[2:] < 1e-6 * svals[0])

    def test_rows_beyond_the_small_side_are_null(self, rng):
        a = rng.standard_normal((3, 12))
        svals, vt = gram_svd(a, 5)
        assert svals.shape == (3,)
        assert np.max(np.abs(vt @ vt.T - np.eye(5))) < 1e-12
        assert np.max(np.abs(a @ vt[3:].T)) < 1e-12

    @pytest.mark.parametrize("k", [0, 8])
    def test_vector_count_checked(self, rng, k):
        with pytest.raises(ValueError, match="right singular vectors"):
            gram_svd(rng.standard_normal((20, 7)), k)


class TestGramSvdSubset:
    """The block Krylov path, which shapes with a small side of at least 32
    block widths (k + 10 columns) take, against the Gram path as oracle."""

    K = 2  # a block is 12 columns wide, so a 400-row matrix takes this path

    @staticmethod
    def _spectrum(svals, shape, seed=0):
        """A shape[0] x shape[1] matrix with the given leading singular values
        and random singular vectors; the rest of the spectrum is 0."""
        r = np.random.default_rng(seed)
        u = np.linalg.qr(r.standard_normal((shape[0], len(svals))))[0]
        v = np.linalg.qr(r.standard_normal((shape[1], len(svals))))[0]
        return (u * svals) @ v.T

    @staticmethod
    def _gram_path(monkeypatch, a, k):
        with monkeypatch.context() as m:
            m.setattr(numerics, "_KRYLOV_MIN_BLOCKS", 10**9)
            return gram_svd(a, k)

    def _check_against_oracle(self, monkeypatch, a, vec_tol):
        seen = []
        svals, vt = gram_svd(a, self.K, eig=lambda g: seen.append(g) or sym_eig(g))
        ref_vals, ref_vt = self._gram_path(monkeypatch, a, self.K)
        assert seen == []  # the Gram matrix is never formed
        assert svals.shape == (self.K,)
        assert np.max(np.abs(svals - ref_vals[: self.K])) < 1e-14 * ref_vals[0]
        assert np.max(np.abs(vt - ref_vt)) < vec_tol
        assert np.max(np.abs(vt @ vt.T - np.eye(self.K))) < 1e-14
        # the package's sign convention: each row's largest entry is positive
        assert np.all(_lead_signs(vt.T) == 1.0)

    @pytest.mark.parametrize("shape", [(400, 900), (900, 400)], ids=["wide", "tall"])
    def test_matches_gram_path(self, monkeypatch, shape):
        a = self._spectrum(0.8 ** np.arange(60), shape)
        self._check_against_oracle(monkeypatch, a, 1e-13)

    @pytest.mark.parametrize("shape", [(400, 900), (900, 400)], ids=["wide", "tall"])
    def test_near_degenerate_gap_at_k(self, monkeypatch, shape):
        # s_2 / s_1 = 0.999 above a slowly decaying tail of 300: the k-th
        # vector is set apart from the next by a 0.2% gap (15 blocks)
        svals = np.concatenate([[3.0, 1.0, 0.999], 0.9 * 0.99 ** np.arange(300)])
        self._check_against_oracle(monkeypatch, self._spectrum(svals, shape), 1e-12)

    @pytest.mark.parametrize("shape", [(400, 900), (900, 400)], ids=["wide", "tall"])
    def test_rank_below_k_completes_in_null_space(self, shape):
        a = self._spectrum(np.array([2.0]), shape)
        svals, vt = gram_svd(a, self.K)
        assert np.max(np.abs(vt @ vt.T - np.eye(self.K))) < 1e-12
        assert np.max(np.abs(a @ vt[1:].T)) < 1e-6 * svals[0]
        assert svals[1] < 1e-6 * svals[0]

    def test_reruns_are_byte_identical(self):
        a = self._spectrum(0.9 ** np.arange(80), (400, 900), seed=3)
        first = gram_svd(a, self.K)
        again = gram_svd(a.copy(), self.K)
        assert all(x.tobytes() == y.tobytes() for x, y in zip(first, again))

    def test_unconverged_solve_raises(self, monkeypatch):
        # an eigensolver whose Ritz values are off by 1e-9 never meets the
        # residual bound; the solve must raise, not return its last iterate
        eigh = np.linalg.eigh
        monkeypatch.setattr(
            np.linalg, "eigh", lambda m, UPLO="L": (eigh(m, UPLO)[0] * (1 + 1e-9), eigh(m, UPLO)[1])
        )
        with pytest.raises(np.linalg.LinAlgError, match="did not converge in 33 blocks"):
            gram_svd(self._spectrum(0.8 ** np.arange(60), (400, 900)), self.K)

    def test_non_finite_rejected(self):
        a = self._spectrum(0.8 ** np.arange(60), (400, 900))
        a[3, 5] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            gram_svd(a, self.K)


class TestAdam:
    def test_first_step_magnitude(self):
        # With bias correction the very first update is lr * g/(|g| + ~0), so
        # each coordinate moves by almost exactly lr against the gradient sign.
        params = np.array([1.0, -2.0, 3.0])
        grads = np.array([10.0, -0.5, 1e-3])
        state = AdamState.for_params(params, lr=0.001)
        new, _ = adam_step(state, params, grads)
        delta = new - params
        assert np.all(np.sign(delta) == -np.sign(grads))
        assert np.allclose(np.abs(delta), 0.001, atol=1e-5)

    def test_converges_on_quadratic(self):
        # minimize 0.5*||x - t||^2
        target = np.array([0.3, -1.2, 2.0])
        params = np.zeros(3)
        state = AdamState.for_params(params, lr=0.05)
        for _ in range(500):
            params, state = adam_step(state, params, params - target)
        assert np.allclose(params, target, atol=1e-3)

    def test_state_is_not_mutated(self):
        params = np.ones(2)
        state = AdamState.for_params(params, lr=0.01)
        m_before = state.m.copy()
        adam_step(state, params, np.ones(2))
        assert np.array_equal(state.m, m_before)
        assert state.step == 0

    def test_step_counter_advances(self):
        params = np.ones(2)
        state = AdamState.for_params(params, lr=0.01)
        _, s1 = adam_step(state, params, np.ones(2))
        _, s2 = adam_step(s1, params, np.ones(2))
        assert (s1.step, s2.step) == (1, 2)

    def test_mismatched_shapes_rejected(self):
        params = np.ones(2)
        state = AdamState.for_params(params, lr=0.01)
        with pytest.raises(ValueError):
            adam_step(state, params, np.ones(3))


def loop_softmax_xent(logits, positive, candidates):
    """Per-row log-softmax over the row's candidates, one positive at a
    time: the oracle of the in-place kernel."""
    loss, grad = 0.0, np.zeros_like(logits)
    for i in range(len(logits)):
        cand = np.flatnonzero(candidates[i])
        log_den = math.log(sum(math.exp(logits[i, k]) for k in cand))
        for j in np.flatnonzero(positive[i]):
            loss -= logits[i, j] - log_den
            grad[i, cand] += [math.exp(logits[i, k] - log_den) for k in cand]
            grad[i, j] -= 1.0
    return loss, grad


def _xent_case(rng, kind):
    """(logits, positive, candidates) shaped like one caller's."""
    if kind == "mlp":  # every entry a candidate, one-hot positives
        positive = np.eye(2, dtype=bool)[rng.integers(0, 2, 30)]
        return 3.0 * rng.standard_normal((30, 2)), positive, np.ones_like(positive)
    groups = rng.integers(0, 5, 24)
    groups[0] = 5  # a group of one: a row without positives
    same = groups[:, None] == groups[None, :]
    np.fill_diagonal(same, False)
    if kind == "individualized":  # off-diagonal candidates, same-group positives
        candidates = ~np.eye(24, dtype=bool)
        positive = same
    else:  # multimodal: the positive on the diagonal, outside the group's candidates
        keep = np.flatnonzero(same.any(axis=1))
        candidates = same[np.ix_(keep, keep)]
        positive = np.eye(len(keep), dtype=bool)
    return 3.0 * rng.standard_normal(positive.shape), positive, candidates


class TestSoftmaxXent:
    @pytest.mark.parametrize("kind", ["individualized", "multimodal", "mlp"])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_per_row_loop(self, kind, seed):
        logits, positive, candidates = _xent_case(np.random.default_rng(seed), kind)
        ref_loss, ref_grad = loop_softmax_xent(logits, positive, candidates)
        buf = logits.copy()
        loss, grad = _softmax_xent(buf, positive, candidates)
        assert grad is buf
        assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
        assert np.abs(grad - ref_grad).max() <= 1e-12 * np.abs(ref_grad).max()


class TestGlorot:
    def test_shape_and_bounds(self):
        w = glorot(np.random.default_rng(0), 40, 24)
        assert w.shape == (40, 24)
        assert np.abs(w).max() <= math.sqrt(6.0 / 64) and np.abs(w).max() > 0.2

    def test_encoder_init_draws_in_order(self):
        rng = np.random.default_rng(3)
        expected = [glorot(rng, 5, 4), glorot(rng, 8, 1, (8,)),
                    glorot(rng, 4, 3), glorot(rng, 6, 1, (6,))]
        params = EncoderParams.init(5, 4, 3, np.random.default_rng(3))
        for got, want in zip(params.as_dict().values(), expected):
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("config_type,name", CONFIG_FLOATS,
                         ids=[f"{c.__name__}.{n}" for c, n in CONFIG_FLOATS])
def test_config_rejects_nonfinite_float(config_type, name, value):
    # NaN passes every range comparison in the configs' own checks
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        config_type(**{name: value})


class TestPearson:
    def test_known_value(self):
        # r((1,2,3),(1,2,4)) = 9 / (2*sqrt(21)) = sqrt(27/28)
        r = pearson(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 4.0]))
        assert abs(r - 9 / (2 * math.sqrt(21))) < 1e-14

    def test_perfect_and_anti(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert pearson(x, 2 * x + 1) == pytest.approx(1.0)
        assert pearson(x, -x) == pytest.approx(-1.0)

    def test_matches_scipy(self, rng):
        for _ in range(10):
            x = rng.standard_normal(30)
            y = rng.standard_normal(30)
            assert pearson(x, y) == pytest.approx(
                scipy.stats.pearsonr(x, y).statistic, abs=1e-12
            )

    def test_zero_variance_raises(self):
        with pytest.raises(ValueError, match="variance"):
            pearson(np.array([1.0, 1.0, 1.0]), np.array([1.0, 2.0, 3.0]))

    @given(
        hnp.arrays(np.float64, 8, elements=st.floats(-100, 100)),
        st.floats(0.1, 10),
        st.floats(-5, 5),
    )
    def test_affine_invariance(self, x, scale, shift):
        y = np.arange(8.0)
        if np.std(x) < 1e-6:
            return
        base = pearson(x, y)
        assert pearson(scale * x + shift, y) == pytest.approx(base, abs=1e-9)


class TestWasserstein:
    def test_known_value(self):
        # {0,2} vs {1,3}: both CDF steps shifted by 1 -> W1 = 1
        assert wasserstein_1d(np.array([0.0, 2.0]), np.array([1.0, 3.0])) == pytest.approx(1.0)

    def test_identical_is_zero(self, rng):
        x = rng.standard_normal(40)
        assert wasserstein_1d(x, x.copy()) == 0.0

    def test_translation(self):
        x = np.array([0.0, 1.0, 5.0])
        assert wasserstein_1d(x, x + 2.5) == pytest.approx(2.5)

    def test_matches_scipy(self, rng):
        for _ in range(20):
            a = rng.standard_normal(rng.integers(2, 50))
            b = rng.standard_normal(rng.integers(2, 50))
            assert wasserstein_1d(a, b) == pytest.approx(
                scipy.stats.wasserstein_distance(a, b), abs=1e-12
            )

    def test_symmetry_and_nonnegativity(self, rng):
        a = rng.standard_normal(15)
        b = rng.standard_normal(9)
        assert wasserstein_1d(a, b) == pytest.approx(wasserstein_1d(b, a))
        assert wasserstein_1d(a, b) >= 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            wasserstein_1d(np.array([]), np.array([1.0]))


class TestMannWhitney:
    def test_known_small_case(self):
        # {1,2} vs {3,4}: U1 = 0
        res = mann_whitney_u(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
        assert res.u == 0.0
        assert not res.degenerate
        ref = scipy.stats.mannwhitneyu(
            [1.0, 2.0], [3.0, 4.0], alternative="two-sided", method="asymptotic"
        )
        assert res.p_value == pytest.approx(ref.pvalue, rel=1e-6)

    def test_matches_scipy_with_ties(self, rng):
        for _ in range(15):
            a = rng.integers(0, 6, size=rng.integers(3, 25)).astype(float)
            b = rng.integers(0, 6, size=rng.integers(3, 25)).astype(float)
            if np.all(a == a[0]) and np.all(b == b[0]) and a[0] == b[0]:
                continue
            ref = scipy.stats.mannwhitneyu(
                a, b, alternative="two-sided", method="asymptotic"
            )
            res = mann_whitney_u(a, b)
            assert res.u == pytest.approx(ref.statistic)
            assert res.p_value == pytest.approx(ref.pvalue, rel=1e-6)

    def test_separated_samples_are_significant(self, rng):
        a = rng.normal(0, 1, 40)
        b = rng.normal(5, 1, 40)
        res = mann_whitney_u(a, b)
        assert res.p_value < 1e-6

    def test_all_identical_degenerate(self):
        with pytest.warns(UserWarning, match="identical"):
            res = mann_whitney_u(np.ones(5), np.ones(7))
        assert res.degenerate
        assert res.p_value == 1.0
        assert res.u == 5 * 7 / 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mann_whitney_u(np.array([]), np.array([1.0]))

    @given(st.integers(0, 2**32 - 1))
    def test_u_complement_identity(self, seed):
        # U1 + U2 = n1 * n2 always
        r = np.random.default_rng(seed)
        a = r.standard_normal(6)
        b = r.standard_normal(9)
        u1 = mann_whitney_u(a, b).u
        u2 = mann_whitney_u(b, a).u
        assert u1 + u2 == pytest.approx(6 * 9)


def test_random_connectivity_helper_is_valid(rng):
    mat = random_connectivity(rng, 12)
    assert np.array_equal(mat, mat.T)
    assert np.allclose(np.diag(mat), 1.0)
    assert np.max(np.abs(mat)) <= 1.0
