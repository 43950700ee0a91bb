import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cograca.gcca import (
    Fingerprint,
    GccaSolution,
    ViewMatrix,
    component_correlations,
    corr_grad_brain,
    corr_loss,
    preprocess_views,
    project_fingerprint,
    solve_gcca,
)
from cograca.numerics import pearson, sym_eig

from conftest import finite_difference, relative_error


def first_canonical_correlation(x: np.ndarray, y: np.ndarray) -> float:
    """Classical CCA oracle, independent code path: top eigenvalue of
    Sxx^-1 Sxy Syy^-1 Syx is rho_1^2. Views are (features, samples)."""
    xc = x - x.mean(axis=1, keepdims=True)
    yc = y - y.mean(axis=1, keepdims=True)
    sxx = xc @ xc.T
    syy = yc @ yc.T
    sxy = xc @ yc.T
    m = np.linalg.solve(sxx, sxy) @ np.linalg.solve(syy, sxy.T)
    return float(np.sqrt(np.max(np.real(np.linalg.eigvals(m)))))


def coupled_views(rng, n=50, d_brain=5, d_cog=4, noise=0.5):
    z = rng.standard_normal(n)
    brain = np.outer(rng.standard_normal(d_brain), z) + noise * rng.standard_normal((d_brain, n))
    cog = np.outer(rng.standard_normal(d_cog), z) + noise * rng.standard_normal((d_cog, n))
    return brain, cog


class TestPreprocess:
    def test_zscores_rows(self, rng):
        brain = rng.standard_normal((6, 30)) * 3 + 1
        cog = rng.standard_normal((4, 30)) * 0.1 - 2
        b, c, stats = preprocess_views(brain, cog)
        for view in (b, c):
            assert np.max(np.abs(view.features.mean(axis=1))) < 1e-12
            assert np.max(np.abs(view.features.std(axis=1) - 1.0)) < 1e-12
        assert b.name == "brain" and c.name == "cognition"
        assert np.allclose(stats.brain_mean, brain.mean(axis=1))

    def test_transform_with_training_stats(self, rng):
        brain = rng.standard_normal((5, 20))
        cog = rng.standard_normal((3, 20))
        _, _, stats = preprocess_views(brain, cog)
        new_b = rng.standard_normal((5, 7))
        new_c = rng.standard_normal((3, 7))
        b2, c2, stats2 = preprocess_views(new_b, new_c, stats=stats)
        assert stats2 is stats
        expect = (new_b - stats.brain_mean[:, None]) / stats.brain_std[:, None]
        assert np.allclose(b2.features, expect)

    def test_zero_variance_row_centered_not_scaled(self, rng):
        brain = rng.standard_normal((4, 15))
        brain[2] = 3.14
        cog = rng.standard_normal((3, 15))
        with pytest.warns(UserWarning, match="zero variance"):
            b, _, stats = preprocess_views(brain, cog)
        assert np.allclose(b.features[2], 0.0)
        assert stats.brain_std[2] == 1.0

    def test_stats_shape_mismatch_rejected(self, rng):
        brain = rng.standard_normal((5, 20))
        cog = rng.standard_normal((3, 20))
        _, _, stats = preprocess_views(brain, cog)
        with pytest.raises(ValueError):
            preprocess_views(rng.standard_normal((6, 7)), rng.standard_normal((3, 7)), stats=stats)

    def test_visit_count_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            preprocess_views(rng.standard_normal((5, 20)), rng.standard_normal((3, 19)))


class TestSolveGcca:
    def test_r_has_orthonormal_rows(self, rng):
        brain, cog = coupled_views(rng)
        b, c, _ = preprocess_views(brain, cog)
        sol = solve_gcca(b, c, d_r=3)
        gram = sol.r @ sol.r.T
        assert np.max(np.abs(gram - np.eye(3))) < 1e-8

    def test_eigenvalues_descending_and_bounded(self, rng):
        brain, cog = coupled_views(rng)
        b, c, _ = preprocess_views(brain, cog)
        sol = solve_gcca(b, c, d_r=4)
        assert np.all(np.diff(sol.eigenvalues) <= 1e-12)
        # each projection matrix has eigenvalues in [0, 1], so the sum is in [0, 2]
        assert np.all(sol.eigenvalues <= 2.0 + 1e-9)
        assert np.all(sol.eigenvalues >= -1e-9)

    def test_loadings_solve_normal_equations(self, rng):
        brain, cog = coupled_views(rng)
        b, c, _ = preprocess_views(brain, cog)
        sol = solve_gcca(b, c, d_r=3, ridge=1e-6)
        xb = b.features
        lhs = (xb @ xb.T + 1e-6 * np.eye(5)) @ sol.u_brain
        assert np.allclose(lhs, xb @ sol.r.T, atol=1e-8)

    def test_matches_classical_cca_top_component(self):
        # With a vanishing ridge, the correlation between the two views' first
        # shared projections equals the first canonical correlation, and the
        # top eigenvalue of the stacked problem is 1 + rho_1.
        for seed in range(5):
            rng = np.random.default_rng(seed)
            brain, cog = coupled_views(rng, n=50, d_brain=5, d_cog=4)
            b, c, _ = preprocess_views(brain, cog)
            rho_oracle = first_canonical_correlation(b.features, c.features)
            sol = solve_gcca(b, c, d_r=3, ridge=1e-10)
            zb = sol.u_brain.T @ b.features
            zc = sol.u_cog.T @ c.features
            rho = pearson(zb[0], zc[0])
            assert abs(rho - rho_oracle) < 1e-6
            assert abs(sol.eigenvalues[0] - (1.0 + rho_oracle)) < 1e-6

    def test_ridge_recorded(self, rng):
        brain, cog = coupled_views(rng)
        b, c, _ = preprocess_views(brain, cog)
        sol = solve_gcca(b, c, d_r=2, ridge=1e-7)
        assert sol.ridge == (1e-7, 1e-7)
        sol_scaled = solve_gcca(b, c, d_r=2)
        assert sol_scaled.ridge[0] == pytest.approx(
            1e-4 * np.trace(b.features @ b.features.T) / 5
        )

    def test_too_few_visits_rejected(self, rng):
        brain = rng.standard_normal((5, 10))
        cog = rng.standard_normal((4, 10))
        b, c, _ = preprocess_views(brain, cog)
        with pytest.raises(ValueError, match="more visits"):
            solve_gcca(b, c, d_r=10)

    def test_visit_mismatch_rejected(self, rng):
        b = ViewMatrix(features=rng.standard_normal((5, 10)), name="brain")
        c = ViewMatrix(features=rng.standard_normal((4, 9)), name="cognition")
        with pytest.raises(ValueError):
            solve_gcca(b, c, d_r=2)

    def test_deterministic(self, rng):
        brain, cog = coupled_views(rng)
        b, c, _ = preprocess_views(brain, cog)
        s1 = solve_gcca(b, c, d_r=3)
        s2 = solve_gcca(b, c, d_r=3)
        assert np.array_equal(s1.r, s2.r)
        assert np.array_equal(s1.u_brain, s2.u_brain)


class TestCorrLossGrad:
    def _solution(self, rng, d_brain=5, d_cog=4, n=30):
        brain, cog = coupled_views(rng, n=n, d_brain=d_brain, d_cog=d_cog)
        b, c, _ = preprocess_views(brain, cog)
        return solve_gcca(b, c, d_r=3), b, c

    def test_loss_zero_when_projections_hit_r(self, rng):
        sol, b, c = self._solution(rng)
        fake = GccaSolution(
            r=sol.u_brain.T @ b.features,
            u_brain=sol.u_brain,
            u_cog=np.zeros_like(sol.u_cog),
            eigenvalues=sol.eigenvalues,
            ridge=sol.ridge,
        )
        loss = corr_loss(fake, b, c)
        expect = np.sum((fake.r - fake.u_cog.T @ c.features) ** 2)
        assert loss == pytest.approx(expect)

    @pytest.mark.parametrize("seed", range(4))
    def test_grad_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        sol, b, c = self._solution(rng)
        grad = corr_grad_brain(sol, b)

        def scalar(x):
            return corr_loss(sol, ViewMatrix(features=x, name="brain"), c)

        fd = finite_difference(scalar, b.features.copy())
        assert relative_error(grad, fd) < 1e-6

    def test_grad_zero_at_perfect_fit(self, rng):
        # If U^T X == R exactly the gradient vanishes.
        u = rng.standard_normal((5, 3))
        x = rng.standard_normal((5, 12))
        sol = GccaSolution(
            r=u.T @ x, u_brain=u, u_cog=u[:4, :] * 0, eigenvalues=np.zeros(3),
            ridge=(1e-6, 1e-6),
        )
        g = corr_grad_brain(sol, ViewMatrix(features=x, name="brain"))
        assert np.max(np.abs(g)) < 1e-10

    def test_component_correlations_sorted_by_eigenvalue(self, rng):
        sol, b, c = self._solution(rng, n=60)
        corrs = component_correlations(sol, b, c)
        assert corrs.shape == (3,)
        # the first shared component should carry the strongest correlation
        assert corrs[0] == np.max(corrs)


class TestProjectFingerprint:
    def _solution(self, rng):
        brain, cog = coupled_views(rng)
        b, c, _ = preprocess_views(brain, cog)
        return solve_gcca(b, c, d_r=3)

    def test_brain_mode(self, rng):
        sol = self._solution(rng)
        h = rng.standard_normal(5)
        fp = project_fingerprint(sol, h_g=h, mode="brain")
        assert isinstance(fp, Fingerprint)
        assert fp.tag == "test-brain"
        assert np.allclose(fp.values, sol.u_brain.T @ h)

    def test_cognition_mode(self, rng):
        sol = self._solution(rng)
        cvec = rng.standard_normal(4)
        fp = project_fingerprint(sol, cog=cvec, mode="cognition")
        assert fp.tag == "test-cognition"
        assert np.allclose(fp.values, sol.u_cog.T @ cvec)

    def test_fused_mode_averages(self, rng):
        sol = self._solution(rng)
        h = rng.standard_normal(5)
        cvec = rng.standard_normal(4)
        fp = project_fingerprint(sol, h_g=h, cog=cvec, mode="fused")
        assert fp.tag == "test-fused"
        expect = (sol.u_brain.T @ h + sol.u_cog.T @ cvec) / 2
        assert np.allclose(fp.values, expect)

    def test_fused_falls_back_with_warning(self, rng):
        sol = self._solution(rng)
        h = rng.standard_normal(5)
        with pytest.warns(UserWarning, match="brain view"):
            fp = project_fingerprint(sol, h_g=h, mode="fused")
        assert fp.tag == "test-brain"

    def test_missing_inputs_rejected(self, rng):
        sol = self._solution(rng)
        with pytest.raises(ValueError):
            project_fingerprint(sol, mode="fused")
        with pytest.raises(ValueError):
            project_fingerprint(sol, cog=rng.standard_normal(4), mode="brain")

    @given(st.integers(0, 1000))
    def test_projection_is_linear(self, seed):
        r = np.random.default_rng(seed)
        sol = self._solution(r)
        h1, h2 = r.standard_normal((2, 5))
        f1 = project_fingerprint(sol, h_g=h1, mode="brain").values
        f2 = project_fingerprint(sol, h_g=h2, mode="brain").values
        f12 = project_fingerprint(sol, h_g=h1 + h2, mode="brain").values
        assert np.allclose(f12, f1 + f2)


def _dense_m(b: ViewMatrix, c: ViewMatrix, ridge: tuple[float, float]) -> np.ndarray:
    """The N x N matrix P_b + P_c the solver never forms: the oracle."""

    def projection(x, eps):
        cov = x @ x.T + eps * np.eye(x.shape[0])
        p = x.T @ np.linalg.solve(cov, x)
        return (p + p.T) / 2

    return projection(b.features, ridge[0]) + projection(c.features, ridge[1])


def test_stacked_eigen_matches_sym_eig_of_m():
    # The thin solve must agree with directly eigendecomposing P_b + P_c,
    # whichever side of the stacked factor is the small one: N above
    # d_brain + d_cog, then below it. The scaled ridge splits the eigenvalue
    # 2 that the views' shared directions take when N - 1 < d_brain + d_cog,
    # so R is well determined there too.
    for n, d_brain, d_cog in [(40, 5, 4), (12, 8, 7)]:
        rng = np.random.default_rng(n)
        brain, cog = coupled_views(rng, n=n, d_brain=d_brain, d_cog=d_cog)
        b, c, _ = preprocess_views(brain, cog)
        sol = solve_gcca(b, c, d_r=4)
        dec = sym_eig(_dense_m(b, c, sol.ridge))
        kept = min(n, d_brain + d_cog)
        assert sol.eigenvalues.shape == (kept,)
        assert np.max(np.abs(sol.eigenvalues - dec.eigenvalues[:kept])) < 1e-12
        # the spectrum left out is M's null space
        assert np.max(np.abs(dec.eigenvalues[kept:]), initial=0.0) < 1e-12
        # both carry sym_eig's sign convention, so R matches elementwise
        assert np.max(np.abs(sol.r - dec.eigenvectors[:, :4].T)) < 1e-10
        assert np.max(np.abs(sol.r @ sol.r.T - np.eye(4))) < 1e-12


def test_shared_dims_beyond_stacked_rank_are_null(rng):
    # d_r above d_brain + d_cog: the extra rows of R complete it orthonormally
    # inside both views' null space, so their loadings vanish.
    brain, cog = coupled_views(rng, n=30, d_brain=3, d_cog=2)
    b, c, _ = preprocess_views(brain, cog)
    sol = solve_gcca(b, c, d_r=7, ridge=1e-8)
    assert sol.eigenvalues.shape == (5,)
    assert np.max(np.abs(sol.r @ sol.r.T - np.eye(7))) < 1e-12
    assert np.max(np.abs(b.features @ sol.r[5:].T)) < 1e-12
    assert np.max(np.abs(c.features @ sol.r[5:].T)) < 1e-12
    assert np.max(np.abs(sol.u_brain[:, 5:])) < 1e-10
    assert np.max(np.abs(sol.u_cog[:, 5:])) < 1e-10
