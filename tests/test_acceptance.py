"""Acceptance criteria. One test per criterion; each prints a single
PASS/FAIL line (visible with -s, or via pytest -v test outcomes since tests
are named by criterion). Tolerances are pinned here and must not be loosened.
"""

import dataclasses
import json
import time
import warnings

import numpy as np
import pytest

from cograca.baselines import (
    amari_index,
    classical_cca,
    ica_fit,
    pca_fit,
    vectorize_connectivity,
)
from cograca.cli import main as cli_main
from cograca.cli import rebuild_argv
from cograca.contrastive import BatchIndex, ContrastiveConfig, individualized_loss, multimodal_loss
from cograca.data import SyntheticConfig, generate_synthetic
from cograca.encoder import (
    ConnectivityGraph,
    EncoderParams,
    build_graph,
    encode_graph,
    encode_graph_vjp,
)
from cograca.evaluation import (
    cross_validated_bacc,
    shapley_attribution,
    similarity_analysis,
    train_mlp,
)
from cograca.gcca import (
    ViewMatrix,
    corr_grad_brain,
    corr_loss,
    preprocess_views,
    solve_gcca,
)
from cograca.numerics import pearson
from cograca.pipeline import (
    TrainConfig,
    compute_fingerprints,
    make_subject_folds,
    train_model,
)

from conftest import finite_difference, random_connectivity, relative_error
from test_gcca import first_canonical_correlation

# Criterion 4 runs on the default synthetic cohort (30 subjects, 45 visits
# at seed 7); criterion 5 reuses it with raised visit noise. Tolerances and
# decision thresholds come from the criteria themselves and are not
# adjustable.


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num} ({name}): {status} [{detail}]", flush=True)


def test_criterion_1_gcca_equals_classical_cca():
    """Top shared component reproduces the first canonical correlation on 20
    random two-view instances (N=50, dims 5/4, ridge 1e-10, tol 1e-6)."""
    t0 = time.monotonic()
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        z = rng.standard_normal(50)
        brain = np.outer(rng.standard_normal(5), z) + 0.6 * rng.standard_normal((5, 50))
        cog = np.outer(rng.standard_normal(4), z) + 0.6 * rng.standard_normal((4, 50))
        b, c, _ = preprocess_views(brain, cog)
        rho_oracle = first_canonical_correlation(b.features, c.features)
        sol = solve_gcca(b, c, d_r=3, ridge=1e-10)
        rho = pearson(sol.u_brain.T[0] @ b.features, sol.u_cog.T[0] @ c.features)
        worst = max(worst, abs(rho - rho_oracle))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-6 and elapsed < 5.0
    _report(1, "shared solver matches classical CCA", ok,
            f"max |rho - oracle| = {worst:.2e}, {elapsed:.2f}s")
    assert worst < 1e-6
    assert elapsed < 5.0


def test_criterion_2_gradient_suite():
    """Analytic gradients of every trained term match central finite
    differences to relative error < 1e-4; 10 instances per term."""
    t0 = time.monotonic()
    worst = {"corr": 0.0, "ind": 0.0, "mul": 0.0, "encoder": 0.0}

    for seed in range(10):
        rng = np.random.default_rng(100 + seed)

        # correlation term wrt the brain view, solution held fixed
        brain = rng.standard_normal((5, 20))
        cog = rng.standard_normal((4, 20))
        b, c, _ = preprocess_views(brain, cog)
        sol = solve_gcca(b, c, d_r=3)
        g = corr_grad_brain(sol, b)
        fd = finite_difference(
            lambda x: corr_loss(sol, ViewMatrix(features=x, name="brain"), c),
            b.features.copy(),
        )
        worst["corr"] = max(worst["corr"], relative_error(g, fd))

        # contrastive terms wrt the embeddings
        subjects = ["a", "a", "b", "b", "b", "c", "d", "d"]
        visits = [1, 2, 1, 2, 3, 1, 1, 2]
        index = BatchIndex.from_visits(subjects, visits)
        emb = rng.standard_normal((8, 5))
        cogs = rng.standard_normal((8, 5))
        cfg = ContrastiveConfig(temperature=0.9)
        _, g_ind = individualized_loss(emb, index, cfg)
        fd = finite_difference(lambda x: individualized_loss(x, index, cfg)[0], emb.copy())
        worst["ind"] = max(worst["ind"], relative_error(g_ind, fd))
        _, g_mul = multimodal_loss(emb, cogs, index, cfg)
        fd = finite_difference(lambda x: multimodal_loss(x, cogs, index, cfg)[0], emb.copy())
        worst["mul"] = max(worst["mul"], relative_error(g_mul, fd))

        # encoder VJP wrt every parameter array
        graph = build_graph(random_connectivity(rng, 6))
        params = EncoderParams.init(6, hidden=5, out=4, rng=rng)
        d_pooled = rng.standard_normal(4)
        grads = encode_graph_vjp(params, graph, d_pooled)
        for name in ("w1", "m1", "w2", "m2"):
            def scalar(arr, _name=name):
                kwargs = params.as_dict()
                kwargs[_name] = arr
                return float(d_pooled @ encode_graph(EncoderParams(**kwargs), graph).pooled)
            fd = finite_difference(scalar, params.as_dict()[name].copy())
            worst["encoder"] = max(worst["encoder"], relative_error(grads[name], fd))

    elapsed = time.monotonic() - t0
    bad = {k: v for k, v in worst.items() if v >= 1e-4}
    ok = not bad and elapsed < 60.0
    detail = ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
    _report(2, "gradient suite vs finite differences", ok, f"{detail}, {elapsed:.1f}s")
    assert not bad, f"relative errors >= 1e-4: {bad}"
    assert elapsed < 60.0


def test_criterion_3_structural_constraints():
    """Orthonormal shared rows, row-stochastic neighborhood-masked attention,
    and node-permutation invariance of the pooled embedding."""
    records, _ = generate_synthetic(
        SyntheticConfig(subjects=12, rois=14, d_cog=8, latent_dim=4, seed=3)
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = train_model(
            records, TrainConfig(epochs=30, hidden_dim=12, r=8, d_r=6, seed=0)
        )

    gram = model.solution.r @ model.solution.r.T
    ortho_err = float(np.max(np.abs(gram - np.eye(6))))

    attn_row_err = 0.0
    attn_leak = 0.0
    saw_outside = False
    for rec in records[:6]:
        emb = encode_graph(model.params, rec.graph)
        outside = ~rec.graph.neighbor_mask()
        saw_outside = saw_outside or bool(outside.any())
        for attn in emb.attentions:
            attn_row_err = max(attn_row_err, float(np.max(np.abs(attn.sum(axis=1) - 1.0))))
            if outside.any():
                attn_leak = max(attn_leak, float(np.max(np.abs(attn[outside]))))
    assert saw_outside, "cohort has no pruned edges; the leak check would be vacuous"

    perm_err = 0.0
    rng = np.random.default_rng(0)
    for rec in records[:6]:
        perm = rng.permutation(rec.graph.n_nodes)
        permuted = ConnectivityGraph(
            adjacency=rec.graph.adjacency[np.ix_(perm, perm)],
            attributes=rec.graph.attributes[perm],
        )
        base = encode_graph(model.params, rec.graph).pooled
        moved = encode_graph(model.params, permuted).pooled
        perm_err = max(perm_err, float(np.max(np.abs(base - moved))))

    ok = ortho_err < 1e-8 and attn_row_err < 1e-10 and attn_leak == 0.0 and perm_err < 1e-10
    _report(3, "structural constraints", ok,
            f"||RR^T - I||={ortho_err:.2e}, attn row err={attn_row_err:.2e}, "
            f"attn leak={attn_leak:.2e}, perm err={perm_err:.2e}")
    assert ortho_err < 1e-8
    assert attn_row_err < 1e-10
    assert attn_leak == 0.0
    assert perm_err < 1e-10


@pytest.mark.slow
def test_criterion_4_fingerprint_separation():
    """Fingerprints separate subjects: same-subject vs different-subject
    similarity MWU p < 0.001 on the default seed-7 cohort, and the full model
    beats the correlation-only ablation on Wasserstein separation in >= 8 of
    10 cohort seeds. Each model trains on the full cohort and fingerprints
    its training visits in the standard fused mode."""
    t0 = time.monotonic()

    def w1_and_p(records, cfg):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model = train_model(records, cfg)
            fps = compute_fingerprints(model, records, mode="fused")
        rep = similarity_analysis(
            np.stack([f.values for f in fps]), [r.subject_id for r in records]
        )
        return rep.wasserstein, rep.mwu.p_value

    co_cfg = TrainConfig(seed=0)
    gr_cfg = dataclasses.replace(co_cfg, lambda1=0.0, lambda2=0.0)

    wins = 0
    p_seed7 = None
    for seed in range(7, 17):
        records, _ = generate_synthetic(SyntheticConfig(seed=seed))
        assert len(records) == 45
        w_co, p_co = w1_and_p(records, co_cfg)
        w_gr, _ = w1_and_p(records, gr_cfg)
        wins += int(w_co > w_gr)
        if seed == 7:
            p_seed7 = p_co
    elapsed = time.monotonic() - t0

    ok = p_seed7 < 1e-3 and wins >= 8 and elapsed < 600.0
    _report(4, "fingerprint separation", ok,
            f"seed-7 MWU p = {p_seed7:.2e}, W1 wins = {wins}/10, {elapsed:.0f}s")
    assert p_seed7 < 1e-3
    assert wins >= 8
    assert elapsed < 600.0


@pytest.mark.slow
def test_criterion_5_downstream_classification():
    """Mean balanced accuracy of the fingerprints over 10 MLP seeds is at
    least 0.75 and within 0.02 of every brain-using baseline.

    One unsupervised model (or reducer) is fit on the whole cohort so every
    representation lives in a single basis; the supervision is then properly
    held out by the subject-level classifier folds. The cohort raises the
    visit noise to 0.45, where denoising matters for the label."""
    t0 = time.monotonic()
    records, truth = generate_synthetic(SyntheticConfig(seed=7, noise=0.45))
    label_of = dict(zip(truth.subject_ids, truth.labels))
    y = np.array([label_of[r.subject_id] for r in records], dtype=np.int64)
    folds = make_subject_folds([r.subject_id for r in records], 5, seed=0)
    feats = np.stack([vectorize_connectivity(r.graph.adjacency) for r in records])
    cogs = np.stack([r.cognition for r in records])

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = train_model(records, TrainConfig(seed=0))
        fps = compute_fingerprints(model, records, mode="fused")
        reps = {"cograca": np.stack([f.values for f in fps])}

        ica = ica_fit(feats, n_components=20, seed=0)
        reps["fmri-only-ica"] = ica.transform(feats)
        cca = classical_cca(reps["fmri-only-ica"], cogs, n_pairs=16)
        tx, ty = cca.transform(reps["fmri-only-ica"], cogs)
        reps["ica-cca"] = (tx + ty) / 2.0

        pca = pca_fit(feats, 0.95)
        xp = pca.transform(feats)
        cca = classical_cca(xp, cogs, n_pairs=min(16, xp.shape[1]))
        tx, ty = cca.transform(xp, cogs)
        reps["pca-cca"] = (tx + ty) / 2.0

    means = {
        name: float(cross_validated_bacc(mat, y, folds, seed=0, repeats=10, epochs=200).mean())
        for name, mat in reps.items()
    }
    elapsed = time.monotonic() - t0

    margin_ok = all(
        means["cograca"] >= means[k] - 0.02
        for k in ("fmri-only-ica", "pca-cca", "ica-cca")
    )
    ok = means["cograca"] >= 0.75 and margin_ok and elapsed < 900.0
    detail = ", ".join(f"{k}={v:.3f}" for k, v in sorted(means.items()))
    _report(5, "downstream classification", ok, f"{detail}, {elapsed:.0f}s")
    assert means["cograca"] >= 0.75
    assert margin_ok, f"cograca trails a baseline by more than 0.02: {means}"
    assert elapsed < 900.0


def test_criterion_6_shapley_axioms():
    """Efficiency (1e-6), symmetry, dummy, and the linear closed form (1e-8)
    hold across 20 random classifiers."""
    eff_worst = 0.0
    sym_worst = 0.0
    dummy_worst = 0.0
    lin_worst = 0.0
    for trial in range(20):
        rng = np.random.default_rng(trial)
        d = int(rng.integers(4, 9))
        x_train = rng.standard_normal((30, d))
        y_train = (x_train[:, 0] + 0.3 * rng.standard_normal(30) > 0).astype(int)
        if y_train.min() == y_train.max():
            y_train[0] = 1 - y_train[0]
        clf = train_mlp(x_train, y_train, seed=trial, epochs=25)
        x = rng.standard_normal(d)
        baseline = rng.standard_normal(d)

        # efficiency on the trained network itself
        rep = shapley_attribution(clf, x, baseline)
        gap = clf.decision_value(x[None])[0] - clf.decision_value(baseline[None])[0]
        eff_worst = max(eff_worst, abs(rep.values.sum() - gap))

        # symmetry: make features 0 and 1 exchangeable in the network and the
        # evaluation point
        w1 = clf.w1.copy()
        w1[1] = w1[0]
        sym_clf = dataclasses.replace(clf, w1=w1)
        x_sym = x.copy()
        x_sym[1] = x_sym[0]
        base_sym = baseline.copy()
        base_sym[1] = base_sym[0]
        rep_sym = shapley_attribution(sym_clf, x_sym, base_sym)
        sym_worst = max(sym_worst, abs(rep_sym.values[0] - rep_sym.values[1]))

        # dummy: silence feature d-1 entirely
        w1 = clf.w1.copy()
        w1[d - 1] = 0.0
        dummy_clf = dataclasses.replace(clf, w1=w1)
        rep_dummy = shapley_attribution(dummy_clf, x, baseline)
        dummy_worst = max(dummy_worst, abs(rep_dummy.values[d - 1]))

        # linear closed form
        w = rng.standard_normal(d)
        rep_lin = shapley_attribution(lambda z, _w=w: z @ _w + 0.5, x, baseline)
        lin_worst = max(lin_worst, float(np.max(np.abs(rep_lin.values - w * (x - baseline)))))

    ok = eff_worst < 1e-6 and sym_worst < 1e-8 and dummy_worst < 1e-10 and lin_worst < 1e-8
    _report(6, "attribution axioms", ok,
            f"efficiency={eff_worst:.2e}, symmetry={sym_worst:.2e}, "
            f"dummy={dummy_worst:.2e}, linear={lin_worst:.2e}")
    assert eff_worst < 1e-6
    assert sym_worst < 1e-8
    assert dummy_worst < 1e-10
    assert lin_worst < 1e-8


@pytest.mark.slow
def test_criterion_7_cli_bit_exact_reruns(tmp_path):
    """Every pipeline stage rerun from its run.json reproduces all numeric
    artifacts byte for byte."""
    base = tmp_path / "first"
    redo = tmp_path / "second"
    base.mkdir()
    redo.mkdir()

    synth = ["synth", "--seed", "7", "--subjects", "14", "--rois", "12",
             "--d-cog", "8", "--latent-dim", "4"]
    train = ["train", "--epochs", "60", "--hidden-dim", "12", "--r", "8",
             "--d-r", "6", "--folds", "3", "--seed", "2"]

    assert cli_main(synth + ["--out", str(base / "data")]) == 0
    assert cli_main(train + ["--data", str(base / "data"), "--out", str(base / "run")]) == 0
    assert cli_main(["fingerprint", "--data", str(base / "data"),
                     "--run", str(base / "run"), "--out", str(base / "fp")]) == 0
    assert cli_main(["baseline", "--kind", "pca-cca", "--data", str(base / "data"),
                     "--out", str(base / "pca"), "--folds", "3"]) == 0
    assert cli_main(["evaluate", "similarity",
                     "--representations", str(base / "fp" / "fingerprints.csv"),
                     "--out", str(base / "sim")]) == 0
    assert cli_main(["evaluate", "classify",
                     "--representations", str(base / "fp" / "fingerprints.csv"),
                     "--data", str(base / "data"), "--repeats", "2",
                     "--epochs", "25", "--out", str(base / "cls")]) == 0

    diffs = []
    checked = 0
    for stage in ("data", "run", "fp", "pca", "sim", "cls"):
        record = json.loads((base / stage / "run.json").read_text())
        # reruns of later stages must read the FIRST run's inputs, so the
        # recorded absolute paths are kept as is
        argv = rebuild_argv(record, str(redo / stage))
        assert cli_main(argv) == 0, stage
        for src in sorted((base / stage).iterdir()):
            if src.name == "run.json":
                continue
            checked += 1
            if (redo / stage / src.name).read_bytes() != src.read_bytes():
                diffs.append(f"{stage}/{src.name}")

    ok = not diffs and checked > 20
    _report(7, "bit-exact CLI reruns", ok,
            f"{checked} artifacts compared, {len(diffs)} mismatches")
    assert not diffs, diffs
    assert checked > 20


def test_criterion_8_fastica_recovery():
    """Amari index < 0.05 for at least 18 of 20 seeded two-source trials."""
    t0 = time.monotonic()
    hits = 0
    indices = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        sources = rng.laplace(size=(3000, 2))
        mixing = rng.uniform(-1.0, 1.0, (2, 2)) + np.eye(2)
        data = sources @ mixing.T
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            red = ica_fit(data, n_components=2, seed=seed)
        idx = amari_index(red.unmixing, mixing)
        indices.append(idx)
        hits += int(idx < 0.05)
    elapsed = time.monotonic() - t0
    ok = hits >= 18
    _report(8, "source recovery", ok,
            f"{hits}/20 trials with Amari < 0.05, median={np.median(indices):.3f}, "
            f"{elapsed:.1f}s")
    assert hits >= 18
