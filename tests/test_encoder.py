import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cograca import encoder, lanes
from cograca.data import SyntheticConfig, generate_synthetic
from cograca.encoder import (
    ConnectivityGraph,
    EncoderParams,
    _block_slices,
    _layer_backward,
    _layer_forward,
    build_graph,
    encode_batch,
    encode_batch_vjp,
    encode_graph,
    encode_graph_vjp,
    gat_layer,
)
from cograca.evaluation import interpret_components
from cograca.pipeline import TrainConfig, train_model

from conftest import (
    finite_difference, nothing_left, random_connectivity, relative_error, traced_peak, usable_cpus,
)


class TestBuildGraph:
    def test_negatives_zeroed_positives_kept(self, rng):
        corr = random_connectivity(rng, 8)
        graph = build_graph(corr)
        assert np.all(graph.adjacency >= 0)
        pos = corr > 0
        assert np.array_equal(graph.adjacency[pos], corr[pos])
        assert np.all(graph.adjacency[~pos] == 0)

    def test_attributes_are_thresholded_rows(self, rng):
        corr = random_connectivity(rng, 6)
        graph = build_graph(corr)
        assert graph.attributes is graph.adjacency
        assert not graph.adjacency.flags.writeable
        assert graph.attributes.shape == (6, 6)

    def test_self_loops_present(self, rng):
        graph = build_graph(random_connectivity(rng, 5))
        assert np.allclose(np.diag(graph.adjacency), 1.0)
        assert np.all(np.diag(graph.neighbor_mask()))

    def test_rejects_asymmetric(self):
        corr = np.eye(3)
        corr[0, 1] = 0.5
        with pytest.raises(ValueError, match="symmetric"):
            build_graph(corr)

    def test_rejects_out_of_range(self, rng):
        corr = random_connectivity(rng, 4)
        corr[0, 1] = corr[1, 0] = 1.5
        with pytest.raises(ValueError):
            build_graph(corr)

    def test_rejects_bad_diagonal(self, rng):
        corr = random_connectivity(rng, 4)
        corr[2, 2] = 0.8
        with pytest.raises(ValueError, match="diagonal"):
            build_graph(corr)

    def test_rejects_nonfinite(self, rng):
        corr = random_connectivity(rng, 4)
        corr[0, 1] = corr[1, 0] = np.nan
        with pytest.raises(ValueError):
            build_graph(corr)

    def test_input_not_mutated(self, rng):
        corr = random_connectivity(rng, 5)
        before = corr.copy()
        build_graph(corr)
        assert np.array_equal(corr, before)


class TestEncoderParams:
    def test_shapes(self):
        p = EncoderParams.init(10, hidden=8, out=4, rng=np.random.default_rng(0))
        assert p.w1.shape == (10, 8)
        assert p.m1.shape == (16,)
        assert p.w2.shape == (8, 4)
        assert p.m2.shape == (8,)
        assert (p.d_in, p.d_out) == (10, 4)

    def test_as_dict_keys(self):
        p = EncoderParams.init(5, hidden=4, out=3, rng=np.random.default_rng(0))
        assert set(p.as_dict()) == {"w1", "m1", "w2", "m2"}

    def test_init_is_seeded(self):
        a = EncoderParams.init(6, hidden=4, out=2, rng=np.random.default_rng(42))
        b = EncoderParams.init(6, hidden=4, out=2, rng=np.random.default_rng(42))
        assert np.array_equal(a.w1, b.w1)
        assert np.array_equal(a.m2, b.m2)

    def test_chain_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            EncoderParams(
                w1=rng.standard_normal((5, 4)),
                m1=rng.standard_normal(8),
                w2=rng.standard_normal((3, 2)),  # should have 4 rows
                m2=rng.standard_normal(4),
            )


class TestForward:
    def test_attention_rows_stochastic(self, rng):
        graph = build_graph(random_connectivity(rng, 9))
        params = EncoderParams.init(9, hidden=6, out=4, rng=rng)
        emb = encode_graph(params, graph)
        for attn in emb.attentions:
            assert np.max(np.abs(attn.sum(axis=1) - 1.0)) < 1e-12

    def test_attention_respects_neighborhood(self, rng):
        corr = random_connectivity(rng, 10)
        graph = build_graph(corr)
        params = EncoderParams.init(10, hidden=6, out=4, rng=rng)
        emb = encode_graph(params, graph)
        outside = ~graph.neighbor_mask()
        for attn in emb.attentions:
            assert np.all(attn[outside] == 0.0)
            assert np.all(attn >= 0.0)

    def test_pooled_is_node_mean(self, rng):
        graph = build_graph(random_connectivity(rng, 7))
        params = EncoderParams.init(7, hidden=5, out=3, rng=rng)
        emb = encode_graph(params, graph)
        assert np.allclose(emb.pooled, emb.nodes.mean(axis=0))
        assert np.all(emb.nodes >= 0.0)  # final ReLU

    def test_gat_layer_matches_encode_graph_first_layer(self, rng):
        graph = build_graph(random_connectivity(rng, 6))
        params = EncoderParams.init(6, hidden=5, out=3, rng=rng)
        h1, a1 = gat_layer(params.w1, params.m1, graph, graph.attributes)
        emb = encode_graph(params, graph)
        assert np.allclose(a1, emb.attentions[0])
        h2, a2 = gat_layer(params.w2, params.m2, graph, h1)
        assert np.allclose(h2, emb.nodes)
        assert np.allclose(a2, emb.attentions[1])

    def test_batch_matches_single(self, rng):
        graphs = [build_graph(random_connectivity(rng, 8)) for _ in range(4)]
        params = EncoderParams.init(8, hidden=6, out=5, rng=rng)
        pooled, nodes, (a1, a2), _ = encode_batch(params, graphs)
        for i, g in enumerate(graphs):
            emb = encode_graph(params, g)
            assert np.allclose(pooled[i], emb.pooled)
            assert np.allclose(nodes[i], emb.nodes)
            assert np.allclose(a1[i], emb.attentions[0])
            assert np.allclose(a2[i], emb.attentions[1])

    @given(st.integers(0, 10_000))
    def test_pooled_permutation_invariance(self, seed):
        # Relabeling nodes (conjugating the adjacency, permuting attribute
        # rows) must leave the pooled embedding unchanged and permute the node
        # embeddings and attention accordingly.
        r = np.random.default_rng(seed)
        n = int(r.integers(4, 9))
        corr = random_connectivity(r, n)
        graph = build_graph(corr)
        perm = r.permutation(n)
        graph_p = ConnectivityGraph(
            adjacency=graph.adjacency[np.ix_(perm, perm)],
            attributes=graph.attributes[perm],
        )
        params = EncoderParams.init(n, hidden=6, out=4, rng=np.random.default_rng(7))
        emb = encode_graph(params, graph)
        emb_p = encode_graph(params, graph_p)
        assert np.max(np.abs(emb.pooled - emb_p.pooled)) < 1e-10
        assert np.max(np.abs(emb.nodes[perm] - emb_p.nodes)) < 1e-10
        assert np.max(np.abs(emb.attentions[1][np.ix_(perm, perm)] - emb_p.attentions[1])) < 1e-10

    def test_isolated_neighborhood_attends_to_self(self):
        # A node whose only neighbor is itself must put all attention on itself.
        corr = np.eye(4)
        corr[1, 2] = corr[2, 1] = 0.5
        graph = build_graph(corr)
        params = EncoderParams.init(4, hidden=3, out=2, rng=np.random.default_rng(1))
        emb = encode_graph(params, graph)
        assert emb.attentions[0][0, 0] == pytest.approx(1.0)
        assert emb.attentions[0][3, 3] == pytest.approx(1.0)


class TestVjp:
    def _setup(self, seed, n=6, hidden=5, out=4):
        r = np.random.default_rng(seed)
        graph = build_graph(random_connectivity(r, n))
        params = EncoderParams.init(n, hidden=hidden, out=out, rng=r)
        d_pooled = r.standard_normal(out)
        return graph, params, d_pooled

    @pytest.mark.parametrize("seed", range(6))
    def test_param_gradients_match_finite_differences(self, seed):
        graph, params, d_pooled = self._setup(seed)
        grads = encode_graph_vjp(params, graph, d_pooled)

        for name in ("w1", "m1", "w2", "m2"):
            def scalar(arr, _name=name):
                kwargs = params.as_dict()
                kwargs[_name] = arr
                emb = encode_graph(EncoderParams(**kwargs), graph)
                return float(d_pooled @ emb.pooled)

            fd = finite_difference(scalar, params.as_dict()[name].copy())
            assert relative_error(grads[name], fd) < 1e-4, name

    def test_batch_vjp_sums_over_graphs(self, rng):
        graphs = [build_graph(random_connectivity(rng, 5)) for _ in range(3)]
        params = EncoderParams.init(5, hidden=4, out=3, rng=rng)
        d_pooled = rng.standard_normal((3, 3))
        _, _, _, caches = encode_batch(params, graphs)
        batch_grads = encode_batch_vjp(params, graphs, caches, d_pooled)
        for name in ("w1", "m1", "w2", "m2"):
            total = sum(
                encode_graph_vjp(params, g, d_pooled[i])[name]
                for i, g in enumerate(graphs)
            )
            assert np.allclose(batch_grads[name], total, atol=1e-12)

    def test_dead_hidden_unit_gets_zero_gradient(self, rng):
        # Drive one first-layer unit permanently negative and cut its
        # attention pathway; nothing can flow back into it.
        graph = build_graph(random_connectivity(rng, 6))
        params = EncoderParams.init(6, hidden=5, out=4, rng=rng)
        w1 = params.w1.copy()
        m1 = params.m1.copy()
        dead = 2
        w1[:, dead] = -50.0  # attributes are nonnegative, so z[:, dead] <= 0
        m1[dead] = 0.0
        m1[5 + dead] = 0.0
        params = EncoderParams(w1=w1, m1=m1, w2=params.w2, m2=params.m2)
        emb = encode_graph(params, graph)
        assert np.all(emb.nodes >= 0)
        grads = encode_graph_vjp(params, graph, np.ones(4))
        assert np.all(grads["w2"][dead, :] == 0.0)
        assert np.all(grads["w1"][:, dead] == 0.0)

    def test_zero_cotangent_gives_zero_grads(self, rng):
        graph = build_graph(random_connectivity(rng, 5))
        params = EncoderParams.init(5, hidden=4, out=3, rng=rng)
        grads = encode_graph_vjp(params, graph, np.zeros(3))
        for g in grads.values():
            assert np.all(g == 0.0)

    def test_vjp_linear_in_cotangent(self, rng):
        graph = build_graph(random_connectivity(rng, 5))
        params = EncoderParams.init(5, hidden=4, out=3, rng=rng)
        d1 = rng.standard_normal(3)
        d2 = rng.standard_normal(3)
        g1 = encode_graph_vjp(params, graph, d1)
        g2 = encode_graph_vjp(params, graph, d2)
        g12 = encode_graph_vjp(params, graph, d1 + 2.0 * d2)
        for name in g1:
            assert np.allclose(g12[name], g1[name] + 2.0 * g2[name], atol=1e-10)

    def test_shape_mismatch_rejected(self, rng):
        graph = build_graph(random_connectivity(rng, 5))
        params = EncoderParams.init(5, hidden=4, out=3, rng=rng)
        with pytest.raises(ValueError):
            encode_graph_vjp(params, graph, np.zeros(4))


# ---- oracle: the per-layer kernels as einsum contractions, one temporary
# per intermediate, exactly as they were before the GEMM rewrite

def _einsum_layer_forward(w, m, feats, mask):
    h = w.shape[1]
    z = feats @ w
    s = z @ m[:h]
    t = z @ m[h:]
    e_raw = s[:, :, None] + t[:, None, :]
    scores = np.where(mask, np.maximum(e_raw, 0.0), -np.inf)
    scores = scores - scores.max(axis=2, keepdims=True)
    expd = np.exp(scores)
    attn = expd / expd.sum(axis=2, keepdims=True)
    pre = attn @ z
    h_out = np.maximum(pre, 0.0)
    return h_out, attn, (feats, z, e_raw, attn, pre, mask)


def _einsum_layer_backward(w, m, cache, d_h_out):
    feats, z, e_raw, attn, pre, mask = cache
    h = w.shape[1]
    d_pre = d_h_out * (pre > 0.0)
    d_attn = np.einsum("nvh,nqh->nvq", d_pre, z)
    d_z = np.einsum("nvq,nvh->nqh", attn, d_pre)
    inner = (attn * d_attn).sum(axis=2, keepdims=True)
    d_e = np.where(mask & (e_raw > 0.0), attn * (d_attn - inner), 0.0)
    d_s = d_e.sum(axis=2)
    d_t = d_e.sum(axis=1)
    d_z += d_s[:, :, None] * m[:h] + d_t[:, :, None] * m[h:]
    d_m = np.concatenate(
        [np.einsum("nv,nvh->h", d_s, z), np.einsum("nv,nvh->h", d_t, z)]
    )
    d_w = np.einsum("nvd,nvh->dh", feats, d_z)
    return d_z, d_w, d_m


def _dyadic(x):
    # multiples of 1/8: products and short sums of them are exact, so both
    # kernels see the same scores, ties at exactly 0 included
    return np.round(x * 8.0) / 8.0


def _oracle_case(seed, exact_ties, n=5, v=9, hidden=6, out=4):
    """A batch with sparse neighborhoods, an isolated node (graph 0, node 0)
    and dead hidden units (layer-1 unit 0, layer-2 unit 1). With exact_ties
    every input is dyadic and each m is (a, -a), so every self-score is
    exactly 0 and the first layer's other scores are exact."""
    r = np.random.default_rng(seed)
    graphs = []
    for i in range(n):
        corr = random_connectivity(r, v)
        corr[np.abs(corr) < 0.45] = 0.0
        if exact_ties:
            corr = _dyadic(corr)
        if i == 0:
            corr[0, 1:] = corr[1:, 0] = 0.0
        graphs.append(build_graph(corr))
    p = EncoderParams.init(v, hidden=hidden, out=out, rng=r)
    w1, m1, w2, m2 = (x.copy() for x in (p.w1, p.m1, p.w2, p.m2))
    if exact_ties:
        w1, w2 = _dyadic(2.0 * w1), _dyadic(2.0 * w2)
        m1 = np.concatenate([_dyadic(m1[:hidden]), -_dyadic(m1[:hidden])])
        m2 = np.concatenate([_dyadic(m2[:out]), -_dyadic(m2[:out])])
    w1[:, 0] = -1.0  # attributes are nonnegative: z <= 0, so unit 0 is dead
    w2[:, 1] = -0.5  # layer-1 outputs are nonnegative: likewise
    params = EncoderParams(w1=w1, m1=m1, w2=w2, m2=m2)
    d_pooled = r.standard_normal((n, out))
    return params, graphs, d_pooled


def _stacked(graphs):
    """The whole batch's attributes and neighbor masks, as one stack each."""
    return np.stack([g.attributes for g in graphs]), np.stack([g.neighbor_mask() for g in graphs])


def _close(actual, expected, rel=1e-12):
    scale = max(float(np.abs(expected).max()), 1e-300)
    return float(np.abs(actual - expected).max()) <= rel * scale


def _assert_inputs_never_written(params, graphs, d_pooled):
    def inputs():
        arrays = [*params.as_dict().values(), d_pooled]
        arrays += [a for g in graphs for a in (g.adjacency, g.attributes)]
        return [a.tobytes() for a in arrays]

    before = inputs()
    _, _, _, caches = encode_batch(params, graphs)
    assert inputs() == before
    cached = [arr.tobytes() for layer in caches for arr in layer]
    encode_batch_vjp(params, graphs, caches, d_pooled)
    assert [arr.tobytes() for layer in caches for arr in layer] == cached
    assert inputs() == before


class TestKernelOracle:
    @pytest.mark.parametrize("exact_ties", [True, False])
    @pytest.mark.parametrize("seed", range(4))
    def test_layers_match_einsum_kernels(self, seed, exact_ties):
        params, graphs, d_pooled = _oracle_case(seed, exact_ties)
        feats, masks = _stacked(graphs)
        assert not masks[0, 0, 1:].any()  # the isolated node
        x = feats
        layers = [(params.w1, params.m1, 0), (params.w2, params.m2, 1)]
        for w, m, dead in layers:
            h_out, attn, cache = _layer_forward(w, m, x, masks)
            ref_h, ref_attn, ref_cache = _einsum_layer_forward(w, m, x, masks)
            assert _close(h_out, ref_h) and _close(attn, ref_attn)
            assert np.all(h_out[:, :, dead] == 0.0)
            d_out = np.random.default_rng(seed).standard_normal(h_out.shape)
            got = _layer_backward(w, m, cache, d_out)
            ref = _einsum_layer_backward(w, m, ref_cache, d_out)
            for a, b in zip(got, ref):
                assert _close(a, b)
            x = h_out
        if exact_ties:
            # every self-score is exactly 0: the score gate is shut on the
            # diagonal, and the reference's e_raw agrees
            diag = np.eye(feats.shape[1], dtype=bool)
            assert np.all(ref_cache[2][:, diag] == 0.0)
            assert not cache[3][:, diag].any()

    @pytest.mark.parametrize("exact_ties", [True, False])
    @pytest.mark.parametrize("seed", range(4))
    def test_encoder_gradients_match_einsum_kernels(self, seed, exact_ties):
        params, graphs, d_pooled = _oracle_case(seed, exact_ties)
        feats, masks = _stacked(graphs)
        pooled, nodes, attns, caches = encode_batch(params, graphs)
        grads = encode_batch_vjp(params, graphs, caches, d_pooled)
        h1, a1, c1 = _einsum_layer_forward(params.w1, params.m1, feats, masks)
        h2, a2, c2 = _einsum_layer_forward(params.w2, params.m2, h1, masks)
        assert _close(pooled, h2.mean(axis=1)) and _close(nodes, h2)
        assert _close(attns[0], a1) and _close(attns[1], a2)
        v = feats.shape[1]
        d_h2 = np.repeat(d_pooled[:, None, :] / v, v, axis=1)
        d_z2, d_w2, d_m2 = _einsum_layer_backward(params.w2, params.m2, c2, d_h2)
        _, d_w1, d_m1 = _einsum_layer_backward(params.w1, params.m1, c1, d_z2 @ params.w2.T)
        ref = {"w1": d_w1, "m1": d_m1, "w2": d_w2, "m2": d_m2}
        for name in ref:
            assert grads[name].shape == ref[name].shape
            assert _close(grads[name], ref[name]), name
        assert np.all(grads["w2"][0] == 0.0)  # fed by the dead layer-1 unit

    def test_inputs_are_never_written(self):
        params, graphs, d_pooled = _oracle_case(0, exact_ties=False)
        _assert_inputs_never_written(params, graphs, d_pooled)

    def test_cache_holds_gates_as_booleans(self):
        params, graphs, _ = _oracle_case(1, exact_ties=False)
        _, masks = _stacked(graphs)
        _, _, attns, caches = encode_batch(params, graphs)
        for attn, (x, z, cached_attn, score_gate, out_gate) in zip(attns, caches):
            assert cached_attn is attn
            assert score_gate.dtype == bool and out_gate.dtype == bool
            assert not score_gate[~masks].any()


# ---- visit blocks: at 100 nodes a block is 13 visits, so the 30-visit
# batch below is blocks of 13, 13 and 4, and a 2-epoch training run on the
# 100-ROI cohort spans several blocks too

def _cache_bytes(caches):
    return sum({id(a): a.nbytes for layer in caches for a in layer}.values())


class TestVisitBlocks:
    @pytest.fixture(scope="class")
    def case(self):
        r = np.random.default_rng(11)
        graphs = [build_graph(random_connectivity(r, 100)) for _ in range(30)]
        params = EncoderParams.init(100, hidden=5, out=3, rng=r)
        return params, graphs, r.standard_normal((30, 3))

    @pytest.fixture(scope="class")
    def trained(self):
        cohort = SyntheticConfig(subjects=24, rois=100, d_cog=6, latent_dim=3, seed=3)
        records = generate_synthetic(cohort)[0]
        cfg = TrainConfig(epochs=2, hidden_dim=8, r=6, d_r=4, seed=1)
        return records, cfg, train_model(records, cfg)

    def test_blocks_are_about_one_mebibyte_of_attention(self, case):
        _, graphs, _ = case
        assert [sl.stop - sl.start for sl in _block_slices(len(graphs), 100)] == [13, 13, 4]
        assert _block_slices(300, 24)[0] == slice(0, 227)

    def test_pooled_bit_identical_to_whole_batch_oracle(self, case):
        params, graphs, _ = case
        feats, masks = _stacked(graphs)
        h1, a1, _ = _einsum_layer_forward(params.w1, params.m1, feats, masks)
        h2, a2, _ = _einsum_layer_forward(params.w2, params.m2, h1, masks)
        pooled, nodes, attns, _ = encode_batch(params, graphs)
        assert np.array_equal(pooled, h2.mean(axis=1))
        # the rest describes the last block, visits 26 to 29
        assert np.array_equal(nodes, h2[26:])
        assert np.array_equal(attns[0], a1[26:]) and np.array_equal(attns[1], a2[26:])

    def test_gradients_sum_per_graph_gradients(self, case):
        params, graphs, d_pooled = case
        _, _, _, caches = encode_batch(params, graphs)
        grads = encode_batch_vjp(params, graphs, caches, d_pooled)
        for name in ("w1", "m1", "w2", "m2"):
            total = sum(encode_graph_vjp(params, g, d_pooled[i])[name]
                        for i, g in enumerate(graphs))
            assert _close(grads[name], total), name

    def test_gradients_match_finite_differences(self, case):
        params, graphs, d_pooled = case
        _, _, _, caches = encode_batch(params, graphs)
        grads = encode_batch_vjp(params, graphs, caches, d_pooled)
        # every entry but w1's, of which the first 8 input rows (40 of 500)
        for name, rows in (("w1", 8), ("m1", None), ("w2", None), ("m2", None)):
            def scalar(head, _name=name):
                arr = params.as_dict()[_name].copy()
                arr[:len(head)] = head
                pooled = encode_batch(EncoderParams(**{**params.as_dict(), _name: arr}),
                                      graphs)[0]
                return float((d_pooled * pooled).sum())

            fd = finite_difference(scalar, params.as_dict()[name][:rows].copy())
            assert relative_error(grads[name][:rows], fd) < 1e-4, name

    def test_held_cache_is_at_most_one_block(self, case):
        params, graphs, _ = case
        _, _, _, caches = encode_batch(params, graphs)
        assert caches[0][0].shape[0] == 4
        _, _, _, one_block = encode_batch(params, graphs[:13])
        assert _cache_bytes(caches) <= _cache_bytes(one_block)

    def test_cache_of_another_batch_rejected(self, case):
        params, graphs, d_pooled = case
        _, _, _, caches = encode_batch(params, graphs[:13])
        with pytest.raises(ValueError, match="last block"):
            encode_batch_vjp(params, graphs, caches, d_pooled)

    def test_inputs_are_never_written(self, case):
        _assert_inputs_never_written(*case)

    @pytest.mark.parametrize("rows, cols", [(35, 3), (29, 3), (30, 4)])
    def test_d_pooled_of_another_shape_rejected_before_any_block(self, case, monkeypatch,
                                                                 rows, cols):
        params, graphs, _ = case
        _, _, _, caches = encode_batch(params, graphs)
        monkeypatch.setattr(lanes, "threads", None)  # no block may run
        with pytest.raises(ValueError, match=rf"shape \({rows}, {cols}\), expected \(30, 3\)"):
            encode_batch_vjp(params, graphs, caches, np.ones((rows, cols)))

    def test_empty_graphs_rejected_before_any_block(self, case, monkeypatch):
        params, graphs, _ = case
        _, _, _, caches = encode_batch(params, graphs)
        monkeypatch.setattr(lanes, "threads", None)
        with pytest.raises(ValueError, match="no graphs given"):
            encode_batch_vjp(params, [], caches, np.ones((0, 3)))

    @pytest.mark.parametrize("lanes", [2, 3])
    def test_lanes_give_the_serial_bytes(self, case, monkeypatch, lanes):
        params, graphs, d_pooled = case

        def run(n):
            usable_cpus(monkeypatch, n)
            pooled, nodes, attns, caches = encode_batch(params, graphs)
            grads = encode_batch_vjp(params, graphs, caches, d_pooled)
            return [a.tobytes() for a in (pooled, nodes, *attns, *grads.values())]

        assert run(lanes) == run(1)

    @pytest.mark.parametrize("lanes", [2, 3])
    def test_lanes_train_the_serial_bytes(self, trained, monkeypatch, lanes):
        records, cfg, _ = trained
        usable_cpus(monkeypatch, 1)
        serial = train_model(records, cfg)
        usable_cpus(monkeypatch, lanes)
        model = train_model(records, cfg)
        assert model.solution.r.tobytes() == serial.solution.r.tobytes()
        assert model.loss_trace.tobytes() == serial.loss_trace.tobytes()

    def test_many_lanes_on_one_block_per_visit_under_fast_switching(self, case, monkeypatch):
        # 30 one-visit blocks on 4 lanes, whatever the CPU count, with the
        # interpreter switching threads every microsecond: a block writing
        # rows of `pooled` it does not own shows as other bytes
        params, graphs, d_pooled = case
        monkeypatch.setattr(encoder, "_BLOCK_BYTES", 8 * 100 * 100)

        def run():
            pooled, _, _, caches = encode_batch(params, graphs)
            grads = encode_batch_vjp(params, graphs, caches, d_pooled)
            return [a.tobytes() for a in (pooled, *grads.values())]

        usable_cpus(monkeypatch, 1)
        serial = run()
        usable_cpus(monkeypatch, 4)
        outcomes = []
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            worker = threading.Thread(target=lambda: outcomes.extend(run() for _ in range(5)))
            worker.start()
            worker.join(timeout=120)
        finally:
            sys.setswitchinterval(switch)
        assert not worker.is_alive()
        assert outcomes == [serial] * 5

    def test_one_block_batch_never_touches_the_pool(self, case, monkeypatch):
        params, graphs, d_pooled = case
        # the CPU count is not read, so no pool is opened
        monkeypatch.setattr(os, "sched_getaffinity", None, raising=False)
        _, _, _, caches = encode_batch(params, graphs[:13])
        encode_batch_vjp(params, graphs[:13], caches, d_pooled[:13])

    def test_no_lane_outlives_a_multi_block_training_run(self, trained, monkeypatch):
        records, cfg, _ = trained
        usable_cpus(monkeypatch, 2)
        train_model(records, cfg)
        assert nothing_left()

    @pytest.mark.parametrize("lanes", [1, 2, 3])
    def test_forward_peak_is_one_block_per_lane(self, case, monkeypatch, lanes):
        params, graphs, _ = case
        block = _cache_bytes(encode_batch(params, graphs[:13])[3])
        usable_cpus(monkeypatch, lanes)
        assert traced_peak(encode_batch, params, graphs)[0] <= (lanes + 1) * block

    @pytest.mark.parametrize("lanes", [2, 3])
    def test_reverse_peak_is_one_block_per_lane(self, case, monkeypatch, lanes):
        # a block's reverse pass holds its caches and two (B,V,V) slabs, about
        # 1.6 times the cache bytes, so the serial sweep's peak is one lane's;
        # the 5% covers the blocks' gradient dicts and the threads' bookkeeping
        params, graphs, d_pooled = case
        block = _cache_bytes(encode_batch(params, graphs[:13])[3])
        _, _, _, caches = encode_batch(params, graphs)
        usable_cpus(monkeypatch, 1)
        serial = traced_peak(encode_batch_vjp, params, graphs, caches, d_pooled)[0]
        assert serial <= 2 * block
        usable_cpus(monkeypatch, lanes)
        peak = traced_peak(encode_batch_vjp, params, graphs, caches, d_pooled)[0]
        assert peak <= 1.05 * lanes * serial, peak / serial

    def test_interpretation_mean_attention_is_whole_batch_mean(self, trained):
        records, _, model = trained
        assert len(records) >= 30
        feats, masks = _stacked([rec.graph for rec in records])
        p = model.params
        h1, a1, _ = _einsum_layer_forward(p.w1, p.m1, feats, masks)
        _, a2, _ = _einsum_layer_forward(p.w2, p.m2, h1, masks)
        tables = interpret_components(model, records, [0])
        assert np.array_equal(tables.mean_attention, ((a1 + a2) / 2.0).mean(axis=0))

    def test_training_reruns_byte_identically(self, trained):
        records, cfg, model = trained
        again = train_model(records, cfg)
        for name, arr in model.params.as_dict().items():
            assert arr.tobytes() == again.params.as_dict()[name].tobytes(), name
        assert model.loss_trace.tobytes() == again.loss_trace.tobytes()
        assert model.solution.r.tobytes() == again.solution.r.tobytes()
