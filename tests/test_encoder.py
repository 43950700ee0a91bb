import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cograca.encoder import (
    ConnectivityGraph,
    EncoderParams,
    _layer_backward,
    _layer_forward,
    build_graph,
    encode_batch,
    encode_batch_vjp,
    encode_graph,
    encode_graph_vjp,
    gat_layer,
)

from conftest import finite_difference, random_connectivity, relative_error


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
        feats = np.stack([g.attributes for g in graphs])
        masks = np.stack([g.neighbor_mask() for g in graphs])
        pooled, nodes, (a1, a2), _ = encode_batch(params, feats, masks)
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
        feats = np.stack([g.attributes for g in graphs])
        masks = np.stack([g.neighbor_mask() for g in graphs])
        _, _, _, caches = encode_batch(params, feats, masks)
        batch_grads = encode_batch_vjp(params, caches, d_pooled)
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
    d_feats = d_z @ w.T
    return d_feats, d_w, d_m


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
    feats = np.stack([g.attributes for g in graphs])
    masks = np.stack([g.neighbor_mask() for g in graphs])
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
    return params, feats, masks, d_pooled


def _close(actual, expected, rel=1e-12):
    scale = max(float(np.abs(expected).max()), 1e-300)
    return float(np.abs(actual - expected).max()) <= rel * scale


class TestKernelOracle:
    @pytest.mark.parametrize("exact_ties", [True, False])
    @pytest.mark.parametrize("seed", range(4))
    def test_layers_match_einsum_kernels(self, seed, exact_ties):
        params, feats, masks, d_pooled = _oracle_case(seed, exact_ties)
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
        params, feats, masks, d_pooled = _oracle_case(seed, exact_ties)
        pooled, nodes, attns, caches = encode_batch(params, feats, masks)
        grads = encode_batch_vjp(params, caches, d_pooled)
        h1, a1, c1 = _einsum_layer_forward(params.w1, params.m1, feats, masks)
        h2, a2, c2 = _einsum_layer_forward(params.w2, params.m2, h1, masks)
        assert _close(pooled, h2.mean(axis=1)) and _close(nodes, h2)
        assert _close(attns[0], a1) and _close(attns[1], a2)
        v = feats.shape[1]
        d_h2 = np.repeat(d_pooled[:, None, :] / v, v, axis=1)
        d_h1, d_w2, d_m2 = _einsum_layer_backward(params.w2, params.m2, c2, d_h2)
        _, d_w1, d_m1 = _einsum_layer_backward(params.w1, params.m1, c1, d_h1)
        ref = {"w1": d_w1, "m1": d_m1, "w2": d_w2, "m2": d_m2}
        for name in ref:
            assert grads[name].shape == ref[name].shape
            assert _close(grads[name], ref[name]), name
        assert np.all(grads["w2"][0] == 0.0)  # fed by the dead layer-1 unit

    def test_inputs_are_never_written(self):
        params, feats, masks, d_pooled = _oracle_case(0, exact_ties=False)
        before = (feats.tobytes(), masks.tobytes(), d_pooled.tobytes())
        _, _, _, caches = encode_batch(params, feats, masks)
        assert (feats.tobytes(), masks.tobytes()) == before[:2]
        cached = [arr.tobytes() for layer in caches for arr in layer]
        encode_batch_vjp(params, caches, d_pooled)
        assert [arr.tobytes() for layer in caches for arr in layer] == cached
        assert (feats.tobytes(), masks.tobytes(), d_pooled.tobytes()) == before

    def test_cache_holds_gates_as_booleans(self):
        params, feats, masks, _ = _oracle_case(1, exact_ties=False)
        _, _, attns, caches = encode_batch(params, feats, masks)
        for attn, (x, z, cached_attn, score_gate, out_gate) in zip(attns, caches):
            assert cached_attn is attn
            assert score_gate.dtype == bool and out_gate.dtype == bool
            assert not score_gate[~masks].any()
