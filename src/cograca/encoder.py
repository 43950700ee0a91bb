"""Connectivity-graph construction and a two-layer graph-attention encoder.

Graphs are built from correlation matrices by zeroing anticorrelations; node
attributes are the rows of the thresholded matrix. The encoder applies two
attention layers (ReLU score, masked softmax over the 1-hop neighborhood,
ReLU update) followed by mean pooling. Forward and reverse passes are
written out by hand so gradients are exact and fully deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lanes
from .numerics import glorot

__all__ = [
    "ConnectivityGraph",
    "EncoderParams",
    "GraphEmbedding",
    "build_graph",
    "gat_layer",
    "encode_graph",
    "encode_graph_vjp",
]


def _check_connectivity(mat: np.ndarray, low: float) -> None:
    """The one set of connectivity rules: square and non-empty, finite,
    symmetric to 1e-6, unit diagonal to 1e-6, and every entry in [low, 1]
    to 1e-9. A broken rule raises ValueError naming its first bad entry."""
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.size == 0:
        raise ValueError(f"matrix has shape {mat.shape}, not a non-empty square")
    # a rule's violations are computed only once the rules before it hold
    for message, violations in (
        ("non-finite entry ({p},{q}) = {a}", lambda: ~np.isfinite(mat)),
        ("asymmetric at ({p},{q}): |{a} - {b}| > 1e-6", lambda: np.abs(mat - mat.T) > 1e-6),
        ("diagonal entry ({p},{q}) = {a}, expected 1",
         lambda: np.diag(np.abs(mat.diagonal() - 1.0) > 1e-6)),
        ("entry ({p},{q}) = {a} outside [{low:g}, 1]",
         lambda: (mat < low - 1e-9) | (mat > 1.0 + 1e-9)),
    ):
        bad = violations()
        if bad.any():
            p, q = np.argwhere(bad)[0]
            raise ValueError(message.format(p=p, q=q, a=mat[p, q], b=mat[q, p], low=low))


@dataclass(frozen=True)
class ConnectivityGraph:
    """One visit's brain network: nonnegative adjacency plus node attributes.

    The adjacency obeys the connectivity rules with entries in [0, 1]; its
    unit diagonal makes every node its own neighbor. Attributes are per-node
    feature rows; ``build_graph`` passes the adjacency array itself.
    """

    adjacency: np.ndarray
    attributes: np.ndarray

    def __post_init__(self) -> None:
        adj = np.asarray(self.adjacency, dtype=np.float64)
        att = np.asarray(self.attributes, dtype=np.float64)
        _check_connectivity(adj, low=0.0)
        v = adj.shape[0]
        if att.ndim != 2 or att.shape[0] != v or not np.all(np.isfinite(att)):
            raise ValueError(
                f"attributes must be finite, one row per node; got {att.shape} for {v} nodes"
            )
        object.__setattr__(self, "adjacency", adj)
        object.__setattr__(self, "attributes", att)

    @classmethod
    def _from_checked(cls, adjacency: np.ndarray) -> "ConnectivityGraph":
        """The graph of an adjacency that already obeys the rules, as its own
        attributes, made without checking them again."""
        graph = object.__new__(cls)
        object.__setattr__(graph, "adjacency", adjacency)
        object.__setattr__(graph, "attributes", adjacency)
        return graph

    @property
    def n_nodes(self) -> int:
        return self.adjacency.shape[0]

    def neighbor_mask(self) -> np.ndarray:
        return self.adjacency > 0.0


def build_graph(corr: np.ndarray) -> ConnectivityGraph:
    """Turn a correlation matrix that obeys the connectivity rules (entries
    in [-1, 1]) into a ConnectivityGraph: symmetrise, clip to [0, 1], which
    zeroes the anticorrelations, and set the unit diagonal (the self-loops)
    exactly. The result, made read-only, is both the adjacency and the
    attributes."""
    corr = np.asarray(corr, dtype=np.float64)
    _check_connectivity(corr, low=-1.0)
    adj = np.add(corr, corr.T)
    adj *= 0.5
    np.clip(adj, 0.0, 1.0, out=adj)
    adj += 0.0  # clip keeps a -0.0; the threshold's zeros are all +0.0
    np.fill_diagonal(adj, 1.0)
    adj.flags.writeable = False
    return ConnectivityGraph._from_checked(adj)


@dataclass(frozen=True)
class EncoderParams:
    """Trainable weights: per layer a linear map W and an attention vector m
    of length twice the layer's output dimension (query and key halves)."""

    w1: np.ndarray
    m1: np.ndarray
    w2: np.ndarray
    m2: np.ndarray

    def __post_init__(self) -> None:
        for name, arr in self.as_dict().items():
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"parameter {name} contains non-finite entries")
        h1 = self.w1.shape[1]
        h2 = self.w2.shape[1]
        if self.m1.shape != (2 * h1,):
            raise ValueError(f"m1 must have length {2 * h1}, got {self.m1.shape}")
        if self.w2.shape[0] != h1:
            raise ValueError(
                f"layer dims do not chain: w1 outputs {h1}, w2 expects {self.w2.shape[0]}"
            )
        if self.m2.shape != (2 * h2,):
            raise ValueError(f"m2 must have length {2 * h2}, got {self.m2.shape}")

    @classmethod
    def init(
        cls, d_in: int, hidden: int = 32, out: int = 16, rng: np.random.Generator | None = None
    ) -> "EncoderParams":
        """Glorot-uniform initialization from a seeded generator."""
        if rng is None:
            rng = np.random.default_rng(0)
        return cls(
            w1=glorot(rng, d_in, hidden),
            m1=glorot(rng, 2 * hidden, 1, (2 * hidden,)),
            w2=glorot(rng, hidden, out),
            m2=glorot(rng, 2 * out, 1, (2 * out,)),
        )

    def as_dict(self) -> dict[str, np.ndarray]:
        return {"w1": self.w1, "m1": self.m1, "w2": self.w2, "m2": self.m2}

    @property
    def d_in(self) -> int:
        return self.w1.shape[0]

    @property
    def d_out(self) -> int:
        return self.w2.shape[1]


@dataclass(frozen=True)
class GraphEmbedding:
    """Encoder output for one graph: node embeddings, their mean (the pooled
    graph embedding), and the per-layer attention matrices."""

    nodes: np.ndarray
    pooled: np.ndarray
    attentions: tuple[np.ndarray, ...]


def _layer_forward(w: np.ndarray, m: np.ndarray, feats: np.ndarray, mask: np.ndarray):
    """One attention layer over a batch. feats (N,V,d_in), mask (N,V,V) bool.

    Score e_pq = ReLU(s_p + t_q) with s, t the query/key halves of m applied
    to the transformed features; softmax is restricted to each node's
    neighborhood. Returns (h_out (N,V,d_out), attention (N,V,V), cache).

    The cache is (feats, z, attn, score_gate, out_gate): the layer input,
    its transform z = feats W, the attention, and the two ReLU gates as
    boolean masks (mask & s_p + t_q > 0, and attn z > 0). Neither input is
    written; the scores are built in place in the buffer that becomes attn.
    """
    n, v, d = feats.shape
    h = w.shape[1]
    z = (feats.reshape(n * v, d) @ w).reshape(n, v, h)
    s = z @ m[:h]
    t = z @ m[h:]
    attn = np.add(s[:, :, None], t[:, None, :])
    score_gate = attn > 0.0
    score_gate &= mask
    # ReLU scores are >= 0, so zeroing the non-neighbors leaves each row's
    # neighborhood max in place and exp(.) * mask gives them weight 0
    np.maximum(attn, 0.0, out=attn)
    attn *= mask
    attn -= attn.max(axis=2, keepdims=True)
    np.exp(attn, out=attn)
    attn *= mask
    attn /= attn.sum(axis=2, keepdims=True)
    h_out = attn @ z
    out_gate = h_out > 0.0
    np.maximum(h_out, 0.0, out=h_out)
    return h_out, attn, (feats, z, attn, score_gate, out_gate)


def _layer_backward(w: np.ndarray, m: np.ndarray, cache, d_h_out: np.ndarray):
    """Reverse of _layer_forward. Returns (d_z, d_w, d_m), with d_z
    (N,V,h) the gradient of the transform z = feats W; the layer input's
    gradient is d_z W^T, which the caller forms only where it is used.

    ReLU uses subgradient 0 at 0, matching the forward's max(., 0). Every
    contraction is a BLAS GEMM: batched per graph for the (V,V) attention
    terms, one (N*V)-row product for the weight gradients. The cache and
    d_h_out are read, never written.
    """
    feats, z, attn, score_gate, out_gate = cache
    n, v, d = feats.shape
    h = w.shape[1]
    d_pre = d_h_out * out_gate
    # d_e holds the attention gradient, then in place the score gradient
    d_e = d_pre @ z.transpose(0, 2, 1)
    d_z = attn.transpose(0, 2, 1) @ d_pre
    inner = (attn * d_e).sum(axis=2, keepdims=True)
    d_e -= inner
    d_e *= attn
    d_e *= score_gate
    # the score gradient's row sums (d_s) and column sums (d_t) side by side
    d_st = np.empty((2, n, v))
    d_e.sum(axis=2, out=d_st[0])
    d_e.sum(axis=1, out=d_st[1])
    d_st = d_st.reshape(2, n * v)
    d_z2 = d_z.reshape(n * v, h)
    d_z2 += d_st.T @ m.reshape(2, h)
    d_m = (d_st @ z.reshape(n * v, h)).ravel()
    d_w = feats.reshape(n * v, d).T @ d_z2
    return d_z, d_w, d_m


# One encoder block's (B,V,V) float slab is about this many bytes: B = 13
# visits at 100 ROIs, 227 at 24. Visits are encoded independently, so the
# block bounds the attention buffers and reverse-pass caches any pass holds.
_BLOCK_BYTES = 1 << 20


def _block_slices(n: int, v: int) -> list[slice]:
    """Consecutive visit blocks covering range(n); only the last is short."""
    size = max(1, _BLOCK_BYTES // (8 * v * v))
    return [slice(start, min(start + size, n)) for start in range(0, n, size)]


def _block_forward(params: EncoderParams, graphs, sl: slice):
    """Both layers over graphs[sl], whose attributes and neighbor masks are
    stacked from the graphs' own arrays. Returns (node embeddings, caches)."""
    block = graphs[sl]
    feats = np.stack([g.attributes for g in block])
    masks = np.stack([g.neighbor_mask() for g in block])
    h1, _, c1 = _layer_forward(params.w1, params.m1, feats, masks)
    h2, _, c2 = _layer_forward(params.w2, params.m2, h1, masks)
    return h2, (c1, c2)


def _visit_blocks(params: EncoderParams, graphs) -> list[slice]:
    """The visit blocks of a non-empty batch whose attributes match the
    encoder input."""
    if not len(graphs):
        raise ValueError("no graphs given")
    if graphs[0].attributes.shape[1] != params.d_in:
        raise ValueError(
            f"attribute dimension {graphs[0].attributes.shape[1]} does not match "
            f"encoder input {params.d_in}"
        )
    return _block_slices(len(graphs), graphs[0].n_nodes)


def encode_blocks(params: EncoderParams, graphs):
    """Encode a sequence of graphs sharing a node count, one visit block
    at a time. Yields (slice of graphs, node embeddings (B,V,r), caches)
    per block, in order; each cache is the tuple of arrays `_layer_forward`
    documents, its attention at index 2. No graph array is written."""
    for sl in _visit_blocks(params, graphs):
        yield sl, *_block_forward(params, graphs, sl)


def encode_batch(params: EncoderParams, graphs):
    """Encode a sequence of graphs sharing a node count.

    Returns (pooled (N,r), then for the last visit block only: its node
    embeddings (B,V,r), attentions per layer (B,V,V) and caches for the
    reverse pass). A batch of at most one block's visits is returned whole.

    The blocks run on `lanes.threads`; each block writes its own rows of
    `pooled` with the serial sweep's arithmetic, so the result is the same
    bit for bit for any lane count.
    """
    slices = _visit_blocks(params, graphs)
    pooled = np.empty((len(graphs), params.d_out))

    def run(sl):
        nodes, caches = _block_forward(params, graphs, sl)
        nodes.mean(axis=1, out=pooled[sl])
        return (nodes, caches) if sl is slices[-1] else None

    *_, (nodes, caches) = lanes.threads(run, slices)
    return pooled, nodes, tuple(c[2] for c in caches), caches


def _block_vjp(params: EncoderParams, caches, d_pooled: np.ndarray) -> dict[str, np.ndarray]:
    """The reverse pass of one block, from its caches."""
    c1, c2 = caches
    n, n_nodes = c1[0].shape[:2]
    r = d_pooled.shape[1]
    d_h2 = np.broadcast_to(d_pooled[:, None, :] / n_nodes, (n, n_nodes, r))
    d_z2, d_w2, d_m2 = _layer_backward(params.w2, params.m2, c2, d_h2)
    d_h1 = (d_z2.reshape(n * n_nodes, r) @ params.w2.T).reshape(n, n_nodes, -1)
    _, d_w1, d_m1 = _layer_backward(params.w1, params.m1, c1, d_h1)
    return {"w1": d_w1, "m1": d_m1, "w2": d_w2, "m2": d_m2}


def encode_batch_vjp(
    params: EncoderParams, graphs, caches, d_pooled: np.ndarray
) -> dict[str, np.ndarray]:
    """Gradients of sum_n <d_pooled[n], pooled[n]> with respect to all params.

    `caches` are encode_batch's for the same params and graphs; they serve
    the last block. The other blocks are taken from last to first, each
    forward recomputed just before its reverse pass (gradient
    checkpointing), so besides the kept caches each lane holds one block's.
    The blocks run on `lanes.threads`, and the caller sums their weight
    gradients as they stream in, in that fixed order, the last block's
    first, so the result is the same bit for bit for any lane count;
    holding every block's to the end raised `large-cohort`'s peak RSS by
    about 4 MB. `graphs` must be non-empty, with attributes of the
    encoder's input dimension, and `d_pooled` (len(graphs), d_out); all are
    checked before any block runs.
    """
    *rest, last = _visit_blocks(params, graphs)
    if np.shape(d_pooled) != (len(graphs), params.d_out):
        raise ValueError(
            f"d_pooled has shape {np.shape(d_pooled)}, expected {(len(graphs), params.d_out)}"
        )
    if caches[0][0].shape[0] != last.stop - last.start:
        raise ValueError(
            f"caches hold {caches[0][0].shape[0]} visits, the last block {last.stop - last.start}"
        )

    def run(sl):
        block_caches = caches if sl is last else _block_forward(params, graphs, sl)[1]
        return _block_vjp(params, block_caches, d_pooled[sl])

    blocks = lanes.threads(run, [last, *reversed(rest)])
    grads = next(blocks)
    for block in blocks:
        for name, grad in block.items():
            grads[name] += grad
    return grads


def gat_layer(
    w: np.ndarray, m: np.ndarray, graph: ConnectivityGraph, h_in: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Apply one attention layer to a single graph's node features."""
    h_in = np.asarray(h_in, dtype=np.float64)
    if h_in.ndim != 2 or h_in.shape[0] != graph.n_nodes:
        raise ValueError(
            f"features must be (n_nodes, d_in), got {h_in.shape} for {graph.n_nodes} nodes"
        )
    if h_in.shape[1] != w.shape[0]:
        raise ValueError(f"feature dim {h_in.shape[1]} does not match weight rows {w.shape[0]}")
    h_out, attn, _ = _layer_forward(w, m, h_in[None], graph.neighbor_mask()[None])
    return h_out[0], attn[0]


def encode_graph(params: EncoderParams, graph: ConnectivityGraph) -> GraphEmbedding:
    """Two attention layers then mean pooling, for a single graph."""
    pooled, nodes, attns, _ = encode_batch(params, [graph])
    return GraphEmbedding(
        nodes=nodes[0], pooled=pooled[0], attentions=tuple(a[0] for a in attns)
    )


def encode_graph_vjp(
    params: EncoderParams, graph: ConnectivityGraph, d_pooled: np.ndarray
) -> dict[str, np.ndarray]:
    """Exact reverse-mode gradient of <d_pooled, pooled embedding> with
    respect to every parameter array."""
    d_pooled = np.asarray(d_pooled, dtype=np.float64)
    if d_pooled.shape != (params.d_out,):
        raise ValueError(
            f"upstream gradient must have shape ({params.d_out},), got {d_pooled.shape}"
        )
    _, _, _, caches = encode_batch(params, [graph])
    return encode_batch_vjp(params, [graph], caches, d_pooled[None])
