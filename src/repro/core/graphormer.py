"""Graphormer layers: transformer encoding with structural attention bias.

Graphormer (Ying et al. 2021) injects graph structure into full self-
attention through a learnable *spatial encoding*: each attention logit
(i, j) receives a bias indexed by the shortest-path distance between nodes
i and j.  We use undirected SPD capped at :data:`MAX_SPD`, one extra bucket
for unreachable pairs, shared across heads.
"""

from __future__ import annotations

import numpy as np

from ..nn import TransformerEncoderLayer
from ..tensor import Module, Parameter, Tensor

__all__ = ["GraphormerLayer", "spatial_encoding", "MAX_SPD"]

#: shortest-path distances are clipped here; +1 bucket for "unreachable"
MAX_SPD = 8


def spatial_encoding(num_nodes: int, edge_index: np.ndarray) -> np.ndarray:
    """(n, n) int matrix of clipped undirected shortest-path distances.

    Bucket ``MAX_SPD + 1`` marks unreachable pairs.  The self-distance is 0.

    A breadth-first search from every node at once, stopped after
    ``MAX_SPD`` levels.  The frontier is a flat array of ``source * n +
    node`` pairs; a level expands it through the CSR adjacency and keeps
    each pair not reached before, once.  A level costs
    O(frontier * degree), not a dense matrix product.  Pairs the capped
    search never reached are told apart afterwards: bucket ``MAX_SPD``
    when they share a connected component, ``MAX_SPD + 1`` otherwise.
    """
    n = num_nodes
    out = np.full((n, n), MAX_SPD + 1, dtype=np.intp)
    flat = out.reshape(-1)
    flat[::n + 1] = 0
    src, dst = np.asarray(edge_index, dtype=np.intp)
    ends = np.concatenate([src, dst])
    nbr = np.concatenate([dst, src])[np.argsort(ends, kind="stable")]
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(ends, minlength=n), out=indptr[1:])
    degree, row_end = np.diff(indptr), indptr[1:]
    front = np.arange(n) * (n + 1)  # the pairs at distance d - 1
    for d in range(1, MAX_SPD + 1):
        sources, nodes = np.divmod(front, n)
        deg = degree[nodes]
        cum = np.cumsum(deg)
        slot = np.arange(deg.sum()) + np.repeat(row_end[nodes] - cum, deg)
        pairs = np.repeat(sources * n, deg) + nbr[slot]
        pairs = pairs[flat[pairs] > MAX_SPD]
        if pairs.size == 0:
            return out
        # Several frontier nodes can reach one pair: one mark survives.
        mark = np.arange(-1, -pairs.size - 1, -1)
        flat[pairs] = mark
        front = pairs[flat[pairs] == mark]
        flat[front] = d
    root = _component_roots(n, src, dst)
    np.minimum(out, MAX_SPD + (root[:, None] != root[None, :]), out=out)
    return out


def _component_roots(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Smallest node of each node's connected component (edges undirected).

    A vectorized union-find: each round hooks the larger root of every
    edge whose ends disagree onto the smaller one, then pointer-jumps
    until every node points at a root.  A root never hooks onto a larger
    one, so a component's smallest node stays its root.
    """
    root = np.arange(n)
    while True:
        a, b = root[src], root[dst]
        split = a != b
        if not split.any():
            return root
        np.minimum.at(root, np.maximum(a, b)[split], np.minimum(a, b)[split])
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up


class GraphormerLayer(Module):
    """Pre-LN transformer block + learnable SPD bias (Section III-D):

        h̄ = MHA(LN(h)) + h
        h  = FFN(LN(h̄)) + h̄
    """

    def __init__(self, dim: int, num_heads: int, ffn_dim: int,
                 rng: np.random.Generator):
        super().__init__()
        self.block = TransformerEncoderLayer(dim, num_heads, ffn_dim, rng)
        # One learnable bias per SPD bucket (0..MAX_SPD, unreachable).
        self.spd_bias = Parameter(np.zeros(MAX_SPD + 2))

    def forward(self, h: Tensor, spd: np.ndarray,
                key_bias: "np.ndarray | None" = None) -> Tensor:
        """``h``: (B, n, dim) node states; ``spd``: (B, n, n) buckets.

        ``key_bias`` is the (B, 1, n) additive validity mask of a padded
        batch (``-1e30`` on padded key slots), which keeps attention
        block-diagonal: a node can never attend to a padding slot or to
        another graph in the batch.  None when nothing is padded.
        """
        bias = self.spd_bias[spd]  # gather -> (B, n, n) Tensor
        if key_bias is not None:
            bias = bias + key_bias
        return self.block(h, attn_bias=bias)
