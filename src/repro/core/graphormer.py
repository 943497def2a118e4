"""Graphormer layers: transformer encoding with structural attention bias.

Graphormer (Ying et al. 2021) injects graph structure into full self-
attention through a learnable *spatial encoding*: each attention logit
(i, j) receives a bias indexed by the shortest-path distance between nodes
i and j.  We use undirected SPD capped at :data:`MAX_SPD`, one extra bucket
for unreachable pairs, shared across heads.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import shortest_path

from ..nn import TransformerEncoderLayer
from ..tensor import Module, Parameter, Tensor

__all__ = ["GraphormerLayer", "spatial_encoding", "MAX_SPD"]

#: shortest-path distances are clipped here; +1 bucket for "unreachable"
MAX_SPD = 8


def spatial_encoding(num_nodes: int, edge_index: np.ndarray) -> np.ndarray:
    """(n, n) int matrix of clipped undirected shortest-path distances.

    Bucket ``MAX_SPD + 1`` marks unreachable pairs.  The self-distance is 0.
    """
    n = num_nodes
    if n == 0:
        return np.zeros((0, 0), dtype=np.intp)
    if edge_index.shape[1] == 0:
        d = np.full((n, n), MAX_SPD + 1, dtype=np.intp)
        np.fill_diagonal(d, 0)
        return d
    src, dst = edge_index
    data = np.ones(len(src))
    adj = sp.coo_matrix((data, (src, dst)), shape=(n, n))
    dist = shortest_path(adj.tocsr(), method="D", directed=False,
                         unweighted=True)
    unreachable = ~np.isfinite(dist)
    dist[unreachable] = 0  # placeholder; bucket assigned below
    out = np.minimum(dist, MAX_SPD).astype(np.intp)
    out[unreachable] = MAX_SPD + 1
    return out


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
