"""Transformer baseline (Section IV-D): encoder-only sequence regression.

The paper's configuration: three encoder layers, four attention heads,
512-channel FFN.  Nodes are treated as an unordered token sequence (no
structural bias — that is Graphormer's addition in DNN-occu); mean-pooled
tokens regress occupancy.
"""

from __future__ import annotations

import numpy as np

from ..features import GraphFeatures, node_feature_dim
from ..nn import LayerNorm, Linear, TransformerEncoderLayer
from ..tensor import Module, ModuleList, Tensor

__all__ = ["TransformerPredictor"]


class TransformerPredictor(Module):
    """3-layer transformer encoder, mean pooling, sigmoid head."""

    def __init__(self, seed: int = 0, dim: int = 128, num_layers: int = 3,
                 num_heads: int = 4, ffn_dim: int = 512,
                 max_nodes: int = 512, node_dim: int | None = None):
        super().__init__()
        rng = np.random.default_rng(seed)
        nd = node_dim if node_dim is not None else node_feature_dim()
        self.max_nodes = max_nodes
        self.embed = Linear(nd, dim, rng)
        self.layers = ModuleList([
            TransformerEncoderLayer(dim, num_heads, ffn_dim, rng)
            for _ in range(num_layers)
        ])
        # Final LN: pre-LN blocks leave an unnormalized residual stream,
        # whose magnitude would saturate the sigmoid head.
        self.final_ln = LayerNorm(dim)
        self.head = Linear(dim, 1, rng)
        self.head.weight.data *= 0.1

    def forward(self, features: GraphFeatures) -> Tensor:
        x = features.node_features
        if x.shape[0] > self.max_nodes:
            idx = np.linspace(0, x.shape[0] - 1, self.max_nodes).astype(int)
            x = x[idx]
        h = self.embed(Tensor(x[None]))    # one sequence: (1, n, dim)
        for layer in self.layers:
            h = layer(h)
        pooled = self.final_ln(h.mean(axis=1))
        return self.head(pooled).sigmoid().reshape(())
