"""Multi-head attention and transformer encoder blocks.

These are the building blocks for three separate consumers:

* the Graphormer layers inside DNN-occu (pre-LN residual blocks);
* the Set Transformer decoder (MAB / SAB / PMA, via cross-attention);
* the Transformer baseline predictor from Section IV-D.
"""

from __future__ import annotations

import numpy as np

from ..tensor import Module, Tensor
from .layers import LayerNorm, Linear

__all__ = ["MultiHeadAttention", "FeedForward", "TransformerEncoderLayer"]


class MultiHeadAttention(Module):
    """Scaled dot-product attention with ``num_heads`` heads.

    Supports self-attention (``forward(x)``) and cross-attention
    (``forward(q, kv)``) on batches of sets shaped ``(B, n, dim)``.
    Scores, bias, softmax and the value matmul are one
    :meth:`Tensor.attention` node.
    """

    def __init__(self, dim: int, num_heads: int, rng: np.random.Generator):
        super().__init__()
        if dim % num_heads != 0:
            raise ValueError(f"dim {dim} not divisible by num_heads {num_heads}")
        self.dim = dim
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        # Softmax temperature 1/sqrt(head_dim), passed to Tensor.attention.
        self.scale = 1.0 / np.sqrt(self.head_dim)
        self.w_q = Linear(dim, dim, rng)
        self.w_k = Linear(dim, dim, rng)
        self.w_v = Linear(dim, dim, rng)
        self.w_o = Linear(dim, dim, rng)

    def forward(self, query: Tensor, key_value: Tensor | None = None,
                attn_bias: "Tensor | np.ndarray | None" = None) -> Tensor:
        """Attend ``query`` over ``key_value`` (defaults to self-attention).

        Inputs are batches of sets ``(B, n, dim)``; every attention
        matrix is computed per batch element, so sets never attend
        across the batch axis.  A single set is a batch of one.

        ``attn_bias`` — optional additive bias applied to every head's
        pre-softmax scores, a Tensor or an ndarray shaped
        ``(B, n_q, n_kv)`` or ``(B, 1, n_kv)`` (a pure key mask,
        broadcast over queries).  Graphormer passes a Tensor: its
        structural (shortest-path) encodings plus the ``-1e30`` validity
        mask that zeroes attention onto padded node slots.  The Set
        Transformer decoder passes that mask alone, as an ndarray.
        """
        kv = query if key_value is None else key_value
        b, n_q, _ = query.shape
        n_kv = kv.shape[1]
        h, d = self.num_heads, self.head_dim

        # (B, n, dim) -> (B, heads, n, head_dim)
        q = self.w_q(query).reshape(b, n_q, h, d).transpose(0, 2, 1, 3)
        k = self.w_k(kv).reshape(b, n_kv, h, d).transpose(0, 2, 1, 3)
        v = self.w_v(kv).reshape(b, n_kv, h, d).transpose(0, 2, 1, 3)
        if attn_bias is not None:
            # (B, n_q|1, n_kv) -> (B, 1, n_q|1, n_kv): broadcast over
            # heads (and over queries for pure key masks).
            attn_bias = attn_bias.reshape(b, 1, attn_bias.shape[1], n_kv)
        out = Tensor.attention(q, k, v, attn_bias, self.scale)
        out = out.transpose(0, 2, 1, 3).reshape(b, n_q, self.dim)
        return self.w_o(out)


class FeedForward(Module):
    """Position-wise two-layer FFN with ReLU."""

    def __init__(self, dim: int, hidden_dim: int, rng: np.random.Generator):
        super().__init__()
        self.fc1 = Linear(dim, hidden_dim, rng)
        self.fc2 = Linear(hidden_dim, dim, rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.fc2(self.fc1(x).relu())


class TransformerEncoderLayer(Module):
    """Pre-LN transformer encoder block (the Graphormer formulation):

        h' = MHA(LN(h)) + h
        h  = FFN(LN(h')) + h'
    """

    def __init__(self, dim: int, num_heads: int, ffn_dim: int,
                 rng: np.random.Generator):
        super().__init__()
        self.ln1 = LayerNorm(dim)
        self.attn = MultiHeadAttention(dim, num_heads, rng)
        self.ln2 = LayerNorm(dim)
        self.ffn = FeedForward(dim, ffn_dim, rng)

    def forward(self, x: Tensor, attn_bias: Tensor | None = None) -> Tensor:
        x = self.attn(self.ln1(x), attn_bias=attn_bias) + x
        x = self.ffn(self.ln2(x)) + x
        return x
