"""Set Transformer decoder (Lee et al. 2019), as specified in Section III-D:

    MAB(X, Y)  = LN(H̄ + FFN(H̄)),  H̄ = LN(X + MHA(X, Y, Y))
    SAB(X)     = MAB(X, X)
    PMA_k(H)   = MAB(S, FFN(H))        with k learnable seeds S
    Decoder(H) = FFN(SAB(PMA_k(H)))

The decoder pools a variable-size node set into ``k`` fixed vectors through
attention — a permutation-invariant, size-invariant readout, which is the
architectural source of DNN-occu's cross-model generalization.
"""

from __future__ import annotations

import numpy as np

from ..nn import FeedForward, LayerNorm, MultiHeadAttention
from ..tensor import Module, ModuleList, Parameter, Tensor, init

__all__ = ["MAB", "SAB", "PMA", "SetTransformerDecoder"]


class MAB(Module):
    """Multihead Attention Block with post-LN residuals."""

    def __init__(self, dim: int, num_heads: int, rng: np.random.Generator):
        super().__init__()
        self.attn = MultiHeadAttention(dim, num_heads, rng)
        self.ffn = FeedForward(dim, dim, rng)
        self.ln1 = LayerNorm(dim)
        self.ln2 = LayerNorm(dim)

    def forward(self, x: Tensor, y: Tensor,
                key_bias: "np.ndarray | None" = None) -> Tensor:
        """``key_bias`` — additive pre-softmax mask on the attention onto
        ``y`` (``(B, 1, n)``, ``-1e30`` on padded slots), so pooling a
        padded batch never reads padding; None when nothing is padded."""
        h = self.ln1(x + self.attn(x, y, attn_bias=key_bias))
        return self.ln2(h + self.ffn(h))


class SAB(Module):
    """Set Attention Block: self-attention MAB."""

    def __init__(self, dim: int, num_heads: int, rng: np.random.Generator):
        super().__init__()
        self.mab = MAB(dim, num_heads, rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.mab(x, x)


class PMA(Module):
    """Pooling by Multihead Attention with ``k`` learnable seed vectors."""

    def __init__(self, dim: int, num_heads: int, k: int,
                 rng: np.random.Generator):
        super().__init__()
        self.seeds = Parameter(init.xavier_uniform((k, dim), rng))
        self.ffn = FeedForward(dim, dim, rng)
        self.mab = MAB(dim, num_heads, rng)

    def forward(self, h: Tensor,
                key_bias: "np.ndarray | None" = None) -> Tensor:
        """Pool ``(B, n, dim)`` node sets into ``(B, k, dim)``."""
        # Broadcast the shared seeds over the batch axis; the
        # broadcast-add routes each member's seed gradient back into the
        # single shared parameter.
        seeds = self.seeds.reshape(1, *self.seeds.shape) \
            + Tensor(np.zeros((h.shape[0], 1, 1)))
        return self.mab(seeds, self.ffn(h), key_bias=key_bias)


class SetTransformerDecoder(Module):
    """PMA_k → SAB × num_sabs → FFN: ``(B, n, dim)`` → ``(B, k, dim)``."""

    def __init__(self, dim: int, num_heads: int, k: int, num_sabs: int,
                 rng: np.random.Generator):
        super().__init__()
        self.pma = PMA(dim, num_heads, k, rng)
        self.sabs = ModuleList([SAB(dim, num_heads, rng)
                                for _ in range(num_sabs)])
        self.out_ffn = FeedForward(dim, dim, rng)

    def forward(self, h: Tensor,
                key_bias: "np.ndarray | None" = None) -> Tensor:
        x = self.pma(h, key_bias=key_bias)
        for sab in self.sabs:
            x = sab(x)
        return self.out_ffn(x)
