"""Numerical consistency checks across the neural stack."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import LayerNorm, Linear, MultiHeadAttention
from repro.tensor import Tensor


class TestAttentionNumerics:
    def test_matches_manual_single_head(self, rng):
        """One-head attention equals the hand-computed softmax(QK^T/√d)V."""
        mha = MultiHeadAttention(4, 1, rng)
        x = rng.normal(size=(3, 4))
        out = mha(Tensor(x[None])).data[0]

        q = x @ mha.w_q.weight.data.T + mha.w_q.bias.data
        k = x @ mha.w_k.weight.data.T + mha.w_k.bias.data
        v = x @ mha.w_v.weight.data.T + mha.w_v.bias.data
        scores = q @ k.T / np.sqrt(4)
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        w = e / e.sum(axis=-1, keepdims=True)
        manual = (w @ v) @ mha.w_o.weight.data.T + mha.w_o.bias.data
        np.testing.assert_allclose(out, manual, atol=1e-10)

    def test_heads_partition_dim(self, rng):
        """2-head output differs from 1-head (heads are not a no-op)."""
        x = rng.normal(size=(1, 3, 8))
        one = MultiHeadAttention(8, 1, rng)
        two = MultiHeadAttention(8, 2, rng)
        two.load_state_dict(one.state_dict())
        assert not np.allclose(one(Tensor(x)).data, two(Tensor(x)).data)

    def test_uniform_attention_on_identical_tokens(self, rng):
        """Identical tokens attend uniformly: output rows are identical."""
        mha = MultiHeadAttention(8, 2, rng)
        x = np.tile(rng.normal(size=(1, 1, 8)), (1, 5, 1))
        out = mha(Tensor(x)).data[0]
        np.testing.assert_allclose(out, np.tile(out[:1], (5, 1)),
                                   atol=1e-10)


class TestSoftmaxConsistency:
    def test_log_softmax_is_log_of_softmax(self, rng):
        x = Tensor(rng.normal(size=(4, 7)) * 3)
        np.testing.assert_allclose(x.log_softmax(-1).data,
                                   np.log(x.softmax(-1).data), atol=1e-12)

    def test_softmax_gradients_agree(self, rng):
        """d/dx sum(softmax(x) * c) via both formulations."""
        x = rng.normal(size=(3, 5))
        c = rng.normal(size=(3, 5))
        t1 = Tensor(x.copy(), requires_grad=True)
        (t1.softmax(-1) * Tensor(c)).sum().backward()
        t2 = Tensor(x.copy(), requires_grad=True)
        (t2.log_softmax(-1).exp() * Tensor(c)).sum().backward()
        np.testing.assert_allclose(t1.grad, t2.grad, atol=1e-9)


class TestLayerNormNumerics:
    def test_matches_manual(self, rng):
        ln = LayerNorm(6)
        ln.gamma.data[:] = rng.normal(size=6)
        ln.beta.data[:] = rng.normal(size=6)
        x = rng.normal(size=(4, 6))
        mu = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        manual = (x - mu) / np.sqrt(var + ln.eps) * ln.gamma.data \
            + ln.beta.data
        np.testing.assert_allclose(ln(Tensor(x)).data, manual, atol=1e-12)

    def test_scale_invariance_of_direction(self, rng):
        """LayerNorm(a*x) ~= LayerNorm(x) for positive scalar a (up to
        the eps regularizer)."""
        ln = LayerNorm(6)
        x = rng.normal(size=(3, 6))
        np.testing.assert_allclose(ln(Tensor(x)).data,
                                   ln(Tensor(5.0 * x)).data, atol=1e-4)


class TestLinearNumerics:
    def test_composition_associative(self, rng):
        """(W2 W1) x == W2 (W1 x) for bias-free layers."""
        l1 = Linear(4, 5, rng, bias=False)
        l2 = Linear(5, 3, rng, bias=False)
        x = rng.normal(size=(7, 4))
        combined = x @ (l2.weight.data @ l1.weight.data).T
        np.testing.assert_allclose(l2(l1(Tensor(x))).data, combined,
                                   atol=1e-10)
