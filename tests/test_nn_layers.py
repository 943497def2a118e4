"""Layer tests: Linear, LayerNorm, attention, transformer block, LSTM."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import (FeedForward, LayerNorm, Linear, LSTM, LSTMCell,
                      MultiHeadAttention, TransformerEncoderLayer)
from repro.tensor import Tensor


class TestLinear:
    def test_output_shape(self, rng):
        lin = Linear(7, 3, rng)
        assert lin(Tensor(np.ones((4, 7)))).shape == (4, 3)

    def test_batched_leading_dims(self, rng):
        lin = Linear(7, 3, rng)
        assert lin(Tensor(np.ones((2, 4, 7)))).shape == (2, 4, 3)

    def test_no_bias(self, rng):
        lin = Linear(7, 3, rng, bias=False)
        assert lin.bias is None
        np.testing.assert_allclose(lin(Tensor(np.zeros((1, 7)))).data, 0.0)

    def test_matches_manual_affine(self, rng):
        lin = Linear(3, 2, rng)
        x = rng.normal(size=(5, 3))
        expected = x @ lin.weight.data.T + lin.bias.data
        np.testing.assert_allclose(lin(Tensor(x)).data, expected)

    def test_gradients_flow_to_weight_and_bias(self, rng):
        lin = Linear(3, 2, rng)
        lin(Tensor(np.ones((4, 3)))).sum().backward()
        assert lin.weight.grad is not None
        np.testing.assert_allclose(lin.bias.grad, [4.0, 4.0])


class TestLayerNorm:
    def test_normalizes_last_axis(self, rng):
        ln = LayerNorm(6)
        x = rng.normal(size=(4, 6)) * 5 + 3
        out = ln(Tensor(x)).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-9)
        np.testing.assert_allclose(out.std(axis=-1), 1.0, atol=1e-3)

    def test_affine_params_apply(self, rng):
        ln = LayerNorm(4)
        ln.gamma.data[:] = 2.0
        ln.beta.data[:] = 1.0
        out = ln(Tensor(rng.normal(size=(3, 4)))).data
        np.testing.assert_allclose(out.mean(axis=-1), 1.0, atol=1e-9)

    def test_gradcheck(self, rng):
        ln = LayerNorm(5)
        x = Tensor(rng.normal(size=(2, 5)), requires_grad=True)
        ln(x).sum().backward()
        assert x.grad is not None and np.all(np.isfinite(x.grad))


class TestMultiHeadAttention:
    def test_self_attention_shape(self, rng):
        mha = MultiHeadAttention(8, 2, rng)
        assert mha(Tensor(np.ones((1, 5, 8)))).shape == (1, 5, 8)

    def test_cross_attention_shape(self, rng):
        mha = MultiHeadAttention(8, 2, rng)
        q = Tensor(np.ones((2, 3, 8)))
        kv = Tensor(np.ones((2, 7, 8)))
        assert mha(q, kv).shape == (2, 3, 8)

    def test_dim_not_divisible_raises(self, rng):
        with pytest.raises(ValueError):
            MultiHeadAttention(7, 2, rng)

    def test_attn_bias_changes_output(self, rng):
        mha = MultiHeadAttention(8, 2, rng)
        x = Tensor(rng.normal(size=(1, 4, 8)))
        bias = Tensor(rng.normal(size=(1, 4, 4)) * 3)
        base = mha(x).data
        biased = mha(x, attn_bias=bias).data
        assert not np.allclose(base, biased)

    def test_strong_negative_bias_masks_token(self, rng):
        # A -inf-like bias on one key makes its value irrelevant.
        mha = MultiHeadAttention(8, 2, rng)
        x = rng.normal(size=(1, 3, 8))
        bias = np.zeros((1, 3, 3))
        bias[:, :, 2] = -1e9
        out1 = mha(Tensor(x), attn_bias=Tensor(bias)).data
        x2 = x.copy()
        x2[0, 2] += 100.0  # only reachable through the masked key
        out2 = mha(Tensor(x2), attn_bias=Tensor(bias)).data
        np.testing.assert_allclose(out1[0, :2], out2[0, :2], atol=1e-6)

    def test_gradients_reach_all_projections(self, rng):
        mha = MultiHeadAttention(8, 2, rng)
        mha(Tensor(rng.normal(size=(1, 4, 8)))).sum().backward()
        for p in mha.parameters():
            assert p.grad is not None


class TestTransformerEncoderLayer:
    def test_shape_preserved(self, rng):
        layer = TransformerEncoderLayer(8, 2, 16, rng)
        assert layer(Tensor(np.ones((1, 5, 8)))).shape == (1, 5, 8)

    def test_residual_path_identity_at_zero_weights(self, rng):
        layer = TransformerEncoderLayer(8, 2, 16, rng)
        for p in layer.parameters():
            p.data[:] = 0.0
        x = rng.normal(size=(1, 4, 8))
        np.testing.assert_allclose(layer(Tensor(x)).data, x)

    def test_feedforward(self, rng):
        ffn = FeedForward(6, 12, rng)
        assert ffn(Tensor(np.ones((3, 6)))).shape == (3, 6)


class TestLSTM:
    def test_cell_state_shapes(self, rng):
        cell = LSTMCell(4, 6, rng)
        h, c = cell.init_state(batch=3)
        h2, c2 = cell(Tensor(np.ones((3, 4))), (h, c))
        assert h2.shape == (3, 6) and c2.shape == (3, 6)

    def test_cell_unbatched(self, rng):
        cell = LSTMCell(4, 6, rng)
        h, c = cell.init_state(batch=0)
        h2, _ = cell(Tensor(np.ones(4)), (h, c))
        assert h2.shape == (6,)

    def test_forget_bias_initialized_to_one(self, rng):
        cell = LSTMCell(4, 6, rng)
        np.testing.assert_allclose(cell.bias.data[6:12], 1.0)

    def test_lstm_output_sequence(self, rng):
        lstm = LSTM(4, 6, num_layers=2, rng=rng)
        out, states = lstm(Tensor(np.ones((5, 3, 4))))
        assert out.shape == (5, 3, 6)
        assert len(states) == 2

    def test_lstm_state_is_last_output(self, rng):
        lstm = LSTM(4, 6, num_layers=1, rng=rng)
        out, states = lstm(Tensor(rng.normal(size=(5, 3, 4))))
        np.testing.assert_allclose(out.data[-1], states[0][0].data)

    def test_lstm_gradient_flows_through_time(self, rng):
        lstm = LSTM(3, 4, num_layers=1, rng=rng)
        x = Tensor(rng.normal(size=(6, 2, 3)), requires_grad=True)
        out, _ = lstm(x)
        out[out.shape[0] - 1].sum().backward()
        # Gradient must reach the first timestep (no truncation).
        assert np.any(x.grad[0] != 0.0)

    def test_bounded_activations(self, rng):
        lstm = LSTM(3, 4, num_layers=1, rng=rng)
        out, _ = lstm(Tensor(rng.normal(size=(20, 2, 3)) * 100))
        assert np.all(np.abs(out.data) <= 1.0)  # h = o * tanh(c)
