"""Module container tests: traversal, state_dict, train/eval, optimizers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import Dropout, Linear, MLP, Sequential
from repro.tensor import Adam, Module, ModuleList, Parameter, SGD, Tensor, \
    clip_grad_norm


class Net(Module):
    def __init__(self, rng):
        super().__init__()
        self.fc1 = Linear(4, 8, rng)
        self.blocks = ModuleList([Linear(8, 8, rng) for _ in range(2)])
        self.scale = Parameter(np.ones(1))

    def forward(self, x):
        h = self.fc1(x).relu()
        for b in self.blocks:
            h = b(h).relu()
        return h * self.scale


@pytest.fixture()
def net(rng):
    return Net(rng)


class TestModule:
    def test_named_parameters_order_and_count(self, net):
        names = [n for n, _ in net.named_parameters()]
        assert names == ["fc1.weight", "fc1.bias", "blocks.0.weight",
                         "blocks.0.bias", "blocks.1.weight", "blocks.1.bias",
                         "scale"]

    def test_num_parameters(self, net):
        assert net.num_parameters() == 4 * 8 + 8 + 2 * (8 * 8 + 8) + 1

    def test_zero_grad_clears_all(self, net):
        out = net(Tensor(np.ones((2, 4)))).sum()
        out.backward()
        assert any(p.grad is not None for p in net.parameters())
        net.zero_grad()
        assert all(p.grad is None for p in net.parameters())

    def test_state_dict_roundtrip(self, net, rng):
        state = net.state_dict()
        other = Net(np.random.default_rng(99))
        x = Tensor(rng.normal(size=(2, 4)))
        assert not np.allclose(other(x).data, net(x).data)
        other.load_state_dict(state)
        np.testing.assert_allclose(other(x).data, net(x).data)

    def test_state_dict_is_a_copy(self, net):
        state = net.state_dict()
        state["scale"][0] = 123.0
        assert net.scale.data[0] == 1.0

    def test_load_state_dict_missing_key_raises(self, net):
        state = net.state_dict()
        del state["scale"]
        with pytest.raises(KeyError):
            net.load_state_dict(state)

    def test_load_state_dict_shape_mismatch_raises(self, net):
        state = net.state_dict()
        state["scale"] = np.ones(3)
        with pytest.raises(ValueError):
            net.load_state_dict(state)

    def test_train_eval_propagates(self, net):
        net.eval()
        assert not net.training
        assert all(not m.training for _, m in net.named_modules())
        net.train()
        assert all(m.training for _, m in net.named_modules())

    def test_dropout_respects_mode(self, rng):
        d = Dropout(0.5, rng)
        x = Tensor(np.ones((100,)))
        d.training = False
        np.testing.assert_allclose(d(x).data, x.data)
        d.training = True
        out = d(x).data
        assert set(np.round(np.unique(out), 6)) <= {0.0, 2.0}

    def test_modulelist_len_getitem(self, net):
        assert len(net.blocks) == 2
        assert isinstance(net.blocks[0], Linear)


class TestOptimizers:
    def _quadratic_problem(self):
        w = Parameter(np.array([5.0, -3.0]))
        target = np.array([1.0, 2.0])

        def loss():
            diff = w - Tensor(target)
            return (diff * diff).sum()
        return w, target, loss

    def test_sgd_converges(self):
        w, target, loss = self._quadratic_problem()
        opt = SGD([w], lr=0.1)
        for _ in range(100):
            opt.zero_grad()
            loss().backward()
            opt.step()
        np.testing.assert_allclose(w.data, target, atol=1e-6)

    def test_sgd_momentum_converges(self):
        w, target, loss = self._quadratic_problem()
        opt = SGD([w], lr=0.05, momentum=0.9)
        for _ in range(200):
            opt.zero_grad()
            loss().backward()
            opt.step()
        np.testing.assert_allclose(w.data, target, atol=1e-4)

    def test_adam_converges(self):
        w, target, loss = self._quadratic_problem()
        opt = Adam([w], lr=0.2)
        for _ in range(300):
            opt.zero_grad()
            loss().backward()
            opt.step()
        np.testing.assert_allclose(w.data, target, atol=1e-4)

    def test_adam_weight_decay_shrinks_weights(self):
        w1 = Parameter(np.array([2.0]))
        w2 = Parameter(np.array([2.0]))
        opt1 = Adam([w1], lr=0.01, weight_decay=0.0)
        opt2 = Adam([w2], lr=0.01, weight_decay=10.0)
        for _ in range(20):
            for w, opt in ((w1, opt1), (w2, opt2)):
                opt.zero_grad()
                (w * 0.0).sum().backward()
                opt.step()
        assert abs(w2.data[0]) < abs(w1.data[0])

    def test_adam_whole_buffer_step_matches_per_parameter_step(self):
        # With every gradient present Adam steps over its flat buffers; a
        # parameter without one sends it down the per-parameter loop.
        # Both must move the shared parameters identically.
        rng = np.random.default_rng(0)
        shapes = [(3, 4), (5,), (2, 2, 2), ()]
        init = [rng.normal(size=s) for s in shapes]
        grads = [[rng.normal(size=s) for s in shapes] for _ in range(10)]

        def run(idle: bool):
            ps = [Parameter(x.copy()) for x in init]
            extra = [Parameter(np.zeros(2))] if idle else []
            opt = Adam(ps + extra, lr=0.01, weight_decay=0.1)
            for step, gs in enumerate(grads):
                for p, g in zip(ps, gs):
                    p.grad = g
                opt.lr = 0.01 / (step + 1)
                opt.step()
            state = opt.state_dict()
            return ([p.data for p in ps], state["m"][:len(ps)],
                    state["v"][:len(ps)])

        for fused, looped in zip(run(idle=False), run(idle=True)):
            for a, b in zip(fused, looped):
                np.testing.assert_array_equal(a, b)

    def test_optimizer_skips_param_without_grad(self):
        a = Parameter(np.array([1.0]))
        b = Parameter(np.array([1.0]))
        opt = SGD([a, b], lr=0.5)
        (a * 2).sum().backward()
        opt.step()
        assert a.data[0] != 1.0
        assert b.data[0] == 1.0

    def test_empty_optimizer_raises(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_clip_grad_norm(self):
        p = Parameter(np.zeros(4))
        p.grad = np.full(4, 10.0)
        norm = clip_grad_norm([p], max_norm=1.0)
        np.testing.assert_allclose(norm, 20.0)
        np.testing.assert_allclose(np.linalg.norm(p.grad), 1.0)

    def test_clip_grad_norm_no_clip_below_max(self):
        p = Parameter(np.zeros(2))
        p.grad = np.array([0.3, 0.4])
        clip_grad_norm([p], max_norm=1.0)
        np.testing.assert_allclose(p.grad, [0.3, 0.4])


class TestMLPAndSequential:
    def test_mlp_shapes(self, rng):
        mlp = MLP([4, 8, 3], rng)
        out = mlp(Tensor(np.ones((5, 4))))
        assert out.shape == (5, 3)

    def test_mlp_requires_two_widths(self, rng):
        with pytest.raises(ValueError):
            MLP([4], rng)

    def test_mlp_unknown_activation(self, rng):
        with pytest.raises(ValueError):
            MLP([4, 2], rng, activation="swishish")

    def test_sequential_runs_in_order(self, rng):
        seq = Sequential(Linear(4, 6, rng), Linear(6, 2, rng))
        assert seq(Tensor(np.ones((1, 4)))).shape == (1, 2)
