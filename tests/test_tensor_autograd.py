"""Autograd engine tests: every op's gradient against finite differences,
plus structural behaviours (broadcasting, tape, no_grad)."""

from __future__ import annotations

import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tensor import Tensor, no_grad, is_grad_enabled


def numeric_grad(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar-valued ``fn`` w.r.t. ``x``."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = fn(x)
        flat[i] = orig - eps
        lo = fn(x)
        flat[i] = orig
        gf[i] = (hi - lo) / (2 * eps)
    return g


def check_grad(op, x: np.ndarray, atol: float = 1e-6) -> None:
    """Compare autograd gradient of ``sum(op(x))`` to finite differences."""
    t = Tensor(x.copy(), requires_grad=True)
    out = op(t).sum()
    out.backward()
    num = numeric_grad(lambda a: float(op(Tensor(a)).sum().data), x.copy())
    np.testing.assert_allclose(t.grad, num, atol=atol, rtol=1e-4)


RNG = np.random.default_rng(42)


class TestElementwiseGradients:
    def test_add(self):
        check_grad(lambda t: t + 3.0, RNG.normal(size=(3, 4)))

    def test_sub(self):
        check_grad(lambda t: 5.0 - t, RNG.normal(size=(3, 4)))

    def test_mul(self):
        check_grad(lambda t: t * t, RNG.normal(size=(3, 4)))

    def test_div(self):
        check_grad(lambda t: 1.0 / (t * t + 2.0), RNG.normal(size=(3, 4)))

    def test_neg(self):
        check_grad(lambda t: -t, RNG.normal(size=(2, 5)))

    def test_pow(self):
        check_grad(lambda t: t ** 3, RNG.normal(size=(3, 3)))

    def test_exp(self):
        check_grad(lambda t: t.exp(), RNG.normal(size=(3, 4)))

    def test_log(self):
        check_grad(lambda t: t.log(), RNG.uniform(0.5, 2.0, size=(3, 4)))

    def test_tanh(self):
        check_grad(lambda t: t.tanh(), RNG.normal(size=(3, 4)))

    def test_sigmoid(self):
        check_grad(lambda t: t.sigmoid(), RNG.normal(size=(3, 4)))

    def test_sigmoid_extreme_values_stable(self):
        t = Tensor(np.array([-800.0, 800.0]), requires_grad=True)
        out = t.sigmoid()
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data, [0.0, 1.0], atol=1e-12)

    def test_relu(self):
        x = RNG.normal(size=(3, 4))
        x[np.abs(x) < 0.1] += 0.5  # avoid the kink
        check_grad(lambda t: t.relu(), x)

    def test_leaky_relu(self):
        x = RNG.normal(size=(3, 4))
        x[np.abs(x) < 0.1] += 0.5
        check_grad(lambda t: t.leaky_relu(0.2), x)

    def test_sqrt(self):
        check_grad(lambda t: t.sqrt(), RNG.uniform(0.5, 2.0, size=(4,)))

    def test_abs(self):
        x = RNG.normal(size=(3, 4))
        x[np.abs(x) < 0.1] += 0.5
        check_grad(lambda t: t.abs(), x)

    def test_clip(self):
        x = RNG.normal(size=(4, 4)) * 2
        x[np.abs(np.abs(x) - 1.0) < 0.1] *= 1.5  # away from clip edges
        check_grad(lambda t: t.clip(-1.0, 1.0), x)


class TestMatmulGradients:
    def test_matmul_2d(self):
        a = RNG.normal(size=(3, 4))
        b = RNG.normal(size=(4, 5))
        ta = Tensor(a, requires_grad=True)
        tb = Tensor(b, requires_grad=True)
        (ta @ tb).sum().backward()
        np.testing.assert_allclose(ta.grad, np.ones((3, 5)) @ b.T)
        np.testing.assert_allclose(tb.grad, a.T @ np.ones((3, 5)))

    def test_matmul_batched(self):
        a = RNG.normal(size=(2, 3, 4))
        b = RNG.normal(size=(2, 4, 5))
        ta = Tensor(a, requires_grad=True)
        tb = Tensor(b, requires_grad=True)
        (ta @ tb).sum().backward()
        g = np.ones((2, 3, 5))
        np.testing.assert_allclose(ta.grad, g @ np.swapaxes(b, -1, -2))
        np.testing.assert_allclose(tb.grad, np.swapaxes(a, -1, -2) @ g)

    def test_matmul_broadcast_batch(self):
        # (2, 3, 4) @ (4, 5): the rhs broadcasts over the batch dim.
        a = RNG.normal(size=(2, 3, 4))
        b = RNG.normal(size=(4, 5))
        ta = Tensor(a, requires_grad=True)
        tb = Tensor(b, requires_grad=True)
        (ta @ tb).sum().backward()
        assert ta.grad.shape == a.shape
        assert tb.grad.shape == b.shape
        g = np.ones((2, 3, 5))
        np.testing.assert_allclose(tb.grad,
                                   np.einsum("bij,bik->jk", a, g))

    def test_matmul_vector(self):
        a = RNG.normal(size=(3, 4))
        v = RNG.normal(size=(4,))
        ta = Tensor(a, requires_grad=True)
        tv = Tensor(v, requires_grad=True)
        (ta @ tv).sum().backward()
        np.testing.assert_allclose(ta.grad, np.outer(np.ones(3), v))
        np.testing.assert_allclose(tv.grad, a.T @ np.ones(3))


class TestReductionGradients:
    def test_sum_all(self):
        check_grad(lambda t: t.sum(), RNG.normal(size=(3, 4)))

    def test_sum_axis(self):
        check_grad(lambda t: t.sum(axis=0), RNG.normal(size=(3, 4)))
        check_grad(lambda t: t.sum(axis=1, keepdims=True),
                   RNG.normal(size=(3, 4)))

    def test_mean(self):
        check_grad(lambda t: t.mean(), RNG.normal(size=(3, 4)))
        check_grad(lambda t: t.mean(axis=-1), RNG.normal(size=(2, 3, 4)))

    def test_max(self):
        x = RNG.normal(size=(3, 4))
        check_grad(lambda t: t.max(), x)
        check_grad(lambda t: t.max(axis=1), x)

    def test_max_ties_split_gradient(self):
        t = Tensor(np.array([2.0, 2.0, 1.0]), requires_grad=True)
        t.max().backward()
        np.testing.assert_allclose(t.grad, [0.5, 0.5, 0.0])

    def test_var(self):
        check_grad(lambda t: t.var(axis=-1), RNG.normal(size=(3, 5)))


class TestShapeGradients:
    def test_reshape(self):
        check_grad(lambda t: (t.reshape(6, 2) ** 2), RNG.normal(size=(3, 4)))

    def test_transpose(self):
        check_grad(lambda t: t.transpose(1, 0) * 2.0, RNG.normal(size=(3, 4)))
        check_grad(lambda t: t.transpose(2, 0, 1).exp(),
                   RNG.normal(size=(2, 3, 4)))

    def test_swapaxes(self):
        check_grad(lambda t: t.swapaxes(0, 2).tanh(),
                   RNG.normal(size=(2, 3, 4)))

    def test_getitem_rows(self):
        x = RNG.normal(size=(5, 3))
        idx = np.array([0, 2, 2, 4])
        t = Tensor(x, requires_grad=True)
        t[idx].sum().backward()
        expected = np.zeros((5, 3))
        np.add.at(expected, idx, 1.0)
        np.testing.assert_allclose(t.grad, expected)

    def test_getitem_slice(self):
        check_grad(lambda t: t[1:3] * 3.0, RNG.normal(size=(5, 3)))

    def test_concat(self):
        a = RNG.normal(size=(2, 3))
        b = RNG.normal(size=(4, 3))
        ta = Tensor(a, requires_grad=True)
        tb = Tensor(b, requires_grad=True)
        Tensor.concat([ta, tb], axis=0).sum().backward()
        np.testing.assert_allclose(ta.grad, np.ones((2, 3)))
        np.testing.assert_allclose(tb.grad, np.ones((4, 3)))

    def test_stack(self):
        a = RNG.normal(size=(3,))
        ta = Tensor(a, requires_grad=True)
        tb = Tensor(a * 2, requires_grad=True)
        out = Tensor.stack([ta, tb], axis=0)
        assert out.shape == (2, 3)
        (out * 2).sum().backward()
        np.testing.assert_allclose(ta.grad, 2 * np.ones(3))

    def test_scatter_add_forward(self):
        vals = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        out = Tensor.scatter_add(vals, np.array([0, 0, 1]), 2)
        np.testing.assert_allclose(out.data, [[2.0, 4.0], [4.0, 5.0]])

    def test_scatter_add_backward(self):
        vals = Tensor(RNG.normal(size=(3, 2)), requires_grad=True)
        idx = np.array([1, 0, 1])
        out = Tensor.scatter_add(vals, idx, 2)
        (out * Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))).sum().backward()
        np.testing.assert_allclose(
            vals.grad, np.array([[3.0, 4.0], [1.0, 2.0], [3.0, 4.0]]))


class TestSoftmaxGradients:
    def test_softmax_rows_sum_to_one(self):
        t = Tensor(RNG.normal(size=(4, 6)))
        np.testing.assert_allclose(t.softmax(-1).data.sum(axis=-1),
                                   np.ones(4))

    def test_softmax_grad(self):
        x = RNG.normal(size=(3, 5))
        check_grad(lambda t: (t.softmax(-1) ** 2), x)

    def test_log_softmax_grad(self):
        check_grad(lambda t: t.log_softmax(-1) * 0.5,
                   RNG.normal(size=(3, 5)))

    def test_softmax_shift_invariance(self):
        x = RNG.normal(size=(2, 4))
        a = Tensor(x).softmax(-1).data
        b = Tensor(x + 100.0).softmax(-1).data
        np.testing.assert_allclose(a, b, atol=1e-12)


class TestBroadcasting:
    def test_add_broadcast_grad_shapes(self):
        a = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(RNG.normal(size=(4,)), requires_grad=True)
        (a + b).sum().backward()
        assert a.grad.shape == (3, 4)
        assert b.grad.shape == (4,)
        np.testing.assert_allclose(b.grad, 3 * np.ones(4))

    def test_mul_broadcast_column(self):
        a = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(RNG.normal(size=(3, 1)), requires_grad=True)
        (a * b).sum().backward()
        assert b.grad.shape == (3, 1)
        np.testing.assert_allclose(b.grad[:, 0], a.data.sum(axis=1))

    def test_scalar_broadcast(self):
        a = Tensor(RNG.normal(size=(2, 2)), requires_grad=True)
        s = Tensor(2.0, requires_grad=True)
        (a * s).sum().backward()
        np.testing.assert_allclose(float(s.grad), a.data.sum())


class TestTapeMechanics:
    def test_grad_accumulates_across_uses(self):
        t = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        (t * 2 + t * 3).sum().backward()
        np.testing.assert_allclose(t.grad, [5.0, 5.0])

    def test_backward_without_requires_grad_raises(self):
        with pytest.raises(RuntimeError):
            Tensor(np.ones(3)).sum().backward()

    def test_no_grad_blocks_tape(self):
        t = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            assert not is_grad_enabled()
            out = (t * 2).sum()
        assert not out.requires_grad
        assert is_grad_enabled()

    def test_detach(self):
        t = Tensor(np.ones(3), requires_grad=True)
        d = t.detach()
        assert not d.requires_grad
        assert d.data is t.data

    def test_deep_chain_no_recursion_error(self):
        t = Tensor(np.array(1.0), requires_grad=True)
        out = t
        for _ in range(3000):
            out = out * 1.0001
        out.backward()
        assert t.grad is not None

    def test_diamond_graph_gradient(self):
        t = Tensor(np.array(2.0), requires_grad=True)
        a = t * 3
        b = t * 4
        (a * b).backward()  # d/dt (12 t^2) = 24 t = 48
        np.testing.assert_allclose(float(t.grad), 48.0)

    def test_zero_grad(self):
        t = Tensor(np.ones(2), requires_grad=True)
        t.sum().backward()
        t.zero_grad()
        assert t.grad is None


class TestHypothesisProperties:
    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_sum_linearity(self, values):
        x = np.array(values)
        a = Tensor(x, requires_grad=True)
        (a * 2.0 + a * 3.0).sum().backward()
        np.testing.assert_allclose(a.grad, 5.0 * np.ones_like(x))

    @given(st.integers(1, 6), st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_matmul_shape(self, m, n):
        a = Tensor(np.ones((m, 3)))
        b = Tensor(np.ones((3, n)))
        assert (a @ b).shape == (m, n)

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=12))
    @settings(max_examples=50, deadline=None)
    def test_softmax_is_distribution(self, values):
        p = Tensor(np.array(values)).softmax(-1).data
        assert np.all(p >= 0)
        np.testing.assert_allclose(p.sum(), 1.0, atol=1e-9)

    @given(st.lists(st.floats(-5, 5), min_size=1, max_size=10),
           st.lists(st.floats(-5, 5), min_size=1, max_size=10))
    @settings(max_examples=50, deadline=None)
    def test_chain_rule_scalar(self, xs, ys):
        # d/dx sum((x*c)^2) = 2*c^2*x for constant c.
        x = np.array(xs)
        c = float(np.sum(ys)) or 1.0
        t = Tensor(x, requires_grad=True)
        ((t * c) ** 2).sum().backward()
        np.testing.assert_allclose(t.grad, 2 * c * c * x, rtol=1e-9,
                                   atol=1e-9)


def _tape(root: Tensor) -> list:
    """Every grad node reachable from ``root`` through recorded parents:
    op nodes, and the leaf tensors that are their own nodes."""
    seen: dict[int, object] = {}
    stack = [root._grad_node()]
    while stack:
        node = stack.pop()
        if node is not None and id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parents)
    return list(seen.values())


def _tape_arrays(root: Tensor) -> list[np.ndarray]:
    """Every array the tape holds: the leaves' data and the arrays the
    op nodes' backward closures saved."""
    arrays = []
    for node in _tape(root):
        if isinstance(node, Tensor):
            arrays.append(node.data)
        else:
            arrays += [c.cell_contents
                       for c in node._backward.__closure__ or ()
                       if isinstance(c.cell_contents, np.ndarray)]
    return arrays


def _always_copy(self, grad):
    """The copy-on-every-first-arrival rule the engine used to follow."""
    if self.grad is None:
        self.grad = np.array(grad, dtype=np.float64)
    else:
        self.grad += grad


def _add_at(idx, values, shape):
    """``np.add.at`` reference for the bincount scatter."""
    out = np.zeros(shape)
    np.add.at(out, idx, values)
    return out


class TestGradientOwnership:
    """Leaves own their gradient buffers; interior nodes borrow and drop."""

    @staticmethod
    def _small_model():
        from repro.core import DNNOccu, DNNOccuConfig
        return DNNOccu(DNNOccuConfig(hidden=8, num_heads=2,
                                     graphormer_layers=1), seed=3)

    @staticmethod
    def _features(name, device):
        from repro.features import encode_graph
        from repro.models import ModelConfig, build_model
        return encode_graph(build_model(name, ModelConfig(batch_size=8)),
                            device)

    def test_parameter_grads_share_no_memory(self):
        from repro.gpu import A100
        model = self._small_model()
        loss = (model(self._features("resnet-18", A100)) - 0.5) ** 2
        loss.backward()
        params = model.parameters()
        datas = [loss.data] + _tape_arrays(loss)
        for i, p in enumerate(params):
            assert p.grad is not None
            for q in params[i + 1:]:
                assert not np.shares_memory(p.grad, q.grad)
            for d in datas:
                assert not np.shares_memory(p.grad, d)

    def test_clip_scales_fanned_out_gradient_once(self):
        from repro.tensor import clip_grad_norm
        p = Tensor(np.array([3.0, 0.0]), requires_grad=True)
        q = Tensor(np.array([0.0, 4.0]), requires_grad=True)
        seed = np.array([6.0, 8.0])
        (p + q).backward(seed)
        norm = clip_grad_norm([p, q], max_norm=1.0)
        assert norm == pytest.approx(np.sqrt(200.0))
        expected = seed * (1.0 / np.sqrt(200.0))
        np.testing.assert_array_equal(p.grad, expected)
        np.testing.assert_array_equal(q.grad, expected)
        np.testing.assert_array_equal(seed, [6.0, 8.0])

    def test_interior_grads_dropped_leaf_grads_kept(self):
        x = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
        w = Tensor(RNG.normal(size=(4, 2)), requires_grad=True)
        loss = ((x @ w).tanh() + x[np.array([0, 0, 2])].sum()).sum()
        loss.backward()
        for node in _tape(loss):
            if node._backward is None:
                assert node.grad is not None
            else:
                assert node.grad is None
        # A second backward accumulates into the kept leaf buffers.
        gx = x.grad.copy()
        loss.backward()
        np.testing.assert_array_equal(x.grad, 2 * gx)

    def test_index_add_bit_equal_to_add_at(self):
        from repro.tensor.tensor import _index_add
        idx = RNG.integers(0, 7, size=200)
        for values, shape in ((RNG.normal(size=(200, 5)), (7, 5)),
                              (RNG.normal(size=200), (7,)),
                              (RNG.normal(size=(200, 2, 3)), (9, 2, 3))):
            np.testing.assert_array_equal(_index_add(idx, values, shape),
                                          _add_at(idx, values, shape))
        # The Graphormer SPD-bias scatter: a (B, n, n) index, 1-D table.
        spd = RNG.integers(0, 10, size=(3, 6, 6))
        values = RNG.normal(size=(3, 6, 6))
        np.testing.assert_array_equal(_index_add(spd, values, (10,)),
                                      _add_at(spd, values, (10,)))
        with pytest.raises(IndexError):
            _index_add(np.array([0, 7]), np.ones(2), (7,))

    def test_zoo_grads_bit_equal_to_always_copy_engine(self, monkeypatch):
        from repro.gpu import A100, P40, RTX2080TI
        from repro.models import list_models
        import repro.tensor.tensor as tensor_mod
        from repro.tensor.tensor import _Node
        model = self._small_model()
        params = model.parameters()
        for m in list_models():
            for d in (A100, RTX2080TI, P40):
                # One tape, two backwards: the engine's, then the old
                # copy-always rule with add.at scatters.
                loss = (model(self._features(m, d)) - 0.5) ** 2
                model.zero_grad()
                loss.backward()
                ours = [p.grad for p in params]
                model.zero_grad()
                with monkeypatch.context() as patch:
                    patch.setattr(tensor_mod, "_index_add", _add_at)
                    patch.setattr(_Node, "_accumulate", _always_copy)
                    loss.backward()
                for p, g in zip(params, ours):
                    assert np.array_equal(g, p.grad), f"{m} on {d.name}"


class TestTapeKeepsOnlyWhatBackwardReads:
    """A grad node saves the arrays its backward reads and no others, so
    every other intermediate array dies with its tensor."""

    @pytest.mark.parametrize("op", [
        lambda x: x + 1.0, lambda x: -x, lambda x: x.sum(axis=0),
        lambda x: x.mean(axis=1), lambda x: x.reshape(12),
        lambda x: x.transpose(), lambda x: x[np.array([0, 2, 2])],
        lambda x: Tensor.concat([x, x], axis=1),
    ], ids=["add", "neg", "sum", "mean", "reshape", "transpose",
            "getitem", "concat"])
    def test_output_array_dies_with_its_tensor(self, op):
        x = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
        out = op(x)
        ref = weakref.ref(out.data)
        loss = (out * 2.0).sum()
        del out
        assert ref() is None
        loss.backward()
        # The same gradient as a tape whose output stayed alive.
        y = Tensor(x.data, requires_grad=True)
        kept = op(y)
        (kept * 2.0).sum().backward()
        np.testing.assert_array_equal(x.grad, y.grad)

    @pytest.mark.parametrize("op", [lambda h, w: h * w,
                                    lambda h, w: h @ w],
                             ids=["mul", "matmul"])
    def test_input_saved_only_for_the_other_gradient(self, op):
        x = Tensor(RNG.normal(size=(3, 3)), requires_grad=True)
        w_data = RNG.normal(size=(3, 3))
        # A constant w: no gradient reads h, so h dies.
        h = x + 1.0
        ref = weakref.ref(h.data)
        loss = op(h, Tensor(w_data)).sum()
        del h
        assert ref() is None
        # A trainable w: its gradient reads h, so the tape keeps it.
        w = Tensor(w_data, requires_grad=True)
        h = x + 1.0
        h_data = h.data.copy()
        ref = weakref.ref(h.data)
        loss = op(h, w).sum()
        del h
        assert ref() is not None
        loss.backward()
        w_ref = Tensor(w_data, requires_grad=True)
        op(Tensor(h_data), w_ref).sum().backward()
        np.testing.assert_array_equal(w.grad, w_ref.grad)

    def test_one_vit_t_tape_bytes(self):
        """One vit-t graph (347 nodes) through DNN-occu as ``repro
        predict`` builds it (hidden 48, 4 heads) leaves 13.0 MiB on the
        tape, 7.35 MiB of it the two Graphormer layers' attention
        probabilities.  A tape that kept every intermediate array read
        21.1 MiB."""
        import tracemalloc
        from repro.core import DNNOccu, DNNOccuConfig
        from repro.features import encode_graph
        from repro.gpu import P40
        from repro.models import ModelConfig, build_model
        from repro.perf.batching import collate, ensure_spd
        f = encode_graph(build_model("vit-t", ModelConfig()), P40)
        ensure_spd(f)
        batch = collate([f])
        model = DNNOccu(DNNOccuConfig(hidden=48, num_heads=4), seed=1)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            loss = ((model.forward_batch(batch) - 0.5) ** 2).sum()
            tape = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert tape < 16 * 2**20, f"{tape / 2**20:.2f} MiB"
        loss.backward()
