"""Op table for the autograd engine: every ``Tensor`` method that builds a
tape node through ``_make`` has an entry with sample inputs, and every
sample is gradient-checked against central finite differences.

The samples lean on the degenerate shapes the GNN actually produces:
zero edges, a single node, attention rows fully masked with ``-1e30``,
broadcasting, repeated / negative / boolean gather indices, and one
buffer fanned out to two parents.  Every backward is seeded with a
non-contiguous *view* as the upstream gradient, which must come back
unmodified.
"""

from __future__ import annotations

import inspect
import itertools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import pytest

from repro.tensor import Tensor
from repro.tensor.tensor import _ROW_BLOCK
from tests.test_tensor_autograd import _tape, numeric_grad

RNG = np.random.default_rng(17)

#: additive attention mask value, as ``collate`` builds ``key_bias``
MASKED = -1e30


def _normal(*shape):
    return RNG.normal(size=shape)


def _positive(*shape):
    return RNG.uniform(0.5, 2.0, size=shape)


def _off_kink(x, kinks=(0.0,), gap=0.1):
    """Move entries of ``x`` at least ``gap`` away from every kink."""
    x = x.copy()
    for k in kinks:
        near = np.abs(x - k) < gap
        x[near] = k + np.where(x[near] >= k, gap, -gap) * 2
    return x


@dataclass(frozen=True)
class Sample:
    """``fn(*tensors)`` over ``inputs``; every input requires grad.

    ``wrt`` names the inputs whose gradient is compared to finite
    differences (default: all).  An input left out is one whose forward
    absorbs a perturbation (``x + -1e30 == -1e30``), so finite
    differences read 0 where the analytic gradient does not; its
    gradient must still come back finite.
    """

    label: str
    fn: Callable[..., Tensor]
    inputs: tuple[np.ndarray, ...]
    wrt: tuple[int, ...] | None = None


@dataclass(frozen=True)
class OpInfo:
    """One op: the ``Tensor`` attribute and its sample inputs."""

    name: str
    samples: Callable[[], list[Sample]] = field(repr=False)


def _add():
    return [
        Sample("same shape", lambda a, b: a + b, (_normal(3, 4), _normal(3, 4))),
        Sample("broadcast row", lambda a, b: a + b, (_normal(3, 4), _normal(4))),
        Sample("broadcast column", lambda a, b: a + b,
               (_normal(3, 4), _normal(3, 1))),
        Sample("scalar constant", lambda a: a + 2.5, (_normal(2, 3),)),
        Sample("fan-out x + x", lambda a: a + a, (_normal(3, 4),)),
        Sample("fan-out p + q", lambda p, q: p + q, (_normal(5), _normal(5))),
        # An interior node (t) that gets a second gradient after sharing
        # its first with a sibling (b) must not add into the shared one.
        Sample("fan-out interior (t + b) + t",
               lambda a, b: (lambda t: (t + b) + t)(a * 2.0),
               (_normal(3), _normal(3))),
        Sample("zero edges", lambda a, b: a + b, (_normal(0, 4), _normal(4))),
    ]


def _radd():
    return [Sample("reflected scalar", lambda a: 2.5 + a, (_normal(3, 2),))]


def _neg():
    return [Sample("matrix", lambda a: -a, (_normal(3, 4),)),
            Sample("zero edges", lambda a: -a, (_normal(0, 3),))]


def _mul():
    return [
        Sample("same shape", lambda a, b: a * b, (_normal(3, 4), _normal(3, 4))),
        Sample("broadcast column", lambda a, b: a * b,
               (_normal(3, 4), _normal(3, 1))),
        Sample("0-d times matrix", lambda s, a: s * a,
               (np.array(1.7), _normal(2, 3))),
        Sample("fan-out x * x", lambda a: a * a, (_normal(4),)),
    ]


def _rmul():
    return [Sample("reflected scalar", lambda a: 3.0 * a, (_normal(2, 3),))]


def _truediv():
    return [
        Sample("same shape", lambda a, b: a / b,
               (_normal(3, 4), _positive(3, 4))),
        Sample("broadcast row", lambda a, b: a / b,
               (_normal(3, 4), _positive(4))),
    ]


def _pow():
    return [Sample("cube", lambda a: a ** 3, (_normal(3, 3),)),
            Sample("sqrt", lambda a: a ** 0.5, (_positive(5),))]


def _matmul():
    return [
        Sample("2-D", lambda a, b: a @ b, (_normal(3, 4), _normal(4, 2))),
        Sample("batched", lambda a, b: a @ b,
               (_normal(2, 3, 4), _normal(2, 4, 5))),
        Sample("broadcast batch", lambda a, b: a @ b,
               (_normal(2, 3, 4), _normal(4, 5))),
        Sample("matrix @ vector", lambda a, v: a @ v, (_normal(3, 4), _normal(4))),
        Sample("vector @ matrix", lambda v, a: v @ a, (_normal(3), _normal(3, 4))),
        Sample("single node", lambda a, b: a @ b, (_normal(1, 4), _normal(4, 3))),
        Sample("zero edges", lambda a, b: a @ b, (_normal(0, 4), _normal(4, 3))),
    ]


def _unary(method, make_input):
    def samples():
        return [Sample("matrix", lambda a: getattr(a, method)(),
                       (make_input(3, 4),)),
                Sample("single node", lambda a: getattr(a, method)(),
                       (make_input(1, 4),)),
                Sample("zero edges", lambda a: getattr(a, method)(),
                       (make_input(0, 4),))]
    return samples


def _leaky_relu():
    return [Sample("slope 0.2", lambda a: a.leaky_relu(0.2),
                   (_off_kink(_normal(3, 4)),))]


def _clip():
    return [Sample("both edges", lambda a: a.clip(-1.0, 1.0),
                   (_off_kink(_normal(4, 4) * 2, kinks=(-1.0, 1.0)),))]


def _sum():
    return [
        Sample("all", lambda a: a.sum(), (_normal(3, 4),)),
        Sample("axis 0", lambda a: a.sum(axis=0), (_normal(3, 4),)),
        Sample("negative axis keepdims", lambda a: a.sum(axis=-1, keepdims=True),
               (_normal(2, 3, 4),)),
        Sample("tuple axis", lambda a: a.sum(axis=(0, 2)), (_normal(2, 3, 4),)),
        Sample("zero edges", lambda a: a.sum(axis=0), (_normal(0, 3),)),
    ]


def _max():
    return [Sample("all", lambda a: a.max(), (_normal(3, 4),)),
            Sample("axis 1", lambda a: a.max(axis=1), (_normal(3, 4),)),
            Sample("single node", lambda a: a.max(axis=0, keepdims=True),
                   (_normal(1, 4),))]


def _reshape():
    return [Sample("flatten", lambda a: a.reshape(12), (_normal(3, 4),)),
            Sample("tuple shape", lambda a: a.reshape((2, 6)), (_normal(3, 4),)),
            Sample("0-d", lambda a: a.reshape(()), (_normal(1),))]


def _transpose():
    return [Sample("reverse", lambda a: a.transpose(), (_normal(3, 4),)),
            Sample("permutation", lambda a: a.transpose(2, 0, 1),
                   (_normal(2, 3, 4),))]


def _getitem():
    return [
        Sample("slice", lambda a: a[1:3], (_normal(5, 3),)),
        Sample("repeated rows", lambda a: a[np.array([0, 2, 2, 4, 2])],
               (_normal(5, 3),)),
        Sample("negative rows", lambda a: a[np.array([-1, 0, -1, -5])],
               (_normal(5, 3),)),
        Sample("boolean mask", lambda a: a[np.array([True, False, True, True])],
               (_normal(4, 3),)),
        Sample("2-D index", lambda a: a[np.array([[0, 1], [1, 1]])],
               (_normal(3, 2),)),
        Sample("1-D source", lambda a: a[np.array([3, 3, 0])], (_normal(4),)),
        Sample("tuple index", lambda a: a[np.array([0, 0]), np.array([1, 2])],
               (_normal(2, 3),)),
        Sample("zero edges", lambda a: a[np.zeros(0, dtype=np.intp)],
               (_normal(4, 3),)),
        Sample("single node", lambda a: a[np.array([0, 0, 0])],
               (_normal(1, 3),)),
    ]


def _concat():
    return [
        Sample("rows", lambda a, b: Tensor.concat([a, b], axis=0),
               (_normal(2, 3), _normal(4, 3))),
        Sample("columns", lambda a, b: Tensor.concat([a, b], axis=1),
               (_normal(3, 2), _normal(3, 1))),
        Sample("zero edges", lambda a, b: Tensor.concat([a, b], axis=0),
               (_normal(0, 3), _normal(1, 3))),
        Sample("fan-out [x, x]", lambda a: Tensor.concat([a, a], axis=1),
               (_normal(2, 3),)),
    ]


def _stack():
    return [Sample("axis 0", lambda a, b: Tensor.stack([a, b], axis=0),
                   (_normal(3), _normal(3))),
            Sample("axis 1", lambda a, b: Tensor.stack([a, b], axis=1),
                   (_normal(2, 3), _normal(2, 3)))]


def _scatter_add():
    return [
        Sample("repeated rows",
               lambda v: Tensor.scatter_add(v, np.array([1, 0, 1, 3]), 4),
               (_normal(4, 3),)),
        Sample("1-D values",
               lambda v: Tensor.scatter_add(v, np.array([2, 2, 0]), 3),
               (_normal(3),)),
        Sample("negative rows",
               lambda v: Tensor.scatter_add(v, np.array([-1, 0, -1]), 3),
               (_normal(3, 2),)),
        Sample("zero edges",
               lambda v: Tensor.scatter_add(v, np.zeros(0, dtype=np.intp), 3),
               (_normal(0, 2),)),
        Sample("single node",
               lambda v: Tensor.scatter_add(v, np.array([0, 0]), 1),
               (_normal(2, 2),)),
    ]


def _masked_bias(rows: int, cols: int) -> np.ndarray:
    """Additive mask: row 0 keeps its keys, every other row is fully
    masked (a padding query), and one key column is masked throughout."""
    bias = np.zeros((rows, cols))
    bias[1:] = MASKED
    bias[:, -1] = MASKED
    return bias


def _softmax_family(method):
    def samples():
        bias = _masked_bias(3, 4)
        return [
            Sample("last axis", lambda a: getattr(a, method)(-1),
                   (_normal(3, 5),)),
            Sample("axis 0", lambda a: getattr(a, method)(0), (_normal(3, 5),)),
            Sample("single node", lambda a: getattr(a, method)(-1),
                   (_normal(2, 1),)),
            # Rows that are all -1e30 come out uniform with a finite
            # gradient; ``wrt`` skips ``s`` because ``s + -1e30`` absorbs
            # the finite-difference step.  The clip drops log_softmax's
            # -1e30 outputs, which would swamp the sum the check takes.
            Sample("rows fully masked",
                   lambda s, v: getattr(s + Tensor(bias), method)(-1)
                   .clip(-1e3, 1e3) @ v,
                   (_normal(3, 4), _normal(4, 2)), wrt=(1,)),
        ]
    return samples


def composed_attention(q, k, v, bias=None, scale=1.0):
    """The reference :meth:`Tensor.attention` must match bit for bit: the
    seven tape nodes ``MultiHeadAttention`` built before the fused op."""
    scores = (q @ k.swapaxes(-1, -2)) * scale
    if bias is not None:
        scores = scores + bias
    return scores.softmax(axis=-1) @ v


def _key_mask(b: int, n: int) -> np.ndarray:
    """A decoder-shaped ``(B, 1, 1, n)`` key mask: member 0 has its last
    key padded, every other member is fully masked."""
    mask = np.zeros((b, 1, 1, n))
    mask[0, ..., -1] = MASKED
    mask[1:] = MASKED
    return mask


def _attention():
    b, h, n, d = 2, 2, 4, 3
    mask = _key_mask(b, n)
    return [
        Sample("graphormer tensor bias",
               lambda q, k, v, s: Tensor.attention(q, k, v, s, 0.5),
               (_normal(b, h, n, d), _normal(b, h, n, d),
                _normal(b, h, n, d), _normal(b, 1, n, n))),
        # ``wrt`` skips q and k: member 1's ``q @ kᵀ + -1e30`` absorbs
        # the finite-difference step, as in the softmax samples.
        Sample("decoder mask, one fully masked member",
               lambda q, k, v: Tensor.attention(q, k, v, mask, 0.5),
               (_normal(b, h, n, d), _normal(b, h, n, d),
                _normal(b, h, n, d)), wrt=(2,)),
        Sample("pma n_q != n_kv",
               lambda q, k, v: Tensor.attention(q, k, v, mask[:1], 0.5),
               (_normal(1, h, 2, d), _normal(1, h, n, d),
                _normal(1, h, n, d))),
        Sample("no bias", lambda q, k, v: Tensor.attention(q, k, v),
               (_normal(b, h, n, d), _normal(b, h, n, d),
                _normal(b, h, n, d))),
        # One head: the bias is as large as the scores, so the interior
        # reshape borrows the score gradient itself, which must not be
        # scaled in place afterwards.
        Sample("one head, full-size interior bias",
               lambda q, k, v, s: Tensor.attention(
                   q, k, v, s.reshape(b, 1, n, n), 0.5),
               (_normal(b, 1, n, d), _normal(b, 1, n, d),
                _normal(b, 1, n, d), _normal(b, n, n))),
        Sample("fan-out self-attention", lambda x: Tensor.attention(x, x, x),
               (_normal(1, 1, n, d),)),
        Sample("single node", lambda q, k, v: Tensor.attention(q, k, v),
               (_normal(1, h, 1, d), _normal(1, h, 1, d),
                _normal(1, h, 1, d))),
        # More query rows than one block of the backward's softmax row
        # sums, and a partial last block.
        Sample("query rows span row blocks",
               lambda q, k, v, s: Tensor.attention(q, k, v, s, 0.5),
               (_normal(1, 1, 2 * _ROW_BLOCK + 3, d),
                _normal(1, 1, n, d), _normal(1, 1, n, d),
                _normal(1, 1, 2 * _ROW_BLOCK + 3, n))),
    ]


#: Every ``Tensor`` attribute whose body builds a tape node via ``_make``.
OP_DB: tuple[OpInfo, ...] = (
    OpInfo("__add__", _add),
    OpInfo("__radd__", _radd),
    OpInfo("__neg__", _neg),
    OpInfo("__mul__", _mul),
    OpInfo("__rmul__", _rmul),
    OpInfo("__truediv__", _truediv),
    OpInfo("__pow__", _pow),
    OpInfo("__matmul__", _matmul),
    OpInfo("exp", _unary("exp", _normal)),
    OpInfo("log", _unary("log", _positive)),
    OpInfo("tanh", _unary("tanh", _normal)),
    OpInfo("sigmoid", _unary("sigmoid", _normal)),
    OpInfo("relu", _unary("relu", lambda *s: _off_kink(_normal(*s)))),
    OpInfo("leaky_relu", _leaky_relu),
    OpInfo("abs", _unary("abs", lambda *s: _off_kink(_normal(*s)))),
    OpInfo("clip", _clip),
    OpInfo("sum", _sum),
    OpInfo("max", _max),
    OpInfo("reshape", _reshape),
    OpInfo("transpose", _transpose),
    OpInfo("__getitem__", _getitem),
    OpInfo("concat", _concat),
    OpInfo("stack", _stack),
    OpInfo("scatter_add", _scatter_add),
    OpInfo("softmax", _softmax_family("softmax")),
    OpInfo("log_softmax", _softmax_family("log_softmax")),
    OpInfo("attention", _attention),
)


def _cases():
    for op in OP_DB:
        for sample in op.samples():
            yield pytest.param(sample, id=f"{op.name}-{sample.label}")


def _upstream_view(shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """A non-contiguous view of ``shape`` into a larger random buffer."""
    base = RNG.normal(size=shape + (2,))
    return base, base[..., 1]


def gradcheck(sample: Sample, atol: float = 1e-6) -> None:
    """Backward seeded with a view ``w`` vs finite differences of
    ``sum(fn(x) * w)`` for each input in ``sample.wrt``."""
    ts = [Tensor(x.copy(), requires_grad=True) for x in sample.inputs]
    out = sample.fn(*ts)
    base, w = _upstream_view(out.shape)
    base_before = base.copy()
    out.backward(w)
    np.testing.assert_array_equal(base, base_before,
                                  err_msg="backward wrote to its seed")
    wrt = range(len(ts)) if sample.wrt is None else sample.wrt
    for k, t in enumerate(ts):
        assert t.grad is not None and t.grad.shape == t.shape
        assert np.all(np.isfinite(t.grad))
        if k not in wrt:
            continue

        def loss(x, k=k):
            args = [Tensor(a) for a in sample.inputs]
            args[k] = Tensor(x)
            return float(np.sum(sample.fn(*args).data * w))

        num = numeric_grad(loss, sample.inputs[k].copy())
        np.testing.assert_allclose(t.grad, num, atol=atol, rtol=1e-4,
                                   err_msg=f"input {k}")


@pytest.mark.parametrize("sample", list(_cases()))
def test_gradcheck(sample):
    gradcheck(sample)


def _builds_node(attr) -> bool:
    fn = attr.__func__ if isinstance(attr, staticmethod) else attr
    if not inspect.isfunction(fn):
        return False
    return "._make(" in inspect.getsource(fn)


def test_every_node_building_method_has_an_entry():
    builders = {name for name, attr in vars(Tensor).items()
                if _builds_node(attr)}
    # Guard the detector itself: these two build nodes for sure.
    assert {"__add__", "scatter_add"} <= builders
    missing = builders - {op.name for op in OP_DB}
    assert not missing, f"Tensor ops without an OP_DB entry: {sorted(missing)}"


def test_every_entry_names_a_node_building_method():
    stale = [op.name for op in OP_DB
             if not _builds_node(vars(Tensor).get(op.name))]
    assert not stale, f"OP_DB entries for no _make builder: {stale}"


def test_no_closure_holds_a_tensor():
    """Every op's backward closure saves arrays and shapes, never a
    ``Tensor``, so no output tensor outlives its place in the forward."""
    for op in OP_DB:
        for sample in op.samples():
            out = sample.fn(*[Tensor(x.copy(), requires_grad=True)
                              for x in sample.inputs])
            for node in _tape(out):
                cells = getattr(node._backward, "__closure__", None) or ()
                held = [c.cell_contents for c in cells
                        if isinstance(c.cell_contents, Tensor)]
                assert not held, f"{op.name}: {sample.label}"


def _leaf_grads(fn, inputs, seed):
    """Output and input gradients of ``fn`` on fresh leaves, seeded."""
    ts = [Tensor(x.copy(), requires_grad=True) for x in inputs]
    out = fn(*ts)
    out.backward(seed)
    return out.data, [t.grad for t in ts]


class TestFusedAttentionBitIdentity:
    """``Tensor.attention`` is bit-identical to the composed ops."""

    @pytest.mark.parametrize("sample", _attention(), ids=lambda s: s.label)
    def test_sample_bit_equal_to_composed(self, sample, monkeypatch):
        ts = [Tensor(x) for x in sample.inputs]
        _, seed = _upstream_view(sample.fn(*ts).shape)
        fused = _leaf_grads(sample.fn, sample.inputs, seed)
        monkeypatch.setattr(Tensor, "attention",
                            staticmethod(composed_attention))
        composed = _leaf_grads(sample.fn, sample.inputs, seed)
        assert np.array_equal(fused[0], composed[0])
        for got, want in zip(fused[1], composed[1]):
            assert np.array_equal(got, want)

    def test_zoo_bit_equal_to_composed(self, monkeypatch):
        """Every zoo graph on three devices, alone and in padded
        batches (``-1e30`` masks): the model output, every parameter
        gradient and the q, k, v and bias gradients of every attention
        call match the composed reference bit for bit."""
        from repro.core import DNNOccu, DNNOccuConfig
        from repro.features import encode_graph
        from repro.gpu import A100, P40, RTX2080TI
        from repro.models import ModelConfig, build_model, list_models
        from repro.perf.batching import collate, ensure_spd

        model = DNNOccu(DNNOccuConfig(hidden=8, num_heads=2,
                                      graphormer_layers=1), seed=3)
        params = model.parameters()
        fused = Tensor.attention

        def probed(attention, seen):
            """``attention`` with each Tensor input passed through a node
            that records the gradient reaching it, by call and role."""
            def probe(t, key):
                def backward(g, node):
                    seen[key] = g.copy()
                    node._accumulate(g)
                return Tensor._make(t.data, (t,), backward)

            calls = itertools.count()

            def call(q, k, v, bias=None, scale=1.0):
                n = next(calls)
                if isinstance(bias, Tensor):
                    bias = probe(bias, (n, "bias"))
                return attention(probe(q, (n, "q")), probe(k, (n, "k")),
                                 probe(v, (n, "v")), bias, scale)
            return call

        def run(batch, attention):
            seen = {}
            with monkeypatch.context() as patch:
                patch.setattr(Tensor, "attention",
                              staticmethod(probed(attention, seen)))
                model.zero_grad()
                out = model.forward_batch(batch)
                ((out - 0.5) ** 2).sum().backward()
            return [out.data] + [p.grad for p in params] \
                + [seen[key] for key in sorted(seen)]

        def batches():
            for device in (A100, RTX2080TI, P40):
                feats = {m: encode_graph(
                    build_model(m, ModelConfig(batch_size=8)), device)
                    for m in list_models()}
                for f in feats.values():
                    ensure_spd(f)
                for f in feats.values():
                    yield collate([f])
                # Each other graph beside lenet, the one 14-node zoo
                # graph: every pair is padded, with -1e30 key masks.
                for m, f in feats.items():
                    if m != "lenet":
                        yield collate([feats["lenet"], f])

        checked = padded = 0
        for batch in batches():
            got, want = run(batch, fused), run(batch, composed_attention)
            # Graphormer, PMA and two SABs: 4 * (q, k, v) + one bias
            assert len(got) == 1 + len(params) + 13
            assert len(got) == len(want)
            for g, ref in zip(got, want):
                assert np.array_equal(g, ref)
            checked += 1
            padded += batch.num_graphs * batch.n_max != batch.total_nodes
        assert (checked, padded) == (3 * 49, 3 * 24)
