"""One numeric forward: a member's answer does not depend on its batch.

``DNNOccu.forward_batch`` is the only numeric body; ``forward`` and
``predict`` run it on a batch of one.  What remains to pin is batch
composition: every member's answer alone must match its answer inside

* an equal-size batch (no padding: the pack->pad gather and key mask
  are skipped);
* a mixed-size batch (padded under the ``-1e30`` key mask);
* a batch with an edgeless mate (the ``edgeless_mask`` substitution);

on the eager forward and on traced replay, and for gradients.  The
padding branch itself must change no numbers: on an equal-size batch
the padded code is bit-equal to the unpadded code.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import DNNOccu, DNNOccuConfig
from repro.features import GraphFeatures, encode_graph
from repro.gpu import A100
from repro.models import ModelConfig, build_model
from repro.perf.batching import GraphBatch, collate
from repro.tensor import Tensor, no_grad

MEMBERS = ("lenet", "rnn", "resnet-18", "bert")

TOL = 1e-6


def _model() -> DNNOccu:
    return DNNOccu(DNNOccuConfig(hidden=32, num_heads=4), seed=7)


def _encode(name: str, batch_size: int = 16) -> GraphFeatures:
    return encode_graph(build_model(name, ModelConfig(batch_size=batch_size)),
                        A100)


def _edgeless(like: GraphFeatures, n: int = 5) -> GraphFeatures:
    """A graph with ``n`` nodes and no edges, feature widths of ``like``."""
    return GraphFeatures(
        node_features=like.node_features[:n].copy(),
        edge_features=np.zeros((0, like.edge_features.shape[1])),
        edge_index=np.zeros((2, 0), dtype=np.intp),
        model_name="edgeless", device_name=like.device_name)


def _batches(name: str) -> dict:
    """The member first, then its mates, for each batch composition."""
    member = _encode(name)
    same = [f for f in (_encode(name, 4), _encode(name, 64))
            if f.num_nodes == member.num_nodes]
    assert same, f"{name}: no equal-size mate"
    mixed = [_encode("alexnet"), _encode("lstm"), _encode("vgg-11")]
    return {"equal": [member, *same],
            "mixed": [member, *mixed],
            "edgeless": [member, _edgeless(member)]}


class _ForcedPad(GraphBatch):
    """A batch that reports padding, forcing the pack->pad code path."""

    @property
    def total_nodes(self) -> int:
        return -1


@pytest.fixture(scope="module")
def model():
    return _model()


class TestBatchComposition:
    @pytest.mark.parametrize("name", MEMBERS)
    @pytest.mark.parametrize("traced", (False, True),
                             ids=("eager", "traced"))
    def test_members_answer_as_if_alone(self, model, name, traced):
        for kind, feats in _batches(name).items():
            batch = collate(feats)
            padded = batch.num_graphs * batch.n_max != batch.total_nodes
            assert padded == (kind != "equal"), kind
            alone = np.array([model.predict(f) for f in feats])
            got = model.predict_batch(feats, traced=traced)
            assert np.abs(got - alone).max() <= TOL, (kind, got, alone)

    def test_member_gradient_independent_of_mates(self, model):
        feats = _batches("rnn")["mixed"]
        model.zero_grad()
        model.forward(feats[0]).backward()
        alone = [p.grad.copy() for p in model.parameters()]

        model.zero_grad()
        onehot = np.zeros(len(feats))
        onehot[0] = 1.0
        (model.forward_batch(collate(feats)) * Tensor(onehot)).sum() \
            .backward()
        for p, g in zip(model.parameters(), alone):
            np.testing.assert_allclose(p.grad, g, atol=TOL, rtol=0)
        model.zero_grad()

    @pytest.mark.parametrize("name", MEMBERS)
    def test_padded_code_bit_equal_on_equal_size_batch(self, model, name):
        batch = collate(_batches(name)["equal"])
        assert batch.num_graphs * batch.n_max == batch.total_nodes
        forced = _ForcedPad(**vars(batch))
        with no_grad():
            unpadded = np.asarray(model.forward_batch(batch).data)
            padded = np.asarray(model.forward_batch(forced).data)
        np.testing.assert_array_equal(padded, unpadded)
