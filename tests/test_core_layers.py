"""Core-layer tests: ANEE, Graphormer (SPD), Set Transformer decoder."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (ANEELayer, GraphormerLayer, MAB, MAX_SPD, PMA, SAB,
                        SetTransformerDecoder, spatial_encoding)
from repro.data import SEEN_MODELS
from repro.data.dataset import sample_config
from repro.features import encode_graph
from repro.gpu import P40
from repro.models import build_model
from repro.tensor import Tensor


@pytest.fixture()
def chain_edges():
    # 0 -> 1 -> 2 -> 3
    return np.array([[0, 1, 2], [1, 2, 3]], dtype=np.intp)


class TestANEE:
    def test_output_shapes(self, rng, chain_edges):
        layer = ANEELayer(node_in=6, edge_in=3, hidden=8, rng=rng)
        h = Tensor(rng.normal(size=(4, 6)))
        e = Tensor(rng.normal(size=(3, 3)))
        h2, e2 = layer(h, e, chain_edges)
        assert h2.shape == (4, 8)
        assert e2.shape == (3, 8)

    def test_edge_states_bounded_by_sigmoid(self, rng, chain_edges):
        layer = ANEELayer(6, 3, 8, rng)
        _, e2 = layer(Tensor(rng.normal(size=(4, 6)) * 5),
                      Tensor(rng.normal(size=(3, 3)) * 5), chain_edges)
        assert np.all((e2.data > 0) & (e2.data < 1))

    def test_messages_follow_edges(self, rng):
        # Node 3 has no incoming edges -> aggregation is exactly zero.
        layer = ANEELayer(4, 2, 8, rng)
        edges = np.array([[0, 1], [1, 2]], dtype=np.intp)
        h = Tensor(rng.normal(size=(4, 4)))
        e = Tensor(rng.normal(size=(2, 2)))
        h2, _ = layer(h, e, edges)
        np.testing.assert_allclose(h2.data[3], 0.0)
        assert np.any(h2.data[1] != 0.0)

    def test_empty_edges_handled(self, rng):
        layer = ANEELayer(4, 2, 8, rng)
        h = Tensor(rng.normal(size=(3, 4)))
        e = Tensor(np.zeros((0, 2)))
        h2, e2 = layer(h, e, np.zeros((2, 0), dtype=np.intp))
        assert h2.shape == (3, 8)
        assert e2.shape == (0, 2)

    def test_gradients_reach_all_weights(self, rng, chain_edges):
        layer = ANEELayer(6, 3, 8, rng)
        h = Tensor(rng.normal(size=(4, 6)))
        e = Tensor(rng.normal(size=(3, 3)))
        h2, e2 = layer(h, e, chain_edges)
        (h2.sum() + e2.sum()).backward()
        for p in layer.parameters():
            assert p.grad is not None


class TestSpatialEncoding:
    def test_chain_distances(self, chain_edges):
        spd = spatial_encoding(4, chain_edges)
        assert spd[0, 1] == 1 and spd[0, 2] == 2 and spd[0, 3] == 3
        # Undirected: symmetric.
        np.testing.assert_array_equal(spd, spd.T)
        assert np.all(np.diag(spd) == 0)

    def test_distance_clipped(self):
        n = 20
        edges = np.array([list(range(n - 1)), list(range(1, n))],
                         dtype=np.intp)
        spd = spatial_encoding(n, edges)
        assert spd.max() == MAX_SPD

    def test_unreachable_bucket(self):
        # Two disconnected components.
        edges = np.array([[0], [1]], dtype=np.intp)
        spd = spatial_encoding(4, edges)
        assert spd[0, 2] == MAX_SPD + 1

    def test_no_edges(self):
        spd = spatial_encoding(3, np.zeros((2, 0), dtype=np.intp))
        assert np.all(np.diag(spd) == 0)
        assert spd[0, 1] == MAX_SPD + 1

    def test_empty_graph(self):
        assert spatial_encoding(0, np.zeros((2, 0), dtype=np.intp)).shape \
            == (0, 0)


def _scipy_spd(n: int, edge_index: np.ndarray) -> np.ndarray:
    """Reference SPD buckets: scipy's all-pairs shortest paths, clipped."""
    import scipy.sparse as sp
    from scipy.sparse.csgraph import shortest_path

    out = np.full((n, n), MAX_SPD + 1, dtype=np.intp)
    if n == 0:
        return out
    src, dst = edge_index
    adj = sp.coo_matrix((np.ones(len(src)), (src, dst)), shape=(n, n))
    dist = shortest_path(adj.tocsr(), method="D", directed=False,
                         unweighted=True)
    reachable = np.isfinite(dist)
    out[reachable] = np.minimum(dist[reachable], MAX_SPD)
    return out


@st.composite
def _graphs(draw):
    """Random undirected multigraphs: isolated nodes, several components,
    duplicate and reversed edges, and chains longer than ``MAX_SPD``."""
    n = draw(st.integers(1, 40))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)), max_size=2 * n))
    if draw(st.booleans()):  # a chain through a random subset of nodes
        order = draw(st.permutations(range(n)))
        length = draw(st.integers(1, n))
        pairs += list(zip(order[:length - 1], order[1:length]))
    if pairs and draw(st.booleans()):  # repeat some edges, some reversed
        picked = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs)))
        pairs += [(b, a) if i % 2 else (a, b)
                  for i, (a, b) in enumerate(picked)]
    edge_index = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    return n, edge_index


class TestSpatialEncodingMatchesScipy:
    """The capped BFS equals scipy's all-pairs shortest paths, bit for bit."""

    @staticmethod
    def _check(n, edge_index):
        got = spatial_encoding(n, edge_index)
        assert got.dtype == np.intp
        np.testing.assert_array_equal(got, _scipy_spd(n, edge_index))

    @given(_graphs())
    @settings(max_examples=300, deadline=None)
    def test_random_graphs(self, graph):
        self._check(*graph)

    @pytest.mark.parametrize("n, pairs", [
        (1, []),
        (1, [(0, 0)]),
        (6, []),
        (6, [(0, 1), (1, 0), (0, 1), (3, 4)]),
        (MAX_SPD + 6, [(i, i + 1) for i in range(MAX_SPD + 3)]
         + [(MAX_SPD + 5, MAX_SPD + 4)]),
        (2 * MAX_SPD + 2, [(i + 1, i) for i in range(2 * MAX_SPD + 1)]),
    ], ids=["single", "self-loop", "edgeless", "dup-reversed-isolated",
            "long-chain-two-components", "reversed-long-chain"])
    def test_edge_cases(self, n, pairs):
        self._check(n, np.array(pairs, dtype=np.intp).reshape(-1, 2).T)

    @pytest.mark.parametrize("name", SEEN_MODELS)
    def test_seen_zoo_graphs(self, name):
        rng = np.random.default_rng(0)
        for _ in range(2):
            feats = encode_graph(build_model(name, sample_config(name, rng)),
                                 P40)
            self._check(feats.num_nodes, feats.edge_index)


class TestGraphormerLayer:
    def test_shape_preserved(self, rng, chain_edges):
        layer = GraphormerLayer(8, 2, 16, rng)
        spd = spatial_encoding(4, chain_edges)[None]
        out = layer(Tensor(rng.normal(size=(1, 4, 8))), spd)
        assert out.shape == (1, 4, 8)

    def test_spd_bias_changes_attention(self, rng, chain_edges):
        layer = GraphormerLayer(8, 2, 16, rng)
        spd = spatial_encoding(4, chain_edges)[None]
        x = Tensor(rng.normal(size=(1, 4, 8)))
        base = layer(x, spd).data.copy()
        layer.spd_bias.data[:] = np.linspace(-5, 5, len(layer.spd_bias.data))
        biased = layer(x, spd).data
        assert not np.allclose(base, biased)

    def test_bias_gradient_flows(self, rng, chain_edges):
        layer = GraphormerLayer(8, 2, 16, rng)
        spd = spatial_encoding(4, chain_edges)[None]
        layer(Tensor(rng.normal(size=(1, 4, 8))), spd).sum().backward()
        assert layer.spd_bias.grad is not None
        assert np.any(layer.spd_bias.grad != 0)


class TestSetTransformer:
    def test_mab_shape(self, rng):
        mab = MAB(8, 2, rng)
        x = Tensor(rng.normal(size=(1, 3, 8)))
        y = Tensor(rng.normal(size=(1, 7, 8)))
        assert mab(x, y).shape == (1, 3, 8)

    def test_sab_shape(self, rng):
        sab = SAB(8, 2, rng)
        assert sab(Tensor(rng.normal(size=(1, 5, 8)))).shape == (1, 5, 8)

    def test_pma_pools_to_k(self, rng):
        pma = PMA(8, 2, k=3, rng=rng)
        assert pma(Tensor(rng.normal(size=(2, 11, 8)))).shape == (2, 3, 8)

    def test_decoder_output_shape(self, rng):
        dec = SetTransformerDecoder(8, 2, k=1, num_sabs=2, rng=rng)
        assert dec(Tensor(rng.normal(size=(1, 9, 8)))).shape == (1, 1, 8)

    def test_decoder_permutation_invariant(self, rng):
        # PMA pools a *set*: permuting input rows must not change output.
        dec = SetTransformerDecoder(8, 2, k=1, num_sabs=1, rng=rng)
        x = rng.normal(size=(1, 7, 8))
        perm = rng.permutation(7)
        out1 = dec(Tensor(x)).data
        out2 = dec(Tensor(x[:, perm])).data
        np.testing.assert_allclose(out1, out2, atol=1e-9)

    def test_decoder_size_invariance_of_output_shape(self, rng):
        dec = SetTransformerDecoder(8, 2, k=2, num_sabs=1, rng=rng)
        for n in (1, 5, 50):
            assert dec(Tensor(rng.normal(size=(1, n, 8)))).shape \
                == (1, 2, 8)
