"""Tests for graph transforms and the multimodal tower pathway."""

from __future__ import annotations

import numpy as np
import pytest

from repro.features import encode_graph
from repro.graph import add_backward_edges
from repro.gpu import A100, profile_graph
from repro.models import ModelConfig, build_clip, build_model
from repro.models.clip import build_clip_towers

SMALL = ModelConfig(batch_size=8)


class TestBackwardEdges:
    def test_doubles_edge_count(self):
        g = build_model("lenet", SMALL)
        t = add_backward_edges(g)
        assert t.num_edges == 2 * g.num_edges
        assert t.num_nodes == g.num_nodes

    def test_half_edges_typed_backward(self):
        t = add_backward_edges(build_model("lenet", SMALL))
        kinds = [e.edge_type for e in t.edges]
        assert kinds.count("backward") == kinds.count("forward")

    def test_result_still_valid_dag(self):
        t = add_backward_edges(build_model("alexnet", SMALL))
        t.validate()

    def test_original_untouched(self):
        g = build_model("lenet", SMALL)
        before = g.num_edges
        add_backward_edges(g)
        assert g.num_edges == before

    def test_backward_edges_change_features(self):
        g = build_model("lenet", SMALL)
        t = add_backward_edges(g)
        gf = encode_graph(g, A100)
        tf = encode_graph(t, A100)
        assert tf.num_edges == 2 * gf.num_edges
        # Backward one-hot column is active for the mirrored half.
        assert tf.edge_features[:, 1].sum() == gf.num_edges

    def test_default_name_suffix(self):
        g = build_model("lenet", SMALL)
        assert add_backward_edges(g).name.endswith("_train")


class TestMultimodalTowers:
    def test_towers_build_independently(self):
        img, txt = build_clip_towers(SMALL, "rn50")
        img.validate()
        txt.validate()
        assert img.num_nodes > 100
        assert txt.num_nodes > 100

    def test_union_matches_fused_op_mix(self):
        """The disjoint union of the towers equals the fused CLIP graph
        minus the joint similarity operators."""
        img, txt = build_clip_towers(SMALL, "vit-b/32")
        union = img.disjoint_union(txt)
        fused = build_clip(SMALL, "vit-b/32")
        uh = union.op_type_histogram()
        fh = fused.op_type_histogram()
        # Fused adds: 2 Scale (normalize), 1 Transpose, 1 MatMul.
        assert fh["MatMul"] == uh["MatMul"] + 1
        assert fh["Scale"] == uh.get("Scale", 0) + 2
        for op, count in uh.items():
            assert fh.get(op, 0) >= count

    def test_union_profiles_like_sum_of_towers(self):
        img, txt = build_clip_towers(SMALL, "vit-b/32")
        union = img.disjoint_union(txt)
        busy_union = profile_graph(union, A100, check_memory=False).busy_time_s
        busy_parts = (profile_graph(img, A100, check_memory=False).busy_time_s
                      + profile_graph(txt, A100,
                                      check_memory=False).busy_time_s)
        np.testing.assert_allclose(busy_union, busy_parts, rtol=1e-9)

    def test_invalid_encoder(self):
        with pytest.raises(ValueError):
            build_clip_towers(SMALL, "rn101")

