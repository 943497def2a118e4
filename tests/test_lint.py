"""The static-analysis subsystem: every diagnostic code must fire on a
deliberately broken fixture (exactly once), and the real repo — every zoo
model, every registry, every source file — must lint clean.
"""

from __future__ import annotations

import dataclasses
import pathlib
from collections import Counter

import numpy as np
import pytest

import repro
from repro.features import encode_graph
from repro.gpu import A100, profile_graph
from repro.graph import DataEdge, GraphBuilder, OpNode
from repro.lint import (CODE_TABLE, Diagnostic, LintError, LintReport,
                        PassManager, Severity, default_manager, lint_graph,
                        lint_paths, lint_registries, lint_zoo,
                        preflight_features, preflight_graph)
from repro.lint.registry_passes import (EncoderAttrCoveragePass,
                                        ExtraRegistrationPass,
                                        RegistryCoveragePass)


def tiny_graph():
    """input -> conv -> relu -> flatten -> linear, all shapes consistent."""
    b = GraphBuilder("tiny")
    x = b.input((2, 3, 8, 8))
    y = b.conv2d(x, 4, 3, padding=1)
    y = b.relu(y)
    y = b.flatten(y)
    b.linear(y, 10)
    return b.finish()


def codes(report: LintReport) -> Counter:
    return Counter(d.code for d in report.diagnostics)


def lint_codes(g, **kw) -> Counter:
    return codes(lint_graph(g, device=A100, **kw))


# --------------------------------------------------------------------- #
# Graph passes: each code fires exactly once on its broken fixture
# --------------------------------------------------------------------- #

def test_clean_graph_has_no_diagnostics():
    report = lint_graph(tiny_graph(), device=A100)
    assert report.clean
    assert report.ok
    assert report.exit_code() == 0


def test_g001_dangling_edge():
    g = tiny_graph()
    out = g.nodes[4].output_shape
    g.edges.append(DataEdge(src=4, dst=99, tensor_shape=out))
    c = lint_codes(g)
    assert c["G001"] == 1
    assert set(c) == {"G001"}


def test_g002_self_loop():
    g = tiny_graph()
    g.edges.append(DataEdge(src=2, dst=2,
                            tensor_shape=g.nodes[2].output_shape))
    c = lint_codes(g)
    assert c["G002"] == 1
    assert set(c) == {"G002"}


def test_g003_cycle():
    g = tiny_graph()
    g.edges.append(DataEdge(src=4, dst=1,
                            tensor_shape=g.nodes[4].output_shape))
    c = lint_codes(g)
    assert c["G003"] == 1
    assert set(c) == {"G003"}


def test_g004_unknown_op_type():
    g = tiny_graph()
    g.nodes[2].op_type = "FancyOp"
    c = lint_codes(g)
    assert c["G004"] == 1
    assert set(c) == {"G004"}


def test_g005_shape_mismatch():
    g = tiny_graph()
    g.nodes[1].output_shape = (2, 4, 9, 9)  # conv really yields (2,4,8,8)
    assert lint_codes(g)["G005"] == 1


def test_g006_edge_shape_mismatch():
    g = tiny_graph()
    g.edges[0] = dataclasses.replace(g.edges[0], tensor_shape=(2, 3, 7, 7))
    assert lint_codes(g)["G006"] == 1


def test_g007_negative_cost():
    g = tiny_graph()
    g.nodes[1].flops = -5
    c = lint_codes(g)
    assert c["G007"] == 1
    assert set(c) == {"G007"}


def test_g008_flops_overflow_is_warning():
    g = tiny_graph()
    g.nodes[1].flops = 2 ** 70
    report = lint_graph(g, device=A100)
    assert codes(report)["G008"] == 1
    assert report.ok  # warnings never gate


def test_g009_flops_drift_is_warning():
    g = tiny_graph()
    g.nodes[1].flops += 1000
    report = lint_graph(g, device=A100)
    assert codes(report)["G009"] == 1
    assert report.ok


def test_g010_schema_violation():
    g = tiny_graph()
    g.nodes[1].attrs["groups"] = 3  # does not divide out_channels=4
    assert lint_codes(g)["G010"] == 1


def test_g011_non_finite_features():
    g = tiny_graph()
    g.nodes[1].flops = float("inf")
    assert lint_codes(g)["G011"] == 1


def test_g012_orphan_node_is_warning():
    g = tiny_graph()
    shape = (2, 4, 8, 8)
    g.add_node(OpNode(node_id=99, op_type="ReLU", attrs={},
                      input_shapes=[shape], output_shape=shape,
                      flops=2 * 4 * 8 * 8))
    report = lint_graph(g, device=A100)
    c = codes(report)
    assert c["G012"] == 1
    assert set(c) == {"G012"}
    assert report.ok


# --------------------------------------------------------------------- #
# Cross-registry coverage passes (doctored registries injected)
# --------------------------------------------------------------------- #

def _run(lint_pass) -> Counter:
    return codes(PassManager([lint_pass]).run_registries())


def test_r001_missing_builder_emitter():
    from repro.graph.builder import builder_emitted_ops
    c = _run(RegistryCoveragePass(
        builder_ops=builder_emitted_ops() - {"Conv2d"}))
    assert c["R001"] == 1
    assert set(c) == {"R001"}


def test_r002_missing_flops_rule():
    from repro.graph.flops import flops_rule_ops
    c = _run(RegistryCoveragePass(flops_ops=flops_rule_ops() - {"Gemm"}))
    assert c["R002"] == 1
    assert set(c) == {"R002"}


def test_r003_missing_lowering():
    from repro.gpu.kernels import LOWERABLE_OPS
    c = _run(RegistryCoveragePass(lowerable_ops=LOWERABLE_OPS - {"LSTM"}))
    assert c["R003"] == 1
    assert set(c) == {"R003"}


def test_r004_missing_encoder_slot():
    from repro.graph import op_type_index

    def index(op: str) -> int:
        if op == "ReLU":
            raise KeyError(op)
        return op_type_index(op)

    c = _run(RegistryCoveragePass(encoder_index=index))
    assert c["R004"] == 1
    assert set(c) == {"R004"}


def test_r005_extra_registration_is_warning():
    from repro.graph.builder import builder_emitted_ops
    report = PassManager([ExtraRegistrationPass(
        builder_ops=builder_emitted_ops() | {"GhostOp"})]).run_registries()
    assert codes(report)["R005"] == 1
    assert report.ok


def test_r006_unencoded_schema_attr_is_warning():
    report = PassManager([EncoderAttrCoveragePass(
        schema_attrs={"Conv2d": frozenset({"mystery_attr"})},
    )]).run_registries()
    assert codes(report)["R006"] == 1
    assert report.ok


# --------------------------------------------------------------------- #
# AST source passes (temp files)
# --------------------------------------------------------------------- #

def _lint_source(tmp_path, text: str, name: str = "mod.py") -> Counter:
    f = tmp_path / name
    f.write_text(text)
    return codes(lint_paths([str(f)]))


def test_s000_syntax_error(tmp_path):
    c = _lint_source(tmp_path, "def broken(:\n")
    assert c["S000"] == 1
    assert set(c) == {"S000"}


def test_s001_bare_except(tmp_path):
    c = _lint_source(tmp_path,
                     "__all__ = []\n"
                     "try:\n    pass\nexcept:\n    pass\n")
    assert c["S001"] == 1
    assert set(c) == {"S001"}


def test_s002_float_equality_on_occupancy(tmp_path):
    c = _lint_source(tmp_path,
                     "__all__ = []\n"
                     "def f(prof):\n"
                     "    return prof.occupancy == 0.5\n")
    assert c["S002"] == 1
    assert set(c) == {"S002"}


def test_s003_missing_dunder_all(tmp_path):
    c = _lint_source(tmp_path, "x = 1\n")
    assert c["S003"] == 1
    assert set(c) == {"S003"}


def test_s003_main_modules_exempt(tmp_path):
    assert not _lint_source(tmp_path, "print('hi')\n", name="__main__.py")


def test_s004_raw_sleep(tmp_path):
    c = _lint_source(tmp_path,
                     "__all__ = []\n"
                     "import time\n"
                     "from time import sleep\n"
                     "def retry():\n"
                     "    time.sleep(1.0)\n"
                     "    sleep(2)\n")
    assert c["S004"] == 2
    assert set(c) == {"S004"}


def test_s004_backoff_module_exempt(tmp_path):
    (tmp_path / "resilience").mkdir()
    f = tmp_path / "resilience" / "backoff.py"
    f.write_text("__all__ = []\nimport time\ntime.sleep(0.0)\n")
    assert not codes(lint_paths([str(f)]))


def test_s004_ignores_other_attributes(tmp_path):
    c = _lint_source(tmp_path,
                     "__all__ = []\n"
                     "def f(event):\n"
                     "    event.sleep = 3\n"
                     "    return event.wait()\n")
    assert not c


_S005_LOOPS = (
    "__all__ = []\n"
    "def fit(train: Dataset, val):\n"
    "    for s in train:\n"
    "        s.features\n"
    "    for i in range(len(train)):\n"
    "        train[i]\n"
    "    for s in train.samples:\n"
    "        s.occupancy\n"
    "    [train[i] for i in order]\n"
)


def _lint_core_source(tmp_path, text: str) -> Counter:
    (tmp_path / "core").mkdir(exist_ok=True)
    f = tmp_path / "core" / "mod.py"
    f.write_text(text)
    return codes(lint_paths([str(f)]))


def test_s005_per_sample_loops_in_core(tmp_path):
    c = _lint_core_source(tmp_path, _S005_LOOPS)
    assert c["S005"] == 4
    assert set(c) == {"S005"}


def test_s005_outside_core_exempt(tmp_path):
    assert not _lint_source(tmp_path, _S005_LOOPS)


def test_s005_opt_out_comment(tmp_path):
    c = _lint_core_source(tmp_path,
                          "__all__ = []\n"
                          "def fit(train: Dataset):\n"
                          "    # perf: per-sample-ok -- reference path\n"
                          "    for s in train:\n"
                          "        s.features\n")
    assert not c


def test_s005_ignores_plain_loops(tmp_path):
    c = _lint_core_source(tmp_path,
                          "__all__ = []\n"
                          "def fit(xs, train: Dataset):\n"
                          "    for x in xs:\n"
                          "        x + 1\n"
                          "    for e in edges:\n"
                          "        e.src\n")
    assert not c


_S006_DIRECT_PREDICT = (
    "__all__ = []\n"
    "def plan(model, feats):\n"
    "    return model.predict(feats)\n"
)


def _lint_sched_source(tmp_path, text: str) -> Counter:
    (tmp_path / "sched").mkdir(exist_ok=True)
    f = tmp_path / "sched" / "mod.py"
    f.write_text(text)
    return codes(lint_paths([str(f)]))


def test_s006_direct_predict_in_sched(tmp_path):
    c = _lint_sched_source(tmp_path, _S006_DIRECT_PREDICT)
    assert c["S006"] == 1
    assert set(c) == {"S006"}


def test_s006_predict_batch_in_colocation(tmp_path):
    (tmp_path / "gpu").mkdir()
    f = tmp_path / "gpu" / "colocation.py"
    f.write_text("__all__ = []\n"
                 "def pack(model, feats):\n"
                 "    return model.predict_batch(feats)\n")
    c = codes(lint_paths([str(f)]))
    assert c["S006"] == 1
    assert set(c) == {"S006"}


def test_s006_outside_online_path_exempt(tmp_path):
    assert not _lint_source(tmp_path, _S006_DIRECT_PREDICT)


def test_s006_service_receiver_is_sanctioned(tmp_path):
    c = _lint_sched_source(tmp_path,
                           "__all__ = []\n"
                           "def plan(service, graphs, svc):\n"
                           "    service.predict(graphs[0])\n"
                           "    self.service.predict(graphs[1])\n"
                           "    predictor_service.predict_batch(graphs)\n")
    assert not c


def test_s006_opt_out_comment(tmp_path):
    c = _lint_sched_source(
        tmp_path,
        "__all__ = []\n"
        "def oracle(model, feats):\n"
        "    # serve: direct-predict-ok -- equivalence oracle\n"
        "    return model.predict(feats)\n")
    assert not c


def test_s007_undeclared_metric_name(tmp_path):
    c = _lint_source(tmp_path,
                     "__all__ = []\n"
                     "from repro.obs import counter\n"
                     "def f():\n"
                     "    counter('made_up_total').inc()\n")
    assert c["S007"] == 1
    assert set(c) == {"S007"}


def test_s007_declared_names_clean(tmp_path):
    assert not _lint_source(
        tmp_path,
        "__all__ = []\n"
        "from repro.obs import counter, histogram\n"
        "def f(reg):\n"
        "    counter('serve_requests_total').inc()\n"
        "    reg.histogram('serve_latency_seconds')\n")


def test_s007_constructor_form_flagged(tmp_path):
    c = _lint_source(tmp_path,
                     "__all__ = []\n"
                     "from repro.obs.metrics import Histogram\n"
                     "h = Histogram('bespoke_latency_seconds', (0.1,))\n")
    assert c["S007"] == 1


def test_s007_opt_out_comment(tmp_path):
    assert not _lint_source(
        tmp_path,
        "__all__ = []\n"
        "from repro.obs import gauge\n"
        "def f():\n"
        "    # obs: adhoc-metric-ok -- scratch experiment\n"
        "    gauge('scratch_value').set(1.0)\n")


def test_s007_aliased_factory_flagged(tmp_path):
    c = _lint_source(tmp_path,
                     "__all__ = []\n"
                     "from repro.obs.metrics import counter as _c\n"
                     "from repro.obs.metrics import Gauge as G\n"
                     "def f():\n"
                     "    _c('undeclared_total').inc()\n"
                     "    G('undeclared_gauge')\n")
    assert c["S007"] == 2
    assert set(c) == {"S007"}


def test_s007_alias_named_like_a_factory_is_not_one(tmp_path):
    assert not _lint_source(
        tmp_path,
        "__all__ = []\n"
        "from textwrap import dedent as counter\n"
        "def f():\n"
        "    return counter('  not_a_metric')\n")


def test_s007_dynamic_name_out_of_scope(tmp_path):
    assert not _lint_source(
        tmp_path,
        "__all__ = []\n"
        "from repro.obs import counter\n"
        "def f(name):\n"
        "    counter(name).inc()\n")


def test_s007_names_module_exempt(tmp_path):
    (tmp_path / "obs").mkdir()
    f = tmp_path / "obs" / "names.py"
    f.write_text("__all__ = []\n"
                 "from repro.obs import counter\n"
                 "counter('anything_goes_here_total')\n")
    assert not codes(lint_paths([str(f)]))


def test_directory_lint_recurses(tmp_path):
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "a.py").write_text("x = 1\n")
    (tmp_path / "b.py").write_text("__all__ = []\n")
    report = lint_paths([str(tmp_path)])
    assert report.targets_checked == 2
    assert codes(report)["S003"] == 1


# --------------------------------------------------------------------- #
# Pre-flight gates (profiler and trainer hooks)
# --------------------------------------------------------------------- #

def test_preflight_graph_raises_on_error():
    g = tiny_graph()
    g.edges.append(DataEdge(src=4, dst=99,
                            tensor_shape=g.nodes[4].output_shape))
    with pytest.raises(LintError) as exc:
        preflight_graph(g)
    assert any(d.code == "G001" for d in exc.value.diagnostics)


def test_preflight_graph_passes_warnings_through():
    g = tiny_graph()
    g.nodes[1].flops += 1000  # G009, a warning
    report = preflight_graph(g)
    assert report.ok and not report.clean


def test_profiler_gate_rejects_broken_graph():
    g = tiny_graph()
    g.nodes[1].flops = -5
    with pytest.raises(LintError):
        profile_graph(g, A100)
    # opt-out must restore the old behavior
    assert profile_graph(g, A100, preflight=False).num_kernels > 0


def test_f001_non_finite_feature_matrix():
    feats = encode_graph(tiny_graph(), A100)
    feats.node_features[0, 0] = np.nan
    with pytest.raises(LintError) as exc:
        preflight_features(feats, label=0.5)
    assert [d.code for d in exc.value.diagnostics] == ["F001"]


def test_f002_label_outside_unit_interval():
    feats = encode_graph(tiny_graph(), A100)
    for bad in (1.5, -0.1, float("nan")):
        with pytest.raises(LintError) as exc:
            preflight_features(feats, label=bad)
        assert [d.code for d in exc.value.diagnostics] == ["F002"]
    preflight_features(feats, label=0.0)  # boundary values are legal
    preflight_features(feats, label=1.0)


def test_trainer_gate_rejects_poisoned_label(tiny_dataset):
    from repro.core import DNNOccu, DNNOccuConfig, TrainConfig, Trainer
    ds = dataclasses.replace(
        tiny_dataset, samples=list(tiny_dataset.samples))
    ds.samples[0] = dataclasses.replace(ds.samples[0], occupancy=1.5)
    model = DNNOccu(DNNOccuConfig(hidden=8, num_heads=2), seed=0)
    with pytest.raises(LintError):
        Trainer(model, TrainConfig(epochs=1)).fit(ds)
    # the gate is opt-out
    Trainer(model, TrainConfig(epochs=1, preflight=False)).fit(ds)


# --------------------------------------------------------------------- #
# The real repo must be clean
# --------------------------------------------------------------------- #

def test_zoo_lints_clean():
    report = lint_zoo(device=A100)
    assert report.clean, report.format_text()
    from repro.models import list_models
    assert report.targets_checked == len(list_models())


def test_registries_lint_clean():
    report = lint_registries()
    assert report.clean, report.format_text()


def test_source_tree_lints_clean():
    root = pathlib.Path(repro.__file__).parent
    report = lint_paths([str(root)])
    assert report.targets_checked >= 50
    assert report.clean, report.format_text()


def test_fused_graph_passes_preflight():
    from repro.gpu import fuse_elementwise
    from repro.models import build_model
    fused = fuse_elementwise(build_model("resnet-18"))
    report = preflight_graph(fused)
    assert report.ok  # fusion may drift FLOPs (G009) but never errors


# --------------------------------------------------------------------- #
# Diagnostic / report plumbing
# --------------------------------------------------------------------- #

def test_unknown_code_rejected():
    with pytest.raises(ValueError):
        Diagnostic(code="Z999", severity=Severity.ERROR, message="nope")


def test_report_json_roundtrip():
    g = tiny_graph()
    g.nodes[1].flops = -5
    report = lint_graph(g, device=A100)
    doc = report.to_dict()
    assert doc["tool"]["name"] == "repro-lint"
    assert doc["summary"]["error"] == 1
    assert doc["diagnostics"][0]["code"] == "G007"
    assert report.exit_code() == 1


def test_severity_labels_roundtrip():
    for sev in Severity:
        assert Severity.from_label(sev.label) is sev
    with pytest.raises(ValueError):
        Severity.from_label("fatal")


def test_every_code_is_documented_in_docs():
    doc = pathlib.Path(__file__).resolve().parent.parent \
        / "docs" / "static_analysis.md"
    text = doc.read_text()
    for code in CODE_TABLE:
        assert code in text, f"{code} missing from docs/static_analysis.md"


def test_pass_metadata_covers_code_table():
    """Every documented G/R/S code is claimed by a registered pass."""
    claimed = {c for p in default_manager().passes for c in p.codes}
    claimed |= {"S000"}   # emitted by the manager itself on parse errors
    claimed |= {"F001", "F002"}  # emitted by preflight_features
    assert claimed == set(CODE_TABLE)


def test_duplicate_pass_registration_rejected():
    from repro.lint.graph_passes import StructuralPass
    mgr = PassManager([StructuralPass()])
    with pytest.raises(ValueError):
        mgr.register(StructuralPass())
