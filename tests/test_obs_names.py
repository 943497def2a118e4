"""The metric-name table is the one declaration of every series.

Walks ``src/`` with the walker lint pass S007 uses
(:func:`repro.lint.source_passes.metric_calls`: every ``counter`` /
``gauge`` / ``histogram`` factory or ``Counter`` / ``Gauge`` /
``Histogram`` constructor call whose first argument is a literal name)
and checks that the table and the call sites agree.
"""

from __future__ import annotations

import ast
import pathlib

from repro.lint.source_passes import metric_calls
from repro.obs.names import METRIC_NAMES, declared_buckets, help_text

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def _literal_metric_calls() -> list[tuple[str, ast.Call, str]]:
    calls = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node, name in metric_calls(tree):
            calls.append((f"{path.relative_to(SRC)}:{node.lineno}", node,
                          name))
    return calls


CALLS = _literal_metric_calls()


def test_walk_finds_the_call_sites():
    assert len(CALLS) > 50


def test_call_sites_pass_only_a_name_and_labels():
    bad = [where for where, node, _ in CALLS
           if len(node.args) > 1
           or any(k.arg in ("description", "buckets")
                  for k in node.keywords)]
    assert not bad, f"help text / buckets belong in METRIC_NAMES: {bad}"


def test_every_declared_name_has_a_literal_call_site():
    used = {name for _, _, name in CALLS}
    assert sorted(set(METRIC_NAMES) - used) == []


def test_every_entry_has_help_and_ascending_buckets():
    for name in METRIC_NAMES:
        assert help_text(name), name
        buckets = declared_buckets(name)
        if buckets is not None:
            assert buckets, name
            assert list(buckets) == sorted(set(buckets)), name
