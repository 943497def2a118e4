"""The metric-name table is the one declaration of every series.

Walks ``src/`` the way lint pass S007 does (every ``counter`` /
``gauge`` / ``histogram`` factory or ``Counter`` / ``Gauge`` /
``Histogram`` constructor call whose first argument is a literal name)
and checks that the table and the call sites agree.
"""

from __future__ import annotations

import ast
import pathlib

from repro.lint.source_passes import MetricNamePass
from repro.obs.names import METRIC_NAMES, declared_buckets, help_text

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
_CALLEES = MetricNamePass._FACTORIES + MetricNamePass._CONSTRUCTORS


def _literal_metric_calls() -> list[tuple[str, ast.Call, str]]:
    calls = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and node.args):
                continue
            func = node.func
            callee = func.attr if isinstance(func, ast.Attribute) \
                else getattr(func, "id", None)
            first = node.args[0]
            if callee in _CALLEES and isinstance(first, ast.Constant) \
                    and isinstance(first.value, str):
                where = f"{path.relative_to(SRC)}:{node.lineno}"
                calls.append((where, node, first.value))
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
