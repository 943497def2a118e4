"""AST-based self-lint passes (codes ``S000``–``S007``).

These enforce repo-wide source conventions over ``src/repro`` using only
the stdlib :mod:`ast` module:

* ``S001`` — no bare ``except:`` (it swallows ``KeyboardInterrupt`` and
  masks real defects; catch a concrete exception type);
* ``S002`` — no ``==`` / ``!=`` on occupancy values (occupancy is a
  float ratio produced by floating-point aggregation; compare with a
  tolerance or ``pytest.approx``);
* ``S003`` — every module declares ``__all__`` (the public-API contract
  the docs-consistency tests import against); ``__main__.py`` files are
  exempt, being entry-point scripts rather than importable API;
* ``S004`` — no raw ``time.sleep`` calls outside the sanctioned backoff
  helper (``repro/resilience/backoff.py``); ad-hoc sleeps are unbounded,
  untestable, and invisible to the fault model — retry delays must go
  through :class:`repro.resilience.ExponentialBackoff`;
* ``S005`` — no per-sample Python loops over datasets inside
  ``repro/core/`` (WARNING): the batched/vectorized paths exist so the
  hot loop runs in NumPy; deliberate per-sample code opts out with a
  ``# perf: per-sample-ok`` comment explaining why;
* ``S006`` — no direct ``model.predict`` / ``model.predict_batch`` calls
  on the online path (``repro/sched/``, ``repro/gpu/colocation.py``):
  occupancy queries there go through
  :class:`repro.serve.PredictorService` (micro-batching, request cache,
  overload shedding); deliberate direct calls opt out with a
  ``# serve: direct-predict-ok`` comment;
* ``S007`` — every literal metric name passed to ``counter`` / ``gauge``
  / ``histogram`` (or the ``Counter`` / ``Gauge`` / ``Histogram``
  constructors) must be declared in the central
  :data:`repro.obs.names.METRIC_NAMES` registry: dashboards, SLO specs,
  and tests key on those names, so an undeclared one is a silent
  contract drift; deliberate ad-hoc metrics opt out with a
  ``# obs: adhoc-metric-ok`` comment.

``S000`` (syntax error) is emitted by the pass manager itself when a
file fails to parse.
"""

from __future__ import annotations

import ast

from .diagnostics import Diagnostic, Severity
from .manager import LintPass, SourceContext

__all__ = ["BareExceptPass", "FloatEqualityPass", "DunderAllPass",
           "SleepRetryPass", "PerSampleLoopPass", "DirectPredictPass",
           "MetricNamePass", "SOURCE_PASSES", "metric_calls"]


class BareExceptPass(LintPass):
    """S001: flag ``except:`` handlers with no exception type."""

    name = "bare-except"
    family = "source"
    codes = ("S001",)

    def run(self, ctx: SourceContext) -> list[Diagnostic]:
        return [Diagnostic(
            code="S001", severity=Severity.ERROR,
            message="bare `except:` swallows KeyboardInterrupt and "
                    "SystemExit",
            target=ctx.path, pass_name=self.name, file=ctx.path,
            line=node.lineno,
            fix_hint="name the exception type (at minimum "
                     "`except Exception:`)")
            for node in ast.walk(ctx.tree)
            if isinstance(node, ast.ExceptHandler) and node.type is None]


def _mentions_occupancy(node: ast.expr) -> bool:
    """True when an expression's name/attribute chain names occupancy."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and "occupancy" in sub.id.lower():
            return True
        if isinstance(sub, ast.Attribute) and \
                "occupancy" in sub.attr.lower():
            return True
    return False


class FloatEqualityPass(LintPass):
    """S002: flag ``==`` / ``!=`` comparisons involving occupancy."""

    name = "float-equality"
    family = "source"
    codes = ("S002",)

    def run(self, ctx: SourceContext) -> list[Diagnostic]:
        diags: list[Diagnostic] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq))
                       for op in node.ops):
                continue
            if any(_mentions_occupancy(side)
                   for side in (node.left, *node.comparators)):
                diags.append(Diagnostic(
                    code="S002", severity=Severity.ERROR,
                    message="exact float comparison on an occupancy "
                            "value",
                    target=ctx.path, pass_name=self.name, file=ctx.path,
                    line=node.lineno,
                    fix_hint="occupancy is a float ratio; compare with "
                             "a tolerance (math.isclose / np.isclose)"))
        return diags


class DunderAllPass(LintPass):
    """S003: every importable module must declare ``__all__``."""

    name = "dunder-all"
    family = "source"
    codes = ("S003",)

    def run(self, ctx: SourceContext) -> list[Diagnostic]:
        if ctx.path.endswith("__main__.py"):
            return []
        # scripts/ and benchmarks/ hold entry points and pytest files,
        # not importable API — same rationale as the __main__ exemption
        parts = ctx.path.replace("\\", "/").split("/")
        if "scripts" in parts or "benchmarks" in parts:
            return []
        for node in ctx.tree.body:
            targets = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AugAssign):
                targets = [node.target]
            for t in targets:
                if isinstance(t, ast.Name) and t.id == "__all__":
                    return []
        return [Diagnostic(
            code="S003", severity=Severity.ERROR,
            message="module does not declare __all__",
            target=ctx.path, pass_name=self.name, file=ctx.path, line=1,
            fix_hint="add `__all__ = [...]` naming the public API")]


def _is_sleep_call(node: ast.Call) -> bool:
    """True for ``time.sleep(...)`` or a bare ``sleep(...)`` call."""
    func = node.func
    if isinstance(func, ast.Attribute) and func.attr == "sleep" and \
            isinstance(func.value, ast.Name) and func.value.id == "time":
        return True
    return isinstance(func, ast.Name) and func.id == "sleep"


class SleepRetryPass(LintPass):
    """S004: flag raw sleeps outside the sanctioned backoff helper.

    Retry delays belong in :class:`repro.resilience.ExponentialBackoff`
    (deterministic, capped, testable); a scattered ``time.sleep`` is none
    of those.  The backoff module itself is the one sanctioned home for
    wall-clock sleeping and is exempt.
    """

    name = "sleep-retry"
    family = "source"
    codes = ("S004",)

    def run(self, ctx: SourceContext) -> list[Diagnostic]:
        if ctx.path.replace("\\", "/").endswith("resilience/backoff.py"):
            return []
        return [Diagnostic(
            code="S004", severity=Severity.ERROR,
            message="raw sleep call; retry delays must use "
                    "repro.resilience.ExponentialBackoff",
            target=ctx.path, pass_name=self.name, file=ctx.path,
            line=node.lineno,
            fix_hint="compute the delay with ExponentialBackoff.delay() "
                     "so it is capped, seeded, and testable")
            for node in ast.walk(ctx.tree)
            if isinstance(node, ast.Call) and _is_sleep_call(node)]


_OPT_OUT = "perf: per-sample-ok"
#: how many lines above a loop the opt-out comment may sit (it is
#: usually a multi-line justification ending at the loop header)
_OPT_OUT_REACH = 4


def _dataset_params(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> set:
    """Parameter names whose annotation mentions ``Dataset``."""
    names: set[str] = set()
    a = fn.args
    for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs):
        ann = arg.annotation
        if ann is None:
            continue
        for sub in ast.walk(ann):
            if (isinstance(sub, ast.Name) and sub.id == "Dataset") or \
                    (isinstance(sub, ast.Attribute)
                     and sub.attr == "Dataset") or \
                    (isinstance(sub, ast.Constant)
                     and isinstance(sub.value, str)
                     and "Dataset" in sub.value):
                names.add(arg.arg)
                break
    return names


def _iterates_dataset(it: ast.expr, params: set) -> bool:
    """True when a loop iterable walks a dataset sample-by-sample."""
    # for s in ds / for s in ds.samples / for s in ds.anything
    if isinstance(it, ast.Name) and it.id in params:
        return True
    if isinstance(it, ast.Attribute) and it.attr == "samples":
        return True
    # for i, s in enumerate(ds) / for i in range(len(ds))
    if isinstance(it, ast.Call) and isinstance(it.func, ast.Name):
        if it.func.id == "enumerate" and it.args and \
                _iterates_dataset(it.args[0], params):
            return True
        if it.func.id == "range" and it.args:
            inner = it.args[-1]
            if isinstance(inner, ast.Call) \
                    and isinstance(inner.func, ast.Name) \
                    and inner.func.id == "len" and inner.args \
                    and _iterates_dataset(inner.args[0], params):
                return True
    return False


def _subscripts_dataset(body: list, target: ast.expr, params: set) -> bool:
    """True when a loop body indexes a dataset with the loop variable."""
    if not isinstance(target, ast.Name):
        return False
    for stmt in body:
        for sub in ast.walk(stmt):
            if isinstance(sub, ast.Subscript) \
                    and isinstance(sub.value, ast.Name) \
                    and sub.value.id in params \
                    and any(isinstance(n, ast.Name) and n.id == target.id
                            for n in ast.walk(sub.slice)):
                return True
    return False


class PerSampleLoopPass(LintPass):
    """S005: flag per-sample Python loops in the model/training core.

    ``src/repro/core/`` owns the numeric hot paths; a Python-level loop
    over dataset samples there (``for s in ds``, ``for i in
    range(len(ds))``, iterating ``.samples``, or indexing a ``Dataset``
    parameter element-by-element) is usually work that the batched /
    vectorized paths (``forward_batch``, ``collate``,
    ``encode_graph``) were built to replace.

    Deliberate per-sample code — reference implementations, equivalence
    oracles, O(batch) gathers — opts out with a ``# perf:
    per-sample-ok`` comment on the loop line or just above it, stating
    *why* the loop is not a hot path.
    """

    name = "per-sample-loop"
    family = "source"
    codes = ("S005",)

    def run(self, ctx: SourceContext) -> list[Diagnostic]:
        path = ctx.path.replace("\\", "/")
        if "/core/" not in path and not path.startswith("core/"):
            return []
        lines = ctx.source.splitlines()

        def opted_out(lineno: int) -> bool:
            lo = max(0, lineno - 1 - _OPT_OUT_REACH)
            return any(_OPT_OUT in ln for ln in lines[lo:lineno])

        diags: list[Diagnostic] = []

        def flag(node: ast.AST) -> None:
            if opted_out(node.lineno):
                return
            diags.append(Diagnostic(
                code="S005", severity=Severity.WARNING,
                message="per-sample Python loop over a dataset in the "
                        "core hot path",
                target=ctx.path, pass_name=self.name, file=ctx.path,
                line=node.lineno,
                fix_hint="use the batched/vectorized path (collate + "
                         "forward_batch), or annotate the loop with "
                         f"`# {_OPT_OUT} -- <reason>` if it is "
                         "deliberately per-sample"))

        def visit(node: ast.AST, params: set) -> None:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                params = params | _dataset_params(node)
            for child in ast.iter_child_nodes(node):
                visit(child, params)
            if isinstance(node, (ast.For, ast.AsyncFor)):
                if _iterates_dataset(node.iter, params) or \
                        _subscripts_dataset(node.body, node.target,
                                            params):
                    flag(node)
            elif isinstance(node, (ast.ListComp, ast.SetComp,
                                   ast.GeneratorExp, ast.DictComp)):
                for gen in node.generators:
                    if _iterates_dataset(gen.iter, params) or \
                            _subscripts_dataset([node], gen.target,
                                                params):
                        flag(node)
                        break

        visit(ctx.tree, set())
        return diags


_SERVE_OPT_OUT = "serve: direct-predict-ok"


def _terminal_receiver(func: ast.Attribute) -> str:
    """Name of the object a ``x.y.predict(...)`` call is invoked on."""
    value = func.value
    if isinstance(value, ast.Name):
        return value.id
    if isinstance(value, ast.Attribute):
        return value.attr
    return ""


class DirectPredictPass(LintPass):
    """S006: flag direct model ``predict`` calls on the online path.

    ``sched/`` and ``gpu/colocation.py`` are the online consumers of
    occupancy predictions; calling ``model.predict`` /
    ``model.predict_batch`` there bypasses the serving layer's
    micro-batching, request cache, and overload shedding
    (:class:`repro.serve.PredictorService` — which is itself exempt: a
    receiver whose name contains ``service`` IS the sanctioned surface).
    Deliberate direct calls (oracles, calibration one-offs) opt out with
    a ``# serve: direct-predict-ok`` comment on or just above the call.
    """

    name = "direct-predict"
    family = "source"
    codes = ("S006",)

    _GUARDED = ("predict", "predict_batch")

    def run(self, ctx: SourceContext) -> list[Diagnostic]:
        path = ctx.path.replace("\\", "/")
        if "/sched/" not in path and not path.startswith("sched/") \
                and not path.endswith("gpu/colocation.py"):
            return []
        lines = ctx.source.splitlines()

        def opted_out(lineno: int) -> bool:
            lo = max(0, lineno - 1 - _OPT_OUT_REACH)
            return any(_SERVE_OPT_OUT in ln for ln in lines[lo:lineno])

        diags: list[Diagnostic] = []
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in self._GUARDED):
                continue
            receiver = _terminal_receiver(node.func)
            if "service" in receiver.lower():
                continue
            if opted_out(node.lineno):
                continue
            diags.append(Diagnostic(
                code="S006", severity=Severity.ERROR,
                message=f"direct `.{node.func.attr}(...)` on the online "
                        "path bypasses the serving layer",
                target=ctx.path, pass_name=self.name, file=ctx.path,
                line=node.lineno,
                fix_hint="route the query through repro.serve."
                         "PredictorService (predict/predict_many), or "
                         f"annotate with `# {_SERVE_OPT_OUT} -- <reason>`"
                         " if the direct call is deliberate"))
        return diags


_METRIC_OPT_OUT = "obs: adhoc-metric-ok"
_METRIC_CALLEES = ("counter", "gauge", "histogram",
                   "Counter", "Gauge", "Histogram")


def metric_calls(tree: ast.AST) -> list[tuple[ast.Call, str]]:
    """Every metric factory or constructor call with a literal name.

    Returns ``(call, name)`` pairs.  The callee is ``counter`` /
    ``gauge`` / ``histogram`` or ``Counter`` / ``Gauge`` / ``Histogram``,
    called bare, as an attribute (``registry.counter(...)``), or through
    a ``from ... import counter as _c`` alias; a bare name is resolved
    through the module's aliased imports first, so an alias can neither
    hide a factory nor pose as one.
    """
    aliases = {alias.asname: alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               for alias in node.names if alias.asname}
    calls = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and node.args):
            continue
        func = node.func
        if isinstance(func, ast.Attribute):
            callee = func.attr
        elif isinstance(func, ast.Name):
            callee = aliases.get(func.id, func.id)
        else:
            continue
        first = node.args[0]
        if callee in _METRIC_CALLEES and isinstance(first, ast.Constant) \
                and isinstance(first.value, str):
            calls.append((node, first.value))
    return calls


class MetricNamePass(LintPass):
    """S007: metric names must come from the central registry.

    The SLO engine, the ``repro obs`` metric table, and the docs all key
    on metric names; a name invented at a call site works locally and
    then silently never shows up where anyone looks for it.  This pass
    cross-checks the *literal* name of every call :func:`metric_calls`
    finds (a ``counter`` / ``gauge`` / ``histogram`` factory or a
    ``Counter`` / ``Gauge`` / ``Histogram`` constructor, called bare, as
    an attribute or through an import alias) against
    :data:`repro.obs.names.METRIC_NAMES`.

    Dynamic (non-literal) names are out of scope.  The registry module
    itself is exempt, and a deliberately ad-hoc metric opts out with a
    ``# obs: adhoc-metric-ok`` comment on or just above the call.
    """

    name = "metric-name"
    family = "source"
    codes = ("S007",)

    def run(self, ctx: SourceContext) -> list[Diagnostic]:
        path = ctx.path.replace("\\", "/")
        if path.endswith("obs/names.py"):
            return []
        from ..obs.names import is_declared
        lines = ctx.source.splitlines()

        def opted_out(lineno: int) -> bool:
            lo = max(0, lineno - 1 - _OPT_OUT_REACH)
            return any(_METRIC_OPT_OUT in ln for ln in lines[lo:lineno])

        diags: list[Diagnostic] = []
        for node, name in metric_calls(ctx.tree):
            if is_declared(name) or opted_out(node.lineno):
                continue
            diags.append(Diagnostic(
                code="S007", severity=Severity.ERROR,
                message=f"metric name {name!r} is not declared in "
                        "repro.obs.names.METRIC_NAMES",
                target=ctx.path, pass_name=self.name, file=ctx.path,
                line=node.lineno,
                fix_hint="add one METRIC_NAMES entry (help text, plus "
                         "buckets for a histogram; keep the block "
                         "alphabetized), or annotate "
                         f"with `# {_METRIC_OPT_OUT} -- <reason>` if it "
                         "is deliberately ad-hoc"))
        return diags


SOURCE_PASSES = (BareExceptPass, FloatEqualityPass, DunderAllPass,
                 SleepRetryPass, PerSampleLoopPass, DirectPredictPass,
                 MetricNamePass)
