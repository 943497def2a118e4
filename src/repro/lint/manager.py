"""The lint pass manager: pass registration, scheduling, and metrics.

Passes come in three families, each with its own context type:

* ``graph`` passes examine one :class:`~repro.graph.ComputationGraph`
  (plus an optional device for feature encoding) without executing it;
* ``registry`` passes examine the cross-layer operator registries
  (builder emitters, FLOPs rules, kernel lowerings, encoder slots);
* ``source`` passes examine parsed Python source files (AST), one file
  at a time;
* ``program`` passes examine *all* parsed files of one lint run at once
  (whole-program analyses such as the concurrency pass, which must see
  a ``threading.Thread`` entry point in one class and the attribute it
  shares in another).

A :class:`PassManager` owns an ordered pass list per family, runs the
appropriate family for each lint entry point, and counts every emitted
diagnostic in the :mod:`repro.obs` metrics registry
(``lint_diagnostics_total{severity=...}``) so pre-flight gates are
observable in the same place as the profiler and trainer metrics.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from ..graph import ComputationGraph
from ..obs.metrics import counter
from .diagnostics import Diagnostic, LintReport, Severity

__all__ = ["LintPass", "GraphContext", "SourceContext", "ProgramContext",
           "PassManager", "default_manager"]


@dataclass
class GraphContext:
    """What a graph pass sees: the graph and an optional target device."""

    graph: ComputationGraph
    device: "object | None" = None  # DeviceSpec; untyped to avoid a cycle


@dataclass
class SourceContext:
    """What a source pass sees: one parsed Python file."""

    path: str
    source: str
    tree: ast.AST


@dataclass
class ProgramContext:
    """What a program pass sees: every parsed file of the lint run."""

    files: "list[SourceContext]"


class LintPass:
    """Base class for all passes.

    Subclasses set ``name`` (stable pass identifier), ``family``
    (``"graph"`` / ``"registry"`` / ``"source"``), ``codes`` (the
    diagnostic codes the pass may emit), and ``preflight`` (whether the
    pass is cheap and deterministic enough for the profiler's fail-fast
    gate).  ``run`` receives the family's context object — ``None`` for
    registry passes, which read module-level registries directly.
    """

    name: str = ""
    family: str = ""
    codes: tuple[str, ...] = ()
    preflight: bool = False

    def run(self, ctx) -> list[Diagnostic]:  # pragma: no cover - interface
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} {self.name!r} {self.codes}>"


def _count_diagnostics(diags: list[Diagnostic]) -> None:
    """Record emitted diagnostics in the obs metrics registry (no-op when
    observability is disabled)."""
    for d in diags:
        counter("lint_diagnostics_total", severity=d.severity.label).inc()


class PassManager:
    """Ordered pass registry with per-family runners."""

    def __init__(self, passes: "list[LintPass] | None" = None):
        self.passes: list[LintPass] = []
        for p in passes or []:
            self.register(p)

    def register(self, lint_pass: LintPass) -> LintPass:
        if lint_pass.family not in ("graph", "registry", "source",
                                    "program"):
            raise ValueError(
                f"pass {lint_pass.name!r} has unknown family "
                f"{lint_pass.family!r}")
        if any(p.name == lint_pass.name and type(p) is type(lint_pass)
               for p in self.passes):
            raise ValueError(f"pass {lint_pass.name!r} already registered")
        self.passes.append(lint_pass)
        return lint_pass

    def family(self, family: str,
               preflight_only: bool = False) -> list[LintPass]:
        return [p for p in self.passes
                if p.family == family
                and (not preflight_only or p.preflight)]

    # -- runners --------------------------------------------------------- #
    def run_graph(self, graph: ComputationGraph, device=None,
                  preflight_only: bool = False) -> LintReport:
        """Run every graph pass over one graph."""
        ctx = GraphContext(graph=graph, device=device)
        report = LintReport(targets_checked=1)
        for p in self.family("graph", preflight_only):
            diags = p.run(ctx)
            _count_diagnostics(diags)
            report.extend(diags)
        return report

    def run_registries(self) -> LintReport:
        """Run every cross-registry coverage pass."""
        report = LintReport(targets_checked=1)
        for p in self.family("registry"):
            diags = p.run(None)
            _count_diagnostics(diags)
            report.extend(diags)
        return report

    def run_source(self, path: str, source: str) -> LintReport:
        """Run every source pass over one Python file."""
        report = LintReport(targets_checked=1)
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            diags = [Diagnostic(
                code="S000", severity=Severity.ERROR,
                message=f"file fails to parse: {exc.msg}",
                target=path, pass_name="parse", file=path,
                line=exc.lineno,
                fix_hint="fix the syntax error before linting")]
            _count_diagnostics(diags)
            report.extend(diags)
            return report
        ctx = SourceContext(path=path, source=source, tree=tree)
        for p in self.family("source"):
            diags = p.run(ctx)
            _count_diagnostics(diags)
            report.extend(diags)
        return report

    def run_program(self, files) -> LintReport:
        """Run every program pass over a set of files at once.

        ``files`` is an iterable of ``(path, source)`` pairs.  A file
        that fails to parse gets an ``S000`` diagnostic and is excluded
        from the program context (the whole-program analysis still runs
        over the files that do parse).
        """
        report = LintReport()
        parsed: list[SourceContext] = []
        for path, source in files:
            report.targets_checked += 1
            try:
                tree = ast.parse(source, filename=path)
            except SyntaxError as exc:
                diags = [Diagnostic(
                    code="S000", severity=Severity.ERROR,
                    message=f"file fails to parse: {exc.msg}",
                    target=path, pass_name="parse", file=path,
                    line=exc.lineno,
                    fix_hint="fix the syntax error before linting")]
                _count_diagnostics(diags)
                report.extend(diags)
                continue
            parsed.append(SourceContext(path=path, source=source,
                                        tree=tree))
        ctx = ProgramContext(files=parsed)
        for p in self.family("program"):
            diags = p.run(ctx)
            _count_diagnostics(diags)
            report.extend(diags)
        return report


def default_manager() -> PassManager:
    """A :class:`PassManager` loaded with every built-in pass."""
    from .concurrency import PROGRAM_PASSES
    from .graph_passes import GRAPH_PASSES
    from .registry_passes import REGISTRY_PASSES
    from .source_passes import SOURCE_PASSES
    return PassManager([factory() for factory in
                        (*GRAPH_PASSES, *REGISTRY_PASSES, *SOURCE_PASSES,
                         *PROGRAM_PASSES)])
