"""High-level lint entry points and the fail-fast pre-flight gates.

The CLI, the test suite, and the profiler/trainer pre-flight hooks all go
through these functions rather than instantiating passes directly:

* :func:`lint_graph` / :func:`lint_model` / :func:`lint_zoo` — graph
  diagnostics for one graph, one zoo model, or every registered model;
* :func:`lint_registries` — cross-registry coverage;
* :func:`lint_paths` — AST self-lint over source files/directories;
* :func:`lint_concurrency` — the whole-program concurrency passes
  (C001–C005) over a file set analyzed *together*;
* :func:`default_source_roots` — what ``repro lint --self`` walks: the
  ``repro`` package plus the repository's ``scripts/`` and
  ``benchmarks/`` entry-point trees when present;
* :func:`static_acquisition_graph` — the C003 lock-order edge set, for
  the runtime sanitizer's cross-check;
* :func:`preflight_graph` — the profiler's gate: raise :class:`LintError`
  when the cheap structural passes find ERROR diagnostics;
* :func:`preflight_features` — the trainer's gate: raise on non-finite
  feature matrices or out-of-range occupancy labels.

Pre-flight rejections are counted in the :mod:`repro.obs` metrics
registry (``lint_preflight_failures_total{gate=...}``), alongside the
per-severity ``lint_diagnostics_total`` counts the pass manager records.
"""

from __future__ import annotations

import pathlib
from typing import Iterable, Sequence

import numpy as np

from ..graph import ComputationGraph
from ..obs import get_logger
from ..obs.metrics import counter
from .diagnostics import Diagnostic, LintReport, Severity
from .manager import PassManager, default_manager

__all__ = ["LintError", "lint_graph", "lint_model", "lint_zoo",
           "lint_registries", "lint_paths", "lint_concurrency",
           "default_source_roots", "static_acquisition_graph",
           "preflight_graph", "preflight_features"]

_log = get_logger("lint")


class LintError(ValueError):
    """A pre-flight lint gate rejected its input.

    ``diagnostics`` carries the ERROR-severity findings that caused the
    rejection.
    """

    def __init__(self, message: str,
                 diagnostics: Sequence[Diagnostic] = ()):
        super().__init__(message)
        self.diagnostics = list(diagnostics)


def _manager(manager: "PassManager | None") -> PassManager:
    return manager if manager is not None else default_manager()


def lint_graph(graph: ComputationGraph, device=None,
               manager: "PassManager | None" = None,
               preflight_only: bool = False) -> LintReport:
    """Run the graph pass family over one computation graph."""
    return _manager(manager).run_graph(graph, device=device,
                                       preflight_only=preflight_only)


def lint_model(name: str, config=None, device=None,
               manager: "PassManager | None" = None) -> LintReport:
    """Build one zoo model and lint its graph."""
    from ..models import build_model
    return lint_graph(build_model(name, config), device=device,
                      manager=manager)


def lint_zoo(device=None, config=None,
             manager: "PassManager | None" = None) -> LintReport:
    """Build and lint every model in the registry; one merged report."""
    from ..models import build_model, list_models
    mgr = _manager(manager)
    report = LintReport()
    for name in list_models():
        report.merge(lint_graph(build_model(name, config), device=device,
                                manager=mgr))
    return report


def lint_registries(manager: "PassManager | None" = None) -> LintReport:
    """Run the cross-registry coverage pass family."""
    return _manager(manager).run_registries()


def _iter_py_files(paths: Iterable[str]) -> list[pathlib.Path]:
    files: list[pathlib.Path] = []
    for p in paths:
        path = pathlib.Path(p)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    return files


def lint_paths(paths: Iterable[str],
               manager: "PassManager | None" = None) -> LintReport:
    """Run the AST source passes over files and/or directories."""
    mgr = _manager(manager)
    report = LintReport()
    for path in _iter_py_files(paths):
        report.merge(mgr.run_source(str(path),
                                    path.read_text(encoding="utf-8")))
    return report


def default_source_roots() -> list[str]:
    """What the self-lint walks: the package *and* entry-point trees.

    ``src/repro`` alone misses the concurrency (and convention) bugs
    that live in ``scripts/`` and ``benchmarks/``, so both are included
    whenever the package sits inside a repository checkout that has
    them (an installed wheel only lints itself).
    """
    package_dir = pathlib.Path(__file__).resolve().parent.parent
    roots = [str(package_dir)]
    repo_root = package_dir.parent.parent
    for extra in ("scripts", "benchmarks"):
        candidate = repo_root / extra
        if candidate.is_dir():
            roots.append(str(candidate))
    return roots


def lint_concurrency(paths: "Iterable[str] | None" = None,
                     manager: "PassManager | None" = None) -> LintReport:
    """Run the whole-program concurrency passes over a file set.

    Unlike :func:`lint_paths`, every file is parsed first and analyzed
    *together* — thread roles cross class and file boundaries.  Defaults
    to :func:`default_source_roots`.
    """
    mgr = _manager(manager)
    files = [(str(p), p.read_text(encoding="utf-8"))
             for p in _iter_py_files(paths if paths is not None
                                     else default_source_roots())]
    return mgr.run_program(files)


def static_acquisition_graph(
        paths: "Iterable[str] | None" = None) -> set:
    """The static C003 lock-order edges as ``(held, acquired)`` pairs of
    qualified ``Class.attr`` names — the reference the runtime
    sanitizer's :meth:`~repro.lint.sanitizer.LockWatch.cross_check`
    compares observed orders against."""
    import ast

    from .concurrency import build_program_model
    from .manager import ProgramContext, SourceContext
    contexts = []
    for p in _iter_py_files(paths if paths is not None
                            else default_source_roots()):
        source = p.read_text(encoding="utf-8")
        try:
            tree = ast.parse(source, filename=str(p))
        except SyntaxError:
            continue
        contexts.append(SourceContext(path=str(p), source=source,
                                      tree=tree))
    return build_program_model(ProgramContext(files=contexts)).edge_set()


def _reject(gate: str, target: str,
            errors: Sequence[Diagnostic]) -> LintError:
    counter("lint_preflight_failures_total", gate=gate).inc()
    _log.warning("preflight rejection", extra={
        "gate": gate, "target": target, "errors": len(errors),
        "codes": ",".join(sorted({d.code for d in errors}))})
    head = "; ".join(d.format() for d in errors[:3])
    more = f" (+{len(errors) - 3} more)" if len(errors) > 3 else ""
    return LintError(
        f"{gate} pre-flight rejected {target!r}: {head}{more}", errors)


def preflight_graph(graph: ComputationGraph, device=None,
                    manager: "PassManager | None" = None) -> LintReport:
    """Fail-fast structural gate run before profiling a graph.

    Executes only the passes marked ``preflight`` (structure, op types,
    shape re-inference, edge shapes, FLOPs sanity, attribute schemas —
    not the feature encoder) and raises :class:`LintError` if any ERROR
    diagnostic is found.  WARNING/INFO findings are returned, not raised.
    """
    report = lint_graph(graph, device=device, manager=manager,
                        preflight_only=True)
    errors = report.errors()
    if errors:
        raise _reject("profiler", graph.name or "<unnamed graph>", errors)
    return report


def preflight_features(features, label: "float | None" = None,
                       origin: str = "") -> None:
    """Fail-fast gate over an encoded sample (trainer pre-flight).

    Rejects non-finite feature matrices (``F001``) and occupancy labels
    outside ``[0, 1]`` (``F002``) before any gradient step spends compute
    on them.
    """
    target = origin or getattr(features, "model_name", "") or "<sample>"
    errors: list[Diagnostic] = []
    for field_name in ("node_features", "edge_features"):
        mat = getattr(features, field_name, None)
        if mat is not None and mat.size and \
                not np.all(np.isfinite(mat)):
            errors.append(Diagnostic(
                code="F001", severity=Severity.ERROR,
                message=f"{field_name} contains a non-finite value",
                target=target, pass_name="feature-preflight",
                fix_hint="re-encode the graph; a node field is NaN/Inf"))
    if label is not None and not (np.isfinite(label)
                                  and 0.0 <= label <= 1.0):
        errors.append(Diagnostic(
            code="F002", severity=Severity.ERROR,
            message=f"occupancy label {label!r} outside [0, 1]",
            target=target, pass_name="feature-preflight",
            fix_hint="labels are occupancy fractions; re-profile the "
                     "sample"))
    if errors:
        raise _reject("trainer", target, errors)
