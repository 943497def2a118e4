"""Whole-program concurrency lint: thread roles, shared state, locks.

The serving path is genuinely multi-threaded — the
:class:`~repro.serve.batcher.MicroBatcher` dispatcher thread, the
fleet's supervisor and worker threads, and every client thread calling
``predict`` all touch the same objects.
This pass family analyzes *all* the parsed files of one lint run at once
(family ``"program"``) and machine-checks the lock discipline:

1. **Thread roles.**  Every method of every class is assigned a role
   set: ``init`` (constructors — single-threaded by construction),
   ``worker`` (reachable from a ``threading.Thread(target=...)`` entry
   point, including callbacks escaping into thread-owning classes), and
   ``client`` (reachable from the public API).  Roles propagate through
   ``self.method()`` calls and through attribute-typed cross-class calls
   (``self.batcher.submit(...)`` propagates the caller's roles into
   ``MicroBatcher.submit`` when ``self.batcher`` was assigned a
   ``MicroBatcher(...)`` in ``__init__``).
2. **Shared-state set.**  An instance attribute is *shared* when some
   non-init role writes it and a different role reads or writes it.
   Writes are direct stores, augmented assignments, subscript stores,
   and mutator calls (``.append``/``.update``/...) on untyped container
   attributes.
3. **Lock guards.**  Each access site carries the set of class-level
   locks held at that point (``with self._lock:`` regions, tracked
   through the AST).  ``C001`` fires when *no* site of a shared
   attribute is guarded; ``C002`` when the sites' lock sets have no
   common lock but some site is guarded.
4. **Lock order** (``C003``).  A global acquisition graph over
   ``Class.attr`` lock names — an edge ``a -> b`` means ``b`` is
   acquired (possibly through calls) while ``a`` is held.  Cycles, and
   same-instance self-edges on non-reentrant ``Lock``s, are deadlocks.
5. **Blocking while locked** (``C004``).  ``Condition.wait``,
   ``queue.get/put``, ``Thread.join``, ``future.result``,
   ``time.sleep``, and ``open`` while holding a lock — except the
   canonical ``cond.wait()`` where the waited-on condition is the *only*
   lock held (``wait`` releases it).
6. **Shutdown hygiene** (``C005``).  A daemon thread stored on ``self``
   whose class has no ``.join()`` call for it anywhere.

Deliberately lock-free GIL-atomic patterns (the flight recorder's
``deque(maxlen)`` + ``itertools.count`` idiom) opt out per attribute
with a ``# conc: lockfree-ok -- <reason>`` comment on (or up to four
lines above) an actual shared-access site of that attribute; the reason
is mandatory, and annotations parked on non-shared lines have no
effect.  The static acquisition graph is exported via
:func:`acquisition_graph` so the runtime sanitizer
(:mod:`repro.lint.sanitizer`) can cross-check observed lock orders
against it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from ..obs.metrics import counter
from .diagnostics import Diagnostic, Severity
from .manager import LintPass, ProgramContext

__all__ = ["ConcurrencyPass", "PROGRAM_PASSES", "ProgramModel",
           "ClassModel", "MethodModel", "build_program_model",
           "analyze_program", "LOCKFREE_MARKER"]

#: the opt-out marker; a non-empty reason must follow it
LOCKFREE_MARKER = "conc: lockfree-ok"

#: how many lines above an access site an opt-out comment may sit
_OPT_OUT_REACH = 4

#: constructor-role methods: run before the object is ever shared
_INIT_METHODS = frozenset({"__init__", "__post_init__", "__new__"})

#: lock-constructor terminal names -> lock kind
_LOCK_KINDS = {
    "Lock": "lock", "new_lock": "lock",
    "RLock": "rlock", "new_rlock": "rlock",
    "Condition": "condition", "new_condition": "condition",
    "Semaphore": "semaphore", "BoundedSemaphore": "semaphore",
}

#: reentrant lock kinds (Condition wraps an RLock by default)
_REENTRANT = frozenset({"rlock", "condition", "semaphore"})

_QUEUE_FACTORIES = frozenset({"Queue", "SimpleQueue", "LifoQueue",
                              "PriorityQueue"})

#: container methods treated as writes to the receiving attribute
_MUTATORS = frozenset({
    "append", "appendleft", "extend", "extendleft", "insert",
    "pop", "popleft", "popitem", "remove", "discard", "clear",
    "update", "add", "setdefault", "move_to_end", "sort", "reverse",
    "put", "put_nowait", "rotate",
})

#: methods that block the calling thread (beyond the receiver itself)
_BLOCKING_METHODS = frozenset({"wait", "join", "get", "put", "result",
                               "acquire"})


# --------------------------------------------------------------------- #
# collection: per-class AST extraction
# --------------------------------------------------------------------- #

def _attr_chain(node: ast.AST) -> "list[str] | None":
    """``['self', 'a', 'b']`` for ``self.a.b``; None for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return None


def _terminal_name(func: ast.AST) -> str:
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


@dataclass
class Access:
    """One read/write of a (possibly cross-class) instance attribute."""

    attr: str
    #: self-attribute path leading to the owner object; empty = own attr
    chain: tuple = ()
    lineno: int = 0
    write: bool = False       # direct store / augmented / subscript store
    mutator: bool = False     # write via a container-mutator call
    locks: frozenset = frozenset()  # local lock-attr names held here
    method: str = ""


@dataclass
class SelfCall:
    """``self.m(...)`` — intra-class call edge for role propagation."""

    method: str
    locks: frozenset
    lineno: int


@dataclass
class AttrCall:
    """``self.a(. ...).m(...)`` — cross-class call edge (type-resolved)."""

    chain: tuple
    method: str
    locks: frozenset
    lineno: int


@dataclass
class Acquisition:
    """A ``with self.<lock>:`` entry and the locks already held there."""

    lock: str
    held: frozenset
    lineno: int


@dataclass
class Blocking:
    """A potentially blocking call site and the locks held around it."""

    kind: str
    receiver: "str | None"  # local lock-attr name when waiting on a lock
    locks: frozenset
    lineno: int
    detail: str = ""


@dataclass
class ThreadSpec:
    """One ``threading.Thread(...)`` construction inside the class."""

    attr: "str | None"     # self attribute the handle is stored on
    daemon: bool
    lineno: int
    method: str
    target: "str | None"   # method name when target=self.<m>


@dataclass
class MethodModel:
    name: str
    lineno: int
    accesses: "list[Access]" = field(default_factory=list)
    self_calls: "list[SelfCall]" = field(default_factory=list)
    attr_calls: "list[AttrCall]" = field(default_factory=list)
    acquisitions: "list[Acquisition]" = field(default_factory=list)
    blocking: "list[Blocking]" = field(default_factory=list)
    escapes: "list[tuple]" = field(default_factory=list)  # (method, callee)


@dataclass
class ClassModel:
    name: str
    file: str
    lineno: int
    methods: "dict[str, MethodModel]" = field(default_factory=dict)
    lock_attrs: "dict[str, str]" = field(default_factory=dict)
    queue_attrs: set = field(default_factory=set)
    #: attr -> constructor terminal name (resolved against the program
    #: class table during analysis)
    attr_type_names: "dict[str, str]" = field(default_factory=dict)
    thread_targets: set = field(default_factory=set)
    threads: "list[ThreadSpec]" = field(default_factory=list)
    lines: "list[str]" = field(default_factory=list)

    def optout_reason(self, lineno: int) -> "str | None":
        """The lockfree-ok reason near ``lineno``, or None.

        Returns the empty string when the marker is present but carries
        no reason (which does *not* suppress)."""
        lo = max(0, lineno - 1 - _OPT_OUT_REACH)
        for ln in self.lines[lo:lineno]:
            idx = ln.find(LOCKFREE_MARKER)
            if idx >= 0:
                reason = ln[idx + len(LOCKFREE_MARKER):]
                return reason.strip(" \t-—:.#")
        return None


class _ClassCollector:
    """Extracts a :class:`ClassModel` from one ``ast.ClassDef``.

    Collection is split in two so declarations can be *inherited*
    before bodies are walked: ``collect_decls`` finds the locks,
    queues, attribute types, and threads of one class;
    :func:`build_program_model` then merges base-class declarations in
    (``Histogram``'s ``with self._lock:`` guards via the ``_Metric``
    base) and only then runs ``collect_bodies``, which needs the full
    lock set to track held locks.
    """

    def __init__(self, node: ast.ClassDef, path: str, lines: list):
        self.node = node
        self.base_names = [_terminal_name(b) for b in node.bases]
        self.model = ClassModel(name=node.name, file=path,
                                lineno=node.lineno, lines=lines)
        self._methods = [n for n in node.body
                         if isinstance(n, (ast.FunctionDef,
                                           ast.AsyncFunctionDef))]

    def collect_decls(self) -> None:
        self._claimed_threads: set = set()
        for m in self._methods:
            self._scan_assignments(m)
        for m in self._methods:
            self._scan_unassigned_threads(m)

    def collect_bodies(self) -> ClassModel:
        for m in self._methods:
            mm = MethodModel(name=m.name, lineno=m.lineno)
            self.model.methods[m.name] = mm
            self._mm = mm
            for stmt in m.body:
                self._visit(stmt, ())
        return self.model

    # -- pass 1 ----------------------------------------------------- #

    def _local_env(self, method: ast.AST) -> dict:
        """Local-variable -> constructor terminal name, one level deep."""
        env: dict = {}
        for node in ast.walk(method):
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name) \
                    and isinstance(node.value, ast.Call):
                env[node.targets[0].id] = _terminal_name(node.value.func)
        return env

    def _classify_value(self, value: ast.AST, targets: list,
                        method: str, env: dict) -> None:
        candidates = [value]
        if isinstance(value, ast.IfExp):
            candidates = [value.body, value.orelse]
        for cand in candidates:
            tname = ""
            call = None
            if isinstance(cand, ast.Call):
                call = cand
                tname = _terminal_name(cand.func)
            elif isinstance(cand, ast.Name):
                tname = env.get(cand.id, "")
            if not tname:
                continue
            if tname in _LOCK_KINDS:
                for t in targets:
                    self.model.lock_attrs[t] = _LOCK_KINDS[tname]
            elif tname in _QUEUE_FACTORIES:
                self.model.queue_attrs.update(targets)
            elif tname == "Thread" and call is not None:
                self._claimed_threads.add(id(call))
                self._record_thread(call, targets[0] if targets else None,
                                    method)
            else:
                # candidate object type; only names that resolve to a
                # class of this program are used during analysis
                for t in targets:
                    self.model.attr_type_names.setdefault(t, tname)

    def _record_thread(self, call: ast.Call, attr: "str | None",
                       method: str) -> None:
        daemon = False
        target = None
        for kw in call.keywords:
            if kw.arg == "daemon" and isinstance(kw.value, ast.Constant):
                daemon = bool(kw.value.value)
            if kw.arg == "target":
                chain = _attr_chain(kw.value)
                if chain and chain[0] == "self" and len(chain) == 2:
                    target = chain[1]
                    self.model.thread_targets.add(target)
        self.model.threads.append(ThreadSpec(
            attr=attr, daemon=daemon, lineno=call.lineno,
            method=method, target=target))

    def _scan_assignments(self, method: ast.AST) -> None:
        env = self._local_env(method)
        for node in ast.walk(method):
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            else:
                continue
            attrs = []
            for t in targets:
                chain = _attr_chain(t)
                if chain and chain[0] == "self" and len(chain) == 2:
                    attrs.append(chain[1])
            self._classify_value(value, attrs, method.name, env)

    def _scan_unassigned_threads(self, method: ast.AST) -> None:
        for node in ast.walk(method):
            if isinstance(node, ast.Call) \
                    and _terminal_name(node.func) == "Thread" \
                    and id(node) not in self._claimed_threads:
                self._claimed_threads.add(id(node))
                self._record_thread(node, None, method.name)

    # -- pass 2 ----------------------------------------------------- #

    def _access(self, attrs: list, held: tuple, lineno: int,
                write: bool = False, mutator: bool = False) -> None:
        """Record accesses along a ``self.<a1>(...).<ak>`` path."""
        if not attrs:
            return
        locks = frozenset(held)
        mm = self._mm
        # reading the first link is always a read of an own attribute
        if len(attrs) == 1:
            mm.accesses.append(Access(
                attr=attrs[0], chain=(), lineno=lineno, write=write,
                mutator=mutator, locks=locks, method=mm.name))
            return
        mm.accesses.append(Access(
            attr=attrs[0], chain=(), lineno=lineno, locks=locks,
            method=mm.name))
        mm.accesses.append(Access(
            attr=attrs[-1], chain=tuple(attrs[:-1]), lineno=lineno,
            write=write, mutator=mutator, locks=locks, method=mm.name))

    def _store(self, target: ast.AST, held: tuple) -> None:
        if isinstance(target, ast.Attribute):
            chain = _attr_chain(target)
            if chain and chain[0] == "self":
                self._access(chain[1:], held, target.lineno, write=True)
                return
            self._visit(target.value, held)
        elif isinstance(target, ast.Subscript):
            base = target.value
            while isinstance(base, ast.Subscript):
                self._visit(base.slice, held)
                base = base.value
            chain = _attr_chain(base)
            if chain and chain[0] == "self":
                self._access(chain[1:], held, target.lineno, write=True)
            else:
                self._visit(base, held)
            self._visit(target.slice, held)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._store(elt, held)
        elif isinstance(target, ast.Starred):
            self._store(target.value, held)

    def _lock_of(self, expr: ast.AST) -> "str | None":
        chain = _attr_chain(expr)
        if chain and chain[0] == "self" and len(chain) == 2 \
                and chain[1] in self.model.lock_attrs:
            return chain[1]
        return None

    def _visit(self, node: ast.AST, held: tuple) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # a nested function's body does not run under the enclosing
            # `with` — its accesses are recorded with no locks held
            for d in node.decorator_list:
                self._visit(d, held)
            for stmt in node.body:
                self._visit(stmt, ())
        elif isinstance(node, ast.Lambda):
            self._visit(node.body, ())
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            new_held = held
            for item in node.items:
                lock = self._lock_of(item.context_expr)
                if lock is not None:
                    self._mm.acquisitions.append(Acquisition(
                        lock=lock, held=frozenset(new_held),
                        lineno=item.context_expr.lineno))
                    new_held = new_held + (lock,)
                else:
                    self._visit(item.context_expr, held)
                if item.optional_vars is not None:
                    self._store(item.optional_vars, new_held)
            for stmt in node.body:
                self._visit(stmt, new_held)
        elif isinstance(node, ast.Assign):
            self._visit(node.value, held)
            for t in node.targets:
                self._store(t, held)
        elif isinstance(node, ast.AugAssign):
            self._visit(node.value, held)
            # an augmented assignment both reads and writes the target
            self._store(node.target, held)
        elif isinstance(node, ast.AnnAssign):
            if node.value is not None:
                self._visit(node.value, held)
                self._store(node.target, held)
        elif isinstance(node, ast.Delete):
            for t in node.targets:
                self._store(t, held)
        elif isinstance(node, ast.Call):
            self._call(node, held)
        elif isinstance(node, ast.Attribute):
            chain = _attr_chain(node)
            if chain and chain[0] == "self":
                self._access(chain[1:], held, node.lineno)
            else:
                self._visit(node.value, held)
        else:
            for child in ast.iter_child_nodes(node):
                self._visit(child, held)

    def _blocking(self, kind: str, receiver: "str | None", held: tuple,
                  lineno: int, detail: str = "") -> None:
        if held:
            self._mm.blocking.append(Blocking(
                kind=kind, receiver=receiver, locks=frozenset(held),
                lineno=lineno, detail=detail))

    def _call(self, node: ast.Call, held: tuple) -> None:
        func = node.func
        chain = _attr_chain(func)
        mm = self._mm
        if chain and chain[0] == "self":
            attrs = chain[1:]
            if len(attrs) == 1:
                mm.self_calls.append(SelfCall(
                    method=attrs[0], locks=frozenset(held),
                    lineno=node.lineno))
            else:
                receiver, m = attrs[:-1], attrs[-1]
                self._access(receiver, held, node.lineno)
                mm.attr_calls.append(AttrCall(
                    chain=tuple(receiver), method=m,
                    locks=frozenset(held), lineno=node.lineno))
                if m in _MUTATORS:
                    # write lands on the receiver attribute itself
                    self._access(receiver, held, node.lineno,
                                 mutator=True)
                if m in _BLOCKING_METHODS:
                    self._call_blocking(m, receiver, held, node)
        else:
            tname = _terminal_name(func)
            if isinstance(func, ast.Name):
                if tname == "open":
                    self._blocking("io", None, held, node.lineno,
                                   detail="open()")
            elif isinstance(func, ast.Attribute):
                if chain == ["time", "sleep"]:
                    self._blocking("sleep", None, held, node.lineno,
                                   detail="time.sleep")
                elif tname in ("join", "result"):
                    self._blocking(tname, None, held, node.lineno,
                                   detail=f".{tname}()")
                self._visit(func.value, held)
        if isinstance(func, ast.Call) or isinstance(func, ast.Subscript):
            self._visit(func, held)
        # callback escapes: `self.m` passed as an argument binds a bound
        # method into another object (Thread targets handled in pass 1)
        callee = _terminal_name(func)
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            achain = _attr_chain(arg)
            if achain and achain[0] == "self" and len(achain) == 2 \
                    and callee != "Thread":
                mm.escapes.append((achain[1], callee))
                self._access(achain[1:], held, arg.lineno)
            else:
                self._visit(arg, held)

    def _call_blocking(self, m: str, receiver: list, held: tuple,
                       node: ast.Call) -> None:
        rattr = receiver[0] if len(receiver) == 1 else None
        if m == "wait":
            rlock = rattr if rattr in self.model.lock_attrs else None
            self._blocking("wait", rlock, held, node.lineno,
                           detail=f"self.{'.'.join(receiver)}.wait")
        elif m == "join":
            self._blocking("join", None, held, node.lineno,
                           detail=f"self.{'.'.join(receiver)}.join")
        elif m in ("get", "put"):
            if rattr in self.model.queue_attrs:
                self._blocking("queue", None, held, node.lineno,
                               detail=f"self.{rattr}.{m}")
        elif m == "result":
            self._blocking("result", None, held, node.lineno,
                           detail=f"self.{'.'.join(receiver)}.result")


# --------------------------------------------------------------------- #
# the program model and its analysis
# --------------------------------------------------------------------- #

@dataclass
class ProgramModel:
    """Every class of the lint run plus derived whole-program facts."""

    classes: "dict[str, ClassModel]" = field(default_factory=dict)
    #: (class, method) -> role set ⊆ {"init", "worker", "client"}
    roles: "dict[tuple, set]" = field(default_factory=dict)
    #: qualified acquisition edges: (held "Cls.attr", acquired "Cls.attr")
    #: -> (file, line, same_instance)
    edges: "dict[tuple, tuple]" = field(default_factory=dict)

    def edge_set(self) -> set:
        return set(self.edges)


def build_program_model(ctx: ProgramContext) -> ProgramModel:
    """Collect every class, then run role/lock inference."""
    model = ProgramModel()
    collectors: list = []
    by_name: dict = {}
    for f in ctx.files:
        lines = f.source.splitlines()
        for node in ast.walk(f.tree):
            if isinstance(node, ast.ClassDef) \
                    and node.name not in by_name:
                c = _ClassCollector(node, f.path, lines)
                c.collect_decls()
                collectors.append(c)
                by_name[node.name] = c
    # inherit declarations (locks, queues, attr types) from bases;
    # fixpoint handles multi-level hierarchies in any file order
    changed = True
    while changed:
        changed = False
        for c in collectors:
            for base in c.base_names:
                b = by_name.get(base)
                if b is None:
                    continue
                for src, dst in (
                        (b.model.lock_attrs, c.model.lock_attrs),
                        (b.model.attr_type_names,
                         c.model.attr_type_names)):
                    for attr, val in src.items():
                        if attr not in dst:
                            dst[attr] = val
                            changed = True
                missing = b.model.queue_attrs - c.model.queue_attrs
                if missing:
                    c.model.queue_attrs |= missing
                    changed = True
    for c in collectors:
        model.classes[c.model.name] = c.collect_bodies()
    _infer_roles(model)
    _build_edges(model)
    return model


def _resolve_chain(model: ProgramModel, cls: ClassModel,
                   chain: tuple) -> "ClassModel | None":
    """The class owning ``self.<chain[0]>. ... .<chain[-1]>``, if typed."""
    cur = cls
    for attr in chain:
        tname = cur.attr_type_names.get(attr, "")
        nxt = model.classes.get(tname)
        if nxt is None:
            return None
        cur = nxt
    return cur


def _infer_roles(model: ProgramModel) -> None:
    roles = model.roles
    for cname, cls in model.classes.items():
        thread_owner = bool(cls.threads or cls.thread_targets)
        for mname in cls.methods:
            r: set = set()
            if mname in _INIT_METHODS:
                r.add("init")
            elif mname.startswith("__") and mname.endswith("__"):
                r.add("client")
            elif not mname.startswith("_"):
                r.add("client")
            if mname in cls.thread_targets:
                r.add("worker")
            roles[(cname, mname)] = r
        _ = thread_owner
    changed = True
    while changed:
        changed = False
        for cname, cls in model.classes.items():
            for mname, mm in cls.methods.items():
                src = roles[(cname, mname)]
                if not src:
                    continue
                for sc in mm.self_calls:
                    key = (cname, sc.method)
                    if key in roles and not src <= roles[key]:
                        roles[key] |= src
                        changed = True
                for ac in mm.attr_calls:
                    owner = _resolve_chain(model, cls, ac.chain)
                    if owner is None or ac.method not in owner.methods:
                        continue
                    key = (owner.name, ac.method)
                    if not src <= roles[key]:
                        roles[key] |= src
                        changed = True
                for escaped, callee in mm.escapes:
                    if escaped not in cls.methods:
                        continue
                    target_cls = model.classes.get(callee)
                    if target_cls is not None and (
                            target_cls.threads
                            or target_cls.thread_targets):
                        key = (cname, escaped)
                        if "worker" not in roles[key]:
                            roles[key].add("worker")
                            changed = True


def _qual(cls_name: str, attr: str) -> str:
    return f"{cls_name}.{attr}"


def _transitive_acquires(model: ProgramModel) -> dict:
    """(class, method) -> frozenset of qualified locks it may acquire."""
    acq: dict = {}
    for cname, cls in model.classes.items():
        for mname, mm in cls.methods.items():
            acq[(cname, mname)] = {
                _qual(cname, a.lock) for a in mm.acquisitions}
    changed = True
    while changed:
        changed = False
        for cname, cls in model.classes.items():
            for mname, mm in cls.methods.items():
                cur = acq[(cname, mname)]
                before = len(cur)
                for sc in mm.self_calls:
                    cur |= acq.get((cname, sc.method), set())
                for ac in mm.attr_calls:
                    owner = _resolve_chain(model, cls, ac.chain)
                    if owner is not None:
                        cur |= acq.get((owner.name, ac.method), set())
                if len(cur) != before:
                    changed = True
    return acq


def _build_edges(model: ProgramModel) -> None:
    acq = _transitive_acquires(model)
    edges = model.edges

    def add(held_q: str, taken_q: str, file: str, line: int,
            same_instance: bool) -> None:
        if held_q == taken_q and not same_instance:
            # cross-instance re-acquisition of the same class-level lock
            # name is not a self-deadlock
            return
        prev = edges.get((held_q, taken_q))
        if prev is None or (same_instance and not prev[2]):
            edges[(held_q, taken_q)] = (file, line, same_instance)

    for cname, cls in model.classes.items():
        for mname, mm in cls.methods.items():
            for a in mm.acquisitions:
                for h in a.held:
                    add(_qual(cname, h), _qual(cname, a.lock),
                        cls.file, a.lineno, True)
            for sc in mm.self_calls:
                for taken in acq.get((cname, sc.method), set()):
                    for h in sc.locks:
                        add(_qual(cname, h), taken, cls.file,
                            sc.lineno, True)
            for ac in mm.attr_calls:
                owner = _resolve_chain(model, cls, ac.chain)
                if owner is None:
                    continue
                for taken in acq.get((owner.name, ac.method), set()):
                    for h in ac.locks:
                        add(_qual(cname, h), taken, cls.file,
                            ac.lineno, False)


# --------------------------------------------------------------------- #
# finding evaluation
# --------------------------------------------------------------------- #

@dataclass
class _Site:
    roles: frozenset
    write: bool
    locks: frozenset
    file: str
    line: int
    reason: "str | None"
    method: str
    cls: str


def _gather_sites(model: ProgramModel) -> dict:
    """(owner class, attr) -> [_Site, ...] with roles/locks qualified."""
    sites: dict = {}
    for cname, cls in model.classes.items():
        for mname, mm in cls.methods.items():
            mroles = frozenset(model.roles.get((cname, mname), set()))
            if not mroles:
                continue  # never-called private method: dead code
            seen: dict = {}
            for a in mm.accesses:
                owner = cls if not a.chain \
                    else _resolve_chain(model, cls, a.chain)
                if owner is None:
                    continue
                if a.attr in owner.lock_attrs:
                    continue  # lock objects themselves are exempt
                write = a.write
                if a.mutator and not write:
                    # a mutator call writes the attribute unless it is a
                    # typed program class (then it is a method call into
                    # that class, tracked as an AttrCall)
                    tname = owner.attr_type_names.get(a.attr, "")
                    write = tname not in model.classes
                key = (owner.name, a.attr, a.lineno)
                prev = seen.get(key)
                if prev is not None:
                    prev.write = prev.write or write
                    continue
                site = _Site(
                    roles=mroles, write=write,
                    locks=frozenset(_qual(cname, lk) for lk in a.locks),
                    file=cls.file, line=a.lineno,
                    reason=cls.optout_reason(a.lineno),
                    method=mname, cls=cname)
                seen[key] = site
                sites.setdefault((owner.name, a.attr), []).append(site)
    return sites


def _shared_eval(sites: list) -> "tuple[bool, list]":
    """(is_shared, non-init sites) for one attribute's site list."""
    live = [s for s in sites if s.roles & {"client", "worker"}]
    wroles: set = set()
    aroles: set = set()
    for s in live:
        r = s.roles & {"client", "worker"}
        aroles |= r
        if s.write:
            wroles |= r
    shared = ("worker" in wroles and "client" in aroles) or \
             ("client" in wroles and "worker" in aroles) or \
             ({"client", "worker"} <= wroles)
    return shared, live


def _cycles(edges: "dict[tuple, tuple]") -> list:
    """Strongly connected components of size > 1 (Tarjan, iterative)."""
    graph: dict = {}
    for a, b in edges:
        graph.setdefault(a, set()).add(b)
        graph.setdefault(b, set())
    index: dict = {}
    low: dict = {}
    on_stack: set = set()
    stack: list = []
    sccs: list = []
    counter_ = [0]

    def strongconnect(root):
        work = [(root, iter(sorted(graph[root])))]
        index[root] = low[root] = counter_[0]
        counter_[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter_[0]
                    counter_[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(sorted(graph[w]))))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                pv = work[-1][0]
                low[pv] = min(low[pv], low[v])
            if low[v] == index[v]:
                scc = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    scc.append(w)
                    if w == v:
                        break
                if len(scc) > 1:
                    sccs.append(sorted(scc))

    for v in sorted(graph):
        if v not in index:
            strongconnect(v)
    return sccs


def analyze_program(model: ProgramModel) -> list:
    """Evaluate C001–C005 over a built program model."""
    diags: list = []
    sites_by_attr = _gather_sites(model)

    # C001 / C002: shared-state guard discipline
    for (owner, attr), sites in sorted(sites_by_attr.items()):
        shared, live = _shared_eval(sites)
        if not shared:
            continue
        if any(s.reason for s in live):
            continue  # lockfree-ok with a reason at a shared-access site
        qattr = _qual(owner, attr)
        locksets = [s.locks for s in live]
        bare = [s for s in live if not s.locks]
        where = ", ".join(
            f"{s.method}:{s.line}" for s in sorted(
                bare, key=lambda s: s.line)[:4])
        anchor = next((s for s in live if s.write and not s.locks),
                      bare[0] if bare else live[0])
        if all(not ls for ls in locksets):
            diags.append(Diagnostic(
                code="C001", severity=Severity.ERROR,
                message=f"shared mutable attribute {qattr!r} is accessed "
                        f"from roles "
                        f"{sorted(set().union(*(s.roles for s in live)))} "
                        f"with no lock at any site ({where})",
                target=qattr, pass_name="concurrency",
                file=anchor.file, line=anchor.line,
                fix_hint="guard every access with one lock, or annotate "
                         "a shared-access site with "
                         "'# conc: lockfree-ok -- <reason>'"))
        elif not frozenset.intersection(*locksets):
            diags.append(Diagnostic(
                code="C002", severity=Severity.ERROR,
                message=f"shared attribute {qattr!r} is guarded at some "
                        f"sites but has no common lock across all of "
                        f"them (bare at {where or 'none'})",
                target=qattr, pass_name="concurrency",
                file=anchor.file, line=anchor.line,
                fix_hint="take the same lock at every access site (add "
                         "a locked snapshot method for cross-thread "
                         "reads)"))

    # C003: acquisition-order cycles
    reported: set = set()
    lock_kind: dict = {}
    for cname, cls in model.classes.items():
        for attr, kind in cls.lock_attrs.items():
            lock_kind[_qual(cname, attr)] = kind
    for (a, b), (file, line, same_instance) in sorted(model.edges.items()):
        if a == b and same_instance \
                and lock_kind.get(a, "lock") not in _REENTRANT:
            diags.append(Diagnostic(
                code="C003", severity=Severity.ERROR,
                message=f"non-reentrant lock {a!r} re-acquired while "
                        f"already held (guaranteed self-deadlock)",
                target=a, pass_name="concurrency", file=file, line=line,
                fix_hint="use an RLock, or drop the inner acquisition"))
            reported.add(frozenset((a,)))
    for scc in _cycles(model.edges):
        key = frozenset(scc)
        if key in reported:
            continue
        reported.add(key)
        file, line, _si = min(
            (model.edges[e] for e in model.edges
             if e[0] in key and e[1] in key),
            key=lambda t: (t[0], t[1]))
        diags.append(Diagnostic(
            code="C003", severity=Severity.ERROR,
            message="lock-order cycle: " + " -> ".join(scc + [scc[0]]),
            target=" <-> ".join(scc), pass_name="concurrency",
            file=file, line=line,
            fix_hint="impose a total acquisition order (document it in "
                     "docs/concurrency.md) and release before calling "
                     "across it"))

    # C004: blocking while holding an unrelated lock
    for cname, cls in sorted(model.classes.items()):
        for mname, mm in sorted(cls.methods.items()):
            for b in mm.blocking:
                held = {_qual(cname, h) for h in b.locks}
                if b.kind == "wait" and b.receiver is not None:
                    held -= {_qual(cname, b.receiver)}
                if not held:
                    continue  # cond.wait holding only its own condition
                diags.append(Diagnostic(
                    code="C004", severity=Severity.WARNING,
                    message=f"blocking {b.detail or b.kind} in "
                            f"{cname}.{mname} while holding "
                            f"{sorted(held)}",
                    target=f"{cname}.{mname}", pass_name="concurrency",
                    file=cls.file, line=b.lineno,
                    fix_hint="release the lock before blocking, or "
                             "bound the wait with a timeout"))

    # C005: daemon thread without a join path
    for cname, cls in sorted(model.classes.items()):
        joined: set = set()
        for mm in cls.methods.values():
            for ac in mm.attr_calls:
                if ac.method == "join" and len(ac.chain) == 1:
                    joined.add(ac.chain[0])
        for spec in cls.threads:
            if not spec.daemon or spec.attr is None:
                continue
            if spec.attr in joined:
                continue
            diags.append(Diagnostic(
                code="C005", severity=Severity.WARNING,
                message=f"daemon thread {_qual(cname, spec.attr)!r} "
                        f"(target={spec.target}) is never joined — no "
                        f"close()/join() shutdown path",
                target=_qual(cname, spec.attr), pass_name="concurrency",
                file=cls.file, line=spec.lineno,
                fix_hint="add a close() that signals the thread and "
                         "joins it (and a context-manager exit that "
                         "calls close)"))
    return diags


class ConcurrencyPass(LintPass):
    """C001–C005: whole-program thread-role and lock-discipline lint."""

    name = "concurrency"
    family = "program"
    codes = ("C001", "C002", "C003", "C004", "C005")
    preflight = False

    def run(self, ctx: ProgramContext) -> list:
        model = build_program_model(ctx)
        diags = analyze_program(model)
        for d in diags:
            counter("lint_concurrency_findings_total", code=d.code).inc()
        return diags


PROGRAM_PASSES = (ConcurrencyPass,)
