"""Concurrency analysis: lock discipline of shared-state classes.

The serving era turned several single-thread classes into shared
infrastructure (matcher LRU, router memos, RoadNetwork snapshots,
metrics registries), and the recurring bug classes were always the
same mechanical shapes -- a counter reset outside the lock that
guards it, a read-modify-write flush whose read and watermark advance
stopped being atomic, a Dijkstra run while holding the cache lock, a
lazily built snapshot installed without the double-checked idiom, a
lock leaking into ``__getstate__`` and breaking ProcessExecutor
pickling.  This module shifts those left: it AST-extracts, per class,

* the **lock inventory** -- attributes assigned
  ``threading.Lock/RLock/Condition/Semaphore`` (or used directly as
  ``with self._lock:`` context managers);
* every **attribute access** of each method together with the
  innermost self-lock held at that point (``with self._lock:`` blocks
  are the only acquisition idiom this repo uses -- there is no manual
  ``acquire``/``release`` anywhere, which keeps the static model
  exact);
* **read-modify-write statements** (augmented assignment, or a plain
  assignment whose right-hand side reads another guarded attribute);
* **lazy-initialization tests** (``if self._x is None: self._x = ...``)
  and whether they run under a lock;
* **calls executed while a lock is held**, filtered against a
  repo-curated list of known-expensive operations;
* the ``__getstate__`` hygiene of lock-bearing classes.

On top of that inventory live the ``class``-scope rules RC030-RC034
(see ``docs/STATIC_ANALYSIS.md`` for the catalogue and the documented
thread-safety idioms).  Like every other rule family the checks are
deliberately conservative: construction-time methods (``__init__``,
``__setstate__`` and private helpers called only from those) are
exempt, classes without any lock are never examined, and aliasing the
attribute into a local before testing it hides the access -- escapes
make the analyzer stand down, never invent a finding.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from .findings import ERROR, WARNING, register_rule

__all__ = [
    "ClassInfo",
    "MethodInfo",
    "extract_classes",
]

#: threading factory callables whose result is a lock-like object.
LOCK_FACTORIES = frozenset({
    "Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore",
})

#: Methods that run before (or while) the instance is shared, so
#: unguarded writes there are construction, not racing: __init__ and
#: the pickle protocol rebuild the object single-threaded.
_EXEMPT_METHODS = frozenset({
    "__init__", "__new__", "__del__",
    "__getstate__", "__setstate__", "__reduce__", "__reduce_ex__",
    "__copy__", "__deepcopy__", "__init_subclass__",
})

#: Known-expensive callables (trailing name) that must not run while a
#: lock is held: graph searches, the W1/DTW reduction kernels, batch
#: serving entry points, blocking sleeps and filesystem I/O.  The
#: matcher-LRU idiom is probe under the lock, compute outside it,
#: install under the lock -- see docs/STATIC_ANALYSIS.md.
EXPENSIVE_CALLS = frozenset({
    # bounded/unbounded graph searches (RoadNetwork)
    "dijkstra_all", "dijkstra_array", "shortest_path",
    # batch serving entry points (PR 7)
    "route_many", "match_many",
    # scenario-reduction kernels (PR 8)
    "wasserstein_matrix", "dtw_band_matrix", "reduce_scenarios",
    "dominance_prune", "select_best", "stochastic_pareto_front",
    # blocking sleeps and filesystem / network I/O
    "sleep", "open", "urlopen", "read_text", "write_text",
    "read_bytes", "write_bytes",
})


@dataclass
class AttrAccess:
    """One ``self.<attr>`` access inside a method."""

    attr: str
    lineno: int
    col_offset: int
    #: innermost self-lock attribute held at the access, or None
    lock: str | None
    #: "read" | "write" | "rmw" (augmented assignment)
    kind: str


@dataclass
class SelfAssign:
    """One assignment statement targeting ``self.<attr>``."""

    targets: tuple
    rhs_reads: frozenset
    lineno: int
    col_offset: int
    lock: str | None
    aug: bool


@dataclass
class LockedCall:
    """A call executed while at least one self-lock is held."""

    name: str
    lineno: int
    col_offset: int
    lock: str


@dataclass
class LazyInit:
    """``if self.<attr> is None / not self.<attr>: self.<attr> = ...``"""

    attr: str
    lineno: int
    col_offset: int
    lock: str | None


@dataclass
class MethodInfo:
    """Lock-relevant effects of one method body."""

    name: str
    lineno: int
    node: object
    self_name: str | None
    accesses: list = field(default_factory=list)
    assigns: list = field(default_factory=list)
    locked_calls: list = field(default_factory=list)
    lazy_inits: list = field(default_factory=list)
    #: names of self.<m>() method calls (construction-exemption graph)
    self_calls: set = field(default_factory=set)
    #: lock attributes this method acquires via ``with self.<attr>:``
    locks_used: set = field(default_factory=set)


@dataclass
class ClassInfo:
    """Lock inventory + per-method access map of one class."""

    name: str
    lineno: int
    col_offset: int
    node: object
    #: lock attr -> line of the ``self.<attr> = threading.X()`` site
    lock_attrs: dict = field(default_factory=dict)
    #: lock attrs only ever seen as ``with self.<attr>:`` (no factory
    #: assignment in this class body -- injected or inherited)
    with_only_locks: set = field(default_factory=set)
    methods: dict = field(default_factory=dict)

    def exempt_methods(self):
        """Construction-only methods: dunders of the exempt set plus
        private helpers reachable *only* from them (fixpoint over the
        self-call graph, e.g. ``_init_caches`` called from both
        ``__init__`` and ``__setstate__``)."""
        exempt = {name for name in self.methods
                  if name in _EXEMPT_METHODS}
        callers = {}
        for name, method in self.methods.items():
            for callee in method.self_calls:
                callers.setdefault(callee, set()).add(name)
        changed = True
        while changed:
            changed = False
            for name in self.methods:
                if name in exempt or not name.startswith("_"):
                    continue
                calling = callers.get(name)
                if calling and calling <= exempt:
                    exempt.add(name)
                    changed = True
        return exempt

    def guarded_attrs(self, kinds=("read", "write", "rmw")):
        """Attributes accessed under any self-lock, by kind filter."""
        guarded = set()
        for method in self.methods.values():
            for access in method.accesses:
                if access.lock is not None and access.kind in kinds:
                    guarded.add(access.attr)
        return guarded


def _lock_factory_call(node):
    """Whether ``node`` is a call constructing a lock-like object."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = (func.id if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute)
            else None)
    return name in LOCK_FACTORIES


class _MethodVisitor:
    """Recursive walk of one method body tracking held self-locks.

    Not an ``ast.NodeVisitor``: the with-lock context is a stack that
    must wrap exactly the statements lexically inside the ``with``
    body, which a hand-rolled recursion expresses directly.
    """

    def __init__(self, method, lock_attrs):
        self.method = method
        self.self_name = method.self_name
        self.lock_attrs = lock_attrs
        self.locks = []  # stack of held lock attr names

    # -- helpers -----------------------------------------------------

    def _held(self):
        return self.locks[-1] if self.locks else None

    def _self_attr(self, node):
        """attr name for a ``self.<attr>`` node, else None."""
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == self.self_name):
            return node.attr
        return None

    def _access(self, attr, node, kind):
        self.method.accesses.append(AttrAccess(
            attr=attr, lineno=node.lineno,
            col_offset=node.col_offset,
            lock=self._held(), kind=kind))

    def _self_reads_in(self, node):
        """Every ``self.<attr>`` read inside an expression."""
        reads = set()
        for sub in ast.walk(node):
            attr = self._self_attr(sub)
            if attr is not None:
                reads.add(attr)
        return frozenset(reads)

    # -- traversal ---------------------------------------------------

    def walk(self, statements):
        for statement in statements:
            self.visit(statement)

    def visit(self, node):
        handler = getattr(self, "visit_" + type(node).__name__, None)
        if handler is not None:
            handler(node)
            return
        self.generic(node)

    def generic(self, node):
        for child in ast.iter_child_nodes(node):
            self.visit(child)

    def visit_FunctionDef(self, node):
        # Nested defs run later, possibly without the lock: do not
        # attribute their accesses to the current lock context.
        held, self.locks = self.locks, []
        self.generic(node)
        self.locks = held

    visit_AsyncFunctionDef = visit_FunctionDef
    visit_Lambda = visit_FunctionDef

    def visit_With(self, node):
        acquired = []
        for item in node.items:
            attr = self._self_attr(item.context_expr)
            if attr is not None and (attr in self.lock_attrs
                                     or attr.endswith("lock")):
                acquired.append(attr)
                self.method.locks_used.add(attr)
            else:
                self.visit(item.context_expr)
            if item.optional_vars is not None:
                self.visit(item.optional_vars)
        self.locks.extend(acquired)
        self.walk(node.body)
        if acquired:
            del self.locks[-len(acquired):]

    visit_AsyncWith = visit_With

    def visit_Assign(self, node):
        targets = tuple(attr for target in node.targets
                        for attr in self._assign_targets(target))
        for target in node.targets:
            self.visit(target)
        self.visit(node.value)
        if targets:
            self.method.assigns.append(SelfAssign(
                targets=targets,
                rhs_reads=self._self_reads_in(node.value),
                lineno=node.lineno, col_offset=node.col_offset,
                lock=self._held(), aug=False))

    def _assign_targets(self, target):
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                yield from self._assign_targets(element)
            return
        attr = self._self_attr(target)
        if attr is not None:
            yield attr

    def visit_AnnAssign(self, node):
        attr = self._self_attr(node.target)
        self.visit(node.target)
        if node.value is not None:
            self.visit(node.value)
            if attr is not None:
                self.method.assigns.append(SelfAssign(
                    targets=(attr,),
                    rhs_reads=self._self_reads_in(node.value),
                    lineno=node.lineno,
                    col_offset=node.col_offset,
                    lock=self._held(), aug=False))

    def visit_AugAssign(self, node):
        attr = self._self_attr(node.target)
        if attr is not None:
            self._access(attr, node.target, "rmw")
            rhs = self._self_reads_in(node.value) | {attr}
            self.method.assigns.append(SelfAssign(
                targets=(attr,), rhs_reads=frozenset(rhs),
                lineno=node.lineno, col_offset=node.col_offset,
                lock=self._held(), aug=True))
        else:
            self.visit(node.target)
        self.visit(node.value)

    def visit_Delete(self, node):
        for target in node.targets:
            attr = self._self_attr(target)
            if attr is not None:
                self._access(attr, target, "write")
            else:
                self.visit(target)

    def visit_Attribute(self, node):
        attr = self._self_attr(node)
        if attr is not None:
            if isinstance(node.ctx, (ast.Store, ast.Del)):
                self._access(attr, node, "write")
            else:
                self._access(attr, node, "read")
            return
        self.generic(node)

    def visit_Call(self, node):
        func = node.func
        name = None
        if isinstance(func, ast.Attribute):
            name = func.attr
            attr = self._self_attr(func)
            if attr is not None:
                # self.method(...) -- record for the exemption call
                # graph; the attribute itself is not state traffic.
                self.method.self_calls.add(attr)
            else:
                self.visit(func.value)
        elif isinstance(func, ast.Name):
            name = func.id
        else:
            self.visit(func)
        if name is not None and self.locks:
            self.method.locked_calls.append(LockedCall(
                name=name, lineno=node.lineno,
                col_offset=node.col_offset, lock=self._held()))
        for arg in node.args:
            self.visit(arg)
        for keyword in node.keywords:
            self.visit(keyword.value)

    def visit_If(self, node):
        attr = self._lazy_test_attr(node.test)
        if attr is not None and self._body_assigns(node.body, attr):
            self.method.lazy_inits.append(LazyInit(
                attr=attr, lineno=node.lineno,
                col_offset=node.col_offset, lock=self._held()))
        self.generic(node)

    def _lazy_test_attr(self, test):
        """attr for ``self.X is None`` / ``not self.X`` tests."""
        if (isinstance(test, ast.Compare) and len(test.ops) == 1
                and isinstance(test.ops[0], ast.Is)
                and isinstance(test.comparators[0], ast.Constant)
                and test.comparators[0].value is None):
            return self._self_attr(test.left)
        if (isinstance(test, ast.UnaryOp)
                and isinstance(test.op, ast.Not)):
            return self._self_attr(test.operand)
        if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
            for value in test.values:
                attr = self._lazy_test_attr(value)
                if attr is not None:
                    return attr
        return None

    def _body_assigns(self, body, attr):
        for statement in body:
            for sub in ast.walk(statement):
                if (isinstance(sub, ast.Attribute)
                        and isinstance(sub.ctx, ast.Store)
                        and self._self_attr(sub) == attr):
                    return True
        return False


def _method_nodes(class_node):
    for statement in class_node.body:
        if isinstance(statement, (ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
            yield statement


def _self_param(fn_node):
    """Receiver name, or None for static/class methods."""
    for decorator in fn_node.decorator_list:
        if (isinstance(decorator, ast.Name)
                and decorator.id in ("staticmethod", "classmethod")):
            return None
    positional = fn_node.args.posonlyargs + fn_node.args.args
    return positional[0].arg if positional else None


def _extract_class(class_node):
    info = ClassInfo(name=class_node.name, lineno=class_node.lineno,
                     col_offset=class_node.col_offset,
                     node=class_node)

    # Pass 1: the lock inventory -- factory assignments anywhere in
    # the class body (``self._lock = threading.RLock()``).
    for fn_node in _method_nodes(class_node):
        self_name = _self_param(fn_node)
        if self_name is None:
            continue
        for node in ast.walk(fn_node):
            if not isinstance(node, ast.Assign):
                continue
            if not _lock_factory_call(node.value):
                continue
            for target in node.targets:
                if (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == self_name):
                    info.lock_attrs.setdefault(target.attr,
                                               node.lineno)

    # Pass 2: per-method effects under the with-lock stack.
    for fn_node in _method_nodes(class_node):
        self_name = _self_param(fn_node)
        method = MethodInfo(name=fn_node.name, lineno=fn_node.lineno,
                            node=fn_node, self_name=self_name)
        info.methods.setdefault(fn_node.name, method)
        if self_name is None:
            continue
        visitor = _MethodVisitor(method, info.lock_attrs)
        visitor.walk(fn_node.body)
        # with-only locks (``with self._lock:`` but no factory
        # assignment in this class): injected or inherited locks
        # still count as the class holding a lock.
        for lock in method.locks_used:
            if lock not in info.lock_attrs:
                info.with_only_locks.add(lock)

    return info


def extract_classes(module):
    """Every class in the module as a :class:`ClassInfo` (cached)."""
    cached = getattr(module, "_concurrency_classes", None)
    if cached is not None:
        return cached
    classes = [_extract_class(node)
               for node in ast.walk(module.tree)
               if isinstance(node, ast.ClassDef)]
    module._concurrency_classes = classes
    return classes


def _all_locks(cls):
    return set(cls.lock_attrs) | cls.with_only_locks


# ---------------------------------------------------------------------------
# RC03x -- concurrency rules (class scope)
# ---------------------------------------------------------------------------


@register_rule(
    "RC030", name="unlocked-shared-write", severity=ERROR,
    scope="class",
    summary="attribute written both under a lock and outside it")
def check_unlocked_shared_write(cls, module):
    locks = _all_locks(cls)
    if not locks:
        return
    guarded = {}
    for method in cls.methods.values():
        for access in method.accesses:
            if (access.lock is not None
                    and access.kind in ("write", "rmw")):
                guarded.setdefault(access.attr,
                                   (method.name, access.lineno))
    if not guarded:
        return
    exempt = cls.exempt_methods()
    for name, method in sorted(cls.methods.items()):
        if name in exempt:
            continue
        for access in method.accesses:
            if (access.kind == "write" and access.lock is None
                    and access.attr in guarded
                    and access.attr not in locks):
                where = guarded[access.attr]
                yield module.finding(
                    "RC030", access,
                    f"{cls.name}.{access.attr} is written under "
                    f"self.{_lock_of(cls, access.attr)} (e.g. "
                    f"{where[0]}:{where[1]}) but {name}() writes it "
                    "with no lock held; every write to a guarded "
                    "attribute must hold the same lock",
                    stage=cls.name)


def _lock_of(cls, attr):
    """Best-effort name of the lock guarding ``attr`` (for messages)."""
    for method in cls.methods.values():
        for access in method.accesses:
            if (access.attr == attr and access.lock is not None
                    and access.kind in ("write", "rmw")):
                return access.lock
    locks = sorted(_all_locks(cls))
    return locks[0] if locks else "<lock>"


@register_rule(
    "RC031", name="unguarded-read-modify-write", severity=ERROR,
    scope="class",
    summary="read-modify-write of lock-guarded attributes outside "
            "the lock")
def check_unguarded_rmw(cls, module):
    if not _all_locks(cls):
        return
    guarded = cls.guarded_attrs()
    if not guarded:
        return
    exempt = cls.exempt_methods()
    for name, method in sorted(cls.methods.items()):
        if name in exempt:
            continue
        for assign in method.assigns:
            if assign.lock is not None:
                continue
            written = set(assign.targets) & guarded
            read = assign.rhs_reads & guarded
            if not written or not read:
                continue
            pair = sorted(written | read)
            yield module.finding(
                "RC031", assign,
                f"{cls.name}.{name}() updates {pair} outside "
                f"self.{_lock_of(cls, pair[0])}: the read and the "
                "write are not atomic, so a concurrent update in "
                "between is lost (the metrics-flush watermark bug "
                "shape) -- move the read-modify-write under the lock",
                stage=cls.name)


@register_rule(
    "RC032", name="expensive-call-under-lock", severity=WARNING,
    scope="class",
    summary="known-expensive call (graph search, W1/DTW kernel, "
            "sleep, I/O) while holding a lock")
def check_expensive_call_under_lock(cls, module):
    exempt = cls.exempt_methods()
    for name, method in sorted(cls.methods.items()):
        if name in exempt:
            continue
        for call in method.locked_calls:
            if call.name not in EXPENSIVE_CALLS:
                continue
            yield module.finding(
                "RC032", call,
                f"{cls.name}.{name}() calls {call.name}() while "
                f"holding self.{call.lock}: every other thread "
                "blocks on the lock for the whole computation -- "
                "probe under the lock, compute outside it, install "
                "under the lock (the matcher-LRU idiom)",
                stage=cls.name)


@register_rule(
    "RC033", name="unguarded-lazy-init", severity=WARNING,
    scope="class",
    summary="lazy initialization of a shared attribute without the "
            "double-checked-locking idiom")
def check_unguarded_lazy_init(cls, module):
    locks = _all_locks(cls)
    if not locks:
        return
    exempt = cls.exempt_methods()
    for name, method in sorted(cls.methods.items()):
        if name in exempt:
            continue
        for lazy in method.lazy_inits:
            if lazy.lock is not None or lazy.attr in locks:
                continue
            yield module.finding(
                "RC033", lazy,
                f"{cls.name}.{name}() lazily initializes "
                f"self.{lazy.attr} with no lock held: two first "
                "callers race the build and later readers may see a "
                "half-installed value -- use the repo idiom (fast "
                "unguarded read of an atomically installed object, "
                "then re-check and build under the lock; see "
                "docs/STATIC_ANALYSIS.md)",
                stage=cls.name)


def _getstate_keeps_lock(method, lock_attr):
    """Whether ``__getstate__`` fails to drop ``lock_attr``.

    Returns True only when the method provably copies ``__dict__``
    (or ``vars(self)``) and never ``pop``s / ``del``s the lock key;
    selective literal-dict states that simply omit the lock are clean.
    """
    node = method.node
    copies_dict = False
    for sub in ast.walk(node):
        # An explicit drop always wins, whatever built the state --
        # including ``state = super().__getstate__()`` then ``pop``.
        if (isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr == "pop" and sub.args
                and isinstance(sub.args[0], ast.Constant)
                and sub.args[0].value == lock_attr):
            return False
        if isinstance(sub, ast.Delete):
            for target in sub.targets:
                if (isinstance(target, ast.Subscript)
                        and isinstance(target.slice, ast.Constant)
                        and target.slice.value == lock_attr):
                    return False
        if isinstance(sub, ast.Attribute) and sub.attr == "__dict__":
            copies_dict = True
        elif (isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Name)
                and sub.func.id == "vars"):
            copies_dict = True
    if copies_dict:
        return True  # wholesale __dict__ copy with no drop observed
    # Literal / selective state: flag only an explicit inclusion of
    # the lock key.
    return any(isinstance(sub, ast.Constant) and sub.value == lock_attr
               for sub in ast.walk(node))


@register_rule(
    "RC034", name="lock-in-pickled-state", severity=WARNING,
    scope="class",
    summary="lock-bearing class whose pickled state keeps the lock "
            "(or that defines no __getstate__ at all)")
def check_lock_in_pickled_state(cls, module):
    if not cls.lock_attrs:
        return  # with-only locks may be owned (and dropped) elsewhere
    getstate = cls.methods.get("__getstate__")
    if getstate is None:
        attr, lineno = min(cls.lock_attrs.items(),
                           key=lambda item: item[1])
        anchor = _Anchor(lineno)
        yield module.finding(
            "RC034", anchor,
            f"{cls.name} owns self.{attr} but defines no "
            "__getstate__: instances cannot be pickled, which "
            "breaks ProcessExecutor shipping and makes cache "
            "fingerprints depend on warm private state -- drop the "
            "lock (and any warm caches) in __getstate__ and rebuild "
            "them in __setstate__, or mark a deliberately "
            "process-local class with `# noqa: RC034 -- <why>`",
            stage=cls.name)
        return
    for attr, lineno in sorted(cls.lock_attrs.items()):
        if _getstate_keeps_lock(getstate, attr):
            yield module.finding(
                "RC034", _Anchor(getstate.lineno),
                f"{cls.name}.__getstate__ copies __dict__ but never "
                f"drops self.{attr}: the lock rides into the pickle "
                "and ProcessExecutor shipping fails at serialization "
                f"time -- state.pop({attr!r}, None) and rebuild the "
                "lock in __setstate__",
                stage=cls.name)


class _Anchor:
    """Minimal lineno/col carrier for ModuleInfo.finding."""

    __slots__ = ("lineno", "col_offset")

    def __init__(self, lineno, col=0):
        self.lineno = lineno
        self.col_offset = col
