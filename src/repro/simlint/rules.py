"""The simlint rule set: simulator-discipline checks for the repro tree.

Every rule is a pure function from ``(node, FileContext)`` to an
iterator of ``(node, message)`` pairs, registered in :data:`RULES` via
the :func:`rule` decorator together with the node types it inspects.
The engine (``repro.simlint.engine``) walks each file once, hands every
node to the checks registered for its type, turns the pairs into
:class:`~repro.simlint.findings.Finding` records and applies
suppression comments.

The rules are grounded in how this repository actually achieves
byte-identical same-seed runs (see DESIGN.md §5):

* the kernel clock (``Simulator.now``) is the *only* time source, so
  any wall-clock read is a replayability bug (SL001);
* all randomness flows through ``repro.sim.rng.RngRegistry`` streams,
  so the global ``random`` / legacy ``numpy.random`` state is banned
  (SL002);
* placement and allocation loops must visit work in a deterministic
  order, so bare ``set``/``frozenset`` iteration is banned (SL003) and
  ``id()``-based ordering (which varies with the allocator) is banned
  (SL004);
* CPython ``dict`` iteration is insertion-ordered and therefore
  deterministic under same-seed execution, which is why SL003 does
  *not* flag plain dict/``.keys()`` loops;
* process coroutines talk to the kernel only by yielding Events and
  calling public APIs, never by poking agenda internals (SL006, SL007).

See AUTHORING.md in this package for the how-to-add-a-rule guide.
"""

from __future__ import annotations

import ast
import re
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple, Type

from .findings import ERROR, WARNING

__all__ = ["Rule", "FileContext", "RULES", "PARSE_ERROR_ID"]

RuleHits = Iterator[Tuple[ast.AST, str]]
NodeTypes = Tuple[Type[ast.AST], ...]


@dataclass(frozen=True)
class FileContext:
    """Per-file facts shared by every rule.

    ``relpath`` is posix-style, relative to the lint root.  The import
    maps let rules resolve a call site to a dotted module path (e.g.
    ``pc()`` after ``from time import perf_counter as pc`` resolves to
    ``"time.perf_counter"``) without any type inference.
    """

    relpath: str
    module_aliases: Dict[str, str] = field(default_factory=dict)
    from_imports: Dict[str, str] = field(default_factory=dict)

    @property
    def in_kernel_package(self) -> bool:
        """True for files inside the ``sim`` package itself, which are
        allowed to touch kernel-private state (SL006 exemption)."""
        return "sim" in self.relpath.split("/")[:-1]

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Dotted path of a Name/Attribute expression, through imports.

        Returns e.g. ``"numpy.random.rand"`` for ``np.random.rand``
        after ``import numpy as np``, or None when the expression is
        not a plain dotted chain rooted in an imported name.
        """
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        base = node.id
        if base in self.module_aliases:
            parts.append(self.module_aliases[base])
        elif base in self.from_imports:
            parts.append(self.from_imports[base])
        else:
            parts.append(base)
        return ".".join(reversed(parts))


def build_context(relpath: str, tree: ast.Module) -> FileContext:
    """Collect the import maps for ``tree``."""
    ctx = FileContext(relpath=relpath)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                ctx.module_aliases[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
                # `import a.b.c` binds `a`, but `import a.b.c as x`
                # binds x to the full dotted path.
                if alias.asname:
                    ctx.module_aliases[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                if alias.name != "*":
                    ctx.from_imports[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )
    return ctx


Check = Callable[[ast.AST, FileContext], RuleHits]


@dataclass(frozen=True)
class Rule:
    """A registered simlint rule: ``check`` runs on every node of a
    type in ``nodes``."""

    id: str
    severity: str
    summary: str
    hint: str
    nodes: NodeTypes
    check: Check


RULES: Dict[str, Rule] = {}

#: Pseudo-rule the engine emits when a file does not decode or parse.
#: It inspects no nodes; it exists so reports and suppressions treat
#: such files like any other finding.
PARSE_ERROR_ID = "SL000"


def rule(id: str, severity: str, summary: str, hint: str, nodes: NodeTypes):
    """Register a checker of ``nodes`` under ``id`` (see AUTHORING.md)."""

    def register(check: Check):
        RULES[id] = Rule(id=id, severity=severity, summary=summary,
                         hint=hint, nodes=nodes, check=check)
        return check

    return register


def _none_checker(node: ast.AST, ctx: FileContext) -> RuleHits:
    return iter(())


RULES[PARSE_ERROR_ID] = Rule(
    id=PARSE_ERROR_ID, severity=ERROR,
    summary="file does not decode or parse",
    hint="fix the syntax error; nothing else can be checked",
    nodes=(), check=_none_checker)


# ---------------------------------------------------------------------------
# SL001 — wall-clock reads in simulation code
# ---------------------------------------------------------------------------

_WALL_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns", "time.clock_gettime", "time.clock_gettime_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})


@rule("SL001", ERROR,
      "wall-clock read in simulation code",
      "use the kernel clock (sim.now); wall-clock reads make same-seed "
      "runs diverge across machines and break trace replay",
      nodes=(ast.Call,))
def check_wall_clock(node: ast.Call, ctx: FileContext) -> RuleHits:
    dotted = ctx.resolve(node.func)
    if dotted in _WALL_CLOCK_CALLS:
        yield node, f"call to {dotted}()"


# ---------------------------------------------------------------------------
# SL002 — global RNG state instead of seeded repro.sim.rng streams
# ---------------------------------------------------------------------------

_LEGACY_NP_RANDOM = frozenset({
    "seed", "random", "rand", "randn", "randint", "random_integers",
    "random_sample", "ranf", "sample", "choice", "shuffle", "permutation",
    "uniform", "normal", "standard_normal", "exponential", "poisson",
    "binomial", "beta", "gamma", "bytes", "get_state", "set_state",
})


@rule("SL002", ERROR,
      "global random state instead of a seeded Generator",
      "draw from a named repro.sim.rng.RngRegistry stream (or an "
      "explicitly passed numpy.random.Generator); the global random "
      "module shares hidden state across subsystems",
      nodes=(ast.Import, ast.ImportFrom, ast.Call))
def check_global_random(node: ast.Import | ast.ImportFrom | ast.Call,
                        ctx: FileContext) -> RuleHits:
    if isinstance(node, ast.Import):
        for alias in node.names:
            if alias.name == "random" or alias.name.startswith("random."):
                yield node, "import of the global random module"
    elif isinstance(node, ast.ImportFrom):
        if node.module == "random" and not node.level:
            yield node, "from-import of the global random module"
    else:
        dotted = ctx.resolve(node.func)
        if dotted is None:
            return
        if dotted.startswith("random."):
            yield node, f"call to the global {dotted}()"
        elif dotted.startswith("numpy.random."):
            tail = dotted.split(".")[-1]
            if tail in _LEGACY_NP_RANDOM:
                yield node, (f"call to {dotted}() — the legacy global "
                             "numpy RandomState")


# ---------------------------------------------------------------------------
# SL003 — iteration over unordered sets without sorted()
# ---------------------------------------------------------------------------

_SET_METHODS = frozenset({
    "union", "intersection", "difference", "symmetric_difference",
})
#: Consumers whose result depends on element *order* (unlike len/sum/
#: min/max/any/all/sorted, which are order-insensitive and allowed).
_ORDERED_CONSUMERS = frozenset({"list", "tuple", "iter", "enumerate"})


def _is_set_expr(node: ast.AST, set_names: Set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name):
        return node.id in set_names
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
        return (_is_set_expr(node.left, set_names)
                or _is_set_expr(node.right, set_names))
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return True
        if isinstance(func, ast.Attribute) and func.attr in _SET_METHODS:
            return _is_set_expr(func.value, set_names) or isinstance(
                func.value, (ast.Set, ast.SetComp))
    return False


def _iterated_operands(node: ast.AST) -> List[ast.expr]:
    """The expressions ``node`` iterates in order-sensitive ways."""
    if isinstance(node, ast.For):
        return [node.iter]
    if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                         ast.DictComp)):
        return [g.iter for g in node.generators]
    if isinstance(node, ast.Call) and node.args:
        func = node.func
        if ((isinstance(func, ast.Name) and func.id in _ORDERED_CONSUMERS)
                or (isinstance(func, ast.Attribute) and func.attr == "join")):
            return [node.args[0]]
    elif isinstance(node, ast.Starred):
        return [node.value]
    return []


def _set_iterations(scope: ast.AST, outer: Tuple[Set[str], ...]
                    ) -> Iterator[ast.expr]:
    """Set iterations in ``scope`` (the module or one function), given
    the set-bound names of its enclosing scopes, outermost first.

    One breadth-first pass over the scope's own nodes, stopping at
    nested function definitions, collects its assignments and
    iteration sites.  The scope's set-bound names are the targets
    assigned a syntactically-set value, in two passes so ``b = a``
    after ``a = set()`` is caught.  A site is judged against each
    enclosing scope's names, outermost first, and reports the operands
    that match the first scope with any match.  Nested functions are
    then visited with this scope's names appended.
    """
    assigns: List[Tuple[ast.expr, List[ast.expr]]] = []
    sites: List[List[ast.expr]] = []
    nested: List[ast.AST] = []
    queue = deque(ast.iter_child_nodes(scope))
    while queue:
        node = queue.popleft()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            nested.append(node)
            continue
        if isinstance(node, ast.Assign):
            assigns.append((node.value, node.targets))
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            assigns.append((node.value, [node.target]))
        elif isinstance(node, ast.AugAssign):
            assigns.append((node.value, [node.target]))
        iters = _iterated_operands(node)
        if iters:
            sites.append(iters)
        queue.extend(ast.iter_child_nodes(node))
    names: Set[str] = set()
    for _ in range(2):
        for value, targets in assigns:
            if _is_set_expr(value, names):
                names.update(target.id for target in targets
                             if isinstance(target, ast.Name))
    chain = (*outer, names)
    for iters in sites:
        for set_names in chain:
            hits = [it for it in iters if _is_set_expr(it, set_names)]
            if hits:
                yield from hits
                break
    for node in nested:
        yield from _set_iterations(node, chain)


@rule("SL003", ERROR,
      "iteration over an unordered set without sorted()",
      "wrap the iterable in sorted(...); set iteration order varies "
      "with PYTHONHASHSEED and allocation history, which changes "
      "placement/allocation order and breaks byte-identical traces "
      "(dict iteration is insertion-ordered and exempt)",
      nodes=(ast.Module,))
def check_set_iteration(tree: ast.Module, ctx: FileContext) -> RuleHits:
    for it in _set_iterations(tree, ()):
        yield it, "unordered iteration over a set"


# ---------------------------------------------------------------------------
# SL004 — id()-based ordering or tie-breaking
# ---------------------------------------------------------------------------

def _is_id_key(node: ast.AST) -> bool:
    if isinstance(node, ast.Name) and node.id == "id":
        return True
    if isinstance(node, ast.Lambda) and isinstance(node.body, ast.Call):
        func = node.body.func
        return isinstance(func, ast.Name) and func.id == "id"
    return False


@rule("SL004", ERROR,
      "id()-based ordering or tie-break",
      "order by a stable key (name, sequence number, interned index); "
      "id() values depend on the allocator and differ run to run "
      "(membership tests on id() are fine — only ordering is flagged)",
      nodes=(ast.Call, ast.Compare))
def check_id_ordering(node: ast.Call | ast.Compare,
                      ctx: FileContext) -> RuleHits:
    if isinstance(node, ast.Call):
        for kw in node.keywords:
            if kw.arg == "key" and _is_id_key(kw.value):
                yield node, "key=id passed to an ordering function"
    elif any(isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE))
             for op in node.ops):
        for operand in (node.left, *node.comparators):
            if (isinstance(operand, ast.Call)
                    and isinstance(operand.func, ast.Name)
                    and operand.func.id == "id"):
                yield node, "relational comparison of id() values"
                break


# ---------------------------------------------------------------------------
# SL005 — float == on simulation-time values
# ---------------------------------------------------------------------------

_TIME_NAME = re.compile(
    r"(?:^|_)(now|when|deadline|makespan|eta|time)$"
    r"|_(at|ts|seconds)$"
    r"|^t[0-9]?$")


def _is_time_operand(node: ast.AST) -> bool:
    if isinstance(node, ast.Attribute):
        return bool(_TIME_NAME.search(node.attr))
    if isinstance(node, ast.Name):
        return bool(_TIME_NAME.search(node.id))
    return False


@rule("SL005", WARNING,
      "exact float equality on a simulation-time value",
      "compare times with an explicit tolerance (math.isclose or an "
      "epsilon) or restructure so the kernel hands you the event; "
      "accumulated float error makes exact time equality fragile",
      nodes=(ast.Compare,))
def check_time_equality(node: ast.Compare, ctx: FileContext) -> RuleHits:
    operands = [node.left, *node.comparators]
    if (any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)
            and any(_is_time_operand(o) for o in operands)):
        yield node, "== / != on a time-valued expression"


# ---------------------------------------------------------------------------
# SL006 — kernel/queue state mutated outside the sim package
# ---------------------------------------------------------------------------

_KERNEL_PRIVATE_ATTRS = frozenset({
    "_agenda", "_now", "_seq",
})
_KERNEL_PRIVATE_CALLS = frozenset({"_schedule", "_queue_event"})


@rule("SL006", ERROR,
      "kernel-private state touched outside repro.sim",
      "go through the public kernel API (timeout/process/event/"
      "add_callback, call_at/call_after); direct agenda or callback-"
      "list surgery bypasses the deterministic event ordering",
      nodes=(ast.Attribute, ast.Call))
def check_kernel_state(node: ast.Attribute | ast.Call,
                       ctx: FileContext) -> RuleHits:
    if ctx.in_kernel_package:
        return
    if isinstance(node, ast.Attribute):
        if node.attr == "_agenda":
            # Even *reading* the agenda couples callers to heap
            # internals (and every known read feeds a heapq call).
            yield node, "access to the kernel-private ._agenda heap"
        elif (node.attr in _KERNEL_PRIVATE_ATTRS
                and isinstance(node.ctx, (ast.Store, ast.Del))):
            yield node, f"write to kernel-private .{node.attr}"
        elif node.attr == "callbacks" and isinstance(node.ctx, ast.Store):
            yield node, "direct assignment to an Event's .callbacks"
        return
    func = node.func
    if isinstance(func, ast.Attribute):
        if func.attr in _KERNEL_PRIVATE_CALLS:
            yield node, f"call to kernel-private .{func.attr}()"
        elif (func.attr in ("append", "remove", "insert", "clear")
              and isinstance(func.value, ast.Attribute)
              and func.value.attr == "callbacks"):
            yield node, "direct mutation of an Event's .callbacks list"


# ---------------------------------------------------------------------------
# SL007 — yielding non-Event values from a sim-process coroutine
# ---------------------------------------------------------------------------

_EVENT_FACTORY_ATTRS = frozenset({"timeout", "process", "event"})
_EVENT_FACTORY_NAMES = frozenset({"Timeout", "Event", "AllOf", "Process"})


def _own_yields(func: ast.AST) -> List[ast.Yield]:
    """Yield nodes of ``func`` itself, excluding nested functions."""
    yields: List[ast.Yield] = []
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        if isinstance(node, ast.Yield):
            yields.append(node)
        stack.extend(ast.iter_child_nodes(node))
    return yields


def _yields_event_factory(yields: List[ast.Yield]) -> bool:
    for y in yields:
        value = y.value
        if isinstance(value, ast.Call):
            func = value.func
            if isinstance(func, ast.Attribute):
                if func.attr in _EVENT_FACTORY_ATTRS:
                    return True
            elif isinstance(func, ast.Name):
                if func.id in _EVENT_FACTORY_NAMES:
                    return True
    return False


@rule("SL007", ERROR,
      "sim-process coroutine yields a non-Event value",
      "every yield in a process body must produce an Event (timeout/"
      "process/event/AllOf or another process); the kernel "
      "fails the process at runtime when it yields anything else",
      nodes=(ast.FunctionDef, ast.AsyncFunctionDef))
def check_process_yields(node: ast.FunctionDef | ast.AsyncFunctionDef,
                         ctx: FileContext) -> RuleHits:
    yields = _own_yields(node)
    if not yields or not _yields_event_factory(yields):
        return
    for y in yields:
        value = y.value
        if value is None:
            yield y, "bare yield (yields None, not an Event)"
        elif isinstance(value, ast.Constant):
            yield y, f"yield of the constant {value.value!r}"
        elif isinstance(value, (ast.Tuple, ast.List, ast.Dict, ast.Set,
                                ast.ListComp, ast.SetComp, ast.DictComp)):
            yield y, "yield of a container literal, not an Event"


# ---------------------------------------------------------------------------
# SL008 — mutable default arguments
# ---------------------------------------------------------------------------

_MUTABLE_FACTORIES = frozenset({"list", "dict", "set", "bytearray",
                                "defaultdict", "deque"})


def _is_mutable_default(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set,
                         ast.ListComp, ast.SetComp, ast.DictComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None)
        return name in _MUTABLE_FACTORIES
    return False


@rule("SL008", WARNING,
      "mutable default argument",
      "default to None and create the container in the body (or use a "
      "tuple/frozenset); the shared default accumulates state across "
      "calls and across same-seed runs within one process",
      nodes=(ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
def check_mutable_defaults(
        node: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda,
        ctx: FileContext) -> RuleHits:
    args = node.args
    for default in (*args.defaults, *args.kw_defaults):
        if default is not None and _is_mutable_default(default):
            yield default, "mutable default argument value"


# ---------------------------------------------------------------------------
# SL009 — salted builtin hash() in simulation logic
# ---------------------------------------------------------------------------

@rule("SL009", WARNING,
      "builtin hash() in simulation logic",
      "builtin hash() of str/bytes is salted per process "
      "(PYTHONHASHSEED), so hash-derived values differ across runs; "
      "use a stable hash (see repro.sim.rng._stable_hash) or key by "
      "the value itself",
      nodes=(ast.Call,))
def check_builtin_hash(node: ast.Call, ctx: FileContext) -> RuleHits:
    if isinstance(node.func, ast.Name) and node.func.id == "hash":
        yield node, "call to the salted builtin hash()"


# ---------------------------------------------------------------------------
# SL010 — ambient process/host entropy in simulation code
# ---------------------------------------------------------------------------

_AMBIENT_CALLS = frozenset({
    "os.urandom", "os.getpid", "os.getppid", "os.getenv", "os.cpu_count",
    "uuid.uuid1", "uuid.uuid4", "socket.gethostname", "platform.node",
})


@rule("SL010", ERROR,
      "ambient process/host entropy read in simulation code",
      "inject configuration and seeds explicitly (constructor args, "
      "RngRegistry); environment variables, pids, hostnames and "
      "urandom make runs machine-dependent",
      nodes=(ast.Call, ast.Attribute))
def check_ambient_entropy(node: ast.Call | ast.Attribute,
                          ctx: FileContext) -> RuleHits:
    if isinstance(node, ast.Call):
        dotted = ctx.resolve(node.func)
        if dotted is not None and (dotted in _AMBIENT_CALLS
                                   or dotted.startswith("secrets.")):
            yield node, f"call to {dotted}()"
    elif node.attr == "environ" and ctx.resolve(node) == "os.environ":
        yield node, "read of os.environ"
