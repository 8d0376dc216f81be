"""Project symbol graph for the flow-aware simlint rules.

Per-file :class:`ModuleSymbols` summaries are extracted from the AST
(no imports are executed) and combined into a :class:`ProjectGraph`:

* which functions are **simulated-process generators** — generators
  reachable from a kernel spawn site (``sim.process(f(...))`` /
  ``Process(sim, f(...))``), generators whose yields are event-factory
  calls, or generators whose bare name escapes as a value (the
  callback-spawned rank-body pattern), closed over ``yield from``
  delegation and nested spawns;
* which functions **mutate** which shared containers (``self.attr``
  in-place mutations keyed by class, module-global mutations keyed by
  module) — feeds SL021;
* which named **RNG streams** (attributes/globals assigned from
  ``default_rng(...)`` or ``RngRegistry.stream(...)``) are drawn from
  which process generators — feeds SL022.

The call-graph resolution is deliberately name-based and
over-approximate: a ``self.f`` spawn matches any same-named method,
preferring the caller's own class and module.  For a linter that is
the right trade — a missed edge silently hides a hazard, an extra
edge at worst analyses one more function.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

__all__ = ["FunctionSymbol", "ModuleSymbols", "ProjectGraph",
           "extract_symbols", "build_graph", "iter_functions", "own_walk",
           "MUTATOR_METHODS", "RNG_DRAW_METHODS"]

#: In-place container mutators — calling one of these on a shared
#: container counts as a mutation for SL021's cross-function index.
MUTATOR_METHODS = frozenset({
    "append", "extend", "insert", "remove", "pop", "clear", "update",
    "add", "discard", "setdefault", "popitem", "sort", "reverse",
})

#: numpy.random.Generator draw methods — consuming the stream.
RNG_DRAW_METHODS = frozenset({
    "random", "integers", "choice", "shuffle", "permutation", "uniform",
    "normal", "standard_normal", "exponential", "poisson", "binomial",
    "gamma", "beta", "bytes",
})

_RNG_FACTORY_ATTRS = frozenset({"stream", "default_rng"})
_MUTABLE_GLOBAL_FACTORIES = frozenset({
    "list", "dict", "set", "bytearray", "defaultdict", "deque",
    "OrderedDict", "Counter",
})
_EVENT_FACTORY_ATTRS = frozenset({
    "timeout", "process", "event", "all_of", "any_of",
})
_EVENT_FACTORY_NAMES = frozenset({"Timeout", "Event", "AllOf", "AnyOf",
                                  "Process"})

#: A by-name reference to a callable: ("self", m) for ``self.m``,
#: ("name", f) for a bare name, ("attr", m) for ``<expr>.m``.
Ref = Tuple[str, str]


def own_walk(node: ast.AST) -> Iterator[ast.AST]:
    """Walk ``node``'s body excluding nested function/lambda bodies.

    The nested ``def``s themselves are *not* yielded either: their
    headers (decorators, defaults) belong to the enclosing scope but
    none of the flow rules care about them, and skipping them keeps
    ``yield``/mutation attribution unambiguous.
    """
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.Lambda)):
            continue
        yield child
        stack.extend(ast.iter_child_nodes(child))


def iter_functions(tree: ast.Module) -> Iterator[
        Tuple[str, Optional[str], ast.AST]]:
    """Yield ``(dotted_name, enclosing_class, func_node)`` for every
    function in ``tree``, including nested ones (``make_body.body``)."""

    def visit(node: ast.AST, stack: List[str], cls: Optional[str]
              ) -> Iterator[Tuple[str, Optional[str], ast.AST]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                dotted = ".".join(stack + [child.name])
                yield dotted, cls, child
                yield from visit(child, stack + [child.name], cls)
            elif isinstance(child, ast.ClassDef):
                yield from visit(child, stack + [child.name], child.name)
            else:
                yield from visit(child, stack, cls)

    yield from visit(tree, [], None)


def _callable_ref(node: ast.AST) -> Optional[Ref]:
    """Name-based reference for a spawned/delegated callable."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Name):
        return ("name", node.id)
    if isinstance(node, ast.Attribute):
        if isinstance(node.value, ast.Name) and node.value.id == "self":
            return ("self", node.attr)
        return ("attr", node.attr)
    return None


def _root_name(node: ast.AST) -> Optional[str]:
    """The base Name of an attribute/subscript chain, else None."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _is_self_attr(node: ast.AST) -> Optional[str]:
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "self"):
        return node.attr
    return None


def _is_rng_factory_call(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr in _RNG_FACTORY_ATTRS
    if isinstance(func, ast.Name):
        return func.id == "default_rng"
    return False


@dataclass
class FunctionSymbol:
    """Flow-relevant facts about one function."""

    dotted: str
    cls: Optional[str]
    lineno: int
    is_generator: bool = False
    yields_event_factory: bool = False
    spawn_targets: List[Ref] = field(default_factory=list)
    delegate_targets: List[Ref] = field(default_factory=list)
    self_mutations: List[Tuple[str, int]] = field(default_factory=list)
    global_mutations: List[Tuple[str, int]] = field(default_factory=list)
    rng_draws: List[Ref] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.dotted.rsplit(".", 1)[-1]


@dataclass
class ModuleSymbols:
    """Everything the graph needs to know about one file."""

    relpath: str
    functions: List[FunctionSymbol] = field(default_factory=list)
    rng_class_attrs: List[Tuple[str, str]] = field(default_factory=list)
    rng_globals: List[str] = field(default_factory=list)
    mutable_globals: List[str] = field(default_factory=list)
    value_ref_names: List[str] = field(default_factory=list)


def _spawned_arg(call: ast.Call) -> Optional[ast.AST]:
    """The generator expression a spawn call runs, or None."""
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr == "process":
        return call.args[0] if call.args else None
    if isinstance(func, ast.Name) and func.id == "Process":
        return call.args[1] if len(call.args) > 1 else None
    if isinstance(func, ast.Attribute) and func.attr == "Process":
        return call.args[1] if len(call.args) > 1 else None
    return None


def _extract_function(dotted: str, cls: Optional[str],
                      func: ast.AST) -> FunctionSymbol:
    sym = FunctionSymbol(dotted=dotted, cls=cls, lineno=func.lineno)
    for node in own_walk(func):
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            sym.is_generator = True
            if isinstance(node, ast.YieldFrom):
                ref = _callable_ref(node.value)
                if ref is not None:
                    sym.delegate_targets.append(ref)
            elif isinstance(node.value, ast.Call):
                f = node.value.func
                if ((isinstance(f, ast.Attribute)
                     and f.attr in _EVENT_FACTORY_ATTRS)
                        or (isinstance(f, ast.Name)
                            and f.id in _EVENT_FACTORY_NAMES)):
                    sym.yields_event_factory = True
        elif isinstance(node, ast.Call):
            spawned = _spawned_arg(node)
            if spawned is not None:
                ref = _callable_ref(spawned)
                if ref is not None:
                    sym.spawn_targets.append(ref)
            func_expr = node.func
            if (isinstance(func_expr, ast.Attribute)
                    and func_expr.attr in MUTATOR_METHODS):
                attr = _is_self_attr(func_expr.value)
                if attr is not None:
                    sym.self_mutations.append((attr, node.lineno))
                elif isinstance(func_expr.value, ast.Name):
                    sym.global_mutations.append(
                        (func_expr.value.id, node.lineno))
            if (isinstance(func_expr, ast.Attribute)
                    and func_expr.attr in RNG_DRAW_METHODS):
                attr = _is_self_attr(func_expr.value)
                if attr is not None:
                    sym.rng_draws.append(("self", attr))
                elif isinstance(func_expr.value, ast.Name):
                    sym.rng_draws.append(("global", func_expr.value.id))
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                if isinstance(target, ast.Subscript):
                    attr = _is_self_attr(target.value)
                    if attr is not None:
                        sym.self_mutations.append((attr, node.lineno))
                    elif isinstance(target.value, ast.Name):
                        sym.global_mutations.append(
                            (target.value.id, node.lineno))
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Subscript):
                    attr = _is_self_attr(target.value)
                    if attr is not None:
                        sym.self_mutations.append((attr, node.lineno))
                    elif isinstance(target.value, ast.Name):
                        sym.global_mutations.append(
                            (target.value.id, node.lineno))
    return sym


def extract_symbols(tree: ast.Module, relpath: str) -> ModuleSymbols:
    """Summarise one parsed file."""
    mod = ModuleSymbols(relpath=relpath)
    rng_class_attrs: Set[Tuple[str, str]] = set()
    rng_globals: Set[str] = set()
    mutable_globals: Set[str] = set()
    value_refs: Set[str] = set()
    called: Set[int] = set()

    for dotted, cls, func in iter_functions(tree):
        mod.functions.append(_extract_function(dotted, cls, func))
        if cls is not None:
            for node in own_walk(func):
                if isinstance(node, ast.Assign):
                    for target in node.targets:
                        attr = _is_self_attr(target)
                        if attr and _is_rng_factory_call(node.value):
                            rng_class_attrs.add((cls, attr))

    for stmt in tree.body:
        value = None
        targets: List[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            value, targets = stmt.value, stmt.targets
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            value, targets = stmt.value, [stmt.target]
        if value is None:
            continue
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            if _is_rng_factory_call(value):
                rng_globals.add(target.id)
            if isinstance(value, (ast.List, ast.Dict, ast.Set)):
                mutable_globals.add(target.id)
            elif (isinstance(value, ast.Call)
                  and isinstance(value.func, ast.Name)
                  and value.func.id in _MUTABLE_GLOBAL_FACTORIES):
                mutable_globals.add(target.id)

    # Bare names loaded as values (not as the called function): a
    # generator whose name escapes this way is being handed to a
    # spawner somewhere (``return body``, callback registration).
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            called.add(id(node.func))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                and id(node) not in called):
            value_refs.add(node.id)

    mod.rng_class_attrs = sorted(rng_class_attrs)
    mod.rng_globals = sorted(rng_globals)
    mod.mutable_globals = sorted(mutable_globals)
    mod.value_ref_names = sorted(value_refs)
    return mod


@dataclass
class ProjectGraph:
    """Cross-file facts consumed by the SL020–SL023 flow rules.

    ``qualname`` throughout is ``"<relpath>::<dotted>"``, e.g.
    ``"metasched/service.py::MetaScheduler._feeder"``.
    """

    modules: Dict[str, ModuleSymbols]
    process_generators: FrozenSet[str]
    self_mutators: Dict[Tuple[str, str], Tuple[Tuple[str, int], ...]]
    global_mutators: Dict[Tuple[str, str], Tuple[Tuple[str, int], ...]]
    rng_class_attrs: FrozenSet[Tuple[str, str]]
    rng_globals: FrozenSet[Tuple[str, str]]
    rng_drawers: Dict[Tuple[str, str, str], Tuple[str, ...]]

    def qualname(self, relpath: str, dotted: str) -> str:
        return f"{relpath}::{dotted}"


def build_graph(modules: Dict[str, ModuleSymbols]) -> ProjectGraph:
    """Combine per-file summaries into the project graph."""
    all_funcs: Dict[str, Tuple[str, FunctionSymbol]] = {}
    by_name: Dict[str, List[str]] = {}
    by_cls_name: Dict[Tuple[str, str], List[str]] = {}
    by_mod_name: Dict[Tuple[str, str], List[str]] = {}
    for rel, mod in modules.items():
        for sym in mod.functions:
            qual = f"{rel}::{sym.dotted}"
            all_funcs[qual] = (rel, sym)
            by_name.setdefault(sym.name, []).append(qual)
            if sym.cls is not None:
                by_cls_name.setdefault((sym.cls, sym.name), []).append(qual)
            by_mod_name.setdefault((rel, sym.name), []).append(qual)

    def resolve(ref: Ref, from_rel: str,
                from_cls: Optional[str]) -> List[str]:
        kind, name = ref
        if kind == "self" and from_cls is not None:
            hits = by_cls_name.get((from_cls, name))
            if hits:
                return hits
        if kind in ("self", "name"):
            hits = by_mod_name.get((from_rel, name))
            if hits:
                return hits
        return by_name.get(name, [])

    # --- process-generator seeds ------------------------------------
    seeds: Set[str] = set()
    for qual, (rel, sym) in all_funcs.items():
        if sym.is_generator and sym.yields_event_factory:
            seeds.add(qual)
        if (sym.is_generator
                and sym.name in modules[rel].value_ref_names):
            seeds.add(qual)
        for ref in sym.spawn_targets:
            for target in resolve(ref, rel, sym.cls):
                if all_funcs[target][1].is_generator:
                    seeds.add(target)

    # Closure over yield-from delegation and nested spawns.
    process_gens: Set[str] = set()
    work = sorted(seeds)
    while work:
        qual = work.pop()
        if qual in process_gens:
            continue
        process_gens.add(qual)
        rel, sym = all_funcs[qual]
        for ref in sym.delegate_targets + sym.spawn_targets:
            for target in resolve(ref, rel, sym.cls):
                if (all_funcs[target][1].is_generator
                        and target not in process_gens):
                    work.append(target)

    # --- mutation indexes (SL021) -----------------------------------
    self_mut: Dict[Tuple[str, str], List[Tuple[str, int]]] = {}
    global_mut: Dict[Tuple[str, str], List[Tuple[str, int]]] = {}
    for qual, (rel, sym) in all_funcs.items():
        if sym.cls is not None:
            for attr, lineno in sym.self_mutations:
                self_mut.setdefault((sym.cls, attr), []).append(
                    (qual, lineno))
        mutable = set(modules[rel].mutable_globals)
        for name, lineno in sym.global_mutations:
            if name in mutable:
                global_mut.setdefault((rel, name), []).append((qual, lineno))

    # --- shared RNG streams (SL022) ---------------------------------
    rng_cls: Set[Tuple[str, str]] = set()
    rng_glob: Set[Tuple[str, str]] = set()
    for rel, mod in modules.items():
        rng_cls.update(mod.rng_class_attrs)
        rng_glob.update((rel, name) for name in mod.rng_globals)

    drawers: Dict[Tuple[str, str, str], Set[str]] = {}
    for qual in sorted(process_gens):
        rel, sym = all_funcs[qual]
        for kind, name in sym.rng_draws:
            if kind == "self" and sym.cls is not None:
                if (sym.cls, name) in rng_cls:
                    drawers.setdefault(("cls", sym.cls, name),
                                       set()).add(qual)
            elif kind == "global" and (rel, name) in rng_glob:
                drawers.setdefault(("global", rel, name), set()).add(qual)

    return ProjectGraph(
        modules=dict(modules),
        process_generators=frozenset(process_gens),
        self_mutators={k: tuple(sorted(v)) for k, v in self_mut.items()},
        global_mutators={k: tuple(sorted(v)) for k, v in global_mut.items()},
        rng_class_attrs=frozenset(rng_cls),
        rng_globals=frozenset(rng_glob),
        rng_drawers={k: tuple(sorted(v)) for k, v in drawers.items()},
    )


def single_file_graph(tree: ast.Module, relpath: str) -> ProjectGraph:
    """Graph for one file in isolation (fixtures, ad-hoc lint_source)."""
    return build_graph({relpath: extract_symbols(tree, relpath)})


def symbols_for_source(source: str, relpath: str) -> ModuleSymbols:
    """Parse and summarise; unparseable files get an empty summary."""
    try:
        tree = ast.parse(source, filename=relpath)
    except SyntaxError:
        return ModuleSymbols(relpath=relpath)
    return extract_symbols(tree, relpath)
