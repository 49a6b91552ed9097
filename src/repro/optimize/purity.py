"""Side-effect / escape analysis over the jsstatic call graph.

Every function (and every script top level) gets a :class:`PurityInfo`:
a headline verdict on the four-point lattice

    ``PURE < LOCAL_WRITE < DOM_WRITE < GLOBAL_ESCAPE``

plus the individual effect facets the lattice cannot express — a
function can write globals yet be DOM-free, which is exactly the case
the deferral pass needs to recognize (an analytics library mutates its
own session object but never paints).

Direct effects come from one syntactic pass over each region's body
(nested function bodies excluded: their effects only happen when *they*
run).  Effects then propagate interprocedurally along the call graph's
``DIRECT`` and ``CALLBACK`` edges — the two synchronous kinds — to a
fixpoint.  ``HANDLER``/``TIMER`` edges are *registrations*: running the
region schedules the callee for later, so the region records the
registration fact but does not absorb the callee's effects.  A call to a
name that resolves to no known function and no known builtin is an
``unknown call`` and poisons the verdict to ``GLOBAL_ESCAPE`` — the
analysis never guesses.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from ..browser.js import ast
from ..jsstatic.callgraph import (
    CALLBACK_METHODS,
    CallGraph,
    EdgeKind,
    RegionKey,
    TIMER_FUNCTIONS,
    region_of,
)


class Purity(enum.IntEnum):
    """Headline effect verdict; higher values subsume lower ones."""

    PURE = 0
    LOCAL_WRITE = 1
    DOM_WRITE = 2
    GLOBAL_ESCAPE = 3


#: member stores that mutate the rendered document
_DOM_WRITE_PROPS = frozenset({"textContent", "innerHTML"})
#: element/document methods that mutate the rendered document
_DOM_MUTATOR_METHODS = frozenset({"setAttribute", "appendChild", "removeChild"})
#: methods whose effects the engine bounds: DOM reads, allocation, math,
#: string ops, and array ops (array mutators touch only their receiver,
#: which the receiver-locality check classifies separately)
_KNOWN_METHODS = frozenset(
    {
        "getElementById", "querySelector", "querySelectorAll",
        "getAttribute", "createElement", "createTextNode",
        "stringify", "keys", "now", "pow", "floor", "ceil", "abs",
        "max", "min", "round", "sqrt", "random",
        "indexOf", "slice", "charAt", "split", "toUpperCase",
        "toLowerCase", "replace", "substring", "join", "concat",
    }
    | CALLBACK_METHODS
)
#: array methods that write through their receiver
_RECEIVER_MUTATOR_METHODS = frozenset({"push", "pop"})
#: methods that perform IO (trace syscalls)
_IO_METHODS = frozenset({"log", "warn", "error", "sendBeacon"})
#: global functions the runtime installs (callable without a user binding)
_BUILTIN_GLOBALS = frozenset(
    {"parseInt", "parseFloat", "String", "Number", "__tripwire"}
    | TIMER_FUNCTIONS
)


@dataclass
class PurityInfo:
    """Effect summary for one region (function body or script top level)."""

    level: Purity = Purity.PURE
    local_write: bool = False
    dom_write: bool = False
    global_write: bool = False
    io: bool = False
    #: registration facts: "timer", "handler:<event type>" ("handler:?"
    #: when the event name is not a string literal)
    registers: Set[str] = field(default_factory=set)
    #: called names/methods the analysis could not resolve
    unknown_calls: Set[str] = field(default_factory=set)
    #: names of the global bindings written ("*" = a store through a
    #: base the analysis cannot name, e.g. ``a[i].p = v``)
    global_writes: Set[str] = field(default_factory=set)

    def join(self, other: "PurityInfo") -> bool:
        """Absorb ``other``'s effects; True if anything changed."""
        before = (
            self.local_write, self.dom_write, self.global_write, self.io,
            len(self.registers), len(self.unknown_calls),
            len(self.global_writes),
        )
        self.local_write |= other.local_write
        self.dom_write |= other.dom_write
        self.global_write |= other.global_write
        self.io |= other.io
        self.registers |= other.registers
        self.unknown_calls |= other.unknown_calls
        self.global_writes |= other.global_writes
        self._roll_up()
        return before != (
            self.local_write, self.dom_write, self.global_write, self.io,
            len(self.registers), len(self.unknown_calls),
            len(self.global_writes),
        )

    def _roll_up(self) -> None:
        if self.global_write or self.io or self.unknown_calls:
            self.level = Purity.GLOBAL_ESCAPE
        elif self.dom_write:
            self.level = Purity.DOM_WRITE
        elif self.local_write:
            self.level = Purity.LOCAL_WRITE
        else:
            self.level = Purity.PURE


class _EffectScanner:
    """One intraprocedural pass: direct effects of a region's body."""

    def __init__(self, info: PurityInfo, local_names: Set[str]) -> None:
        self.info = info
        self.locals = local_names
        #: locals only ever bound to fresh ``[]``/``{}`` allocations —
        #: the only locals whose member stores are provably frame-local
        #: (any other local may alias a shared object)
        self.fresh_locals: Set[str] = set()
        #: called global names, resolved interprocedurally later
        self.called_names: Set[str] = set()
        #: (name, call node) for identifier calls — lets the page-level
        #: pass consult value-flow call-site resolutions
        self.named_calls: List[Tuple[str, ast.Call]] = []
        #: (".prop", call node) for method calls with unmodeled receivers;
        #: unknown unless value flow resolved the site
        self.unknown_method_calls: List[Tuple[str, ast.Call]] = []

    def scan_body(self, body: List[ast.JSNode]) -> None:
        self.fresh_locals = _fresh_locals(body, self.locals)
        for stmt in body:
            self.scan(stmt)

    def scan(self, node: ast.JSNode) -> None:
        if isinstance(node, ast.FunctionExpr):
            return  # nested bodies run later; the call graph covers them
        if isinstance(node, ast.FunctionDecl):
            return
        if isinstance(node, ast.Assignment):
            self._scan_store(node.target)
            self.scan(node.value)
            if not isinstance(node.target, ast.Identifier):
                self.scan(node.target)
            return
        if isinstance(node, ast.UpdateExpr):
            self._scan_store(node.target)
            if not isinstance(node.target, ast.Identifier):
                self.scan(node.target)
            return
        if isinstance(node, ast.ForInStmt):
            # The loop variable is a var-scoped local of the region.
            self.locals.add(node.name)
            self.scan(node.obj)
            self.scan_body(node.body)
            return
        if isinstance(node, ast.Call):
            self._scan_call(node)
            return
        if isinstance(node, ast.SwitchStmt):
            self.scan(node.discriminant)
            for test, case_body in node.cases:
                if test is not None:
                    self.scan(test)
                self.scan_body(case_body)
            return
        for child in _children(node):
            self.scan(child)

    def _scan_store(self, target: ast.JSNode) -> None:
        if isinstance(target, ast.Identifier):
            if target.name in self.locals:
                self.info.local_write = True
            else:
                self.info.global_write = True
                self.info.global_writes.add(target.name)
            return
        if isinstance(target, ast.Member):
            if target.prop in _DOM_WRITE_PROPS:
                self.info.dom_write = True
                return
            if (
                isinstance(target.obj, ast.Member)
                and target.obj.prop == "style"
            ):
                self.info.dom_write = True
                return
            if (
                isinstance(target.obj, ast.Identifier)
                and target.obj.name in self.fresh_locals
            ):
                # Store into a frame-local allocation.
                self.info.local_write = True
                return
            # A heap store through a member: the receiver may be shared.
            self.info.global_write = True
            if (
                isinstance(target.obj, ast.Identifier)
                and target.obj.name not in self.locals
            ):
                self.info.global_writes.add(target.obj.name)
            else:
                self.info.global_writes.add("*")
            return
        self.info.global_write = True
        self.info.global_writes.add("*")

    def _scan_call(self, node: ast.Call) -> None:
        callee = node.callee
        if isinstance(callee, ast.Identifier):
            name = callee.name
            if name in TIMER_FUNCTIONS:
                self.info.registers.add("timer")
            elif name not in _BUILTIN_GLOBALS:
                self.called_names.add(name)
                self.named_calls.append((name, node))
        elif isinstance(callee, ast.Member):
            prop = callee.prop
            if prop == "addEventListener":
                event = "?"
                if node.args and isinstance(node.args[0], ast.Literal) and (
                    isinstance(node.args[0].value, str)
                ):
                    event = node.args[0].value
                self.info.registers.add(f"handler:{event}")
            elif prop in _DOM_MUTATOR_METHODS:
                self.info.dom_write = True
            elif prop in _IO_METHODS:
                self.info.io = True
            elif prop in _RECEIVER_MUTATOR_METHODS:
                if (
                    isinstance(callee.obj, ast.Identifier)
                    and callee.obj.name in self.fresh_locals
                ):
                    self.info.local_write = True
                else:
                    self.info.global_write = True
                    if (
                        isinstance(callee.obj, ast.Identifier)
                        and callee.obj.name not in self.locals
                    ):
                        self.info.global_writes.add(callee.obj.name)
                    else:
                        self.info.global_writes.add("*")
            elif prop in _KNOWN_METHODS:
                pass  # bounded effects
            elif prop is None:
                # Computed-member call: may invoke any stored function.
                # Unknown unless value flow resolved the site.
                self.unknown_method_calls.append((".<computed>", node))
            else:
                self.unknown_method_calls.append((f".{prop}", node))
            self.scan(callee.obj)
            if callee.index is not None:
                self.scan(callee.index)
        else:
            self.scan(callee)
        for arg in node.args:
            self.scan(arg)


def _children(node: ast.JSNode) -> List[ast.JSNode]:
    out: List[ast.JSNode] = []
    for name, value in vars(node).items():
        if name in ("span", "node_id"):
            continue
        if isinstance(value, ast.JSNode):
            out.append(value)
        elif isinstance(value, (list, tuple)):
            for item in value:
                if isinstance(item, ast.JSNode):
                    out.append(item)
                elif isinstance(item, tuple):
                    out.extend(s for s in item if isinstance(s, ast.JSNode))
    return out


def _fresh_locals(body: List[ast.JSNode], local_names: Set[str]) -> Set[str]:
    """Locals whose every binding in ``body`` is a fresh ``[]``/``{}``.

    Parameters and for-in variables are never fresh (their values come
    from the caller / the iterated object), and one non-literal
    assignment disqualifies a name.
    """
    bound: Dict[str, bool] = {}

    def _note(name: str, value: ast.JSNode) -> None:
        fresh = isinstance(value, (ast.ArrayLiteral, ast.ObjectLiteral))
        bound[name] = bound.get(name, True) and fresh

    def _walk(node: ast.JSNode) -> None:
        if isinstance(node, ast.FunctionExpr):
            return
        if isinstance(node, ast.VarDecl):
            if node.init is not None:
                _note(node.name, node.init)
                _walk(node.init)
            else:
                bound.setdefault(node.name, True)
            return
        if isinstance(node, ast.ForInStmt):
            bound[node.name] = False
            _walk(node.obj)
            for stmt in node.body:
                _walk(stmt)
            return
        if isinstance(node, ast.Assignment) and isinstance(
            node.target, ast.Identifier
        ):
            _note(node.target.name, node.value)
            _walk(node.value)
            return
        for child in _children(node):
            _walk(child)

    for stmt in body:
        _walk(stmt)
    return {
        name for name, fresh in bound.items()
        if fresh and name in local_names
    }


def _declared_names(body: List[ast.JSNode], acc: Set[str]) -> None:
    """var/function names bound in a body (function-level scoping: the
    walk enters blocks/loops but not nested function bodies)."""
    for stmt in body:
        _collect_decls(stmt, acc)


def _collect_decls(node: ast.JSNode, acc: Set[str]) -> None:
    if isinstance(node, ast.FunctionExpr):
        return
    if isinstance(node, ast.VarDecl):
        acc.add(node.name)
        if node.init is not None:
            _collect_decls(node.init, acc)
        return
    if isinstance(node, ast.FunctionDecl):
        if node.func.name:
            acc.add(node.func.name)
        return
    if isinstance(node, ast.ForInStmt):
        acc.add(node.name)
    for child in _children(node):
        _collect_decls(child, acc)


@dataclass
class PurityAnalysis:
    """Fixpoint purity verdicts for every region of a page."""

    graph: CallGraph
    #: region key -> effect summary (direct + synchronous callees)
    regions: Dict[RegionKey, PurityInfo]
    #: region key -> regions it invokes synchronously (direct + callback)
    sync_callees: Dict[RegionKey, Set[RegionKey]] = field(default_factory=dict)

    def of_function(self, fid: int) -> PurityInfo:
        return self.regions[("fn", str(fid))]

    def of_script(self, url: str) -> PurityInfo:
        return self.regions[("top", url)]

    def sync_closure(self, roots: Set[RegionKey]) -> Set[RegionKey]:
        """``roots`` plus every region synchronously reachable from them."""
        seen: Set[RegionKey] = set(roots)
        work: List[RegionKey] = list(roots)
        while work:
            key = work.pop()
            for callee in self.sync_callees.get(key, ()):
                if callee not in seen:
                    seen.add(callee)
                    work.append(callee)
        return seen


def analyze_page_purity(
    graph: CallGraph, programs: Dict[str, ast.Program]
) -> PurityAnalysis:
    """Purity fixpoint over a page: scripts' top levels + every function."""
    by_name: Dict[str, List[int]] = {}
    for info in graph.functions:
        for alias in info.aliases:
            by_name.setdefault(alias, []).append(info.fid)

    regions: Dict[RegionKey, PurityInfo] = {}
    sync_callees: Dict[RegionKey, Set[RegionKey]] = {}

    def _direct(
        key: RegionKey, params: List[str], body: List[ast.JSNode]
    ) -> None:
        local_names: Set[str] = set(params)
        _declared_names(body, local_names)
        info = PurityInfo()
        scanner = _EffectScanner(info, local_names)
        scanner.scan_body(body)
        callees: Set[RegionKey] = set()
        flow = graph.valueflow if (
            graph.valueflow is not None and graph.valueflow.ok
        ) else None

        def _resolved_site(call: ast.Call) -> "List[int] | None":
            """Value-flow target fids when the site is fully resolved."""
            if flow is None:
                return None
            site = flow.sites.get(call.node_id)
            if site is None or site.incomplete:
                return None
            return sorted(site.targets)

        for name, call in scanner.named_calls:
            targets = _resolved_site(call)
            if targets is not None:
                callees.update(("fn", str(fid)) for fid in targets)
                continue
            fids = by_name.get(name)
            if fids:
                callees.update(("fn", str(fid)) for fid in fids)
            else:
                info.unknown_calls.add(name)
        for label, call in scanner.unknown_method_calls:
            targets = _resolved_site(call)
            if targets is not None:
                callees.update(("fn", str(fid)) for fid in targets)
            else:
                info.unknown_calls.add(label)
        for kind, fid in graph.value_edges.get(key, ()):
            # VFLOW edges are resolved synchronous invocations from this
            # region — their effects belong in its summary just like a
            # direct call's (IIFEs and calls through data structures).
            if kind in (EdgeKind.DIRECT, EdgeKind.CALLBACK, EdgeKind.VFLOW):
                callees.add(("fn", str(fid)))
        for kind, name in graph.name_edges.get(key, ()):
            if kind == EdgeKind.CALLBACK:
                for fid in by_name.get(name, ()):
                    callees.add(("fn", str(fid)))
        info._roll_up()
        regions[key] = info
        sync_callees[key] = callees

    for fn in graph.functions:
        _direct(region_of(fn), list(fn.node.params), fn.node.body)
    for url, program in programs.items():
        _direct(("top", url), [], program.body)

    # Interprocedural fixpoint: absorb synchronous callees' effects.
    changed = True
    while changed:
        changed = False
        for key, callees in sync_callees.items():
            info = regions[key]
            for callee in callees:
                target = regions.get(callee)
                if target is not None and info.join(target):
                    changed = True
    return PurityAnalysis(
        graph=graph, regions=regions, sync_callees=sync_callees
    )
