"""Abstract syntax tree of the mini-JavaScript language.

Every node has a ``node_id`` (used as a stable emit-site label by the
traced interpreter, so the same static AST node always executes at the
same pc) and a byte ``span`` (for lazy-compilation cost and byte-coverage
accounting).

Nodes are numbered consecutively, in the order they are built, from
the counter of the :func:`numbered_from` block the building thread is
in: each interpreter parses its scripts inside one with its own
counter, so an engine's labels do not depend on what else the process
parsed.  Nodes built outside such a block (the static analyzer's
parses) draw from one process-wide count, so ids stay unique across
every script it reads.

Every concrete node class derives directly from :class:`JSNode`, so
dispatching on a node's exact type finds the branch an ``isinstance``
chain would.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import count
from typing import Iterator, List, Optional, Tuple


class _IdSource(threading.local):
    """The counter new nodes draw their ids from, per thread: the
    process-wide count unless a :func:`numbered_from` block set another."""

    ids: Iterator[int] = count(1)


_source = _IdSource()


def _new_id() -> int:
    return next(_source.ids)


@contextmanager
def numbered_from(ids: Iterator[int]) -> Iterator[None]:
    """Number the nodes this thread builds inside the block from ``ids``."""
    saved = _source.ids
    _source.ids = ids
    try:
        yield
    finally:
        _source.ids = saved


@dataclass
class JSNode:
    span: Tuple[int, int]
    node_id: int = field(default_factory=_new_id, init=False)

    #: the traced interpreter's emit-site labels for this node, formatted
    #: on its first execution (a plain class attribute, not a field, so
    #: comparisons and ``fields()`` see only the syntax)
    labels = None


# --------------------------------------------------------------------- #
# Expressions                                                           #
# --------------------------------------------------------------------- #


@dataclass
class Literal(JSNode):
    value: object = None  # float | str | bool | None


@dataclass
class Identifier(JSNode):
    name: str = ""


@dataclass
class ThisExpr(JSNode):
    pass


@dataclass
class ArrayLiteral(JSNode):
    elements: List[JSNode] = field(default_factory=list)


@dataclass
class ObjectLiteral(JSNode):
    #: (key, value-expression) pairs
    entries: List[Tuple[str, JSNode]] = field(default_factory=list)


@dataclass
class FunctionExpr(JSNode):
    name: Optional[str] = None
    params: List[str] = field(default_factory=list)
    body: List[JSNode] = field(default_factory=list)


@dataclass
class Unary(JSNode):
    op: str = ""
    operand: JSNode = None
    prefix: bool = True


@dataclass
class Binary(JSNode):
    op: str = ""
    left: JSNode = None
    right: JSNode = None


@dataclass
class Logical(JSNode):
    op: str = ""  # "&&" | "||"
    left: JSNode = None
    right: JSNode = None


@dataclass
class Conditional(JSNode):
    test: JSNode = None
    consequent: JSNode = None
    alternate: JSNode = None


@dataclass
class Assignment(JSNode):
    op: str = "="  # "=", "+=", "-=", "*=", "/="
    target: JSNode = None  # Identifier or Member
    value: JSNode = None


@dataclass
class UpdateExpr(JSNode):
    op: str = ""  # "++" | "--"
    target: JSNode = None
    prefix: bool = False


@dataclass
class Member(JSNode):
    obj: JSNode = None
    #: static property name, or None when computed
    prop: Optional[str] = None
    #: computed index expression when ``prop`` is None
    index: Optional[JSNode] = None


@dataclass
class Call(JSNode):
    callee: JSNode = None
    args: List[JSNode] = field(default_factory=list)
    is_new: bool = False


# --------------------------------------------------------------------- #
# Statements                                                            #
# --------------------------------------------------------------------- #


@dataclass
class VarDecl(JSNode):
    kind: str = "var"
    name: str = ""
    init: Optional[JSNode] = None


@dataclass
class FunctionDecl(JSNode):
    func: FunctionExpr = None


@dataclass
class ExpressionStmt(JSNode):
    expr: JSNode = None


@dataclass
class IfStmt(JSNode):
    test: JSNode = None
    consequent: List[JSNode] = field(default_factory=list)
    alternate: List[JSNode] = field(default_factory=list)


@dataclass
class WhileStmt(JSNode):
    test: JSNode = None
    body: List[JSNode] = field(default_factory=list)


@dataclass
class DoWhileStmt(JSNode):
    test: JSNode = None
    body: List[JSNode] = field(default_factory=list)


@dataclass
class ForInStmt(JSNode):
    #: loop variable name (declared with var/let/const or bare)
    name: str = ""
    obj: JSNode = None
    body: List[JSNode] = field(default_factory=list)


@dataclass
class SwitchStmt(JSNode):
    discriminant: JSNode = None
    #: (case test expression or None for default, statements)
    cases: List[Tuple[Optional[JSNode], List[JSNode]]] = field(default_factory=list)


@dataclass
class ForStmt(JSNode):
    init: Optional[JSNode] = None
    test: Optional[JSNode] = None
    update: Optional[JSNode] = None
    body: List[JSNode] = field(default_factory=list)


@dataclass
class ReturnStmt(JSNode):
    value: Optional[JSNode] = None


@dataclass
class BreakStmt(JSNode):
    pass


@dataclass
class ContinueStmt(JSNode):
    pass


@dataclass
class ThrowStmt(JSNode):
    value: JSNode = None


@dataclass
class TryStmt(JSNode):
    block: List[JSNode] = field(default_factory=list)
    #: catch parameter name (None when there is no catch clause)
    param: Optional[str] = None
    handler: List[JSNode] = field(default_factory=list)
    finally_body: List[JSNode] = field(default_factory=list)


@dataclass
class Program(JSNode):
    body: List[JSNode] = field(default_factory=list)
