"""Document Object Model.

A real tree of elements and text nodes, each backed by abstract memory
cells so that dataflow through the DOM (parser writes fields, style/layout
read them, JavaScript mutates them) is visible to the slicer.

Cells per node are allocated lazily through :meth:`Node.cell`: ``tag``,
``links`` (tree structure), one cell per attribute, ``text`` for text
nodes, and later stages add ``style:<prop>`` and ``layout:<axis>`` cells.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from ..context import EngineContext

#: Elements that never have children (HTML void elements).
VOID_ELEMENTS = frozenset(
    "area base br col embed hr img input link meta param source track wbr".split()
)


class Node:
    """Base class for DOM nodes."""

    def __init__(self, ctx: EngineContext) -> None:
        self.ctx = ctx
        self.node_id = ctx.next_node_id()
        self.parent: Optional["Element"] = None
        self._cells: Dict[str, int] = {}

    def cell(self, field: str) -> int:
        """Abstract memory cell backing ``field`` of this node."""
        addr = self._cells.get(field)
        if addr is None:
            addr = self.ctx.memory.alloc_cell(f"dom:{self.node_id}:{field}")
            self._cells[field] = addr
        return addr

    def ancestors(self) -> Iterator["Element"]:
        node = self.parent
        while node is not None:
            yield node
            node = node.parent


class TextNode(Node):
    """A run of character data."""

    def __init__(self, ctx: EngineContext, text: str) -> None:
        super().__init__(ctx)
        self.text = text

    def __repr__(self) -> str:
        preview = self.text[:24].replace("\n", " ")
        return f"TextNode({preview!r})"


class Element(Node):
    """An element with a tag name, attributes, and children."""

    def __init__(self, ctx: EngineContext, tag: str) -> None:
        super().__init__(ctx)
        self.tag = tag.lower()
        self.attributes: Dict[str, str] = {}
        self.children: List[Node] = []

    # -- structure ------------------------------------------------------ #

    def append_child(self, child: Node) -> Node:
        if child.parent is not None:
            child.parent.children.remove(child)
        child.parent = self
        self.children.append(child)
        return child

    def remove_child(self, child: Node) -> Node:
        self.children.remove(child)
        child.parent = None
        return child

    def child_elements(self) -> List["Element"]:
        return [c for c in self.children if isinstance(c, Element)]

    # -- attributes ------------------------------------------------------ #

    def set_attribute(self, name: str, value: str) -> None:
        self.attributes[name.lower()] = value

    def get_attribute(self, name: str) -> Optional[str]:
        return self.attributes.get(name.lower())

    @property
    def element_id(self) -> Optional[str]:
        return self.attributes.get("id")

    @property
    def classes(self) -> Tuple[str, ...]:
        return tuple(self.attributes.get("class", "").split())

    def has_class(self, name: str) -> bool:
        return name in self.classes

    # -- traversal ------------------------------------------------------- #

    def descendants(self) -> Iterator[Node]:
        """All nodes below this element, depth-first, document order."""
        stack: List[Node] = list(reversed(self.children))
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, Element):
                stack.extend(reversed(node.children))

    def descendant_elements(self) -> Iterator["Element"]:
        for node in self.descendants():
            if isinstance(node, Element):
                yield node

    def text_content(self) -> str:
        parts = []
        for node in self.descendants():
            if isinstance(node, TextNode):
                parts.append(node.text)
        return "".join(parts)

    def __repr__(self) -> str:
        ident = f"#{self.element_id}" if self.element_id else ""
        return f"<{self.tag}{ident} children={len(self.children)}>"


class Document:
    """The document: root element plus lookup indexes."""

    def __init__(self, ctx: EngineContext) -> None:
        self.ctx = ctx
        self.root = Element(ctx, "html")
        self._by_id: Dict[str, Element] = {}

    def register_id(self, element: Element) -> None:
        ident = element.element_id
        if ident:
            self._by_id.setdefault(ident, element)

    def reindex(self) -> None:
        """Rebuild the id index after scripted mutations."""
        self._by_id.clear()
        self.register_id(self.root)
        for element in self.root.descendant_elements():
            self.register_id(element)

    def get_element_by_id(self, ident: str) -> Optional[Element]:
        element = self._by_id.get(ident)
        if element is not None:
            return element
        # Fall back to a scan (mutations may have outdated the index).
        for candidate in self.all_elements():
            if candidate.element_id == ident:
                self._by_id[ident] = candidate
                return candidate
        return None

    def get_elements_by_tag(self, tag: str) -> List[Element]:
        tag = tag.lower()
        return [e for e in self.all_elements() if e.tag == tag]

    def all_elements(self) -> Iterator[Element]:
        yield self.root
        yield from self.root.descendant_elements()

    def body(self) -> Optional[Element]:
        for child in self.root.child_elements():
            if child.tag == "body":
                return child
        return None

    def head(self) -> Optional[Element]:
        for child in self.root.child_elements():
            if child.tag == "head":
                return child
        return None
