"""Dirty-bit lattice for the invalidation-driven frame pipeline.

A DOM mutation does not invalidate the whole pipeline: writing
``style.color`` changes painted output but no geometry, while replacing
``textContent`` (same font, same box) changes geometry inputs but not the
computed style of the element itself.  Each mutation therefore carries an
*invalidation level* describing the most expensive pipeline stage it can
affect:

======== ==================== ======================================
level    stages re-run        typical trigger
======== ==================== ======================================
STYLE    style+layout+paint   class/attribute change, structural
                              mutation (append/remove child)
LAYOUT   layout+paint         text content replacement
PAINT    style+paint          paint-only CSS property (color,
                              background-color) via the style proxy
======== ==================== ======================================

``STYLE`` is the top of the lattice; ``LAYOUT`` and ``PAINT`` are
incomparable (one skips style recalc, the other skips layout), so joining
two distinct levels widens to ``STYLE``.  See
docs/incremental-pipeline.md for the full propagation rules.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from .html.dom import Document, Element

#: Full invalidation: recompute style, layout, and paint for the subtree.
STYLE = "style"
#: Geometry-only invalidation: keep computed styles, re-run layout+paint.
LAYOUT = "layout"
#: Paint-only invalidation: recompute style (the changed declarations live
#: there) and re-record display items, but keep the layout tree.
PAINT = "paint"

#: All valid levels, for validation.
LEVELS = (STYLE, LAYOUT, PAINT)

#: Which pipeline stages each level dirties.
NEEDS_STYLE_RESOLVE = {STYLE: True, LAYOUT: False, PAINT: True}
NEEDS_LAYOUT = {STYLE: True, LAYOUT: True, PAINT: False}


def join(a: str, b: str) -> str:
    """Least upper bound of two invalidation levels.

    Equal levels join to themselves; any two distinct levels join to
    ``STYLE`` (the top), because LAYOUT and PAINT dirty disjoint stages
    and only the full pipeline covers both.
    """
    if a not in LEVELS or b not in LEVELS:
        raise ValueError(f"unknown invalidation level: {a!r} join {b!r}")
    return a if a == b else STYLE


def is_connected(element: Element, document: Document) -> bool:
    """True if ``element`` is attached to ``document``'s tree.

    Mutations on detached subtrees (removed children still referenced
    from JS) must not dirty the pipeline — their boxes are already gone
    and re-rendering them would be exactly the kind of unnecessary work
    the profiler measures.
    """
    node = element
    while node.parent is not None:
        node = node.parent
    return node is document.root


class DirtySet:
    """Per-frame accumulator of dirty elements with invalidation levels.

    Levels join monotonically (marking an element twice widens, never
    narrows).  ``roots()`` collapses the set so nested dirty elements are
    covered by their closest dirty ancestor — re-rendering an ancestor
    subtree subsumes every descendant's invalidation.
    """

    def __init__(self) -> None:
        self._levels: Dict[Element, str] = {}

    def __len__(self) -> int:
        return len(self._levels)

    def __bool__(self) -> bool:
        return bool(self._levels)

    def __contains__(self, element: Element) -> bool:
        return element in self._levels

    def mark(self, element: Element, level: str = STYLE) -> None:
        previous = self._levels.get(element)
        self._levels[element] = level if previous is None else join(previous, level)

    def clear(self) -> None:
        self._levels.clear()

    def elements(self) -> Iterable[Element]:
        return self._levels.keys()

    def roots(self) -> List[Tuple[Element, str]]:
        """Minimal covering set of (element, level) pairs.

        An element whose ancestor is also dirty is dropped, after joining
        its level into the ancestor's — the ancestor's re-render covers
        the descendant, but must run the widest pipeline either needs.
        """
        levels = dict(self._levels)
        covered = []
        for element in list(levels):
            ancestor = element.parent
            owner = None
            while ancestor is not None:
                if ancestor in levels:
                    owner = ancestor
                ancestor = ancestor.parent
            if owner is not None:
                covered.append((element, owner))
        for element, owner in covered:
            levels[owner] = join(levels[owner], levels.pop(element))
        return list(levels.items())
