"""Style resolution: cascade + inheritance -> computed styles (traced).

For every element: collect matched rules (bucketed matching), sort by
(importance, specificity, order), apply declarations over the inherited/
initial base, then write the final values into the element's
``style:<property>`` cells.  Inline ``style=""`` attributes apply last
(highest cascade priority short of ``!important``).

The dataflow the slicer sees: matched declaration cells (and the parent's
style cells for inherited properties) flow into each element's style cells,
which layout and paint read downstream.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..context import EngineContext
from ..css.cssom import CSSOM, Declaration
from ..css.parser import parse_declarations
from ..html.dom import Document, Element
from ..css.values import PROPERTIES, is_inherited
from .computed import ComputedStyle
from .matcher import MatchedRule, RuleIndex, match_element
from .ua import ua_defaults_for

#: Inherited properties whose propagation is explicitly traced (one record
#: per element each): the ones downstream stages actually consume.
_TRACED_INHERITED = ("color", "font-size", "line-height", "visibility")


class StyleResolver:
    """Resolves computed styles for a whole document."""

    def __init__(self, ctx: EngineContext, cssom: CSSOM) -> None:
        self.ctx = ctx
        self.cssom = cssom
        self.index = RuleIndex(cssom)
        self.computed: Dict[int, ComputedStyle] = {}
        #: node ids whose computed style is stale (must be re-resolved
        #: before layout/paint may consume it).  Nodes never resolved are
        #: implicitly invalid; this set tracks *re*-invalidations.
        self._invalid: Set[int] = set()

    def mark_invalid(self, element: Element) -> None:
        """Invalidate ``element`` and every descendant element's style."""
        self._invalid.add(element.node_id)
        for child in element.descendant_elements():
            self._invalid.add(child.node_id)

    def resolve_document(self, document: Document) -> Dict[int, ComputedStyle]:
        """Resolve every element, parent before child (DOM order)."""
        with self.ctx.tracer.function("blink::css::StyleResolver::ResolveDocument"):
            self._resolve_subtree(document.root, None)
        return self.computed

    def resolve_subtree(self, element: Element) -> None:
        """Re-resolve one subtree after a scripted mutation."""
        parent_style = None
        if element.parent is not None:
            parent_style = self.computed.get(element.parent.node_id)
        with self.ctx.tracer.function("blink::css::StyleResolver::RecalcStyle"):
            self._resolve_subtree(element, parent_style)

    def style_of(self, element: Element) -> ComputedStyle:
        style = self.computed.get(element.node_id)
        if style is None:
            raise KeyError(f"element {element!r} has no computed style")
        return style

    # ------------------------------------------------------------------ #

    def _resolve_subtree(
        self, element: Element, parent_style: Optional[ComputedStyle]
    ) -> None:
        style = self._resolve_element(element, parent_style)
        self.computed[element.node_id] = style
        self._invalid.discard(element.node_id)
        for child in element.child_elements():
            self._resolve_subtree(child, style)

    def _resolve_element(
        self, element: Element, parent_style: Optional[ComputedStyle]
    ) -> ComputedStyle:
        ctx = self.ctx
        tracer = ctx.tracer
        matched = match_element(ctx, self.index, element)

        style = ComputedStyle.initial()
        if parent_style is not None:
            for name, spec in PROPERTIES.items():
                if spec.inherited:
                    style.values[name] = parent_style.values[name]
        # UA stylesheet defaults cascade below author rules.
        style.values.update(ua_defaults_for(element.tag))

        with tracer.function("blink::css::StyleResolver::ApplyMatchedProperties"):
            # Inheritance dataflow (parent style cells -> child style cells).
            if parent_style is not None and element.parent is not None:
                parent_cells = tuple(
                    element.parent.cell(f"style:{name}") for name in _TRACED_INHERITED
                )
                tracer.op(
                    "inherit",
                    reads=parent_cells,
                    writes=tuple(
                        element.cell(f"style:{name}") for name in _TRACED_INHERITED
                    ),
                )
            # Cascade: later (higher-priority) declarations overwrite.
            ordered = self._ordered_declarations(matched, element)
            for i, (decl, provenance_cell) in enumerate(ordered):
                if decl.name not in PROPERTIES:
                    continue
                style.values[decl.name] = decl.value
                reads = [provenance_cell]
                if decl.cell >= 0:
                    reads.insert(0, decl.cell)
                tracer.op(
                    f"apply{i % 16}",
                    reads=tuple(reads),
                    writes=(element.cell(f"style:{decl.name}"),),
                )
            ctx.maybe_debug_event()
        return style

    def _ordered_declarations(
        self, matched: List[MatchedRule], element: Element
    ) -> List[tuple]:
        """(declaration, provenance cell) pairs, lowest priority first.

        The provenance cell is the matched-rules-list entry (or the inline
        ``style=""`` attribute cell) the declaration came from, so applied
        values carry a data dependence on the element's identity cells.
        """
        ordered: List[tuple] = []
        for match in matched:  # already sorted by (specificity, order)
            ordered.extend(
                (d, match.match_cell)
                for d in match.rule.declarations
                if not d.important
            )
        inline = element.get_attribute("style")
        if inline:
            inline_cell = element.cell("attr:style")
            inline_decls = parse_declarations(inline)
            for decl in inline_decls:
                decl.cell = inline_cell
            ordered.extend((d, inline_cell) for d in inline_decls if not d.important)
        for match in matched:
            ordered.extend(
                (d, match.match_cell)
                for d in match.rule.declarations
                if d.important
            )
        return ordered
