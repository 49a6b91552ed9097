"""DevTools-style inspectors over a loaded engine.

Text dumps of the DOM tree, layer tree, and a DevTools-Coverage-like
combined JS+CSS coverage report — handy when developing workloads and in
examples/tests.
"""

from __future__ import annotations

from typing import List, Optional

from .engine import BrowserEngine
from .html.dom import Element, Node, TextNode


def dump_dom(
    engine: BrowserEngine, max_depth: int = 6, max_text: int = 30
) -> str:
    """Indented DOM tree (elements with id/class, truncated text)."""
    if engine.document is None:
        return "(no document)"
    lines: List[str] = []

    def walk(node: Node, depth: int) -> None:
        indent = "  " * depth
        if isinstance(node, TextNode):
            text = node.text.strip().replace("\n", " ")
            if text:
                shown = text[:max_text] + ("…" if len(text) > max_text else "")
                lines.append(f'{indent}"{shown}"')
            return
        if not isinstance(node, Element):
            return
        ident = f" id={node.element_id}" if node.element_id else ""
        cls = f" class={' '.join(node.classes)}" if node.classes else ""
        lines.append(f"{indent}<{node.tag}{ident}{cls}>")
        if depth < max_depth:
            for child in node.children:
                walk(child, depth + 1)
        elif node.children:
            lines.append(f"{indent}  … ({len(node.children)} children)")

    walk(engine.document.root, 0)
    return "\n".join(lines)


def dump_layers(engine: BrowserEngine) -> str:
    """Layer tree with tile/raster/presentation statistics."""
    compositor = engine.compositor
    lines = [
        f"frames drawn: {compositor.frame_count}, draw plans built: "
        f"{compositor.plans_built}",
        "layer tree (z order, bottom to top):",
    ]
    for layer in compositor.layers:
        paint = layer.paint
        owner = paint.owner.element_id or paint.owner.tag if paint.owner else "(root)"
        tiles = list(layer.tiles.values())
        rastered = sum(1 for t in tiles if t.rastered)
        presented = sum(1 for t in tiles if t.marked)
        lines.append(
            f"  z={paint.z_index:>3d} {owner:<16s} bounds={paint.bounds} "
            f"opaque={paint.opaque} items={len(paint.items)} "
            f"tiles={len(tiles)} rastered={rastered} presented={presented}"
        )
    return "\n".join(lines)


def coverage_report(engine: BrowserEngine) -> str:
    """Combined JS+CSS byte coverage, DevTools-Coverage style."""
    lines = ["coverage (bytes used / total):"]
    if engine.interp is not None:
        for script in engine.interp.coverage.scripts():
            used = script.used_bytes()
            lines.append(
                f"  JS  {script.name:<24s} {used:>8d} / {script.total_bytes:>8d} "
                f"({used / script.total_bytes:>4.0%})" if script.total_bytes else
                f"  JS  {script.name:<24s} (empty)"
            )
    for sheet in engine.cssom.sheets:
        if not sheet.source_bytes:
            continue
        used = sheet.used_bytes()
        lines.append(
            f"  CSS {sheet.name:<24s} {used:>8d} / {sheet.source_bytes:>8d} "
            f"({used / sheet.source_bytes:>4.0%})"
        )
    return "\n".join(lines)
