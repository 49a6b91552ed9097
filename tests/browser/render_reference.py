"""Test-side reference: the paint of the live DOM, rendered from scratch.

:func:`reference_layers` styles, lays out and paints an engine's live
DOM afresh, the way the load frame renders it: a fresh
``StyleResolver`` over the live CSSOM, a whole-document layout, and a
``Painter`` given the engine's decoded images.  It runs in a throwaway
:class:`~repro.browser.context.EngineContext`, so its records go to its
own tracer.  Two things it leaves in the live engine move no display
item: the DOM cells it allocates land in the live address space
(:func:`layer_tree` holds no cell ids), and the rules it matches are
marked matched in the live CSSOM (only CSS coverage reads that).
``test_render_reference.py`` compares every update frame's display
lists and layer tree with it.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.browser import BrowserEngine
from repro.browser.context import EngineContext
from repro.browser.layout.engine import LayoutEngine
from repro.browser.paint.display_list import PaintLayer
from repro.browser.paint.painter import Painter
from repro.browser.style.resolver import StyleResolver


def reference_layers(engine: BrowserEngine) -> List[PaintLayer]:
    """The paint layers a from-scratch render of ``engine``'s DOM gives."""
    ctx = EngineContext(engine.ctx.config)
    ctx.spawn_threads()
    resolver = StyleResolver(ctx, engine.cssom)
    resolver.resolve_document(engine.document)
    tree = LayoutEngine(ctx, resolver).layout_document(engine.document)
    painter = Painter(ctx)
    painter.image_regions.update(engine.painter.image_regions)
    return painter.paint_document(tree)


def layer_tree(layers: List[PaintLayer]) -> List[Tuple]:
    """What ``layers`` put on screen, in paint order: per layer the
    owner's node id (None for the root layer), the z-index, and each
    item's ``(snapshot_values(), owner_id)``."""
    return [
        (
            None if layer.owner is None else layer.owner.node_id,
            layer.z_index,
            [(item.snapshot_values(), item.owner_id) for item in layer.items],
        )
        for layer in layers
    ]
