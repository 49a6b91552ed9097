"""Test-side reference: the compositor draw, every draw worked out afresh.

:func:`reference_draw_frame` is
:meth:`repro.browser.compositor.host.CompositorHost.draw_frame` as it
ran before draws replayed a cached plan: tile geometry, occlusion,
framebuffer cells, the value snapshot and its digest are recomputed on
every draw.  ``test_draw_plan.py`` patches it in as ``draw_frame`` and
checks every draw of the plan-replaying host against it.  Kept as it
was, the way ``tests/profiler/frames_reference.py`` keeps the old frame
loop.
"""

from __future__ import annotations

import hashlib
from typing import List, Tuple

from repro.machine.tracer import TILE_MARKER


def reference_draw_frame(self) -> Tuple[int, ...]:
    """Draw visible tiles into the framebuffer; returns its cells."""
    tracer = self.ctx.tracer
    viewport = self.viewport_rect()
    self.frame_count += 1
    snapshot: List[Tuple] = [("scroll", round(self.scroll_y, 3))]
    with tracer.function("cc::LayerTreeHostImpl::DrawLayers"), self.ctx.lock(
        "cc:lock:tree"
    ).held():
        for order, layer in enumerate(self.layers):
            tracer.compare_and_branch(
                "layer_visible", reads=(layer.property_cell,)
            )
            if not self._effective_bounds(layer).intersects(viewport):
                continue
            for tile in layer.tiles.values():
                effective = self._effective_tile_rect(layer, tile)
                content = effective.intersection(self._effective_bounds(layer))
                visible_part = (
                    content.intersection(viewport) if content is not None else None
                )
                if visible_part is None or not tile.rastered:
                    continue
                if self.occluded(layer, visible_part):
                    continue
                if not tile.marked:
                    # A prepainted tile scrolled into view: its pixels
                    # are now going to the display; anchor the
                    # criterion here (equivalent to instrumenting the
                    # draw-quad upload).
                    tracer.marker(TILE_MARKER, cells=tile.pixel_cells())
                    tile.marked = True
                snapshot.append(self._tile_snapshot(order, layer, tile, visible_part))
                tracer.op(
                    "draw_quad",
                    reads=tile.pixel_cells()[:8] + (layer.property_cell,),
                    writes=self._fb_cells_for(visible_part, viewport),
                )
                # Texture upload to the GPU process: reads pixels,
                # writes nothing the renderer reads back.
                if tile.col % 2 == 0:
                    self.ctx.plain_helper(
                        "glTexSubImage2D", reads=tile.pixel_cells()[8:10]
                    )
        self.ctx.maybe_debug_event()
    digest = hashlib.sha256(repr(snapshot).encode()).hexdigest()
    self.frame_digests.append(digest)
    return self.framebuffer.all_cells()
