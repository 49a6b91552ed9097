"""The compositor host: commit, tile management, raster, occlusion, draw.

Runs the last stage of the paper's Figure 1 pipeline:

* **commit** (compositor thread) — copies the main thread's display lists
  and layer properties into cc-side structures (the data raster consumes);
* **tile preparation** (compositor thread) — decides which tiles to raster
  (everything in the interest area: viewport + prepaint margin, *including
  occluded layers' backing stores* — Chromium's blind-backing-store
  pitfall) and which of them are actually going to be displayed;
* **raster** (CompositorTileWorker threads) — plays display items back
  into tile pixel buffers; for tiles that will be displayed it emits the
  paper's marker (``xchg %r13w,%r13w`` in
  ``RasterBufferProvider::PlaybackToMemory``) with the tile's pixel cells —
  these are the pixel-slicing criteria;
* **draw** (compositor thread) — reads visible tiles' pixels into the
  framebuffer and hands the frame to the display (an output syscall, so
  syscall-based slicing subsumes pixel-based slicing).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Tuple

from ...machine.memory import MemRegion
from ...machine.tracer import TILE_MARKER
from ..context import EngineContext, PIXEL_BLOCK
from ..layout.geometry import Rect
from ..paint.display_list import DisplayItem, PaintLayer
from .tiles import CompositedLayer, Tile

#: raster fill emit-site labels, one per pixel block modulo 16
_FILL_LABELS = tuple(f"fill_block{i}" for i in range(16))


@dataclass
class RasterTask:
    """A unit of work for a rasterizer thread."""

    layer: CompositedLayer
    tile: Tile
    #: the tile's pixels will be put on the display for the pending frame
    presented: bool
    #: low-resolution duplicate raster (never displayed in steady state)
    low_res: bool = False


class DrawQuad(NamedTuple):
    """One drawn tile of a :class:`DrawPlan`: the cells its draw touches."""

    tile: Tile
    #: ``draw_quad`` reads: the tile's first 8 pixel cells and the
    #: layer's property cell
    reads: Tuple[int, ...]
    #: ``draw_quad`` writes: the framebuffer cells the visible part covers
    writes: Tuple[int, ...]
    #: ``glTexSubImage2D`` reads (even tile columns only), else None
    upload: Optional[Tuple[int, ...]]


class DrawPlan(NamedTuple):
    """What :meth:`CompositorHost.draw_frame` emits, worked out once.

    Valid while the host's :meth:`~CompositorHost._plan_key` equals
    ``key``; a replay emits the same records as a draw worked out afresh.
    """

    key: Tuple[object, ...]
    #: per layer, in draw order: its property cell and its drawn tiles
    layers: Tuple[Tuple[int, Tuple[DrawQuad, ...]], ...]
    #: the frame's semantic digest (see :meth:`CompositorHost.draw_frame`)
    digest: str


class CompositorHost:
    """cc::LayerTreeHostImpl equivalent for the tab."""

    def __init__(self, ctx: EngineContext) -> None:
        self.ctx = ctx
        self.layers: List[CompositedLayer] = []
        vw = ctx.config.viewport_width
        vh = ctx.config.viewport_height
        blocks = max(1, (vw // PIXEL_BLOCK) * (vh // PIXEL_BLOCK))
        self.framebuffer: MemRegion = ctx.memory.alloc("framebuffer", blocks)
        self.scroll_y = 0.0
        self.scroll_cell = ctx.memory.alloc_cell("cc:scroll_offset")
        #: animation timeline state (curve evaluation feeds transforms)
        self.animation_cell = ctx.memory.alloc_cell("cc:animation_timeline")
        self.frame_count = 0
        #: one semantic digest per drawn frame (see :meth:`draw_frame`);
        #: value-based (geometry + colors + content, no cell ids), so two
        #: runs draw identical pixels iff their digest lists are equal.
        self.frame_digests: List[str] = []
        #: bumped by :meth:`commit`, which replaces the layer tree
        self._tree_version = 0
        #: the plan the last draw replayed, and how many were built
        self._plan: Optional[DrawPlan] = None
        self._plans_built = 0

    @property
    def plans_built(self) -> int:
        """Draw plans built so far; the other ``frame_count`` draws replayed one."""
        return self._plans_built

    # ------------------------------------------------------------------ #
    # Commit (compositor thread)                                         #
    # ------------------------------------------------------------------ #

    def commit(self, paint_layers: List[PaintLayer]) -> None:
        """Adopt a new layer tree from the main thread."""
        tracer = self.ctx.tracer
        self.layers = []
        self._tree_version += 1
        with tracer.function("cc::LayerTreeHostImpl::CommitComplete"), self.ctx.lock(
            "cc:lock:tree"
        ).held():
            for paint_layer in paint_layers:
                layer = CompositedLayer(self.ctx, paint_layer)
                self.layers.append(layer)
                tracer.op(
                    "update_property_tree",
                    reads=(
                        paint_layer.owner.cell("layer")
                        if paint_layer.owner is not None
                        else self.scroll_cell,
                    ),
                    writes=(layer.property_cell,),
                )
                self._commit_items(layer)
            # cc keeps layers z-sorted for draw order.
            self.layers.sort(key=lambda l: (l.paint.z_index, l.paint.layer_id))
            self.ctx.maybe_debug_event()

    def _commit_items(self, layer: CompositedLayer) -> None:
        tracer = self.ctx.tracer
        committed = []
        for i, item in enumerate(layer.paint.items):
            cc_cell = self.ctx.memory.alloc_cell(
                f"cc:item:L{layer.paint.layer_id}:{i}"
            )
            tracer.op(
                f"copy_item{i % 32}",
                reads=item.cells,
                writes=(cc_cell,),
            )
            # Insert into the layer's spatial index (rtree), which raster
            # probes to find the items covering each tile.
            tracer.op(
                f"rtree_insert{i % 32}",
                reads=(cc_cell, layer.index_cell),
                writes=(layer.index_cell,),
            )
            committed.append((item, cc_cell))
        layer.commit_items(committed)

    def recommit_layer(self, layer: CompositedLayer) -> None:
        """Re-copy one dirty layer's display list after a repaint."""
        with self.ctx.tracer.function("cc::LayerTreeHostImpl::UpdateLayer"), self.ctx.lock(
            "cc:lock:tree"
        ).held():
            self._commit_items(layer)

    def recommit_span(
        self,
        layer: CompositedLayer,
        start: int,
        n_removed: int,
        added: List[DisplayItem],
    ) -> None:
        """Splice one repainted subtree's items into the cc-side list.

        The incremental-commit counterpart of
        ``Painter.repaint_subtree``: only the ``added`` items are copied
        and re-indexed; everything outside the span keeps its committed
        cells, so commit cost scales with the dirty subtree, not the
        layer.
        """
        tracer = self.ctx.tracer
        with tracer.function("cc::LayerTreeHostImpl::UpdateLayer"), self.ctx.lock(
            "cc:lock:tree"
        ).held():
            fresh = []
            for j, item in enumerate(added):
                cc_cell = self.ctx.memory.alloc_cell(
                    f"cc:item:L{layer.paint.layer_id}:{start + j}"
                )
                tracer.op(f"copy_item{j % 32}", reads=item.cells, writes=(cc_cell,))
                tracer.op(
                    f"rtree_insert{j % 32}",
                    reads=(cc_cell, layer.index_cell),
                    writes=(layer.index_cell,),
                )
                fresh.append((item, cc_cell))
            layer.splice_items(start, n_removed, fresh)
            self.ctx.maybe_debug_event()

    # ------------------------------------------------------------------ #
    # Tile management (compositor thread)                                #
    # ------------------------------------------------------------------ #

    def viewport_rect(self) -> Rect:
        return Rect(
            0,
            self.scroll_y,
            float(self.ctx.config.viewport_width),
            float(self.ctx.config.viewport_height),
        )

    def _effective_bounds(self, layer: CompositedLayer) -> Rect:
        """Layer bounds in document space (fixed layers track the scroll)."""
        if layer.paint.fixed:
            return layer.paint.bounds.translate(0, self.scroll_y)
        return layer.paint.bounds

    def _effective_tile_rect(self, layer: CompositedLayer, tile: Tile) -> Rect:
        if layer.paint.fixed:
            return tile.rect.translate(0, self.scroll_y)
        return tile.rect

    def occluded(self, layer: CompositedLayer, rect: Rect) -> bool:
        """Is ``rect`` (document space) fully hidden by opaque layers above?"""
        index = self.layers.index(layer)
        for above in self.layers[index + 1 :]:
            if not above.paint.opaque or above.paint.opacity < 1.0:
                continue
            if self._effective_bounds(above).contains_rect(rect):
                return True
        return False

    def prepare_raster_tasks(self) -> List[RasterTask]:
        """Schedule raster work for the pending frame (traced)."""
        tracer = self.ctx.tracer
        tasks: List[RasterTask] = []
        low_res_tasks: List[RasterTask] = []
        viewport = self.viewport_rect()
        margin = float(self.ctx.config.interest_margin)
        interest = Rect(
            viewport.x,
            max(0.0, viewport.y - margin),
            viewport.w,
            viewport.h + 2 * margin,
        )
        with tracer.function("cc::TileManager::PrepareTiles"), self.ctx.lock(
            "cc:lock:tiles"
        ).held():
            for layer in self.layers:
                tracer.op(
                    "layer_priorities",
                    reads=(layer.priority_cell, self.scroll_cell),
                    writes=(layer.priority_cell,),
                )
                # One visibility decision per layer; per-tile bin visits
                # walk the tiling data (priority bookkeeping, no branches —
                # the real TileManager iterates spatial bins).
                tracer.compare_and_branch(
                    "layer_in_interest",
                    reads=(layer.property_cell, self.scroll_cell),
                )
                for tile in layer.tiles.values():
                    effective = self._effective_tile_rect(layer, tile)
                    tracer.op(
                        "visit_tile",
                        reads=(layer.property_cell, self.scroll_cell),
                        writes=(layer.priority_cell,),
                    )
                    if not effective.intersects(interest):
                        continue
                    if not tile.dirty and tile.rastered:
                        continue
                    # A tile is displayed only where it holds layer content
                    # inside the viewport (tile squares overhang the layer
                    # bounds at the edges).
                    content = effective.intersection(self._effective_bounds(layer))
                    visible_part = (
                        content.intersection(viewport) if content is not None else None
                    )
                    presented = visible_part is not None and not self.occluded(
                        layer, visible_part
                    )
                    # Build the RasterTask: the raster source reference the
                    # worker thread will consume.
                    tracer.op(
                        "create_raster_task",
                        reads=(layer.index_cell, layer.property_cell),
                        writes=(tile.source_cell,),
                    )
                    tasks.append(RasterTask(layer=layer, tile=tile, presented=presented))
                    if self.ctx.config.raster_low_res:
                        tracer.op(
                            "create_low_res_task",
                            reads=(layer.index_cell, layer.property_cell),
                            writes=(tile.source_cell,),
                        )
                        low_res_tasks.append(
                            RasterTask(
                                layer=layer, tile=tile, presented=False, low_res=True
                            )
                        )
            self.ctx.maybe_debug_event()
        # Low-res duplicates are scheduled after the required tiles.
        tasks.extend(low_res_tasks)
        return tasks

    # ------------------------------------------------------------------ #
    # Raster (CompositorTileWorker threads)                              #
    # ------------------------------------------------------------------ #

    def raster_tile(self, task: RasterTask) -> None:
        """Play the layer's display list back into the tile's pixels.

        Must be called with the tracer switched to a rasterizer thread.
        The display-list walk probes the layer's spatial index; actual
        pixel work happens per 64x64 block inside skia draw calls, so
        raster cost is proportional to covered area, as on real hardware.
        """
        tracer = self.ctx.tracer
        layer, tile = task.layer, task.tile
        if task.low_res:
            self._raster_low_res(task)
            return
        # Raster reads the committed tree and writes tile state: take the
        # tree lock then the tile-manager lock, in that (canonical) order.
        with tracer.function("cc::RasterBufferProvider::PlaybackToMemory"), self.ctx.lock(
            "cc:lock:tree"
        ).held(), self.ctx.lock("cc:lock:tiles").held():
            tracer.op(
                "setup_playback",
                reads=(tile.source_cell, layer.property_cell, layer.index_cell),
                writes=(tile.pixels.cell(0),),
            )
            for i, (item, cc_cell) in enumerate(layer.items_for_tile(tile)):
                tracer.compare_and_branch(f"clip{i % 32}", reads=(cc_cell,))
                blocks = tile.block_cells_for(item.rect)
                if not blocks:
                    continue
                self._skia_draw(item, cc_cell, blocks)
            layer.mark_rastered(tile)
            if task.presented:
                # The paper's slicing criterion: the pixels buffer at the
                # point it holds final displayed values.
                tracer.marker(TILE_MARKER, cells=tile.pixel_cells())
                tile.marked = True
        self.ctx.maybe_debug_event()

    def _raster_low_res(self, task: RasterTask) -> None:
        """Raster the quarter-resolution duplicate of a tile.

        Low-res tiles exist so something can be shown during fast scrolls;
        in a session without one they are never displayed, so this whole
        playback is wasted work (no marker is ever emitted for it).
        """
        tracer = self.ctx.tracer
        layer, tile = task.layer, task.tile
        lowres = tile.lowres_pixels
        with tracer.function("cc::RasterBufferProvider::PlaybackToMemory"), self.ctx.lock(
            "cc:lock:tree"
        ).held(), self.ctx.lock("cc:lock:tiles").held():
            tracer.op(
                "setup_low_res",
                reads=(tile.source_cell, layer.property_cell),
                writes=(lowres.cell(0),),
            )
            for i, (item, cc_cell) in enumerate(layer.items_for_tile(tile)):
                tracer.compare_and_branch(f"clip_lr{i % 32}", reads=(cc_cell,))
                with tracer.function(self._SKIA_FN.get(item.kind, "skia::SkCanvas::drawRect")):
                    for b in range(min(4, lowres.size)):
                        tracer.op(
                            f"fill_lowres{b}",
                            reads=(cc_cell, lowres.cell(b)),
                            writes=(lowres.cell(b),),
                        )
        self.ctx.maybe_debug_event()

    _SKIA_FN = {
        "background": "skia::SkCanvas::drawRect",
        "border": "skia::SkCanvas::drawRect",
        "text": "skia::SkCanvas::drawTextBlob",
        "image": "skia::SkCanvas::drawImageRect",
    }

    def _skia_draw(self, item, cc_cell: int, blocks) -> None:
        """Fill the covered pixel blocks (one record per block).

        Blending reads the block's existing value (anti-aliasing, alpha,
        partial coverage), so earlier draws under later ones stay in the
        dataflow — a text run over a background does not dead-kill the
        background's pixels.
        """
        ctx = self.ctx
        tracer = ctx.tracer
        source_cells = tuple(item.source_cells)
        n_sources = len(source_cells)
        # Spread the decoded-bitmap reads across the blocks (the caller
        # passes at least one).
        per = max(1, n_sources // len(blocks))
        with tracer.function(self._SKIA_FN.get(item.kind, "skia::SkCanvas::drawRect")):
            for b, block in enumerate(blocks):
                blend = (cc_cell, block)
                writes = (block,)
                if n_sources:
                    start = (b * per) % n_sources
                    reads = blend + source_cells[start : start + per]
                else:
                    reads = blend
                tracer.op(_FILL_LABELS[b % 16], reads, writes)
                if b % 2 == 0:
                    ctx.plain_helper("S32A_Opaque_BlitRow32", reads=blend, writes=writes)
                if b % 4 == 0:
                    # Row copies go through the C runtime (read-modify-write
                    # like every other blend into the block).
                    ctx.libc_memcpy(blend, writes, weight=1)

    # ------------------------------------------------------------------ #
    # Draw (compositor thread)                                           #
    # ------------------------------------------------------------------ #

    def draw_frame(self) -> Tuple[int, ...]:
        """Draw visible tiles into the framebuffer; returns its cells.

        Replays the draw plan (:meth:`_plan_frame`), built afresh only
        when its key (:meth:`_plan_key`) has changed since the last draw:
        ``DrawLayers`` under the tree lock, one ``layer_visible`` decision
        per layer, then per drawn tile a ``TILE_MARKER`` if the tile is
        not marked yet (checked here, so marking needs no new plan), the
        ``draw_quad`` and, on even columns, the texture upload.  Every
        draw goes through the tracer, so records, clock ticks and
        ``tile_buffers`` are those of a draw worked out afresh.
        """
        plan = self._plan
        if plan is None or plan.key != self._plan_key():
            plan = self._plan = self._plan_frame()
            self._plans_built += 1
        tracer = self.ctx.tracer
        self.frame_count += 1
        with tracer.function("cc::LayerTreeHostImpl::DrawLayers"), self.ctx.lock(
            "cc:lock:tree"
        ).held():
            for property_cell, quads in plan.layers:
                tracer.compare_and_branch("layer_visible", reads=(property_cell,))
                for tile, reads, writes, upload in quads:
                    if not tile.marked:
                        # A prepainted tile scrolled into view: its pixels
                        # are now going to the display; anchor the
                        # criterion here (equivalent to instrumenting the
                        # draw-quad upload).
                        tracer.marker(TILE_MARKER, cells=tile.pixel_cells())
                        tile.marked = True
                    tracer.op("draw_quad", reads=reads, writes=writes)
                    # Texture upload to the GPU process: reads pixels,
                    # writes nothing the renderer reads back.
                    if upload is not None:
                        self.ctx.plain_helper("glTexSubImage2D", reads=upload)
            self.ctx.maybe_debug_event()
        self.frame_digests.append(plan.digest)
        return self.framebuffer.all_cells()

    def _plan_key(self) -> Tuple[object, ...]:
        """Everything a draw plan depends on that can change.

        The viewport size, paint-layer geometry and tile grids are fixed
        once built; the layer list changes only through :meth:`commit`,
        and each layer's items and drawable tiles only where its
        ``version`` moves.  The exact scroll offset is keyed, not the
        rounded one the snapshot keeps.
        """
        return (
            self.scroll_y,
            self._tree_version,
            tuple(layer.version for layer in self.layers),
        )

    def _plan_frame(self) -> DrawPlan:
        """Work out what a draw emits: visible, unoccluded, rastered tiles
        in draw order, their cells, and the frame's value snapshot digest.
        Emits no records."""
        viewport = self.viewport_rect()
        snapshot: List[Tuple] = [("scroll", round(self.scroll_y, 3))]
        layers = []
        for order, layer in enumerate(self.layers):
            quads: List[DrawQuad] = []
            bounds = self._effective_bounds(layer)
            if bounds.intersects(viewport):
                for tile in layer.tiles.values():
                    effective = self._effective_tile_rect(layer, tile)
                    content = effective.intersection(bounds)
                    visible_part = (
                        content.intersection(viewport) if content is not None else None
                    )
                    if visible_part is None or not tile.rastered:
                        continue
                    if self.occluded(layer, visible_part):
                        continue
                    snapshot.append(self._tile_snapshot(order, layer, tile, visible_part))
                    pixels = tile.pixel_cells()
                    quads.append(
                        DrawQuad(
                            tile,
                            pixels[:8] + (layer.property_cell,),
                            self._fb_cells_for(visible_part, viewport),
                            pixels[8:10] if tile.col % 2 == 0 else None,
                        )
                    )
            layers.append((layer.property_cell, tuple(quads)))
        digest = hashlib.sha256(repr(snapshot).encode()).hexdigest()
        return DrawPlan(self._plan_key(), tuple(layers), digest)

    def _tile_snapshot(
        self, order: int, layer: CompositedLayer, tile: Tile, visible_part: Rect
    ) -> Tuple:
        """A value-based description of what one drawn tile shows.

        Captures draw order, geometry, and the display items' visual
        content (kind, rect, color, opacity, text/src detail) — but no
        abstract cell ids or node ids, which are allocation-order
        artifacts that may legally differ between otherwise
        pixel-identical runs.  Pure bookkeeping: emits no trace records,
        so existing trace goldens are unaffected.  Each item's values
        come from :meth:`DisplayItem.snapshot_values`, built once per item.
        Taken only when a draw plan is built (:meth:`_plan_frame`); the
        plan keeps the digest of the frame's snapshots.
        """
        opacity = round(layer.paint.opacity, 4)
        items = []
        for item, _cc_cell in layer.items_for_tile(tile):
            if item.rect.intersects(visible_part):
                kind, rect, color, opaque, detail = item.snapshot_values()
                items.append((kind, rect, color, opaque, opacity, detail))
        v = visible_part
        return (
            "tile", order, layer.paint.z_index, layer.paint.fixed, tile.col, tile.row,
            (round(v.x, 3), round(v.y, 3), round(v.w, 3), round(v.h, 3)), tuple(items),
        )

    def _fb_cells_for(self, rect: Rect, viewport: Rect) -> Tuple[int, ...]:
        """Framebuffer block cells covered by a viewport-space rect."""
        local = rect.translate(-viewport.x, -viewport.y)
        cols = max(1, int(viewport.w) // PIXEL_BLOCK)
        rows = max(1, int(viewport.h) // PIXEL_BLOCK)
        cells: List[int] = []
        col0 = max(0, int(local.x // PIXEL_BLOCK))
        row0 = max(0, int(local.y // PIXEL_BLOCK))
        col1 = min(cols - 1, int((local.right - 1) // PIXEL_BLOCK))
        row1 = min(rows - 1, int((local.bottom - 1) // PIXEL_BLOCK))
        for row in range(row0, row1 + 1):
            for col in range(col0, col1 + 1):
                index = row * cols + col
                if index < self.framebuffer.size:
                    cells.append(self.framebuffer.cell(index))
        return tuple(cells)

    # ------------------------------------------------------------------ #
    # BeginFrame ticks (vsync-driven compositor bookkeeping)             #
    # ------------------------------------------------------------------ #

    def begin_frame_tick(self, draw: bool = True, update_priorities: bool = True) -> None:
        """One vsync tick: animations, draw properties, tile priorities.

        This is the compositor thread's steady-state work while anything
        on the page animates: recompute draw properties and tile
        priorities for every layer and backing-store tile — visible or
        not (the blind backing-store upkeep the paper calls out) — then
        redraw.
        """
        tracer = self.ctx.tracer
        with tracer.function("cc::Scheduler::BeginImplFrame"):
            tracer.op(
                "frame_args", reads=(self.scroll_cell,), writes=(self.scroll_cell,)
            )
        self.ctx.debug_event(weight=3)  # per-frame trace events
        self.ctx.plain_helper("__tls_get_addr")
        self.ctx.plain_helper("pthread_getspecific")
        with tracer.function("cc::AnimationHost::TickAnimations"):
            for i in range(3):
                tracer.op(
                    f"evaluate_curve{i}",
                    reads=(self.animation_cell,),
                    writes=(self.animation_cell,),
                )
        with tracer.function("cc::LayerTreeHostImpl::UpdateDrawProperties"), self.ctx.lock(
            "cc:lock:tree"
        ).held():
            for layer in self.layers:
                tracer.op(
                    "update_transforms",
                    reads=(layer.property_cell, self.scroll_cell, self.animation_cell),
                    writes=(layer.property_cell,),
                )
                tracer.compare_and_branch(
                    "layer_animating", reads=(layer.property_cell,)
                )
                if not update_priorities:
                    continue
                n_tiles = len(layer.tiles)
                for j, tile in enumerate(layer.tiles.values()):
                    if j % 2:
                        continue
                    tracer.op(
                        f"tile_priority{j % 64}",
                        reads=(layer.priority_cell, self.scroll_cell),
                        writes=(layer.priority_cell,),
                    )
                # The other half of the walk is stdlib heap maintenance
                # (inlined std::push_heap / PartitionAlloc in the real
                # binary — uncategorizable by namespace analysis).
                if n_tiles > 1:
                    self.ctx.plain_bulk("std_push_heap", weight=n_tiles // 2)
            self.ctx.maybe_debug_event()
        if draw:
            self.draw_frame()

    # ------------------------------------------------------------------ #
    # Scroll (compositor-thread fast path)                               #
    # ------------------------------------------------------------------ #

    def scroll_by(self, delta_y: float) -> None:
        """Compositor-handled scroll: no main-thread involvement."""
        tracer = self.ctx.tracer
        with tracer.function("cc::InputHandler::ScrollBy"):
            self.scroll_y = max(0.0, self.scroll_y + delta_y)
            tracer.op(
                "update_scroll_offset",
                reads=(self.scroll_cell,),
                writes=(self.scroll_cell,),
            )

    # ------------------------------------------------------------------ #
    # Invalidation (after main-thread repaints)                          #
    # ------------------------------------------------------------------ #

    def invalidate(self, rect: Rect) -> int:
        """Dirty all tiles intersecting ``rect``; returns the tile count."""
        total = 0
        with self.ctx.tracer.function("cc::LayerTreeHostImpl::SetNeedsRedraw"), self.ctx.lock(
            "cc:lock:tree"
        ).held():
            for layer in self.layers:
                count = layer.invalidate(rect)
                if count:
                    self.ctx.tracer.op(
                        "mark_dirty_tiles",
                        reads=(layer.property_cell,),
                        writes=(layer.property_cell,),
                    )
                total += count
        return total

    def layer_for(self, paint_layer: PaintLayer) -> Optional[CompositedLayer]:
        for layer in self.layers:
            if layer.paint is paint_layer:
                return layer
        return None
