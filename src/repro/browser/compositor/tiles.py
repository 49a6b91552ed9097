"""Tiles and composited layers (cc's tiling model).

Each composited layer owns a grid of 256x256 tiles covering its bounds;
each tile owns a pixel buffer of 16 abstract cells (one per 64x64 pixel
block).  Backing stores exist for every layer whether or not it is ever
shown — Chromium's compositing design pitfall the paper highlights.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from ...machine.memory import MemRegion
from ..context import EngineContext, PIXEL_BLOCK, TILE_SIZE
from ..layout.geometry import Rect
from ..paint.display_list import DisplayItem, PaintLayer

#: pixel cells per tile side (256 / 64 = 4; 16 cells per tile)
BLOCKS_PER_SIDE = TILE_SIZE // PIXEL_BLOCK

#: A layer's committed ``(display item, cc-side cell)`` pairs on one tile.
CommittedItems = Tuple[Tuple[DisplayItem, int], ...]


class Tile:
    """One 256x256 tile of a layer's backing store."""

    __slots__ = ("layer_id", "col", "row", "rect", "pixels", "rastered", "marked",
                 "dirty", "source_cell", "_ctx", "_lowres")

    def __init__(
        self, ctx: EngineContext, layer_id: int, col: int, row: int, rect: Rect
    ) -> None:
        self.layer_id = layer_id
        self.col = col
        self.row = row
        self.rect = rect
        self.pixels: MemRegion = ctx.memory.alloc(
            f"tilebuf:L{layer_id}:{col},{row}", BLOCKS_PER_SIDE * BLOCKS_PER_SIDE
        )
        #: the RasterSource reference written when the tile is scheduled
        #: (TileManager) and consumed by the raster worker.
        self.source_cell = ctx.memory.alloc_cell(f"cc:rastersrc:L{layer_id}:{col},{row}")
        self.rastered = False
        #: a TILE_MARKER was emitted for this tile's pixels
        self.marked = False
        #: content changed since last raster
        self.dirty = True
        self._ctx = ctx
        self._lowres: Optional[MemRegion] = None

    @property
    def lowres_pixels(self) -> MemRegion:
        """Low-resolution duplicate buffer (allocated on first use)."""
        if self._lowres is None:
            self._lowres = self._ctx.memory.alloc(
                f"tilebuf-lowres:L{self.layer_id}:{self.col},{self.row}", 4
            )
        return self._lowres

    def pixel_cells(self) -> Tuple[int, ...]:
        return self.pixels.all_cells()

    def block_cells_for(self, rect: Rect) -> Tuple[int, ...]:
        """Pixel-block cells covered by ``rect`` (document space)."""
        overlap = self.rect.intersection(rect)
        if overlap is None:
            return ()
        # ``Rect.intersects`` of each 64x64 block with the overlap, written
        # out on the block edges (same operands, so the same answers).
        right, bottom = overlap.right, overlap.bottom
        cells: List[int] = []
        for row in range(BLOCKS_PER_SIDE):
            y = self.rect.y + row * PIXEL_BLOCK
            if y + PIXEL_BLOCK <= overlap.y or bottom <= y:
                continue
            for col in range(BLOCKS_PER_SIDE):
                x = self.rect.x + col * PIXEL_BLOCK
                if x + PIXEL_BLOCK <= overlap.x or right <= x:
                    continue
                cells.append(self.pixels.cell(row * BLOCKS_PER_SIDE + col))
        return tuple(cells)

    def __repr__(self) -> str:
        return f"Tile(L{self.layer_id} {self.col},{self.row} {self.rect})"


def _cells_spanned(a: float, b: float, first: int, last: int) -> range:
    """Grid indices in ``[first, last]`` from the cell edge ``a`` floors into
    to the one ``b`` floors into (in either order)."""
    lo, hi = sorted((int(a // TILE_SIZE), int(b // TILE_SIZE)))
    return range(max(first, lo), min(last, hi) + 1)


class CompositedLayer:
    """cc-side twin of a paint layer, with its backing-store tile grid.

    :attr:`version` counts the changes to what a draw reads from the
    layer: :meth:`commit_items`, :meth:`splice_items` and each tile's
    first raster (:meth:`mark_rastered`).  The compositor replays its
    draw plan while no layer's version has moved (see
    ``CompositorHost.draw_frame``); the paint layer's geometry and the
    tile grid are fixed when the layer is built.
    """

    def __init__(self, ctx: EngineContext, paint_layer: PaintLayer) -> None:
        self.ctx = ctx
        self.paint = paint_layer
        self.tiles: Dict[Tuple[int, int], Tile] = {}
        #: bumped by every change to what a draw reads from this layer
        self.version = 0
        #: cc-side copies of the display items (committed from the main
        #: thread); raster reads these, not the blink-side originals.
        #: Changed only through :meth:`commit_items` and :meth:`splice_items`.
        self.cc_items: List[Tuple[DisplayItem, int]] = []
        #: (col, row) -> the ``cc_items`` on that tile, in ``cc_items``
        #: order; built on the first query after the items change.
        self._tile_items: Optional[Dict[Tuple[int, int], CommittedItems]] = None
        #: cc-side property cells (transform/position), read at raster.
        self.property_cell = ctx.memory.alloc_cell(
            f"cc:props:L{paint_layer.layer_id}"
        )
        #: spatial display-item index built at commit, probed at raster.
        self.index_cell = ctx.memory.alloc_cell(
            f"cc:rtree:L{paint_layer.layer_id}"
        )
        #: tile-priority bookkeeping (scheduling-only state: read by the
        #: tile manager's decisions, never by pixel-producing code).
        self.priority_cell = ctx.memory.alloc_cell(
            f"cc:priority:L{paint_layer.layer_id}"
        )
        #: first and last (col, row) of the tile grid; None without tiles
        self._grid: Optional[Tuple[Tuple[int, int], Tuple[int, int]]] = None
        self._build_grid()

    def _build_grid(self) -> None:
        bounds = self.paint.bounds
        if bounds.is_empty():
            return
        col0 = int(bounds.x // TILE_SIZE)
        row0 = int(bounds.y // TILE_SIZE)
        col1 = int((bounds.right - 1) // TILE_SIZE)
        row1 = int((bounds.bottom - 1) // TILE_SIZE)
        self._grid = ((col0, row0), (col1, row1))
        for row in range(row0, row1 + 1):
            for col in range(col0, col1 + 1):
                rect = Rect(col * TILE_SIZE, row * TILE_SIZE, TILE_SIZE, TILE_SIZE)
                self.tiles[(col, row)] = Tile(
                    self.ctx, self.paint.layer_id, col, row, rect
                )

    def commit_items(self, items: List[Tuple[DisplayItem, int]]) -> None:
        """Replace the committed ``(item, cc cell)`` list."""
        self.cc_items = items
        self._tile_items = None
        self.version += 1

    def splice_items(
        self, start: int, n_removed: int, items: List[Tuple[DisplayItem, int]]
    ) -> None:
        """Replace ``cc_items[start : start + n_removed]`` with ``items``."""
        self.cc_items[start : start + n_removed] = items
        self._tile_items = None
        self.version += 1

    def mark_rastered(self, tile: Tile) -> None:
        """Record a finished raster of ``tile``.

        Its first raster makes the tile drawable, so it bumps
        :attr:`version`; a re-raster of a dirty tile changes nothing a
        draw reads.
        """
        if not tile.rastered:
            tile.rastered = True
            self.version += 1
        tile.dirty = False

    def items_for_tile(self, tile: Tile) -> CommittedItems:
        """Display items whose rect intersects ``tile``, in commit order."""
        if self._tile_items is None:
            self._tile_items = self._bucket_items()
        return self._tile_items.get((tile.col, tile.row), ())

    def _bucket_items(self) -> Dict[Tuple[int, int], CommittedItems]:
        """Per-tile item lists for every tile of the grid.

        Each item is offered to the grid cells between the ones its rect's
        edges floor into (either sign of width and height), and kept on a
        tile only if it passes the exact ``Rect.intersects`` test.
        """
        if self._grid is None:
            return {}
        (col0, row0), (col1, row1) = self._grid
        buckets: Dict[Tuple[int, int], List[Tuple[DisplayItem, int]]] = {}
        for entry in self.cc_items:
            rect = entry[0].rect
            for row in _cells_spanned(rect.y, rect.bottom, row0, row1):
                for col in _cells_spanned(rect.x, rect.right, col0, col1):
                    if rect.intersects(self.tiles[(col, row)].rect):
                        buckets.setdefault((col, row), []).append(entry)
        return {key: tuple(entries) for key, entries in buckets.items()}

    def tiles_intersecting(self, rect: Rect) -> Iterator[Tile]:
        for tile in self.tiles.values():
            if tile.rect.intersects(rect):
                yield tile

    def tile_count(self) -> int:
        return len(self.tiles)

    def invalidate(self, rect: Rect) -> int:
        """Mark tiles intersecting ``rect`` dirty; returns how many."""
        count = 0
        # Dirty bits are tile-manager state shared with the raster path.
        with self.ctx.lock("cc:lock:tiles").held():
            for tile in self.tiles_intersecting(rect):
                tile.dirty = True
                count += 1
        return count

    def __repr__(self) -> str:
        return f"CompositedLayer({self.paint!r}, tiles={len(self.tiles)})"
