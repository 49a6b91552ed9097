"""Display lists and paint layers (the Paint stage of the pipeline)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..css.values import Color
from ..html.dom import Element, TextNode
from ..layout.geometry import Rect


@dataclass(frozen=True)
class DisplayItem:
    """One paint operation recorded into a layer's display list.

    Frozen: an item is fixed once painted (a repaint records new items),
    which is what lets :meth:`snapshot_values` compute its values once.

    Attributes:
        kind: "background" | "border" | "text" | "image".
        rect: document-space rectangle the item covers.
        cells: abstract cells holding the recorded item (raster reads them).
        source_cells: extra inputs consumed at raster time (e.g. the image
            resource's byte cells for an "image" item).
        color: paint color (backgrounds/text) for blending realism.
        opaque: True when the item fully covers ``rect`` with alpha 1.
        owner_id: node id of the element the item paints (for text runs,
            the parent element) — the key incremental repaint uses to find
            a dirty subtree's contiguous item span.  -1 when unknown.
        detail: the drawn content itself (a text run's characters, an
            image's src) so frame snapshots compare what the user sees,
            not just geometry.
    """

    kind: str
    rect: Rect
    cells: Tuple[int, ...]
    source_cells: Tuple[int, ...] = ()
    color: Optional[Color] = None
    opaque: bool = False
    owner_id: int = -1
    detail: str = ""
    #: :meth:`snapshot_values`' tuple, built on the first call
    _snapshot: Optional[Tuple] = field(default=None, init=False, repr=False, compare=False)

    def snapshot_values(self) -> Tuple:
        """``(kind, rect, color, opaque, detail)`` as frame snapshots record it.

        Values only (the rect rounded to 3 places, the color as text), no
        cell or node ids, which are allocation-order artifacts.  Built
        once per item: frame snapshots read it for every drawn tile of
        every frame.
        """
        values = self._snapshot
        if values is None:
            r = self.rect
            values = (
                self.kind,
                (round(r.x, 3), round(r.y, 3), round(r.w, 3), round(r.h, 3)),
                str(self.color),
                self.opaque,
                self.detail,
            )
            object.__setattr__(self, "_snapshot", values)
        return values


@dataclass
class PaintLayer:
    """A composited layer: its own backing store and display list.

    Mirrors Chromium's composited layers: each gets a backing store (tiles)
    whether or not it ever becomes visible — the design pitfall the paper
    calls out in the compositing algorithm.
    """

    layer_id: int
    bounds: Rect
    z_index: int
    #: True when the layer's content fully covers ``bounds`` opaquely.
    opaque: bool
    #: fixed-position layers don't move with document scroll
    fixed: bool = False
    opacity: float = 1.0
    items: List[DisplayItem] = field(default_factory=list)
    #: element that promoted this layer (None for the root scrolling layer)
    owner: Optional[Element] = None

    def add(self, item: DisplayItem) -> None:
        self.items.append(item)

    def is_root(self) -> bool:
        return self.owner is None

    def __repr__(self) -> str:
        owner = self.owner.tag if self.owner is not None else "root"
        return (
            f"PaintLayer(#{self.layer_id} {owner} z={self.z_index} "
            f"{self.bounds} items={len(self.items)})"
        )
