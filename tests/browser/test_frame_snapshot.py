"""Frame snapshots from per-item value tuples match the per-frame reference.

``CompositorHost._tile_snapshot`` reads each display item's values from
``DisplayItem.snapshot_values``, built once per item.  The reference
below is the snapshot as it was before: every value recomputed on every
frame.  Both must produce the same ``frame_digests`` on every registered
frame workload, and a repaint that replaces a layer's items must be
snapshotted from the new items.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.browser import BrowserEngine
from repro.browser.compositor.host import CompositorHost
from repro.browser.compositor.tiles import CompositedLayer
from repro.browser.context import EngineContext
from repro.browser.css.values import Color
from repro.browser.layout.geometry import Rect
from repro.browser.paint.display_list import DisplayItem, PaintLayer
from repro.workloads import MULTIFRAME_BENCHMARKS, benchmark


def reference_tile_snapshot(self, order, layer, tile, visible_part):
    """The tile snapshot with every item's values recomputed per frame."""

    def _rect(r):
        return (round(r.x, 3), round(r.y, 3), round(r.w, 3), round(r.h, 3))

    items = tuple(
        (item.kind, _rect(item.rect), str(item.color), item.opaque,
         round(layer.paint.opacity, 4), item.detail)
        for item, _cc_cell in layer.items_for_tile(tile)
        if item.rect.intersects(visible_part)
    )
    return (
        "tile", order, layer.paint.z_index, layer.paint.fixed,
        tile.col, tile.row, _rect(visible_part), items,
    )


def _frame_digests(name):
    bench = benchmark(name)
    engine = BrowserEngine(bench.config)
    engine.load_page(bench.page)
    engine.run_session(bench.actions)
    return engine.frame_digests()


@pytest.mark.parametrize("name", MULTIFRAME_BENCHMARKS)
def test_frame_digests_match_the_reference_snapshot(name, monkeypatch):
    cached = _frame_digests(name)
    monkeypatch.setattr(CompositorHost, "_tile_snapshot", reference_tile_snapshot)
    reference = _frame_digests(name)
    assert len(cached) > 1
    assert cached == reference


def test_replaced_items_are_snapshotted_afresh():
    ctx = EngineContext()
    host = CompositorHost(ctx)
    layer = CompositedLayer(
        ctx, PaintLayer(1, Rect(0, 0, 512, 256), 2, opaque=False, opacity=0.123456)
    )
    tile, visible = layer.tiles[(0, 0)], Rect(0, 0, 256, 256)

    def item(color, detail, rect=Rect(10.12345, 20, 100.5, 16)):
        return DisplayItem("text", rect, (1,), color=color, detail=detail)

    def snapshot():
        got = host._tile_snapshot(3, layer, tile, visible)
        assert got == reference_tile_snapshot(host, 3, layer, tile, visible)
        return got

    layer.commit_items([(item(Color(0, 0, 0), "old"), 100)])
    first = snapshot()
    assert snapshot() == first  # values cached on the item: same answer
    # A repaint replaces the items: same geometry, new content.
    layer.splice_items(0, 1, [(item(Color(255, 0, 0), "new"), 101)])
    second = snapshot()
    assert second != first and second[-1][0][2:] == ("rgba(255,0,0,1)", False, 0.1235, "new")
    # A full recommit that moves the item off the tile leaves it empty.
    layer.commit_items([(item(Color(0, 0, 255), "gone", Rect(300, 20, 10, 10)), 102)])
    assert snapshot()[-1] == ()


def test_display_items_are_frozen():
    item = DisplayItem("background", Rect(0, 0, 1, 1), (1,))
    with pytest.raises(dataclasses.FrozenInstanceError):
        item.detail = "changed"
    item.snapshot_values()
    assert item == DisplayItem("background", Rect(0, 0, 1, 1), (1,))
