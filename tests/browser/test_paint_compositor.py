"""Unit tests for paint (layers, display lists) and the compositor."""

import random

import pytest

from repro.browser import BrowserEngine, EngineConfig, PageSpec
from repro.browser.compositor.host import CompositorHost
from repro.browser.compositor.tiles import BLOCKS_PER_SIDE, CompositedLayer
from repro.browser.context import EngineContext
from repro.browser.layout.geometry import Rect
from repro.browser.paint.display_list import DisplayItem, PaintLayer
from repro.workloads import benchmark


def load(html, css="", viewport=(640, 480), **config):
    engine = BrowserEngine(
        EngineConfig(viewport_width=viewport[0], viewport_height=viewport[1], **config)
    )
    engine.load_page(
        PageSpec(url="t", html=html, stylesheets={"c.css": css} if css else {})
    )
    return engine


BASE_CSS = "body { margin: 0; background-color: #ffffff; }"


def test_root_layer_always_exists():
    engine = load("<body><div style='height:10px'>x</div></body>", BASE_CSS)
    assert engine.paint_layers
    assert engine.paint_layers[0].is_root() or any(
        layer.is_root() for layer in engine.paint_layers
    )


def test_fixed_position_promotes_layer():
    engine = load(
        "<body><div id='f' style='position:fixed;top:0px;left:0px;width:100px;"
        "height:50px;background-color:#333333'>.</div></body>",
        BASE_CSS,
    )
    owners = [l.owner.element_id for l in engine.paint_layers if l.owner is not None]
    assert "f" in owners
    fixed_layer = next(l for l in engine.paint_layers if l.owner and l.owner.element_id == "f")
    assert fixed_layer.fixed


def test_z_index_promotes_positioned_element():
    engine = load(
        "<body><div id='z' style='position:absolute;z-index:3;width:100px;"
        "height:100px;background-color:#222222'>.</div></body>",
        BASE_CSS,
    )
    owners = [l.owner.element_id for l in engine.paint_layers if l.owner is not None]
    assert "z" in owners


def test_opacity_promotes_layer_and_not_opaque():
    engine = load(
        "<body><div id='o' style='opacity:0.5;width:100px;height:100px;"
        "background-color:#222222'>.</div></body>",
        BASE_CSS,
    )
    layer = next(l for l in engine.paint_layers if l.owner and l.owner.element_id == "o")
    assert not l_opaque(layer)


def l_opaque(layer):
    return layer.opaque


def test_display_items_recorded_for_backgrounds_and_text():
    engine = load(
        "<body><div style='background-color:#ff0000;height:40px'>hello</div></body>",
        BASE_CSS,
    )
    kinds = {item.kind for layer in engine.paint_layers for item in layer.items}
    assert "background" in kinds
    assert "text" in kinds


def test_image_items_reference_decoded_bitmap():
    engine = BrowserEngine(EngineConfig(viewport_width=640, viewport_height=480))
    engine.load_page(
        PageSpec(
            url="t",
            html="<body><img src='a.png' width='100' height='100'></body>",
            images={"a.png": 5000},
        )
    )
    items = [
        item
        for layer in engine.paint_layers
        for item in layer.items
        if item.kind == "image"
    ]
    assert items
    assert items[0].source_cells, "image item must reference decoded bitmap cells"


def test_tiles_cover_layer_bounds():
    engine = load("<body><div style='height:1000px'>x</div></body>", BASE_CSS)
    root = engine.compositor.layers[0]
    assert root.tile_count() >= 4
    bounds = root.paint.bounds
    for tile in root.tiles.values():
        assert tile.rect.intersects(bounds)


def test_pixel_blocks_per_tile():
    engine = load("<body><div style='height:10px'>x</div></body>", BASE_CSS)
    tile = next(iter(engine.compositor.layers[0].tiles.values()))
    assert len(tile.pixel_cells()) == BLOCKS_PER_SIDE * BLOCKS_PER_SIDE


def test_visible_tiles_marked_at_load():
    engine = load("<body><div style='height:100px;background-color:#000000'>x</div></body>", BASE_CSS)
    marked = [
        t
        for layer in engine.compositor.layers
        for t in layer.tiles.values()
        if t.marked
    ]
    assert marked, "visible tiles must carry the pixel criteria marker"
    assert engine.trace_store().metadata.tile_buffers


def test_occluded_layer_rastered_but_never_marked():
    # Two stacked opaque layers: the lower one is pure backing-store waste.
    engine = load(
        "<body style='margin:0'>"
        "<div id='top' style='position:absolute;top:0px;left:0px;width:640px;"
        "height:480px;z-index:5;background-color:#111111'>front</div>"
        "<div id='under' style='position:absolute;top:0px;left:0px;width:640px;"
        "height:480px;z-index:1;background-color:#222222'>back</div>"
        "</body>",
        BASE_CSS,
    )
    comp = engine.compositor
    under_layer = next(
        l for l in comp.layers if l.paint.owner is not None and l.paint.owner.element_id == "under"
    )
    top_layer = next(
        l for l in comp.layers if l.paint.owner is not None and l.paint.owner.element_id == "top"
    )
    assert any(t.rastered for t in under_layer.tiles.values())
    assert not any(t.marked for t in under_layer.tiles.values())
    assert any(t.marked for t in top_layer.tiles.values())


def test_scroll_exposes_new_tiles():
    engine = load(
        "<body style='margin:0'><div style='height:3000px;"
        "background-color:#dddddd'>tall</div></body>",
        BASE_CSS,
        viewport=(640, 480),
    )
    comp = engine.compositor
    marked_before = sum(
        1 for l in comp.layers for t in l.tiles.values() if t.marked
    )
    comp.scroll_by(960)
    # Re-raster + draw after the scroll (as the engine's fast path does).
    tasks = comp.prepare_raster_tasks()
    for task in tasks:
        engine.ctx.tracer.switch(engine.ctx.raster_thread_ids()[0])
        comp.raster_tile(task)
    engine.ctx.tracer.switch(2)
    comp.draw_frame()
    marked_after = sum(1 for l in comp.layers for t in l.tiles.values() if t.marked)
    assert marked_after > marked_before


def test_low_res_tasks_created_when_enabled():
    engine = load(
        "<body><div style='height:600px;background-color:#cccccc'>x</div></body>",
        BASE_CSS,
        raster_low_res=True,
    )
    comp = engine.compositor
    for layer in comp.layers:
        for tile in layer.tiles.values():
            tile.dirty = True
    tasks = comp.prepare_raster_tasks()
    assert any(task.low_res for task in tasks)
    assert all(not task.presented for task in tasks if task.low_res)


def test_invalidate_dirties_intersecting_tiles():
    engine = load("<body><div style='height:600px'>x</div></body>", BASE_CSS)
    comp = engine.compositor
    for layer in comp.layers:
        for tile in layer.tiles.values():
            tile.dirty = False
    count = comp.invalidate(Rect(0, 0, 100, 100))
    assert count >= 1
    dirty = [t for l in comp.layers for t in l.tiles.values() if t.dirty]
    assert dirty


def test_commit_copies_items_to_cc_side():
    engine = load(
        "<body><div style='background-color:#123456;height:50px'>x</div></body>",
        BASE_CSS,
    )
    root = engine.compositor.layers[0]
    assert len(root.cc_items) == len(root.paint.items)
    for item, cc_cell in root.cc_items:
        assert cc_cell > 0


def test_frame_count_increments_on_draw():
    engine = load("<body><div style='height:10px'>x</div></body>", BASE_CSS)
    before = engine.compositor.frame_count
    engine.ctx.tracer.switch(2)
    engine.compositor.draw_frame()
    assert engine.compositor.frame_count == before + 1


# --------------------------------------------------------------------- #
# Per-tile item lists                                                   #
# --------------------------------------------------------------------- #


def linear_items_for_tile(layer, tile):
    """The reference spatial query: scan every committed item."""
    return [
        (item, cc_cell)
        for item, cc_cell in layer.cc_items
        if item.rect.intersects(tile.rect)
    ]


def assert_tile_lists_match_scan(layer):
    for tile in layer.tiles.values():
        assert list(layer.items_for_tile(tile)) == linear_items_for_tile(layer, tile), tile


@pytest.mark.parametrize("name", ["ticker", "livefeed", "scrollseq"])
def test_tile_lists_match_linear_scan_after_commit_and_recommit(name, monkeypatch):
    calls = {"commit": 0, "recommit_span": 0}
    commit, recommit_span = CompositorHost.commit, CompositorHost.recommit_span

    def checked_commit(self, paint_layers):
        commit(self, paint_layers)
        calls["commit"] += 1
        for layer in self.layers:
            assert_tile_lists_match_scan(layer)

    def checked_recommit_span(self, layer, start, n_removed, added):
        recommit_span(self, layer, start, n_removed, added)
        calls["recommit_span"] += 1
        assert_tile_lists_match_scan(layer)

    monkeypatch.setattr(CompositorHost, "commit", checked_commit)
    monkeypatch.setattr(CompositorHost, "recommit_span", checked_recommit_span)
    bench = benchmark(name)
    engine = BrowserEngine(bench.config)
    engine.load_page(bench.page)
    engine.run_session(bench.actions)
    assert calls["commit"] >= 1
    if name != "scrollseq":  # scrolling alone repaints nothing
        assert calls["recommit_span"] >= 1
    for layer in engine.compositor.layers:
        assert_tile_lists_match_scan(layer)


def _random_rect(rng, extent):
    """Rects with edges on or next to tile boundaries, zero or negative
    sizes, and parts outside the grid."""

    def boundary():
        return float(256 * rng.randint(-2, extent // 256 + 2))

    def coord():
        roll = rng.random()
        if roll < 0.3:
            return boundary()
        if roll < 0.5:
            return boundary() + rng.choice((-0.5, 0.5, -1e-9, 1e-9))
        return rng.uniform(-300.0, extent + 300.0)

    def size(start):
        roll = rng.random()
        if roll < 0.15:
            return 0.0
        if roll < 0.3:
            return -rng.uniform(0.0, 600.0)
        if roll < 0.45:
            return boundary() - start  # the far edge on a boundary
        return rng.uniform(0.0, 900.0)

    x, y = coord(), coord()
    return Rect(x, y, size(x), size(y))


@pytest.mark.parametrize("seed", range(20))
def test_tile_lists_match_linear_scan_on_random_display_lists(seed):
    rng = random.Random(seed)
    bounds = Rect(
        float(rng.choice((0, 10, 256))),
        float(rng.choice((0, 37, 512))),
        float(rng.randint(1, 1400)),
        float(rng.randint(1, 1400)),
    )
    layer = CompositedLayer(EngineContext(), PaintLayer(1, bounds, 0, opaque=False))
    extent = int(max(bounds.right, bounds.bottom))

    def random_items(n):
        return [
            (DisplayItem("background", _random_rect(rng, extent), (i,)), 1000 + i)
            for i in range(n)
        ]

    layer.commit_items(random_items(rng.randint(0, 120)))
    assert_tile_lists_match_scan(layer)
    for _ in range(8):
        start = rng.randint(0, len(layer.cc_items))
        n_removed = rng.randint(0, len(layer.cc_items) - start)
        layer.splice_items(start, n_removed, random_items(rng.randint(0, 10)))
        assert_tile_lists_match_scan(layer)


def test_zero_width_item_inside_a_tile_is_on_it():
    layer = CompositedLayer(
        EngineContext(), PaintLayer(1, Rect(0, 0, 512, 256), 0, opaque=False)
    )
    inside = (DisplayItem("border", Rect(100, 10, 0, 50), (1,)), 1)
    on_edge = (DisplayItem("border", Rect(256, 10, 0, 50), (2,)), 2)
    past_edge = (DisplayItem("border", Rect(256.5, 10, 0, 50), (3,)), 3)
    layer.commit_items([inside, on_edge, past_edge])
    assert list(layer.items_for_tile(layer.tiles[(0, 0)])) == [inside]
    assert list(layer.items_for_tile(layer.tiles[(1, 0)])) == [past_edge]
    assert_tile_lists_match_scan(layer)
