"""The compositor's draw plans against the per-draw reference loop.

``CompositorHost.draw_frame`` builds a ``DrawPlan`` and replays it while
the plan's key (the scroll offset, the layer-tree version and every
layer's version) is unchanged.  The reference is the draw as it was,
worked out afresh every time (``draw_reference.reference_draw_frame``).
Draw by draw, the records a draw emits and its frame digest must equal
the reference's, and the cached plan must equal one built from scratch:

* on the frame workloads, bing, amazon_desktop_browse and two
  ``random_page`` seeds;
* on hand-built two-draw scenes, one per change that can come between
  two draws: each invalidation of the key is needed by one of them;
* and the paper's four sites replay at least 80% of their draws.
"""

from __future__ import annotations

from typing import Callable, List, Tuple

import pytest

from repro.browser import BrowserEngine, EngineConfig
from repro.browser.compositor.host import CompositorHost, RasterTask
from repro.browser.context import COMPOSITOR_THREAD, EngineContext
from repro.browser.css.values import Color
from repro.browser.layout.geometry import Rect
from repro.browser.paint.display_list import DisplayItem, PaintLayer
from repro.harness.experiments import cached_run, run_engine
from repro.machine.tracer import TILE_MARKER
from repro.trace.records import InstrKind, TraceRecord
from repro.workloads import MULTIFRAME_BENCHMARKS, TABLE2_BENCHMARKS, benchmark
from repro.workloads.fuzz import random_page

from .draw_reference import reference_draw_frame

#: What one draw left behind: its records and its frame digest.
Draw = Tuple[List[TraceRecord], str]

PLAN_DRAW = CompositorHost.draw_frame


def _checked_draw(host: CompositorHost) -> Tuple[int, ...]:
    """A plan-replaying draw, then: the plan it used is the one a build
    from scratch gives now (a draw changes nothing a plan reads)."""
    cells = PLAN_DRAW(host)
    assert host._plan == host._plan_frame(), f"stale draw plan at draw {host.frame_count}"
    return cells


def _recorded(host: CompositorHost, draw: Callable, draws: List[Draw]) -> Tuple[int, ...]:
    records = host.ctx.tracer.store.records()
    start = len(records)
    cells = draw(host)
    draws.append((records[start:], host.frame_digests[-1]))
    return cells


def _markers(records: List[TraceRecord]) -> int:
    return sum(1 for r in records if r.kind == InstrKind.MARKER and r.marker == TILE_MARKER)


# --------------------------------------------------------------------- #
# Workloads                                                             #
# --------------------------------------------------------------------- #


def _frames_run(name: str) -> BrowserEngine:
    bench = benchmark(name)
    engine = BrowserEngine(bench.config)
    engine.load_page(bench.page)
    engine.run_session(bench.actions)
    return engine


WORKLOADS: List[Tuple[str, Callable[[], BrowserEngine]]] = (
    [(f"frames:{name}", lambda name=name: _frames_run(name)) for name in MULTIFRAME_BENCHMARKS]
    + [
        (f"harness:{name}", lambda name=name: run_engine(benchmark(name), metrics_ticks=2))
        for name in ("bing", "amazon_desktop_browse")
    ]
    + [
        (f"random_page:{seed}", lambda seed=seed: run_engine(random_page(seed), metrics_ticks=2))
        for seed in (8, 9)
    ]
)


def _workload_draws(monkeypatch, run, draw) -> Tuple[BrowserEngine, List[Draw]]:
    draws: List[Draw] = []
    monkeypatch.setattr(
        CompositorHost, "draw_frame", lambda host: _recorded(host, draw, draws)
    )
    engine = run()
    monkeypatch.undo()
    return engine, draws


@pytest.mark.parametrize("key, run", WORKLOADS, ids=[key for key, _run in WORKLOADS])
def test_every_draw_matches_the_reference_loop(key, run, monkeypatch):
    engine, draws = _workload_draws(monkeypatch, run, _checked_draw)
    reference_engine, reference = _workload_draws(monkeypatch, run, reference_draw_frame)
    assert len(draws) == len(reference) > 1
    for i, (got, want) in enumerate(zip(draws, reference)):
        assert got == want, f"{key}: draw {i} differs from the reference loop"
    host = engine.compositor
    assert host.frame_count == len(draws) and 1 <= host.plans_built <= host.frame_count
    assert engine.trace_store().records() == reference_engine.trace_store().records()
    assert engine.ctx.clock.now_us == reference_engine.ctx.clock.now_us


@pytest.mark.parametrize("name", TABLE2_BENCHMARKS)
def test_most_draws_of_the_paper_sites_replay_a_plan(name):
    host = cached_run(name).engine.compositor
    replayed = host.frame_count - host.plans_built
    assert host.frame_count > 10
    assert replayed >= 0.8 * host.frame_count, (
        f"{name}: {host.plans_built} plans built for {host.frame_count} draws"
    )


# --------------------------------------------------------------------- #
# Hand-built scenes: one change between two draws                       #
# --------------------------------------------------------------------- #


def _item(kind: str, rect: Rect, cell: int, color: Color, detail: str = "") -> DisplayItem:
    return DisplayItem(kind, rect, (cell,), color=color, opaque=kind == "background",
                       detail=detail)


class Scene:
    """A 512x512 viewport over a 512x1024 root layer (2x4 tiles) and,
    optionally, a fixed opaque 512x256 header above it."""

    def __init__(self, draw: Callable, fixed: bool = False) -> None:
        self.ctx = EngineContext(EngineConfig(viewport_width=512, viewport_height=512))
        self.ctx.spawn_threads()
        self.host = CompositorHost(self.ctx)
        self._draw = draw
        self.draws: List[Draw] = []
        #: the record index each draw started at
        self.starts: List[int] = []
        self.root = PaintLayer(
            1, Rect(0, 0, 512, 1024), 0, opaque=True,
            items=[
                _item("background", Rect(0, 0, 512, 1024), 900, Color(255, 255, 255)),
                _item("text", Rect(16, 300, 400, 20), 901, Color(0, 0, 0), "hello"),
            ],
        )
        self.paint_layers = [self.root]
        if fixed:
            self.paint_layers.append(PaintLayer(
                2, Rect(0, 0, 512, 256), 5, opaque=True, fixed=True,
                items=[_item("background", Rect(0, 0, 512, 256), 902, Color(0, 0, 80))],
            ))

    def records(self) -> List[TraceRecord]:
        return self.ctx.tracer.store.records()

    def commit(self) -> None:
        self.ctx.tracer.switch(COMPOSITOR_THREAD)
        self.host.commit(self.paint_layers)

    def raster(self, presented: bool, only=None, skip=None) -> None:
        """Raster every tile, or only the root tile at (col, row) ``only``,
        or all but the root tile ``skip``, on a raster thread."""
        self.ctx.tracer.switch(self.ctx.raster_thread_ids()[0])
        for layer in self.host.layers:
            is_root = layer.paint is self.root
            for pos, tile in layer.tiles.items():
                if only is not None and (not is_root or pos != only):
                    continue
                if is_root and pos == skip:
                    continue
                self.host.raster_tile(RasterTask(layer=layer, tile=tile, presented=presented))

    def root_layer(self):
        return next(layer for layer in self.host.layers if layer.paint is self.root)

    def draw(self) -> None:
        self.ctx.tracer.switch(COMPOSITOR_THREAD)
        self.starts.append(len(self.records()))
        _recorded(self.host, self._draw, self.draws)

    def scroll_by(self, delta: float) -> None:
        self.ctx.tracer.switch(COMPOSITOR_THREAD)
        self.host.scroll_by(delta)

    def quads(self, draw: Draw) -> int:
        draw_layers = self.ctx.tracer.symbols.lookup("cc::LayerTreeHostImpl::DrawLayers")
        return sum(1 for r in draw[0] if r.kind == InstrKind.OP and r.fn == draw_layers)


def _scroll(scene: Scene) -> None:
    scene.commit()
    scene.raster(presented=False)
    scene.draw()
    scene.scroll_by(100)
    scene.draw()


def _first_raster(scene: Scene) -> None:
    scene.commit()
    scene.raster(presented=True, skip=(1, 0))
    scene.draw()
    scene.raster(presented=True, only=(1, 0))
    scene.draw()


def _recommit_layer(scene: Scene) -> None:
    scene.commit()
    scene.raster(presented=True)
    scene.draw()
    scene.root.items[1] = _item("text", Rect(16, 300, 400, 20), 903, Color(200, 0, 0), "hello")
    scene.ctx.tracer.switch(COMPOSITOR_THREAD)
    scene.host.recommit_layer(scene.root_layer())
    scene.draw()


def _recommit_span(scene: Scene) -> None:
    scene.commit()
    scene.raster(presented=True)
    scene.draw()
    added = [_item("text", Rect(16, 300, 400, 20), 904, Color(0, 0, 0), "goodbye")]
    scene.ctx.tracer.switch(COMPOSITOR_THREAD)
    scene.host.recommit_span(scene.root_layer(), 1, 1, added)
    scene.draw()


def _fresh_commit(scene: Scene) -> None:
    # The same paint layers again: new composited layers whose versions
    # reach the old ones' values, so only the tree version tells them apart.
    scene.commit()
    scene.raster(presented=False)
    scene.draw()
    scene.commit()
    scene.raster(presented=False)
    scene.draw()


def _marked_by_raster(scene: Scene) -> None:
    scene.commit()
    scene.raster(presented=True)
    scene.draw()
    # The re-raster of a drawn (dirty) tile marks it again; it is no
    # first raster, so the plan is replayed.
    scene.raster(presented=True, only=(0, 1))
    scene.draw()


def _unchanged(scene: Scene) -> None:
    scene.commit()
    scene.raster(presented=False)
    scene.draw()
    scene.draw()


#: name -> (case, fixed header, plans built, draw_quads and TILE_MARKERs
#: per draw, whether the two frame digests are equal).  Root tile rows 0-1
#: are in view at scroll 0, rows 0-2 at 100; the header occludes row 0.
SCENES = {
    "scroll_by": (_scroll, False, 2, [4, 6], [4, 2], False),
    "fixed_layer_under_scroll": (_scroll, True, 2, [2 + 2, 4 + 2], [2 + 2, 2], False),
    "first_raster": (_first_raster, False, 2, [3, 4], [0, 0], False),
    "recommit_layer": (_recommit_layer, False, 2, [4, 4], [0, 0], False),
    "recommit_span": (_recommit_span, False, 2, [4, 4], [0, 0], False),
    "fresh_commit": (_fresh_commit, False, 2, [4, 4], [4, 4], True),
    "marked_by_raster": (_marked_by_raster, False, 1, [4, 4], [0, 0], True),
    "unchanged": (_unchanged, False, 1, [4, 4], [4, 0], True),
}


@pytest.mark.parametrize("name", list(SCENES))
def test_two_draws_match_the_reference_loop(name):
    case, fixed, plans_built, quads, markers, same_digest = SCENES[name]
    scene = Scene(_checked_draw, fixed=fixed)
    case(scene)
    reference = Scene(reference_draw_frame, fixed=fixed)
    case(reference)
    assert scene.draws == reference.draws
    assert scene.records() == reference.records()
    assert scene.host.plans_built == plans_built
    assert [scene.quads(draw) for draw in scene.draws] == quads
    assert [_markers(records) for records, _digest in scene.draws] == markers
    assert (scene.draws[0][1] == scene.draws[1][1]) == same_digest


def test_a_tile_marked_by_raster_between_draws_is_marked_once():
    scene = Scene(_checked_draw)
    _marked_by_raster(scene)
    # The re-raster's marker, and none from the draw that replays the plan.
    assert _markers(scene.records()[scene.starts[0]:]) == 1
