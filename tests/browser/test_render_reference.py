"""Every update frame against a from-scratch render of the live DOM.

An incremental update frame re-styles, re-lays-out and re-paints only
the dirty subtrees, splicing fresh display items into the layers it
keeps.  What it leaves must be what a from-scratch pass over the same
DOM would paint.  After every update frame of every registered workload
(``run_engine(bench, metrics_ticks=2)``, the harness recipe), and of two
hand-built pages that take the fallbacks no workload reaches, the live
display lists and layer tree are compared with
``render_reference.reference_layers``: per layer, the owner's node id,
the z-index and every item's values (text included) and owner id.
"""

from __future__ import annotations

from typing import Callable, List

import pytest

from repro.browser import BrowserEngine, EngineConfig, PageSpec
from repro.harness.experiments import run_engine
from repro.workloads import benchmark, benchmark_names

from .render_reference import layer_tree, reference_layers

#: workload -> the update frames whose layer tree is stale.  An update
#: frame never re-layerizes: a layer's z-index and the set of promoted
#: elements are fixed when the layer is first painted, so a script that
#: changes an element's z-index or positioning leaves the old layer tree
#: on screen (ROADMAP item 4).  The change that re-layerizes update
#: frames must empty this mapping: this test fails as soon as a listed
#: frame matches the reference.
STALE_LAYER_TREE = {"bing": [1], "amazon_desktop_browse": [4, 5, 6]}

INCREMENTAL_UPDATE = BrowserEngine._incremental_update


def _mismatched_update_frames(monkeypatch, run: Callable[[], BrowserEngine]) -> List[int]:
    """Run ``run()`` comparing every update frame with the reference;
    returns the ids of the frames that differ."""
    checked, mismatched = [], []

    def checked_update(engine: BrowserEngine, frame_id: int) -> None:
        INCREMENTAL_UPDATE(engine, frame_id)
        checked.append(frame_id)
        if layer_tree(engine.paint_layers) != layer_tree(reference_layers(engine)):
            mismatched.append(frame_id)

    monkeypatch.setattr(BrowserEngine, "_incremental_update", checked_update)
    engine = run()
    spans = engine.trace_store().frame_spans()
    assert checked == [span.frame_id for span in spans if span.kind == "update"]
    return mismatched


@pytest.mark.parametrize("name", benchmark_names())
def test_update_frames_match_a_from_scratch_render(name, monkeypatch):
    mismatched = _mismatched_update_frames(
        monkeypatch, lambda: run_engine(benchmark(name), metrics_ticks=2)
    )
    assert mismatched == STALE_LAYER_TREE.get(name, [])


_PAGE_HTML = """<!DOCTYPE html>
<html>
<head><link rel="stylesheet" href="page.css"></head>
<body>
<div id="grow">short</div>
<div id="list"><div id="one">one</div><div id="two">two</div></div>
<div id="after">after</div>
<script src="page.js"></script>
</body>
</html>
"""

_PAGE_CSS = """
body { margin: 0; background-color: #ffffff; }
#grow { width: 120px; background-color: #dddddd; }
#list { height: 120px; background-color: #eeeeee; }
#one, #two { height: 40px; background-color: #cccccc; }
#after { height: 40px; background-color: #bbbbbb; }
"""

#: One update frame each.  ``grown-box``: the new text wraps onto more
#: lines, so the relaid-out box's border rect changes and the frame falls
#: back to a whole-document layout, which moves the boxes below it.
#: ``removed-last-child``: ``#list`` keeps its height, so it is relaid
#: out and repainted as a subtree, and the removed child's items, at the
#: end of its span, go only because the span widens over them.
SCRIPTS = {
    "grown-box": (
        "setTimeout(function() { document.getElementById('grow').textContent ="
        " 'a much longer text that wraps onto several more lines of the narrow"
        " box'; }, 20);"
    ),
    "removed-last-child": (
        "setTimeout(function() { document.getElementById('list')"
        ".removeChild(document.getElementById('two')); }, 20);"
    ),
}


@pytest.mark.parametrize("name", sorted(SCRIPTS))
def test_fallback_update_frames_match_a_from_scratch_render(name, monkeypatch):
    def run() -> BrowserEngine:
        engine = BrowserEngine(EngineConfig(viewport_width=640, viewport_height=480))
        engine.load_page(
            PageSpec(
                url="https://render.test/",
                html=_PAGE_HTML,
                stylesheets={"page.css": _PAGE_CSS},
                scripts={"page.js": SCRIPTS[name]},
            )
        )
        assert [span.kind for span in engine.trace_store().frame_spans()] == [
            "load",
            "update",
        ]
        return engine

    assert _mismatched_update_frames(monkeypatch, run) == []
