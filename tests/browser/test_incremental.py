"""The incremental frame pipeline: savings, lint, invalidation edges.

Every update frame is checked against a from-scratch render in
``test_render_reference.py``.
"""

import pytest

from repro.browser import BrowserEngine, EngineConfig, PageSpec
from repro.browser.invalidation import (
    LAYOUT,
    PAINT,
    STYLE,
    DirtySet,
    is_connected,
    join,
)
from repro.trace.lint import lint_trace
from repro.workloads import benchmark


def _run(name):
    bench = benchmark(name)
    engine = BrowserEngine(bench.config)
    engine.load_page(bench.page)
    engine.run_session(bench.actions)
    return engine


def test_steady_state_frames_are_smaller():
    spans = _run("ticker").trace_store().frame_spans()
    assert len(spans) >= 5
    load = spans[0].n_records()
    for span in spans[1:]:
        assert span.n_records() < load * 0.5, (
            f"update frame {span.frame_id} ran {span.n_records()} of "
            f"{load} load-frame records"
        )


@pytest.mark.parametrize("name", ["ticker", "livefeed", "scrollseq"])
def test_multiframe_traces_lint_clean(name):
    engine = _run(name)
    report = lint_trace(engine.trace_store())
    assert report.ok, report.summary()


# --------------------------------------------------------------------- #
# Invalidation edge cases                                               #
# --------------------------------------------------------------------- #

_EDGE_HTML = """<!DOCTYPE html>
<html>
<head><link rel="stylesheet" href="edge.css"></head>
<body>
<div class="box" id="target">steady</div>
<div class="box" id="other">other</div>
<script src="edge.js"></script>
</body>
</html>
"""

_EDGE_CSS = """
body { margin: 0; background-color: #ffffff; }
.box { width: 200px; height: 50px; background-color: #dddddd; }
"""


def _edge_engine(js):
    engine = BrowserEngine(EngineConfig(viewport_width=640, viewport_height=480))
    engine.load_page(
        PageSpec(
            url="https://edge.test/",
            html=_EDGE_HTML,
            stylesheets={"edge.css": _EDGE_CSS},
            scripts={"edge.js": js},
        )
    )
    return engine


def test_noop_mutation_renders_no_frame():
    # Writing the value an element already holds must not dirty anything.
    js = """
setTimeout(function() {
    var el = document.getElementById('target');
    el.textContent = 'steady';
    el.className = 'box';
    el.setAttribute('id', 'target');
}, 20);
"""
    engine = _edge_engine(js)
    spans = engine.trace_store().frame_spans()
    assert len(spans) == 1, "no-op writes must not schedule an update frame"


def test_detached_subtree_mutation_renders_no_frame():
    # Mutating a node that is not connected to the document is invisible.
    js = """
setTimeout(function() {
    var ghost = document.createElement('div');
    ghost.setAttribute('class', 'box');
    ghost.textContent = 'never shown';
}, 20);
"""
    engine = _edge_engine(js)
    spans = engine.trace_store().frame_spans()
    assert len(spans) == 1, "detached mutations must not schedule a frame"


def test_real_mutation_renders_one_update_frame():
    js = """
setTimeout(function() {
    document.getElementById('target').textContent = 'changed';
}, 20);
"""
    engine = _edge_engine(js)
    spans = engine.trace_store().frame_spans()
    assert [s.kind for s in spans] == ["load", "update"]
    assert spans[1].n_records() < spans[0].n_records()


def test_mutation_during_mutation_handler_defers_to_next_frame():
    # A handler that runs while a frame is in flight must not nest frames:
    # its damage is deferred to a fresh frame after the current one ends.
    js = """
var n = 0;
setTimeout(function() {
    document.getElementById('target').textContent = 'first';
    document.getElementById('other').textContent = 'second';
}, 20);
"""
    engine = _edge_engine(js)
    spans = engine.trace_store().frame_spans()
    report = lint_trace(engine.trace_store())
    assert report.ok, report.summary()
    assert [s.kind for s in spans][0] == "load"
    assert all(s.complete for s in spans)


# --------------------------------------------------------------------- #
# The dirty lattice itself                                              #
# --------------------------------------------------------------------- #


def test_join_is_monotone():
    assert join(PAINT, PAINT) == PAINT
    assert join(LAYOUT, LAYOUT) == LAYOUT
    assert join(PAINT, LAYOUT) == STYLE
    assert join(STYLE, PAINT) == STYLE
    with pytest.raises(ValueError):
        join("bogus", PAINT)


def test_dirtyset_collapses_nested_elements():
    engine = _edge_engine("")
    doc = engine.document
    body = doc.body()
    target = doc.get_element_by_id("target")
    dirty = DirtySet()
    dirty.mark(target, PAINT)
    dirty.mark(body, LAYOUT)
    roots = dirty.roots()
    # target is inside body: one root, and joining the descendant's PAINT
    # into the ancestor's LAYOUT widens to STYLE (incomparable levels).
    assert len(roots) == 1
    element, level = roots[0]
    assert element is body
    assert level == STYLE
    assert is_connected(target, doc)

    same = DirtySet()
    same.mark(target, PAINT)
    same.mark(target, PAINT)
    assert same.roots() == [(target, PAINT)]
