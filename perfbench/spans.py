"""Outside-in span recorder for the traced runs.

The program has no spans of its own yet, so the traced run wraps the
public calls of each layer from here: every wrapped call records
``(layer, start, end, parent)`` in memory, and the spans are written out
when the run ends.  A layer's self time is its spans' durations minus
the part their child spans cover; the ``op`` layer is the benchmark's
own per-operation span, so its self time is the unattributed remainder.

Wrappers are installed for traced passes only and removed afterwards,
so untraced passes run the unmodified program.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Tuple

#: (module, attribute path, layer) for every wrapped public call.  Plain
#: functions are wrapped where the caller looks them up (``parse_html``
#: as bound in ``browser.engine``, ``run_engine`` and ``analyze_frames``
#: as bound in ``harness.experiments``).
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.harness.experiments", "run_engine", "browser.run"),
    ("repro.browser.engine", "BrowserEngine.load_page", "browser.run"),
    ("repro.browser.engine", "BrowserEngine.run_session", "browser.run"),
    ("repro.browser.js.interpreter", "Interpreter.execute_script", "browser.js"),
    ("repro.browser.js.interpreter", "Interpreter.call_function_value", "browser.js"),
    ("repro.browser.compositor.host", "CompositorHost.commit", "browser.composite"),
    ("repro.browser.compositor.host", "CompositorHost.recommit_layer", "browser.composite"),
    ("repro.browser.compositor.host", "CompositorHost.recommit_span", "browser.composite"),
    ("repro.browser.compositor.host", "CompositorHost.prepare_raster_tasks", "browser.composite"),
    ("repro.browser.compositor.host", "CompositorHost.draw_frame", "browser.composite"),
    ("repro.browser.compositor.host", "CompositorHost.begin_frame_tick", "browser.composite"),
    ("repro.browser.compositor.host", "CompositorHost.raster_tile", "browser.raster"),
    ("repro.browser.style.resolver", "StyleResolver.resolve_document", "browser.style"),
    ("repro.browser.style.resolver", "StyleResolver.resolve_subtree", "browser.style"),
    ("repro.browser.layout.engine", "LayoutEngine.layout_document", "browser.layout"),
    ("repro.browser.layout.engine", "LayoutEngine.relayout_subtree", "browser.layout"),
    ("repro.browser.paint.painter", "Painter.paint_document", "browser.paint"),
    ("repro.browser.paint.painter", "Painter.repaint_layer", "browser.paint"),
    ("repro.browser.paint.painter", "Painter.repaint_subtree", "browser.paint"),
    ("repro.browser.engine", "parse_html", "browser.parse"),
    ("repro.browser.engine", "parse_css", "browser.parse"),
    ("repro.browser.net.loader", "NetworkStack.fetch", "browser.net"),
    ("repro.trace.store", "load_any_trace", "trace.load"),
    ("repro.profiler.api", "Profiler.control_dependence_index", "profiler.forward"),
    ("repro.profiler.api", "Profiler.slice", "profiler.backward"),
    ("repro.profiler.api", "Profiler.statistics", "profiler.stats"),
    ("repro.profiler.api", "Profiler.categorize", "profiler.stats"),
    ("repro.harness.experiments", "analyze_frames", "profiler.frames"),
    ("repro.service.client", "ServiceClient.submit", "service.submit"),
    ("repro.service.client", "ServiceClient.upload_trace", "service.upload"),
)

#: Browser stage layers; ``browser.run`` self time is what they leave.
BROWSER_STAGES = (
    "browser.js",
    "browser.composite",
    "browser.raster",
    "browser.style",
    "browser.layout",
    "browser.paint",
    "browser.parse",
    "browser.net",
)


class SpanRecorder:
    """In-memory spans with a per-thread parent stack."""

    def __init__(self) -> None:
        #: [layer, start_ns, end_ns, parent index or -1]
        self.spans: List[List[Any]] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched: List[Tuple[Any, str, Any]] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, layer: str) -> Iterator[None]:
        stack = self._stack()
        with self._lock:
            index = len(self.spans)
            self.spans.append([layer, time.perf_counter_ns(), 0, stack[-1] if stack else -1])
        stack.append(index)
        try:
            yield
        finally:
            stack.pop()
            self.spans[index][2] = time.perf_counter_ns()

    def _wrap(self, fn: Callable, layer: str) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with recorder.span(layer):
                return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every target; a target the program lacks is skipped."""
        for module_name, attr_path, layer in TARGETS:
            try:
                owner: Any = importlib.import_module(module_name)
            except ImportError:
                continue
            *parents, name = attr_path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            original = getattr(owner, name, None) if owner is not None else None
            if original is None:
                continue
            self._patched.append((owner, name, original))
            setattr(owner, name, self._wrap(original, layer))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    @contextmanager
    def installed(self, enabled: bool) -> Iterator[None]:
        if not enabled:
            yield
            return
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            json.dump(
                {"fields": ["layer", "start_ns", "end_ns", "parent"], "spans": self.spans},
                handle,
            )


def attribute(spans: List[List[Any]], root_layer: str = "op") -> Dict[str, float]:
    """Self seconds per layer under the ``root_layer`` spans.

    Also returns ``<root_layer>.total`` (summed root durations) and,
    for ``browser.run``, the inclusive ``browser.run.inclusive`` time
    (outermost ``browser.run`` spans only, so nesting is not counted
    twice).
    """
    child_ns = [0] * len(spans)
    for span in spans:
        parent = span[3]
        if parent >= 0:
            child_ns[parent] += span[2] - span[1]
    under_root = _under(spans, root_layer)
    self_s: Dict[str, float] = {}
    for index, span in enumerate(spans):
        if not under_root[index]:
            continue
        layer = span[0]
        self_s[layer] = self_s.get(layer, 0.0) + (span[2] - span[1] - child_ns[index]) / 1e9
    self_s[f"{root_layer}.total"] = sum(
        (span[2] - span[1]) / 1e9 for span in spans if span[0] == root_layer
    )
    inclusive = 0.0
    for index, span in enumerate(spans):
        if span[0] == "browser.run" and under_root[index] and not _has_ancestor(spans, index, "browser.run"):
            inclusive += (span[2] - span[1]) / 1e9
    self_s["browser.run.inclusive"] = inclusive
    return self_s


def _under(spans: List[List[Any]], root_layer: str) -> List[bool]:
    """Whether each span is a root-layer span or nested inside one."""
    result = [False] * len(spans)
    for index, span in enumerate(spans):
        parent = span[3]
        result[index] = span[0] == root_layer or (parent >= 0 and result[parent])
    return result


def _has_ancestor(spans: List[List[Any]], index: int, layer: str) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == layer:
            return True
        parent = spans[parent][3]
    return False

