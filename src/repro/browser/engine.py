"""The browser engine: orchestrates the full rendering pipeline.

Drives the paper's Figure 1 pipeline end to end over the simulated
substrate: navigation IPC -> network fetch (IO thread) -> HTML parse ->
subresource fetches -> CSS parse -> JavaScript execution -> style ->
layout -> paint -> commit -> tile raster (worker threads, with the pixel
criteria markers) -> draw -> frame swap, followed by a scripted browsing
session (scrolls on the compositor fast path; clicks/typing through the
main thread with incremental re-render of the dirtied region).

Rendering is organized as an invalidation-driven frame loop: DOM
mutations mark elements dirty at an invalidation level (see
:mod:`repro.browser.invalidation`); each produced frame — the first full
render ("load"), each re-render ("update"), each compositor scroll redraw
("scroll") — is bracketed by FRAME_BEGIN/FRAME_END trace markers so the
profiler can slice per-frame epochs.  At most one frame is in flight:
work arriving while a frame is open is deferred to the next frame.  The
load frame renders the whole document; an update frame re-resolves
style, re-lays-out, re-paints, and re-commits only the dirty subtrees.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..machine.tracer import LOAD_COMPLETE_MARKER
from .compositor.host import CompositorHost, RasterTask
from .context import (
    COMPOSITOR_THREAD,
    EngineConfig,
    EngineContext,
    FIRST_RASTER_THREAD,
    IO_THREAD,
    MAIN_THREAD,
)
from .css.cssom import CSSOM
from .css.parser import parse_css
from .html.dom import Document, Element
from .html.parser import parse_html
from .invalidation import (
    NEEDS_LAYOUT,
    NEEDS_STYLE_RESOLVE,
    STYLE,
    DirtySet,
    is_connected,
)
from .ipc.channel import IPCChannel
from .js.interpreter import Interpreter
from .js.runtime import BrowserHooks, JSRuntime
from .js.values import TV
from .layout.boxes import LayoutTree
from .layout.engine import LayoutEngine
from .layout.geometry import Rect
from .net.loader import NetworkStack, Resource
from .paint.display_list import PaintLayer
from .paint.painter import Painter
from .scheduler.loop import Scheduler
from .style.resolver import StyleResolver

#: ``pump_animation_frames`` damages the topmost animated layer on every
#: this-many-th vsync tick.
DAMAGE_EVERY = 6

#: image-decode emit-site labels, one per byte cell modulo 64
_DECODE_LABELS = tuple(f"decode_row{i}" for i in range(64))


@dataclass
class PageSpec:
    """Everything needed to load one synthetic website."""

    url: str
    html: str
    #: external stylesheets: url -> css source (fetched before scripts run)
    stylesheets: Dict[str, str] = field(default_factory=dict)
    #: external scripts: url -> js source (document order = dict order)
    scripts: Dict[str, str] = field(default_factory=dict)
    #: images: url -> byte size
    images: Dict[str, int] = field(default_factory=dict)
    #: per-resource latency in ms (default applies otherwise)
    latencies: Dict[str, float] = field(default_factory=dict)
    default_latency_ms: float = 35.0


@dataclass
class UserAction:
    """One step of a scripted browsing session."""

    kind: str  # "scroll" | "click" | "type" | "wait"
    target_id: Optional[str] = None
    amount: float = 0.0
    text: str = ""
    think_time_ms: float = 300.0


class _EngineHooks(BrowserHooks):
    """JS runtime hooks wired into the engine."""

    def __init__(self, engine: "BrowserEngine") -> None:
        self.engine = engine

    def on_dom_mutated(self, element: Element, level: str = STYLE) -> None:
        self.engine.mark_dirty(element, level)

    def schedule_timeout(self, callback: TV, delay_ms: float) -> None:
        engine = self.engine
        engine.scheduler.post_delayed(
            MAIN_THREAD,
            "TimerFired",
            lambda: engine._run_js_callback(callback, "timeout"),
            delay_ms,
        )

    def request_animation_frame(self, callback: TV) -> None:
        engine = self.engine
        engine.scheduler.post_delayed(
            MAIN_THREAD,
            "AnimationFrame",
            lambda: engine._run_js_callback(callback, "raf"),
            16.0,
        )

    def send_beacon(self, url: str, payload: TV) -> None:
        engine = self.engine
        buffer_cell = engine.channel.serialize(f"Beacon:{url}", (payload.cell,), 2)
        engine.scheduler.post(
            IO_THREAD,
            "SendBeacon",
            lambda: engine.net.send_beacon(url, buffer_cell),
        )

    def viewport(self) -> Tuple[int, int]:
        config = self.engine.ctx.config
        return (config.viewport_width, config.viewport_height)

    def now_ms(self) -> float:
        return self.engine.ctx.clock.now_us / 1000.0


class BrowserEngine:
    """A simulated Chromium tab process."""

    def __init__(self, config: Optional[EngineConfig] = None) -> None:
        self.ctx = EngineContext(config)
        self.ctx.spawn_threads()
        self.scheduler = Scheduler(self.ctx)
        self.channel = IPCChannel(self.ctx)
        self.net = NetworkStack(self.ctx, self.channel)
        self.compositor = CompositorHost(self.ctx)
        self.painter = Painter(self.ctx)

        self.document: Optional[Document] = None
        self.cssom = CSSOM()
        self.resolver: Optional[StyleResolver] = None
        self.layout: Optional[LayoutEngine] = None
        self.layout_tree: Optional[LayoutTree] = None
        self.paint_layers: List[PaintLayer] = []
        self.interp: Optional[Interpreter] = None
        self.runtime: Optional[JSRuntime] = None

        self.dirty = DirtySet()
        self._last_rects: Dict[int, Rect] = {}
        self._raster_rr = 0
        self._decode_barrier: Optional[int] = None
        self._pending_rasters: Optional[int] = None
        self.page: Optional[PageSpec] = None
        self.loaded = False

        # Frame loop state: at most one frame is open at a time; render
        # and scroll requests arriving mid-frame are deferred to the next.
        self._next_frame_id = 0
        self._open_frame: Optional[int] = None
        self._render_pending = False
        self._scroll_pending = False

    def _pending_rasters_cell(self) -> int:
        if self._pending_rasters is None:
            self._pending_rasters = self.ctx.memory.alloc_cell("cc:pending_rasters")
        return self._pending_rasters

    # ------------------------------------------------------------------ #
    # Page load                                                          #
    # ------------------------------------------------------------------ #

    def load_page(self, page: PageSpec) -> None:
        """Load a page from navigation to the first displayed frame."""
        self.page = page
        tracer = self.ctx.tracer
        scheduler = self.scheduler

        scheduler.post(IO_THREAD, "Navigate", lambda: self._io_navigate(page))
        scheduler.run_until_idle()
        if not self.loaded:
            raise RuntimeError("page load did not reach the first frame")

    def _io_navigate(self, page: PageSpec) -> None:
        # Browser process tells the renderer to commit a navigation.
        self.channel.receive("FrameNavigate", payload_size=2)
        html_res = Resource(
            url=page.url,
            kind="html",
            content=page.html,
            latency_ms=page.latencies.get(page.url, page.default_latency_ms),
        )
        self.net.fetch(html_res)
        self.scheduler.post(
            MAIN_THREAD, "ParseHTML", lambda: self._main_parse_html(html_res)
        )

    def _main_parse_html(self, html_res: Resource) -> None:
        page = self.page
        parser = parse_html(self.ctx, html_res.content, html_res.region)
        self.document = parser.document
        self._inline_scripts = parser.scripts
        self._inline_styles = parser.styles

        # Discover subresources referenced by the document.
        wanted_css = [
            el.get_attribute("href")
            for el in self.document.get_elements_by_tag("link")
            if el.get_attribute("rel") == "stylesheet"
        ]
        wanted_js = [
            el.get_attribute("src")
            for el in self.document.get_elements_by_tag("script")
            if el.get_attribute("src")
        ]
        wanted_img = [
            el.get_attribute("src")
            for el in self.document.get_elements_by_tag("img")
            if el.get_attribute("src")
        ]

        def fetch_all() -> None:
            for url in wanted_css:
                if url in page.stylesheets:
                    self.net.fetch(self._resource(url, "css", page.stylesheets[url]))
            for url in wanted_js:
                if url in page.scripts:
                    self.net.fetch(self._resource(url, "js", page.scripts[url]))
            for url in wanted_img:
                if url in page.images:
                    self.net.fetch(
                        self._resource(url, "img", "", size=page.images[url])
                    )
            self.scheduler.post(MAIN_THREAD, "ResourcesReady", self._main_process_page)

        self.scheduler.post(IO_THREAD, "FetchSubresources", fetch_all)

    def _resource(self, url: str, kind: str, content: str, size: int = 0) -> Resource:
        page = self.page
        return Resource(
            url=url,
            kind=kind,
            content=content,
            size_bytes=size,
            latency_ms=page.latencies.get(url, page.default_latency_ms),
        )

    def _main_process_page(self) -> None:
        """CSS parse + JS execution + first full render."""
        page = self.page
        ctx = self.ctx

        # CSS: external sheets in document order, then inline <style>.
        for url, source in page.stylesheets.items():
            resource = self.net.fetched.get(url)
            if resource is None:
                continue
            sheet = parse_css(ctx, url, source, resource.region)
            self.cssom.add_sheet(sheet)
        for element, source in self._inline_styles:
            if not source.strip():
                continue
            region = element._cells.get("rawtext")
            inline_region = ctx.alloc_bytes(f"inline-style:{element.node_id}", len(source))
            sheet = parse_css(ctx, f"inline:{element.node_id}", source, inline_region)
            self.cssom.add_sheet(sheet)

        # JavaScript: set up the engine and run scripts in document order.
        self.interp = Interpreter(ctx)
        self.runtime = JSRuntime(self.interp, self.document, hooks=_EngineHooks(self))
        script_elements = self.document.get_elements_by_tag("script")
        inline_iter = iter(self._inline_scripts)
        for element in script_elements:
            src = element.get_attribute("src")
            if src:
                resource = self.net.fetched.get(src)
                if resource is not None:
                    self.interp.execute_script(
                        page.scripts[src], src, resource.region
                    )
            else:
                raw = element.attributes.get("__rawtext__", "")
                if raw.strip():
                    region = ctx.alloc_bytes(
                        f"inline-script:{element.node_id}", len(raw)
                    )
                    self.interp.execute_script(
                        raw, f"inline:{element.node_id}", region
                    )

        # Image decode on the thread-pool workers; the painter references
        # the decoded bitmaps, so raster depends on decode which depends on
        # the network bytes.
        self._decode_images()

        self.dirty.clear()  # load-time script mutations render now
        self._full_render()

    def _decode_images(self) -> None:
        """Decode fetched images on the ThreadPool workers.

        Decoding runs to completion before paint references the bitmaps
        (the engine models a decode barrier rather than placeholder
        repaints).  Each decode reads the compressed resource bytes and
        writes the decoded bitmap cells that raster samples.
        """
        ctx = self.ctx
        tracer = ctx.tracer
        worker_tids = ctx.worker_thread_ids()
        if not worker_tids:
            worker_tids = (MAIN_THREAD,)
        caller_tid = tracer.current_tid
        # Decode barrier: the caller publishes the fetched bytes before any
        # worker starts, each worker publishes its bitmap when done, and
        # the caller imports all of them before paint references the
        # bitmaps.  Without these edges the raw thread switches below would
        # be unsynchronized hand-offs (exactly what repro.tsan flags).
        barrier = self._decode_barrier_cell()
        tracer.sync_release(barrier)
        for i, url in enumerate(self.page.images):
            resource = self.net.fetched.get(url)
            if resource is None or resource.region is None:
                continue
            source = resource.region
            decoded = ctx.memory.alloc(f"bitmap:{url}", max(1, source.size))
            tracer.switch(worker_tids[i % len(worker_tids)])
            tracer.sync_acquire(barrier)
            with tracer.function("blink::ImageDecoder::Decode"):
                # Source cell ``offset`` decodes into the bitmap cell at the
                # same offset; the bitmap has at least ``source.size`` cells.
                source_base, decoded_base = source.base, decoded.base
                for offset in range(source.size):
                    reads = (source_base + offset,)
                    writes = (decoded_base + offset,)
                    tracer.op(_DECODE_LABELS[offset % 64], reads, writes)
                    if offset % 3 == 0:
                        ctx.plain_helper("png_read_row", reads, writes)
                ctx.maybe_debug_event()
            tracer.sync_release(barrier)
            self.painter.image_regions[url] = decoded
        tracer.switch(caller_tid)
        tracer.sync_acquire(barrier)

    def _decode_barrier_cell(self) -> int:
        if self._decode_barrier is None:
            self._decode_barrier = self.ctx.memory.alloc_cell("blink:decode_barrier")
        return self._decode_barrier

    # ------------------------------------------------------------------ #
    # Frame lifecycle                                                    #
    # ------------------------------------------------------------------ #

    def _frame_begin(self, kind: str) -> int:
        """Open a new frame epoch (emits the FRAME_BEGIN marker)."""
        frame_id = self._next_frame_id
        self._next_frame_id += 1
        self._open_frame = frame_id
        self.ctx.tracer.frame_begin(frame_id, kind)
        return frame_id

    def _frame_end(self, frame_id: int) -> None:
        """Close the open frame and start any deferred follow-up frame."""
        self.ctx.tracer.frame_end(frame_id)
        self._open_frame = None
        if self._scroll_pending:
            self._scroll_pending = False
            next_id = self._frame_begin("scroll")
            self._raster_then_draw(first_frame=False, frame_id=next_id)
        elif self._render_pending:
            self._render_pending = False
            self.scheduler.post(MAIN_THREAD, "BeginMainFrame", self._render_if_dirty)

    # ------------------------------------------------------------------ #
    # Rendering pipeline                                                 #
    # ------------------------------------------------------------------ #

    def _full_render(self) -> None:
        """The load frame: style -> layout -> paint -> commit -> raster -> draw."""
        ctx = self.ctx
        frame_id = self._frame_begin("load")
        self.resolver = StyleResolver(ctx, self.cssom)
        self.resolver.resolve_document(self.document)
        self.layout = LayoutEngine(ctx, self.resolver)
        self.layout_tree = self.layout.layout_document(self.document)
        self._remember_rects()
        self.paint_layers = self.painter.paint_document(self.layout_tree)

        def commit_and_raster() -> None:
            self.compositor.commit(self.paint_layers)
            self._raster_then_draw(first_frame=True, frame_id=frame_id)

        self.scheduler.post(COMPOSITOR_THREAD, "Commit", commit_and_raster)

    def _raster_then_draw(
        self, first_frame: bool, frame_id: Optional[int] = None
    ) -> None:
        """Schedule raster tasks; the last one posts the draw."""
        tasks = self.compositor.prepare_raster_tasks()
        if not tasks:
            self.scheduler.post(
                COMPOSITOR_THREAD, "Draw", lambda: self._draw(first_frame, frame_id)
            )
            return
        remaining = {"count": len(tasks)}
        # The completion count is shared by every raster worker; the traced
        # lock chains all workers' histories into the last decrementer, so
        # the draw it posts is ordered after every tile's pixel writes (not
        # just its own).
        pending_lock = self.ctx.lock("cc:lock:pending_rasters")
        pending_cell = self._pending_rasters_cell()

        def run_task(task: RasterTask):
            def runner() -> None:
                self.compositor.raster_tile(task)
                with pending_lock.held():
                    self.ctx.tracer.op(
                        "raster_done", reads=(pending_cell,), writes=(pending_cell,)
                    )
                    remaining["count"] -= 1
                    done = remaining["count"] == 0
                if done:
                    self.scheduler.post(
                        COMPOSITOR_THREAD,
                        "Draw",
                        lambda: self._draw(first_frame, frame_id),
                    )

            return runner

        raster_tids = self.ctx.raster_thread_ids()
        for task in tasks:
            tid = raster_tids[self._raster_rr % len(raster_tids)]
            self._raster_rr += 1
            self.scheduler.post(tid, "RasterTask", run_task(task))

    def _draw(self, first_frame: bool, frame_id: Optional[int] = None) -> None:
        framebuffer_cells = self.compositor.draw_frame()
        # Swap: the frame goes to the display through the GPU channel.
        tracer = self.ctx.tracer
        with tracer.function("cc::Display::SwapBuffers"):
            swap_cell = self.channel.serialize(
                "SwapBuffers", framebuffer_cells[:4], weight=2
            )
            tracer.syscall("write", reads=framebuffer_cells[:16] + (swap_cell,))
        if first_frame and not self.loaded:
            self.loaded = True
            tracer.marker(LOAD_COMPLETE_MARKER)
            self.scheduler.post(MAIN_THREAD, "LoadEvent", self._fire_load_event)
        if frame_id is not None:
            self._frame_end(frame_id)

    def _fire_load_event(self) -> None:
        if self.runtime is not None:
            self.runtime.dispatch_event(None, "load")
            self._render_if_dirty()

    # ------------------------------------------------------------------ #
    # Incremental updates                                                #
    # ------------------------------------------------------------------ #

    def _remember_rects(self) -> None:
        self._last_rects.clear()
        if self.layout_tree is None:
            return
        for box in self.layout_tree.all_boxes():
            if box.element is not None:
                self._last_rects[box.element.node_id] = box.rect

    def mark_dirty(self, element: Element, level: str = STYLE) -> None:
        """Record a DOM invalidation for the next update frame.

        Mutations on detached subtrees are dropped: a node that is not
        connected to the document renders nothing, so invalidating it
        would only schedule unnecessary work.
        """
        if self.document is None or not is_connected(element, self.document):
            return
        self.dirty.mark(element, level)

    def _render_if_dirty(self) -> None:
        if not self.dirty or self.resolver is None:
            return
        if self._open_frame is not None:
            # A frame is already in flight; fold this invalidation into
            # the next frame instead of rendering concurrently.
            self._render_pending = True
            return
        self._incremental_update(self._frame_begin("update"))

    def _dirty_rect_for(self, roots: List, old_rects: List[Rect]) -> Rect:
        dirty_rect = Rect(0, 0, 0, 0)
        for rect in old_rects:
            dirty_rect = dirty_rect.union(rect)
        for element, _level in roots:
            box = self.layout_tree.box_for(element)
            if box is not None:
                dirty_rect = dirty_rect.union(box.document_bounds())
        return dirty_rect

    def _layer_for_element(self, element: Element) -> Optional[PaintLayer]:
        """The paint layer whose display list holds ``element``'s items."""
        by_owner = {
            layer.owner.node_id: layer
            for layer in self.paint_layers
            if layer.owner is not None
        }
        layer = by_owner.get(element.node_id)
        if layer is not None:
            return layer
        for ancestor in element.ancestors():
            layer = by_owner.get(ancestor.node_id)
            if layer is not None:
                return layer
        for layer in self.paint_layers:
            if layer.is_root():
                return layer
        return None

    def _incremental_update(self, frame_id: int) -> None:
        """One invalidation-driven update frame.

        Per dirty root, the invalidation level selects which stages run:
        style recalc (unless layout-only), subtree relayout (unless
        paint-only), then a spliced subtree repaint.  Any stage that
        cannot prove the incremental step sound falls back to the full
        stage (whole-document layout / whole-layer repaint), never to a
        wrong frame.
        """
        ctx = self.ctx
        tracer = ctx.tracer
        roots = self.dirty.roots()
        old_rects = [
            rect
            for element, _level in roots
            if (rect := self._last_rects.get(element.node_id)) is not None
        ]
        self.dirty.clear()

        full_layout = False
        with tracer.function("blink::scheduler::BeginMainFrame"):
            for element, level in roots:
                if NEEDS_STYLE_RESOLVE[level]:
                    self.resolver.mark_invalid(element)
                    self.resolver.resolve_subtree(element)
            for element, level in roots:
                if not NEEDS_LAYOUT[level]:
                    continue
                if self.layout.relayout_subtree(self.layout_tree, element) is None:
                    full_layout = True
                    break
            if full_layout:
                self.layout_tree = self.layout.layout_document(self.document)

        dirty_rect = self._dirty_rect_for(roots, old_rects)
        self._remember_rects()

        promoted = {
            layer.owner.node_id for layer in self.paint_layers if layer.owner is not None
        }
        repainted: List[PaintLayer] = []
        spans: List[Tuple[PaintLayer, Tuple]] = []
        if full_layout:
            # Geometry moved beyond one subtree: repaint affected layers.
            for layer in self.paint_layers:
                if layer.bounds.intersects(dirty_rect) or layer.is_root():
                    self.painter.repaint_layer(layer, self.layout_tree, promoted)
                    repainted.append(layer)
        else:
            for element, _level in roots:
                layer = self._layer_for_element(element)
                if layer is None or layer in repainted:
                    continue
                span = self.painter.repaint_subtree(
                    layer, self.layout_tree, element, promoted
                )
                if span is None:
                    self.painter.repaint_layer(layer, self.layout_tree, promoted)
                    repainted.append(layer)
                else:
                    spans.append((layer, span))

        def compositor_update() -> None:
            for layer in repainted:
                cc_layer = self.compositor.layer_for(layer)
                if cc_layer is not None:
                    self.compositor.recommit_layer(cc_layer)
            for layer, (start, n_removed, added) in spans:
                cc_layer = self.compositor.layer_for(layer)
                if cc_layer is not None:
                    self.compositor.recommit_span(cc_layer, start, n_removed, added)
            self.compositor.invalidate(dirty_rect)
            self._raster_then_draw(first_frame=False, frame_id=frame_id)

        self.scheduler.post(COMPOSITOR_THREAD, "UpdateLayers", compositor_update)

    def _run_js_callback(self, callback: TV, kind: str) -> None:
        if self.interp is None:
            return
        self.interp.call_function_value(callback.value, None, [], site=f"cb:{kind}")
        self._render_if_dirty()

    # ------------------------------------------------------------------ #
    # User interaction                                                   #
    # ------------------------------------------------------------------ #

    def run_session(self, actions: List[UserAction]) -> None:
        """Run a scripted browsing session after load."""
        for action in actions:
            self.ctx.clock.idle(action.think_time_ms * 1000.0)
            self.perform_action(action)
            self.scheduler.run_until_idle()

    def perform_action(self, action: UserAction) -> None:
        if action.kind == "wait":
            return
        if action.kind == "scroll":
            self.scheduler.post(
                IO_THREAD, "InputEvent", lambda: self._io_input(action)
            )
            return
        self.scheduler.post(IO_THREAD, "InputEvent", lambda: self._io_input(action))

    def _io_input(self, action: UserAction) -> None:
        # The browser process delivers the input event over IPC.
        cells = self.channel.receive(f"InputEvent:{action.kind}", payload_size=2)
        self.scheduler.post(
            COMPOSITOR_THREAD,
            "HandleInput",
            lambda: self._compositor_input(action, cells),
        )

    def _compositor_input(self, action: UserAction, cells) -> None:
        tracer = self.ctx.tracer
        with tracer.function("cc::InputHandler::HandleInputEvent"):
            tracer.compare_and_branch("is_scroll", reads=cells[:1])
            if action.kind == "scroll":
                self.compositor.scroll_by(action.amount)
                if self._open_frame is not None:
                    # The scroll offset is applied; defer the redraw to a
                    # fresh frame once the in-flight one completes.
                    self._scroll_pending = True
                    return
                scroll_frame = self._frame_begin("scroll")
                self._raster_then_draw(first_frame=False, frame_id=scroll_frame)
                return
            # Non-scroll input: forward to the main thread.
            tracer.op("forward_to_main", reads=cells[:1], writes=cells[:1])
        self.scheduler.post(
            MAIN_THREAD, "DispatchInput", lambda: self._main_input(action, cells)
        )

    def _main_input(self, action: UserAction, cells) -> None:
        if self.document is None or self.runtime is None:
            return
        tracer = self.ctx.tracer
        target = (
            self.document.get_element_by_id(action.target_id)
            if action.target_id
            else self.document.body()
        )
        with tracer.function("blink::EventHandler::HitTest"):
            reads = cells[:1]
            if target is not None:
                reads = reads + (target.cell("layout:geom"),)
            tracer.op("hit_test", reads=reads)
            tracer.compare_and_branch("found_target", reads=reads[-1:])
        if target is None:
            return
        if action.kind == "click":
            self.runtime.dispatch_event(target, "click")
        elif action.kind == "type":
            for _ in action.text:
                target.set_attribute("value", (target.get_attribute("value") or "") + "x")
                tracer.op(
                    "update_text_field",
                    reads=cells[:1],
                    writes=(target.cell("attr:value"),),
                )
                self.mark_dirty(target, STYLE)
                self.runtime.dispatch_event(target, "input")
        self._render_if_dirty()

    def pump_animation_frames(self, ticks: int) -> None:
        """Post ``ticks`` vsync BeginFrame tasks to the compositor thread.

        Every :data:`DAMAGE_EVERY`-th tick, the topmost animated layer is
        damaged (a carousel advance, a spinner frame): its visible tiles
        re-raster and a new frame is drawn.
        """
        for i in range(ticks):
            draw = i % 3 == 0
            priorities = i % 4 == 0
            report_timing = i % 4 == 2
            self.scheduler.post(
                COMPOSITOR_THREAD,
                "BeginImplFrame",
                (lambda d, p, t: lambda: self._begin_frame(d, p, t))(
                    draw, priorities, report_timing
                ),
            )
            if i % DAMAGE_EVERY == DAMAGE_EVERY - 1:
                self.scheduler.post(
                    COMPOSITOR_THREAD, "AnimationDamage", self._animation_damage
                )

    def _begin_frame(self, draw: bool, priorities: bool, report_timing: bool) -> None:
        self.compositor.begin_frame_tick(draw=draw, update_priorities=priorities)
        if draw:
            # Submitted frames are acknowledged by the display compositor.
            ack = self.channel.serialize("SubmitCompositorFrame", weight=3)
            self.scheduler.post(
                IO_THREAD, "FrameAck", lambda: self._io_frame_ack(ack)
            )
        if report_timing:
            timing = self.channel.serialize("FrameTimingReport", weight=4)
            self.scheduler.post(
                IO_THREAD,
                "FlushTiming",
                lambda: self.channel.flush_on_io_thread(timing),
            )

    def _io_frame_ack(self, buffer_cell: int) -> None:
        self.channel.flush_on_io_thread(buffer_cell)
        self.channel.receive("DidReceiveCompositorFrameAck", payload_size=2)

    def _animation_damage(self) -> None:
        """Damage a small region of the topmost composited layer.

        Models a carousel progress indicator / spinner frame: a ~tile-sized
        repaint, re-rastered and redrawn.
        """
        layers = self.compositor.layers
        if not layers:
            return
        top = layers[-1]
        viewport = self.compositor.viewport_rect()
        bounds = top.paint.bounds
        damage = Rect(bounds.x, bounds.y, 256.0, min(256.0, max(bounds.h, 1.0)))
        with self.ctx.tracer.function("cc::LayerTreeHostImpl::SetNeedsRedraw"):
            count = top.invalidate(damage)
            if count:
                self.ctx.tracer.op(
                    "mark_dirty_tiles",
                    reads=(top.property_cell,),
                    writes=(top.property_cell,),
                )
        self._raster_then_draw(first_frame=False)

    def load_additional_script(self, url: str, source: str, latency_ms: float = 35.0) -> None:
        """Fetch and execute a script during the browse phase (lazy JS)."""

        def io_fetch() -> None:
            resource = Resource(url=url, kind="js", content=source, latency_ms=latency_ms)
            self.net.fetch(resource)

            def execute() -> None:
                if self.interp is not None:
                    self.interp.execute_script(source, url, resource.region)
                    self._render_if_dirty()

            self.scheduler.post(MAIN_THREAD, "ExecuteLateScript", execute)

        self.scheduler.post(IO_THREAD, "FetchLateScript", io_fetch)

    # ------------------------------------------------------------------ #
    # Background chatter                                                 #
    # ------------------------------------------------------------------ #

    def emit_metrics_tick(self) -> None:
        """Periodic UMA-metrics style bookkeeping + IPC (never visible)."""
        ctx = self.ctx

        def main_tick() -> None:
            tracer = ctx.tracer
            metrics_cell = ctx.memory.alloc_cell("metrics:sample")
            with tracer.function("base::metrics::HistogramSampler::Sample"):
                for i in range(4):
                    tracer.op(f"sample{i}", reads=(metrics_cell,), writes=(metrics_cell,))
            buffer_cell = self.channel.serialize("MetricsUpdate", (metrics_cell,), 3)
            self.scheduler.post(
                IO_THREAD,
                "FlushMetrics",
                lambda: self.channel.flush_on_io_thread(buffer_cell),
            )

        self.scheduler.post(MAIN_THREAD, "MetricsTick", main_tick)

    # ------------------------------------------------------------------ #
    # Results                                                            #
    # ------------------------------------------------------------------ #

    def trace_store(self):
        return self.ctx.tracer.store

    def frame_digests(self) -> List[str]:
        """Semantic per-frame framebuffer digests, in draw order.

        Two runs rendered identical pixels iff their digest lists are
        equal (see :meth:`CompositorHost.draw_frame`); the optimizer's
        verification harness compares these between the original and the
        transformed run.
        """
        return list(self.compositor.frame_digests)

    def utilization_series(self, tid: int = MAIN_THREAD):
        return self.ctx.clock.utilization_series(tid)
