"""Metric names, units and how each is computed from a run.

End-to-end metrics are measured with tracing off and mean the same
thing on every workload; per-layer metrics come from the traced run.
Every pass of a workload does the same work, so layer times and counts
are given per traced pass: they do not grow with the number of passes
that fit in ``--seconds``.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from .common import RunContext, median, summarize
from .spans import BROWSER_STAGES, SpanRecorder, attribute

END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_s", "s"),
)

#: Span-attributed self times: metric -> layer whose self time it is.
_SPAN_LAYERS: Tuple[Tuple[str, str], ...] = tuple(
    (f"{layer}_s", layer) for layer in BROWSER_STAGES
) + (
    ("browser.other_s", "browser.run"),
    ("trace.load_s", "trace.load"),
    ("profiler.forward_s", "profiler.forward"),
    ("profiler.backward_s", "profiler.backward"),
    ("profiler.stats_s", "profiler.stats"),
    ("profiler.frames_s", "profiler.frames"),
    ("bench.unattributed_s", "op"),
)

ENGINES = ("sequential", "vectorized", "incremental")

PER_LAYER: Tuple[Tuple[str, str], ...] = (
    (("browser.run_s", "s"),)
    + tuple((name, "s") for name, _ in _SPAN_LAYERS if name.startswith("browser."))
    + (
        ("browser.records", "count"),
        ("browser.update_records", "count"),
        ("trace.collect_s", "s"),
        ("trace.bytes", "bytes"),
        ("trace.load_s", "s"),
        ("profiler.forward_s", "s"),
        ("profiler.backward_s", "s"),
        ("profiler.stats_s", "s"),
        ("profiler.frames_s", "s"),
        ("profiler.touched_ratio", "ratio"),
    )
    + tuple((f"profiler.engine.{name}", "count") for name in ENGINES)
    + (
        ("profiler.engine.other", "count"),
        ("service.queue_wait_s", "s"),
        ("service.resolve_s", "s"),
        ("service.slice_s", "s"),
        ("service.overhead_s", "s"),
        ("service.cache_hit_ratio", "ratio"),
        ("service.checkpoint_warm_ratio", "ratio"),
        ("service.upload_s", "s"),
        ("service.coalesced", "count"),
        ("service.busy_rejected", "count"),
        ("service.retries", "count"),
        ("bench.unattributed_s", "s"),
        ("bench.trace_overhead_s", "s"),
        ("bench.traced_op_s", "s"),
        ("bench.spans", "count"),
    )
)


def end_to_end(ctx: RunContext) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """Metric values plus their sample counts and statistics."""
    ops = [op for op in ctx.ops if op.ok and not op.traced]
    untraced = [p for p in ctx.passes if not p["traced"]]
    passes = [p["duration_s"] for p in untraced]
    values = {
        "setup_s": ctx.setup_s,
        "peak_rss_mb": ctx.peak_rss_mb,
        "pass_s": median(passes),
    }
    samples = {
        "setup_s": {"n": len(ctx.setup_samples), "stat": "p50"},
        "peak_rss_mb": {"n": len(passes), "stat": "max"},
        "pass_s": {"n": len(passes), "stat": "p50"},
        "pass_wall_s": summarize([p["wall_s"] for p in untraced]),
        # Not gated: the operations of a pass are unequal by design, so
        # their median sits in a gap between sizes (see NOTES.md).
        "op_latency_ms": summarize([op.latency_s * 1e3 for op in ops]),
    }
    return values, samples


def per_layer(ctx: RunContext, recorder: SpanRecorder) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Per-layer metric values and the run's total self seconds per layer."""
    seconds = attribute(recorder.spans)
    passes = max(1, ctx.traced_passes())
    values: Dict[str, float] = {name: 0.0 for name, _ in PER_LAYER}
    values["browser.run_s"] = seconds.get("browser.run.inclusive", 0.0) / passes
    for name, layer in _SPAN_LAYERS:
        values[name] = seconds.get(layer, 0.0) / passes
    for engine, count in ctx.engines.items():
        key = f"profiler.engine.{engine if engine in ENGINES else 'other'}"
        values[key] += count / passes
    values.update(ctx.layers)
    seen, whole = ctx.touched
    values["profiler.touched_ratio"] = seen / whole if whole else 0.0
    traced = [p["wall_s"] for p in ctx.passes if p["traced"]]
    untraced = [p["wall_s"] for p in ctx.passes if not p["traced"]]
    if traced and untraced:
        values["bench.trace_overhead_s"] = median(traced) - median(untraced)
    values["bench.traced_op_s"] = seconds.get("op.total", 0.0) / passes
    values["bench.spans"] = len(recorder.spans) / passes
    return values, seconds
