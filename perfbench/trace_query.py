"""trace-query: collect once, slice many.

Set-up collects bing and livefeed through ``python -m repro.trace
collect``, once with the default format and once with ``--format=v3``.
Each timed pass then runs, in seeded order, one query per file and
criteria family: ``load_any_trace``, then ``run_slice_job`` with no
engine argument (which returns the statistics).  No browser work is
timed.
"""

from __future__ import annotations

import gc
import time
from contextlib import nullcontext
from typing import Dict, List, Tuple

from .common import (
    CRITERIA,
    Op,
    RunContext,
    Timing,
    flags_sha256,
    per_second,
    run_program,
    self_peak_rss_mb,
    summarize,
    timed,
    timed_beside,
)
from .spans import SpanRecorder

SITES = ("bing", "livefeed")
QUICK_SITES = ("livefeed",)
FRAME_SITES = ("livefeed",)
FORMATS = ("default", "v3")


def collect(ctx: RunContext, site: str, fmt: str) -> Tuple[str, Timing]:
    """Collect ``site`` through the trace CLI; return the path and timing."""
    path = ctx.workdir / f"{site}-{fmt}.ucwa"
    args = ["repro.trace", "collect", site, str(path)]
    if fmt != "default":
        args.append(f"--format={fmt}")
    with timed_beside(sample=True) as timing:
        run_program(ctx, args)
    return str(path), timing


def update_frame_records(store) -> List[int]:
    """Records per update frame (every complete frame after the first)."""
    spans = [span for span in store.frame_spans() if span.complete]
    return [span.n_records() for span in spans[1:]]


def run(ctx: RunContext, recorder: SpanRecorder) -> None:
    import repro.trace.store as store_mod
    from repro.profiler import Profiler
    from repro.profiler.api import run_slice_job
    from repro.profiler.criteria import criteria_from_name

    sites = QUICK_SITES if ctx.quick else SITES
    paths: Dict[Tuple[str, str], str] = {}
    collects: List[Timing] = []
    for site in sites:
        for fmt in FORMATS:
            paths[site, fmt], collected = collect(ctx, site, fmt)
            collects.append(collected)
    collect_s = [t.wall_s for t in collects]
    # One sample: collecting takes about 10 s, half a run.
    ctx.setup_samples = [sum(t.wall_s * t.scale for t in collects)]
    ctx.setup_s = ctx.setup_samples[0]
    ctx.details["setup.collect_s"] = collect_s
    ctx.layers["trace.collect_s"] = sum(collect_s)
    ctx.layers["trace.bytes"] = sum(
        (ctx.workdir / f"{site}-{fmt}.ucwa").stat().st_size for site in sites for fmt in FORMATS
    )

    queries = [(site, fmt, crit) for site in sites for fmt in FORMATS for crit in CRITERIA]
    answers: List[Tuple[str, str, str, str]] = []
    records: Dict[str, int] = {}
    started = time.perf_counter()
    index = 0
    while ctx.more_passes(started, index):
        traced = ctx.pass_is_traced(index)
        order = list(queries)
        ctx.rng.shuffle(order)
        with recorder.installed(traced):
            for site, fmt, crit in order:
                kind = f"{site}/{fmt}/{crit}"
                gc.collect()  # the previous query's store is not pending
                try:
                    span = recorder.span("op") if traced else nullcontext()
                    with span, timed(sample=not traced) as timing:
                        store = store_mod.load_any_trace(paths[site, fmt])
                        result, stats = run_slice_job(store, criteria=crit)
                except Exception as err:  # noqa: BLE001 - counted, not fatal
                    ctx.ops.append(Op(kind, "query", 0.0, index, traced, ok=False))
                    ctx.fail(f"{kind}: {type(err).__name__}: {err}")
                    continue
                ctx.ops.append(
                    Op(kind, "query", timing.wall_s, index, traced, scale=timing.scale)
                )
                answers.append((site, fmt, crit, flags_sha256(result.flags)))
                records[site] = len(store)
                if traced:
                    ctx.count_slice(result.engine_stats, len(result.flags))
                del store, result, stats
        ctx.add_op_pass(index, traced)
        index += 1
    ctx.peak_rss_mb = self_peak_rss_mb()

    # References: the sequential engine over the default-format store of
    # each site, checked against every query of either format.
    expected: Dict[Tuple[str, str], str] = {}
    update_records: List[int] = []
    for site in sites:
        store = store_mod.load_any_trace(paths[site, "default"])
        profiler = Profiler(store)
        for crit in CRITERIA:
            flags = profiler.slice(criteria_from_name(store, crit), engine="sequential").flags
            expected[site, crit] = ctx.reference_digest(flags)
        if site in FRAME_SITES:
            update_records.extend(update_frame_records(store))
        del store, profiler
    for site, fmt, crit, digest in answers:
        if digest != expected[site, crit]:
            ctx.fail(f"{site}/{fmt}/{crit}: flags {digest[:12]} != reference "
                     f"{expected[site, crit][:12]}")

    untraced = [op for op in ctx.ops if op.ok and not op.traced]
    ctx.details["query_p50_s"] = summarize([op.latency_s for op in untraced])
    # Not gated: every pass runs the same queries, so this is the pass
    # wall time again.
    ctx.details["queries_per_s"] = per_second(ctx, len(untraced))
    for fmt in FORMATS:
        ctx.details[f"query_{fmt}_p50_s"] = summarize(
            [op.latency_s for op in untraced if f"/{fmt}/" in op.kind]
        )
    ctx.layers["browser.records"] = sum(records.values())
    ctx.layers["browser.update_records"] = (
        sum(update_records) / len(update_records) if update_records else 0
    )
