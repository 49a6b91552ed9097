"""site-profile: the paper's experiment, run cold in process.

Each pass profiles, in seeded order, the Table II sites plus one
``random_page(seed)`` site through ``harness.experiments.run_benchmark``
(simulate, trace, pixel slice, statistics, categories) and the
multi-frame sites through ``run_frames`` (incremental updates, per-frame
slices, redundancy report).  No trace is saved, loaded or digested.
"""

from __future__ import annotations

import gc
import subprocess
import sys
import time
from contextlib import nullcontext
from typing import Any, Dict, List, Tuple

from .common import (
    ROOT,
    Op,
    RunContext,
    Timing,
    flags_sha256,
    load_goldens,
    median,
    self_peak_rss_mb,
    timed,
    timed_beside,
)
from .spans import SpanRecorder

TABLE2 = ("amazon_desktop", "amazon_mobile", "google_maps", "bing")
FRAME_SITES = ("ticker", "livefeed", "scrollseq")
QUICK_TABLE2 = ("amazon_mobile",)
QUICK_FRAME_SITES = ("ticker",)
SETUP_REPEATS = 3

_SETUP_SNIPPET = """
import sys
sys.path.insert(0, {src!r})
from repro.harness.experiments import run_benchmark, run_frames
from repro.workloads import benchmark
from repro.workloads.fuzz import random_page
for name in {names!r}:
    benchmark(name)
random_page({seed})
"""


def _sites(ctx: RunContext) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    if ctx.quick:
        return QUICK_TABLE2, QUICK_FRAME_SITES
    return TABLE2, FRAME_SITES


def _setup_once(ctx: RunContext, names: List[str]) -> Timing:
    """A fresh interpreter importing the program and building the inputs."""
    code = _SETUP_SNIPPET.format(src=str(ROOT / "src"), names=names, seed=ctx.seed)
    with timed_beside(sample=True) as timing:
        # Output is captured so that the end of the child is seen on its
        # pipes at once; waiting on the process with a timeout alone polls
        # it at up to 50 ms intervals, a tenth of this measurement.
        subprocess.run(
            [sys.executable, "-c", code],
            cwd=ROOT,
            env=ctx.env(),
            check=True,
            timeout=120,
            capture_output=True,
        )
    return timing


def frame_reference(store) -> List[Tuple[int, int, int]]:
    """(frame id, records, pixel-slice records) per complete frame.

    Each frame's pixel criterion is sliced with the sequential engine
    over the store the frame came from.
    """
    from repro.profiler import Profiler
    from repro.profiler.redundancy import frame_pixel_criteria

    profiler = Profiler(store)
    rows = []
    for span in store.frame_spans():
        if not span.complete:
            continue
        criteria = frame_pixel_criteria(store, span)
        in_slice = 0
        if criteria.criteria:
            flags = profiler.slice(criteria, engine="sequential").flags
            in_slice = sum(flags[span.begin : span.end + 1])
        rows.append((span.frame_id, span.n_records(), in_slice))
    return rows


def run(ctx: RunContext, recorder: SpanRecorder) -> None:
    from repro.harness.experiments import run_benchmark, run_frames
    from repro.workloads import benchmark
    from repro.workloads.fuzz import random_page

    table2, frame_sites = _sites(ctx)
    names = list(table2) + list(frame_sites)
    setups = [_setup_once(ctx, names) for _ in range(SETUP_REPEATS)]
    ctx.setup_samples = [t.wall_s * t.scale for t in setups]
    ctx.setup_s = median(ctx.setup_samples)
    ctx.details["setup.wall_s"] = [t.wall_s for t in setups]

    goldens = load_goldens()["table2"]
    random_name = f"random_page({ctx.seed})"
    jobs = [(name, "profile") for name in table2]
    jobs += [(random_name, "profile")] + [(name, "frames") for name in frame_sites]

    expected: Dict[str, Any] = {
        name: [golden["all_fraction"], golden["total_instructions"]]
        for name, golden in goldens.items()
    }
    records: Dict[str, int] = {}
    update_records: List[int] = []
    started = time.perf_counter()
    index = 0
    while ctx.more_passes(started, index):
        traced = ctx.pass_is_traced(index)
        order = list(jobs)
        ctx.rng.shuffle(order)
        with recorder.installed(traced):
            for name, cls in order:
                bench = random_page(ctx.seed) if name == random_name else benchmark(name)
                # Each site starts from a collected heap, as in a fresh
                # process, not with the previous site's garbage pending.
                gc.collect()
                try:
                    span = recorder.span("op") if traced else nullcontext()
                    with span, timed(sample=not traced) as timing:
                        result = (run_frames if cls == "frames" else run_benchmark)(bench)
                except Exception as err:  # noqa: BLE001 - counted, not fatal
                    ctx.ops.append(Op(name, cls, 0.0, index, traced, ok=False))
                    ctx.fail(f"{name}: {type(err).__name__}: {err}")
                    continue
                ctx.ops.append(
                    Op(name, cls, timing.wall_s, index, traced, scale=timing.scale)
                )
                if cls == "frames":
                    answer: Any = [[f.frame_id, f.total, f.in_slice] for f in result.report.frames]
                elif name in goldens:
                    answer = [result.stats.fraction, result.stats.total]
                else:
                    answer = flags_sha256(result.pixel.flags)
                if name not in expected:
                    # Outside the timed region, from this site's first store;
                    # later passes must reproduce it exactly.
                    expected[name] = _reference(ctx, result.store, cls)
                if answer != expected[name]:
                    ctx.fail(f"{name}: answer {answer!r} != reference {expected[name]!r}")
                records[name] = len(result.store)
                if cls == "frames" and index == 0:
                    update_records.extend(f.total for f in result.report.updates())
                if cls == "profile" and traced:
                    ctx.count_slice(result.pixel.engine_stats, len(result.pixel.flags))
                del result
        ctx.add_op_pass(index, traced)
        index += 1
    ctx.peak_rss_mb = self_peak_rss_mb()

    untraced = [i for i in range(index) if not ctx.passes[i]["traced"]]
    for detail, cls in (("profile_s", "profile"), ("frames_profile_s", "frames")):
        scaled = [
            sum(op.latency_s * op.scale for op in ctx.ops if op.pass_index == i and op.cls == cls)
            for i in untraced
        ]
        ctx.details[detail] = {"n": len(scaled), "p50": median(scaled)}
    ctx.layers["browser.records"] = sum(records.values())
    ctx.layers["browser.update_records"] = (
        sum(update_records) / len(update_records) if update_records else 0
    )


def _reference(ctx: RunContext, store, cls: str) -> Any:
    """The sequential engine's answer over ``store``."""
    if cls == "frames":
        return [list(row) for row in frame_reference(store)]
    from repro.profiler import Profiler, pixel_criteria

    flags = Profiler(store).slice(pixel_criteria(store), engine="sequential").flags
    return ctx.reference_digest(flags)
