"""End-to-end experiment runner: workload -> trace -> profile.

``run_benchmark`` loads a benchmark's page in a fresh engine, executes its
browsing session (injecting lazily-downloaded scripts at the scripted
points, plus periodic metrics chatter), and returns an
:class:`ExperimentResult` bundling the trace with the profiler outputs the
paper's tables and figures are built from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from ..browser import BrowserEngine, MAIN_THREAD
from ..profiler import (
    CategoryDistribution,
    Profiler,
    RedundancyReport,
    SliceResult,
    SliceStatistics,
    analyze_frames,
    pixel_criteria,
)
from ..trace.records import collector_paused
from ..trace.store import TraceStore
from ..workloads.base import Benchmark


@dataclass
class ExperimentResult:
    """Everything measured for one benchmark run."""

    benchmark: Benchmark
    engine: BrowserEngine
    store: TraceStore
    profiler: Profiler
    pixel: SliceResult
    stats: SliceStatistics
    categories: CategoryDistribution

    @property
    def name(self) -> str:
        return self.benchmark.name

    def utilization(self, tid: int = MAIN_THREAD) -> List[Tuple[float, float]]:
        return self.engine.utilization_series(tid)

    def js_coverage(self):
        return self.engine.interp.coverage

    def css_total_bytes(self) -> int:
        return self.engine.cssom.total_bytes()

    def css_used_bytes(self) -> int:
        return self.engine.cssom.used_bytes()

    def code_total_bytes(self) -> int:
        """JS + CSS bytes downloaded (the Table I denominator)."""
        return self.js_coverage().total_bytes() + self.css_total_bytes()

    def code_unused_bytes(self) -> int:
        """JS + CSS bytes never executed/matched (the Table I numerator)."""
        css_unused = self.css_total_bytes() - self.css_used_bytes()
        return self.js_coverage().unused_bytes() + css_unused

    def code_unused_fraction(self) -> float:
        total = self.code_total_bytes()
        return self.code_unused_bytes() / total if total else 0.0


@collector_paused()
def run_engine(bench: Benchmark, metrics_ticks: int = 4) -> BrowserEngine:
    """Run a benchmark's full session and return the engine.

    The cyclic collector is paused for the run (see
    :func:`~repro.trace.records.collector_paused`): the trace and the DOM
    it is built from stay alive to the end, so collections during the
    run would only rescan them.
    """
    engine = BrowserEngine(bench.config)
    engine.load_page(bench.page)
    if bench.deferred_scripts:
        # Optimizer-deferred scripts run right after the load frame: the
        # load-time pixels are already on screen, so pulling these out of
        # the critical path cannot change them (verified by frame digests).
        for url, source in bench.deferred_scripts.items():
            engine.load_additional_script(url, source)
        engine.scheduler.run_until_idle()
    engine.pump_animation_frames(bench.config.load_animation_ticks)
    for _ in range(metrics_ticks):
        engine.emit_metrics_tick()
    engine.scheduler.run_until_idle()
    for i, action in enumerate(bench.actions):
        late = bench.late_scripts.get(i)
        if late:
            for url, source in late.items():
                engine.load_additional_script(url, source)
            engine.scheduler.run_until_idle()
        engine.ctx.clock.idle(action.think_time_ms * 1000.0)
        engine.perform_action(action)
        engine.pump_animation_frames(bench.config.action_animation_ticks)
        engine.scheduler.run_until_idle()
    return engine


def run_benchmark(
    bench: Benchmark,
    sample_every: Optional[int] = None,
    metrics_ticks: int = 2,
) -> ExperimentResult:
    """Run, trace, and profile one benchmark."""
    engine = run_engine(bench, metrics_ticks=metrics_ticks)
    store = engine.trace_store()
    if sample_every is None:
        sample_every = max(1, len(store) // 200)
    profiler = Profiler(store)
    pixel = profiler.slice(pixel_criteria(store), sample_every=sample_every)
    stats = profiler.statistics(pixel)
    categories = profiler.categorize(pixel)
    return ExperimentResult(
        benchmark=bench,
        engine=engine,
        store=store,
        profiler=profiler,
        pixel=pixel,
        stats=stats,
        categories=categories,
    )


@lru_cache(maxsize=None)
def cached_run(name: str) -> ExperimentResult:
    """Run a registered benchmark once per process (benches share traces)."""
    from ..workloads import benchmark

    return run_benchmark(benchmark(name))


@dataclass
class FrameExperimentResult:
    """A multi-frame benchmark run plus its per-frame redundancy profile."""

    benchmark: Benchmark
    engine: BrowserEngine
    store: TraceStore
    report: RedundancyReport

    @property
    def name(self) -> str:
        return self.benchmark.name


@collector_paused()
def run_frames(bench: Benchmark) -> FrameExperimentResult:
    """Run a multi-frame benchmark and profile each frame epoch.

    Unlike :func:`run_benchmark` this drives the page purely through the
    incremental frame pipeline (timer ticks and scripted actions), then
    slices each frame's own pixel criterion and classifies its non-slice
    work as redundant vs. fresh (see :mod:`repro.profiler.redundancy`).
    The trace is a row store, so each frame is sliced by a bounded
    sequential walk (:func:`~repro.profiler.redundancy.bounded_frame_flags`).
    The cyclic collector is paused throughout, as in :func:`run_engine`.
    """
    engine = BrowserEngine(bench.config)
    engine.load_page(bench.page)
    engine.run_session(bench.actions)
    store = engine.trace_store()
    report = analyze_frames(store)
    return FrameExperimentResult(
        benchmark=bench, engine=engine, store=store, report=report
    )


@lru_cache(maxsize=None)
def cached_frames(name: str) -> FrameExperimentResult:
    """Run a registered multi-frame benchmark once per process."""
    from ..workloads import benchmark

    return run_frames(benchmark(name))
