"""Measured-vs-paper report generation for every table and figure."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..analysis.coverage import CoverageRow, coverage_row
from ..analysis.figures import figure4_chart, figure5_chart
from ..analysis.utilization import ascii_chart, busy_fraction, find_spikes
from ..browser.context import MAIN_THREAD
from ..profiler import pixel_criteria
from ..profiler.stats import timeline_series, windowed_fraction
from . import paper
from .experiments import ExperimentResult, FrameExperimentResult, cached_run


def table2_report(results: Dict[str, ExperimentResult]) -> str:
    """Table II: slicing statistics per thread, measured vs paper."""
    lines = [
        "Table II: Slicing statistics of pixel-based approach "
        "(measured | paper reference)",
        "=" * 94,
    ]
    header = f"{'Thread':<14s}" + "".join(
        f"{paper.TABLE2[name].label.split(':')[0]:>20s}" for name in paper.TABLE2
    )
    lines.append(header)
    lines.append("-" * 94)

    def row(label: str, cells: List[str]) -> str:
        return f"{label:<14s}" + "".join(f"{c:>20s}" for c in cells)

    all_cells, main_cells, comp_cells = [], [], []
    for name in paper.TABLE2:
        result = results[name]
        ref = paper.TABLE2[name]
        all_cells.append(f"{result.stats.fraction:.0%} | {ref.all_slice:.0%}")
        main = result.stats.thread_by_name("CrRendererMain")
        main_cells.append(f"{main.fraction:.0%} | {ref.main_slice:.0%}")
        comp = result.stats.thread_by_name("Compositor")
        comp_cells.append(f"{comp.fraction:.0%} | {ref.compositor_slice:.0%}")
    lines.append(row("All", all_cells))
    lines.append(row("Main", main_cells))
    lines.append(row("Compositor", comp_cells))

    max_rasterizers = max(len(ref.rasterizer_slices) for ref in paper.TABLE2.values())
    for index in range(max_rasterizers):
        cells = []
        for name in paper.TABLE2:
            result = results[name]
            ref = paper.TABLE2[name]
            rasters = result.stats.threads_by_prefix("CompositorTileWorker")
            if index < len(ref.rasterizer_slices) and index < len(rasters):
                cells.append(
                    f"{rasters[index].fraction:.0%} | {ref.rasterizer_slices[index]:.0%}"
                )
            else:
                cells.append("- | -")
        lines.append(row(f"Rasterizer {index + 1}", cells))

    lines.append("-" * 94)
    total_cells = []
    for name in paper.TABLE2:
        result = results[name]
        ref = paper.TABLE2[name]
        total_cells.append(f"{result.stats.total // 1000}K | {ref.all_instructions_m}M")
    lines.append(row("Total instrs", total_cells))
    measured_avg = sum(r.stats.fraction for r in results.values()) / len(results)
    lines.append(
        f"\nAverage overall slice: measured {measured_avg:.1%} | paper "
        f"{paper.TABLE2_AVERAGE_SLICE:.0%}"
    )
    return "\n".join(lines)


def table1_report(
    load_results: Dict[str, ExperimentResult],
    browse_results: Dict[str, ExperimentResult],
) -> str:
    """Table I: unused JS+CSS bytes, measured vs paper percentages."""
    site_names = {"amazon_desktop": "Amazon", "bing": "Bing", "google_maps": "Google Maps"}
    lines = [
        "Table I: Unused JavaScript and CSS code bytes (measured | paper %)",
        "=" * 76,
    ]
    for condition, results in (("Only Load", load_results), ("Load and Browse", browse_results)):
        for key, result in results.items():
            site = site_names[key]
            row = coverage_row(result, site, condition)
            ref = paper.TABLE1.get((site, condition))
            ref_pct = f"{ref[2]:.0%}" if ref else "n/a"
            lines.append(f"{row.formatted()} | paper {ref_pct}")
    return "\n".join(lines)


def figure2_report(result: ExperimentResult) -> str:
    """Figure 2: main-thread CPU utilization while browsing amazon.com."""
    series = result.utilization(MAIN_THREAD)
    spikes = find_spikes(series)
    lines = [
        ascii_chart(series, title="Figure 2: CPU utilization, main thread (amazon.com session)"),
        "",
        f"activity spikes detected: {len(spikes)} "
        "(expected: one large load spike plus one per user interaction)",
        f"mean utilization: {busy_fraction(series):.1%}",
    ]
    for i, spike in enumerate(spikes):
        lines.append(
            f"  spike {i}: {spike.start_s:.1f}s - {spike.end_s:.1f}s peak {spike.peak:.0%}"
        )
    return "\n".join(lines)


def figure4_report(results: Dict[str, ExperimentResult]) -> str:
    """Figure 4 (a-h): slice fraction over the backward pass."""
    lines = ["Figure 4: Changes of slicing percentage over the backward pass", ""]
    for name, result in results.items():
        label = paper.TABLE2[name].label
        lines.append(figure4_chart(timeline_series(result.pixel), f"({label}) All threads"))
        lines.append("")
        lines.append(
            figure4_chart(timeline_series(result.pixel, main=True), f"({label}) Main thread")
        )
        lines.append("")
    return "\n".join(lines)


def figure5_report(results: Dict[str, ExperimentResult]) -> str:
    """Figure 5: distribution of unnecessary-computation categories."""
    distributions = [
        (paper.TABLE2[name].label, result.categories) for name, result in results.items()
    ]
    lines = [figure5_chart(distributions)]
    lines.append("paper reference: categorized fractions "
                 + ", ".join(f"{paper.TABLE2[n].label.split(':')[0]}={paper.FIGURE5_CATEGORIZED_FRACTION[n]:.0%}"
                             for n in results))
    lines.append(f"paper's dominant category: {paper.FIGURE5_DOMINANT_CATEGORY}")
    return "\n".join(lines)


def bing_partial_report(result: ExperimentResult) -> str:
    """Section V-A: slicing the Bing trace only up to load-complete."""
    store = result.store
    load_idx = store.metadata.load_complete_index
    if load_idx is None:
        return "bing trace has no load-complete marker"
    partial = result.profiler.slice(pixel_criteria(store).windowed(load_idx))
    load_only = windowed_fraction(partial, 0, load_idx)
    full_of_load = windowed_fraction(result.pixel, 0, load_idx)
    return "\n".join(
        [
            "Bing partial-slice experiment (Section V-A):",
            f"  load-only slice of load-time instructions:    measured {load_only:.1%} | paper {paper.BING_LOAD_ONLY_SLICE:.1%}",
            f"  full-session slice of load-time instructions: measured {full_of_load:.1%} | paper {paper.BING_FULL_SESSION_SLICE_OF_LOAD:.1%}",
            f"  browsing adds: measured {full_of_load - load_only:+.1%} | paper "
            f"{paper.BING_FULL_SESSION_SLICE_OF_LOAD - paper.BING_LOAD_ONLY_SLICE:+.1%}",
        ]
    )


def frames_report(results: Dict[str, FrameExperimentResult]) -> str:
    """Per-frame redundancy breakdown for the multi-frame workloads.

    One block per workload: each complete frame epoch's instruction count,
    its own pixel-slice share, and the redundant / fresh-unnecessary split
    of the rest, plus the steady-state size relative to the load frame.
    """
    lines = [
        "Cross-frame redundancy: per-frame pixel slices "
        "(incremental frame pipeline)",
        "=" * 78,
    ]
    for name, result in results.items():
        report = result.report
        lines.append(f"{name} ({len(report.frames)} frames)")
        lines.append(
            f"  {'frame':<7s}{'kind':<8s}{'instrs':>8s}{'slice':>8s}"
            f"{'redund':>8s}{'fresh':>8s}{'red%':>7s}{'vs f0':>8s}"
        )
        first = report.first()
        for frame in report.frames:
            vs_first = (
                frame.total / first.total if first and first.total else 0.0
            )
            lines.append(
                f"  {frame.frame_id:<7d}{frame.kind:<8s}{frame.total:>8d}"
                f"{frame.in_slice:>8d}{frame.redundant:>8d}"
                f"{frame.fresh_unnecessary:>8d}"
                f"{frame.redundant_fraction:>7.1%}{vs_first:>8.1%}"
            )
        ratio = report.steady_state_ratio()
        if ratio is not None:
            lines.append(
                f"  steady-state frames average {ratio:.1%} of the load frame"
            )
        lines.append("")
    return "\n".join(lines).rstrip()


def run_all_table2() -> Dict[str, ExperimentResult]:
    """Run (or reuse) the four Table II benchmarks."""
    return {name: cached_run(name) for name in paper.TABLE2}
