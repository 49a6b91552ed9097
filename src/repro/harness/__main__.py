"""Command-line entry point: regenerate any of the paper's tables/figures.

Usage::

    python -m repro.harness table1
    python -m repro.harness table2
    python -m repro.harness fig2
    python -m repro.harness fig4
    python -m repro.harness fig5
    python -m repro.harness bing-partial
    python -m repro.harness static
    python -m repro.harness tsan
    python -m repro.harness frames [workload ...]
    python -m repro.harness service [workload ...] [--golden=PATH] [--rounds=N]
    python -m repro.harness optimize [workload ...]
    python -m repro.harness all

``static`` cross-validates the static dead-code analyzer
(``repro.jsstatic``) against each workload's dynamic coverage.
``tsan`` runs the concurrency sanitizer: it asserts the four paper
workloads are race-free under happens-before replay and folds per-thread
sync-edge counts into the thread-breakdown report (see
docs/race-detection.md).
``frames`` runs the multi-frame workloads (default: ticker, livefeed,
scrollseq) through the incremental pipeline and prints each frame's
pixel-slice and redundancy breakdown (see docs/incremental-pipeline.md).
Each frame is sliced by a bounded sequential walk that stops once
nothing below the frame can change its flags.
``service`` smoke-tests the profiling daemon (see
docs/profiling-service.md): it boots an in-process server, submits the
paper workloads (default: the four Table II benchmarks) for ``--rounds``
rounds (default 2), and asserts repeat rounds are served from the
content-addressed cache with byte-identical results; ``--golden=PATH``
additionally checks fractions against the frozen paper numbers.
``optimize`` runs the proof-carrying waste eliminator (see
docs/optimizer.md) on each named workload (default: the four paper
sites): it rewrites the workload's JS from static + trace evidence,
re-executes, and asserts the framebuffer is pixel-identical with zero
dead-function trip-wire hits.

Unknown targets and unknown workload names exit with status 2 —
uniformly, for every subcommand.
"""

from __future__ import annotations

import sys

from .experiments import cached_frames, cached_run
from .reporting import (
    bing_partial_report,
    figure2_report,
    figure4_report,
    figure5_report,
    frames_report,
    run_all_table2,
    table1_report,
    table2_report,
)

_TARGETS = (
    "table1", "table2", "fig2", "fig4", "fig5", "bing-partial", "static",
    "tsan", "frames", "service", "optimize", "all",
)

#: Targets that accept workload-name arguments (the rest take none).
_WORKLOAD_TARGETS = ("frames", "service", "optimize")


def _tsan() -> str:
    from ..tsan.report import (
        PAPER_WORKLOADS,
        run_workload,
        sync_breakdown,
        workload_table,
    )

    results = [run_workload(name) for name in PAPER_WORKLOADS]
    racy = [r.name for r in results if not r.report.ok]
    assert not racy, f"paper workloads must be race-free, found races in {racy}"
    sections = [workload_table(results), ""]
    for result in results:
        sections.append(sync_breakdown(result))
        sections.append("")
    return "\n".join(sections).rstrip()


def _static() -> str:
    from ..jsstatic.compare import compare_benchmark, comparison_report
    from ..workloads import TABLE2_BENCHMARKS

    names = ["wiki_article"] + [
        n for n in TABLE2_BENCHMARKS if n != "wiki_article"
    ]
    comparisons = []
    for name in names:
        result = cached_run(name)
        comparisons.append(
            compare_benchmark(
                name, engine=result.engine, pixel_fraction=result.stats.fraction
            )
        )
    return comparison_report(comparisons)


def _table1() -> str:
    load = {
        "amazon_desktop": cached_run("amazon_desktop"),
        "bing": cached_run("bing_load_only"),
        "google_maps": cached_run("google_maps"),
    }
    browse = {
        "amazon_desktop": cached_run("amazon_desktop_browse"),
        "bing": cached_run("bing"),
        "google_maps": cached_run("google_maps_browse"),
    }
    return table1_report(load, browse)


def _optimize(names) -> str:
    from ..optimize import optimize_benchmark, verification_report

    sections = []
    for name in names:
        result = optimize_benchmark(name)
        result.check()
        sections.append(verification_report(result))
    return "\n\n".join(sections)


def _frames(names) -> str:
    return frames_report({name: cached_frames(name) for name in names})


def _service(names, options) -> str:
    from .service import run_service_smoke

    golden = options.get("golden")
    rounds = int(options.get("rounds", "2"))
    return run_service_smoke(names, golden_path=golden, rounds=rounds)


def main(argv) -> int:
    if not argv or argv[0] not in _TARGETS:
        print(__doc__)
        return 2
    target = argv[0]

    options = {}
    workload_args = []
    for arg in argv[1:]:
        if arg.startswith("--"):
            key, _, value = arg[2:].partition("=")
            options[key] = value
        else:
            workload_args.append(arg)
    if options and target != "service":
        print(f"target {target!r} takes no options", file=sys.stderr)
        return 2
    if target == "service":
        unknown_opts = sorted(set(options) - {"golden", "rounds"})
        if unknown_opts:
            print(f"unknown option(s): {', '.join(unknown_opts)}", file=sys.stderr)
            return 2
        rounds = options.get("rounds")
        if rounds is not None and (not rounds.isdigit() or int(rounds) < 1):
            print(f"--rounds expects a positive integer, got {rounds!r}",
                  file=sys.stderr)
            return 2

    from ..workloads import (
        MULTIFRAME_BENCHMARKS,
        TABLE2_BENCHMARKS,
        benchmark_names,
        unknown_names,
    )

    # Workload-name arguments are validated uniformly, for every target:
    # a bad name exits 2 with the same message everywhere.
    unknown = unknown_names(workload_args)
    if unknown:
        print(
            f"unknown workload(s): {', '.join(unknown)}; "
            f"available: {', '.join(benchmark_names())}",
            file=sys.stderr,
        )
        return 2
    if workload_args and target not in _WORKLOAD_TARGETS:
        print(
            f"target {target!r} takes no workload arguments "
            f"(only {', '.join(_WORKLOAD_TARGETS)} do)",
            file=sys.stderr,
        )
        return 2

    frame_names = workload_args or list(MULTIFRAME_BENCHMARKS)
    service_names = workload_args or list(TABLE2_BENCHMARKS)
    optimize_names = workload_args or ["wiki_article"] + [
        n for n in TABLE2_BENCHMARKS if n != "wiki_article"
    ]
    if target in ("table1", "all"):
        print(_table1())
        print()
    if target in ("table2", "all"):
        print(table2_report(run_all_table2()))
        print()
    if target in ("fig2", "all"):
        print(figure2_report(cached_run("amazon_desktop_browse")))
        print()
    if target in ("fig4", "all"):
        print(figure4_report(run_all_table2()))
        print()
    if target in ("fig5", "all"):
        print(figure5_report(run_all_table2()))
        print()
    if target in ("bing-partial", "all"):
        print(bing_partial_report(cached_run("bing")))
        print()
    if target in ("static", "all"):
        print(_static())
        print()
    if target in ("tsan", "all"):
        print(_tsan())
        print()
    if target in ("frames", "all"):
        print(_frames(frame_names))
        print()
    if target in ("service", "all"):
        print(_service(service_names, options))
        print()
    if target in ("optimize", "all"):
        print(_optimize(optimize_names))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
