"""Concurrency-sanitizer CLI.

Usage::

    python -m repro.tsan races /tmp/amazon.ucwa
    python -m repro.tsan races --workload wiki_article [--json]
    python -m repro.tsan locks [--workload NAME] [--json]
    python -m repro.tsan report [--json] [--no-recall]

``races`` replays a saved trace of either UCWA format (or a registered
workload, run live so memory-cell names are available) through the
happens-before detector and exits 1 if any race is found; a trace path
that cannot be read prints ``error: ...`` and exits 2.  ``locks`` runs
the static lock-order analysis — with ``--workload`` it also
cross-references the statically predicted orders against the orders
that run actually exercised — and exits non-zero on cycles, inversions,
or unpredicted observed orders.
``report`` produces the full sanitizer report (paper workloads, fuzz
recall, lock order) and exits non-zero unless every workload is race-free,
recall is >= 0.9, and the lock-order graph is clean.
"""

from __future__ import annotations

import json
import sys
from typing import List, Optional

from .detector import cell_namer, detect_races
from .lockorder import analyze_lock_order, cross_reference, observed_orders


def _load_workload(name: str):
    from ..harness.experiments import run_engine
    from ..workloads import benchmark

    engine = run_engine(benchmark(name))
    return engine.trace_store(), cell_namer(engine.ctx.memory)


def _races(argv: List[str]) -> int:
    as_json = "--json" in argv
    argv = [a for a in argv if a != "--json"]
    workload: Optional[str] = None
    path: Optional[str] = None
    skip = False
    for i, arg in enumerate(argv):
        if skip:
            skip = False
            continue
        if arg == "--workload":
            if i + 1 >= len(argv):
                print("--workload needs a name")
                return 2
            workload = argv[i + 1]
            skip = True
        elif arg.startswith("--workload="):
            workload = arg[len("--workload="):]
        elif arg.startswith("--"):
            print(f"unknown option {arg!r}")
            return 2
        else:
            path = arg
    if (workload is None) == (path is None):
        print("races needs exactly one of: a trace path, or --workload NAME")
        return 2
    if workload is not None:
        store, namer = _load_workload(workload)
        label = workload
    else:
        from ..trace.store import load_any_trace

        assert path is not None
        try:
            store = load_any_trace(path)
        except (ValueError, OSError) as err:
            # Exit 1 means "races found": an unreadable trace is exit 2.
            print(f"error: {err}", file=sys.stderr)
            return 2
        namer, label = None, path
    report = detect_races(store, cell_names=namer)
    if as_json:
        print(json.dumps({"trace": label, **report.to_json()}, indent=2))
    else:
        print(
            f"{label}: {report.n_records} records, {report.n_threads} threads, "
            f"{report.sync_event_total()} sync events across "
            f"{report.n_sync_objects} sync objects"
        )
        if report.ok:
            print("no races found")
        else:
            print(f"{len(report.races)} race(s):")
            for race in report.races:
                print(f"  {race.describe()}")
    return 0 if report.ok else 1


def _locks(argv: List[str]) -> int:
    as_json = "--json" in argv
    argv = [a for a in argv if a != "--json"]
    workloads: List[str] = []
    skip = False
    for i, arg in enumerate(argv):
        if skip:
            skip = False
            continue
        if arg == "--workload":
            if i + 1 >= len(argv):
                print("--workload needs a name")
                return 2
            workloads.append(argv[i + 1])
            skip = True
        elif arg.startswith("--workload="):
            workloads.append(arg[len("--workload="):])
        else:
            print(f"unknown option {arg!r}")
            return 2
    graph = analyze_lock_order()
    cycles = graph.cycles()
    inversions = graph.inversions()
    failures = bool(cycles or inversions or graph.unresolved)
    xrefs: dict = {}
    for name in workloads:
        store, namer = _load_workload(name)
        xrefs[name] = cross_reference(graph, observed_orders(store, namer))
        if xrefs[name]["unpredicted_observed"]:
            failures = True
    if as_json:
        print(
            json.dumps(
                {"static": graph.to_json(), "cross_reference": xrefs}, indent=2
            )
        )
    else:
        print(
            f"{len(graph.locks)} locks, {len(graph.sites)} acquisition sites, "
            f"{len(graph.unresolved)} unresolved"
        )
        for a in sorted(graph.edges):
            for b in sorted(graph.edges[a]):
                sites = graph.witnesses.get((a, b), [])
                print(f"  {a} -> {b}   [{sites[0] if sites else '?'}]")
        print(f"cycles: {len(cycles)}, inversion pairs: {len(inversions)}")
        for cycle in cycles:
            print("  CYCLE: " + " -> ".join(cycle))
        for a, b in inversions:
            print(f"  INVERSION: {a} <-> {b}")
        for name, xref in xrefs.items():
            print(
                f"{name}: unpredicted observed orders: "
                f"{len(xref['unpredicted_observed'])}, "
                f"static edges not exercised: {len(xref['unexercised_static'])}"
            )
            for a, b in xref["unpredicted_observed"]:
                print(f"  UNPREDICTED: {a} -> {b}")
    return 1 if failures else 0


def _report(argv: List[str]) -> int:
    from .report import full_report

    as_json = "--json" in argv
    include_recall = "--no-recall" not in argv
    for arg in argv:
        if arg not in ("--json", "--no-recall"):
            print(f"unknown option {arg!r}")
            return 2
    text, data = full_report(include_recall=include_recall)
    if as_json:
        print(json.dumps(data, indent=2))
    else:
        print(text)
    failures = not all(w["race_free"] for w in data["workloads"])
    if data["lock_order"]["cycles"] or data["lock_order"]["inversions"]:
        failures = True
    for xref in data["cross_reference"].values():
        if xref["unpredicted_observed"]:
            failures = True
    if include_recall:
        recall = data["fuzz_recall"]
        if recall["recall"] < 0.9 or recall["clean_with_false_positives"]:
            failures = True
    return 1 if failures else 0


def main(argv) -> int:
    if argv and argv[0] == "races":
        return _races(argv[1:])
    if argv and argv[0] == "locks":
        return _locks(argv[1:])
    if argv and argv[0] == "report":
        return _report(argv[1:])
    print(__doc__)
    return 2


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BrokenPipeError:  # e.g. `... | head`
        sys.exit(0)
