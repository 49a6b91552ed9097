"""Slice statistics (drives Table II and Figure 4).

Given a trace and a :class:`~repro.profiler.slicer.SliceResult`, compute the
paper's reported quantities: per-thread slice percentages and instruction
counts, per-function aggregation, windowed statistics (e.g. "how many
load-time instructions are in the full-session slice"), and the
backward-pass timeline series.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..trace.store import TraceStore
from .slicer import SliceResult


@dataclass(frozen=True)
class ThreadStat:
    """Slice statistics of one thread."""

    tid: int
    name: str
    total: int
    in_slice: int

    @property
    def fraction(self) -> float:
        return self.in_slice / self.total if self.total else 0.0


@dataclass
class SliceStatistics:
    """Aggregated statistics of one slicing run over one trace."""

    criteria_name: str
    total: int
    in_slice: int
    threads: Tuple[ThreadStat, ...]

    @property
    def fraction(self) -> float:
        return self.in_slice / self.total if self.total else 0.0

    def thread_by_name(self, name: str) -> Optional[ThreadStat]:
        for stat in self.threads:
            if stat.name == name:
                return stat
        return None

    def threads_by_prefix(self, prefix: str) -> List[ThreadStat]:
        return [stat for stat in self.threads if stat.name.startswith(prefix)]


def compute_statistics(store: TraceStore, result: SliceResult) -> SliceStatistics:
    """Per-thread and overall slice statistics.

    The per-thread counts are the trace's ``thread_slice_counts`` (a
    columnar trace's is two ``bincount`` calls over the tid column).
    """
    flags = result.flags
    totals, sliced = store.thread_slice_counts(flags)

    names = store.metadata.thread_names
    threads = tuple(
        ThreadStat(
            tid=tid,
            name=names.get(tid, f"thread-{tid}"),
            total=totals[tid],
            in_slice=sliced.get(tid, 0),
        )
        for tid in sorted(totals)
    )
    return SliceStatistics(
        criteria_name=result.criteria_name,
        total=len(flags),
        in_slice=sum(sliced.values()),
        threads=threads,
    )


def windowed_fraction(
    result: SliceResult, start: int = 0, end: Optional[int] = None
) -> float:
    """Fraction of records in ``[start, end)`` that belong to the slice.

    Used for the paper's Bing experiment: with the full-session slice, what
    fraction of *load-time* instructions (the prefix up to the
    load-complete marker) turned out useful.
    """
    flags = result.flags
    if end is None:
        end = len(flags)
    span = end - start
    if span <= 0:
        return 0.0
    return sum(flags[start:end]) / span


def per_function_fractions(
    store: TraceStore, result: SliceResult, min_records: int = 1
) -> List[Tuple[str, int, int]]:
    """Per-function (name, total, in-slice) triples, descending by total."""
    totals: Dict[int, int] = {}
    sliced: Dict[int, int] = {}
    flags = result.flags
    for i, rec in enumerate(store.forward()):
        totals[rec.fn] = totals.get(rec.fn, 0) + 1
        if flags[i]:
            sliced[rec.fn] = sliced.get(rec.fn, 0) + 1
    rows = [
        (store.symbols.name(fn), count, sliced.get(fn, 0))
        for fn, count in totals.items()
        if count >= min_records
    ]
    rows.sort(key=lambda row: -row[1])
    return rows


def timeline_series(result: SliceResult, main: bool = False) -> List[Tuple[int, float]]:
    """(records processed, cumulative slice fraction) series for Figure 4.

    ``x = 0`` corresponds to the end of the trace (page loaded / browsing
    session done) and the last point to entering the URL — matching the
    paper's x-axis orientation.
    """
    series = []
    for sample in result.timeline:
        x = sample.processed_main if main else sample.processed
        y = sample.fraction_main() if main else sample.fraction_all()
        series.append((x, y))
    return series
