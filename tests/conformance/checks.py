"""What a conformance case compares, and against what.

The reference is the sequential engine (``BackwardSlicer``) over the row
store of a named input (:data:`inputs.INPUTS`).  Every check starts from
the same preconditions: the input lints, and inputs whose threads
synchronize are race-free.  Failure messages name the input, source,
engine, query and option set, so a failing case reproduces from its
message alone.

The cross of every engine, source, query and option set runs in
``test_matrix.py``; the seed sweeps under ``tests/profiler/`` run the
same checks over every seed of a generator.
"""

from __future__ import annotations

import dataclasses
import functools

import pytest

from repro.profiler import Profiler
from repro.profiler.categorize import categorize_unnecessary
from repro.profiler.cdg import build_index
from repro.profiler.incremental import SliceCheckpoint, StreamingSliceSession
from repro.profiler.oracle import OracleSlicer
from repro.profiler.redundancy import frame_pixel_criteria
from repro.profiler.slicer import DEFAULT_OPTIONS, BackwardSlicer, SlicerOptions
from repro.profiler.stats import compute_statistics
from repro.trace.lint import lint_or_raise
from repro.trace.store import TraceStore
from repro.trace.stream import open_epoch_stream
from repro.tsan.detector import detect_races

from .epoch_chain import chained_epoch_slice
from .inputs import OPTIONS, RACE_FREE, open_source, queries, trace

REASONS = SlicerOptions(track_reasons=True)

#: requests beyond the flags, as fresh keyword arguments per call
REQUESTS = {
    "checkpoint": lambda: {"checkpoint": SliceCheckpoint()},
    "sample-every": lambda: {"sample_every": 7},
    "track-reasons": lambda: {"options": REASONS},
    "checkpoint+sample-every": lambda: {"checkpoint": SliceCheckpoint(), "sample_every": 7},
    "checkpoint+reasons": lambda: {"checkpoint": SliceCheckpoint(), "options": REASONS},
}


def diff(a, b, limit=10):
    return [i for i, (x, y) in enumerate(zip(a, b)) if x != y][:limit]


def fields(result):
    """Every field of a slice result but the engine's diagnostics."""
    return {
        f.name: getattr(result, f.name)
        for f in dataclasses.fields(result)
        if f.name != "engine_stats"
    }


def _observed(store, result):
    """The ``run_slice_job`` statistics and the categories of a slice."""
    return compute_statistics(store, result), categorize_unnecessary(store, result)


@functools.lru_cache(maxsize=16)
def prepared(name):
    """The row store, its forward pass and its queries, once the
    preconditions hold: a malformed trace (or an unsynchronized
    cross-thread pair) would make any agreement meaningless."""
    store = trace(name)
    lint_or_raise(store)
    if name in RACE_FREE:
        report = detect_races(store)
        assert report.ok, "\n".join(r.describe() for r in report.races[:5])
    return store, build_index(store.forward()), queries(store)


@functools.lru_cache(maxsize=1024)
def reference_result(name, query, options=DEFAULT_OPTIONS, sample_every=None):
    """The sequential engine over the row store."""
    store, cdi, query_set = prepared(name)
    return BackwardSlicer(store, cdi, query_set[query], sample_every, options=options).run()


@functools.lru_cache(maxsize=1024)
def reference(name, query, opt):
    """The statistics and categories an engine cell must observe."""
    return _observed(prepared(name)[0], reference_result(name, query, OPTIONS[opt]))


# The reference against the oracle and chained epochs.


def assert_reference_trio(name, windowed=True):
    """The reference equals the transitive-closure oracle and the epoch
    core chained over small epochs, two formulations that share no
    traversal code with it; its sampled timelines and join reasons
    agree with its flags.  ``windowed=False`` leaves out the windowed
    queries."""
    store, cdi, query_set = prepared(name)
    # Small epochs force many frontier hand-offs.
    epoch_size = max(128 + 13 * (len(store) % 5), len(store) // 13)
    for query, criteria in query_set.items():
        if ":" in query and not windowed:
            continue
        label = f"{name} {query}"
        seq = bytes(BackwardSlicer(store, cdi, criteria).run().flags)
        for other, result in (
            ("oracle", OracleSlicer(store, cdi, criteria).run()),
            ("epoch-chain", chained_epoch_slice(store, cdi, criteria, epoch_size)),
        ):
            assert bytes(result.flags) == seq, (
                f"{label}: {other} != sequential at {diff(seq, result.flags)}"
            )
        # Sampling a timeline rides along the same walk: it changes
        # neither flags nor reasons, and its last sample is the slice.
        reasons = BackwardSlicer(store, cdi, criteria, options=REASONS).run()
        sampled = BackwardSlicer(store, cdi, criteria, sample_every=7, options=REASONS).run()
        assert (bytes(sampled.flags), sampled.reasons) == (seq, reasons.reasons), label
        last = sampled.timeline[-1]
        assert (last.processed, last.in_slice) == (len(store), sum(seq)), label


# One engine on one source.


def auto_pick(source, opt, request):
    """The engine ``resolve_engine`` documents for a source and request."""
    if "sample_every" in request or "options" in request:
        return "sequential"
    if "checkpoint" in request:
        return "incremental"
    return "vectorized" if source == "ucwa3-index" and opt == "default" else "sequential"


def assert_engine(name, source, engine, paths, tmp_path, options=None):
    """``engine`` on a fresh ``source`` of input ``name`` equals the
    reference on every query and option set (``options``, name ->
    ``SlicerOptions``; the defaults alone when omitted): flags, and on
    a file source statistics and categories.  Returns the profiler and
    its queries."""
    store = open_source(name, source, paths)
    profiler = Profiler(store)
    query_set = queries(store)
    cells = []
    for opt, opt_options in (options or {"default": DEFAULT_OPTIONS}).items():
        # Incremental runs every query with the profiler's checkpoint,
        # shared across the sweep; under the defaults also with a fresh
        # checkpoint and with one saved to disk and reloaded mid-sweep.
        disk = SliceCheckpoint()
        for i, (query, criteria) in enumerate(query_set.items()):
            label = f"{name} {source} {engine} {query} {opt}"
            runs = {label: None}
            if engine == "incremental" and opt == "default":
                if i == len(query_set) // 2:
                    disk.save(tmp_path / "mid.ckpt")
                    disk = SliceCheckpoint.load(tmp_path / "mid.ckpt")
                runs = {f"{label} fresh": SliceCheckpoint(), f"{label} shared": None,
                        f"{label} disk": disk}
            for run_label, checkpoint in runs.items():
                result = profiler.slice(
                    criteria, engine=engine, options=opt_options, checkpoint=checkpoint
                )
                stats = result.engine_stats
                want = auto_pick(source, opt, {}) if engine == "auto" else engine
                assert stats["engine"] == want, run_label
                if want == "vectorized":
                    stored = source == "ucwa3-index" and opt == "default"
                    assert stats["stored_index"] == stored, run_label
                if want == "incremental":
                    assert stats["records_total"] == len(store), run_label
                cells.append((run_label, result, query, opt))
    # Statistics and categories are functions of the trace and the flags,
    # so on the row store equal flags settle them.  On a file source they
    # walk every record: materialize the rows once, now that the engines
    # have run on the fresh source, and observe each distinct (query,
    # flags) pair once.
    if source != "row":
        store.records()
    observed = {}
    for label, result, query, opt in cells:
        got = bytes(result.flags)
        want = bytes(reference_result(name, query, OPTIONS[opt]).flags)
        assert got == want, f"{label}: flags differ at {diff(want, got)}"
        if source != "row":
            key = (result.criteria_name, got)
            if key not in observed:
                observed[key] = _observed(store, result)
            assert observed[key] == reference(name, query, opt), (
                f"{label}: statistics or categories differ"
            )
    return profiler, query_set


def assert_requests(name, source, engine, profiler, query_set):
    """A checkpoint routes ``auto`` to ``incremental``.  Timelines and
    join reasons it routes to the reference; the flags-only engines
    refuse them, naming the reference."""
    for request, make in REQUESTS.items():
        picked = auto_pick(source, "default", make())
        if engine in ("vectorized", "incremental") and picked == "sequential":
            with pytest.raises(ValueError, match="sequential"):
                profiler.slice(next(iter(query_set.values())), engine=engine, **make())
        elif engine == "auto":
            # The per-frame pixel queries add nothing to the sweeps above.
            for query in [q for q in query_set if not q.startswith("pixels:frame")]:
                assert_auto_request(name, source, profiler, query_set, query, make())


def assert_auto_request(name, source, profiler, query_set, query, kwargs):
    """``auto`` under a request picks the documented engine and equals
    the reference in every field: flags, timeline, visited, reasons."""
    label = f"{name} {source} auto {query} {sorted(kwargs)}"
    got = profiler.slice(query_set[query], **kwargs)
    assert got.engine_stats["engine"] == auto_pick(source, "default", kwargs), label
    want = reference_result(
        name, query, kwargs.get("options", DEFAULT_OPTIONS), kwargs.get("sample_every")
    )
    assert fields(got) == fields(want), label


# Streaming.


def _prefix(store, hi: int) -> TraceStore:
    prefix = TraceStore(store.symbols, store.metadata)
    prefix.extend(store.span(0, hi))
    return prefix


def assert_streaming(name, source, paths):
    """Each frame's answer from :class:`StreamingSliceSession` over the
    epoch stream of ``source`` equals a sequential slice of the stream
    prefix with a fresh CDI."""
    store = prepared(name)[0]
    stream_source = store if source == "row" else paths(name)[source]
    results = list(StreamingSliceSession(open_epoch_stream(stream_source)).results())
    spans = [s for s in store.frame_spans() if s.complete]
    # One result per complete frame, even the raster-free one.
    assert [r.frame_id for r in results] == [s.frame_id for s in spans]
    for result in results:
        prefix = _prefix(store, result.hi)
        criteria = frame_pixel_criteria(store, spans[result.frame_id])
        want = BackwardSlicer(prefix, build_index(prefix.records()), criteria).run()
        label = f"{name} {source} frame {result.frame_id}"
        assert bytes(result.flags) == bytes(want.flags), label
        assert result.in_slice == sum(want.flags[result.lo : result.hi]), label
