"""CFG differential: the batch CFG builder against the per-record reference.

The forward pass builds its function CFGs with one batch loop over
``(tid, pc, kind, fn)`` columns.  Here it is checked against the
per-record builder it replaced (kept verbatim in ``cfg_reference.py``)
on every registered workload, on the three fuzz generators and on
hand-built traces that break the CALL/RET discipline.  Three ways of
feeding it must agree with the reference: from a row store, from a
UCWA3 image's columns, and one epoch at a time through
:class:`~repro.profiler.incremental.IncrementalCDI` (stream epochs, and
odd-sized batches that split CALLs from their callees).  Nodes, node
order, successors, predecessors, entries, exits and branch pcs must all
be equal.
"""

from __future__ import annotations

import random

import pytest

from repro.harness.experiments import cached_run, run_engine
from repro.profiler.cfg import build_cfgs
from repro.profiler.incremental import IncrementalCDI
from repro.trace.columnar import ColumnarTrace, parse_columnar, serialize_columnar
from repro.trace.records import InstrKind, TraceRecord
from repro.trace.store import TraceStore, epoch_bounds
from repro.trace.stream import open_epoch_stream
from repro.trace.symbols import SymbolTable
from repro.workloads import TABLE2_BENCHMARKS, benchmark, benchmark_names
from repro.workloads.fuzz import random_frame_trace, random_sync_trace, random_trace

from . import cfg_reference

SEEDS = range(12)


def cfg_view(cfgs):
    """Everything a FunctionCFG holds, comparable with ``==``."""
    return {
        fn: (
            list(cfg.succs),
            cfg.succs,
            cfg.preds,
            cfg.entries,
            cfg.exits,
            cfg.branch_pcs,
        )
        for fn, cfg in cfgs.items()
    }


def through_incremental_cdi(batches):
    cdi = IncrementalCDI()
    for records in batches:
        cdi.feed(records)
    return cdi._builder.finish()


def assert_builders_agree(store: TraceStore, batch_sizes=()) -> None:
    want = cfg_view(cfg_reference.build_cfgs(store.forward()))
    assert cfg_view(build_cfgs(store)) == want, "row store"
    cols = parse_columnar(serialize_columnar(ColumnarTrace.from_store(store)))
    assert cols._materialized is None
    assert cfg_view(build_cfgs(cols)) == want, "UCWA3 columns"
    assert not cols._spans, "the columnar forward pass built records"
    epochs = [epoch.records for epoch in open_epoch_stream(store).epochs()]
    assert cfg_view(through_incremental_cdi(epochs)) == want, "stream epochs"
    for size in batch_sizes:
        batches = [store.span(lo, hi) for lo, hi in epoch_bounds(len(store), size)]
        assert cfg_view(through_incremental_cdi(batches)) == want, f"batches of {size}"


def workload_store(name: str) -> TraceStore:
    if name in TABLE2_BENCHMARKS:
        return cached_run(name).store
    return run_engine(benchmark(name), metrics_ticks=2).trace_store()


@pytest.mark.parametrize("name", benchmark_names())
def test_workload_cfgs_match_the_reference(name):
    assert_builders_agree(workload_store(name))


@pytest.mark.parametrize("seed", SEEDS)
def test_random_trace_cfgs_match_the_reference(seed):
    assert_builders_agree(random_trace(seed), batch_sizes=(1, 7, 61))


@pytest.mark.parametrize("seed", SEEDS)
def test_random_frame_trace_cfgs_match_the_reference(seed):
    assert_builders_agree(random_frame_trace(seed), batch_sizes=(7, 61))


@pytest.mark.parametrize("seed", SEEDS)
def test_random_sync_trace_cfgs_match_the_reference(seed):
    store, _races = random_sync_trace(seed)
    assert_builders_agree(store, batch_sizes=(7, 61))


def unbalanced_trace(seed: int, n: int = 600) -> TraceStore:
    """Records with random threads, functions, kinds and pcs: fn changes
    without a CALL, RETs on empty stacks, pcs shared between functions,
    and CALLs left open at the end of the trace."""
    rng = random.Random(seed)
    kinds = list(InstrKind)
    store = TraceStore(SymbolTable())
    for _ in range(n):
        store.append(
            TraceRecord(
                tid=rng.randrange(3),
                pc=rng.randrange(1, 24),
                kind=rng.choice(kinds),
                fn=rng.randrange(4),
            )
        )
    return store


@pytest.mark.parametrize("seed", SEEDS)
def test_unbalanced_trace_cfgs_match_the_reference(seed):
    assert_builders_agree(unbalanced_trace(seed), batch_sizes=(1, 2, 7))
