"""Differential testing: vectorized-v3 ≡ sequential-v2.

Extends the engine trio of ``test_differential.py`` with the columnar
pipeline: the same randomized traces are sliced by

* the streaming sequential pass over the **row store** (UCWA2 reference
  semantics),
* the vectorized array-join closure over the **columnar trace** with its
  precomputed slice index (``profiler/vectorized.py``),

and must produce identical sliced-record sets and identical
unnecessary-computation category distributions.  The vectorized engine
shares no traversal code with the sequential pass — its closure is batch
searchsorted joins over def/use arrays — so a bug would have to be
reimplemented independently in both formulations to slip through.  On
mismatch the failing seed is in the assertion message;
``random_trace(seed)`` reproduces the trace exactly.
"""

from __future__ import annotations

import pytest

np = pytest.importorskip("numpy")

from repro.profiler import Profiler
from repro.profiler.categorize import categorize_unnecessary
from repro.profiler.cdg import build_index
from repro.profiler.criteria import (
    combined_criteria,
    pixel_criteria,
    syscall_criteria,
)
from repro.profiler.slicer import DEFAULT_OPTIONS, BackwardSlicer, SlicerOptions
from repro.profiler.vectorized import VectorizedSlicer, attach_index
from repro.trace.columnar import ColumnarTrace
from repro.trace.lint import lint_or_raise
from repro.workloads.fuzz import random_trace

# 60 seeds x up to 3 criteria = up to 180 randomized differential runs.
SEEDS = range(60)


def _criteria_variants(store):
    variants = [syscall_criteria(store)]
    if store.metadata.tile_buffers:
        variants.append(pixel_criteria(store))
        variants.append(combined_criteria(store))
    return variants


def _diff_indices(a, b, limit=10):
    return [i for i, (x, y) in enumerate(zip(a, b)) if x != y][:limit]


def _assert_equivalent(store, seed, *, options=DEFAULT_OPTIONS):
    # Sanitize first: a malformed trace would make any slicer agreement
    # (or disagreement) meaningless.
    lint_or_raise(store)
    cols = ColumnarTrace.from_store(store)
    attach_index(cols)
    cdi = build_index(store.forward())
    for criteria in _criteria_variants(store):
        label = f"seed={seed} criteria={criteria.name}"
        seq = BackwardSlicer(store, cdi, criteria, options=options).run()
        vec = VectorizedSlicer(cols, cdi, criteria, options=options).run()
        assert bytes(vec.flags) == bytes(seq.flags), (
            f"vectorized != sequential for {label}; "
            f"first diffs at {_diff_indices(seq.flags, vec.flags)}"
        )
        seq_cat = categorize_unnecessary(store, seq)
        vec_cat = categorize_unnecessary(cols, vec)
        assert (vec_cat.counts, vec_cat.uncategorized) == (
            seq_cat.counts, seq_cat.uncategorized,
        ), f"category distributions differ for {label}"


@pytest.mark.parametrize("seed", SEEDS)
def test_random_traces_vectorized_agrees(seed):
    store = random_trace(seed, target_records=1_500 + 100 * (seed % 7))
    _assert_equivalent(store, seed)


@pytest.mark.parametrize(
    "options",
    (
        SlicerOptions(control_dependences=False),
        SlicerOptions(call_site_dependences=False),
        SlicerOptions(control_dependences=False, call_site_dependences=False),
    ),
    ids=("no-control", "no-callsite", "data-only"),
)
@pytest.mark.parametrize("seed", (4, 17, 33))
def test_ablation_options_agree(seed, options):
    """The ablation switches reroute the vectorized engine off the stored
    edge list onto freshly built joins; results must not change."""
    store = random_trace(seed, target_records=2_000)
    _assert_equivalent(store, seed, options=options)


@pytest.mark.parametrize("seed", (6, 28))
def test_windowed_criteria_agree(seed):
    """Frame-windowed criteria (window_end) through both engines."""
    store = random_trace(seed, target_records=2_500)
    lint_or_raise(store)
    cols = ColumnarTrace.from_store(store)
    attach_index(cols)
    cdi = build_index(store.forward())
    base = syscall_criteria(store)
    windowed = base.windowed(len(store) // 2)
    seq = BackwardSlicer(store, cdi, windowed).run()
    vec = VectorizedSlicer(cols, cdi, windowed).run()
    assert bytes(vec.flags) == bytes(seq.flags), f"seed={seed}"


def test_engine_switch_on_profiler_api():
    store = random_trace(123)
    cols = ColumnarTrace.from_store(store)
    attach_index(cols)
    seq = Profiler(store).pixel_slice()
    vec = Profiler(cols).pixel_slice(engine="vectorized")
    assert bytes(vec.flags) == bytes(seq.flags)
    assert vec.engine_stats["engine"] == "vectorized"
    assert vec.engine_stats["stored_index"] is True
    assert vec.engine_stats["edges"] > 0
    with pytest.raises(ValueError):
        Profiler(cols).pixel_slice(engine="turbo")


def test_vectorized_accepts_row_store():
    """A plain TraceStore converts on entry; results are unchanged."""
    store = random_trace(31, target_records=2_000)
    cdi = build_index(store.forward())
    crit = syscall_criteria(store)
    seq = BackwardSlicer(store, cdi, crit).run()
    vec = VectorizedSlicer(store, cdi, crit).run()
    assert bytes(vec.flags) == bytes(seq.flags)
    assert vec.engine_stats["stored_index"] is False


def test_criteria_required():
    store = random_trace(1)
    cols = ColumnarTrace.from_store(store)
    with pytest.raises(ValueError):
        VectorizedSlicer(cols, None, None)
