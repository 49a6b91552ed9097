"""Differential testing: vectorized-v3 ≡ sequential-v2, per seed.

The conformance check :func:`tests.conformance.checks.assert_engine` for
the vectorized engine over every fuzz seed: the same randomized traces
are sliced by the sequential pass over the **row store** (the
reference) and by the vectorized array-join closure over the trace
saved as an **indexed UCWA3 file** and loaded afresh, and must produce
identical sliced-record sets, ``run_slice_job`` statistics and
unnecessary-computation categories.  The vectorized engine shares no
traversal code with the sequential pass, so a bug would have to be
reimplemented independently in both formulations to slip through.
"""

from __future__ import annotations

import pytest

from repro.profiler import Profiler
from repro.profiler.vectorized import VectorizedSlicer, attach_index
from repro.trace.columnar import ColumnarTrace
from repro.workloads.fuzz import random_trace

from ..conformance.checks import assert_engine
from ..conformance.inputs import OPTIONS, trace


@pytest.mark.parametrize("seed", range(60))
def test_random_traces_vectorized_agrees(seed, source_paths, tmp_path):
    assert_engine(f"random-{seed}", "ucwa3-index", "vectorized", source_paths, tmp_path)


@pytest.mark.parametrize("options", ("no-control", "no-callsite", "data-only"))
@pytest.mark.parametrize("seed", (4, 17, 33))
def test_ablation_options_agree(seed, options, source_paths, tmp_path):
    """The ablation switches reroute the vectorized engine off the stored
    edge list onto freshly built joins; results must not change."""
    name = f"random-{seed}-2000"
    assert_engine(name, "ucwa3-index", "vectorized", source_paths, tmp_path,
                  {options: OPTIONS[options]})


@pytest.mark.parametrize("seed", (6, 28))
def test_windowed_criteria_agree(seed, source_paths, tmp_path):
    """Windowed criteria (``window_end``, the ``syscalls:half`` query)
    through the stored index."""
    assert_engine(f"random-{seed}-2500", "ucwa3-index", "vectorized", source_paths, tmp_path)


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


def test_vectorized_accepts_row_store(source_paths, tmp_path):
    """A plain TraceStore converts on entry (``stored_index`` is False);
    results are unchanged."""
    assert_engine("random-31-2000", "row", "vectorized", source_paths, tmp_path)


def test_criteria_required():
    with pytest.raises(ValueError, match="criteria"):
        VectorizedSlicer(trace("random-1"), None, None)
