"""UCWA3 with its slice index is the format ``collect`` writes.

``collect``, ``convert`` and the fleet load test share one UCWA3 writer
(:func:`repro.trace.columnar.save_ucwa3`), so a default collect is
byte-identical to ``collect --format=v3`` and to ``convert`` of a UCWA2
collect; ``--format=v2`` still writes UCWA2.  Also here: the sort-based
:func:`~repro.trace.columnar.distinct` the index build uses in place of
a values-only ``np.unique``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.service.fleet.loadtest import LoadtestConfig, _build_traces
from repro.trace.__main__ import main as trace_main
from repro.trace.columnar import distinct, load_columnar

UCWA2 = b"UCWA2\n"
UCWA3 = b"UCWA3\n"


@pytest.fixture(scope="module")
def collected(tmp_path_factory):
    """ticker collected three ways: default, ``--format=v3``, ``--format=v2``."""
    root = tmp_path_factory.mktemp("collect")
    paths = {}
    for fmt in ("default", "v3", "v2"):
        paths[fmt] = root / f"ticker-{fmt}.ucwa"
        args = ["collect", "ticker", str(paths[fmt])]
        if fmt != "default":
            args.append(f"--format={fmt}")
        assert trace_main(args) == 0
    return paths


def test_default_collect_writes_indexed_ucwa3(collected):
    path = collected["default"]
    assert path.read_bytes().startswith(UCWA3)
    trace = load_columnar(path)
    assert trace.index is not None and trace.index.n_edges() > 0


def test_default_collect_matches_v3_collect_and_convert_of_v2(collected, tmp_path):
    default = collected["default"].read_bytes()
    assert default == collected["v3"].read_bytes()
    converted = tmp_path / "converted.ucwa"
    assert trace_main(["convert", str(collected["v2"]), str(converted)]) == 0
    assert converted.read_bytes() == default


def test_format_v2_collect_still_writes_ucwa2(collected, tmp_path):
    assert collected["v2"].read_bytes().startswith(UCWA2)
    back = tmp_path / "back.ucwa"
    assert trace_main(["convert", str(collected["default"]), str(back), "--format=v2"]) == 0
    assert back.read_bytes() == collected["v2"].read_bytes()


def test_convert_no_index_drops_the_index_of_a_default_collect(collected, tmp_path):
    from_default = tmp_path / "from-default.ucwa"
    from_v2 = tmp_path / "from-v2.ucwa"
    assert trace_main(["convert", str(collected["default"]), str(from_default), "--no-index"]) == 0
    assert trace_main(["convert", str(collected["v2"]), str(from_v2), "--no-index"]) == 0
    assert from_default.read_bytes() == from_v2.read_bytes()
    assert load_columnar(from_default).index is None
    # the source trace is left as it was
    assert load_columnar(collected["default"]).index is not None


def test_loadtest_traces_are_indexed_ucwa3(tmp_path):
    paths = _build_traces(LoadtestConfig(traces=2, records_per_frame=60), tmp_path)
    assert len(paths) == 2
    for path in paths:
        assert path.read_bytes().startswith(UCWA3)
        assert load_columnar(path).index is not None


@pytest.mark.parametrize(
    "values",
    [
        np.zeros(0, np.int64),
        np.zeros(0, np.uint64),
        np.array([7], np.int64),
        np.array([2**64 - 1], np.uint64),
        np.array([3, 1, 3, 3, 1, 0, 0, 3, 2, 1] * 50, np.int64),
        np.random.default_rng(0).integers(0, 5, 10_000).astype(np.uint8),
        np.array([2**64 - 1, 0, 2**63, 2**63 + 1, 0, 2**64 - 1, 2**63], np.uint64),
        np.random.default_rng(1).integers(0, 2**63, 5_000, dtype=np.uint64).repeat(3),
    ],
    ids=[
        "empty-int64", "empty-uint64", "one", "one-uint64-max",
        "duplicate-heavy", "duplicate-heavy-uint8", "uint64-high-bits", "uint64-repeated",
    ],
)
def test_distinct_equals_np_unique(values):
    got = distinct(values)
    want = np.unique(values)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert len(distinct(values[::-1])) == len(want)
