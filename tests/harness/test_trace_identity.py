"""Trace-identity golden: what every collection recipe traces, byte for byte.

``goldens/paper_numbers.json`` pins only the paper's fractions, so a
change to the traced work that happened to keep them would pass there.
``goldens/trace_identity.json`` pins the traces themselves, for 24
collections:

* the 11 registered workloads through the collect/harness recipe
  (``run_engine(bench, metrics_ticks=2)``, the trace ``cached_run`` and
  ``python -m repro.trace collect`` see);
* the 3 multi-frame workloads through the ``run_frames`` recipe
  (``load_page`` + ``run_session``);
* ``random_page(seed)`` for seeds 0-9, through the harness recipe.

For each it records the record count, ``trace_digest`` (the sha256 of
the UCWA2 image: records, symbols and metadata), the sha256 of the
per-frame framebuffer digests, and the sha256 of every thread's
Figure 2 utilization series plus the final clock reading.  None of
these depends on ``PYTHONHASHSEED`` or the Python version.  Host-side
speedups must leave every entry unchanged; regenerate the golden only
after an intentional change to the simulated work::

    PYTHONPATH=src python tests/harness/test_trace_identity.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import pytest

from repro.browser import BrowserEngine
from repro.harness.experiments import cached_run, run_engine
from repro.harness.goldens import TABLE1_RUNS
from repro.trace.store import trace_digest
from repro.workloads import MULTIFRAME_BENCHMARKS, TABLE2_BENCHMARKS, benchmark, benchmark_names
from repro.workloads.fuzz import random_page

GOLDEN_PATH = Path(__file__).parent / "goldens" / "trace_identity.json"

#: Workloads the paper-number golden already runs through ``cached_run``
#: (same recipe, so the engine run is shared within one test process).
PAPER_GOLDEN_RUNS = frozenset(TABLE2_BENCHMARKS) | {
    name for runs in TABLE1_RUNS.values() for _site, name in runs
}

RANDOM_PAGE_SEEDS = range(10)


def _harness_run(name: str) -> BrowserEngine:
    if name in PAPER_GOLDEN_RUNS:
        return cached_run(name).engine
    return run_engine(benchmark(name), metrics_ticks=2)


def _frames_run(name: str) -> BrowserEngine:
    bench = benchmark(name)
    engine = BrowserEngine(bench.config)
    engine.load_page(bench.page)
    engine.run_session(bench.actions)
    return engine


def _random_page_run(seed: int) -> BrowserEngine:
    return run_engine(random_page(seed), metrics_ticks=2)


def collections() -> List[Tuple[str, Callable[[], BrowserEngine]]]:
    """(golden key, engine-producing recipe) for every pinned collection."""
    runs: List[Tuple[str, Callable[[], BrowserEngine]]] = []
    for name in benchmark_names():
        runs.append((f"harness:{name}", lambda name=name: _harness_run(name)))
    for name in MULTIFRAME_BENCHMARKS:
        runs.append((f"frames:{name}", lambda name=name: _frames_run(name)))
    for seed in RANDOM_PAGE_SEEDS:
        runs.append((f"random_page:{seed}", lambda seed=seed: _random_page_run(seed)))
    return runs


COLLECTIONS = collections()


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def identity(engine: BrowserEngine) -> Dict[str, object]:
    """The pinned values of one finished engine run."""
    store = engine.trace_store()
    clock = engine.ctx.clock
    series = [
        (tid, clock.utilization_series(tid))
        for tid in sorted(store.metadata.thread_names)
    ]
    return {
        "records": len(store),
        "trace_digest": trace_digest(store),
        "frame_digests_sha256": _sha256(repr(engine.frame_digests())),
        "clock_sha256": _sha256(repr((series, clock.now_us))),
    }


@pytest.fixture(scope="module")
def golden() -> Dict[str, Dict[str, object]]:
    with GOLDEN_PATH.open() as fh:
        return json.load(fh)


def test_golden_covers_every_collection(golden):
    assert sorted(golden) == sorted(key for key, _run in COLLECTIONS)
    assert len(golden) == 24


@pytest.mark.parametrize("key, run", COLLECTIONS, ids=[key for key, _run in COLLECTIONS])
def test_trace_identity(key, run, golden):
    assert identity(run()) == golden[key], (
        f"{key}: the traced work changed; if that is intended, regenerate "
        f"{GOLDEN_PATH.name} (see this module's docstring)"
    )


def main() -> int:
    numbers = {key: identity(run()) for key, run in COLLECTIONS}
    with GOLDEN_PATH.open("w") as fh:
        json.dump(numbers, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH} ({len(numbers)} collections)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
