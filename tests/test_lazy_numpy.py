"""Row-store paths do not import numpy.

numpy is the columnar engine's dependency: importing it costs a
noticeable share of a short process (a cold in-process profile of a row
store, a service workload job), so ``import repro``, a row-store slice
job and ``trace_digest`` of a workload's row store (what every service
workload job computes, in a worker forked from a daemon that never
imports numpy) must leave it unimported.  That holds only while no
module on those paths (``profiler/cfg.py``, ``cdg.py``, ``api.py``,
``trace/store.py`` among them) imports numpy at module level.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import sys

import repro

assert "numpy" not in sys.modules, "import repro"

from repro.profiler.api import run_slice_job
from repro.workloads.fuzz import random_frame_trace

result, stats = run_slice_job(random_frame_trace(1))
assert result.engine_stats["engine"] == "sequential"
assert "numpy" not in sys.modules, "row-store run_slice_job"

from repro.harness.experiments import run_engine
from repro.trace.store import trace_digest
from repro.workloads import benchmark

trace_digest(run_engine(benchmark("ticker"), metrics_ticks=2).trace_store())
assert "numpy" not in sys.modules, "workload trace_digest"
"""


def test_row_store_paths_leave_numpy_unimported():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
