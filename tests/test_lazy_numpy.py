"""Row-store paths do not import numpy.

numpy is the columnar engine's dependency: importing it costs a
noticeable share of a short process (a cold in-process profile of a row
store, a UCWA2 collect), so ``import repro``, a row-store slice job and
``trace collect --format=v2`` must leave it unimported.  That holds only
while no module on those paths (``profiler/cfg.py``, ``cdg.py``,
``api.py`` among them) imports numpy at module level.
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

from repro.trace.__main__ import main

assert main(["collect", "ticker", sys.argv[1], "--format=v2"]) == 0
assert "numpy" not in sys.modules, "collect --format=v2"
"""


def test_row_store_paths_leave_numpy_unimported(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path / "ticker.ucwa")],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "ticker.ucwa").read_bytes().startswith(b"UCWA2\n")
