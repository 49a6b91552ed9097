"""Self-test of the benchmark at reduced size.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench import service_mix, site_profile, trace_query
from perfbench.common import (
    CRITERIA,
    PROBE_REF_S,
    ROOT,
    Op,
    RunContext,
    _probe_loop,
    flags_sha256,
    require_program,
    summarize,
    timed,
    timed_beside,
)
from perfbench.run import WORKLOADS, run_workload
from perfbench.spans import attribute

#: Slices one reduced-size pass runs: the profiled sites plus the random
#: page; one per file and criteria family; one per distinct cold submit
#: (criteria families, frames, and the ticker workload).
SLICES_PER_PASS = {
    "site-profile": len(site_profile.QUICK_TABLE2) + 1,
    "trace-query": len(trace_query.QUICK_SITES) * len(trace_query.FORMATS) * len(CRITERIA),
    "service-mix": len(CRITERIA) + service_mix.FRAMES + 1,
}


def _contract():
    with (ROOT / "BENCHMARK.json").open() as handle:
        return json.load(handle)


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def test_contract_names_every_workload():
    assert [w["name"] for w in _contract()["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = _run(
        "--workload", workload, "--seed", "5", "--seconds", "0",
        "--trace", str(trace), "--quick",
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    table = _contract()["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in table}
    for metric in table:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
        if not trace:
            assert emitted["value"] > 0, metric["name"]
    if trace:
        # Engine tallies count the slices of one traced pass, whatever
        # the number of passes in the run.
        engines = sum(
            value["value"] for name, value in result["metrics"].items()
            if name.startswith("profiler.engine.")
        )
        assert engines == SLICES_PER_PASS[workload]
    for metric in table:  # printed by name with the unit, too
        assert any(
            line.split()[:1] == [metric["name"]] and line.split()[-1] == metric["unit"]
            for line in proc.stdout.splitlines()
        ), metric["name"]


def test_corrupted_reference_raises_failed_fraction(tmp_path):
    require_program()
    flipped = []

    class Corrupted(RunContext):
        def reference_digest(self, flags) -> str:
            digest = flags_sha256(flags)
            if not flipped:
                flipped.append(digest)
                digest = ("0" if digest[0] != "0" else "1") + digest[1:]
            return digest

    ctx = Corrupted(
        workload="site-profile", seed=3, seconds=0.0, trace=False, quick=True,
        workdir=tmp_path / "work",
    )
    record = run_workload(ctx)
    assert flipped, "no reference digest was computed"
    assert record["failed"] >= 1
    assert record["failed_fraction"] > 0
    assert any("reference" in failure for failure in record["failures"])


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = _run(
        "--workload", "site-profile", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_summarize_reports_the_highest_tail_with_ten_beyond():
    assert summarize([1.0] * 12) == {"n": 12, "p50": 1.0}
    tail = summarize([float(i) for i in range(1000)])["tail"]
    assert tail == {"p": 99.0, "value": 989.0}
    assert summarize([float(i) for i in range(200)])["tail"]["p"] == 95.0


def test_attribute_subtracts_child_spans():
    spans = [
        ["op", 0, 100, -1],
        ["browser.run", 10, 90, 0],
        ["browser.run", 20, 60, 1],
        ["browser.js", 30, 50, 2],
        ["trace.load", 200, 300, -1],  # outside every op: not attributed
    ]
    seconds = attribute(spans)
    assert seconds["op"] == pytest.approx(20e-9)
    assert seconds["browser.run"] == pytest.approx(60e-9)
    assert seconds["browser.js"] == pytest.approx(20e-9)
    assert seconds["op.total"] == pytest.approx(100e-9)
    assert seconds["browser.run.inclusive"] == pytest.approx(80e-9)
    assert "trace.load" not in seconds


def test_timed_samples_the_host_speed_during_the_operation():
    with timed(sample=True) as timing:
        _probe_loop(400_000)  # several sampling intervals long
    assert len(timing.readings) >= 2
    assert timing.scale == pytest.approx(
        statistics.fmean(PROBE_REF_S / reading for reading in timing.readings)
    )
    assert 0 < timing.wall_s
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    with pytest.raises(ZeroDivisionError):
        with timed(sample=True):
            _probe_loop(400_000) / 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    with timed(sample=False) as plain:
        _probe_loop(400_000)
    assert plain.readings == [] and plain.scale == 1.0


def test_timed_beside_probes_every_cpu_and_restores_affinity():
    cpus = os.sched_getaffinity(0)
    with timed_beside(sample=True) as timing:
        time.sleep(0.3)  # the work runs in other processes
    assert len(timing.readings) >= 2
    assert timing.wall_s >= 0.3  # the probes did not stop the work
    assert os.sched_getaffinity(0) == cpus
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_in_process_pass_is_the_sum_of_its_scaled_operations():
    ctx = RunContext(workload="trace-query", seed=1, seconds=0.0, trace=False)
    ctx.ops = [
        Op("a", "query", 2.0, 0, False, scale=0.5),
        Op("b", "query", 1.0, 0, False, scale=0.25),
        Op("a", "query", 9.0, 1, False, scale=0.5),
    ]
    ctx.add_op_pass(0, traced=False)
    assert ctx.passes == [{"duration_s": 1.25, "traced": False, "wall_s": 3.0}]
