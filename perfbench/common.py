"""Shared plumbing for the benchmark workloads.

Everything here runs outside the program under test: locating the
checkout's ``src`` tree, subprocess environments, timing operations
against the host's speed, statistics, resident-memory readings, the
paper goldens and the run record.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDENS = ROOT / "tests" / "harness" / "goldens" / "paper_numbers.json"
#: Scratch space for traces, caches, sockets and run records; listed in
#: the repository's .gitignore.
RUN_DIR = ROOT / ".perfbench_run"

#: Criteria families every trace query and trace submit runs under.
CRITERIA = ("pixels", "syscalls", "pixels+syscalls")

#: Host-speed sampling while timed work runs (see ``timed`` and
#: ``timed_beside``): every SAMPLE_INTERVAL_S of wall time, a probe times
#: PROBE_ITERATIONS steps of a fixed loop of interpreter work.
SAMPLE_INTERVAL_S = 0.02
#: Longer beside work in other processes: those probes take CPU from it.
BESIDE_INTERVAL_S = 0.05
PROBE_ITERATIONS = 2_000
#: The probe's time at the reference speed that scaled timings are given
#: in: a round figure near its fastest reading on the 2-vCPU VM the
#: benchmark was built on (0.48 ms; the median of 16,000 was 1.0 ms).
PROBE_REF_S = 0.0005


class ProgramMissing(RuntimeError):
    """The checkout does not hold the program the benchmark drives."""


def require_program() -> None:
    """Put the checkout's ``src`` first on ``sys.path``; fail if absent."""
    for needed in (SRC / "repro" / "__init__.py", GOLDENS):
        if not needed.is_file():
            raise ProgramMissing(f"{needed.relative_to(ROOT)} not found under {ROOT}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def flags_sha256(flags) -> str:
    return hashlib.sha256(bytes(flags)).hexdigest()


def load_goldens() -> Dict[str, Any]:
    """The paper numbers the repository's tests pin (read only)."""
    with GOLDENS.open() as handle:
        return json.load(handle)


@dataclass
class Op:
    """One timed operation as the caller saw it."""

    kind: str  # what was asked, e.g. "bing/v3/pixels"
    cls: str  # latency class: profile, frames, query, cold, warm, coalesced
    latency_s: float
    pass_index: int
    traced: bool
    ok: bool = True
    #: Timing.scale; 1.0 where the host's speed is not sampled (traced
    #: passes, service-mix submits)
    scale: float = 1.0


@dataclass
class RunContext:
    """Arguments and shared state of one workload run."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    quick: bool = False
    workdir: Path = field(default_factory=lambda: RUN_DIR)
    rng: random.Random = field(init=False)
    ops: List[Op] = field(default_factory=list)
    passes: List[Dict[str, Any]] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    setup_samples: List[float] = field(default_factory=list)
    setup_s: float = 0.0
    peak_rss_mb: float = 0.0
    details: Dict[str, Any] = field(default_factory=dict)
    #: per-layer values the workload computes itself (counts, set-up times)
    layers: Dict[str, float] = field(default_factory=dict)
    #: slices per engine that ran, over the slices counted
    engines: Dict[str, int] = field(default_factory=dict)
    #: [records touched, records total] over the slices counted
    touched: List[int] = field(default_factory=lambda: [0, 0])

    def __post_init__(self) -> None:
        self.rng = random.Random(self.seed)

    def env(self) -> Dict[str, str]:
        """Environment for program subprocesses: this checkout, local tmp."""
        tmp = self.workdir / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        env["TMPDIR"] = str(tmp)
        return env

    def fail(self, message: str) -> None:
        """Record one failed operation."""
        self.failures.append(message)

    def count_slice(self, engine_stats: Dict[str, Any], records: int) -> None:
        """Tally the engine that produced a slice and the records it touched.

        Called for the slices of traced passes only, so the tallies divide
        into per-pass counts however many passes fit in a run.  The
        sequential engine reports no ``engine_stats``; an engine that does
        not report ``records_touched`` is taken to walk every record.
        """
        name = engine_stats.get("engine") or "sequential"
        self.engines[name] = self.engines.get(name, 0) + 1
        if "records_touched" in engine_stats and "records_total" in engine_stats:
            self.touched[0] += int(engine_stats["records_touched"])
            self.touched[1] += int(engine_stats["records_total"])
        else:
            self.touched[0] += records
            self.touched[1] += records

    def reference_digest(self, flags) -> str:
        """Digest of a reference slice, computed outside the timed region."""
        return flags_sha256(flags)

    def add_pass(self, duration_s: float, traced: bool, wall_s: float, **extra) -> None:
        """Record a pass: its gated duration and its wall time."""
        self.passes.append(
            {"duration_s": duration_s, "traced": traced, "wall_s": wall_s, **extra}
        )

    def add_op_pass(self, index: int, traced: bool) -> None:
        """Close an in-process pass: the sum of its operations, each scaled."""
        ops = [op for op in self.ops if op.pass_index == index]
        self.add_pass(
            sum(op.latency_s * op.scale for op in ops),
            traced,
            wall_s=sum(op.latency_s for op in ops),
        )

    def traced_passes(self) -> int:
        return sum(1 for p in self.passes if p["traced"])

    def pass_is_traced(self, index: int) -> bool:
        """Traced runs alternate untraced and traced passes (overhead)."""
        return self.trace and index % 2 == 1

    def more_passes(self, started: float, done: int) -> bool:
        """Complete passes until ``seconds`` have elapsed.

        A traced run needs one untraced and one traced pass at least.
        """
        minimum = 2 if self.trace else 1
        return done < minimum or time.perf_counter() - started < self.seconds


def run_program(ctx: RunContext, args: Sequence[str], timeout_s: float = 170.0) -> str:
    """Run ``python -m <args>`` against this checkout; return stdout."""
    proc = subprocess.run(
        [sys.executable, "-m", *args],
        cwd=ROOT,
        env=ctx.env(),
        capture_output=True,
        text=True,
        timeout=timeout_s,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"python -m {' '.join(args)} exited {proc.returncode}: "
            f"{proc.stderr.strip()[-400:]}"
        )
    return proc.stdout


# --------------------------------------------------------------------- #
# Timing against the host's speed                                       #
# --------------------------------------------------------------------- #


def _probe_loop(iterations: int) -> int:
    table: Dict[int, int] = {}
    total = 0
    for i in range(iterations):
        key = i % 1000
        table[key] = table.get(key, 0) + i
        total += len(str(i))
    return total


def _probe_s() -> float:
    start = time.perf_counter()
    _probe_loop(PROBE_ITERATIONS)
    return time.perf_counter() - start


@dataclass
class Timing:
    """Work as ``timed`` or ``timed_beside`` measured it."""

    #: wall time, less the probes' own time where they ran inside the work
    wall_s: float = 0.0
    #: mean over the probes of PROBE_REF_S / reading (1.0 unsampled);
    #: wall_s * scale is the work's time at the reference speed
    scale: float = 1.0
    #: seconds each probe took
    readings: List[float] = field(default_factory=list)


#: Readings of the work being sampled, or None between timings.
_sampling: Optional[List[float]] = None
#: CPUs a probe beside the work takes in turn; empty inside the work.
_rotation: List[int] = []


def _on_alarm(signum: int, frame: Any) -> None:
    if _sampling is None:
        return
    if not _rotation:
        _sampling.append(_probe_s())
        return
    # Affinity of pid 0 is this thread's alone: the work's threads and
    # processes keep theirs.
    os.sched_setaffinity(0, {_rotation[len(_sampling) % len(_rotation)]})
    try:
        _sampling.append(_probe_s())
    finally:
        os.sched_setaffinity(0, _rotation)


@contextmanager
def _sampled(timing: Timing, interval_s: Optional[float], beside: bool) -> Iterator[None]:
    """Probe into ``timing.readings`` every ``interval_s`` (None: never).

    Sets ``timing.wall_s`` to the wall time of the body, probes included,
    and, when sampling, ``timing.scale`` to the mean of PROBE_REF_S /
    reading.
    """
    global _sampling
    if interval_s is not None:
        signal.signal(signal.SIGALRM, _on_alarm)
        _rotation[:] = sorted(os.sched_getaffinity(0)) if beside else []
        _sampling = timing.readings
        signal.setitimer(signal.ITIMER_REAL, interval_s, interval_s)
    start = time.perf_counter()
    try:
        yield
    finally:
        if interval_s is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
        timing.wall_s = time.perf_counter() - start
        _sampling = None
        _rotation.clear()
    if interval_s is not None:
        # Work shorter than the interval gets one reading after it.
        readings = timing.readings or [_probe_s()]
        timing.scale = statistics.fmean(PROBE_REF_S / r for r in readings)


@contextmanager
def timed(sample: bool) -> Iterator[Timing]:
    """Time the enclosed in-process operation; sample the host's speed.

    The benchmark's cores are shared with other tenants, and how fast
    they run drifts by nearly a factor of two within seconds while the
    process keeps its core (CPU time equals wall time).  With ``sample``,
    a SIGALRM every SAMPLE_INTERVAL_S of wall time runs a probe between
    two bytecodes of the operation, in its thread, so the readings see
    the moments the operation ran.  The work the operation did, in
    seconds at the speed where the probe takes PROBE_REF_S, is its wall
    time (less the probes) times the mean of PROBE_REF_S / reading.  The
    probe is the benchmark's own code: a change to the program moves the
    scaled time as it moves the wall time.
    """
    timing = Timing()
    with _sampled(timing, SAMPLE_INTERVAL_S if sample else None, beside=False):
        yield timing
    timing.wall_s -= sum(timing.readings)


@contextmanager
def timed_beside(sample: bool) -> Iterator[Timing]:
    """Time work that runs in other processes; sample the host's speed.

    The probes run in this process's main thread, beside the work, each
    pinned to the next of the process's CPUs in turn: a probe on one CPU
    alone would see that core and not the others the work runs on.  The
    scale is the mean of PROBE_REF_S / reading, as in ``timed``.  The
    probes do not stop the work, so the wall time keeps them; they take
    about 2 % of one core from it.
    """
    timing = Timing()
    with _sampled(timing, BESIDE_INTERVAL_S if sample else None, beside=True):
        yield timing


def self_peak_rss_mb() -> float:
    """Peak resident memory of this process so far (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------- #
# Statistics                                                            #
# --------------------------------------------------------------------- #

#: Candidate tail percentiles, highest first.
_TAILS = (99.9, 99.0, 95.0, 90.0, 75.0)


def nearest_rank(sorted_values: Sequence[float], p: float) -> float:
    rank = max(1, -(-len(sorted_values) * p // 100))  # ceil(n * p / 100)
    return sorted_values[int(rank) - 1]


def summarize(values: Sequence[float]) -> Dict[str, Any]:
    """Median plus the highest percentile with >= 10 samples beyond it."""
    if not values:
        return {"n": 0}
    ordered = sorted(values)
    summary: Dict[str, Any] = {"n": len(ordered), "p50": statistics.median(ordered)}
    for p in _TAILS:
        if len(ordered) * (100.0 - p) / 100.0 >= 10:
            summary["tail"] = {"p": p, "value": nearest_rank(ordered, p)}
            break
    return summary


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def per_second(ctx: RunContext, count: int) -> Dict[str, Any]:
    """``count`` operations over the timed wall time of the untraced passes."""
    seconds = sum(p["wall_s"] for p in ctx.passes if not p["traced"])
    return {"n": count, "value": count / seconds if seconds else 0.0}


# --------------------------------------------------------------------- #
# Run record                                                            #
# --------------------------------------------------------------------- #


def git_sha() -> str:
    """HEAD of the checkout, or "unknown" when it is not a git work tree."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def environment_record() -> Dict[str, Any]:
    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": git_sha(),
        "platform": platform.platform(),
    }
