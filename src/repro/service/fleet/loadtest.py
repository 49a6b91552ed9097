"""Saturation load harness for an N-shard fleet.

``python -m repro.service loadtest`` boots a localhost fleet, replays
thousands of concurrent mixed cold/warm submits through the shard-aware
:class:`~repro.service.fleet.router.FleetClient`, and asserts the
budgets the service documents (docs/profiling-service.md):

* **zero dropped jobs** — every submit ends in a terminal outcome; a
  ``busy`` rejection is backpressure, not a drop, and the harness
  retries it with backoff until the queue admits the job;
* **warm-hit rate** — after round one populated the sharded cache, at
  least :attr:`LoadtestConfig.warm_hit_target` of round two's submits
  must resolve from cache (``cache-memory`` / ``cache-disk``);
* **p99 latency** — round two's client-observed p99 must stay under
  :attr:`LoadtestConfig.p99_budget_s`.

The harness is a pure function (:func:`run_loadtest` → report object);
the CLI and the ``fleet-smoke`` CI job render and gate on the same
report, and the shard-scaling table in EXPERIMENTS.md is this harness
run at ``--shards=1/2/4``.
"""

from __future__ import annotations

import queue
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from ..client import ServiceError
from ..metrics import percentile
from .router import FleetClient
from .supervisor import FleetSupervisor

#: The documented warm-round p99 budget (seconds).  A warm submit is a
#: connection round trip plus a cache probe; half a second leaves two
#: orders of magnitude of headroom over the expected cost, so a breach
#: signals a real regression (lock convoy, probe miss, routing loop) —
#: not machine noise.
DEFAULT_P99_BUDGET_S = 0.5


@dataclass(frozen=True)
class LoadtestConfig:
    """One load-test scenario (defaults are the acceptance scenario)."""

    shards: int = 4
    clients: int = 64
    jobs: int = 2000  # submits per round
    rounds: int = 2  # round 1 is cold, later rounds measure warmth
    traces: int = 4  # distinct trace files in the mix
    n_frames: int = 3
    records_per_frame: int = 250
    seed: int = 7
    criteria: Tuple[str, ...] = ("pixels", "syscalls", "pixels+syscalls")
    engine: str = "auto"
    workers: int = 2  # per shard
    queue_size: int = 16  # per shard (small on purpose: exercises busy)
    auth_token: str = "loadtest-shared-secret"
    p99_budget_s: float = DEFAULT_P99_BUDGET_S
    warm_hit_target: float = 0.9
    max_busy_retries: int = 500


@dataclass
class RoundReport:
    """What one round of submits observed, client-side."""

    round: int
    jobs: int
    completed: int = 0
    dropped: int = 0
    warm_hits: int = 0
    busy_retries: int = 0
    failovers: int = 0
    duration_s: float = 0.0
    outcomes: Dict[str, int] = field(default_factory=dict)
    latency: Dict[str, float] = field(default_factory=dict)

    @property
    def warm_hit_rate(self) -> float:
        return self.warm_hits / self.completed if self.completed else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "round": self.round,
            "jobs": self.jobs,
            "completed": self.completed,
            "dropped": self.dropped,
            "warm_hits": self.warm_hits,
            "warm_hit_rate": self.warm_hit_rate,
            "busy_retries": self.busy_retries,
            "failovers": self.failovers,
            "duration_s": self.duration_s,
            "outcomes": dict(self.outcomes),
            "latency": dict(self.latency),
        }


@dataclass
class LoadtestReport:
    """The full run: per-round observations + the fleet's own metrics."""

    config: LoadtestConfig
    rounds: List[RoundReport]
    fleet_stats: Dict[str, Any]

    def check(self) -> List[str]:
        """Budget violations (empty list = the run passed)."""
        violations: List[str] = []
        for report in self.rounds:
            if report.dropped:
                violations.append(
                    f"round {report.round}: {report.dropped} dropped job(s)"
                )
            if report.completed != report.jobs:
                violations.append(
                    f"round {report.round}: {report.completed}/{report.jobs} "
                    f"jobs completed"
                )
        if len(self.rounds) >= 2:
            warm = self.rounds[-1]
            if warm.warm_hit_rate < self.config.warm_hit_target:
                violations.append(
                    f"round {warm.round}: warm hit rate "
                    f"{warm.warm_hit_rate:.1%} under the "
                    f"{self.config.warm_hit_target:.0%} target"
                )
            p99 = warm.latency.get("p99_s")
            if p99 is not None and p99 > self.config.p99_budget_s:
                violations.append(
                    f"round {warm.round}: p99 {p99 * 1000:.1f} ms over the "
                    f"{self.config.p99_budget_s * 1000:.0f} ms budget"
                )
        return violations

    def to_dict(self) -> Dict[str, Any]:
        return {
            "config": {
                "shards": self.config.shards,
                "clients": self.config.clients,
                "jobs": self.config.jobs,
                "rounds": self.config.rounds,
                "traces": self.config.traces,
                "p99_budget_s": self.config.p99_budget_s,
                "warm_hit_target": self.config.warm_hit_target,
            },
            "rounds": [r.to_dict() for r in self.rounds],
            "violations": self.check(),
            "fleet": self.fleet_stats.get("fleet", {}),
        }


def _build_traces(config: LoadtestConfig, directory: Path) -> List[Path]:
    """Small, frame-bearing fuzz traces (UCWA3 with the slice index, as
    ``trace collect`` writes them): the mixed submit corpus."""
    from ...trace.columnar import save_ucwa3
    from ...workloads.fuzz import random_frame_trace

    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for index in range(config.traces):
        store = random_frame_trace(
            seed=config.seed + index,
            n_frames=config.n_frames,
            records_per_frame=config.records_per_frame,
        )
        path = directory / f"trace-{index}.ucwa"
        save_ucwa3(store, path)
        paths.append(path)
    return paths


def _run_round(
    round_index: int,
    config: LoadtestConfig,
    client: FleetClient,
    traces: List[Path],
) -> RoundReport:
    report = RoundReport(round=round_index, jobs=config.jobs)
    work: "queue.Queue[int]" = queue.Queue()
    for job_index in range(config.jobs):
        work.put(job_index)
    lock = threading.Lock()
    latencies: List[float] = []

    def one_submit(job_index: int) -> None:
        path = traces[job_index % len(traces)]
        criteria = config.criteria[job_index % len(config.criteria)]
        busy = 0
        delay = 0.005
        t0 = time.perf_counter()
        response: Optional[Dict[str, Any]] = None
        while busy <= config.max_busy_retries:
            try:
                response = client.submit_trace(
                    path, criteria=criteria, engine=config.engine, wait=True
                )
                break
            except ServiceError as err:
                if err.code == "busy":
                    busy += 1
                    time.sleep(delay)
                    delay = min(delay * 1.5, 0.1)
                    continue
                raise
        elapsed = time.perf_counter() - t0
        with lock:
            report.busy_retries += busy
            if response is None:
                report.dropped += 1
                return
            report.completed += 1
            latencies.append(elapsed)
            outcome = response.get("outcome") or "unknown"
            report.outcomes[outcome] = report.outcomes.get(outcome, 0) + 1
            if outcome in ("cache-memory", "cache-disk"):
                report.warm_hits += 1

    def worker() -> None:
        while True:
            try:
                job_index = work.get_nowait()
            except queue.Empty:
                return
            try:
                one_submit(job_index)
            except ServiceError:
                with lock:
                    report.dropped += 1

    started = time.perf_counter()
    threads = [
        threading.Thread(target=worker, name=f"load-client-{i}", daemon=True)
        for i in range(config.clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    report.duration_s = time.perf_counter() - started
    if latencies:
        report.latency = {
            "mean_s": sum(latencies) / len(latencies),
            "p50_s": percentile(latencies, 50),
            "p90_s": percentile(latencies, 90),
            "p99_s": percentile(latencies, 99),
        }
    return report


def run_loadtest(
    config: LoadtestConfig,
    base_dir: Optional[Union[str, Path]] = None,
    log: Optional[Callable[[str], None]] = None,
) -> LoadtestReport:
    """Boot a fleet, hammer it for ``config.rounds`` rounds, report."""
    emit = log or (lambda message: None)
    owns_dir = base_dir is None
    root = Path(base_dir) if base_dir is not None else Path(
        tempfile.mkdtemp(prefix="repro-loadtest-")
    )
    try:
        traces = _build_traces(config, root / "traces")
        emit(
            f"built {len(traces)} traces; booting {config.shards}-shard fleet"
        )
        with FleetSupervisor(
            root / "fleet",
            config.shards,
            auth_token=config.auth_token,
            workers=config.workers,
            queue_size=config.queue_size,
        ) as supervisor:
            assert supervisor.config is not None
            client = FleetClient(
                supervisor.config, auth_token=config.auth_token
            )
            rounds = []
            for round_index in range(1, config.rounds + 1):
                report = _run_round(round_index, config, client, traces)
                rounds.append(report)
                emit(
                    f"round {round_index}: {report.completed}/{report.jobs} ok, "
                    f"{report.dropped} dropped, "
                    f"warm {report.warm_hit_rate:.1%}, "
                    f"busy retries {report.busy_retries}, "
                    f"{report.duration_s:.2f}s"
                )
            fleet_stats = client.stats()
        return LoadtestReport(config=config, rounds=rounds, fleet_stats=fleet_stats)
    finally:
        if owns_dir:
            shutil.rmtree(root, ignore_errors=True)


def render_report(report: LoadtestReport) -> str:
    """Human-readable summary (the CLI's output)."""
    lines = [
        f"fleet loadtest: {report.config.shards} shard(s), "
        f"{report.config.clients} clients, {report.config.jobs} jobs/round"
    ]
    for round_report in report.rounds:
        p99 = round_report.latency.get("p99_s")
        p99_text = f"p99 {p99 * 1000:.1f} ms" if p99 is not None else "p99 n/a"
        lines.append(
            f"  round {round_report.round}: "
            f"{round_report.completed}/{round_report.jobs} completed, "
            f"{round_report.dropped} dropped, "
            f"warm {round_report.warm_hit_rate:.1%}, "
            f"busy retries {round_report.busy_retries}, "
            f"{p99_text}, wall {round_report.duration_s:.2f}s"
        )
    violations = report.check()
    if violations:
        lines.append("BUDGET VIOLATIONS:")
        lines.extend(f"  - {violation}" for violation in violations)
    else:
        lines.append(
            f"all budgets met (p99 <= {report.config.p99_budget_s * 1000:.0f} ms, "
            f"warm >= {report.config.warm_hit_target:.0%}, zero drops)"
        )
    return "\n".join(lines)
