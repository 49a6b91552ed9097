"""Service smoke run: the daemon end-to-end against the paper workloads.

``python -m repro.harness service`` boots an in-process profiling daemon
on a throwaway socket + cache directory, submits every requested workload
for ``rounds`` rounds, and asserts the service contract:

* every job completes with a result (no crashes, no timeouts);
* repeat rounds return byte-identical slices (same ``flags_sha256``) —
  and, when a golden file is given, fractions equal to the frozen
  paper numbers within 1e-9;
* from the second round on, at least 90% of submits are answered from
  the content-addressed cache without invoking the slicer (verified via
  the stats counters, not timing).

The returned report records per-workload cold/warm latencies — the
numbers quoted in EXPERIMENTS.md.
"""

from __future__ import annotations

import json
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from ..service.client import ServiceClient
from ..service.jobs import JobSpec
from ..service.server import ProfilingServer

#: Outcomes that came from the cache rather than a slicer run.
_CACHE_OUTCOMES = ("cache-memory", "cache-disk")


def run_service_smoke(
    names: Sequence[str],
    golden_path: Optional[str] = None,
    rounds: int = 2,
    engine: str = "auto",
    workers: int = 2,
) -> str:
    """Run the smoke scenario and return its report (asserts on failure)."""
    golden: Dict = {}
    if golden_path:
        golden = json.loads(Path(golden_path).read_text("utf-8")).get("table2", {})

    lines = [
        "Profiling-service smoke "
        f"({len(names)} workloads x {rounds} rounds, engine={engine})",
        "",
        f"{'workload':<24s} {'fraction':>9s} {'cold (s)':>9s} "
        f"{'warm (s)':>9s} {'speedup':>8s} {'warm via':<12s}",
    ]

    with tempfile.TemporaryDirectory(prefix="repro-svc-") as tmp:
        server = ProfilingServer(
            f"{tmp}/service.sock",
            f"{tmp}/cache",
            workers=workers,
            queue_size=max(16, len(names) * rounds),
        )
        server.start()
        client = ServiceClient(server.socket_path)
        try:
            timings: Dict[str, List[float]] = {name: [] for name in names}
            results: Dict[str, List[Dict]] = {name: [] for name in names}
            outcomes_per_round: List[List[str]] = []
            for _ in range(rounds):
                round_outcomes: List[str] = []
                for name in names:
                    start = time.perf_counter()
                    response = client.submit(
                        JobSpec(workload=name, engine=engine), wait=True
                    )
                    elapsed = time.perf_counter() - start
                    outcome = response["outcome"]
                    assert response.get("result"), (
                        f"{name}: job ended {outcome}: {response.get('error')}"
                    )
                    timings[name].append(elapsed)
                    results[name].append(response["result"])
                    round_outcomes.append(outcome)
                outcomes_per_round.append(round_outcomes)

            stats = client.stats()
        finally:
            client.shutdown(drain=True)
            server.serve_forever()

    for name in names:
        runs = results[name]
        first = runs[0]
        for later in runs[1:]:
            assert later["flags_sha256"] == first["flags_sha256"], (
                f"{name}: repeat submit returned a different slice"
            )
        if name in golden:
            frozen = golden[name]
            assert abs(first["fraction"] - frozen["all_fraction"]) < 1e-9, (
                f"{name}: service fraction {first['fraction']!r} != "
                f"golden {frozen['all_fraction']!r}"
            )
            assert first["total"] == frozen["total_instructions"], (
                f"{name}: service total {first['total']} != "
                f"golden {frozen['total_instructions']}"
            )

    warm_outcomes = [o for outcomes in outcomes_per_round[1:] for o in outcomes]
    if warm_outcomes:
        warm_hits = sum(1 for o in warm_outcomes if o in _CACHE_OUTCOMES)
        hit_rate = warm_hits / len(warm_outcomes)
        assert hit_rate >= 0.9, (
            f"warm rounds must be >= 90% cache hits, got "
            f"{warm_hits}/{len(warm_outcomes)}"
        )

    for position, name in enumerate(names):
        cold = timings[name][0]
        warm = min(timings[name][1:]) if len(timings[name]) > 1 else None
        fraction = results[name][0]["fraction"]
        via = outcomes_per_round[-1][position] if rounds > 1 else "-"
        if warm is not None and warm > 0:
            warm_text, speedup = f"{warm:9.3f}", f"{cold / warm:7.1f}x"
        else:
            warm_text, speedup = "        -", "       -"
        lines.append(
            f"{name:<24s} {fraction:>8.1%} {cold:>9.3f} "
            f"{warm_text} {speedup:>8s} {via:<12s}"
        )

    lines.append("")
    cache = stats["cache"]
    outcome_counts = stats["outcomes"]
    lines.append(
        f"cache: {cache['memory_hits']} memory + {cache['disk_hits']} disk hits, "
        f"{cache['misses']} misses (hit rate {cache['hit_rate']:.0%}); "
        f"outcomes: {outcome_counts['ok']} sliced, "
        f"{outcome_counts['cache-memory'] + outcome_counts['cache-disk']} cached"
    )
    if golden_path:
        checked = [name for name in names if name in golden]
        lines.append(
            f"golden check: {len(checked)}/{len(names)} workloads matched "
            f"{Path(golden_path).name} within 1e-9"
        )
    return "\n".join(lines)
