"""service-mix: the profiling daemon under the traffic its callers send.

Every pass boots ``python -m repro.service serve --workers=2`` on an
AF_UNIX socket with an empty cache directory, uploads the livefeed trace
and then drives the daemon from two ``ServiceClient`` threads in a
closed loop (each waits for its reply, as every caller in the repository
does).  In seeded order a pass submits bing by ``trace_path`` and
livefeed by uploaded ``trace_ref`` under each criteria family, a few
livefeed frames with ``engine="incremental"``, and ``amazon_mobile`` and
``ticker`` by workload name; then repeats of all of them.  Cold misses
run beside warm hits, so one mix both writes and reads the cache.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from .common import (
    CRITERIA,
    ROOT,
    Op,
    RunContext,
    Timing,
    load_goldens,
    median,
    per_second,
    summarize,
    timed_beside,
)
from .spans import SpanRecorder
from .trace_query import collect, update_frame_records

CLIENTS = 2
WORKERS = 2
FRAMES = 3
#: Warm submits every untraced pass carries, so that one pass alone gives
#: the warm latency a p99 with ten samples beyond it (common.summarize).
#: The repeat count per distinct job follows from it (about 92 for the 11
#: distinct jobs of a pass), which lies between the repository's callers:
#: the harness service smoke repeats each job once, the fleet loadtest
#: about 330 times (2 rounds of 2000 submits over 12 distinct specs).
WARM_TAIL_SAMPLES = 1000
QUICK_REPEATS = 3
BOOT_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 60.0


class Daemon:
    """One ``repro.service serve`` process with its own cache directory."""

    def __init__(self, ctx: RunContext, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        # AF_UNIX paths are short; a path relative to the shared working
        # directory keeps it short however deep the checkout sits.
        self.socket = os.path.relpath(directory / "d.sock", ROOT)
        self._log = (directory / "serve.log").open("w")
        self.proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.service",
                "serve",
                f"--socket={self.socket}",
                f"--cache-dir={directory / 'cache'}",
                f"--workers={WORKERS}",
            ],
            cwd=ROOT,
            env=ctx.env(),
            stdout=self._log,
            stderr=subprocess.STDOUT,
        )
        self.peak_rss_mb = 0.0

    def wait_ready(self) -> None:
        from repro.service.client import ServiceClient, ServiceError

        client = ServiceClient(self.socket, connect_timeout_s=1.0)
        deadline = time.perf_counter() + BOOT_TIMEOUT_S
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited {self.proc.returncode} during boot")
            try:
                if client.ping():
                    return
            except ServiceError:
                pass
            if time.perf_counter() > deadline:
                raise RuntimeError("daemon did not answer ping")
            time.sleep(0.005)

    def stop(self) -> None:
        """Drain-stop the daemon and reap it.

        ``wait4`` on the daemon reports the peak resident memory of the
        daemon and of every job worker it reaped.
        """
        from repro.service.client import ServiceClient, ServiceError

        if self.proc.returncode is None:
            try:
                ServiceClient(self.socket).shutdown(drain=True)
            except ServiceError:
                self.proc.kill()
            deadline = time.perf_counter() + STOP_TIMEOUT_S
            while True:
                pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
                if pid:
                    self.proc.returncode = os.waitstatus_to_exitcode(status)
                    self.peak_rss_mb = usage.ru_maxrss / 1024.0
                    break
                if time.perf_counter() > deadline:
                    self.proc.kill()
                    deadline = float("inf")
                time.sleep(0.01)
        self._log.close()


def _groups(ctx: RunContext, paths: Dict[str, str], ref: str, frames: List[int]) -> List[List[Dict]]:
    """The distinct submits of a pass, grouped by job size, longest first.

    The seed orders each group; keeping the groups in this order lets
    the two workers finish their cold jobs together whatever the seed,
    so a pass measures the jobs rather than an unlucky schedule.
    """
    groups: List[List[Dict[str, Any]]] = []
    if "bing" in paths:
        groups.append([{"trace_path": paths["bing"], "criteria": c} for c in CRITERIA])
    names = ["ticker"] if ctx.quick else ["amazon_mobile", "ticker"]
    groups.append([{"workload": name} for name in names])
    groups.append([{"trace_ref": ref, "criteria": c} for c in CRITERIA])
    groups.append([
        {"trace_ref": ref, "criteria": "pixels", "engine": "incremental", "frame": f}
        for f in frames
    ])
    return groups


def _label(spec: Dict[str, Any], ref: str) -> str:
    target = spec.get("workload") or ("livefeed" if spec.get("trace_ref") == ref else "bing")
    label = f"{target}/{spec.get('criteria', 'pixels')}"
    if "frame" in spec:
        label += f"/frame{spec['frame']}"
    return label


def _drive(
    ctx: RunContext,
    recorder: SpanRecorder,
    socket: str,
    order: List[Dict[str, Any]],
    ref: str,
    index: int,
    traced: bool,
) -> List[Tuple[Op, Dict[str, Any]]]:
    """Submit ``order`` from CLIENTS threads; each waits for its reply."""
    from repro.service.client import ServiceClient, ServiceError

    lock = threading.Lock()
    position = [0]
    done: List[Tuple[Op, Dict[str, Any]]] = []

    def client_loop() -> None:
        client = ServiceClient(socket)
        while True:
            with lock:
                if position[0] >= len(order):
                    return
                spec = order[position[0]]
                position[0] += 1
            label = _label(spec, ref)
            try:
                with recorder.span("op") if traced else nullcontext():
                    t0 = time.perf_counter()
                    response = client.submit(spec, wait=True)
                    latency = time.perf_counter() - t0
            except ServiceError as err:
                op = Op(label, "refused", 0.0, index, traced, ok=False)
                response = {"error": {"code": err.code, "message": err.message}}
            except Exception as err:  # noqa: BLE001 - counted, not fatal
                op = Op(label, "error", 0.0, index, traced, ok=False)
                response = {"error": f"{type(err).__name__}: {err}"}
            else:
                outcome = response.get("outcome")
                if response.get("coalesced"):
                    cls = "coalesced"
                elif outcome == "ok":
                    cls = "cold"
                elif outcome in ("cache-memory", "cache-disk"):
                    cls = "warm"
                else:
                    cls = f"outcome-{outcome}"
                ok = cls in ("cold", "warm", "coalesced")
                op = Op(label, cls, latency, index, traced, ok=ok)
            response["spec"] = spec
            with lock:
                done.append((op, response))

    threads = [threading.Thread(target=client_loop) for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return done


def run(ctx: RunContext, recorder: SpanRecorder) -> None:
    import repro.trace.store as store_mod
    from repro.harness.experiments import run_engine
    from repro.profiler import Profiler
    from repro.profiler.api import job_criteria
    from repro.service.client import ServiceClient
    from repro.workloads import benchmark

    sites = ("livefeed",) if ctx.quick else ("bing", "livefeed")
    paths: Dict[str, str] = {}
    collects: List[Timing] = []
    for site in sites:
        paths[site], collected = collect(ctx, site, "default")
        collects.append(collected)
    collect_s = [t.wall_s for t in collects]
    collect_scaled = sum(t.wall_s * t.scale for t in collects)
    ctx.layers["trace.bytes"] = sum(Path(p).stat().st_size for p in paths.values())

    # Benchmark bookkeeping, not program set-up: which frames to submit.
    livefeed = store_mod.load_any_trace(paths["livefeed"])
    complete = [i for i, span in enumerate(livefeed.frame_spans()) if span.complete]
    frames = sorted(ctx.rng.sample(complete[1:], min(FRAMES, len(complete) - 1)))

    stats: List[Dict[str, Any]] = []
    results: List[Tuple[Op, Dict[str, Any]]] = []
    ref = ""
    started = time.perf_counter()
    index = 0
    while ctx.more_passes(started, index):
        traced = ctx.pass_is_traced(index)
        daemon: Optional[Daemon] = None
        with recorder.installed(traced):
            try:
                with timed_beside(sample=not traced) as boot:
                    daemon = Daemon(ctx, ctx.workdir / f"pass{index}")
                    daemon.wait_ready()
                    t1 = time.perf_counter()
                    ref = ServiceClient(daemon.socket).upload_trace(paths["livefeed"])["digest"]
                    upload_s = time.perf_counter() - t1
                order: List[Dict[str, Any]] = []
                for group in _groups(ctx, paths, ref, frames):
                    ctx.rng.shuffle(group)
                    order += group
                specs = list(order)
                for _ in range(_repeats(ctx, len(specs))):
                    again = list(specs)
                    ctx.rng.shuffle(again)
                    order += again
                with timed_beside(sample=not traced) as timing:
                    done = _drive(ctx, recorder, daemon.socket, order, ref, index, traced)
                stats.append({"traced": traced, **ServiceClient(daemon.socket).stats()})
            finally:
                if daemon is not None:
                    daemon.stop()
        ctx.add_pass(
            timing.wall_s * timing.scale,
            traced,
            wall_s=timing.wall_s,
            setup_s=boot.wall_s * boot.scale,
            upload_s=upload_s,
        )
        ctx.ops.extend(op for op, _ in done)
        results.extend(done)
        ctx.peak_rss_mb = max(ctx.peak_rss_mb, daemon.peak_rss_mb)
        index += 1
    ctx.setup_samples = [
        collect_scaled + p["setup_s"] for p in ctx.passes if not p["traced"]
    ]
    ctx.setup_s = median(ctx.setup_samples)

    # References, outside the timed region.
    expected: Dict[str, Any] = {}
    update_records: List[int] = []
    for site, path in paths.items():
        store = livefeed if site == "livefeed" else store_mod.load_any_trace(path)
        profiler = Profiler(store)
        for crit in CRITERIA:
            flags = profiler.slice(job_criteria(store, crit), engine="sequential").flags
            expected[f"{site}/{crit}"] = ctx.reference_digest(flags)
        if site == "livefeed":
            for frame in frames:
                flags = profiler.slice(
                    job_criteria(store, "pixels", frame), engine="sequential"
                ).flags
                expected[f"{site}/pixels/frame{frame}"] = ctx.reference_digest(flags)
            update_records.extend(update_frame_records(store))
        del store, profiler
    del livefeed
    ticker = run_engine(benchmark("ticker"), metrics_ticks=2).trace_store()
    flags = Profiler(ticker).slice(job_criteria(ticker, "pixels"), engine="sequential").flags
    expected["ticker/pixels"] = ctx.reference_digest(flags)
    update_records.extend(update_frame_records(ticker))
    golden = load_goldens()["table2"]["amazon_mobile"]
    expected["amazon_mobile/pixels"] = [golden["all_fraction"], golden["total_instructions"]]
    del ticker

    records: Dict[str, int] = {}
    for op, response in results:
        if not op.ok:
            ctx.fail(f"{op.kind}: {op.cls}: {response.get('error')}")
            continue
        result = response.get("result") or {}
        want = expected.get(op.kind)
        if isinstance(want, list):
            got: Any = [result.get("fraction"), result.get("total")]
        else:
            got = result.get("flags_sha256")
        if got != want:
            op.ok = False
            ctx.fail(f"{op.kind} ({op.cls}): {got!r} != reference {want!r}")
        records[op.kind.split("/")[0]] = int(result.get("total", 0))

    _details(ctx, results, collect_s)
    if ctx.trace:
        _layers(ctx, results, stats, collect_s)
    ctx.layers["browser.records"] = sum(records.values())
    ctx.layers["browser.update_records"] = (
        sum(update_records) / len(update_records) if update_records else 0
    )


def _repeats(ctx: RunContext, distinct: int) -> int:
    """Repeat rounds after the cold round of a pass.

    One round beyond WARM_TAIL_SAMPLES covers the repeats that coalesce
    with a cold job still running instead of hitting the cache.
    """
    if ctx.quick:
        return QUICK_REPEATS
    return -(-WARM_TAIL_SAMPLES // distinct) + 1


def _details(
    ctx: RunContext, results: List[Tuple[Op, Dict[str, Any]]], collect_s: List[float]
) -> None:
    """Submit latencies by class, from the untraced passes."""
    untraced = [(op, r) for op, r in results if op.ok and not op.traced]
    by_cls: Dict[str, List[float]] = {}
    for op, _ in untraced:
        by_cls.setdefault(op.cls, []).append(op.latency_s)
    ctx.details["cold_submit_p50_s"] = summarize(by_cls.get("cold", []))
    warm = summarize([s * 1e3 for s in by_cls.get("warm", [])])
    ctx.details["warm_submit_p50_ms"] = warm
    if warm.get("tail", {}).get("p") == 99.0:
        ctx.details["warm_submit_p99_ms"] = {"n": warm["n"], "value": warm["tail"]["value"]}
    # Not gated: every pass runs the same submits, so this is the pass
    # wall time again.
    ctx.details["jobs_per_s"] = per_second(ctx, len(untraced))
    ctx.details["coalesced_submit_p50_s"] = summarize(by_cls.get("coalesced", []))
    ctx.details["setup.collect_s"] = collect_s
    ctx.details["setup.pass_s"] = [p["setup_s"] for p in ctx.passes]


def _layers(
    ctx: RunContext,
    results: List[Tuple[Op, Dict[str, Any]]],
    stats: List[Dict[str, Any]],
    collect_s: List[float],
) -> None:
    """Per-layer numbers, from the traced passes.

    The daemon's stages come from its own answers: the ``stats``
    endpoint p50s, and per cold job the client latency less queue wait,
    ``resolve_s`` and ``slice_s`` (fork, pipe, protocol).
    """
    passes = max(1, ctx.traced_passes())
    traced_stats = [s for s in stats if s["traced"]]
    for stage in ("queue_wait", "resolve", "slice"):
        ctx.layers[f"service.{stage}_s"] = median(
            [s["latency"].get(stage, {}).get("p50_s", 0.0) for s in traced_stats]
        )
    overheads: List[float] = []
    frame_jobs = warm_frames = 0
    for op, response in results:
        if not (op.traced and op.ok and op.cls == "cold"):
            continue
        queue_wait = float(response.get("queue_wait_s") or 0.0)
        overheads.append(op.latency_s - queue_wait - _payload_seconds(response))
        result = response.get("result") or {}
        engine_stats = result.get("engine_stats") or {}
        ctx.count_slice(engine_stats, int(result.get("total", 0)))
        if "frame" in response["spec"]:
            frame_jobs += 1
            warm_frames += engine_stats.get("checkpoint") == "warm"
    ctx.layers["service.overhead_s"] = median(overheads)
    ctx.layers["service.checkpoint_warm_ratio"] = (
        warm_frames / frame_jobs if frame_jobs else 0.0
    )
    counters = [s.get("counters", {}) for s in traced_stats]
    for counter in ("coalesced", "busy_rejected", "retries"):
        ctx.layers[f"service.{counter}"] = sum(c.get(counter, 0) for c in counters) / passes
    hits = sum(s["cache"]["memory_hits"] + s["cache"]["disk_hits"] for s in traced_stats)
    lookups = hits + sum(s["cache"]["misses"] for s in traced_stats)
    ctx.layers["service.cache_hit_ratio"] = hits / lookups if lookups else 0.0
    ctx.layers["service.upload_s"] = median(
        [p["upload_s"] for p in ctx.passes if p["traced"]]
    )
    ctx.layers["trace.collect_s"] = sum(collect_s)


def _payload_seconds(response: Dict[str, Any]) -> float:
    """resolve_s + slice_s as the job's worker reported them."""
    timings = (response.get("result") or {}).get("timings") or {}
    return float(timings.get("resolve_s", 0.0)) + float(timings.get("slice_s", 0.0))

