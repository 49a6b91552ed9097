"""Supervised worker pool: process-per-job execution with a safety net.

Each supervisor thread owns one slot of parallelism.  It pulls a job off
the shared bounded queue and runs :func:`repro.service.jobs.execute_job`
in a **fresh child process**, talking back over a pipe.  The process
boundary is what buys the service its robustness guarantees:

* **Crash isolation** — a worker that segfaults, ``os._exit``\\ s, or is
  OOM-killed takes down only its own process.  The supervisor sees the
  pipe close without a result, records a ``crashed`` attempt, and retries
  the job exactly once (a second crash is reported as a structured job
  error; deterministic crashers must not retry forever).
* **Timeouts** — the supervisor terminates the child when the per-job
  deadline passes.  Timeouts do not retry: a job that spent its budget
  once would spend it again.
* **Cancellation** — a cancel request sets the job's event; the
  supervisor polls it while waiting and terminates the child.
"""

from __future__ import annotations

import multiprocessing
import queue
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from . import protocol
from .jobs import JobSpec, SpecError, execute_job

#: Sentinel the server enqueues to stop a supervisor thread.
_STOP = None

#: How often the supervisor wakes to check deadline and cancellation.
_POLL_S = 0.05


def _mp_context():
    """Prefer fork (cheap, inherits imports); fall back elsewhere."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _job_process_main(spec_dict: Dict[str, Any], attempt: int, conn) -> None:
    """Child-process entry: run the job, ship (kind, payload) back."""
    try:
        spec = JobSpec(**spec_dict)
        payload = execute_job(spec, attempt=attempt)
        conn.send(("ok", payload))
    except SpecError as err:
        conn.send(("error", {"code": protocol.ERR_JOB_FAILED, "message": str(err)}))
    except Exception as err:  # noqa: BLE001 — the boundary must not leak
        conn.send(
            (
                "error",
                {
                    "code": protocol.ERR_INTERNAL,
                    "message": f"{type(err).__name__}: {err}",
                },
            )
        )
    finally:
        conn.close()


class Attempt:
    """Outcome of one child-process run of a job."""

    __slots__ = ("kind", "payload", "exitcode", "duration_s")

    def __init__(
        self,
        kind: str,
        payload: Optional[Dict[str, Any]] = None,
        exitcode: Optional[int] = None,
        duration_s: float = 0.0,
    ) -> None:
        self.kind = kind  # ok | error | crashed | timeout | cancelled
        self.payload = payload
        self.exitcode = exitcode
        self.duration_s = duration_s


def run_attempt(
    spec: JobSpec,
    attempt: int,
    timeout_s: float,
    cancel_event: threading.Event,
    mp_context=None,
) -> Attempt:
    """Run one supervised attempt of ``spec`` in a child process."""
    ctx = mp_context if mp_context is not None else _mp_context()
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    # The supervisor always joins (or terminates) the child in ``finally``.
    process = ctx.Process(
        target=_job_process_main,
        args=(spec.to_dict(), attempt, child_conn),
        daemon=False,
    )
    start = time.perf_counter()
    process.start()
    child_conn.close()
    deadline = start + timeout_s
    try:
        while True:
            if cancel_event.is_set():
                return Attempt("cancelled", duration_s=time.perf_counter() - start)
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                return Attempt("timeout", duration_s=time.perf_counter() - start)
            if parent_conn.poll(min(_POLL_S, remaining)):
                try:
                    kind, payload = parent_conn.recv()
                except EOFError:
                    process.join()
                    return Attempt(
                        "crashed",
                        exitcode=process.exitcode,
                        duration_s=time.perf_counter() - start,
                    )
                process.join()
                return Attempt(
                    kind, payload=payload, duration_s=time.perf_counter() - start
                )
            if not process.is_alive():
                # Died without writing a result (and nothing buffered).
                if parent_conn.poll(0):
                    continue
                process.join()
                return Attempt(
                    "crashed",
                    exitcode=process.exitcode,
                    duration_s=time.perf_counter() - start,
                )
    finally:
        if process.is_alive():
            process.terminate()
            process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover — last resort
                process.kill()
                process.join()
        parent_conn.close()


class WorkerPool:
    """N supervisor threads draining one bounded job queue.

    The pool knows nothing about the wire protocol or the cache; it calls
    ``on_done(job, attempt, attempts_used)`` for every job it finishes,
    and the server turns that into job state, cache writes, and metrics.
    Jobs must expose ``spec`` (a :class:`JobSpec`), ``timeout_s`` (float)
    and ``cancel_event`` (a ``threading.Event``).
    """

    def __init__(
        self,
        workers: int,
        queue_size: int,
        on_start: Callable[[Any], None],
        on_done: Callable[[Any, Attempt, int], None],
        default_timeout_s: float = 300.0,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if queue_size < 1:
            raise ValueError(f"queue_size must be >= 1, got {queue_size}")
        self._queue: "queue.Queue" = queue.Queue(maxsize=queue_size)
        self._workers = workers
        self._on_start = on_start
        self._on_done = on_done
        self._default_timeout_s = default_timeout_s
        self._threads: List[threading.Thread] = []
        self._ctx = _mp_context()
        self._running = 0
        self._lock = threading.Lock()

    # -- lifecycle ------------------------------------------------------ #

    def start(self) -> None:
        for i in range(self._workers):
            thread = threading.Thread(
                target=self._supervise, name=f"service-worker-{i}", daemon=True
            )
            thread.start()
            self._threads.append(thread)

    def stop(self) -> None:
        """Stop the supervisors after the queue drains (join all)."""
        for _ in self._threads:
            self._queue.put(_STOP)
        for thread in self._threads:
            thread.join()
        self._threads.clear()

    # -- submission ----------------------------------------------------- #

    def submit_nowait(self, job) -> None:
        """Enqueue; raises ``queue.Full`` (the server's busy signal)."""
        self._queue.put_nowait(job)

    def queue_depth(self) -> int:
        return self._queue.qsize()

    def running(self) -> int:
        with self._lock:
            return self._running

    def idle(self) -> bool:
        return self._queue.qsize() == 0 and self.running() == 0

    # -- the supervisor loop -------------------------------------------- #

    def _supervise(self) -> None:
        while True:
            job = self._queue.get()
            if job is _STOP:
                return
            with self._lock:
                self._running += 1
            try:
                self._run_job(job)
            finally:
                with self._lock:
                    self._running -= 1

    def _run_job(self, job) -> None:
        self._on_start(job)
        timeout_s = (
            job.spec.timeout_s
            if job.spec.timeout_s is not None
            else self._default_timeout_s
        )
        attempts = 0
        while True:
            attempt = run_attempt(
                job.spec, attempts, timeout_s, job.cancel_event, self._ctx
            )
            attempts += 1
            if attempt.kind == "crashed" and attempts == 1:
                continue  # retry-once semantics
            self._on_done(job, attempt, attempts)
            return
