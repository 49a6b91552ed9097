"""Job specs and their execution (the service's unit of work).

A :class:`JobSpec` names *what* to analyze — a registered workload or a
stored trace file — and *how*: criteria family, slicing engine, optional
frame selection.  Specs are plain JSON-able data so they
travel over the wire, key the coalescing map, and re-execute identically
on retry.

:func:`execute_job` is the function the supervised worker processes run:
resolve the spec to a trace, digest it, slice it through the pure
:func:`repro.profiler.api.run_slice_job` entry point, and return a
JSON-able result payload.  It is deliberately side-effect-free (no server
state, no cache) so a crashed attempt can simply be run again.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, asdict
from typing import Any, Dict, Optional

from ..profiler.api import ENGINES as _ENGINES
from ..profiler.api import run_slice_job
from ..profiler.criteria import criteria_names
from ..trace.store import (
    FileIdentity,
    file_digest,
    file_identity,
    load_any_trace,
    trace_digest,
)

#: Fault-injection hooks, honoured inside the worker process just before
#: the slice runs.  They exist so the failure paths (crash isolation,
#: retry-once, timeouts) are deterministically testable end-to-end:
#: ``crash`` kills the process on every attempt, ``crash-once`` only on
#: the first, ``hang`` sleeps past any reasonable timeout, ``error``
#: raises a structured job error.
FAULTS = ("crash", "crash-once", "hang", "error")


class SpecError(ValueError):
    """A job spec that fails validation (maps to the invalid-spec code)."""


@dataclass(frozen=True)
class JobSpec:
    """One profiling job: analysis target × criteria × engine."""

    workload: Optional[str] = None
    trace_path: Optional[str] = None
    #: content address (hex sha256) of a trace already streamed into the
    #: server's upload registry — the fleet's submit form: the client
    #: uploads bytes once per shard, then submits by digest alone
    trace_ref: Optional[str] = None
    criteria: str = "pixels"
    engine: str = "auto"
    frame: Optional[int] = None
    timeout_s: Optional[float] = None
    fault: Optional[str] = None
    #: directory holding per-trace-digest incremental checkpoints; the
    #: server injects its own cache-derived path for incremental jobs, so
    #: successive frame submits of one trace pay only the per-frame delta
    checkpoint_dir: Optional[str] = None
    #: the server's upload-registry directory (server-injected, like
    #: ``checkpoint_dir``); resolves ``trace_ref`` jobs inside the worker
    upload_dir: Optional[str] = None

    def validate(self) -> "JobSpec":
        """Check the spec against the registries; raise :class:`SpecError`."""
        from ..workloads import benchmark_names, unknown_names

        targets = [t for t in (self.workload, self.trace_path, self.trace_ref) if t]
        if len(targets) != 1:
            raise SpecError(
                "exactly one of 'workload', 'trace_path', or 'trace_ref' "
                "is required"
            )
        if self.trace_ref is not None and not (
            len(self.trace_ref) == 64
            and all(c in "0123456789abcdef" for c in self.trace_ref)
        ):
            raise SpecError(
                f"trace_ref must be a hex sha256 digest, got {self.trace_ref!r}"
            )
        if self.workload is not None and unknown_names([self.workload]):
            raise SpecError(
                f"unknown workload {self.workload!r}; "
                f"available: {', '.join(benchmark_names())}"
            )
        if self.criteria not in criteria_names():
            raise SpecError(
                f"unknown criteria {self.criteria!r}; "
                f"available: {', '.join(criteria_names())}"
            )
        if self.engine not in _ENGINES:
            raise SpecError(
                f"unknown engine {self.engine!r}; expected one of {_ENGINES}"
            )
        if self.frame is not None and self.frame < 0:
            raise SpecError(f"frame must be >= 0, got {self.frame}")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise SpecError(f"timeout_s must be positive, got {self.timeout_s}")
        if self.fault is not None and self.fault not in FAULTS:
            raise SpecError(
                f"unknown fault {self.fault!r}; available: {', '.join(FAULTS)}"
            )
        return self

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able form (drops unset fields for stable fingerprints)."""
        return {k: v for k, v in asdict(self).items() if v is not None}

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "JobSpec":
        """Parse a wire-form spec, rejecting unknown fields."""
        if not isinstance(data, dict):
            raise SpecError(f"job spec must be an object, got {type(data).__name__}")
        known = {f for f in JobSpec.__dataclass_fields__}
        unknown = sorted(set(data) - known)
        if unknown:
            raise SpecError(f"unknown job-spec field(s): {', '.join(unknown)}")
        return JobSpec(**data).validate()

    def fingerprint(self) -> str:
        """Identity of the job for submit coalescing.

        Covers every result-affecting field (and the fault hook, so a
        fault-injected job never coalesces with a clean one) but not
        ``timeout_s``, ``checkpoint_dir``, or ``upload_dir``, which only
        affect how fast the (byte-identical) result is produced.
        """
        payload = self.to_dict()
        payload.pop("timeout_s", None)
        payload.pop("checkpoint_dir", None)
        payload.pop("upload_dir", None)
        if self.trace_path is not None:
            payload["trace_path"] = os.path.abspath(self.trace_path)
        raw = json.dumps(payload, sort_keys=True).encode("utf-8")
        return hashlib.sha256(raw).hexdigest()


def resolve_trace(spec: JobSpec):
    """Materialize the spec's trace: load the file or run the workload.

    Trace files load through :func:`repro.trace.store.load_any_trace`
    (UCWA3).  A file that is not a readable trace — a UCWA2 file among
    them — raises :class:`SpecError` with the loader's message, so the
    job fails as ``job-failed`` and nothing is cached.  Workload runs use
    the same recipe as ``harness.experiments.run_benchmark``
    (``metrics_ticks=2``), so a service job over a workload sees the
    byte-identical trace the in-process harness sees.
    """
    if spec.trace_path is not None or spec.trace_ref is not None:
        path = spec.trace_path if spec.trace_path is not None else resolve_trace_ref(spec)
        try:
            return load_any_trace(path)
        except ValueError as err:
            raise SpecError(str(err)) from None
    from ..harness.experiments import run_engine
    from ..workloads import benchmark

    assert spec.workload is not None  # validate() guarantees one target
    return run_engine(benchmark(spec.workload), metrics_ticks=2).trace_store()


def resolve_trace_ref(spec: JobSpec):
    """The upload-registry path of a ``trace_ref`` job's bytes.

    The digest was verified when the upload was streamed in, so the path
    *is* the content address — no re-hash.  A ref the registry does not
    hold is a spec error (the server checks at submit time and returns
    the stable ``no-such-trace`` code; this guard covers direct callers).
    """
    from .fleet.upload import upload_path

    if spec.upload_dir is None:
        raise SpecError(
            "trace_ref jobs need the server's upload registry (upload_dir)"
        )
    path = upload_path(spec.upload_dir, spec.trace_ref or "")
    if not path.exists():
        raise SpecError(f"no uploaded trace with digest {spec.trace_ref}")
    return path


def _inject_fault(spec: JobSpec, attempt: int) -> None:
    if spec.fault is None:
        return
    if spec.fault == "crash" or (spec.fault == "crash-once" and attempt == 0):
        os._exit(17)
    if spec.fault == "hang":
        time.sleep(3600.0)
    if spec.fault == "error":
        raise SpecError("injected job error")


def _identity_or_none(path: str) -> Optional[FileIdentity]:
    """:func:`file_identity` of ``path``, or None once it is gone."""
    try:
        return file_identity(path)
    except OSError:
        return None


def execute_job(spec: JobSpec, attempt: int = 0) -> Dict[str, Any]:
    """Run one job to completion and return its JSON-able result payload.

    The payload carries the trace digest (for content-addressed caching
    by the server), a sha256 over the slice flags (so two runs can be
    compared for byte-identity without shipping the flags), per-thread
    statistics matching :func:`repro.profiler.stats.compute_statistics`,
    the engine that ran (``"auto"`` resolved to its pick) and its
    diagnostics, and per-stage timings.

    A path job hashes its file before loading it and checks the file's
    stat identity again after slicing (a UCWA3 file is memory-mapped, so
    the slice reads it too); if the file was rewritten or replaced
    meanwhile, the digest may not name the bytes sliced, and the job
    fails with :class:`SpecError` rather than return a result the server
    would cache under that digest.
    """
    t0 = time.perf_counter()
    path = spec.trace_path
    if path is not None:
        identity = file_identity(path)
        digest = file_digest(path)
        store = resolve_trace(spec)
    elif spec.trace_ref is not None:
        store = resolve_trace(spec)
        digest = spec.trace_ref  # verified when the upload was streamed in
    else:
        store = resolve_trace(spec)
        digest = trace_digest(store)
    t1 = time.perf_counter()
    _inject_fault(spec, attempt)
    checkpoint = None
    checkpoint_path = None
    checkpoint_state = None
    if spec.engine == "incremental" and spec.checkpoint_dir is not None:
        from ..profiler.incremental import open_checkpoint

        checkpoint, checkpoint_state, checkpoint_path = open_checkpoint(
            digest, spec.checkpoint_dir
        )
    result, stats = run_slice_job(
        store,
        criteria=spec.criteria,
        engine=spec.engine,
        frame=spec.frame,
        checkpoint=checkpoint,
    )
    if path is not None and _identity_or_none(path) != identity:
        raise SpecError(
            f"{path}: trace file changed while the job read it; submit again"
        )
    if checkpoint is not None and checkpoint_path is not None:
        checkpoint.trace_digest = digest
        checkpoint.save(checkpoint_path)
    t2 = time.perf_counter()
    engine_stats = dict(result.engine_stats)
    if checkpoint_state is not None:
        engine_stats["checkpoint"] = checkpoint_state
    return {
        "criteria": result.criteria_name,
        "engine": result.engine_stats["engine"],
        "trace_digest": digest,
        "total": stats.total,
        "slice_size": stats.in_slice,
        "fraction": stats.fraction,
        "flags_sha256": hashlib.sha256(bytes(result.flags)).hexdigest(),
        "threads": [
            {
                "tid": t.tid,
                "name": t.name,
                "total": t.total,
                "in_slice": t.in_slice,
            }
            for t in stats.threads
        ],
        "engine_stats": engine_stats,
        "timings": {
            "resolve_s": t1 - t0,
            "slice_s": t2 - t1,
        },
    }
