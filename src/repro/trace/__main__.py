"""Trace CLI: collect, inspect, and verify benchmark traces on disk.

Usage::

    python -m repro.trace collect amazon_desktop /tmp/amazon.ucwa
    python -m repro.trace info /tmp/amazon.ucwa
    python -m repro.trace lint /tmp/amazon.ucwa [--json] [--checkpoint=PATH]
    python -m repro.trace convert /tmp/amazon.ucwa /tmp/bare.ucwa --no-index
    python -m repro.trace slice /tmp/amazon.ucwa
    python -m repro.trace slice /tmp/amazon.ucwa --criteria=syscalls
    python -m repro.trace slice /tmp/amazon.ucwa --engine=sequential

``collect`` runs a registered benchmark with the harness recipe (the
trace ``run_benchmark`` and a service workload job see) and saves its
trace in the columnar UCWA3 layout, the one on-disk format, with its
precomputed slice index (the same bytes ``convert`` writes;
``--format=v3`` names that format and changes nothing); ``info``
prints per-thread and symbol statistics; ``lint`` checks the sanitizer's
well-formedness invariants (CALL/RET balance, use-before-def, lock
discipline, marker clock, frame-epoch monotonicity — see
repro/trace/lint.py) and
exits non-zero on any error-severity violation; ``--json`` emits the
machine-readable report instead; ``--checkpoint=PATH`` additionally runs
the ``checkpoint-consistency`` check against a serialized incremental
slice checkpoint (a ``TRACE.ckpt`` sidecar, when present, is picked up
automatically; see docs/incremental-slicing.md); ``convert`` re-encodes
a trace file, attaching the stored slice index (``--no-index`` drops it
— see docs/trace-format.md); ``slice`` runs a backward slice on a
stored trace (demonstrating the collect-once, profile-many workflow the
paper uses).  ``--criteria`` picks the criteria family — ``pixels``
(default), ``syscalls``, or ``pixels+syscalls`` (paper Section V);
``--engine`` defaults to ``auto``, which runs the array-join
``vectorized`` engine on a UCWA3 trace carrying its stored slice index
and the reference ``sequential`` engine otherwise; the ``engine:`` line
names the engine that ran.  ``--engine=sequential`` forces the
reference; ``--engine=vectorized`` the array-join engine on any trace;
``--engine=incremental`` the frame-region checkpointing engine (see
docs/incremental-slicing.md).  Unknown criteria, engines, options,
formats (any ``--format`` but ``v3``), and workload names exit with
status 2, as do a trace path that cannot be read (a UCWA2 file
included) and a ``collect`` destination whose directory does not
exist (checked before the simulation runs); those print ``error: ...``
on stderr.
"""

from __future__ import annotations

import json
import os
import sys
from collections import Counter
from typing import Optional

from .store import load_any_trace


def _error(message: object) -> int:
    """Print ``error: <message>`` to stderr; the exit status is 2."""
    print(f"error: {message}", file=sys.stderr)
    return 2


def _collect(name: str, path: str) -> int:
    from ..harness.experiments import run_engine
    from ..workloads import benchmark

    try:
        bench = benchmark(name)
    except KeyError as err:
        return _error(err.args[0])
    # Fail before the simulation, not after it.
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        return _error(f"no such directory: {directory}")
    engine = run_engine(bench, metrics_ticks=2)
    store = engine.trace_store()
    try:
        from .columnar import save_ucwa3

        save_ucwa3(store, path)
    except OSError as err:
        return _error(err)
    print(f"saved {len(store)} records ({len(store.thread_ids())} threads) to {path}")
    return 0


def _convert(src: str, dst: str, with_index: bool = True) -> int:
    from .columnar import convert_trace

    convert_trace(src, dst, with_index=with_index)
    print(f"wrote {dst} ({os.path.getsize(dst)} bytes)")
    return 0


def _format_ok(fmt: str) -> bool:
    """UCWA3 is the one format ``collect`` and ``convert`` write."""
    if fmt != "v3":
        print(f"unknown format {fmt!r}; expected 'v3'")
    return fmt == "v3"


def _info(path: str) -> int:
    store = load_any_trace(path)
    print(f"{path}: {len(store)} records")
    print(f"threads:")
    counts = store.instructions_per_thread()
    for tid in store.thread_ids():
        name = store.metadata.thread_names.get(tid, f"thread-{tid}")
        print(f"  {name:<28s} {counts[tid]:>8d}")
    print(f"tile markers: {len(store.metadata.tile_buffers)}")
    print(f"load-complete index: {store.metadata.load_complete_index}")
    frames = store.metadata.frames
    if frames:
        kinds = Counter(span.kind for span in frames)
        kind_text = ", ".join(f"{count} {kind}" for kind, count in sorted(kinds.items()))
        print(f"frames: {len(frames)} ({kind_text})")
    top = Counter(store.symbols.name(r.fn) for r in store.forward())
    print("top functions:")
    for fn_name, count in top.most_common(10):
        print(f"  {count:>8d} {fn_name}")
    return 0


def _lint(
    path: str,
    as_json: bool = False,
    checkpoint_path: Optional[str] = None,
) -> int:
    from .checkpoint import CheckpointImage, sidecar_path
    from .lint import lint_trace

    checkpoint = None
    if checkpoint_path is None:
        sidecar = sidecar_path(path)
        if sidecar.exists():
            checkpoint_path = str(sidecar)
    if checkpoint_path is not None:
        try:
            checkpoint = CheckpointImage.load(checkpoint_path)
        except (ValueError, OSError) as err:
            print(f"error: cannot load checkpoint {checkpoint_path}: {err}",
                  file=sys.stderr)
            return 2
    report = lint_trace(load_any_trace(path), checkpoint=checkpoint)
    if as_json:
        print(
            json.dumps(
                {
                    "path": path,
                    "n_records": report.n_records,
                    "ok": report.ok,
                    "counts": report.counts,
                    "issues": [
                        {
                            "check": issue.check,
                            "severity": issue.severity,
                            "message": issue.message,
                            "index": issue.index,
                        }
                        for issue in report.issues
                    ],
                },
                indent=2,
            )
        )
    else:
        print(f"{path}:")
        print(report.summary())
    return 0 if report.ok else 1


def _slice(path: str, engine: str = "auto", criteria: str = "pixels") -> int:
    from ..profiler.api import run_slice_job

    store = load_any_trace(path)
    result, stats = run_slice_job(store, criteria=criteria, engine=engine)
    print(f"{criteria} slice: {stats.fraction:.1%} of {stats.total} records")
    for thread in stats.threads:
        print(f"  {thread.name:<28s} {thread.fraction:>6.1%}")
    pairs = ", ".join(f"{k}={v}" for k, v in result.engine_stats.items())
    print(f"engine: {pairs}")
    return 0


def _on_trace(command, path: str, **options) -> int:
    """Run ``command`` on a stored trace; an unreadable one exits 2.

    A reader that closed our stdout (``... | head``) is not an unreadable
    trace: that error goes on to the ``__main__`` handler.
    """
    try:
        return command(path, **options)
    except BrokenPipeError:
        raise
    except (ValueError, OSError) as err:
        return _error(err)


def main(argv) -> int:
    if len(argv) >= 2 and argv[0] == "info":
        return _on_trace(_info, argv[1])
    if len(argv) >= 2 and argv[0] == "lint":
        as_json = False
        checkpoint_path: Optional[str] = None
        for opt in argv[2:]:
            if opt == "--json":
                as_json = True
            elif opt.startswith("--checkpoint="):
                checkpoint_path = opt[len("--checkpoint="):]
                if not checkpoint_path:
                    print("--checkpoint expects a path")
                    return 2
            else:
                print(f"unknown option {opt!r}")
                return 2
        return _on_trace(_lint, argv[1], as_json=as_json, checkpoint_path=checkpoint_path)
    if len(argv) >= 2 and argv[0] == "slice":
        from ..profiler.criteria import criteria_names

        engine, criteria = "auto", "pixels"
        for opt in argv[2:]:
            if opt.startswith("--engine="):
                engine = opt[len("--engine="):]
            elif opt.startswith("--criteria="):
                criteria = opt[len("--criteria="):]
            else:
                print(f"unknown option {opt!r}")
                return 2
        # Validate up front, before the (possibly large) trace is loaded.
        from ..profiler.api import ENGINES

        if engine not in ENGINES:
            print(f"unknown engine {engine!r}; expected one of {', '.join(ENGINES)}")
            return 2
        if criteria not in criteria_names():
            print(
                f"unknown criteria {criteria!r}; "
                f"available: {', '.join(criteria_names())}"
            )
            return 2
        return _on_trace(_slice, argv[1], engine=engine, criteria=criteria)
    if len(argv) >= 3 and argv[0] == "convert":
        fmt, with_index = "v3", True
        for opt in argv[3:]:
            if opt.startswith("--format="):
                fmt = opt[len("--format="):]
            elif opt == "--no-index":
                with_index = False
            else:
                print(f"unknown option {opt!r}")
                return 2
        if not _format_ok(fmt):
            return 2
        try:
            return _convert(argv[1], argv[2], with_index=with_index)
        except (ValueError, OSError) as err:
            return _error(err)
    if len(argv) >= 3 and argv[0] == "collect":
        fmt = "v3"
        for opt in argv[3:]:
            if opt.startswith("--format="):
                fmt = opt[len("--format="):]
            else:
                print(f"unknown option {opt!r}")
                return 2
        if not _format_ok(fmt):
            return 2
        return _collect(argv[1], argv[2])
    print(__doc__)
    return 2


if __name__ == "__main__":
    try:
        status = main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:  # e.g. `... | head`
        # The reader has what it wanted.  Shutdown flushes stdout once
        # more; pointed at devnull, that flush has nowhere left to fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 0
    sys.exit(status)
