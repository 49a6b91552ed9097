"""Test helper: the backward slice as a chain of fixed-size epochs.

:func:`chained_epoch_slice` walks ``[lo, hi)`` epochs from the trace
tail, feeds each epoch's exit frontier (through its byte form, as a
``.ckpt`` stores it) into the epoch before it, and applies the
retroactive RET flags (``extra``) at the end.  That is the frontier
hand-off the incremental engine does across frame regions; on traces
without frames the engine runs one region, so this chain is what checks
non-empty frontiers crossing epoch boundaries there.
"""

from __future__ import annotations

from repro.profiler.epoch import SliceFrontier, run_epoch
from repro.profiler.slicer import DEFAULT_OPTIONS, SliceResult
from repro.trace.store import epoch_bounds


def chained_epoch_slice(store, cdi, criteria, epoch_size, options=DEFAULT_OPTIONS):
    records = store.records()
    n = len(records)
    deps_of = cdi.deps_of if options.control_dependences else (lambda pc: ())
    crit_by_index = criteria.by_index()
    flags = bytearray(n)
    reasons = {} if options.track_reasons else None
    extras = []
    frontier = SliceFrontier.empty()
    for lo, hi in reversed(epoch_bounds(n, epoch_size)):
        res = run_epoch(
            records,
            lo,
            hi,
            frontier,
            crit_by_index,
            criteria.include_syscalls,
            criteria.window_end,
            deps_of,
            options,
        )
        flags[lo:hi] = res.flags
        extras.extend(res.extra)
        if reasons is not None:
            reasons.update(res.reasons)
        frontier = SliceFrontier.from_bytes(res.frontier.to_bytes())
    for ret_index, callee_fn in extras:
        if not flags[ret_index]:
            flags[ret_index] = 1
            if reasons is not None:
                reasons[ret_index] = ("call", callee_fn)
    result = SliceResult(criteria_name=criteria.name, flags=flags)
    result.reasons = reasons
    return result
