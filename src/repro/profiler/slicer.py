"""Dynamic backward slicing (the backward pass, paper Section III-B).

The slicer walks the trace from the end to the beginning, maintaining:

* a **live memory set**, shared by all threads (threads of the tab process
  share one address space);
* one **live register set per thread** (each thread has its own
  architectural context);
* one **pending branch set per thread**: when an instruction joins the
  slice, every branch it is control dependent on (CDG lookup) is marked
  pending; the first dynamic instance of a pending branch met while walking
  backward is the nearest preceding instance — it joins the slice and its
  condition becomes live;
* per-thread **frame reconstruction** for dynamic call-site control
  dependence: when any instruction of a function invocation joins the
  slice, the invocation's CALL (and matching RET) join the slice too, so
  the call overhead of useful functions counts as useful and the inclusion
  propagates transitively toward the thread root.

Data dependences are discovered by liveness analysis, exactly as in the
paper: an instruction that writes a live location joins the slice, its
writes are killed and its reads become live.  Because the trace carries
exact addresses, there is no aliasing imprecision.

The walk itself is :func:`repro.profiler.epoch.run_epoch`;
:class:`BackwardSlicer` runs it once over the whole trace.  This module
holds the types every engine shares: options, results and timeline
samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..trace.store import TraceStore
from .cdg import ControlDependenceIndex
from .criteria import SlicingCriteria


@dataclass
class TimelineSample:
    """One sample of backward-pass progress (drives Figure 4).

    Attributes:
        processed: records processed so far (all threads).
        in_slice: of those, how many joined the slice.
        processed_main: records processed belonging to the main thread.
        in_slice_main: of those, how many joined the slice.
    """

    processed: int
    in_slice: int
    processed_main: int
    in_slice_main: int

    def fraction_all(self) -> float:
        return self.in_slice / self.processed if self.processed else 0.0

    def fraction_main(self) -> float:
        return self.in_slice_main / self.processed_main if self.processed_main else 0.0


@dataclass(frozen=True)
class SlicerOptions:
    """Ablation/diagnostic switches of the backward pass.

    Disabling a mechanism quantifies its contribution to the slice (the
    ablation benches use these); ``track_reasons`` records, for every
    sliced record, why it joined.
    """

    #: follow control dependences (pending-branch mechanism, Section III-B)
    control_dependences: bool = True
    #: include CALL/RET of invocations whose body joined the slice
    call_site_dependences: bool = True
    #: record a (kind, detail) join reason per sliced record
    track_reasons: bool = False


DEFAULT_OPTIONS = SlicerOptions()


@dataclass
class SliceResult:
    """Output of one backward slicing run."""

    criteria_name: str
    flags: bytearray  # flags[i] == 1 iff record i is in the slice
    timeline: List[TimelineSample] = field(default_factory=list)
    #: number of records actually visited (== len(flags) unless windowed)
    visited: int = 0
    #: record index -> (reason kind, detail), when reasons were tracked.
    #: kinds: "data" (a written cell was live), "register", "control"
    #: (pending branch), "call" (needed invocation; both the CALL and its
    #: retroactively-flagged RET carry this kind), "syscall" (criteria).
    #: When tracking is on, every sliced record has exactly one entry, so
    #: the per-kind counts sum to the slice size.
    reasons: Optional[Dict[int, Tuple[str, int]]] = None
    #: engine diagnostics: "engine" (the engine that ran, whatever name the
    #: caller passed) plus engine-specific counters (for the incremental
    #: engine: regions, region_runs, memo_exact, records_touched, ...).
    engine_stats: Dict[str, object] = field(default_factory=dict)

    def __contains__(self, index: int) -> bool:
        return bool(self.flags[index])

    def slice_size(self) -> int:
        return sum(self.flags)

    def total(self) -> int:
        return len(self.flags)

    def fraction(self) -> float:
        return self.slice_size() / len(self.flags) if self.flags else 0.0

    def indices(self) -> List[int]:
        """Record indices in the slice, ascending."""
        return [i for i, flag in enumerate(self.flags) if flag]


class BackwardSlicer:
    """Runs the backward pass for one criteria set over one trace.

    The reference engine: one :func:`.epoch.run_epoch` call over the
    whole trace from the empty frontier.  It is the only engine that
    returns Figure-4 timelines (``sample_every``) and join reasons
    (``options.track_reasons``).
    """

    def __init__(
        self,
        store: TraceStore,
        cdi: ControlDependenceIndex,
        criteria: SlicingCriteria,
        sample_every: Optional[int] = None,
        main_tid: Optional[int] = None,
        options: SlicerOptions = DEFAULT_OPTIONS,
    ) -> None:
        self._store = store
        self._cdi = cdi
        self._criteria = criteria
        self._sample_every = sample_every
        self._options = options
        meta_main = store.metadata.main_thread_id()
        self._main_tid = main_tid if main_tid is not None else meta_main

    def run(self) -> SliceResult:
        from .epoch import SliceFrontier, run_epoch

        records = self._store.records()
        criteria = self._criteria
        options = self._options
        epoch = run_epoch(
            records,
            0,
            len(records),
            SliceFrontier.empty(),
            criteria.by_index(),
            criteria.include_syscalls,
            criteria.window_end,
            self._cdi.deps_of if options.control_dependences else (lambda pc: ()),
            options,
            sample_every=self._sample_every,
            main_tid=self._main_tid,
        )
        return SliceResult(
            criteria_name=criteria.name,
            flags=bytearray(epoch.flags),
            timeline=epoch.timeline,
            visited=len(records),
            reasons=epoch.reasons,
            engine_stats={"engine": "sequential"},
        )

