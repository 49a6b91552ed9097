"""High-level profiler facade.

``Profiler`` bundles the forward pass (dynamic CFGs, postdominators,
control-dependence index — computed once, reused across criteria, as the
paper notes) with backward slicing runs and the derived statistics.

Typical use::

    from repro.profiler import Profiler
    from repro.profiler.criteria import pixel_criteria

    prof = Profiler(trace_store)
    result = prof.slice(pixel_criteria(trace_store), sample_every=10_000)
    stats = prof.statistics(result)
    print(f"pixel slice: {stats.fraction:.0%} of {stats.total} instructions")
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

from ..trace.records import collector_paused
from ..trace.store import TraceStore
from .categorize import CategoryDistribution, categorize_unnecessary
from .cdg import ControlDependenceIndex
from .cfg import build_cfgs
from .criteria import (
    SlicingCriteria,
    combined_criteria,
    criteria_from_name,
    pixel_criteria,
    syscall_criteria,
)
from .slicer import BackwardSlicer, SliceResult, SlicerOptions, DEFAULT_OPTIONS
from .stats import SliceStatistics, compute_statistics

if TYPE_CHECKING:
    from ..trace.columnar import ColumnarTrace
    from .incremental import SliceCheckpoint

#: The slicing-engine registry: every engine name ``Profiler.slice``
#: accepts, ``"auto"`` (the default, see :func:`resolve_engine`) first.
#: CLIs and the service validate engine names against this one tuple so a
#: new engine lands everywhere at once.
ENGINES = ("auto", "sequential", "vectorized", "incremental")


def resolve_engine(
    store,
    options: SlicerOptions = DEFAULT_OPTIONS,
    sample_every: Optional[int] = None,
    checkpoint: Optional["SliceCheckpoint"] = None,
) -> str:
    """The engine ``engine="auto"`` runs for this trace and request.

    * ``"sequential"``, the reference engine, when the request samples a
      timeline or tracks join reasons: only it returns them;
    * ``"incremental"`` when the caller passes a checkpoint: it asked for
      that state to be used and extended;
    * ``"vectorized"`` when the trace is a columnar trace carrying a
      stored slice index and the options are the defaults — answered
      from the stored index without a forward pass or a single record
      object;
    * ``"sequential"`` otherwise.
    """
    if sample_every or options.track_reasons:
        return "sequential"
    if checkpoint is not None:
        return "incremental"
    # The attribute test comes first so a row store never imports the
    # numpy-backed columnar module.
    if getattr(store, "index", None) is not None and options == DEFAULT_OPTIONS:
        from ..trace.columnar import ColumnarTrace

        if isinstance(store, ColumnarTrace):
            return "vectorized"
    return "sequential"


class Profiler:
    """Dynamic backward-slicing profiler over one instruction trace.

    ``cdi`` seeds the forward-pass result (CFGs + postdominators + CDG)
    when the caller already holds it for this trace.
    """

    def __init__(
        self, store: TraceStore, cdi: Optional[ControlDependenceIndex] = None
    ) -> None:
        self._store = store
        self._cdi = cdi
        self._checkpoint: Optional["SliceCheckpoint"] = None
        self._columns: Optional["ColumnarTrace"] = None

    def slice_checkpoint(self) -> "SliceCheckpoint":
        """The profiler-lifetime checkpoint the incremental engine extends.

        Shared across every ``engine="incremental"`` slice of this
        profiler, so a sweep of per-frame queries pays for each seedless
        region's backward run once instead of once per frame.
        """
        if self._checkpoint is None:
            from .incremental import SliceCheckpoint

            self._checkpoint = SliceCheckpoint()
        return self._checkpoint

    @property
    def store(self) -> TraceStore:
        return self._store

    def _columnar(self) -> "ColumnarTrace":
        """The trace as columns, for the vectorized engine.

        A columnar trace is its own; a row store is converted on first use
        and the conversion kept, so repeated vectorized queries (and the
        writer tables cached on the columns) pay for it once.
        """
        if self._columns is None:
            from ..trace.columnar import ColumnarTrace

            store = self._store
            self._columns = (
                store
                if isinstance(store, ColumnarTrace)
                else ColumnarTrace.from_store(store)
            )
        return self._columns

    def control_dependence_index(self) -> ControlDependenceIndex:
        """Run (or reuse) the forward pass: CFGs + postdominators + CDG.

        A columnar trace feeds the CFG builder from its columns, so the
        forward pass builds no record object on either trace type.
        """
        if self._cdi is None:
            self._cdi = ControlDependenceIndex(build_cfgs(self._store))
        return self._cdi

    @collector_paused()
    def slice(
        self,
        criteria: SlicingCriteria,
        sample_every: Optional[int] = None,
        main_tid: Optional[int] = None,
        options: SlicerOptions = DEFAULT_OPTIONS,
        engine: str = "auto",
        checkpoint: Optional["SliceCheckpoint"] = None,
    ) -> SliceResult:
        """Run the backward pass for ``criteria``.

        ``engine`` selects the implementation: ``"auto"`` (default; picks
        one of the others from the trace and the request, see
        :func:`resolve_engine`), ``"sequential"`` (the reference: a single
        in-process pass), ``"vectorized"`` (array-join closure over a
        columnar trace; a row store is converted once per profiler), or
        ``"incremental"`` (frame-region memoization against a checkpoint;
        see ``docs/incremental-slicing.md``).  All produce identical
        sliced-record sets, and every engine names itself in
        ``result.engine_stats["engine"]``.  Only ``"sequential"`` returns
        a timeline (``sample_every``) and join reasons
        (``options.track_reasons``); the other two raise ``ValueError``
        when asked for either.  ``checkpoint`` overrides the
        profiler-lifetime checkpoint (incremental engine only).  The
        forward and backward passes run with the cyclic collector paused
        (:func:`~repro.trace.records.collector_paused`).
        """
        if engine == "auto":
            engine = resolve_engine(self._store, options, sample_every, checkpoint)
        elif engine in ("vectorized", "incremental") and (
            sample_every or options.track_reasons
        ):
            raise ValueError(
                f"engine {engine!r} returns flags only; timelines and join "
                f"reasons need engine='sequential'"
            )
        if engine == "sequential":
            slicer = BackwardSlicer(
                self._store,
                self.control_dependence_index(),
                criteria,
                sample_every=sample_every,
                main_tid=main_tid,
                options=options,
            )
            return slicer.run()
        if engine == "vectorized":
            from .vectorized import VectorizedSlicer

            # The CDI is passed lazily: a columnar trace carrying a stored
            # slice index never needs the forward CDG pass under default
            # options, which is most of the cold-slice win.
            return VectorizedSlicer(
                self._columnar(),
                self._cdi,
                criteria,
                options=options,
                cdi_provider=self.control_dependence_index,
            ).run()
        if engine == "incremental":
            from .incremental import IncrementalSlicer

            return IncrementalSlicer(
                self._store,
                self.control_dependence_index(),
                criteria,
                checkpoint=(
                    checkpoint if checkpoint is not None else self.slice_checkpoint()
                ),
                options=options,
            ).run()
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {', '.join(ENGINES)}"
        )

    def pixel_slice(
        self, sample_every: Optional[int] = None, engine: str = "auto", **kwargs
    ) -> SliceResult:
        """Slice on the pixels-buffer criteria (the paper's headline run)."""
        return self.slice(
            pixel_criteria(self._store),
            sample_every=sample_every,
            engine=engine,
            **kwargs,
        )

    def syscall_slice(
        self, sample_every: Optional[int] = None, engine: str = "auto", **kwargs
    ) -> SliceResult:
        """Slice on the syscall criteria."""
        return self.slice(
            syscall_criteria(self._store),
            sample_every=sample_every,
            engine=engine,
            **kwargs,
        )

    def combined_slice(
        self, sample_every: Optional[int] = None, engine: str = "auto", **kwargs
    ) -> SliceResult:
        """Slice on pixels + syscalls together."""
        return self.slice(
            combined_criteria(self._store),
            sample_every=sample_every,
            engine=engine,
            **kwargs,
        )

    def statistics(self, result: SliceResult) -> SliceStatistics:
        """Per-thread and overall statistics of a slice."""
        return compute_statistics(self._store, result)

    def categorize(self, result: SliceResult) -> CategoryDistribution:
        """Namespace categorization of the non-slice instructions."""
        return categorize_unnecessary(self._store, result)


# --------------------------------------------------------------------- #
# Pure job entry points (the profiling service's unit of work)          #
# --------------------------------------------------------------------- #


def job_criteria(
    store: TraceStore, criteria: str = "pixels", frame: Optional[int] = None
) -> SlicingCriteria:
    """Instantiate a named criteria family, optionally scoped to a frame.

    ``frame`` selects one complete frame epoch by position (0 = load
    frame): pixel points are restricted to tiles rastered inside the
    span and the criteria are windowed to the frame's last record, so
    the slice answers "what fed *this* frame's output".  Raises
    ``KeyError`` for an unknown family and ``ValueError`` for an
    out-of-range frame or a criteria family the trace cannot support.
    """
    if frame is None:
        return criteria_from_name(store, criteria)
    spans = store.frame_spans()
    if frame < 0 or frame >= len(spans):
        raise ValueError(
            f"frame {frame} out of range; trace has {len(spans)} complete frames"
        )
    span = spans[frame]
    from .redundancy import frame_pixel_criteria

    if criteria == "pixels":
        return frame_pixel_criteria(store, span)
    base = criteria_from_name(store, criteria)
    in_span = tuple(
        crit for crit in base.criteria if span.begin <= crit.index <= span.end
    )
    return SlicingCriteria(
        name=f"{criteria}:frame{span.frame_id}",
        criteria=in_span,
        include_syscalls=base.include_syscalls,
        window_end=span.end,
    )


def run_slice_job(
    store: TraceStore,
    criteria: str = "pixels",
    engine: str = "auto",
    frame: Optional[int] = None,
    sample_every: Optional[int] = None,
    options: SlicerOptions = DEFAULT_OPTIONS,
    checkpoint: Optional["SliceCheckpoint"] = None,
) -> Tuple[SliceResult, SliceStatistics]:
    """Run one profiling job: slice ``store`` and compute its statistics.

    This is the pure, side-effect-free entry point the profiling service
    executes in its worker processes (and what ``python -m repro.trace
    slice`` drives): everything a job needs arrives as arguments, and the
    full outcome is in the return value, so the call is safe to retry,
    cache, or run in a throwaway process.  ``checkpoint`` carries
    incremental-engine state across jobs of the same trace (the service
    persists it next to its result cache, so successive frame submits of
    one trace digest pay only the per-frame delta).
    """
    profiler = Profiler(store)
    result = profiler.slice(
        job_criteria(store, criteria, frame),
        sample_every=sample_every,
        engine=engine,
        options=options,
        checkpoint=checkpoint,
    )
    return result, profiler.statistics(result)
