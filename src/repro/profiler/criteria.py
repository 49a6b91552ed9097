"""Slicing criteria (paper Sections II-C and IV-C).

A slicing criterion is a pair *(program point, set of variables)*.  For the
web-application use case the paper defines two browser-independent criteria
families:

* **Pixels buffer** — at every dynamic point where a finished raster tile is
  written out (the marker inside ``RasterBufferProvider::PlaybackToMemory``),
  the tile's pixel cells become live.  Whatever never influences any
  displayed pixel is outside the slice.
* **System calls** — the values consumed by system calls, i.e. everything a
  process communicates to the outside world (network, display, audio).
  This slice is inclusive of the pixel slice.

Criteria are expressed against *record indices* of a concrete trace, which
is exactly "program point in the dynamic instruction trace".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..trace.store import TraceStore


@dataclass(frozen=True)
class Criterion:
    """One *(program point, set of variables)* pair.

    Attributes:
        index: record index in the trace (the dynamic program point).
        cells: memory addresses that become live at this point.
        regs: (tid, register) pairs that become live at this point.
    """

    index: int
    cells: Tuple[int, ...] = ()
    regs: Tuple[Tuple[int, int], ...] = ()


@dataclass
class SlicingCriteria:
    """A full criteria set handed to the backward pass.

    Attributes:
        name: human-readable criteria family name.
        criteria: the individual (point, variables) pairs.
        include_syscalls: when True every SYSCALL record is itself treated
            as a slice seed (its inputs become live and the record joins the
            slice) — the paper's syscall-based criteria family.
        window_end: if set, only criteria (and syscall seeds) at record
            indices <= window_end apply.  Used for the Bing partial-slice
            experiment: slice "from the time when the page was completely
            loaded back to the beginning".
    """

    name: str
    criteria: Tuple[Criterion, ...] = ()
    include_syscalls: bool = False
    window_end: Optional[int] = None

    def by_index(self) -> Dict[int, Criterion]:
        """Map record index -> criterion, honouring the window."""
        table: Dict[int, Criterion] = {}
        for crit in self.criteria:
            if self.window_end is not None and crit.index > self.window_end:
                continue
            existing = table.get(crit.index)
            if existing is None:
                table[crit.index] = crit
            else:
                table[crit.index] = Criterion(
                    index=crit.index,
                    cells=existing.cells + crit.cells,
                    regs=existing.regs + crit.regs,
                )
        return table

    def windowed(self, end_index: int) -> "SlicingCriteria":
        """Restrict the criteria to program points at or before ``end_index``."""
        return SlicingCriteria(
            name=f"{self.name}[:{end_index}]",
            criteria=self.criteria,
            include_syscalls=self.include_syscalls,
            window_end=end_index,
        )


def pixel_criteria(store: TraceStore) -> SlicingCriteria:
    """Pixel-buffer criteria from the trace's tile-marker side channel.

    Each entry of ``metadata.tile_buffers`` was logged by the instrumented
    raster stage when a tile's final pixel values had been written — the
    direct analogue of the paper's modified ``PlaybackToMemory`` plus
    external tile-address file.
    """
    crits = tuple(
        Criterion(index=index, cells=cells)
        for index, cells in store.metadata.tile_buffers
    )
    if not crits:
        raise ValueError(
            "trace has no tile markers; was the raster stage instrumented?"
        )
    return SlicingCriteria(name="pixels", criteria=crits)


def syscall_criteria(store: TraceStore) -> SlicingCriteria:
    """Syscall-based criteria: the values used by any system call."""
    return SlicingCriteria(name="syscalls", criteria=(), include_syscalls=True)


def combined_criteria(store: TraceStore) -> SlicingCriteria:
    """Pixel and syscall criteria together (the broadest useful set)."""
    pixels = pixel_criteria(store)
    return SlicingCriteria(
        name="pixels+syscalls", criteria=pixels.criteria, include_syscalls=True
    )


#: Criteria family name -> factory, the names the CLIs and the profiling
#: service accept for ``--criteria`` / the job-spec ``criteria`` field.
CRITERIA_FAMILIES = {
    "pixels": pixel_criteria,
    "syscalls": syscall_criteria,
    "pixels+syscalls": combined_criteria,
}


def criteria_names() -> Tuple[str, ...]:
    """The registered criteria family names, sorted."""
    return tuple(sorted(CRITERIA_FAMILIES))


def criteria_from_name(store: TraceStore, name: str) -> SlicingCriteria:
    """Instantiate a criteria family by name against one trace.

    Raises ``KeyError`` (with the available names in the message) for an
    unregistered family, ``ValueError`` when the family does not apply to
    the trace (e.g. pixels on a trace with no tile markers).
    """
    try:
        factory = CRITERIA_FAMILIES[name]
    except KeyError:
        raise KeyError(
            f"unknown criteria {name!r}; available: {', '.join(criteria_names())}"
        ) from None
    return factory(store)


def custom_criteria(
    name: str, points: Tuple[Tuple[int, Tuple[int, ...]], ...]
) -> SlicingCriteria:
    """Build ad-hoc criteria from (record index, cells) pairs.

    Exposed for library users who want to slice on their own notion of
    "important output" (e.g. a specific DOM subtree's layout cells).
    """
    return SlicingCriteria(
        name=name,
        criteria=tuple(Criterion(index=i, cells=tuple(c)) for i, c in points),
    )
