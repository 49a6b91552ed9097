"""The paper's contribution: a dynamic backward-slicing profiler.

Forward pass: per-function dynamic CFGs from the instruction trace
(:mod:`.cfg`), postdominators (:mod:`.postdom`), control-dependence graph
(:mod:`.cdg`).  Backward pass: liveness-based slicing with pixel-buffer or
syscall criteria (:mod:`.criteria`, :mod:`.slicer`).  Derived outputs:
per-thread statistics and Figure-4 timelines (:mod:`.stats`), namespace
categorization of unnecessary computations (:mod:`.categorize`).
"""

from .api import Profiler
from .attribution import (
    image_attribution,
    image_region_cells,
    script_attribution,
    script_region_cells,
)
from .categorize import (
    CATEGORIES,
    CategoryDistribution,
    categorize_symbol,
    categorize_unnecessary,
)
from .cdg import ControlDependenceIndex, build_index, control_dependences
from .cfg import VIRTUAL_EXIT, DynamicCFGBuilder, FunctionCFG, build_cfgs
from .criteria import (
    CRITERIA_FAMILIES,
    Criterion,
    SlicingCriteria,
    combined_criteria,
    criteria_from_name,
    criteria_names,
    custom_criteria,
    pixel_criteria,
    syscall_criteria,
)
from .calltree import CallNode, build_call_tree, hottest_paths, render_call_tree
from .diff import SliceDiff, diff_slices, exclusive_functions
from .epoch import SliceFrontier
from .explain import chain_heads, explain_record, reason_summary
from .incremental import (
    IncrementalCDI,
    IncrementalFrameResult,
    IncrementalSlicer,
    SliceCheckpoint,
    StreamingSliceSession,
)
from .oracle import OracleSlicer
from .postdom import immediate_postdominators, postdominates
from .redundancy import (
    FrameRedundancy,
    RedundancyReport,
    analyze_frames,
    frame_pixel_criteria,
)
from .slicer import (
    BackwardSlicer,
    DEFAULT_OPTIONS,
    SliceResult,
    SlicerOptions,
    TimelineSample,
)
from .stats import (
    SliceStatistics,
    ThreadStat,
    compute_statistics,
    per_function_fractions,
    timeline_series,
    windowed_fraction,
)

__all__ = [
    "Profiler",
    "script_attribution",
    "script_region_cells",
    "image_attribution",
    "image_region_cells",
    "DynamicCFGBuilder",
    "FunctionCFG",
    "VIRTUAL_EXIT",
    "build_cfgs",
    "immediate_postdominators",
    "postdominates",
    "FrameRedundancy",
    "RedundancyReport",
    "analyze_frames",
    "frame_pixel_criteria",
    "ControlDependenceIndex",
    "control_dependences",
    "build_index",
    "Criterion",
    "SlicingCriteria",
    "CRITERIA_FAMILIES",
    "criteria_from_name",
    "criteria_names",
    "pixel_criteria",
    "syscall_criteria",
    "combined_criteria",
    "custom_criteria",
    "BackwardSlicer",
    "SliceFrontier",
    "IncrementalSlicer",
    "IncrementalCDI",
    "IncrementalFrameResult",
    "SliceCheckpoint",
    "StreamingSliceSession",
    "OracleSlicer",
    "SlicerOptions",
    "DEFAULT_OPTIONS",
    "SliceResult",
    "TimelineSample",
    "SliceStatistics",
    "ThreadStat",
    "compute_statistics",
    "windowed_fraction",
    "per_function_fractions",
    "timeline_series",
    "SliceDiff",
    "diff_slices",
    "exclusive_functions",
    "CallNode",
    "build_call_tree",
    "render_call_tree",
    "hottest_paths",
    "explain_record",
    "reason_summary",
    "chain_heads",
    "CATEGORIES",
    "CategoryDistribution",
    "categorize_symbol",
    "categorize_unnecessary",
]
