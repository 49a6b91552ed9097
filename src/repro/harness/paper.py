"""Reference values from the paper's evaluation (Tables I, II; Sections V).

Used by the benchmark harness to print measured-vs-paper comparisons.
Absolute instruction counts are in millions (our traces are scaled down
~10^4; only ratios and percentages are compared).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple


@dataclass(frozen=True)
class Table2Column:
    """One benchmark column of Table II (percentages in [0, 1])."""

    name: str
    label: str
    all_slice: float
    all_instructions_m: int
    main_slice: float
    main_instructions_m: int
    compositor_slice: float
    compositor_instructions_m: int
    rasterizer_slices: Tuple[float, ...]
    rasterizer_instructions_m: Tuple[int, ...]


TABLE2: Dict[str, Table2Column] = {
    "amazon_desktop": Table2Column(
        name="amazon_desktop",
        label="Amazon (desktop view): Load",
        all_slice=0.46, all_instructions_m=6217,
        main_slice=0.52, main_instructions_m=2173,
        compositor_slice=0.34, compositor_instructions_m=1711,
        rasterizer_slices=(0.55, 0.60, 0.54),
        rasterizer_instructions_m=(199, 66, 191),
    ),
    "amazon_mobile": Table2Column(
        name="amazon_mobile",
        label="Amazon (mobile view): Load",
        all_slice=0.43, all_instructions_m=2861,
        main_slice=0.59, main_instructions_m=764,
        compositor_slice=0.35, compositor_instructions_m=1135,
        rasterizer_slices=(0.14, 0.13),
        rasterizer_instructions_m=(76, 88),
    ),
    "google_maps": Table2Column(
        name="google_maps",
        label="Google Maps: Load",
        all_slice=0.47, all_instructions_m=4238,
        main_slice=0.61, main_instructions_m=1382,
        compositor_slice=0.35, compositor_instructions_m=1698,
        rasterizer_slices=(0.78, 0.74),
        rasterizer_instructions_m=(32, 29),
    ),
    "bing": Table2Column(
        name="bing",
        label="Bing: Load + Browse",
        all_slice=0.43, all_instructions_m=10494,
        main_slice=0.44, main_instructions_m=3499,
        compositor_slice=0.34, compositor_instructions_m=3702,
        rasterizer_slices=(0.71, 0.52),
        rasterizer_instructions_m=(617, 345),
    ),
}

#: Paper average of the "All" row.
TABLE2_AVERAGE_SLICE = 0.45

#: Table I: (site, condition) -> (unused bytes, total bytes, percentage).
TABLE1: Dict[Tuple[str, str], Tuple[str, str, float]] = {
    ("Amazon", "Only Load"): ("955 KB", "1.6 MB", 0.58),
    ("Bing", "Only Load"): ("103 KB", "199 KB", 0.52),
    ("Google Maps", "Only Load"): ("1.9 MB", "3.9 MB", 0.49),
    ("Amazon", "Load and Browse"): ("882 KB", "1.6 MB", 0.54),
    ("Bing", "Load and Browse"): ("82.5 KB", "206 KB", 0.40),
    ("Google Maps", "Load and Browse"): ("2.0 MB", "4.6 MB", 0.43),
}

#: Section V-A, the Bing partial-slice experiment.
BING_LOAD_PREFIX_INSTRUCTIONS_M = 1700
BING_LOAD_ONLY_SLICE = 0.498
BING_FULL_SESSION_SLICE_OF_LOAD = 0.506

#: Figure 5: per benchmark, the fraction of non-slice instructions the
#: namespace analysis could categorize.
FIGURE5_CATEGORIZED_FRACTION: Dict[str, float] = {
    "amazon_desktop": 0.74,
    "amazon_mobile": 0.59,
    "google_maps": 0.53,
    "bing": 0.61,
}

#: The paper's qualitative Figure 5 findings.
FIGURE5_DOMINANT_CATEGORY = "JavaScript"
FIGURE5_TOP_CATEGORIES = ("JavaScript", "Debugging", "IPC")


def table2_column(name: str) -> Table2Column:
    return TABLE2[name]
