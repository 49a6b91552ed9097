"""JavaScript byte-coverage accounting (drives Table I).

Chrome DevTools' Coverage panel counts, per downloaded script, how many
source bytes were ever executed.  We reproduce that: a script's top-level
code counts as executed when the script runs; each function body counts
only when the function is actually called.  Unexecuted nested functions
inside an executed function still count as unused bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Set, Tuple

from . import ast


def merge_spans(spans: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Merge overlapping (start, end) intervals."""
    if not spans:
        return []
    ordered = sorted(spans)
    merged = [ordered[0]]
    for start, end in ordered[1:]:
        last_start, last_end = merged[-1]
        if start <= last_end:
            merged[-1] = (last_start, max(last_end, end))
        else:
            merged.append((start, end))
    return merged


def span_total(spans: List[Tuple[int, int]]) -> int:
    return sum(end - start for start, end in merge_spans(spans))


@dataclass
class ScriptCoverage:
    """Coverage record of one script resource."""

    script_id: int
    name: str
    total_bytes: int
    #: function spans in the script, keyed by AST node id
    function_spans: Dict[int, Tuple[int, int]] = field(default_factory=dict)
    executed_functions: Set[int] = field(default_factory=set)
    top_level_executed: bool = False

    def register_functions(self, functions: Iterable[ast.FunctionExpr]) -> None:
        """Record the span of every function of the script (the parser's
        :attr:`~repro.browser.js.parser.JSParser.functions`)."""
        for func in functions:
            self.function_spans[func.node_id] = func.span

    def mark_top_level(self) -> None:
        self.top_level_executed = True

    def mark_function(self, node_id: int) -> None:
        self.executed_functions.add(node_id)

    def used_bytes(self) -> int:
        """Executed bytes: whole script minus unexecuted function bodies."""
        if not self.top_level_executed:
            return 0
        unused_spans = [
            span
            for node_id, span in self.function_spans.items()
            if node_id not in self.executed_functions
        ]
        # Executed functions nested inside unexecuted ones cannot run, so a
        # simple merged subtraction is exact.
        executed_inside = [
            span
            for node_id, span in self.function_spans.items()
            if node_id in self.executed_functions
        ]
        unused = span_total(unused_spans)
        # Remove double-subtraction for executed functions fully inside an
        # unexecuted span (possible only with stale marks; keep exact).
        for start, end in merge_spans(unused_spans):
            for estart, eend in executed_inside:
                if start <= estart and eend <= end:
                    unused -= eend - estart
        return max(0, self.total_bytes - unused)

    def unused_bytes(self) -> int:
        return self.total_bytes - self.used_bytes()


class CoverageTracker:
    """Coverage across all scripts of a browsing session."""

    def __init__(self) -> None:
        self._scripts: Dict[int, ScriptCoverage] = {}
        self._next_id = 0

    def register_script(self, name: str, total_bytes: int) -> ScriptCoverage:
        script = ScriptCoverage(
            script_id=self._next_id, name=name, total_bytes=total_bytes
        )
        self._next_id += 1
        self._scripts[script.script_id] = script
        return script

    def script(self, script_id: int) -> ScriptCoverage:
        return self._scripts[script_id]

    def scripts(self) -> List[ScriptCoverage]:
        return list(self._scripts.values())

    def total_bytes(self) -> int:
        return sum(s.total_bytes for s in self._scripts.values())

    def used_bytes(self) -> int:
        return sum(s.used_bytes() for s in self._scripts.values())

    def unused_bytes(self) -> int:
        return self.total_bytes() - self.used_bytes()
