"""CSS Object Model: stylesheets, rules, declarations, with memory cells.

Each rule carries its byte span in the source sheet (for Table I coverage
accounting) and abstract cells for its selector and each declaration, so
the slicer sees style data flowing from parsed rules into computed styles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..context import EngineContext
from .selectors import Selector
from .values import Value, parse_value


@dataclass
class Declaration:
    """One ``property: value`` pair."""

    name: str
    raw_value: str
    value: Value
    important: bool = False
    #: abstract cell holding the parsed value
    cell: int = -1


@dataclass
class StyleRule:
    """One selector-list + declaration-block rule."""

    selectors: List[Selector]
    declarations: List[Declaration]
    #: (start, end) byte range of the full rule in its stylesheet source
    span: Tuple[int, int]
    #: order index within the whole cascade (sheet order then rule order)
    order: int = 0
    #: abstract cell holding the compiled selector
    selector_cell: int = -1
    #: set by the style engine when the rule matched at least one element
    ever_matched: bool = False

    def byte_size(self) -> int:
        return self.span[1] - self.span[0]


@dataclass
class StyleSheet:
    """A parsed stylesheet with its source accounting."""

    name: str
    rules: List[StyleRule] = field(default_factory=list)
    source_bytes: int = 0

    def used_bytes(self) -> int:
        return sum(rule.byte_size() for rule in self.rules if rule.ever_matched)

    def rule_bytes(self) -> int:
        return sum(rule.byte_size() for rule in self.rules)


class CSSOM:
    """All stylesheets of the document, in cascade order."""

    def __init__(self) -> None:
        self.sheets: List[StyleSheet] = []
        self._next_order = 0

    def add_sheet(self, sheet: StyleSheet) -> None:
        for rule in sheet.rules:
            rule.order = self._next_order
            self._next_order += 1
        self.sheets.append(sheet)

    def all_rules(self) -> List[StyleRule]:
        return [rule for sheet in self.sheets for rule in sheet.rules]

    def total_bytes(self) -> int:
        return sum(sheet.source_bytes for sheet in self.sheets)

    def used_bytes(self) -> int:
        return sum(sheet.used_bytes() for sheet in self.sheets)
