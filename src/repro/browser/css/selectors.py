"""CSS selectors: model, parsing, specificity, and (untraced) matching.

Supported grammar: compound selectors made of ``tag``, ``#id``, ``.class``,
``[attr]``/``[attr=value]`` and ``:pseudo`` parts, combined with descendant
(whitespace) and child (``>``) combinators, in comma-separated lists.

Matching here is the *semantic* operation; the traced style-resolution
stage (:mod:`repro.browser.style.matcher`) wraps it with instruction
emission.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..html.dom import Element

_PART_RE = re.compile(
    r"""
    (?P<tag>\*|[a-zA-Z][a-zA-Z0-9-]*)
    | \#(?P<id>[a-zA-Z0-9_-]+)
    | \.(?P<cls>[a-zA-Z0-9_-]+)
    | \[(?P<attr>[a-zA-Z0-9_-]+)(?:=(?P<aval>"[^"]*"|'[^']*'|[^\]]*))?\]
    | :(?P<pseudo>[a-zA-Z-]+)
    """,
    re.VERBOSE,
)


class SelectorParseError(ValueError):
    """Raised for selector syntax the engine cannot understand."""


@dataclass(frozen=True)
class SimpleSelector:
    """One compound selector: every condition must hold on one element."""

    tag: Optional[str] = None
    element_id: Optional[str] = None
    classes: Tuple[str, ...] = ()
    attributes: Tuple[Tuple[str, Optional[str]], ...] = ()
    pseudos: Tuple[str, ...] = ()

    def matches(self, element: Element) -> bool:
        if self.tag is not None and self.tag != "*" and element.tag != self.tag:
            return False
        if self.element_id is not None and element.element_id != self.element_id:
            return False
        for cls in self.classes:
            if not element.has_class(cls):
                return False
        for name, value in self.attributes:
            actual = element.get_attribute(name)
            if actual is None:
                return False
            if value is not None and actual != value:
                return False
        # Dynamic pseudo-classes (:hover, :focus, ...) never match during
        # load; :first-child is structural and supported.
        for pseudo in self.pseudos:
            if pseudo == "first-child":
                parent = element.parent
                if parent is None or parent.child_elements()[:1] != [element]:
                    return False
            else:
                return False
        return True


@dataclass(frozen=True)
class Selector:
    """A full complex selector: compounds joined by combinators.

    ``compounds[i]`` is related to ``compounds[i+1]`` by ``combinators[i]``
    (``" "`` for descendant, ``">"`` for child); the last compound is the
    subject.
    """

    compounds: Tuple[SimpleSelector, ...]
    combinators: Tuple[str, ...] = ()
    source: str = ""

    def specificity(self) -> Tuple[int, int, int]:
        ids = classes = tags = 0
        for compound in self.compounds:
            if compound.element_id is not None:
                ids += 1
            classes += len(compound.classes) + len(compound.attributes)
            classes += len(compound.pseudos)
            if compound.tag is not None and compound.tag != "*":
                tags += 1
        return (ids, classes, tags)

    def subject(self) -> SimpleSelector:
        return self.compounds[-1]

    def matches(self, element: Element) -> bool:
        """Right-to-left matching, as real engines do."""
        if not self.subject().matches(element):
            return False
        return self._match_ancestors(element, len(self.compounds) - 2)

    def _match_ancestors(self, element: Element, index: int) -> bool:
        if index < 0:
            return True
        combinator = self.combinators[index]
        compound = self.compounds[index]
        if combinator == ">":
            parent = element.parent
            if parent is None or not compound.matches(parent):
                return False
            return self._match_ancestors(parent, index - 1)
        # Descendant: try every ancestor.
        for ancestor in element.ancestors():
            if compound.matches(ancestor):
                if self._match_ancestors(ancestor, index - 1):
                    return True
        return False

    def __repr__(self) -> str:
        return f"Selector({self.source!r})"


def parse_compound(text: str) -> SimpleSelector:
    tag = None
    element_id = None
    classes: List[str] = []
    attributes: List[Tuple[str, Optional[str]]] = []
    pseudos: List[str] = []
    pos = 0
    while pos < len(text):
        match = _PART_RE.match(text, pos)
        if match is None or match.end() == pos:
            raise SelectorParseError(f"bad selector part at {text[pos:]!r}")
        if match.group("tag"):
            tag = match.group("tag").lower()
        elif match.group("id"):
            element_id = match.group("id")
        elif match.group("cls"):
            classes.append(match.group("cls"))
        elif match.group("attr"):
            value = match.group("aval")
            if value is not None and len(value) >= 2 and value[0] in "\"'":
                value = value[1:-1]
            attributes.append((match.group("attr").lower(), value))
        elif match.group("pseudo"):
            pseudos.append(match.group("pseudo").lower())
        pos = match.end()
    return SimpleSelector(
        tag=tag,
        element_id=element_id,
        classes=tuple(classes),
        attributes=tuple(attributes),
        pseudos=tuple(pseudos),
    )


def parse_selector(text: str) -> Selector:
    """Parse one complex selector (no commas)."""
    tokens = _split_combinators(text.strip())
    if not tokens:
        raise SelectorParseError(f"empty selector: {text!r}")
    compounds = [parse_compound(tokens[0])]
    combinators: List[str] = []
    i = 1
    while i < len(tokens):
        combinators.append(tokens[i])
        compounds.append(parse_compound(tokens[i + 1]))
        i += 2
    return Selector(
        compounds=tuple(compounds), combinators=tuple(combinators), source=text.strip()
    )


def parse_selector_list(text: str) -> List[Selector]:
    """Parse a comma-separated selector list."""
    return [parse_selector(part) for part in text.split(",") if part.strip()]


def _split_combinators(text: str) -> List[str]:
    """Split ``"a > b c"`` into ``["a", ">", "b", " ", "c"]``."""
    tokens: List[str] = []
    buffer = []
    pending: Optional[str] = None
    for ch in text:
        if ch == ">":
            if buffer:
                tokens.append("".join(buffer))
                buffer.clear()
            pending = ">"
        elif ch.isspace():
            if buffer:
                tokens.append("".join(buffer))
                buffer.clear()
            if pending is None:
                pending = " "
        else:
            if pending is not None and tokens:
                tokens.append(pending)
            pending = None
            buffer.append(ch)
    if buffer:
        tokens.append("".join(buffer))
    return tokens
