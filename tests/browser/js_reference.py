"""References for the JavaScript front end.

``reference_tokenize`` is the per-character tokenizer that
``repro.browser.js.lexer.tokenize_js`` replaced, kept verbatim (with its
own frozen-dataclass token) so the regex tokenizer can be checked
against it on any text.  The parser changed only in how it reads tokens,
so it is checked against ``goldens/js_front_end.json`` instead: the
digest of every corpus source's AST, generated with the parser that
preceded the change.

``corpus()`` is what the front end must read alike: every registered
workload's page, deferred and late scripts, the generator libraries
under several parameters, and the scripts of ``random_page`` seeds.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from typing import Dict, List

from repro.browser.js import ast
from repro.browser.js.lexer import KEYWORDS, JSLexError, _OPERATORS
from repro.workloads import benchmark, benchmark_names
from repro.workloads.fuzz import random_page
from repro.workloads.generator import (
    js_analytics_library,
    js_lazy_widgets,
    js_utility_library,
)

RANDOM_PAGE_SEEDS = (0, 1, 2, 3, 7, 11, 42, 3011)


@dataclass(frozen=True)
class ReferenceToken:
    kind: str  # "ident" | "keyword" | "number" | "string" | "punct" | "eof"
    value: str
    start: int
    end: int


def reference_tokenize(source: str) -> List[ReferenceToken]:
    """Tokenize JavaScript source; appends a final EOF token."""
    tokens: List[ReferenceToken] = []
    pos = 0
    n = len(source)
    while pos < n:
        ch = source[pos]
        if ch.isspace():
            pos += 1
            continue
        if source.startswith("//", pos):
            nl = source.find("\n", pos)
            pos = n if nl < 0 else nl + 1
            continue
        if source.startswith("/*", pos):
            end = source.find("*/", pos + 2)
            if end < 0:
                raise JSLexError(f"unclosed block comment at offset {pos}")
            pos = end + 2
            continue
        if ch.isalpha() or ch in "_$":
            start = pos
            while pos < n and (source[pos].isalnum() or source[pos] in "_$"):
                pos += 1
            word = source[start:pos]
            kind = "keyword" if word in KEYWORDS else "ident"
            tokens.append(ReferenceToken(kind, word, start, pos))
            continue
        if ch.isdigit() or (ch == "." and pos + 1 < n and source[pos + 1].isdigit()):
            start = pos
            seen_dot = False
            while pos < n and (source[pos].isdigit() or (source[pos] == "." and not seen_dot)):
                if source[pos] == ".":
                    seen_dot = True
                pos += 1
            tokens.append(ReferenceToken("number", source[start:pos], start, pos))
            continue
        if ch in "\"'":
            start = pos
            quote = ch
            pos += 1
            chars: List[str] = []
            while pos < n and source[pos] != quote:
                if source[pos] == "\\" and pos + 1 < n:
                    esc = source[pos + 1]
                    chars.append({"n": "\n", "t": "\t"}.get(esc, esc))
                    pos += 2
                else:
                    chars.append(source[pos])
                    pos += 1
            if pos >= n:
                raise JSLexError(f"unclosed string at offset {start}")
            pos += 1
            tokens.append(ReferenceToken("string", "".join(chars), start, pos))
            continue
        for op in _OPERATORS:
            if source.startswith(op, pos):
                tokens.append(ReferenceToken("punct", op, pos, pos + len(op)))
                pos += len(op)
                break
        else:
            raise JSLexError(f"unexpected character {ch!r} at offset {pos}")
    tokens.append(ReferenceToken("eof", "", n, n))
    return tokens


def token_fields(tokens) -> list:
    """Tokens as plain ``(kind, value, start, end)`` tuples."""
    return [(t.kind, t.value, t.start, t.end) for t in tokens]


def corpus() -> Dict[str, str]:
    """Source name -> JavaScript source (see the module docstring)."""
    sources: Dict[str, str] = {}

    def add_bench(prefix: str, bench) -> None:
        for url, source in bench.page.scripts.items():
            sources[f"{prefix}:{url}"] = source
        for url, source in bench.deferred_scripts.items():
            sources[f"{prefix}:deferred:{url}"] = source
        for index, batch in sorted(bench.late_scripts.items()):
            for url, source in batch.items():
                sources[f"{prefix}:late{index}:{url}"] = source

    for name in benchmark_names():
        add_bench(name, benchmark(name))
    for seed in RANDOM_PAGE_SEEDS:
        add_bench(f"random_page({seed})", random_page(seed))
    for seed, (n_functions, n_used, loop_scale) in enumerate(
        ((1, 1, 8), (12, 5, 24), (30, 30, 16))
    ):
        sources[f"js_utility_library:{seed}"] = js_utility_library(
            f"lib{seed}", n_functions, n_used, seed, loop_scale
        )
    for beacon_every in (1, 4):
        sources[f"js_analytics_library:{beacon_every}"] = js_analytics_library(
            "stats", beacon_every
        )
    for n_widgets, n_activated in ((0, 0), (3, 1), (25, 25)):
        sources[f"js_lazy_widgets:{n_widgets}:{n_activated}"] = js_lazy_widgets(
            n_widgets, n_activated
        )
    return sources


def ast_form(program: ast.Program) -> list:
    """The whole tree as JSON-able lists: node classes, every field in
    order, spans included, and node ids relative to the first node built.

    Relative ids are deterministic for a source (a parse numbers its
    nodes consecutively) and the traced interpreter derives emit-site
    labels from them (``case`` labels take an id modulo 32), so a parser
    must build the nodes in the same order, not only the same shape.
    """
    base = min(node_ids(program))

    def form(value):
        if isinstance(value, ast.JSNode):
            return [type(value).__name__, value.node_id - base] + [
                form(getattr(value, f.name)) for f in fields(value) if f.name != "node_id"
            ]
        if isinstance(value, (list, tuple)):
            return [type(value).__name__] + [form(item) for item in value]
        if isinstance(value, float):
            return ["float", repr(value)]
        return value

    return form(program)


def node_ids(program: ast.Program) -> List[int]:
    """Every node's id, each node once per appearance in the tree."""
    found: List[int] = []

    def walk(value) -> None:
        if isinstance(value, ast.JSNode):
            found.append(value.node_id)
            for f in fields(value):
                walk(getattr(value, f.name))
        elif isinstance(value, (list, tuple)):
            for item in value:
                walk(item)

    walk(program)
    return found


def ast_digest(program: ast.Program) -> str:
    text = json.dumps(ast_form(program), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def source_digest(source: str) -> str:
    return hashlib.sha256(source.encode()).hexdigest()
