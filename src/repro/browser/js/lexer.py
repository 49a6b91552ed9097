"""JavaScript tokenizer (for the mini-JS engine).

Supports the language subset the interpreter executes: identifiers,
keywords, numeric and string literals, punctuation/operators, and line/
block comments.  Tokens carry byte offsets for lazy-compilation spans and
coverage accounting (Table I measures *byte* coverage).

The language is defined by per-character rules (:func:`_step`).  One
compiled regex reads the same tokens faster wherever they are decided by
ASCII characters alone; every other position is read by those rules.
"""

from __future__ import annotations

import re
from typing import List, NamedTuple

KEYWORDS = frozenset(
    "var let const function return if else while do for break continue "
    "true false null undefined new typeof this in of delete "
    "switch case default throw try catch finally instanceof void".split()
)

#: Multi-character operators, longest first so matching is greedy.
_OPERATORS = (
    "===", "!==", "<<=", ">>=", "**",
    "==", "!=", "<=", ">=", "&&", "||", "++", "--",
    "+=", "-=", "*=", "/=", "%=", "=>",
    "+", "-", "*", "/", "%", "=", "<", ">", "!", "?", ":",
    ";", ",", ".", "(", ")", "{", "}", "[", "]", "&", "|", "^", "~",
)


class JSToken(NamedTuple):
    kind: str  # "ident" | "keyword" | "number" | "string" | "punct" | "eof"
    value: str
    start: int
    end: int

    def is_punct(self, value: str) -> bool:
        return self.kind == "punct" and self.value == value

    def is_keyword(self, value: str) -> bool:
        return self.kind == "keyword" and self.value == value


#: ``_new_token(JSToken, (kind, value, start, end))`` builds a token
#: without the generated ``__new__``'s argument handling.
_new_token = tuple.__new__


class JSLexError(ValueError):
    """Raised on malformed JavaScript input."""


#: One step of the rules, over ASCII: skip blanks and comments, then read
#: one token (group 1 identifier or keyword, 2 number, 3 string, 4
#: operator) or nothing (no group: the end of the input, or a position
#: the per-character rules must decide).  Each alternative is greedy and
#: the first that matches wins, as in :func:`_step`; the empty last
#: alternative means the match never fails, so the engine never
#: backtracks into a skipped comment or a token.
_TOKEN = re.compile(
    r"""
    (?: [\t\n\x0b\x0c\r\x1c-\x1f\x20]+
      | //[^\n]*\n?
      | /\*.*?\*/
    )*
    (?: ([A-Za-z_$][A-Za-z0-9_$]*)
      | ([0-9]+(?:\.[0-9]*)?|\.[0-9]+)
      | ("[^"\\]*(?:\\.[^"\\]*)*"|'[^'\\]*(?:\\.[^'\\]*)*')
      | (%s)
      |
    )
    """
    % "|".join(
        # An unclosed "/*" is not an operator: the rules report it.
        "/(?!\\*)" if op == "/" else re.escape(op) for op in _OPERATORS
    ),
    re.VERBOSE | re.DOTALL,
)
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)
_ESCAPES = {"n": "\n", "t": "\t"}


def _unescape(escape: "re.Match[str]") -> str:
    char = escape.group(1)
    return _ESCAPES.get(char, char)


def tokenize_js(source: str) -> List[JSToken]:
    """Tokenize JavaScript source; appends a final EOF token.

    A regex match is kept only when the character after it is ASCII or
    the end of the input: a non-ASCII letter, digit or blank there could
    extend the token under :func:`_step`'s rules (which use the Unicode
    ``str`` predicates), so that token is read by the rules instead.
    """
    tokens: List[JSToken] = []
    append = tokens.append
    match = _TOKEN.match
    keywords = KEYWORDS
    new_token = _new_token
    ascii_only = source.isascii()
    n = len(source)
    pos = 0
    while True:
        found = match(source, pos)
        group = found.lastindex
        if group is None:
            pos = found.end()
            if pos == n:
                break
            pos = _step(source, pos, tokens)
            continue
        start, pos = found.span(group)
        if not ascii_only and pos < n and not source[pos].isascii():
            pos = _step(source, start, tokens)
            continue
        text = found.group(group)
        if group == 4:
            append(new_token(JSToken, ("punct", text, start, pos)))
        elif group == 1:
            kind = "keyword" if text in keywords else "ident"
            append(new_token(JSToken, (kind, text, start, pos)))
        elif group == 2:
            append(new_token(JSToken, ("number", text, start, pos)))
        else:
            value = text[1:-1]
            if "\\" in value:
                value = _ESCAPE.sub(_unescape, value)
            append(new_token(JSToken, ("string", value, start, pos)))
    append(JSToken("eof", "", n, n))
    return tokens


def _step(source: str, pos: int, tokens: List[JSToken]) -> int:
    """The per-character rules: one step at ``pos``, returning the next.

    Skips one blank or comment, or appends one token; raises
    :class:`JSLexError` on malformed input.
    """
    n = len(source)
    ch = source[pos]
    if ch.isspace():
        return pos + 1
    if source.startswith("//", pos):
        nl = source.find("\n", pos)
        return n if nl < 0 else nl + 1
    if source.startswith("/*", pos):
        end = source.find("*/", pos + 2)
        if end < 0:
            raise JSLexError(f"unclosed block comment at offset {pos}")
        return end + 2
    if ch.isalpha() or ch in "_$":
        start = pos
        while pos < n and (source[pos].isalnum() or source[pos] in "_$"):
            pos += 1
        word = source[start:pos]
        kind = "keyword" if word in KEYWORDS else "ident"
        tokens.append(JSToken(kind, word, start, pos))
        return pos
    if ch.isdigit() or (ch == "." and pos + 1 < n and source[pos + 1].isdigit()):
        start = pos
        seen_dot = False
        while pos < n and (source[pos].isdigit() or (source[pos] == "." and not seen_dot)):
            if source[pos] == ".":
                seen_dot = True
            pos += 1
        tokens.append(JSToken("number", source[start:pos], start, pos))
        return pos
    if ch in "\"'":
        start = pos
        quote = ch
        pos += 1
        chars: List[str] = []
        while pos < n and source[pos] != quote:
            if source[pos] == "\\" and pos + 1 < n:
                esc = source[pos + 1]
                chars.append(_ESCAPES.get(esc, esc))
                pos += 2
            else:
                chars.append(source[pos])
                pos += 1
        if pos >= n:
            raise JSLexError(f"unclosed string at offset {start}")
        pos += 1
        tokens.append(JSToken("string", "".join(chars), start, pos))
        return pos
    for op in _OPERATORS:
        if source.startswith(op, pos):
            tokens.append(JSToken("punct", op, pos, pos + len(op)))
            return pos + len(op)
    raise JSLexError(f"unexpected character {ch!r} at offset {pos}")
