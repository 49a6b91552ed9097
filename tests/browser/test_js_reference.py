"""The JavaScript front end reads every source as its references do.

Tokens are compared with the per-character reference tokenizer
(``js_reference.reference_tokenize``) on the corpus and on generated
text; ASTs are compared with ``goldens/js_front_end.json``, the digest
of each corpus source's tree (spans and relative node ids included) as
the parser before the regex tokenizer built it.  Regenerate the golden
only after an intentional change to the parser or to a corpus source,
with a parser checked some other way::

    PYTHONPATH=src python -m tests.browser.test_js_reference
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.browser.js.lexer import JSLexError, tokenize_js
from repro.browser.js.parser import parse_js

from .js_reference import (
    ast_digest,
    corpus,
    node_ids,
    reference_tokenize,
    source_digest,
    token_fields,
)

GOLDEN_PATH = Path(__file__).parent / "goldens" / "js_front_end.json"

#: Pieces of JavaScript and of its edge cases for generated text: every
#: operator prefix, comment and string opener, escapes, and characters
#: whose Unicode class differs from anything ASCII (letters, digits,
#: numerics and blanks beyond ASCII).
FRAGMENTS = (
    "var", "x", "_a$", "in", "12", "3.", ".5", "..", ".", "'", '"', "\\",
    "\\n", "\\t", "//", "/*", "*/", "/", "*", "=", "==", "===", "!==",
    "<<=", ">>=", "**", "=>", "&&", "||", "++", "--", "+=", "?", ":", ";",
    "(", ")", "{", "}", "[", "]", "@", "#", "`", " ", "\n", "\t", "\x0b",
    "\x1c", "\x1f", "\x00", "\x85", "\xa0", "\u2002", "\u3000", "\ufeff",
    "\xe9", "\xdf", "\u01c5", "\xb2", "\xbd", "\u0661", "\u0966", "\u216b",
    "\U0001d7d8",
)

EDGE_CASES = (
    "abc\xe9", "\xe9", "a\xe91", "1\xb2", "1.\xb2", ".\xb2", "\xb2", "\xbd",
    "a\xbd", "x\u0661", "\u0661.5", "a\xa0b", "a \xa0 b", "'\xe9'x", "'x'\xe9",
    "x/*", "x/*\xe9", "/*/", "/**/", "//\xe9", "a//x\nb", "a//x", "'abc", "'a\\",
    "'\\n\\t\\q\\''", "\"a'b\"", "1.2.3", "..5", "a.b", "x.\xe9",
    "\x1c\x1d\x1e\x1fa", "\x85a", "x\u3000=\u30001", "@", "a @ b", "`", "", " ",
    "\n",
)


@pytest.fixture(scope="module")
def sources():
    return corpus()


def test_corpus_tokens_equal_the_reference(sources):
    for name, source in sources.items():
        got = tokenize_js(source)
        assert token_fields(got) == token_fields(reference_tokenize(source)), name


def test_corpus_asts_equal_the_golden(sources):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert sorted(golden) == sorted(sources)
    for name, source in sources.items():
        entry = golden[name]
        assert entry["source_sha256"] == source_digest(source), (
            f"{name}: the corpus source changed; see the module docstring"
        )
        program = parse_js(source)
        ids = node_ids(program)
        assert len(set(ids)) == len(ids), f"{name}: node ids repeat"
        assert ast_digest(program) == entry["ast_sha256"], name


def test_tokens_are_immutable_and_answer_their_predicates():
    token = tokenize_js("in (")[0]
    assert token.is_keyword("in") and not token.is_punct("in")
    assert tokenize_js("in (")[1].is_punct("(")
    with pytest.raises(AttributeError):
        token.value = "of"


def assert_tokenizers_agree(source: str) -> None:
    """Equal token lists, or the same ``JSLexError`` message."""
    try:
        want = token_fields(reference_tokenize(source))
    except JSLexError as err:
        with pytest.raises(JSLexError) as raised:
            tokenize_js(source)
        assert str(raised.value) == str(err)
        return
    assert token_fields(tokenize_js(source)) == want


@pytest.mark.parametrize("source", EDGE_CASES)
def test_tokenizers_agree_on_edge_cases(source):
    assert_tokenizers_agree(source)


@given(st.text(max_size=80))
@settings(max_examples=400, deadline=None)
def test_tokenizers_agree_on_unicode_text(source):
    assert_tokenizers_agree(source)


@given(
    st.lists(
        st.one_of(st.sampled_from(FRAGMENTS), st.characters()), max_size=40
    ).map("".join)
)
@example("var é = 1; // ünïcode\n'ß\\n' /* x */ ²")
@settings(max_examples=400, deadline=None)
def test_tokenizers_agree_on_js_like_text(source):
    assert_tokenizers_agree(source)


if __name__ == "__main__":
    golden = {
        name: {
            "source_sha256": source_digest(source),
            "ast_sha256": ast_digest(parse_js(source)),
        }
        for name, source in corpus().items()
    }
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} entries to {GOLDEN_PATH}")
