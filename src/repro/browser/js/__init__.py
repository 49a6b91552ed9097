"""Mini-JavaScript engine: lexer, parser, interpreter, browser bindings,
and byte-coverage tracking (for Table I)."""

from .coverage import CoverageTracker, ScriptCoverage, merge_spans
from .interpreter import Interpreter
from .lexer import JSLexError, JSToken, tokenize_js
from .parser import JSParseError, JSParser, parse_js
from .runtime import BrowserHooks, JSRuntime
from .values import (
    TV,
    Environment,
    JSArray,
    JSError,
    JSFunction,
    JSObject,
    JSReferenceError,
    JSTypeError,
    NativeFunction,
    js_to_number,
    js_to_string,
    js_truthy,
    js_typeof,
)

__all__ = [
    "tokenize_js",
    "JSToken",
    "JSLexError",
    "parse_js",
    "JSParser",
    "JSParseError",
    "Interpreter",
    "JSRuntime",
    "BrowserHooks",
    "CoverageTracker",
    "ScriptCoverage",
    "merge_spans",
    "TV",
    "Environment",
    "JSObject",
    "JSArray",
    "JSFunction",
    "NativeFunction",
    "JSError",
    "JSReferenceError",
    "JSTypeError",
    "js_truthy",
    "js_to_number",
    "js_to_string",
    "js_typeof",
]
