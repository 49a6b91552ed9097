"""The traced interpreter against its reference evaluation loop.

``Interpreter`` dispatches on a node's exact type, takes emit-site
labels from the node, counts its step budget inline and computes
temporary cells from the ring's base.  ``interpreter_reference.py``
keeps the code those replaced.  Every case runs the same JavaScript
through both and asserts equal records, pc tables with their labels,
symbols, trace metadata and clock readings (``assert_same_run``):

* whole workload runs (ticker, bing, ``random_page(0)``) through an
  engine whose interpreter is the reference;
* one program per statement and expression type, since a workload
  evaluates no ``while``, ``do``, ``for-in``, ``switch``, ``throw``,
  ``try``, ``break``, ``continue`` or ``this``: among them switch cases
  whose labels collide modulo 32, a throw through ``finally``, guest
  errors and the step budget, with equal outcomes and globals.

Node ids are numbered per engine, so two runs of one workload in a
process intern the same ``(function, label)`` sites.
"""

from itertools import count

import pytest

from repro.browser import engine as engine_module
from repro.browser.context import EngineContext
from repro.browser.js import ast, interpreter
from repro.browser.js.interpreter import GuestThrow, Interpreter
from repro.browser.js.parser import parse_js
from repro.browser.js.values import (
    JSArray,
    JSError,
    JSFunction,
    JSObject,
    NativeFunction,
    js_to_string,
)
from repro.harness.experiments import cached_run, run_engine
from repro.workloads import benchmark

from ..machine.test_tracer_reference import WORKLOAD_RUNS, assert_same_run
from . import interpreter_reference
from .interpreter_reference import ReferenceInterpreter


def _switch_source(n_cases=40, value=37):
    """A switch whose case tests are 8 nodes apart, so every fourth case
    shares a ``case`` label (ids modulo 32); ``value`` selects the case."""
    cases = "".join(f"case {i}: hits = hits + {i}; break; " for i in range(n_cases))
    return (
        f"var hits = 0; switch ({value}) {{ {cases}default: hits = -1; }}\n"
        'var r = ""; switch ("c") { case "a": r += "a"; default: r += "d"; '
        'case "c": r += "c"; case "e": r += "e"; break; case "f": r += "f"; }\n'
        'var none = ""; switch (99) { case 1: none = "one"; }\n'
    )


PROGRAMS = {
    "literals-and-operators": """
        var n = 1 + 2 * 3 - 4 / 2 % 3;
        var s = "a" + 1 + true + null;
        var cmp = [1 < 2, 2 > 1, 2 <= 2, 3 >= 4, "a" < "b", "b" >= "a", "10" < 9,
                   1 == 1, 1 === "1", 1 != 2, 2 !== 2, "k" in {k: 1}, "k" in 5];
        var zero = [1 / 0, -1 / 0, 1 % 0];
        var comma = (n, s, 5);
        var rope = "";
        for (var i = 0; i < 9; i++) { rope = rope + i; }
    """,
    "logical-unary-conditional": """
        var t = 1; var f = 0;
        var a = t && f || "x";
        var b = f && t;
        var c = t || f;
        var u = [!t, -t, +"3", ~5, typeof t, typeof "s", typeof null, delete t];
        var d = t ? "yes" : "no";
        var e = f ? 1 : f ? 2 : 3;
    """,
    "assignments-and-updates": """
        var x = 10; x += 5; x -= 2; x *= 3; x /= 2; x %= 7;
        var o = {v: 1, arr: [1, 2, 3]};
        o.v += 4; o.w = 9; o["z"] = o.v;
        o.arr[1] = 7; o.arr[5] = 2;
        var p = o.v++; var q = ++o.v; var r = x--; var s = --x;
        o.arr[0]++; --o.arr[2];
        y = 3;
    """,
    "literals-with-many-entries": """
        var big = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20];
        var obj = {a: 1, b: 2, c: 3, d: 4, e: 5, f: 6, g: 7, h: 8, i: 9, j: 10,
                   k: 11, l: 12, m: 13, n: 14, o: 15, p: 16, q: 17, r: 18};
        var empty = []; var bare = {};
        var len = big.length + "x".length;
        var nested = [[1, [2]], {k: [3]}];
    """,
    "functions-calls-and-this": """
        function add(a, b, c) { return a + b; }
        var sum = add(1, 2) + add(3);
        var many = add(1, 2, 3, 4, 5, 6, 7, 8, 9, 10);
        function wide(a, b, c, d, e, f, g, h, i, j) { return a + j; }
        var w = wide(1, 2, 3, 4, 5, 6, 7, 8, 9, 10) + wide(1);
        var anon = function () { return 5; };
        var five = anon();
        function Point(x, y) { this.x = x; this.y = y; }
        var p = new Point(1, 2);
        var bare = new Point;
        var o = {k: 9, get: function () { return this.k; }};
        var nine = o.get();
        var top = this;
        function noReturn() { var local = 1; }
        var undef = noReturn();
        function fact(n) { if (n <= 1) { return 1; } return n * fact(n - 1); }
        var f6 = fact(6);
        var arr = [3, 1, 2];
        arr.push(4); arr.push(5, 6);
        var popped = arr.pop();
        var joined = arr.join("-");
        var idx = arr.indexOf(2) + arr.indexOf(99);
        var sl = arr.slice(1, 3);
        var doubled = arr.map(function (v, i) { return v * 2 + i; });
        var odd = arr.filter(function (v) { return v % 2; });
        var total = arr.reduce(function (acc, v) { return acc + v; }, 0);
        var folded = arr.reduce(function (acc, v) { return acc + v; });
        arr.forEach(function (v) { total += v; });
        var cat = arr.concat([7, 8], 9);
        var str = "Hello World";
        var parts = [str.indexOf("o"), str.slice(1, 4), str.charAt(4), str.split(" "),
                     str.toUpperCase(), str.toLowerCase(), str.replace("l", "L"),
                     str.substring(2), str.nothing];
    """,
    "loops-break-continue": """
        var i = 0; var s = 0;
        while (i < 10) { i++; if (i == 3) { continue; } if (i == 8) { break; } s += i; }
        var n = 0;
        do { n = n + 2; if (n == 4) { continue; } if (n > 9) { break; } } while (n < 20);
        var once = 0;
        do { once++; } while (false);
        var t = 0;
        for (var j = 0; j < 6; j++) { if (j == 1) continue; if (j == 4) break; t += j; }
        for (;;) { t++; if (t > 20) break; }
        var k = 0;
        for (k = 0; k < 2; k++) {}
        { var inBlock = 1; }
    """,
    "for-in": """
        var o = {a: 1, b: 2, c: 3, d: 4};
        var keys = "";
        for (var k in o) { if (k == "b") { continue; } if (k == "d") { break; } keys += k; }
        var arr = [5, 6, 7];
        var t = 0;
        for (var j in arr) { t += arr[j]; }
        for (k in "str") { t = -1; }
        for (k in 5) { t = -2; }
    """,
    "switch": _switch_source(),
    "switch-default": _switch_source(value=99),
    "try-catch-finally": """
        var log = "";
        function inner() { try { log += "t"; throw "boom"; } finally { log += "f"; } }
        function outer() {
            try { inner(); } catch (e) { log += e; return 1; } finally { log += "F"; }
        }
        var got = outer();
        try { throw {code: 7}; } catch { log += "anon"; }
        try { log += "ok"; } finally { log += "fin"; }
        function early() { try { return "r"; } finally { log += "g"; } }
        var r = early();
        for (var i = 0; i < 3; i++) { try { if (i == 1) { continue; } log += i; } finally { log += "."; } }
        try { try { throw 1; } finally { log += "in"; } } catch (x) { log += "out" + x; }
    """,
    "uncaught-throw": 'var before = 1; function f() { throw "x" + before; } f(); var after = 2;',
    "throw-through-finally": 'var log = ""; try { throw 42; } finally { log = "ran"; }',
    "reference-error": "var q = 1; var r = missing + q;",
    "type-error-call": "var nf = 5; nf();",
    "type-error-set": "var u = null; u.x = 1;",
    "type-error-read": "var u = null; var v = u.x;",
    "type-error-update": 'var s = "str"; s.length++;',
    "type-error-new-array": "var a = [1]; a.nope();",
    "step-budget": "var spin = 0; while (true) { spin++; }",
    "step-budget-in-call": "function loop(n) { var i = 0; for (;;) { i += n; } } loop(1);",
}

#: the step budget of the two budget programs (the engine's is 5,000,000)
SMALL_BUDGET = 500


def run_program(cls, source):
    """Run ``source`` as a script through ``cls``: its context, globals
    and outcome (``None`` or the error's type, message and thrown value)."""
    ctx = EngineContext()
    ctx.spawn_threads()
    interp = cls(ctx)
    region = ctx.alloc_bytes("test.js", len(source))
    outcome = None
    try:
        interp.execute_script(source, "test.js", region)
    except GuestThrow as thrown:
        outcome = ("GuestThrow", js_to_string(thrown.value.value))
    except JSError as err:
        outcome = (type(err).__name__, str(err))
    values = {name: plain(value) for name, value in interp.global_env.slots.items()}
    return ctx, values, outcome, interp


def plain(value):
    """A guest value as comparable Python data (floats by ``repr``, so
    NaN equals NaN)."""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, JSArray):
        return ["array"] + [plain(item) for item in value.elements]
    if isinstance(value, JSObject):
        return ["object", value.kind] + [
            (key, plain(item)) for key, item in value.properties.items()
        ]
    if isinstance(value, (JSFunction, NativeFunction)):
        return ["function", value.name]
    return value


@pytest.fixture
def small_budget(monkeypatch):
    monkeypatch.setattr(interpreter, "_MAX_STEPS", SMALL_BUDGET)
    monkeypatch.setattr(interpreter_reference, "_MAX_STEPS", SMALL_BUDGET)


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_programs_match_the_reference_interpreter(name, small_budget):
    ctx, values, outcome, interp = run_program(Interpreter, PROGRAMS[name])
    ref_ctx, ref_values, ref_outcome, ref = run_program(ReferenceInterpreter, PROGRAMS[name])
    assert outcome == ref_outcome
    assert values == ref_values
    assert_same_run(ctx.tracer, ref_ctx.tracer)
    assert interp.coverage.used_bytes() == ref.coverage.used_bytes()
    if name.startswith("step-budget"):
        assert outcome == ("JSError", "script exceeded the interpreter step budget")
        assert interp._steps == SMALL_BUDGET + 1
    elif name.startswith(("type-error", "reference-error")):
        assert outcome[0] in ("JSTypeError", "JSReferenceError")
    elif name in ("uncaught-throw", "throw-through-finally"):
        assert outcome[0] == "GuestThrow"
    else:
        assert outcome is None


def _node_types(program):
    found = set()

    def walk(value):
        if isinstance(value, ast.JSNode):
            found.add(type(value))
            for name in vars(value):
                walk(getattr(value, name))
        elif isinstance(value, (list, tuple)):
            for item in value:
                walk(item)

    walk(program)
    return found


def test_programs_cover_every_node_type_and_label(small_budget):
    concrete = {
        cls for cls in vars(ast).values()
        if isinstance(cls, type) and issubclass(cls, ast.JSNode)
        and cls not in (ast.JSNode, ast.Program)
    }
    assert all(cls.__bases__ == (ast.JSNode,) for cls in concrete)
    parsed = set()
    labels = set()
    for source in PROGRAMS.values():
        parsed |= _node_types(parse_js(source))
        ctx, _values, _outcome, _interp = run_program(Interpreter, source)
        for _fn, label in ctx.tracer._sites:
            if label.startswith("n") and ":" in label:
                labels.add(label.split(":", 1)[1].split("$")[0].rstrip("0123456789"))
    assert parsed - {ast.Program} == concrete
    assert labels == {
        "const", "closure", "unary", "binop", "sc", "cond", "combine", "assign",
        "setprop", "update", "getprop", "call", "el", "p", "store", "fndecl", "if",
        "while", "dowhile", "nextkey", "forin", "bindkey", "for", "throw",
        "catchbind", "case",
    }


def test_switch_program_has_colliding_case_labels():
    # Numbered as the engine numbers its first script.
    with ast.numbered_from(count(1)):
        switch = parse_js(PROGRAMS["switch"]).body[1]
    assert type(switch) is ast.SwitchStmt
    # Cases 0-37 are tested before case 37 matches.
    tested = [f"n{switch.node_id}:case{test.node_id % 32}" for test, _ in switch.cases[:38]]
    assert len(set(tested)) < len(tested)
    ctx, values, _outcome, _interp = run_program(Interpreter, PROGRAMS["switch"])
    assert values["hits"] == "37.0"
    prefix = f"n{switch.node_id}:case"
    case_sites = {label for _fn, label in ctx.tracer._sites if label.startswith(prefix)}
    assert case_sites == {label + end for label in tested for end in ("$cmp", "$br")}


@pytest.mark.parametrize("name", sorted(WORKLOAD_RUNS))
def test_workload_runs_match_the_reference_interpreter(name, monkeypatch):
    if name == "bing":
        # The same recipe as cached_run's, which other tests share.
        engine = cached_run("bing").engine
    else:
        engine = WORKLOAD_RUNS[name]()
    monkeypatch.setattr(engine_module, "Interpreter", ReferenceInterpreter)
    reference = WORKLOAD_RUNS[name]()
    assert type(reference.interp) is ReferenceInterpreter
    assert_same_run(engine.ctx.tracer, reference.ctx.tracer)
    assert engine.frame_digests() == reference.frame_digests()
    coverage, ref_coverage = engine.interp.coverage, reference.interp.coverage
    assert coverage.used_bytes() == ref_coverage.used_bytes()


def test_two_engine_runs_in_one_process_intern_the_same_sites():
    first = cached_run("bing").engine.ctx.tracer
    # Nodes parsed outside an engine draw from the process-wide count.
    parse_js("var unrelated = function () { return 1; };")
    second = run_engine(benchmark("bing"), metrics_ticks=2).ctx.tracer
    assert list(first._sites.items()) == list(second._sites.items())
