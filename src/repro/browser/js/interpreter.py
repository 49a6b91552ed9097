"""The mini-JavaScript interpreter (traced).

Executes the AST directly, emitting one or two instruction records per
node evaluation whose reads/writes mirror the real dataflow: literals read
the function's compiled-code cell, operators read their operands' cells and
write a fresh temporary, assignments write environment-slot or
object-property cells, and control statements emit ``cmp``/``branch``
pairs reading the condition's cell.

Temporaries come from a reused ring of "stack slot" cells (like a real
VM's register file/stack): a write kills the previous liveness, so reuse
is sound for the slicer.

Functions are compiled lazily on first call (as V8 does): the compile step
reads the function body's source-byte cells, so the download+parse of
never-called code is never pulled into a pixel slice.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ...machine.memory import MemRegion
from ..context import EngineContext
from . import ast
from .coverage import CoverageTracker, ScriptCoverage
from .parser import parse_js
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

#: size of the reused temporary-cell ring
_TEMP_RING = 4096

#: guard against runaway guest loops
_MAX_STEPS = 5_000_000

#: emit-site labels of the traced parse and compile loops, one per byte
#: cell modulo 64
_PARSE_LABELS = tuple(f"tok{i}" for i in range(64))
_EMIT_LABELS = tuple(f"emit{i}" for i in range(64))


class _BreakSignal(Exception):
    pass


class _ContinueSignal(Exception):
    pass


class _ReturnSignal(Exception):
    def __init__(self, value: TV) -> None:
        super().__init__("return")
        self.value = value


class GuestThrow(Exception):
    """A JavaScript ``throw`` propagating through guest frames."""

    def __init__(self, value: TV) -> None:
        super().__init__("guest throw")
        self.value = value


class Interpreter:
    """One JavaScript engine instance for a tab."""

    def __init__(self, ctx: EngineContext, coverage: Optional[CoverageTracker] = None) -> None:
        self.ctx = ctx
        self.coverage = coverage if coverage is not None else CoverageTracker()
        self.global_env = Environment(ctx)
        self._temp_region = ctx.memory.alloc("v8:stack", _TEMP_RING)
        self._temp_next = 0
        self._script_regions: Dict[int, MemRegion] = {}
        self._script_ast_cells: Dict[int, int] = {}
        self._steps = 0
        self._concat_count = 0
        self._member_count = 0
        self.undefined_cell = ctx.memory.alloc_cell("v8:undefined")
        self._current_code_cell = self.undefined_cell
        self._current_script: Optional[ScriptCoverage] = None

    # ------------------------------------------------------------------ #
    # Public API                                                         #
    # ------------------------------------------------------------------ #

    def execute_script(self, source: str, name: str, region: MemRegion) -> ScriptCoverage:
        """Parse and run a whole <script> in the global scope (traced)."""
        tracer = self.ctx.tracer
        program = parse_js(source)
        script = self.coverage.register_script(name, len(source))
        script.register_program(program)
        self._script_regions[script.script_id] = region

        # Traced parse: the tokenizer/parser consume every source byte,
        # accumulating into the AST cell so the parse chains backward.
        ast_cell = self.ctx.memory.alloc_cell(f"v8:ast:{name}")
        with tracer.function("v8::Parser::ParseProgram"):
            tracer.accumulate(
                _PARSE_LABELS, range(region.base, region.base + region.size), ast_cell
            )
            self.ctx.maybe_debug_event()
        self._script_ast_cells[script.script_id] = ast_cell

        script.mark_top_level()
        with tracer.function(f"v8::Script::Run"):
            # Top-level code is compiled eagerly.
            code_cell = self._compile_span(name, region, (0, len(source)), "top",
                                           ast_cell=ast_cell)
            self._current_code_cell = code_cell
            self._current_script = script
            self._exec_block(program.body, self.global_env)
        return script

    def call_function_value(
        self, fn: object, this: object, args: List[TV], site: str
    ) -> TV:
        """Invoke a JS or native function value from engine code (events)."""
        return self._invoke(TV(fn, self.undefined_cell), this, args, site)

    # ------------------------------------------------------------------ #
    # Plumbing                                                           #
    # ------------------------------------------------------------------ #

    def temp_cell(self) -> int:
        cell = self._temp_region.cell(self._temp_next)
        self._temp_next = (self._temp_next + 1) % _TEMP_RING
        return cell

    def make_tv(self, value: object) -> TV:
        """Wrap an engine-produced value in a fresh temporary cell."""
        return TV(value, self.temp_cell())

    def _tick(self) -> None:
        self._steps += 1
        if self._steps > _MAX_STEPS:
            raise JSError("script exceeded the interpreter step budget")

    def _compile_span(
        self,
        name: str,
        region: MemRegion,
        span: Tuple[int, int],
        label: str,
        ast_cell: Optional[int] = None,
    ) -> int:
        """Traced lazy compilation of a source span; returns the code cell.

        Compilation accumulates into the code cell (so the whole compile
        joins the slice when the code is ever used) and reads the script's
        AST cell, chaining back through the parse.
        """
        tracer = self.ctx.tracer
        code_cell = self.ctx.memory.alloc_cell(f"v8:code:{name}:{label}")
        first = self.ctx.byte_cell(region, span[0])
        last = self.ctx.byte_cell(region, max(span[0], span[1] - 1))
        with tracer.function("v8::Compiler::CompileFunction"):
            head_reads = (first,) if ast_cell is None else (first, ast_cell)
            tracer.op("begin", reads=head_reads, writes=(code_cell,))
            tracer.accumulate(_EMIT_LABELS, range(first, last + 1), code_cell)
        return code_cell

    # ------------------------------------------------------------------ #
    # Statements                                                         #
    # ------------------------------------------------------------------ #

    def _exec_block(self, body: List[ast.JSNode], env: Environment) -> None:
        for stmt in body:
            self._exec_stmt(stmt, env)

    def _exec_stmt(self, node: ast.JSNode, env: Environment) -> None:
        self._tick()
        tracer = self.ctx.tracer
        if isinstance(node, ast.VarDecl):
            if node.init is not None:
                value = self.eval(node.init, env)
            else:
                value = TV(None, self.undefined_cell)
            env.define(node.name, value.value)
            tracer.op(
                f"n{node.node_id}:store",
                reads=(value.cell,),
                writes=(env.slot_cell(node.name),),
            )
        elif isinstance(node, ast.FunctionDecl):
            fn = JSFunction(node.func, env, self._current_script.script_id)
            env.define(node.func.name, fn)
            tracer.op(
                f"n{node.node_id}:fndecl",
                reads=(self._current_code_cell,),
                writes=(env.slot_cell(node.func.name),),
            )
        elif isinstance(node, ast.ExpressionStmt):
            self.eval(node.expr, env)
        elif isinstance(node, ast.IfStmt):
            test = self.eval(node.test, env)
            tracer.compare_and_branch(f"n{node.node_id}:if", reads=(test.cell,))
            if js_truthy(test.value):
                self._exec_block(node.consequent, env)
            else:
                self._exec_block(node.alternate, env)
        elif isinstance(node, ast.WhileStmt):
            while True:
                test = self.eval(node.test, env)
                tracer.compare_and_branch(f"n{node.node_id}:while", reads=(test.cell,))
                if not js_truthy(test.value):
                    break
                try:
                    self._exec_block(node.body, env)
                except _BreakSignal:
                    break
                except _ContinueSignal:
                    continue
        elif isinstance(node, ast.DoWhileStmt):
            while True:
                try:
                    self._exec_block(node.body, env)
                except _BreakSignal:
                    break
                except _ContinueSignal:
                    pass
                test = self.eval(node.test, env)
                tracer.compare_and_branch(f"n{node.node_id}:dowhile", reads=(test.cell,))
                if not js_truthy(test.value):
                    break
        elif isinstance(node, ast.ForInStmt):
            obj = self.eval(node.obj, env)
            holder = obj.value
            if isinstance(holder, JSArray):
                keys = [str(i) for i in range(len(holder.elements))]
            elif isinstance(holder, JSObject):
                keys = holder.keys()
            else:
                keys = []
            for key in keys:
                key_tv = self.make_tv(key)
                tracer.op(
                    f"n{node.node_id}:nextkey",
                    reads=(obj.cell,),
                    writes=(key_tv.cell,),
                )
                tracer.compare_and_branch(
                    f"n{node.node_id}:forin", reads=(key_tv.cell,)
                )
                env.define(node.name, key)
                tracer.op(
                    f"n{node.node_id}:bindkey",
                    reads=(key_tv.cell,),
                    writes=(env.slot_cell(node.name),),
                )
                try:
                    self._exec_block(node.body, env)
                except _BreakSignal:
                    break
                except _ContinueSignal:
                    continue
        elif isinstance(node, ast.SwitchStmt):
            disc = self.eval(node.discriminant, env)
            matched = False
            try:
                for test_node, body in node.cases:
                    if not matched and test_node is not None:
                        case_value = self.eval(test_node, env)
                        tracer.compare_and_branch(
                            f"n{node.node_id}:case{test_node.node_id % 32}",
                            reads=(disc.cell, case_value.cell),
                        )
                        if not self._js_equals(disc.value, case_value.value):
                            continue
                        matched = True
                    elif not matched and test_node is None:
                        matched = True
                    if matched:
                        self._exec_block(body, env)
            except _BreakSignal:
                pass
        elif isinstance(node, ast.ForStmt):
            if node.init is not None:
                if isinstance(node.init, (ast.VarDecl, ast.ExpressionStmt)):
                    self._exec_stmt(node.init, env)
                else:
                    self.eval(node.init, env)
            while True:
                if node.test is not None:
                    test = self.eval(node.test, env)
                    tracer.compare_and_branch(f"n{node.node_id}:for", reads=(test.cell,))
                    if not js_truthy(test.value):
                        break
                try:
                    self._exec_block(node.body, env)
                except _BreakSignal:
                    break
                except _ContinueSignal:
                    pass
                if node.update is not None:
                    self.eval(node.update, env)
        elif isinstance(node, ast.ThrowStmt):
            value = self.eval(node.value, env)
            tracer.op(f"n{node.node_id}:throw", reads=(value.cell,),
                      writes=(self.undefined_cell,))
            raise GuestThrow(value)
        elif isinstance(node, ast.TryStmt):
            try:
                self._exec_block(node.block, env)
            except GuestThrow as thrown:
                if node.param is None and not node.handler:
                    raise  # try/finally without catch: rethrow
                if node.param is not None:
                    env.define(node.param, thrown.value.value)
                    tracer.op(
                        f"n{node.node_id}:catchbind",
                        reads=(thrown.value.cell,),
                        writes=(env.slot_cell(node.param),),
                    )
                self._exec_block(node.handler, env)
            finally:
                if node.finally_body:
                    self._exec_block(node.finally_body, env)
        elif isinstance(node, ast.ReturnStmt):
            if node.value is not None:
                value = self.eval(node.value, env)
            else:
                value = TV(None, self.undefined_cell)
            raise _ReturnSignal(value)
        elif isinstance(node, ast.BreakStmt):
            raise _BreakSignal()
        elif isinstance(node, ast.ContinueStmt):
            raise _ContinueSignal()
        else:
            raise JSError(f"unsupported statement {type(node).__name__}")
        self.ctx.maybe_debug_event()

    # ------------------------------------------------------------------ #
    # Expressions                                                        #
    # ------------------------------------------------------------------ #

    def eval(self, node: ast.JSNode, env: Environment) -> TV:
        self._tick()
        tracer = self.ctx.tracer

        if isinstance(node, ast.Literal):
            out = self.temp_cell()
            tracer.op(
                f"n{node.node_id}:const",
                reads=(self._current_code_cell,),
                writes=(out,),
            )
            return TV(node.value, out)

        if isinstance(node, ast.Identifier):
            value_env = env.lookup_env(node.name)
            if value_env is None:
                raise JSReferenceError(f"{node.name} is not defined")
            # Reading a binding is register-like: the TV aliases the slot
            # cell directly (no record), like a register-allocated load.
            return TV(value_env.slots[node.name], value_env.slot_cell(node.name))

        if isinstance(node, ast.ThisExpr):
            this_env = env.lookup_env("this")
            if this_env is None:
                return TV(None, self.undefined_cell)
            return TV(this_env.slots["this"], this_env.slot_cell("this"))

        if isinstance(node, ast.ArrayLiteral):
            array = JSArray(self.ctx)
            self.ctx.libc_malloc(array.prop_cell("length"))
            for i, element in enumerate(node.elements):
                item = self.eval(element, env)
                array.elements.append(item.value)
                tracer.op(
                    f"n{node.node_id}:el{i % 16}",
                    reads=(item.cell,),
                    writes=(array.index_cell(i),),
                )
            return self.make_tv(array)

        if isinstance(node, ast.ObjectLiteral):
            obj = JSObject(self.ctx)
            self.ctx.libc_malloc(obj.prop_cell("__header__"))
            for i, (key, value_node) in enumerate(node.entries):
                item = self.eval(value_node, env)
                obj.set(key, item.value)
                tracer.op(
                    f"n{node.node_id}:p{i % 16}",
                    reads=(item.cell,),
                    writes=(obj.prop_cell(key),),
                )
            return self.make_tv(obj)

        if isinstance(node, ast.FunctionExpr):
            fn = JSFunction(node, env, self._current_script.script_id)
            out = self.temp_cell()
            tracer.op(
                f"n{node.node_id}:closure",
                reads=(self._current_code_cell,),
                writes=(out,),
            )
            return TV(fn, out)

        if isinstance(node, ast.Unary):
            operand = self.eval(node.operand, env)
            out = self.temp_cell()
            tracer.op(f"n{node.node_id}:unary", reads=(operand.cell,), writes=(out,))
            return TV(self._apply_unary(node.op, operand.value), out)

        if isinstance(node, ast.Binary):
            left = self.eval(node.left, env)
            if node.op == ",":
                return self.eval(node.right, env)
            right = self.eval(node.right, env)
            out = self.temp_cell()
            tracer.op(
                f"n{node.node_id}:binop",
                reads=(left.cell, right.cell),
                writes=(out,),
            )
            result = self._apply_binary(node.op, left.value, right.value)
            if node.op == "+" and isinstance(result, str):
                self._concat_count += 1
                if self._concat_count % 4 == 0:
                    # Rope flattening copies through the C runtime.
                    self.ctx.libc_memcpy((left.cell, right.cell), (out,))
            return TV(result, out)

        if isinstance(node, ast.Logical):
            left = self.eval(node.left, env)
            tracer.compare_and_branch(f"n{node.node_id}:sc", reads=(left.cell,))
            if node.op == "&&":
                if not js_truthy(left.value):
                    return left
                return self.eval(node.right, env)
            if js_truthy(left.value):
                return left
            return self.eval(node.right, env)

        if isinstance(node, ast.Conditional):
            test = self.eval(node.test, env)
            tracer.compare_and_branch(f"n{node.node_id}:cond", reads=(test.cell,))
            if js_truthy(test.value):
                return self.eval(node.consequent, env)
            return self.eval(node.alternate, env)

        if isinstance(node, ast.Assignment):
            return self._eval_assignment(node, env)

        if isinstance(node, ast.UpdateExpr):
            return self._eval_update(node, env)

        if isinstance(node, ast.Member):
            return self._eval_member(node, env)

        if isinstance(node, ast.Call):
            return self._eval_call(node, env)

        raise JSError(f"unsupported expression {type(node).__name__}")

    # ------------------------------------------------------------------ #

    def _eval_assignment(self, node: ast.Assignment, env: Environment) -> TV:
        tracer = self.ctx.tracer
        value = self.eval(node.value, env)
        if node.op != "=":
            current = self.eval(node.target, env)
            combined = self._apply_binary(node.op[:-1], current.value, value.value)
            out = self.temp_cell()
            tracer.op(
                f"n{node.node_id}:combine",
                reads=(current.cell, value.cell),
                writes=(out,),
            )
            value = TV(combined, out)

        if isinstance(node.target, ast.Identifier):
            target_env = env.set(node.target.name, value.value)
            tracer.op(
                f"n{node.node_id}:assign",
                reads=(value.cell,),
                writes=(target_env.slot_cell(node.target.name),),
            )
            return value

        # Member assignment.
        member = node.target
        obj = self.eval(member.obj, env)
        name = self._member_name(member, env)
        holder = obj.value
        if isinstance(holder, JSArray) and name.lstrip("-").isdigit():
            index = int(name)
            while len(holder.elements) <= index:
                holder.elements.append(None)
            holder.elements[index] = value.value
            cell = holder.index_cell(index)
        elif isinstance(holder, JSObject):
            holder.set(name, value.value)
            cell = holder.prop_cell(name)
        else:
            raise JSTypeError(f"cannot set property {name!r} on {js_typeof(holder)}")
        tracer.op(f"n{node.node_id}:setprop", reads=(value.cell,), writes=(cell,))
        hook = getattr(holder, "setter_hook", None)
        if hook is not None:
            hook(name, value)
        return value

    def _eval_update(self, node: ast.UpdateExpr, env: Environment) -> TV:
        tracer = self.ctx.tracer
        current = self.eval(node.target, env)
        delta = 1.0 if node.op == "++" else -1.0
        updated = js_to_number(current.value) + delta
        if isinstance(node.target, ast.Identifier):
            target_env = env.set(node.target.name, updated)
            cell = target_env.slot_cell(node.target.name)
        elif isinstance(node.target, ast.Member):
            obj = self.eval(node.target.obj, env)
            name = self._member_name(node.target, env)
            holder = obj.value
            if not isinstance(holder, JSObject):
                raise JSTypeError("update target is not an object")
            holder.set(name, updated)
            cell = holder.prop_cell(name)
        else:
            raise JSTypeError("invalid update target")
        tracer.op(f"n{node.node_id}:update", reads=(current.cell,), writes=(cell,))
        return TV(updated if node.prefix else js_to_number(current.value), cell)

    def _member_name(self, node: ast.Member, env: Environment) -> str:
        if node.prop is not None:
            return node.prop
        index = self.eval(node.index, env)
        return js_to_string(index.value)

    def _eval_member(self, node: ast.Member, env: Environment) -> TV:
        tracer = self.ctx.tracer
        obj = self.eval(node.obj, env)
        name = self._member_name(node, env)
        value, cell = self.get_property(obj, name)
        out = self.temp_cell()
        tracer.op(f"n{node.node_id}:getprop", reads=(obj.cell, cell), writes=(out,))
        self._member_count += 1
        if self._member_count % 3 == 0:
            self.ctx.plain_helper("HashTableLookup", reads=(obj.cell, cell), writes=(out,))
        return TV(value, out)

    def get_property(self, obj: TV, name: str) -> Tuple[object, int]:
        """Resolve a property; returns (value, backing cell)."""
        holder = obj.value
        if isinstance(holder, str):
            return self._string_property(holder, name), obj.cell
        if isinstance(holder, JSArray):
            if name == "length":
                return float(len(holder.elements)), holder.prop_cell("length")
            if name.lstrip("-").isdigit():
                index = int(name)
                if 0 <= index < len(holder.elements):
                    return holder.elements[index], holder.index_cell(index)
                return None, self.undefined_cell
            method = _ARRAY_METHODS.get(name)
            if method is not None:
                return NativeFunction(f"Array.{name}", method), holder.prop_cell(name)
        if isinstance(holder, JSObject):
            getter = getattr(holder, "getter_hook", None)
            if getter is not None:
                hooked = getter(name)
                if hooked is not None:
                    return hooked.value, hooked.cell
            if holder.has(name):
                return holder.get(name), holder.prop_cell(name)
            return None, self.undefined_cell
        if holder is None:
            raise JSTypeError(f"cannot read property {name!r} of undefined")
        return None, self.undefined_cell

    def _string_property(self, value: str, name: str) -> object:
        if name == "length":
            return float(len(value))
        method = _STRING_METHODS.get(name)
        if method is not None:
            return NativeFunction(f"String.{name}", _bind_string(method, value))
        return None

    def _eval_call(self, node: ast.Call, env: Environment) -> TV:
        # Method call: evaluate the receiver once.
        this: object = None
        if isinstance(node.callee, ast.Member):
            obj = self.eval(node.callee.obj, env)
            name = self._member_name(node.callee, env)
            fn_value, fn_cell = self.get_property(obj, name)
            callee = TV(fn_value, fn_cell)
            this = obj.value
        else:
            callee = self.eval(node.callee, env)
        args = [self.eval(arg, env) for arg in node.args]
        if node.is_new:
            instance = JSObject(self.ctx, kind="instance")
            result = self._invoke(callee, instance, args, f"n{node.node_id}")
            return self.make_tv(instance if result.value is None else result.value)
        return self._invoke(callee, this, args, f"n{node.node_id}")

    def _invoke(self, callee: TV, this: object, args: List[TV], site: str) -> TV:
        tracer = self.ctx.tracer
        fn = callee.value
        if isinstance(fn, NativeFunction):
            return fn.fn(self, this, args)
        if not isinstance(fn, JSFunction):
            raise JSTypeError(f"{js_to_string(fn)} is not a function")

        decl = fn.declaration
        script = self.coverage.script(fn.script_id)
        if not fn.compiled:
            region = self._script_regions[fn.script_id]
            fn.code_cell = self._compile_span(
                script.name,
                region,
                decl.span,
                f"fn{decl.node_id}",
                ast_cell=self._script_ast_cells.get(fn.script_id),
            )
            fn.compiled = True
        script.mark_function(decl.node_id)
        fn.call_count += 1

        call_env = Environment(self.ctx, fn.closure)
        call_env.define("this", this)
        with tracer.function(f"v8::js::{fn.name}", site=f"{site}:call"):
            for i, param in enumerate(decl.params):
                arg = args[i] if i < len(args) else TV(None, self.undefined_cell)
                call_env.define(param, arg.value)
                tracer.op(
                    f"bind{i % 8}",
                    reads=(arg.cell,),
                    writes=(call_env.slot_cell(param),),
                )
            saved_code = self._current_code_cell
            saved_script = self._current_script
            self._current_code_cell = fn.code_cell
            self._current_script = script
            try:
                self._exec_block(decl.body, call_env)
                result: TV = TV(None, self.undefined_cell)
            except _ReturnSignal as signal:
                result = signal.value
            finally:
                self._current_code_cell = saved_code
                self._current_script = saved_script
        return result

    # ------------------------------------------------------------------ #
    # Operators                                                          #
    # ------------------------------------------------------------------ #

    def _apply_unary(self, op: str, value: object) -> object:
        if op == "!":
            return not js_truthy(value)
        if op == "-":
            return -js_to_number(value)
        if op == "+":
            return js_to_number(value)
        if op == "~":
            return float(~int(js_to_number(value)))
        if op == "typeof":
            return js_typeof(value)
        if op == "delete":
            return True
        raise JSError(f"unsupported unary operator {op}")

    def _apply_binary(self, op: str, left: object, right: object) -> object:
        if op == "+":
            if isinstance(left, str) or isinstance(right, str):
                return js_to_string(left) + js_to_string(right)
            return js_to_number(left) + js_to_number(right)
        if op == "-":
            return js_to_number(left) - js_to_number(right)
        if op == "*":
            return js_to_number(left) * js_to_number(right)
        if op == "/":
            denominator = js_to_number(right)
            if denominator == 0:
                return float("inf") if js_to_number(left) > 0 else float("nan")
            return js_to_number(left) / denominator
        if op == "%":
            denominator = js_to_number(right)
            if denominator == 0:
                return float("nan")
            return float(js_to_number(left) % denominator)
        if op in ("==", "==="):
            return self._js_equals(left, right)
        if op in ("!=", "!=="):
            return not self._js_equals(left, right)
        if op in ("<", ">", "<=", ">="):
            if isinstance(left, str) and isinstance(right, str):
                pair = (left, right)
            else:
                pair = (js_to_number(left), js_to_number(right))
            return {
                "<": pair[0] < pair[1],
                ">": pair[0] > pair[1],
                "<=": pair[0] <= pair[1],
                ">=": pair[0] >= pair[1],
            }[op]
        if op == "in":
            if isinstance(right, JSObject):
                return right.has(js_to_string(left))
            return False
        raise JSError(f"unsupported binary operator {op}")

    @staticmethod
    def _js_equals(left: object, right: object) -> bool:
        if isinstance(left, (float, bool)) and isinstance(right, (float, bool)):
            return js_to_number(left) == js_to_number(right)
        return left is right or left == right


# --------------------------------------------------------------------- #
# Built-in methods on strings and arrays                                #
# --------------------------------------------------------------------- #


def _bind_string(method, value: str):
    def bound(interp: Interpreter, this: object, args: List[TV]) -> TV:
        return method(interp, value, args)

    return bound


def _string_index_of(interp, value: str, args):
    needle = js_to_string(args[0].value) if args else ""
    return interp.make_tv(float(value.find(needle)))


def _string_slice(interp, value: str, args):
    start = int(js_to_number(args[0].value)) if args else 0
    end = int(js_to_number(args[1].value)) if len(args) > 1 else len(value)
    return interp.make_tv(value[start:end])


def _string_char_at(interp, value: str, args):
    index = int(js_to_number(args[0].value)) if args else 0
    return interp.make_tv(value[index] if 0 <= index < len(value) else "")


def _string_split(interp, value: str, args):
    sep = js_to_string(args[0].value) if args else ","
    array = JSArray(interp.ctx)
    array.elements = list(value.split(sep)) if sep else list(value)
    return interp.make_tv(array)


def _string_upper(interp, value: str, args):
    return interp.make_tv(value.upper())


def _string_lower(interp, value: str, args):
    return interp.make_tv(value.lower())


def _string_replace(interp, value: str, args):
    old = js_to_string(args[0].value) if args else ""
    new = js_to_string(args[1].value) if len(args) > 1 else ""
    return interp.make_tv(value.replace(old, new, 1))


def _string_substring(interp, value: str, args):
    return _string_slice(interp, value, args)


_STRING_METHODS = {
    "indexOf": _string_index_of,
    "slice": _string_slice,
    "charAt": _string_char_at,
    "split": _string_split,
    "toUpperCase": _string_upper,
    "toLowerCase": _string_lower,
    "replace": _string_replace,
    "substring": _string_substring,
}


def _array_push(interp: Interpreter, this, args):
    if not isinstance(this, JSArray):
        raise JSTypeError("push on non-array")
    for arg in args:
        this.elements.append(arg.value)
        interp.ctx.tracer.op(
            "array_push",
            reads=(arg.cell,),
            writes=(this.index_cell(len(this.elements) - 1),),
        )
    return interp.make_tv(float(len(this.elements)))


def _array_pop(interp: Interpreter, this, args):
    if not isinstance(this, JSArray) or not this.elements:
        return TV(None, interp.undefined_cell)
    value = this.elements.pop()
    return TV(value, this.index_cell(len(this.elements)))


def _array_join(interp: Interpreter, this, args):
    sep = js_to_string(args[0].value) if args else ","
    if not isinstance(this, JSArray):
        raise JSTypeError("join on non-array")
    return interp.make_tv(sep.join(js_to_string(e) for e in this.elements))


def _array_index_of(interp: Interpreter, this, args):
    if not isinstance(this, JSArray):
        raise JSTypeError("indexOf on non-array")
    target = args[0].value if args else None
    for i, element in enumerate(this.elements):
        if element is target or element == target:
            return interp.make_tv(float(i))
    return interp.make_tv(-1.0)


def _array_slice(interp: Interpreter, this, args):
    if not isinstance(this, JSArray):
        raise JSTypeError("slice on non-array")
    start = int(js_to_number(args[0].value)) if args else 0
    end = int(js_to_number(args[1].value)) if len(args) > 1 else len(this.elements)
    out = JSArray(interp.ctx)
    out.elements = list(this.elements[start:end])
    return interp.make_tv(out)


def _array_for_each(interp: Interpreter, this, args):
    if not isinstance(this, JSArray) or not args:
        return TV(None, interp.undefined_cell)
    callback = args[0]
    for i, element in enumerate(this.elements):
        interp._invoke(
            callback,
            None,
            [TV(element, this.index_cell(i)), interp.make_tv(float(i))],
            "forEach",
        )
    return TV(None, interp.undefined_cell)


def _array_map(interp: Interpreter, this, args):
    if not isinstance(this, JSArray) or not args:
        return TV(None, interp.undefined_cell)
    callback = args[0]
    out = JSArray(interp.ctx)
    for i, element in enumerate(this.elements):
        result = interp._invoke(
            callback,
            None,
            [TV(element, this.index_cell(i)), interp.make_tv(float(i))],
            "map",
        )
        out.elements.append(result.value)
        interp.ctx.tracer.op(
            "array_map_store", reads=(result.cell,), writes=(out.index_cell(i),)
        )
    return interp.make_tv(out)


def _array_filter(interp: Interpreter, this, args):
    if not isinstance(this, JSArray) or not args:
        return TV(None, interp.undefined_cell)
    callback = args[0]
    out = JSArray(interp.ctx)
    for i, element in enumerate(this.elements):
        keep = interp._invoke(
            callback,
            None,
            [TV(element, this.index_cell(i)), interp.make_tv(float(i))],
            "filter",
        )
        interp.ctx.tracer.compare_and_branch("filter_keep", reads=(keep.cell,))
        if js_truthy(keep.value):
            out.elements.append(element)
    return interp.make_tv(out)


def _array_concat(interp: Interpreter, this, args):
    if not isinstance(this, JSArray):
        raise JSTypeError("concat on non-array")
    out = JSArray(interp.ctx)
    out.elements = list(this.elements)
    for arg in args:
        if isinstance(arg.value, JSArray):
            out.elements.extend(arg.value.elements)
        else:
            out.elements.append(arg.value)
        interp.ctx.tracer.op(
            "array_concat",
            reads=(arg.cell,),
            writes=(out.index_cell(max(0, len(out.elements) - 1)),),
        )
    return interp.make_tv(out)


def _array_reduce(interp: Interpreter, this, args):
    if not isinstance(this, JSArray) or not args:
        return TV(None, interp.undefined_cell)
    callback = args[0]
    if len(args) > 1:
        acc = args[1]
        start = 0
    elif this.elements:
        acc = TV(this.elements[0], this.index_cell(0))
        start = 1
    else:
        raise JSTypeError("reduce of empty array with no initial value")
    for i in range(start, len(this.elements)):
        acc = interp._invoke(
            callback,
            None,
            [acc, TV(this.elements[i], this.index_cell(i)), interp.make_tv(float(i))],
            "reduce",
        )
    return acc


_ARRAY_METHODS = {
    "push": _array_push,
    "pop": _array_pop,
    "join": _array_join,
    "indexOf": _array_index_of,
    "slice": _array_slice,
    "forEach": _array_for_each,
    "map": _array_map,
    "filter": _array_filter,
    "concat": _array_concat,
    "reduce": _array_reduce,
}
