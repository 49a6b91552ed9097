"""The traced interpreter's evaluation loop as it was before its fast paths.

``ReferenceInterpreter`` keeps, verbatim, the ``isinstance`` dispatch of
``eval`` and ``_exec_stmt``, the ``_eval_*`` helpers and ``_invoke``
that format every emit-site label on every execution, the step check as
a method (``_tick``), the bounds-checked ``temp_cell`` and the
comparison table of ``_apply_binary``.  Everything else (parsing,
coverage registration, compilation, property lookup, the built-ins) is
the ``Interpreter`` it subclasses, so a run through it differs from a
run through ``Interpreter`` only in the code the fast paths replaced.
Swap it in for an engine with ``monkeypatch.setattr(repro.browser.engine,
"Interpreter", ReferenceInterpreter)``.
"""

from __future__ import annotations

from typing import List

from repro.browser.js import ast
from repro.browser.js.interpreter import (
    _TEMP_RING,
    GuestThrow,
    Interpreter,
    _BreakSignal,
    _ContinueSignal,
    _ReturnSignal,
)
from repro.browser.js.values import (
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

#: guard against runaway guest loops (a test may lower it, here and in
#: ``repro.browser.js.interpreter`` alike)
_MAX_STEPS = 5_000_000


class ReferenceInterpreter(Interpreter):
    def temp_cell(self) -> int:
        cell = self._temp_region.cell(self._temp_next)
        self._temp_next = (self._temp_next + 1) % _TEMP_RING
        return cell

    def _tick(self) -> None:
        self._steps += 1
        if self._steps > _MAX_STEPS:
            raise JSError("script exceeded the interpreter step budget")

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
