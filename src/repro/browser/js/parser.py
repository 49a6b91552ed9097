"""Recursive-descent parser for the mini-JavaScript language."""

from __future__ import annotations

from typing import List, Optional

from . import ast
from .lexer import JSToken, tokenize_js


class JSParseError(ValueError):
    """Raised on syntax the mini-engine does not accept."""


#: Binary operator precedence (higher binds tighter).
_BINARY_PRECEDENCE = {
    "==": 3, "!=": 3, "===": 3, "!==": 3,
    "<": 4, ">": 4, "<=": 4, ">=": 4, "in": 4,
    "+": 5, "-": 5,
    "*": 6, "/": 6, "%": 6,
}

_ASSIGN_OPS = frozenset({"=", "+=", "-=", "*=", "/=", "%="})


class JSParser:
    def __init__(self, source: str) -> None:
        self.source = source
        self.tokens = tokenize_js(source)
        self.pos = 0
        #: every function expression or declaration built, nested ones
        #: before the function holding them (the order they are built)
        self.functions: List[ast.FunctionExpr] = []

    # -- token plumbing -------------------------------------------------- #
    #
    # ``next`` never moves past the final EOF token, so ``self.pos``
    # always indexes a token.  The hot paths below read
    # ``self.tokens[self.pos]`` directly and step over a token they know
    # is not EOF with ``self.pos += 1``.

    def peek(self, ahead: int = 0) -> JSToken:
        if ahead:
            return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]
        return self.tokens[self.pos]

    def next(self) -> JSToken:
        token = self.tokens[self.pos]
        if token.kind != "eof":
            self.pos += 1
        return token

    def expect_punct(self, value: str) -> JSToken:
        token = self.next()
        if not token.is_punct(value):
            raise JSParseError(
                f"expected {value!r} at offset {token.start}, got {token.value!r}"
            )
        return token

    def accept_punct(self, value: str) -> bool:
        token = self.tokens[self.pos]
        if token.kind == "punct" and token.value == value:
            self.pos += 1
            return True
        return False

    def _semicolon(self) -> None:
        self.accept_punct(";")  # ASI: semicolons are optional

    # -- entry ------------------------------------------------------------ #

    def parse_program(self) -> ast.Program:
        body: List[ast.JSNode] = []
        while self.peek().kind != "eof":
            body.append(self.parse_statement())
        return ast.Program(span=(0, len(self.source)), body=body)

    # -- statements -------------------------------------------------------- #

    def parse_statement(self) -> ast.JSNode:
        token = self.tokens[self.pos]
        if token.kind == "keyword":
            handler = _STATEMENT_PARSERS.get(token.value)
            if handler is not None:
                return handler(self)
        if token.is_punct("{"):
            # Standalone block: flatten into an if(true)-like sequence is
            # unnecessary; represent as expression-less If with one arm.
            start = self.next().start
            body = self._parse_block_rest()
            return ast.IfStmt(
                span=(start, self.peek().start),
                test=ast.Literal(span=(start, start), value=True),
                consequent=body,
            )
        expr = self.parse_expression()
        self._semicolon()
        return ast.ExpressionStmt(span=expr.span, expr=expr)

    def _parse_var(self) -> ast.JSNode:
        kw = self.next()
        decls: List[ast.VarDecl] = []
        while True:
            name_tok = self.next()
            if name_tok.kind != "ident":
                raise JSParseError(f"expected identifier at {name_tok.start}")
            init = None
            if self.accept_punct("="):
                init = self.parse_assignment()
            decls.append(
                ast.VarDecl(
                    span=(kw.start, self.peek().start),
                    kind=kw.value,
                    name=name_tok.value,
                    init=init,
                )
            )
            if not self.accept_punct(","):
                break
        self._semicolon()
        if len(decls) == 1:
            return decls[0]
        # Multiple declarators become a synthetic statement list wrapper.
        wrapper = ast.IfStmt(
            span=(kw.start, self.peek().start),
            test=ast.Literal(span=(kw.start, kw.start), value=True),
            consequent=list(decls),
        )
        return wrapper

    def _parse_function_decl(self) -> ast.JSNode:
        start = self.peek().start
        func = self._parse_function_expr()
        return ast.FunctionDecl(span=(start, func.span[1]), func=func)

    def _parse_function_expr(self) -> ast.FunctionExpr:
        kw = self.next()  # 'function'
        name = None
        if self.peek().kind == "ident":
            name = self.next().value
        self.expect_punct("(")
        params: List[str] = []
        while not self.peek().is_punct(")"):
            param = self.next()
            if param.kind != "ident":
                raise JSParseError(f"expected parameter name at {param.start}")
            params.append(param.value)
            if not self.accept_punct(","):
                break
        self.expect_punct(")")
        self.expect_punct("{")
        body = self._parse_block_rest()
        end = self.tokens[self.pos - 1].end
        func = ast.FunctionExpr(span=(kw.start, end), name=name, params=params, body=body)
        self.functions.append(func)
        return func

    def _parse_block_rest(self) -> List[ast.JSNode]:
        body: List[ast.JSNode] = []
        tokens = self.tokens
        while True:
            token = tokens[self.pos]
            if token.kind == "punct" and token.value == "}":
                break
            if token.kind == "eof":
                raise JSParseError("unclosed block")
            body.append(self.parse_statement())
        self.pos += 1  # consume '}'
        return body

    def _parse_body_or_statement(self) -> List[ast.JSNode]:
        if self.accept_punct("{"):
            return self._parse_block_rest()
        return [self.parse_statement()]

    def _parse_if(self) -> ast.JSNode:
        kw = self.next()
        self.expect_punct("(")
        test = self.parse_expression()
        self.expect_punct(")")
        consequent = self._parse_body_or_statement()
        alternate: List[ast.JSNode] = []
        if self.peek().is_keyword("else"):
            self.next()
            alternate = self._parse_body_or_statement()
        return ast.IfStmt(
            span=(kw.start, self.peek().start),
            test=test,
            consequent=consequent,
            alternate=alternate,
        )

    def _parse_while(self) -> ast.JSNode:
        kw = self.next()
        self.expect_punct("(")
        test = self.parse_expression()
        self.expect_punct(")")
        body = self._parse_body_or_statement()
        return ast.WhileStmt(span=(kw.start, self.peek().start), test=test, body=body)

    def _parse_do_while(self) -> ast.JSNode:
        kw = self.next()  # 'do'
        body = self._parse_body_or_statement()
        if not self.peek().is_keyword("while"):
            raise JSParseError(f"expected 'while' after do-body at {self.peek().start}")
        self.next()
        self.expect_punct("(")
        test = self.parse_expression()
        self.expect_punct(")")
        self._semicolon()
        return ast.DoWhileStmt(span=(kw.start, self.peek().start), test=test, body=body)

    def _parse_switch(self) -> ast.JSNode:
        kw = self.next()  # 'switch'
        self.expect_punct("(")
        discriminant = self.parse_expression()
        self.expect_punct(")")
        self.expect_punct("{")
        cases = []
        while not self.peek().is_punct("}"):
            token = self.peek()
            if token.is_keyword("case"):
                self.next()
                test = self.parse_expression()
                self.expect_punct(":")
            elif token.is_keyword("default"):
                self.next()
                self.expect_punct(":")
                test = None
            else:
                raise JSParseError(f"expected case/default at {token.start}")
            body = []
            while not (
                self.peek().is_punct("}")
                or self.peek().is_keyword("case")
                or self.peek().is_keyword("default")
            ):
                body.append(self.parse_statement())
            cases.append((test, body))
        close = self.expect_punct("}")
        return ast.SwitchStmt(
            span=(kw.start, close.end), discriminant=discriminant, cases=cases
        )

    def _parse_for(self) -> ast.JSNode:
        kw = self.next()
        self.expect_punct("(")
        init: Optional[ast.JSNode] = None
        # for (var k in obj) / for (k in obj)
        if (
            self.peek().kind == "keyword"
            and self.peek().value in ("var", "let", "const")
            and self.peek(1).kind == "ident"
            and self.peek(2).is_keyword("in")
        ):
            self.next()
            name = self.next().value
            self.next()  # 'in'
            obj = self.parse_expression()
            self.expect_punct(")")
            body = self._parse_body_or_statement()
            return ast.ForInStmt(
                span=(kw.start, self.peek().start), name=name, obj=obj, body=body
            )
        if self.peek().kind == "ident" and self.peek(1).is_keyword("in"):
            name = self.next().value
            self.next()  # 'in'
            obj = self.parse_expression()
            self.expect_punct(")")
            body = self._parse_body_or_statement()
            return ast.ForInStmt(
                span=(kw.start, self.peek().start), name=name, obj=obj, body=body
            )
        if not self.peek().is_punct(";"):
            if self.peek().kind == "keyword" and self.peek().value in ("var", "let", "const"):
                init = self._parse_var_no_semicolon()
            else:
                start_tok = self.peek()
                expr = self.parse_expression()
                init = ast.ExpressionStmt(span=(start_tok.start, expr.span[1]), expr=expr)
        self.expect_punct(";")
        test = None
        if not self.peek().is_punct(";"):
            test = self.parse_expression()
        self.expect_punct(";")
        update = None
        if not self.peek().is_punct(")"):
            update = self.parse_expression()
        self.expect_punct(")")
        body = self._parse_body_or_statement()
        return ast.ForStmt(
            span=(kw.start, self.peek().start),
            init=init,
            test=test,
            update=update,
            body=body,
        )

    def _parse_var_no_semicolon(self) -> ast.JSNode:
        kw = self.next()
        name_tok = self.next()
        if name_tok.kind != "ident":
            raise JSParseError(f"expected identifier at {name_tok.start}")
        init = None
        if self.accept_punct("="):
            init = self.parse_assignment()
        return ast.VarDecl(
            span=(kw.start, self.peek().start),
            kind=kw.value,
            name=name_tok.value,
            init=init,
        )

    def _parse_throw(self) -> ast.JSNode:
        kw = self.next()
        value = self.parse_expression()
        self._semicolon()
        return ast.ThrowStmt(span=(kw.start, value.span[1]), value=value)

    def _parse_try(self) -> ast.JSNode:
        kw = self.next()
        self.expect_punct("{")
        block = self._parse_block_rest()
        param = None
        handler = []
        finally_body = []
        if self.peek().is_keyword("catch"):
            self.next()
            if self.accept_punct("("):
                name_tok = self.next()
                if name_tok.kind != "ident":
                    raise JSParseError(f"expected catch parameter at {name_tok.start}")
                param = name_tok.value
                self.expect_punct(")")
            else:
                param = "__err__"
            self.expect_punct("{")
            handler = self._parse_block_rest()
        if self.peek().is_keyword("finally"):
            self.next()
            self.expect_punct("{")
            finally_body = self._parse_block_rest()
        if not handler and not finally_body:
            raise JSParseError(f"try without catch/finally at {kw.start}")
        return ast.TryStmt(
            span=(kw.start, self.peek().start),
            block=block,
            param=param,
            handler=handler,
            finally_body=finally_body,
        )

    def _parse_return(self) -> ast.JSNode:
        kw = self.next()
        value = None
        if not (self.peek().is_punct(";") or self.peek().is_punct("}") or self.peek().kind == "eof"):
            value = self.parse_expression()
        self._semicolon()
        return ast.ReturnStmt(span=(kw.start, self.peek().start), value=value)

    def _parse_break(self) -> ast.JSNode:
        kw = self.next()
        self._semicolon()
        return ast.BreakStmt(span=(kw.start, kw.end))

    def _parse_continue(self) -> ast.JSNode:
        kw = self.next()
        self._semicolon()
        return ast.ContinueStmt(span=(kw.start, kw.end))

    # -- expressions ------------------------------------------------------- #

    def parse_expression(self) -> ast.JSNode:
        expr = self.parse_assignment()
        while self.accept_punct(","):
            right = self.parse_assignment()
            expr = ast.Binary(span=(expr.span[0], right.span[1]), op=",", left=expr, right=right)
        return expr

    def parse_assignment(self) -> ast.JSNode:
        left = self.parse_conditional()
        token = self.tokens[self.pos]
        if token.kind == "punct" and token.value in _ASSIGN_OPS:
            self.next()
            if not isinstance(left, (ast.Identifier, ast.Member)):
                raise JSParseError(f"invalid assignment target at {token.start}")
            value = self.parse_assignment()
            return ast.Assignment(
                span=(left.span[0], value.span[1]),
                op=token.value,
                target=left,
                value=value,
            )
        return left

    def parse_conditional(self) -> ast.JSNode:
        test = self.parse_logical_or()
        if self.accept_punct("?"):
            consequent = self.parse_assignment()
            self.expect_punct(":")
            alternate = self.parse_assignment()
            return ast.Conditional(
                span=(test.span[0], alternate.span[1]),
                test=test,
                consequent=consequent,
                alternate=alternate,
            )
        return test

    def parse_logical_or(self) -> ast.JSNode:
        left = self.parse_logical_and()
        while self.accept_punct("||"):
            right = self.parse_logical_and()
            left = ast.Logical(span=(left.span[0], right.span[1]), op="||", left=left, right=right)
        return left

    def parse_logical_and(self) -> ast.JSNode:
        left = self.parse_binary(0)
        while self.accept_punct("&&"):
            right = self.parse_binary(0)
            left = ast.Logical(span=(left.span[0], right.span[1]), op="&&", left=left, right=right)
        return left

    def parse_binary(self, min_precedence: int) -> ast.JSNode:
        left = self.parse_unary()
        tokens = self.tokens
        while True:
            token = tokens[self.pos]
            op = token.value
            if token.kind == "keyword" and op == "in":
                precedence = _BINARY_PRECEDENCE["in"]
            elif token.kind == "punct" and op in _BINARY_PRECEDENCE:
                precedence = _BINARY_PRECEDENCE[op]
            else:
                return left
            if precedence < min_precedence:
                return left
            self.pos += 1
            right = self.parse_binary(precedence + 1)
            left = ast.Binary(span=(left.span[0], right.span[1]), op=op, left=left, right=right)

    def parse_unary(self) -> ast.JSNode:
        token = self.tokens[self.pos]
        if token.kind == "punct" and token.value in ("!", "-", "+", "~"):
            self.pos += 1
            operand = self.parse_unary()
            return ast.Unary(span=(token.start, operand.span[1]), op=token.value, operand=operand)
        if token.kind == "keyword" and token.value in ("typeof", "delete"):
            self.pos += 1
            operand = self.parse_unary()
            return ast.Unary(span=(token.start, operand.span[1]), op=token.value, operand=operand)
        if token.kind == "punct" and token.value in ("++", "--"):
            self.pos += 1
            target = self.parse_unary()
            return ast.UpdateExpr(
                span=(token.start, target.span[1]), op=token.value, target=target, prefix=True
            )
        return self.parse_postfix()

    def parse_postfix(self) -> ast.JSNode:
        expr = self.parse_call_member()
        token = self.tokens[self.pos]
        if token.kind == "punct" and token.value in ("++", "--"):
            self.pos += 1
            return ast.UpdateExpr(
                span=(expr.span[0], token.end), op=token.value, target=expr, prefix=False
            )
        return expr

    def parse_call_member(self) -> ast.JSNode:
        tokens = self.tokens
        if tokens[self.pos].is_keyword("new"):
            kw = self.next()
            callee = self.parse_call_member()
            if isinstance(callee, ast.Call):
                callee.is_new = True
                return callee
            return ast.Call(span=(kw.start, callee.span[1]), callee=callee, args=[], is_new=True)
        expr = self.parse_primary()
        while True:
            token = tokens[self.pos]
            if token.kind != "punct":
                return expr
            op = token.value
            if op == ".":
                self.pos += 1
                name_tok = self.next()
                if name_tok.kind not in ("ident", "keyword"):
                    raise JSParseError(f"expected property name at {name_tok.start}")
                expr = ast.Member(
                    span=(expr.span[0], name_tok.end), obj=expr, prop=name_tok.value
                )
            elif op == "[":
                self.pos += 1
                index = self.parse_expression()
                close = self.expect_punct("]")
                expr = ast.Member(span=(expr.span[0], close.end), obj=expr, index=index)
            elif op == "(":
                self.pos += 1
                args: List[ast.JSNode] = []
                while not self.peek().is_punct(")"):
                    args.append(self.parse_assignment())
                    if not self.accept_punct(","):
                        break
                close = self.expect_punct(")")
                expr = ast.Call(span=(expr.span[0], close.end), callee=expr, args=args)
            else:
                return expr

    def parse_primary(self) -> ast.JSNode:
        token = self.tokens[self.pos]
        kind = token.kind
        if kind == "ident":
            self.pos += 1
            return ast.Identifier(span=(token.start, token.end), name=token.value)
        if kind == "number":
            self.pos += 1
            return ast.Literal(span=(token.start, token.end), value=float(token.value))
        if kind == "string":
            self.pos += 1
            return ast.Literal(span=(token.start, token.end), value=token.value)
        if kind == "keyword":
            if token.value in ("true", "false"):
                self.pos += 1
                return ast.Literal(span=(token.start, token.end), value=token.value == "true")
            if token.value in ("null", "undefined"):
                self.pos += 1
                return ast.Literal(span=(token.start, token.end), value=None)
            if token.value == "function":
                return self._parse_function_expr()
            if token.value == "this":
                self.pos += 1
                return ast.ThisExpr(span=(token.start, token.end))
        if token.is_punct("("):
            self.next()
            expr = self.parse_expression()
            self.expect_punct(")")
            return expr
        if token.is_punct("["):
            self.next()
            elements: List[ast.JSNode] = []
            while not self.peek().is_punct("]"):
                elements.append(self.parse_assignment())
                if not self.accept_punct(","):
                    break
            close = self.expect_punct("]")
            return ast.ArrayLiteral(span=(token.start, close.end), elements=elements)
        if token.is_punct("{"):
            self.next()
            entries: List = []
            while not self.peek().is_punct("}"):
                key_tok = self.next()
                if key_tok.kind not in ("ident", "string", "keyword", "number"):
                    raise JSParseError(f"bad object key at {key_tok.start}")
                self.expect_punct(":")
                entries.append((str(key_tok.value), self.parse_assignment()))
                if not self.accept_punct(","):
                    break
            close = self.expect_punct("}")
            return ast.ObjectLiteral(span=(token.start, close.end), entries=entries)
        raise JSParseError(f"unexpected token {token.value!r} at offset {token.start}")


#: Statement keyword -> the method parsing that statement.
_STATEMENT_PARSERS = {
    "var": JSParser._parse_var,
    "let": JSParser._parse_var,
    "const": JSParser._parse_var,
    "function": JSParser._parse_function_decl,
    "if": JSParser._parse_if,
    "while": JSParser._parse_while,
    "do": JSParser._parse_do_while,
    "for": JSParser._parse_for,
    "switch": JSParser._parse_switch,
    "throw": JSParser._parse_throw,
    "try": JSParser._parse_try,
    "return": JSParser._parse_return,
    "break": JSParser._parse_break,
    "continue": JSParser._parse_continue,
}


def parse_js(source: str) -> ast.Program:
    """Parse JavaScript source into an AST."""
    return JSParser(source).parse_program()
