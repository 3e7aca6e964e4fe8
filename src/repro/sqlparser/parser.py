"""Recursive-descent parser for the MySQL-flavoured SQL subset.

The :mod:`repro.database` engine executes the AST it produces.  The PTI
daemon parses every intercepted query "to determine the critical set of
tokens before attempting to match these tokens" (Section VI-A); that step
is :func:`critical_tokens`, a walk of the lexical grammar defined in
:mod:`repro.sqlparser.lexer` and exported from here as well.

Comments are skipped during parsing (they do not affect execution) but
remain visible to the taint analyses through the token stream.

A query that cannot be parsed raises :class:`SqlParseError`.  Analyses treat
unparseable queries conservatively: NTI/PTI fall back to pure token-level
reasoning, so malformed attack probes (common with blind injection) are
still inspected.
"""

from __future__ import annotations

from . import ast_nodes as ast
from .lexer import critical_tokens, tokenize_significant
from .tokens import Token, TokenType, is_sql_function

__all__ = ["SqlParseError", "parse_statement", "critical_tokens", "Parser"]


class SqlParseError(Exception):
    """The query does not conform to the supported SQL grammar."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at offset {position})")
        self.position = position


#: Binary operator precedence, loosest first.
_PRECEDENCE: list[tuple[str, ...]] = [
    ("or", "||_logical", "xor"),
    ("and", "&&"),
    ("=", "<>", "!=", "<", "<=", ">", ">=", "<=>"),
    ("|",),
    ("&",),
    ("<<", ">>"),
    ("+", "-"),
    ("*", "/", "%", "div", "mod"),
]


class Parser:
    """Single-statement SQL parser over a significant-token stream."""

    def __init__(self, query: str) -> None:
        self.query = query
        self.tokens = [
            t for t in tokenize_significant(query) if t.type is not TokenType.COMMENT
        ]
        self.pos = 0

    # ------------------------------------------------------------------
    # Token-stream helpers
    # ------------------------------------------------------------------

    def _peek(self, ahead: int = 0) -> Token | None:
        idx = self.pos + ahead
        return self.tokens[idx] if idx < len(self.tokens) else None

    def _next(self) -> Token:
        tok = self._peek()
        if tok is None:
            raise SqlParseError("unexpected end of query", len(self.query))
        self.pos += 1
        return tok

    def _at_keyword(self, *words: str) -> bool:
        tok = self._peek()
        return (
            tok is not None
            and tok.type is TokenType.KEYWORD
            and tok.value in words
        )

    def _accept_keyword(self, *words: str) -> Token | None:
        if self._at_keyword(*words):
            return self._next()
        return None

    def _expect_keyword(self, word: str) -> Token:
        tok = self._accept_keyword(word)
        if tok is None:
            found = self._peek()
            at = found.start if found else len(self.query)
            raise SqlParseError(f"expected {word.upper()}", at)
        return tok

    def _accept_punct(self, text: str) -> Token | None:
        tok = self._peek()
        if tok is not None and tok.type is TokenType.PUNCTUATION and tok.text == text:
            return self._next()
        return None

    def _expect_punct(self, text: str) -> Token:
        tok = self._accept_punct(text)
        if tok is None:
            found = self._peek()
            at = found.start if found else len(self.query)
            raise SqlParseError(f"expected '{text}'", at)
        return tok

    def _accept_operator(self, *texts: str) -> Token | None:
        tok = self._peek()
        if tok is not None and tok.type is TokenType.OPERATOR and tok.text in texts:
            return self._next()
        return None

    def _expect_identifier(self) -> str:
        tok = self._peek()
        if tok is not None and tok.type is TokenType.IDENTIFIER:
            self._next()
            return str(tok.value) if tok.text.startswith("`") else tok.text
        # Permit non-reserved keywords used as identifiers in simple spots.
        if tok is not None and tok.type is TokenType.KEYWORD:
            self._next()
            return tok.text
        at = tok.start if tok else len(self.query)
        raise SqlParseError("expected identifier", at)

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def parse(self) -> ast.Statement:
        """Parse exactly one statement; trailing ``;`` is tolerated."""
        stmt = self._statement()
        self._accept_punct(";")
        leftover = self._peek()
        if leftover is not None:
            raise SqlParseError(
                f"unexpected trailing token {leftover.text!r}", leftover.start
            )
        return stmt

    def _statement(self) -> ast.Statement:
        if self._at_keyword("select") or (
            self._peek() is not None
            and self._peek().type is TokenType.PUNCTUATION
            and self._peek().text == "("
        ):
            return self._select_or_union()
        if self._at_keyword("insert", "replace"):
            return self._insert()
        if self._at_keyword("update"):
            return self._update()
        if self._at_keyword("delete"):
            return self._delete()
        tok = self._peek()
        at = tok.start if tok else 0
        raise SqlParseError("unsupported statement", at)

    def _select_or_union(self) -> ast.Select | ast.Union:
        selects = [self._select_core()]
        union_all = False
        saw_union = False
        while self._accept_keyword("union"):
            saw_union = True
            if self._accept_keyword("all"):
                union_all = True
            else:
                self._accept_keyword("distinct")
            selects.append(self._select_core())
        if not saw_union:
            sel = selects[0]
            order_by, limit, offset = self._order_limit()
            if order_by or limit is not None:
                sel = ast.Select(
                    items=sel.items,
                    table=sel.table,
                    joins=sel.joins,
                    where=sel.where,
                    group_by=sel.group_by,
                    having=sel.having,
                    order_by=sel.order_by or order_by,
                    limit=sel.limit if sel.limit is not None else limit,
                    offset=sel.offset if sel.offset is not None else offset,
                    distinct=sel.distinct,
                )
            return sel
        order_by, limit, offset = self._order_limit()
        # A trailing ORDER BY / LIMIT binds to the whole union, but the last
        # SELECT's core parse will already have consumed it -- hoist it.
        last = selects[-1]
        if not order_by and not limit and (last.order_by or last.limit is not None):
            order_by = last.order_by
            limit = last.limit
            offset = last.offset
            selects[-1] = ast.Select(
                items=last.items,
                table=last.table,
                joins=last.joins,
                where=last.where,
                group_by=last.group_by,
                having=last.having,
                distinct=last.distinct,
            )
        return ast.Union(
            selects=tuple(selects),
            all=union_all,
            order_by=order_by,
            limit=limit,
            offset=offset,
        )

    def _select_core(self) -> ast.Select:
        if self._accept_punct("("):
            inner = self._select_or_union()
            self._expect_punct(")")
            if isinstance(inner, ast.Union):
                raise SqlParseError("nested UNION parenthesisation unsupported", self.pos)
            return inner
        self._expect_keyword("select")
        distinct = bool(self._accept_keyword("distinct"))
        self._accept_keyword("all")
        items = [self._select_item()]
        while self._accept_punct(","):
            items.append(self._select_item())
        table: ast.TableRef | None = None
        joins: list[ast.Join] = []
        if self._accept_keyword("from"):
            table = self._table_ref()
            while True:
                join = self._maybe_join()
                if join is None:
                    break
                joins.append(join)
        where = self._expr() if self._accept_keyword("where") else None
        group_by: tuple[ast.Expr, ...] = ()
        if self._accept_keyword("group"):
            self._expect_keyword("by")
            keys = [self._expr()]
            while self._accept_punct(","):
                keys.append(self._expr())
            group_by = tuple(keys)
        having = self._expr() if self._accept_keyword("having") else None
        order_by, limit, offset = self._order_limit()
        return ast.Select(
            items=tuple(items),
            table=table,
            joins=tuple(joins),
            where=where,
            group_by=group_by,
            having=having,
            order_by=order_by,
            limit=limit,
            offset=offset,
            distinct=distinct,
        )

    def _order_limit(
        self,
    ) -> tuple[tuple[ast.OrderItem, ...], ast.Expr | None, ast.Expr | None]:
        order_by: list[ast.OrderItem] = []
        if self._accept_keyword("order"):
            self._expect_keyword("by")
            while True:
                expr = self._expr()
                descending = False
                if self._accept_keyword("desc"):
                    descending = True
                else:
                    self._accept_keyword("asc")
                order_by.append(ast.OrderItem(expr, descending))
                if not self._accept_punct(","):
                    break
        limit: ast.Expr | None = None
        offset: ast.Expr | None = None
        if self._accept_keyword("limit"):
            first = self._expr()
            if self._accept_punct(","):
                offset = first
                limit = self._expr()
            elif self._accept_keyword("offset"):
                limit = first
                offset = self._expr()
            else:
                limit = first
        return tuple(order_by), limit, offset

    def _select_item(self) -> ast.SelectItem:
        tok = self._peek()
        if tok is not None and tok.type is TokenType.OPERATOR and tok.text == "*":
            self._next()
            return ast.SelectItem(ast.Star())
        expr = self._expr()
        alias: str | None = None
        if self._accept_keyword("as"):
            alias = self._expect_identifier()
        else:
            nxt = self._peek()
            if nxt is not None and nxt.type is TokenType.IDENTIFIER:
                alias = self._expect_identifier()
        return ast.SelectItem(expr, alias)

    def _table_ref(self) -> ast.TableRef:
        if self._accept_punct("("):
            sub = self._select_or_union()
            self._expect_punct(")")
            alias = None
            if self._accept_keyword("as"):
                alias = self._expect_identifier()
            else:
                nxt = self._peek()
                if nxt is not None and nxt.type is TokenType.IDENTIFIER:
                    alias = self._expect_identifier()
            return ast.TableRef(subquery=sub, alias=alias)
        name = self._expect_identifier()
        # Dotted (schema-qualified) table names: information_schema.tables.
        dot = self._peek()
        if dot is not None and dot.type is TokenType.OPERATOR and dot.text == ".":
            self._next()
            name = f"{name}.{self._expect_identifier()}"
        alias = None
        if self._accept_keyword("as"):
            alias = self._expect_identifier()
        else:
            nxt = self._peek()
            if nxt is not None and nxt.type is TokenType.IDENTIFIER:
                alias = self._expect_identifier()
        return ast.TableRef(name=name, alias=alias)

    def _maybe_join(self) -> ast.Join | None:
        kind: str | None = None
        if self._accept_keyword("inner"):
            kind = "inner"
            self._expect_keyword("join")
        elif self._accept_keyword("cross"):
            kind = "cross"
            self._expect_keyword("join")
        elif self._accept_keyword("left"):
            self._accept_keyword("outer")
            kind = "left"
            self._expect_keyword("join")
        elif self._accept_keyword("right"):
            self._accept_keyword("outer")
            kind = "right"
            self._expect_keyword("join")
        elif self._accept_keyword("join"):
            kind = "inner"
        elif self._accept_punct(","):
            kind = "cross"
        if kind is None:
            return None
        table = self._table_ref()
        condition = None
        if self._accept_keyword("on"):
            condition = self._expr()
        elif self._accept_keyword("using"):
            self._expect_punct("(")
            col = self._expect_identifier()
            self._expect_punct(")")
            condition = ast.Binary("=", ast.ColumnRef(col), ast.ColumnRef(col))
        return ast.Join(kind, table, condition)

    def _insert(self) -> ast.Insert:
        replace = bool(self._accept_keyword("replace"))
        if not replace:
            self._expect_keyword("insert")
        self._accept_keyword("into")
        table = self._expect_identifier()
        columns: list[str] = []
        if self._accept_punct("("):
            columns.append(self._expect_identifier())
            while self._accept_punct(","):
                columns.append(self._expect_identifier())
            self._expect_punct(")")
        if self._accept_keyword("values"):
            rows: list[tuple[ast.Expr, ...]] = []
            while True:
                self._expect_punct("(")
                row = [self._expr()]
                while self._accept_punct(","):
                    row.append(self._expr())
                self._expect_punct(")")
                rows.append(tuple(row))
                if not self._accept_punct(","):
                    break
            return ast.Insert(
                table=table, columns=tuple(columns), rows=tuple(rows), replace=replace
            )
        if self._at_keyword("select"):
            select = self._select_or_union()
            return ast.Insert(
                table=table, columns=tuple(columns), select=select, replace=replace
            )
        if self._accept_keyword("set"):
            assignments = self._assignments()
            cols = tuple(c for c, _ in assignments)
            row = tuple(e for _, e in assignments)
            return ast.Insert(table=table, columns=cols, rows=(row,), replace=replace)
        tok = self._peek()
        raise SqlParseError("expected VALUES, SELECT or SET", tok.start if tok else 0)

    def _assignments(self) -> list[tuple[str, ast.Expr]]:
        assignments = [self._assignment()]
        while self._accept_punct(","):
            assignments.append(self._assignment())
        return assignments

    def _assignment(self) -> tuple[str, ast.Expr]:
        col = self._expect_identifier()
        if self._accept_operator("=") is None:
            tok = self._peek()
            raise SqlParseError("expected '=' in assignment", tok.start if tok else 0)
        return col, self._expr()

    def _update(self) -> ast.Update:
        self._expect_keyword("update")
        table = self._expect_identifier()
        self._expect_keyword("set")
        assignments = self._assignments()
        where = self._expr() if self._accept_keyword("where") else None
        limit = None
        if self._accept_keyword("limit"):
            limit = self._expr()
        return ast.Update(
            table=table, assignments=tuple(assignments), where=where, limit=limit
        )

    def _delete(self) -> ast.Delete:
        self._expect_keyword("delete")
        self._expect_keyword("from")
        table = self._expect_identifier()
        where = self._expr() if self._accept_keyword("where") else None
        limit = None
        if self._accept_keyword("limit"):
            limit = self._expr()
        return ast.Delete(table=table, where=where, limit=limit)

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def _expr(self) -> ast.Expr:
        return self._binary(0)

    def _binary(self, level: int) -> ast.Expr:
        if level >= len(_PRECEDENCE):
            return self._unary_postfix()
        # MySQL places NOT between AND and the comparison operators:
        # ``NOT a = 1`` negates the whole comparison.
        if level == 2 and self._accept_keyword("not"):
            return ast.Unary("not", self._binary(2))
        ops = _PRECEDENCE[level]
        left = self._binary(level + 1)
        while True:
            tok = self._peek()
            if tok is None:
                return left
            opname: str | None = None
            if tok.type is TokenType.KEYWORD and tok.value in ops:
                opname = str(tok.value)
            elif tok.type is TokenType.OPERATOR:
                text = tok.text
                if text == "||" and "or" in ops:
                    opname = "or"
                elif text == "&&" and "and" in ops:
                    opname = "and"
                elif text in ops:
                    opname = text
            if opname is None:
                return left
            self._next()
            right = self._binary(level + 1)
            left = ast.Binary(opname, left, right)

    def _unary_postfix(self) -> ast.Expr:
        tok = self._accept_operator("-", "+", "~", "!")
        if tok is not None:
            return ast.Unary(tok.text, self._unary_postfix())
        expr = self._primary()
        return self._postfix(expr)

    def _postfix(self, expr: ast.Expr) -> ast.Expr:
        while True:
            if self._accept_keyword("is"):
                negated = bool(self._accept_keyword("not"))
                if self._accept_keyword("null"):
                    expr = ast.IsNull(expr, negated)
                elif self._accept_keyword("true"):
                    cmp_ = ast.Binary("=", expr, ast.Literal(True))
                    expr = ast.Unary("not", cmp_) if negated else cmp_
                elif self._accept_keyword("false"):
                    cmp_ = ast.Binary("=", expr, ast.Literal(False))
                    expr = ast.Unary("not", cmp_) if negated else cmp_
                else:
                    tok = self._peek()
                    raise SqlParseError(
                        "expected NULL/TRUE/FALSE after IS", tok.start if tok else 0
                    )
                continue
            negated = False
            mark = self.pos
            if self._accept_keyword("not"):
                negated = True
            if self._accept_keyword("like") or self._accept_keyword("rlike", "regexp"):
                pattern = self._unary_postfix()
                expr = ast.Like(expr, pattern, negated)
                continue
            if self._accept_keyword("in"):
                self._expect_punct("(")
                if self._at_keyword("select"):
                    sub = self._select_or_union()
                    self._expect_punct(")")
                    expr = ast.InList(expr, (ast.SubqueryExpr(sub),), negated)
                else:
                    items = [self._expr()]
                    while self._accept_punct(","):
                        items.append(self._expr())
                    self._expect_punct(")")
                    expr = ast.InList(expr, tuple(items), negated)
                continue
            if self._accept_keyword("between"):
                low = self._binary(3)  # avoid consuming the AND separator
                self._expect_keyword("and")
                high = self._binary(3)
                expr = ast.Between(expr, low, high, negated)
                continue
            if negated:
                self.pos = mark  # bare NOT belongs to a boolean context
            return expr

    def _primary(self) -> ast.Expr:
        tok = self._peek()
        if tok is None:
            raise SqlParseError("unexpected end of expression", len(self.query))
        if tok.type is TokenType.NUMBER:
            self._next()
            return ast.Literal(tok.value)
        if tok.type is TokenType.STRING:
            self._next()
            return ast.Literal(tok.value)
        if tok.type is TokenType.PLACEHOLDER:
            self._next()
            return ast.Placeholder(tok.text)
        if tok.type is TokenType.KEYWORD:
            nxt = self._peek(1)
            if (
                nxt is not None
                and nxt.type is TokenType.PUNCTUATION
                and nxt.text == "("
                and is_sql_function(tok.text)
            ):
                # Keywords doubling as functions: REPLACE(), LEFT(), RIGHT().
                return self._identifier_or_call()
            if tok.value == "null":
                self._next()
                return ast.Literal(None)
            if tok.value == "true":
                self._next()
                return ast.Literal(True)
            if tok.value == "false":
                self._next()
                return ast.Literal(False)
            if tok.value == "case":
                return self._case()
            if tok.value == "exists":
                self._next()
                self._expect_punct("(")
                sub = self._select_or_union()
                self._expect_punct(")")
                return ast.ExistsExpr(sub)
            if tok.value in ("cast", "convert"):
                return self._cast()
            if tok.value == "binary":
                self._next()
                return ast.Unary("binary", self._unary_postfix())
            if tok.value == "distinct":
                # COUNT(DISTINCT x) is handled in _call(); bare DISTINCT here
                # is a syntax error.
                raise SqlParseError("unexpected DISTINCT", tok.start)
            if tok.value == "interval":
                self._next()
                amount = self._expr()
                unit = self._expect_identifier()
                return ast.FunctionCall("interval", (amount, ast.Literal(unit)))
        if tok.type is TokenType.PUNCTUATION and tok.text == "(":
            self._next()
            if self._at_keyword("select"):
                sub = self._select_or_union()
                self._expect_punct(")")
                return ast.SubqueryExpr(sub)
            expr = self._expr()
            self._expect_punct(")")
            return expr
        if tok.type is TokenType.OPERATOR and tok.text == "*":
            self._next()
            return ast.Star()
        if tok.type is TokenType.OPERATOR and tok.text == "@":
            # Session variables: @@version, @var.  Model as a function call so
            # they execute and count as critical in token analyses.
            self._next()
            self._accept_operator("@")
            name = self._expect_identifier()
            return ast.FunctionCall("sysvar", (ast.Literal(name),))
        if tok.type is TokenType.IDENTIFIER:
            if tok.text.lower() in ("cast", "convert"):
                nxt = self._peek(1)
                if (
                    nxt is not None
                    and nxt.type is TokenType.PUNCTUATION
                    and nxt.text == "("
                ):
                    return self._cast()
            return self._identifier_or_call()
        raise SqlParseError(f"unexpected token {tok.text!r}", tok.start)

    def _cast(self) -> ast.Expr:
        fn = self._next()  # cast / convert
        self._expect_punct("(")
        value = self._expr()
        if self._accept_keyword("as") or self._accept_punct(","):
            target = self._expect_identifier()
            if self._accept_punct("("):
                self._expr()
                self._expect_punct(")")
        else:
            target = "char"
        self._expect_punct(")")
        return ast.FunctionCall(str(fn.value), (value, ast.Literal(target)))

    def _case(self) -> ast.Expr:
        self._expect_keyword("case")
        operand = None
        if not self._at_keyword("when"):
            operand = self._expr()
        whens: list[tuple[ast.Expr, ast.Expr]] = []
        while self._accept_keyword("when"):
            cond = self._expr()
            self._expect_keyword("then")
            result = self._expr()
            whens.append((cond, result))
        default = self._expr() if self._accept_keyword("else") else None
        self._expect_keyword("end")
        if not whens:
            tok = self._peek()
            raise SqlParseError("CASE requires at least one WHEN", tok.start if tok else 0)
        return ast.CaseExpr(operand, tuple(whens), default)

    def _identifier_or_call(self) -> ast.Expr:
        tok = self._next()
        name = str(tok.value) if tok.text.startswith("`") else tok.text
        nxt = self._peek()
        if nxt is not None and nxt.type is TokenType.PUNCTUATION and nxt.text == "(":
            self._next()
            distinct = bool(self._accept_keyword("distinct"))
            args: list[ast.Expr] = []
            closing = self._peek()
            if not (
                closing is not None
                and closing.type is TokenType.PUNCTUATION
                and closing.text == ")"
            ):
                args.append(self._expr())
                while self._accept_punct(","):
                    args.append(self._expr())
            self._expect_punct(")")
            return ast.FunctionCall(name.lower(), tuple(args), distinct)
        if nxt is not None and nxt.type is TokenType.OPERATOR and nxt.text == ".":
            self._next()
            dotted = self._peek()
            if (
                dotted is not None
                and dotted.type is TokenType.OPERATOR
                and dotted.text == "*"
            ):
                self._next()
                return ast.Star(table=name)
            col = self._expect_identifier()
            return ast.ColumnRef(col, table=name)
        return ast.ColumnRef(name)


def parse_statement(query: str) -> ast.Statement:
    """Parse one SQL statement, raising :class:`SqlParseError` on failure."""
    return Parser(query).parse()
