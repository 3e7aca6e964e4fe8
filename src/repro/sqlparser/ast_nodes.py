"""AST node definitions for the SQL subset.

Nodes are plain frozen dataclasses.  The **database engine** executes them
directly, so the node set covers the statements the testbed applications
actually issue, including everything exploits need (UNION, subqueries,
sleep/benchmark calls, tautological predicates, comments).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "Node",
    "Expr",
    "Literal",
    "ColumnRef",
    "Star",
    "Placeholder",
    "Unary",
    "Binary",
    "FunctionCall",
    "InList",
    "Between",
    "IsNull",
    "Like",
    "CaseExpr",
    "SubqueryExpr",
    "ExistsExpr",
    "SelectItem",
    "TableRef",
    "Join",
    "OrderItem",
    "Select",
    "Union",
    "Insert",
    "Update",
    "Delete",
    "Statement",
]


class Node:
    """Base class for all AST nodes.

    The bases carry empty ``__slots__`` so the hot-path leaf nodes below can
    opt out of per-instance ``__dict__`` entirely.  Only leaves whose fields
    all lack defaults declare slots: a dataclass field *with* a default
    becomes a class attribute, which collides with the slot descriptor of
    the same name (a restriction of declaring ``__slots__`` manually, which
    is what Python 3.9 -- the oldest CI interpreter -- requires; the
    ``slots=True`` dataclass flag is 3.10+).  Leaves without slots simply
    keep their ``__dict__`` -- no behaviour change.
    """

    __slots__ = ()


class Expr(Node):
    """Base class for expressions."""

    __slots__ = ()


@dataclass(frozen=True)
class Literal(Expr):
    """A constant: number, string, boolean or NULL.  This is a *data node*."""

    __slots__ = ("value",)

    value: object


@dataclass(frozen=True)
class ColumnRef(Expr):
    """Reference to a column, optionally qualified by table name."""

    name: str
    table: str | None = None


@dataclass(frozen=True)
class Star(Expr):
    """The ``*`` select item (optionally ``t.*``)."""

    table: str | None = None


@dataclass(frozen=True)
class Placeholder(Expr):
    """A prepared-statement placeholder, ``?`` or ``:name``."""

    __slots__ = ("name",)

    name: str


@dataclass(frozen=True)
class Unary(Expr):
    """Unary operator application (``-x``, ``NOT x``)."""

    __slots__ = ("op", "operand")

    op: str
    operand: Expr


@dataclass(frozen=True)
class Binary(Expr):
    """Binary operator application (arithmetic, comparison, AND/OR)."""

    __slots__ = ("op", "left", "right")

    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class FunctionCall(Expr):
    """Built-in function invocation, e.g. ``SLEEP(5)`` or ``CONCAT(a, b)``."""

    name: str
    args: tuple[Expr, ...] = ()
    distinct: bool = False


@dataclass(frozen=True)
class InList(Expr):
    """``expr [NOT] IN (e1, e2, ...)`` or ``expr [NOT] IN (subquery)``."""

    needle: Expr
    items: tuple[Expr, ...]
    negated: bool = False


@dataclass(frozen=True)
class Between(Expr):
    """``expr [NOT] BETWEEN low AND high``."""

    needle: Expr
    low: Expr
    high: Expr
    negated: bool = False


@dataclass(frozen=True)
class IsNull(Expr):
    """``expr IS [NOT] NULL``."""

    operand: Expr
    negated: bool = False


@dataclass(frozen=True)
class Like(Expr):
    """``expr [NOT] LIKE pattern``."""

    operand: Expr
    pattern: Expr
    negated: bool = False


@dataclass(frozen=True)
class CaseExpr(Expr):
    """``CASE [operand] WHEN ... THEN ... [ELSE ...] END``."""

    operand: Expr | None
    whens: tuple[tuple[Expr, Expr], ...]
    default: Expr | None = None


@dataclass(frozen=True)
class SubqueryExpr(Expr):
    """A parenthesised SELECT used as a scalar or row expression."""

    __slots__ = ("select",)

    select: "Select | Union"


@dataclass(frozen=True)
class ExistsExpr(Expr):
    """``EXISTS (subquery)``."""

    __slots__ = ("select",)

    select: "Select | Union"


@dataclass(frozen=True)
class SelectItem(Node):
    """One projection item with optional alias."""

    expr: Expr
    alias: str | None = None


@dataclass(frozen=True)
class TableRef(Node):
    """A table in the FROM clause (or a derived table)."""

    name: str | None = None
    alias: str | None = None
    subquery: "Select | Union | None" = None


@dataclass(frozen=True)
class Join(Node):
    """A join clause attached to the preceding table reference."""

    kind: str  # "inner" | "left" | "right" | "cross"
    table: TableRef
    condition: Expr | None = None


@dataclass(frozen=True)
class OrderItem(Node):
    """One ORDER BY key."""

    expr: Expr
    descending: bool = False


class Statement(Node):
    """Base class for executable statements."""

    __slots__ = ()


@dataclass(frozen=True)
class Select(Statement):
    """A single SELECT block (no set operators)."""

    items: tuple[SelectItem, ...]
    table: TableRef | None = None
    joins: tuple[Join, ...] = ()
    where: Expr | None = None
    group_by: tuple[Expr, ...] = ()
    having: Expr | None = None
    order_by: tuple[OrderItem, ...] = ()
    limit: Expr | None = None
    offset: Expr | None = None
    distinct: bool = False


@dataclass(frozen=True)
class Union(Statement):
    """``SELECT ... UNION [ALL] SELECT ...`` chains."""

    selects: tuple[Select, ...]
    all: bool = False
    order_by: tuple[OrderItem, ...] = ()
    limit: Expr | None = None
    offset: Expr | None = None


@dataclass(frozen=True)
class Insert(Statement):
    """``INSERT INTO t (cols) VALUES (...), (...)`` or ``INSERT ... SELECT``."""

    table: str
    columns: tuple[str, ...] = ()
    rows: tuple[tuple[Expr, ...], ...] = ()
    select: Select | Union | None = None
    replace: bool = False


@dataclass(frozen=True)
class Update(Statement):
    """``UPDATE t SET col = expr, ... [WHERE ...] [LIMIT n]``."""

    table: str
    assignments: tuple[tuple[str, Expr], ...]
    where: Expr | None = None
    limit: Expr | None = None


@dataclass(frozen=True)
class Delete(Statement):
    """``DELETE FROM t [WHERE ...] [LIMIT n]``."""

    table: str
    where: Expr | None = None
    limit: Expr | None = None

