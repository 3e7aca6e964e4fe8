"""SQL lexing, parsing and structural analysis substrate.

The pieces consumed elsewhere in the system:

- :func:`tokenize` / :func:`tokenize_significant` -- lossless lexing with
  exact source spans (NTI's whole-token rule, PTI's containment rule).
- :func:`parse_statement` -- AST construction for the database engine.
- :func:`critical_tokens` -- the critical-token extraction shared by NTI and
  PTI (paper Sections II/III).
- :func:`skeletonize` -- literal-masked query skeletons, the key of the
  shape fast path and of the PTI structure cache (Section VI-A).
"""

from .ast_nodes import (
    Between,
    Binary,
    CaseExpr,
    ColumnRef,
    Delete,
    ExistsExpr,
    Expr,
    FunctionCall,
    InList,
    Insert,
    IsNull,
    Join,
    Like,
    Literal,
    Node,
    OrderItem,
    Placeholder,
    Select,
    SelectItem,
    Star,
    Statement,
    SubqueryExpr,
    TableRef,
    Union,
    Unary,
    Update,
)
from .lexer import tokenize, tokenize_significant
from .parser import Parser, SqlParseError, critical_tokens, parse_statement
from .skeleton import LiteralSlot, Skeleton, skeletonize
from .tokens import (
    SQL_FUNCTIONS,
    SQL_KEYWORDS,
    Token,
    TokenType,
    is_sql_function,
    is_sql_keyword,
)

__all__ = [
    "Between",
    "Binary",
    "CaseExpr",
    "ColumnRef",
    "Delete",
    "ExistsExpr",
    "Expr",
    "FunctionCall",
    "InList",
    "Insert",
    "IsNull",
    "Join",
    "Like",
    "Literal",
    "Node",
    "OrderItem",
    "Placeholder",
    "Select",
    "SelectItem",
    "Star",
    "Statement",
    "SubqueryExpr",
    "TableRef",
    "Union",
    "Unary",
    "Update",
    "tokenize",
    "tokenize_significant",
    "Parser",
    "SqlParseError",
    "critical_tokens",
    "parse_statement",
    "LiteralSlot",
    "Skeleton",
    "skeletonize",
    "SQL_FUNCTIONS",
    "SQL_KEYWORDS",
    "Token",
    "TokenType",
    "is_sql_function",
    "is_sql_keyword",
]
