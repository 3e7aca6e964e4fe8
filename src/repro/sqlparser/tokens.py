"""SQL token model and the critical-token vocabulary.

Both taint inference components reason about *critical tokens* (paper
Sections II and III): SQL keywords, built-in function names, operators and
delimiters, and comments (treated as a single critical token).  An injection
occurs when attacker-controlled input is interpreted as one of these, or
changes the intended syntactic structure of a command.

Identifiers and literals in *data positions* are deliberately **not**
critical: the paper's pragmatic threat model (Section II) tolerates
applications that pass field and table names through user input, so marking
them critical would break common programs.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

__all__ = [
    "TokenType",
    "Token",
    "SQL_KEYWORDS",
    "SQL_FUNCTIONS",
    "is_sql_keyword",
    "is_sql_function",
]


class TokenType(enum.Enum):
    """Lexical category of a SQL token."""

    KEYWORD = "keyword"          # SELECT, UNION, OR, ...
    IDENTIFIER = "identifier"    # table/column names, incl. `quoted`
    NUMBER = "number"            # 42, 3.14, 0x1F
    STRING = "string"            # 'abc', "abc"
    OPERATOR = "operator"        # = <> <= || + - * / %
    PUNCTUATION = "punct"        # ( ) , ; .
    COMMENT = "comment"          # /* ... */, -- ..., # ...
    PLACEHOLDER = "placeholder"  # ? or :name (prepared statements)
    WHITESPACE = "whitespace"
    EOF = "eof"


#: Keywords of the MySQL-flavoured subset understood by the parser.  This set
#: doubles as the critical-keyword list for taint analysis, and as the filter
#: used during fragment extraction ("only fragments that contain at least one
#: valid SQL token need to be retained", Section IV-A).
SQL_KEYWORDS = frozenset(
    """
    select insert update delete replace from where and or not in is null like
    between union all distinct as order by group having limit offset join
    inner left right outer cross on using values set into create table drop
    alter index primary key unique auto_increment default references foreign
    asc desc case when then else end exists any some true false unknown
    interval div mod xor regexp rlike binary collate escape prepare execute
    deallocate begin commit rollback describe explain show grant revoke
    """.split()
)

#: Built-in SQL functions treated as critical tokens when they appear in call
#: position.  Includes the information-extraction and timing functions used
#: by real exploits (``username()``/``user()``, ``sleep``, ``benchmark``).
SQL_FUNCTIONS = frozenset(
    """
    count sum avg min max concat concat_ws substring substr length char
    ascii ord hex unhex lower upper trim ltrim rtrim replace sleep benchmark
    version user username current_user database schema now curdate curtime
    if ifnull nullif coalesce cast convert group_concat load_file rand md5
    sha1 floor ceil ceiling round abs greatest least instr locate mid left
    right elt field find_in_set format lpad rpad repeat reverse space
    strcmp make_set extractvalue updatexml
    """.split()
)


def is_sql_keyword(word: str) -> bool:
    """True when ``word`` (case-insensitive) is a keyword of our SQL subset."""
    return word.lower() in SQL_KEYWORDS


def is_sql_function(word: str) -> bool:
    """True when ``word`` (case-insensitive) names a built-in SQL function."""
    return word.lower() in SQL_FUNCTIONS


#: Operators that count as security-critical.  Comparison and logical
#: operators (and the projection star) can change what a query returns;
#: arithmetic signs, the dot qualifier and grouping punctuation cannot, and
#: the paper's own Figure 3B treats ``-1 UNION SELECT username()`` as having
#: exactly three uncovered critical tokens (UNION, SELECT, username()) --
#: the minus sign, parentheses and the comma are data-plumbing, not code.
CRITICAL_OPERATORS = frozenset(
    {"=", "<", ">", "<=", ">=", "<>", "!=", "<=>", "||", "&&", "!", "*", "@"}
)

#: Statement delimiter; the only critical punctuation (stacked queries).
CRITICAL_PUNCTUATION = frozenset({";"})


class _TokenBase(NamedTuple):
    """Field layout of :class:`Token` (see there for semantics)."""

    type: TokenType
    text: str
    start: int
    end: int
    value: object = None


class Token(_TokenBase):
    """A lexed SQL token with its exact source span.

    A ``NamedTuple`` rather than a (frozen) dataclass: ``critical_tokens``
    allocates one of these per critical token of every analysed query, and
    ``tokenize`` one per token, whitespace and stray-character operators
    included, so this is a hot allocation site.  Tuple construction is several times
    cheaper than a frozen-dataclass ``__init__`` (which pays
    ``object.__setattr__`` per field), the instances carry no ``__dict__``,
    and attribute reads compile to C-level item access.  Equality and
    hashing keep the exact semantics of the previous frozen dataclass: all
    five fields participate.  No pipe carries tokens as objects: the daemon
    pipe sends critical tokens as ``(type, start, end)`` spans and the
    receiver rebuilds them (:mod:`repro.pti.wire`).

    The NamedTuple metaclass refuses ``__new__`` overrides in its own body,
    so the layout lives in :class:`_TokenBase` and this subclass layers the
    value-defaulting rule (``value=None`` means "same as text", previously
    ``__post_init__``) on top.  ``__slots__`` stays empty: the tuple items
    are the storage.

    Attributes:
        type: lexical category.
        text: the exact source text (including quotes for strings, comment
            delimiters for comments).
        start: offset of the first character in the query string.
        end: offset one past the last character.
        value: normalised semantic value -- unquoted string contents,
            numeric value as ``int``/``float``, lowercased keyword, or the
            raw text for other categories.
    """

    __slots__ = ()

    def __new__(
        cls,
        type: TokenType,
        text: str,
        start: int,
        end: int,
        value: object = None,
    ) -> "Token":
        if value is None:
            value = text
        return tuple.__new__(cls, (type, text, start, end, value))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.type.name}, {self.text!r}, {self.start}:{self.end})"
