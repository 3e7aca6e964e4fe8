"""The lexical grammar as a per-character loop, and the critical-token rule.

This is the character-loop lexer ``repro.sqlparser.lexer`` used before it
became one compiled pattern, kept as the oracle: property suites hold
``tokenize``, ``critical_tokens`` and the skeleton's literal slots equal to
it.  It shares no scanning or decoding code with the implementation, only
the token model (:class:`Token`, :class:`TokenType`) and the vocabulary
(keywords, functions, critical operators).

The critical-token rule (paper Sections II-III) is read off the token
stream: keywords, comments, the operators in ``CRITICAL_OPERATORS``, the
statement delimiter ``;``, and built-in function names whose next
significant token is ``(``.  Under ``strict`` (the Ray/Ligatti-style
policy) every identifier is critical too.

Python 3.9 compatible: tier-1 CI runs 3.9.
"""

from repro.sqlparser.tokens import (
    CRITICAL_OPERATORS,
    CRITICAL_PUNCTUATION,
    SQL_FUNCTIONS,
    SQL_KEYWORDS,
    Token,
    TokenType,
)

_OPERATOR_STARTS = set("=<>!+-*/%&|^~.")
_TWO_CHAR_OPERATORS = {
    "<=", ">=", "<>", "!=", ":=", "||", "&&", "<<", ">>", "->",
}
_PUNCTUATION = set("(),;")


def _lex_line_comment(text, pos):
    """Return the end offset of a comment running to end-of-line."""
    end = text.find("\n", pos)
    return len(text) if end < 0 else end


def _lex_block_comment(text, pos):
    """Return the end offset of a ``/* ... */`` comment (inclusive of ``*/``).

    An unterminated block comment swallows the rest of the query.
    """
    end = text.find("*/", pos + 2)
    return len(text) if end < 0 else end + 2


def _lex_quoted(text, pos, quote):
    """Return end offset of a quoted region starting at ``pos``.

    Handles backslash escapes and doubled-quote escapes (``''`` inside a
    single-quoted string).  Unterminated strings run to end of input.
    """
    i = pos + 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\\" and quote != "`":
            i += 2
            continue
        if ch == quote:
            if i + 1 < n and text[i + 1] == quote:
                i += 2
                continue
            return i + 1
        i += 1
    return n


def _string_value(raw, quote):
    """Decode the semantic value of a quoted literal."""
    body = raw[1:]
    if body.endswith(quote):
        body = body[:-1]
    if quote == "`":
        return body.replace("``", "`")
    out = []
    i = 0
    n = len(body)
    while i < n:
        ch = body[i]
        if ch == "\\" and i + 1 < n:
            nxt = body[i + 1]
            out.append({"n": "\n", "t": "\t", "r": "\r", "0": "\0"}.get(nxt, nxt))
            i += 2
        elif ch == quote and i + 1 < n and body[i + 1] == quote:
            out.append(quote)
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


_ASCII_DIGITS = "0123456789"


def _is_ascii_digit(ch):
    # str.isdigit() accepts Unicode digits (e.g. superscripts) that int()
    # rejects; SQL numbers are ASCII only.
    return ch in _ASCII_DIGITS


def _scan_number(text, pos):
    """Span of a numeric literal starting at ``pos``: ``(end, kind)``.

    ``kind`` is ``"hex"``, ``"int"`` or ``"float"``.
    """
    n = len(text)
    i = pos
    if text.startswith(("0x", "0X"), pos):
        i = pos + 2
        while i < n and text[i] in "0123456789abcdefABCDEF":
            i += 1
        if i > pos + 2:
            return i, "hex"
        i = pos  # bare "0x" -- treat as plain number 0 then identifier
    seen_dot = False
    seen_exp = False
    while i < n:
        ch = text[i]
        if _is_ascii_digit(ch):
            i += 1
        elif ch == "." and not seen_dot and not seen_exp:
            seen_dot = True
            i += 1
        elif ch in "eE" and not seen_exp and i > pos and _is_ascii_digit(text[i - 1]):
            if i + 1 < n and _is_ascii_digit(text[i + 1]):
                seen_exp = True
                i += 2
            elif (
                i + 2 < n
                and text[i + 1] in "+-"
                and _is_ascii_digit(text[i + 2])
            ):
                seen_exp = True
                i += 3
            else:
                break
        else:
            break
    return i, ("float" if seen_dot or seen_exp else "int")


def _lex_number(text, pos):
    """Lex a numeric literal; returns (end, value)."""
    end, kind = _scan_number(text, pos)
    raw = text[pos:end]
    if kind == "hex":
        return end, int(raw, 16)
    if kind == "float":
        return end, float(raw)
    return end, int(raw)


def _is_ident_start(ch):
    return ch.isalpha() or ch == "_" or ch == "$" or ord(ch) > 127


def _is_ident_char(ch):
    return ch.isalnum() or ch == "_" or ch == "$" or ord(ch) > 127


def tokenize(query):
    """Tokenize ``query`` into a lossless token list (whitespace included).

    Never raises on malformed input; the final element is always an ``EOF``
    token with an empty ``text``.
    """
    tokens = []
    pos = 0
    n = len(query)
    append = tokens.append
    _Token = Token
    _TT = TokenType
    while pos < n:
        ch = query[pos]
        if ch.isspace():
            end = pos + 1
            while end < n and query[end].isspace():
                end += 1
            append(_Token(_TT.WHITESPACE, query[pos:end], pos, end))
            pos = end
            continue
        if ch == "#":
            end = _lex_line_comment(query, pos)
            append(_Token(_TT.COMMENT, query[pos:end], pos, end))
            pos = end
            continue
        if query.startswith("--", pos):
            # MySQL requires whitespace (or end) after --, but attack payloads
            # often use bare "--"; accept both.
            end = _lex_line_comment(query, pos)
            append(_Token(_TT.COMMENT, query[pos:end], pos, end))
            pos = end
            continue
        if query.startswith("/*", pos):
            end = _lex_block_comment(query, pos)
            append(_Token(_TT.COMMENT, query[pos:end], pos, end))
            pos = end
            continue
        if ch in "'\"`":
            end = _lex_quoted(query, pos, ch)
            raw = query[pos:end]
            ttype = _TT.IDENTIFIER if ch == "`" else _TT.STRING
            append(_Token(ttype, raw, pos, end, value=_string_value(raw, ch)))
            pos = end
            continue
        if ch in _ASCII_DIGITS or (
            ch == "." and pos + 1 < n and query[pos + 1] in _ASCII_DIGITS
        ):
            end, value = _lex_number(query, pos)
            append(_Token(_TT.NUMBER, query[pos:end], pos, end, value=value))
            pos = end
            continue
        if ch == "?":
            append(_Token(_TT.PLACEHOLDER, "?", pos, pos + 1))
            pos += 1
            continue
        if ch == ":" and pos + 1 < n and _is_ident_start(query[pos + 1]):
            end = pos + 1
            while end < n and _is_ident_char(query[end]):
                end += 1
            append(_Token(_TT.PLACEHOLDER, query[pos:end], pos, end))
            pos = end
            continue
        if _is_ident_start(ch):
            end = pos + 1
            while end < n and _is_ident_char(query[end]):
                end += 1
            word = query[pos:end]
            if word.lower() in SQL_KEYWORDS:
                append(_Token(_TT.KEYWORD, word, pos, end, value=word.lower()))
            else:
                append(_Token(_TT.IDENTIFIER, word, pos, end))
            pos = end
            continue
        if ch in _PUNCTUATION:
            append(_Token(_TT.PUNCTUATION, ch, pos, pos + 1))
            pos += 1
            continue
        if ch in _OPERATOR_STARTS or ch in "@:":
            if query.startswith("<=>", pos):
                append(_Token(_TT.OPERATOR, "<=>", pos, pos + 3))
                pos += 3
                continue
            two = query[pos : pos + 2]
            if two in _TWO_CHAR_OPERATORS:
                append(_Token(_TT.OPERATOR, two, pos, pos + 2))
                pos += 2
            else:
                append(_Token(_TT.OPERATOR, ch, pos, pos + 1))
                pos += 1
            continue
        # Unknown character: surface it as a critical one-char operator so
        # attack payloads using exotic bytes remain visible to the analyses.
        append(_Token(_TT.OPERATOR, ch, pos, pos + 1))
        pos += 1
    append(_Token(_TT.EOF, "", n, n))
    return tokens


def is_critical(token, next_is_call, strict):
    """Whether one token is security-critical per the paper's model."""
    if token.type in (TokenType.KEYWORD, TokenType.COMMENT):
        return True
    if token.type is TokenType.OPERATOR:
        return token.text in CRITICAL_OPERATORS
    if token.type is TokenType.PUNCTUATION:
        return token.text in CRITICAL_PUNCTUATION
    if token.type is TokenType.IDENTIFIER:
        if strict:
            return True
        return next_is_call and token.text.lower() in SQL_FUNCTIONS
    return False


def critical_tokens(query, strict=False):
    """The critical tokens of ``query``, in source order."""
    stream = [
        t
        for t in tokenize(query)
        if t.type not in (TokenType.WHITESPACE, TokenType.EOF)
    ]
    critical = []
    for idx, tok in enumerate(stream):
        nxt = stream[idx + 1] if idx + 1 < len(stream) else None
        next_is_call = (
            nxt is not None
            and nxt.type is TokenType.PUNCTUATION
            and nxt.text == "("
        )
        if is_critical(tok, next_is_call, strict):
            critical.append(tok)
    return critical


def literal_spans(query):
    """``(start, end, kind)`` of every STRING (``"s"``) and NUMBER (``"n"``)."""
    kinds = {TokenType.STRING: "s", TokenType.NUMBER: "n"}
    return [
        (t.start, t.end, kinds[t.type]) for t in tokenize(query) if t.type in kinds
    ]
