"""Tokenizer for the SPARQL subset, and the normaliser that splits a query
text into a template and the constants it was written with."""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Tuple

from repro.errors import SPARQLSyntaxError

#: (kind, pattern) in match order; the tokenizer and the normaliser both
#: build their regex from this one list.
_TOKEN_KINDS = (
    ("comment", r"\#[^\n]*"),
    ("iri", r"<[^<>\"\s]*>"),
    ("string", r"\"(?:[^\"\\]|\\.)*\"|'(?:[^'\\]|\\.)*'"),
    ("var", r"[?$][A-Za-z_][A-Za-z0-9_]*"),
    ("number", r"[-+]?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?"),
    ("dtype", r"\^\^"),
    ("lang", r"@[A-Za-z]+(?:-[A-Za-z0-9]+)*"),
    ("op", r"&&|\|\||!=|<=|>=|[=<>!+\-*/]"),
    ("pname", r"[A-Za-z_][\w-]*:[\w.#/-]*|:[\w.#/-]+"),
    ("keyword", r"[A-Za-z_][A-Za-z0-9_]*"),
    ("punct", r"[{}().,;\[\]]"),
    ("ws", r"\s+"),
)


def _alternation(kinds) -> "re.Pattern[str]":
    return re.compile("|".join(f"(?P<{kind}>{pattern})" for kind, pattern in kinds))


_TOKEN_RE = _alternation(_TOKEN_KINDS)
#: The same alternatives without whitespace: ``finditer`` steps over blanks
#: by itself, so the normaliser visits tokens and comments only. No other
#: alternative can start on a blank, so both split a valid text alike.
_SCAN_RE = _alternation(k for k in _TOKEN_KINDS if k[0] != "ws")


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    position: int


def tokenize(query: str) -> List[Token]:
    """Split query text into tokens; raises on unrecognised input."""
    tokens: List[Token] = []
    pos = 0
    while pos < len(query):
        match = _TOKEN_RE.match(query, pos)
        if match is None:
            raise SPARQLSyntaxError(
                f"unexpected character at offset {pos}: {query[pos:pos+20]!r}"
            )
        kind = match.lastgroup or ""
        if kind not in ("ws", "comment"):
            tokens.append(Token(kind, match.group(), pos))
        pos = match.end()
    return tokens


# ---------------------------------------------------------------------------
# Normaliser: (template, params)
# ---------------------------------------------------------------------------

#: A slot in a template is this character and the slot's kind letter; a text
#: holding it is never templated, so a template reads back one way only.
SLOT = "\x00"


class Normalised(NamedTuple):
    """A query text split into its template and its lifted constants.

    ``template`` is the text with every lifted token replaced by
    :data:`SLOT` and a kind letter: ``I`` an ``<iri>``, ``P`` the local
    part of a prefixed name (its ``prefix:`` stays in the template), ``i``,
    ``d``, ``e`` an integer, decimal or double, ``s`` a string (its ``^^``
    datatype or ``@`` language tag stays in the template). ``params`` are
    the lifted texts in order (a prefixed name's local part, any other
    token whole) and ``starts`` the offsets of their tokens. Slots are
    positional: a constant written twice is two slots.
    """

    template: str
    params: Tuple[str, ...]
    starts: Tuple[int, ...]


# Where a term token sits inside a triples block.
_SUBJECT, _PREDICATE, _OBJECT, _AFTER_OBJECT = range(4)
_NEXT_POSITION = {
    _SUBJECT: _PREDICATE,
    _PREDICATE: _OBJECT,
    _OBJECT: _AFTER_OBJECT,
    _AFTER_OBJECT: _AFTER_OBJECT,
}
_TERM_KINDS = frozenset(("iri", "pname", "string", "number"))
#: Keywords whose following tokens are never lifted, and how many.
_PROTECTS = {"PREFIX": 2, "BASE": 1, "LIMIT": 1, "OFFSET": 1}
_MARKS = {"iri": "I", "string": "s"}


def _number_kind(text: str) -> str:
    if "e" in text or "E" in text:
        return "e"
    return "d" if "." in text else "i"


def normalise(query: str) -> Optional[Normalised]:
    """Split *query* into ``(template, params, starts)``; None for a text
    holding :data:`SLOT`.

    Lifted: literals, and IRIs or prefixed names in subject and object
    positions, in expressions and in VALUES rows. Never lifted: predicates,
    ``PREFIX``/``BASE`` IRIs, function names (a name followed by ``(``),
    ``^^`` datatypes, language tags, ``true``/``false`` and ``LIMIT``/
    ``OFFSET`` numbers. The split is the tokenizer's own regex; a text the
    tokenizer rejects still normalises, and its parse raises as usual.
    """
    if SLOT in query:
        return None
    matches = [m for m in _SCAN_RE.finditer(query) if m.lastgroup != "comment"]
    pieces: List[str] = []
    params: List[str] = []
    starts: List[int] = []
    last = 0
    depth = braces = 0  # open parentheses, open braces
    values_at = -1  # brace depth of an open VALUES data block
    values_next = False
    protected = 0  # tokens before this index are never lifted
    position = _SUBJECT
    for index, match in enumerate(matches):
        kind = match.lastgroup
        if kind == "punct":
            char = match.group()
            if char == "(":
                depth += 1
            elif char == ")":
                depth -= 1
            elif depth:
                pass  # a comma between call arguments
            elif char == "{":
                braces += 1
                if values_next:
                    values_at, values_next = braces, False
                position = _SUBJECT
            elif char == "}":
                if braces == values_at:
                    values_at = -1
                braces -= 1
                position = _SUBJECT
            elif char == "." or position != _AFTER_OBJECT:
                position = _SUBJECT
            else:
                position = _OBJECT if char == "," else _PREDICATE
            continue
        if kind == "dtype":
            protected = index + 2
            continue
        if kind == "keyword":
            word = match.group()
            if word in ("a", "true", "false"):
                if not depth:
                    position = _NEXT_POSITION[position]
                continue
            word = word.upper()
            protected = index + 1 + _PROTECTS.get(word, 0)
            values_next = values_next or word == "VALUES"
            if not depth:
                position = _SUBJECT
            continue
        if kind == "var":
            if not depth:
                position = _NEXT_POSITION[position]
            continue
        if kind not in _TERM_KINDS:
            continue  # op, lang
        if depth or values_at > 0:
            # An expression or a VALUES row: all but function names.
            lift = index >= protected and not (
                kind in ("iri", "pname")
                and index + 1 < len(matches)
                and matches[index + 1].group() == "("
            )
        elif braces:
            lift = index >= protected and position in (_SUBJECT, _OBJECT)
            position = _NEXT_POSITION[position]
        else:
            lift = False
        if not lift:
            continue
        start, end = match.span()
        text = match.group()
        if kind == "pname":
            local = text.index(":") + 1
            pieces.append(query[last:start + local])
            params.append(text[local:])
            mark = "P"
        else:
            pieces.append(query[last:start])
            params.append(text)
            mark = _MARKS.get(kind) or _number_kind(text)
        pieces.append(SLOT + mark)
        starts.append(start)
        last = end
    pieces.append(query[last:])
    return Normalised("".join(pieces), tuple(params), tuple(starts))
