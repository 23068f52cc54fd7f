"""RDF terms: IRIs, literals, blank nodes, and triples.

Terms are immutable, hashable value objects. Literal values carry an optional
datatype IRI and language tag, and :meth:`Literal.to_python` converts the
common XSD datatypes to native Python values for use in SPARQL filters.
"""

from __future__ import annotations

import itertools
import re
import threading
from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

from repro.errors import RDFError

_XSD = "http://www.w3.org/2001/XMLSchema#"

XSD_STRING = _XSD + "string"
XSD_INTEGER = _XSD + "integer"
XSD_DECIMAL = _XSD + "decimal"
XSD_DOUBLE = _XSD + "double"
XSD_BOOLEAN = _XSD + "boolean"
XSD_DATE = _XSD + "date"
XSD_DATETIME = _XSD + "dateTime"

_NUMERIC_DATATYPES = frozenset({XSD_INTEGER, XSD_DECIMAL, XSD_DOUBLE})

#: Finds a character no IRI may contain; one scan, run by every IRI built.
_IRI_FORBIDDEN = re.compile(r'[<>" \n\t]').search


@dataclass(frozen=True)
class IRI:
    """An absolute IRI reference."""

    value: str

    def __post_init__(self) -> None:
        if not self.value:
            raise RDFError("IRI must be non-empty")
        if _IRI_FORBIDDEN(self.value):
            raise RDFError(f"IRI contains forbidden character: {self.value!r}")

    def n3(self) -> str:
        return f"<{self.value}>"

    def __str__(self) -> str:
        return self.value


_bnode_counter = itertools.count()
_bnode_lock = threading.Lock()


@dataclass(frozen=True)
class BNode:
    """A blank node with a document-scoped label."""

    label: str = ""

    def __post_init__(self) -> None:
        if not self.label:
            with _bnode_lock:
                object.__setattr__(self, "label", f"b{next(_bnode_counter)}")
        if not self.label.replace("_", "").isalnum():
            raise RDFError(f"invalid blank node label: {self.label!r}")

    def n3(self) -> str:
        return f"_:{self.label}"

    def __str__(self) -> str:
        return f"_:{self.label}"


@dataclass(frozen=True)
class Literal:
    """An RDF literal with optional datatype IRI or language tag."""

    lexical: str
    datatype: Optional[str] = None
    language: Optional[str] = None

    def __post_init__(self) -> None:
        if self.datatype is not None and self.language is not None:
            raise RDFError("literal cannot have both datatype and language tag")
        if not isinstance(self.lexical, str):
            raise RDFError(f"literal lexical form must be str, got {type(self.lexical).__name__}")

    @staticmethod
    def from_python(value: Union[str, int, float, bool]) -> "Literal":
        """Build a typed literal from a native Python value."""
        if isinstance(value, bool):
            return Literal("true" if value else "false", datatype=XSD_BOOLEAN)
        if isinstance(value, int):
            return Literal(str(value), datatype=XSD_INTEGER)
        if isinstance(value, float):
            return Literal(repr(value), datatype=XSD_DOUBLE)
        if isinstance(value, str):
            return Literal(value)
        raise RDFError(f"cannot convert {type(value).__name__} to literal")

    def to_python(self) -> Union[str, int, float, bool]:
        """Convert to a native Python value based on the datatype."""
        if self.datatype == XSD_INTEGER:
            return int(self.lexical)
        if self.datatype in (XSD_DECIMAL, XSD_DOUBLE):
            return float(self.lexical)
        if self.datatype == XSD_BOOLEAN:
            return self.lexical in ("true", "1")
        return self.lexical

    @property
    def is_numeric(self) -> bool:
        return self.datatype in _NUMERIC_DATATYPES

    def n3(self) -> str:
        escaped = (
            self.lexical.replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n")
            .replace("\r", "\\r")
            .replace("\t", "\\t")
        )
        # \u-escape remaining control and Unicode line-break characters so the
        # serialized statement survives line-oriented processing.
        escaped = "".join(
            f"\\u{ord(ch):04x}" if ord(ch) < 0x20 or ch in "\x85\u2028\u2029" else ch
            for ch in escaped
        )
        if self.language:
            return f'"{escaped}"@{self.language}'
        if self.datatype and self.datatype != XSD_STRING:
            return f'"{escaped}"^^<{self.datatype}>'
        return f'"{escaped}"'

    def __str__(self) -> str:
        return self.lexical


Term = Union[IRI, BNode, Literal]


class Triple(NamedTuple):
    """An RDF triple. Subject/predicate positions are validated on creation
    via :func:`make_triple`; the bare NamedTuple is kept cheap for indexing."""

    subject: Term
    predicate: Term
    object: Term

    def n3(self) -> str:
        return f"{self.subject.n3()} {self.predicate.n3()} {self.object.n3()} ."


def make_triple(subject: Term, predicate: Term, obj: Term) -> Triple:
    """Validated triple constructor enforcing RDF position rules."""
    if isinstance(subject, Literal):
        raise RDFError("triple subject cannot be a literal")
    if not isinstance(predicate, IRI):
        raise RDFError("triple predicate must be an IRI")
    if not isinstance(obj, (IRI, BNode, Literal)):
        raise RDFError(f"invalid triple object: {obj!r}")
    return Triple(subject, predicate, obj)
