"""Abstract syntax tree for the SPARQL subset.

The parser produces these nodes; :mod:`repro.sparql.algebra` compiles them to
executable operators. Expressions form their own small tree evaluated per
solution by the evaluator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

from repro.rdf.term import Term


class Variable(NamedTuple):
    """A SPARQL variable, e.g. ``?name``.

    A named tuple rather than a frozen dataclass: variables key every
    solution dict, and the tuple's hash and equality run in C, where a
    dataclass pays a Python frame per dict insert. Terms are dataclasses, so
    a variable never compares equal to one.
    """

    name: str

    def __str__(self) -> str:
        return f"?{self.name}"


TermOrVar = Union[Term, Variable]


@dataclass(frozen=True)
class TriplePattern:
    """A triple pattern whose positions may be variables."""

    subject: TermOrVar
    predicate: TermOrVar
    object: TermOrVar

    def variables(self) -> Tuple[Variable, ...]:
        return tuple(
            t for t in (self.subject, self.predicate, self.object)
            if isinstance(t, Variable)
        )


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

class Expression:
    """Base class for filter/select expressions."""


@dataclass(frozen=True)
class TermExpr(Expression):
    """A constant RDF term used in an expression."""

    term: Term


@dataclass(frozen=True)
class VarExpr(Expression):
    """A variable reference in an expression."""

    variable: Variable


@dataclass(frozen=True)
class UnaryOp(Expression):
    """``!expr`` or ``-expr``."""

    operator: str
    operand: Expression


@dataclass(frozen=True)
class BinaryOp(Expression):
    """Comparison, arithmetic, or logical binary operation."""

    operator: str  # one of = != < <= > >= + - * / && ||
    left: Expression
    right: Expression


@dataclass(frozen=True)
class FunctionCall(Expression):
    """A built-in (by name) or extension (by IRI) function call."""

    name: str  # builtin name (upper case) or absolute function IRI
    args: Tuple[Expression, ...]


# ---------------------------------------------------------------------------
# Graph patterns
# ---------------------------------------------------------------------------

class GraphPattern:
    """Base class for WHERE-clause patterns."""


@dataclass
class BGP(GraphPattern):
    """A basic graph pattern: a conjunction of triple patterns."""

    patterns: List[TriplePattern] = field(default_factory=list)


@dataclass
class FilterPattern(GraphPattern):
    """``FILTER (expr)`` applied to the group it appears in."""

    expression: Expression


@dataclass
class OptionalPattern(GraphPattern):
    """``OPTIONAL { ... }``."""

    pattern: "GroupPattern"


@dataclass
class UnionPattern(GraphPattern):
    """``{ ... } UNION { ... }``."""

    alternatives: List["GroupPattern"]


@dataclass
class BindPattern(GraphPattern):
    """``BIND (expr AS ?var)`` — extends solutions with a computed value."""

    variable: Variable
    expression: Expression


@dataclass
class ValuesPattern(GraphPattern):
    """``VALUES (?a ?b) { (t1 t2) ... }`` — an inline solution table.

    ``rows`` holds one Optional[Term] per variable; None encodes UNDEF.
    """

    variables: List[Variable]
    rows: List[List[Optional[Term]]]


@dataclass
class GroupPattern(GraphPattern):
    """A braced group: an ordered sequence of child patterns."""

    children: List[GraphPattern] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Query forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrderCondition:
    expression: Expression
    descending: bool = False


@dataclass(frozen=True)
class Aggregate:
    """An aggregate in the SELECT clause, e.g. ``(COUNT(?x) AS ?n)``."""

    function: str  # COUNT, SUM, MIN, MAX, AVG
    argument: Optional[Expression]  # None for COUNT(*)
    alias: Variable
    distinct: bool = False


@dataclass
class SelectQuery:
    """A parsed SELECT query."""

    variables: List[Variable]  # empty means SELECT *
    where: GroupPattern
    distinct: bool = False
    order_by: List[OrderCondition] = field(default_factory=list)
    limit: Optional[int] = None
    offset: int = 0
    aggregates: List[Aggregate] = field(default_factory=list)
    group_by: List[Variable] = field(default_factory=list)

    @property
    def is_aggregate(self) -> bool:
        return bool(self.aggregates)


@dataclass
class AskQuery:
    """A parsed ASK query."""

    where: GroupPattern
