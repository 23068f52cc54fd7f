"""Template plans: one parse and one plan per query template, bound per text.

A service asks one question with many constants ("how many icebergs in
this box at that time"), so most texts it sees are new while their
templates are not. :func:`repro.sparql.tokenizer.normalise` splits a text
into ``(template, params)``; this module keeps what a template needs to
serve a new text without parsing or planning it:

* a :class:`Template` — the AST of the first text of the template, which of
  its term objects are the slots, and how each slot's term is made from a
  lifted token (the parser's own constructors);
* a :class:`TemplatePlan` — a tree planned from one text of the template,
  with the slot terms it was planned with.

Binding copies the AST or tree along the paths that hold a slot, puts the
new text's terms in, and shares every other node. Slots are found by object
identity, never by value, so two equal constants stay two slots.

A plan is reused for another text only where the planner could not have
told the two apart: the plan key holds the graph version and the extent
(``Graph.count`` with the slot bound, variables wildcarded) of every
slot-bearing triple pattern, the only planner inputs a constant moves, so a
bound tree equals the tree :func:`~repro.sparql.pipeline.compile_plan`
builds from the literal text.

A rewrite that plants a table computed from a constant (the GeoStore's
R-tree candidates) plants a :class:`BindTable`: binding refills its rows for
the new constant and puts an ordinary :class:`TableOp` in the tree, so no
engine ever sees one.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, FrozenSet, List, NamedTuple, Optional, Set, Tuple, Union

from repro.rdf.graph import Graph
from repro.rdf.term import BNode, IRI, Literal, Term
from repro.sparql.algebra import AlgebraOp, TableOp
from repro.sparql.ast import AskQuery, Expression, SelectQuery, TriplePattern, Variable
from repro.sparql.parser import TermMaker, parse_lifted
from repro.sparql.tokenizer import Normalised

Query = Union[SelectQuery, AskQuery]


@dataclasses.dataclass
class BindTable(TableOp):
    """A VALUES table a rewrite computed from a constant in *expression*.

    ``rows`` are those of the constant it was planned with; ``fill()``
    returns the callable that computes the rows for *expression* bound to
    another text. Only template plans hold one: binding and :func:`strip`
    turn it into a plain :class:`TableOp`.
    """

    expression: Expression
    fill: Callable[[], Callable[[Expression], List[List]]]


class Template(NamedTuple):
    """What the template tier keeps per template."""

    ast: Query
    slots: Tuple[Term, ...]  #: the slot term objects inside ``ast``
    makers: Tuple[TermMaker, ...]
    #: (s, p, o) of each slot-bearing triple pattern: None for a variable,
    #: an int for slot number, else the pattern's own term.
    shapes: Tuple[Tuple[object, object, object], ...]
    dirty: FrozenSet[int]  #: ids of the ``ast`` nodes that hold a slot


class Parsed(NamedTuple):
    """A text as the parse tier keeps it: its AST and, when it has a
    bindable template, that template, its entry and the text's slot terms
    (the term objects in ``ast``)."""

    ast: Query
    template: Optional[str] = None
    entry: Optional[Template] = None
    terms: Tuple[Term, ...] = ()


class TemplatePlan:
    """What the template plan tier keeps per plan key: the tree as planned
    (BindTables in), the slot terms it was planned with, and the tree
    stripped for the text it was planned from."""

    __slots__ = ("tree", "slots", "plain", "_dirty")

    def __init__(self, tree: AlgebraOp, slots: Tuple[Term, ...]):
        self.tree = tree
        self.slots = slots
        self.plain = strip(tree)
        self._dirty: Optional[FrozenSet[int]] = None

    def bind(self, terms: Tuple[Term, ...]) -> AlgebraOp:
        """The tree with *terms* in its slots, every BindTable refilled."""
        if self._dirty is None:  # marked on first reuse
            dirty: Set[int] = set()
            _mark(self.tree, {id(term) for term in self.slots}, dirty)
            self._dirty = frozenset(dirty)
        return _bind(self.tree, dict(zip(map(id, self.slots), terms)), self._dirty)


def make_template(text: str, normalised: Normalised) -> Optional[Template]:
    """The template entry of *text*, parsed; None when some lifted token is
    not a term in a liftable place (the template then always parses)."""
    ast, slots = parse_lifted(text, normalised.starts)
    if slots is None:
        return None
    terms = tuple(term for term, _ in slots)
    index = {id(term): slot for slot, term in enumerate(terms)}
    dirty: Set[int] = set()
    patterns: List[TriplePattern] = []
    _mark(ast, index, dirty, patterns)
    shapes = tuple(
        tuple(
            None if isinstance(position, Variable) else index.get(id(position), position)
            for position in (pattern.subject, pattern.predicate, pattern.object)
        )
        for pattern in patterns
    )
    makers = tuple(make for _, make in slots)
    return Template(ast, terms, makers, shapes, frozenset(dirty))


def bind_query(template: str, entry: Template, params: Tuple[str, ...]) -> Parsed:
    """*entry*'s AST with the terms of *params* in its slots."""
    terms = tuple(make(param) for make, param in zip(entry.makers, params))
    ast = _bind(entry.ast, dict(zip(map(id, entry.slots), terms)), entry.dirty)
    return Parsed(ast, template, entry, terms)


def extents(parsed: Parsed, graph: Graph) -> Tuple[int, ...]:
    """The extent of every slot-bearing triple pattern of *parsed*."""
    terms = parsed.terms
    return tuple(
        graph.count(tuple(
            terms[position] if type(position) is int else position
            for position in shape
        ))
        for shape in parsed.entry.shapes
    )


def strip(op: AlgebraOp) -> AlgebraOp:
    """*op* with every BindTable a plain table; unchanged subtrees shared."""
    if type(op) is BindTable:
        return TableOp(op.variables, op.rows)
    changed = False
    values = []
    for name in _fields(type(op)):
        value = getattr(op, name)
        if isinstance(value, AlgebraOp):
            new = strip(value)
        elif type(value) is list and value and isinstance(value[0], AlgebraOp):
            new = [strip(operand) for operand in value]  # UnionOp
            new = value if all(a is b for a, b in zip(new, value)) else new
        else:
            new = value
        changed = changed or new is not value
        values.append(new)
    return type(op)(*values) if changed else op


# ---------------------------------------------------------------------------
# Walks over AST and algebra nodes
# ---------------------------------------------------------------------------

#: Node class -> its field names.
_FIELDS: Dict[type, Tuple[str, ...]] = {}
#: Values that are never a node: what a walk does not descend into.
_LEAVES = frozenset((str, int, float, bool, type(None), Variable, IRI, Literal, BNode))


def _fields(cls: type) -> Tuple[str, ...]:
    names = _FIELDS.get(cls)
    if names is None:
        names = _FIELDS[cls] = tuple(f.name for f in dataclasses.fields(cls))
    return names


def _mark(node, slots, dirty: Set[int], patterns: Optional[List] = None) -> bool:
    """Whether *node* holds a slot term (or a BindTable); the ids of every
    such node go into *dirty*, slot-bearing triple patterns into
    *patterns*."""
    cls = type(node)
    if cls is list or cls is tuple:
        children = node
    elif cls is BindTable:
        children = (node.expression,)  # its rows are graph terms
    else:
        children = [getattr(node, name) for name in _fields(cls)]
    found = cls is BindTable
    for child in children:
        if id(child) in slots or (
            type(child) not in _LEAVES and _mark(child, slots, dirty, patterns)
        ):
            found = True
    if found:
        dirty.add(id(node))
        if patterns is not None and cls is TriplePattern:
            patterns.append(node)
    return found


def _bind(node, mapping: Dict[int, Term], dirty: FrozenSet[int]):
    """A copy of *node* along its dirty paths, slot terms replaced and
    BindTables refilled."""
    key = id(node)
    term = mapping.get(key)
    if term is not None:
        return term
    if key not in dirty:
        return node
    cls = type(node)
    if cls is list:
        return [_bind(child, mapping, dirty) for child in node]
    if cls is tuple:
        return tuple(_bind(child, mapping, dirty) for child in node)
    if cls is BindTable:
        expression = _bind(node.expression, mapping, dirty)
        return TableOp(node.variables, node.fill()(expression))
    return cls(*[_bind(getattr(node, name), mapping, dirty) for name in _fields(cls)])
