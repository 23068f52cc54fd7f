"""Geospatial RDF stores.

:class:`GeoStore` is the Strabon-like engine: it maintains an R-tree over all
``geo:wktLiteral`` objects in the graph and rewrites indexable spatial filters
(``geof:sfIntersects/sfContains/sfWithin`` between a variable and a constant
geometry) into an index-backed candidate table — a plain VALUES operator,
so the algebra stays closed — that feeds the join, after which the exact
predicate still runs: on the vector engine over the whole candidate column
at once (the relations' column form, one point-in-polygon kernel call for
point candidates), on the interpreted engine per row.
:class:`NaiveGeoStore` shares everything but
the rewrite — every spatial filter is evaluated by brute force — making the
pair the two arms of experiment E2/E3.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Optional, Set, TYPE_CHECKING, Union

from repro.geometry import BoundingBox, RTree, contains as geom_contains
from repro.geosparql.functions import (
    INDEXABLE_RELATIONS,
    SF_CONTAINS,
    SF_WITHIN,
    geo_function_registry,
)
from repro.geosparql.literals import is_geometry_literal, literal_geometry
from repro.rdf.graph import Graph
from repro.rdf.term import Literal, Term, Triple
from repro.sparql.algebra import (
    AlgebraOp,
    CompileOptions,
    ExtendOp,
    FilterOp,
    JoinOp,
    LeftJoinOp,
    ScanOp,
    TableOp,
    UnionOp,
    order_patterns,
)
from repro.sparql.ast import (
    AskQuery,
    FunctionCall,
    SelectQuery,
    TermExpr,
    Variable,
    VarExpr,
)
from repro.sparql.evaluator import Bindings
from repro.sparql.parser import parse_query
from repro.sparql.pipeline import compile_plan, run_query
from repro.sparql.template import BindTable
from repro.sparql.vector.cost import (
    _collect_region,
    _rebuild_region,
    definitely_bound,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cache.plan import PlanCache
    from repro.sparql.governor import QueryBudget


class GeoStore:
    """Triple store with an R-tree over geometry literals.

    Use :meth:`add` / :meth:`add_all` to load data and :meth:`query` to run
    (Geo)SPARQL. The spatial rewrite can be disabled per query for ablations.
    """

    #: Whether spatial filters are rewritten to use the R-tree.
    use_spatial_index = True

    def __init__(
        self,
        max_entries: int = 16,
        plan_cache: Optional["PlanCache"] = None,
    ):
        self.graph = Graph()
        self.registry = geo_function_registry()
        self._rtree: RTree[Literal] = RTree(max_entries=max_entries)
        self._indexed: Set[Literal] = set()
        self._stats = {"spatial_rewrites": 0, "candidates_examined": 0}
        #: Optional shared :class:`~repro.cache.PlanCache`; may be attached
        #: after construction. None (the default) takes the uncached path.
        self.plan_cache = plan_cache

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------

    def add(self, subject: Term, predicate: Term, obj: Term) -> bool:
        """Add a triple, indexing the object if it is a geometry literal.
        A malformed geometry raises before anything changes."""
        geometry = None
        if is_geometry_literal(obj) and obj not in self._indexed:
            geometry = literal_geometry(obj)
        added = self.graph.add(subject, predicate, obj)
        if added and geometry is not None:
            self._rtree.insert(geometry.bbox, obj)
            self._indexed.add(obj)
        return added

    def add_all(self, triples) -> int:
        return sum(1 for t in triples if self.add(*t))

    def bulk_load(self, triples) -> int:
        """Load triples and STR-pack the spatial index in one pass.

        Faster than :meth:`add_all` for large static datasets (the E2
        ablation measures the difference). All or nothing: every geometry
        is parsed, and the graph validates every triple, before anything
        changes, so a bad one raises its typed error on an unchanged store.
        """
        triples = list(triples)
        boxes = {}
        for _, _, obj in triples:
            if is_geometry_literal(obj) and obj not in self._indexed and obj not in boxes:
                boxes[obj] = literal_geometry(obj).bbox
        count = self.graph.add_all(triples)
        if boxes:
            self._indexed.update(boxes)
            entries = [(box, obj) for obj, box in boxes.items()]
            self._rtree = RTree.bulk_load(list(self._rtree.items()) + entries)
        return count

    def __len__(self) -> int:
        return len(self.graph)

    @property
    def geometry_count(self) -> int:
        return len(self._indexed)

    @property
    def stats(self) -> Dict[str, int]:
        return dict(self._stats)

    @property
    def content_version(self) -> int:
        """Monotonic content version (every load path mutates the graph)."""
        return self.graph.version

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def save_ntriples(self, path: str) -> int:
        """Dump the store to an N-Triples file; returns the triple count."""
        from repro.rdf.ntriples import serialize_ntriples

        with open(path, "w", encoding="utf-8") as handle:
            handle.write(serialize_ntriples(iter(self.graph)))
        return len(self.graph)

    @classmethod
    def from_ntriples(cls, path: str, max_entries: int = 16) -> "GeoStore":
        """Load a store from an N-Triples file, rebuilding the spatial index."""
        from repro.rdf.ntriples import parse_ntriples

        store = cls(max_entries=max_entries)
        with open(path, "r", encoding="utf-8") as handle:
            store.bulk_load(parse_ntriples(handle.read()))
        return store

    # ------------------------------------------------------------------
    # Query
    # ------------------------------------------------------------------

    def query(
        self,
        query: Union[str, SelectQuery, AskQuery],
        options: Optional[CompileOptions] = None,
        *,
        budget: Optional["QueryBudget"] = None,
    ) -> Union[List[Bindings], bool]:
        """Evaluate a (Geo)SPARQL query with spatial-index acceleration.

        The shared pipeline (:func:`repro.sparql.pipeline.run_query`) with
        this store's spatial rewrite as its plan hook; the candidates are a
        VALUES table, which either engine runs like one the user wrote.

        With a :attr:`plan_cache` attached, *string* queries reuse parsed
        ASTs and compiled (spatially rewritten) plans across calls. They are
        cached per store *and* content version: the rewrite bakes R-tree
        candidate lists into the tree, and every index mutation also bumps
        the graph version, so the key is exact. A text bound to its
        template's plan gets its candidates at bind time, from the same
        R-tree search in the same order.
        """
        return run_query(
            self.graph,
            query,
            self.registry,
            options,
            budget=budget,
            cache=self.plan_cache,
            owner=self,
            rewrite=self._rewrite,
        )

    def explain(
        self,
        query: Union[str, SelectQuery, AskQuery],
        options: Optional[CompileOptions] = None,
    ) -> str:
        """Render the physical plan for a query (for debugging/teaching).

        Shows the operator tree after spatial rewriting, one operator per
        line with indentation for children.
        """
        if isinstance(query, str):
            query = parse_query(query)
        tree = compile_plan(query.where, self.graph, options, self._rewrite)
        lines: List[str] = []

        def walk(op: AlgebraOp, depth: int) -> None:
            pad = "  " * depth
            if isinstance(op, ScanOp):
                lines.append(f"{pad}Scan({_pattern_text(op.pattern)})")
            elif isinstance(op, JoinOp):
                lines.append(f"{pad}Join")
                walk(op.left, depth + 1)
                walk(op.right, depth + 1)
            elif isinstance(op, LeftJoinOp):
                lines.append(f"{pad}LeftJoin")
                walk(op.left, depth + 1)
                walk(op.right, depth + 1)
            elif isinstance(op, UnionOp):
                lines.append(f"{pad}Union")
                for operand in op.operands:
                    walk(operand, depth + 1)
            elif isinstance(op, FilterOp):
                lines.append(f"{pad}Filter({_expression_text(op.expression)})")
                walk(op.operand, depth + 1)
            elif isinstance(op, TableOp):
                names = " ".join(f"?{v.name}" for v in op.variables)
                lines.append(f"{pad}Values({names}, {len(op.rows)} rows)")
            else:
                lines.append(f"{pad}{type(op).__name__}")

        walk(tree, 0)
        return "\n".join(lines)

    def _rewrite(self, tree: AlgebraOp) -> AlgebraOp:
        """The pipeline's plan hook: plant R-tree candidate tables."""
        if not self.use_spatial_index:
            return tree
        rebuilt = self._rewrite_spatial_global(tree)
        return rebuilt if rebuilt is not None else self._rewrite_spatial(tree)

    def _rewrite_spatial_global(self, tree: AlgebraOp) -> Optional[AlgebraOp]:
        """Rebuild a pure scan/join/filter tree so the spatial candidate table
        *drives* the join: candidates bind the geometry variable first and
        index lookups walk outward, instead of candidates being re-enumerated
        per upstream row. Returns None when the tree has other operators
        (OPTIONAL/UNION), in which case the local rewrite is used."""
        flat = _flatten_scans(tree)
        if flat is None:
            return None
        scans, filters = flat
        table = next(
            (
                planted
                for expr in filters
                if (planted := self._candidate_table(expr, tree)) is not None
            ),
            None,
        )
        if table is None:
            return None
        ordered = order_patterns(
            [s.pattern for s in scans],
            self.graph,
            bound_vars=set(table.variables),
        )
        # The re-pushed filters include the spatial predicate itself: bbox
        # candidates are a superset, the exact test lands just above the
        # candidate table.
        return _rebuild_region(ordered, filters, table)

    def _candidate_table(
        self, expression, operand: AlgebraOp
    ) -> Optional[TableOp]:
        """``VALUES ?g { candidates }`` for an indexable spatial filter over
        *operand*, else None.

        Joining with the table drops every solution whose ``?g`` is not an
        indexed literal, so it is sound only where each solution of *operand*
        takes ``?g`` from a triple pattern: a VALUES row or a BIND can supply
        a geometry the store never saw, and a variable the operand leaves
        unbound would be *bound* by the table instead of failing the filter.
        """
        parts = self._indexable_parts(expression)
        if parts is None:
            return None
        variable, candidates = parts
        if variable not in definitely_bound(operand) or _binds_inline(
            operand, variable
        ):
            return None
        return BindTable(
            [variable],
            self._count_rows(candidates),
            expression,
            weakref.WeakMethod(self._candidate_rows),
        )

    def _candidate_rows(self, expression) -> List[List[Literal]]:
        """The candidate rows of the spatial filter *expression*: the bind
        step of a :class:`BindTable` planted by this store."""
        return self._count_rows(self._indexable_parts(expression)[1])

    def _count_rows(self, candidates: List[Literal]) -> List[List[Literal]]:
        self._stats["spatial_rewrites"] += 1
        self._stats["candidates_examined"] += len(candidates)
        return [[c] for c in candidates]

    def _indexable_parts(self, expression):
        """(variable, candidates) for an indexable spatial filter, else None."""
        if not isinstance(expression, FunctionCall):
            return None
        if expression.name not in INDEXABLE_RELATIONS or len(expression.args) != 2:
            return None
        first, second = expression.args
        variable: Optional[Variable] = None
        constant = None
        var_first = False
        if isinstance(first, VarExpr) and isinstance(second, TermExpr):
            variable, constant, var_first = first.variable, second.term, True
        elif isinstance(first, TermExpr) and isinstance(second, VarExpr):
            variable, constant = second.variable, first.term
        if variable is None or not is_geometry_literal(constant):
            return None
        query_geometry = literal_geometry(constant)
        # sfContains(?g, const) means ?g contains the constant: any candidate
        # bbox must *contain* the constant's bbox -> probing with the
        # constant's bbox still yields a superset (intersecting is necessary).
        candidates = list(self._rtree.search(query_geometry.bbox))
        if expression.name == SF_WITHIN and var_first:
            # ?g within const: candidate bbox must be inside const's bbox.
            candidates = [
                c
                for c in candidates
                if query_geometry.bbox.contains_box(literal_geometry(c).bbox)
            ]
        return variable, candidates

    # ------------------------------------------------------------------
    # Spatial rewrite
    # ------------------------------------------------------------------

    def _rewrite_spatial(self, op: AlgebraOp) -> AlgebraOp:
        if isinstance(op, FilterOp):
            inner = self._rewrite_spatial(op.operand)
            # Judged on the operand as written: a table planted further down
            # holds indexed literals only.
            table = self._candidate_table(op.expression, op.operand)
            if table is not None:
                variable = table.variables[0]
                inner = JoinOp(table, self._reorder_for_bound(inner, variable))
            return FilterOp(op.expression, inner)
        if isinstance(op, JoinOp):
            return JoinOp(self._rewrite_spatial(op.left), self._rewrite_spatial(op.right))
        if isinstance(op, LeftJoinOp):
            return LeftJoinOp(
                self._rewrite_spatial(op.left), self._rewrite_spatial(op.right)
            )
        if isinstance(op, UnionOp):
            return UnionOp([self._rewrite_spatial(o) for o in op.operands])
        return op

    def _reorder_for_bound(self, inner: AlgebraOp, variable: Variable) -> AlgebraOp:
        """Re-order a pure scan/join/filter subtree knowing *variable* is
        bound by the candidate table, so the join starts from the geometry
        pattern instead of scanning an unrelated predicate per candidate."""
        flat = _flatten_scans(inner)
        if flat is None:
            return inner
        scans, filters = flat
        return _rebuild_region(
            order_patterns(
                [s.pattern for s in scans], self.graph, bound_vars={variable}
            ),
            filters,
        )


def _flatten_scans(op: AlgebraOp):
    """``(scans, filter expressions)`` of a pure scan/join/filter subtree;
    None when it holds any other operator or no scan at all."""
    scans: List[ScanOp] = []
    filters: List = []
    if not _collect_region(op, scans, filters) or not scans:
        return None
    return scans, filters


def _binds_inline(op: AlgebraOp, variable: Variable) -> bool:
    """Whether a VALUES table or a BIND inside *op* can bind *variable*."""
    if isinstance(op, TableOp):
        return variable in op.variables
    if isinstance(op, ExtendOp):
        return op.variable == variable or _binds_inline(op.operand, variable)
    if isinstance(op, (JoinOp, LeftJoinOp)):
        return _binds_inline(op.left, variable) or _binds_inline(
            op.right, variable
        )
    if isinstance(op, UnionOp):
        return any(_binds_inline(o, variable) for o in op.operands)
    if isinstance(op, FilterOp):
        return _binds_inline(op.operand, variable)
    return False


def _pattern_text(pattern) -> str:
    def term_text(position) -> str:
        if isinstance(position, Variable):
            return f"?{position.name}"
        text = str(position)
        return text if len(text) <= 40 else text[:37] + "..."

    return " ".join(
        term_text(p) for p in (pattern.subject, pattern.predicate, pattern.object)
    )


def _expression_text(expression) -> str:
    from repro.sparql.ast import BinaryOp, TermExpr, UnaryOp, VarExpr

    if isinstance(expression, VarExpr):
        return f"?{expression.variable.name}"
    if isinstance(expression, TermExpr):
        text = str(expression.term)
        return text if len(text) <= 30 else text[:27] + "..."
    if isinstance(expression, UnaryOp):
        return f"{expression.operator}{_expression_text(expression.operand)}"
    if isinstance(expression, BinaryOp):
        return (
            f"{_expression_text(expression.left)} {expression.operator} "
            f"{_expression_text(expression.right)}"
        )
    if isinstance(expression, FunctionCall):
        name = expression.name.rsplit("/", 1)[-1].rsplit("#", 1)[-1]
        args = ", ".join(_expression_text(a) for a in expression.args)
        return f"{name}({args})"
    return type(expression).__name__


class NaiveGeoStore(GeoStore):
    """The brute-force baseline: identical semantics, no spatial rewrite."""

    use_spatial_index = False
