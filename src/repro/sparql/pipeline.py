"""The one text -> rows path every entry point runs, in four stages:

1. **parse** — text to AST, through the plan cache's parse tier if given;
   a text that tier has not seen binds its template's AST
   (:mod:`repro.sparql.template`) and is parsed only when its template is
   new;
2. **plan** — :func:`compile_plan`: ``compile_group``, the caller's rewrite
   hook (a store planting its index scans), cost ordering for engines that
   want it; memoised under ``(owner, text, options, graph.version)``. A
   text that tier has not seen binds its template's plan for the same
   owner, options, version and slot-pattern extents, and is planned only
   when there is none — the bound tree equals the one planning the text
   would build;
3. **run** — one row of :data:`ENGINE_TABLE` executes the tree against an
   :class:`~repro.sparql.evaluator.ExecContext`;
4. **finish** — the same row turns the root result into ``bool`` (ASK) or
   aggregated, modified solutions (SELECT).

:class:`~repro.sparql.algebra.CompileOptions` is *plan* state — it is the
cache key's options component; budget and observability are *execution*
state and go into the context. :func:`evaluate`, ``GeoStore.query`` and
``DistRuntime.query`` are thin callers of :func:`run_query`; the distributed
runtime brings its own table row, which is why it is not an engine label.

Callers that produce matches without a :class:`Graph` — the federation's
bind join, the virtual OBDA store's table scans — hand them to
:func:`finish_solutions`, which runs stages 3 and 4 on the vector row, so
every answer is joined, filtered and modified by the same code.
"""

from __future__ import annotations

from functools import reduce
from typing import (
    Any,
    Callable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    TYPE_CHECKING,
    Union,
)

from repro.obs import Observability, resolve as resolve_obs
from repro.rdf.graph import Graph
from repro.sparql.algebra import (
    AlgebraOp,
    CompileOptions,
    FilterOp,
    JoinOp,
    TableOp,
    compile_group,
)
from repro.sparql.ast import (
    BGP,
    AskQuery,
    Expression,
    FilterPattern,
    GroupPattern,
    SelectQuery,
    TriplePattern,
)
from repro.sparql.evaluator import (
    _EMPTY_REGISTRY,
    Bindings,
    ExecContext,
    FunctionRegistry,
    _evaluate_op,
    materialize_select,
)
from repro.sparql.parser import parse_query
from repro.sparql.template import (
    Parsed,
    TemplatePlan,
    bind_query,
    extents,
    make_template,
    strip,
)
from repro.sparql.tokenizer import normalise
from repro.sparql.vector.cost import apply_cost_order
from repro.sparql.vector.engine import finish_select, run_tree

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cache.plan import PlanCache
    from repro.sparql.governor import QueryBudget


class Engine(NamedTuple):
    """One row of the engine table: how a planned tree becomes an answer.

    ``cost_order`` asks the plan stage to reorder pure scan regions by index
    cardinalities (the vector family; the interpreted engine keeps the
    selectivity order). ``execute(tree, ctx)`` returns the engine's own root
    result, which ``ask(result)`` and ``select(query, result, ctx)`` finish.
    """

    cost_order: bool
    execute: Callable[[AlgebraOp, ExecContext], Any]
    ask: Callable[[Any], bool]
    select: Callable[[SelectQuery, Any, ExecContext], List[Bindings]]


def _iterate(tree: AlgebraOp, ctx: ExecContext) -> Iterator[Bindings]:
    return _evaluate_op(tree, ctx, {})


def _any_solution(solutions: Iterator[Bindings]) -> bool:
    for _ in solutions:
        return True
    return False


def _materialize(
    query: SelectQuery, solutions: Iterator[Bindings], ctx: ExecContext
) -> List[Bindings]:
    return materialize_select(query, solutions, ctx.registry, ctx.budget)


#: Label (``CompileOptions.engine``) -> engine. Both rows return identical
#: solution multisets; the equivalence suites compare them.
ENGINE_TABLE = {
    "interpreted": Engine(False, _iterate, _any_solution, _materialize),
    "vector": Engine(
        True, run_tree, lambda batch: batch.nrows > 0, finish_select
    ),
}

_DEFAULT_OPTIONS = CompileOptions()


def compile_plan(
    where: GroupPattern,
    graph: Graph,
    options: Optional[CompileOptions] = None,
    rewrite: Optional[Callable[[AlgebraOp], AlgebraOp]] = None,
    engine: Optional[Engine] = None,
) -> AlgebraOp:
    """The plan stage, uncached: compile, caller rewrite, cost order.

    The rewrite runs before cost ordering, so operators it plants (custom
    ones the cost model does not know) keep the order the rewrite chose and
    only the remaining pure scan regions are reordered.
    """
    tree = _plan(where, graph, options, rewrite, engine)
    return tree if rewrite is None else strip(tree)


def _plan(where, graph, options, rewrite, engine) -> AlgebraOp:
    """:func:`compile_plan` keeping the rewrite's BindTables."""
    options = options or _DEFAULT_OPTIONS
    engine = engine or ENGINE_TABLE[options.engine]
    tree = compile_group(where, graph, options)
    if rewrite is not None:
        tree = rewrite(tree)
    if engine.cost_order and options.reorder_patterns:
        tree = apply_cost_order(tree, graph)
    return tree


def parse_text(cache: "PlanCache", text: str) -> Parsed:
    """*text* through *cache*'s parse tier. A text the tier has not seen
    binds its template's AST, and is parsed only when its template is new
    or has no bindable slots."""
    return cache.parse(text, lambda text: _parse(cache, text))


def _parse(cache: "PlanCache", text: str) -> Parsed:
    normalised = normalise(text)
    entry = None if normalised is None else cache.template(
        normalised.template, lambda: make_template(text, normalised)
    )
    if entry is None:
        return Parsed(parse_query(text))
    return bind_query(normalised.template, entry, normalised.params)


def _template_plan(
    cache: "PlanCache",
    parsed: Parsed,
    owner: object,
    graph: Graph,
    options: CompileOptions,
    rewrite: Optional[Callable[[AlgebraOp], AlgebraOp]],
    engine: Engine,
) -> AlgebraOp:
    """*parsed*'s tree: its template's plan bound to its terms, or the plan
    built from *parsed* itself when the cache holds none for its key (its
    rewrite ran and counted, so its planted rows are kept)."""
    built = []

    def build() -> TemplatePlan:
        tree = _plan(parsed.ast.where, graph, options, rewrite, engine)
        built.append(TemplatePlan(tree, parsed.terms))
        return built[0]

    plan = cache.template_plan(
        owner, parsed.template, options, graph.version, extents(parsed, graph), build
    )
    return plan.plain if built else plan.bind(parsed.terms)


def run_query(
    graph: Graph,
    query: Union[SelectQuery, AskQuery, str],
    registry: Optional[FunctionRegistry] = None,
    options: Optional[CompileOptions] = None,
    *,
    budget: Optional["QueryBudget"] = None,
    obs: Optional[Observability] = None,
    cache: Optional["PlanCache"] = None,
    owner: Optional[object] = None,
    rewrite: Optional[Callable[[AlgebraOp], AlgebraOp]] = None,
    engine: Optional[Engine] = None,
) -> Union[List[Bindings], bool]:
    """Parse, plan, run and finish one query (see the module docstring).

    ``owner`` is the plan-cache owner (default: the graph) — a store whose
    ``rewrite`` bakes its own index state into the tree passes itself, so
    its entries never alias a plain evaluation of the same graph. ``engine``
    overrides the table row ``options.engine`` names (the distributed
    runtime's way in). Only *string* queries are cached; an AST has no
    stable identity to key on.
    """
    if registry is None:
        registry = _EMPTY_REGISTRY
    options = options or _DEFAULT_OPTIONS
    engine = engine or ENGINE_TABLE[options.engine]
    owner = owner if owner is not None else graph
    text: Optional[str] = None
    if isinstance(query, str):
        text = query
        if cache is None:
            query = parse_query(text)
        else:
            parsed = parse_text(cache, text)
            query = parsed.ast

    def build() -> AlgebraOp:
        if parsed.template is None:
            return compile_plan(query.where, graph, options, rewrite, engine)
        return _template_plan(cache, parsed, owner, graph, options, rewrite, engine)

    with resolve_obs(obs).tracer.span(
        "sparql.query", form="ask" if isinstance(query, AskQuery) else "select"
    ):
        if cache is not None and text is not None:
            tree = cache.plan(owner, text, options, graph.version, build)
        else:
            tree = compile_plan(query.where, graph, options, rewrite, engine)
        ctx = ExecContext(graph, registry, obs, budget)
        result = engine.execute(tree, ctx)
        if isinstance(query, AskQuery):
            return engine.ask(result)
        return engine.select(query, result, ctx)


def evaluate(
    graph: Graph,
    query: Union[SelectQuery, AskQuery, str],
    registry: FunctionRegistry = _EMPTY_REGISTRY,
    options: Optional[CompileOptions] = None,
    obs: Optional[Observability] = None,
    cache: Optional["PlanCache"] = None,
    *,
    budget: Optional["QueryBudget"] = None,
) -> Union[List[Bindings], bool]:
    """Evaluate a query (text or AST) against *graph*.

    SELECT returns a list of solutions ({Variable: Term}); ASK returns bool.
    ``CompileOptions(engine="vector")`` routes execution through the
    columnar engine (:mod:`repro.sparql.vector`) — same solution multisets,
    batch-at-a-time execution with cost-based join ordering.
    ``budget`` attaches an E23 :class:`~repro.sparql.governor.QueryBudget`
    enforced at checkpoints inside either engine.
    With ``obs``, per-operator timing and cardinality are recorded (see
    :mod:`repro.sparql.evaluator`) and the whole call runs in a
    ``sparql.query`` span.
    With a :class:`~repro.cache.PlanCache`, *string* queries skip parsing
    and compilation when the text was seen before against the same graph
    content (keyed on ``graph.version``, so any mutation recompiles); AST
    queries always take the uncached path.
    """
    return run_query(
        graph, query, registry, options, budget=budget, obs=obs, cache=cache
    )


def flat_bgp(query: SelectQuery, error: type) -> tuple:
    """``(patterns, filters)`` of a WHERE that is one flat BGP plus FILTERs —
    the shape a caller matching patterns itself can answer; any other shape
    raises *error*, the caller's own typed error."""
    patterns: List[TriplePattern] = []
    filters: List[Expression] = []
    for child in query.where.children:
        if isinstance(child, BGP):
            patterns.extend(child.patterns)
        elif isinstance(child, FilterPattern):
            filters.append(child.expression)
        else:
            raise error(
                "only a flat BGP + FILTER is supported "
                f"(got {type(child).__name__})"
            )
    if not patterns:
        raise error("query has no triple patterns")
    return patterns, filters


def _table(solutions: List[Bindings]) -> TableOp:
    variables = list(dict.fromkeys(v for s in solutions for v in s))
    return TableOp(variables, [[s.get(v) for v in variables] for s in solutions])


def finish_solutions(
    query: SelectQuery,
    tables: Sequence[List[Bindings]],
    filters: Sequence[Expression],
    registry: FunctionRegistry,
) -> List[Bindings]:
    """*query*'s answer from solution lists matched outside any graph.

    The (non-empty) *tables* are natural-joined in order, every filter runs
    on the join, and the SELECT is finished — ORDER BY, projection,
    DISTINCT, slicing, aggregates — all on the vector row of
    :data:`ENGINE_TABLE` against an empty :class:`Graph`, where every term
    gets a local id.
    """
    tree = reduce(JoinOp, map(_table, tables))
    for expression in filters:
        tree = FilterOp(expression, tree)
    engine = ENGINE_TABLE["vector"]
    ctx = ExecContext(Graph(), registry)
    return engine.select(query, engine.execute(tree, ctx), ctx)
