"""Property test: both engines return identical solution multisets — E22.

Generates randomized small graphs (IRIs, integer literals, plain string
literals) and randomized queries covering joins, OPTIONAL, UNION, VALUES
with UNDEF, error-producing FILTERs (numeric comparison over strings), BIND
arithmetic, DISTINCT, and grouped aggregates — then asserts the interpreted
and vector engines agree on the canonicalized solution multiset.

A second generator, :func:`correlated_groups`, aims at the vector engine's
dependent join: plain and OPTIONAL groups, nested up to two levels of
OPTIONAL/UNION, whose FILTERs and BINDs read variables an outer pattern binds
— including BINDs onto such a variable, which both engines must refuse with
the same ``SPARQLError``.

Integer-only literals keep the comparison exact: no float rounding and no
MIN/MAX ties between value-equal but differently-typed terms (where the two
engines may legitimately pick different representative terms).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SPARQLError, SPARQLSyntaxError
from repro.rdf import Graph
from repro.rdf.ntriples import parse_ntriples
from repro.sparql import CompileOptions, evaluate

PREFIX = "PREFIX ex: <http://ex.org/> "

SUBJECTS = [f"<http://ex.org/s{i}>" for i in range(5)]
PREDICATES = [f"<http://ex.org/p{i}>" for i in range(3)]
OBJECTS = (
    [f"<http://ex.org/o{i}>" for i in range(3)]
    + [f'"{i}"^^<http://www.w3.org/2001/XMLSchema#integer>' for i in range(0, 9, 2)]
    + ['"alpha"', '"beta"']
)
VARIABLES = ["?a", "?b", "?c"]

triples = st.tuples(
    st.sampled_from(SUBJECTS), st.sampled_from(PREDICATES), st.sampled_from(OBJECTS)
)

positions = {
    "subject": st.sampled_from(VARIABLES + SUBJECTS),
    "predicate": st.sampled_from(VARIABLES[:2] + PREDICATES),
    "object": st.sampled_from(VARIABLES + OBJECTS),
}

patterns = st.tuples(
    positions["subject"], positions["predicate"], positions["object"]
).map(lambda t: f"{t[0]} {t[1]} {t[2]} .")


def bgp(min_size=1, max_size=3):
    return st.lists(patterns, min_size=min_size, max_size=max_size).map(" ".join)


filters = st.one_of(
    st.tuples(
        st.sampled_from(VARIABLES),
        st.sampled_from(["<", "<=", ">", ">=", "=", "!="]),
        st.sampled_from(["3", "5", '"alpha"']),
    ).map(lambda t: f"FILTER({t[0]} {t[1]} {t[2]})"),
    st.tuples(st.sampled_from(VARIABLES), st.sampled_from(VARIABLES)).map(
        lambda t: f"FILTER({t[0]} + 1 > {t[1]})"
    ),
    st.tuples(st.sampled_from(VARIABLES), st.sampled_from(VARIABLES)).map(
        lambda t: f"FILTER(BOUND({t[0]}) || {t[1]} > 2)"
    ),
)

values_blocks = st.lists(
    st.tuples(
        st.sampled_from(SUBJECTS + ["UNDEF"]),
        st.sampled_from(OBJECTS[:4] + ["UNDEF"]),
    ),
    min_size=1,
    max_size=3,
).map(
    lambda rows: "VALUES (?a ?c) { "
    + " ".join(f"({s} {o})" for s, o in rows)
    + " }"
)


@st.composite
def where_clauses(draw):
    parts = [draw(bgp())]
    if draw(st.booleans()):
        parts.append("OPTIONAL { " + draw(bgp(max_size=2)) + " }")
    if draw(st.booleans()):
        parts.append(
            "{ " + draw(bgp(max_size=2)) + " } UNION { " + draw(bgp(max_size=2)) + " }"
        )
    if draw(st.booleans()):
        parts.append(draw(values_blocks))
    if draw(st.booleans()):
        parts.append(f"BIND(?a AS ?bound_{draw(st.integers(0, 1))})")
    if draw(st.booleans()):
        parts.append(draw(filters))
    return " ".join(parts)


#: The correlated groups' outer BGP may also bind ?d, which no inner pattern
#: mentions: the one variable a BIND may rebind (see :func:`inner_groups`).
OUTER_VARIABLES = VARIABLES + ["?d"]


@st.composite
def open_patterns(draw, variables=tuple(VARIABLES)):
    """A pattern that matches a third of any graph: a variable subject, a
    constant predicate, and another variable or an integer (which
    ``FILTER(?b > ?c)`` can compare) as the object."""
    subject = draw(st.sampled_from(variables))
    others = [v for v in variables if v != subject]
    return " ".join([
        subject,
        draw(st.sampled_from(PREDICATES)),
        draw(st.sampled_from(others + others + OBJECTS[3:8])),
        ".",
    ])


def open_bgp(max_size, variables=tuple(VARIABLES)):
    return st.lists(
        open_patterns(variables), min_size=1, max_size=max_size
    ).map(" ".join)


#: FILTERs over variables the enclosing patterns bind.
outer_filters = st.one_of(
    st.tuples(
        st.sampled_from(OUTER_VARIABLES), st.sampled_from(OUTER_VARIABLES)
    ).map(lambda t: f"FILTER({t[0]} > {t[1]})"),
    st.sampled_from(OUTER_VARIABLES).map(lambda v: f"FILTER(!BOUND({v}))"),
)


@st.composite
def inner_groups(draw, targets, depth=0):
    """A group body that reads the bindings around it: a BGP over the
    variables the outer BGP binds (so a nested OPTIONAL can bind an outer
    variable: an optional-blind variable), up to two levels of
    OPTIONAL/UNION, maybe a BIND that reads an outer variable, and 0-2
    FILTERs.

    A BIND targets ``?d`` at most once per query — the rebind error, when
    the outer BGP binds it — and otherwise a fresh variable; *targets*
    collects the ones taken. Only an outer binding can then make a BIND
    raise. (A BIND onto a variable its own subtree binds raises in the
    vector engine even when no outer row reaches it: a subtree that reads
    nothing from outside runs once, on its own.)
    """
    parts = [draw(open_bgp(max_size=1))]
    if depth < 2 and draw(st.booleans()):
        if draw(st.booleans()):
            nested = draw(inner_groups(targets, depth + 1))
            parts.append("OPTIONAL { " + nested + " }")
        else:
            first = draw(inner_groups(targets, depth + 1))
            second = draw(inner_groups(targets, depth + 1))
            parts.append("{ " + first + " } UNION { " + second + " }")
    if draw(st.booleans()):
        rebind = "?d" not in targets and draw(st.booleans())
        target = "?d" if rebind else f"?w{len(targets)}"
        targets.append(target)
        read = draw(st.sampled_from(OUTER_VARIABLES))
        parts.append(f"BIND({read} + 1 AS {target})")
    parts += draw(st.lists(outer_filters, max_size=2))
    return " ".join(parts)


@st.composite
def correlated_groups(draw):
    """An outer BGP joined with a plain group, an OPTIONAL group, or both,
    each built by :func:`inner_groups`."""
    targets = []
    parts = [draw(open_bgp(2, OUTER_VARIABLES))]
    form = draw(st.sampled_from(["plain", "optional", "both"]))
    if form != "optional":
        parts.append("{ " + draw(inner_groups(targets)) + " }")
    if form != "plain":
        parts.append("OPTIONAL { " + draw(inner_groups(targets)) + " }")
    return " ".join(parts)


def selects(wheres):
    @st.composite
    def build(draw):
        where = draw(wheres)
        distinct = "DISTINCT " if draw(st.booleans()) else ""
        projection = draw(st.sampled_from(["*", "?a ?b", "?a ?c", "?b"]))
        return f"SELECT {distinct}{projection} WHERE {{ {where} }}"

    return build()


def select_queries():
    return selects(where_clauses())


def correlated_selects():
    return selects(correlated_groups())


@st.composite
def aggregate_queries(draw):
    where = draw(where_clauses())
    function = draw(st.sampled_from(["COUNT", "SUM", "MIN", "MAX", "AVG"]))
    argument = draw(st.sampled_from(["?b", "?c", "DISTINCT ?c"]))
    agg = f"({function}({argument}) AS ?agg)"
    if draw(st.booleans()):
        return f"SELECT ?a {agg} WHERE {{ {where} }} GROUP BY ?a"
    return f"SELECT {agg} WHERE {{ {where} }}"


graphs = st.lists(triples, min_size=0, max_size=20).map(
    lambda rows: _build_graph(rows)
)

#: Graphs that give the correlated groups something to join.
dense_graphs = st.lists(triples, min_size=8, max_size=30).map(
    lambda rows: _build_graph(rows)
)


def _build_graph(rows):
    graph = Graph()
    text = "\n".join(f"{s} {p} {o} ." for s, p, o in rows)
    for triple in parse_ntriples(text):
        graph.add(*triple)
    return graph


def canonical(result):
    return sorted(
        sorted((variable.name, str(term)) for variable, term in row.items())
        for row in result
    )


def outcome(graph, text, engine="interpreted", budget=None):
    """The canonical multiset, or ``SPARQLError`` when the engine refuses
    the query (a malformed generated text fails the test instead)."""
    try:
        result = evaluate(
            graph, text, options=CompileOptions(engine=engine), budget=budget
        )
    except SPARQLSyntaxError:
        raise
    except SPARQLError:
        return SPARQLError
    return canonical(result)


def assert_engines_agree(graph, query):
    assert outcome(graph, query) == outcome(graph, query, "vector"), query


@given(graph=graphs, query=select_queries())
@settings(max_examples=120, deadline=None)
def test_select_multiset_equivalence(graph, query):
    assert_engines_agree(graph, PREFIX + query)


@given(graph=dense_graphs, query=correlated_selects())
@settings(max_examples=150, deadline=None)
def test_correlated_multiset_equivalence(graph, query):
    assert_engines_agree(graph, PREFIX + query)


def test_correlated_groups_reach_the_dependent_join():
    """Static guard: the correlated generator plans a join whose right side
    reads its left side's bindings in at least a quarter of its queries."""
    from repro.sparql import parse_query
    from repro.sparql.algebra import (
        ExtendOp,
        FilterOp,
        JoinOp,
        LeftJoinOp,
        UnionOp,
        operator_variables,
    )
    from repro.sparql.vector import compile_vector_plan
    from repro.sparql.vector.cost import correlation_variables

    def dependent(op):
        if isinstance(op, (JoinOp, LeftJoinOp)):
            if correlation_variables(op.right) & operator_variables(op.left):
                return True
            return dependent(op.left) or dependent(op.right)
        if isinstance(op, UnionOp):
            return any(dependent(operand) for operand in op.operands)
        if isinstance(op, (FilterOp, ExtendOp)):
            return dependent(op.operand)
        return False

    reached = []

    @given(where=correlated_groups())
    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    def sample(where):
        query = parse_query(PREFIX + f"SELECT * WHERE {{ {where} }}")
        tree = compile_vector_plan(
            query.where, Graph(), CompileOptions(engine="vector")
        )
        reached.append(dependent(tree))

    sample()
    assert sum(reached) >= 0.25 * len(reached), (sum(reached), len(reached))


@given(graph=graphs, query=aggregate_queries())
@settings(max_examples=80, deadline=None)
def test_aggregate_multiset_equivalence(graph, query):
    assert_engines_agree(graph, PREFIX + query)


@given(graph=graphs, query=where_clauses())
@settings(max_examples=40, deadline=None)
def test_ask_equivalence(graph, query):
    text = PREFIX + f"ASK {{ {query} }}"
    interpreted = evaluate(graph, text, options=CompileOptions())
    vector = evaluate(graph, text, options=CompileOptions(engine="vector"))
    assert interpreted == vector, text


def _generous_budget():
    """An E23 budget no generated query can exhaust: the governed path must
    be pure accounting, never enforcement."""
    from repro.resilience.deadline import Deadline
    from repro.sparql import QueryBudget

    return QueryBudget(
        deadline=Deadline(1e9, label="equivalence"),
        max_rows=10_000_000,
        max_bytes=1 << 42,
        checkpoint_charge_s=1e-9,
        row_charge_s=1e-9,
    )


@given(graph=graphs, query=st.one_of(select_queries(), correlated_selects()))
@settings(max_examples=40, deadline=None)
def test_governed_equivalence(graph, query):
    """Both engines under a generous budget match the ungoverned outcome."""
    text = PREFIX + query
    ungoverned = outcome(graph, text)
    for engine in ("interpreted", "vector"):
        budget = _generous_budget()
        governed = outcome(graph, text, engine, budget)
        assert governed == ungoverned, (engine, text)
        assert budget.checkpoints > 0
