"""Property test: both engines return identical solution multisets — E22.

Generates randomized small graphs (IRIs, integer literals, plain string
literals) and randomized queries covering joins, OPTIONAL, UNION, VALUES
with UNDEF, error-producing FILTERs (numeric comparison over strings), BIND
arithmetic, DISTINCT, and grouped aggregates — then asserts the interpreted
and vector engines agree on the canonicalized solution multiset.

Integer-only literals keep the comparison exact: no float rounding and no
MIN/MAX ties between value-equal but differently-typed terms (where the two
engines may legitimately pick different representative terms).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

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


@st.composite
def select_queries(draw):
    where = draw(where_clauses())
    distinct = "DISTINCT " if draw(st.booleans()) else ""
    projection = draw(st.sampled_from(["*", "?a ?b", "?a ?c", "?b"]))
    return f"SELECT {distinct}{projection} WHERE {{ {where} }}"


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


def assert_engines_agree(graph, query):
    interpreted = evaluate(graph, query, options=CompileOptions())
    vector = evaluate(graph, query, options=CompileOptions(engine="vector"))
    assert canonical(interpreted) == canonical(vector), query


@given(graph=graphs, query=select_queries())
@settings(max_examples=120, deadline=None)
def test_select_multiset_equivalence(graph, query):
    assert_engines_agree(graph, PREFIX + query)


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


@given(graph=graphs, query=select_queries())
@settings(max_examples=40, deadline=None)
def test_governed_equivalence(graph, query):
    """Both engines under a generous budget match the ungoverned multiset."""
    text = PREFIX + query
    ungoverned = canonical(evaluate(graph, text, options=CompileOptions()))
    for engine in ("interpreted", "vector"):
        budget = _generous_budget()
        governed = evaluate(
            graph, text, options=CompileOptions(engine=engine), budget=budget
        )
        assert canonical(governed) == ungoverned, (engine, text)
        assert budget.checkpoints > 0
