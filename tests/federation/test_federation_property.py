"""Property test: a federated answer equals the centralised one.

Random triples are split over two or three endpoints (each triple lives at
exactly one), and every drawn query — filters, DISTINCT, ORDER BY,
LIMIT/OFFSET, COUNT/SUM — must return what ``evaluate`` returns on the merged
graph: as a list when the ORDER BY is total, as a multiset otherwise.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.federation import Endpoint, execute_federated
from repro.rdf import Graph, Literal, Namespace
from repro.sparql import evaluate

EX = Namespace("http://ex.org/")
PREFIX = "PREFIX ex: <http://ex.org/> "

# (triple, endpoint index): ex:link joins nodes, ex:val gives them numbers.
placed_triples = st.dictionaries(
    st.one_of(
        st.tuples(st.integers(0, 5), st.just("link"), st.integers(0, 5)),
        st.tuples(st.integers(0, 5), st.just("val"), st.integers(0, 9)),
    ),
    st.integers(0, 2),
    max_size=24,
)

BODIES = [
    "?x ex:link ?y . ?y ex:val ?v",
    "?x ex:val ?v . FILTER (?v >= 4)",
    "?x ex:link ?y . ?x ex:val ?v . FILTER (?v != 3)",
]

# (select clause, what follows WHERE, ordering is total). Every body binds
# ?x and ?v, and one (?x, ?y, ?v) row per solution, so ``?v ?x ?y`` orders
# totally; aggregates give one row, or one per ordered group.
modified_queries = st.one_of(
    st.tuples(
        st.sampled_from(["*", "?x ?v", "DISTINCT ?v", "DISTINCT ?x ?v"]),
        st.builds(
            "ORDER BY {} {}".format,
            st.sampled_from(["?v ?x ?y", "DESC(?v) ?x ?y"]),
            st.sampled_from(["", "LIMIT 3", "OFFSET 2", "LIMIT 2 OFFSET 1"]),
        ),
        st.just(True),
    ),
    st.tuples(
        st.sampled_from(["*", "?x", "DISTINCT ?x"]),
        st.sampled_from(["", "ORDER BY DESC(?v)"]),
        st.just(False),
    ),
    st.sampled_from(
        [
            ("(COUNT(?x) AS ?n)", "", True),
            ("(SUM(?v) AS ?s)", "", True),
            ("?x (COUNT(?v) AS ?n) (SUM(?v) AS ?s)", "GROUP BY ?x ORDER BY ?x", True),
        ]
    ),
)


def term(kind, value):
    return EX[f"n{value}"] if kind == "link" else Literal.from_python(value)


def canonical(solutions):
    return sorted(sorted((v.name, repr(t)) for v, t in s.items()) for s in solutions)


@given(
    placed=placed_triples,
    endpoint_count=st.integers(2, 3),
    body=st.sampled_from(BODIES),
    shape=modified_queries,
)
@settings(max_examples=50, deadline=None)
def test_federated_equals_centralised(placed, endpoint_count, body, shape):
    graphs = [Graph(f"g{i}") for i in range(endpoint_count)]
    merged = Graph()
    for (subject, predicate, obj), index in placed.items():
        triple = (EX[f"n{subject}"], EX[predicate], term(predicate, obj))
        graphs[index % endpoint_count].add(*triple)
        merged.add(*triple)
    endpoints = [Endpoint(graph.name, graph) for graph in graphs]

    select, tail, total = shape
    query = PREFIX + f"SELECT {select} WHERE {{ {body} }} {tail}"
    federated, metrics = execute_federated(query, endpoints)
    central = evaluate(merged, query)
    assert metrics.results == len(federated)
    if total:
        assert federated == central
    else:
        assert canonical(federated) == canonical(central)
