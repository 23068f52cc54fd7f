"""E22 — columnar SPARQL execution vs the interpreted iterator model.

Paper claim: interactive Copernicus analytics needs the local store to answer
multi-join analytical queries over hundreds of thousands of triples at
interactive latency — the gap Strabon papers close with columnar/bulk
execution over dictionary-encoded ids. Expected shape: the vector engine's
advantage grows with data size (per-solution Python dict overhead vs flat
numpy id-arrays), reaching >= 5x on a five-pattern join + filter over a
>= 100k-triple graph, while returning byte-identical solution multisets at
every size (parity is asserted, not assumed) — including through the
GeoStore's spatial-candidate plans, where the R-tree candidates are a VALUES
table that runs on columns like the joins it feeds.
"""

import random
import time

import pytest

from benchmarks.conftest import emit_bench_snapshot, print_series
from repro.geometry import Point, Polygon
from repro.geosparql import GeoStore, geometry_literal
from repro.obs import Observability
from repro.rdf import GEO, Graph, Literal, Namespace
from repro.sparql import CompileOptions, evaluate

SEED = 22

EX = Namespace("http://ex.org/")
PREFIX = "PREFIX ex: <http://ex.org/> "

#: Product counts for the scaling sweep; each product contributes 4 triples
#: (category, supplier, price, stock) on top of ~70 dimension triples, so
#: the last point is a ~120k-triple graph.
PRODUCT_COUNTS = (500, 2_500, 12_500, 30_000)

ANALYTICAL_QUERY = (
    PREFIX + "SELECT ?p ?r ?k ?v WHERE { "
    "?p ex:cat ?c . ?c ex:region ?r . "
    "?p ex:supplier ?s . ?s ex:country ?k . "
    "?p ex:price ?v . FILTER(?v >= 750) }"
)

INTERPRETED = CompileOptions(engine="interpreted")
VECTOR = CompileOptions(engine="vector")


def build_graph(products: int) -> Graph:
    rng = random.Random(SEED)
    graph = Graph()
    categories, suppliers = 20, 50
    for c in range(categories):
        graph.add(EX[f"cat{c}"], EX.region, EX[f"region{c % 5}"])
    for s in range(suppliers):
        graph.add(EX[f"sup{s}"], EX.country, EX[f"country{s % 7}"])
    for i in range(products):
        product = EX[f"prod{i}"]
        graph.add(product, EX.cat, EX[f"cat{rng.randrange(categories)}"])
        graph.add(product, EX.supplier, EX[f"sup{rng.randrange(suppliers)}"])
        graph.add(product, EX.price, Literal.from_python(rng.randrange(1000)))
        graph.add(product, EX.stock, Literal.from_python(rng.randrange(100)))
    return graph


def fallback_count(obs) -> int:
    return sum(
        record["value"]
        for record in obs.metrics.snapshot()["counters"]
        if record["name"] == "sparql.vector.fallback_ops"
    )


def canonical(result):
    return sorted(
        sorted((v.name, str(t)) for v, t in row.items()) for row in result
    )


def timed(graph, query, options, passes, obs=None):
    best, result = None, None
    for _ in range(passes):
        start = time.perf_counter()
        result = evaluate(graph, query, options=options, obs=obs)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def test_e22_vector_vs_interpreted(benchmark):
    """Scaling sweep: parity at every size, >= 5x speedup at >= 100k triples."""
    obs = Observability()
    series = []
    parity_checked = parity_equal = 0
    for products in PRODUCT_COUNTS:
        graph = build_graph(products)
        # Best-of-N steady state: the first vector pass pays the one-time
        # per-graph setup (id-table snapshot, lazy codec fill); best-of
        # keeps the comparison to the per-query cost both engines repeat.
        passes = 3 if products <= 2_500 else 2
        interpreted_s, interpreted_result = timed(
            graph, ANALYTICAL_QUERY, INTERPRETED, passes
        )
        vector_s, vector_result = timed(
            graph, ANALYTICAL_QUERY, VECTOR, passes, obs=obs
        )
        parity_checked += 1
        if canonical(interpreted_result) == canonical(vector_result):
            parity_equal += 1
        series.append(
            {
                "triples": len(graph),
                "rows": len(vector_result),
                "interpreted_s": interpreted_s,
                "vector_s": vector_s,
                "speedup": interpreted_s / vector_s,
            }
        )
    print_series("E22: vector vs interpreted (5-pattern join + filter)", series)

    assert parity_equal == parity_checked, "engines disagreed on a multiset"
    at_scale = series[-1]
    assert at_scale["triples"] >= 100_000
    assert at_scale["speedup"] >= 5.0, at_scale

    # Correlated OPTIONALs run on columns as a dependent join: the filter on
    # top of the optional group, and one a whole OPTIONAL deeper, both read
    # the left row's ?v. Nothing falls back to the interpreted engine, so
    # the fallback counter is never emitted and both counts stay 0.
    graph = build_graph(500)
    conditional = (
        PREFIX + "SELECT ?p ?t WHERE { ?p ex:price ?v . "
        "OPTIONAL { ?p ex:stock ?t . FILTER(?v > 500) } }"
    )
    nested = (
        PREFIX + "SELECT ?p ?t ?c WHERE { ?p ex:price ?v . OPTIONAL { "
        "?p ex:stock ?t . OPTIONAL { ?p ex:cat ?c . FILTER(?v > 500) } } }"
    )
    fallbacks = {}
    for name, query in (("conditional", conditional), ("nested", nested)):
        before = fallback_count(obs)
        vector_rows = evaluate(graph, query, options=VECTOR, obs=obs)
        fallbacks[name] = fallback_count(obs) - before
        parity_checked += 1
        parity_equal += canonical(vector_rows) == canonical(
            evaluate(graph, query, options=INTERPRETED)
        )
    assert fallbacks["conditional"] == 0, "conditional OPTIONAL fell back"
    assert fallbacks["nested"] == 0, "nested correlated OPTIONAL fell back"

    # Spatial plans: the R-tree candidates are a planted VALUES table, run
    # on columns by the vector engine like the joins it drives.
    store = GeoStore()
    rng = random.Random(SEED)
    for i in range(400):
        store.add(
            EX[f"f{i}"],
            GEO.asWKT,
            geometry_literal(Point(rng.uniform(0, 50), rng.uniform(0, 50))),
        )
        store.add(EX[f"f{i}"], EX.id, Literal.from_python(i))
    box = geometry_literal(Polygon.box(10, 10, 30, 30))
    spatial_query = (
        PREFIX
        + "PREFIX geo: <http://www.opengis.net/ont/geosparql#> "
        + "PREFIX geof: <http://www.opengis.net/def/function/geosparql/> "
        + "SELECT ?f ?i WHERE { ?f geo:asWKT ?g . ?f ex:id ?i . "
        + f'FILTER(geof:sfIntersects(?g, "{box.lexical}"^^geo:wktLiteral)) }}'
    )
    spatial_interp = store.query(spatial_query, options=INTERPRETED)
    spatial_vector = store.query(spatial_query, options=VECTOR)
    parity_checked += 1
    parity_equal += canonical(spatial_interp) == canonical(spatial_vector)
    assert parity_equal == parity_checked

    mid_graph = build_graph(2_500)
    benchmark(lambda: evaluate(mid_graph, ANALYTICAL_QUERY, options=VECTOR))

    emit_bench_snapshot(
        "E22",
        obs,
        meta={
            "series": series,
            "speedup_at_scale": at_scale["speedup"],
            "triples_at_scale": at_scale["triples"],
            "parity_checked": parity_checked,
            "parity_equal": parity_equal,
            "spatial_rows": len(spatial_vector),
            "fallback_ops": fallbacks["nested"],
            "conditional_optional_fallback_ops": fallbacks["conditional"],
        },
        require=("sparql.vector.result_rows",),
    )


def test_e22_cost_order_uses_index_statistics():
    """The cost model must start the join from the smallest real extent,
    not the shape heuristic's guess (all patterns here share one shape)."""
    from repro.sparql.ast import TriplePattern, Variable
    from repro.sparql.algebra import order_patterns
    from repro.sparql.vector import cost_score

    graph = build_graph(2_000)
    broad = TriplePattern(Variable("p"), EX.cat, Variable("c"))  # 2000
    narrow = TriplePattern(Variable("c"), EX.region, Variable("r"))  # 20
    ordered = order_patterns([broad, narrow], graph, score=cost_score)
    assert ordered[0] is narrow
