"""Template plans: a text bound to its template's plan is the text planned.

The plan cache serves a text it has not seen from its template's parse and
plan (:mod:`repro.sparql.template`). That is only allowed where it changes
nothing: for every text, on both engines, the bound AST equals
``parse_query(text)``, the bound tree equals ``compile_plan`` of the literal
text, and the rows equal the uncached rows in order. The texts are the
engine-equivalence corpus with its constants varied, GeoStore boxes inside,
across and outside the data's extent, and every text the
``sparql_small_burst`` workload issues at smoke size.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bench.sparql_workloads import VECTOR, SmallBurst
from repro.cache import PlanCache
from repro.errors import SPARQLError
from repro.geometry import Point, Polygon
from repro.geosparql import GeoStore, geometry_literal
from repro.rdf import GEO, Literal, Namespace
from repro.rdf.ntriples import parse_ntriples
from repro.sparql import CompileOptions, Variable, evaluate, parse_query
from repro.sparql.pipeline import compile_plan
from repro.sparql.tokenizer import SLOT, normalise

from tests.sparql.test_engine_equivalence import (
    OBJECTS,
    PREDICATES,
    SUBJECTS,
    _build_graph,
    aggregate_queries,
    correlated_selects,
    graphs,
    select_queries,
)

ENGINES = (CompileOptions(), CompileOptions(engine="vector"))
EX = Namespace("http://ex.org/")
GEO_PREFIXES = (
    "PREFIX ex: <http://ex.org/> "
    "PREFIX geo: <http://www.opengis.net/ont/geosparql#> "
    "PREFIX geof: <http://www.opengis.net/def/function/geosparql/> "
)


def rebuild(template, params):
    pieces = template.split(SLOT)
    return pieces[0] + "".join(
        param + piece[1:] for piece, param in zip(pieces[1:], params)
    )


def fail():
    raise AssertionError("expected a cached entry")


def outcome(run):
    try:
        return run()
    except SPARQLError as error:
        return type(error), str(error)


def check_text(cache, owner, graph, text, options, cached, plain, rewrite=None):
    """One text through the cache: rows, AST and tree as planning it."""
    assert outcome(cached) == outcome(plain), text
    assert cache.parse(text, lambda _: fail()).ast == parse_query(text)
    tree = cache.plan(owner, text, options, graph.version, fail)
    assert tree == compile_plan(parse_query(text).where, graph, options, rewrite)


# ----------------------------------------------------------------------
# The engine-equivalence corpus, constants varied
# ----------------------------------------------------------------------

IRI_PARAMS = SUBJECTS + [o for o in OBJECTS if o.startswith("<")] + ["<http://ex.org/zz>"]


@st.composite
def variants(draw, text, count=3):
    """*text* and *count* texts of its template with other constants."""
    normalised = normalise(text)
    template = normalised.template
    texts = [text]
    for _ in range(count):
        params = []
        for piece in template.split(SLOT)[1:]:
            kind = piece[0]
            if kind == "I":
                params.append(draw(st.sampled_from(IRI_PARAMS)))
            elif kind == "s" and piece[1:].startswith("^^"):
                params.append(f'"{draw(st.integers(-1, 9))}"')
            elif kind == "s":
                params.append(draw(st.sampled_from(['"alpha"', '"beta"', '"zeta"'])))
            else:
                params.append(str(draw(st.integers(-2, 10))))
        texts.append(rebuild(template, params))
    return texts


@st.composite
def corpus_cases(draw):
    graph = draw(graphs)
    text = draw(st.one_of(select_queries(), aggregate_queries(), correlated_selects()))
    texts = draw(variants(text))
    s, p, o = (draw(st.sampled_from(pool)) for pool in (SUBJECTS, PREDICATES, OBJECTS))
    return graph, texts, (s, p, o), draw(st.randoms(use_true_random=False))


@settings(max_examples=60, deadline=None)
@given(case=corpus_cases())
def test_corpus_variants_bind_to_the_literal_plan(case):
    graph, texts, (s, p, o), rng = case
    for options in ENGINES:
        cache = PlanCache()

        def run(text, cache=None):
            return lambda: evaluate(graph, text, options=options, cache=cache)

        for text in texts:
            check_text(cache, graph, graph, text, options, run(text, cache), run(text))
        # A mutation moves the version: the next text's plan is rebuilt.
        (triple,) = parse_ntriples(f"{s} {p} {o} .")
        existing = list(graph)
        if existing and (triple in existing or rng.random() < 0.5):
            graph.remove(*rng.choice(existing))
        else:
            graph.add(*triple)
        before = cache.stats["template_plans"]["misses"]
        text = rng.choice(texts)
        check_text(cache, graph, graph, text, options, run(text, cache), run(text))
        assert cache.stats["template_plans"]["misses"] == before + 1


def test_corpus_shaped_texts_reuse_one_template_plan():
    # Constants outside triple patterns move no extent: one template plan.
    graph = _build_graph([(s, PREDICATES[0], OBJECTS[3]) for s in SUBJECTS])
    cache = PlanCache()
    texts = [
        f"SELECT ?a ?b WHERE {{ ?a {PREDICATES[0]} ?b . FILTER(?b > {n}) }}"
        for n in range(6)
    ]
    for options in ENGINES:
        for text in texts:
            check_text(
                cache, graph, graph, text, options,
                lambda: evaluate(graph, text, options=options, cache=cache),
                lambda: evaluate(graph, text, options=options),
            )
    # The parse tier serves the second engine: one template parse, five binds.
    assert cache.stats["templates"]["misses"] == 1
    assert cache.stats["templates"]["hits"] == 5
    assert cache.stats["template_plans"]["misses"] == 2  # one per engine
    assert cache.stats["template_plans"]["hits"] == 10


# ----------------------------------------------------------------------
# GeoStore: candidates are filled at bind time
# ----------------------------------------------------------------------

def load(store):
    for i in range(100):
        store.add(EX[f"f{i}"], GEO.asWKT, geometry_literal(Point(i % 10, i // 10)))
        store.add(EX[f"f{i}"], EX.cat, EX[f"cat{i % 3}"])
        store.add(EX[f"f{i}"], EX.price, Literal.from_python(i))
    return store


def spatial_text(x0, y0, x1, y1, category=None):
    box = geometry_literal(Polygon.box(x0, y0, x1, y1))
    cat = f"?f ex:cat ex:{category} . " if category else ""
    return (
        GEO_PREFIXES + "SELECT ?f ?v WHERE { ?f geo:asWKT ?g . ?f ex:price ?v . "
        + cat + f'FILTER(geof:sfIntersects(?g, "{box.lexical}"^^geo:wktLiteral)) '
        "FILTER(?v > 10) } ORDER BY ?v"
    )


BOXES = [
    (2, 2, 5, 5),  # inside the extent
    (7.5, 7.5, 15, 15),  # across its edge
    (20, 20, 30, 30),  # outside: no candidates
    (-1, -1, 11, 11),  # around all of it
]


@pytest.mark.parametrize("options", ENGINES, ids=["interpreted", "vector"])
def test_geostore_boxes_bind_to_the_literal_plan(options):
    cached, plain = load(GeoStore(plan_cache=PlanCache())), load(GeoStore())
    cache = cached.plan_cache
    texts = [spatial_text(*box) for box in BOXES] + [
        spatial_text(*box, category=c) for box in BOXES for c in ("cat1", "nocat")
    ]
    for text in texts:
        check_text(
            cache, cached, cached.graph, text, options,
            lambda: cached.query(text, options=options),
            lambda: plain.query(text, options=options),
            cached._rewrite,
        )
    # Bound candidates are counted once per text-tier miss, as planning
    # each text does.
    assert cache.stats["template_plans"]["hits"] > 0
    assert cached.stats == {
        key: value * 2 for key, value in plain.stats.items()
    }  # compile_plan in check_text planned each text once more
    before = cached.stats
    cached.query(texts[0], options=options)
    assert cached.stats == before
    # A new feature moves the version: rebuilt, and found.
    for store in (cached, plain):
        store.add(EX.fresh, GEO.asWKT, geometry_literal(Point(3, 3)))
        store.add(EX.fresh, EX.price, Literal.from_python(500))
    misses = cache.stats["template_plans"]["misses"]
    text = spatial_text(*BOXES[0])
    rows = cached.query(text, options=options)
    assert rows == plain.query(text, options=options)
    assert EX.fresh in [row[Variable("f")] for row in rows]
    assert cache.stats["template_plans"]["misses"] == misses + 1


# ----------------------------------------------------------------------
# Every text sparql_small_burst issues at smoke size
# ----------------------------------------------------------------------

def test_small_burst_texts_bind_to_the_literal_plan():
    workload = SmallBurst(seed=11, smoke=True)
    workload.generate()
    store = GeoStore(plan_cache=PlanCache())
    store.bulk_load(workload.triples)
    cache = store.plan_cache
    for text in workload.pool:
        store.query(text, options=VECTOR)
        assert cache.parse(text, lambda _: fail()).ast == parse_query(text)
        tree = cache.plan(store, text, VECTOR, store.graph.version, fail)
        assert tree == compile_plan(
            parse_query(text).where, store.graph, VECTOR, store._rewrite
        )
    assert cache.stats["templates"]["misses"] == len(workload.templates)
    assert cache.stats["template_plans"]["misses"] == len(workload.templates)
