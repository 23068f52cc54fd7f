"""The one query pipeline: every entry point, one answer, one plan key.

``evaluate``, ``GeoStore.query``, ``StoreBackend.execute``,
``DistRuntime.query`` and ``DistBackend.execute`` are thin callers of
:func:`repro.sparql.pipeline.run_query`. This file pins what that buys:
equal solution multisets across entry x engine x budget x plan cache, a
budget that never reaches a plan key, an options object that *is* the key,
and engine labels that are validated instead of silently falling through
to the interpreted engine.
"""

import random
from dataclasses import FrozenInstanceError, fields

import pytest

from repro.cache import PlanCache
from repro.errors import SPARQLError
from repro.geometry import Point, Polygon
from repro.geosparql import GeoStore, geometry_literal
from repro.rdf import GEO, Literal, Namespace
from repro.serving import DistBackend, StoreBackend
from repro.sparql import CompileOptions, QueryBudget, evaluate
from repro.sparql.algebra import ENGINES
from repro.sparql.dist import DistRuntime
from repro.sparql.pipeline import ENGINE_TABLE

EX = Namespace("http://ex.org/")
PREFIXES = (
    "PREFIX ex: <http://ex.org/> "
    "PREFIX geo: <http://www.opengis.net/ont/geosparql#> "
    "PREFIX geof: <http://www.opengis.net/def/function/geosparql/> "
)
INTERPRETED = CompileOptions()
VECTOR = CompileOptions(engine="vector")
BOX = geometry_literal(Polygon.box(0, -5, 45, 5))

TEXTS = {
    "join": "SELECT ?f ?k ?n WHERE { ?f ex:kind ?k . ?f ex:rank ?n }",
    "optional": "SELECT ?f ?o WHERE { ?f ex:kind ?k OPTIONAL { ?f ex:owner ?o } }",
    "union": (
        "SELECT ?f WHERE { { ?f ex:kind \"even\" } UNION { ?f ex:owner ?o } }"
    ),
    "group": (
        "SELECT ?k (COUNT(?f) AS ?c) (SUM(?n) AS ?t) "
        "WHERE { ?f ex:kind ?k . ?f ex:rank ?n } GROUP BY ?k"
    ),
    "topk": (
        "SELECT ?f ?n WHERE { ?f ex:rank ?n } ORDER BY DESC(?n) LIMIT 5"
    ),
    "ask": "ASK { ?f ex:kind \"odd\" . ?f ex:owner ?o }",
    "values": (
        "SELECT ?f ?k WHERE { VALUES (?f ?k) { (ex:f1 UNDEF) (UNDEF \"even\") } "
        "?f ex:kind ?k }"
    ),
    "spatial": (
        "SELECT ?f WHERE { ?f geo:asWKT ?g . ?f ex:kind ?k . "
        f'FILTER (geof:sfIntersects(?g, "{BOX.lexical}"^^geo:wktLiteral)) }}'
    ),
}


@pytest.fixture(scope="module")
def seeded_store():
    rng = random.Random(15)
    store = GeoStore()
    ranks = list(range(40))
    rng.shuffle(ranks)  # distinct ranks: ORDER BY ... LIMIT is deterministic
    for i, rank in enumerate(ranks):
        feature = EX[f"f{i}"]
        store.add(feature, GEO.asWKT, geometry_literal(Point(i * 10, 0)))
        store.add(feature, EX.kind, Literal("even" if i % 2 == 0 else "odd"))
        store.add(feature, EX.rank, Literal.from_python(rank))
        if rng.random() < 0.4:
            store.add(feature, EX.owner, EX[f"owner{rng.randrange(4)}"])
    return store


@pytest.fixture
def store(seeded_store):
    """The seeded store; whatever plan cache a test attaches is detached."""
    yield seeded_store
    seeded_store.plan_cache = None


def canonical(result):
    if isinstance(result, bool):
        return result
    return sorted(
        tuple(sorted((v.name, str(t)) for v, t in row.items())) for row in result
    )


def entries(store, options, governed, cached):
    """name -> callable(text) for every text->rows entry point, all on the
    same graph and registry."""
    graph, registry = store.graph, store.registry
    eval_cache, dist_cache = (
        (PlanCache(), PlanCache()) if cached else (None, None)
    )
    store.plan_cache = PlanCache() if cached else None  # read at call time
    runtime = DistRuntime(graph, partitions=4, replication=2)
    store_backend = StoreBackend(store)
    dist_backend = DistBackend(graph, runtime, registry=registry)

    def budget():
        return QueryBudget(max_rows=10**9) if governed else None

    return {
        "evaluate": lambda text: evaluate(
            graph, text, registry, options, cache=eval_cache, budget=budget()
        ),
        "GeoStore.query": lambda text: store.query(
            text, options, budget=budget()
        ),
        "StoreBackend.execute": lambda text: store_backend.execute(
            text, options=options, budget=budget()
        ),
        "DistRuntime.query": lambda text: runtime.query(
            text, registry, options, cache=dist_cache, budget=budget()
        ),
        "DistBackend.execute": lambda text: dist_backend.execute(
            text, options=options, budget=budget()
        ),
    }


# ----------------------------------------------------------------------
# (a) One answer everywhere
# ----------------------------------------------------------------------

@pytest.mark.parametrize("shape", sorted(TEXTS))
def test_every_entry_engine_budget_and_cache_setting_agrees(store, shape):
    text = PREFIXES + TEXTS[shape]
    expected = canonical(evaluate(store.graph, text, store.registry))
    if shape != "ask":
        assert expected, "the seeded graph must make every shape non-empty"
    for options in (None, INTERPRETED, VECTOR):
        for governed in (False, True):
            for cached in (False, True):
                for name, run in entries(store, options, governed, cached).items():
                    for attempt in ("cold", "warm"):
                        assert canonical(run(text)) == expected, (
                            shape, name, options, governed, cached, attempt
                        )


def test_governed_and_ungoverned_runs_share_one_plan(store):
    """A budget is execution state: one miss, then one hit, per entry."""
    text = PREFIXES + TEXTS["join"]
    for options in (INTERPRETED, VECTOR):
        cache = PlanCache()
        evaluate(store.graph, text, store.registry, options, cache=cache)
        evaluate(
            store.graph, text, store.registry, options, cache=cache,
            budget=QueryBudget(max_rows=10**9),
        )
        assert cache.stats["plans"]["misses"] == 1
        assert cache.stats["plans"]["hits"] == 1

        store.plan_cache = PlanCache()
        store.query(text, options)
        store.query(text, options, budget=QueryBudget(max_rows=10**9))
        assert store.plan_cache.stats["plans"]["misses"] == 1
        assert store.plan_cache.stats["plans"]["hits"] == 1


def test_engines_never_share_a_plan_entry(store):
    text = PREFIXES + TEXTS["join"]
    cache = PlanCache()
    for options in (INTERPRETED, VECTOR, INTERPRETED, VECTOR):
        evaluate(store.graph, text, store.registry, options, cache=cache)
    assert cache.stats["plans"]["misses"] == 2
    assert cache.stats["plans"]["hits"] == 2
    # No options at all is the default options, not a third entry.
    evaluate(store.graph, text, store.registry, cache=cache)
    assert cache.stats["plans"]["misses"] == 2


# ----------------------------------------------------------------------
# (b) Shape pin: runtime state cannot creep back unnoticed
# ----------------------------------------------------------------------

def test_compile_options_hold_plan_state_only():
    assert [f.name for f in fields(CompileOptions)] == [
        "push_filters", "reorder_patterns", "engine",
    ]
    assert hash(CompileOptions()) == hash(CompileOptions())
    assert CompileOptions() == CompileOptions(engine="interpreted")
    assert len({INTERPRETED, VECTOR, CompileOptions(push_filters=False)}) == 3
    with pytest.raises(FrozenInstanceError):
        CompileOptions().engine = "vector"
    with pytest.raises(TypeError):
        CompileOptions(budget=QueryBudget(max_rows=5))
    assert set(ENGINE_TABLE) == set(ENGINES)


# ----------------------------------------------------------------------
# (c) Key pin the wall-clock bench relies on
# ----------------------------------------------------------------------

def test_store_plan_entry_is_keyed_store_text_options_version(store):
    text = PREFIXES + TEXTS["spatial"]
    store.plan_cache = PlanCache()
    store.query(text, VECTOR)

    def build():
        raise AssertionError("the store's own entry must be found")

    store.plan_cache.plan(store, text, VECTOR, store.graph.version, build)
    assert store.plan_cache.stats["plans"]["hits"] == 1


# ----------------------------------------------------------------------
# Engine labels are validated (all three fail on the parent commit)
# ----------------------------------------------------------------------

def test_evaluate_rejects_an_unknown_engine(store):
    with pytest.raises(SPARQLError, match="'interpreted', 'vector'"):
        evaluate(
            store.graph, PREFIXES + TEXTS["join"],
            options=CompileOptions(engine="vectro"),
        )


def test_geostore_rejects_an_unknown_engine(store):
    with pytest.raises(SPARQLError, match="unknown engine 'vectro'"):
        store.query(PREFIXES + TEXTS["join"], CompileOptions(engine="vectro"))


def test_dist_through_geostore_is_an_error_not_a_wrong_engine(store):
    """``CompileOptions(engine="dist", dist=rt)`` used to run *interpreted*
    through GeoStore.query without ever touching the runtime."""
    runtime = DistRuntime(store.graph, partitions=2, replication=1)
    with pytest.raises((TypeError, SPARQLError)):
        store.query(
            PREFIXES + TEXTS["join"],
            CompileOptions(engine="dist", dist=runtime),
        )
    assert runtime.last_report is None
    with pytest.raises(SPARQLError):
        store.query(PREFIXES + TEXTS["join"], CompileOptions(engine="dist"))
