"""Plan pins: the plans of the six bench query shapes, recorded before the
join-ordering code moved into the one plan-stage pass.

The graph is ``sparql_small_burst``'s size (500 products, 400 points) at
seed 11. Each shape has three pinned plans: the interpreted row's and the
vector row's, both through the GeoStore's spatial rewrite, and the
distributed plan's :func:`~repro.sparql.dist.plan_shape`. A change to the
planner, the orderer or the spatial rewrite must reproduce them.
"""

import random

import pytest

from bench.sparql_workloads import product_triples, shape_texts
from repro.geosparql import GeoStore
from repro.sparql import CompileOptions, parse_query
from repro.sparql.algebra import (
    EmptyOp,
    ExtendOp,
    FilterOp,
    JoinOp,
    LeftJoinOp,
    ScanOp,
    TableOp,
    UnionOp,
    expression_variables,
)
from repro.sparql.ast import Variable
from repro.sparql.dist import build_plan, plan_shape
from repro.sparql.pipeline import compile_plan
from repro.sparql.vector import compile_vector_plan

VECTOR = CompileOptions(engine="vector")
PREFIXES = (("ex:", "http://ex.org/"), ("geo:", "http://www.opengis.net/ont/geosparql#"))


def render(op) -> str:
    """A compact, total rendering of a plan: every scan in join order."""
    if isinstance(op, ScanOp):
        terms = (op.pattern.subject, op.pattern.predicate, op.pattern.object)
        return " ".join(
            f"?{t.name}" if isinstance(t, Variable) else _prefixed(t.n3())
            for t in terms
        )
    if isinstance(op, TableOp):
        names = " ".join(f"?{v.name}" for v in op.variables)
        return f"values({names}: {len(op.rows)} rows)"
    if isinstance(op, FilterOp):
        names = " ".join(sorted(f"?{v.name}" for v in expression_variables(op.expression)))
        return f"filter[{names}]({render(op.operand)})"
    if isinstance(op, (JoinOp, LeftJoinOp)):
        kind = "join" if isinstance(op, JoinOp) else "leftjoin"
        return f"{kind}({render(op.left)}, {render(op.right)})"
    if isinstance(op, UnionOp):
        return "union(" + ", ".join(render(o) for o in op.operands) + ")"
    if isinstance(op, ExtendOp):
        return f"extend[?{op.variable.name}]({render(op.operand)})"
    assert isinstance(op, EmptyOp), op
    return "empty"


def _prefixed(n3: str) -> str:
    for prefix, namespace in PREFIXES:
        if n3.startswith("<" + namespace):
            return prefix + n3[len(namespace) + 1:-1]
    return n3


@pytest.fixture(scope="module")
def bench():
    rng = random.Random(11)
    store = GeoStore()
    store.bulk_load(product_triples(rng, 500, 400))
    return store, shape_texts(rng, 500)


def plans(store, text):
    where = parse_query(text).where
    graph = store.graph
    interpreted = compile_plan(where, graph, CompileOptions(), store._rewrite)
    vector = compile_plan(where, graph, VECTOR, store._rewrite)
    dist = build_plan(compile_vector_plan(where, graph, VECTOR), graph, 64.0, 8)
    return render(interpreted), render(vector), plan_shape(dist)


#: shape -> (interpreted plan, vector plan, dist plan shape).
PINS = {
    "group": (
        "join(?p ex:cat ?c, ?p ex:price ?v)",
        "join(?p ex:cat ?c, ?p ex:price ?v)",
        "stage[?p]",
    ),
    "join5": (
        "join(join(join(join(filter[?v](?p ex:price ?v), ?p ex:cat ?c), "
        "?c ex:region ?r), ?p ex:supplier ?s), ?s ex:country ?k)",
        "join(join(join(join(?c ex:region ?r, ?p ex:cat ?c), "
        "filter[?v](?p ex:price ?v)), ?p ex:supplier ?s), ?s ex:country ?k)",
        "stage[?p](scan, scan)",
    ),
    "lookup": (
        "join(ex:prod246 ex:price ?v, ex:prod246 ex:stock ?t)",
        "join(ex:prod246 ex:price ?v, ex:prod246 ex:stock ?t)",
        "stage[<http://ex.org/prod246>]",
    ),
    "optional": (
        "leftjoin(join(?p ex:supplier ex:sup40, ?p ex:price ?v), "
        "filter[?v](?p ex:stock ?t))",
        "leftjoin(join(?p ex:supplier ex:sup40, ?p ex:price ?v), "
        "filter[?v](?p ex:stock ?t))",
        "local[LeftJoinOp]",
    ),
    "spatial": (
        "join(join(filter[?g](values(?g: 62 rows)), ?f geo:asWKT ?g), "
        "?f ex:price ?v)",
        "join(join(filter[?g](values(?g: 62 rows)), ?f geo:asWKT ?g), "
        "?f ex:price ?v)",
        "stage[?f]",
    ),
    "topk": (
        "join(join(?p ex:cat ex:cat15, ?p ex:price ?v), ?p ex:stock ?t)",
        "join(join(?p ex:cat ex:cat15, ?p ex:price ?v), ?p ex:stock ?t)",
        "stage[?p]",
    ),
}


class TestBenchShapePlans:
    @pytest.mark.parametrize("shape", sorted(PINS))
    def test_plans_are_pinned(self, bench, shape):
        store, texts = bench
        assert plans(store, texts[shape]) == PINS[shape]
