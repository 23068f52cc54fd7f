"""Spatial FILTERs on the distributed engine equal the single-node vector
engine.

The store holds points on a jittered grid over ``[0, EXTENT]^2`` plus boxes
and polygons; query boxes lie inside the extent, across its border or
outside it. ``DistRuntime.query`` gets the store's function registry, so
every partition task refines its candidates with the GeoSPARQL relations.
Clean runs must agree exactly; a chaotic run must agree or abort with a
typed, retryable fault, and every run must release its admission tickets.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ClusterError, PartitionUnavailable
from repro.faults import FaultInjector, FaultPlan
from repro.geometry import Point, Polygon
from repro.geosparql import GeoStore, geometry_literal
from repro.rdf import GEO, Namespace
from repro.rdf.term import Literal
from repro.sparql import CompileOptions
from repro.sparql.dist import DistRuntime, PartialResult

from tests.sparql.test_dist_equivalence import layouts
from tests.sparql.test_engine_equivalence import canonical

EX = Namespace("http://ex.org/")
PREFIXES = (
    "PREFIX ex: <http://ex.org/> "
    "PREFIX geo: <http://www.opengis.net/ont/geosparql#> "
    "PREFIX geof: <http://www.opengis.net/def/function/geosparql/> "
)
EXTENT = 10.0
BOXES = {
    "inside": (2.0, 2.5, 6.0, 5.5),
    "across": (-3.0, 4.0, 3.5, 12.0),
    "outside": (12.0, 12.0, 15.0, 14.0),
    "edge": (0.0, 0.0, 5.0, 5.0),
}
VECTOR = CompileOptions(engine="vector")


def build_store() -> GeoStore:
    rng = random.Random(20)
    store = GeoStore()
    triples = []
    for i in range(100):
        row, col = divmod(i, 10)
        if i % 7 == 0:
            x, y = col + 0.2, row + 0.2
            geometry = Polygon.box(x, y, x + rng.choice([0.5, 1.5]), y + 0.6)
        elif i % 11 == 0:
            geometry = Polygon([(col, row), (col + 1, row), (col + 0.5, row + 0.9)])
        else:
            geometry = Point(col + round(rng.uniform(0.0, 1.0), 1),
                             row + round(rng.uniform(0.0, 1.0), 1))
        triples.append((EX[f"f{i}"], GEO.asWKT, geometry_literal(geometry)))
        triples.append((EX[f"f{i}"], EX.val, Literal.from_python(i % 13)))
    store.bulk_load(triples)
    return store


STORE = build_store()


def spatial_text(relation: str, box: str, var_first: bool) -> str:
    constant = geometry_literal(Polygon.box(*BOXES[box]))
    constant = f'"{constant.lexical}"^^geo:wktLiteral'
    args = f"?g, {constant}" if var_first else f"{constant}, ?g"
    return (
        PREFIXES + "SELECT ?f ?v WHERE { ?f geo:asWKT ?g . ?f ex:val ?v . "
        f"FILTER(geof:{relation}({args})) }}"
    )


queries = st.builds(
    spatial_text,
    st.sampled_from(["sfIntersects", "sfWithin", "sfContains"]),
    st.sampled_from(sorted(BOXES)),
    st.booleans(),
)


def runtime_for(layout, injector=None) -> DistRuntime:
    partitions, replication, threshold = layout
    runtime = DistRuntime(
        STORE.graph,
        partitions=partitions,
        replication=replication,
        broadcast_threshold_rows=threshold,
    )
    runtime.injector = injector
    return runtime


def assert_tickets_balanced(runtime, text):
    report = runtime.last_report
    assert report.tickets_issued == report.tickets_released, text


@given(text=queries, layout=layouts)
@settings(max_examples=60, deadline=None)
def test_spatial_filter_equals_vector_engine(text, layout):
    runtime = runtime_for(layout)
    dist = runtime.query(text, registry=STORE.registry)
    assert_tickets_balanced(runtime, text)
    assert not isinstance(dist, PartialResult)
    assert canonical(dist) == canonical(STORE.query(text, options=VECTOR)), text


def test_boxes_select_what_they_should():
    """The cases are not vacuous: inside and across boxes select features,
    the outside box selects none."""
    counts = {
        box: len(STORE.query(spatial_text("sfIntersects", box, True), options=VECTOR))
        for box in BOXES
    }
    assert counts["inside"] > 0 and counts["across"] > 0 and counts["edge"] > 0
    assert counts["outside"] == 0


@pytest.mark.parametrize("box", sorted(BOXES))
def test_spatial_filter_under_chaos(box):
    """Seed 44's plan makes the tasks read remote replicas and publish
    duplicate outputs on this layout."""
    text = spatial_text("sfIntersects", box, True)
    expected = canonical(STORE.query(text, options=VECTOR))
    plan = FaultPlan.chaos(
        seed=44,
        node_count=4,
        node_crash_prob=0.25,
        straggler_prob=0.3,
        task_failure_rate=0.15,
        node_loss_prob=0.2,
        network_partition_prob=0.2,
        network_partition_duration_s=0.01,
        horizon_s=0.03,
    )
    runtime = runtime_for((4, 2, 1.0), injector=FaultInjector(plan))
    try:
        dist = runtime.query(text, registry=STORE.registry)
    except PartitionUnavailable as fault:
        assert fault.retryable
        dist = None
    except ClusterError:
        dist = None
    assert_tickets_balanced(runtime, text)
    if dist is not None:
        assert not isinstance(dist, PartialResult)
        assert canonical(dist) == expected, text
