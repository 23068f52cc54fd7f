"""`Graph.add_all`, the batched load path, against one `add` at a time.

A batch may repeat triples and may repeat triples the graph already holds
(or held, and lost to a remove). Whether it is small enough for the
per-triple path or large enough to be folded in by one merge, the graph
must end exactly as the same ``add`` calls would leave it: the same triple
set, iteration order, term ids, ``id_terms()`` and ``version``.
"""

from itertools import product

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.rdf import Graph, Literal, Namespace
from repro.rdf.graph import _sort_order
from repro.rdf.term import Triple

EX = Namespace("http://ex.org/")

SUBJECTS = [EX[f"s{i}"] for i in range(5)] + [EX.o0]
PREDICATES = [EX.p, EX.q, EX.s0]
OBJECTS = [EX.o0, EX.o1, EX.s1, Literal("1"), Literal.from_python(1)]
UNIVERSE = [Triple(*spo) for spo in product(SUBJECTS, PREDICATES, OBJECTS)]
triples = st.lists(st.sampled_from(UNIVERSE), max_size=60)


def snapshot(graph):
    return {
        "triples": list(graph),
        "terms": list(graph.id_terms()),
        "ids": [graph.term_id(term) for term in graph.id_terms()],
        "len": len(graph),
        "version": graph.version,
        "members": [triple in graph for triple in UNIVERSE],
    }


@given(history=triples, removed=triples, batch=triples)
@example(history=[], removed=[], batch=UNIVERSE + UNIVERSE[::-1])
@example(history=UNIVERSE, removed=UNIVERSE[::3], batch=UNIVERSE[::-2] * 2)
@settings(max_examples=150, deadline=None)
def test_add_all_equals_one_add_at_a_time(history, removed, batch):
    one, many = Graph(), Graph()
    for graph in (one, many):
        for triple in history:
            graph.add(*triple)
        for triple in removed:
            graph.remove(*triple)
    inserted = sum(one.add(*triple) for triple in batch)
    assert many.add_all(batch) == inserted
    assert snapshot(many) == snapshot(one)


def test_packed_sort_and_lexsort_agree():
    """The merge sorts rows by one packed int64 key; past 2**21 terms three
    ids no longer fit and ``np.lexsort`` takes over with the same order."""
    rng = np.random.default_rng(7)
    a, b, c = (rng.integers(0, 50, 400) for _ in range(3))
    packed = _sort_order(a, b, c, 50, stable=True)
    assert np.array_equal(packed, _sort_order(a, b, c, 2**21, stable=True))
    assert np.array_equal(packed, np.lexsort((c, b, a)))
