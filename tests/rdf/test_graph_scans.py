"""What a pattern scan (`Graph.id_rows`) hands the vector engine.

A scan returns only its wildcard columns, each a slice of the storage of
the order its constants prefix: on a compact graph nothing is gathered or
copied, but for the predicate column of an object-led scan. Its rows come out in (subject, predicate, object) order whichever
order answered, as the base is sorted, so a subject range of any scan is
a contiguous run of it.
"""

from itertools import product

import numpy as np
import pytest

from repro.rdf import Graph, Literal, Namespace

EX = Namespace("http://ex.org/")
SUBJECTS = [EX[f"s{i}"] for i in range(12)]
PREDICATES = [EX.p, EX.q, EX.r]
OBJECTS = [EX.s1, EX.s4, EX.o, Literal("1"), Literal("2")]


def graph_of(keep):
    graph = Graph()
    graph.add_all([
        (s, p, o) for i, (s, p, o) in enumerate(product(SUBJECTS, PREDICATES, OBJECTS))
        if keep(i)
    ])
    graph.compact()
    return graph


#: Every bound/wildcard shape, each with constants that occur.
SHAPES = list(product([None, EX.s4], [None, EX.q], [None, EX.s1]))


@pytest.mark.parametrize("pattern", [
    # An object-led scan with a wildcard predicate is the one that gathers
    # its predicate column through the OSP permutation.
    shape for shape in SHAPES if not (shape[1] is None and shape[2] is not None)
])
def test_a_scan_on_a_compact_graph_is_views_of_the_graph(pattern):
    graph = graph_of(lambda i: i % 3 != 1)
    first, nrows = graph.id_rows(pattern)
    second, _ = graph.id_rows(pattern)
    assert nrows > 0
    for term, column, again in zip(pattern, first, second):
        if term is not None:
            assert column is None  # a bound position is never built
            continue
        assert len(column) == nrows
        assert not column.flags.owndata and not column.flags.writeable
        # Two scans read the same memory: neither is a copy.
        assert np.shares_memory(column, again)


@pytest.mark.parametrize("pattern", SHAPES)
@pytest.mark.parametrize("pending", [False, True])
def test_scan_rows_come_out_in_spo_order(pattern, pending):
    graph = graph_of(lambda i: i % 4 != 0)
    if pending:  # tombstones over the base; the delta's rows come last
        for triple in list(graph)[::5]:
            graph.remove(*triple)
    columns, nrows = graph.id_rows(pattern)
    ids = [graph.term_id(term) for term in pattern]
    rows = list(zip(*(
        [term_id] * nrows if column is None else column.tolist()
        for term_id, column in zip(ids, columns)
    )))
    assert rows == sorted(rows) and len(set(rows)) == nrows
    expected = sorted(
        tuple(graph.term_id(term) for term in triple)
        for triple in graph.triples(pattern)
    )
    assert rows == expected
