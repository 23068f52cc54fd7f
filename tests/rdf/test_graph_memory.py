"""The graph's footprint on the bench's product shape: four triples per
product, a new subject each, shared categories, suppliers and literals.

The id columns, their three sort permutations and the term dictionary must
fit in 150 bytes a triple (measured with ``tracemalloc``; the terms
themselves are the caller's and are built before measuring).
"""

import random
import tracemalloc

from repro.rdf import Graph, Literal, Namespace

EX = Namespace("http://ex.org/")


def product_triples(products):
    rng = random.Random(5)
    for i in range(products):
        product = EX[f"prod{i}"]
        yield product, EX.cat, EX[f"cat{i % 20}"]
        yield product, EX.supplier, EX[f"sup{i % 50}"]
        yield product, EX.price, Literal.from_python(rng.randrange(1000))
        yield product, EX.stock, Literal.from_python(rng.randrange(100))


def traced_bytes(build):
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        graph = build()
        return graph, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_20k_product_triples_cost_at_most_150_bytes_each():
    triples = list(product_triples(5_000))

    def build():
        graph = Graph()
        graph.add_all(triples)
        return graph

    graph, used = traced_bytes(build)
    assert len(graph) == 20_000
    assert used / len(graph) <= 150
