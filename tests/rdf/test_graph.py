"""Tests for the indexed triple store."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RDFError
from repro.rdf import Graph, IRI, Literal
from repro.rdf.term import Triple


EX = "http://ex.org/"


def iri(name):
    return IRI(EX + name)


@pytest.fixture
def graph():
    g = Graph()
    g.add(iri("alice"), iri("knows"), iri("bob"))
    g.add(iri("alice"), iri("knows"), iri("carol"))
    g.add(iri("bob"), iri("knows"), iri("carol"))
    g.add(iri("alice"), iri("name"), Literal("Alice"))
    return g


class TestMutation:
    def test_add_returns_true_then_false(self):
        g = Graph()
        assert g.add(iri("a"), iri("p"), iri("b")) is True
        assert g.add(iri("a"), iri("p"), iri("b")) is False
        assert len(g) == 1

    def test_remove(self, graph):
        assert graph.remove(iri("alice"), iri("knows"), iri("bob")) is True
        assert graph.remove(iri("alice"), iri("knows"), iri("bob")) is False
        assert len(graph) == 3
        assert list(graph.triples((iri("alice"), iri("knows"), iri("bob")))) == []

    def test_remove_prunes_indexes(self):
        g = Graph()
        g.add(iri("a"), iri("p"), iri("b"))
        g.remove(iri("a"), iri("p"), iri("b"))
        assert list(g.triples((iri("a"), None, None))) == []
        assert list(g.triples((None, iri("p"), None))) == []
        assert list(g.triples((None, None, iri("b")))) == []

    def test_add_all(self):
        g = Graph()
        triples = [
            Triple(iri("a"), iri("p"), iri("b")),
            Triple(iri("a"), iri("p"), iri("b")),
            Triple(iri("a"), iri("p"), iri("c")),
        ]
        assert g.add_all(triples) == 2

    def test_contains(self, graph):
        assert Triple(iri("alice"), iri("knows"), iri("bob")) in graph
        assert Triple(iri("bob"), iri("knows"), iri("alice")) not in graph

    def test_iteration_is_insertion_order(self, graph):
        """Not set order: a dump must not depend on PYTHONHASHSEED. The
        swap-pop inside ``remove`` moves a row, not a place in this order."""
        first, second, third, fourth = list(graph)
        assert (first.object, fourth.object) == (iri("bob"), Literal("Alice"))
        graph.remove(*first)
        graph.add(*first)
        assert list(graph) == [second, third, fourth, first]
        assert list(graph.triples((None, None, None))) == list(graph)


class TestPatterns:
    def test_all_eight_patterns(self, graph):
        s, p, o = iri("alice"), iri("knows"), iri("bob")
        full = Triple(s, p, o)
        # Every combination of bound/unbound must return consistent results.
        for mask in itertools.product([True, False], repeat=3):
            pattern = (
                s if mask[0] else None,
                p if mask[1] else None,
                o if mask[2] else None,
            )
            results = set(graph.triples(pattern))
            expected = {
                t
                for t in graph
                if (pattern[0] is None or t.subject == pattern[0])
                and (pattern[1] is None or t.predicate == pattern[1])
                and (pattern[2] is None or t.object == pattern[2])
            }
            assert results == expected, f"pattern {mask}"
            assert full in results

    def test_count_matches_iteration(self, graph):
        patterns = [
            (None, None, None),
            (iri("alice"), None, None),
            (None, iri("knows"), None),
            (None, None, iri("carol")),
            (iri("alice"), iri("knows"), None),
            (None, iri("knows"), iri("carol")),
        ]
        for pattern in patterns:
            assert graph.count(pattern) == len(list(graph.triples(pattern)))

    def test_subjects_objects_unique(self, graph):
        assert set(graph.subjects(iri("knows"))) == {iri("alice"), iri("bob")}
        assert set(graph.objects(iri("alice"), iri("knows"))) == {
            iri("bob"),
            iri("carol"),
        }

    def test_value_single(self, graph):
        assert graph.value(iri("alice"), iri("name")) == Literal("Alice")

    def test_value_none(self, graph):
        assert graph.value(iri("carol"), iri("name")) is None

    def test_value_multiple_raises(self, graph):
        with pytest.raises(RDFError):
            graph.value(iri("alice"), iri("knows"))

    def test_predicate_count(self, graph):
        assert graph.predicate_count(iri("knows")) == 3
        assert graph.predicate_count(iri("name")) == 1
        assert graph.predicate_count(iri("missing")) == 0


class TestProperties:
    @given(
        data=st.lists(
            st.tuples(
                st.integers(0, 5), st.integers(0, 3), st.integers(0, 5)
            ),
            max_size=40,
        )
    )
    @settings(max_examples=50)
    def test_pattern_results_match_brute_force(self, data):
        g = Graph()
        triples = [
            Triple(iri(f"s{s}"), iri(f"p{p}"), iri(f"o{o}")) for s, p, o in data
        ]
        g.add_all(triples)
        unique = set(triples)
        assert len(g) == len(unique)
        # Spot-check bound-subject and bound-predicate patterns.
        for s in range(6):
            expected = {t for t in unique if t.subject == iri(f"s{s}")}
            assert set(g.triples((iri(f"s{s}"), None, None))) == expected
        for p in range(4):
            expected = {t for t in unique if t.predicate == iri(f"p{p}")}
            assert set(g.triples((None, iri(f"p{p}"), None))) == expected

    @given(
        data=st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, 2), st.integers(0, 4)),
            max_size=30,
        )
    )
    @settings(max_examples=30)
    def test_add_remove_roundtrip(self, data):
        g = Graph()
        for s, p, o in data:
            g.add(iri(f"s{s}"), iri(f"p{p}"), iri(f"o{o}"))
        for s, p, o in data:
            g.remove(iri(f"s{s}"), iri(f"p{p}"), iri(f"o{o}"))
        assert len(g) == 0
        assert list(g.triples((None, None, None))) == []
