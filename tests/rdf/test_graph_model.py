"""`Graph` against a Python ``set``: a stateful model test.

Random add / remove / re-add sequences over a small term universe. After
every step each read path — iteration, ``len``, membership, ``triples`` and
``count`` on all eight pattern shapes, the distinct-position statistics, the
term dictionary and the id-row table decoded through it — must equal the
model. The id rows are the production engine's only view of the graph and
``remove`` only tombstones a sorted base row, so a stale or duplicated row
there is a wrong query answer the object API would never show.

Only the public surface is used, so a different storage layout (ROADMAP
item 6) is held to this test unchanged, but for one check of the current
layout: after ``churn`` each sorted order's kept columns must be the base
columns in that order. Two rules exercise that layout's own paths:
``add_all`` (the batched load, duplicates included) and ``churn``, which
removes and re-adds every triple in one step — more pending rows than the
delta holds before it merges into the base.
"""

from itertools import product

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.rdf import Graph, Literal, Namespace
from repro.rdf.term import Triple

EX = Namespace("http://ex.org/")

# Terms recur across positions (ex:a and ex:b are subjects and objects), so
# one dictionary id serves several columns.
SUBJECTS = [EX.a, EX.b, EX.c]
PREDICATES = [EX.p, EX.q]
OBJECTS = [EX.a, EX.b, Literal("1")]
UNIVERSE = [Triple(*spo) for spo in product(SUBJECTS, PREDICATES, OBJECTS)]
# Every pattern over the universe, plus a term the graph never sees: all
# eight bound/unbound shapes.
PATTERNS = list(
    product(
        [None, EX.never] + SUBJECTS,
        [None, EX.never] + PREDICATES,
        [None, EX.never] + OBJECTS,
    )
)

triples = st.sampled_from(UNIVERSE)


def matches(pattern, triple):
    return all(p is None or p == t for p, t in zip(pattern, triple))


def kept_columns_follow_their_orders(graph):
    """The one look inside the layout: after any merge, each order's kept
    columns are the base columns gathered through its permutation, and
    read-only, as the base columns are."""
    base = graph._cols
    for perm, _, _, _, kept in (graph._by_pos, graph._by_pso, graph._by_osp):
        for column, full in zip(kept, base):
            if column is not None and perm is not None:
                assert not column.flags.writeable
                assert column.tolist() == full[perm].tolist()


class GraphMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.graph = Graph()
        self.model = set()
        self.removed = []
        self.version = self.graph.version
        self.ids = {}

    def _changed(self, changed):
        """``version`` moves iff the triple set did."""
        assert (self.graph.version != self.version) == changed
        self.version = self.graph.version

    @rule(triple=triples)
    def add(self, triple):
        assert self.graph.add(*triple) == (triple not in self.model)
        self._changed(triple not in self.model)
        self.model.add(triple)

    @rule(triple=triples)
    def remove(self, triple):
        assert self.graph.remove(*triple) == (triple in self.model)
        self._changed(triple in self.model)
        if triple in self.model:
            self.model.discard(triple)
            self.removed.append(triple)

    @precondition(lambda self: self.removed)
    @rule(data=st.data())
    def add_back(self, data):
        self.add(data.draw(st.sampled_from(self.removed)))

    @rule(batch=st.lists(triples, max_size=40))
    def add_all(self, batch):
        new = set(batch) - self.model
        version = self.graph.version
        assert self.graph.add_all(batch) == len(new)
        assert self.graph.version - version == len(new)
        self._changed(bool(new))
        self.model |= new

    @rule(data=st.data())
    def churn(self, data):
        doomed = data.draw(st.permutations(sorted(self.model, key=repr)))
        for triple in doomed:
            self.remove(triple)
        for triple in reversed(doomed):
            self.add(triple)
        kept_columns_follow_their_orders(self.graph)

    @invariant()
    def object_api_equals_model(self):
        graph, model = self.graph, self.model
        listed = list(graph)
        assert len(listed) == len(graph) == len(model)
        assert set(listed) == model
        for triple in UNIVERSE:
            assert (triple in graph) == (triple in model)
        for pattern in PATTERNS:
            expected = {t for t in model if matches(pattern, t)}
            found = list(graph.triples(pattern))
            assert len(found) == len(expected), pattern
            assert set(found) == expected, pattern
            assert graph.count(pattern) == len(expected), pattern
        for predicate in PREDICATES:
            assert graph.predicate_count(predicate) == sum(
                t.predicate == predicate for t in model
            )

    @invariant()
    def statistics_equal_model(self):
        graph, model = self.graph, self.model
        assert graph.distinct_subjects() == len({t.subject for t in model})
        assert graph.distinct_predicates() == len({t.predicate for t in model})
        assert graph.distinct_objects() == len({t.object for t in model})
        assert set(graph.predicates()) == {t.predicate for t in model}
        assert set(graph.subjects()) == {t.subject for t in model}
        assert set(graph.objects()) == {t.object for t in model}

    @invariant()
    def dictionary_is_append_only(self):
        graph = self.graph
        for term, term_id in self.ids.items():
            assert graph.term_id(term) == term_id
        for term in SUBJECTS + PREDICATES + OBJECTS:
            term_id = graph.term_id(term)
            if term_id is not None:
                assert graph.term_for_id(term_id) == term
                self.ids[term] = term_id
        assert graph.term_id(EX.never) is None
        assert graph.term_count == len(self.ids) == len(graph.id_terms())
        assert sorted(self.ids.values()) == list(range(len(self.ids)))

    @invariant()
    def id_rows_decode_to_model(self):
        terms = self.graph.id_terms()
        rows = [
            Triple(terms[s], terms[p], terms[o])
            for s, p, o in zip(*self.graph.id_columns())
        ]
        # Same length and same set: no duplicate row, no stale row.
        assert len(rows) == len(self.model)
        assert set(rows) == self.model


TestGraphModel = GraphMachine.TestCase
TestGraphModel.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
