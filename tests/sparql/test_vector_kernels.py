"""The vector engine's hot kernels against their slow references.

Each fast path is picked by a property the kernel sees in its input, so each
test feeds both kinds of input and compares with the obvious implementation:
the bound-key hash join against a nested loop and against the mask-partitioned
path, packed group keys against ``np.unique(axis=0)``, the dependent join
(every correlated OPTIONAL, FILTER and BIND) against the interpreted engine,
bulk row materialisation against the cell-by-cell loop, the float64 tables
against Python integers, and the direct-address join and grouping kernels
over dense id spans against the sorted path and ``np.unique``.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import QueryBudgetExceeded, QueryCancelled
from repro.rdf import Graph, Literal, Namespace
from repro.sparql import (
    CancelToken,
    CompileOptions,
    FunctionRegistry,
    QueryBudget,
    Variable,
    evaluate,
    parse_query,
)
from repro.sparql.pipeline import compile_plan
from repro.sparql.vector import (
    UNBOUND,
    Batch,
    TermEncoder,
    compile_vector_plan,
    distinct_rows,
    execute_tree,
    finish_select,
    hash_join,
    ops,
)
from repro.sparql.vector.dictionary import codec_for
from tests.sparql.test_engine_equivalence import (
    OBJECTS,
    VARIABLES,
    bgp,
    canonical,
    graphs,
)

EX = Namespace("http://ex.org/")
PREFIX = "PREFIX ex: <http://ex.org/> "
VECTOR = CompileOptions(engine="vector")


def run_vector(graph, text, budget=None):
    """(solutions or bool, fallback_ops) for one vector execution."""
    query = parse_query(text)
    tree = compile_vector_plan(query.where, graph, VECTOR)
    batch, ctx = execute_tree(tree, graph, FunctionRegistry(), budget=budget)
    if hasattr(query, "variables"):
        return finish_select(query, batch, ctx), ctx.fallback_ops
    return batch.nrows > 0, ctx.fallback_ops


# ---------------------------------------------------------------------------
# (a) hash_join: bound-key path vs mask-partitioned path vs nested loop
# ---------------------------------------------------------------------------

KEYS = [Variable(name) for name in ("k0", "k1", "k2")]
LEFT_ONLY, RIGHT_ONLY = Variable("l"), Variable("r")


#: How the right (build) side's key rows are drawn: each shape takes another
#: branch of the equi-join (argsort or not, unique probe or run expansion).
BUILD_SHAPES = (
    "any", "sorted", "sorted and unique", "unsorted with duplicates",
)


@st.composite
def batch_pairs(draw, unbound: bool):
    shared = KEYS[: draw(st.integers(0, 3))]
    shape = draw(st.sampled_from(BUILD_SHAPES))
    cell = st.integers(UNBOUND if unbound else 0, 3 if shape == "any" else 9)
    key_rows = st.lists(st.tuples(*[cell] * len(shared)),
                        max_size=7 if shape == "any" else 40)

    def side(own, rows):
        columns = {
            v: np.array([row[i] for row in rows], dtype=np.int64)
            for i, v in enumerate(shared)
        }
        columns[own] = np.arange(len(rows), dtype=np.int64) + 100
        return Batch(columns, len(rows))

    right = draw(key_rows)
    if shape == "sorted":
        right.sort()
    elif shape == "sorted and unique":
        right = sorted(set(right))
    elif shape == "unsorted with duplicates" and right:
        repeats = right[: draw(st.integers(1, len(right)))]
        right = draw(st.permutations(right + repeats))
    return side(LEFT_ONLY, draw(key_rows)), side(RIGHT_ONLY, right), shared


def nested_loop_join(left, right, shared, outer):
    """Solution compatibility, row by row, in (left row, right row) order."""
    out, bare = [], []
    for i in range(left.nrows):
        extended = False
        for j in range(right.nrows):
            cells = [(int(left.columns[v][i]), int(right.columns[v][j]))
                     for v in shared]
            if all(a == b or UNBOUND in (a, b) for a, b in cells):
                extended = True
                out.append(tuple(b if a == UNBOUND else a for a, b in cells)
                           + (100 + i, 100 + j))
        if outer and not extended:
            bare.append(tuple(int(left.columns[v][i]) for v in shared)
                        + (100 + i, UNBOUND))
    return out + bare


def rows_of(batch, shared):
    order = list(shared) + [LEFT_ONLY, RIGHT_ONLY]
    assert set(batch.columns) == set(order)
    return [tuple(int(batch.columns[v][i]) for v in order)
            for i in range(batch.nrows)]


def with_sentinel(left, shared):
    """*left* plus one last row whose first key cell is UNBOUND: the same
    rows, but the join now has to take the mask-partitioned path."""
    columns = {
        v: np.append(col, UNBOUND if v == shared[0] else 0)
        for v, col in left.columns.items()
    }
    columns[LEFT_ONLY][-1] = -7
    return Batch(columns, left.nrows + 1)


@given(pair=batch_pairs(unbound=False), outer=st.booleans())
@settings(max_examples=150, deadline=None)
def test_bound_key_join_is_the_nested_loop_in_order(pair, outer):
    left, right, shared = pair
    out = hash_join(left, right, outer=outer)
    assert rows_of(out, shared) == nested_loop_join(left, right, shared, outer)


@given(pair=batch_pairs(unbound=False), outer=st.booleans())
@settings(max_examples=150, deadline=None)
def test_bound_key_and_general_path_are_array_identical(pair, outer):
    left, right, shared = pair
    if not shared or not right.nrows:
        return  # no key column to unbind / no join to run
    fast = hash_join(left, right, outer=outer)
    general = hash_join(with_sentinel(left, shared), right, outer=outer)
    general = general.mask(general.columns[LEFT_ONLY] != -7)
    assert list(general.columns) == list(fast.columns)
    for variable, column in fast.columns.items():
        assert column.dtype == general.columns[variable].dtype == np.int64
        assert column.tolist() == general.columns[variable].tolist()


@given(pair=batch_pairs(unbound=True), outer=st.booleans())
@settings(max_examples=150, deadline=None)
def test_join_with_unbound_keys_matches_the_nested_loop(pair, outer):
    left, right, shared = pair
    out = hash_join(left, right, outer=outer)
    assert sorted(rows_of(out, shared)) == sorted(
        nested_loop_join(left, right, shared, outer)
    )


@pytest.mark.parametrize("keys", [1, 2])
def test_both_paths_refuse_a_cross_product_at_pre_admission(keys):
    shared = KEYS[:keys]
    left = Batch({**{v: np.zeros(40, dtype=np.int64) for v in shared},
                  LEFT_ONLY: np.arange(40, dtype=np.int64)}, 40)
    right = Batch({**{v: np.zeros(50, dtype=np.int64) for v in shared},
                   RIGHT_ONLY: np.arange(50, dtype=np.int64)}, 50)
    refusals = []
    for side in (left, with_sentinel(left, shared)):
        budget = QueryBudget(max_rows=1000)
        with pytest.raises(QueryBudgetExceeded) as caught:
            hash_join(side, right, budget=budget)
        error = caught.value
        assert "hash_join.pairs" in str(error)
        assert budget.peak_rows == 0  # refused before anything was allocated
        refusals.append((error.resource, error.observed, error.limit))
    assert refusals[0] == refusals[1] == ("rows", 2000, 1000)


@pytest.mark.parametrize("keys", [1, 2])
def test_unique_build_side_refuses_at_pre_admission(keys):
    # The right keys are sorted and unique: each of the 40 left rows matches
    # one right row, and those 40 pairs are refused before they exist.
    shared = KEYS[:keys]
    left = Batch({**{v: np.zeros(40, dtype=np.int64) for v in shared},
                  LEFT_ONLY: np.arange(40, dtype=np.int64)}, 40)
    right = Batch({**{v: np.arange(50, dtype=np.int64) for v in shared},
                   RIGHT_ONLY: np.arange(50, dtype=np.int64)}, 50)
    budget = QueryBudget(max_rows=30)
    with pytest.raises(QueryBudgetExceeded) as caught:
        hash_join(left, right, budget=budget)
    error = caught.value
    assert "hash_join.pairs" in str(error)
    assert budget.peak_rows == 0
    assert (error.resource, error.observed, error.limit) == ("rows", 40, 30)


def test_one_checkpoint_per_equi_join():
    left = Batch({KEYS[0]: np.array([1, 2, 3]), LEFT_ONLY: np.arange(3)}, 3)
    right = Batch({KEYS[0]: np.array([2, 3, 4]), RIGHT_ONLY: np.arange(3)}, 3)
    budget = QueryBudget(max_rows=10**6)
    hash_join(left, right, budget=budget)
    assert budget.checkpoints == 1
    budget = QueryBudget(max_rows=10**6)
    hash_join(with_sentinel(left, KEYS[:1]), right, budget=budget)
    assert budget.checkpoints == 2  # two left masks x one right mask


# ---------------------------------------------------------------------------
# (b) packed group keys vs np.unique(axis=0)
# ---------------------------------------------------------------------------

@given(
    rows=st.lists(
        st.lists(st.integers(UNBOUND, 6), min_size=3, max_size=3),
        min_size=1, max_size=40,
    ),
    width=st.integers(1, 3),
    huge=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_packed_group_keys_match_row_wise_unique(rows, width, huge):
    from repro.sparql.vector.engine import group_rows
    from repro.sparql.vector.ops import pack_keys

    matrix = np.array(rows, dtype=np.int64)[:, :width]
    if huge:
        # Ids near 2**40: two or three digits of that radix overflow 62 bits.
        matrix = np.where(matrix > 3, matrix + 2**40, matrix)
    columns = [matrix[:, i].copy() for i in range(width)]
    # Past 62 bits the key is packed from dense ranks: it still sorts like
    # the rows, and equal keys are equal rows.
    (keys,) = pack_keys(columns)
    assert keys.dtype == np.int64
    assert np.argsort(keys, kind="stable").tolist() == np.lexsort(
        matrix.T[::-1]).tolist()
    _, key_inverse = np.unique(keys, return_inverse=True)
    _, row_inverse = np.unique(matrix, axis=0, return_inverse=True)
    assert key_inverse.tolist() == row_inverse.reshape(-1).tolist()
    uniq, inverse, ngroups = group_rows(columns)
    expected, expected_inverse = np.unique(matrix, axis=0, return_inverse=True)
    assert ngroups == len(expected)
    assert uniq.tolist() == expected.tolist()
    assert inverse.tolist() == expected_inverse.reshape(-1).tolist()
    assert [c.tolist() for c in columns] == matrix.T.tolist()  # inputs intact


def test_ranked_keys_match_rows_across_sides():
    from repro.sparql.vector.ops import pack_keys

    # Eight columns of ~400 distinct ids near 2**40 each: neither the id
    # radix nor the product of the per-column rank counts (~2**69) fits in
    # 62 bits.
    rng = np.random.default_rng(5)
    matrix = rng.integers(2**40, 2**40 + 10**6, size=(600, 8))
    matrix[::3] = matrix[1::3]  # equal rows across and within sides
    left, right = matrix[:300], matrix[300:]
    lkeys, rkeys = pack_keys([*left.T], [*right.T])
    keys = np.concatenate([lkeys, rkeys])
    assert np.argsort(keys, kind="stable").tolist() == np.lexsort(
        matrix.T[::-1]).tolist()
    _, key_inverse = np.unique(keys, return_inverse=True)
    _, row_inverse = np.unique(matrix, axis=0, return_inverse=True)
    assert key_inverse.tolist() == row_inverse.reshape(-1).tolist()


@given(
    rows=st.lists(
        st.lists(st.integers(UNBOUND, 4), min_size=3, max_size=3),
        max_size=40,
    ),
    width=st.integers(1, 3),
    huge=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_distinct_rows_keep_first_occurrences(rows, width, huge):
    matrix = np.array(rows, dtype=np.int64).reshape(len(rows), 3)[:, :width]
    if huge:
        matrix = np.where(matrix > 2, matrix + 2**40, matrix)
    batch = Batch(
        {Variable(f"v{i}"): matrix[:, i].copy() for i in range(width)},
        len(rows),
    )
    out = distinct_rows(batch)
    assert list(out.columns) == list(batch.columns)
    assert list(zip(*(c.tolist() for c in out.columns.values()))) == list(
        dict.fromkeys(map(tuple, matrix.tolist()))
    )


# ---------------------------------------------------------------------------
# (c) the dependent join vs the interpreted engine
# ---------------------------------------------------------------------------

conditions = st.one_of(
    st.tuples(
        st.sampled_from(VARIABLES),
        st.sampled_from(["<", ">=", "=", "!="]),
        st.sampled_from(VARIABLES + ["3", '"alpha"']),
    ).map(lambda t: f"{t[0]} {t[1]} {t[2]}"),
    st.tuples(st.sampled_from(VARIABLES), st.sampled_from(VARIABLES)).map(
        lambda t: f"{t[0]} + 1 > {t[1]}"  # raises on IRIs and strings
    ),
    st.tuples(st.sampled_from(VARIABLES), st.sampled_from(VARIABLES)).map(
        lambda t: f"!BOUND({t[0]}) || {t[1]} > 2"
    ),
)


@st.composite
def conditional_optionals(draw):
    left = draw(bgp(max_size=2))
    if draw(st.booleans()):
        left += " OPTIONAL { " + draw(bgp(max_size=1)) + " }"  # unbound cells
    right = draw(bgp(max_size=2))
    if draw(st.booleans()):
        right += " VALUES ?c { " + draw(st.sampled_from(OBJECTS)) + " UNDEF }"
    return f"{left} OPTIONAL {{ {right} FILTER({draw(conditions)}) }}"


@given(graph=graphs, where=conditional_optionals(), ask=st.booleans())
@settings(max_examples=300, deadline=None)
def test_conditional_optional_matches_interpreted(graph, where, ask):
    text = f"ASK {{ {where} }}" if ask else f"SELECT * WHERE {{ {where} }}"
    expected = evaluate(graph, text, options=CompileOptions())
    actual, _ = run_vector(graph, text)
    if ask:
        assert actual == expected, text
    else:
        assert canonical(actual) == canonical(expected), text


def stock_graph(products=30):
    graph = Graph()
    rng = random.Random(7)
    for i in range(products):
        product = EX[f"prod{i}"]
        graph.add(product, EX.price, Literal.from_python(rng.randrange(1000)))
        for _ in range(i % 3):  # zero, one or two stock rows per product
            graph.add(product, EX.stock, Literal.from_python(rng.randrange(100)))
        if i % 5 == 0:
            graph.add(product, EX.tag, Literal(f"tag{i}"))
    return graph


CONDITIONAL = {
    "outer variable": "?p ex:price ?v . OPTIONAL { ?p ex:stock ?t . FILTER(?v > 500) }",
    "both sides": "?p ex:price ?v . OPTIONAL { ?p ex:stock ?t . FILTER(?v > ?t * 10) }",
    "multi-match right":
        "?p ex:price ?v . OPTIONAL { ?p ex:stock ?t . FILTER(?t < 50 && ?v > 0) }",
    "filter variable unbound on some left rows":
        "?p ex:price ?v . OPTIONAL { ?p ex:tag ?g } "
        "OPTIONAL { ?p ex:stock ?t . FILTER(?g != \"tag0\") }",
    "filter raises on some rows":
        "?p ex:price ?v . OPTIONAL { ?p ex:tag ?g } "
        "OPTIONAL { ?p ex:stock ?t . FILTER(?g + 1 > 0 || ?v > 500) }",
    "zero-row right": "?p ex:price ?v . OPTIONAL { ?p ex:nothing ?t . FILTER(?v > 500) }",
    "zero-row left": "?p ex:nothing ?v . OPTIONAL { ?p ex:stock ?t . FILTER(?v > 500) }",
    "same group, one level of braces":
        "?p ex:price ?v . OPTIONAL { { ?p ex:stock ?t . FILTER(?v > 500) } }",
}

CORRELATED = {
    "filter one group deeper, under a nested OPTIONAL":
        "?p ex:price ?v . OPTIONAL { ?p ex:stock ?t . "
        "OPTIONAL { ?p ex:tag ?g . FILTER(?v > 500) } }",
    "filter one group deeper, under a UNION":
        "?p ex:price ?v . OPTIONAL { { ?p ex:stock ?t . FILTER(?v > 500) } "
        "UNION { ?p ex:tag ?t } }",
    "two correlated filters": "?p ex:price ?v . ?p ex:tag ?g . OPTIONAL { "
        "?p ex:stock ?t . FILTER(?v > 500) FILTER(?g != \"tag0\") }",
    "BIND reads a left variable":
        "?p ex:price ?v . OPTIONAL { ?p ex:stock ?t . BIND(?v + ?t AS ?w) }",
    "optional-blind variable": "?p ex:price ?v . OPTIONAL { ?p ex:stock ?t . "
        "OPTIONAL { ?p ex:tag ?v } FILTER(?t < 50) }",
    "correlated filter under a plain join": "?p ex:price ?v . "
        "{ { ?p ex:stock ?t } UNION { ?p ex:tag ?t } FILTER(?v > 500) }",
}


def test_filter_over_a_maybe_unbound_variable_reads_the_outer_binding():
    # VALUES UNDEF leaves ?c unbound in the group, so its FILTER sees the
    # ?c the outer pattern binds: evaluating the group on its own is wrong.
    graph = Graph()
    graph.add(EX.s1, EX.p0, EX.o0)
    graph.add(EX.s4, EX.p0, Literal.from_python(4))
    group = "ex:s1 ?a ?b . VALUES ?c { ex:o0 UNDEF } FILTER(BOUND(?b) && ?c > 2)"
    for where in (
        f"ex:s4 ?a ?c . OPTIONAL {{ {group} }}",
        f"ex:s4 ?a ?c . {{ {group} }}",
    ):
        text = f"{PREFIX}SELECT * WHERE {{ {where} }}"
        rows, fallback_ops = run_vector(graph, text)
        assert canonical(rows) == canonical(
            evaluate(graph, text, options=CompileOptions())
        )
        assert rows[0][Variable("b")] == EX.o0 and fallback_ops == 0


@pytest.mark.parametrize("form", ["SELECT * WHERE", "ASK"])
@pytest.mark.parametrize("name", list(CONDITIONAL))
def test_conditional_optional_is_vectorised(name, form):
    graph = stock_graph()
    text = f"{PREFIX}{form} {{ {CONDITIONAL[name]} }}"
    expected = evaluate(graph, text, options=CompileOptions())
    actual, fallback_ops = run_vector(graph, text)
    assert fallback_ops == 0
    if form == "ASK":
        assert actual == expected
    else:
        assert canonical(actual) == canonical(expected)


def test_conditional_optional_keeps_left_row_order():
    """Every correlated OPTIONAL shape: rows come out grouped by left row,
    in left order (each left row is one ?p)."""
    graph = stock_graph()
    subject = Variable("p")
    shapes = [CONDITIONAL["both sides"]] + [
        where for where in CORRELATED.values() if " OPTIONAL " in where
    ]
    extended_twice = 0
    for where in shapes:
        left = where.split(" OPTIONAL ", 1)[0]
        left_only, _ = run_vector(graph, f"{PREFIX}SELECT ?p WHERE {{ {left} }}")
        rows, _ = run_vector(graph, f"{PREFIX}SELECT * WHERE {{ {where} }}")
        extended_twice += len(rows) > len(left_only)
        in_order = list(dict.fromkeys(row[subject] for row in rows))
        assert in_order == [row[subject] for row in left_only], where
        runs = [row[subject] for i, row in enumerate(rows)
                if i == 0 or rows[i - 1][subject] != row[subject]]
        assert runs == in_order, where  # each left row's rows are contiguous
    assert extended_twice >= len(shapes) - 1


@pytest.mark.parametrize("name", list(CORRELATED))
def test_correlated_shapes_run_on_columns(name):
    graph = stock_graph()
    text = f"{PREFIX}SELECT * WHERE {{ {CORRELATED[name]} }}"
    expected = evaluate(graph, text, options=CompileOptions())
    actual, fallback_ops = run_vector(graph, text)
    assert fallback_ops == 0
    assert canonical(actual) == canonical(expected)


def test_rebinding_bind_inside_optional_still_raises():
    from repro.errors import SPARQLError

    text = (PREFIX + "SELECT * WHERE { ?p ex:price ?v . "
            "OPTIONAL { ?p ex:stock ?t . BIND(1 AS ?v) } }")
    for options in (CompileOptions(), VECTOR):
        with pytest.raises(SPARQLError):
            evaluate(stock_graph(), text, options=options)


def test_vector_engine_never_names_the_interpreted_operators():
    """No module of the vector engine reaches the interpreted iterator."""
    import ast
    from pathlib import Path

    import repro.sparql.vector as vector

    forbidden = {"_evaluate_op", "_op_iter"}
    for path in sorted(Path(vector.__file__).parent.rglob("*.py")):
        names = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(alias.name for alias in node.names)
        assert not names & forbidden, path.name


# ---------------------------------------------------------------------------
# Governance of the dependent join
# ---------------------------------------------------------------------------

#: A correlated OPTIONAL whose sides share no variable: the dependent join's
#: inner hash join is a cartesian product of the left rows and ex:q.
UNSHARED = (PREFIX + "SELECT * WHERE { ?a ex:p ?x "
            "OPTIONAL { ?b ex:q ?y FILTER(?y > ?x) } }")


def unshared_graph(left=40, right=50):
    graph = Graph()
    for i in range(left):
        graph.add(EX[f"a{i}"], EX.p, Literal.from_python(i))
    for j in range(right):
        graph.add(EX[f"b{j}"], EX.q, Literal.from_python(100 + j))
    return graph


@pytest.mark.parametrize("engine", ["interpreted", "vector"])
def test_dependent_join_cross_product_is_refused(engine):
    budget = QueryBudget(max_rows=1000)
    with pytest.raises(QueryBudgetExceeded) as caught:
        evaluate(unshared_graph(), UNSHARED,
                 options=CompileOptions(engine=engine), budget=budget)
    assert caught.value.resource == "rows"
    assert budget.peak_rows <= 1000
    if engine == "vector":
        # Refused at the cartesian pre-admission: the 40 x 50 pairs are
        # counted while only the two scans (40 + 50 rows) exist.
        assert "hash_join.cartesian" in str(caught.value)
        assert caught.value.observed == 40 + 50 + 40 * 50
        assert budget.peak_rows == 40 + 50


class CancelAt(CancelToken):
    """A token its owner fires when the engine polls it the *polls*-th
    time: a kill that lands in the middle of the query."""

    __slots__ = ("polls",)

    def __init__(self, polls):
        super().__init__()
        self.polls = polls

    @property
    def cancelled(self):
        self.polls -= 1
        if self.polls == 0:
            self.cancel("killed mid-query")
        return super().cancelled


@pytest.mark.parametrize("engine", ["interpreted", "vector"])
def test_dependent_join_honours_a_mid_query_cancel(engine):
    # Third checkpoint: in the vector engine, after the left scan and
    # before the inner hash join.
    budget = QueryBudget(cancel=CancelAt(3))
    with pytest.raises(QueryCancelled) as caught:
        evaluate(unshared_graph(4, 5), UNSHARED,
                 options=CompileOptions(engine=engine), budget=budget)
    assert caught.value.reason == "killed mid-query"
    assert budget.checkpoints == 3


# ---------------------------------------------------------------------------
# (d) row materialisation
# ---------------------------------------------------------------------------

def solutions_by_cell(batch, encoder):
    rows = []
    for i in range(batch.nrows):
        row = {}
        for variable, column in batch.columns.items():
            if column[i] != UNBOUND:
                row[variable] = encoder.decode(int(column[i]))
        rows.append(row)
    return rows


@given(
    cells=st.lists(
        st.lists(st.integers(UNBOUND, 9), min_size=3, max_size=3), max_size=12
    ),
    width=st.integers(0, 3),
    all_bound=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_batch_solutions_match_the_cell_loop(cells, width, all_bound):
    from repro.sparql import ExecContext
    from repro.sparql.vector.engine import _batch_solutions

    graph = Graph()
    for i in range(6):
        graph.add(EX[f"s{i}"], EX.p, Literal.from_python(i))
    ctx = ExecContext(graph, FunctionRegistry())
    # Ids past the dictionary are BIND-style ephemerals of this execution.
    ephemeral = [ctx.encoder.encode(Literal(f"made{i}")) for i in range(4)]
    pool = list(range(graph.term_count))[:6] + ephemeral
    matrix = np.array(cells, dtype=np.int64).reshape(len(cells), 3)[:, :width]
    ids = np.where(matrix == UNBOUND, UNBOUND, np.take(pool, matrix % len(pool)))
    if all_bound:
        ids = np.where(ids == UNBOUND, pool[0], ids)
    batch = Batch(
        {Variable(f"v{i}"): ids[:, i].copy() for i in range(width)}, len(cells)
    )
    assert _batch_solutions(batch, ctx) == solutions_by_cell(batch, ctx.encoder)


@pytest.mark.parametrize("all_bound", [True, False])
@pytest.mark.parametrize("names", [
    [f"v{i}" for i in range(300)],  # past the old 255-argument limit
    ["3", "0", "a0", "k1", "x"],  # dependent-join tags; names in the source
])
def test_row_maker_on_wide_and_digit_named_batches(names, all_bound):
    from repro.sparql import ExecContext
    from repro.sparql.vector.engine import _batch_solutions

    graph = Graph()
    for i in range(6):
        graph.add(EX[f"s{i}"], EX.p, Literal.from_python(i))
    ctx = ExecContext(graph, FunctionRegistry())
    rng = np.random.default_rng(len(names))
    ids = rng.integers(0, graph.term_count, size=(9, len(names)))
    if not all_bound:
        ids[rng.random(ids.shape) < 0.2] = UNBOUND
    batch = Batch(
        {Variable(n): ids[:, i].copy() for i, n in enumerate(names)}, 9
    )
    solutions = _batch_solutions(batch, ctx)
    assert solutions == solutions_by_cell(batch, ctx.encoder)
    assert list(solutions[0]) == (
        [Variable(n) for n in names] if all_bound
        else [Variable(n) for n, i in zip(names, ids[0]) if i != UNBOUND]
    )


def test_decode_column_in_graph_ephemeral_and_unbound():
    graph = Graph()
    graph.add(EX.s, EX.p, EX.o)
    encoder = TermEncoder(graph)
    made = Literal("made")
    ids = np.array([0, 2, 1], dtype=np.int64)
    assert encoder.decode_column(ids) == [EX.s, EX.o, EX.p]
    mixed = np.array([encoder.encode(made), UNBOUND, 1], dtype=np.int64)
    assert encoder.decode_column(mixed) == [made, None, EX.p]
    assert encoder.decode_column(np.empty(0, dtype=np.int64)) == []


def test_variable_is_a_hashable_name():
    variable = Variable("x")
    assert variable == Variable("x") and variable != Variable("y")
    assert hash(variable) == hash(Variable("x"))
    assert {variable: 1}[Variable("x")] == 1
    assert variable.name == "x" and str(variable) == f"{variable}" == "?x"
    assert variable != EX.x and variable != Literal("x") and variable != "x"
    assert type(variable).__hash__ is tuple.__hash__  # no Python frame


# ---------------------------------------------------------------------------
# (e) cost pin: counts, not timings, for the six bench shapes
# ---------------------------------------------------------------------------

def bench_store(products):
    from bench.sparql_workloads import product_triples, shape_texts
    from repro.geosparql import GeoStore

    rng = random.Random(5)
    store = GeoStore()
    store.bulk_load(list(product_triples(rng, products, products // 10)))
    return store, shape_texts(rng, products)


def bench_costs(products):
    store, texts = bench_store(products)
    costs = {}
    for shape, text in texts.items():
        query = parse_query(text)
        tree = compile_plan(query.where, store.graph, VECTOR, store._rewrite)
        budget = QueryBudget(max_rows=10**9)
        batch, ctx = execute_tree(tree, store.graph, store.registry, budget=budget)
        rows = finish_select(query, batch, ctx)
        assert canonical(rows) == canonical(
            evaluate(store.graph, text, store.registry)
        ), shape
        costs[shape] = (ctx.fallback_ops, budget.checkpoints)
    return costs


def test_bench_shapes_cost_pin():
    small, large = bench_costs(500), bench_costs(2000)  # 2k and 8k triples
    for shape, (fallback_ops, _) in small.items():
        assert fallback_ops == 0, shape
    # Four times the left rows, not one more checkpoint.
    assert large["optional"] == small["optional"]
    assert small["optional"][1] < 12


# ---------------------------------------------------------------------------
# Integers float64 cannot hold
# ---------------------------------------------------------------------------

BIG = 2**53


@pytest.fixture
def big_graph():
    graph = Graph()
    for name, value in (("a", BIG), ("b", 1), ("c", 1), ("d", BIG + 1)):
        graph.add(EX[name], EX.v, Literal.from_python(value))
    return graph


def both(graph, text):
    expected = evaluate(graph, PREFIX + text, options=CompileOptions())
    actual = evaluate(graph, PREFIX + text, options=VECTOR)
    assert canonical(actual) == canonical(expected)
    return actual


class TestBigIntegers:
    def test_sum_is_exact(self, big_graph):
        rows = both(big_graph, "SELECT (SUM(?v) AS ?s) WHERE { ?x ex:v ?v }")
        assert rows[0][Variable("s")].to_python() == 2 * BIG + 3

    def test_ordered_filter_against_a_big_constant(self, big_graph):
        rows = both(
            big_graph, f"SELECT ?x WHERE {{ ?x ex:v ?v . FILTER(?v > {BIG}) }}"
        )
        assert [row[Variable("x")] for row in rows] == [EX.d]

    def test_equality_filter_against_a_big_constant(self, big_graph):
        rows = both(
            big_graph, f"SELECT ?x WHERE {{ ?x ex:v ?v . FILTER(?v = {BIG + 1}) }}"
        )
        assert [row[Variable("x")] for row in rows] == [EX.d]

    def test_order_by_desc_limit_one(self, big_graph):
        rows = both(
            big_graph, "SELECT ?x WHERE { ?x ex:v ?v } ORDER BY DESC(?v) LIMIT 1"
        )
        assert [row[Variable("x")] for row in rows] == [EX.d]

    def test_arithmetic_results_past_the_limit(self, big_graph):
        both(big_graph, "SELECT ?x ?w WHERE { ?x ex:v ?v . BIND(?v + ?v + 1 AS ?w) }")
        both(big_graph, f"SELECT ?x WHERE {{ ?x ex:v ?v . FILTER(?v + 1 > {BIG + 1}) }}")
        both(big_graph, "SELECT ?x ?w WHERE { ?x ex:v ?v . BIND(-?v * 3 AS ?w) }")

    def test_sum_whose_total_passes_the_limit(self):
        graph = Graph()
        for i in range(5):
            graph.add(EX[f"s{i}"], EX.v, Literal.from_python(BIG - 1 - i))
        rows = both(graph, "SELECT (SUM(?v) AS ?s) (AVG(?v) AS ?a) WHERE { ?x ex:v ?v }")
        assert rows[0][Variable("s")].to_python() == 5 * BIG - 15

    def test_integer_too_large_for_a_float(self):
        graph = Graph()
        graph.add(EX.a, EX.v, Literal.from_python(10**400))
        graph.add(EX.b, EX.v, Literal.from_python(3))
        both(graph, "SELECT ?x WHERE { ?x ex:v ?v . FILTER(?v > 5) }")
        both(graph, "SELECT (SUM(?v) AS ?s) WHERE { ?x ex:v ?v }")
        both(graph, "SELECT ?x WHERE { ?x ex:v ?v } ORDER BY ?v")

    def test_exact_integers_stay_on_the_vector_path(self, big_graph):
        # 2**53 itself round-trips, so only 2**53 + 1 is marked.
        from repro.sparql.vector.dictionary import codec_for

        both(big_graph, "SELECT ?x WHERE { ?x ex:v ?v . FILTER(?v > 0) }")
        codec = codec_for(big_graph)
        marked = [big_graph.term_for_id(int(i)).to_python()
                  for i in np.nonzero(codec.inexact)[0]]
        assert marked == [BIG + 1]


# ---------------------------------------------------------------------------
# Constant-subject scans
# ---------------------------------------------------------------------------

class TestConstantSubjectScan:
    @pytest.fixture
    def graph(self):
        graph = Graph()
        graph.add(EX.a, EX.p, EX.b)
        graph.add(EX.a, EX.p, EX.c)
        graph.add(EX.a, EX.q, EX.q)
        graph.add(EX.a, EX.a, EX.a)
        graph.add(EX.b, EX.p, EX.a)
        return graph

    @pytest.mark.parametrize("pattern", [
        "ex:a ex:p ?o", "ex:a ?p ?o", "ex:a ?p ex:b", "ex:a ?x ?x",
        "ex:a ex:p ex:b", "ex:a ex:nope ?o", "ex:nobody ex:p ?o", "ex:c ex:p ?o",
        "ex:a ex:p ?o . ?o ex:p ?back",
    ])
    def test_matches_interpreted(self, graph, pattern):
        both(graph, f"SELECT * WHERE {{ {pattern} }}")

    def test_probe_does_not_snapshot_the_table(self, graph, monkeypatch):
        from repro.sparql.vector import ops

        def no_table(_graph):
            raise AssertionError("constant-subject scan touched the id table")

        monkeypatch.setattr(ops, "id_table", no_table)
        rows = evaluate(graph, PREFIX + "SELECT ?o WHERE { ex:a ex:p ?o }", options=VECTOR)
        assert sorted(str(row[Variable("o")]) for row in rows) == [str(EX.b), str(EX.c)]


# ---------------------------------------------------------------------------
# One scan kernel, one closed algebra
# ---------------------------------------------------------------------------

SCAN_PATTERNS = [
    "?s ?p ?o", "ex:a ?p ?o", "?s ex:p ?o", "?s ?p ex:a",
    "ex:a ex:p ?o", "ex:a ?p ex:b", "?s ex:p ex:a", "ex:a ex:p ex:b",
    "?x ex:p ?x", "?x ?x ?x", "?s ex:nope ?o", "ex:a ex:p ex:nope",
]


@pytest.mark.parametrize("text", SCAN_PATTERNS)
def test_scan_table_on_slices_covers_scan_batch(text):
    """`scan_table` over any row split of the snapshot — what a dist
    partition is — adds up to `scan_batch` over the graph, and both to the
    triple-at-a-time match."""
    from repro.sparql.vector.ops import id_table, scan_batch, scan_table

    graph = Graph()
    for s, p, o in [("a", "p", "b"), ("a", "p", "c"), ("a", "q", "q"),
                    ("a", "a", "a"), ("b", "p", "a"), ("b", "p", "b"),
                    ("c", "p", "c"), ("c", "q", "a"), ("p", "p", "p")]:
        graph.add(EX[s], EX[p], EX[o])
    pattern = parse_query(
        PREFIX + f"SELECT * WHERE {{ {text} }}"
    ).where.children[0].patterns[0]
    positions = (pattern.subject, pattern.predicate, pattern.object)

    def rows(batch):
        variables = sorted(batch.columns, key=str)
        assert set(variables) == set(pattern.variables())
        cells = zip(*(batch.columns[v].tolist() for v in variables))
        return sorted(cells) if variables else [()] * batch.nrows

    def match(triple):
        binding = {}
        for position, term in zip(positions, triple):
            if not isinstance(position, Variable):
                if position != term:
                    return None
            elif binding.setdefault(position, term) != term:
                return None
        return tuple(graph.term_id(binding[v]) for v in sorted(binding, key=str))

    expected = sorted(row for row in map(match, graph) if row is not None)
    whole = scan_batch(graph, pattern)
    assert rows(whole) == expected

    table = id_table(graph)
    parts = [
        scan_table(tuple(c[k::3] for c in table), pattern, graph.term_id)
        for k in range(3)
    ]
    assert sorted(sum((rows(part) for part in parts), [])) == rows(whole)


def test_operator_outside_the_algebra_is_refused():
    """No interpreted fallback for whole operators: both engines raise."""
    from repro.errors import SPARQLError
    from repro.sparql import ExecContext
    from repro.sparql.algebra import AlgebraOp, JoinOp, ScanOp
    from repro.sparql.evaluator import _evaluate_op

    class Foreign(AlgebraOp):
        pass

    graph = Graph()
    graph.add(EX.a, EX.p, EX.b)
    scan = ScanOp(
        parse_query(PREFIX + "SELECT * WHERE { ?s ex:p ?o }")
        .where.children[0].patterns[0]
    )
    with pytest.raises(SPARQLError, match="unknown operator Foreign"):
        execute_tree(Foreign(), graph, FunctionRegistry())
    with pytest.raises(SPARQLError, match="unknown operator Foreign"):
        execute_tree(JoinOp(scan, Foreign()), graph, FunctionRegistry())
    with pytest.raises(SPARQLError, match="unknown operator Foreign"):
        list(_evaluate_op(Foreign(), ExecContext(graph, FunctionRegistry()), {}))
    # Nor does the distributed planner plan, or estimate, one.
    from repro.sparql.dist import build_plan, estimate_rows

    for tree in (Foreign(), JoinOp(scan, Foreign())):
        for threshold in (0.0, 1e9):
            with pytest.raises(SPARQLError, match="unknown operator Foreign"):
                build_plan(tree, graph, threshold, 4)
    with pytest.raises(SPARQLError, match="unknown operator Foreign"):
        estimate_rows(JoinOp(scan, Foreign()), graph)



# ---------------------------------------------------------------------------
# (f) direct-address kernels over dense id spans
# ---------------------------------------------------------------------------


def pairs_by(path, lkeys, rkeys):
    """``_equi_join_pairs`` on one key column, its path forced to "dense" or
    "sorted" (None: the path the input picks)."""
    choose = ops._dense_span

    def forced(lkeys, rkeys, ordered):
        if path == "sorted":
            return None
        low = int(rkeys.min())
        return low, int(rkeys.max()) - low + 1

    if path is not None:
        ops._dense_span = forced
    try:
        return ops._equi_join_pairs([lkeys], [rkeys], len(lkeys), len(rkeys))
    finally:
        ops._dense_span = choose


@st.composite
def dense_join_keys(draw):
    """(left keys, right keys) above the dense size threshold, unless a side
    is empty: unique or duplicate build keys, sorted or not, left keys
    partly outside the build span, spans on both sides of the slot bound."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rn = draw(st.sampled_from([0, 1, 300, ops.DENSE_MIN_ROWS, 5000]))
    ln = max(draw(st.sampled_from([0, 1, 300, 5000])),
             ops.DENSE_MIN_ROWS - rn) if rn else 300
    if draw(st.booleans()) and rn:
        ln = 0
    per_row = draw(st.sampled_from(
        [0.01, 1.0, ops.DENSE_SLOTS_PER_ROW, 3 * ops.DENSE_SLOTS_PER_ROW]
    ))
    span = max(1, int(per_row * (ln + rn)))
    base = draw(st.sampled_from([0, 84, 2**40]))
    if draw(st.booleans()) and span >= rn:  # unique build keys
        right = rng.choice(span, rn, replace=False)
    else:
        right = rng.integers(0, span, rn)
    if draw(st.booleans()):
        right = np.sort(right)
    left = rng.integers(-(span // 4) - 1, span + span // 4 + 1, ln)
    if rn and ln:
        hits = rng.random(ln) < 0.5
        left[hits] = rng.choice(right, int(hits.sum()))
    return left + base, right + base


@given(keys=dense_join_keys())
@settings(max_examples=120, deadline=None)
def test_dense_and_sorted_equi_joins_are_array_identical(keys):
    left, right = keys
    dense = pairs_by("dense", left, right)
    chosen = pairs_by(None, left, right)
    for pairs in (dense, chosen):
        expected = pairs_by("sorted", left, right)
        for got, want in zip(pairs, expected):
            assert got.dtype == want.dtype == np.int64
            assert got.tolist() == want.tolist()
    if len(right) and len(left):
        span = int(right.max()) - int(right.min()) + 1
        if span > ops.DENSE_SLOTS_PER_ROW * (len(left) + len(right)):
            ordered = not (right[1:] < right[:-1]).any()
            assert ops._dense_span(left, right, ordered) is None


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 400),
    span=st.sampled_from([1, 2, 300, 2**16, 2**16 + 1, 2**33]),
)
@settings(max_examples=100, deadline=None)
def test_radix_order_is_the_stable_argsort(seed, n, span):
    offsets = np.random.default_rng(seed).integers(0, span, n)
    assert ops._radix_order(offsets, span).tolist() == np.argsort(
        offsets, kind="stable").tolist()


def test_dense_join_with_duplicates_over_a_wide_span():
    # Duplicate, unsorted build keys over a span past 2**16: the radix sort
    # takes two 16-bit digits.
    rng = np.random.default_rng(3)
    right = rng.integers(0, 150_000, 40_000)
    left = rng.choice(right, 5_000)
    assert ops._dense_span(left, right, False) is not None
    for got, want in zip(pairs_by(None, left, right),
                         pairs_by("sorted", left, right)):
        assert got.tolist() == want.tolist()


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([1, ops.DENSE_MIN_ROWS, 3000]),
    per_row=st.sampled_from([0.001, 1.0, ops.DENSE_SLOTS_PER_ROW, 8.0]),
    base=st.sampled_from([UNBOUND, 0, 2**40]),
    width=st.integers(1, 2),
)
@settings(max_examples=60, deadline=None)
def test_dense_grouping_is_np_unique(seed, n, per_row, base, width):
    from repro.sparql.vector.engine import group_rows

    rng = np.random.default_rng(seed)
    span = max(1, int(per_row * n))
    columns = [rng.integers(0, span, n) + base for _ in range(width)]
    (keys,) = ops.pack_keys(columns)
    first, inverse, ngroups = ops.unique_keys(keys)
    _, want_first, want_inverse = np.unique(
        keys, return_index=True, return_inverse=True
    )
    assert first.tolist() == want_first.tolist()
    assert inverse.dtype == np.int64
    assert inverse.tolist() == want_inverse.tolist()
    assert ngroups == len(want_first)
    matrix = np.column_stack(columns)
    uniq, inverse, ngroups = group_rows(columns)
    want, want_inverse = np.unique(matrix, axis=0, return_inverse=True)
    assert uniq.tolist() == want.tolist() and ngroups == len(want)
    assert inverse.tolist() == want_inverse.reshape(-1).tolist()
    batch = Batch({Variable(f"v{i}"): c for i, c in enumerate(columns)}, n)
    out = distinct_rows(batch)
    rows = [tuple(row) for row in matrix.tolist()]
    assert list(zip(*(c.tolist() for c in out.columns.values()))) == list(
        dict.fromkeys(rows))


@given(
    columns=st.lists(
        st.lists(st.integers(UNBOUND, 9), min_size=6, max_size=6),
        max_size=3,
    ),
    keep=st.lists(st.booleans(), min_size=6, max_size=6),
)
@settings(max_examples=100, deadline=None)
def test_batch_mask_is_boolean_indexing(columns, keep):
    batch = Batch(
        {Variable(f"v{i}"): np.array(c, dtype=np.int64)
         for i, c in enumerate(columns)},
        6,
    )
    keep = np.array(keep, dtype=bool)
    out = batch.mask(keep)
    assert out.nrows == int(keep.sum())
    assert list(out.columns) == list(batch.columns)
    for variable, column in batch.columns.items():
        assert out.columns[variable].dtype == np.int64
        assert out.columns[variable].tolist() == column[keep].tolist()


def spy(monkeypatch, name):
    """Wrap ``ops.<name>``; the returned list collects its results."""
    results = []
    real = getattr(ops, name)

    def wrapper(*args):
        result = real(*args)
        results.append(result)
        return result

    monkeypatch.setattr(ops, name, wrapper)
    return results


def product_graph(products):
    graph = Graph()
    for c in range(20):
        graph.add(EX[f"cat{c}"], EX.region, EX[f"region{c % 5}"])
    rng = random.Random(7)
    for i in range(products):
        graph.add(EX[f"prod{i}"], EX.cat, EX[f"cat{rng.randrange(20)}"])
        graph.add(EX[f"prod{i}"], EX.price,
                  Literal.from_python(rng.randrange(1000)))
    return graph


@pytest.mark.parametrize("text", [
    "SELECT ?p ?r ?v WHERE { ?p ex:cat ?c . ?c ex:region ?r . "
    "?p ex:price ?v FILTER(?v >= 700) }",
    "SELECT ?c (COUNT(?p) AS ?n) (AVG(?v) AS ?a) WHERE "
    "{ ?p ex:cat ?c . ?p ex:price ?v } GROUP BY ?c",
    "SELECT DISTINCT ?c ?r WHERE { ?p ex:cat ?c . ?c ex:region ?r }",
])
def test_dense_paths_run_and_answer_exactly(monkeypatch, text):
    graph = product_graph(3000)
    joins = spy(monkeypatch, "_dense_matches")
    groups = spy(monkeypatch, "_dense_groups")
    rows = evaluate(graph, PREFIX + text, options=VECTOR)
    assert canonical(rows) == canonical(
        evaluate(graph, PREFIX + text, options=CompileOptions())
    )
    assert joins, "no join took the dense path"
    if "GROUP BY" in text or "DISTINCT" in text:
        assert any(result is not None for result in groups)


@pytest.mark.parametrize("unique", [True, False])
def test_dense_path_refuses_at_pre_admission(monkeypatch, unique):
    n = 3000
    width = n if unique else 30
    rng = np.random.default_rng(1)
    left = Batch({KEYS[0]: np.arange(n, dtype=np.int64) % width,
                  LEFT_ONLY: np.arange(n, dtype=np.int64)}, n)
    right = Batch({KEYS[0]: rng.permutation(n) % width,
                   RIGHT_ONLY: np.arange(n, dtype=np.int64)}, n)
    total = n if unique else n * (n // width)
    joins = spy(monkeypatch, "_dense_matches")
    budget = QueryBudget(max_rows=total - 1)
    with pytest.raises(QueryBudgetExceeded) as caught:
        hash_join(left, right, budget=budget)
    assert joins and joins[0][1] is unique
    assert "hash_join.pairs" in str(caught.value)
    assert budget.peak_rows == 0
    error = caught.value
    assert (error.resource, error.observed, error.limit) == (
        "rows", total, total - 1)


def test_decode_column_across_graph_growth():
    graph = Graph()
    graph.add(EX.s, EX.p, EX.o)
    early = TermEncoder(graph)
    assert early.decode_column(np.array([2, 0, 1])) == [EX.o, EX.s, EX.p]
    for i in range(50):  # past the term array's capacity, more than once
        graph.add(EX[f"s{i}"], EX.p, Literal.from_python(i))
        if i % 7 == 0:
            TermEncoder(graph).decode_column(np.array([0]))
    encoder = TermEncoder(graph)
    ids = np.arange(graph.term_count)[::-1].copy()
    assert encoder.decode_column(ids) == [
        graph.term_for_id(i) for i in ids.tolist()]
    made = Literal("made")
    mixed = np.array([encoder.encode(made), UNBOUND, 0, graph.term_count - 1])
    assert encoder.decode_column(mixed) == [
        made, None, EX.s, graph.term_for_id(graph.term_count - 1)]
    # An encoder from before the growth still reads its own ids, and its
    # query-local ids (which now collide with graph ids) as its own terms.
    local = early.encode(made)
    assert local == 3 and graph.term_for_id(3) != made
    assert early.decode_column(np.array([local, 1, UNBOUND])) == [
        made, EX.p, None]


def test_term_array_grows_by_doubling():
    graph = Graph()
    graph.add(EX.s, EX.p, EX.o)
    terms = graph.id_term_array()
    assert len(terms) == 3
    assert graph.id_term_array() is terms  # no write: nothing copied
    graph.add(EX.s, EX.p, EX.o2)
    grown = graph.id_term_array()
    assert grown is not terms and len(grown) == 6
    graph.add(EX.s, EX.p, EX.o3)
    assert graph.id_term_array() is grown  # spare capacity: no copy
    assert list(grown[: graph.term_count]) == list(graph.id_terms())


def table_ops(op):
    """Every TableOp in an algebra tree."""
    from repro.sparql.algebra import AlgebraOp, TableOp

    if isinstance(op, TableOp):
        yield op
    for child in vars(op).values():
        children = child if isinstance(child, list) else [child]
        for node in children:
            if isinstance(node, AlgebraOp):
                yield from table_ops(node)


def test_values_table_is_encoded_once_and_stays_exact_across_writes():
    graph = Graph()
    graph.add(EX.a, EX.p, Literal.from_python(1))
    graph.add(EX.b, EX.p, Literal.from_python(2))
    text = PREFIX + (
        "SELECT ?x ?v WHERE { VALUES ?x { ex:a ex:new UNDEF } ?x ex:p ?v }"
    )
    query = parse_query(text)
    tree = compile_vector_plan(query.where, graph, VECTOR)
    (table,) = table_ops(tree)
    codec = codec_for(graph)

    def check():
        batch, ctx = execute_tree(tree, graph, FunctionRegistry())
        rows = finish_select(query, batch, ctx)
        assert canonical(rows) == canonical(
            evaluate(graph, text, options=CompileOptions())
        )
        return rows

    # ex:new is not in the graph: its id is the execution's own, so the
    # encoded table is not kept.
    assert len(check()) == 3
    assert codec.table_columns(table, TermEncoder(graph)) is not (
        codec.table_columns(table, TermEncoder(graph)))
    graph.add(EX.new, EX.p, Literal.from_python(3))  # interned after plan
    assert len(check()) == 5
    kept = codec.table_columns(table, TermEncoder(graph))
    assert codec.table_columns(table, TermEncoder(graph)) is kept
    assert not any(column.flags.writeable for column in kept.values())
    graph.add(EX.c, EX.p, Literal.from_python(4))
    graph.add(EX.new, EX.p, Literal.from_python(5))
    assert len(check()) == 8
    assert codec.table_columns(table, TermEncoder(graph)) is kept


def test_codec_tables_grow_by_doubling():
    # One new term per write, a read after each: the tables reallocate
    # O(log n) times, and rows filled before a reallocation keep their
    # values (ensure() skips computed rows, so a lost row would read 0).
    graph = Graph()
    graph.add(EX.s, EX.p, Literal.from_python(0))
    codec = codec_for(graph)
    codec.ensure(np.arange(codec.size))
    reallocations, table = 0, codec.computed
    for i in range(1, 2000):
        graph.add(EX.s, EX.p, Literal.from_python(i))
        codec = codec_for(graph)
        assert codec.size == graph.term_count <= len(codec.computed)
        codec.ensure(np.array([codec.size - 1]))
        if codec.computed is not table:
            reallocations, table = reallocations + 1, codec.computed
    assert reallocations <= 12
    ids = np.arange(codec.size)
    assert codec.computed[ids].all()
    terms = [graph.term_for_id(int(i)) for i in ids]
    expected = [t.to_python() if isinstance(t, Literal) else np.nan for t in terms]
    assert np.array_equal(
        np.where(codec.cmp_valid[ids], codec.cmp_values[ids], np.nan),
        np.array(expected, dtype=float), equal_nan=True,
    )
