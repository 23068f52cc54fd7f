"""Batched expression evaluation with per-row error masks.

FILTER and BIND expressions are evaluated over whole batches. Hot shapes are
vectorized — ordered comparisons and equality between numeric columns,
arithmetic with int/float result-type tracking, and the three-valued
``&&``/``||``/``!`` logic — while everything else (string builtins, REGEX,
extension functions, lazy BOUND/IF/COALESCE) falls back to the interpreted
:func:`~repro.sparql.evaluator.evaluate_expression` *per row that needs it*,
so a partially-vectorizable filter still does most of its work in numpy.

An extension function whose registered callable has a ``column`` attribute
(the GeoSPARQL topological relations do) skips that fallback when it is
called on one variable and one constant: ``column(terms, constant,
var_first)`` answers for the whole decoded column at once.

Errors never raise: every column carries a boolean error mask, and the
SPARQL rules (error -> filter false, error -> BIND leaves unbound, Kleene
logic for &&/||) are applied mask-wise.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.rdf.term import Literal, XSD_DOUBLE, XSD_INTEGER
from repro.sparql.algebra import expression_variables
from repro.sparql.ast import (
    BinaryOp,
    Expression,
    FunctionCall,
    TermExpr,
    UnaryOp,
    Variable,
    VarExpr,
)
from repro.sparql.evaluator import evaluate_expression
from repro.sparql.functions import (
    BUILTINS,
    EvaluationError,
    _numeric,
    effective_boolean_value,
    to_term,
)
from repro.sparql.vector.batch import UNBOUND, Batch
from repro.sparql.vector.dictionary import (
    ColumnCodec,
    TermEncoder,
    _strict_number,
    exact_float,
)

_ORDERED = {"<": np.less, "<=": np.less_equal, ">": np.greater, ">=": np.greater_equal}
_ARITH = {"+", "-", "*", "/"}
#: Integers of smaller magnitude are exact in float64, and so is integer
#: ``+``/``-``/``*`` on exact operands whose result stays below it.
_EXACT_INT_LIMIT = float(2**53)


class ExprContext:
    """Everything expression evaluation needs besides the batch itself: the
    execution's encoder, codec and registry, plus a decode memo that lives
    for one FILTER/BIND pass over one batch."""

    def __init__(self, ctx):
        self.encoder: TermEncoder = ctx.encoder
        self.codec: ColumnCodec = ctx.codec
        self.registry = ctx.registry
        self._decoded: Dict[Variable, list] = {}

    def decoded(self, batch: Batch, variable: Variable) -> list:
        """Term list for a column, memoised per batch-evaluation pass."""
        terms = self._decoded.get(variable)
        if terms is None:
            terms = self.encoder.decode_column(batch.column(variable))
            self._decoded[variable] = terms
        return terms


class BoolCol:
    __slots__ = ("values", "err")

    def __init__(self, values: np.ndarray, err: np.ndarray):
        self.values = values
        self.err = err


class NumCol:
    """Numeric column: float64 values + int-ness + validity.

    ``~valid`` rows either errored or are ``inexact``: numeric, but an
    integer float64 cannot hold, so only the per-row interpreted path (which
    computes on Python ints) may answer for them.
    """

    __slots__ = ("values", "is_int", "valid", "inexact")

    def __init__(
        self,
        values: np.ndarray,
        is_int: np.ndarray,
        valid: np.ndarray,
        inexact: np.ndarray,
    ):
        self.values = values
        self.is_int = is_int
        self.valid = valid
        self.inexact = inexact


# ---------------------------------------------------------------------------
# Per-row interpreted fallback
# ---------------------------------------------------------------------------

def _row_eval(
    expression: Expression,
    batch: Batch,
    ctx: ExprContext,
    rows: np.ndarray,
) -> Tuple[list, np.ndarray]:
    """Interpreted evaluation of *expression* for the given row indices.

    Returns (values aligned with ``rows``, error mask aligned with ``rows``).
    """
    needed = [v for v in expression_variables(expression) if v in batch.columns]
    decoded = {v: ctx.decoded(batch, v) for v in needed}
    values: list = []
    err = np.zeros(len(rows), dtype=bool)
    for out, row in enumerate(rows):
        bindings = {}
        for variable, terms in decoded.items():
            term = terms[row]
            if term is not None:
                bindings[variable] = term
        try:
            values.append(evaluate_expression(expression, bindings, ctx.registry))
        except EvaluationError:
            values.append(None)
            err[out] = True
    return values, err


# ---------------------------------------------------------------------------
# Numeric views
# ---------------------------------------------------------------------------

def _num_from_var(
    batch: Batch, ctx: ExprContext, variable: Variable, lenient: bool
) -> NumCol:
    ids = batch.column(variable)
    n = len(ids)
    codec = ctx.codec
    values = np.zeros(n, dtype=np.float64)
    is_int = np.zeros(n, dtype=bool)
    valid = np.zeros(n, dtype=bool)
    inexact = np.zeros(n, dtype=bool)
    in_range = (ids >= 0) & (ids < codec.size)
    if in_range.any():
        idx = ids[in_range]
        codec.ensure(idx)
        inexact[in_range] = codec.inexact[idx]
        if lenient:
            values[in_range] = codec.arith_values[idx]
            is_int[in_range] = codec.arith_is_int[idx]
            valid[in_range] = codec.arith_valid[idx]
        else:
            values[in_range] = codec.cmp_values[idx]
            valid[in_range] = codec.cmp_valid[idx]
    overflow = ids >= codec.size
    if overflow.any():
        decode = ctx.encoder.decode
        for row in np.nonzero(overflow)[0]:
            term = decode(int(ids[row]))
            if lenient:
                try:
                    value = _numeric(term)
                except EvaluationError:
                    continue
            else:
                value = _strict_number(term)
                if value is None:
                    continue
            as_float = exact_float(value)
            if as_float is None:
                inexact[row] = True
                continue
            values[row] = as_float
            is_int[row] = lenient and isinstance(value, int)
            valid[row] = True
    return NumCol(values, is_int, valid, inexact)


def _num_const(n: int, value, lenient: bool) -> NumCol:
    """*value* (a Python number, or None for "not numeric") on every row."""
    as_float = None if value is None else exact_float(value)
    if as_float is None:
        zeros = np.zeros(n, dtype=np.float64)
        never = np.zeros(n, dtype=bool)
        return NumCol(zeros, never, never, np.full(n, value is not None))
    return NumCol(
        np.full(n, as_float, dtype=np.float64),
        np.full(n, lenient and isinstance(value, int), dtype=bool),
        np.ones(n, dtype=bool),
        np.zeros(n, dtype=bool),
    )


def eval_num(
    expression: Expression, batch: Batch, ctx: ExprContext, lenient: bool = True
) -> NumCol:
    """Numeric view of an expression over the batch.

    ``lenient`` selects the coercion: arithmetic's ``_numeric`` (parses plain
    literals) vs ordered comparison's strict ``to_python`` view. Rows where
    the expression is not numeric under that coercion are ``~valid``.
    """
    n = batch.nrows
    if isinstance(expression, VarExpr):
        return _num_from_var(batch, ctx, expression.variable, lenient)
    if isinstance(expression, TermExpr):
        term = expression.term
        if lenient:
            try:
                value = _numeric(term)
            except EvaluationError:
                value = None
        else:
            value = _strict_number(term)
        return _num_const(n, value, lenient)
    if isinstance(expression, UnaryOp) and expression.operator == "-":
        inner = eval_num(expression.operand, batch, ctx, lenient=True)
        return NumCol(-inner.values, inner.is_int, inner.valid, inner.inexact)
    if isinstance(expression, BinaryOp) and expression.operator in _ARITH:
        left = eval_num(expression.left, batch, ctx, lenient=True)
        right = eval_num(expression.right, batch, ctx, lenient=True)
        valid = left.valid & right.valid
        operator = expression.operator
        with np.errstate(divide="ignore", invalid="ignore"):
            if operator == "+":
                values = left.values + right.values
            elif operator == "-":
                values = left.values - right.values
            elif operator == "*":
                values = left.values * right.values
            else:
                valid = valid & (right.values != 0)
                values = np.where(
                    right.values != 0, left.values / np.where(right.values, right.values, 1), 0.0
                )
        is_int = left.is_int & right.is_int & (operator != "/")
        inexact = (
            left.inexact
            | right.inexact
            | (valid & is_int & (np.abs(values) >= _EXACT_INT_LIMIT))
        )
        return NumCol(values, is_int, valid & ~inexact, inexact)
    # Anything else (function calls, comparisons, logicals): interpreted
    # per-row, then coerced under the requested view.
    rows = np.arange(n, dtype=np.int64)
    raw, err = _row_eval(expression, batch, ctx, rows)
    values = np.zeros(n, dtype=np.float64)
    is_int = np.zeros(n, dtype=bool)
    valid = np.zeros(n, dtype=bool)
    inexact = np.zeros(n, dtype=bool)
    for row, value in enumerate(raw):
        if err[row]:
            continue
        if lenient:
            try:
                number = _numeric(value)
            except EvaluationError:
                continue
        else:
            # Strict view mirrors _comparable: raw numbers/bools count,
            # literals only through their typed to_python value.
            number = value
            if not isinstance(value, (int, float)):
                number = _strict_number(value)
                if number is None:
                    continue
        as_float = exact_float(number)
        if as_float is None:
            inexact[row] = True
            continue
        values[row] = as_float
        is_int[row] = lenient and isinstance(number, int)
        valid[row] = True
    return NumCol(values, is_int, valid, inexact)


# ---------------------------------------------------------------------------
# Boolean view (EBV) and comparisons
# ---------------------------------------------------------------------------

def eval_bool(expression: Expression, batch: Batch, ctx: ExprContext) -> BoolCol:
    """Effective-boolean-value view of an expression, with error mask."""
    n = batch.nrows
    if isinstance(expression, UnaryOp) and expression.operator == "!":
        inner = eval_bool(expression.operand, batch, ctx)
        return BoolCol(~inner.values & ~inner.err, inner.err)
    if isinstance(expression, BinaryOp):
        operator = expression.operator
        if operator in ("&&", "||"):
            left = eval_bool(expression.left, batch, ctx)
            right = eval_bool(expression.right, batch, ctx)
            if operator == "&&":
                # Kleene: false dominates error.
                false_out = (~left.values & ~left.err) | (~right.values & ~right.err)
                true_out = (left.values & ~left.err) & (right.values & ~right.err)
                err = ~false_out & ~true_out
                return BoolCol(true_out, err)
            true_out = (left.values & ~left.err) | (right.values & ~right.err)
            false_out = (~left.values & ~left.err) & (~right.values & ~right.err)
            err = ~false_out & ~true_out
            return BoolCol(true_out, err)
        if operator in _ORDERED:
            return _compare_ordered(expression, batch, ctx)
        if operator in ("=", "!="):
            return _compare_equality(expression, batch, ctx)
    if isinstance(expression, VarExpr):
        return _ebv_from_var(batch, ctx, expression.variable)
    if isinstance(expression, TermExpr):
        try:
            value = effective_boolean_value(expression.term)
            return BoolCol(
                np.full(n, value, dtype=bool), np.zeros(n, dtype=bool)
            )
        except EvaluationError:
            return BoolCol(np.zeros(n, dtype=bool), np.ones(n, dtype=bool))
    if isinstance(expression, FunctionCall):
        column = _column_call(expression, batch, ctx)
        if column is not None:
            return column
    # Function calls and the rest: interpreted per-row + EBV.
    rows = np.arange(n, dtype=np.int64)
    raw, err = _row_eval(expression, batch, ctx, rows)
    values = np.zeros(n, dtype=bool)
    for row, value in enumerate(raw):
        if err[row]:
            continue
        try:
            values[row] = effective_boolean_value(value)
        except EvaluationError:
            err[row] = True
    return BoolCol(values, err)


def _column_call(
    expression: FunctionCall, batch: Batch, ctx: ExprContext
) -> Optional[BoolCol]:
    """An extension call on one variable and one constant through the
    function's column form, or None when it has none."""
    if expression.name in BUILTINS or len(expression.args) != 2:
        return None
    column = getattr(ctx.registry.get(expression.name), "column", None)
    if column is None:
        return None
    first, second = expression.args
    if isinstance(first, VarExpr) and isinstance(second, TermExpr):
        variable, constant, var_first = first.variable, second.term, True
    elif isinstance(first, TermExpr) and isinstance(second, VarExpr):
        variable, constant, var_first = second.variable, first.term, False
    else:
        return None
    if variable in batch.columns:
        terms = ctx.decoded(batch, variable)
    else:
        terms = [None] * batch.nrows
    values, err = column(terms, constant, var_first)
    return BoolCol(values & ~err, err)


def _ebv_from_var(batch: Batch, ctx: ExprContext, variable: Variable) -> BoolCol:
    ids = batch.column(variable)
    n = len(ids)
    codec = ctx.codec
    values = np.zeros(n, dtype=bool)
    err = np.ones(n, dtype=bool)  # unbound rows error
    in_range = (ids >= 0) & (ids < codec.size)
    if in_range.any():
        idx = ids[in_range]
        codec.ensure(idx)
        values[in_range] = codec.ebv_values[idx]
        err[in_range] = ~codec.ebv_valid[idx]
    overflow = ids >= codec.size
    for row in np.nonzero(overflow)[0]:
        term = ctx.encoder.decode(int(ids[row]))
        try:
            values[row] = effective_boolean_value(term)
            err[row] = False
        except EvaluationError:
            err[row] = True
    return BoolCol(values, err)


def _compare_ordered(
    expression: BinaryOp, batch: Batch, ctx: ExprContext
) -> BoolCol:
    left = eval_num(expression.left, batch, ctx, lenient=False)
    right = eval_num(expression.right, batch, ctx, lenient=False)
    fast = left.valid & right.valid
    values = np.zeros(batch.nrows, dtype=bool)
    err = np.zeros(batch.nrows, dtype=bool)
    values[fast] = _ORDERED[expression.operator](
        left.values[fast], right.values[fast]
    )
    slow = np.nonzero(~fast)[0]
    if len(slow):
        raw, row_err = _row_eval(expression, batch, ctx, slow)
        for out, row in enumerate(slow):
            if row_err[out]:
                err[row] = True
            else:
                values[row] = bool(raw[out])
    return BoolCol(values, err)


def _compare_equality(
    expression: BinaryOp, batch: Batch, ctx: ExprContext
) -> BoolCol:
    left = eval_num(expression.left, batch, ctx, lenient=False)
    right = eval_num(expression.right, batch, ctx, lenient=False)
    fast = left.valid & right.valid
    equal = np.zeros(batch.nrows, dtype=bool)
    err = np.zeros(batch.nrows, dtype=bool)
    equal[fast] = left.values[fast] == right.values[fast]
    slow = np.nonzero(~fast)[0]
    if len(slow):
        # _row_eval evaluates the full (in)equality on slow rows, so only the
        # fast rows still need the != flip below.
        raw, row_err = _row_eval(expression, batch, ctx, slow)
        for out, row in enumerate(slow):
            if row_err[out]:
                err[row] = True
            else:
                equal[row] = bool(raw[out])
    values = equal
    if expression.operator == "!=":
        values = equal.copy()
        values[fast] = ~equal[fast]
    return BoolCol(values & ~err, err)


# ---------------------------------------------------------------------------
# FILTER / BIND entry points
# ---------------------------------------------------------------------------

def filter_keep_mask(
    expression: Expression, batch: Batch, ctx: ExprContext
) -> np.ndarray:
    """Rows whose filter expression is true (errors count as false)."""
    col = eval_bool(expression, batch, ctx)
    return col.values & ~col.err


def bind_column(
    expression: Expression, batch: Batch, ctx: ExprContext
) -> np.ndarray:
    """Evaluate a BIND expression to an id column; errors yield UNBOUND."""
    n = batch.nrows
    if isinstance(expression, VarExpr):
        return batch.column(expression.variable).copy()
    if isinstance(expression, TermExpr):
        return np.full(n, ctx.encoder.encode(expression.term), dtype=np.int64)
    if (
        isinstance(expression, BinaryOp) and expression.operator in _ARITH
    ) or (isinstance(expression, UnaryOp) and expression.operator == "-"):
        numbers = eval_num(expression, batch, ctx, lenient=True)
        ids = np.full(n, UNBOUND, dtype=np.int64)
        encode = ctx.encoder.encode
        memo: Dict[Tuple[float, bool], int] = {}
        for row in np.nonzero(numbers.valid)[0]:
            value = float(numbers.values[row])
            key = (value, bool(numbers.is_int[row]))
            term_id = memo.get(key)
            if term_id is None:
                if key[1]:
                    term = Literal(str(int(value)), datatype=XSD_INTEGER)
                else:
                    term = Literal(repr(value), datatype=XSD_DOUBLE)
                term_id = encode(term)
                memo[key] = term_id
            ids[row] = term_id
        _bind_rows(expression, batch, ctx, np.nonzero(numbers.inexact)[0], ids)
        return ids
    ids = np.full(n, UNBOUND, dtype=np.int64)
    _bind_rows(expression, batch, ctx, np.arange(n, dtype=np.int64), ids)
    return ids


def _bind_rows(
    expression: Expression,
    batch: Batch,
    ctx: ExprContext,
    rows: np.ndarray,
    ids: np.ndarray,
) -> None:
    """Generic BIND for *rows*: interpreted per-row, to_term, encode into *ids*."""
    raw, err = _row_eval(expression, batch, ctx, rows)
    encode = ctx.encoder.encode
    for out, row in enumerate(rows):
        if err[out]:
            continue
        try:
            ids[row] = encode(to_term(raw[out]))
        except EvaluationError:
            continue
