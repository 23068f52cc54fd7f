"""Recursive-descent parser for the SPARQL subset.

Grammar (informally):

.. code-block:: text

    Query      := Prologue (SelectQuery | AskQuery)
    Prologue   := (PREFIX pname: <iri>)*
    Select     := SELECT [DISTINCT] (Var | AggAlias)+ | '*'
                  WHERE? Group (GROUP BY Var+)? (ORDER BY OrderCond+)?
                  (LIMIT n)? (OFFSET n)?
    Group      := '{' (TriplesBlock | Filter | Optional | GroupOrUnion)* '}'
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import SPARQLSyntaxError
from repro.rdf.term import IRI, Literal, Term
from repro.rdf.term import XSD_BOOLEAN, XSD_DECIMAL, XSD_INTEGER
from repro.sparql.ast import (
    Aggregate,
    AskQuery,
    BGP,
    BinaryOp,
    BindPattern,
    Expression,
    FilterPattern,
    FunctionCall,
    GroupPattern,
    OptionalPattern,
    OrderCondition,
    SelectQuery,
    TermExpr,
    TermOrVar,
    TriplePattern,
    UnaryOp,
    UnionPattern,
    ValuesPattern,
    Variable,
    VarExpr,
)
from repro.sparql.tokenizer import Token, tokenize

_RDF_TYPE = IRI("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")
_AGGREGATES = {"COUNT", "SUM", "MIN", "MAX", "AVG"}
_BUILTIN_FUNCTIONS = {
    "BOUND", "STR", "LANG", "DATATYPE", "REGEX", "ABS", "CEIL", "FLOOR",
    "ROUND", "STRLEN", "UCASE", "LCASE", "CONTAINS", "STRSTARTS", "STRENDS",
    "ISIRI", "ISLITERAL", "ISNUMERIC", "IF", "COALESCE", "NOT",
}


#: How a slot's term is made from the text a normaliser lifted for it.
TermMaker = Callable[[str], Term]


class _Parser:
    def __init__(self, query: str, lifted: Optional[Mapping[int, int]] = None):
        self._tokens = tokenize(query)
        self._index = 0
        self._prefixes: Dict[str, str] = {}
        #: Token offset -> slot number of the tokens a normaliser lifted;
        #: each one parsed in a liftable place lands in :attr:`slots`.
        self._lifted = lifted
        self.slots: Dict[int, Tuple[Term, TermMaker]] = {}

    def _lift(self, token: Token, term: Term, make: TermMaker) -> Term:
        """*term*, made from *token*, parsed in a liftable place."""
        if self._lifted is not None and token.position in self._lifted:
            self.slots[self._lifted[token.position]] = (term, make)
        return term

    # ------------------------------------------------------------------
    # Token plumbing
    # ------------------------------------------------------------------

    def _peek(self) -> Optional[Token]:
        if self._index < len(self._tokens):
            return self._tokens[self._index]
        return None

    def _peek_keyword(self) -> Optional[str]:
        token = self._peek()
        if token is not None and token.kind == "keyword":
            return token.text.upper()
        return None

    def _next(self) -> Token:
        token = self._peek()
        if token is None:
            raise SPARQLSyntaxError("unexpected end of query")
        self._index += 1
        return token

    def _expect_punct(self, char: str) -> None:
        token = self._next()
        if token.kind != "punct" or token.text != char:
            raise SPARQLSyntaxError(f"expected {char!r}, got {token.text!r}")

    def _expect_keyword(self, word: str) -> None:
        token = self._next()
        if token.kind != "keyword" or token.text.upper() != word:
            raise SPARQLSyntaxError(f"expected {word}, got {token.text!r}")

    def _accept_punct(self, char: str) -> bool:
        token = self._peek()
        if token is not None and token.kind == "punct" and token.text == char:
            self._index += 1
            return True
        return False

    def _accept_keyword(self, word: str) -> bool:
        if self._peek_keyword() == word:
            self._index += 1
            return True
        return False

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def parse(self) -> Union[SelectQuery, AskQuery]:
        while self._peek_keyword() == "PREFIX":
            self._parse_prefix()
        keyword = self._peek_keyword()
        if keyword == "SELECT":
            query = self._parse_select()
        elif keyword == "ASK":
            query = self._parse_ask()
        else:
            raise SPARQLSyntaxError(f"expected SELECT or ASK, got {keyword!r}")
        if self._peek() is not None:
            raise SPARQLSyntaxError(f"trailing input: {self._peek().text!r}")
        return query

    def _parse_prefix(self) -> None:
        self._expect_keyword("PREFIX")
        token = self._next()
        if token.kind != "pname" or not token.text.endswith(":"):
            raise SPARQLSyntaxError(f"expected prefix declaration, got {token.text!r}")
        prefix = token.text[:-1]
        iri_token = self._next()
        if iri_token.kind != "iri":
            raise SPARQLSyntaxError("expected IRI in PREFIX declaration")
        self._prefixes[prefix] = iri_token.text[1:-1]

    # ------------------------------------------------------------------
    # SELECT / ASK
    # ------------------------------------------------------------------

    def _parse_select(self) -> SelectQuery:
        self._expect_keyword("SELECT")
        distinct = self._accept_keyword("DISTINCT")
        variables: List[Variable] = []
        aggregates: List[Aggregate] = []
        star = False
        while True:
            token = self._peek()
            if token is None:
                raise SPARQLSyntaxError("unexpected end in SELECT clause")
            if token.kind == "var":
                variables.append(Variable(self._next().text[1:]))
                continue
            if token.kind == "op" and token.text == "*":
                self._next()
                star = True
                continue
            if token.kind == "punct" and token.text == "(":
                aggregates.append(self._parse_aggregate_alias())
                continue
            break
        if not variables and not aggregates and not star:
            raise SPARQLSyntaxError("SELECT clause selects nothing")

        self._accept_keyword("WHERE")
        where = self._parse_group()

        group_by: List[Variable] = []
        if self._accept_keyword("GROUP"):
            self._expect_keyword("BY")
            while self._peek() is not None and self._peek().kind == "var":
                group_by.append(Variable(self._next().text[1:]))
            if not group_by:
                raise SPARQLSyntaxError("GROUP BY requires at least one variable")

        order_by: List[OrderCondition] = []
        if self._accept_keyword("ORDER"):
            self._expect_keyword("BY")
            order_by = self._parse_order_conditions()

        limit: Optional[int] = None
        offset = 0
        # LIMIT and OFFSET may appear in either order.
        for _ in range(2):
            if self._accept_keyword("LIMIT"):
                limit = self._parse_nonnegative_int("LIMIT")
            elif self._accept_keyword("OFFSET"):
                offset = self._parse_nonnegative_int("OFFSET")

        return SelectQuery(
            variables=variables,
            where=where,
            distinct=distinct,
            order_by=order_by,
            limit=limit,
            offset=offset,
            aggregates=aggregates,
            group_by=group_by,
        )

    def _parse_ask(self) -> AskQuery:
        self._expect_keyword("ASK")
        self._accept_keyword("WHERE")
        return AskQuery(where=self._parse_group())

    def _parse_aggregate_alias(self) -> Aggregate:
        self._expect_punct("(")
        token = self._next()
        if token.kind != "keyword" or token.text.upper() not in _AGGREGATES:
            raise SPARQLSyntaxError(f"expected aggregate function, got {token.text!r}")
        function = token.text.upper()
        self._expect_punct("(")
        distinct = self._accept_keyword("DISTINCT")
        argument: Optional[Expression]
        star_token = self._peek()
        if star_token is not None and star_token.kind == "op" and star_token.text == "*":
            self._next()
            argument = None
        else:
            argument = self._parse_expression()
        self._expect_punct(")")
        self._expect_keyword("AS")
        var_token = self._next()
        if var_token.kind != "var":
            raise SPARQLSyntaxError("expected variable after AS")
        alias = Variable(var_token.text[1:])
        self._expect_punct(")")
        return Aggregate(function=function, argument=argument, alias=alias, distinct=distinct)

    def _parse_order_conditions(self) -> List[OrderCondition]:
        conditions: List[OrderCondition] = []
        while True:
            token = self._peek()
            if token is None:
                break
            if token.kind == "keyword" and token.text.upper() in ("ASC", "DESC"):
                descending = self._next().text.upper() == "DESC"
                self._expect_punct("(")
                expression = self._parse_expression()
                self._expect_punct(")")
                conditions.append(OrderCondition(expression, descending))
                continue
            if token.kind == "var":
                conditions.append(
                    OrderCondition(VarExpr(Variable(self._next().text[1:])))
                )
                continue
            break
        if not conditions:
            raise SPARQLSyntaxError("ORDER BY requires at least one condition")
        return conditions

    def _parse_nonnegative_int(self, clause: str) -> int:
        token = self._next()
        if token.kind != "number" or not token.text.isdigit():
            raise SPARQLSyntaxError(f"{clause} requires a non-negative integer")
        return int(token.text)

    # ------------------------------------------------------------------
    # Graph patterns
    # ------------------------------------------------------------------

    def _parse_group(self) -> GroupPattern:
        self._expect_punct("{")
        group = GroupPattern()
        current_bgp: Optional[BGP] = None

        def flush() -> None:
            nonlocal current_bgp
            if current_bgp is not None and current_bgp.patterns:
                group.children.append(current_bgp)
            current_bgp = None

        while True:
            token = self._peek()
            if token is None:
                raise SPARQLSyntaxError("unterminated group pattern")
            if token.kind == "punct" and token.text == "}":
                self._next()
                flush()
                return group
            if token.kind == "keyword" and token.text.upper() == "FILTER":
                self._next()
                flush()
                group.children.append(FilterPattern(self._parse_filter_expression()))
                continue
            if token.kind == "keyword" and token.text.upper() == "OPTIONAL":
                self._next()
                flush()
                group.children.append(OptionalPattern(self._parse_group()))
                continue
            if token.kind == "keyword" and token.text.upper() == "BIND":
                self._next()
                flush()
                group.children.append(self._parse_bind())
                continue
            if token.kind == "keyword" and token.text.upper() == "VALUES":
                self._next()
                flush()
                group.children.append(self._parse_values())
                continue
            if token.kind == "punct" and token.text == "{":
                flush()
                group.children.append(self._parse_group_or_union())
                continue
            # Otherwise it must be a triples block entry.
            if current_bgp is None:
                current_bgp = BGP()
            self._parse_triples_same_subject(current_bgp)
            self._accept_punct(".")

    def _parse_bind(self) -> BindPattern:
        self._expect_punct("(")
        expression = self._parse_expression()
        self._expect_keyword("AS")
        token = self._next()
        if token.kind != "var":
            raise SPARQLSyntaxError("BIND requires a variable after AS")
        self._expect_punct(")")
        return BindPattern(Variable(token.text[1:]), expression)

    def _parse_values(self) -> ValuesPattern:
        token = self._peek()
        variables: List[Variable] = []
        single = False
        if token is not None and token.kind == "var":
            variables.append(Variable(self._next().text[1:]))
            single = True
        else:
            self._expect_punct("(")
            while True:
                token = self._next()
                if token.kind == "punct" and token.text == ")":
                    break
                if token.kind != "var":
                    raise SPARQLSyntaxError("VALUES expects variables")
                variables.append(Variable(token.text[1:]))
            if not variables:
                raise SPARQLSyntaxError("VALUES requires at least one variable")
        self._expect_punct("{")
        rows: List[List] = []
        while not self._accept_punct("}"):
            if single:
                rows.append([self._parse_values_term()])
            else:
                self._expect_punct("(")
                row = []
                while not self._accept_punct(")"):
                    row.append(self._parse_values_term())
                if len(row) != len(variables):
                    raise SPARQLSyntaxError(
                        f"VALUES row has {len(row)} terms for "
                        f"{len(variables)} variables"
                    )
                rows.append(row)
        return ValuesPattern(variables, rows)

    def _parse_values_term(self):
        token = self._peek()
        if token is not None and token.kind == "keyword" and token.text.upper() == "UNDEF":
            self._next()
            return None
        term = self._parse_term_or_var(position="VALUES")
        if isinstance(term, Variable):
            raise SPARQLSyntaxError("VALUES rows may not contain variables")
        return term

    def _parse_group_or_union(self) -> GraphPatternUnion:
        first = self._parse_group()
        alternatives = [first]
        while self._accept_keyword("UNION"):
            alternatives.append(self._parse_group())
        if len(alternatives) == 1:
            return first
        return UnionPattern(alternatives)

    def _parse_triples_same_subject(self, bgp: BGP) -> None:
        subject = self._parse_term_or_var(position="subject")
        while True:
            predicate = self._parse_verb()
            while True:
                obj = self._parse_term_or_var(position="object")
                bgp.patterns.append(TriplePattern(subject, predicate, obj))
                if self._accept_punct(","):
                    continue
                break
            if self._accept_punct(";"):
                token = self._peek()
                # Allow trailing ';' before '.' or '}'.
                if token is not None and token.kind == "punct" and token.text in (".", "}"):
                    return
                continue
            return

    def _parse_verb(self) -> TermOrVar:
        token = self._peek()
        if token is not None and token.kind == "keyword" and token.text == "a":
            self._next()
            return _RDF_TYPE
        return self._parse_term_or_var(position="predicate")

    def _parse_term_or_var(self, position: str) -> TermOrVar:
        token = self._next()
        if token.kind == "var":
            return Variable(token.text[1:])
        if token.kind in ("iri", "pname", "string", "number"):
            term, make = self._term_from(token)
            if position == "predicate":
                return term
            return self._lift(token, term, make)
        if token.kind == "keyword" and token.text in ("true", "false"):
            return Literal(token.text, datatype=XSD_BOOLEAN)
        raise SPARQLSyntaxError(
            f"unexpected token {token.text!r} in triple {position}"
        )

    def _term_from(self, token: Token) -> Tuple[Term, TermMaker]:
        """The term an iri, pname, string or number token (plus a string's
        ``^^`` datatype or language tag) denotes, and how the same place
        makes its term from another text."""
        if token.kind == "iri":
            make: TermMaker = _iri_term
        elif token.kind == "pname":
            make = partial(_prefixed_term, self._namespace(token.text))
            return make(token.text.partition(":")[2]), make
        elif token.kind == "number":
            make = _number_literal
        else:
            make = self._literal_maker()
        return make(token.text), make

    def _namespace(self, pname: str) -> str:
        prefix = pname.partition(":")[0]
        if prefix not in self._prefixes:
            raise SPARQLSyntaxError(f"undeclared prefix {prefix!r}")
        return self._prefixes[prefix]

    def _resolve_pname(self, pname: str) -> IRI:
        return _prefixed_term(self._namespace(pname), pname.partition(":")[2])

    def _literal_maker(self) -> TermMaker:
        """Consume a string token's ``^^`` datatype or language tag."""
        nxt = self._peek()
        if nxt is not None and nxt.kind == "dtype":
            self._next()
            dt_token = self._next()
            if dt_token.kind == "iri":
                return partial(_string_literal, datatype=dt_token.text[1:-1])
            if dt_token.kind == "pname":
                datatype = self._resolve_pname(dt_token.text).value
                return partial(_string_literal, datatype=datatype)
            raise SPARQLSyntaxError("expected datatype IRI after ^^")
        if nxt is not None and nxt.kind == "lang":
            self._next()
            return partial(_string_literal, language=nxt.text[1:])
        return _string_literal

    # ------------------------------------------------------------------
    # Expressions (precedence climbing)
    # ------------------------------------------------------------------

    def _parse_filter_expression(self) -> Expression:
        self._expect_punct("(")
        expression = self._parse_expression()
        self._expect_punct(")")
        return expression

    def _parse_expression(self) -> Expression:
        return self._parse_or()

    def _parse_or(self) -> Expression:
        left = self._parse_and()
        while self._peek_op("||"):
            self._next()
            left = BinaryOp("||", left, self._parse_and())
        return left

    def _parse_and(self) -> Expression:
        left = self._parse_relational()
        while self._peek_op("&&"):
            self._next()
            left = BinaryOp("&&", left, self._parse_relational())
        return left

    def _parse_relational(self) -> Expression:
        left = self._parse_additive()
        token = self._peek()
        if token is not None and token.kind == "op" and token.text in (
            "=", "!=", "<", "<=", ">", ">=",
        ):
            operator = self._next().text
            return BinaryOp(operator, left, self._parse_additive())
        return left

    def _parse_additive(self) -> Expression:
        left = self._parse_multiplicative()
        while True:
            token = self._peek()
            if token is not None and token.kind == "op" and token.text in ("+", "-"):
                operator = self._next().text
                left = BinaryOp(operator, left, self._parse_multiplicative())
                continue
            return left

    def _parse_multiplicative(self) -> Expression:
        left = self._parse_unary()
        while True:
            token = self._peek()
            if token is not None and token.kind == "op" and token.text in ("*", "/"):
                operator = self._next().text
                left = BinaryOp(operator, left, self._parse_unary())
                continue
            return left

    def _parse_unary(self) -> Expression:
        token = self._peek()
        if token is not None and token.kind == "op" and token.text in ("!", "-"):
            self._next()
            return UnaryOp(token.text, self._parse_unary())
        return self._parse_primary()

    def _parse_primary(self) -> Expression:
        token = self._next()
        if token.kind == "punct" and token.text == "(":
            expression = self._parse_expression()
            self._expect_punct(")")
            return expression
        if token.kind == "var":
            return VarExpr(Variable(token.text[1:]))
        if token.kind in ("iri", "pname", "string", "number"):
            term, make = self._term_from(token)
            if token.kind in ("iri", "pname") and self._accept_punct("("):
                return self._parse_call(term.value)
            return TermExpr(self._lift(token, term, make))
        if token.kind == "keyword":
            word = token.text.upper()
            if word in ("TRUE", "FALSE"):
                return TermExpr(Literal(word.lower(), datatype=XSD_BOOLEAN))
            if word in _BUILTIN_FUNCTIONS:
                self._expect_punct("(")
                return self._parse_call(word)
            raise SPARQLSyntaxError(f"unknown function or keyword {token.text!r}")
        raise SPARQLSyntaxError(f"unexpected token in expression: {token.text!r}")

    def _parse_call(self, name: str) -> FunctionCall:
        args: List[Expression] = []
        if not self._accept_punct(")"):
            args.append(self._parse_expression())
            while self._accept_punct(","):
                args.append(self._parse_expression())
            self._expect_punct(")")
        return FunctionCall(name, tuple(args))

    def _peek_op(self, op: str) -> bool:
        token = self._peek()
        return token is not None and token.kind == "op" and token.text == op


# Type alias used above for readability.
GraphPatternUnion = Union[GroupPattern, UnionPattern]


def _number_literal(text: str) -> Literal:
    if "." in text or "e" in text or "E" in text:
        return Literal(text, datatype=XSD_DECIMAL)
    return Literal(text, datatype=XSD_INTEGER)


def _iri_term(text: str) -> IRI:
    return IRI(text[1:-1])


def _prefixed_term(namespace: str, local: str) -> IRI:
    return IRI(namespace + local)


def _string_literal(
    text: str, datatype: Optional[str] = None, language: Optional[str] = None
) -> Literal:
    return Literal(_unescape_string(text[1:-1]), datatype, language)


def _unescape_string(text: str) -> str:
    return (
        text.replace("\\n", "\n")
        .replace("\\r", "\r")
        .replace("\\t", "\t")
        .replace('\\"', '"')
        .replace("\\'", "'")
        .replace("\\\\", "\\")
    )


def parse_query(query: str) -> Union[SelectQuery, AskQuery]:
    """Parse SPARQL text into a :class:`SelectQuery` or :class:`AskQuery`."""
    return _Parser(query).parse()


def parse_lifted(
    query: str, starts: Sequence[int]
) -> Tuple[Union[SelectQuery, AskQuery], Optional[List[Tuple[Term, TermMaker]]]]:
    """Parse *query* whose tokens at *starts* a normaliser lifted
    (:func:`repro.sparql.tokenizer.normalise`).

    Returns the AST and, per lifted token in order, the term object it
    became in the AST and the maker of that place's term from another
    text's lifted token; the list is None when some lifted token did not
    become a term in a liftable place (a subject, object, expression or
    VALUES row).
    """
    parser = _Parser(query, {start: slot for slot, start in enumerate(starts)})
    ast = parser.parse()
    if len(parser.slots) != len(starts):
        return ast, None
    return ast, [parser.slots[slot] for slot in range(len(starts))]
