"""The normaliser: which tokens of a query text become template slots.

``normalise`` splits a text into ``(template, params, starts)``. A lifted
span must be exactly one tokenizer term token (iri, prefixed name, string,
number) in a liftable place: a subject, an object, an expression or a
VALUES row. Predicates, PREFIX IRIs, function names, ``^^`` datatypes,
language tags and LIMIT/OFFSET numbers stay in the template. The property
test builds random queries whose every token knows whether it is liftable,
so the expected spans come from the generator, not from a second copy of
the rules.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparql import parse_query
from repro.sparql.parser import parse_lifted
from repro.sparql.template import bind_query, make_template
from repro.sparql.tokenizer import SLOT, normalise, tokenize

PREFIXES = (
    "PREFIX ex: <http://ex.org/> "
    "PREFIX xsd: <http://www.w3.org/2001/XMLSchema#> "
)


def lifted_texts(text):
    """The token texts ``normalise`` lifted, whole (pname prefix included)."""
    tokens = {token.position: token for token in tokenize(text)}
    return [tokens[start].text for start in normalise(text).starts]


def rebuild(template, params):
    """The text a template and its params spell."""
    pieces = template.split(SLOT)
    out = [pieces[0]]
    for piece, param in zip(pieces[1:], params):
        out.append(param + piece[1:])
    return "".join(out)


# ----------------------------------------------------------------------
# Property: lifted spans == the generator's liftable term tokens
# ----------------------------------------------------------------------

IRIS = st.sampled_from(["<http://ex.org/a>", "<http://ex.org/b#c>", "<urn:x>"])
PNAMES = st.sampled_from(["ex:a", "ex:b1", "ex:", "ex:x.y", "ex:long-name"])
NUMBERS = st.sampled_from(["0", "5", "-5", "+3", "1.5", "-2.25", "1e3", "-4.5E-2"])
STRINGS = st.sampled_from([
    '"plain"', "'single'", '"a # b"', '"{ x }"', r'"say \"hi\""',
    r'"back\\slash"', '"ex:a"', '"?v"', '"LIMIT 5"', '""',
])
SUFFIXES = st.sampled_from(["", "^^xsd:integer", "^^<http://ex.org/dt>", "@en", "@en-GB"])
VARS = st.sampled_from(["?a", "?b", "$c"])
SPACES = st.sampled_from([" ", "  ", "\n", "\t ", " # note ex:a \"x\" 5 {\n"])


class Out:
    """Tokens of a generated query: (text, liftable) pairs."""

    def __init__(self):
        self.tokens = []

    def add(self, text, lift=False):
        self.tokens.append((text, lift))


@st.composite
def literal(draw, out, lift=True):
    out.add(draw(STRINGS) + draw(SUFFIXES), lift)


@st.composite
def constant(draw, out, lift=True, literals=True):
    kinds = ["iri", "pname"] + (["number", "string"] if literals else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "string":
        draw(literal(out, lift))
    else:
        out.add(draw({"iri": IRIS, "pname": PNAMES, "number": NUMBERS}[kind]), lift)


@st.composite
def expression(draw, out, depth=0):
    choice = draw(st.integers(0, 5 if depth < 2 else 2))
    if choice == 0:
        out.add(draw(VARS))
    elif choice == 1:
        draw(constant(out))
    elif choice == 2:
        out.add(draw(st.sampled_from(["true", "false"])))
    elif choice == 3:
        out.add("(")
        draw(expression(out, depth + 1))
        out.add(draw(st.sampled_from(["+", "-", "*", "/", "=", "<", ">=", "&&"])))
        draw(expression(out, depth + 1))
        out.add(")")
    elif choice == 4:
        out.add(draw(st.sampled_from(["!", "-"])))
        out.add("(")
        draw(expression(out, depth + 1))
        out.add(")")
    else:
        name = draw(st.sampled_from(["STR", "IF", "ex:fn", "<http://ex.org/fn>"]))
        out.add(name)
        out.add("(")
        for index in range(3 if name == "IF" else 1):
            if index:
                out.add(",")
            draw(expression(out, depth + 1))
        out.add(")")


@st.composite
def triples(draw, out):
    if draw(st.booleans()):
        out.add(draw(VARS))
    else:
        draw(constant(out, literals=False))
    for verb in range(draw(st.integers(1, 2))):
        if verb:
            out.add(";")
        predicate = draw(st.integers(0, 2))
        if predicate == 0:
            out.add(draw(VARS))
        elif predicate == 1:
            out.add("a")
        else:
            draw(constant(out, lift=False, literals=False))
        for index in range(draw(st.integers(1, 2))):
            if index:
                out.add(",")
            kind = draw(st.integers(0, 2))
            if kind == 0:
                out.add(draw(VARS))
            elif kind == 1:
                out.add(draw(st.sampled_from(["true", "false"])))
            else:
                draw(constant(out))
    out.add(".")


@st.composite
def group(draw, out, depth=0):
    out.add("{")
    for _ in range(draw(st.integers(1, 3))):
        element = draw(st.integers(0, 6 if depth < 2 else 3))
        if element == 0:
            draw(triples(out))
        elif element == 1:
            out.add("FILTER")
            out.add("(")
            draw(expression(out))
            out.add(")")
        elif element == 2:
            out.add("BIND")
            out.add("(")
            draw(expression(out))
            out.add("AS")
            out.add("?z")
            out.add(")")
        elif element == 3:
            out.add("VALUES")
            if draw(st.booleans()):
                out.add("?v")
                out.add("{")
                for _ in range(draw(st.integers(0, 3))):
                    if draw(st.booleans()):
                        draw(constant(out))
                    else:
                        out.add("UNDEF")
                out.add("}")
            else:
                for text in ("(", "?v", "?w", ")", "{"):
                    out.add(text)
                for _ in range(draw(st.integers(0, 2))):
                    out.add("(")
                    draw(constant(out))
                    out.add("UNDEF")
                    out.add(")")
                out.add("}")
        elif element == 4:
            out.add("OPTIONAL")
            draw(group(out, depth + 1))
        elif element == 5:
            draw(group(out, depth + 1))
            out.add("UNION")
            draw(group(out, depth + 1))
        else:
            draw(group(out, depth + 1))
    out.add("}")


@st.composite
def queries(draw):
    """(text, starts of the liftable tokens, their texts)."""
    out = Out()
    for text in PREFIXES.split():
        out.add(text)
    out.add("SELECT")
    out.add("?a")
    if draw(st.booleans()):
        for text in ("(", "COUNT", "("):
            out.add(text)
        draw(expression(out))
        for text in (")", "AS", "?n", ")"):
            out.add(text)
    out.add("WHERE")
    draw(group(out))
    if draw(st.booleans()):
        for text in ("ORDER", "BY", "DESC", "("):
            out.add(text)
        draw(expression(out))
        out.add(")")
    for clause in ("LIMIT", "OFFSET"):
        if draw(st.booleans()):
            out.add(clause)
            out.add(str(draw(st.integers(0, 50))))
    text, starts, lifted = "", [], []
    for token, lift in out.tokens:
        text += draw(SPACES)
        if lift:
            starts.append(len(text))
            lifted.append(token.split("^^")[0].split("@")[0])
        text += token
    return text, starts, lifted


@settings(max_examples=300, deadline=None)
@given(case=queries())
def test_lifted_spans_are_the_liftable_term_tokens(case):
    text, starts, lifted = case
    normalised = normalise(text)
    assert list(normalised.starts) == starts
    assert lifted_texts(text) == lifted
    kinds = {token.position: token.kind for token in tokenize(text)}
    assert all(kinds[start] in ("iri", "pname", "string", "number") for start in starts)
    assert rebuild(normalised.template, normalised.params) == text
    # The parser agrees: every lifted token became a term in a liftable place.
    ast, slots = parse_lifted(text, normalised.starts)
    assert slots is not None and len(slots) == len(starts)
    assert ast == parse_query(text)


# ----------------------------------------------------------------------
# Edge cases
# ----------------------------------------------------------------------

def test_negative_numbers_split_as_the_tokenizer_splits_them():
    text = PREFIXES + "SELECT ?v WHERE { ?s ex:p ?v FILTER(?v - 5 > -3 && ?v < +2) }"
    assert normalise(text).params == ("5", "-3", "+2")
    assert "?v - " + SLOT + "i > " + SLOT + "i" in normalise(text).template
    # No blank: the tokenizer reads "-5" as one number, and so does the
    # normaliser (the parse then fails, as it would without templates).
    glued = PREFIXES + "SELECT ?v WHERE { ?s ex:p ?v FILTER(?v -5 > 0) }"
    assert normalise(glued).params == ("-5", "0")


def test_limit_and_offset_numbers_stay_in_the_template():
    text = PREFIXES + "SELECT ?v WHERE { ?s ex:p 7 } ORDER BY ?v LIMIT 10 OFFSET 5"
    normalised = normalise(text)
    assert normalised.params == ("7",)
    assert normalised.template.endswith("ORDER BY ?v LIMIT 10 OFFSET 5")


def test_prefix_iris_and_names_stay_in_the_template():
    normalised = normalise(PREFIXES + "SELECT ?s WHERE { ?s ex:p ex:o }")
    assert normalised.params == ("o",)
    assert normalised.template.startswith(PREFIXES)
    assert "ex:p ex:" + SLOT + "P" in normalised.template


def test_strings_holding_comment_brace_quote_and_escapes():
    value = r'"a # b { c \" d \\ e }"'
    text = PREFIXES + f"SELECT ?s WHERE {{ ?s ex:p {value} . ex:s ex:q ?o }}"
    assert normalise(text).params == (value, "s")
    assert lifted_texts(text) == [value, "ex:s"]


def test_datatypes_and_language_tags_stay_in_the_template():
    typed = PREFIXES + 'SELECT ?s WHERE { ?s ex:p "5"^^xsd:integer . ?s ex:q "chat"@fr }'
    normalised = normalise(typed)
    assert normalised.params == ('"5"', '"chat"')
    assert SLOT + "s^^xsd:integer" in normalised.template
    assert SLOT + "s@fr" in normalised.template
    other = typed.replace("xsd:integer", "xsd:decimal")
    assert normalise(other).template != normalised.template
    assert normalise(typed.replace("@fr", "@de")).template != normalised.template


def test_one_constant_used_twice_is_two_slots():
    query = PREFIXES + "SELECT ?v WHERE {{ ex:{} ex:p ?v . ex:{} ex:q ?v FILTER(?v != {} && ?v != {}) }}"
    text = query.format("a", "a", 3, 3)
    normalised = normalise(text)
    assert normalised.params == ("a", "a", "3", "3")
    entry = make_template(text, normalised)
    bound = bind_query(normalised.template, entry, ("b", "c", "4", "5"))
    assert bound.ast == parse_query(query.format("b", "c", 4, 5))
    assert bound.ast != parse_query(query.format("b", "b", 4, 4))


def test_function_names_stay_in_the_template():
    text = PREFIXES + (
        'SELECT ?s WHERE { ?s ex:p ?v FILTER(ex:fn(?v, ex:arg) && '
        '<http://ex.org/g>(1) && STR(?v) = "x") }'
    )
    normalised = normalise(text)
    assert normalised.params == ("arg", "1", '"x"')
    assert "ex:fn(" in normalised.template
    assert "<http://ex.org/g>(" in normalised.template


def test_predicates_stay_and_subjects_objects_and_values_rows_lift():
    text = PREFIXES + (
        "SELECT ?o WHERE { <http://ex.org/s> a ex:T ; ex:p ?o , 2 . "
        "VALUES (?o ?w) { (ex:x UNDEF) (3 'y') } }"
    )
    assert lifted_texts(text) == [
        "<http://ex.org/s>", "ex:T", "2", "ex:x", "3", "'y'",
    ]


def test_comments_and_slot_characters():
    text = PREFIXES + "SELECT ?s WHERE { # ex:a 5 \"x\"\n ?s ex:p 1 }"
    assert normalise(text).params == ("1",)
    assert normalise("SELECT ?s WHERE { ?s ?p '\x00' }") is None


def test_a_lifted_token_the_parser_reads_elsewhere_makes_no_template():
    # A lifted token the parser reads as a predicate leaves its slot empty.
    text = PREFIXES + "SELECT ?s WHERE { ?s ex:p ?o }"
    ast, slots = parse_lifted(text, [text.index(" ex:p ") + 1])
    assert ast == parse_query(text) and slots is None
