"""Surface syntax: programs, queries, errors, and round trips."""

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import CORPUS_TEXTS
from homelog.parser import ParseError, parse_program, parse_query, parse_term_text
from homelog.program import Clause, Literal, PredId, format_clause, format_program, pred_of
from homelog.engine import solve_all
from homelog.planner import domain_kb
from homelog.terms import Const, Struct, Var, format_term, make_list, term_vars, variant_of


def test_single_fact():
    p = parse_program("parent(tony, abe).")
    assert len(p) == 1
    assert p.clauses[0] == Clause(Struct("parent", (Const("tony"), Const("abe"))))
    assert p.defines(PredId("parent", 2))


def test_rule_with_builtin():
    p = parse_program("sibling(X,Y) :- parent(Parent, X), parent(Parent, Y), X\\=Y.")
    (clause,) = p.clauses
    assert len(clause.body) == 3
    assert clause.body[2].is_builtin
    assert clause.body[2].atom == Struct("\\=", (Var("X"), Var("Y")))


def test_unterminated_argument_list():
    with pytest.raises(ParseError) as e:
        parse_program("foo(")
    assert e.value.line == 1
    assert "unterminated argument list" in str(e.value)


def test_list_sugar_desugars():
    p = parse_program("initial_state([close(couch1)]).")
    arg = p.clauses[0].head.args[0]
    assert arg == Struct(
        ".", (Struct("close", (Const("couch1"),)), Const("[]"))
    )


def test_list_with_tail():
    t = parse_term_text("[a,b|T]")
    assert t == make_list([Const("a"), Const("b")], Var("T"))


def test_naf_literal():
    p = parse_program("ok(X) :- thing(X), not member(X, [a,b]).")
    lit = p.clauses[0].body[1]
    assert lit.negated and lit.atom.functor == "member"


def test_double_negation_rejected():
    with pytest.raises(ParseError):
        parse_program("p(X) :- not not q(X).")


def test_negated_builtin_rejected():
    with pytest.raises(ParseError):
        parse_program("p(X) :- not X = a.")


def test_not_with_parentheses_is_negation():
    p = parse_program("happy(X) :- person(X), not(sad(X)).")
    assert p.clauses[0].body[1] == Literal(Struct("sad", (Var("X"),)), negated=True)
    assert p == parse_program("happy(X) :- person(X), not sad(X).")
    assert format_program(p) == "happy(X) :- person(X), not sad(X).\n"
    assert parse_query("?- not(p(a)), q.") == parse_query("?- not p(a), q.")


@pytest.mark.parametrize(
    "text, message",
    [
        ("p(X) :- not(X).", "a variable cannot be called as a literal"),
        ("p :- not(not(q)).", "double negation is not supported"),
        ("p :- not(3).", "an integer cannot be called as a literal"),
        ("p :- not([q]).", "a list cannot be called as a literal"),
    ],
)
def test_not_with_parentheses_gets_the_checks_of_prefix_not(text, message):
    with pytest.raises(ParseError, match=message):
        parse_program(text)


def test_not_in_a_head_or_with_two_arguments_stays_an_atom():
    p = parse_program("not(a). p :- not(a, b).")
    assert p.clauses[0].head == Struct("not", (Const("a"),))
    assert p.clauses[1].body == (Literal(Struct("not", (Const("a"), Const("b")))),)


def test_builtin_head_rejected():
    with pytest.raises(ParseError):
        parse_program("=(a, b).")
    with pytest.raises(ParseError):
        parse_program("X = a.")


_heads = st.sampled_from([
    Const("p"),
    Struct("p", (Var("X"),)),
    Struct("p", (Const("a"),)),
    Struct("p", (Var("X"), Var("Y"))),
    Struct("q", (Var("X"),)),
])
_bodies = st.sampled_from([
    (),
    (Literal(Struct("q", (Var("X"),))),),
    (Literal(Struct("q", (Var("X"),)), negated=True),),
    (Literal(Struct("q", (Var("X"),))), Literal(Struct("\\=", (Var("X"), Const("a"))))),
])


@given(_heads, _bodies, _heads, _bodies)
def test_clause_identity_is_its_head_and_body(h1, b1, h2, b2):
    c1, c2 = Clause(h1, b1), Clause(h2, b2)
    assert c1.head_pred == pred_of(h1)
    assert (c1 == c2) == (h1 == h2 and b1 == b2)
    if c1 == c2:
        assert hash(c1) == hash(c2)


def test_clause_cannot_define_a_builtin():
    with pytest.raises(ValueError):
        Clause(Struct("=", (Var("X"), Const("a"))))
    with pytest.raises(ValueError):
        Clause(Struct("\\=", (Var("X"), Const("a"))), (Literal(Struct("q", (Var("X"),))),))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: pred_of(Const(3)), "not a callable atom: Const(3)"),
        (lambda: Literal(Var("X")), "a variable is not a literal"),
        (lambda: Literal(Struct("=", (Var("X"), Const("a"))), negated=True),
         "builtins cannot appear under not"),
    ],
    ids=["integer_atom", "variable_literal", "negated_equality"],
)
def test_atoms_and_literals_reject_what_cannot_be_called(build, message):
    with pytest.raises(ValueError) as e:
        build()
    assert str(e.value) == message


def test_comments_and_whitespace():
    p = parse_program("% a comment\nfoo(a).  % trailing\n\n  bar(b).\n")
    assert len(p) == 2


def test_anonymous_variables_are_distinct():
    p = parse_program("pair(_, _).")
    a, b = p.clauses[0].head.args
    assert isinstance(a, Var) and isinstance(b, Var) and a.name != b.name


def test_anonymous_variables_never_alias_written_ones():
    p = parse_program("pair(_, _A1).\nsame(_A2, _A2, _).\n")
    [a, b] = p.clauses[0].head.args
    assert a != b
    assert len(set(term_vars(p.clauses[1].head))) == 2
    answers, status = solve_all(p, parse_query("?- pair(a, b)."))
    assert [str(x) for x in answers] == ["yes"] and status == "exhausted"
    answers, _ = solve_all(p, parse_query("?- same(a, a, b)."))
    assert [str(x) for x in answers] == ["yes"]
    # The same holds in a query, and the clause still prints and re-parses.
    [goal] = parse_query("?- pair(_A1, _).")
    assert len(set(term_vars(goal.atom))) == 2
    assert format_program(parse_program(format_program(p))) == format_program(p)


@pytest.mark.parametrize(
    "deep",
    [
        "f(" * 10_000 + "a" + ")" * 10_000,
        "[" * 10_000 + "]" * 10_000,
        "[" * 10_000 + "x|T" + "]" * 10_000,
    ],
    ids=["compound", "list", "partial_list"],
)
def test_deep_terms_parse_solve_and_print_without_recursion(deep):
    text = f"d({deep}).\n"
    program = parse_program(text)
    assert format_program(program) == text
    [answer] = solve_all(program, parse_query("?- d(X)."))[0]
    assert str(answer) == "X = " + deep.replace("T", "_A")
    assert format_term(parse_term_text(deep)) == deep


_DEEP_WRAPPERS = {"f": ("f(", ")"), "g": ("g(c, ", ")"), "list": ("[", "]"), "cons": ("[b|", "]")}


@settings(max_examples=10, deadline=None)
@given(
    st.integers(min_value=2000, max_value=4000),
    st.lists(st.sampled_from(sorted(_DEEP_WRAPPERS)), min_size=1, max_size=4),
    st.sampled_from(["a", "7", "X"]),
)
def test_deep_terms_parse_solve_and_print(depth, pattern, leaf):
    wrappers = [_DEEP_WRAPPERS[w] for w in itertools.islice(itertools.cycle(pattern), depth)]
    text = "".join(o for o, _ in wrappers) + leaf + "".join(c for _, c in reversed(wrappers))
    program = parse_program(f"d({text}).")
    [answer] = solve_all(program, parse_query("?- d(X)."))[0]
    want = parse_term_text(text)
    assert variant_of(answer.bindings["X"], want)
    assert format_term(answer.bindings["X"]) == format_term(want).replace("X", "_A")
    # The head meets the same deep term written in the query.
    [answer] = solve_all(program, parse_query(f"?- d({text})."))[0]
    assert str(answer) == ("X = _A" if leaf == "X" else "yes")


def test_error_reports_position():
    with pytest.raises(ParseError) as e:
        parse_program("foo(a)\nbar(b).")
    assert e.value.line in (1, 2)
    assert e.value.column >= 1


def test_only_decimal_digits_make_an_integer():
    with pytest.raises(ParseError) as e:
        parse_program("p(\u00b2).")  # superscript two: a digit, but not a decimal one
    assert (e.value.message, e.value.line, e.value.column) == ("unexpected character '\u00b2'", 1, 3)
    assert parse_program("p(\u0663).").clauses[0].head.args == (Const(3),)  # Arabic-Indic three


@pytest.mark.parametrize("text, column", [("p(a) % x", 9), ("p(a)   ", 8)])
def test_end_of_input_is_reported_after_a_trailing_comment(text, column):
    with pytest.raises(ParseError) as e:
        parse_program(text)
    assert (e.value.message, e.value.line, e.value.column) == ("got end of input", 1, column)


@pytest.mark.parametrize(
    "text, message, line, column",
    [
        ("% first\r\np(a).\r\n\tq(b) :- r(#).", "unexpected character '#'", 3, 12),
        # Every character is read before the grammar: `#` wins over `(.`.
        ("p(.\nq(#).", "unexpected character '#'", 2, 3),
        ("p(12ab).", "unterminated argument list, got atom 'ab'", 1, 5),
        ("p(\f).", "unexpected character '\\x0c'", 1, 3),
        ("p\v(a).", "unexpected character '\\x0b'", 1, 2),
        ("p(a)\u00a0.", "unexpected character '\\xa0'", 1, 5),
        ("p(a) 7.", "got int '7'", 1, 6),
        ("p(a) X.", "got var 'X'", 1, 6),
        ("p(a) :- (.", "got punct '('", 1, 9),
        ("p(a) :-", "got end of input", 1, 8),
        ("p([", "unterminated list", 1, 4),
        ("p([a b]).", "unterminated list, got atom 'b'", 1, 6),
        ("p :- not q = r.", "builtins cannot appear under not", 1, 12),
        ("a = b.", "clause heads cannot use builtins", 1, 3),
    ],
    ids=["line_3", "first_bad_character", "int_then_atom", "form_feed", "vertical_tab",
         "no_break_space", "int", "var", "punct", "end_of_input", "open_list", "list_without_comma",
         "builtin_under_not", "builtin_after_head"],
)
def test_lexical_errors_report_message_line_and_column(text, message, line, column):
    with pytest.raises(ParseError) as e:
        parse_program(text)
    assert (e.value.message, e.value.line, e.value.column) == (message, line, column)


@pytest.mark.parametrize(
    "parse, text, message, column",
    [
        (parse_query, "?- p. q", "trailing input after query: atom 'q'", 7),
        (parse_term_text, "a b", "trailing input after term: atom 'b'", 3),
    ],
    ids=["query", "term"],
)
def test_trailing_input_is_rejected(parse, text, message, column):
    with pytest.raises(ParseError) as e:
        parse(text)
    assert (e.value.message, e.value.line, e.value.column) == (message, 1, column)


def test_words_are_read_by_their_first_character():
    assert parse_term_text("a\u00b2") == Const("a\u00b2")  # a non-decimal digit inside a word
    assert parse_term_text("\u00c4b") == Var("\u00c4b")  # an uppercase letter starts a variable
    assert parse_term_text("\u00e9") == Const("\u00e9")  # any other letter starts an atom


def test_programs_and_queries_over_long_lists_parse_and_solve():
    items = ", ".join(f"x{i}" for i in range(20_000))
    program = parse_program(f"items([{items}]).\nhas(X) :- items(L), member(X, L).\n")
    assert [str(a) for a in solve_all(program, parse_query("?- has(x19999)."))[0]] == ["yes"]
    assert [str(a) for a in solve_all(program, parse_query(f"?- items([{items}])."))[0]] == ["yes"]
    answers, status = solve_all(program, parse_query(f"?- member(X, [{items}]), X = x19999."))
    assert [str(a) for a in answers] == ["X = x19999"] and status == "exhausted"


def test_parse_query():
    goals = parse_query("?- niece(X, Y).")
    assert goals == [Literal(Struct("niece", (Var("X"), Var("Y"))))]


def test_parse_query_conjunction_shares_scope():
    goals = parse_query("?- parent(X, Y), parent(Y, Z).")
    assert goals[0].atom.args[1] == goals[1].atom.args[0]


def test_empty_query_rejected():
    with pytest.raises(ParseError):
        parse_query("?- .")


def test_query_with_constant_argument():
    goals = parse_query("?- complete_task(walk_to_remote, P).")
    assert goals[0].atom.functor == "complete_task"
    assert goals[0].atom.args[0] == Const("walk_to_remote")


def test_integers_parse_as_constants():
    p = parse_program("current_time(1).\noff(remotecontrol1, 1).")
    assert p.clauses[0].head.args[0] == Const(1)


@pytest.mark.parametrize("name", sorted(CORPUS_TEXTS))
def test_corpus_texts_parse(name):
    program = parse_program(CORPUS_TEXTS[name])
    assert len(program) >= 1
    # parse(format(parse(text))) is stable
    again = parse_program(format_program(program))
    assert [format_clause(c) for c in again] == [format_clause(c) for c in program]


_ANONYMOUS_PROGRAMS = {
    "pair": "pair(_, X) :- q(X, _).\nsame(_A1, _).\n",
    "nested": "r(_) :- not s(_, a), t([_|_]).\nr([_, _A2|_]) :- _ = b.\nu(_A1, _) :- r(_).\n",
}


@pytest.mark.parametrize("name", ["domain_kb", *_ANONYMOUS_PROGRAMS])
def test_a_printed_program_parses_back_equal(name):
    program = domain_kb() if name == "domain_kb" else parse_program(_ANONYMOUS_PROGRAMS[name])
    text = format_program(program)
    assert "_#" not in text
    assert parse_program(text) == program


def test_corpus_world_facts_cover_both_arities():
    p = parse_program(CORPUS_TEXTS["world_facts"])
    assert p.defines(PredId("off", 1)) and p.defines(PredId("off", 2))
    assert p.defines(PredId("inside", 1)) and p.defines(PredId("inside", 2))
    assert p.defines(PredId("current_time", 1))


def test_format_term_examples():
    assert format_term(make_list([Const("a"), Const("b")])) == "[a, b]"
    assert format_term(Struct("walk", (Const("remotecontrol1"),))) == "walk(remotecontrol1)"
    assert format_term(Var("X")) == "X"


# -- round-trip property ------------------------------------------------------------

_atoms = st.sampled_from(["a", "foo", "walk", "close_to_character"])
_vars = st.sampled_from(["X", "Y", "State", "_G1"])


def _rt_terms(variables=_vars):
    base = st.one_of(
        _atoms.map(Const),
        st.integers(min_value=0, max_value=99).map(Const),
        variables.map(Var),
    )
    return st.recursive(
        base,
        lambda kids: st.one_of(
            st.builds(
                Struct,
                _atoms,
                st.lists(kids, min_size=1, max_size=3).map(tuple),
            ),
            st.builds(lambda items: make_list(items), st.lists(kids, max_size=3)),
        ),
        max_leaves=10,
    )


@settings(max_examples=200)
@given(_rt_terms())
def test_round_trip_terms(t):
    assert parse_term_text(format_term(t)) == t


def _each_anonymous_apart(t, fresh):
    """`t` with each occurrence of Var("_") replaced by a variable of its own."""
    if type(t) is Var and t.name == "_":
        return Var(f"Anon{next(fresh)}")
    if type(t) is Struct:
        return Struct(t.functor, tuple(_each_anonymous_apart(a, fresh) for a in t.args))
    return t


@settings(max_examples=100)
@given(st.lists(_rt_terms(st.sampled_from(["X", "Y", "State", "_G1", "_A1", "_A2", "_"])), min_size=1, max_size=3))
@example([Var("_"), Var("_A1")])
def test_round_trip_clauses(args):
    # Var("_") prints as `_`, which the parser reads as a variable of its
    # own at each occurrence; the clause it means has those variables.
    clause = Clause(Struct("head", tuple(args)))
    text = format_clause(clause)
    parsed = parse_program(text).clauses[0]
    if "_" not in term_vars(clause.head):
        assert format_clause(parsed) == text
    meant = _each_anonymous_apart(clause.head, itertools.count())
    assert variant_of(parsed.head, meant)
    assert format_clause(parse_program(format_clause(parsed)).clauses[0]) == format_clause(parsed)
