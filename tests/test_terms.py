"""Terms, substitutions, unification, renaming, variants."""

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracle import variant_of
from homelog.terms import (
    EMPTY_LIST,
    Const,
    Struct,
    Var,
    apply_subst,
    compile_template,
    format_term,
    list_parts,
    make_list,
    rename_apart_term,
    term_vars,
    unify,
    variant_key,
)

# -- strategies -------------------------------------------------------------------


def _renamed(t, fresh):
    """Rename `t` apart the way the solver builds a clause body: compile it,
    then instantiate it over an empty frame."""
    slots = {}
    code = []
    compile_template(t, slots, code)
    [out] = rename_apart_term(code, [None] * len(slots), fresh)
    return out


_atoms = st.sampled_from(["a", "b", "f", "i1", "walk", "close", "remotecontrol1"])
_VARNAMES = ("X", "Y", "Z", "State")


def _terms(names=_VARNAMES):
    """Random terms whose variables are drawn from `names`."""
    base = st.one_of(
        _atoms.map(Const),
        st.integers(min_value=-9, max_value=9).map(Const),
        *([st.sampled_from(names).map(Var)] if names else []),
    )
    return st.recursive(
        base,
        lambda kids: st.builds(
            Struct,
            st.sampled_from(["f", "g", "close", "."]),
            st.lists(kids, min_size=1, max_size=3).map(tuple),
        ),
        max_leaves=8,
    )


def _rebuild(t, value=None):
    """A copy of `t` that shares no compound with it, every variable
    replaced by `value` when one is given."""
    if isinstance(t, Struct):
        return Struct(t.functor, tuple(_rebuild(a, value) for a in t.args))
    if isinstance(t, Var) and value is not None:
        return value
    return t


# -- construction -----------------------------------------------------------------


def test_struct_requires_args():
    with pytest.raises(ValueError):
        Struct("f", ())


@settings(max_examples=150)
@given(_terms())
def test_ground_flag_means_no_variables(t):
    if isinstance(t, Struct):
        assert t.ground == (not term_vars(t))


@settings(max_examples=150)
@given(_terms())
def test_equal_terms_hash_equal(t):
    copy = _rebuild(t)
    assert copy == t and hash(copy) == hash(t)
    # The same term made ground through bindings is rebuilt with the flag
    # and the hash of one built ground.
    rebuilt = apply_subst({name: Const("a") for name in term_vars(t)}, t)
    built = _rebuild(t, Const("a"))
    assert rebuilt == built and hash(rebuilt) == hash(built)
    if isinstance(rebuilt, Struct):
        assert rebuilt.ground


def test_unequal_ground_terms():
    assert Struct("f", (Const("a"),)) != Struct("f", (Const("b"),))
    assert Struct("f", (Const("a"),)) != Struct("f", (Var("X"),))
    assert Struct("f", (Const("a"),)) != Const("a")


def test_list_sugar_round_trip():
    t = make_list([Const("a"), Const("b")])
    assert t == Struct(".", (Const("a"), Struct(".", (Const("b"), EMPTY_LIST))))
    items, tail = list_parts(t)
    assert items == [Const("a"), Const("b")] and tail == EMPTY_LIST
    assert format_term(t) == "[a, b]"


def test_partial_list_formats_with_bar():
    t = make_list([Const("a")], Var("T"))
    assert format_term(t) == "[a|T]"


def test_term_vars_first_occurrence_order():
    t = Struct("f", (Var("Y"), Struct("g", (Var("X"), Var("Y")))))
    assert term_vars(t) == ["Y", "X"]


def test_term_vars_skips_ground_compounds():
    ground = make_list([Const(f"x{i}") for i in range(10_000)])
    t = Struct("state", (Var("S"), ground, Struct("g", (Var("T"), Var("S")))))
    assert term_vars(t) == ["S", "T"]
    # The walk trusts the flag: it does not look inside a compound marked
    # ground, which is what keeps it from walking long ground lists.
    marked = Struct("h", (Var("Hidden"),))
    marked.ground = True
    assert term_vars(Struct("f", (marked, Var("S")))) == ["S"]


def test_format_term_of_deep_terms_does_not_recurse():
    deep = Var("X")
    for _ in range(10_000):
        deep = Struct("f", (deep,))
    assert format_term(deep) == "f(" * 10_000 + "X" + ")" * 10_000
    nested = make_list([Const("a"), Struct("g", (make_list([Const(1)]), deep))], Var("T"))
    assert format_term(nested) == "[a, g([1], " + format_term(deep) + ")|T]"


# -- unification ------------------------------------------------------------------


def test_unify_var_const():
    s = unify(Var("X"), Const("remotecontrol1"))
    assert s == {"X": Const("remotecontrol1")}


def test_unify_structural_descent():
    s = unify(
        Struct("close", (Var("X"),)), Struct("close", (Const("remotecontrol1"),))
    )
    assert s == {"X": Const("remotecontrol1")}


def test_unify_occurs_check():
    assert unify(Var("X"), Struct("f", (Var("X"),))) is None


def test_unify_clash():
    assert unify(Const("a"), Const("b")) is None
    assert unify(Struct("f", (Const("a"),)), Struct("g", (Const("a"),))) is None


def test_unify_extends_existing_substitution():
    s0 = {"X": Const("a")}
    s = unify(Var("X"), Var("Y"), s0)
    assert s is not None and apply_subst(s, Var("Y")) == Const("a")
    assert s0 == {"X": Const("a")}  # input untouched


@settings(max_examples=150)
@given(_terms(), _terms())
def test_unify_produces_a_unifier(t1, t2):
    s = unify(t1, t2)
    if s is not None:
        assert apply_subst(s, t1) == apply_subst(s, t2)


@settings(max_examples=150)
@given(_terms())
def test_apply_subst_idempotent_after_unify(t):
    s = unify(t, _renamed(t, itertools.count(500)))
    assert s is not None
    once = apply_subst(s, t)
    assert apply_subst(s, once) == once


def _enumerate_ground_unifiers(t1, t2, consts):
    """Brute force: every assignment of constants to variables that makes
    the two terms equal."""
    names = sorted(set(term_vars(t1)) | set(term_vars(t2)))
    for combo in itertools.product(consts, repeat=len(names)):
        theta = {n: Const(c) for n, c in zip(names, combo)}
        if apply_subst(theta, t1) == apply_subst(theta, t2):
            yield theta


def test_mgu_generality_against_brute_force():
    """Every brute-force ground unifier factors through the mgu."""
    consts = ["a", "b", "c"]
    cases = [
        (Struct("f", (Var("X"), Var("Y"))), Struct("f", (Var("Y"), Var("X")))),
        (Struct("f", (Var("X"), Const("a"))), Struct("f", (Var("Y"), Var("Y")))),
        (Struct("g", (Var("X"), Var("Y"), Var("Z"))), Struct("g", (Var("Y"), Var("Z"), Const("b")))),
        (Struct("f", (Var("X"),)), Struct("f", (Struct("h", (Var("Y"),)),))),
    ]
    for t1, t2 in cases:
        sigma = unify(t1, t2)
        assert sigma is not None
        for theta in _enumerate_ground_unifiers(t1, t2, consts):
            # theta must equal delta∘sigma for some delta: applying theta
            # on top of sigma's image reproduces theta on every variable.
            for name in theta:
                lhs = apply_subst(theta, apply_subst(sigma, Var(name)))
                assert lhs == theta[name]


# -- renaming ---------------------------------------------------------------------


def test_rename_apart_fresh_and_structure_preserving():
    counter = itertools.count()
    t = Struct("sibling", (Var("X"), Struct("f", (Var("X"), Var("Y")))))
    r = _renamed(t, counter)
    assert variant_of(t, r)
    assert set(term_vars(r)).isdisjoint({"X", "Y"})
    r2 = _renamed(t, counter)
    assert set(term_vars(r)).isdisjoint(set(term_vars(r2)))


def test_rename_ground_term_identity():
    t = Struct("parent", (Const("tony"), Const("abe")))
    assert _renamed(t, itertools.count()) is t


def test_fresh_variables_cannot_be_written():
    # A program or query can write any name the tokenizer reads as a
    # variable; a fresh one must differ from all of them.
    from homelog.parser import ParseError, parse_term_text

    [fresh] = term_vars(_renamed(Var("X"), itertools.count(7)))
    with pytest.raises(ParseError):
        parse_term_text(fresh)


def test_compiled_slots_follow_first_occurrence_and_ground_parts_are_shared():
    ground = Struct("g", (Const("a"), make_list([Const(1), Const(2)])))
    t = Struct("p", (Var("Y"), Struct("f", (Var("X"), ground, Var("Y"))), Var("X")))
    slots = {}
    code = []
    template = compile_template(t, slots, code)
    assert slots == {"Y": 0, "X": 1}
    functor, args, lo, hi = template
    assert (functor, lo, hi) == ("p", 0, len(code))
    y, inner, x = args
    assert (y, x) == (0, 1)
    assert inner[0] == "f" and inner[1][1] is ground
    # Each compound's postfix code is its own span of the term's code.
    assert code[inner[2] : inner[3]] == [1, ground, 0, ("f", 3)]
    frame = [Const("b"), None]
    [built] = rename_apart_term(code[inner[2] : inner[3]], frame, itertools.count())
    assert type(frame[1]) is Var
    assert built == Struct("f", (frame[1], ground, Const("b")))
    assert built.args[1] is ground


def test_slots_are_shared_across_the_terms_of_one_clause():
    slots = {}
    code = []
    compile_template(Struct("p", (Var("X"),)), slots, code)
    compile_template(Struct("q", (Var("Z"), Var("X"))), slots, code)
    frame = [Const("a"), None]
    p, q = rename_apart_term(code, frame, itertools.count())
    assert p == Struct("p", (Const("a"),))
    assert q.args[1] == Const("a") and q.args[0] is frame[1]


# -- variants ---------------------------------------------------------------------


def test_variant_basic():
    assert variant_of(
        Struct("parent", (Var("X"), Var("Y"))), Struct("parent", (Var("A"), Var("B")))
    )
    assert not variant_of(
        Struct("parent", (Var("X"), Var("X"))), Struct("parent", (Var("A"), Var("B")))
    )
    assert variant_of(
        Struct("niece", (Var("X"), Const("jill"))),
        Struct("niece", (Var("Y"), Const("jill"))),
    )


def test_variant_key_matches_variant_of():
    t1 = Struct("f", (Var("X"), Var("Y"), Var("X")))
    t2 = Struct("f", (Var("A"), Var("B"), Var("A")))
    t3 = Struct("f", (Var("A"), Var("B"), Var("B")))
    assert variant_key(t1) == variant_key(t2)
    assert variant_key(t1) != variant_key(t3)


@settings(max_examples=100)
@given(_terms())
def test_variant_reflexive(t):
    assert variant_of(t, t)
    assert variant_key(t) == variant_key(t)


@settings(max_examples=100)
@given(_terms())
def test_variant_symmetric_under_renaming(t):
    r = _renamed(t, itertools.count(900))
    assert variant_of(t, r) and variant_of(r, t)
    assert variant_key(t) == variant_key(r)


def test_variant_key_reads_through_bindings():
    bindings = {"X": Struct("f", (Var("Y"),)), "Y": Const("a")}
    t = Struct("p", (Var("X"), Var("Z")))
    assert variant_key(apply_subst(bindings, t)) == variant_key(Struct("p", (Struct("f", (Const("a"),)), Var("W"))))
    assert variant_key(t) == variant_key(Struct("p", (Var("A"), Var("B"))))


@settings(max_examples=150)
@given(_terms(), _terms())
def test_variant_key_resolves_bindings(t1, t2):
    s = unify(t1, t2)
    if s is not None:
        assert variant_key(apply_subst(s, t1)) == variant_key(apply_subst(s, t2))


@st.composite
def _acyclic_bindings(draw):
    """Bindings of some of the variables, each to a term over the variables
    after it, so that resolving them ends."""
    bindings = {}
    for i, name in enumerate(_VARNAMES):
        if draw(st.booleans()):
            bindings[name] = draw(_terms(_VARNAMES[i + 1 :]))
    return bindings


@settings(max_examples=300)
@given(_terms(), _acyclic_bindings())
@example(Struct("f", (Var("X"), Struct("g", (Var("Y"),)))), {"X": Var("Y"), "Y": Const("a")})
def test_variant_key_reads_bindings_as_the_resolved_term(t, bindings):
    # A compound made ground by resolving keys as an equal one built apart.
    resolved = apply_subst(bindings, t)
    assert variant_key(resolved) == variant_key(_rebuild(resolved))


@settings(max_examples=80)
@given(_terms(), _terms())
@example(Const("i1"), Const(1))
def test_variant_agrees_with_key(t1, t2):
    assert variant_of(t1, t2) == (variant_key(t1) == variant_key(t2))


@settings(max_examples=200)
@given(_terms(), _terms())
@example(Struct("f", (Var("X"), Var("Y"))), Struct("f", (Var("Y"), Var("Y"))))
@example(Struct("f", (Const(1),)), Struct("f", (Const("1"),)))
def test_variant_key_agrees_with_a_renaming_walk(t1, t2):
    for other in (t2, _renamed(t1, itertools.count(900)), _rebuild(t1, Const("a"))):
        assert (variant_key(t1) == variant_key(other)) == variant_of(t1, other)


# -- deep terms -------------------------------------------------------------------


def test_walks_over_a_long_list_do_not_recurse():
    n = 10_000
    items = [Const(f"x{i}") for i in range(n)]
    ground = make_list(items)
    assert ground == make_list(items) and hash(ground) == hash(make_list(items))
    names = [f"V{i}" for i in range(n)]
    open_list = make_list([Var(v) for v in names])
    assert open_list == make_list([Var(v) for v in names])
    assert hash(open_list) == hash(make_list([Var(v) for v in names]))
    assert unify(open_list, make_list(items[:-1], Const("x"))) is None

    s = unify(open_list, ground)
    assert s is not None
    assert apply_subst(s, open_list) == ground and apply_subst(s, open_list).ground
    assert variant_key(apply_subst(s, open_list)) == variant_key(ground)
    # The same list bound cell by cell through a chain of variables.
    chain = {f"L{i}": Struct(".", (items[i], Var(f"L{i + 1}"))) for i in range(n)}
    chain[f"L{n}"] = EMPTY_LIST
    assert apply_subst(chain, Var("L0")) == ground

    renamed = _renamed(open_list, itertools.count())
    assert variant_of(open_list, renamed) and not variant_of(open_list, ground)
    assert variant_key(open_list) == variant_key(renamed)
    assert variant_key(open_list) != variant_key(ground)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=2000, max_value=4000), st.sampled_from(["f", "."]))
def test_deep_ground_terms_hash_and_compare_on_demand(depth, functor):
    def build(leaf):
        t = leaf
        for i in range(depth):
            t = Struct(".", (Const(i % 3), t)) if functor == "." else Struct("f", (t,))
        return t

    a, b, other = build(Const("a")), build(Const("a")), build(Const("b"))
    assert a.ground and a._hash is None  # nothing is hashed when it is built
    assert a == b and a != other
    assert hash(a) == hash(b)
    assert b in {a} and other not in {a}
    assert {a: 1}.get(build(Const("a"))) == 1
    assert variant_key(apply_subst({"X": Const("a")}, build(Var("X")))) == variant_key(a)

