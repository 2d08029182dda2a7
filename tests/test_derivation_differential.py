"""The compiled search path agrees with the uncompiled one, step for step.

``derivation_oracle`` holds ``successors`` and the bounded search as they
were before grammars were compiled: every (position, production) pair is
sliced and compared, and searches are cached by the whole grammar.  The
library must give the same ``successors`` list, in the same (position,
production index) order, the same search tree (the forms in the order of
the oracle's parent map, so also the same BFS order, each kept step read
as the oracle's parent tuple), and the same exception type where the
oracle raises.

The search records its rewrites with a loop of its own, not through
``successors``, so each search here also checks that record against
``successors``: the same rewrites in the same order, each child the id of
the kept form equal to the successor's result (its place in the search's
breadth-first order, which the id map must invert), or ``None`` exactly
where that form is not kept.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import derivation_oracle as oracle
from conftest import load_grammar
from lcsg import (
    Grammar,
    Production,
    SymbolString,
    derives_bounded,
    enumerate_language,
    nonterminal,
    parse_grammar,
    successors,
    terminal,
)
from lcsg.derivation import DEFAULT_FUEL, _bounded_reachability

SEARCH_FUEL = 150  # small, so that erasing grammars whose forms grow stop quickly


def outcome(f, *args):
    try:
        return f(*args)
    except Exception as exc:  # the exception type is the outcome compared
        return type(exc)


def step_list(steps):
    return [(s.before, s.production_index, s.position, s.after) for s in steps]


def assert_same_successors(form: SymbolString, g: Grammar) -> None:
    assert step_list(successors(form, g)) == step_list(oracle.successors(form, g))


def assert_rewrites_match_successors(g: Grammar, reach) -> None:
    forms = reach.forms  # a form's id is its place here
    assert reach.ids == {form.symbols: i for i, form in enumerate(forms)}
    kept = set(forms)
    assert len(reach.rewrites) <= len(forms)
    if reach.completed:
        assert len(reach.rewrites) == len(forms)
    for form, rewrites in zip(forms, reach.rewrites):
        steps = successors(form, g)
        assert [index for index, _ in rewrites] == [s.production_index for s in steps]
        for (_, child), step in zip(rewrites, steps):
            if step.after in kept:
                assert type(child) is int and 0 <= child < len(forms)
                assert forms[child] == step.after
            else:
                assert child is None


def assert_same_search(g: Grammar, max_len: int, fuel: int = SEARCH_FUEL) -> None:
    want = outcome(oracle._bounded_reachability, g, max_len, fuel)
    got = outcome(_bounded_reachability, g, max_len, fuel)
    if isinstance(want, type):
        assert got is want
        return
    assert not isinstance(got, type), got
    assert got.completed == want.completed
    assert got.forms == list(want.parents)
    assert len(got.steps) == len(got.forms)
    for form, step in zip(got.forms, got.steps):
        if step is None:
            assert want.parents[form] is None
        else:
            assert (step.before, step.production_index, step.position) == want.parents[form]
            assert step.after == form
    assert_rewrites_match_successors(g, got)


def grammar(productions) -> Grammar:
    lines = ["start: S", "terminals: a b", "nonterminals: S A B"]
    for lhs, rhs in productions:
        lines.append(f"{' '.join(lhs)} -> {' '.join(rhs) or '_'}")
    return parse_grammar("\n".join(lines) + "\n")


# --- the named shapes ---

SHAPES = {
    "terminal-headed lhs": [("S", "a B"), ("a B", "a b"), ("B", "b")],
    "lhs longer than the form": [("S", "a"), ("S A B", "a b b"), ("A B", "b b")],
    "duplicate productions": [("S", "a A"), ("S", "a A"), ("a A", "a b"), ("a A", "a b")],
    "erasing context-free rules": [("S", "A S B"), ("S", "a"), ("A", ""), ("B", "b"), ("B", "")],
    "permitted start erasure": [("S", ""), ("S", "a A"), ("a A", "a b A"), ("a A", "a b")],
}


@pytest.mark.parametrize("name", SHAPES)
def test_named_shapes_match_the_oracle(name):
    g = grammar([(lhs.split(), rhs.split()) for lhs, rhs in SHAPES[name]])
    alphabet = sorted(g.terminals | g.nonterminals, key=lambda s: s.name)
    for n in range(4):
        for combo in itertools.product(alphabet, repeat=n):
            assert_same_successors(SymbolString(combo), g)
    for max_len in range(6):
        assert_same_search(g, max_len)


def test_a_form_shorter_than_every_lhs_has_no_successors():
    g = grammar([(["S", "A", "B"], ["a", "b", "b"]), (["A", "B"], ["b", "b"])])
    form = g.string_of(["S", "A"])
    assert successors(form, g) == [] == oracle.successors(form, g)


def test_a_terminal_and_a_nonterminal_of_one_name_stay_apart():
    # The index is keyed by the interned head symbol and the rest of the lhs
    # is compared by identity, so the kinds stay apart under one name.
    x_t, x_n, S = terminal("x"), nonterminal("x"), nonterminal("S")
    g = Grammar(
        frozenset({S, x_n}),
        frozenset({x_t}),
        S,
        (
            Production(SymbolString((S,)), SymbolString((x_t, x_n))),
            Production(SymbolString((x_n,)), SymbolString((x_t,))),
            Production(SymbolString((x_t, x_n)), SymbolString((x_t, x_t))),
        ),
    )
    for combo in itertools.product((x_t, x_n, S), repeat=3):
        assert_same_successors(SymbolString(combo), g)
    assert [s.production_index for s in successors(SymbolString((x_t, x_n)), g)] == [2, 1]


# --- the head-symbol index: strangers, kinds at the end, long left sides ---


def shaped(productions: list[tuple[str, str]]) -> Grammar:
    return grammar([(lhs.split(), rhs.split()) for lhs, rhs in productions])


def test_forms_with_undeclared_symbols_match_the_oracle():
    # Symbols the grammar never declares, two of them a declared name of the
    # other kind, sit at heads, second positions and inside long windows.
    g = shaped([("S", "a B"), ("a B", "a b"), ("S A B", "a b b"), ("B", "b")])
    declared = sorted(g.terminals | g.nonterminals, key=lambda s: s.name)
    strangers = [terminal("z"), nonterminal("Z"), nonterminal("a"), terminal("B")]
    for n in range(4):
        for combo in itertools.product(declared + strangers, repeat=n):
            assert_same_successors(SymbolString(combo), g)
    form = SymbolString((nonterminal("S"), nonterminal("A"), terminal("B")))
    assert [s.production_index for s in successors(form, g)] == [0]


def test_a_same_name_pair_ending_the_form_matches_the_oracle():
    # The second lhs symbol, one name in either kind, is the form's last.
    x_t, x_n, S = terminal("x"), nonterminal("x"), nonterminal("S")
    g = Grammar(
        frozenset({S, x_n}),
        frozenset({x_t}),
        S,
        (
            Production(SymbolString((S,)), SymbolString((x_t, x_n))),
            Production(SymbolString((x_t, x_n)), SymbolString((x_t, x_t))),
            Production(SymbolString((x_n, x_t)), SymbolString((x_t, x_t))),
        ),
    )
    for n in range(3):
        for prefix in itertools.product((x_t, x_n, S), repeat=n):
            for end in [(x_t,), (x_n,), *itertools.product((x_t, x_n), repeat=2)]:
                assert_same_successors(SymbolString(prefix + end), g)
    expected = {(x_t, x_n): [0, 1], (x_n, x_t): [0, 2], (x_t, x_t): [0], (x_n, x_n): [0]}
    for end, indices in expected.items():
        steps = successors(SymbolString((S, *end)), g)
        assert [s.production_index for s in steps] == indices


def test_a_four_symbol_left_side_matches_the_oracle():
    # Three left sides share their first two symbols and differ in lhs[2:].
    g = shaped([
        ("S", "a A B b"),
        ("a A B b", "a b b b"),
        ("a A B a", "a a a a"),
        ("a A A b", "b b b b"),
        ("A", "a"),
        ("B", "b"),
    ])
    alphabet = sorted(g.terminals | g.nonterminals, key=lambda s: s.name)
    for n in range(6):
        for combo in itertools.product(alphabet, repeat=n):
            assert_same_successors(SymbolString(combo), g)
    for max_len in range(7):
        assert_same_search(g, max_len)
    steps = successors(g.string_of("a A B b".split()), g)
    assert [(s.production_index, s.position) for s in steps] == [(1, 0), (4, 1), (5, 2)]


# --- the fixtures: enumeration and derivation traces too ---


@pytest.mark.parametrize(
    "name, max_len",
    [("abc.grammar", 6), ("crossserial.grammar", 6), ("chain.grammar", 4), ("loop.grammar", 5)],
)
def test_fixture_languages_and_traces_match_the_oracle(name, max_len):
    g = load_grammar(name)
    assert enumerate_language(g, max_len) == oracle.enumerate_language(g, max_len)
    alphabet = sorted(g.terminals, key=lambda s: s.name)
    for n in range(max_len + 1):
        for combo in itertools.product(alphabet, repeat=n):
            w = SymbolString(combo)
            assert derives_bounded(g, w) == oracle.derives_bounded(g, w), str(w)
    for form in oracle._bounded_reachability(g, max_len, SEARCH_FUEL).parents:
        assert_same_successors(form, g)


@pytest.mark.parametrize(
    "name, max_len",
    [("abc.grammar", 9), ("crossserial.grammar", 8), ("chain.grammar", 4), ("loop.grammar", 6)],
)
@pytest.mark.parametrize("fuel", [7, DEFAULT_FUEL])
def test_fixture_searches_record_what_successors_gives(name, max_len, fuel):
    g = load_grammar(name)
    assert_rewrites_match_successors(g, _bounded_reachability(g, max_len, fuel))


def test_the_unhandled_contraction_fixture_is_refused_by_both():
    g = load_grammar("classify12.grammar")
    assert_same_search(g, 3)
    start = SymbolString((g.start,))
    assert_same_successors(start, g)
    for step in successors(start, g):
        assert_same_successors(step.after, g)


# --- hypothesis-generated grammars and forms ---

SYMBOLS = ("a", "b", "S", "A", "B")
symbol_st = st.sampled_from(SYMBOLS)
terminal_st = st.sampled_from(("a", "b"))
# Any lhs with a nonterminal, so terminal heads and lhs longer than the
# form are common, and any rhs up to three symbols, erasing included.
lhs_st = st.lists(symbol_st, min_size=1, max_size=3).filter(
    lambda lhs: any(s.isupper() for s in lhs)
)
production_st = st.tuples(lhs_st, st.lists(symbol_st, max_size=3))
monotone_st = production_st.filter(lambda p: len(p[1]) >= len(p[0]))
# The same support with no S on the right, drawn rather than filtered out.
s_free_symbol_st = st.sampled_from(tuple(s for s in SYMBOLS if s != "S"))
s_free_monotone_st = lhs_st.flatmap(
    lambda lhs: st.tuples(st.just(lhs), st.lists(s_free_symbol_st, min_size=len(lhs), max_size=3))
)
context_free_st = st.tuples(
    st.sampled_from(("S", "A", "B")).map(lambda nt: [nt]), st.lists(symbol_st, max_size=3)
)


def with_duplicates(productions_st):
    """Repeat some drawn productions, so duplicates are common."""
    return productions_st.flatmap(
        lambda ps: st.lists(st.sampled_from(ps), max_size=2).map(lambda extra: ps + extra)
    )


def searchable(rest_st, erasing: bool, start_on_rhs: bool = True):
    """``S`` and every nonterminal rewrite, so searches get past the start
    form and most forms can close; ``rest_st`` adds the shape under test."""
    rhs_st = st.lists(symbol_st if start_on_rhs else s_free_symbol_st, min_size=1, max_size=3)
    closing = st.lists(terminal_st, min_size=0 if erasing else 1, max_size=2)
    return st.tuples(
        st.lists(st.tuples(st.just(["S"]), rhs_st), min_size=1, max_size=2),
        st.tuples(st.just(["A"]), closing),
        st.tuples(st.just(["B"]), closing),
        with_duplicates(st.lists(rest_st, min_size=1, max_size=4)),
    ).map(lambda t: t[0] + [t[1], t[2]] + t[3])


small = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
max_len_st = st.integers(min_value=2, max_value=6)


@small
@given(
    productions=with_duplicates(st.lists(production_st, min_size=1, max_size=6)),
    forms=st.lists(st.lists(symbol_st, max_size=5), min_size=1, max_size=4),
)
def test_successors_match_the_oracle(productions, forms):
    g = grammar(productions)
    for names in forms:
        assert_same_successors(g.string_of(names), g)


@small
@given(productions=searchable(monotone_st, erasing=False), max_len=max_len_st)
def test_monotone_searches_match_the_oracle(productions, max_len):
    assert_same_search(grammar(productions), max_len)


@small
@given(productions=searchable(context_free_st, erasing=True), max_len=max_len_st)
def test_erasing_context_free_searches_match_the_oracle(productions, max_len):
    assert_same_search(grammar(productions), max_len)


@small
@given(
    productions=searchable(s_free_monotone_st, erasing=False, start_on_rhs=False),
    max_len=max_len_st,
)
def test_start_erasure_beside_monotone_rules_matches_the_oracle(productions, max_len):
    assert_same_search(grammar([(["S"], [])] + productions), max_len)


@small
@given(productions=searchable(production_st, erasing=True), max_len=max_len_st)
def test_any_searches_match_the_oracle(productions, max_len):
    # Mostly refused shapes: both sides must raise the same error.
    assert_same_search(grammar(productions), max_len)
