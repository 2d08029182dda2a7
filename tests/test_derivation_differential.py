"""The compiled search path agrees with the uncompiled one, step for step.

``derivation_oracle`` holds ``successors`` and the bounded search as they
were before grammars were compiled: every (position, production) pair is
sliced and compared, and searches are cached by the whole grammar.  The
library must give the same ``successors`` list, in the same (position,
production index) order, the same search tree (the forms in the order of
the oracle's parent map, so also the same BFS order, each kept step's
(parent id, production index, position) triple read as the oracle's parent
tuple, with that rewrite of the parent giving the form), the same language
from ``enumerate_language``, the same verdict and trace from
``derives_bounded``, and the same exception type where the oracle raises.

The search keeps its forms as coded strings and records its rewrites with
a loop of its own, not through ``successors``, so each search here also
checks that record against ``successors``: the same rewrites in the same
order, each child the id of the kept form equal to the successor's result
(its place in the search's breadth-first order, which the id map of coded
forms must invert, each code decoding to that form), or ``None`` exactly
where that form is not kept; and its map of terminal strings against the
all-terminal forms it kept.

Grammars cover what coding a form could get wrong: more than 256 symbols,
so that codes leave the one-byte range (the drawn searches put, half the
time, an unreachable production of 301 symbols first, so that every drawn
symbol's code is past 300); overlapping occurrences of a left side; left
sides filed under one nonterminal that match at one position; names with
regex metacharacters and non-ASCII letters; symbols used in productions
but not declared; and the start erasure and erasing context-free grammars.

A search at a bound the cache misses grows the longest search kept at a
shorter bound that the start form fits.  Queried at bounds 0 to 8 in a
drawn order on one grammar object, each with a fuel drawn from values that
run out before, during and after the forms of the shorter search, every
record must equal a cold search's on a fresh parse, form for form, step for
step and rewrite for rewrite, with the same terminal strings in the same
order, or raise the same exception.  The cache follows the rule the
``lcsg.derivation`` module docstring states: after every query each kept
search is complete, and a query that raises or runs out of fuel leaves the
cache's keys and objects as they were.  Drawn repeat queries at those
bounds, at fuels the kept search answers and at fuels it does not, must
also give the cold record.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

import derivation_oracle as oracle
import lcsg.derivation
from conftest import load_grammar
from lcsg import (
    Grammar,
    Production,
    Symbol,
    SymbolString,
    apply_step,
    derives_bounded,
    enumerate_language,
    nonterminal,
    parse_grammar,
    successors,
    terminal,
)
from lcsg.derivation import DEFAULT_FUEL, _bounded_reachability, _compiled
from lcsg.symbols import shortlex

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
    forms = oracle.record_forms(g, reach)  # a form's id is its place here
    assert [_compiled(g).encode(form.symbols) for form in forms] == reach.coded
    assert len(set(reach.coded)) == len(reach.coded)  # each form once
    kept = set(forms)
    assert len(kept) == len(forms)
    assert len(reach.rewrites) <= len(forms)
    if reach.completed:
        assert len(reach.rewrites) == len(forms)
    # Every terminal string kept, expanded or not, by its symbols, in id order.
    assert list(reach.found.items()) == [
        (form.symbols, i) for i, form in enumerate(forms) if form.is_all_terminal()
    ]
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
    forms = oracle.record_forms(g, got)
    assert forms == list(want.parents)
    assert len(got.steps) == len(forms)
    for form, step in zip(forms, got.steps):
        if step is None:
            assert want.parents[form] is None
        else:
            parent, index, position = step
            assert type(parent) is int and 0 <= parent < len(forms)
            assert (forms[parent], index, position) == want.parents[form]
            assert apply_step(forms[parent], g.productions[index], position) == form
    assert_rewrites_match_successors(g, got)


# An unreachable production that gives 301 symbols their codes first.
PAD = ("F", " ".join(f"t{i}" for i in range(300)))


def assert_same_answers(g: Grammar, max_len: int, targets=(), fuel: int = SEARCH_FUEL) -> None:
    """``assert_same_search`` at ``max_len``; then the same language there,
    the same verdict and trace for its first members in shortlex order, each
    of them less its last symbol and each of ``targets`` (lists of terminal
    names),
    and the same successors of every form the oracle keeps."""
    assert_same_search(g, max_len, fuel)
    language = outcome(oracle.enumerate_language, g, max_len, fuel)
    assert outcome(enumerate_language, g, max_len, fuel) == language
    members = sorted(language, key=shortlex)[:12] if isinstance(language, set) else []
    strings = [SymbolString(tuple(map(terminal, t))) for t in targets]
    for w in [*members, *(m[:-1] for m in members), *strings]:
        got = outcome(derives_bounded, g, w, fuel)
        assert got == outcome(oracle.derives_bounded, g, w, fuel), str(w)
    reach = outcome(oracle._bounded_reachability, g, max_len, fuel)
    for form in [] if isinstance(reach, type) else reach.parents:
        assert_same_successors(form, g)


def grammar(productions, pad: bool = False) -> Grammar:
    lines = [
        "start: S",
        "terminals: a b" + (f" {PAD[1]}" if pad else ""),
        "nonterminals: S A B" + (f" {PAD[0]}" if pad else ""),
    ]
    if pad:
        lines.append(f"{PAD[0]} -> {PAD[1]}")
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
        assert_same_answers(g, max_len, targets=[["a", "b"], ["b", "b", "a"]])


@pytest.mark.parametrize(
    "productions",
    [
        [(["S"], ["S"]), (["S"], ["a", "A"]), (["A"], ["b"])],
        [(["S"], ["S"]), (["S"], ["A", "a"]), (["A"], [])],
    ],
    ids=["monotone", "erasing context-free"],
)
def test_a_start_above_the_bound_still_rewrites_into_itself(productions):
    # At bound 0 the start form lies above the bound but is kept, so its
    # self-loop is recorded with its id, not as leaving the bound.
    g = grammar(productions)
    for max_len in range(3):
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


# --- coded forms: wide codes, overlaps, shared filing, odd names, strays ---


def built(start: Symbol, productions, nonterminals=None, terminals=None) -> Grammar:
    """A grammar constructed directly from (lhs, rhs) symbol lists; it
    declares every symbol its productions use unless told what to declare."""
    used = {s for lhs, rhs in productions for s in (*lhs, *rhs)} | {start}
    return Grammar(
        frozenset(s for s in used if s.is_nonterminal) if nonterminals is None else nonterminals,
        frozenset(s for s in used if s.is_terminal) if terminals is None else terminals,
        start,
        tuple(
            Production(SymbolString(tuple(lhs)), SymbolString(tuple(rhs)))
            for lhs, rhs in productions
        ),
    )


def test_more_than_256_symbols_match_the_oracle():
    # S picks one of 150 pairs, each closed in its own context: 301 symbols.
    S = nonterminal("S")
    ns = [nonterminal(f"N{i}") for i in range(150)]
    ts = [terminal(f"t{i}") for i in range(150)]
    g = built(
        S,
        [([S], [n, t]) for n, t in zip(ns, ts)] + [([n, t], [t, t]) for n, t in zip(ns, ts)],
    )
    view = _compiled(g)
    assert len(view.codes) == 301 and view.codes[ts[-1]] == chr(300)
    form = SymbolString((ts[0], ns[-1], ts[-1], ns[-1], ts[-1]))
    assert [(s.production_index, s.position) for s in successors(form, g)] == [(299, 1), (299, 3)]
    assert_same_successors(form, g)
    assert_same_answers(g, 2, targets=[["t149", "t149"], ["t0", "t149"], ["t7"]])
    assert len(enumerate_language(g, 2)) == 150


def test_overlapping_occurrences_of_a_left_side_match_the_oracle():
    g = shaped([("S", "A A A"), ("A A", "A B"), ("A", "a"), ("B", "b")])
    steps = successors(g.string_of("A A A".split()), g)
    assert [(s.production_index, s.position) for s in steps] == [
        (1, 0), (2, 0), (1, 1), (2, 1), (2, 2),
    ]
    for max_len in range(5):
        assert_same_answers(g, max_len, targets=[["a", "b", "b"], ["a", "a", "b"]])


def test_left_sides_filed_under_one_nonterminal_match_at_one_position():
    # "A", "A B" and "a A" are all filed under A, and A's two productions
    # come before and after "A B": the hits are sorted, not listed by side.
    g = shaped([
        ("S", "a A B"), ("A", "a"), ("A B", "b b"), ("A", "b"), ("a A", "a b"), ("B", "b"),
    ])
    steps = successors(g.string_of("a A B".split()), g)
    assert [(s.production_index, s.position) for s in steps] == [
        (4, 0), (1, 1), (2, 1), (3, 1), (5, 2),
    ]
    alphabet = sorted(g.terminals | g.nonterminals, key=lambda s: s.name)
    for n in range(5):
        for combo in itertools.product(alphabet, repeat=n):
            assert_same_successors(SymbolString(combo), g)
    for max_len in range(5):
        assert_same_answers(g, max_len, targets=[["a", "b", "a"]])


def test_names_with_regex_metacharacters_and_non_ascii_letters_match_the_oracle():
    S, A, B = nonterminal(".*"), nonterminal("(A|"), nonterminal("Ω")
    a, b, c = terminal("\\d"), terminal("é$"), terminal("[^日]")
    g = built(S, [
        ([S], [a, A, B]), ([a, A], [a, b]), ([A], [c]), ([b, B], [b, c]), ([c, B], [c, A]),
    ])
    for n in range(4):
        for combo in itertools.product((S, A, B, a, b, c), repeat=n):
            assert_same_successors(SymbolString(combo), g)
    targets = [[x.name for x in combo] for combo in itertools.product((a, b, c), repeat=3)]
    for max_len in range(5):
        assert_same_answers(g, max_len, targets)
    assert derives_bounded(g, SymbolString((a, b, c))) is not None


def test_symbols_used_in_productions_but_not_declared_match_the_oracle():
    # Only S and a are declared; A, B and b appear in the productions alone,
    # and the undeclared stranger z only in queried forms.
    S, A, B = nonterminal("S"), nonterminal("A"), nonterminal("B")
    a, b, z = terminal("a"), terminal("b"), terminal("z")
    productions = [([S], [a, A]), ([a, A], [a, B, b]), ([B], [a]), ([A], [b])]
    g = built(S, productions, nonterminals=frozenset({S}), terminals=frozenset({a}))
    for n in range(4):
        for combo in itertools.product((S, A, B, a, b, z), repeat=n):
            assert_same_successors(SymbolString(combo), g)
    for max_len in range(5):
        assert_same_answers(g, max_len, targets=[["a", "a", "b"], ["a", "z"], ["z"]])
    assert enumerate_language(g, 3) == {SymbolString((a, b)), SymbolString((a, a, b))}


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


pad_st = st.booleans()
# Terminal strings to query, members or not, with a terminal outside the grammar.
targets_st = st.lists(st.lists(st.sampled_from(("a", "b", "z")), max_size=6), max_size=3)


@small
@given(
    productions=with_duplicates(st.lists(production_st, min_size=1, max_size=6)),
    forms=st.lists(st.lists(symbol_st, max_size=5), min_size=1, max_size=4),
    pad=pad_st,
)
def test_successors_match_the_oracle(productions, forms, pad):
    g = grammar(productions, pad)
    for names in forms:
        assert_same_successors(g.string_of(names), g)


@small
@given(
    productions=searchable(monotone_st, erasing=False),
    max_len=max_len_st,
    pad=pad_st,
    targets=targets_st,
)
def test_monotone_searches_match_the_oracle(productions, max_len, pad, targets):
    assert_same_answers(grammar(productions, pad), max_len, targets)


@small
@given(
    productions=searchable(context_free_st, erasing=True),
    max_len=max_len_st,
    pad=pad_st,
    targets=targets_st,
)
def test_erasing_context_free_searches_match_the_oracle(productions, max_len, pad, targets):
    assert_same_answers(grammar(productions, pad), max_len, targets)


@small
@given(
    productions=searchable(s_free_monotone_st, erasing=False, start_on_rhs=False),
    max_len=max_len_st,
    pad=pad_st,
    targets=targets_st,
)
def test_start_erasure_beside_monotone_rules_matches_the_oracle(
    productions, max_len, pad, targets
):
    assert_same_answers(grammar([(["S"], [])] + productions, pad), max_len, targets)


@small
@given(
    productions=searchable(production_st, erasing=True),
    max_len=max_len_st,
    pad=pad_st,
    targets=targets_st,
)
def test_any_searches_match_the_oracle(productions, max_len, pad, targets):
    # Mostly refused shapes: both sides must raise the same error.
    assert_same_answers(grammar(productions, pad), max_len, targets)


# --- a search grown from a shorter one against a cold one ---

# Fuels that run out before, during and after a grown search's base part.
grow_fuel_st = st.sampled_from((1, 5, 40, 150, 400))
# Repeat queries also take a fuel above all of those.  It stands in for
# DEFAULT_FUEL, at which an erasing grammar whose forms grow without end
# (``S -> S S`` with ``S -> _``) would expand a million ever longer forms.
repeat_st = st.lists(
    st.tuples(st.integers(0, 8), st.one_of(grow_fuel_st, st.just(600))), max_size=6
)
growing_st = st.one_of(
    searchable(monotone_st, erasing=False),
    searchable(context_free_st, erasing=True),
    searchable(s_free_monotone_st, erasing=False, start_on_rhs=False).map(
        lambda ps: [(["S"], [])] + ps
    ),
    searchable(production_st, erasing=True),  # mostly refused shapes
)


def record(reach) -> tuple:
    """Everything a search records but its sweep and trace store."""
    return (
        reach.coded,
        reach.steps,
        reach.rewrites,
        list(reach.found.items()),
        reach.words,
        reach.completed,
    )


def cold_record(g: Grammar, max_len: int, fuel: int) -> tuple:
    return record(lcsg.derivation._search(g, _compiled(g), max_len, fuel))


def grows(g: Grammar, max_len: int) -> bool:
    """Whether a search at ``max_len`` would grow from one kept on ``g``."""
    view = _compiled(g)
    return any(view.start_yield <= m < max_len for m in view.searches)


@small
@given(
    productions=growing_st,
    pad=pad_st,
    bounds=st.permutations(range(9)),
    fuels=st.lists(grow_fuel_st, min_size=9, max_size=9),
    repeats=repeat_st,
)
def test_grown_searches_equal_cold_ones(productions, pad, bounds, fuels, repeats):
    g = grammar(productions, pad)  # one object for every query below
    searched_at: dict[int, int] = {}  # the fuel of each bound's kept search
    grown = answered = probes = 0

    def query(max_len: int, fuel: int):
        """Query ``g``, compare with a cold search, and check what the cache kept."""
        searches = _compiled(g).searches
        before = dict(searches)
        reach = outcome(_bounded_reachability, g, max_len, fuel)
        got = reach if isinstance(reach, type) else record(reach)
        assert got == outcome(cold_record, grammar(productions, pad), max_len, fuel), max_len
        assert all(kept.completed for kept in searches.values())
        if isinstance(reach, type) or not reach.completed:
            # Nothing kept: the same keys, in the same order, and objects.
            assert list(searches.items()) == list(before.items())
        elif reach is not before.get(max_len):
            searched_at[max_len] = fuel
        return reach, before.get(max_len)

    for max_len, fuel in zip(bounds, fuels):
        grown += grows(g, max_len)
        query(max_len, fuel)
    event(f"grown searches: {grown}")
    # Then bounds asked again: the search kept at a bound answers the fuels
    # that cover its expansions, a smaller fuel searches again and is not
    # kept, and each answer is the cold one.
    for max_len, fuel in repeats:
        reach, kept = query(max_len, fuel)
        if kept is not None and reach is kept:
            answered += fuel != searched_at[max_len]
        elif kept is not None and not isinstance(reach, type) and not reach.completed:
            probes += 1
    event(f"repeat queries a kept search answered at another fuel: {answered}")
    event(f"repeat queries out of fuel at a bound with a kept search: {probes}")


def spy_on_bases(monkeypatch) -> list:
    """Patch ``_search``; return the list of the bases it is given."""
    bases: list = []
    search = lcsg.derivation._search

    def spied(g, view, max_len, fuel, base=None):
        bases.append(base)
        return search(g, view, max_len, fuel, base)

    monkeypatch.setattr(lcsg.derivation, "_search", spied)
    return bases


@pytest.mark.parametrize(
    "name, shorter, longer, fuels",
    [
        # abc at 18 expands 983 forms, at 21 3170; crossserial 14 and 16 as
        # the membership benchmark asks them.
        ("abc.grammar", 18, 21, [500, 2000, DEFAULT_FUEL]),
        ("crossserial.grammar", 14, 16, [100, 1000, DEFAULT_FUEL]),
    ],
)
def test_a_longer_bound_grows_the_longest_completed_shorter_search(
    name, shorter, longer, fuels, monkeypatch
):
    bases = spy_on_bases(monkeypatch)
    for fuel in fuels:
        g = load_grammar(name)
        below = _bounded_reachability(g, shorter - 4, DEFAULT_FUEL)
        _bounded_reachability(g, shorter, 60)  # runs out of fuel: never kept
        base = _bounded_reachability(g, shorter, 5000)  # completes, at another fuel
        _bounded_reachability(g, shorter - 2, DEFAULT_FUEL)  # shorter, and kept later
        reach = _bounded_reachability(g, longer, fuel)
        expected = [None, below, below, below, base]
        assert [a is b for a, b in zip(bases[-5:], expected)] == [True] * 5
        assert record(reach) == cold_record(load_grammar(name), longer, fuel), fuel
        # Using a base is no cache hit: the base keeps its place.  A longer
        # search out of fuel is not kept.
        kept = [shorter, shorter - 2] + [longer] * reach.completed
        assert list(_compiled(g).searches)[1:] == kept


@pytest.mark.parametrize(
    "productions",
    [
        [(["S"], ["a", "A"]), (["a", "A"], ["a", "b", "A"]), (["A"], ["b"])],
        [(["S"], ["A", "a"]), (["A"], []), (["A"], ["b", "A"])],
    ],
    ids=["monotone", "erasing context-free"],
)
def test_a_shorter_bound_below_the_start_form_searches_cold(productions, monkeypatch):
    # The start form's minimal yield is 1, so a search at 0 keeps the start
    # above its bound: a longer search does not grow from it.
    bases = spy_on_bases(monkeypatch)
    g = grammar(productions)
    _bounded_reachability(g, 0, DEFAULT_FUEL)
    assert _compiled(g).start_yield == 1
    four = _bounded_reachability(g, 4, DEFAULT_FUEL)
    assert bases == [None, None]
    assert record(four) == cold_record(grammar(productions), 4, DEFAULT_FUEL)
    # A longer bound still grows from the search at 4.
    got = record(_bounded_reachability(g, 6, DEFAULT_FUEL))
    assert bases[-1] is four
    assert got == cold_record(grammar(productions), 6, DEFAULT_FUEL)
