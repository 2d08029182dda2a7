"""The compiled view a grammar holds and its coded table, the strings a
search and the sampler wrap, the steps a search and its queries build, the
yields a search computes, the forms a search never hashes or tests for
terminals, its one search cache with the sweep and the trace store each
search keeps, and pickling.

A grammar compiles itself on first use and keeps the result, with at most
``_SEARCH_CACHE_SIZE`` searches, each with the last exact-probability sweep
over it and the traces queried of it, until the grammar itself is freed.
The cache never travels in a pickle: str hashes differ between processes,
and a search record can hold ``DEFAULT_FUEL`` forms and more.
"""

from __future__ import annotations

import gc
import itertools
import os
import pickle
import subprocess
import sys
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lcsg.predictors
import lcsg.stochastic
from conftest import load_grammar, random_left_cs_grammar
from derivation_oracle import record_forms
from lcsg import (
    FuelExhaustedError,
    SymbolString,
    WeightedGrammar,
    derives_bounded,
    enumerate_language,
    exact_distribution,
    grammar_predictor,
    induce_grammar,
    ngram_train,
    nonterminal,
    parse_grammar,
    sample_derivation,
    string_probability,
    successors,
    terminal,
)
from lcsg.derivation import (
    DEFAULT_FUEL,
    DerivationStep,
    DerivationTrace,
    _SEARCH_CACHE_SIZE,
    _bounded_reachability,
    _compiled,
    _CompiledGrammar,
)


def test_the_view_is_built_on_first_use_not_at_parse():
    g = load_grammar("abc.grammar")
    assert "_compiled" not in g.__dict__
    successors(SymbolString((g.start,)), g)
    view = _compiled(g)
    assert view is _compiled(g)
    assert view.start_yield is None  # successors needs no search profile
    assert view.searches == {}


def test_the_table_files_each_left_side_under_its_first_nonterminal(abc):
    view = _compiled(abc)
    # Codes by first appearance in the productions, the next one for strangers.
    assert [s.name for s in view.symbols] == ["S", "a", "B", "C", "b", "c"]
    assert view.codes == {s: chr(i) for i, s in enumerate(view.symbols)}
    assert view.stranger == chr(6)

    def named(code):
        return " ".join(s.name for s in view.decode(code))

    filed = {
        named(head): [(named(lhs), [index for index, _ in entries]) for lhs, _, entries in sides]
        for head, sides in view.table.items()
    }
    assert filed == {
        "S": [("S", [0, 1])],
        "C": [("C B", [2]), ("b C", [5]), ("c C", [6])],
        "B": [("a B", [3]), ("b B", [4])],
    }
    assert view.filed == frozenset(view.table)
    for sides in view.table.values():
        for lhs, width, entries in sides:
            assert width == len(lhs)
            for index, rhs in entries:
                p = abc.productions[index]
                assert (view.decode(lhs), view.decode(rhs)) == (p.lhs.symbols, p.rhs.symbols)


def test_the_cache_keeps_at_most_its_bound():
    g = load_grammar("crossserial.grammar")
    for max_len in range(_SEARCH_CACHE_SIZE + 5):
        enumerate_language(g, max_len)
    searches = _compiled(g).searches
    assert len(searches) == _SEARCH_CACHE_SIZE
    assert sorted(searches) == [(n, DEFAULT_FUEL) for n in range(5, _SEARCH_CACHE_SIZE + 5)]


THREE_WORDS = "start: S\nterminals: a b c\nnonterminals: S\nS -> a\nS -> b\nS -> c\n"
A_PLUS = "start: S\nterminals: a\nnonterminals: S\nS -> a S\nS -> a\n"


def count_wraps(monkeypatch) -> list[tuple]:
    """Patch ``SymbolString._of``; return the list of the tuples it wraps."""
    wrapped: list[tuple] = []
    of = SymbolString._of

    def counted(cls, symbols):
        wrapped.append(symbols)
        return of(symbols)

    monkeypatch.setattr(SymbolString, "_of", classmethod(counted))
    return wrapped


def test_a_cold_search_wraps_only_its_terminal_strings(monkeypatch):
    g = load_grammar("crossserial.grammar")
    wrapped = count_wraps(monkeypatch)
    reach = _bounded_reachability(g, 10, DEFAULT_FUEL)
    # Forms stay coded; only the terminal strings are decoded, each once.
    assert len(reach.coded) > 100 > len(reach.found) > 0
    assert wrapped == list(reach.found)
    assert [w.symbols for w in reach.words] == wrapped
    # Enumeration wraps none again.
    assert len(enumerate_language(g, 10)) == len(wrapped)


def induced_bigram_grammar():
    """An induced k-gram grammar: right-linear, with a nullable state."""
    predictor = ngram_train([list("abcacbaabbcca")], 1)
    return induce_grammar(predictor, vocab=("a", "b", "c"), max_context_len=4).grammar


def count_steps(monkeypatch) -> list[DerivationStep]:
    """Patch ``DerivationStep.__init__``; return the list of the steps it builds."""
    built: list[DerivationStep] = []
    init = DerivationStep.__init__

    def counted(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(DerivationStep, "__init__", counted)
    return built


def live_steps() -> int:
    """How many ``DerivationStep``s are alive, after a full collection."""
    gc.collect()
    return sum(type(o) is DerivationStep for o in gc.get_objects())


def test_a_cold_search_builds_no_step(monkeypatch):
    g = load_grammar("crossserial.grammar")
    built = count_steps(monkeypatch)
    reach = _bounded_reachability(g, 10, DEFAULT_FUEL)
    assert built == []
    # Each kept form but the start records its first step as ids.
    assert reach.steps[0] is None
    assert all(type(step) is tuple and len(step) == 3 for step in reach.steps[1:])
    assert len(reach.steps) == len(reach.coded) > 100


def count_chains(monkeypatch, module) -> list[tuple[DerivationStep, ...]]:
    """Patch ``_chain`` as ``module`` sees it; return the list of the chains it builds."""
    chains: list[tuple[DerivationStep, ...]] = []
    chain = module._chain

    def counted(*args):
        chains.append(chain(*args))
        return chains[-1]

    monkeypatch.setattr(module, "_chain", counted)
    return chains


def test_a_trace_is_built_once_per_target(monkeypatch):
    g = load_grammar("abc.grammar")
    member = g.string_of(["a"] * 5 + ["b"] * 5 + ["c"] * 5)
    reach = _bounded_reachability(g, 15, DEFAULT_FUEL)
    # A chain's steps are built without ``__init__``; count calls to
    # ``_chain`` and the steps alive instead.
    built = count_steps(monkeypatch)
    chains = count_chains(monkeypatch, lcsg.derivation)
    before = live_steps()
    first = derives_bounded(g, member)
    assert live_steps() - before == len(first.steps) > 20  # the target's chain, once
    assert [len(c) for c in chains] == [len(first.steps)]
    again = derives_bounded(g, member)
    assert live_steps() - before == len(first.steps)
    assert len(chains) == 1 and built == []
    assert again == first and again is not first
    assert again.steps is first.steps
    assert reach.traces == {reach.found[member.symbols]: first.steps}


@pytest.mark.parametrize(
    "make, bound",
    [
        (lambda: load_grammar("abc.grammar"), 12),
        (lambda: load_grammar("crossserial.grammar"), 10),
        (lambda: load_grammar("chain.grammar"), 6),
        (lambda: load_grammar("loop.grammar"), 8),
        (induced_bigram_grammar, 5),
    ],
    ids=["abc", "crossserial", "chain", "loop", "nullable"],
)
def test_each_trace_a_search_builds_equals_its_validated_rebuild(make, bound):
    # classify12, the fifth fixture, is refused by the search before any trace.
    assert assert_traces_equal_their_validated_rebuild(make(), bound) > 0


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000), bound=st.integers(min_value=0, max_value=6))
def test_traces_on_drawn_grammars_equal_their_validated_rebuild(seed, bound):
    assert_traces_equal_their_validated_rebuild(random_left_cs_grammar(seed).grammar, bound)


def assert_traces_equal_their_validated_rebuild(g, bound: int) -> int:
    """Check the trace of every string up to ``bound``; return how many."""
    strings = enumerate_language(g, bound)
    for w in strings:
        trace = derives_bounded(g, w)
        assert trace == DerivationTrace(g, trace.steps)
        assert trace.final == w
    return len(strings)


def test_the_trace_store_keeps_one_entry_per_terminal_string_it_found():
    g = load_grammar("crossserial.grammar")
    reach = _bounded_reachability(g, 6, DEFAULT_FUEL)
    terminals = {i for i, form in enumerate(record_forms(g, reach)) if form.is_all_terminal()}
    alphabet = sorted(g.terminals, key=lambda s: s.name)
    found = []
    for _ in range(2):  # every string of length 6, twice
        for combo in itertools.product(alphabet, repeat=6):
            if derives_bounded(g, SymbolString(combo)) is not None:
                found.append(reach.found[combo])
    assert len(found) == 2 * len(reach.traces) > 2
    assert set(reach.traces) == set(found) <= terminals


def test_the_trace_store_is_dropped_with_its_search():
    g = load_grammar("abc.grammar")
    member = g.string_of("a a b b c c".split())
    trace = derives_bounded(g, member)
    step = weakref.ref(trace.steps[0])
    del trace
    assert step() is not None  # the store keeps it
    for other in range(_SEARCH_CACHE_SIZE + 1):  # evicts the search at (6, DEFAULT_FUEL)
        enumerate_language(g, 2, fuel=1000 + other)
    assert (6, DEFAULT_FUEL) not in _compiled(g).searches
    assert step() is None


@pytest.mark.parametrize(
    "make, bound",
    [(lambda: load_grammar("abc.grammar"), 12), (induced_bigram_grammar, 4)],
    ids=["monotone", "nullable"],
)
def test_a_search_computes_yields_per_production_not_per_rewrite(make, bound, monkeypatch):
    g = make()
    calls: list[_CompiledGrammar] = []
    profile = lcsg.derivation._profile

    def counted(view, grammar):
        calls.append(view)
        return profile(view, grammar)

    monkeypatch.setattr(lcsg.derivation, "_profile", counted)
    per_grammar = 2 * len(g.productions) + 1  # each side of each production, and the start
    reach = _bounded_reachability(g, bound, DEFAULT_FUEL)
    # One profile, one yield change per production; the start's yield is read
    # off the nullable set.
    assert calls == [_compiled(g)]
    assert len(_compiled(g).yield_changes) == len(g.productions)
    assert sum(len(rewrites) for rewrites in reach.rewrites) > 3 * per_grammar
    calls.clear()
    _bounded_reachability(g, bound - 1, DEFAULT_FUEL)  # reuses the changes
    assert calls == []


def test_a_search_and_the_queries_it_serves_hash_no_form(monkeypatch):
    g = load_grammar("abc.grammar")
    member = g.string_of(["a"] * 5 + ["b"] * 5 + ["c"] * 5)
    other = g.string_of(["a"] * 5 + ["b"] * 4 + ["c"] * 6)
    hashed: list[SymbolString] = []
    hash_ = SymbolString.__hash__

    def counted(self):
        hashed.append(self)
        return hash_(self)

    monkeypatch.setattr(SymbolString, "__hash__", counted)
    # Forms are keyed by their codes, terminal strings by their symbol tuples:
    # the search keys nothing by form, and decodes no form it keeps.
    reach = _bounded_reachability(g, 15, DEFAULT_FUEL)
    assert len(derives_bounded(g, member).steps) > 20
    assert derives_bounded(g, other) is None
    assert hashed == []
    assert "forms" not in reach.__dict__


def test_the_sampler_wraps_only_the_steps_it_draws(monkeypatch):
    wg = WeightedGrammar.from_grammar(parse_grammar(A_PLUS))  # two rewrites per form
    wrapped = count_wraps(monkeypatch)
    chains = count_chains(monkeypatch, lcsg.stochastic)
    for seed in range(10):
        sampled = sample_derivation(wg, seed, max_steps=40)
        # The walk stays coded: its final form is wrapped once, and one
        # chain builds the steps it drew, and no rewrite it did not draw.
        assert wrapped == [sampled.trace.final.symbols]
        assert len(chains) == 1 and chains[0] is sampled.trace.steps
        assert len(sampled.trace.steps) > 0
        wrapped.clear()
        chains.clear()


def test_enumeration_and_a_sweep_over_a_kept_search_test_no_form_for_terminals(monkeypatch):
    wg = WeightedGrammar.from_grammar(load_grammar("abc.grammar"))
    reach = _bounded_reachability(wg.grammar, 9, DEFAULT_FUEL)
    tested: list[SymbolString] = []
    is_all_terminal = SymbolString.is_all_terminal

    def counted(self):
        tested.append(self)
        return is_all_terminal(self)

    monkeypatch.setattr(SymbolString, "is_all_terminal", counted)
    # Both read the terminal strings the search decoded.
    assert enumerate_language(wg.grammar, 9) == {SymbolString(w) for w in reach.found}
    assert len(exact_distribution(wg, 9).probabilities) == len(reach.found) > 0
    assert tested == []
    assert "forms" not in reach.__dict__


def count_sweeps(monkeypatch) -> list[tuple[float, ...]]:
    """Patch ``stochastic._sweep``; return the list of the weights each sweep reads."""
    sweeps: list[tuple[float, ...]] = []
    sweep = lcsg.stochastic._sweep

    def counted(wg, reach):
        sweeps.append(wg.weights)
        return sweep(wg, reach)

    monkeypatch.setattr(lcsg.stochastic, "_sweep", counted)
    return sweeps


def test_the_sweeps_keep_at_most_their_bound_least_recently_used_first():
    wg = WeightedGrammar.from_grammar(parse_grammar(A_PLUS))
    size = _SEARCH_CACHE_SIZE
    for n in range(1, size + 1):
        string_probability(wg, wg.grammar.string_of(["a"] * n))
    string_probability(wg, wg.grammar.string_of(["a"]))  # a hit: length 1 is most recent
    evicted = weakref.ref(_compiled(wg.grammar).searches[(2, DEFAULT_FUEL)])
    for n in range(size + 1, size + 4):
        string_probability(wg, wg.grammar.string_of(["a"] * n))
    kept = [*range(5, size + 1), 1, *range(size + 1, size + 4)]
    searches = _compiled(wg.grammar).searches
    assert list(searches) == [(n, DEFAULT_FUEL) for n in kept]
    assert len(kept) == size
    # Each kept search holds its own sweep; an evicted one took its sweep with it.
    assert all(reach.sweep[0] == wg.weights for reach in searches.values())
    gc.collect()
    assert evicted() is None


def test_two_weightings_of_one_grammar_never_share_a_sweep(monkeypatch):
    g = parse_grammar(THREE_WORDS)
    even = WeightedGrammar.from_grammar(g)
    skewed = WeightedGrammar(g, (2.0, 1.0, 1.0))
    a = g.string_of(["a"])
    sweeps = count_sweeps(monkeypatch)
    assert string_probability(even, a) == 1 / 3
    assert string_probability(skewed, a) == 0.5
    assert string_probability(even, a) == 1 / 3
    assert sweeps == [even.weights, skewed.weights, even.weights]  # each change sweeps again
    assert string_probability(WeightedGrammar(g, even.weights), a) == 1 / 3
    assert len(sweeps) == 3  # equal weights reuse the sweep
    (reach,) = _compiled(g).searches.values()  # the search is shared
    assert reach.sweep[0] == even.weights


ONE_WORD = "start: S\nterminals: a\nnonterminals: S\nS -> a\n"
SELF_LOOP = "start: S\nterminals: a\nnonterminals: S B\nS -> B\nB -> B\nB -> a\n"


@pytest.mark.parametrize(
    "text, fuel, error",
    [
        (ONE_WORD, 0, FuelExhaustedError),
        (SELF_LOOP, DEFAULT_FUEL, ValueError),
    ],
    ids=["fuel", "singular"],
)
def test_a_sweep_that_raises_is_not_kept(text, fuel, error, monkeypatch):
    def singular(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)  # B's self-loop makes one solve
    wg = WeightedGrammar.from_grammar(parse_grammar(text))
    w = wg.grammar.string_of(["a"])
    for _ in range(2):
        with pytest.raises(error):
            string_probability(wg, w, fuel)
        (reach,) = _compiled(wg.grammar).searches.values()  # the search is kept
        assert reach.sweep is None


def test_a_completed_search_keeps_at_most_fuel_forms():
    reach = _bounded_reachability(parse_grammar(THREE_WORDS), 1, 4)
    assert reach.completed
    assert len(reach.coded) == 4


def test_a_search_out_of_fuel_also_keeps_the_forms_it_did_not_expand():
    # One form expanded, into three rewrites: fuel times three, plus one.
    reach = _bounded_reachability(parse_grammar(THREE_WORDS), 1, 1)
    assert not reach.completed
    assert len(reach.coded) == 1 * 3 + 1


def test_both_search_bounds_hold_at_every_fuel():
    g = load_grammar("crossserial.grammar")  # 25 forms at length 6
    for fuel in range(1, 30):
        reach = _bounded_reachability(g, 6, fuel)
        expanded = record_forms(g, reach)[:fuel]
        most = max(len(successors(form, g)) for form in expanded)
        if reach.completed:
            assert len(reach.coded) <= fuel
        else:
            assert len(reach.coded) <= fuel * most + 1
        assert sum(len(rewrites) for rewrites in reach.rewrites) <= fuel * most


def test_nine_lengths_stay_cached_together():
    # Acceptance criterion 3 queries lengths 1 to 9 of each grammar in turn.
    g = load_grammar("abc.grammar")
    first = {n: _bounded_reachability(g, n, DEFAULT_FUEL) for n in range(1, 10)}
    for n in range(1, 10):
        assert _bounded_reachability(g, n, DEFAULT_FUEL) is first[n]


def test_enumeration_and_exact_probabilities_share_one_search():
    key = (6, DEFAULT_FUEL)
    g = load_grammar("abc.grammar")
    w = g.string_of("a a b b c c".split())
    assert w in enumerate_language(g, 6)
    search = _compiled(g).searches[key]
    assert string_probability(WeightedGrammar.from_grammar(g), w) > 0.0
    assert list(_compiled(g).searches) == [key]
    assert _compiled(g).searches[key] is search
    # The probability alone runs the search that enumeration then reuses.
    g = load_grammar("abc.grammar")
    assert string_probability(WeightedGrammar.from_grammar(g), w) > 0.0
    assert list(_compiled(g).searches) == [key]


# A's rewrite depends on the token before it, and S recurs after x.
GATED = (
    "start: S\nterminals: a b x y\nnonterminals: S A\n"
    "S -> a A | b A\na A -> a x S\nb A -> b y\n"
)


def test_the_grammar_predictor_lists_each_rule_once_from_the_one_view(monkeypatch):
    forms: list[tuple] = []
    rewrites = lcsg.predictors._rewrites

    def counted(form, view):
        forms.append(view.decode(form))
        return rewrites(form, view)

    monkeypatch.setattr(lcsg.predictors, "_rewrites", counted)
    g = parse_grammar(GATED)
    pred = grammar_predictor(WeightedGrammar.from_grammar(g))
    S, A = g.symbol("S"), g.symbol("A")
    a, b, x = g.symbol("a"), g.symbol("b"), g.symbol("x")
    assert forms == [(S,)]
    # One call per new (nonterminal, window) rule, in the order first met.
    for names, new in [
        ("a", [(a, A)]),
        ("a x", [(x, S)]),
        ("a x a", []),  # (A, a) again, after a new context
        ("b", [(b, A)]),
        ("a x a", []),  # a repeated context
    ]:
        before = len(forms)
        pred.next_distribution(pred.initial_state, g.string_of(names.split()))
        assert forms[before:] == new, names
    # The predictor reads the view that the grammar's searches use.
    view = _compiled(g)
    assert pred._view is view
    assert derives_bounded(g, g.string_of("a x b y".split())) is not None
    assert _compiled(g) is view and list(view.searches) == [(4, DEFAULT_FUEL)]
    assert len(forms) == 4  # the search's calls go through derivation's own name


def test_the_cache_is_freed_with_its_grammar():
    # By reference counting alone: nothing the view keeps refers back to g.
    gc.disable()
    try:
        g = load_grammar("abc.grammar")
        enumerate_language(g, 9)
        member = g.string_of("a a b b c c".split())
        trace = derives_bounded(g, member)
        assert derives_bounded(g, member) == trace
        assert derives_bounded(g, g.string_of("a b b c c c".split())) is None
        wg = WeightedGrammar.from_grammar(g)
        assert string_probability(wg, member) > 0.0
        reach = _compiled(g).searches[(6, DEFAULT_FUEL)]
        assert reach.sweep is not None and reach.traces
        ref = weakref.ref(g)
        del g, wg, trace, reach
        assert ref() is None
    finally:
        gc.enable()


def test_a_searched_grammar_pickles_without_its_caches():
    g = load_grammar("abc.grammar")
    blob_before = pickle.dumps(g)
    wg = WeightedGrammar.from_grammar(g)
    wg_blob_before = pickle.dumps(wg)
    w = g.string_of("a a b b c c".split())
    p = string_probability(wg, w)
    enumerate_language(g, 9)
    assert len(_compiled(g).searches[(9, DEFAULT_FUEL)].coded) > 30
    assert _compiled(g).searches[(6, DEFAULT_FUEL)].sweep[0] == wg.weights
    blob = pickle.dumps(g)
    assert len(blob) == len(blob_before)
    assert len(pickle.dumps(wg)) == len(wg_blob_before)
    restored = pickle.loads(blob)
    assert restored == g
    assert "_compiled" not in restored.__dict__
    assert enumerate_language(restored, 9) == enumerate_language(g, 9)
    assert string_probability(WeightedGrammar.from_grammar(restored), w) == p


_PICKLE_A_HASHED_STRING = """
import pickle, sys
from lcsg import SymbolString, nonterminal, terminal
s = SymbolString((terminal("a"), nonterminal("S"), terminal("bc")))
hash(s)
sys.stdout.buffer.write(pickle.dumps(s))
"""


def test_a_string_hashed_and_pickled_in_another_process_is_found_in_a_set():
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    child = subprocess.run(
        [sys.executable, "-c", _PICKLE_A_HASHED_STRING],
        env=dict(os.environ, PYTHONHASHSEED=seed),
        capture_output=True,
        timeout=120,
    )
    assert child.returncode == 0, child.stderr.decode()
    s = pickle.loads(child.stdout)
    assert s in {SymbolString((terminal("a"), nonterminal("S"), terminal("bc")))}


def test_slices_and_joins_agree_with_checked_construction():
    a = terminal("a")
    s = SymbolString((a, a, a))
    assert s[1:] == SymbolString((a, a))
    assert hash(s[1:]) == hash(SymbolString((a, a)))
    assert s + s[:1] == SymbolString((a,) * 4)
    with pytest.raises(ValueError):
        SymbolString((a, "a"))
    assert s + [a] == s + (a,) == SymbolString((a,) * 4)
    with pytest.raises(ValueError, match="not a Symbol"):
        s + ["a"]
