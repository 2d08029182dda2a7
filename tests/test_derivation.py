"""One-step rewriting and the bounded membership / enumeration search."""

from __future__ import annotations

from collections import deque

import pytest

from lcsg import (
    EMPTY,
    DerivationStep,
    DerivationTrace,
    FuelExhaustedError,
    Grammar,
    NoMatchError,
    NotNoncontractingError,
    OutOfRangeError,
    Production,
    SymbolString,
    apply_step,
    derives_bounded,
    enumerate_language,
    nonterminal,
    parse_grammar,
    serialize_trace,
    successors,
    terminal,
)
from conftest import load_grammar

a, b = terminal("a"), terminal("b")
A, B = nonterminal("A"), nonterminal("B")


def naive_enumerate(g: Grammar, max_len: int) -> set[SymbolString]:
    """Reference oracle: plain breadth-first closure over sentential forms.

    Sound for monotone grammars only, where a form longer than the bound can
    never shrink back under it.  No yield profiles, no caching.
    """
    assert all(len(p.rhs) >= len(p.lhs) for p in g.productions)
    start = SymbolString((g.start,))
    seen = {start}
    frontier = deque([start])
    words: set[SymbolString] = set()
    while frontier:
        form = frontier.popleft()
        if form.is_all_terminal():
            if len(form) <= max_len:
                words.add(form)
            continue
        for step in successors(form, g):
            if len(step.after) > max_len or step.after in seen:
                continue
            seen.add(step.after)
            frontier.append(step.after)
    return words


# --- apply_step and successors ---


def test_apply_step_rewrites_the_window(abc):
    start = SymbolString((abc.start,))
    p0 = abc.productions[0]  # S -> a S B C
    after = apply_step(start, p0, 0)
    assert after == abc.string_of(["a", "S", "B", "C"])

    # C B -> B C in the middle of a longer form
    form = abc.string_of(["a", "a", "C", "B", "C"])
    swapped = apply_step(form, abc.productions[2], 2)
    assert swapped == abc.string_of(["a", "a", "B", "C", "C"])


def test_apply_step_rejects_bad_windows(abc):
    start = SymbolString((abc.start,))
    form = abc.string_of(["a", "S", "B", "C"])
    with pytest.raises(NoMatchError):
        apply_step(form, abc.productions[2], 0)  # C B does not occur at 0
    with pytest.raises(OutOfRangeError):
        apply_step(start, abc.productions[2], 0)  # window larger than the form
    with pytest.raises(OutOfRangeError):
        apply_step(start, abc.productions[0], 1)
    with pytest.raises(OutOfRangeError):
        apply_step(start, abc.productions[0], -1)


def test_successors_order_is_position_then_production_index(abc):
    start = SymbolString((abc.start,))
    steps = successors(start, abc)
    assert [(s.production_index, s.position) for s in steps] == [(0, 0), (1, 0)]

    # a a C B C admits C B at 2, b C nowhere, and C at two spots for nothing else
    form = abc.string_of(["a", "S", "B", "C"])
    got = [(s.position, s.production_index) for s in successors(form, abc)]
    assert got == sorted(got)


def test_successors_of_terminal_form_is_empty(abc):
    assert successors(abc.string_of(["a", "b", "c"]), abc) == []


def test_trace_validates_chaining(abc):
    start = SymbolString((abc.start,))
    good = DerivationStep(start, 1, 0, apply_step(start, abc.productions[1], 0))
    DerivationTrace(abc, (good,))
    bad = DerivationStep(good.after, 1, 0, good.after)
    with pytest.raises(ValueError):
        DerivationTrace(abc, (bad,))  # first step must start at the start symbol


def test_an_empty_trace_is_a_tuple_ending_at_the_start_form(abc):
    trace = DerivationTrace(abc, [])
    assert trace.steps == ()
    assert isinstance(trace.steps, tuple)
    assert trace.final == SymbolString((abc.start,))


# --- bounded membership ---


def test_derives_bounded_finds_the_known_trace(abc):
    trace = derives_bounded(abc, abc.string_of(["a", "b", "c"]))
    assert trace is not None
    assert [(s.production_index, s.position) for s in trace.steps] == [
        (1, 0),
        (3, 0),
        (5, 1),
    ]
    assert trace.final == abc.string_of(["a", "b", "c"])
    assert str(trace.steps[0].after) == "a B C"


def test_derives_bounded_traces_chain_and_replay(abc):
    target = abc.string_of(["a", "a", "b", "b", "c", "c"])
    trace = derives_bounded(abc, target)
    assert trace is not None
    form = SymbolString((abc.start,))
    for step in trace.steps:
        assert step.before == form
        form = apply_step(form, abc.productions[step.production_index], step.position)
        assert form == step.after
    assert form == target


@pytest.mark.parametrize(
    "name, max_len", [("abc.grammar", 9), ("crossserial.grammar", 8), ("chain.grammar", 3)]
)
def test_derives_bounded_reads_traces_from_the_search(name, max_len, monkeypatch):
    reference = load_grammar(name)
    words = sorted(enumerate_language(reference, max_len), key=str)
    want = [serialize_trace(derives_bounded(reference, w)) for w in words]

    def replay(*args):
        raise AssertionError("derives_bounded replayed a production")

    g = load_grammar(name)  # a fresh parse, so its searches run under the patch
    monkeypatch.setattr("lcsg.derivation.apply_step", replay)
    got = [derives_bounded(g, w) for w in words]
    monkeypatch.undo()
    assert [serialize_trace(t) for t in got] == want


def test_derives_bounded_negative_is_none(abc):
    for names in (["a", "b"], ["a", "a", "b", "c", "c"], ["b", "a", "c"]):
        assert derives_bounded(abc, abc.string_of(names)) is None


def test_derives_bounded_rejects_nonterminal_targets(abc):
    with pytest.raises(ValueError):
        derives_bounded(abc, SymbolString((abc.start,)))


def test_derives_bounded_shortest_on_linear_grammar():
    loop = load_grammar("loop.grammar")
    trace = derives_bounded(loop, loop.string_of(["a", "a", "a"]))
    assert [(s.production_index, s.position) for s in trace.steps] == [
        (0, 0),
        (0, 1),
        (1, 2),
    ]


# --- enumeration ---


def test_enumerate_abc_fixture(abc):
    lang = enumerate_language(abc, 9)
    assert {str(w) for w in lang} == {"a b c", "a a b b c c", "a a a b b b c c c"}


def test_enumerate_agrees_with_naive_closure(abc, chain):
    for g, bound in ((abc, 7), (chain, 5), (load_grammar("loop.grammar"), 6)):
        assert enumerate_language(g, bound) == naive_enumerate(g, bound)


def test_enumerate_crossserial_fixture(crossserial):
    lang = {str(w) for w in enumerate_language(crossserial, 9)}
    assert lang == {
        "a b c d",
        "a a b c c d",
        "a b b c d d",
        "a a a b c c c d",
        "a a b b c c d d",
        "a b b b c d d d",
    }


def test_enumerate_with_nullable_symbols():
    g = parse_grammar(
        "start: S\nterminals: a\nnonterminals: S A\nS -> A A\nA -> a\nA -> _\n"
    )
    lang = enumerate_language(g, 3)
    assert {str(w) for w in lang} == {"_", "a", "a a"}
    assert EMPTY in lang


def test_a_start_nullable_only_through_a_chain_erased_last_is_found():
    # B erases, so A does, so S does; the closure needs a pass per link,
    # since B's erasure comes after the productions that need it.
    g = parse_grammar(
        "start: S\nterminals: b\nnonterminals: S A B\nS -> A A\nS -> b\nA -> B\nB -> _\n"
    )
    assert enumerate_language(g, 0) == {EMPTY}
    trace = derives_bounded(g, EMPTY)
    assert [step.production_index for step in trace.steps] == [0, 2, 3, 2, 3]


def test_enumerate_permits_guarded_start_erasure():
    g = parse_grammar("start: S\nterminals: a\nnonterminals: S\nS -> a\nS -> _\n")
    assert {str(w) for w in enumerate_language(g, 2)} == {"_", "a"}


def test_fuel_exhaustion_is_distinct_from_negative(abc):
    with pytest.raises(FuelExhaustedError):
        enumerate_language(abc, 9, fuel=3)
    with pytest.raises(FuelExhaustedError):
        derives_bounded(abc, abc.string_of(["a", "b", "c"]), fuel=1)


def test_negative_bounds_and_fuel_are_refused(abc):
    with pytest.raises(ValueError, match="max_len"):
        enumerate_language(abc, -1)
    with pytest.raises(ValueError, match="fuel"):
        enumerate_language(abc, 3, fuel=-1)
    with pytest.raises(ValueError, match="fuel"):
        derives_bounded(abc, abc.string_of(["a", "b", "c"]), fuel=-1)
    # Zero stays valid: the empty bound, and fuel that expands nothing.
    assert enumerate_language(abc, 0) == set()
    with pytest.raises(FuelExhaustedError):
        derives_bounded(abc, abc.string_of(["a", "b", "c"]), fuel=0)


def test_unhandled_contraction_is_rejected():
    g = Grammar(
        frozenset({A, B}),
        frozenset({a}),
        A,
        (Production(SymbolString((A,)), SymbolString((A, B))), Production(SymbolString((A, B)), SymbolString((a,)))),
    )
    with pytest.raises(NotNoncontractingError):
        enumerate_language(g, 3)
    with pytest.raises(NotNoncontractingError):
        derives_bounded(g, SymbolString((a,)))
