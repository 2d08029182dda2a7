"""Exact probabilities from one sweep agree with the per-string oracle, and
the sampler agrees with inverse CDF sampling over ``normalize_weights``.

``stochastic_oracle`` holds the per-string ``exact_distribution`` and
``string_probability`` that re-explore the bounded form space for every
string.  Where the oracle returns, the library must return the same support
with every probability and the residual within 1e-12; where the oracle
raises, the library must raise the same exception type.  Likewise
``sample_derivation`` must take the very steps of ``reference_sample``, or
raise the same exception type.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import stochastic_oracle as oracle
from conftest import load_weighted
from lcsg import (
    FuelExhaustedError,
    WeightedGrammar,
    exact_distribution,
    normalize_weights,
    parse_grammar,
    sample_derivation,
    string_probability,
)
from lcsg.symbols import SymbolString

TOLERANCE = 1e-12


def outcome(f, *args):
    try:
        return f(*args)
    except Exception as exc:  # the exception type is the outcome compared
        return type(exc)


def assert_same_distribution(wg: WeightedGrammar, bound: int) -> None:
    want = outcome(oracle.exact_distribution, wg, bound)
    got = outcome(exact_distribution, wg, bound)
    if isinstance(want, type):
        assert got is want
        return
    assert not isinstance(got, type), got
    assert got.bound == want.bound
    assert list(got.probabilities) == list(want.probabilities)
    for w, p in want.probabilities.items():
        assert abs(got.probabilities[w] - p) <= TOLERANCE, (w, got.probabilities[w], p)
    assert abs(got.residual - want.residual) <= TOLERANCE
    support = list(want.probabilities)
    for w in support[:1] + support[-1:]:
        assert string_probability(wg, w) == oracle.string_probability(wg, w)


@pytest.mark.parametrize(
    "name, bound",
    [
        ("loop.grammar", 8),
        ("abc.grammar", 9),
        ("crossserial.grammar", 8),
        ("chain.grammar", 4),
    ],
)
def test_fixture_distributions_match_the_oracle(name, bound):
    assert_same_distribution(load_weighted(name), bound)


def inline(productions: str) -> WeightedGrammar:
    return WeightedGrammar.from_grammar(
        parse_grammar("start: S\nterminals: a b\nnonterminals: S A B\n" + productions)
    )


def test_a_support_shorter_than_the_bound_matches_the_oracle():
    wg = inline("S -> a b p=3\nS -> b\n")
    d = exact_distribution(wg, 6)
    assert max(len(w) for w in d.probabilities) == 2
    assert_same_distribution(wg, 6)


@pytest.mark.parametrize(
    "productions, bound",
    [
        # the permitted start erasure beside left context-sensitive rewrites
        ("S -> _\nS -> a A\na A -> a b A p=2\na A -> a b\n", 6),
        # erasure into a non-terminal form is refused
        ("S -> A A\nA -> a\nA -> _\n", 2),
        # a same-length cycle that traps its mass
        ("S -> A\nA -> B\nB -> A\nS -> a\n", 1),
        # the same cycle, which only a sweep at the bound, 3, would reach
        ("S -> a\nS -> b A\nA -> B\nB -> A\n", 3),
    ],
)
def test_edge_shapes_match_the_oracle(productions, bound):
    assert_same_distribution(inline(productions), bound)


def test_a_fuel_too_small_for_the_search_exhausts_both_entry_points():
    wg = load_weighted("abc.grammar")
    w = wg.grammar.string_of("a a b b c c".split())
    with pytest.raises(FuelExhaustedError):
        string_probability(wg, w, fuel=3)
    with pytest.raises(FuelExhaustedError):
        exact_distribution(wg, 6, fuel=3)


# --- hypothesis-generated small weighted grammars ---

TERMINALS = ("a", "b")
NONTERMINALS = ("S", "A", "B")
symbol_st = st.sampled_from(TERMINALS + NONTERMINALS)
terminal_st = st.sampled_from(TERMINALS)
nonterminal_st = st.sampled_from(NONTERMINALS)
weight_st = st.sampled_from((0.5, 1.0, 2.0, 3.0))

production_st = st.tuples(
    nonterminal_st.map(lambda nt: [nt]),
    st.lists(symbol_st, min_size=1, max_size=3),
    weight_st,
)

# At most one nonterminal per right side: a nullable symbol beside another
# nonterminal would let forms grow without bound, which only fuel stops.
linear_production_st = st.tuples(
    nonterminal_st.map(lambda nt: [nt]),
    st.lists(terminal_st, max_size=2),
    st.lists(nonterminal_st, max_size=1),
    st.lists(terminal_st, max_size=1),
    weight_st,
).map(lambda t: (t[0], t[1] + t[2] + t[3], t[4]))


def closing_st(min_rhs: int, nonterminals=NONTERMINALS):
    """One all-terminal production for each of ``nonterminals``, so that
    most drawn grammars derive strings within the bound."""
    return st.tuples(
        *(
            st.tuples(
                st.just([nt]),
                st.lists(terminal_st, min_size=min_rhs, max_size=2),
                weight_st,
            )
            for nt in nonterminals
        )
    ).map(list)


@st.composite
def left_cs_production_st(draw):
    alpha = draw(st.lists(symbol_st, max_size=2))
    rest = draw(st.lists(symbol_st, min_size=1, max_size=2))
    return alpha + [draw(nonterminal_st)], alpha + rest, draw(weight_st)


unit_production_st = st.tuples(
    nonterminal_st.map(lambda nt: [nt]), nonterminal_st.map(lambda nt: [nt]), weight_st
)


def weighted(productions) -> WeightedGrammar:
    lines = [
        "start: S",
        f"terminals: {' '.join(TERMINALS)}",
        f"nonterminals: {' '.join(NONTERMINALS)}",
    ]
    for lhs, rhs, w in productions:
        lines.append(f"{' '.join(lhs)} -> {' '.join(rhs) or '_'} p={w}")
    return WeightedGrammar.from_grammar(parse_grammar("\n".join(lines) + "\n"))


bound_st = st.integers(min_value=0, max_value=6)
small = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@small
@given(
    closing=closing_st(1),
    productions=st.lists(production_st, min_size=1, max_size=4),
    bound=bound_st,
)
def test_context_free_grammars_match_the_oracle(closing, productions, bound):
    assert_same_distribution(weighted(closing + productions), bound)


@small
@given(
    closing=closing_st(0),
    productions=st.lists(linear_production_st, min_size=1, max_size=4),
    bound=bound_st,
)
def test_erasing_context_free_grammars_match_the_oracle(closing, productions, bound):
    assert_same_distribution(weighted(closing + productions), bound)


@small
@given(
    closing=closing_st(1),
    base=st.lists(production_st, max_size=2),
    left_cs=st.lists(left_cs_production_st(), min_size=1, max_size=3),
    bound=bound_st,
)
def test_left_context_sensitive_grammars_match_the_oracle(closing, base, left_cs, bound):
    assert_same_distribution(weighted(closing + base + left_cs), bound)


@small
@given(
    # only S is sure to close, so a cycle among A and B may trap its mass
    closing=closing_st(1, ("S",)),
    base=st.lists(production_st, max_size=3),
    units=st.lists(unit_production_st, min_size=2, max_size=4),
    bound=bound_st,
)
def test_same_length_unit_cycles_match_the_oracle(closing, base, units, bound):
    assert_same_distribution(weighted(closing + base + units), bound)


# --- sampling against inverse CDF over the public step distribution ---


def reference_sample(wg: WeightedGrammar, seed: int, max_steps: int):
    """One uniform draw per step, inverse CDF over ``normalize_weights``."""
    rng = random.Random(seed)
    form = SymbolString((wg.grammar.start,))
    steps = []
    while not form.is_all_terminal() and len(steps) < max_steps:
        distribution = normalize_weights(wg, form)
        u, cumulative, step = rng.random(), 0.0, distribution[-1][0]
        for candidate, p in distribution:
            cumulative += p
            if u < cumulative:
                step = candidate
                break
        steps.append(step)
        form = step.after
    return steps, not form.is_all_terminal()


def assert_samples_like_the_reference(wg: WeightedGrammar) -> None:
    for seed in range(200):
        want = outcome(reference_sample, wg, seed, 40)
        got = outcome(sample_derivation, wg, seed, 40)
        if isinstance(want, type):
            assert got is want, seed
        else:
            assert not isinstance(got, type), (seed, got)
            assert (list(got.trace.steps), got.truncated) == want, seed


@pytest.mark.parametrize(
    "name", ["loop.grammar", "abc.grammar", "crossserial.grammar", "chain.grammar"]
)
def test_fixture_samples_follow_normalize_weights(name):
    assert_samples_like_the_reference(load_weighted(name))


@small
@given(
    parts=st.one_of(
        st.tuples(closing_st(1), st.lists(production_st, min_size=1, max_size=4)),
        st.tuples(closing_st(0), st.lists(linear_production_st, min_size=1, max_size=4)),
        st.tuples(
            closing_st(1),
            st.lists(production_st, max_size=2),
            st.lists(left_cs_production_st(), min_size=1, max_size=3),
        ),
        st.tuples(
            closing_st(1, ("S",)),
            st.lists(production_st, max_size=3),
            st.lists(unit_production_st, min_size=2, max_size=4),
        ),
    )
)
def test_drawn_samples_follow_normalize_weights(parts):
    assert_samples_like_the_reference(weighted([p for part in parts for p in part]))
