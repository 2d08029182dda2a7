"""Exact probabilities from one sweep agree with the per-string oracle and
the rational reference, a kept sweep agrees with a cold one, and the sampler
agrees with inverse CDF sampling over ``normalize_weights``.

``stochastic_oracle`` holds the per-string ``exact_distribution`` and
``string_probability`` that re-explore the bounded form space for every
string and solve each same-length layer densely in floats.
``rational_oracle`` sweeps the same search in exact rational arithmetic,
in layers of minimal yield, and counts mass trapped in a closed cycle as
residual, as the library does.  Where the oracle returns, the library must
return the same support with every probability and the residual within
1e-12.  Where the oracle raises, the library must raise the same exception
type, except for a ``ValueError``: the oracle refuses erasure into a
non-terminal form and every layer whose float solve is singular, a closed
cycle's included, and there the library must return.  Either way every
library probability must lie within ``rational_oracle.RELATIVE`` of the
exact one and the residual within 1e-12 of it, unless a component that
receives mass is too large to solve exactly.  At the first string of each
length in the support, ``string_probability``, which sweeps at that length,
must equal the library's own ``exact_distribution`` entry, read from one
sweep at the bound, bit for bit, and so it must at the last string of the
support.  At the first and last it must also lie within 1e-12 of the oracle's
where the oracle returns.  A ``string_probability`` read from a
sweep kept on the grammar must equal, bit for bit, the one a fresh parse
computes cold.  Likewise ``sample_derivation`` must take the very steps of
``reference_sample``, or raise the same exception type with the same
message, which ``lcsg sample`` prints.  ``reference_sample`` reads
``normalize_weights``, which in turn must give the very steps of a
renormalization over ``derivation_oracle.successors``, with bit-identical
probabilities, or raise as it does: at forms that hold symbols outside the
grammar, all-terminal forms, dead ends and forms of zero mass.

``assert_same_distribution`` tags each drawn example with
``hypothesis.event``: which reference decided (``dense``, ``rational``, or
``none`` where a component is beyond ``MOST``), the support size, the
length of the longest string and the number of forms in the largest cyclic
component of the sweep at the bound (0 where none), so that
``--hypothesis-show-statistics`` shows what the drawn tests reach.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import HealthCheck, currently_in_test_context, event, example, given, settings
from hypothesis import strategies as st

import derivation_oracle
import rational_oracle as rational
from rational_oracle import within_relative
import stochastic_oracle as oracle
from conftest import load_weighted
from lcsg import (
    DeadEndError,
    FuelExhaustedError,
    WeightedGrammar,
    ZeroMassError,
    exact_distribution,
    nonterminal,
    normalize_weights,
    parse_grammar,
    sample_derivation,
    string_probability,
    terminal,
)
from lcsg.derivation import DEFAULT_FUEL
from lcsg.symbols import SymbolString

TOLERANCE = 1e-12
# The largest component the rational reference solves for a drawn grammar.
# A drawn unit cycle can make every form of one length a single component,
# whose exact solve takes minutes; at 64 forms one draw still took 4.5 s.
MOST = 32


def outcome(f, *args):
    try:
        return f(*args)
    except Exception as exc:  # the exception type is the outcome compared
        return type(exc)


class Raised(tuple):
    """An exception as the outcome compared: its type and its message."""


def outcome_and_message(f, *args):
    try:
        return f(*args)
    except Exception as exc:  # lcsg sample prints the message, so it is compared too
        return Raised((type(exc), str(exc)))


def tag(name: str, value) -> None:
    """``hypothesis.event`` in a drawn example; nothing in a parametrized test."""
    if currently_in_test_context():
        event(name, value)


def largest_cycle(wg: WeightedGrammar, bound: int) -> int:
    """The forms in the largest component of the sweep at ``bound`` that
    holds a cycle of positive probability, or 0 where none does."""
    _, edges, _, components = rational._graph(wg, bound, DEFAULT_FUEL)
    return max(
        (
            len(c)
            for layer in components.values()
            for c in layer
            if len(c) > 1 or any(child == c[0] and p > 0 for child, p in edges[c[0]])
        ),
        default=0,
    )


def assert_same_distribution(wg: WeightedGrammar, bound: int) -> None:
    want = outcome(oracle.exact_distribution, wg, bound)
    got = outcome(exact_distribution, wg, bound)
    if isinstance(want, type) and want is not ValueError:
        tag("reference", "dense")
        assert got is want
        return
    assert not isinstance(got, type), got
    support = list(got.probabilities)
    tag("support size", len(support))
    if support:
        tag("longest string", len(support[-1]))
    if currently_in_test_context():  # only drawn examples pay for the exact graph
        tag("largest cyclic component", largest_cycle(wg, bound))
    exact = outcome(rational.exact_distribution, wg, bound, DEFAULT_FUEL, MOST)
    if exact is not rational.ComponentTooLargeError:
        assert not isinstance(exact, type), exact
        probabilities, residual = exact
        assert list(probabilities) == support
        for w, p in probabilities.items():
            assert within_relative(got.probabilities[w], p), (w, got.probabilities[w], p)
        assert abs(got.residual - residual) <= TOLERANCE
    firsts = [w for k, w in enumerate(support) if k == 0 or len(support[k - 1]) < len(w)]
    for w in firsts + support[-1:]:
        assert string_probability(wg, w) == got.probabilities[w]
    if want is ValueError:
        # The oracle refuses erasure into a non-terminal form and every
        # layer whose float solve is singular: the rational reference decides.
        tag("reference", "none" if exact is rational.ComponentTooLargeError else "rational")
        return
    tag("reference", "dense")
    assert got.bound == want.bound
    assert list(got.probabilities) == list(want.probabilities)
    for w, p in want.probabilities.items():
        assert abs(got.probabilities[w] - p) <= TOLERANCE, (w, got.probabilities[w], p)
    assert abs(got.residual - want.residual) <= TOLERANCE
    for w in support[:1] + support[-1:]:
        assert abs(oracle.string_probability(wg, w) - got.probabilities[w]) <= TOLERANCE


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


@pytest.mark.parametrize(
    "name, bound",
    [
        ("loop.grammar", 12),
        ("abc.grammar", 15),
        ("crossserial.grammar", 12),
        ("chain.grammar", 6),
    ],
)
def test_fixture_distributions_match_the_rational_reference(name, bound):
    wg = load_weighted(name)
    got = exact_distribution(wg, bound)
    exact, residual = rational.exact_distribution(wg, bound)
    assert list(got.probabilities) == list(exact)
    for w, p in exact.items():
        assert within_relative(got.probabilities[w], p), (w, got.probabilities[w], p)
        assert within_relative(string_probability(wg, w), p)
        assert abs(oracle.string_probability(wg, w) - p) <= TOLERANCE * p
    assert abs(got.residual - residual) <= TOLERANCE


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
        # erasure into a non-terminal form, which the oracle refuses
        ("S -> A A\nA -> a\nA -> _\n", 2),
        # a same-length cycle that traps its mass, which the oracle refuses
        ("S -> A\nA -> B\nB -> A\nS -> a\n", 1),
        # the same cycle, which only a sweep at the bound, 3, would reach
        ("S -> a\nS -> b A\nA -> B\nB -> A\n", 3),
        # a self-loop that traps its mass, although its float row sums below 1
        ("S -> a p=0.5\nS -> B p=0.5\nB -> B p=0.5\nB -> B p=2\nB -> B p=0.5\n", 1),
        # cycles in layers above the support, which a sweep at the bound
        # does not solve: one beside the start form's own layer, which
        # still feeds the empty string
        ("S -> a\nS -> A B\nA B -> A B p=1e20\nA B -> b b b\n", 2),
        ("S -> _\nS -> A\nA -> A p=1e20\nA -> b b\na B -> a b\n", 1),
        # the start form's own such self-loop above an empty support
        ("S -> S p=1e20\nS -> a a\n", 1),
        # two forms in such a cycle, whose float solve would be singular
        (
            "S -> a\nS -> A B\nA B -> B A p=1e20\nB A -> A B p=1e20\n"
            "A B -> b b b\nB A -> b b b\n",
            2,
        ),
        # a self-loop whose probability rounds to 1 inside a cycle that
        # receives mass: 1 - q_SS would lose S's outflow, and the dense
        # oracle, built so, refuses
        (
            "S -> b a p=0.5\nS -> A p=2\nS -> S p=1e20\n"
            "A -> B b p=2\nA -> S p=3\nA -> B\nB -> b b\n",
            4,
        ),
        # a cycle whose mass all escapes the bound: its 1e20 rewrites make
        # its float solve singular, and a dead cycle gets none, while the
        # dense oracle, which solves every layer, refuses
        (
            "S -> a\nS -> A\nA -> B p=1e20\nB -> A p=1e20\n"
            "A -> b b b\nB -> b b b\n",
            2,
        ),
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


@st.composite
def ordered_production_st(draw):
    """A production whose right side holds up to two terminals and up to two
    nonterminals later than its left side in S, A, B, in any order, or is
    empty.  No nonterminal derives itself, so every form stays finite."""
    i = draw(st.integers(min_value=0, max_value=len(NONTERMINALS) - 1))
    later = NONTERMINALS[i + 1:]
    nonterminals = draw(st.lists(st.sampled_from(later), max_size=2)) if later else []
    rhs = draw(st.permutations(draw(st.lists(terminal_st, max_size=2)) + nonterminals))
    return [NONTERMINALS[i]], rhs, draw(weight_st)


# S -> two of A and B, so that erasing one of them can leave a non-terminal form.
pair_production_st = st.tuples(
    st.just(["S"]), st.lists(st.sampled_from(NONTERMINALS[1:]), min_size=2, max_size=2), weight_st
)


@small
@given(
    closing=closing_st(0),
    pair=pair_production_st,
    productions=st.lists(ordered_production_st(), min_size=1, max_size=4),
    bound=st.integers(min_value=1, max_value=6),  # at 0 the support is at most the empty string
)
def test_erasing_grammars_with_two_nonterminals_match_the_rational_reference(
    closing, pair, productions, bound
):
    # The dense oracle refuses most draws, which erase into non-terminal
    # forms; there the rational reference decides.
    assert_same_distribution(weighted(closing + [pair] + productions), bound)


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


# Every shape above, as the lists of productions that make one grammar.
grammar_parts_st = st.one_of(
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


def bits(result):
    """A float as its exact bits; an exception type as itself."""
    return result.hex() if isinstance(result, float) else result


@small
@given(parts=grammar_parts_st, bound=bound_st, data=st.data())
def test_kept_sweeps_give_the_cold_probabilities_bit_for_bit(parts, bound, data):
    # Every string over the terminals up to the bound, so that most lengths
    # are read more than once; the support is among them.
    productions = [p for part in parts for p in part]
    wg = weighted(productions)  # one grammar object for every call below
    words = [
        wg.grammar.string_of(names)
        for n in range(bound + 1)
        for names in itertools.product(TERMINALS, repeat=n)
    ]
    for w in data.draw(st.permutations(words)):
        cold = outcome(string_probability, weighted(productions), w)
        assert bits(outcome(string_probability, wg, w)) == bits(cold), w


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
        want = outcome_and_message(reference_sample, wg, seed, 40)
        got = outcome_and_message(sample_derivation, wg, seed, 40)
        if isinstance(want, Raised):
            assert got == want, seed
        else:
            assert not isinstance(got, Raised), (seed, got)
            assert (list(got.trace.steps), got.truncated) == want, seed


@pytest.mark.parametrize(
    "name", ["loop.grammar", "abc.grammar", "crossserial.grammar", "chain.grammar"]
)
def test_fixture_samples_follow_normalize_weights(name):
    assert_samples_like_the_reference(load_weighted(name))


@small
@given(parts=grammar_parts_st)
def test_drawn_samples_follow_normalize_weights(parts):
    assert_samples_like_the_reference(weighted([p for part in parts for p in part]))


# --- the step distribution against a renormalization over the oracle ---


def reference_distribution(wg: WeightedGrammar, form: SymbolString):
    """``normalize_weights`` as a renormalization over ``derivation_oracle.successors``."""
    steps = derivation_oracle.successors(form, wg.grammar)
    if not steps:
        if form.is_all_terminal():
            raise ValueError(f"form is all-terminal, no steps apply: {form}")
        raise DeadEndError(f"no applicable step at {form}")
    raw = [wg.weights[step.production_index] for step in steps]
    total = sum(raw)
    if total <= 0.0:
        raise ZeroMassError(f"applicable weights sum to zero at {form}")
    return [(step, w / total) for step, w in zip(steps, raw)]


# A nonterminal outside every grammar, the grammar's symbols, a terminal
# outside every grammar and one that shares a nonterminal's name;
# nonterminals first, which hypothesis draws more often.
FORM_SYMBOLS = (
    nonterminal("Z"),
    *map(nonterminal, NONTERMINALS),
    *map(terminal, TERMINALS),
    terminal("z"),
    terminal("S"),
)


def symbols(text: str) -> tuple:
    """A form written as ``name:T`` and ``name:N`` tokens."""
    kinds = {"T": terminal, "N": nonterminal}
    return tuple(kinds[token[-1]](token[:-2]) for token in text.split())


def zeroed(productions, indices):
    """``productions`` with those at ``indices`` weighing 0, unless that leaves
    a nonterminal no positive rewrite, which ``WeightedGrammar`` refuses."""
    candidate = [(l, r, 0.0 if i in indices else w) for i, (l, r, w) in enumerate(productions)]
    return productions if isinstance(outcome(weighted, candidate), type) else candidate


@st.composite
def zero_weighted_case_st(draw):
    """Productions of every shape of ``grammar_parts_st``, some weighing 0,
    and a form: half the time a left side of theirs between drawn symbols.
    Half the time every production that rewrites the form then weighs 0, so
    that its mass is zero."""
    productions = [p for part in draw(grammar_parts_st) for p in part]
    zeros = draw(st.lists(st.booleans(), min_size=len(productions), max_size=len(productions)))
    productions = zeroed(productions, {i for i, zero in enumerate(zeros) if zero})
    around = st.lists(st.sampled_from(FORM_SYMBOLS), max_size=2).map(tuple)
    if draw(st.booleans()):
        lhs = draw(st.sampled_from(productions))[0]
        side = tuple(nonterminal(n) if n in NONTERMINALS else terminal(n) for n in lhs)
        form = draw(around) + side + draw(around)
    else:
        form = draw(st.lists(st.sampled_from(FORM_SYMBOLS), min_size=1, max_size=5).map(tuple))
    if draw(st.booleans()):
        g = weighted(productions).grammar
        steps = derivation_oracle.successors(SymbolString(form), g)
        productions = zeroed(productions, {step.production_index for step in steps})
    return productions, form


ZERO_MASS = [(["S"], ["a", "A"], 1.0), (["a", "A"], ["a", "b"], 0.0), (["b", "A"], ["b", "b"], 1.0)]
A_PLUS = [(["S"], ["a", "S"], 1.0), (["S"], ["a"], 2.0)]


# Each draw takes a few milliseconds; about one in five is a dead end and
# one in eighteen has zero mass.
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=zero_weighted_case_st())
@example(case=(A_PLUS, symbols("z:T S:N Z:N S:N")))  # symbols outside the grammar
@example(case=(A_PLUS, symbols("a:T S:T")))  # all-terminal
@example(case=(A_PLUS, ()))  # the empty form, all-terminal
@example(case=(A_PLUS, symbols("a:T Z:N")))  # a dead end outside the grammar
@example(case=(A_PLUS, symbols("A:N S:T")))  # a dead end on a declared nonterminal
@example(case=(ZERO_MASS, symbols("a:T A:N")))
def test_normalize_weights_renormalizes_the_oracle_successors(case):
    productions, form = case
    wg, w = weighted(productions), SymbolString(form)
    want = outcome_and_message(reference_distribution, wg, w)
    got = outcome_and_message(normalize_weights, wg, w)
    tag("normalize_weights", want[0].__name__ if isinstance(want, Raised) else "steps")
    if isinstance(want, Raised):
        assert got == want
    else:
        assert not isinstance(got, Raised), got
        assert [(step, bits(p)) for step, p in got] == [(step, bits(p)) for step, p in want]
