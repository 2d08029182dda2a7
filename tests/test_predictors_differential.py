"""Grammar and toy-attention predictor steps agree with the pre-integer oracle.

``predictor_oracle`` holds ``GrammarPredictor`` as it was with ``Fraction``
beliefs, and toy attention's full causal matrix.  The library's grammar
predictor keeps integer numerators over one denominator and memoizes its
rules; on every call it must give the same distribution, bit for bit, and
an equal state, or raise the same exception type with the same message.
Grammars are drawn in the predictor's shape, with weights whose totals are
not dyadic (0.1, 0.7), zero weights, and tiny and huge weights; contexts
are drawn along the grammar and at random.  Fixed grammars cover each
failure: a dead end, zero mass, a misshapen production, an impossible
token and a unit cycle.  The oracle runs here with its expansion cap
lowered from 10 000 rounds to 64: a unit cycle whose mass keeps splitting
grows its exact denominators every round, and the oracle's ``Fraction``
arithmetic then takes minutes to reach the full cap.  The library stops
one round after its number of nonterminals that end a left side, far below
64 here, and must still raise what the oracle raises.  A second strategy
draws rounds in which two different rules fail, so that which of them
raises first, the one the oracle reaches first in production order, is
checked too.

The library's toy attention computes only the last row of the matrix.  Its
probabilities must agree with the oracle's within 1e-12, with the same
argmax and state, for widths 1 to 16 and contexts of 0 to 63 tokens, and
an unknown token or a 64-token context must raise the same error.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import predictor_oracle as oracle
from conftest import DATA
from lcsg import (
    END,
    DeadEndError,
    Grammar,
    ImpossibleContextError,
    NotLeftLinearizableError,
    Production,
    SymbolString,
    UnknownTokenError,
    WeightedGrammar,
    ZeroMassError,
    grammar_predictor,
    nonterminal,
    parse_grammar,
    terminal,
    toy_attention_predictor,
)

SETTINGS = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
TERMINALS = tuple(terminal(n) for n in "abc")
NONTERMINALS = tuple(nonterminal(n) for n in "SAB")
STRANGER = terminal("z")
WEIGHTS = [0.1, 0.7, 0.3, 0.2, 1.0, 2.5, 3.0, 0.0, 1e-300, 5e-324, 1e-30, 1e300, 1.7e308]


@pytest.fixture(autouse=True, scope="module")
def _short_expansion_cap():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_EXPANSION_ROUNDS", 64)
        yield


def outcome(f, *args):
    try:
        return f(*args)
    except Exception as exc:  # the exception type and message are the outcome compared
        return type(exc), str(exc)


def step(predictor, context: SymbolString):
    """The distribution and state, or the exception, of one call from scratch."""
    out = outcome(predictor.next_distribution, predictor.initial_state, context)
    if isinstance(out[0], type):
        return out
    dist, state = out
    return dist.entries, state


def assert_same_steps(wg: WeightedGrammar, contexts) -> None:
    want = outcome(oracle.GrammarPredictor, wg)
    got = outcome(grammar_predictor, wg)
    if isinstance(want, tuple):
        assert got == want
        return
    assert got.initial_state == want.initial_state
    assert got.vocabulary == want.vocabulary
    for context in contexts:
        assert step(got, context) == step(want, context), context


@st.composite
def weighted_grammars(draw):
    """Left context-sensitive grammars that mostly keep the predictor's shape.

    Each nonterminal gets one to three productions.  A few have a context
    that no emitted prefix matches, a unit right side, or a nonterminal left
    of a terminal.
    """
    terminals = st.sampled_from(TERMINALS)
    rare = st.integers(0, 11).map(lambda n: n == 0)
    productions = []
    for nt in NONTERMINALS:
        for _ in range(draw(st.integers(1, 3))):
            gamma = draw(st.lists(terminals, max_size=2)) if draw(st.booleans()) else []
            if draw(rare):
                gamma.append(draw(st.sampled_from(NONTERMINALS)))
            body = [] if draw(rare) else draw(st.lists(terminals, min_size=1, max_size=2))
            if draw(rare):
                body.insert(0, draw(st.sampled_from(NONTERMINALS)))
            if not body or draw(st.booleans()):
                body.append(draw(st.sampled_from(NONTERMINALS)))
            lhs = SymbolString((*gamma, nt))
            productions.append(Production(lhs, SymbolString((*gamma, *body))))
    weights = draw(
        st.lists(
            st.sampled_from(WEIGHTS) | st.floats(0.0, 10.0),
            min_size=len(productions),
            max_size=len(productions),
        )
    )
    g = Grammar(frozenset(NONTERMINALS), frozenset(TERMINALS), NONTERMINALS[0], productions)
    wg = outcome(WeightedGrammar, g, weights)
    assume(not isinstance(wg, tuple))  # each rewritten nonterminal needs a positive weight
    return wg


def walk(wg: WeightedGrammar, choices: list[int]) -> list[SymbolString]:
    """The contexts of one run along the grammar, as far as the oracle continues it."""
    contexts = [SymbolString(())]
    pred = outcome(oracle.GrammarPredictor, wg)
    if isinstance(pred, tuple):
        return contexts
    for choice in choices:
        out = step(pred, contexts[-1])
        if isinstance(out[0], type):
            break
        live = [t for t, p in out[0] if p > 0 and t is not END]
        if not live:
            break
        contexts.append(contexts[-1] + (live[choice % len(live)],))
    return contexts


@SETTINGS
@given(
    weighted_grammars(),
    st.lists(st.lists(st.integers(0, 5), max_size=12), min_size=1, max_size=3),
    st.lists(st.lists(st.sampled_from(TERMINALS + (STRANGER,)), max_size=5), max_size=4),
)
def test_grammar_steps_match_the_oracle(wg, walks, randoms):
    contexts = [c for choices in walks for c in walk(wg, choices)]
    contexts += [SymbolString(tuple(r)) for r in randoms]
    assert_same_steps(wg, contexts)


# How a drawn rule fails: no production at all, only zero weights in the
# context reached (a positive one waits in context b, which is never
# reached), or a nonterminal left of a terminal.
FAILING = {
    "dead-end": lambda z: [],
    "zero-mass": lambda z: [(z, "c", 0.0), (f"b {z}", "b c", 1.0)],
    "misshapen": lambda z: [(z, "Q c", 1.0)],
}


@st.composite
def two_failing_rules(draw):
    """A grammar whose rule for A, after the drawn prefix, gives two pending
    nonterminals X and Y whose own rules fail in different ways.

    A's two productions keep left contexts of drawn lengths, so the rewrite
    loop can list them out of production order, and come in a drawn order.
    Returns the weighted grammar and the prefix, as names.
    """
    prefix = draw(st.lists(st.sampled_from("ac"), min_size=1, max_size=3))
    kinds = draw(st.permutations(sorted(FAILING)))[:2]
    rules = []
    for z in "XY":
        context = prefix[len(prefix) - draw(st.integers(0, len(prefix))):]
        rules.append((" ".join([*context, "A"]), " ".join([*context, z]), 1.0))
    rules = draw(st.permutations(rules))
    rules = [("S", " ".join([*prefix, "A"]), 1.0), *rules]
    for z, kind in zip("XY", kinds):
        rules += FAILING[kind](z)
    lines = ["start: S", "terminals: a b c", "nonterminals: S A X Y Q"]
    lines += [f"{lhs} -> {rhs} p={w!r}" for lhs, rhs, w in rules]
    wg = WeightedGrammar.from_grammar(parse_grammar("\n".join(lines) + "\n"))
    return wg, prefix


@SETTINGS
@given(two_failing_rules())
def test_two_failing_rules_in_one_round_match_the_oracle(drawn):
    wg, prefix = drawn
    failing = SymbolString(tuple(terminal(t) for t in prefix))
    want = step(oracle.GrammarPredictor(wg), failing)
    assert want[0] in (DeadEndError, ZeroMassError, NotLeftLinearizableError)
    assert_same_steps(wg, [SymbolString(()), failing, failing])


FIXED = {
    "loop": (DATA / "loop.grammar").read_text(),
    "chain": (DATA / "chain.grammar").read_text(),
    "two-token-context": (
        "start: S\nterminals: a b c\nnonterminals: S X A\n"
        "S -> a X p=0.1\nS -> b X p=0.7\nX -> c A\n"
        "a c A -> a c a p=0.3\na c A -> a c b A p=0.7\n"
        "b c A -> b c a p=0.7\nb c A -> b c b A p=0.2\nb A -> b c\n"
    ),
}


@pytest.mark.parametrize("name", sorted(FIXED))
def test_every_short_context_matches_the_oracle(name):
    wg = WeightedGrammar.from_grammar(parse_grammar(FIXED[name]))
    contexts = [()]
    for n in range(4):
        contexts += [c + (t,) for c in contexts if len(c) == n for t in TERMINALS + (STRANGER,)]
    assert_same_steps(wg, [SymbolString(c) for c in contexts])


FAILURES = {
    "dead-end": (
        "start: S\nterminals: a b\nnonterminals: S A\nS -> a A p=0.1\nS -> b p=0.7\nb A -> b a\n",
        ["a"],
        DeadEndError,
    ),
    "zero-mass": (
        "start: S\nterminals: a b x y\nnonterminals: S A\n"
        "S -> a A p=0.7\nS -> b A p=0.1\na A -> a x p=0\nb A -> b y\n",
        ["a"],
        ZeroMassError,
    ),
    "zero-mass-before-misshapen": (
        "start: S\nterminals: a b y\nnonterminals: S A B\n"
        "S -> a A\na A -> a B a p=0\nb A -> b y\nB -> a\n",
        ["a"],
        ZeroMassError,
    ),
    "misshapen": (
        "start: S\nterminals: a\nnonterminals: S A B\nS -> a A\na A -> a B a\nB -> a\n",
        ["a"],
        NotLeftLinearizableError,
    ),
    "impossible-token": (
        "start: S\nterminals: a b\nnonterminals: S A\nS -> a A p=0.1\nS -> a p=0.7\nA -> a\n",
        ["b"],
        ImpossibleContextError,
    ),
    "unit-cycle": (
        "start: S\nterminals: a\nnonterminals: S A\nS -> a A\nA -> S p=0.1\nA -> A p=0.7\n",
        ["a"],
        ValueError,
    ),
}


@pytest.mark.parametrize("name", sorted(FAILURES))
def test_each_failure_matches_the_oracle(name):
    text, tokens, error = FAILURES[name]
    wg = WeightedGrammar.from_grammar(parse_grammar(text))
    failing = SymbolString(tuple(terminal(t) for t in tokens))
    want = step(oracle.GrammarPredictor(wg), failing)
    assert want[0] is error
    assert_same_steps(wg, [SymbolString(()), failing, failing])  # fails again, as it did


def test_unit_cycle_at_construction_matches_the_oracle():
    wg = WeightedGrammar.from_grammar(
        parse_grammar("start: S\nterminals: a\nnonterminals: S A\nS -> A\nA -> S\nS -> a\n")
    )
    assert outcome(oracle.GrammarPredictor, wg)[0] is ValueError
    assert_same_steps(wg, [])


# ---------------------------------------------------------------------------
# toy attention

VOCAB = tuple("abcde")


def pair(seed: int, width: int):
    lib = toy_attention_predictor(seed, width, VOCAB)
    return lib, oracle.ToyAttentionPredictor(seed, width, lib.vocabulary)


def toks(names) -> SymbolString:
    return SymbolString(tuple(terminal(n) for n in names))


@SETTINGS
@given(
    st.integers(0, 2**16),
    st.integers(1, 16),
    st.lists(st.sampled_from(VOCAB), max_size=63),
)
def test_attention_last_row_matches_the_full_matrix(seed, width, names):
    lib, ref = pair(seed, width)
    context = toks(names)
    got, got_state = lib.next_distribution(lib.initial_state, context)
    want, want_state = ref.next_distribution(ref.initial_state, context)
    assert got_state == want_state
    assert [t for t, _ in got.entries] == [t for t, _ in want.entries]
    assert all(abs(p - q) <= 1e-12 for (_, p), (_, q) in zip(got.entries, want.entries))
    assert got.argmax() == want.argmax()


@pytest.mark.parametrize(
    "names",
    [
        ["z"],
        ["a", "b", "z", "c"],
        ["a"] * 64,
        ["a"] * 70,
        ["a"] * 62 + ["z"] + ["a"] * 5,  # unknown inside the cap: unknown first
        ["a"] * 63 + ["z"],  # unknown past the cap: the cap first
        ["a"] * 70 + ["z"],
    ],
)
def test_attention_refusals_match_the_oracle(names):
    lib, ref = pair(5, 4)
    context = toks(names)
    want = outcome(ref.next_distribution, ref.initial_state, context)
    assert want[0] in (UnknownTokenError, ValueError)
    assert outcome(lib.next_distribution, lib.initial_state, context) == want
