"""Weighted derivation sampling and exact string probabilities."""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

import lcsg.derivation
import lcsg.stochastic
from lcsg import (
    BoundMismatchError,
    DeadEndError,
    FuelExhaustedError,
    StringDistribution,
    WeightedGrammar,
    ZeroMassError,
    exact_distribution,
    normalize_weights,
    parse_grammar,
    sample_derivation,
    string_probability,
    total_variation,
)
from lcsg.symbols import SymbolString
from conftest import DATA, load_weighted
import rational_oracle as rational
import stochastic_oracle
from rational_oracle import within_relative


def wg_from(text: str) -> WeightedGrammar:
    return WeightedGrammar.from_grammar(parse_grammar(text))


# --- weighted grammars ---


def test_from_grammar_adopts_declared_weights(loop):
    assert loop.weights == (1.0, 1.0, 2.0)


def test_missing_weights_default_to_one():
    wg = wg_from("start: S\nterminals: a\nnonterminals: S\nS -> a\nS -> a a p=3\n")
    assert wg.weights == (1.0, 3.0)


def test_every_nonterminal_needs_positive_outgoing_weight():
    with pytest.raises(ValueError):
        wg_from("start: S\nterminals: a\nnonterminals: S\nS -> a p=0\n")


def test_weight_count_must_match():
    g = parse_grammar("start: S\nterminals: a\nnonterminals: S\nS -> a\n")
    with pytest.raises(ValueError):
        WeightedGrammar(g, (1.0, 1.0))


@pytest.mark.parametrize("weight", [-1.0, float("inf")])
def test_weights_must_be_finite_and_nonnegative(weight):
    g = parse_grammar("start: S\nterminals: a\nnonterminals: S\nS -> a\nS -> a S\n")
    with pytest.raises(ValueError, match="weights must be finite and >= 0"):
        WeightedGrammar(g, (1.0, weight))


# --- per-form renormalization ---


def test_normalize_weights_renormalizes_per_form(loop):
    g = loop.grammar
    dist = normalize_weights(loop, SymbolString((g.start,)))
    assert [(s.production_index, p) for s, p in dist] == [
        (0, 0.25),
        (1, 0.25),
        (2, 0.5),
    ]


def test_normalize_weights_on_terminal_form_is_an_error(loop):
    with pytest.raises(ValueError):
        normalize_weights(loop, loop.grammar.string_of(["a"]))


def test_dead_end_form_raises():
    wg = wg_from(
        "start: S\nterminals: a\nnonterminals: S A\nS -> a A a\nS -> a\n"
    )
    with pytest.raises(DeadEndError):
        normalize_weights(wg, wg.grammar.string_of(["a", "A", "a"]))


def test_zero_mass_form_raises():
    wg = wg_from(
        "start: S\nterminals: a b c\nnonterminals: S A\n"
        "S -> a A\na A -> a b p=0\nb A -> b c\n"
    )
    with pytest.raises(ZeroMassError, match="sum to zero at a A$"):
        normalize_weights(wg, wg.grammar.string_of(["a", "A"]))


# --- sampling ---


def test_sampling_is_seed_deterministic(loop):
    first = sample_derivation(loop, 0)
    again = sample_derivation(loop, 0)
    assert first == again
    assert str(first.trace.final) == "b"
    assert not first.truncated
    assert str(sample_derivation(loop, 1).trace.final) == "a b"


def test_sampling_truncates_at_the_step_limit():
    wg = wg_from("start: S\nterminals: a\nnonterminals: S\nS -> a S\n")
    sampled = sample_derivation(wg, 7, max_steps=5)
    assert sampled.truncated
    assert len(sampled.trace.steps) == 5
    assert str(sampled.trace.final) == "a a a a a S"


def test_sampled_traces_are_valid_derivations(loop):
    for seed in range(10):
        trace = sample_derivation(loop, seed).trace
        form = SymbolString((loop.grammar.start,))
        for step in trace.steps:
            assert step.before == form
            form = step.after


# --- exact probabilities ---


def test_string_probabilities_on_the_loop_grammar(loop):
    g = loop.grammar
    cases = {
        "a": 0.25,
        "b": 0.5,
        "a a": 0.0625,
        "a b": 0.125,
        "a a a": 0.015625,
        "a a b": 0.03125,
    }
    for text, expected in cases.items():
        w = g.string_of(text.split())
        assert string_probability(loop, w) == pytest.approx(expected, abs=1e-12)
    assert string_probability(loop, g.string_of(["b", "a"])) == 0.0


def test_string_probability_multiplies_along_the_chain():
    wg = wg_from(
        "start: S\nterminals: a\nnonterminals: S\nS -> a S p=0.3\nS -> a p=0.7\n"
    )
    w = wg.grammar.string_of(["a", "a"])
    assert string_probability(wg, w) == pytest.approx(0.21, abs=1e-12)


UNIT_CYCLE = "start: S\nterminals: a\nnonterminals: S A B\nS -> A\nA -> B\nB -> A\nA -> a\n"


def test_same_length_cycles_are_solved_exactly():
    wg = wg_from(UNIT_CYCLE)
    # half the mass leaves the A/B cycle each visit; all of it ends at "a"
    assert string_probability(wg, wg.grammar.string_of(["a"])) == pytest.approx(
        1.0, abs=1e-12
    )


def test_trapped_cycle_mass_is_residual():
    wg = wg_from(
        "start: S\nterminals: a\nnonterminals: S A B\nS -> A\nA -> B\nB -> A\nS -> a\n"
    )
    # the half that enters the A/B cycle never leaves it
    assert string_probability(wg, wg.grammar.string_of(["a"])) == 0.5
    assert exact_distribution(wg, 1).residual == 0.5


def test_erasure_into_nonterminal_forms_is_swept():
    wg = wg_from(
        "start: S\nterminals: a\nnonterminals: S A\nS -> A A\nA -> a\nA -> _\n"
    )
    # S, A A and A share the layer of minimal yield 0; a A and A a are at 1
    assert string_probability(wg, wg.grammar.string_of(["a"])) == 0.5
    d = exact_distribution(wg, 2)
    got = [(str(w), p) for w, p in d.probabilities.items()]
    assert got == [("_", 0.25), ("a", 0.5), ("a a", 0.25)]
    assert d.residual == 0.0


def test_string_probability_rejects_nonterminal_strings(loop):
    with pytest.raises(ValueError):
        string_probability(loop, SymbolString((loop.grammar.start,)))


# --- distributions ---


def test_exact_distribution_of_the_loop_grammar(loop):
    d = exact_distribution(loop, 4)
    got = {str(w): p for w, p in d.probabilities.items()}
    assert got == {
        "a": 0.25,
        "b": 0.5,
        "a a": 0.0625,
        "a b": 0.125,
        "a a a": 0.015625,
        "a a b": 0.03125,
        "a a a a": 0.00390625,
        "a a a b": 0.0078125,
    }
    assert d.residual == pytest.approx(0.25**4, abs=1e-15)
    assert d.bound == 4


def test_distribution_validates_its_own_mass(loop):
    g = loop.grammar
    with pytest.raises(ValueError):
        StringDistribution({g.string_of(["a"]): 0.9}, bound=1, residual=0.3)
    with pytest.raises(ValueError):
        StringDistribution({g.string_of(["a", "a"]): 0.5}, bound=1)
    for residual in (-0.1, 1.5):
        with pytest.raises(ValueError, match="residual out of range"):
            StringDistribution({}, bound=1, residual=residual)


def test_total_variation_basics(loop):
    d = exact_distribution(loop, 3)
    assert total_variation(d, d) == 0.0
    shifted = StringDistribution(
        dict(d.probabilities), bound=3, residual=d.residual
    )
    assert total_variation(d, shifted) == 0.0
    with pytest.raises(BoundMismatchError):
        total_variation(d, exact_distribution(loop, 4))


def test_total_variation_counts_residual_mismatch(loop):
    g = loop.grammar
    d1 = StringDistribution({g.string_of(["a"]): 1.0}, bound=1, residual=0.0)
    d2 = StringDistribution({g.string_of(["a"]): 0.6}, bound=1, residual=0.4)
    assert total_variation(d1, d2) == pytest.approx(0.4, abs=1e-15)


_TOTAL_VARIATION = """
import itertools, random
from lcsg import StringDistribution, SymbolString, terminal, total_variation
words = [
    SymbolString(terminal(n) for n in w)
    for k in range(1, 6) for w in itertools.product("abc", repeat=k)
][:300]
rng = random.Random(0)
d1, d2 = (StringDistribution({w: rng.random() / 300 for w in words}, 5) for _ in range(2))
print(repr(total_variation(d1, d2)))
"""


def outputs_across_hash_seeds(script: str, *args: str) -> set[str]:
    outputs = set()
    for seed in ("0", "1", "12345"):
        child = subprocess.run(
            [sys.executable, "-c", script, *args],
            env=dict(os.environ, PYTHONHASHSEED=seed),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert child.returncode == 0, child.stderr
        outputs.add(child.stdout)
    return outputs


def test_total_variation_is_identical_across_hash_seeds():
    outputs = outputs_across_hash_seeds(_TOTAL_VARIATION)
    assert len(outputs) == 1, outputs


_EXACT_DISTRIBUTIONS = """
import sys
from lcsg import WeightedGrammar, exact_distribution, parse_grammar, string_probability
for text, bound in ((open(sys.argv[1]).read(), 8), (sys.argv[2], 1)):
    wg = WeightedGrammar.from_grammar(parse_grammar(text))
    print(repr(exact_distribution(wg, bound)))
    if bound == 8:
        crossserial = wg
# Two strings of one length below the support's longest: a sweep, then a look-up.
for word in ("a a b c c d", "a b b c d d"):
    print(repr(string_probability(crossserial, crossserial.grammar.string_of(word.split()))))
"""


def test_exact_distributions_are_identical_across_hash_seeds():
    outputs = outputs_across_hash_seeds(
        _EXACT_DISTRIBUTIONS, str(DATA / "crossserial.grammar"), UNIT_CYCLE
    )
    assert len(outputs) == 1, outputs
    crossserial, unit_cycle, first, second = outputs.pop().splitlines()
    assert "<a b c d>: 0.25" in crossserial
    assert "{<a>: 1.0}" in unit_cycle
    assert f"<a a b c c d>: {first}" in crossserial
    assert f"<a b b c d d>: {second}" in crossserial


def count_calls(monkeypatch) -> list[str]:
    """Patch the one rewrite loop, as each module sees it, and the two public
    step listings; return the list each call appends its name to."""
    calls: list[str] = []

    def counted(f):
        def call(*args):
            calls.append(f.__name__)
            return f(*args)

        return call

    for module, attr in (
        (lcsg.derivation, "_rewrites"),
        (lcsg.stochastic, "_rewrites"),
        (lcsg.derivation, "successors"),
        (lcsg.stochastic, "normalize_weights"),
    ):
        monkeypatch.setattr(module, attr, counted(getattr(module, attr)))
    return calls


@pytest.mark.parametrize(
    "name, bound",
    [
        ("crossserial.grammar", 10),
        ("abc.grammar", 12),
        ("loop.grammar", 16),
        # supports whose longest strings, 12 and 3, are shorter than the bound
        ("abc.grammar", 14),
        ("chain.grammar", 9),
    ],
)
def test_exact_probabilities_expand_no_form_themselves(name, bound, monkeypatch):
    want = exact_distribution(load_weighted(name), bound)
    calls = count_calls(monkeypatch)
    wg = load_weighted(name)  # a fresh parse: its search runs under the patch
    assert exact_distribution(wg, bound) == want
    # One call per form the one search expanded: the sweep adds none.
    (reach,) = lcsg.derivation._compiled(wg.grammar).searches.values()
    assert calls == ["_rewrites"] * len(reach.rewrites)
    calls.clear()
    assert exact_distribution(wg, bound) == want  # and is then cached
    assert calls == []


# A same-length cycle between A and B, so that each sweep makes one solve.
TWO_IN_A_CYCLE = (
    "start: S\nterminals: a b\nnonterminals: S A B\n"
    "S -> A\nA -> B\nB -> A\nA -> a\nB -> b\nS -> a b\n"
)


def count_calls_and_solves(monkeypatch) -> list[str]:
    """``count_calls``, which also counts ``numpy.linalg.solve`` as "solve"."""
    calls = count_calls(monkeypatch)
    solve = np.linalg.solve

    def counted(*args):
        calls.append("solve")
        return solve(*args)

    monkeypatch.setattr(np.linalg, "solve", counted)
    return calls


def test_a_repeated_length_is_a_look_up(monkeypatch):
    calls = count_calls_and_solves(monkeypatch)
    wg = wg_from(TWO_IN_A_CYCLE)
    a, b = (wg.grammar.string_of([x]) for x in "ab")
    p_a = string_probability(wg, a)
    assert calls.count("solve") == 1
    assert "_rewrites" in calls
    calls.clear()
    p_b = string_probability(wg, b)
    assert string_probability(wg, a) == p_a
    assert calls == []
    assert p_a + p_b == pytest.approx(0.5, abs=1e-12)


def test_a_string_at_the_bound_after_exact_distribution_is_a_look_up(monkeypatch):
    calls = count_calls_and_solves(monkeypatch)
    wg = wg_from(TWO_IN_A_CYCLE)
    d = exact_distribution(wg, 2)
    ab = wg.grammar.string_of(["a", "b"])
    calls.clear()
    assert string_probability(wg, ab) == d.probabilities[ab] == 0.5
    assert calls == []


def test_an_acyclic_layer_needs_no_solve(monkeypatch):
    calls = count_calls_and_solves(monkeypatch)
    d = exact_distribution(load_weighted("abc.grammar"), 15)  # a layer of 195 forms, no cycle
    assert len(d.probabilities) == 5
    assert calls.count("solve") == 0


def test_each_reached_cycle_gets_one_solve(monkeypatch):
    calls = count_calls_and_solves(monkeypatch)
    d = exact_distribution(wg_from(TWO_IN_A_CYCLE), 2)
    assert calls.count("solve") == 1
    assert sum(d.probabilities.values()) == pytest.approx(1.0, abs=1e-12)


# Every same-length layer of A and B at bound 6 splits into cyclic
# components of 2 to 64 forms: A's largest layer holds 5460 forms in 1020
# of them, and B's 15 561 forms in 3367.  One dense solve per layer took
# seconds and hundreds of MB on A, and tens of seconds and GB on B.
INPUT_A = (
    "start: S\nterminals: a b\nnonterminals: S A B\n"
    "S -> b b p=1\nS -> S A p=0.5\nS -> B A A p=2\nS -> A p=1\n"
    "A -> a p=0.5\nA -> S p=0.5\nA -> B p=0.5\nA -> A p=3\n"
)
INPUT_B = INPUT_A + "B -> b p=1\n"

_SWEEP_COST = """
import resource, sys, time
from lcsg import WeightedGrammar, exact_distribution, parse_grammar
wg = WeightedGrammar.from_grammar(parse_grammar(sys.argv[1]))
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
start = time.perf_counter()
exact_distribution(wg, 6)
print(time.perf_counter() - start, (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 1024)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in kilobytes on Linux")
@pytest.mark.parametrize(
    "text, seconds, megabytes", [(INPUT_A, 1.0, 100), (INPUT_B, 3.0, 200)], ids=["A", "B"]
)
def test_many_cycles_in_one_layer_stay_fast_and_small(text, seconds, megabytes):
    # In a child process, so the peak RSS it adds is this sweep's alone.
    child = subprocess.run(
        [sys.executable, "-c", _SWEEP_COST, text], capture_output=True, text=True, timeout=120
    )
    assert child.returncode == 0, child.stderr
    took, added = map(float, child.stdout.split())
    assert took < seconds and added < megabytes, (took, added)


def test_many_cycles_in_one_layer_match_the_rational_reference():
    wg = wg_from(INPUT_A)
    got = exact_distribution(wg, 6)
    exact, residual = rational.exact_distribution(wg, 6)
    assert list(got.probabilities) == list(exact)
    for w, p in exact.items():
        assert within_relative(got.probabilities[w], p), (w, got.probabilities[w], p)
    assert got.residual == pytest.approx(float(residual), abs=1e-12)


# A cycle whose every rewrite stays in it; S reaches it only by weight 0.
UNREACHED_TRAP = (
    "start: S\nterminals: a\nnonterminals: S A B\n"
    "S -> a p=1\nS -> A p=0\nA -> B\nB -> A\n"
)


def test_a_closed_cycle_that_no_mass_reaches_traps_nothing():
    wg = wg_from(UNREACHED_TRAP)
    a = wg.grammar.string_of(["a"])
    assert exact_distribution(wg, 2).probabilities == {a: 1.0}
    assert rational.exact_distribution(wg, 2) == ({a: 1}, 0)
    # The dense oracle solves the whole layer, whose closed block is singular.
    with pytest.raises(ValueError, match="trapped"):
        stochastic_oracle.exact_distribution(wg, 2)


# The closed A/B cycle sits in the layer of length 2, past the support {a}
# that exact_distribution sweeps to; string_probability sweeps to 2.
CLOSED_PAST_THE_SUPPORT = (
    "start: S\nterminals: a\nnonterminals: S A B\n"
    "S -> a\nS -> A A\nA -> B\nB -> A\n"
)


def test_a_sweep_past_the_support_agrees_with_exact_distribution():
    wg = wg_from(CLOSED_PAST_THE_SUPPORT)
    a, aa = (wg.grammar.string_of(["a"] * n) for n in (1, 2))
    d = exact_distribution(wg, 2)
    assert (d.probabilities, d.residual) == ({a: 0.5}, 0.5)
    assert string_probability(wg, aa) == 0.0
    assert string_probability(wg, a) == 0.5


# B -> B renormalizes to 1.0 in floats, though the exact rational weights
# leave the cycle with probability 1e-20: 1 - q_BB would be 0.
FLOAT_SINGULAR = (
    "start: S\nterminals: a\nnonterminals: S B\n"
    "S -> B\nB -> B p=1e20\nB -> a\n"
)


def test_a_self_loop_that_rounds_to_one_keeps_its_outflow():
    wg = wg_from(FLOAT_SINGULAR)
    a = wg.grammar.string_of(["a"])
    assert exact_distribution(wg, 1) == StringDistribution({a: 1.0}, 1, 0.0)
    assert rational.exact_distribution(wg, 1) == ({a: 1}, 0)
    # The dense oracle builds its diagonal as 1 - q_BB, and refuses.
    with pytest.raises(ValueError, match="trapped"):
        stochastic_oracle.exact_distribution(wg, 1)


def test_a_singular_solve_raises_value_error(monkeypatch):
    def singular(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(ValueError, match="singular"):
        exact_distribution(wg_from(TWO_IN_A_CYCLE), 2)


# The layer of length 2 is one closed cycle, and S reaches it only by weight 0.
UNREACHED_LAYER_TRAP = (
    "start: S\nterminals: a\nnonterminals: S A B\n"
    "S -> a p=1\nS -> A A p=0\nA -> B\nB -> A\n"
)


def test_a_layer_without_mass_may_hold_a_closed_cycle():
    wg = wg_from(UNREACHED_LAYER_TRAP)
    a, aa = (wg.grammar.string_of(["a"] * n) for n in (1, 2))
    # One sweep at bound 2, which holds the layer of length 2 and its cycle.
    assert exact_distribution(wg, 2) == StringDistribution({a: 1.0}, 2, 0.0)
    assert string_probability(wg, aa) == stochastic_oracle.string_probability(wg, aa) == 0.0
    assert rational.absorption(wg, 2) == {a: 1}


# Two cycles of length 2: b A <-> b B receives half the mass, while the
# cycles below B B, which S reaches only by weight 0, receive none.
CYCLE_WITHOUT_INFLOW = (
    "start: S\nterminals: a b\nnonterminals: S A B\n"
    "S -> a\nS -> b A\nS -> B B p=0\nB -> A\nA -> B\nA -> a\n"
)
# A <-> B receives half the mass, but every way out of it leaves bound 2,
# so its mass reaches no string.
DEAD_CYCLE = (
    "start: S\nterminals: a b\nnonterminals: S A B\n"
    "S -> a\nS -> A\nA -> B\nB -> A\nA -> b b b\nB -> b b b\n"
)


@pytest.mark.parametrize(
    "text, sizes", [(CYCLE_WITHOUT_INFLOW, [2]), (DEAD_CYCLE, [])], ids=["no inflow", "dead"]
)
def test_a_cycle_without_inflow_gets_no_solve(monkeypatch, text, sizes):
    wg = wg_from(text)
    want = stochastic_oracle.exact_distribution(wg, 2)
    solved: list[int] = []
    solve = np.linalg.solve

    def counted(a, b):
        solved.append(len(b))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counted)
    assert exact_distribution(wg, 2) == want
    assert solved == sizes


@st.composite
def digraphs(draw):
    """Up to 12 ids, some skipped, with edges (self-loops and repeats too)
    among the rest, as ``_sweep`` gives ``_components`` its ids and ``inner``."""
    n = draw(st.integers(0, 12))
    skipped = draw(st.sets(st.integers(0, 11)))
    ids = [i for i in range(n) if i not in skipped]
    inner: list[list[int]] = [[] for _ in range(n)]
    if ids:
        for v, w in draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)))):
            inner[v].append(w)
    return ids, inner


@given(digraphs())
def test_components_are_strongly_connected_and_sources_first(graph):
    ids, inner = graph
    components = lcsg.stochastic._components(ids, inner)
    assert sorted(f for c in components for f in c) == ids
    assert all(c == sorted(c) for c in components)
    place = {f: k for k, c in enumerate(components) for f in c}
    # Brute-force closure: the ids each id reaches by zero or more edges.
    reaches = {v: {v} for v in ids}
    for _ in ids:
        for v in ids:
            reaches[v] |= {x for w in inner[v] for x in reaches[w]}
    for v in ids:
        for w in ids:
            assert (place[v] == place[w]) == (w in reaches[v] and v in reaches[w])
        for w in inner[v]:
            assert place[v] <= place[w]


def test_negative_bounds_and_step_limits_are_refused(loop):
    b = loop.grammar.string_of(["b"])
    with pytest.raises(ValueError, match="max_steps"):
        sample_derivation(loop, 0, max_steps=-1)
    with pytest.raises(ValueError, match="max_len"):
        exact_distribution(loop, -1)
    with pytest.raises(ValueError, match="fuel"):
        string_probability(loop, b, fuel=-1)
    with pytest.raises(ValueError, match="fuel"):
        exact_distribution(loop, 2, fuel=-1)
    # Zero stays valid.
    assert sample_derivation(loop, 0, max_steps=0).truncated
    assert exact_distribution(loop, 0).probabilities == {}
    with pytest.raises(FuelExhaustedError):
        string_probability(loop, b, fuel=0)


def test_the_sampler_lists_rewrites_once_per_step(loop, monkeypatch):
    calls = count_calls(monkeypatch)
    for seed in range(20):
        sampled = sample_derivation(loop, seed, max_steps=5)
        assert calls == ["_rewrites"] * len(sampled.trace.steps)
        calls.clear()


def test_empirical_frequencies_approach_exact_probabilities(loop):
    counts: dict[str, int] = {}
    n = 4000
    truncated = 0
    for seed in range(n):
        sampled = sample_derivation(loop, seed, max_steps=3)
        if sampled.truncated:
            truncated += 1
            continue
        counts[str(sampled.trace.final)] = counts.get(str(sampled.trace.final), 0) + 1
    d = exact_distribution(loop, 3)
    empirical = StringDistribution(
        {w: counts.get(str(w), 0) / n for w in d.probabilities},
        bound=3,
        residual=truncated / n,
    )
    assert total_variation(d, empirical) < 0.02
