"""Weighted derivation sampling and exact string probabilities."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import lcsg.derivation
import lcsg.stochastic
from lcsg import (
    BoundMismatchError,
    DeadEndError,
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


def test_trapped_cycle_mass_is_an_error():
    wg = wg_from(
        "start: S\nterminals: a\nnonterminals: S A B\nS -> A\nA -> B\nB -> A\nS -> a\n"
    )
    with pytest.raises(ValueError, match="trapped"):
        string_probability(wg, wg.grammar.string_of(["a"]))


def test_erasure_into_nonterminal_forms_is_refused():
    wg = wg_from(
        "start: S\nterminals: a\nnonterminals: S A\nS -> A A\nA -> a\nA -> _\n"
    )
    with pytest.raises(ValueError, match="erasure"):
        string_probability(wg, wg.grammar.string_of(["a"]))


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
from lcsg import WeightedGrammar, exact_distribution, parse_grammar
for text, bound in ((open(sys.argv[1]).read(), 8), (sys.argv[2], 1)):
    print(repr(exact_distribution(WeightedGrammar.from_grammar(parse_grammar(text)), bound)))
"""


def test_exact_distributions_are_identical_across_hash_seeds():
    outputs = outputs_across_hash_seeds(
        _EXACT_DISTRIBUTIONS, str(DATA / "crossserial.grammar"), UNIT_CYCLE
    )
    assert len(outputs) == 1, outputs
    crossserial, unit_cycle = outputs.pop().splitlines()
    assert "<a b c d>: 0.25" in crossserial
    assert "{<a>: 1.0}" in unit_cycle


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
    "name, bound", [("crossserial.grammar", 10), ("abc.grammar", 12), ("loop.grammar", 16)]
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
