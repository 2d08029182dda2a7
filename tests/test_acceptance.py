"""The acceptance gate: eight criteria, one test per criterion.

Each test carries its numeric criterion in its name; the terminal summary
prints one ACCEPTANCE line per criterion.  Budgets and tolerances are fixed
here and are not tunable from the command line.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import subprocess
import sys
import time

from lcsg import (
    FormCheckStatus,
    StringDistribution,
    SymbolString,
    WeightedGrammar,
    build_trace_report,
    check_weak_equivalence,
    classify_production,
    derives_bounded,
    enumerate_language,
    exact_distribution,
    extract_productions,
    generate,
    grammar_predictor,
    induce_grammar,
    is_right_linear,
    ngram_train,
    parse_grammar,
    replay,
    sample_derivation,
    string_probability,
    terminal,
    total_variation,
    toy_attention_predictor,
)
from lcsg.cli import dispatch
from conftest import DATA, load_grammar, random_left_cs_grammar

from test_grammar_core import CLASSIFY12_LABELS

# ---------------------------------------------------------------------------
# shared run corpus for criteria 1 and 2

LEFT_CS_TEXT = """start: S
terminals: a b c
nonterminals: S A
S -> a A p=1
a A -> a b A p=1.5
b A -> b c A p=1
b A -> b a p=1
c A -> c b A p=0.5
c A -> c c p=1
"""

NGRAM_CORPUS = [
    ["a", "b", "c"],
    ["a", "b", "a"],
    ["c", "b", "a"],
    ["b", "c"],
]

_RUNS: list = []


def _toks(*names: str) -> SymbolString:
    return SymbolString(tuple(terminal(n) for n in names))


def _build_runs() -> list:
    """1008 generation runs: three families, mixed prompts and policies."""
    runs = []
    families = []

    gp = grammar_predictor(WeightedGrammar.from_grammar(parse_grammar(LEFT_CS_TEXT)))
    families.append((gp, (_toks(), _toks("a"), _toks("a", "b"))))

    np_ = ngram_train(NGRAM_CORPUS, 2, vocab=("a", "b", "c"))
    families.append((np_, (_toks(), _toks("a"), _toks("c", "b"))))

    toy = toy_attention_predictor(seed=1, embed_dim=8, vocab=("a", "b", "c", "d"))
    families.append((toy, (_toks(), _toks("a"), _toks("d", "c"))))

    for predictor, prompts in families:
        for i in range(336):
            prompt = prompts[i % len(prompts)]
            policy = "greedy" if i % 5 == 0 else "sample"
            runs.append(
                generate(predictor, prompt, policy, seed=i, max_t=32)
            )
    return runs


def _runs() -> list:
    if not _RUNS:
        _RUNS.extend(_build_runs())
    return _RUNS


# ---------------------------------------------------------------------------
# 1. extraction form rate


def test_criterion_1_every_interior_production_passes_the_form_check():
    started = time.monotonic()
    runs = _runs()
    assert len(runs) >= 1000
    assert {r.policy for r in runs} == {"greedy", "sample"}
    assert any(len(r.prompt) == 0 for r in runs)

    for rec in runs:
        report = build_trace_report(rec)
        assert len(report.productions) == len(rec.steps) + 2
        statuses = [c.status for c in report.form_checks]
        assert statuses.count(FormCheckStatus.EXEMPT_TERMINAL) == 1
        assert statuses[-1] is FormCheckStatus.EXEMPT_TERMINAL
        assert all(s is FormCheckStatus.PASS for s in statuses[:-1])

    elapsed = time.monotonic() - started
    assert elapsed <= 10.0, f"criterion 1 took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 2. replay fidelity


def test_criterion_2_replay_rebuilds_every_final_string():
    for rec in _runs():
        assert replay(extract_productions(rec)) == rec.final


# ---------------------------------------------------------------------------
# 3. bounded membership against exhaustive enumeration

ABC_AT_9 = {"a b c", "a a b b c c", "a a a b b b c c c"}
CROSS_AT_9 = {
    "a b c d",
    "a a b c c d",
    "a b b c d d",
    "a a a b c c c d",
    "a a b b c c d d",
    "a b b b c d d d",
}


def test_criterion_3_membership_and_enumeration_agree_on_every_string():
    started = time.monotonic()
    for name, pinned in (("abc.grammar", ABC_AT_9), ("crossserial.grammar", CROSS_AT_9)):
        g = load_grammar(name)
        language = enumerate_language(g, 9)
        assert {str(w) for w in language} == pinned, name

        alphabet = sorted(g.terminals, key=lambda s: s.name)
        for n in range(1, 10):
            for combo in itertools.product(alphabet, repeat=n):
                w = SymbolString(combo)
                trace = derives_bounded(g, w)
                assert (trace is not None) == (w in language), (name, str(w))
                if trace is not None:
                    assert trace.final == w

    elapsed = time.monotonic() - started
    assert elapsed <= 60.0, f"criterion 3 took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 4. induction round trip on random grammars


def test_criterion_4_induced_grammars_reproduce_language_and_probabilities():
    for seed in range(5):
        source = random_left_cs_grammar(seed)
        vocab = tuple(sorted(s.name for s in source.grammar.terminals))
        induced = induce_grammar(
            grammar_predictor(source), vocab=vocab, max_context_len=8
        )

        verdict = check_weak_equivalence(source.grammar, induced.grammar, max_len=8)
        assert verdict.equivalent, (seed, str(verdict.counterexample))

        for w in enumerate_language(source.grammar, 8):
            p_src = string_probability(source, w)
            p_ind = string_probability(induced, induced.grammar.string_of(w.names()))
            assert abs(p_src - p_ind) <= 1e-9, (seed, str(w), p_src, p_ind)


# ---------------------------------------------------------------------------
# 5. k-gram induction stays right-linear and small


def test_criterion_5_ngram_induction_is_right_linear_within_the_state_bound():
    corpus = [["a", "b", "a", "b"], ["b", "a"], ["a", "a", "b"]]
    v = 2
    for k in range(4):
        predictor = ngram_train(corpus, k, vocab=("a", "b"))
        induced = induce_grammar(predictor, vocab=("a", "b"), max_context_len=8)
        assert is_right_linear(induced.grammar), k
        assert len(induced.grammar.nonterminals) <= (v + 1) ** k + 1, k


# ---------------------------------------------------------------------------
# 6. sampling converges to the exact distribution


def test_criterion_6_hundred_thousand_samples_land_within_tv_budget(loop):
    assert len(loop.grammar.productions) == 3
    bound = 4
    n = 100_000
    counts: dict[SymbolString, int] = {}
    escaped = 0
    for seed in range(n):
        sampled = sample_derivation(loop, seed)
        w = sampled.trace.final
        if sampled.truncated or len(w) > bound:
            escaped += 1
        else:
            counts[w] = counts.get(w, 0) + 1

    exact = exact_distribution(loop, bound)
    empirical = StringDistribution(
        {w: counts.get(w, 0) / n for w in exact.probabilities},
        bound=bound,
        residual=escaped / n,
    )
    assert total_variation(exact, empirical) <= 0.01


# ---------------------------------------------------------------------------
# 7. command determinism

_COMMANDS = [
    ["validate", "-g", str(DATA / "abc.grammar")],
    ["validate", "-g", str(DATA / "loop.grammar")],
    ["classify", "-g", str(DATA / "classify12.grammar")],
    ["classify", "-g", str(DATA / "crossserial.grammar")],
    ["derive", "-g", str(DATA / "abc.grammar"), "-w", "S"],
    ["derive", "-g", str(DATA / "chain.grammar"), "-w", "a A"],
    ["enumerate", "-g", str(DATA / "abc.grammar"), "--max-len", "9"],
    ["enumerate", "-g", str(DATA / "crossserial.grammar"), "--max-len", "8"],
    ["member", "-g", str(DATA / "abc.grammar"), "-w", "a a b b c c"],
    ["member", "-g", str(DATA / "abc.grammar"), "-w", "a b"],
    ["sample", "-g", str(DATA / "loop.grammar"), "--seed", "0"],
    ["sample", "-g", str(DATA / "loop.grammar"), "--seed", "99"],
    ["generate", "-g", str(DATA / "chain.grammar"), "--seed", "0"],
    ["generate", "--predictor", "ngram", "--corpus", str(DATA / "corpus_abab.txt"),
     "--vocab", str(DATA / "vocab_ab.txt"), "-k", "1", "--policy", "sample", "--seed", "5"],
    ["generate", "--predictor", "toy_attention", "--vocab", str(DATA / "vocab_ab.txt"),
     "--embed-dim", "4", "--policy", "sample", "--seed", "1", "--max-t", "6"],
    ["extract", "--predictor", "ngram", "--corpus", str(DATA / "corpus_abab.txt"),
     "--vocab", str(DATA / "vocab_ab.txt"), "-k", "1", "--policy", "sample", "--seed", "11"],
    ["extract", "-g", str(DATA / "chain.grammar"), "--prompt", "a", "--seed", "2"],
    ["induce", "--predictor", "ngram", "--corpus", str(DATA / "corpus_abab.txt"),
     "--vocab", str(DATA / "vocab_ab.txt"), "-k", "1"],
    ["induce", "--predictor", "ngram", "--corpus", str(DATA / "corpus_abab.txt"),
     "--vocab", str(DATA / "vocab_ab.txt"), "-k", "2"],
    ["equiv", "-g", str(DATA / "abc.grammar"), "--grammar2", str(DATA / "abc.grammar"),
     "--max-len", "7"],
]


def test_criterion_7_twenty_commands_are_byte_identical_across_reruns(capsys):
    assert len(_COMMANDS) == 20

    def run_all():
        digests = []
        for argv in _COMMANDS:
            code = dispatch(argv)
            captured = capsys.readouterr()
            blob = f"{code}\x00{captured.out}\x00{captured.err}".encode()
            digests.append(hashlib.sha256(blob).hexdigest())
        return digests

    assert run_all() == run_all()


_DIGEST_COMMANDS = """
import contextlib, hashlib, io, json, sys
from lcsg.cli import dispatch
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dispatch(argv)
    blob = f"{code}\\x00{out.getvalue()}\\x00{err.getvalue()}".encode()
    print(hashlib.sha256(blob).hexdigest())
"""


def test_criterion_7_twenty_commands_are_byte_identical_across_hash_seeds():
    # One child per hash seed; a fresh process cannot reuse any cache.
    children = [
        subprocess.Popen(
            [sys.executable, "-c", _DIGEST_COMMANDS],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONHASHSEED=seed),
            text=True,
        )
        for seed in ("0", "1", "12345")
    ]
    outputs = []
    for child in children:
        out, err = child.communicate(json.dumps(_COMMANDS), timeout=300)
        assert child.returncode == 0, err
        outputs.append(out)
    assert len(outputs[0].splitlines()) == len(_COMMANDS)
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]


# ---------------------------------------------------------------------------
# 8. classification agreement on the twelve-production fixture


def test_criterion_8_classification_matches_the_hand_labels():
    g = load_grammar("classify12.grammar")
    assert len(g.productions) == 12
    disagreements = [
        (text, classify_production(p), expected)
        for p, (text, expected) in zip(g.productions, CLASSIFY12_LABELS)
        if classify_production(p) != expected
    ]
    assert disagreements == []
