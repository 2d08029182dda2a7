"""The three predictor families: exact grammar beliefs, k-grams, toy attention."""

from __future__ import annotations

import math

import numpy as np
import pytest

from lcsg import (
    DeadEndError,
    EmptyCorpusError,
    Grammar,
    ImpossibleContextError,
    NotLeftLinearizableError,
    SymbolString,
    UnknownTokenError,
    WeightedGrammar,
    ZeroMassError,
    grammar_predictor,
    ngram_train,
    nonterminal,
    parse_grammar,
    read_corpus,
    read_vocab,
    terminal,
    toy_attention_predictor,
)


def toks(*names: str) -> SymbolString:
    return SymbolString(tuple(terminal(n) for n in names))


def wg_from(text: str) -> WeightedGrammar:
    return WeightedGrammar.from_grammar(parse_grammar(text))


def entries_of(predictor, context: SymbolString):
    dist, _ = predictor.next_distribution(predictor.initial_state, context)
    return {repr(t): p for t, p in dist.entries}


# --- grammar predictor ---

GEOMETRIC = "start: S\nterminals: a\nnonterminals: S\nS -> a S p=0.3\nS -> a p=0.7\n"


def test_geometric_grammar_distributions():
    pred = grammar_predictor(wg_from(GEOMETRIC))
    assert entries_of(pred, toks()) == {"a:T": 1.0, "<END>": 0.0}
    assert entries_of(pred, toks("a")) == {"a:T": pytest.approx(0.3), "<END>": pytest.approx(0.7)}
    assert entries_of(pred, toks("a", "a", "a")) == {
        "a:T": pytest.approx(0.3),
        "<END>": pytest.approx(0.7),
    }


def test_initial_state_is_the_empty_context_state():
    pred = grammar_predictor(wg_from(GEOMETRIC))
    _, s0 = pred.next_distribution(pred.initial_state, SymbolString(()))
    assert s0 == pred.initial_state
    assert pred.family == "grammar"
    assert pred.finite_state


def test_equal_beliefs_collapse_to_one_state():
    # the geometric grammar looks the same after any positive number of a's
    pred = grammar_predictor(wg_from(GEOMETRIC))
    _, s1 = pred.next_distribution(pred.initial_state, toks("a"))
    _, s2 = pred.next_distribution(pred.initial_state, toks("a", "a"))
    _, s3 = pred.next_distribution(pred.initial_state, toks("a", "a", "a"))
    assert s1 == s2 == s3
    assert s1 != pred.initial_state


def test_chain_grammar_is_deterministic_step_by_step(chain):
    pred = grammar_predictor(WeightedGrammar.from_grammar(chain))
    assert entries_of(pred, toks())["a:T"] == 1.0
    assert entries_of(pred, toks("a"))["b:T"] == 1.0
    assert entries_of(pred, toks("a", "b"))["c:T"] == 1.0
    assert entries_of(pred, toks("a", "b", "c"))["<END>"] == 1.0


def test_left_context_gates_the_expansion():
    # A rewrites differently under a- and b-contexts; the belief must track it
    wg = wg_from(
        "start: S\nterminals: a b x y\nnonterminals: S A\n"
        "S -> a A\nS -> b A\na A -> a x\nb A -> b y\n"
    )
    pred = grammar_predictor(wg)
    assert entries_of(pred, toks("a"))["x:T"] == 1.0
    assert entries_of(pred, toks("b"))["y:T"] == 1.0


def test_non_left_cs_grammars_are_refused(abc):
    with pytest.raises(ValueError, match="not left context-sensitive"):
        grammar_predictor(WeightedGrammar.from_grammar(abc))


def test_invalid_grammars_are_refused():
    g = parse_grammar("start: S\nterminals: a\nnonterminals: S\nS -> a\n")
    undeclared_start = Grammar(g.nonterminals, g.terminals, nonterminal("T"), g.productions)
    with pytest.raises(ValueError, match="invalid grammar: start symbol"):
        grammar_predictor(WeightedGrammar.from_grammar(undeclared_start))


def test_nonterminal_left_of_terminal_fails_lazily():
    # the bad shape sits behind one token, so construction cannot see it
    wg = wg_from(
        "start: S\nterminals: a\nnonterminals: S A B\nS -> a A\na A -> a B a\n"
    )
    pred = grammar_predictor(wg)
    assert entries_of(pred, toks())["a:T"] == 1.0
    with pytest.raises(NotLeftLinearizableError):
        pred.next_distribution(pred.initial_state, toks("a"))


def test_nonterminal_left_of_terminal_at_the_start_fails_eagerly():
    with pytest.raises(NotLeftLinearizableError):
        grammar_predictor(
            wg_from("start: S\nterminals: a\nnonterminals: S B\nS -> B a\nB -> a\n")
        )


def test_impossible_context_is_reported(chain):
    pred = grammar_predictor(WeightedGrammar.from_grammar(chain))
    with pytest.raises(ImpossibleContextError):
        pred.next_distribution(pred.initial_state, chain.string_of(["b"]))


def test_dead_end_when_no_production_matches_the_context():
    wg = wg_from("start: S\nterminals: a b\nnonterminals: S A\nS -> a A\nb A -> b a\n")
    pred = grammar_predictor(wg)
    assert entries_of(pred, toks())["a:T"] == 1.0
    with pytest.raises(DeadEndError):
        pred.next_distribution(pred.initial_state, toks("a"))


def test_zero_mass_candidates_are_an_error():
    wg = wg_from(
        "start: S\nterminals: a b x y\nnonterminals: S A\n"
        "S -> a A\na A -> a x p=0\nb A -> b y\n"
    )
    pred = grammar_predictor(wg)
    with pytest.raises(ZeroMassError):
        pred.next_distribution(pred.initial_state, toks("a"))


def test_unit_production_cycles_are_capped():
    wg = wg_from("start: S\nterminals: a\nnonterminals: S A\nS -> A\nA -> S\nS -> a\n")
    with pytest.raises(ValueError, match="did not settle"):
        pred = grammar_predictor(wg)
        pred.next_distribution(pred.initial_state, SymbolString(()))


def test_a_unit_cycle_whose_mass_splits_is_reported():
    wg = wg_from(
        "start: S\nterminals: a p\nnonterminals: S A\n"
        "S -> a A\nA -> S p=0.1\nA -> A p=0.7\n"
    )
    pred = grammar_predictor(wg)
    with pytest.raises(ValueError, match="did not settle"):
        pred.next_distribution(pred.initial_state, toks("a"))


def test_an_acyclic_unit_chain_settles_in_the_last_round():
    # S -> A1 -> ... -> A6 -> a takes one round per table entry, plus one
    # to find nothing pending.
    names = [f"A{i}" for i in range(1, 7)]
    chain = ["S"] + names
    lines = [f"{lhs} -> {rhs}" for lhs, rhs in zip(chain, names)] + ["A6 -> a"]
    text = f"start: S\nterminals: a\nnonterminals: {' '.join(chain)}\n" + "\n".join(lines) + "\n"
    pred = grammar_predictor(wg_from(text))
    assert len(pred._table) == 7
    assert entries_of(pred, toks()) == {"a:T": 1.0, "<END>": 0.0}


def test_grammar_predictor_rejects_unknown_tokens():
    pred = grammar_predictor(wg_from(GEOMETRIC))
    with pytest.raises(UnknownTokenError):
        pred.next_distribution(pred.initial_state, toks("q"))


# --- k-gram predictor ---


def test_bigram_table_matches_hand_counts():
    corpus = [["a", "b", "a", "b"]]
    pred = ngram_train(corpus, 1)
    assert entries_of(pred, toks()) == {"a:T": 1.0, "b:T": 0.0, "<END>": 0.0}
    assert entries_of(pred, toks("a")) == {"a:T": 0.0, "b:T": 1.0, "<END>": 0.0}
    assert entries_of(pred, toks("b")) == {"a:T": 0.5, "b:T": 0.0, "<END>": 0.5}


def test_state_is_the_context_suffix():
    pred = ngram_train([["a", "b", "a", "b"]], 1)
    _, s = pred.next_distribution(pred.initial_state, toks("b", "b"))
    assert s.encoding == ("b",)
    assert s.family == "ngram"
    # the two contexts share a suffix, so they share a state and a distribution
    assert entries_of(pred, toks("b", "b")) == entries_of(pred, toks("b"))


def test_state_is_the_whole_context_while_it_is_shorter_than_k():
    pred = ngram_train([["a", "b", "c"]], 3)
    _, s = pred.next_distribution(pred.initial_state, toks("a", "b"))
    assert s.encoding == ("a", "b")
    assert entries_of(pred, toks("a", "b")) == {
        "a:T": 0.0,
        "b:T": 0.0,
        "c:T": 1.0,
        "<END>": 0.0,
    }


def test_unseen_context_falls_back_to_uniform():
    pred = ngram_train([["a", "b", "a", "b"]], 2)
    got = entries_of(pred, toks("b", "b"))
    third = pytest.approx(1.0 / 3.0)
    assert got == {"a:T": third, "b:T": third, "<END>": third}


def test_zero_gram_is_the_overall_mle():
    pred = ngram_train([["a", "b", "a", "b"]], 0)
    assert entries_of(pred, toks("b", "a", "b")) == {
        "a:T": pytest.approx(0.4),
        "b:T": pytest.approx(0.4),
        "<END>": pytest.approx(0.2),
    }
    _, s = pred.next_distribution(pred.initial_state, toks("a"))
    assert s.encoding == ()


def test_ngram_training_errors():
    with pytest.raises(EmptyCorpusError):
        ngram_train([], 1)
    with pytest.raises(UnknownTokenError):
        ngram_train([["a", "q"]], 1, vocab=["a", "b"])
    with pytest.raises(ValueError):
        ngram_train([["a"]], -1)


def test_ngram_rejects_unknown_context_tokens():
    pred = ngram_train([["a", "b"]], 1)
    with pytest.raises(UnknownTokenError):
        pred.next_distribution(pred.initial_state, toks("z"))


def test_explicit_vocab_fixes_the_index_order():
    pred = ngram_train([["a"]], 1, vocab=["b", "a"])
    names = [s.name for s in pred.vocabulary]
    assert names == ["b", "a"]


# --- toy attention ---


def reference_attention(seed, embed_dim, vocab, context_names):
    """Independent forward pass, written long-hand."""
    n, d = len(vocab), embed_dim
    rng = np.random.default_rng(seed)
    emb = rng.uniform(-0.5, 0.5, (n, d))
    bos = rng.uniform(-0.5, 0.5, d)
    wq = rng.uniform(-0.5, 0.5, (d, d))
    wk = rng.uniform(-0.5, 0.5, (d, d))
    wv = rng.uniform(-0.5, 0.5, (d, d))
    wo = rng.uniform(-0.5, 0.5, (d, n + 1))

    def pos(p):
        row = []
        for j in range(d):
            angle = p / (10000.0 ** ((j - (j % 2)) / d))
            row.append(math.sin(angle) if j % 2 == 0 else math.cos(angle))
        return np.array(row)

    index = {name: i for i, name in enumerate(vocab)}
    rows = [bos + pos(0)]
    for i, name in enumerate(context_names, start=1):
        rows.append(emb[index[name]] + pos(i))
    x = np.stack(rows)
    q, k, v = x @ wq, x @ wk, x @ wv
    out = None
    for i in range(len(rows)):
        scores = [float(q[i] @ k[j]) / math.sqrt(d) for j in range(i + 1)]
        m = max(scores)
        exps = [math.exp(sc - m) for sc in scores]
        total = sum(exps)
        attn = [e / total for e in exps]
        out = sum(attn[j] * v[j] for j in range(i + 1))
    logits = out @ wo
    m = float(max(logits))
    exps = [math.exp(float(z) - m) for z in logits]
    total = sum(exps)
    return [e / total for e in exps]


@pytest.mark.parametrize("context", [(), ("a",), ("a", "b", "a"), ("b",) * 7])
def test_attention_matches_the_reference_forward_pass(context):
    vocab = ("a", "b")
    pred = toy_attention_predictor(seed=5, embed_dim=4, vocab=vocab)
    dist, state = pred.next_distribution(pred.initial_state, toks(*context))
    expected = reference_attention(5, 4, vocab, context)
    got = [p for _, p in dist.entries]
    assert got == pytest.approx(expected, abs=1e-6)
    assert state.encoding == tuple(context)


def test_attention_probabilities_are_strictly_positive():
    pred = toy_attention_predictor(seed=0, embed_dim=8, vocab=("a", "b", "c"))
    dist, _ = pred.next_distribution(pred.initial_state, toks("a", "c"))
    assert all(p > 0.0 for _, p in dist.entries)
    assert sum(p for _, p in dist.entries) == pytest.approx(1.0)


def test_attention_is_seed_deterministic_and_seed_sensitive():
    a1 = toy_attention_predictor(seed=9, embed_dim=4, vocab=("a",))
    a2 = toy_attention_predictor(seed=9, embed_dim=4, vocab=("a",))
    b = toy_attention_predictor(seed=10, embed_dim=4, vocab=("a",))
    ctx = toks("a")
    assert entries_of(a1, ctx) == entries_of(a2, ctx)
    assert entries_of(a1, ctx) != entries_of(b, ctx)


def test_attention_position_cap():
    pred = toy_attention_predictor(seed=0, embed_dim=2, vocab=("a",))
    ok = toks(*["a"] * 63)
    pred.next_distribution(pred.initial_state, ok)
    with pytest.raises(ValueError, match="context exceeds"):
        pred.next_distribution(pred.initial_state, toks(*["a"] * 64))


def test_attention_is_declared_infinite_state():
    pred = toy_attention_predictor(seed=0, embed_dim=2, vocab=("a",))
    assert not pred.finite_state
    assert pred.family == "toy_attention"
    with pytest.raises(UnknownTokenError):
        pred.next_distribution(pred.initial_state, toks("z"))
    with pytest.raises(ValueError):
        toy_attention_predictor(seed=0, embed_dim=2, vocab=())
    with pytest.raises(ValueError, match="embed_dim must be >= 1"):
        toy_attention_predictor(seed=0, embed_dim=0, vocab=("a",))


# --- external formats ---


def test_read_corpus_and_vocab():
    assert read_corpus("a b\n\nb\n") == [["a", "b"], [], ["b"]]
    assert read_vocab(" a \n\nb\n") == ("a", "b")
