"""Extracting, checking, and replaying a run's dynamic production sequence,
plus writing finite-state predictors back down as weighted grammars."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from lcsg import (
    B_DYN,
    DynamicNonterminal,
    DynamicProduction,
    END,
    FormCheckStatus,
    NonconformingRecordError,
    Production,
    PredictorState,
    ReplayMismatchError,
    StateBudgetExceededError,
    SymbolString,
    UnsupportedInfiniteStateError,
    WeightedGrammar,
    build_trace_report,
    check_left_cs_form,
    check_weak_equivalence,
    classify_grammar,
    classify_production,
    exact_distribution,
    extract_productions,
    generate,
    grammar_predictor,
    induce_grammar,
    is_right_linear,
    nonterminal,
    lambda_free_skeleton,
    ngram_train,
    parse_grammar,
    render_grammar,
    replay,
    sample_derivation,
    string_probability,
    terminal,
    toy_attention_predictor,
)
from lcsg.autoregressive import GenerationRecord, GenerationStep
from lcsg.grammar import ProductionClass
from conftest import random_left_cs_grammar


def toks(*names: str) -> SymbolString:
    return SymbolString(tuple(terminal(n) for n in names))


def bigram_pred():
    return ngram_train([["a", "b", "a", "b"]], 1)


def bigram_run(prompt=(), policy="greedy", seed=0, max_t=6):
    return generate(bigram_pred(), toks(*prompt), policy, seed=seed, max_t=max_t)


# --- dynamic symbols ---


def test_dynamic_nonterminal_identity_ignores_the_step_index():
    s = PredictorState("ngram", ("a",))
    assert DynamicNonterminal(s, 0) == DynamicNonterminal(s, 7)
    assert DynamicNonterminal(s, 0) != DynamicNonterminal(PredictorState("ngram", ()), 0)


def test_dynamic_nonterminal_repr_is_a_short_hash():
    nt = DynamicNonterminal(PredictorState("ngram", ("a",)), 3)
    assert repr(nt) == f"A#{nt.short_id}"
    assert len(nt.short_id) == 8
    int(nt.short_id, 16)  # hex
    assert repr(B_DYN) == "B_dyn"


def test_dynamic_production_validates_its_kind():
    with pytest.raises(ValueError):
        DynamicProduction("opening", (B_DYN,), ())


# --- extraction ---


def test_extraction_shape_counts_and_kinds():
    rec = bigram_run(prompt=("a",), max_t=3)
    productions = extract_productions(rec)
    assert len(productions) == len(rec.steps) + 2
    assert [p.kind for p in productions] == (
        ["initial"] + ["interior"] * len(rec.steps) + ["terminal"]
    )


def test_extraction_of_a_zero_step_run():
    rec = bigram_run(prompt=("a",), max_t=0)
    initial, terminal_p = extract_productions(rec)
    a0 = DynamicNonterminal(rec.initial_state, 0)
    assert initial.lhs == (B_DYN,)
    assert initial.rhs == tuple(rec.prompt) + (a0,)
    assert terminal_p.lhs == (a0,)
    assert terminal_p.rhs == ()


def test_interior_productions_carry_the_growing_context():
    rec = bigram_run(prompt=("a",), max_t=3)
    productions = extract_productions(rec)
    alpha = tuple(rec.prompt)
    for i, p in enumerate(productions[1:-1]):
        assert p.lhs[:-1] == alpha
        assert isinstance(p.lhs[-1], DynamicNonterminal)
        assert p.rhs[: len(alpha)] == alpha
        assert p.rhs[len(alpha)] == rec.steps[i].token
        assert isinstance(p.rhs[-1], DynamicNonterminal)
        alpha = alpha + (rec.steps[i].token,)


def test_extraction_nonterminals_mirror_the_recorded_states():
    rec = bigram_run(max_t=4)
    productions = extract_productions(rec)
    assert productions[0].rhs[-1] == DynamicNonterminal(rec.initial_state, 0)
    for i, step in enumerate(rec.steps):
        assert productions[1 + i].rhs[-1] == DynamicNonterminal(step.state_after, i + 1)
    assert productions[-1].lhs[0] == DynamicNonterminal(rec.steps[-1].state_after, 0)


def test_extraction_refuses_nonconforming_records():
    rec = bigram_run(max_t=4)
    truncated = GenerationRecord(
        prompt=rec.prompt,
        steps=rec.steps,
        final=rec.final,
        termination=rec.termination,
        seed=rec.seed,
        policy=rec.policy,
        initial_state=rec.initial_state,
        conforming=False,
    )
    with pytest.raises(NonconformingRecordError):
        extract_productions(truncated)


def test_extraction_refuses_broken_state_chains():
    rec = bigram_run(max_t=4)
    wrong = PredictorState("ngram", ("zzz",))
    steps = list(rec.steps)
    steps[1] = GenerationStep(wrong, steps[1].token, steps[1].state_after)
    broken = GenerationRecord(
        prompt=rec.prompt,
        steps=tuple(steps),
        final=rec.final,
        termination=rec.termination,
        seed=rec.seed,
        policy=rec.policy,
        initial_state=rec.initial_state,
    )
    with pytest.raises(ValueError, match="chain"):
        extract_productions(broken)


# --- form checking ---


def test_form_checks_on_a_real_run():
    rec = bigram_run(prompt=("a",), max_t=4)
    productions = extract_productions(rec)
    checks = [check_left_cs_form(p) for p in productions]
    assert all(c.status is FormCheckStatus.PASS for c in checks[:-1])
    assert checks[-1].status is FormCheckStatus.EXEMPT_TERMINAL


def test_form_check_failure_reasons():
    s1 = DynamicNonterminal(PredictorState("ngram", ()), 0)
    s2 = DynamicNonterminal(PredictorState("ngram", ("a",)), 1)
    a, b = terminal("a"), terminal("b")

    no_tail = DynamicProduction("interior", (s1, a), (a, b, s2))
    assert check_left_cs_form(no_tail).reason == "no_trailing_nonterminal"

    changed = DynamicProduction("interior", (a, s1), (b, a, s2))
    assert check_left_cs_form(changed).reason == "left_context_changed"

    empty = DynamicProduction("interior", (a, s1), (a,))
    assert check_left_cs_form(empty).reason == "empty_remainder"

    ok = DynamicProduction("interior", (a, s1), (a, b, s2))
    check = check_left_cs_form(ok)
    assert check.status is FormCheckStatus.PASS and check.reason is None


FORM_SYMBOLS = st.sampled_from(
    [terminal("a"), terminal("b"), nonterminal("A"), nonterminal("B")]
)


@given(
    lhs=st.lists(FORM_SYMBOLS, min_size=1, max_size=3).filter(
        lambda lhs: any(x.is_nonterminal for x in lhs)
    ),
    rhs=st.lists(FORM_SYMBOLS, max_size=4),
)
def test_classifier_and_form_check_apply_one_rule(lhs, rhs):
    left_cs = ProductionClass.LEFT_CS in classify_production(
        Production(SymbolString(tuple(lhs)), SymbolString(tuple(rhs)))
    )
    check = check_left_cs_form(DynamicProduction("interior", lhs, rhs))
    assert left_cs == (check.status is FormCheckStatus.PASS)


# --- replay ---


def test_replay_rebuilds_the_final_string():
    for prompt, policy, seed in ((), "greedy", 0), (("a",), "sample", 5), (("a", "b"), "sample", 9):
        rec = bigram_run(prompt=prompt, policy=policy, seed=seed, max_t=6)
        assert replay(extract_productions(rec)) == rec.final


def test_replay_reports_the_first_mismatching_index():
    rec = bigram_run(prompt=("a",), max_t=4)
    productions = list(extract_productions(rec))
    corrupt = DynamicProduction(
        "interior", productions[2].lhs, (terminal("b"),) + productions[2].rhs[1:]
    )
    productions[2] = corrupt
    with pytest.raises(ReplayMismatchError) as info:
        replay(productions)
    assert info.value.index == 3  # the production after the corrupted right side


def test_replay_rejects_leftover_nonterminals():
    rec = bigram_run(max_t=3)
    productions = extract_productions(rec)[:-1]  # drop the closing production
    with pytest.raises(ReplayMismatchError):
        replay(productions)



def test_replay_refuses_a_closing_production_off_the_tail():
    productions = list(extract_productions(bigram_run(max_t=3)))
    stray = DynamicNonterminal(PredictorState("ngram", ("z",)), 9)
    productions[-1] = DynamicProduction("terminal", (stray,), ())
    with pytest.raises(ReplayMismatchError, match="closing left side") as info:
        replay(productions)
    assert info.value.index == len(productions) - 1


# --- the one-call report ---


def test_build_trace_report_on_a_conforming_run():
    rec = bigram_run(prompt=("a",), policy="sample", seed=13, max_t=8)
    report = build_trace_report(rec)
    assert report.conforming
    assert report.replay_result == rec.final
    assert report.seed == rec.seed
    assert report.policy == rec.policy
    assert report.termination == rec.termination
    assert len(report.productions) == len(rec.steps) + 2
    statuses = [c.status for c in report.form_checks]
    assert statuses.count(FormCheckStatus.EXEMPT_TERMINAL) == 1
    assert statuses[-1] is FormCheckStatus.EXEMPT_TERMINAL



def test_a_report_whose_replay_leaves_a_nonterminal_does_not_conform():
    prompt = SymbolString((nonterminal("X"),))
    rec = GenerationRecord(
        prompt, (), prompt, "END_sampled", 0, "greedy", PredictorState("ngram", ())
    )
    report = build_trace_report(rec)
    assert report.replay_result is None
    assert not report.conforming


# --- induction ---

BIGRAM_INDUCED = """start: B
terminals: a b
nonterminals: B s_BOS s_a s_b
B -> s_BOS p=1.0
s_BOS -> a s_a p=1.0
s_a -> b s_b p=1.0
s_b -> a s_a p=0.5
s_b -> _ p=0.5
"""


def test_induced_bigram_grammar_matches_the_hand_table():
    wg = induce_grammar(bigram_pred(), vocab=("a", "b"), max_context_len=6)
    assert render_grammar(wg.grammar) == BIGRAM_INDUCED
    assert wg.weights == (1.0, 1.0, 1.0, 0.5, 0.5)


def test_induced_grammar_reproduces_exact_probabilities():
    geo = WeightedGrammar.from_grammar(
        parse_grammar(
            "start: S\nterminals: a\nnonterminals: S\nS -> a S p=0.3\nS -> a p=0.7\n"
        )
    )
    induced = induce_grammar(grammar_predictor(geo), vocab=("a",), max_context_len=8)
    verdict = check_weak_equivalence(geo.grammar, induced.grammar, max_len=8)
    assert verdict.equivalent
    for n in range(1, 9):
        p_src = string_probability(geo, geo.grammar.string_of(["a"] * n))
        p_ind = string_probability(induced, induced.grammar.string_of(["a"] * n))
        assert p_ind == pytest.approx(p_src, abs=1e-12)


def horizon_source() -> WeightedGrammar:
    """``a b`` and ``a b c``, each with probability 0.5."""
    return WeightedGrammar.from_grammar(
        parse_grammar(
            "start: S\nterminals: a b c\nnonterminals: S A C\n"
            "S -> a A\nA -> b\nA -> b C\nC -> c\n"
        )
    )


def test_a_string_ending_in_a_horizon_state_gets_its_exact_probability():
    source = horizon_source()
    induced = induce_grammar(grammar_predictor(source), max_context_len=2)
    p_src = string_probability(source, source.grammar.string_of(["a", "b"]))
    p_ind = string_probability(induced, induced.grammar.string_of(["a", "b"]))
    assert p_src == 0.5
    assert p_ind == pytest.approx(p_src, abs=1e-12)


def test_sampling_runs_past_the_horizon_into_truncation():
    induced = induce_grammar(grammar_predictor(horizon_source()), max_context_len=2)
    # Four steps derive a b; a draw past the horizon loops in esc until the step cap.
    draws = [sample_derivation(induced, seed, max_steps=50) for seed in range(200)]
    truncated = sum(d.truncated for d in draws)
    assert 0 < truncated < 200
    exact = exact_distribution(induced, 2)
    assert {str(w): p for w, p in exact.probabilities.items()} == {"a b": pytest.approx(0.5)}
    assert exact.residual == pytest.approx(0.5)


def chain_probability(predictor, names: tuple[str, ...]) -> float:
    """The product of the predictor's conditionals along ``names``, END included.

    It stops at the first zero: the predictor refuses a context it cannot produce.
    """
    dist, state = predictor.next_distribution(predictor.initial_state, SymbolString())
    p = 1.0
    for i, name in enumerate(names):
        p *= dist.probability(terminal(name))
        if p == 0.0:
            return 0.0
        dist, state = predictor.next_distribution(state, toks(*names[: i + 1]))
    return p * dist.probability(END)


def assert_induction_is_exact(predictor, vocab, horizon, source=None):
    """Every string up to ``horizon`` gets the chain product of ``predictor``'s
    conditionals from the induced grammar, and from ``source`` if given."""
    induced = induce_grammar(predictor, vocab=vocab, max_context_len=horizon)
    weighed = [induced] if source is None else [induced, source]
    got = [
        {w.names(): p for w, p in exact_distribution(wg, horizon).probabilities.items()}
        for wg in weighed
    ]
    for n in range(horizon + 1):
        for names in itertools.product(vocab, repeat=n):
            chain = chain_probability(predictor, names)
            for probabilities in got:
                assert probabilities.get(names, 0.0) == pytest.approx(chain, abs=1e-12), names


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10_000), horizon=st.integers(1, 4))
def test_induction_from_a_grammar_is_exact_on_every_string_up_to_the_horizon(seed, horizon):
    source = random_left_cs_grammar(seed)
    vocab = tuple(sorted(s.name for s in source.grammar.terminals))
    assert_induction_is_exact(grammar_predictor(source), vocab, horizon, source)


@settings(max_examples=50, deadline=None)
@given(
    corpus=st.lists(st.lists(st.sampled_from("ab"), max_size=5), min_size=1, max_size=4),
    k=st.integers(0, 3),
    horizon=st.integers(1, 4),
)
def test_induction_from_a_kgram_is_exact_on_every_string_up_to_the_horizon(corpus, k, horizon):
    assert_induction_is_exact(ngram_train(corpus, k, vocab=("a", "b")), ("a", "b"), horizon)


def test_induction_refuses_infinite_state_predictors():
    toy = toy_attention_predictor(seed=0, embed_dim=2, vocab=("a",))
    with pytest.raises(UnsupportedInfiniteStateError):
        induce_grammar(toy)


def test_induction_respects_the_state_budget():
    with pytest.raises(StateBudgetExceededError):
        induce_grammar(bigram_pred(), vocab=("a", "b"), state_budget=2)


def test_induction_requires_vocab_coverage():
    with pytest.raises(ValueError, match="cover"):
        induce_grammar(bigram_pred(), vocab=("a",), max_context_len=4)


def test_induction_requires_vocab_coverage_at_the_horizon():
    # The start state is a horizon state at horizon 0, and its token mass
    # escapes through a vocabulary terminal.
    with pytest.raises(ValueError, match="cover"):
        induce_grammar(bigram_pred(), vocab=("b",), max_context_len=0)



@pytest.mark.parametrize(
    "kwargs, message",
    [({"max_context_len": -1}, "max_context_len"), ({"state_budget": 0}, "state_budget")],
)
def test_induction_refuses_bad_bounds(kwargs, message):
    with pytest.raises(ValueError, match=message):
        induce_grammar(bigram_pred(), **kwargs)


@pytest.mark.parametrize(
    "corpus, start, after_a",
    [
        ([["a", "B"], ["s_a", "a"]], "B_2", "s_a_2"),
        ([["a", "B", "B_2"], ["s_a", "s_a_2", "a"]], "B_3", "s_a_3"),
    ],
)
def test_induced_names_skip_every_name_already_used(corpus, start, after_a):
    wg = induce_grammar(ngram_train(corpus, 1), max_context_len=3)
    g = wg.grammar
    assert g.start.name == start
    after = [p.rhs[1].name for p in g.productions if p.rhs and p.rhs[0] == terminal("a")]
    assert set(after) == {after_a}
    terminal_names = {t.name for t in g.terminals}
    assert not terminal_names & {n.name for n in g.nonterminals}


def test_lambda_free_skeleton_is_right_linear_regular():
    wg = induce_grammar(bigram_pred(), vocab=("a", "b"), max_context_len=6)
    skeleton = lambda_free_skeleton(wg)
    assert classify_grammar(skeleton) is ProductionClass.REGULAR
    assert is_right_linear(skeleton)
    assert skeleton.start.name == "s_BOS"
    assert all(len(p.rhs) > 0 for p in skeleton.productions)


# --- weak equivalence ---


def test_weak_equivalence_identity(abc):
    verdict = check_weak_equivalence(abc, abc, max_len=7)
    assert verdict.equivalent
    assert verdict.counterexample is None
    assert verdict.max_len == 7


def test_weak_equivalence_counterexample_is_minimal_and_symmetric():
    g1 = parse_grammar("start: S\nterminals: a b\nnonterminals: S\nS -> b\nS -> a a\n")
    g2 = parse_grammar("start: S\nterminals: a b\nnonterminals: S\nS -> b\n")
    forward = check_weak_equivalence(g1, g2, max_len=4)
    backward = check_weak_equivalence(g2, g1, max_len=4)
    assert not forward.equivalent and not backward.equivalent
    assert str(forward.counterexample) == "a a"
    assert forward.counterexample == backward.counterexample


def test_weak_equivalence_needs_one_alphabet():
    g1 = parse_grammar("start: S\nterminals: a\nnonterminals: S\nS -> a\n")
    g2 = parse_grammar("start: S\nterminals: b\nnonterminals: S\nS -> b\n")
    with pytest.raises(ValueError):
        check_weak_equivalence(g1, g2, max_len=3)
