"""Extracting, checking, and replaying a run's dynamic production sequence,
plus writing finite-state predictors back down as weighted grammars."""

from __future__ import annotations

import pytest

from lcsg import (
    B_DYN,
    DynamicNonterminal,
    DynamicProduction,
    FormCheckStatus,
    NonconformingRecordError,
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
    extract_productions,
    generate,
    grammar_predictor,
    induce_grammar,
    is_right_linear,
    lambda_free_skeleton,
    ngram_train,
    parse_grammar,
    render_grammar,
    replay,
    string_probability,
    terminal,
    toy_attention_predictor,
)
from lcsg.autoregressive import GenerationRecord, GenerationStep
from lcsg.grammar import ProductionClass


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


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP.md item 2: a string ending in a state first reached at "
    "the horizon gets its prefix probability",
)
def test_a_string_ending_in_a_horizon_state_gets_its_exact_probability():
    source = WeightedGrammar.from_grammar(
        parse_grammar(
            "start: S\nterminals: a b c\nnonterminals: S A C\n"
            "S -> a A\nA -> b\nA -> b C\nC -> c\n"
        )
    )
    induced = induce_grammar(grammar_predictor(source), max_context_len=2)
    p_src = string_probability(source, source.grammar.string_of(["a", "b"]))
    p_ind = string_probability(induced, induced.grammar.string_of(["a", "b"]))
    assert p_src == 0.5
    assert p_ind == pytest.approx(p_src, abs=1e-12)


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
