"""Trace text and parsed values agree with the per-occurrence oracle.

``trace_oracle`` holds ``serialize_trace`` and ``parse_trace`` as they were
before each call kept one item table: every occurrence of an item is
checked and named again.  For every generation record and report drawn
here, the library must write the same text, byte for byte, and both must
parse it back to the value written.  Where a value has one defect (a token
named like trace rendering, a nonterminal item, or a report whose form
checks do not match its productions), both must raise the same exception
type with the same message.

Reports are also drawn with their productions shuffled, duplicated or
edited, so that consecutive lines do not chain and the serializer and
parser take their general path instead of reusing the line before.

On malformed text the library is stricter than the oracle: it refuses
names the serializer cannot write (``B_dyn`` or an id as a terminal, a
reserved name, an undeclared grammar symbol), step lines not numbered
0, 1, 2, ... in file order, a sidecar id that is not the hash of its
encoding text, and an id declared twice, where the oracle parses them.
So only text the serializer wrote is compared here; the refusals are
tested in ``test_traces.py``.

The sidecar decoder is compared with ``ast.literal_eval``: on the ``repr``
of drawn literals, on edits of it, and on hand-made texts, both give
values with the same ``repr`` or both raise.
"""

from __future__ import annotations

import ast
import dataclasses
import warnings

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import trace_oracle as oracle
from conftest import load_grammar, load_weighted
from lcsg import (
    FormCheck,
    FormCheckStatus,
    GenerationRecord,
    GenerationStep,
    SymbolString,
    WeightedGrammar,
    build_trace_report,
    derives_bounded,
    generate,
    grammar_predictor,
    ngram_train,
    nonterminal,
    parse_trace,
    serialize_trace,
    terminal,
    toy_attention_predictor,
)
from lcsg.traces import _literal

CORPUS = [["a", "b", "a", "b"], ["a", "c"], ["b", "b", "c", "a"], []]
PREDICTORS = {
    "ngram-1": ngram_train(CORPUS, 1),
    "ngram-2": ngram_train(CORPUS, 2),
    "grammar-loop": grammar_predictor(load_weighted("loop.grammar")),
    "grammar-chain": grammar_predictor(
        WeightedGrammar.from_grammar(load_grammar("chain.grammar"))
    ),
    "toy": toy_attention_predictor(seed=3, embed_dim=4, vocab=("a", "b", "c")),
}
SETTINGS = settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def outcome(f, *args):
    try:
        return f(*args)
    except Exception as exc:  # the exception type is the outcome compared
        return type(exc)


def assert_same_trace(value) -> None:
    text = serialize_trace(value)
    assert text == oracle.serialize_trace(value)
    assert parse_trace(text) == value
    assert oracle.parse_trace(text) == value
    assert serialize_trace(parse_trace(text)) == text


def refusal(serialize, value) -> tuple[type, str]:
    with pytest.raises(Exception) as info:
        serialize(value)
    return type(info.value), str(info.value)


def assert_same_refusal(value) -> None:
    assert refusal(serialize_trace, value) == refusal(oracle.serialize_trace, value)


@st.composite
def records(draw, windows=True):
    predictor = PREDICTORS[draw(st.sampled_from(sorted(PREDICTORS)))]
    policy = draw(st.sampled_from(["greedy", "sample"]))
    seed = draw(st.integers(0, 2**16))
    # a prompt the predictor can continue: a prefix of one of its own runs
    lead = generate(predictor, SymbolString(()), "sample", seed=seed, max_t=4)
    prompt = lead.final[: draw(st.integers(0, len(lead.final)))]
    window = draw(st.sampled_from([None, None, 0, 1, 2])) if windows else None
    rec = outcome(generate, predictor, prompt, policy, seed, draw(st.integers(0, 8)), window)
    assume(not isinstance(rec, type))  # a window can cut a grammar's context impossibly
    return rec


@st.composite
def reports(draw):
    report = build_trace_report(draw(records(windows=False)))
    checks = list(report.form_checks)
    for i in draw(st.sets(st.integers(0, len(checks) - 1), max_size=2)):
        checks[i] = draw(
            st.sampled_from(
                [
                    FormCheck(FormCheckStatus.FAIL, "left_context_changed"),
                    FormCheck(FormCheckStatus.FAIL, "empty_remainder"),
                    FormCheck(FormCheckStatus.PASS),
                ]
            )
        )
    pairs = draw(unchained(list(zip(report.productions, checks))))
    replay = report.replay_result if draw(st.booleans()) else None
    return dataclasses.replace(
        report,
        productions=tuple(p for p, _ in pairs),
        form_checks=tuple(c for _, c in pairs),
        replay_result=replay,
        conforming=draw(st.booleans()),
    )


@st.composite
def unchained(draw, pairs):
    """(production, check) pairs as extracted, or shuffled, duplicated or edited."""
    how = draw(st.sampled_from(["as extracted", "shuffled", "duplicated", "edited"]))
    if how == "shuffled":
        return draw(st.permutations(pairs))
    items = [item for p, _ in pairs for item in p.lhs + p.rhs]
    for _ in range(draw(st.integers(1, 3)) if how != "as extracted" else 0):
        i = draw(st.integers(0, len(pairs) - 1))
        if how == "duplicated":
            pairs.insert(draw(st.integers(0, len(pairs))), pairs[i])
            continue
        p, check = pairs[i]
        side = draw(st.sampled_from(["lhs", "rhs"]))
        old = getattr(p, side)
        j = draw(st.integers(0, len(old)))
        new = draw(st.sampled_from([(), (draw(st.sampled_from(items)),)]))
        cut = j + draw(st.integers(0, 1))  # drop, insert or replace the item at j
        pairs[i] = (dataclasses.replace(p, **{side: old[:j] + new + old[cut:]}), check)
    return pairs


@SETTINGS
@given(records())
def test_generation_records_match_the_oracle(rec):
    assert_same_trace(rec)


@SETTINGS
@given(reports())
def test_reports_match_the_oracle(report):
    assert_same_trace(report)


def test_recurring_states_keep_their_first_occurrence():
    rec = generate(PREDICTORS["ngram-1"], SymbolString(()), "greedy", seed=0, max_t=6)
    report = build_trace_report(rec)
    nt_lines = [ln for ln in serialize_trace(report).splitlines() if ln.startswith("nt ")]
    assert len(nt_lines) < len(rec.steps) + 1  # some state recurs
    assert_same_trace(rec)
    assert_same_trace(report)


@pytest.mark.parametrize(
    "grammar, names",
    [("abc.grammar", "a a b b c c"), ("crossserial.grammar", "a b c d")],
)
def test_derivation_traces_match_the_oracle(grammar, names):
    g = load_grammar(grammar)
    assert_same_trace(derives_bounded(g, g.string_of(names.split())))


COLLIDING = [terminal("B_dyn"), terminal("A#deadbeef"), nonterminal("S")]


@SETTINGS
@given(records(), st.sampled_from(COLLIDING), st.data())
def test_generation_records_with_one_defect_are_refused_alike(rec, bad, data):
    if rec.steps and data.draw(st.booleans()):
        i = data.draw(st.integers(0, len(rec.steps) - 1))
        steps = list(rec.steps)
        steps[i] = GenerationStep(steps[i].state_before, bad, steps[i].state_after)
        prompt = rec.prompt
    else:
        steps = list(rec.steps)
        prompt = rec.prompt + (bad,)
    defective = GenerationRecord(
        prompt=prompt,
        steps=tuple(steps),
        final=prompt + tuple(s.token for s in steps),
        termination=rec.termination,
        seed=rec.seed,
        policy=rec.policy,
        initial_state=rec.initial_state,
        conforming=rec.conforming,
    )
    assert_same_refusal(defective)


@SETTINGS
@given(reports(), st.sampled_from(COLLIDING + ["drop-check", "extra-check"]), st.data())
def test_reports_with_one_defect_are_refused_alike(report, bad, data):
    if bad == "drop-check":
        defective = dataclasses.replace(report, form_checks=report.form_checks[:-1])
    elif bad == "extra-check":
        defective = dataclasses.replace(
            report, form_checks=report.form_checks + (FormCheck(FormCheckStatus.PASS),)
        )
    else:
        productions = list(report.productions)
        i = data.draw(st.integers(0, len(productions) - 1))
        side = data.draw(st.sampled_from(["lhs", "rhs"]))
        items = getattr(productions[i], side)
        j = data.draw(st.integers(0, len(items)))
        productions[i] = dataclasses.replace(
            productions[i], **{side: items[:j] + (bad,) + items[j:]}
        )
        defective = dataclasses.replace(report, productions=tuple(productions))
    assert_same_refusal(defective)


# --- the sidecar decoder against ast.literal_eval

PIECES = ["'", '"', "\\", "(", ")", ", ", ",)", "None", "True", "é", "日本", "\u200b", "\n", "\x00", "😀", "a"]
LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(2**200), 2**200)
    | st.floats()
    | st.sampled_from([-0.0, 1e300, -1e-300, 0.1])
    | st.text()
    | st.lists(st.sampled_from(PIECES), max_size=6).map("".join)
    | st.binary(max_size=3)
    | st.frozensets(st.integers(0, 3), max_size=2)
)
LITERALS = st.recursive(LEAVES, lambda inner: st.lists(inner, max_size=4).map(tuple), max_leaves=12)


def decoded(decode, text):
    try:
        with warnings.catch_warnings():  # literal_eval warns on escapes like "\\/"
            warnings.simplefilter("ignore", DeprecationWarning)
            return repr(decode(text))
    except Exception:  # any refusal; both decoders must refuse alike
        return "raised"


def assert_decodes_alike(text):
    assert decoded(_literal, text) == decoded(ast.literal_eval, text)


@settings(max_examples=300, deadline=None)
@given(LITERALS)
def test_decoder_matches_literal_eval_on_repr_text(value):
    assert_decodes_alike(repr(value))
    assert_decodes_alike(repr(("family", value)))


@settings(max_examples=300, deadline=None)
@given(LITERALS, st.data())
def test_decoder_matches_literal_eval_on_edited_text(value, data):
    text = repr(value)
    i = data.draw(st.integers(0, len(text)))
    edit = data.draw(st.sampled_from(list(",()' \"0_1eN-.[]{}:\\") + [""]))
    cut = i + data.draw(st.integers(0, 1))  # insert, delete or replace at i
    assert_decodes_alike(text[:i] + edit + text[cut:])


@pytest.mark.parametrize(
    "text",
    [
        "(1)", "((1, 2))", "( 1, )", "(1, )", "(1,,)", "(,)", "007", "1_0", "-0.0", "1e300",
        "1e+300", "(1, 2) junk", "('a',)x", "((1, 2)", "(1, 2))", "(", ")", "", "('a', 'b'",
        "[1, 2]", "{'a': 1}", "{'a': (1,)}", "NaN", "Infinity", "nan", "null", "true",
        "(True, False, None)", '("a", 1)', "('a\\'b',)", "('a\\nb',)", "('\\x00',)",
        "('\\/',)", "b'x'", "frozenset({1})", "('ngram', ('a',))", "  (1,)",
    ],
)
def test_decoder_matches_literal_eval_on_hand_made_text(text):
    assert_decodes_alike(text)
