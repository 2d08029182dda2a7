"""Round trips and rejection behavior of the three trace text formats."""

from __future__ import annotations

import ast
import hashlib

import pytest

from lcsg import (
    END,
    FormCheck,
    FormCheckStatus,
    PredictorState,
    SymbolString,
    TokenDistribution,
    TraceParseError,
    TraceReport,
    build_trace_report,
    derives_bounded,
    generate,
    grammar_predictor,
    ngram_train,
    parse_grammar,
    parse_trace,
    serialize_trace,
    terminal,
    toy_attention_predictor,
)
from conftest import load_grammar, load_weighted


def bigram_pred():
    return ngram_train([["a", "b", "a", "b"]], 1)


# --- generation records ---


@pytest.mark.parametrize(
    "prompt,policy,seed,max_t",
    [((), "greedy", 0, 4), (("a",), "sample", 13, 5), (("a", "b"), "sample", 2, 0)],
)
def test_generation_round_trip(prompt, policy, seed, max_t):
    pred = bigram_pred()
    rec = generate(
        pred,
        SymbolString(tuple(terminal(n) for n in prompt)),
        policy,
        seed=seed,
        max_t=max_t,
    )
    text = serialize_trace(rec)
    assert parse_trace(text) == rec
    assert serialize_trace(parse_trace(text)) == text


def test_generation_header_carries_the_run_parameters():
    rec = generate(bigram_pred(), SymbolString(()), "sample", seed=13, max_t=4)
    header = serialize_trace(rec).splitlines()[0]
    assert header.startswith("kind=generation ")
    for fragment in ("seed=13", "policy=sample", "conforming=true", "prompt=_"):
        assert fragment in header, fragment


def test_nonconforming_flag_survives_the_round_trip():
    pred = bigram_pred()
    rec = generate(pred, SymbolString(()), "greedy", seed=0, max_t=4, window=1)
    assert not rec.conforming
    assert parse_trace(serialize_trace(rec)) == rec


def test_token_names_that_mimic_trace_ids_are_refused():
    colliding = terminal("A#deadbeef")

    class OneToken:
        family = "odd"
        finite_state = True
        vocabulary = (colliding,)
        initial_state = PredictorState("odd", 0)

        def next_distribution(self, state, context):
            dist = TokenDistribution(((colliding, 1.0), (END, 0.0)))
            return dist, PredictorState("odd", len(context))

    rec = generate(OneToken(), SymbolString(()), "greedy", seed=0, max_t=1)
    with pytest.raises(ValueError, match="collides"):
        serialize_trace(rec)


# --- derivation traces ---


def test_derivation_round_trip(abc):
    trace = derives_bounded(abc, abc.string_of(["a", "a", "b", "b", "c", "c"]))
    text = serialize_trace(trace)
    assert parse_trace(text) == trace
    assert serialize_trace(parse_trace(text)) == text
    assert text.splitlines()[0] == "kind=derivation"
    assert "g start: S" in text


def test_derivation_with_erasure_renders_lambda():
    g = parse_grammar("start: S\nterminals: a\nnonterminals: S\nS -> a\nS -> _\n")
    trace = derives_bounded(g, SymbolString(()))
    text = serialize_trace(trace)
    assert "after=_" in text
    assert parse_trace(text) == trace


def test_derivation_parser_replays_every_step():
    prefix = "kind=derivation\ng start: S\ng terminals: a\ng nonterminals: S\ng S -> a\n"
    with pytest.raises(TraceParseError, match="out of range"):
        parse_trace(prefix + "step=0 prod=9 pos=0 after=a\n")
    with pytest.raises(TraceParseError, match="does not apply"):
        parse_trace(prefix + "step=0 prod=0 pos=1 after=a\n")
    good = prefix + "step=0 prod=0 pos=0 after=a\n"
    assert str(parse_trace(good).final) == "a"


def test_derivation_parser_checks_the_recorded_form():
    text = (
        "kind=derivation\ng start: S\ng terminals: a b\ng nonterminals: S\n"
        "g S -> a\ng S -> b\nstep=0 prod=0 pos=0 after=b\n"
    )
    with pytest.raises(TraceParseError, match="disagrees"):
        parse_trace(text)


def test_derivation_forms_spaced_as_the_serializer_never_writes_are_refused():
    prefix = "kind=derivation\ng start: S\ng terminals: a b\ng nonterminals: S\ng S -> a b\n"
    assert str(parse_trace(prefix + "step=0 prod=0 pos=0 after=a b\n").final) == "a b"
    for after in ("a  b", " a b", "a b "):
        with pytest.raises(TraceParseError, match="disagrees") as info:
            parse_trace(prefix + f"step=0 prod=0 pos=0 after={after}\n")
        assert info.value.line == 6


# --- extraction reports ---


def test_report_round_trip():
    rec = generate(bigram_pred(), SymbolString((terminal("a"),)), "sample", seed=13, max_t=8)
    report = build_trace_report(rec)
    text = serialize_trace(report)
    assert parse_trace(text) == report
    assert serialize_trace(parse_trace(text)) == text


def test_report_lines_show_checks_and_reasons():
    rec = generate(bigram_pred(), SymbolString((terminal("a"),)), "greedy", seed=0, max_t=3)
    text = serialize_trace(build_trace_report(rec))
    lines = text.splitlines()
    assert lines[0].startswith("kind=report ")
    assert "replay=" in lines[0]
    step_lines = [ln for ln in lines if ln.startswith("step=")]
    assert step_lines[0].startswith("step=0 kind=initial lhs=B_dyn -> rhs=")
    assert all("check=pass" in ln for ln in step_lines[:-1])
    assert step_lines[-1].endswith("check=exempt")


def test_report_with_failures_round_trips():
    rec = generate(bigram_pred(), SymbolString(()), "greedy", seed=0, max_t=2)
    base = build_trace_report(rec)
    # a doctored report: one failing check, replay withheld
    checks = list(base.form_checks)
    checks[1] = FormCheck(FormCheckStatus.FAIL, "left_context_changed")
    doctored = TraceReport(
        productions=base.productions,
        form_checks=tuple(checks),
        replay_result=None,
        conforming=False,
        seed=base.seed,
        policy=base.policy,
        termination=base.termination,
    )
    text = serialize_trace(doctored)
    assert "check=fail reason=left_context_changed" in text
    assert "replay=" not in text.splitlines()[0]
    assert parse_trace(text) == doctored


# --- shared parser behavior ---


def test_parser_rejects_malformed_input():
    with pytest.raises(TraceParseError):
        parse_trace("")
    with pytest.raises(TraceParseError):
        parse_trace("kind=banquet seed=1\n")
    with pytest.raises(TraceParseError):
        parse_trace(
            "kind=generation seed=x policy=greedy termination=END_sampled"
            " conforming=true initial=A#00000000 prompt=_\n"
        )


def test_parser_rejects_dangling_state_references():
    text = (
        "kind=generation seed=1 policy=greedy termination=END_sampled"
        " conforming=true initial=A#b2b51ef6 prompt=_\n"
        "state A#b2b51ef6 ('ngram', ())\n"
        "step=0 before=A#11111111 token=b after=A#b2b51ef6\n"
    )
    with pytest.raises(TraceParseError) as info:
        parse_trace(text)
    assert info.value.line == 3


def test_parse_errors_carry_line_numbers():
    try:
        parse_trace("kind=banquet\n")
    except TraceParseError as e:
        assert e.line == 1
        assert "line 1" in str(e)


def test_blank_lines_are_ignored():
    rec = generate(bigram_pred(), SymbolString(()), "greedy", seed=0, max_t=2)
    text = serialize_trace(rec)
    padded = "\n" + text.replace("\nstep=", "\n\nstep=") + "\n\n"
    assert parse_trace(padded) == rec


# --- names and step numbers the serializer cannot write

GEN_HEAD = (
    "kind=generation seed=1 policy=greedy termination=END_sampled"
    " conforming=true initial=A#b2b51ef6 prompt={}\n"
    "state A#b2b51ef6 ('ngram', ())\n"
)
REPORT_HEAD = (
    "kind=report seed=1 policy=greedy termination=END_sampled conforming=true{}\n"
    "nt A#b2b51ef6 t=0 ('ngram', ())\n"
)


def assert_refused_at(text, line):
    with pytest.raises(TraceParseError) as info:
        parse_trace(text)
    assert info.value.line == line


@pytest.mark.parametrize("name", ["B_dyn", "A#deadbeef", "A#b2b51ef6", "|", "_", "->"])
def test_token_names_the_serializer_cannot_write_are_refused(name):
    step = f"step=0 before=A#b2b51ef6 token={name} after=A#b2b51ef6\n"
    assert_refused_at(GEN_HEAD.format("_") + step, 3)


@pytest.mark.parametrize("names", ["B_dyn", "a A#b2b51ef6", "|", "a _"])
def test_prompt_names_the_serializer_cannot_write_are_refused(names):
    assert_refused_at(GEN_HEAD.format(names), 1)


@pytest.mark.parametrize("names", ["B_dyn", "a A#b2b51ef6", "|", "a _"])
def test_replay_names_the_serializer_cannot_write_are_refused(names):
    step = "step=0 kind=initial lhs=B_dyn -> rhs=a A#b2b51ef6 check=pass\n"
    assert_refused_at(REPORT_HEAD.format(f" replay={names}") + step, 1)


@pytest.mark.parametrize("lhs", ["|", "a _ A#b2b51ef6", "->"])
def test_item_names_the_serializer_cannot_write_are_refused(lhs):
    step = f"step=0 kind=initial lhs={lhs} -> rhs=a A#b2b51ef6 check=pass\n"
    assert_refused_at(REPORT_HEAD.format("") + step, 3)


SIDECAR_HEADS = pytest.mark.parametrize(
    "head", [GEN_HEAD.format("_"), REPORT_HEAD.format("")], ids=["state", "nt"]
)


@SIDECAR_HEADS
def test_sidecar_ids_must_match_their_encodings(head):
    edited = head.replace("('ngram', ())", "('ngram', ('a',))")
    with pytest.raises(TraceParseError, match="does not match its encoding") as info:
        parse_trace(edited)
    assert info.value.line == 2


@SIDECAR_HEADS
@pytest.mark.parametrize("encoding", ["('f', [1])", "('f', ({},))", "('f', {1, 2})"])
def test_unhashable_sidecar_encodings_are_refused(head, encoding):
    sid = "A#" + hashlib.sha256(encoding.encode()).hexdigest()[:8]
    edited = head.replace("('ngram', ())", encoding).replace("A#b2b51ef6", sid)
    with pytest.raises(TraceParseError, match="unhashable state encoding") as info:
        parse_trace(edited)
    assert info.value.line == 2


@SIDECAR_HEADS
def test_sidecar_ids_are_declared_once(head):
    sidecar = head.splitlines()[1]
    with pytest.raises(TraceParseError, match="declared twice") as info:
        parse_trace(head + sidecar + "\n")
    assert info.value.line == 3


@pytest.mark.parametrize("lhs", ["a b ", "a b\tA#b2b51ef6", "a  b A#b2b51ef6", " A#b2b51ef6"])
def test_report_sides_spaced_unlike_the_serializer_still_parse_name_by_name(lhs):
    rhs = "a b c A#b2b51ef6"
    step = f"step=0 kind=interior lhs={lhs} -> rhs={rhs} check=pass\n"
    p = parse_trace(REPORT_HEAD.format("") + step).productions[0]
    for items, raw in ((p.lhs, lhs), (p.rhs, rhs)):
        assert [getattr(i, "name", None) or repr(i) for i in items] == raw.split()


def test_derivation_forms_with_undeclared_names_are_refused():
    text = (
        "kind=derivation\ng start: S\ng terminals: a\ng nonterminals: S\ng S -> a\n"
        "step=0 prod=0 pos=0 after=z\n"
    )
    assert_refused_at(text, 6)


def step_numbered_texts():
    rec = generate(bigram_pred(), SymbolString(()), "greedy", seed=0, max_t=4)
    g = load_grammar("abc.grammar")
    derivation = derives_bounded(g, g.string_of(["a", "a", "b", "b", "c", "c"]))
    return [serialize_trace(v) for v in (rec, derivation, build_trace_report(rec))]


@pytest.mark.parametrize("kind", [0, 1, 2], ids=["generation", "derivation", "report"])
@pytest.mark.parametrize("how", ["deleted", "swapped", "renumbered"])
def test_step_lines_must_be_numbered_in_file_order(kind, how):
    lines = step_numbered_texts()[kind].splitlines()
    first = next(i for i, ln in enumerate(lines) if ln.startswith("step=1 "))
    assert lines[first + 1].startswith("step=2 ")
    if how == "deleted":
        del lines[first]
    elif how == "swapped":
        lines[first], lines[first + 1] = lines[first + 1], lines[first]
    else:
        lines[first] = "step=7 " + lines[first].split(" ", 1)[1]
    with pytest.raises(TraceParseError, match="step=") as info:
        parse_trace("\n".join(lines) + "\n")
    assert info.value.line == first + 1


# --- sidecar encodings are decoded without compiling them


def uncompiled_runs():
    toy = toy_attention_predictor(0, 8, tuple(f"w{i:02d}" for i in range(32)))
    long_toy = generate(toy, SymbolString(()), "greedy", seed=0, max_t=63)
    assert len(long_toy.steps) == 63
    loop = grammar_predictor(load_weighted("loop.grammar"))
    kgram = ngram_train([["a", "b", "a", "b"], ["a", "c"], ["b", "b", "c", "a"]], 2)
    a = SymbolString((terminal("a"),))
    return [
        long_toy,
        generate(toy, SymbolString((terminal("w03"),)), "sample", seed=5, max_t=12),
        generate(loop, SymbolString(()), "sample", seed=1, max_t=8),
        generate(loop, a, "greedy", seed=0, max_t=6),
        generate(kgram, SymbolString(()), "sample", seed=13, max_t=8),
        generate(kgram, a, "greedy", seed=0, max_t=5),
    ]


def test_serialized_encodings_parse_without_compiling(monkeypatch):
    values = [v for rec in uncompiled_runs() for v in (rec, build_trace_report(rec))]
    texts = [serialize_trace(v) for v in values]

    def refuse(*args, **kwargs):
        raise AssertionError("ast.parse called")

    with monkeypatch.context() as patched:  # undone before pytest renders a failure
        patched.setattr(ast, "parse", refuse)
        parsed = [parse_trace(text) for text in texts]
    assert parsed == values


# --- refusals of each kind


@SIDECAR_HEADS
@pytest.mark.parametrize(
    "encoding, message",
    [("('ngram', x)", "bad state encoding"), ("(1, ())", "state family must be a string")],
    ids=["not-a-literal", "family-not-a-string"],
)
def test_sidecar_encodings_must_be_literals_of_a_named_family(head, encoding, message):
    edited = head.replace("('ngram', ())", encoding)
    with pytest.raises(TraceParseError, match=message) as info:
        parse_trace(edited)
    assert info.value.line == 2


def test_the_initial_state_needs_a_sidecar_line():
    header = GEN_HEAD.format("_").splitlines()[0]
    with pytest.raises(TraceParseError, match="initial state id is not in the table") as info:
        parse_trace(header + "\n")
    assert info.value.line == 1


def test_a_bad_report_header_is_refused():
    with pytest.raises(TraceParseError, match="bad report header") as info:
        parse_trace(REPORT_HEAD.format("").replace("seed=1", "seed=x"))
    assert info.value.line == 1


@pytest.mark.parametrize(
    "head",
    [
        GEN_HEAD.format("_"),
        "kind=derivation\ng start: S\ng terminals: a\ng nonterminals: S\ng S -> a\n",
        REPORT_HEAD.format(""),
    ],
    ids=["generation", "derivation", "report"],
)
def test_unrecognized_lines_are_refused_in_every_kind(head):
    text = head + "step 0 says hello\n"
    with pytest.raises(TraceParseError, match="unrecognized line") as info:
        parse_trace(text)
    assert info.value.line == len(text.splitlines())


def test_only_the_three_trace_kinds_serialize():
    with pytest.raises(TypeError, match="cannot serialize PredictorState"):
        serialize_trace(PredictorState("ngram", ()))


def test_two_states_with_one_id_are_refused(monkeypatch):
    rec = generate(bigram_pred(), SymbolString(()), "greedy", seed=0, max_t=2)
    assert len({rec.initial_state, *(s.state_after for s in rec.steps)}) > 1
    monkeypatch.setattr("lcsg.traces._state_hash", lambda state, text=None: "deadbeef")
    with pytest.raises(ValueError, match="state id collision on A#deadbeef"):
        serialize_trace(rec)
