"""Extraction and reports agree with the three-pass oracle, and share forms.

``bridge_oracle`` holds ``extract_productions`` and ``build_trace_report``
as they were before extraction made one pass.  For every generation record
drawn here, the library must give equal productions, an equal report and
the same trace text, or raise the same exception with the same message: a
windowed record is refused as nonconforming, and a record with one step's
``state_before`` replaced is refused at the first step that does not chain.

The library also builds each sentential form once: every interior
production's left side is the very tuple that the production before it has
as its right side.  Parsing a report's text back keeps that sharing.
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, strategies as st

import bridge_oracle as oracle
from lcsg import (
    GenerationStep,
    NonconformingRecordError,
    PredictorState,
    build_trace_report,
    extract_productions,
    parse_trace,
    serialize_trace,
)
from test_traces_differential import SETTINGS, records


def outcome(f, rec):
    try:
        return f(rec)
    except ValueError as exc:  # the exception and its message are the outcome compared
        return type(exc), str(exc)


def assert_same_extraction(rec) -> None:
    productions = outcome(extract_productions, rec)
    assert productions == outcome(oracle.extract_productions, rec)
    report = outcome(build_trace_report, rec)
    assert report == outcome(oracle.build_trace_report, rec)
    if not isinstance(report, tuple):
        assert serialize_trace(report) == serialize_trace(oracle.build_trace_report(rec))


@SETTINGS
@given(records())
def test_records_match_the_oracle(rec):
    assert_same_extraction(rec)
    if not rec.conforming:
        assert outcome(extract_productions, rec)[0] is NonconformingRecordError


@SETTINGS
@given(records(), st.data())
def test_records_with_one_state_replaced_are_refused_alike(rec, data):
    steps = list(rec.steps)
    if steps:
        i = data.draw(st.integers(0, len(steps) - 1))
        states = [rec.initial_state] + [s.state_after for s in steps]
        wrong = data.draw(st.sampled_from(states + [PredictorState("foreign", (i,))]))
        steps[i] = GenerationStep(wrong, steps[i].token, steps[i].state_after)
        rec = dataclasses.replace(rec, steps=tuple(steps))
    assert_same_extraction(rec)


def assert_forms_shared(productions) -> None:
    for i, p in enumerate(productions):
        if p.kind == "interior":
            assert p.lhs is productions[i - 1].rhs, i


@SETTINGS
@given(records(windows=False))
def test_each_left_side_is_the_right_side_before_it(rec):
    assert_forms_shared(extract_productions(rec))
    report = build_trace_report(rec)
    assert_forms_shared(report.productions)
    assert_forms_shared(parse_trace(serialize_trace(report)).productions)
