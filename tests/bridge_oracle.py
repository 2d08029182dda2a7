"""Production extraction and trace reports, as computed before one-pass extraction.

Kept verbatim as the reference that ``test_bridge_differential.py`` compares
:func:`lcsg.extract_productions` and :func:`lcsg.build_trace_report`
against: the state chain is checked in a loop of its own, the dynamic
nonterminals are listed first, and every left side is a tuple of its own,
equal to the right side before it.  Only the imports are absolute.
"""

from __future__ import annotations

from lcsg.autoregressive import GenerationRecord
from lcsg.bridge import (
    B_DYN,
    DynamicNonterminal,
    DynamicProduction,
    FormCheckStatus,
    NonconformingRecordError,
    ReplayMismatchError,
    TraceReport,
    check_left_cs_form,
    replay,
)
from lcsg.symbols import SymbolString


def extract_productions(rec: GenerationRecord) -> tuple[DynamicProduction, ...]:
    """The dynamic production sequence of a conforming run.

    Always 1 initial + len(rec.steps) interior + 1 terminal productions.
    The interior production for step t carries the context snapshot
    alpha_t = prompt plus the first t emitted tokens.
    """
    if not rec.conforming:
        raise NonconformingRecordError(
            "sliding-window records are refused: contexts do not nest"
        )
    expected = rec.initial_state
    for i, step in enumerate(rec.steps):
        if step.state_before != expected:
            raise ValueError(f"step {i}: recorded states do not chain")
        expected = step.state_after

    dyn = [DynamicNonterminal(rec.initial_state, 0)]
    dyn.extend(
        DynamicNonterminal(step.state_after, i + 1) for i, step in enumerate(rec.steps)
    )
    productions = [
        DynamicProduction("initial", (B_DYN,), tuple(rec.prompt) + (dyn[0],))
    ]
    alpha = tuple(rec.prompt)
    for i, step in enumerate(rec.steps):
        productions.append(
            DynamicProduction(
                "interior", alpha + (dyn[i],), alpha + (step.token, dyn[i + 1])
            )
        )
        alpha = alpha + (step.token,)
    productions.append(DynamicProduction("terminal", (dyn[-1],), ()))
    return tuple(productions)


def build_trace_report(rec: GenerationRecord) -> TraceReport:
    """Extract, check, and replay a record in one pass."""
    productions = extract_productions(rec)
    checks = tuple(check_left_cs_form(p) for p in productions)
    try:
        result: SymbolString | None = replay(productions)
    except ReplayMismatchError:
        result = None
    checks_ok = all(
        c.status is FormCheckStatus.PASS
        for c, p in zip(checks, productions)
        if p.kind != "terminal"
    )
    return TraceReport(
        productions=productions,
        form_checks=checks,
        replay_result=result,
        conforming=checks_ok and result == rec.final,
        seed=rec.seed,
        policy=rec.policy,
        termination=rec.termination,
    )
