"""Trace serialization and parsing, as computed before one table per trace.

Kept verbatim as the reference that ``test_traces_differential.py``
compares :func:`lcsg.serialize_trace` and :func:`lcsg.parse_trace`
against: every occurrence of an item is checked and named again, and a
report's dynamic nonterminals are collected in a walk of their own.  Only
the imports are absolute.
"""

from __future__ import annotations

import ast
import re

from lcsg.autoregressive import GenerationRecord, GenerationStep, PredictorState
from lcsg.bridge import (
    B_DYN,
    DynamicNonterminal,
    DynamicProduction,
    DynamicStart,
    FormCheck,
    FormCheckStatus,
    Item,
    TraceReport,
    _state_hash,
)
from lcsg.derivation import (
    DerivationStep,
    DerivationTrace,
    NoMatchError,
    OutOfRangeError,
    apply_step,
)
from lcsg.grammar_io import parse_grammar, render_grammar
from lcsg.symbols import Symbol, SymbolString, terminal


class TraceParseError(ValueError):
    """A trace file line does not fit the format."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


_ID_RE = re.compile(r"A#[0-9a-f]{8}\Z")
_GEN_HEADER_RE = re.compile(
    r"kind=generation seed=(-?\d+) policy=(\S+) termination=(\S+)"
    r" conforming=(true|false) initial=(A#[0-9a-f]{8}) prompt=(.*)\Z"
)
_GEN_STEP_RE = re.compile(
    r"step=(\d+) before=(A#[0-9a-f]{8}) token=(\S+) after=(A#[0-9a-f]{8})\Z"
)
_STATE_RE = re.compile(r"state (A#[0-9a-f]{8}) (.*)\Z")
_DERIV_STEP_RE = re.compile(r"step=(\d+) prod=(\d+) pos=(\d+) after=(.*)\Z")
_REPORT_HEADER_RE = re.compile(
    r"kind=report seed=(-?\d+) policy=(\S+) termination=(\S+)"
    r" conforming=(true|false)(?: replay=(.*))?\Z"
)
_NT_RE = re.compile(r"nt (A#[0-9a-f]{8}) t=(\d+) (.*)\Z")
_REPORT_STEP_RE = re.compile(
    r"step=(\d+) kind=(initial|interior|terminal) lhs=(.*?) -> rhs=(.*?)"
    r" check=(pass|fail|exempt)(?: reason=([A-Za-z0-9_\-]+))?\Z"
)


def _check_symbol(s: Symbol) -> str:
    if not s.is_terminal:
        raise ValueError(f"only terminal symbols appear in traces, got {s!r}")
    if s.name == "B_dyn" or _ID_RE.match(s.name):
        raise ValueError(f"symbol name {s.name!r} collides with trace rendering")
    return s.name


def _render_items(items: tuple[Item, ...]) -> str:
    if not items:
        return "_"
    parts = []
    for item in items:
        if isinstance(item, DynamicStart):
            parts.append("B_dyn")
        elif isinstance(item, DynamicNonterminal):
            parts.append(f"A#{item.short_id}")
        else:
            parts.append(_check_symbol(item))
    return " ".join(parts)


def _render_names(s: SymbolString) -> str:
    for sym in s:
        _check_symbol(sym)
    return str(s)


def _parse_names(raw: str) -> SymbolString:
    """The inverse of :func:`_render_names`: ``_`` or terminal names."""
    if raw == "_":
        return SymbolString(())
    return SymbolString(terminal(name) for name in raw.split())


def _parse_encoding(raw: str, line: int) -> tuple[str, object]:
    try:
        family, encoding = ast.literal_eval(raw)
    except (ValueError, SyntaxError, TypeError):
        raise TraceParseError(f"bad state encoding {raw!r}", line) from None
    if not isinstance(family, str):
        raise TraceParseError("state family must be a string", line)
    return family, encoding


def _bool(text: str) -> bool:
    return text == "true"


# ---------------------------------------------------------------------------
# generation records


def _serialize_generation(rec: GenerationRecord) -> str:
    table: dict[str, PredictorState] = {}

    def register(state: PredictorState) -> str:
        sid = f"A#{_state_hash(state)}"
        if sid in table and table[sid] != state:
            raise ValueError(f"state id collision on {sid}")
        table[sid] = state
        return sid

    initial_id = register(rec.initial_state)
    step_lines = []
    for i, step in enumerate(rec.steps):
        before = register(step.state_before)
        after = register(step.state_after)
        step_lines.append(
            f"step={i} before={before} token={_check_symbol(step.token)} after={after}"
        )
    header = (
        f"kind=generation seed={rec.seed} policy={rec.policy}"
        f" termination={rec.termination} conforming={str(rec.conforming).lower()}"
        f" initial={initial_id} prompt={_render_names(rec.prompt)}"
    )
    state_lines = [
        f"state {sid} {(state.family, state.encoding)!r}"
        for sid, state in table.items()
    ]
    return "\n".join([header] + state_lines + step_lines) + "\n"


def _parse_generation(lines: list[str]) -> GenerationRecord:
    m = _GEN_HEADER_RE.match(lines[0])
    if not m:
        raise TraceParseError("bad generation header", 1)
    seed, policy, termination, conforming, initial_id, prompt_raw = m.groups()
    states: dict[str, PredictorState] = {}
    steps: list[GenerationStep] = []
    for n, line in enumerate(lines[1:], start=2):
        sm = _STATE_RE.match(line)
        if sm:
            sid, raw = sm.groups()
            family, encoding = _parse_encoding(raw, n)
            states[sid] = PredictorState(family, encoding)
            continue
        pm = _GEN_STEP_RE.match(line)
        if not pm:
            raise TraceParseError(f"unrecognized line {line!r}", n)
        _, before, token, after = pm.groups()
        if before not in states or after not in states:
            raise TraceParseError("step references an unknown state id", n)
        steps.append(
            GenerationStep(states[before], terminal(token), states[after])
        )
    if initial_id not in states:
        raise TraceParseError("initial state id is not in the table", 1)
    prompt = _parse_names(prompt_raw)
    final = prompt + tuple(s.token for s in steps)
    return GenerationRecord(
        prompt=prompt,
        steps=tuple(steps),
        final=final,
        termination=termination,
        seed=int(seed),
        policy=policy,
        initial_state=states[initial_id],
        conforming=_bool(conforming),
    )


# ---------------------------------------------------------------------------
# derivation traces


def _serialize_derivation(trace: DerivationTrace) -> str:
    lines = ["kind=derivation"]
    lines.extend(f"g {line}" for line in render_grammar(trace.grammar).splitlines())
    for i, step in enumerate(trace.steps):
        lines.append(
            f"step={i} prod={step.production_index} pos={step.position} after={step.after}"
        )
    return "\n".join(lines) + "\n"


def _parse_derivation(lines: list[str]) -> DerivationTrace:
    grammar_lines = []
    i = 1
    while i < len(lines) and lines[i].startswith("g "):
        grammar_lines.append(lines[i][2:])
        i += 1
    grammar = parse_grammar("\n".join(grammar_lines) + "\n")
    steps: list[DerivationStep] = []
    before = SymbolString((grammar.start,))
    for n, line in enumerate(lines[i:], start=i + 1):
        m = _DERIV_STEP_RE.match(line)
        if not m:
            raise TraceParseError(f"unrecognized line {line!r}", n)
        _, prod, pos, after_raw = m.groups()
        after = (
            SymbolString(())
            if after_raw == "_"
            else grammar.string_of(after_raw.split())
        )
        index = int(prod)
        if not 0 <= index < len(grammar.productions):
            raise TraceParseError(f"production index {index} out of range", n)
        try:
            replayed = apply_step(before, grammar.productions[index], int(pos))
        except (NoMatchError, OutOfRangeError) as e:
            raise TraceParseError(f"step does not apply: {e}", n) from None
        if replayed != after:
            raise TraceParseError(
                f"recorded form {after} disagrees with the rewrite {replayed}", n
            )
        steps.append(DerivationStep(before, index, int(pos), after))
        before = after
    return DerivationTrace(grammar, tuple(steps))


# ---------------------------------------------------------------------------
# extraction reports


def _serialize_report(report: TraceReport) -> str:
    table: dict[str, DynamicNonterminal] = {}
    for p in report.productions:
        for item in p.lhs + p.rhs:
            if isinstance(item, DynamicNonterminal):
                sid = f"A#{item.short_id}"
                if sid in table and table[sid] != item:
                    raise ValueError(f"state id collision on {sid}")
                table.setdefault(sid, item)
    header = (
        f"kind=report seed={report.seed} policy={report.policy}"
        f" termination={report.termination}"
        f" conforming={str(report.conforming).lower()}"
    )
    if report.replay_result is not None:
        header += f" replay={_render_names(report.replay_result)}"
    lines = [header]
    lines.extend(
        f"nt {sid} t={nt.t} {(nt.state.family, nt.state.encoding)!r}"
        for sid, nt in table.items()
    )
    if len(report.form_checks) != len(report.productions):
        raise ValueError("one form check per production is required")
    for i, (p, check) in enumerate(zip(report.productions, report.form_checks)):
        line = (
            f"step={i} kind={p.kind} lhs={_render_items(p.lhs)}"
            f" -> rhs={_render_items(p.rhs)} check={check.status.value}"
        )
        if check.reason is not None:
            line += f" reason={check.reason}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def _parse_items(
    raw: str, table: dict[str, DynamicNonterminal], line: int
) -> tuple[Item, ...]:
    if raw == "_":
        return ()
    items: list[Item] = []
    for part in raw.split():
        if part == "B_dyn":
            items.append(B_DYN)
        elif _ID_RE.match(part):
            if part not in table:
                raise TraceParseError(f"unknown dynamic id {part}", line)
            items.append(table[part])
        else:
            items.append(terminal(part))
    return tuple(items)


_STATUS_BY_VALUE = {s.value: s for s in FormCheckStatus}


def _parse_report(lines: list[str]) -> TraceReport:
    m = _REPORT_HEADER_RE.match(lines[0])
    if not m:
        raise TraceParseError("bad report header", 1)
    seed, policy, termination, conforming, replay_raw = m.groups()
    table: dict[str, DynamicNonterminal] = {}
    productions: list[DynamicProduction] = []
    checks: list[FormCheck] = []
    for n, line in enumerate(lines[1:], start=2):
        nm = _NT_RE.match(line)
        if nm:
            sid, t, raw = nm.groups()
            family, encoding = _parse_encoding(raw, n)
            table[sid] = DynamicNonterminal(PredictorState(family, encoding), int(t))
            continue
        pm = _REPORT_STEP_RE.match(line)
        if not pm:
            raise TraceParseError(f"unrecognized line {line!r}", n)
        _, kind, lhs_raw, rhs_raw, status, reason = pm.groups()
        productions.append(
            DynamicProduction(
                kind, _parse_items(lhs_raw, table, n), _parse_items(rhs_raw, table, n)
            )
        )
        checks.append(FormCheck(_STATUS_BY_VALUE[status], reason))
    return TraceReport(
        productions=tuple(productions),
        form_checks=tuple(checks),
        replay_result=None if replay_raw is None else _parse_names(replay_raw),
        conforming=_bool(conforming),
        seed=int(seed),
        policy=policy,
        termination=termination,
    )


# ---------------------------------------------------------------------------
# public surface


def serialize_trace(obj: GenerationRecord | DerivationTrace | TraceReport) -> str:
    """Render a record, derivation, or report as trace-file text."""
    if isinstance(obj, GenerationRecord):
        return _serialize_generation(obj)
    if isinstance(obj, DerivationTrace):
        return _serialize_derivation(obj)
    if isinstance(obj, TraceReport):
        return _serialize_report(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def parse_trace(text: str) -> GenerationRecord | DerivationTrace | TraceReport:
    """Parse trace-file text back into the value it was rendered from."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise TraceParseError("empty trace", 1)
    head = lines[0]
    if head.startswith("kind=generation"):
        return _parse_generation(lines)
    if head == "kind=derivation":
        return _parse_derivation(lines)
    if head.startswith("kind=report"):
        return _parse_report(lines)
    raise TraceParseError(f"unknown trace kind in {head!r}", 1)
